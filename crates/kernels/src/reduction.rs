//! **Reduction** — sum of an array (Quadrant III).
//!
//! * **TC** follows Dakkak et al.'s tensor-core reduction in FP64: per
//!   8×8 tile `X`, two constant-operand MMAs — `P = R·X` with `R` having
//!   a single row of ones (column sums land in row 0), then `Q = P·C`
//!   with `C` having a single column of ones (the tile total lands in
//!   `Q[0][0]`). Both the constant inputs and the useful output are
//!   *partial* — the defining property of Quadrant III.
//! * **CC** issues identical FMA chains on CUDA cores (bit-identical).
//! * **CC-E** performs only the essential tree additions on the blocked
//!   layout.
//! * **Baseline** models CUB `BlockReduce`: per-thread partials, warp
//!   shuffle trees, cross-warp combine.

use cubie_core::mma::mma_f64_8x8x8;
use cubie_core::OpCounters;
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::{bytes_f64, Variant};

/// Elements per 8×8 tile.
pub const TILE: usize = 64;

/// Inner-loop repetitions of the benchmarked kernel (see the Scan
/// workload's documentation; block-primitive microbenchmarks iterate
/// inside the kernel to amortize launch overhead).
pub const KERNEL_REPEATS: u64 = crate::scan::KERNEL_REPEATS;

/// One Reduction test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionCase {
    /// Number of elements (the paper's cases: 64–1024).
    pub n: usize,
}

impl ReductionCase {
    /// The five Table 2 test cases.
    pub fn cases() -> Vec<ReductionCase> {
        [64, 128, 256, 512, 1024]
            .into_iter()
            .map(|n| ReductionCase { n })
            .collect()
    }

    /// Useful work: one addition per element per benchmarked repetition.
    pub fn useful_flops(&self) -> f64 {
        self.n as f64 * KERNEL_REPEATS as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        format!("{}", self.n)
    }
}

/// Deterministic input for a case.
pub fn input(case: &ReductionCase) -> Vec<f64> {
    cubie_core::LcgF64::new(0xF0 + case.n as u64).vec(case.n)
}

/// Serial CPU ground truth: naive left-to-right sum.
pub fn reference(x: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for v in x {
        acc += v;
    }
    acc
}

/// The constant operands of Figure 2, Quadrant III.
pub mod constants {
    /// Single row of ones (row 0), zeros elsewhere.
    pub fn row_ones() -> [f64; 64] {
        let mut r = [0.0; 64];
        r[..8].fill(1.0);
        r
    }

    /// Single column of ones (column 0), zeros elsewhere.
    pub fn col_ones() -> [f64; 64] {
        let mut c = [0.0; 64];
        for i in 0..8 {
            c[i * 8] = 1.0;
        }
        c
    }
}

/// Reduce one zero-padded tile through the two constant-operand MMAs.
fn reduce_tile(x: &[f64], counters: &mut OpCounters) -> f64 {
    let mut xt = [0.0f64; 64];
    xt[..x.len()].copy_from_slice(x);
    let r = constants::row_ones();
    let c = constants::col_ones();
    let mut p = [0.0f64; 64];
    mma_f64_8x8x8(&r, &xt, &mut p, counters); // P = R·X → column sums in row 0
    let mut q = [0.0f64; 64];
    mma_f64_8x8x8(&p, &c, &mut q, counters); // Q = P·C → total in (0,0)
    q[0]
}

/// Functional execution of one variant. Returns (sum, trace).
pub fn run(x: &[f64], variant: Variant) -> (f64, WorkloadTrace) {
    let case = ReductionCase { n: x.len() };
    let s = match variant {
        Variant::Tc | Variant::Cc => run_mma(x),
        Variant::CcE => run_essential(x),
        Variant::Baseline => run_baseline(x),
    };
    (s, trace(&case, variant))
}

/// TC/CC functional path: parallel tile reductions, partials combined by
/// one more tile pass.
fn run_mma(x: &[f64]) -> f64 {
    let n = x.len();
    let tiles = n.div_ceil(TILE).max(1);
    let mut scratch = OpCounters::new();
    let mut partials: Vec<f64> = Vec::with_capacity(tiles);
    for t in 0..tiles {
        let lo = t * TILE;
        let hi = (lo + TILE).min(n);
        partials.push(reduce_tile(&x[lo..hi.max(lo)], &mut scratch));
    }
    if tiles == 1 {
        partials[0]
    } else {
        reduce_tile(&partials, &mut scratch)
    }
}

/// CC-E functional path: pairwise tree addition within tiles, then
/// across tiles — the minimal additions the reduction needs.
fn run_essential(x: &[f64]) -> f64 {
    let n = x.len();
    let tiles = n.div_ceil(TILE).max(1);
    let mut partials: Vec<f64> = Vec::with_capacity(tiles);
    for t in 0..tiles {
        let lo = t * TILE;
        let hi = (lo + TILE).min(n);
        partials.push(tree_sum(&x[lo..hi]));
    }
    tree_sum(&partials)
}

fn tree_sum(x: &[f64]) -> f64 {
    let mut buf = x.to_vec();
    while buf.len() > 1 {
        let half = buf.len().div_ceil(2);
        for i in 0..buf.len() / 2 {
            buf[i] = buf[2 * i] + buf[2 * i + 1];
        }
        if buf.len() % 2 == 1 {
            buf[half - 1] = buf[buf.len() - 1];
        }
        buf.truncate(half);
    }
    buf.first().copied().unwrap_or(0.0)
}

/// Baseline functional path: CUB-style — per-thread serial partials then
/// a shuffle tree across 128 threads.
fn run_baseline(x: &[f64]) -> f64 {
    let n = x.len();
    let threads = 128.min(n.max(1));
    let per = n.div_ceil(threads);
    let mut partials: Vec<f64> = Vec::with_capacity(threads);
    for t in 0..threads {
        let lo = (t * per).min(n);
        let hi = ((t + 1) * per).min(n);
        let mut acc = 0.0f64;
        for v in &x[lo..hi] {
            acc += v;
        }
        partials.push(acc);
    }
    let mut width = partials.len();
    while width > 1 {
        let half = width.div_ceil(2);
        for i in 0..width / 2 {
            partials[i] += partials[i + half];
        }
        width = half;
    }
    partials[0]
}

/// Analytic trace of one variant.
pub fn trace(case: &ReductionCase, variant: Variant) -> WorkloadTrace {
    let n = case.n;
    let tiles = n.div_ceil(TILE).max(1) as u64;
    let hierarchical = tiles > 1;
    let label = format!("reduction-{}-{}", variant.label(), case.label());
    let mut ops = OpCounters {
        smem_bytes: bytes_f64(n) + 8,
        syncs: if hierarchical { 2 } else { 1 },
        ..Default::default()
    };
    let critical = match variant {
        Variant::Tc => {
            ops.mma_f64 = 4 * tiles + if hierarchical { 4 } else { 0 };
            ops.cmem_bytes = 2 * bytes_f64(TILE);
            let level = 4.0 * latency::MMA_F64;
            latency::SMEM_RT
                + level
                + if hierarchical {
                    latency::SMEM_RT + level
                } else {
                    0.0
                }
        }
        Variant::Cc => {
            ops.fma_f64 = (4 * tiles + if hierarchical { 4 } else { 0 }) * 256;
            ops.int_ops = ops.fma_f64; // operand shuffles
            ops.cmem_bytes = 2 * bytes_f64(TILE);
            let level = 2.0 * (2.0 * 8.0 * latency::FMA_F64);
            latency::SMEM_RT
                + level
                + if hierarchical {
                    latency::SMEM_RT + level
                } else {
                    0.0
                }
        }
        Variant::CcE => {
            ops.add_f64 = n as u64;
            // 6-round shuffle tree per tile + phase exchange.
            let level = 6.0 * (latency::SHFL + latency::FMA_F64) + latency::SMEM_RT;
            latency::SMEM_RT
                + level
                + if hierarchical {
                    latency::SMEM_RT + level
                } else {
                    0.0
                }
        }
        Variant::Baseline => {
            ops.add_f64 = n as u64 + 128;
            ops.int_ops = 64;
            let threads = 128.min(n.max(1)) as f64;
            let per = (n as f64 / threads).ceil();
            latency::SMEM_RT
                + per * latency::FMA_F64
                + 5.0 * (latency::SHFL + latency::FMA_F64)
                + latency::SMEM_RT
                + 2.0 * (latency::SHFL + latency::FMA_F64)
                + latency::SMEM_RT
        }
    };
    let mut total = ops.scaled(KERNEL_REPEATS);
    total.gmem_load = cubie_core::counters::MemTraffic::coalesced(bytes_f64(n));
    total.gmem_store = cubie_core::counters::MemTraffic::coalesced(8);
    WorkloadTrace::single(KernelTrace::new(
        label,
        1,
        (32 * tiles.min(8)).max(64) as u32,
        (n * 8 + 64) as u32,
        total,
        critical * KERNEL_REPEATS as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_cases() {
        let c = ReductionCase::cases();
        assert_eq!(c.len(), 5);
        assert_eq!(c[2].n, 256);
    }

    #[test]
    fn all_variants_match_reference() {
        for n in [64usize, 100, 512, 1024, 1] {
            let x = input(&ReductionCase { n });
            let gold = reference(&x);
            for v in Variant::ALL {
                let (s, _) = run(&x, v);
                assert!((s - gold).abs() < 1e-10, "{v} n={n}: {s} vs {gold}");
            }
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let x = input(&ReductionCase { n: 1024 });
        assert_eq!(run(&x, Variant::Tc).0, run(&x, Variant::Cc).0);
    }

    #[test]
    fn exact_on_integer_input() {
        let x: Vec<f64> = (0..512).map(|i| (i % 9) as f64).collect();
        let gold: f64 = x.iter().sum();
        for v in Variant::ALL {
            assert_eq!(run(&x, v).0, gold, "{v}");
        }
    }

    #[test]
    fn constant_matrices_are_partial() {
        let r = constants::row_ones();
        let c = constants::col_ones();
        assert_eq!(r.iter().filter(|&&v| v != 0.0).count(), 8);
        assert_eq!(c.iter().filter(|&&v| v != 0.0).count(), 8);
    }

    #[test]
    fn tc_trace_mma_count() {
        let t = trace(&ReductionCase { n: 1024 }, Variant::Tc);
        assert_eq!(t.total_ops().mma_f64, (16 * 4 + 4) * KERNEL_REPEATS);
    }

    #[test]
    fn critical_path_ordering() {
        for n in [64usize, 256, 1024] {
            let case = ReductionCase { n };
            let tc = trace(&case, Variant::Tc).kernels[0].critical_cycles;
            let cc = trace(&case, Variant::Cc).kernels[0].critical_cycles;
            let cce = trace(&case, Variant::CcE).kernels[0].critical_cycles;
            let base = trace(&case, Variant::Baseline).kernels[0].critical_cycles;
            assert!(tc < base, "n={n}: TC {tc} vs baseline {base}");
            assert!(tc < cc, "n={n}");
            assert!(tc < cce, "n={n}");
        }
    }

    #[test]
    fn reduction_uses_fewer_mmas_than_scan() {
        let n = 512;
        let r = trace(&ReductionCase { n }, Variant::Tc).total_ops().mma_f64;
        let s = crate::scan::trace(&crate::scan::ScanCase { n }, Variant::Tc)
            .total_ops()
            .mma_f64;
        assert!(r < s);
    }
}
