//! **Scan** — inclusive prefix sum (Quadrant II).
//!
//! * **TC** follows Dakkak et al.'s tensor-core scan, lifted from FP16 to
//!   FP64: the input is viewed as row-major 8×8 tiles; three MMAs with
//!   *constant* operands compute each tile's scan:
//!   `T = X·O` (all-ones: row sums broadcast), `Z = L·T` (strictly lower
//!   triangular ones: exclusive row offsets), `S = X·U + Z` (upper
//!   triangular ones accumulated onto `Z`). Tiles are scanned in parallel
//!   by different warps; tile totals go through one more tile pass and a
//!   uniform add. The constant matrices never leave constant memory —
//!   the partial-input utilization of Quadrant II.
//! * **CC** issues identical FMA chains on CUDA cores (bit-identical).
//! * **CC-E** performs only the essential additions on the blocked
//!   layout: per-tile Kogge–Stone passes with shared-memory phase
//!   exchanges — the "partial and irregular" computation Section 6.3
//!   finds slower than the MMU's regular pattern.
//! * **Baseline** models CUB `BlockScan`: per-thread serial scan, raking
//!   warp scan over partials, uniform add.
//!
//! The paper's test cases are 64–1024 elements — single-thread-block
//! kernels whose cost is dominated by dependent-instruction latency, not
//! throughput; the traces therefore carry careful `critical_cycles`.

use cubie_core::mma::mma_f64_8x8x8;
use cubie_core::OpCounters;
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::{bytes_f64, Variant};

/// Elements per 8×8 tile.
pub const TILE: usize = 64;

/// Inner-loop repetitions of the benchmarked kernel. Block-primitive
/// microbenchmarks (CUB's own harness, and the paper's 6M-execution power
/// runs) iterate inside the kernel so launch overhead does not mask the
/// primitive; traces model the same structure for every variant.
pub const KERNEL_REPEATS: u64 = 100;

/// One Scan test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanCase {
    /// Number of elements (the paper's cases: 64–1024).
    pub n: usize,
}

impl ScanCase {
    /// The five Table 2 test cases.
    pub fn cases() -> Vec<ScanCase> {
        [64, 128, 256, 512, 1024]
            .into_iter()
            .map(|n| ScanCase { n })
            .collect()
    }

    /// Useful work: one addition per element per benchmarked repetition
    /// (see [`KERNEL_REPEATS`]).
    pub fn useful_flops(&self) -> f64 {
        self.n as f64 * KERNEL_REPEATS as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        format!("{}", self.n)
    }
}

/// Deterministic input for a case.
pub fn input(case: &ScanCase) -> Vec<f64> {
    cubie_core::LcgF64::new(0xE0 + case.n as u64).vec(case.n)
}

/// Serial CPU ground truth: naive running sum.
pub fn reference(x: &[f64]) -> Vec<f64> {
    let mut acc = 0.0f64;
    x.iter()
        .map(|v| {
            acc += v;
            acc
        })
        .collect()
}

/// The three constant operand matrices (Figure 2, Quadrant II).
pub mod constants {
    /// Upper-triangular ones (including the diagonal).
    pub fn upper() -> [f64; 64] {
        let mut u = [0.0; 64];
        for i in 0..8 {
            for j in i..8 {
                u[i * 8 + j] = 1.0;
            }
        }
        u
    }

    /// Strictly lower-triangular ones.
    pub fn lower_strict() -> [f64; 64] {
        let mut l = [0.0; 64];
        for i in 0..8 {
            for j in 0..i {
                l[i * 8 + j] = 1.0;
            }
        }
        l
    }

    /// All ones.
    pub fn ones() -> [f64; 64] {
        [1.0; 64]
    }
}

/// Functional execution of one variant.
pub fn run(x: &[f64], variant: Variant) -> (Vec<f64>, WorkloadTrace) {
    let case = ScanCase { n: x.len() };
    let y = match variant {
        Variant::Tc | Variant::Cc => run_mma(x),
        Variant::CcE => run_essential(x),
        Variant::Baseline => run_baseline(x),
    };
    (y, trace(&case, variant))
}

/// Scan one zero-padded 8×8 tile with the three constant-operand MMAs;
/// returns (scanned tile, tile total).
fn scan_tile(x: &[f64], counters: &mut OpCounters) -> ([f64; 64], f64) {
    let mut xt = [0.0f64; 64];
    xt[..x.len()].copy_from_slice(x);
    let (u, l, o) = (
        constants::upper(),
        constants::lower_strict(),
        constants::ones(),
    );
    let mut t = [0.0f64; 64];
    mma_f64_8x8x8(&xt, &o, &mut t, counters); // T = X·O
    let mut z = [0.0f64; 64];
    mma_f64_8x8x8(&l, &t, &mut z, counters); // Z = L·T
    mma_f64_8x8x8(&xt, &u, &mut z, counters); // S = X·U + Z
    let total = z[63];
    (z, total)
}

/// TC/CC functional path (identical numerics; the issuing pipe differs
/// only in the trace).
fn run_mma(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let tiles = n.div_ceil(TILE);
    let mut scratch = OpCounters::new();
    let mut scanned: Vec<[f64; 64]> = Vec::with_capacity(tiles);
    let mut sums: Vec<f64> = Vec::with_capacity(tiles);
    for t in 0..tiles {
        let lo = t * TILE;
        let hi = (lo + TILE).min(n);
        let (tile, total) = scan_tile(&x[lo..hi], &mut scratch);
        scanned.push(tile);
        sums.push(total);
    }
    // Tile offsets: exclusive scan of tile sums, itself done by one more
    // constant-operand tile pass when more than one tile exists.
    let offsets = if tiles > 1 {
        let (sum_scan, _) = scan_tile(&sums, &mut scratch);
        let mut off = vec![0.0f64; tiles];
        off[1..tiles].copy_from_slice(&sum_scan[..tiles - 1]);
        off
    } else {
        vec![0.0f64; 1]
    };
    let mut y = vec![0.0f64; n];
    for t in 0..tiles {
        let lo = t * TILE;
        let hi = (lo + TILE).min(n);
        for (i, out) in y[lo..hi].iter_mut().enumerate() {
            *out = if t == 0 {
                scanned[t][i]
            } else {
                scanned[t][i] + offsets[t]
            };
        }
    }
    y
}

/// CC-E functional path: essential additions on the blocked layout —
/// per-tile row scans, row-offset scan, broadcast add; then the tile
/// hierarchy as in TC.
fn run_essential(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let tiles = n.div_ceil(TILE);
    let mut scanned: Vec<[f64; 64]> = Vec::with_capacity(tiles);
    let mut sums: Vec<f64> = Vec::with_capacity(tiles);
    for t in 0..tiles {
        let lo = t * TILE;
        let hi = (lo + TILE).min(n);
        let mut tile = [0.0f64; 64];
        tile[..hi - lo].copy_from_slice(&x[lo..hi]);
        // Row-wise serial prefix.
        for r in 0..8 {
            for c in 1..8 {
                tile[r * 8 + c] += tile[r * 8 + c - 1];
            }
        }
        // Exclusive scan of row totals, broadcast onto later rows.
        let mut row_off = 0.0f64;
        for r in 1..8 {
            row_off += tile[(r - 1) * 8 + 7] - if r >= 2 { tile[(r - 2) * 8 + 7] } else { 0.0 };
            // row_off now holds the previous row's total sum; accumulate.
            for c in 0..8 {
                tile[r * 8 + c] += row_off;
            }
        }
        sums.push(tile[63]);
        scanned.push(tile);
    }
    let mut y = vec![0.0f64; n];
    let mut carry = 0.0f64;
    for t in 0..tiles {
        let lo = t * TILE;
        let hi = (lo + TILE).min(n);
        for (i, out) in y[lo..hi].iter_mut().enumerate() {
            *out = if t == 0 {
                scanned[t][i]
            } else {
                scanned[t][i] + carry
            };
        }
        carry += sums[t];
    }
    y
}

/// Baseline functional path: CUB-style hierarchical scan — per-thread
/// serial chunks, Kogge–Stone over thread partials, uniform add.
fn run_baseline(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let threads = 128.min(n.max(1));
    let per = n.div_ceil(threads);
    // Thread-local inclusive scans, written straight into the (escaping)
    // result — the per-thread chunks are contiguous ranges of it.
    let mut y = vec![0.0f64; n];
    let mut totals: Vec<f64> = Vec::with_capacity(threads);
    for t in 0..threads {
        let lo = (t * per).min(n);
        let hi = ((t + 1) * per).min(n);
        let mut acc = 0.0f64;
        for (out, v) in y[lo..hi].iter_mut().zip(&x[lo..hi]) {
            acc += v;
            *out = acc;
        }
        totals.push(if hi > lo { y[hi - 1] } else { 0.0 });
    }
    // Kogge–Stone over thread totals.
    let mut stride = 1;
    while stride < threads {
        let prev = totals.clone();
        for (i, t) in totals.iter_mut().enumerate() {
            if i >= stride {
                *t += prev[i - stride];
            }
        }
        stride *= 2;
    }
    // Uniform add of the exclusive offsets.
    for t in 1..threads {
        let off = totals[t - 1];
        let lo = (t * per).min(n);
        let hi = ((t + 1) * per).min(n);
        for v in y[lo..hi].iter_mut() {
            *v += off;
        }
    }
    y
}

/// Analytic trace of one variant.
pub fn trace(case: &ScanCase, variant: Variant) -> WorkloadTrace {
    let n = case.n;
    let tiles = n.div_ceil(TILE) as u64;
    let hierarchical = tiles > 1;
    let label = format!("scan-{}-{}", variant.label(), case.label());
    // Small single-block kernels run from cache after warm-up (the paper
    // reports 100 warm-up rounds): the compulsory in/out transfer hits
    // DRAM once (added after repeat scaling), while the repeated working
    // set stays in L1.
    let mut ops = OpCounters {
        smem_bytes: 2 * bytes_f64(n),
        syncs: if hierarchical { 2 } else { 1 },
        ..Default::default()
    };
    let critical = match variant {
        Variant::Tc => {
            ops.mma_f64 = 6 * tiles + if hierarchical { 6 } else { 0 };
            ops.cmem_bytes = 3 * bytes_f64(TILE);
            ops.add_f64 = (n as u64).saturating_sub(TILE as u64);
            // `X·U` is independent of the `T → Z` chain, so the critical
            // path per level is two dependent logical MMAs plus the final
            // combine add.
            let level = 2.0 * (2.0 * latency::MMA_F64) + latency::FMA_F64;
            latency::SMEM_RT
                + level
                + if hierarchical {
                    latency::SMEM_RT + level + latency::FMA_F64
                } else {
                    0.0
                }
        }
        Variant::Cc => {
            ops.fma_f64 = (6 * tiles + if hierarchical { 6 } else { 0 }) * 256;
            ops.int_ops = ops.fma_f64; // operand shuffles
            ops.cmem_bytes = 3 * bytes_f64(TILE);
            ops.add_f64 = (n as u64).saturating_sub(TILE as u64);
            // Without the MMU's parallel accumulator tree each lane walks
            // its two output elements' k-chains serially: 2 × 8 FMAs per
            // logical MMA, three dependent logical MMAs per level.
            let level = 3.0 * (2.0 * 8.0 * latency::FMA_F64);
            latency::SMEM_RT
                + level
                + if hierarchical {
                    latency::SMEM_RT + level + latency::FMA_F64
                } else {
                    0.0
                }
        }
        Variant::CcE => {
            // Essential adds only: ~2 adds per element plus hierarchy.
            ops.add_f64 = 2 * n as u64;
            // Kogge–Stone within the tile (6 shuffle rounds over 64
            // elements) with phase exchanges through shared memory.
            let level = 6.0 * (latency::SHFL + latency::FMA_F64) + 2.0 * latency::SMEM_RT;
            latency::SMEM_RT
                + level
                + if hierarchical {
                    latency::SMEM_RT + level + latency::FMA_F64
                } else {
                    0.0
                }
        }
        Variant::Baseline => {
            ops.add_f64 = 2 * n as u64 + 128 * 7;
            ops.int_ops = 128;
            let threads = 128.min(n.max(1)) as f64;
            let per = (n as f64 / threads).ceil();
            // serial thread scan + raking warp scan + offsets + add.
            latency::SMEM_RT
                + per * latency::FMA_F64
                + latency::SMEM_RT
                + 4.0 * latency::FMA_F64
                + 5.0 * (latency::SHFL + latency::FMA_F64)
                + latency::SMEM_RT
                + latency::FMA_F64
        }
    };
    let mut total = ops.scaled(KERNEL_REPEATS);
    total.gmem_load = cubie_core::counters::MemTraffic::coalesced(bytes_f64(n));
    total.gmem_store = cubie_core::counters::MemTraffic::coalesced(bytes_f64(n));
    WorkloadTrace::single(KernelTrace::new(
        label,
        1,
        (32 * tiles.min(8)).max(64) as u32,
        (2 * n * 8) as u32,
        total,
        critical * KERNEL_REPEATS as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;

    #[test]
    fn table2_cases() {
        let c = ScanCase::cases();
        assert_eq!(c.len(), 5);
        assert_eq!(c[0].n, 64);
        assert_eq!(c[4].n, 1024);
    }

    #[test]
    fn all_variants_match_reference() {
        for n in [64usize, 128, 640, 1024, 100, 1] {
            let x = input(&ScanCase { n });
            let gold = reference(&x);
            for v in Variant::ALL {
                let (y, _) = run(&x, v);
                let e = ErrorStats::compare(&y, &gold);
                assert!(e.max < 1e-11, "{v} n={n}: max err {}", e.max);
            }
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let x = input(&ScanCase { n: 512 });
        assert_eq!(run(&x, Variant::Tc).0, run(&x, Variant::Cc).0);
    }

    #[test]
    fn constant_matrices_shape() {
        let u = constants::upper();
        let l = constants::lower_strict();
        assert_eq!(u.iter().filter(|&&v| v == 1.0).count(), 36);
        assert_eq!(l.iter().filter(|&&v| v == 1.0).count(), 28);
        for i in 0..8 {
            assert_eq!(u[i * 8 + i], 1.0);
            assert_eq!(l[i * 8 + i], 0.0);
        }
    }

    #[test]
    fn exact_on_integer_input() {
        let x: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        let gold = reference(&x);
        for v in Variant::ALL {
            assert_eq!(run(&x, v).0, gold, "{v}");
        }
    }

    #[test]
    fn tc_trace_mma_count() {
        let t = trace(&ScanCase { n: 1024 }, Variant::Tc);
        // 16 tiles × 6 + hierarchy 6.
        assert_eq!(t.total_ops().mma_f64, (16 * 6 + 6) * KERNEL_REPEATS);
        let t64 = trace(&ScanCase { n: 64 }, Variant::Tc);
        assert_eq!(t64.total_ops().mma_f64, 6 * KERNEL_REPEATS);
    }

    #[test]
    fn constants_never_loaded_from_gmem() {
        // Quadrant II: global traffic is exactly the compulsory data
        // in/out — the constant operand matrices add nothing on top.
        let tc = trace(&ScanCase { n: 1024 }, Variant::Tc).total_ops();
        let cce = trace(&ScanCase { n: 1024 }, Variant::CcE).total_ops();
        assert_eq!(tc.gmem_bytes(), cce.gmem_bytes());
        assert_eq!(tc.gmem_bytes(), 2 * 1024 * 8, "compulsory in/out only");
        assert!(tc.cmem_bytes > 0);
    }

    #[test]
    fn critical_path_ordering_tc_fastest() {
        for n in [64usize, 256, 1024] {
            let case = ScanCase { n };
            let tc = trace(&case, Variant::Tc).kernels[0].critical_cycles;
            let cc = trace(&case, Variant::Cc).kernels[0].critical_cycles;
            let cce = trace(&case, Variant::CcE).kernels[0].critical_cycles;
            let base = trace(&case, Variant::Baseline).kernels[0].critical_cycles;
            assert!(tc < cc, "n={n}");
            assert!(tc < cce, "n={n}");
            assert!(tc < base, "n={n}");
        }
    }
}
