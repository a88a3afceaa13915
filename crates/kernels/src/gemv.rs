//! **GEMV** — dense matrix–vector multiplication `y = A·x` (Quadrant IV).
//!
//! * **TC** partitions `A` into 8×4 blocks, broadcasts `x` into a 4×8
//!   operand whose columns all replicate the same `x` segment, issues the
//!   FP64 `m8n8k4` MMA, and extracts the diagonal of the 8×8 output —
//!   only 8 of the 64 output elements carry meaning (Section 3).
//! * **CC** keeps the replicated-operand layout, computing the full
//!   redundant 8×8 product on CUDA cores.
//! * **CC-E** computes only the essential dot products `y = A·x` on
//!   CUDA cores with the same blocked data layout.
//! * **Baseline** is the cuBLAS-style warp-per-row kernel: each warp
//!   covers one short row (N = 16/32 for the paper's tall-skinny cases)
//!   and reduces via shuffles; the short rows leave transactions half
//!   empty, which the trace records as strided traffic.

use cubie_core::counters::{MemTraffic, MMA_F64_FMAS};
use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::{par, DenseMatrix, OpCounters};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::Variant;

/// Rows covered by one TC thread block: two 8-row bands, each worked on
/// by up to four warps that split the k dimension (DASP-style column
/// splitting) — the tall-skinny cases otherwise expose 8× less memory
/// parallelism than the baseline's warp-per-row kernel.
const ROWS_PER_BLOCK: usize = 16;

/// Warps cooperating on one 8-row band (k-split factor).
const K_SPLIT: usize = 4;

/// One GEMV test case: `y (M) = A (M×N) · x (N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemvCase {
    /// Rows of `A`.
    pub m: usize,
    /// Columns of `A` (the paper's cases are tall-skinny: N = 16/32).
    pub n: usize,
}

impl GemvCase {
    /// The five Table 2 test cases.
    pub fn cases() -> Vec<GemvCase> {
        vec![
            GemvCase { m: 4096, n: 16 },
            GemvCase { m: 4096, n: 32 },
            GemvCase { m: 11_008, n: 16 },
            GemvCase { m: 32_768, n: 16 },
            GemvCase { m: 40_960, n: 16 },
        ]
    }

    /// Useful floating-point work: `2·M·N`.
    pub fn useful_flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        format!("{}x{}", self.m, self.n)
    }
}

/// Deterministic inputs for a case.
pub fn inputs(case: &GemvCase) -> (DenseMatrix, Vec<f64>) {
    let a = DenseMatrix::random(case.m, case.n, 0xC0 + case.m as u64);
    let x = cubie_core::LcgF64::new(0xD0 + case.n as u64).vec(case.n);
    (a, x)
}

/// Serial CPU ground truth.
pub fn reference(a: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    a.matvec_naive(x)
}

/// Functional execution of one variant.
pub fn run(a: &DenseMatrix, x: &[f64], variant: Variant) -> (Vec<f64>, WorkloadTrace) {
    let case = GemvCase {
        m: a.rows(),
        n: a.cols(),
    };
    assert_eq!(a.cols(), x.len(), "dimension mismatch");
    let y = match variant {
        Variant::Tc | Variant::Cc => run_mma(a, x),
        Variant::CcE => run_essential(a, x),
        Variant::Baseline => run_baseline(a, x),
    };
    (y, trace(&case, variant))
}

/// Analytic trace of one variant.
pub fn trace(case: &GemvCase, variant: Variant) -> WorkloadTrace {
    let (m, n) = (case.m as u64, case.n as u64);
    let blocks = (case.m.div_ceil(ROWS_PER_BLOCK)) as u64;
    let mut ops = OpCounters::default();
    let mma_total = m.div_ceil(8) * n.div_ceil(4);
    let label = format!("gemv-{}-{}", variant.label(), case.label());
    // 2 bands × K_SPLIT warps per block.
    let threads_tc = (2 * K_SPLIT * 32) as u32;
    // Partial combine across the k-split warps (8 diagonal values per
    // extra warp per band).
    let ksplit_adds = m * (K_SPLIT as u64 - 1);
    let (threads, lat) = match variant {
        Variant::Tc => {
            ops.mma_f64 = mma_total;
            // A streams coalesced from DRAM; the small x vector is
            // re-broadcast to every block out of L2.
            ops.gmem_load = MemTraffic::coalesced(m * n * 8 + n * 8);
            ops.l2_bytes = blocks * n * 8;
            ops.gmem_store = MemTraffic::coalesced(m * 8);
            ops.add_f64 = ksplit_adds;
            ops.smem_bytes = blocks * n * 8 * 2 + m * (K_SPLIT as u64) * 8;
            (threads_tc, latency::MMA_F64 + latency::SMEM_RT)
        }
        Variant::Cc => {
            ops.fma_f64 = mma_total * MMA_F64_FMAS;
            ops.int_ops = mma_total * MMA_F64_FMAS; // operand shuffles
            ops.gmem_load = MemTraffic::coalesced(m * n * 8 + n * 8);
            ops.l2_bytes = blocks * n * 8;
            ops.gmem_store = MemTraffic::coalesced(m * 8);
            ops.add_f64 = ksplit_adds;
            ops.smem_bytes = blocks * n * 8 * 2 + m * (K_SPLIT as u64) * 8;
            (threads_tc, 4.0 * latency::FMA_F64 + latency::SMEM_RT)
        }
        Variant::CcE => {
            ops.fma_f64 = m * n;
            ops.gmem_load = MemTraffic::coalesced(m * n * 8 + n * 8);
            ops.l2_bytes = blocks * n * 8;
            ops.gmem_store = MemTraffic::coalesced(m * 8);
            ops.smem_bytes = blocks * n * 8 * 2;
            (threads_tc, n as f64 * latency::FMA_F64)
        }
        Variant::Baseline => {
            ops.fma_f64 = m * n;
            // Warp-per-row: each 32-lane transaction carries only N=16/32
            // useful elements → strided efficiency; x re-reads hit L2.
            ops.gmem_load = MemTraffic::strided(m * n * 8);
            ops.l2_bytes = m / 8 * n * 8;
            ops.gmem_store = MemTraffic::coalesced(m * 8);
            // Shuffle reduction per row.
            ops.add_f64 = m * 5;
            ops.int_ops = m * 5;
            return WorkloadTrace::single(KernelTrace::new(
                label,
                m.div_ceil(8), // 8 warps per 256-thread block, one row each
                256,
                0,
                ops,
                (n as f64 / 32.0).ceil() * latency::FMA_F64 + 5.0 * latency::SHFL,
            ));
        }
    };
    WorkloadTrace::single(KernelTrace::new(
        label,
        blocks,
        threads,
        n as u32 * 8,
        ops,
        lat,
    ))
}

/// TC/CC functional path: 8×4 blocks of `A` against the replicated-`x`
/// operand, diagonal extraction. TC and CC are numerically identical.
fn run_mma(a: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    let a_s = a.as_slice();
    // Each band writes its 8 diagonals straight into its slice of `y` —
    // no intermediate per-band collection.
    let mut y = vec![0.0f64; m];
    par::par_chunks_mut(&mut y, 8, |band, y_band| {
        let i0 = band * 8;
        let rows_here = 8.min(m - i0);
        let mut at = [0.0f64; 32];
        let mut bt = [0.0f64; 32];
        let mut scratch = OpCounters::new();
        // K_SPLIT warps each own every K_SPLIT-th 4-column chunk; their
        // diagonal partials combine in warp order through shared memory.
        let mut out = [0.0f64; 8];
        for w in 0..K_SPLIT {
            let mut ct = [0.0f64; 64];
            let mut chunk = w * 4;
            while chunk < n {
                at.fill(0.0);
                bt.fill(0.0);
                let kk_max = 4.min(n - chunk);
                for ii in 0..rows_here {
                    for kk in 0..kk_max {
                        at[ii * 4 + kk] = a_s[(i0 + ii) * n + (chunk + kk)];
                    }
                }
                // Broadcast: every column of B replicates the x segment.
                for kk in 0..kk_max {
                    for jj in 0..8 {
                        bt[kk * 8 + jj] = x[chunk + kk];
                    }
                }
                mma_f64_m8n8k4(&at, &bt, &mut ct, &mut scratch);
                chunk += K_SPLIT * 4;
            }
            // Diagonal extraction and partial combine.
            for (r, o) in out.iter_mut().enumerate() {
                *o += ct[r * 8 + r];
            }
        }
        y_band.copy_from_slice(&out[..rows_here]);
    });
    y
}

/// CC-E functional path: plain fused dot products per row.
fn run_essential(a: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    let a_s = a.as_slice();
    par::par_map(m, |i| {
        let mut acc = 0.0f64;
        for k in 0..n {
            acc = a_s[i * n + k].mul_add(x[k], acc);
        }
        acc
    })
}

/// Baseline functional path: warp-per-row — lanes accumulate strided
/// partials, then a shuffle tree combines them (lane `l` holds columns
/// `l, l+32, …`; tree order reproduced exactly).
fn run_baseline(a: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    let a_s = a.as_slice();
    par::par_map(m, |i| {
        let mut lanes = [0.0f64; 32];
        for k in 0..n {
            let l = k % 32;
            lanes[l] = a_s[i * n + k].mul_add(x[k], lanes[l]);
        }
        // Shuffle-down tree reduction.
        let mut width = 16;
        while width >= 1 {
            for l in 0..width {
                lanes[l] += lanes[l + width];
            }
            width /= 2;
        }
        lanes[0]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;

    fn small_case() -> GemvCase {
        GemvCase { m: 1000, n: 16 }
    }

    #[test]
    fn table2_cases() {
        let cases = GemvCase::cases();
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[1].n, 32);
        assert_eq!(cases[4].m, 40_960);
    }

    #[test]
    fn all_variants_match_reference() {
        let case = small_case();
        let (a, x) = inputs(&case);
        let gold = reference(&a, &x);
        for v in Variant::ALL {
            let (y, _) = run(&a, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-12, "{v}: max err {}", e.max);
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let case = small_case();
        let (a, x) = inputs(&case);
        let (tc, _) = run(&a, &x, Variant::Tc);
        let (cc, _) = run(&a, &x, Variant::Cc);
        assert_eq!(tc, cc);
    }

    #[test]
    fn tc_exactly_matches_reference_for_exact_inputs() {
        // Integer inputs: fused vs unfused both exact.
        let a = DenseMatrix::from_fn(16, 8, |i, j| ((i + j) % 3) as f64);
        let x: Vec<f64> = (0..8).map(|i| (i % 4) as f64).collect();
        let (y, _) = run(&a, &x, Variant::Tc);
        assert_eq!(y, reference(&a, &x));
    }

    #[test]
    fn trace_mma_count() {
        let case = GemvCase { m: 4096, n: 16 };
        let t = trace(&case, Variant::Tc);
        assert_eq!(t.total_ops().mma_f64, (4096 / 8) * (16 / 4));
    }

    #[test]
    fn cc_trace_has_redundant_flops() {
        let case = GemvCase { m: 4096, n: 16 };
        let cc = trace(&case, Variant::Cc).total_ops();
        let cce = trace(&case, Variant::CcE).total_ops();
        // The MMA shape computes 8 replicated columns: 8× the essential
        // work.
        assert_eq!(cc.fma_f64, 8 * cce.fma_f64);
    }

    #[test]
    fn baseline_traffic_is_strided() {
        let case = small_case();
        let t = trace(&case, Variant::Baseline).total_ops();
        assert!(t.gmem_load.strided > 0);
        let tc = trace(&case, Variant::Tc).total_ops();
        assert_eq!(tc.gmem_load.strided, 0);
    }

    #[test]
    fn ragged_m_handled() {
        let a = DenseMatrix::random(37, 16, 3);
        let x = cubie_core::LcgF64::new(9).vec(16);
        let (y, _) = run(&a, &x, Variant::Tc);
        let e = ErrorStats::compare(&y, &reference(&a, &x));
        assert!(e.max < 1e-13);
    }
}
