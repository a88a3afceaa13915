//! **GEMM** — dense matrix–matrix multiplication (Quadrant I).
//!
//! * **TC** follows the CUDA Samples `dmmaTensorCoreGemm` routine: each
//!   256-thread block computes a 64×64 tile of `C` through shared-memory
//!   staged 64×16 slabs of `A` and `B`, issuing FP64 `m8n8k4` MMAs.
//! * **CC** is the identical tiling with every MMA replaced by 256
//!   CUDA-core FMAs in the same accumulation order (bit-identical).
//! * **Baseline** is the CUDA Samples `matrixMul` vector kernel: 32×32
//!   block tiles, one output element per thread, shared-memory staging.
//!
//! CC-E is equivalent to CC for Quadrant I workloads (no redundant
//! computation is introduced by the MMA mapping), as Section 5.2 notes.

use cubie_core::counters::{MemTraffic, MMA_F16_FMAS, MMA_F64_FMAS, MMA_TF32_FMAS};
use cubie_core::mma::{mma_f64_m8n8k4, mma_f64_m8n8k4_strided, mma_tiled_mixed};
use cubie_core::scalar::{MmaGen, Precision};
use cubie_core::{par, DenseMatrix, OpCounters};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::Variant;

/// TC block tile edge (the `dmmaTensorCoreGemm` tile).
const TC_TILE: usize = 64;
/// TC shared-memory k-slab depth.
const TC_BK: usize = 16;
/// Baseline block tile edge (the `matrixMul` tile).
const BASE_TILE: usize = 32;

/// One GEMM test case: `C (M×N) = A (M×K) · B (K×N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmCase {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

impl GemmCase {
    /// A square `n × n × n` case.
    pub fn square(n: usize) -> Self {
        Self { m: n, n, k: n }
    }

    /// The five Table 2 test cases: 256³ … 4K³.
    pub fn cases() -> Vec<GemmCase> {
        [256, 512, 1024, 2048, 4096]
            .into_iter()
            .map(GemmCase::square)
            .collect()
    }

    /// Useful floating-point work: `2·M·N·K`.
    pub fn useful_flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.n, self.k)
    }
}

/// Deterministic LINPACK-style random inputs for a case.
pub fn inputs(case: &GemmCase) -> (DenseMatrix, DenseMatrix) {
    (
        DenseMatrix::random(case.m, case.k, 0xA0 + case.m as u64),
        DenseMatrix::random(case.k, case.n, 0xB0 + case.n as u64),
    )
}

/// Serial CPU ground truth (naive unfused accumulation), per Section 8.
pub fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    a.matmul_naive(b)
}

/// Functional execution of one variant. Returns the product and the
/// workload trace the execution recorded. Any shape works: the MMA
/// variants zero-pad ragged edge tiles.
///
/// # Panics
/// Panics if `a`'s columns do not match `b`'s rows.
pub fn run(a: &DenseMatrix, b: &DenseMatrix, variant: Variant) -> (DenseMatrix, WorkloadTrace) {
    let case = GemmCase {
        m: a.rows(),
        n: b.cols(),
        k: a.cols(),
    };
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    match variant {
        Variant::Baseline => run_baseline(&case, a, b),
        Variant::Tc | Variant::Cc | Variant::CcE => run_tiled_mma(&case, a, b, variant),
    }
}

/// Analytic trace of one variant for a case (no data touched).
pub fn trace(case: &GemmCase, variant: Variant) -> WorkloadTrace {
    match variant {
        Variant::Baseline => WorkloadTrace::single(baseline_kernel_trace(case)),
        Variant::Tc | Variant::Cc | Variant::CcE => tc_kernel_trace(case, variant),
    }
}

/// Analytic trace of one mixed-precision variant for a case (no data
/// touched). [`Precision::F64`] delegates to [`trace`]; the reduced
/// precisions model the `mma.sync` warp-tile kernels (`m16n8k16` for
/// FP16/BF16, `m16n8k8` for TF32) with `f32` accumulation and no
/// split-K (the shapes' larger k-depth keeps the grid occupied).
///
/// # Panics
/// Panics on [`Variant::Baseline`]: the mixed-precision axis compares the
/// tensor-core kernel against its CUDA-core replacement only.
pub fn trace_precision(case: &GemmCase, variant: Variant, precision: Precision) -> WorkloadTrace {
    if precision == Precision::F64 {
        return trace(case, variant);
    }
    assert!(
        variant != Variant::Baseline,
        "mixed-precision GEMM has TC and CC variants only"
    );
    let kt = match precision {
        Precision::Tf32 => 8u64,
        _ => 16,
    };
    let (m, n, k) = (case.m as u64, case.n as u64, case.k as u64);
    let mma_total = m.div_ceil(16) * n.div_ceil(8) * k.div_ceil(kt);
    let mut ops = OpCounters::default();
    match (variant, precision) {
        (Variant::Tc, Precision::F16) => ops.mma_f16 = mma_total,
        (Variant::Tc, Precision::Bf16) => ops.mma_bf16 = mma_total,
        (Variant::Tc, Precision::Tf32) => ops.mma_tf32 = mma_total,
        (_, Precision::Tf32) => {
            ops.fma_f32 = mma_total * MMA_TF32_FMAS;
            ops.int_ops = mma_total * MMA_TF32_FMAS;
        }
        _ => {
            ops.fma_f32 = mma_total * MMA_F16_FMAS;
            ops.int_ops = mma_total * MMA_F16_FMAS;
        }
    }
    // Same 64×64 block tiling and streaming structure as the FP64 kernel,
    // with operand bytes scaled by the element size and `f32` output.
    let tiles = (case.m.div_ceil(TC_TILE) * case.n.div_ceil(TC_TILE)) as u64;
    let tile = TC_TILE as u64;
    let eb = precision.elem_bytes();
    let restream = tiles * 2 * tile * k * eb;
    let compulsory = (m * k + k * n) * eb;
    ops.gmem_load = MemTraffic::coalesced(compulsory);
    ops.l2_bytes = restream.saturating_sub(compulsory);
    ops.gmem_store = MemTraffic::coalesced(m * n * 4);
    ops.smem_bytes = restream * (1 + 8);
    ops.syncs = tiles * k.div_ceil(TC_BK as u64) * 2;
    // Each warp owns several independent accumulators; the dependent
    // chain is one output tile's k loop (MMA latency is format-agnostic
    // on current hardware; CC chains step per dot-4 slice).
    let lat = match variant {
        Variant::Tc => k.div_ceil(kt) as f64 * latency::MMA_F64 / 8.0,
        _ => k.div_ceil(4) as f64 * 4.0 * latency::FMA_F64 / 8.0,
    };
    WorkloadTrace::single(KernelTrace::new(
        format!(
            "gemm-{}-{}-{}",
            variant.label(),
            precision.label(),
            case.label()
        ),
        tiles,
        256,
        (2 * TC_TILE * TC_BK) as u32 * eb as u32,
        ops,
        lat,
    ))
}

/// Functional execution of one mixed-precision variant: quantizes the
/// FP64 inputs to `precision` (round-to-nearest-even), multiplies through
/// [`mma_tiled_mixed`] with the accumulation semantics of `gen`, and
/// returns the `f32` product (row-major `M×N`) plus the workload trace.
/// TC and CC produce bit-identical values; only the recorded pipe
/// differs (Observation 7 along the new axis).
///
/// # Panics
/// Panics on [`Precision::F64`] (use [`run`]) and on
/// [`Variant::Baseline`].
pub fn run_precision(
    a: &DenseMatrix,
    b: &DenseMatrix,
    variant: Variant,
    precision: Precision,
    gen: MmaGen,
) -> (Vec<f32>, WorkloadTrace) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(
        precision != Precision::F64,
        "run_precision models reduced precisions; use run"
    );
    let case = GemmCase {
        m: a.rows(),
        n: b.cols(),
        k: a.cols(),
    };
    let quantize = |m: &DenseMatrix| -> Vec<f64> {
        m.as_slice()
            .iter()
            .map(|&v| precision.quantize(v))
            .collect()
    };
    let (aq, bq) = (quantize(a), quantize(b));
    let mut c = vec![0.0f32; case.m * case.n];
    let mut executed = OpCounters::new();
    let cc = variant != Variant::Tc;
    mma_tiled_mixed(
        precision,
        gen,
        &aq,
        &bq,
        &mut c,
        case.m,
        case.n,
        case.k,
        cc,
        &mut executed,
    );
    let trace = trace_precision(&case, variant, precision);
    // Anchor the analytic trace to what was actually executed.
    let ops = trace.kernels[0].ops;
    let analytic = if cc {
        executed.fma_f32 == ops.fma_f32
    } else {
        (executed.mma_f16, executed.mma_bf16, executed.mma_tf32)
            == (ops.mma_f16, ops.mma_bf16, ops.mma_tf32)
    };
    assert!(
        analytic,
        "functional mixed MMA count must match the analytic trace"
    );
    (c, trace)
}

/// Split-K schedule: grids too small to fill a device split the k loop
/// across extra blocks (standard split-K GEMM; partials are combined by
/// a short reduction launch). Returns `(split, chunk_len)` with
/// `chunk_len` a multiple of the MMA depth. Device-independent target of
/// ~256 blocks.
pub fn split_k_for(case: &GemmCase) -> (u64, usize) {
    let tiles = (case.m.div_ceil(TC_TILE) * case.n.div_ceil(TC_TILE)) as u64;
    let want = 256u64.div_ceil(tiles.max(1)).max(1);
    let chunk = ((case.k as u64 / want).max(4) / 4 * 4).max(4) as usize;
    let split = (case.k as u64).div_ceil(chunk as u64).max(1);
    (split, chunk)
}

/// Launch counters of the TC/CC tiled kernel: the main (possibly
/// split-K) launch plus, when split, the partial-reduction launch.
fn tc_kernel_trace(case: &GemmCase, variant: Variant) -> WorkloadTrace {
    let tiles = (case.m.div_ceil(TC_TILE) * case.n.div_ceil(TC_TILE)) as u64;
    let (split_k, chunk) = split_k_for(case);
    let blocks = tiles * split_k;
    let (m, n, k) = (case.m as u64, case.n as u64, case.k as u64);
    let mma_total = m.div_ceil(8) * n.div_ceil(8) * k.div_ceil(4);
    let mut ops = OpCounters::default();
    match variant {
        Variant::Tc => ops.mma_f64 = mma_total,
        // CC and CC-E issue the same FMAs on CUDA cores (Quadrant I:
        // CC-E ≡ CC), plus the operand shuffles the MMU performs
        // internally.
        Variant::Cc | Variant::CcE => {
            ops.fma_f64 = mma_total * MMA_F64_FMAS;
            ops.int_ops = mma_total * MMA_F64_FMAS;
        }
        Variant::Baseline => unreachable!(),
    }
    // Each block streams its 64-row slab of A and 64-column slab of B;
    // the compulsory first read comes from DRAM, the re-streamed slabs
    // are served by L2 (the operand working set is tiled to fit it).
    let tile = TC_TILE as u64;
    let restream = tiles * 2 * tile * k * 8;
    let compulsory = (m * k + k * n) * 8;
    ops.gmem_load = MemTraffic::coalesced(compulsory);
    ops.l2_bytes = restream.saturating_sub(compulsory);
    // Staged through shared memory: one write plus eight tile-reads per
    // element (each A element feeds the 8 warp tiles along its row).
    ops.smem_bytes = tiles * 2 * tile * k * 8 * (1 + 8);
    ops.syncs = blocks * (chunk as u64).div_ceil(TC_BK as u64) * 2;
    if split_k > 1 {
        // Partials stay resident in L2 for the reduction launch.
        ops.l2_bytes += split_k * m * n * 8;
    } else {
        ops.gmem_store = MemTraffic::coalesced(m * n * 8);
    }
    // Each warp owns 8 independent 8×8 accumulators; the dependent chain
    // is the k-loop of one accumulator.
    let chain = (chunk as u64).div_ceil(4) as f64;
    let lat = match variant {
        Variant::Tc => chain * latency::MMA_F64 / 8.0,
        _ => chain * 4.0 * latency::FMA_F64 / 8.0,
    };
    let main = KernelTrace::new(
        format!("gemm-{}-{}", variant.label(), case.label()),
        blocks,
        256,
        (2 * TC_TILE * TC_BK * 8) as u32,
        ops,
        lat,
    );
    if split_k == 1 {
        return WorkloadTrace::single(main);
    }
    let red = OpCounters {
        add_f64: (split_k - 1) * m * n,
        l2_bytes: split_k * m * n * 8,
        gmem_store: MemTraffic::coalesced(m * n * 8),
        ..Default::default()
    };
    let reduce = KernelTrace::new(
        format!("gemm-{}-{}-reduce", variant.label(), case.label()),
        (m * n).div_ceil(256),
        256,
        0,
        red,
        split_k as f64 * latency::FMA_F64,
    );
    let mut w = WorkloadTrace::single(main);
    w.push(reduce);
    w
}

/// Per-launch counters of the baseline vector kernel.
fn baseline_kernel_trace(case: &GemmCase) -> KernelTrace {
    let blocks = (case.m.div_ceil(BASE_TILE) * case.n.div_ceil(BASE_TILE)) as u64;
    let (m, n, k) = (case.m as u64, case.n as u64, case.k as u64);
    let tile = BASE_TILE as u64;
    let mut ops = OpCounters {
        fma_f64: m * n * k,
        ..Default::default()
    };
    let restream = blocks * 2 * tile * k * 8;
    let compulsory = (m * k + k * n) * 8;
    ops.gmem_load = MemTraffic::coalesced(compulsory);
    ops.l2_bytes = restream.saturating_sub(compulsory);
    ops.gmem_store = MemTraffic::coalesced(m * n * 8);
    // One write plus 32 reads per staged element (each element feeds a
    // full tile row/column of threads).
    ops.smem_bytes = blocks * 2 * tile * k * 8 * (1 + 32);
    ops.syncs = blocks * k.div_ceil(tile) * 2;
    KernelTrace::new(
        format!("gemm-Baseline-{}", case.label()),
        blocks,
        (BASE_TILE * BASE_TILE) as u32,
        (2 * BASE_TILE * BASE_TILE * 8) as u32,
        ops,
        k as f64 * latency::FMA_F64 / 8.0,
    )
}

/// TC/CC functional execution: per block-tile tiled MMA with the exact
/// fused accumulation order of the hardware instruction.
fn run_tiled_mma(
    case: &GemmCase,
    a: &DenseMatrix,
    b: &DenseMatrix,
    variant: Variant,
) -> (DenseMatrix, WorkloadTrace) {
    let (m, n, k) = (case.m, case.n, case.k);
    let tiles_m = m.div_ceil(TC_TILE);
    let tiles_n = n.div_ceil(TC_TILE);
    let a_s = a.as_slice();
    let b_s = b.as_slice();

    // Each block produces its 64×64 tile independently; the tiles are
    // scattered into `C` afterwards.
    let tiles: Vec<(Vec<f64>, OpCounters)> = par::par_map(tiles_m * tiles_n, |t| {
        let (ti, tj) = (t / tiles_n, t % tiles_n);
        let (i0, j0) = (ti * TC_TILE, tj * TC_TILE);
        let bm = TC_TILE.min(m - i0);
        let bn = TC_TILE.min(n - j0);
        let mut c_tile = vec![0.0f64; bm * bn];
        let mut at = [0.0f64; 32];
        let mut bt = [0.0f64; 32];
        let mut ct = [0.0f64; 64];
        let mut scratch = OpCounters::new();
        let (_, chunk) = split_k_for(case);
        for wi in (0..bm).step_by(8) {
            for wj in (0..bn).step_by(8) {
                let mut acc = [0.0f64; 64];
                // Split-K: each chunk accumulates its own fused-chain
                // partial; partials combine in ascending chunk order —
                // the semantics of the reduction launch.
                let full_tile = bm - wi >= 8 && bn - wj >= 8;
                for c0 in (0..k).step_by(chunk) {
                    ct.fill(0.0);
                    for k0 in (c0..(c0 + chunk).min(k)).step_by(4) {
                        let kk_max = 4.min(k - k0);
                        if full_tile && kk_max == 4 {
                            // Interior warp tile at full MMA depth: read
                            // A/B in place — bit-identical to packing
                            // (same fused chain), minus the scratch fills.
                            mma_f64_m8n8k4_strided(
                                a_s,
                                (i0 + wi) * k + k0,
                                k,
                                b_s,
                                k0 * n + (j0 + wj),
                                n,
                                &mut ct,
                                0,
                                8,
                                &mut scratch,
                            );
                            continue;
                        }
                        at.fill(0.0);
                        bt.fill(0.0);
                        for ii in 0..8.min(bm - wi) {
                            for kk in 0..kk_max {
                                at[ii * 4 + kk] = a_s[(i0 + wi + ii) * k + (k0 + kk)];
                            }
                        }
                        for kk in 0..kk_max {
                            for jj in 0..8.min(bn - wj) {
                                bt[kk * 8 + jj] = b_s[(k0 + kk) * n + (j0 + wj + jj)];
                            }
                        }
                        // TC and CC execute the identical fused chain;
                        // only the issuing pipe differs, which the trace
                        // captures.
                        mma_f64_m8n8k4(&at, &bt, &mut ct, &mut scratch);
                    }
                    for (a, c) in acc.iter_mut().zip(&ct) {
                        *a += c;
                    }
                }
                for ii in 0..8.min(bm - wi) {
                    for jj in 0..8.min(bn - wj) {
                        c_tile[(wi + ii) * bn + (wj + jj)] = acc[ii * 8 + jj];
                    }
                }
            }
        }
        (c_tile, scratch)
    });

    let mut c = DenseMatrix::zeros(m, n);
    let out = c.as_mut_slice();
    let mut executed = OpCounters::new();
    for (t, (tile, counters)) in tiles.iter().enumerate() {
        executed += *counters;
        let (ti, tj) = (t / tiles_n, t % tiles_n);
        let (i0, j0) = (ti * TC_TILE, tj * TC_TILE);
        let bn = TC_TILE.min(n - j0);
        for (r, row) in tile.chunks(bn).enumerate() {
            out[(i0 + r) * n + j0..(i0 + r) * n + j0 + bn].copy_from_slice(row);
        }
    }
    let trace = tc_kernel_trace(case, variant);
    // Anchor the analytic trace to what was actually executed.
    let analytic_mma = match variant {
        Variant::Tc => trace.kernels[0].ops.mma_f64,
        _ => trace.kernels[0].ops.fma_f64 / MMA_F64_FMAS,
    };
    assert_eq!(
        executed.mma_f64, analytic_mma,
        "functional MMA count must match the analytic trace"
    );
    (c, trace)
}

/// Baseline functional execution: 32×32 block tiles, per-thread fused
/// dot products in ascending-k order (what `nvcc` emits for the CUDA
/// Samples `matrixMul` inner loop).
fn run_baseline(case: &GemmCase, a: &DenseMatrix, b: &DenseMatrix) -> (DenseMatrix, WorkloadTrace) {
    let (m, n, k) = (case.m, case.n, case.k);
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    let mut c = DenseMatrix::zeros(m, n);
    par::par_chunks_mut(c.as_mut_slice(), n, |i, row| {
        for (j, out) in row.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc = a_s[i * k + kk].mul_add(b_s[kk * n + j], acc);
            }
            *out = acc;
        }
    });
    (c, WorkloadTrace::single(baseline_kernel_trace(case)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;

    fn small_case() -> GemmCase {
        GemmCase::square(128)
    }

    #[test]
    fn table2_cases() {
        let cases = GemmCase::cases();
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[0].m, 256);
        assert_eq!(cases[4].k, 4096);
    }

    #[test]
    fn tc_matches_reference_closely() {
        let case = small_case();
        let (a, b) = inputs(&case);
        let gold = reference(&a, &b);
        let (c, _) = run(&a, &b, Variant::Tc);
        let e = ErrorStats::compare(c.as_slice(), gold.as_slice());
        assert!(e.max < 1e-11, "max err {}", e.max);
    }

    #[test]
    fn cc_is_bit_identical_to_tc() {
        let case = small_case();
        let (a, b) = inputs(&case);
        let (tc, _) = run(&a, &b, Variant::Tc);
        let (cc, _) = run(&a, &b, Variant::Cc);
        assert_eq!(tc.as_slice(), cc.as_slice());
    }

    #[test]
    fn baseline_matches_reference_closely() {
        let case = small_case();
        let (a, b) = inputs(&case);
        let gold = reference(&a, &b);
        let (c, _) = run(&a, &b, Variant::Baseline);
        let e = ErrorStats::compare(c.as_slice(), gold.as_slice());
        assert!(e.max < 1e-11, "max err {}", e.max);
    }

    #[test]
    fn run_trace_equals_analytic_trace() {
        let case = small_case();
        let (a, b) = inputs(&case);
        for v in [Variant::Baseline, Variant::Tc, Variant::Cc] {
            let (_, rt) = run(&a, &b, v);
            let at = trace(&case, v);
            assert_eq!(rt, at, "variant {v}");
        }
    }

    #[test]
    fn tc_trace_mma_count_is_exact() {
        let case = GemmCase::square(256);
        let t = trace(&case, Variant::Tc);
        let mma = t.total_ops().mma_f64;
        assert_eq!(mma, (256 / 8) * (256 / 8) * (256 / 4));
        assert_eq!(t.total_ops().tc_flops(), 2 * 256 * 256 * 256);
    }

    #[test]
    fn cc_trace_flops_equal_tc_flops() {
        let case = GemmCase::square(512);
        let tc = trace(&case, Variant::Tc).total_ops();
        let cc = trace(&case, Variant::Cc).total_ops();
        // The MMA FLOPs map one-to-one onto CUDA-core FMAs; split-K
        // reduction adds are identical on both sides.
        assert_eq!(tc.tc_flops(), cc.fma_f64 * 2);
        assert_eq!(tc.add_f64, cc.add_f64);
        assert_eq!(cc.mma_f64, 0);
    }

    #[test]
    fn baseline_and_tc_do_same_useful_flops() {
        let case = GemmCase::square(256);
        let b = trace(&case, Variant::Baseline).total_ops();
        assert_eq!(b.cc_flops() as f64, case.useful_flops());
    }

    #[test]
    fn precision_tc_and_cc_are_bit_identical() {
        let case = GemmCase::square(64);
        let (a, b) = inputs(&case);
        for p in [Precision::F16, Precision::Bf16, Precision::Tf32] {
            for gen in [MmaGen::Ampere, MmaGen::Volta] {
                let (tc, tt) = run_precision(&a, &b, Variant::Tc, p, gen);
                let (cc, ct) = run_precision(&a, &b, Variant::Cc, p, gen);
                let tc_bits: Vec<u32> = tc.iter().map(|v| v.to_bits()).collect();
                let cc_bits: Vec<u32> = cc.iter().map(|v| v.to_bits()).collect();
                assert_eq!(tc_bits, cc_bits, "{p}/{gen:?}");
                // Same work, different pipes.
                let (to, co) = (tt.total_ops(), ct.total_ops());
                assert_eq!(to.tc_mixed_flops(), co.cc_f32_flops(), "{p}");
                assert_eq!(co.mma_f16 + co.mma_bf16 + co.mma_tf32, 0);
            }
        }
    }

    #[test]
    fn precision_run_approximates_reference_within_format_error() {
        let case = GemmCase::square(64);
        let (a, b) = inputs(&case);
        let gold = reference(&a, &b);
        // DenseMatrix::random draws from [-0.5, 0.5); a 64-deep dot stays
        // O(1), so the relative format error bounds the absolute error.
        for (p, tol) in [
            (Precision::F16, 2e-2),
            (Precision::Bf16, 1e-1),
            (Precision::Tf32, 2e-2),
        ] {
            let (c, _) = run_precision(&a, &b, Variant::Tc, p, MmaGen::Ampere);
            let max = c
                .iter()
                .zip(gold.as_slice())
                .map(|(&got, &want)| (got as f64 - want).abs())
                .fold(0.0f64, f64::max);
            assert!(max < tol, "{p}: max err {max}");
        }
    }

    #[test]
    fn precision_trace_counts_are_exact() {
        let case = GemmCase::square(256);
        let t = trace_precision(&case, Variant::Tc, Precision::F16).total_ops();
        assert_eq!(t.mma_f16, (256 / 16) * (256 / 8) * (256 / 16));
        assert_eq!(t.tc_f16_flops(), 2 * 256 * 256 * 256);
        let t32 = trace_precision(&case, Variant::Tc, Precision::Tf32).total_ops();
        assert_eq!(t32.mma_tf32, (256 / 16) * (256 / 8) * (256 / 8));
        assert_eq!(t32.tc_tf32_flops(), 2 * 256 * 256 * 256);
        // CC replacement issues exactly the same FLOPs as f32 FMAs.
        let cc = trace_precision(&case, Variant::Cc, Precision::F16).total_ops();
        assert_eq!(cc.cc_f32_flops(), t.tc_f16_flops());
        // Operand bytes track the element size: f16 loads half of tf32's.
        let l16 = trace_precision(&case, Variant::Tc, Precision::F16).total_ops();
        assert_eq!(
            l16.gmem_load.coalesced * 2,
            t32.gmem_load.coalesced,
            "2-byte vs 4-byte operands"
        );
    }

    #[test]
    fn precision_f64_delegates_to_fp64_trace() {
        let case = GemmCase::square(256);
        assert_eq!(
            trace_precision(&case, Variant::Tc, Precision::F64),
            trace(&case, Variant::Tc)
        );
    }

    #[test]
    fn precision_ragged_shape_works() {
        let a = DenseMatrix::random(33, 21, 7);
        let b = DenseMatrix::random(21, 17, 8);
        let (c, t) = run_precision(&a, &b, Variant::Tc, Precision::Bf16, MmaGen::Ampere);
        assert_eq!(c.len(), 33 * 17);
        let tiles = 33usize.div_ceil(16) * 17usize.div_ceil(8) * 21usize.div_ceil(16);
        assert_eq!(t.total_ops().mma_bf16, tiles as u64);
    }

    #[test]
    fn volta_and_ampere_gens_differ_functionally() {
        // The generation axis must be live end to end: on random inputs a
        // 64-deep f16 accumulation almost surely rounds differently under
        // serial RZ than under fused RN.
        let case = GemmCase::square(64);
        let (a, b) = inputs(&case);
        let (amp, _) = run_precision(&a, &b, Variant::Tc, Precision::F16, MmaGen::Ampere);
        let (vol, _) = run_precision(&a, &b, Variant::Tc, Precision::F16, MmaGen::Volta);
        assert_ne!(amp, vol, "generation semantics must be observable");
    }

    #[test]
    fn non_square_case_works() {
        let a = DenseMatrix::random(64, 128, 1);
        let b = DenseMatrix::random(128, 192, 2);
        let (c, _) = run(&a, &b, Variant::Tc);
        let gold = reference(&a, &b);
        let e = ErrorStats::compare(c.as_slice(), gold.as_slice());
        assert!(e.max < 1e-11);
    }
}
