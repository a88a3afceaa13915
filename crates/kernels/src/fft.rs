//! **FFT** — batched 2-D fast Fourier transform (Quadrant I).
//!
//! * **TC** follows tcFFT (Li et al., CLUSTER '21) lifted to FP64: the
//!   radix-4 decimation-in-time combine step applies, for each output
//!   index `k`, the *twiddled DFT matrix* `M_k = F₄·diag(ω^{qk})` — a 4×4
//!   complex matrix. Stacking `[Re M_k; Im M_k]` forms exactly one 8×4
//!   `A` operand, multiplied against the 4×8 `B` operand holding the four
//!   sub-transform values of **eight batched transforms** — two MMAs per
//!   combine (one for the real parts of `B`, one for the imaginary
//!   parts), plus element-wise combines. Each `A` matrix is loaded once
//!   and reused across the whole batch ("FFT loads matrix A only once
//!   from global memory for multiple uses", Section 4).
//! * **CC** issues identical chains on CUDA cores (bit-identical);
//!   CC-E ≡ CC (Quadrant I, Section 5.2).
//! * **Baseline** models cuFFT: an iterative Stockham radix-2 pipeline on
//!   vector units with the classic `5·N·log₂N` operation count.
//!
//! 2-D transforms are computed as row FFTs, transpose, row FFTs,
//! transpose (the transposes contribute the strided traffic the trace
//! records).

use std::f64::consts::PI;

use cubie_core::counters::{MemTraffic, MMA_F64_FMAS};
use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::{OpCounters, C64};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::Variant;

/// One FFT test case: `batch` independent `h × w` 2-D transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftCase {
    /// Rows of each 2-D transform.
    pub h: usize,
    /// Columns of each 2-D transform.
    pub w: usize,
    /// Number of batched transforms.
    pub batch: usize,
}

impl FftCase {
    /// The five Table 2 test cases (batch 2K).
    pub fn cases() -> Vec<FftCase> {
        [(256, 256), (256, 512), (256, 1024), (512, 256), (512, 512)]
            .into_iter()
            .map(|(h, w)| FftCase { h, w, batch: 2048 })
            .collect()
    }

    /// Points per transform.
    pub fn points(&self) -> usize {
        self.h * self.w
    }

    /// Useful floating-point work: `5·N·log₂N` per transform.
    pub fn useful_flops(&self) -> f64 {
        let n = self.points() as f64;
        5.0 * n * n.log2() * self.batch as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        format!("{}x{}b{}", self.h, self.w, self.batch)
    }
}

/// Deterministic complex input: one batch of `h×w` grids.
pub fn input(case: &FftCase) -> Vec<Vec<C64>> {
    let mut g = cubie_core::LcgF64::new(0xFF7 + case.points() as u64);
    (0..case.batch)
        .map(|_| {
            (0..case.points())
                .map(|_| C64::new(g.next_f64(), g.next_f64()))
                .collect()
        })
        .collect()
}

/// Naive serial 1-D DFT — the CPU ground truth (O(n²), small sizes only).
pub fn dft_naive(x: &[C64]) -> Vec<C64> {
    dft_with(x, &twiddles(x.len()))
}

/// The `n` twiddles `C64::cis(-2π·m/n)`, `m` in `0..n`: input `j` of
/// output `k` is weighted by entry `(j·k) mod n`.
fn twiddles(n: usize) -> Vec<C64> {
    (0..n)
        .map(|m| C64::cis(-2.0 * PI * m as f64 / n as f64))
        .collect()
}

/// [`dft_naive`] with the [`twiddles`] of `x.len()` given, accumulated
/// in input order.
fn dft_with(x: &[C64], tw: &[C64]) -> Vec<C64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                acc += v * tw[j * k % n];
            }
            acc
        })
        .collect()
}

/// Naive serial 2-D DFT ground truth.
pub fn dft2_naive(h: usize, w: usize, x: &[C64]) -> Vec<C64> {
    let (row_tw, col_tw) = (twiddles(w), twiddles(h));
    // Rows then columns.
    let mut rows: Vec<C64> = Vec::with_capacity(h * w);
    for r in 0..h {
        rows.extend(dft_with(&x[r * w..(r + 1) * w], &row_tw));
    }
    let mut out = vec![C64::ZERO; h * w];
    for c in 0..w {
        let col: Vec<C64> = (0..h).map(|r| rows[r * w + c]).collect();
        for (r, v) in dft_with(&col, &col_tw).into_iter().enumerate() {
            out[r * w + c] = v;
        }
    }
    out
}

/// Radix-4 recursion on a flat group of `g ≤ 8` equal-length transforms
/// stored contiguously (`xs[t*n..(t+1)*n]` is transform `t`), issuing the
/// tcFFT MMA tiles at every combine (TC/CC identical numerics).
///
/// `tmp` is an equally sized scratch region whose contents are garbage on
/// entry and on exit: the decimation gather writes every sub-transform
/// value before it is read, and the combine fully overwrites `xs` — so
/// the scratch's contents never leak into a result and the numerics are
/// bit-identical to the old per-level `Vec<Vec<Vec<C64>>>` allocation
/// (same operations, same order).
fn fft_group_mma(xs: &mut [C64], tmp: &mut [C64], g: usize, n: usize, ctr: &mut OpCounters) {
    debug_assert!(g <= 8);
    debug_assert!(n.is_power_of_two());
    debug_assert_eq!(xs.len(), g * n);
    debug_assert_eq!(tmp.len(), g * n);
    if n == 1 {
        return;
    }
    if n == 2 {
        for t in 0..g {
            let (a, b) = (xs[t * 2], xs[t * 2 + 1]);
            xs[t * 2] = a + b;
            xs[t * 2 + 1] = a - b;
        }
        ctr.add_f64 += g as u64 * 4;
        return;
    }
    let q = n / 4;
    // Decimation in time: gather the four interleaved sub-transforms into
    // `tmp` (sub `p`, transform `t`, element `j` at `p·gq + t·q + j`),
    // then recurse with the now-consumed `xs` region as scratch.
    for p in 0..4 {
        for t in 0..g {
            for j in 0..q {
                tmp[p * (g * q) + t * q + j] = xs[t * n + 4 * j + p];
            }
        }
    }
    for p in 0..4 {
        let lo = p * (g * q);
        let hi = (p + 1) * (g * q);
        fft_group_mma(&mut tmp[lo..hi], &mut xs[lo..hi], g, q, ctr);
    }
    // Combine: for each k, the twiddled DFT matrix against the batch.
    for k in 0..q {
        // M[r][p] = ω₄^{rp} · ω_n^{pk}, ω = e^{-2πi/n}.
        let mut a = [0.0f64; 32]; // [Re M; Im M] packed 8×4
        for r in 0..4 {
            for p in 0..4 {
                let m = C64::cis(-2.0 * PI * ((r * p * q + p * k) % n) as f64 / n as f64);
                a[r * 4 + p] = m.re;
                a[(r + 4) * 4 + p] = m.im;
            }
        }
        let mut b_re = [0.0f64; 32];
        let mut b_im = [0.0f64; 32];
        for p in 0..4 {
            for bi in 0..g {
                let v = tmp[p * (g * q) + bi * q + k];
                b_re[p * 8 + bi] = v.re;
                b_im[p * 8 + bi] = v.im;
            }
        }
        let mut pr = [0.0f64; 64];
        let mut pi = [0.0f64; 64];
        mma_f64_m8n8k4(&a, &b_re, &mut pr, ctr);
        mma_f64_m8n8k4(&a, &b_im, &mut pi, ctr);
        for bi in 0..g {
            for r in 0..4 {
                let re = pr[r * 8 + bi] - pi[(r + 4) * 8 + bi];
                let im = pr[(r + 4) * 8 + bi] + pi[r * 8 + bi];
                xs[bi * n + k + r * q] = C64::new(re, im);
            }
        }
        ctr.add_f64 += 64;
    }
}

/// Run the MMA-path group recursion over a flat batch of `t` contiguous
/// length-`n` transforms, 8 per group, with one shared scratch region.
fn fft_groups_flat(xs: &mut [C64], tmp: &mut [C64], n: usize, ctr: &mut OpCounters) {
    for (group, scratch) in xs.chunks_mut(8 * n).zip(tmp.chunks_mut(8 * n)) {
        let g = group.len() / n;
        fft_group_mma(group, &mut scratch[..g * n], g, n, ctr);
    }
}

/// Iterative Stockham radix-2 FFT — the cuFFT-style vector baseline.
///
/// `tmp` is a same-length scratch slice (garbage in, garbage out): each
/// level fully overwrites its destination before the swap, exactly like
/// the old freshly allocated ping-pong pair, so results are bit-identical.
fn fft_stockham(x: &mut [C64], tmp: &mut [C64], ctr: &mut OpCounters) {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    debug_assert_eq!(tmp.len(), n);
    let mut levels = 0u32;
    let mut l = n / 2;
    let mut m = 1usize;
    while l >= 1 {
        // Even level: x → tmp; odd level: tmp → x.
        let (src, dst): (&[C64], &mut [C64]) = if levels.is_multiple_of(2) {
            (x as &[C64], &mut *tmp)
        } else {
            (tmp as &[C64], &mut *x)
        };
        for j in 0..l {
            let w = C64::cis(-PI * j as f64 / l as f64);
            for k in 0..m {
                let a = src[k + j * m];
                let b = src[k + j * m + l * m];
                dst[k + 2 * j * m] = a + b;
                dst[k + (2 * j + 1) * m] = w * (a - b);
            }
        }
        ctr.mul_f64 += (l * m) as u64 * 4;
        ctr.add_f64 += (l * m) as u64 * 6;
        levels += 1;
        l /= 2;
        m *= 2;
    }
    if levels % 2 == 1 {
        x.copy_from_slice(tmp);
    }
}

/// Functional 1-D FFT of a batch under one variant (exposed for the
/// tests, which check it against the DFT and its MMA count; the
/// paper's cases are 2-D).
pub fn fft1d_batch(xs: &mut [Vec<C64>], variant: Variant) -> OpCounters {
    let mut ctr = OpCounters::new();
    match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => {
            for group in xs.chunks_mut(8) {
                let g = group.len();
                let n = group[0].len();
                debug_assert!(group.iter().all(|x| x.len() == n));
                let mut flat: Vec<C64> = Vec::with_capacity(g * n);
                for x in group.iter() {
                    flat.extend_from_slice(x);
                }
                let mut tmp = vec![C64::ZERO; g * n];
                fft_group_mma(&mut flat, &mut tmp, g, n, &mut ctr);
                for (t, x) in group.iter_mut().enumerate() {
                    x.copy_from_slice(&flat[t * n..(t + 1) * n]);
                }
            }
        }
        Variant::Baseline => {
            for x in xs.iter_mut() {
                let mut tmp = vec![C64::ZERO; x.len()];
                fft_stockham(x, &mut tmp, &mut ctr);
            }
        }
    }
    ctr
}

/// Functional execution of one variant on a batch of 2-D grids.
pub fn run(case: &FftCase, data: &[Vec<C64>], variant: Variant) -> (Vec<Vec<C64>>, WorkloadTrace) {
    let (h, w) = (case.h, case.w);
    let out: Vec<Vec<C64>> = cubie_core::par::par_map(data.len(), |b| {
        let grid = &data[b];
        assert_eq!(grid.len(), h * w);
        let mut ctr = OpCounters::new();
        // Row pass: the grid is row-major, so the h row transforms are
        // already contiguous in a flat working copy.
        let mut buf = grid.to_vec();
        let mut tmp = vec![C64::ZERO; h * w];
        match variant {
            Variant::Baseline => {
                for (x, s) in buf.chunks_mut(w).zip(tmp.chunks_mut(w)) {
                    fft_stockham(x, s, &mut ctr);
                }
            }
            _ => fft_groups_flat(&mut buf, &mut tmp, w, &mut ctr),
        }
        // Column pass: transpose into `tmp` (columns contiguous), reusing
        // `buf` as the recursion scratch, then transpose out.
        for r in 0..h {
            for c in 0..w {
                tmp[c * h + r] = buf[r * w + c];
            }
        }
        match variant {
            Variant::Baseline => {
                for (x, s) in tmp.chunks_mut(h).zip(buf.chunks_mut(h)) {
                    fft_stockham(x, s, &mut ctr);
                }
            }
            _ => fft_groups_flat(&mut tmp, &mut buf, h, &mut ctr),
        }
        let mut out = vec![C64::ZERO; h * w];
        for c in 0..w {
            for r in 0..h {
                out[r * w + c] = tmp[c * h + r];
            }
        }
        out
    });
    (out, trace(case, variant))
}

/// MMA count for one group of ≤ 8 transforms of length `n` (radix-4
/// levels, two MMAs per combine index).
fn mma_per_group(n: u64) -> u64 {
    let l2 = n.trailing_zeros() as u64;
    let radix4_levels = l2 / 2;
    radix4_levels * (n / 4) * 2
}

/// Analytic trace of one variant.
pub fn trace(case: &FftCase, variant: Variant) -> WorkloadTrace {
    let (h, w, batch) = (case.h as u64, case.w as u64, case.batch as u64);
    let label = format!("fft-{}-{}", variant.label(), case.label());
    let n_pts = h * w * batch;
    let mut ops = OpCounters::default();

    // Transforms per pass: row pass = batch·h of length w; column pass =
    // batch·w of length h.
    let passes = [(batch * h, w), (batch * w, h)];
    let mut critical = latency::GMEM_RT;
    match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => {
            let mut mma = 0u64;
            let mut adds = 0u64;
            for &(t, n) in &passes {
                let groups = t.div_ceil(8);
                mma += groups * mma_per_group(n);
                let l2 = n.trailing_zeros() as u64;
                adds += groups * (l2 / 2) * (n / 4) * 64;
                if l2 % 2 == 1 {
                    adds += t * (n / 2) * 4;
                }
                critical += (l2 / 2) as f64 * 2.0 * latency::MMA_F64;
            }
            match variant {
                Variant::Tc => ops.mma_f64 = mma,
                _ => {
                    ops.fma_f64 = mma * MMA_F64_FMAS;
                    ops.int_ops = mma * MMA_F64_FMAS;
                }
            }
            ops.add_f64 = adds;
            // Twiddled DFT matrices stream once per (level, k): 32
            // doubles each.
            let a_bytes: u64 = passes
                .iter()
                .map(|&(_, n)| (n.trailing_zeros() as u64 / 2) * (n / 4) * 256)
                .sum();
            ops.gmem_load =
                MemTraffic::coalesced(n_pts * 16 + a_bytes) + MemTraffic::strided(n_pts * 16); // transpose between passes
            ops.gmem_store = MemTraffic::coalesced(n_pts * 16) + MemTraffic::strided(n_pts * 16);
            // Stage exchange in shared memory per radix-4 level.
            let levels: u64 = passes
                .iter()
                .map(|&(_, n)| (n.trailing_zeros() as u64).div_ceil(2))
                .sum();
            ops.smem_bytes = n_pts * 16 * levels * 2;
        }
        Variant::Baseline => {
            let mut mul = 0u64;
            let mut add = 0u64;
            for &(t, n) in &passes {
                let l2 = n.trailing_zeros() as u64;
                mul += t * l2 * (n / 2) * 4;
                add += t * l2 * (n / 2) * 6;
                critical += l2 as f64 * latency::FMA_F64 * 2.0;
            }
            ops.mul_f64 = mul;
            ops.add_f64 = add;
            // cuFFT fuses the stages of these small transforms into
            // single kernels whose transposes happen in shared memory:
            // global traffic is the compulsory coalesced in/out per pass.
            ops.gmem_load = MemTraffic::coalesced(2 * n_pts * 16);
            ops.gmem_store = MemTraffic::coalesced(2 * n_pts * 16);
            let levels: u64 = passes.iter().map(|&(_, n)| n.trailing_zeros() as u64).sum();
            ops.smem_bytes = n_pts * 16 * levels * 2;
        }
    }
    ops.syncs = batch;
    let blocks = (batch * h).div_ceil(8);
    WorkloadTrace::single(KernelTrace::new(
        label,
        blocks,
        256,
        48 * 1024,
        ops,
        critical,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;

    /// The DFTs as they were before the twiddle tables, unchanged: each
    /// term's twiddle is computed where it is used. The oracle of
    /// [`dft_naive`] and [`dft2_naive`].
    mod per_term {
        use super::super::*;

        pub fn dft_naive(x: &[C64]) -> Vec<C64> {
            let n = x.len();
            (0..n)
                .map(|k| {
                    let mut acc = C64::ZERO;
                    for (j, &v) in x.iter().enumerate() {
                        let w = C64::cis(-2.0 * PI * (j * k % n) as f64 / n as f64);
                        acc += v * w;
                    }
                    acc
                })
                .collect()
        }

        pub fn dft2_naive(h: usize, w: usize, x: &[C64]) -> Vec<C64> {
            // Rows then columns.
            let mut rows: Vec<C64> = Vec::with_capacity(h * w);
            for r in 0..h {
                rows.extend(dft_naive(&x[r * w..(r + 1) * w]));
            }
            let mut out = vec![C64::ZERO; h * w];
            for c in 0..w {
                let col: Vec<C64> = (0..h).map(|r| rows[r * w + c]).collect();
                for (r, v) in dft_naive(&col).into_iter().enumerate() {
                    out[r * w + c] = v;
                }
            }
            out
        }
    }

    fn bits(x: &[C64]) -> Vec<(u64, u64)> {
        x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    fn signal(n: usize, seed: u64) -> Vec<C64> {
        let mut g = cubie_core::LcgF64::new(seed);
        (0..n)
            .map(|_| C64::new(g.next_f64(), g.next_f64()))
            .collect()
    }

    #[test]
    fn twiddle_tables_match_the_per_term_dft_on_table6_sizes() {
        for n in [0usize, 1, 2, 3, 256, 512] {
            let x = signal(n, n as u64 + 3);
            assert_eq!(
                bits(&dft_naive(&x)),
                bits(&per_term::dft_naive(&x)),
                "n={n}"
            );
        }
        let x = signal(16 * 24, 5);
        assert_eq!(
            bits(&dft2_naive(16, 24, &x)),
            bits(&per_term::dft2_naive(16, 24, &x))
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn twiddle_tables_match_the_per_term_dft(
            h in 1usize..40,
            w in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let x = signal(h * w, seed);
            proptest::prop_assert_eq!(
                bits(&dft_naive(&x[..w])),
                bits(&per_term::dft_naive(&x[..w]))
            );
            proptest::prop_assert_eq!(
                bits(&dft2_naive(h, w, &x)),
                bits(&per_term::dft2_naive(h, w, &x))
            );
        }
    }

    fn small_case(h: usize, w: usize, batch: usize) -> (FftCase, Vec<Vec<C64>>) {
        let case = FftCase { h, w, batch };
        let data = input(&case);
        (case, data)
    }

    #[test]
    fn table2_cases() {
        let c = FftCase::cases();
        assert_eq!(c.len(), 5);
        assert_eq!(c[0].batch, 2048);
        assert_eq!(c[2].w, 1024);
    }

    #[test]
    fn fft1d_tc_matches_naive_dft() {
        for n in [4usize, 16, 64, 256] {
            let mut g = cubie_core::LcgF64::new(n as u64);
            let x: Vec<C64> = (0..n)
                .map(|_| C64::new(g.next_f64(), g.next_f64()))
                .collect();
            let gold = dft_naive(&x);
            let mut batch = vec![x];
            fft1d_batch(&mut batch, Variant::Tc);
            let e = ErrorStats::compare_c64(&batch[0], &gold);
            assert!(e.max < 1e-9 * n as f64, "n={n}: max err {}", e.max);
        }
    }

    #[test]
    fn fft1d_handles_odd_log2_sizes() {
        for n in [2usize, 8, 32, 128, 512] {
            let mut g = cubie_core::LcgF64::new(n as u64 + 1);
            let x: Vec<C64> = (0..n)
                .map(|_| C64::new(g.next_f64(), g.next_f64()))
                .collect();
            let gold = dft_naive(&x);
            for v in [Variant::Tc, Variant::Baseline] {
                let mut batch = vec![x.clone()];
                fft1d_batch(&mut batch, v);
                let e = ErrorStats::compare_c64(&batch[0], &gold);
                assert!(e.max < 1e-9 * n as f64, "{v} n={n}: max err {}", e.max);
            }
        }
    }

    #[test]
    fn baseline_stockham_matches_naive() {
        for n in [4usize, 16, 64] {
            let mut g = cubie_core::LcgF64::new(n as u64 + 7);
            let x: Vec<C64> = (0..n)
                .map(|_| C64::new(g.next_f64(), g.next_f64()))
                .collect();
            let gold = dft_naive(&x);
            let mut batch = vec![x];
            fft1d_batch(&mut batch, Variant::Baseline);
            let e = ErrorStats::compare_c64(&batch[0], &gold);
            assert!(e.max < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn fft2d_variants_match_naive() {
        let (case, data) = small_case(16, 32, 3);
        let gold: Vec<Vec<C64>> = data.iter().map(|g| dft2_naive(16, 32, g)).collect();
        for v in [Variant::Baseline, Variant::Tc, Variant::Cc] {
            let (out, _) = run(&case, &data, v);
            for (o, g) in out.iter().zip(&gold) {
                let e = ErrorStats::compare_c64(o, g);
                assert!(e.max < 1e-9, "{v}: max err {}", e.max);
            }
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let (case, data) = small_case(8, 16, 2);
        let (tc, _) = run(&case, &data, Variant::Tc);
        let (cc, _) = run(&case, &data, Variant::Cc);
        assert_eq!(tc, cc);
    }

    #[test]
    fn batched_transforms_are_independent() {
        let (case, data) = small_case(8, 8, 10);
        let (all, _) = run(&case, &data, Variant::Tc);
        let (single, _) = run(&case, &data[3..4], Variant::Tc);
        for (a, b) in all[3].iter().zip(&single[0]) {
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }
    }

    #[test]
    fn mma_count_formula() {
        // n = 256 = 4^4: 4 levels × 64 combines × 2 MMAs.
        assert_eq!(mma_per_group(256), 4 * 64 * 2);
        // n = 512 = 4^4·2: radix-4 levels = 4.
        assert_eq!(mma_per_group(512), 4 * 128 * 2);
    }

    #[test]
    fn tc_does_more_flops_than_baseline() {
        // The matmul formulation performs redundant work: the MMU makes
        // it fast, not lean — the paper's explanation for FFT's TC loss.
        let case = FftCase {
            h: 256,
            w: 256,
            batch: 16,
        };
        let tc = trace(&case, Variant::Tc).total_ops();
        let base = trace(&case, Variant::Baseline).total_ops();
        assert!(tc.flops_f64() > base.flops_f64());
    }
}
