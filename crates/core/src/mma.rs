//! The MMA instructions themselves, functionally emulated.
//!
//! Real FP64 tensor cores (`mma.sync.aligned.m8n8k4...f64`) compute each
//! output element as a chain of IEEE-754 fused multiply-adds over the `k`
//! dimension, seeded with the accumulator:
//! `d = fma(a3, b3, fma(a2, b2, fma(a1, b1, fma(a0, b0, c))))`.
//! [`mma_f64_m8n8k4`] reproduces exactly that order with `f64::mul_add`,
//! so TC results here carry the same rounding behaviour the paper measures.
//! A kernel's CC variant calls the same entry points and counts the work
//! as CUDA-core FMAs in its trace, so TC and CC are bit-identical by
//! construction (the paper's Observation 7).
//!
//! [`mma_tiled_mixed`] models the FP16/BF16/TF32 units the same way: by
//! each generation's accumulation order and rounding, not by which lane
//! holds which element.

use std::sync::OnceLock;

use crate::counters::{OpCounters, MMA_F16_FMAS, MMA_TF32_FMAS};
use crate::scalar::{MmaGen, Precision};

/// Fault-injection switch for the golden-regression harness: when the
/// process environment sets `CUBIE_MMA_PERTURB_ULP` (to anything but
/// `0`), every FP64 MMA accumulation chain flips the last mantissa bit
/// of its result — a one-ulp perturbation that must trip the bit-exact
/// comparison class of `cubie golden check` while leaving every
/// magnitude-level tolerance untouched. TC and CC variants run the same
/// chains, so the TC ≡ CC bit-identity invariant (Observation 7,
/// asserted throughout the suite) still holds under injection. Read once
/// per process.
fn perturb_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("CUBIE_MMA_PERTURB_ULP").is_some_and(|v| v != *"0"))
}

/// Flip the last mantissa bit of a finite value: a one-ulp-magnitude
/// change, the smallest representable numerical fault.
#[inline]
pub fn flip_last_ulp(v: f64) -> f64 {
    if v.is_finite() {
        f64::from_bits(v.to_bits() ^ 1)
    } else {
        v
    }
}

/// `f32` analog of [`flip_last_ulp`]: flip the last mantissa bit of a
/// finite single-precision value. The mixed-precision accumulation chains
/// produce `f32` results, so their fault-injection hook must perturb at
/// the `f32` ulp (an `f64`-level flip would vanish in the conversion).
#[inline]
pub fn flip_last_ulp_f32(v: f32) -> f32 {
    if v.is_finite() {
        f32::from_bits(v.to_bits() ^ 1)
    } else {
        v
    }
}

#[inline]
fn perturb_f32(v: f32) -> f32 {
    if perturb_enabled() {
        flip_last_ulp_f32(v)
    } else {
        v
    }
}

/// The arithmetic core shared by every FP64 MMA entry point: one
/// `m8n8k4` chain reading the operands *in place* through row strides —
/// `a` rows at `a0 + i·lda`, `b` rows at `b0 + kk·ldb`, `c` rows at
/// `c0 + i·ldc` — so callers with tile-aligned operands skip the scratch
/// packing entirely. The element order (`i`-major, `j` inner) and the
/// `k`-ascending FMA chain are exactly those of the packed entry points,
/// executed on the active [`crate::simd`] path (bit-identical to scalar
/// on every path — distinct output elements are independent chains, and
/// the SIMD lanes preserve each chain's FMA order). Fault injection
/// applies once per element chain *after* the core, so every caller
/// stays bit-identical no matter which path dispatched it.
#[inline]
#[allow(clippy::too_many_arguments)] // nine scalars beat a one-use struct on this hot path
fn mma_f64_m8n8k4_strided_core(
    a: &[f64],
    a0: usize,
    lda: usize,
    b: &[f64],
    b0: usize,
    ldb: usize,
    c: &mut [f64],
    c0: usize,
    ldc: usize,
) {
    crate::simd::mma_f64_m8n8k4_strided(a, a0, lda, b, b0, ldb, c, c0, ldc);
    if perturb_enabled() {
        // Each output element closed its FMA chain exactly once above,
        // so the one-ulp flip lands once per chain — the same effect as
        // the pre-SIMD per-element `perturb(acc)` in the scalar loop.
        for i in 0..8 {
            for out in &mut c[c0 + i * ldc..c0 + i * ldc + 8] {
                *out = flip_last_ulp(*out);
            }
        }
    }
}

/// One FP64 `m8n8k4` MMA on row-major matrices:
/// `c (8×8) += a (8×4) · b (4×8)`, with the tensor-core FMA chain per
/// element. Increments `counters.mma_f64`.
#[inline]
pub fn mma_f64_m8n8k4(a: &[f64; 32], b: &[f64; 32], c: &mut [f64; 64], counters: &mut OpCounters) {
    mma_f64_m8n8k4_strided_core(a, 0, 4, b, 0, 8, c, 0, 8);
    counters.mma_f64 += 1;
}

/// One FP64 `m8n8k4` MMA reading its operands in place from larger
/// row-major matrices: the 8×4 `A` tile starts at `a[a0]` with row
/// stride `lda`, the 4×8 `B` tile at `b[b0]` with row stride `ldb`, and
/// the 8×8 accumulator at `c[c0]` with row stride `ldc`. Bit-identical
/// to packing the tiles and calling [`mma_f64_m8n8k4`], without the
/// scratch fills. Increments `counters.mma_f64`.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the strided-core signature plus counters
pub fn mma_f64_m8n8k4_strided(
    a: &[f64],
    a0: usize,
    lda: usize,
    b: &[f64],
    b0: usize,
    ldb: usize,
    c: &mut [f64],
    c0: usize,
    ldc: usize,
    counters: &mut OpCounters,
) {
    mma_f64_m8n8k4_strided_core(a, a0, lda, b, b0, ldb, c, c0, ldc);
    counters.mma_f64 += 1;
}

/// One logical 8×8×8 matrix multiply-accumulate, issued as two chained
/// FP64 `m8n8k4` MMAs (`k = 0..4` then `k = 4..8`) — the building block
/// of the Scan/Reduction kernels, whose constant operands are full 8×8
/// matrices. All matrices row-major; `c += a · b`.
#[inline]
pub fn mma_f64_8x8x8(a: &[f64; 64], b: &[f64; 64], c: &mut [f64; 64], counters: &mut OpCounters) {
    // The two k-halves read `a`/`b` in place (k-half `h` is the 8×4 tile
    // at column 4h of `a` and the 4×8 tile at row 4h of `b`) — same FMA
    // chains as packing into scratch, minus the 64 copies per call.
    mma_f64_m8n8k4_strided_core(a, 0, 8, b, 0, 8, c, 0, 8);
    mma_f64_m8n8k4_strided_core(a, 4, 8, b, 32, 8, c, 0, 8);
    counters.mma_f64 += 2;
}

/// The arithmetic of one mixed-precision MMA tile:
/// `c (m×n, f32) += a (m×k) · b (k×n)` where `a`/`b` hold operand values
/// **already quantized** to the operand format (exact `f64`
/// representations — see [`Precision::quantize`]). Products are exact;
/// accumulation folds each ascending `k = 4` slice with the generation's
/// published semantics ([`MmaGen::dot4_f32`]); [`perturb_f32`] applies
/// once per element chain. `k` must be a multiple of 4.
fn mma_mixed_core(a: &[f64], b: &[f64], c: &mut [f32], m: usize, n: usize, k: usize, gen: MmaGen) {
    debug_assert!(k.is_multiple_of(4));
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for k0 in (0..k).step_by(4) {
                let prods: [f64; 4] =
                    std::array::from_fn(|kk| a[i * k + k0 + kk] * b[(k0 + kk) * n + j]);
                acc = gen.dot4_f32(acc, &prods);
            }
            c[i * n + j] = perturb_f32(acc);
        }
    }
}

/// Multiply an `M×K` by a `K×N` row-major matrix through tiled
/// mixed-precision MMAs (`m16n8k16` for FP16/BF16, `m16n8k8` for TF32),
/// zero-padding ragged edges. `a` and `b` hold values **already
/// quantized** to `precision` (see [`Precision::quantize`]); `c` is the
/// `f32` accumulator. With `cc = false` the work is counted as tensor-core
/// MMA instructions, with `cc = true` as the CUDA-core replacement
/// (bit-identical numerics either way, per Observation 7).
///
/// # Panics
///
/// Panics if `precision` is [`Precision::F64`] (FP64 runs through
/// [`mma_f64_m8n8k4`]).
#[allow(clippy::too_many_arguments)] // the matmul shape plus precision, generation and pipe
pub fn mma_tiled_mixed(
    precision: Precision,
    gen: MmaGen,
    a: &[f64],
    b: &[f64],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    cc: bool,
    counters: &mut OpCounters,
) {
    assert_eq!(a.len(), m * k, "A must be M×K");
    assert_eq!(b.len(), k * n, "B must be K×N");
    assert_eq!(c.len(), m * n, "C must be M×N");
    let kt = match precision {
        Precision::F64 => panic!("mma_tiled_mixed models reduced precisions; FP64 has its own MMA"),
        Precision::F16 | Precision::Bf16 => 16,
        Precision::Tf32 => 8,
    };
    let mut at = vec![0.0f64; 16 * kt];
    let mut bt = vec![0.0f64; kt * 8];
    let mut ct = [0.0f32; 128];
    for i0 in (0..m).step_by(16) {
        for j0 in (0..n).step_by(8) {
            ct.fill(0.0);
            for ii in 0..16usize.min(m - i0) {
                for jj in 0..8usize.min(n - j0) {
                    ct[ii * 8 + jj] = c[(i0 + ii) * n + (j0 + jj)];
                }
            }
            for k0 in (0..k).step_by(kt) {
                at.fill(0.0);
                bt.fill(0.0);
                for ii in 0..16usize.min(m - i0) {
                    for kk in 0..kt.min(k - k0) {
                        at[ii * kt + kk] = a[(i0 + ii) * k + (k0 + kk)];
                    }
                }
                for kk in 0..kt.min(k - k0) {
                    for jj in 0..8usize.min(n - j0) {
                        bt[kk * 8 + jj] = b[(k0 + kk) * n + (j0 + jj)];
                    }
                }
                mma_mixed_core(&at, &bt, &mut ct, 16, 8, kt, gen);
                match (precision, cc) {
                    (Precision::F16, false) => counters.mma_f16 += 1,
                    (Precision::Bf16, false) => counters.mma_bf16 += 1,
                    (Precision::Tf32, false) => counters.mma_tf32 += 1,
                    (Precision::Tf32, true) => {
                        counters.fma_f32 += MMA_TF32_FMAS;
                        counters.int_ops += MMA_TF32_FMAS;
                    }
                    (_, true) => {
                        counters.fma_f32 += MMA_F16_FMAS;
                        counters.int_ops += MMA_F16_FMAS;
                    }
                    (Precision::F64, _) => unreachable!(),
                }
            }
            for ii in 0..16usize.min(m - i0) {
                for jj in 0..8usize.min(n - j0) {
                    c[(i0 + ii) * n + (j0 + jj)] = ct[ii * 8 + jj];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::LcgF64;

    fn random_tile(seed: u64) -> ([f64; 32], [f64; 32], [f64; 64]) {
        let mut g = LcgF64::new(seed);
        let mut a = [0.0; 32];
        let mut b = [0.0; 32];
        let mut c = [0.0; 64];
        g.fill(&mut a);
        g.fill(&mut b);
        g.fill(&mut c);
        (a, b, c)
    }

    /// Naive reference matmul-accumulate used only by tests, accumulating in
    /// the same `k`-ascending order but through separate multiply and add
    /// (i.e. *not* fused). Tests use it to show that the fused chain differs
    /// from unfused accumulation while agreeing with the CC replacement.
    pub fn reference_mma_unfused(a: &[f64; 32], b: &[f64; 32], c: &mut [f64; 64]) {
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = c[i * 8 + j];
                for k in 0..4 {
                    acc += a[i * 4 + k] * b[k * 8 + j];
                }
                c[i * 8 + j] = acc;
            }
        }
    }

    #[test]
    fn mma_matches_exact_small_integers() {
        // Integer-valued inputs are exact in f64 whether fused or not.
        let mut a = [0.0; 32];
        let mut b = [0.0; 32];
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i % 5) as f64;
        }
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i * 3) % 7) as f64;
        }
        let mut c = [1.0; 64];
        let mut cref = [1.0; 64];
        let mut ctr = OpCounters::new();
        mma_f64_m8n8k4(&a, &b, &mut c, &mut ctr);
        reference_mma_unfused(&a, &b, &mut cref);
        assert_eq!(c, cref);
        assert_eq!(ctr.mma_f64, 1);
    }

    #[test]
    fn fused_chain_can_differ_from_unfused() {
        // Find at least one random tile where fused and unfused rounding
        // differ — demonstrating the MMA semantics are genuinely fused.
        let mut any_diff = false;
        for seed in 1..200 {
            let (a, b, c0) = random_tile(seed);
            let mut cf = c0;
            let mut cu = c0;
            let mut ctr = OpCounters::new();
            mma_f64_m8n8k4(&a, &b, &mut cf, &mut ctr);
            reference_mma_unfused(&a, &b, &mut cu);
            if cf != cu {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "fused MMA never differed from unfused reference");
    }

    #[test]
    fn ulp_flip_is_one_ulp_and_involutive() {
        // The golden harness relies on the injected fault being exactly
        // one ulp: detectable by the bit-exact class, invisible to any
        // sane relative tolerance.
        for v in [1.0, -2.5, 3.119e-13, 1e300] {
            let f = flip_last_ulp(v);
            assert_ne!(f.to_bits(), v.to_bits());
            assert_eq!(f.to_bits() ^ 1, v.to_bits());
            assert_eq!(flip_last_ulp(f).to_bits(), v.to_bits());
            assert!(((f - v) / v).abs() < 1e-15, "flip moved more than ~1 ulp");
        }
        assert_eq!(flip_last_ulp(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn ulp_flip_edge_cases() {
        // ±0 flips to the smallest subnormal of matching sign (bit 0 set).
        assert_eq!(flip_last_ulp(0.0).to_bits(), 1);
        assert_eq!(flip_last_ulp(-0.0).to_bits(), (1u64 << 63) | 1);
        // The smallest subnormal flips back to (+)zero — involutive.
        let tiny = f64::from_bits(1);
        assert_eq!(flip_last_ulp(tiny), 0.0);
        assert_eq!(flip_last_ulp(flip_last_ulp(tiny)).to_bits(), tiny.to_bits());
        // Interior subnormals stay subnormal and move exactly one step.
        let sub = f64::from_bits(0x000f_ffff_ffff_fffe);
        assert!(sub.is_subnormal());
        assert_eq!(flip_last_ulp(sub).to_bits(), sub.to_bits() | 1);
        // MAX flips *down* one ulp (mantissa all-ones), staying finite.
        let m = flip_last_ulp(f64::MAX);
        assert!(m.is_finite() && m < f64::MAX);
        assert_eq!(flip_last_ulp(m), f64::MAX);
        // Infinities pass through untouched.
        assert_eq!(flip_last_ulp(f64::INFINITY), f64::INFINITY);
        assert_eq!(flip_last_ulp(f64::NEG_INFINITY), f64::NEG_INFINITY);
        // NaNs pass through with their payload bits intact.
        let payload_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(flip_last_ulp(payload_nan).to_bits(), payload_nan.to_bits());
    }

    #[test]
    fn ulp_flip_f32_edge_cases() {
        assert_eq!(flip_last_ulp_f32(0.0).to_bits(), 1);
        assert_eq!(flip_last_ulp_f32(-0.0).to_bits(), (1u32 << 31) | 1);
        let tiny = f32::from_bits(1);
        assert_eq!(flip_last_ulp_f32(tiny), 0.0);
        let m = flip_last_ulp_f32(f32::MAX);
        assert!(m.is_finite() && m < f32::MAX);
        assert_eq!(flip_last_ulp_f32(m), f32::MAX);
        assert_eq!(flip_last_ulp_f32(f32::INFINITY), f32::INFINITY);
        let payload_nan = f32::from_bits(0x7fc0_0042);
        assert_eq!(
            flip_last_ulp_f32(payload_nan).to_bits(),
            payload_nan.to_bits()
        );
        // One-ulp magnitude on ordinary values, involutive.
        for v in [1.0f32, -2.5, 3.119e-13, 1e38] {
            let f = flip_last_ulp_f32(v);
            assert_eq!(f.to_bits() ^ 1, v.to_bits());
            assert_eq!(flip_last_ulp_f32(f).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strided_mma_matches_packed_mma() {
        // A 16×12 / 12×24 problem; take the tile at (8, 8)..(16, 16) and
        // k-rows 4..8, both packed and strided.
        let mut g = LcgF64::new(5);
        let (m, n, k) = (16, 24, 12);
        let a = g.vec(m * k);
        let b = g.vec(k * n);
        let c0 = g.vec(m * n);
        let (i0, j0, k0) = (8, 8, 4);
        let mut at = [0.0; 32];
        let mut bt = [0.0; 32];
        let mut ct = [0.0; 64];
        for ii in 0..8 {
            for kk in 0..4 {
                at[ii * 4 + kk] = a[(i0 + ii) * k + (k0 + kk)];
            }
        }
        for kk in 0..4 {
            for jj in 0..8 {
                bt[kk * 8 + jj] = b[(k0 + kk) * n + (j0 + jj)];
            }
        }
        for ii in 0..8 {
            for jj in 0..8 {
                ct[ii * 8 + jj] = c0[(i0 + ii) * n + (j0 + jj)];
            }
        }
        let mut k1 = OpCounters::new();
        let mut k2 = OpCounters::new();
        mma_f64_m8n8k4(&at, &bt, &mut ct, &mut k1);
        let mut c = c0.clone();
        mma_f64_m8n8k4_strided(
            &a,
            i0 * k + k0,
            k,
            &b,
            k0 * n + j0,
            n,
            &mut c,
            i0 * n + j0,
            n,
            &mut k2,
        );
        for ii in 0..8 {
            for jj in 0..8 {
                assert_eq!(
                    c[(i0 + ii) * n + (j0 + jj)].to_bits(),
                    ct[ii * 8 + jj].to_bits(),
                    "strided MMA diverged from packed at ({ii},{jj})"
                );
            }
        }
        assert_eq!(k1.mma_f64, 1);
        assert_eq!(k2.mma_f64, 1);
    }
}

#[cfg(test)]
mod tests_mixed {
    use super::*;
    use crate::rng::LcgF64;

    fn quantized(seed: u64, n: usize, p: Precision) -> Vec<f64> {
        let mut g = LcgF64::new(seed);
        (0..n).map(|_| p.quantize(g.next_f64())).collect()
    }

    #[test]
    fn tiled_mixed_approximates_f64_matmul_within_format_error() {
        // Relative error scales: ~2^-11 per f16/tf32 rounding, ~2^-8 for
        // bf16, times the k-deep accumulation; generous bounds below.
        for (p, tol) in [
            (Precision::F16, 2e-2),
            (Precision::Bf16, 1e-1),
            (Precision::Tf32, 2e-2),
        ] {
            let (m, n, k) = (33, 17, 21); // ragged on every axis
            let mut g = LcgF64::new(99);
            let a = g.vec(m * k);
            let b = g.vec(k * n);
            let aq: Vec<f64> = a.iter().map(|&v| p.quantize(v)).collect();
            let bq: Vec<f64> = b.iter().map(|&v| p.quantize(v)).collect();
            let mut c = vec![0.0f32; m * n];
            let mut ctr = OpCounters::new();
            mma_tiled_mixed(
                p,
                MmaGen::Ampere,
                &aq,
                &bq,
                &mut c,
                m,
                n,
                k,
                false,
                &mut ctr,
            );
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f64;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    let d = (c[i * n + j] as f64 - acc).abs();
                    assert!(
                        d < tol * acc.abs().max(1.0),
                        "{p}: ({i},{j}) differs by {d:.3e}"
                    );
                }
            }
            // ceil(33/16)·ceil(17/8)·ceil(21/kt) tiles.
            let kt = if p == Precision::Tf32 { 8 } else { 16 };
            let want = 3 * 3 * (21usize.div_ceil(kt)) as u64;
            let got = ctr.mma_f16 + ctr.mma_bf16 + ctr.mma_tf32;
            assert_eq!(got, want, "{p}: tile count");
        }
    }

    #[test]
    fn tiled_mixed_cc_and_tc_agree_on_ragged_shapes() {
        for p in [Precision::F16, Precision::Bf16, Precision::Tf32] {
            let (m, n, k) = (19, 11, 13);
            let aq = quantized(31, m * k, p);
            let bq = quantized(32, k * n, p);
            let mut c_tc = vec![0.25f32; m * n];
            let mut c_cc = vec![0.25f32; m * n];
            let mut k1 = OpCounters::new();
            let mut k2 = OpCounters::new();
            mma_tiled_mixed(
                p,
                MmaGen::Ampere,
                &aq,
                &bq,
                &mut c_tc,
                m,
                n,
                k,
                false,
                &mut k1,
            );
            mma_tiled_mixed(
                p,
                MmaGen::Ampere,
                &aq,
                &bq,
                &mut c_cc,
                m,
                n,
                k,
                true,
                &mut k2,
            );
            assert_eq!(c_tc, c_cc, "{p}: TC/CC divergence");
            assert_eq!(k2.mma_f16 + k2.mma_bf16 + k2.mma_tf32, 0);
            assert!(k2.fma_f32 > 0);
        }
    }
}

#[cfg(test)]
mod tests_8x8x8 {
    use super::*;
    use crate::rng::LcgF64;

    #[test]
    fn logical_8x8x8_matches_naive() {
        let mut g = LcgF64::new(77);
        let mut a = [0.0f64; 64];
        let mut b = [0.0f64; 64];
        let mut c = [0.0f64; 64];
        g.fill(&mut a);
        g.fill(&mut b);
        g.fill(&mut c);
        let mut got = c;
        let mut ctr = OpCounters::new();
        mma_f64_8x8x8(&a, &b, &mut got, &mut ctr);
        assert_eq!(ctr.mma_f64, 2);
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = c[i * 8 + j];
                for k in 0..8 {
                    acc = a[i * 8 + k].mul_add(b[k * 8 + j], acc);
                }
                assert!((got[i * 8 + j] - acc).abs() < 1e-12);
            }
        }
    }
}
