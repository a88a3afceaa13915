//! Property-tested rounding semantics of the mixed-precision MMA
//! emulation, against the published tensor-core numerical models:
//!
//! * Fasi, Higham, Mikaitis, Pranesh, "Numerical behavior of NVIDIA
//!   tensor cores" (PeerJ CS, 2021) — Volta accumulates serially with
//!   round-toward-zero and flushes subnormal step results to zero,
//!   while operand products are computed exactly (no product rounding).
//! * Khattak & Mikaitis, "Accurate Models of NVIDIA Tensor Cores"
//!   (2024/25 model series) — Ampere-and-later parts compute each
//!   `k = 4` slice as a fused five-term dot product with one
//!   round-to-nearest-even and gradual underflow.
//!
//! Each published behavior is pinned twice: a hand-checkable **oracle
//! vector** (the exact bit patterns the model mandates — reproduced by
//! hand in EXPERIMENTS.md) and a **property family** generalizing it
//! over random operands. Each oracle also has a **fault-injection
//! proof**: re-running it in a subprocess with `CUBIE_MMA_PERTURB_ULP=1`
//! (a one-ulp fault in every accumulation chain) must make it fail,
//! demonstrating the oracle genuinely pins the last mantissa bit — the
//! same mechanism by which the `ext_precision_mma` golden gate trips.

use cubie::core::counters::{MMA_F16_FMAS, MMA_TF32_FMAS};
use cubie::core::mma::mma_tiled_mixed;
use cubie::core::scalar::{ftz_f32, round_to_format, Bf16, MmaGen, Precision, Round, Tf32, F16};
use cubie::core::OpCounters;
use proptest::prelude::*;

/// One mixed-precision MMA tile through [`mma_tiled_mixed`]: `a` is
/// 16×k and `b` k×8 row-major (`k` = 16 for FP16/BF16, 8 for TF32),
/// holding values of the `precision` format; `c` is the 16×8 f32
/// accumulator. `cc` picks the CUDA-core counting. Returns the counters.
fn tile_mma(
    precision: Precision,
    gen: MmaGen,
    a: &[f64],
    b: &[f64],
    c: &mut [f32; 128],
    cc: bool,
) -> OpCounters {
    let mut ctr = OpCounters::new();
    mma_tiled_mixed(precision, gen, a, b, c, 16, 8, a.len() / 16, cc, &mut ctr);
    ctr
}

/// One f16 `m16n8k16` MMA into a zero (or given) accumulator, returning
/// the 16×8 output.
fn f16_mma(a: &[F16; 256], b: &[F16; 128], c0: &[f32; 128], gen: MmaGen) -> [f32; 128] {
    let mut c = *c0;
    let ctr = tile_mma(
        Precision::F16,
        gen,
        &a.map(F16::to_f64),
        &b.map(F16::to_f64),
        &mut c,
        false,
    );
    assert_eq!(ctr.mma_f16, 1);
    c
}

/// One bf16 `m16n8k16` MMA into a zero accumulator, returning the 16×8
/// output.
fn bf16_mma(a: &[Bf16; 256], b: &[Bf16; 128], gen: MmaGen) -> [f32; 128] {
    let mut c = [0.0f32; 128];
    let ctr = tile_mma(
        Precision::Bf16,
        gen,
        &a.map(Bf16::to_f64),
        &b.map(Bf16::to_f64),
        &mut c,
        false,
    );
    assert_eq!(ctr.mma_bf16, 1);
    c
}

/// Operand matrices that put `row` of values in `A` row 0, `B` column 0
/// at depths `k = 0..row.len()`, zero elsewhere: output element (0,0)
/// accumulates exactly those products, every other element only zeros.
fn probe_f16(av: &[f64], bv: &[f64]) -> ([F16; 256], [F16; 128]) {
    assert_eq!(av.len(), bv.len());
    let mut a = [F16::from_f64_rn(0.0); 256];
    let mut b = [F16::from_f64_rn(0.0); 128];
    for (k, (&x, &y)) in av.iter().zip(bv).enumerate() {
        a[k] = F16::from_f64_rn(x); // A[0][k], row-major 16×16
        b[k * 8] = F16::from_f64_rn(y); // B[k][0], row-major 16×8
    }
    (a, b)
}

// ---------------------------------------------------------------------
// Oracle vectors (one per published behavior).
// ---------------------------------------------------------------------

/// Behavior 1 (Fasi et al. §4): Volta rounds toward zero after every
/// serial addition; Ampere rounds the exact slice sum to nearest once.
/// Four products of `2^-25` under `c = 1.0`: every Volta step truncates
/// back to 1.0, while the fused sum `1 + 2^-23` is exactly
/// representable.
fn oracle_rz_vs_rn() {
    let p = (-12f64).exp2() * (-13f64).exp2(); // 2^-25, exact in f16·f16
    assert_eq!(p, (-25f64).exp2());
    let (a, b) = probe_f16(&[(-12f64).exp2(); 4], &[(-13f64).exp2(); 4]);
    let c0 = {
        let mut c = [0.0f32; 128];
        c[0] = 1.0;
        c
    };
    let volta = f16_mma(&a, &b, &c0, MmaGen::Volta)[0];
    let ampere = f16_mma(&a, &b, &c0, MmaGen::Ampere)[0];
    assert_eq!(volta.to_bits(), 1.0f32.to_bits(), "Volta RZ must truncate");
    assert_eq!(
        ampere.to_bits(),
        0x3F80_0001, // 1 + 2^-23
        "Ampere fused RN must keep the exact slice sum"
    );
}

/// Behavior 2 (Fasi et al. §5): Volta flushes subnormal accumulator
/// values to zero; Ampere preserves gradual underflow. One bf16 product
/// `2^-70 · 2^-70 = 2^-140` (an f32 subnormal) under `c = 0`.
fn oracle_ftz_vs_gradual_underflow() {
    let mut a = [Bf16::from_f64_rn(0.0); 256];
    let mut b = [Bf16::from_f64_rn(0.0); 128];
    a[0] = Bf16::from_f64_rn((-70f64).exp2());
    b[0] = Bf16::from_f64_rn((-70f64).exp2());
    let volta = bf16_mma(&a, &b, MmaGen::Volta)[0];
    let ampere = bf16_mma(&a, &b, MmaGen::Ampere)[0];
    assert_eq!(volta.to_bits(), 0.0f32.to_bits(), "Volta must flush 2^-140");
    assert!(ampere.is_subnormal(), "Ampere must keep the subnormal");
    assert_eq!(
        ampere.to_bits(),
        1u32 << 9, // 2^-140 = 2^-149 · 2^9
        "Ampere gradual underflow must be exact"
    );
}

/// Behavior 3 (Khattak & Mikaitis §3): the fused dot holds all five
/// terms at full precision before its single rounding, so a large
/// accumulator does not swallow small products the way a serial f32
/// chain does. `c = 2^24` plus four products of 1.0.
fn oracle_fused_vs_serial_wide_accumulator() {
    let (a, b) = probe_f16(&[1.0; 4], &[1.0; 4]);
    let c0 = {
        let mut c = [0.0f32; 128];
        c[0] = 24f32.exp2();
        c
    };
    let volta = f16_mma(&a, &b, &c0, MmaGen::Volta)[0];
    let ampere = f16_mma(&a, &b, &c0, MmaGen::Ampere)[0];
    assert_eq!(
        volta.to_bits(),
        24f32.exp2().to_bits(),
        "Volta serial RZ must lose each +1 below the 2^24 ulp"
    );
    assert_eq!(
        ampere.to_bits(),
        (24f32.exp2() + 4.0).to_bits(),
        "Ampere fused sum must land 2^24 + 4 exactly"
    );
}

/// Behavior 4 (Fasi et al. §3): operand products are exact — computed
/// at full precision, not rounded to the operand format. `(1+2^-10)²`
/// keeps its `2^-20` bit on both generations; hardware that rounded the
/// product to f16 would return `1 + 2^-9`.
fn oracle_products_are_exact() {
    let x = 1.0 + (-10f64).exp2(); // exactly representable in f16
    let (a, b) = probe_f16(&[x], &[x]);
    let expected = (1.0 + (-9f64).exp2() + (-20f64).exp2()) as f32; // exact in f32
    let c0 = [0.0f32; 128];
    for gen in [MmaGen::Volta, MmaGen::Ampere] {
        let got = f16_mma(&a, &b, &c0, gen)[0];
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "{gen:?}: product must keep the 2^-20 bit"
        );
    }
}

/// TF32 quantization oracle: ties round to even at the 10-bit operand
/// mantissa, so `1 + 2^-11` enters the unit as exactly 1.0 (while bf16,
/// with 7 mantissa bits, already dropped `1 + 2^-8` the same way).
fn oracle_tf32_quantization() {
    assert_eq!(Tf32::from_f64_rn(1.0 + (-11f64).exp2()).to_f64(), 1.0);
    assert_eq!(Precision::Tf32.quantize(1.0 + (-11f64).exp2()), 1.0);
    assert_eq!(Precision::Bf16.quantize(1.0 + (-8f64).exp2()), 1.0);
    // One step above the tie rounds up to the next representable value.
    let up = Precision::Tf32.quantize(1.0 + (-11f64).exp2() + (-30f64).exp2());
    assert_eq!(up, 1.0 + (-10f64).exp2());
    // And the m16n8k8 MMA sees the quantized operand: 1·(1+2^-11) == 1.
    let mut a = [Tf32::from_f64_rn(0.0); 128];
    let mut b = [Tf32::from_f64_rn(0.0); 64];
    a[0] = Tf32::from_f64_rn(1.0);
    b[0] = Tf32::from_f64_rn(1.0 + (-11f64).exp2());
    let mut c = [0.0f32; 128];
    let ctr = tile_mma(
        Precision::Tf32,
        MmaGen::Ampere,
        &a.map(Tf32::to_f64),
        &b.map(Tf32::to_f64),
        &mut c,
        false,
    );
    assert_eq!(ctr.mma_tf32, 1);
    assert_eq!(c[0].to_bits(), 1.0f32.to_bits());
}

#[test]
fn oracle_vectors_hold_on_clean_hardware_model() {
    oracle_rz_vs_rn();
    oracle_ftz_vs_gradual_underflow();
    oracle_fused_vs_serial_wide_accumulator();
    oracle_products_are_exact();
    oracle_tf32_quantization();
}

// ---------------------------------------------------------------------
// Fault-injection proofs: each oracle, re-run under a one-ulp fault,
// must FAIL — the bit patterns above genuinely pin the last mantissa
// bit of the accumulation chain. `CUBIE_MMA_PERTURB_ULP` is read once
// per process, so the perturbed run happens in a subprocess (this same
// test binary, re-executed against the `#[ignore]`d probe).
// ---------------------------------------------------------------------

#[test]
#[ignore = "perturbation probe: run by the fault-injection proofs"]
fn perturb_probe_rz_vs_rn() {
    oracle_rz_vs_rn();
}

#[test]
#[ignore = "perturbation probe: run by the fault-injection proofs"]
fn perturb_probe_ftz() {
    oracle_ftz_vs_gradual_underflow();
}

#[test]
#[ignore = "perturbation probe: run by the fault-injection proofs"]
fn perturb_probe_fused_accumulator() {
    oracle_fused_vs_serial_wide_accumulator();
}

#[test]
#[ignore = "perturbation probe: run by the fault-injection proofs"]
fn perturb_probe_exact_products() {
    oracle_products_are_exact();
}

/// Re-run one `#[ignore]`d probe of this binary in a subprocess: it must
/// pass with the fault switch off and fail with it on.
fn assert_probe_trips_under_ulp_fault(probe: &str) {
    let exe = std::env::current_exe().expect("test binary path");
    let run = |perturb: &str| {
        std::process::Command::new(&exe)
            .args(["--exact", probe, "--include-ignored", "--test-threads", "1"])
            .env("CUBIE_MMA_PERTURB_ULP", perturb)
            .output()
            .expect("spawn test subprocess")
    };
    let clean = run("0");
    assert!(
        clean.status.success(),
        "{probe} must pass without fault injection:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let faulted = run("1");
    assert!(
        !faulted.status.success(),
        "{probe} did NOT trip under a one-ulp fault — the oracle does not \
         pin the accumulation chain bits:\n{}",
        String::from_utf8_lossy(&faulted.stdout)
    );
}

#[test]
fn rz_vs_rn_oracle_trips_under_ulp_fault() {
    assert_probe_trips_under_ulp_fault("perturb_probe_rz_vs_rn");
}

#[test]
fn ftz_oracle_trips_under_ulp_fault() {
    assert_probe_trips_under_ulp_fault("perturb_probe_ftz");
}

#[test]
fn fused_accumulator_oracle_trips_under_ulp_fault() {
    assert_probe_trips_under_ulp_fault("perturb_probe_fused_accumulator");
}

#[test]
fn exact_products_oracle_trips_under_ulp_fault() {
    assert_probe_trips_under_ulp_fault("perturb_probe_exact_products");
}

// ---------------------------------------------------------------------
// Property families generalizing the oracles over random operands.
// ---------------------------------------------------------------------

/// Random finite f16 value spanning normals, subnormals and exact zeros.
fn f16_val() -> impl Strategy<Value = F16> {
    prop_oneof![
        (-8.0..8.0f64).prop_map(F16::from_f64_rn),
        (-1e-4..1e-4f64).prop_map(F16::from_f64_rn),
        Just(F16::from_f64_rn(0.0)),
        Just(F16::from_f64_rn(1.0)),
    ]
}

fn f16_tile() -> impl Strategy<Value = ([F16; 256], [F16; 128])> {
    (
        proptest::collection::vec(f16_val(), 256),
        proptest::collection::vec(f16_val(), 128),
    )
        .prop_map(|(a, b)| {
            let mut aa = [F16::from_f64_rn(0.0); 256];
            let mut bb = [F16::from_f64_rn(0.0); 128];
            aa.copy_from_slice(&a);
            bb.copy_from_slice(&b);
            (aa, bb)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Observation 7 extended to the mixed-precision units: the CUDA-core
    /// replacement of every reduced-precision MMA is bit-identical to the
    /// tensor-core emulation, on both generations, for ANY operands.
    #[test]
    fn mixed_cc_replacement_is_bit_identical(
        (a, b) in f16_tile(),
        volta in any::<bool>(),
    ) {
        let gen = if volta { MmaGen::Volta } else { MmaGen::Ampere };
        let (av, bv) = (a.map(F16::to_f64), b.map(F16::to_f64));
        let mut c_tc = [0.0f32; 128];
        let mut c_cc = [0.0f32; 128];
        let k1 = tile_mma(Precision::F16, gen, &av, &bv, &mut c_tc, false);
        let k2 = tile_mma(Precision::F16, gen, &av, &bv, &mut c_cc, true);
        for (x, y) in c_tc.iter().zip(&c_cc) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(k1.mma_f16, 1);
        prop_assert_eq!(k2.fma_f32, MMA_F16_FMAS);
        prop_assert_eq!(k1.tc_f16_flops(), k2.cc_f32_flops());

        // And for the tf32 m16n8k8 shape, reusing the generated bits.
        let a8: [f64; 128] = std::array::from_fn(|i| Tf32::from_f64_rn(av[i]).to_f64());
        let b8: [f64; 64] = std::array::from_fn(|i| Tf32::from_f64_rn(bv[i]).to_f64());
        let mut t_tc = [0.0f32; 128];
        let mut t_cc = [0.0f32; 128];
        let k1 = tile_mma(Precision::Tf32, gen, &a8, &b8, &mut t_tc, false);
        let k2 = tile_mma(Precision::Tf32, gen, &a8, &b8, &mut t_cc, true);
        for (x, y) in t_tc.iter().zip(&t_cc) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(k1.mma_tf32, 1);
        prop_assert_eq!(k2.fma_f32, MMA_TF32_FMAS);
        prop_assert_eq!(k1.tc_tf32_flops(), k2.cc_f32_flops());
    }

    /// Behavior 1 generalized: truncation underestimates. With all
    /// operands and the accumulator non-negative, every Volta RZ step
    /// rounds down (and FTZ only moves toward zero), so Volta can never
    /// exceed Ampere's round-to-nearest of the exact sum.
    #[test]
    fn volta_truncation_never_overestimates_ampere(
        (a, b) in f16_tile(),
    ) {
        let abs = |v: F16| F16::from_f64_rn(v.to_f64().abs());
        let a: [F16; 256] = a.map(abs);
        let b: [F16; 128] = b.map(abs);
        let c0 = [0.0f32; 128];
        let volta = f16_mma(&a, &b, &c0, MmaGen::Volta);
        let ampere = f16_mma(&a, &b, &c0, MmaGen::Ampere);
        for (i, (v, r)) in volta.iter().zip(&ampere).enumerate() {
            prop_assert!(
                v <= r,
                "element {i}: Volta {v} ({:#010x}) > Ampere {r} ({:#010x})",
                v.to_bits(), r.to_bits()
            );
        }
    }

    /// Behavior 2 generalized: any single power-of-two product landing in
    /// the f32 subnormal range is flushed by Volta and kept exactly by
    /// Ampere (bf16 reaches these exponents; f16 cannot).
    #[test]
    fn volta_flushes_any_subnormal_product_ampere_keeps_it(
        (e1, e2) in (-90i32..-40).prop_flat_map(|e1| {
            // Pick e2 so the product exponent lands in the f32
            // subnormal band [-148, -127].
            ((-148 - e1)..(-126 - e1)).prop_map(move |e2| (e1, e2))
        }),
        lane in 0usize..8,
    ) {
        let mut a = [Bf16::from_f64_rn(0.0); 256];
        let mut b = [Bf16::from_f64_rn(0.0); 128];
        // Product lands at output element (0, lane).
        a[0] = Bf16::from_f64_rn((e1 as f64).exp2());
        b[lane] = Bf16::from_f64_rn((e2 as f64).exp2());
        let volta = bf16_mma(&a, &b, MmaGen::Volta)[lane];
        let ampere = bf16_mma(&a, &b, MmaGen::Ampere)[lane];
        prop_assert_eq!(volta.to_bits(), 0u32);
        prop_assert!(ampere.is_subnormal());
        prop_assert_eq!(ampere as f64, ((e1 + e2) as f64).exp2());
    }

    /// Behavior 4 generalized: a lone product rounds per the generation's
    /// mode — `RN(a·b)` on Ampere, `FTZ(RZ(a·b))` on Volta — computed
    /// here against independent IEEE-754 round-to-format oracles (the
    /// product of two f16 values is always exact in f64).
    #[test]
    fn single_products_round_per_generation(x in f16_val(), y in f16_val()) {
        let prod = x.to_f64() * y.to_f64();
        let (a, b) = probe_f16(&[x.to_f64()], &[y.to_f64()]);
        let c0 = [0.0f32; 128];
        let ampere = f16_mma(&a, &b, &c0, MmaGen::Ampere)[0];
        let volta = f16_mma(&a, &b, &c0, MmaGen::Volta)[0];
        if prod == 0.0 {
            // A ±0 product accumulates by IEEE zero-sign addition rules
            // (+0 + -0 = +0), not by the sign of the product itself.
            prop_assert_eq!(ampere, 0.0);
            prop_assert_eq!(volta, 0.0);
        } else {
            // f64 → f32 casts round to nearest-even and the product is
            // exact, so the cast IS the correctly-rounded oracle.
            prop_assert_eq!(ampere.to_bits(), (prod as f32).to_bits());
            let rz = round_to_format(prod, 24, -126, 127, Round::Zero) as f32;
            prop_assert_eq!(volta.to_bits(), ftz_f32(rz).to_bits());
        }
    }

    /// Quantization properties shared by all three operand formats:
    /// idempotent, sign-symmetric, monotone, and exact on representable
    /// values (here: the format's own outputs).
    #[test]
    fn quantization_is_idempotent_and_monotone(
        v in prop_oneof![-60000.0..60000.0f64, -1.0..1.0f64, -1e-6..1e-6f64],
        w in prop_oneof![-60000.0..60000.0f64, -1.0..1.0f64],
    ) {
        for p in [Precision::F16, Precision::Bf16, Precision::Tf32] {
            let q = p.quantize(v);
            prop_assert_eq!(p.quantize(q), q, "idempotence for {:?}", p);
            prop_assert_eq!(p.quantize(-v), -q, "sign symmetry for {:?}", p);
            let (lo, hi) = if v <= w { (v, w) } else { (w, v) };
            prop_assert!(
                p.quantize(lo) <= p.quantize(hi),
                "monotonicity for {:?}: q({lo}) > q({hi})", p
            );
        }
    }
}
