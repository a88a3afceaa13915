//! Property-based tests of the MMU emulation and core utilities.

use cubie_core::counters::{MemTraffic, MMA_F64_FLOPS};
use cubie_core::mma::{mma_f64_8x8x8, mma_f64_m8n8k4};
use cubie_core::{ErrorStats, OpCounters};
use proptest::prelude::*;

fn finite_val() -> impl Strategy<Value = f64> {
    prop_oneof![-2.0..2.0f64, -1e6..1e6f64, Just(0.0), Just(1.0), Just(-1.0),]
}

fn arr32() -> impl Strategy<Value = [f64; 32]> {
    proptest::collection::vec(finite_val(), 32).prop_map(|v| {
        let mut a = [0.0f64; 32];
        a.copy_from_slice(&v);
        a
    })
}

fn arr64() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(finite_val(), 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MMA result matches a naive double-precision matmul closely
    /// (same operation, different rounding grouping) for arbitrary
    /// fragments.
    #[test]
    fn mma_matches_naive_matmul(a in arr32(), b in arr32(), c0 in arr64()) {
        let mut c = [0.0f64; 64];
        c.copy_from_slice(&c0);
        let mut ctr = OpCounters::new();
        mma_f64_m8n8k4(&a, &b, &mut c, &mut ctr);
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = c0[i * 8 + j];
                for k in 0..4 {
                    acc += a[i * 4 + k] * b[k * 8 + j];
                }
                let scale = acc.abs().max(1.0);
                prop_assert!(
                    (c[i * 8 + j] - acc).abs() <= 1e-12 * scale,
                    "({i},{j}): {} vs {}", c[i * 8 + j], acc
                );
            }
        }
        prop_assert_eq!(ctr.mma_f64, 1);
    }

    /// Logical 8×8×8 MMA == two chained m8n8k4 on its packed k-halves.
    #[test]
    fn logical_8x8x8_consistent(a in arr64(), b in arr64(), c0 in arr64()) {
        let mut aa = [0.0f64; 64];
        let mut bb = [0.0f64; 64];
        aa.copy_from_slice(&a);
        bb.copy_from_slice(&b);
        let mut c1 = [0.0f64; 64];
        let mut c2 = [0.0f64; 64];
        c1.copy_from_slice(&c0);
        c2.copy_from_slice(&c0);
        let mut k1 = OpCounters::new();
        let mut k2 = OpCounters::new();
        mma_f64_8x8x8(&aa, &bb, &mut c1, &mut k1);
        for h in 0..2 {
            let at: [f64; 32] = std::array::from_fn(|e| aa[(e / 4) * 8 + 4 * h + e % 4]);
            let bt: [f64; 32] = std::array::from_fn(|e| bb[32 * h + e]);
            mma_f64_m8n8k4(&at, &bt, &mut c2, &mut k2);
        }
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(k1.mma_f64, 2);
        prop_assert_eq!(k2.mma_f64, 2);
    }

    /// Counter algebra: scaled(k) == k-fold sum; flops decompose.
    #[test]
    fn counter_algebra(
        mma in 0u64..1000,
        fma in 0u64..1000,
        bytes in 0u64..100_000,
        k in 1u64..8,
    ) {
        let c = OpCounters {
            mma_f64: mma,
            fma_f64: fma,
            gmem_load: MemTraffic::strided(bytes),
            ..Default::default()
        };
        let mut acc = OpCounters::default();
        for _ in 0..k {
            acc += c;
        }
        prop_assert_eq!(acc, c.scaled(k));
        prop_assert_eq!(c.flops_f64(), mma * MMA_F64_FLOPS + 2 * fma);
    }

    /// ErrorStats merge behaves like concatenation.
    #[test]
    fn error_merge_is_concatenation(
        xs in proptest::collection::vec(-1e3..1e3f64, 1..40),
        ys in proptest::collection::vec(-1e3..1e3f64, 1..40),
    ) {
        let zx = vec![0.0; xs.len()];
        let zy = vec![0.0; ys.len()];
        let ex = ErrorStats::compare(&xs, &zx);
        let ey = ErrorStats::compare(&ys, &zy);
        let merged = ex.merge(ey);
        let mut all = xs.clone();
        all.extend(&ys);
        let zall = vec![0.0; all.len()];
        let direct = ErrorStats::compare(&all, &zall);
        prop_assert!((merged.avg - direct.avg).abs() < 1e-12);
        prop_assert_eq!(merged.max, direct.max);
        prop_assert_eq!(merged.n, direct.n);
    }

    /// The LINPACK LCG always stays inside (-2, 2) and is deterministic.
    #[test]
    fn lcg_bounded_and_deterministic(seed in 0u64..u32::MAX as u64) {
        let mut a = cubie_core::LcgF64::new(seed);
        let mut b = cubie_core::LcgF64::new(seed);
        for _ in 0..100 {
            let v = a.next_f64();
            prop_assert!(v > -2.0 && v < 2.0);
            prop_assert_eq!(v, b.next_f64());
        }
    }
}
