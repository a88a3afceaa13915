//! Property-based tests of the sparse substrate.

use cubie_core::SplitMix64;
use cubie_sparse::{mbsr, mm_io, Coo, Csr, MatrixFeatures, Mbsr};
use proptest::prelude::*;

/// Arbitrary small sparse matrix as (rows, cols, triplets).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..40, 1usize..40).prop_flat_map(|(r, c)| {
        let triplets = proptest::collection::vec(
            (0..r, 0..c, -10.0..10.0f64).prop_map(|(i, j, v)| (i, j, v)),
            0..200,
        );
        (Just(r), Just(c), triplets)
    })
}

fn build(r: usize, c: usize, t: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(r, c);
    for &(i, j, v) in t {
        coo.push(i, j, v);
    }
    Csr::from_coo(coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction produces sorted, in-bound rows whose values sum
    /// duplicates (validated against a dense accumulation).
    #[test]
    fn csr_matches_dense_accumulation((r, c, t) in arb_matrix()) {
        let m = build(r, c, &t);
        let mut dense = vec![0.0f64; r * c];
        for &(i, j, v) in &t {
            dense[i * c + j] += v;
        }
        let got = m.to_dense();
        for (g, d) in got.iter().zip(&dense) {
            prop_assert!((g - d).abs() < 1e-9);
        }
        for row in 0..r {
            let (cols, _) = m.row(row);
            for w in cols.windows(2) {
                prop_assert!(w[0] < w[1], "row {row} not strictly sorted");
            }
        }
    }

    /// SpMV against the dense mat-vec.
    #[test]
    fn spmv_matches_dense((r, c, t) in arb_matrix(), seed in 0u64..1000) {
        let m = build(r, c, &t);
        let mut g = SplitMix64::new(seed);
        let x: Vec<f64> = (0..c).map(|_| g.next_unit() * 2.0 - 1.0).collect();
        let y = m.spmv_naive(&x);
        let dense = m.to_dense();
        for i in 0..r {
            let mut acc = 0.0f64;
            for j in 0..c {
                acc += dense[i * c + j] * x[j];
            }
            prop_assert!((y[i] - acc).abs() < 1e-9, "row {i}");
        }
    }

    /// Transpose is an involution and preserves nnz.
    #[test]
    fn transpose_involution((r, c, t) in arb_matrix()) {
        let m = build(r, c, &t);
        let tt = m.transpose().transpose();
        prop_assert_eq!(tt, m);
    }

    /// SpGEMM against the dense product.
    #[test]
    fn spgemm_matches_dense((r, c, t) in arb_matrix(), (c2, t2) in (1usize..20, proptest::collection::vec((0usize..40, 0usize..20, -4.0..4.0f64), 0..100))) {
        let a = build(r, c, &t);
        let b = build(
            c,
            c2,
            &t2.iter()
                .filter(|(i, j, _)| *i < c && *j < c2)
                .map(|&(i, j, v)| (i, j, v))
                .collect::<Vec<_>>(),
        );
        let p = a.spgemm_naive(&b);
        let (da, db, dp) = (a.to_dense(), b.to_dense(), p.to_dense());
        for i in 0..r {
            for j in 0..c2 {
                let mut acc = 0.0f64;
                for k in 0..c {
                    acc += da[i * c + k] * db[k * c2 + j];
                }
                prop_assert!((dp[i * c2 + j] - acc).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    /// mBSR tiling round-trips exactly.
    #[test]
    fn mbsr_roundtrip((r, c, t) in arb_matrix()) {
        let m = build(r, c, &t);
        let blocked = Mbsr::from_csr(&m);
        prop_assert_eq!(blocked.to_csr(), m);
    }

    /// The stamped block pattern visits exactly the blocks of the built
    /// mBSR, each once, and the features' block fill equals its fill bit
    /// for bit.
    #[test]
    fn block_pattern_matches_mbsr((r, c, t) in arb_matrix()) {
        let m = build(r, c, &t);
        let blocked = Mbsr::from_csr(&m);
        let mut rows = vec![Vec::new(); blocked.block_rows];
        mbsr::for_each_block(&m, |br, bc| rows[br].push(bc));
        for (br, cols) in rows.iter_mut().enumerate() {
            cols.sort_unstable();
            prop_assert_eq!(&cols[..], blocked.block_row(br).0, "block row {}", br);
        }
        if m.nnz() > 0 {
            prop_assert_eq!(
                MatrixFeatures::of(&m).block_fill.to_bits(),
                blocked.fill_ratio(m.nnz()).to_bits()
            );
        }
    }

    /// MatrixMarket write/read round-trips exactly (bit-precise values
    /// via the %.17e format).
    #[test]
    fn matrix_market_roundtrip((r, c, t) in arb_matrix()) {
        let m = build(r, c, &t);
        let mut buf = Vec::new();
        mm_io::write_matrix(&m, &mut buf).unwrap();
        let back = mm_io::read_matrix(buf.as_slice()).unwrap();
        prop_assert_eq!(back, m);
    }
}
