//! Property-based tests of the sparse substrate.

use cubie_core::SplitMix64;
use cubie_sparse::{mbsr, Coo, Csr, MatrixFeatures, Mbsr};
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

/// Arbitrary tiny matrix with many triplets, so most cells hold three
/// or more entries and rows run past 20 entries.
fn arb_crowded_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..4, 1usize..6).prop_flat_map(|(r, c)| {
        let triplets = proptest::collection::vec((0..r, 0..c, -10.0..10.0f64), 0..120);
        (Just(r), Just(c), triplets)
    })
}

fn coo_of(r: usize, c: usize, t: &[(usize, usize, f64)]) -> Coo {
    let mut coo = Coo::new(r, c);
    for &(i, j, v) in t {
        coo.push(i, j, v);
    }
    coo
}

fn build(r: usize, c: usize, t: &[(usize, usize, f64)]) -> Csr {
    Csr::from_coo(coo_of(r, c, t))
}

/// The assembly `Csr::from_coo` replaced, kept as its oracle: sort an
/// index permutation by `(row, col)` with an unstable sort and sum
/// duplicates in the order the sort leaves them.
fn sort_dedup(coo: &mut Coo) {
    let n = coo.nnz();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (coo.row_idx[i as usize], coo.col_idx[i as usize]));
    let mut row = Vec::with_capacity(n);
    let mut col = Vec::with_capacity(n);
    let mut val: Vec<f64> = Vec::with_capacity(n);
    for &i in order.iter() {
        let (r, c, v) = (
            coo.row_idx[i as usize],
            coo.col_idx[i as usize],
            coo.vals[i as usize],
        );
        if let (Some(&lr), Some(&lc)) = (row.last(), col.last()) {
            if lr == r && lc == c {
                *val.last_mut().unwrap() += v;
                continue;
            }
        }
        row.push(r);
        col.push(c);
        val.push(v);
    }
    coo.row_idx = row;
    coo.col_idx = col;
    coo.vals = val;
}

/// The old `Csr::from_coo`: [`sort_dedup`], then a count of each row.
fn oracle_from_coo(mut coo: Coo) -> Csr {
    sort_dedup(&mut coo);
    let mut row_ptr = vec![0usize; coo.rows + 1];
    for &r in &coo.row_idx {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..coo.rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    Csr::from_parts(coo.rows, coo.cols, row_ptr, coo.col_idx, coo.vals)
}

/// Per cell of a row-major `r × c` grid: how many triplets it holds and
/// their sum, accumulated in push order from the first entry (`0.0` for
/// an empty cell).
fn insertion_sums(r: usize, c: usize, t: &[(usize, usize, f64)]) -> Vec<(usize, f64)> {
    let mut cells = vec![(0usize, 0.0f64); r * c];
    for &(i, j, v) in t {
        let (count, sum) = &mut cells[i * c + j];
        *sum = if *count == 0 { v } else { *sum + v };
        *count += 1;
    }
    cells
}

/// `Csr::from_coo` against the oracle: the same structure always, the
/// same value bits in every cell of at most two entries, and in every
/// cell the sum taken in push order.
fn assert_matches_oracle(r: usize, c: usize, t: &[(usize, usize, f64)]) {
    let m = build(r, c, t);
    let oracle = oracle_from_coo(coo_of(r, c, t));
    assert_eq!(m.row_ptr, oracle.row_ptr, "row_ptr");
    assert_eq!(m.col_idx, oracle.col_idx, "col_idx");
    assert_eq!(m.vals.len(), m.col_idx.len());
    let cells = insertion_sums(r, c, t);
    for row in 0..r {
        let (cols, vals) = m.row(row);
        let (_, oracle_vals) = oracle.row(row);
        for ((&col, v), w) in cols.iter().zip(vals).zip(oracle_vals) {
            let (count, sum) = cells[row * c + col as usize];
            assert_eq!(v.to_bits(), sum.to_bits(), "({row},{col}): {count} entries");
            if count < 3 {
                assert_eq!(v.to_bits(), w.to_bits(), "({row},{col}) vs oracle");
            }
        }
    }
}

/// A deterministic stream of values whose sums depend on the order.
fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut g = SplitMix64::new(seed);
    (0..n).map(|_| (g.next_unit() - 0.5) * 1e3).collect()
}

#[test]
fn empty_matrices_build() {
    assert_matches_oracle(0, 0, &[]);
    assert_matches_oracle(3, 4, &[]);
    assert_eq!(build(3, 4, &[]), Csr::empty(3, 4));
}

#[test]
fn empty_rows_keep_their_row_pointers() {
    let t = [(3, 1, 1.0), (1, 4, 2.0), (3, 0, 3.0), (1, 0, 4.0)];
    assert_matches_oracle(5, 5, &t);
    assert_eq!(build(5, 5, &t).row_ptr, vec![0, 0, 2, 2, 4, 4]);
}

#[test]
fn one_cell_with_many_duplicates_sums_in_push_order() {
    let t: Vec<_> = values(50, 3).into_iter().map(|v| (1, 2, v)).collect();
    assert_matches_oracle(3, 3, &t);
    let m = build(3, 3, &t);
    assert_eq!(m.row_ptr, vec![0, 0, 1, 1]);
    let serial = t.iter().skip(1).fold(t[0].2, |acc, e| acc + e.2);
    assert_eq!(m.vals[0].to_bits(), serial.to_bits());
}

/// A hub row of 200 entries over 16 columns, past the 20 entries below
/// which the standard sorts fall back to insertion sort.
#[test]
fn a_hub_row_with_duplicates_sums_in_push_order() {
    let mut g = SplitMix64::new(11);
    let mut t: Vec<_> = values(200, 5)
        .into_iter()
        .map(|v| (2, g.next_range(16) as usize, v))
        .collect();
    t.extend([(0, 3, 1.0), (4, 15, 2.0), (2, 7, 3.0)]);
    assert_matches_oracle(5, 16, &t);
    assert_eq!(build(5, 16, &t).row_nnz(2), 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction produces sorted, in-bound rows whose values sum
    /// duplicates in push order, bit for bit.
    #[test]
    fn csr_matches_dense_accumulation((r, c, t) in arb_matrix()) {
        let m = build(r, c, &t);
        let got = m.to_dense();
        for (g, (_, sum)) in got.iter().zip(insertion_sums(r, c, &t)) {
            prop_assert_eq!(g.to_bits(), sum.to_bits());
        }
        for row in 0..r {
            let (cols, _) = m.row(row);
            for w in cols.windows(2) {
                prop_assert!(w[0] < w[1], "row {row} not strictly sorted");
            }
        }
    }

    /// The counting build against the comparison-sort oracle.
    #[test]
    fn from_coo_matches_the_sort_dedup_oracle(
        (r, c, t) in prop_oneof![arb_matrix(), arb_crowded_matrix()]
    ) {
        assert_matches_oracle(r, c, &t);
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
}
