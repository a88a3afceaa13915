//! Compressed sparse row storage and the serial reference kernels that
//! serve as the paper's CPU ground truth (Section 8: "a naive CPU serial
//! implementation (e.g., CSR-based SpMV)").

use std::fmt;
use std::sync::OnceLock;

use crate::coo::Coo;
use crate::mbsr::SquareStructure;

/// A CSR sparse matrix.
///
/// Generated matrices and matrices loaded from the prepared-input
/// snapshot store are built the same way, as plain `Vec`s, so every
/// kernel sees identical data either way.
///
/// The matrix also carries a memo of its [`SquareStructure`] (see
/// [`Csr::square_structure`]). It is derived data: a clone starts with
/// an empty memo, and equality and `Debug` ignore it.
pub struct Csr {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointer array, length `rows + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices, length `nnz`.
    pub col_idx: Vec<u32>,
    /// Values, length `nnz`.
    pub vals: Vec<f64>,
    /// Invariant: `rows`, `cols`, `row_ptr` and `col_idx` are not written
    /// after construction, which nothing in the workspace does. Every
    /// constructor and `clone` start the memo empty.
    square_memo: OnceLock<SquareStructure>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.clone(),
            square_memo: OnceLock::new(),
        }
    }
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals == other.vals
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_ptr", &self.row_ptr)
            .field("col_idx", &self.col_idx)
            .field("vals", &self.vals)
            .finish_non_exhaustive()
    }
}

impl Csr {
    /// An empty matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
            square_memo: OnceLock::new(),
        }
    }

    /// Assemble from already-built CSR arrays (the snapshot-store load
    /// path).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length mismatch");
        assert_eq!(col_idx.len(), vals.len(), "col_idx/vals length mismatch");
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
            square_memo: OnceLock::new(),
        }
    }

    /// Build from COO triplets.
    ///
    /// The triplets may come in any order. Each row comes out sorted by
    /// column, and entries that share a `(row, col)` cell are summed in
    /// the order they were pushed. The build counts entries per row,
    /// scatters each into its row's bucket in push order and sorts every
    /// row stably by column; nothing sorts the triplets as a whole.
    ///
    /// # Panics
    /// Panics, naming the entry, if any row or column index lies outside
    /// the matrix.
    pub fn from_coo(coo: Coo) -> Self {
        let Coo {
            rows,
            cols,
            row_idx,
            col_idx: coo_cols,
            vals: coo_vals,
        } = coo;
        let mut row_ptr = vec![0usize; rows + 1];
        for (i, (&r, &c)) in row_idx.iter().zip(&coo_cols).enumerate() {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "entry {i} ({r}, {c}) lies outside the {rows}x{cols} matrix"
            );
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr[..rows].to_vec();
        let mut bucket = vec![(0u32, 0.0f64); row_ptr[rows]];
        for ((&r, &c), &v) in row_idx.iter().zip(&coo_cols).zip(&coo_vals) {
            bucket[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        }
        // Free the triplets before the output arrays are allocated.
        drop((row_idx, coo_cols, coo_vals));
        // Sort each row, then append its distinct columns, summing each
        // run of equal columns in push order; `row_ptr[r]` is rewritten
        // once row `r` is read.
        let mut col_idx = Vec::with_capacity(bucket.len());
        let mut vals = Vec::with_capacity(bucket.len());
        for r in 0..rows {
            let row = &mut bucket[row_ptr[r]..row_ptr[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            let start = col_idx.len();
            row_ptr[r] = start;
            for &(c, v) in row.iter() {
                let n = col_idx.len();
                if n > start && col_idx[n - 1] == c {
                    vals[n - 1] += v;
                } else {
                    col_idx.push(c);
                    vals.push(v);
                }
            }
        }
        row_ptr[rows] = col_idx.len();
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
            square_memo: OnceLock::new(),
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Nonzero count of row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[s..e], &self.vals[s..e])
    }

    /// The structure of `self·self` ([`SquareStructure::of`]), counted
    /// on first use and memoised, so every SpGEMM trace of the matrix
    /// shares one count; concurrent callers wait for it rather than
    /// counting again.
    pub fn square_structure(&self) -> SquareStructure {
        *self.square_memo.get_or_init(|| SquareStructure::of(self))
    }

    /// Serial CSR SpMV — the CPU ground truth: per row, ascending-column
    /// accumulation with separate multiply and add.
    pub fn spmv_naive(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0f64; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0f64;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            *yr = acc;
        }
        y
    }

    /// Serial row-wise SpGEMM (`C = A · B`) — the CPU ground truth for
    /// the SpGEMM workload. Uses a dense accumulator per row and writes
    /// each row's columns in sorted order, zeros included.
    pub fn spgemm_naive(&self, b: &Csr) -> Csr {
        assert_eq!(self.cols, b.rows, "inner dimensions must agree");
        let mut acc = vec![0.0f64; b.cols];
        let mut touched: Vec<u32> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for r in 0..self.rows {
            touched.clear();
            let (acols, avals) = self.row(r);
            for (ac, av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(*ac as usize);
                for (bc, bv) in bcols.iter().zip(bvals) {
                    if acc[*bc as usize] == 0.0 && !touched.contains(bc) {
                        touched.push(*bc);
                    }
                    acc[*bc as usize] += av * bv;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                col_idx.push(c);
                vals.push(acc[c as usize]);
                acc[c as usize] = 0.0;
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts(self.rows, b.cols, row_ptr, col_idx, vals)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr {
        let mut coo = Coo::new(self.cols, self.rows);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(*c as usize, r, *v);
            }
        }
        Csr::from_coo(coo)
    }

    /// Dense row-major expansion (for small test matrices).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d[r * self.cols + *c as usize] = *v;
            }
        }
        d
    }

    /// Average nonzeros per row.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        Csr::from_coo(coo)
    }

    #[test]
    fn from_coo_builds_row_ptr() {
        let m = small();
        assert_eq!(m.row_ptr, vec![0, 2, 3, 5]);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_nnz(0), 2);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = Coo::new(2, 2);
        coo.push(1, 1, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        let m = Csr::from_coo(coo);
        assert_eq!(m.row_ptr, vec![0, 1, 2]);
        assert_eq!(m.vals, vec![2.0, 4.0]);
    }

    #[test]
    fn from_coo_orders_by_row_then_col() {
        let mut coo = Coo::new(2, 3);
        coo.push(1, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(0, 1, 3.0);
        let m = Csr::from_coo(coo);
        assert_eq!(m.row_ptr, vec![0, 2, 3]);
        assert_eq!(m.col_idx, vec![1, 2, 0]);
        assert_eq!(m.vals, vec![3.0, 2.0, 1.0]);
    }

    /// Triplets with the given indices, built past `Coo::push`'s
    /// debug-only bounds check.
    fn raw_coo(rows: usize, cols: usize, entries: &[(u32, u32)]) -> Coo {
        Coo {
            rows,
            cols,
            row_idx: entries.iter().map(|e| e.0).collect(),
            col_idx: entries.iter().map(|e| e.1).collect(),
            vals: vec![1.0; entries.len()],
        }
    }

    #[test]
    #[should_panic(expected = "entry 1 (3, 0) lies outside the 3x2 matrix")]
    fn from_coo_rejects_a_row_outside_the_matrix() {
        Csr::from_coo(raw_coo(3, 2, &[(0, 0), (3, 0)]));
    }

    #[test]
    #[should_panic(expected = "entry 2 (1, 2) lies outside the 3x2 matrix")]
    fn from_coo_rejects_a_column_outside_the_matrix() {
        Csr::from_coo(raw_coo(3, 2, &[(0, 0), (2, 1), (1, 2)]));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = small();
        let x = vec![1.0, 2.0, 3.0];
        let y = m.spmv_naive(&x);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn spgemm_identity() {
        let m = small();
        let mut id = Coo::new(3, 3);
        for i in 0..3 {
            id.push(i, i, 1.0);
        }
        let id = Csr::from_coo(id);
        let p = m.spgemm_naive(&id);
        assert_eq!(p.to_dense(), m.to_dense());
    }

    #[test]
    fn spgemm_matches_dense_product() {
        let a = small();
        let b = a.transpose();
        let p = a.spgemm_naive(&b);
        // dense check
        let (da, db) = (a.to_dense(), b.to_dense());
        let mut expect = vec![0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    expect[i * 3 + j] += da[i * 3 + k] * db[k * 3 + j];
                }
            }
        }
        let got = p.to_dense();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn square_structure_is_memoised_and_a_clone_starts_empty() {
        let m = small();
        let counted = m.square_structure();
        assert_eq!(m.square_memo.get(), Some(&counted));
        let c = m.clone();
        assert!(c.square_memo.get().is_none());
        // Equality and `Debug` ignore the memo's state.
        assert_eq!(c, m);
        assert_eq!(format!("{m:?}"), format!("{:?}", small()));
        assert_eq!(c.square_structure(), counted);
    }

    #[test]
    fn empty_matrix_spmv() {
        let m = Csr::empty(4, 4);
        let y = m.spmv_naive(&[1.0; 4]);
        assert_eq!(y, vec![0.0; 4]);
    }
}
