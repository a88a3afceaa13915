//! Small row-major dense matrix container shared by the workloads and
//! analysis code.

use crate::rng::LcgF64;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Fill with LINPACK-style pseudo-random values in `(-2, 2)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut g = LcgF64::new(seed);
        Self {
            rows,
            cols,
            data: g.vec(rows * cols),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Naive serial matrix product — the CPU ground truth for GEMM-family
    /// accuracy comparisons (FMA-free, ascending-`k` accumulation).
    pub fn matmul_naive(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0.0f64;
                for k in 0..self.cols {
                    acc += self.get(i, k) * rhs.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Naive serial matrix–vector product (CPU ground truth for GEMV).
    pub fn matvec_naive(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = 0.0f64;
                for (k, &xk) in x.iter().enumerate() {
                    acc += self.get(i, k) * xk;
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let m = DenseMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::random(5, 7, 11);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = DenseMatrix::random(4, 4, 2);
        let id = DenseMatrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let p = m.matmul_naive(&id);
        for i in 0..4 {
            for j in 0..4 {
                assert!((p.get(i, j) - m.get(i, j)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = DenseMatrix::random(6, 3, 5);
        let x = vec![1.0, -2.0, 0.5];
        let bx = DenseMatrix::from_fn(3, 1, |i, _| x[i]);
        let y = a.matvec_naive(&x);
        let p = a.matmul_naive(&bx);
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - p.get(i, 0)).abs() < 1e-15);
        }
    }

    #[test]
    fn row_slice_is_contiguous() {
        let m = DenseMatrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }
}
