//! Structural feature extraction for the PCA coverage study (Figure 10).
//!
//! The paper standardizes "sparsity, row and column degree statistics, and
//! block structures" before applying PCA to the SuiteSparse collection.
//! [`MatrixFeatures`] computes exactly that family of descriptors.

use crate::csr::Csr;
use crate::mbsr;

/// Names of the feature dimensions, in [`MatrixFeatures::to_vec`] order.
pub const FEATURE_NAMES: [&str; 10] = [
    "log_rows",
    "log_nnz",
    "log_density",
    "row_mean",
    "row_cv",
    "row_max_ratio",
    "col_cv",
    "bandwidth_ratio",
    "diag_fraction",
    "block_fill",
];

/// Structural features of a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixFeatures {
    /// `ln(rows)`.
    pub log_rows: f64,
    /// `ln(nnz)`.
    pub log_nnz: f64,
    /// `ln(nnz / (rows·cols))`.
    pub log_density: f64,
    /// Mean nonzeros per row.
    pub row_mean: f64,
    /// Coefficient of variation of row lengths (std/mean).
    pub row_cv: f64,
    /// Max row length divided by the mean.
    pub row_max_ratio: f64,
    /// Coefficient of variation of column degrees.
    pub col_cv: f64,
    /// Mean |col − row| distance normalized by the matrix dimension.
    pub bandwidth_ratio: f64,
    /// Fraction of rows with an explicit diagonal entry.
    pub diag_fraction: f64,
    /// Fill ratio of the occupied 4×4 blocks (mBSR fill efficiency).
    pub block_fill: f64,
}

impl MatrixFeatures {
    /// Extract features from a CSR matrix.
    pub fn of(m: &Csr) -> Self {
        assert!(m.rows > 0 && m.nnz() > 0, "features need a nonempty matrix");
        let rows = m.rows as f64;
        let nnz = m.nnz() as f64;

        let mut row_sum = 0.0f64;
        let mut row_sq = 0.0f64;
        let mut row_max = 0usize;
        let mut diag = 0usize;
        let mut band = 0.0f64;
        let mut col_deg = vec![0u32; m.cols];
        for r in 0..m.rows {
            let (cols, _) = m.row(r);
            let len = cols.len();
            row_sum += len as f64;
            row_sq += (len * len) as f64;
            row_max = row_max.max(len);
            for &c in cols {
                col_deg[c as usize] += 1;
                band += (c as f64 - r as f64).abs();
                if c as usize == r {
                    diag += 1;
                }
            }
        }
        let row_mean = row_sum / rows;
        let row_var = (row_sq / rows - row_mean * row_mean).max(0.0);
        let row_cv = if row_mean > 0.0 {
            row_var.sqrt() / row_mean
        } else {
            0.0
        };

        let cols_n = m.cols as f64;
        let col_mean = nnz / cols_n;
        let col_sq: f64 = col_deg.iter().map(|&d| (d as f64) * (d as f64)).sum();
        let col_var = (col_sq / cols_n - col_mean * col_mean).max(0.0);
        let col_cv = if col_mean > 0.0 {
            col_var.sqrt() / col_mean
        } else {
            0.0
        };

        let mut blocks = 0usize;
        mbsr::for_each_block(m, |_, _| blocks += 1);
        let block_fill = mbsr::fill_ratio(m.nnz(), blocks);

        Self {
            log_rows: rows.ln(),
            log_nnz: nnz.ln(),
            log_density: (nnz / (rows * cols_n)).ln(),
            row_mean,
            row_cv,
            row_max_ratio: row_max as f64 / row_mean.max(1e-12),
            col_cv,
            bandwidth_ratio: band / nnz / (m.cols.max(m.rows) as f64),
            diag_fraction: diag as f64 / rows,
            block_fill,
        }
    }

    /// Flatten into the PCA input ordering of [`FEATURE_NAMES`].
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.log_rows,
            self.log_nnz,
            self.log_density,
            self.row_mean,
            self.row_cv,
            self.row_max_ratio,
            self.col_cv,
            self.bandwidth_ratio,
            self.diag_fraction,
            self.block_fill,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::generators;

    fn diag_matrix(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        Csr::from_coo(coo)
    }

    #[test]
    fn diagonal_matrix_features() {
        let f = MatrixFeatures::of(&diag_matrix(64));
        assert!((f.row_mean - 1.0).abs() < 1e-12);
        assert!(f.row_cv.abs() < 1e-9);
        assert!((f.diag_fraction - 1.0).abs() < 1e-12);
        assert!(f.bandwidth_ratio.abs() < 1e-12);
        // A diagonal hits 4 of the 16 slots in each occupied 4×4 block.
        assert!((f.block_fill - 0.25).abs() < 1e-12);
    }

    #[test]
    fn feature_vector_matches_names() {
        let f = MatrixFeatures::of(&diag_matrix(16));
        assert_eq!(f.to_vec().len(), FEATURE_NAMES.len());
    }

    #[test]
    fn irregular_rows_raise_cv() {
        // One dense row in an otherwise diagonal matrix.
        let n = 128;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for j in 0..n {
            if j != 5 {
                coo.push(5, j, 1.0);
            }
        }
        let irregular = MatrixFeatures::of(&Csr::from_coo(coo));
        let regular = MatrixFeatures::of(&diag_matrix(n));
        assert!(irregular.row_cv > regular.row_cv + 0.5);
        assert!(irregular.row_max_ratio > 10.0);
    }

    #[test]
    fn qcd_generator_has_uniform_rows() {
        let f = MatrixFeatures::of(&generators::conf5_like(8));
        assert!(f.row_cv < 1e-9, "QCD rows must be perfectly uniform");
        assert!((f.row_mean - 39.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_generator_fills_blocks_better_than_random() {
        let fem = MatrixFeatures::of(&generators::raefsky3_like(8));
        let rnd = MatrixFeatures::of(&generators::random_sparse(2000, 2000, 16_000, 3));
        assert!(
            fem.block_fill > 2.0 * rnd.block_fill,
            "FEM fill {} vs random fill {}",
            fem.block_fill,
            rnd.block_fill
        );
    }
}
