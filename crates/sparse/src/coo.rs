//! Coordinate (triplet) sparse storage — the assembly format produced by
//! the generators and the MatrixMarket reader.

use serde::{Deserialize, Serialize};

/// A sparse matrix as `(row, col, value)` triplets.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Coo {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row indices.
    pub row_idx: Vec<u32>,
    /// Column indices.
    pub col_idx: Vec<u32>,
    /// Values.
    pub vals: Vec<f64>,
}

impl Coo {
    /// An empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            ..Default::default()
        }
    }

    /// An empty matrix with room for `cap` entries. Assembly loops that
    /// know their entry count up front avoid the doubling reallocations
    /// of growing the three triplet vectors from zero.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self {
            rows,
            cols,
            row_idx: Vec::with_capacity(cap),
            col_idx: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of stored entries (before deduplication).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Panics (debug) if indices are out of bounds.
    #[inline]
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.row_idx.push(r as u32);
        self.col_idx.push(c as u32);
        self.vals.push(v);
    }

    /// Sort entries by `(row, col)` and sum duplicates.
    pub fn sort_dedup(&mut self) {
        let n = self.nnz();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (self.row_idx[i as usize], self.col_idx[i as usize]));
        let mut row = Vec::with_capacity(n);
        let mut col = Vec::with_capacity(n);
        let mut val: Vec<f64> = Vec::with_capacity(n);
        for &i in order.iter() {
            let (r, c, v) = (
                self.row_idx[i as usize],
                self.col_idx[i as usize],
                self.vals[i as usize],
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
        self.row_idx = row;
        self.col_idx = col;
        self.vals = val;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(2, 1, -2.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn sort_dedup_sums_duplicates() {
        let mut m = Coo::new(2, 2);
        m.push(1, 1, 1.0);
        m.push(0, 0, 2.0);
        m.push(1, 1, 3.0);
        m.sort_dedup();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_idx, vec![0, 1]);
        assert_eq!(m.vals, vec![2.0, 4.0]);
    }

    #[test]
    fn sort_orders_by_row_then_col() {
        let mut m = Coo::new(2, 3);
        m.push(1, 0, 1.0);
        m.push(0, 2, 2.0);
        m.push(0, 1, 3.0);
        m.sort_dedup();
        assert_eq!(m.row_idx, vec![0, 0, 1]);
        assert_eq!(m.col_idx, vec![1, 2, 0]);
    }
}
