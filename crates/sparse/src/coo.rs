//! Coordinate (triplet) sparse storage — the assembly format produced by
//! the generators.

/// A sparse matrix as `(row, col, value)` triplets.
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Panics (debug) if indices are out of bounds; in every build,
    /// [`Csr::from_coo`](crate::Csr::from_coo) rejects such an entry.
    #[inline]
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.row_idx.push(r as u32);
        self.col_idx.push(c as u32);
        self.vals.push(v);
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
}
