//! The mBSR (modified block sparse row) format used by the AmgT SpGEMM
//! kernel: the matrix is tiled into dense 4×4 blocks; nonempty blocks are
//! stored contiguously per block row. Two vertically adjacent 4×4 blocks
//! combine into one 8×4 MMA `A`-operand tile (Section 3, SpGEMM).

use serde::{Deserialize, Serialize};

use crate::csr::Csr;

/// Block edge length (4, fixed by the `m8n8k4` operand shape).
pub const BLOCK: usize = 4;

/// A sparse matrix of dense 4×4 blocks in block-CSR layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mbsr {
    /// Rows of the underlying scalar matrix.
    pub rows: usize,
    /// Columns of the underlying scalar matrix.
    pub cols: usize,
    /// Number of block rows (`ceil(rows / 4)`).
    pub block_rows: usize,
    /// Number of block columns (`ceil(cols / 4)`).
    pub block_cols: usize,
    /// Block-row pointer, length `block_rows + 1`.
    pub row_ptr: Vec<usize>,
    /// Block column indices.
    pub col_idx: Vec<u32>,
    /// Dense 4×4 blocks, row-major within each block.
    pub blocks: Vec<[f64; BLOCK * BLOCK]>,
}

impl Mbsr {
    /// Tile a CSR matrix into mBSR.
    pub fn from_csr(m: &Csr) -> Self {
        let block_rows = m.rows.div_ceil(BLOCK);
        let block_cols = m.cols.div_ceil(BLOCK);
        let mut row_ptr = vec![0usize; block_rows + 1];
        let mut col_idx = Vec::new();
        let mut blocks: Vec<[f64; BLOCK * BLOCK]> = Vec::new();

        // Per block row: gather the scalar rows, bucket by block column.
        let mut marker = vec![-1i64; block_cols];
        let mut order: Vec<usize> = Vec::new();
        let mut sorted_cols: Vec<u32> = Vec::new();
        let mut sorted_blocks: Vec<[f64; BLOCK * BLOCK]> = Vec::new();
        for br in 0..block_rows {
            let start = col_idx.len();
            for r in br * BLOCK..((br + 1) * BLOCK).min(m.rows) {
                let (cols, vals) = m.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    let bc = *c as usize / BLOCK;
                    let slot = if marker[bc] >= 0 && (marker[bc] as usize) >= start {
                        marker[bc] as usize
                    } else {
                        marker[bc] = col_idx.len() as i64;
                        col_idx.push(bc as u32);
                        blocks.push([0.0; BLOCK * BLOCK]);
                        col_idx.len() - 1
                    };
                    let lr = r - br * BLOCK;
                    let lc = *c as usize - bc * BLOCK;
                    blocks[slot][lr * BLOCK + lc] = *v;
                }
            }
            // Sort this block row's entries by block column for
            // deterministic layout.
            order.clear();
            order.extend(start..col_idx.len());
            order.sort_unstable_by_key(|&i| col_idx[i]);
            sorted_cols.clear();
            sorted_cols.extend(order.iter().map(|&i| col_idx[i]));
            sorted_blocks.clear();
            sorted_blocks.extend(order.iter().map(|&i| blocks[i]));
            col_idx[start..].copy_from_slice(&sorted_cols);
            blocks[start..].copy_from_slice(&sorted_blocks);
            for bc in sorted_cols.iter() {
                marker[*bc as usize] = -1;
            }
            row_ptr[br + 1] = col_idx.len();
        }
        Self {
            rows: m.rows,
            cols: m.cols,
            block_rows,
            block_cols,
            row_ptr,
            col_idx,
            blocks,
        }
    }

    /// Number of stored 4×4 blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Fraction of stored block slots holding an actual nonzero — the
    /// fill efficiency of the blocked representation.
    pub fn fill_ratio(&self, scalar_nnz: usize) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        scalar_nnz as f64 / (self.nnz_blocks() * BLOCK * BLOCK) as f64
    }

    /// Expand back to CSR (drops explicit zeros inside blocks).
    pub fn to_csr(&self) -> Csr {
        let mut coo = crate::coo::Coo::new(self.rows, self.cols);
        for br in 0..self.block_rows {
            for i in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.col_idx[i] as usize;
                let blk = &self.blocks[i];
                for lr in 0..BLOCK {
                    for lc in 0..BLOCK {
                        let v = blk[lr * BLOCK + lc];
                        if v != 0.0 {
                            let (r, c) = (br * BLOCK + lr, bc * BLOCK + lc);
                            if r < self.rows && c < self.cols {
                                coo.push(r, c, v);
                            }
                        }
                    }
                }
            }
        }
        Csr::from_coo(coo)
    }

    /// Block-row entry range.
    pub fn block_row(&self, br: usize) -> (&[u32], &[[f64; BLOCK * BLOCK]]) {
        let (s, e) = (self.row_ptr[br], self.row_ptr[br + 1]);
        (&self.col_idx[s..e], &self.blocks[s..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use cubie_core::SplitMix64;

    fn random_csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
        let mut g = SplitMix64::new(seed);
        let mut coo = Coo::new(rows, cols);
        for _ in 0..nnz {
            coo.push(
                g.next_range(rows as u64) as usize,
                g.next_range(cols as u64) as usize,
                g.next_unit() * 2.0 - 1.0,
            );
        }
        Csr::from_coo(coo)
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = random_csr(37, 29, 200, 1);
        let b = Mbsr::from_csr(&m);
        assert_eq!(b.to_csr(), m);
    }

    #[test]
    fn block_dims_round_up() {
        let m = random_csr(9, 5, 10, 2);
        let b = Mbsr::from_csr(&m);
        assert_eq!(b.block_rows, 3);
        assert_eq!(b.block_cols, 2);
    }

    #[test]
    fn dense_diagonal_packs_tightly() {
        let mut coo = Coo::new(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                if (i / 4) == (j / 4) {
                    coo.push(i, j, 1.0);
                }
            }
        }
        let m = Csr::from_coo(coo);
        let b = Mbsr::from_csr(&m);
        assert_eq!(b.nnz_blocks(), 2);
        assert!((b.fill_ratio(m.nnz()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_nonzeros_fill_poorly() {
        // One nonzero per 4x4 block → fill ratio 1/16.
        let mut coo = Coo::new(16, 16);
        for bi in 0..4 {
            for bj in 0..4 {
                coo.push(bi * 4, bj * 4, 1.0);
            }
        }
        let m = Csr::from_coo(coo);
        let b = Mbsr::from_csr(&m);
        assert_eq!(b.nnz_blocks(), 16);
        assert!((b.fill_ratio(m.nnz()) - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn block_rows_sorted_by_column() {
        let m = random_csr(64, 64, 500, 3);
        let b = Mbsr::from_csr(&m);
        for br in 0..b.block_rows {
            let (cols, _) = b.block_row(br);
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "block row {br} not sorted");
            }
        }
    }
}
