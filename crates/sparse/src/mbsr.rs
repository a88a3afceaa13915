//! The mBSR (modified block sparse row) format used by the AmgT SpGEMM
//! kernel: the matrix is tiled into dense 4×4 blocks; nonempty blocks are
//! stored contiguously per block row. Two vertically adjacent 4×4 blocks
//! combine into one 8×4 MMA `A`-operand tile (Section 3, SpGEMM).

use crate::csr::Csr;

/// Block edge length (4, fixed by the `m8n8k4` operand shape).
pub const BLOCK: usize = 4;

/// A sparse matrix of dense 4×4 blocks in block-CSR layout.
#[derive(Debug, Clone, PartialEq)]
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
        fill_ratio(scalar_nnz, self.nnz_blocks())
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

/// Fraction of `blocks` 4×4 slots that `scalar_nnz` nonzeros fill (0 for
/// no blocks): [`Mbsr::fill_ratio`] without building the blocks.
pub fn fill_ratio(scalar_nnz: usize, blocks: usize) -> f64 {
    if blocks == 0 {
        return 0.0;
    }
    scalar_nnz as f64 / (blocks * BLOCK * BLOCK) as f64
}

/// Calls `visit(br, bc)` once per nonempty 4×4 block of `m`, block rows
/// ascending and each block row's columns in first-seen order: the block
/// pattern of [`Mbsr::from_csr`] without its values, sort or copies. A
/// block row's scalar rows are contiguous in the CSR, and one stamp per
/// block column, tagged with the block row, finds each block once.
pub fn for_each_block(m: &Csr, mut visit: impl FnMut(usize, u32)) {
    let mut stamp = vec![usize::MAX; m.cols.div_ceil(BLOCK)];
    for br in 0..m.rows.div_ceil(BLOCK) {
        let (lo, hi) = (
            m.row_ptr[br * BLOCK],
            m.row_ptr[((br + 1) * BLOCK).min(m.rows)],
        );
        for &c in &m.col_idx[lo..hi] {
            let bc = c as usize / BLOCK;
            if stamp[bc] != br {
                stamp[bc] = br;
                visit(br, bc as u32);
            }
        }
    }
}

/// The multiplication structure of `C = A·A`, counted from `A`'s
/// pattern alone: what the SpGEMM traces need, with no values moved.
/// [`Csr::square_structure`] memoises it on the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquareStructure {
    /// Nonempty 4×4 blocks of `A` ([`Mbsr::nnz_blocks`]).
    pub a_blocks: u64,
    /// 4×4 block products: Σ over blocks `(br, k)` of `A` of the blocks
    /// in block row `k`.
    pub block_products: u64,
    /// Nonempty 4×4 blocks of `C`.
    pub c_blocks: u64,
    /// Scalar multiply-adds of the row-wise CSR product: Σ over nonzeros
    /// `(r, k)` of `nnz(row k)`.
    pub scalar_products: u64,
}

impl SquareStructure {
    /// Count the structure of `a·a`. The block pattern comes from
    /// [`for_each_block`]; `C`'s blocks per block row are the distinct
    /// columns over the pattern rows it reaches, found with one stamp per
    /// block column. `a` must have at least as many rows as columns.
    pub fn of(a: &Csr) -> Self {
        let block_rows = a.rows.div_ceil(BLOCK);
        let mut ptr = vec![0usize; block_rows + 1];
        let mut cols = Vec::new();
        for_each_block(a, |br, bc| {
            ptr[br + 1] += 1;
            cols.push(bc);
        });
        for br in 0..block_rows {
            ptr[br + 1] += ptr[br];
        }
        let pattern_row = |br: usize| &cols[ptr[br]..ptr[br + 1]];

        let mut block_products = 0u64;
        let mut c_blocks = 0u64;
        let mut stamp = vec![usize::MAX; a.cols.div_ceil(BLOCK)];
        for br in 0..block_rows {
            for &k in pattern_row(br) {
                let row = pattern_row(k as usize);
                block_products += row.len() as u64;
                for &bc in row {
                    if stamp[bc as usize] != br {
                        stamp[bc as usize] = br;
                        c_blocks += 1;
                    }
                }
            }
        }
        let scalar_products = a
            .col_idx
            .iter()
            .map(|&k| a.row_nnz(k as usize) as u64)
            .sum();
        SquareStructure {
            a_blocks: cols.len() as u64,
            block_products,
            c_blocks,
            scalar_products,
        }
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
    fn square_structure_of_a_block_diagonal_matrix() {
        // Two dense 4×4 diagonal blocks and one entry in block (0, 1):
        // C's block row 0 reaches block rows 0 and 1.
        let mut coo = Coo::new(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                if (i / 4) == (j / 4) {
                    coo.push(i, j, 1.0);
                }
            }
        }
        coo.push(0, 5, 1.0);
        let m = Csr::from_coo(coo);
        let s = SquareStructure::of(&m);
        assert_eq!(s.a_blocks, 3);
        // Block row 0 holds (0,0) and (0,1): 2 + 1 products; row 1: 1.
        assert_eq!(s.block_products, 4);
        assert_eq!(s.c_blocks, 3);
        // Row 0 (cols 0..4 and 5) reaches rows of 5, 4, 4, 4 and 4
        // nonzeros; rows 1..4 reach rows 0..4; rows 4..8 rows 4..8.
        assert_eq!(s.scalar_products, 21 + 3 * 17 + 4 * 16);
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
