//! The BerryBees bitmap block slice-set format, kept as a test oracle.
//!
//! `cubie_graph::bitmap::pull_bfs` computes what a pull traversal over
//! these slices counts without building them. The graph property tests
//! hold it to the slice traversal over a [`BitmapGraph`], and the kernel
//! property tests replay the bit-MMA BFS on it through
//! [`mma_b1_m8n8k128_and_popc`]; both include this file as a module (the
//! kernels tests through `#[path]`), so each uses only part of it.
//! [`reverse`] is the in-arc view their level-arc oracles read.
#![allow(dead_code)]

use cubie_core::OpCounters;
use cubie_graph::bitmap::{BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::CsrGraph;

/// One 8×128 adjacency bit block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Which 128-column band this block covers.
    pub col_block: u32,
    /// The eight 128-bit row bitmaps.
    pub rows: [u128; BLOCK_ROWS],
}

/// A graph stored as bitmap block slice sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapGraph {
    /// Number of vertices.
    pub n: usize,
    /// Number of 8-row bands.
    pub row_blocks: usize,
    /// Number of 128-column bands.
    pub col_blocks: usize,
    /// Slice-set offsets per row band, length `row_blocks + 1`.
    pub offsets: Vec<usize>,
    /// The nonempty slices, ordered by (row band, column band).
    pub slices: Vec<Slice>,
}

impl BitmapGraph {
    /// Build the slice-set representation from CSR adjacency. Row `r` of
    /// the adjacency matrix holds the *in*-neighbour relationship used by
    /// pull-style BFS: bit `c` of row `r` is set when arc `c → r` exists,
    /// i.e. the structure is the transpose of the out-adjacency.
    ///
    /// One counting pass buckets the arcs by destination band. Sources
    /// are scattered in ascending order, so each band's arcs arrive
    /// sorted by column block and its slices are appended in order.
    pub fn from_graph(g: &CsrGraph) -> Self {
        let n = g.n;
        let row_blocks = n.div_ceil(BLOCK_ROWS);
        let col_blocks = n.div_ceil(BLOCK_COLS);

        let mut band_start = vec![0usize; row_blocks + 1];
        for &v in g.adj.iter() {
            band_start[v as usize / BLOCK_ROWS + 1] += 1;
        }
        for i in 0..row_blocks {
            band_start[i + 1] += band_start[i];
        }
        // Per arc `u → v`: source `u` and local row `v % 8`, packed.
        let mut cursor = band_start[..row_blocks].to_vec();
        let mut arcs = vec![0u64; g.num_arcs()];
        for u in 0..n {
            for &v in g.neighbors(u) {
                let rb = v as usize / BLOCK_ROWS;
                arcs[cursor[rb]] = (u as u64) << 3 | (v as usize % BLOCK_ROWS) as u64;
                cursor[rb] += 1;
            }
        }

        let mut offsets = Vec::with_capacity(row_blocks + 1);
        offsets.push(0usize);
        let mut slices: Vec<Slice> = Vec::new();
        for rb in 0..row_blocks {
            let first = slices.len();
            for &arc in &arcs[band_start[rb]..band_start[rb + 1]] {
                let (u, r) = ((arc >> 3) as usize, (arc & 7) as usize);
                let cb = (u / BLOCK_COLS) as u32;
                if slices.len() == first || slices[slices.len() - 1].col_block != cb {
                    slices.push(Slice {
                        col_block: cb,
                        rows: [0u128; BLOCK_ROWS],
                    });
                }
                slices.last_mut().unwrap().rows[r] |= 1u128 << (u % BLOCK_COLS);
            }
            offsets.push(slices.len());
        }
        Self {
            n,
            row_blocks,
            col_blocks,
            offsets,
            slices,
        }
    }

    /// Slices of one 8-row band.
    pub fn band(&self, rb: usize) -> &[Slice] {
        &self.slices[self.offsets[rb]..self.offsets[rb + 1]]
    }

    /// Number of stored slices.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Total set bits (must equal the number of arcs).
    pub fn num_bits(&self) -> usize {
        self.slices
            .iter()
            .map(|s| {
                s.rows
                    .iter()
                    .map(|r| r.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Average fraction of set bits per stored slice — the bitmap
    /// density that determines BFS memory efficiency.
    pub fn slice_fill(&self) -> f64 {
        if self.slices.is_empty() {
            return 0.0;
        }
        self.num_bits() as f64 / (self.num_slices() * BLOCK_ROWS * BLOCK_COLS) as f64
    }

    /// Bytes occupied by the slice payloads (the low-memory-footprint
    /// property Section 6.1 credits for BFS speedups).
    pub fn payload_bytes(&self) -> usize {
        self.num_slices() * (BLOCK_ROWS * BLOCK_COLS / 8 + 4)
    }
}

/// Reverse graph (in-neighbours become out-neighbours): the in-arc view
/// the level-arc oracles read.
///
/// A counting transpose: in-degrees, prefix sum, then one scatter
/// with sources ascending, so every reversed list comes out sorted.
/// Arcs are already de-duplicated, so this equals re-sorting the
/// reversed arc list through [`CsrGraph::from_edges`].
pub fn reverse(g: &CsrGraph) -> CsrGraph {
    let n = g.n;
    let mut offsets = vec![0usize; n + 1];
    for &v in g.adj.iter() {
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut adj = vec![0u32; g.num_arcs()];
    for u in 0..n {
        for &v in g.neighbors(u) {
            adj[cursor[v as usize]] = u as u32;
            cursor[v as usize] += 1;
        }
    }
    CsrGraph::from_parts(n, offsets, adj)
}

/// One single-bit `m8n8k128` MMA with AND·popc semantics:
/// `c[i][j] += popcount(a[i] & b_col[j])`, where `a[i]` is the 128-bit row
/// `i` of `A` and `b_col[j]` the 128-bit column `j` of `B`.
/// Increments `counters.mma_b1`.
#[inline]
pub fn mma_b1_m8n8k128_and_popc(
    a_rows: &[u128; 8],
    b_cols: &[u128; 8],
    c: &mut [u32; 64],
    counters: &mut OpCounters,
) {
    for i in 0..8 {
        for j in 0..8 {
            c[i * 8 + j] += (a_rows[i] & b_cols[j]).count_ones();
        }
    }
    counters.mma_b1 += 1;
}
