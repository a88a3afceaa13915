//! The BerryBees bitmap block slice-set format.
//!
//! The adjacency matrix is tiled into 8-row × 128-column bit blocks — the
//! exact operand shape of the single-bit `mma.m8n8k128` instruction. Only
//! nonempty blocks ("slices") are stored, grouped per 8-row band
//! (a "slice set"). A BFS iteration ANDs each slice against the matching
//! 128-bit frontier segment via the bit MMA and ORs surviving rows into
//! the next frontier.
//!
//! [`pull_bfs`] computes exactly what that traversal counts (levels, and
//! per launch the slices processed and vertices discovered) from the CSR
//! alone, without building the bitmap, plus the per-level arc totals a
//! push/pull traversal counts ([`LevelArcs`]). Its result is a function
//! of the graph and the source, so one run serves every BFS variant;
//! [`CsrGraph::pull_bfs`] memoises it on the graph. The format itself,
//! `BitmapGraph` and its `Slice`s, lives in the graph crate's tests
//! (`tests/support/bitmap.rs`): the slice traversal over it is the
//! oracle the property tests hold [`pull_bfs`] to.

use crate::csr_graph::CsrGraph;

/// Rows per block (MMA `m` dimension).
pub const BLOCK_ROWS: usize = 8;
/// Columns per block (MMA `k` dimension).
pub const BLOCK_COLS: usize = 128;

/// What one bitmap pull traversal leaves behind, plus the arcs of each
/// level: everything the traces of all four BFS variants are a function
/// of.
#[derive(Debug)]
pub struct PullBfs {
    /// The source vertex the traversal started from.
    pub source: usize,
    /// Per-vertex levels (`-1` for unreachable vertices).
    pub levels: Vec<i32>,
    /// Per launch: (slices processed, vertices discovered). The last
    /// launch is the final, empty-frontier pass.
    pub per_level: Vec<(u64, u64)>,
    /// 128-column frontier segments.
    pub col_blocks: usize,
    /// Per level `0..=D`, `D` the deepest, then one entry for the
    /// unreached vertices: what a push/pull traversal inspects there.
    pub level_arcs: Vec<LevelArcs>,
}

/// The arcs of the vertices at one BFS level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelArcs {
    /// Vertices at the level.
    pub vertices: u64,
    /// Their out-arcs.
    pub out_arcs: u64,
    /// Their in-arcs.
    pub in_arcs: u64,
    /// Σ of their ranks, 0 at level 0 and for the unreached. The rank of
    /// `v` at level `l > 0` is the 1-based position, among `v`'s in-arcs
    /// with sources ascending, of the first from level `l − 1`.
    pub rank_sum: u64,
}

/// What the pull traversal over the bitmap slice sets counts, computed
/// from the CSR without building the bitmap.
///
/// The traversal this stands for runs one launch per depth `d = 1, 2, …`.
/// It skips every band whose rows are all settled, and within a scanned
/// band every slice whose frontier segment is empty. A processed slice is
/// one bit MMA of its rows against the frontier segment replicated across
/// the eight `B` columns; only the diagonal is read, and entry `r` is
/// `popcount(rows[r] & seg)`, so a row is hit exactly when
/// `rows[r] & seg != 0`. Its counts follow in four steps, linear in the
/// vertices, the arcs and the slices processed:
///
/// 1. **Levels.** A pull discovers `v` at depth `d` exactly when an
///    in-neighbour of `v` has level `d − 1`, so the levels are the BFS
///    distances of one queue BFS over out-arcs, and launch `d` discovers
///    the vertices at level `d`. The last launch is the empty pass at
///    depth `D + 1`, `D` the deepest level.
/// 2. **When each band is scanned.** A band's unsettled count is checked
///    before its own slices, and only its own rows decrement it, so band
///    `rb` is scanned at depth `d` iff it still holds a vertex of level
///    `≥ d`: iff `d ≤ band_last[rb]`, its deepest level, or `u32::MAX` if
///    it holds an unreached vertex.
/// 3. **Levels per column block.** A slice's frontier segment at depth
///    `l + 1` is nonzero iff its 128-vertex column block holds a level-`l`
///    vertex. Each block's distinct levels are listed ascending; depth
///    can exceed 64, so they are not packed into a word.
/// 4. **One stamped pass over the arcs.** A slice is a distinct
///    (`v / 8`, `u / 128`) pair over the arcs `u → v`. Visiting sources in
///    ascending order, one stamp per band finds each pair once (as in
///    [`GraphFeatures::slice_fill`](crate::features::GraphFeatures::slice_fill)).
///    The slice is processed at depth `l + 1` for each level `l` of its
///    column block with `l < band_last[rb]`.
/// 5. **The arcs of each level** ([`LevelArcs`]). The same pass counts
///    each target's in-arcs, sources ascending, and notes the count at
///    the first from the level above: that is its rank. Column blocks
///    with no reached vertex only add in-arcs.
///
/// # Panics
/// Panics if `source` is not a vertex of `g`, naming the source and `n`.
pub fn pull_bfs(g: &CsrGraph, source: usize) -> PullBfs {
    g.assert_source(source);
    let n = g.n;

    // 1. Levels, and the vertices each launch discovers.
    let mut levels = vec![-1i32; n];
    levels[source] = 0;
    let mut queue = Vec::with_capacity(n);
    queue.push(source as u32);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let next = levels[u as usize] + 1;
        for &v in g.neighbors(u as usize) {
            if levels[v as usize] < 0 {
                levels[v as usize] = next;
                queue.push(v);
            }
        }
    }
    let deepest = levels[queue[queue.len() - 1] as usize] as usize;
    let mut per_level = vec![(0u64, 0u64); deepest + 1];
    for &v in &queue[1..] {
        per_level[levels[v as usize] as usize - 1].1 += 1;
    }
    drop(queue);

    // 2. The deepest level of each band. An unreached row's `-1` casts
    // to `u32::MAX`: it never settles, so its band is scanned every time.
    let mut band_last = vec![0u32; n.div_ceil(BLOCK_ROWS)];
    for (last, band) in band_last.iter_mut().zip(levels.chunks(BLOCK_ROWS)) {
        *last = band.iter().fold(0, |m, &l| m.max(l as u32));
    }

    let mut stamp = vec![0u32; band_last.len()];
    let mut seen = vec![0u32; deepest + 1];
    // 5. Per vertex: its in-arcs so far, and their number when the first
    // from the level above came (0 until then). Branch-free: which arc
    // that is depends on the data and mispredicts.
    let mut ranks = vec![[0u32; 2]; n];
    let mut block_levels = Vec::with_capacity(BLOCK_COLS);
    for (cb, block) in levels.chunks(BLOCK_COLS).enumerate() {
        let tag = cb as u32 + 1;
        // 3. The distinct levels of this column block, ascending.
        block_levels.clear();
        for &l in block {
            if l >= 0 && seen[l as usize] != tag {
                seen[l as usize] = tag;
                block_levels.push(l as u32);
            }
        }
        let first = cb * BLOCK_COLS;
        if block_levels.is_empty() {
            for &v in &g.adj[g.offsets[first]..g.offsets[first + block.len()]] {
                ranks[v as usize][0] += 1;
            }
            continue;
        }
        block_levels.sort_unstable();
        // 4. Each slice of this column block once, counted at every depth
        // that processes it.
        for (u, &lu) in (first..).zip(block) {
            for &v in g.neighbors(u) {
                let [arcs, rank] = &mut ranks[v as usize];
                *arcs += 1;
                *rank |= *arcs * ((lu + 1 == levels[v as usize]) & (*rank == 0)) as u32;
                let rb = v as usize / BLOCK_ROWS;
                if stamp[rb] != tag {
                    stamp[rb] = tag;
                    let last = band_last[rb];
                    for &l in block_levels.iter().take_while(|&&l| l < last) {
                        per_level[l as usize].0 += 1;
                    }
                }
            }
        }
    }

    let mut level_arcs = vec![LevelArcs::default(); deepest + 2];
    for (v, (&l, &[arcs, rank])) in levels.iter().zip(&ranks).enumerate() {
        let at = &mut level_arcs[if l < 0 { deepest + 1 } else { l as usize }];
        at.vertices += 1;
        at.out_arcs += g.degree(v) as u64;
        at.in_arcs += u64::from(arcs);
        // An arc from an unreached vertex into the source also "ranks" it.
        if l > 0 {
            at.rank_sum += u64::from(rank);
        }
    }

    PullBfs {
        source,
        levels,
        per_level,
        col_blocks: n.div_ceil(BLOCK_COLS),
        level_arcs,
    }
}
