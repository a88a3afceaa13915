//! Property-based tests of the graph substrate.

#[path = "support/bitmap.rs"]
mod bitmap;

use bitmap::{mma_b1_m8n8k128_and_popc, reverse, BitmapGraph, Slice};
use cubie_core::par::set_max_workers;
use cubie_core::SplitMix64;
use cubie_graph::bitmap::{pull_bfs, LevelArcs, PullBfs, BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::csr_graph::CsrGraph;
use cubie_graph::features::GraphFeatures;
use cubie_graph::generators::{community_graph, grid_graph, rmat, table3_graphs, EDGE_CHUNK};
use proptest::prelude::*;

/// Arbitrary small graph as (n, edges, symmetrize).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool)> {
    (2usize..300, any::<bool>()).prop_flat_map(|(n, sym)| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..600);
        (Just(n), edges, Just(sym))
    })
}

/// Arbitrary graph for the builder equivalence properties: `n` spans
/// several 128-column bands and is rarely a multiple of 8 or 128, some
/// edges are forced self-loops, and with few edges many vertices stay
/// isolated.
fn arb_builder_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool)> {
    (1usize..700, any::<bool>()).prop_flat_map(|(n, sym)| {
        let arcs = proptest::collection::vec((0..n as u32, 0..n as u32), 0..1500);
        let loops = proptest::collection::vec(0..n as u32, 0..20);
        (Just(n), arcs, loops, Just(sym)).prop_map(|(n, mut edges, loops, sym)| {
            edges.extend(loops.into_iter().map(|v| (v, v)));
            (n, edges, sym)
        })
    })
}

/// [`arb_builder_graph`] plus repeats: some edges appear again as
/// given and some reversed, so both the plain and the symmetrized build
/// have arcs to merge.
fn arb_multigraph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool)> {
    let picks = proptest::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 0..300);
    (arb_builder_graph(), picks).prop_map(|((n, mut edges, sym), picks)| {
        if !edges.is_empty() {
            for (i, flip) in picks {
                let (u, v) = edges[i.index(edges.len())];
                edges.push(if flip { (v, u) } else { (u, v) });
            }
        }
        (n, edges, sym)
    })
}

/// [`arb_builder_graph`], or a path through every vertex plus a few
/// random arcs, so traversals often run deeper than 64 levels and, with
/// the path directed, leave the bands behind the source unreached.
fn arb_bfs_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool)> {
    let deep = (65usize..700, any::<bool>()).prop_flat_map(|(n, sym)| {
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..8);
        (Just(n), extra, Just(sym)).prop_map(|(n, mut edges, sym)| {
            edges.extend((1..n as u32).map(|v| (v - 1, v)));
            (n, edges, sym)
        })
    });
    prop_oneof![arb_builder_graph(), deep]
}

/// The pull traversal over the bitmap slice sets that [`pull_bfs`]
/// replaced, as it ran in production: bands whose rows are all settled
/// are skipped, and so are slices whose frontier segment is empty; a
/// row is hit exactly when `rows[r] & seg != 0`, the diagonal of the
/// slice's bit MMA against the replicated frontier segment.
fn pull_bfs_by_slices(g: &CsrGraph, source: usize) -> PullBfs {
    let bm = BitmapGraph::from_graph(g);
    let n = g.n;
    let col_blocks = bm.col_blocks;
    let mut level = vec![-1i32; n];
    level[source] = 0;
    let mut frontier = vec![0u128; col_blocks];
    let mut next = vec![0u128; col_blocks];
    frontier[source / BLOCK_COLS] |= 1u128 << (source % BLOCK_COLS);
    // Bands that still contain unsettled rows.
    let mut band_unsettled = vec![BLOCK_ROWS as u32; bm.row_blocks];
    if !n.is_multiple_of(BLOCK_ROWS) {
        band_unsettled[bm.row_blocks - 1] = (n % BLOCK_ROWS) as u32;
    }
    band_unsettled[source / BLOCK_ROWS] -= 1;

    let mut per_level = Vec::new();
    let mut depth = 0i32;
    let mut frontier_count = 1u64;
    while frontier_count > 0 {
        depth += 1;
        next.fill(0);
        let mut processed = 0u64;
        let mut next_count = 0u64;
        // `band_unsettled[rb]` is also decremented inside the inner loop,
        // so an iterator over it would alias the mutation.
        #[allow(clippy::needless_range_loop)]
        for rb in 0..bm.row_blocks {
            if band_unsettled[rb] == 0 {
                continue;
            }
            for slice in bm.band(rb) {
                let seg = frontier[slice.col_block as usize];
                if seg == 0 {
                    continue;
                }
                processed += 1;
                for r in 0..BLOCK_ROWS {
                    let v = rb * BLOCK_ROWS + r;
                    if v < n && level[v] < 0 && slice.rows[r] & seg != 0 {
                        level[v] = depth;
                        next[v / BLOCK_COLS] |= 1u128 << (v % BLOCK_COLS);
                        band_unsettled[rb] -= 1;
                        next_count += 1;
                    }
                }
            }
        }
        per_level.push((processed, next_count));
        std::mem::swap(&mut frontier, &mut next);
        frontier_count = next_count;
    }
    PullBfs {
        source,
        level_arcs: level_arcs_by_reverse(g, &level),
        levels: level,
        per_level,
        col_blocks,
    }
}

/// Each level's arcs read off the reversed graph, whose in-arc lists are
/// sorted by source: a rank is the position of the first in-neighbour
/// one level up.
fn level_arcs_by_reverse(g: &CsrGraph, levels: &[i32]) -> Vec<LevelArcs> {
    let rev = reverse(g);
    let deepest = *levels.iter().max().unwrap() as usize;
    let mut out = vec![LevelArcs::default(); deepest + 2];
    for (v, &l) in levels.iter().enumerate() {
        let at = &mut out[if l < 0 { deepest + 1 } else { l as usize }];
        at.vertices += 1;
        at.out_arcs += g.degree(v) as u64;
        at.in_arcs += rev.degree(v) as u64;
        if l > 0 {
            let parent = rev
                .neighbors(v)
                .iter()
                .position(|&u| levels[u as usize] == l - 1);
            at.rank_sum += parent.unwrap() as u64 + 1;
        }
    }
    out
}

/// `pull_bfs` from `source` equals the slice traversal in every field.
fn assert_pull_bfs_matches_slices(g: &CsrGraph, source: usize, what: &str) {
    let (got, want) = (pull_bfs(g, source), pull_bfs_by_slices(g, source));
    assert_eq!(got.source, want.source, "{what}: source");
    assert_eq!(got.levels, want.levels, "{what}: levels");
    assert_eq!(got.per_level, want.per_level, "{what}: per_level");
    assert_eq!(got.col_blocks, want.col_blocks, "{what}: col_blocks");
    assert_eq!(got.level_arcs, want.level_arcs, "{what}: level_arcs");
}

#[test]
fn pull_bfs_matches_slices_deeper_than_64_levels() {
    let g = grid_graph(1, 300);
    for source in [0, 150, 299] {
        assert_pull_bfs_matches_slices(&g, source, &format!("path of 300 from {source}"));
    }
    assert_eq!(pull_bfs(&g, 0).per_level.len(), 300);
}

#[test]
fn pull_bfs_matches_slices_on_one_vertex() {
    for edges in [&[][..], &[(0, 0)][..]] {
        let g = CsrGraph::from_edges(1, edges, false);
        assert_pull_bfs_matches_slices(&g, 0, &format!("n = 1, arcs {edges:?}"));
        assert_eq!(pull_bfs(&g, 0).per_level, [(0, 0)]);
    }
}

/// The last band (vertices 296..301, five rows) is unreached, yet has
/// slices from column block 2, which holds reached vertices, so it is
/// scanned at every depth; an arc out of it lands in a reached band.
#[test]
fn pull_bfs_matches_slices_with_unreached_last_band() {
    let mut edges: Vec<(u32, u32)> = (0..295).map(|v| (v, v + 1)).collect();
    edges.extend([(297, 298), (299, 296), (300, 5), (130, 40)]);
    let g = CsrGraph::from_edges(301, &edges, false);
    for source in [0, 200, 297] {
        assert_pull_bfs_matches_slices(&g, source, &format!("unreached last band from {source}"));
    }
}

#[test]
fn pull_bfs_matches_slices_on_table3_graphs() {
    for (info, g) in table3_graphs(1024) {
        for source in [g.max_degree_vertex(), 0, g.n - 1] {
            assert_pull_bfs_matches_slices(&g, source, &format!("{} from {source}", info.name));
        }
    }
}

/// The sort-based builder the counting `from_edges` replaced: every arc
/// (plus the reverse of each non-loop edge when symmetrizing) sorted and
/// deduplicated globally, then cut into rows.
fn from_edges_by_sort(n: usize, edges: &[(u32, u32)], symmetrize: bool) -> CsrGraph {
    let mut arcs = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in edges {
        arcs.push((u, v));
        if symmetrize && u != v {
            arcs.push((v, u));
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let adj: Vec<u32> = arcs.into_iter().map(|(_, v)| v).collect();
    CsrGraph::from_parts(n, offsets, adj)
}

/// The sort-based transpose the counting pass replaced: reversed arcs
/// re-sorted through the sort-based builder.
fn reverse_by_sort(g: &CsrGraph) -> CsrGraph {
    let mut edges = Vec::with_capacity(g.num_arcs());
    for u in 0..g.n {
        for &v in g.neighbors(u) {
            edges.push((v, u as u32));
        }
    }
    from_edges_by_sort(g.n, &edges, false)
}

/// The serial R-MAT sampler the chunked one replaced: one stream, one
/// edge after another, quadrants chosen by an `if` chain.
#[allow(clippy::too_many_arguments)]
fn rmat_serial(
    n: usize,
    m: usize,
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    seed: u64,
    sym: bool,
) -> CsrGraph {
    let levels = n.trailing_zeros();
    let mut g = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..levels {
            u <<= 1;
            v <<= 1;
            let noise = 0.9 + 0.2 * g.next_unit();
            let (pa, pb, pc) = (a * noise, b, c);
            let total = pa + pb + pc + d;
            let r = g.next_unit() * total;
            if r < pa {
            } else if r < pa + pb {
                v |= 1;
            } else if r < pa + pb + pc {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        edges.push((u as u32, v as u32));
    }
    from_edges_by_sort(n, &edges, sym)
}

/// The serial community sampler the chunked one replaced.
fn community_serial(
    n: usize,
    m: usize,
    local_frac: f64,
    window: usize,
    skew: f64,
    seed: u64,
    sym: bool,
) -> CsrGraph {
    let mut g = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    let pick = |g: &mut SplitMix64| -> usize {
        ((n as f64 * g.next_unit().powf(skew)) as usize).min(n - 1)
    };
    for _ in 0..m {
        let u = pick(&mut g);
        let v = if g.bernoulli(local_frac) {
            let off = g.next_range(2 * window as u64 + 1) as i64 - window as i64;
            (u as i64 + off).rem_euclid(n as i64) as usize
        } else {
            pick(&mut g)
        };
        if u != v {
            edges.push((u as u32, v as u32));
        }
    }
    from_edges_by_sort(n, &edges, sym)
}

/// Edge counts for the sampler equivalence: empty, sub-chunk, and
/// within a few edges either side of one and two chunk boundaries.
fn arb_edge_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..2000,
        EDGE_CHUNK - 3..EDGE_CHUNK + 4,
        2 * EDGE_CHUNK - 3..2 * EDGE_CHUNK + 4,
    ]
}

// Deterministic cases of the bitmap oracle itself.

#[test]
fn bits_equal_arcs() {
    let g = rmat(1 << 10, 8 << 10, 0.45, 0.2, 0.2, 0.15, 42, true);
    let b = BitmapGraph::from_graph(&g);
    assert_eq!(b.num_bits(), g.num_arcs());
}

#[test]
fn pull_structure_is_transposed() {
    let g = CsrGraph::from_edges(300, &[(5, 200)], false);
    let b = BitmapGraph::from_graph(&g);
    // arc 5 → 200 sets bit 5 of row 200: band 25, local row 0,
    // col block 0, local col 5.
    let band = b.band(200 / BLOCK_ROWS);
    assert_eq!(band.len(), 1);
    assert_eq!(band[0].col_block, 0);
    assert_eq!(band[0].rows[0], 1u128 << 5);
}

#[test]
fn empty_bands_have_no_slices() {
    let g = CsrGraph::from_edges(1000, &[(0, 1)], false);
    let b = BitmapGraph::from_graph(&g);
    assert_eq!(b.num_slices(), 1);
    assert!(b.band(50).is_empty());
    assert_eq!(b.band(0).len(), 1);
}

#[test]
fn dense_clique_fills_slices() {
    let n = 128;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                edges.push((u, v));
            }
        }
    }
    let g = CsrGraph::from_edges(n, &edges, false);
    let b = BitmapGraph::from_graph(&g);
    assert_eq!(b.num_slices(), n / BLOCK_ROWS); // one col block
    assert!(b.slice_fill() > 0.99 - 1.0 / 128.0);
}

#[test]
fn reverse_of_directed_edge() {
    let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)], false);
    let r = reverse(&g);
    assert_eq!(r.neighbors(1), &[0]);
    assert_eq!(r.neighbors(2), &[0]);
    assert!(r.neighbors(0).is_empty());
}

#[test]
fn slices_sorted_within_band() {
    let g = rmat(1 << 11, 16 << 11, 0.5, 0.2, 0.2, 0.1, 7, true);
    let b = BitmapGraph::from_graph(&g);
    for rb in 0..b.row_blocks {
        let band = b.band(rb);
        for w in band.windows(2) {
            assert!(w[0].col_block < w[1].col_block, "band {rb} unsorted");
        }
    }
}

#[test]
fn row_hit_is_the_mma_diagonal() {
    let mut rng = SplitMix64::new(11);
    let mut bits = || (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
    for round in 0..200 {
        let mut rows: [u128; BLOCK_ROWS] = std::array::from_fn(|_| bits());
        // Sparse rows and segments too, so misses are exercised.
        let mut seg = bits();
        if round % 2 == 1 {
            rows.iter_mut().for_each(|r| *r &= bits() & bits() & bits());
            seg &= bits() & bits() & bits();
        }
        if round % 7 == 0 {
            rows[round % BLOCK_ROWS] = 0;
        }
        let mut c = [0u32; 64];
        let mut scratch = cubie_core::OpCounters::default();
        mma_b1_m8n8k128_and_popc(&rows, &[seg; 8], &mut c, &mut scratch);
        for r in 0..BLOCK_ROWS {
            assert_eq!(c[r * 8 + r], (rows[r] & seg).count_ones(), "round {round}");
            assert_eq!(c[r * 8 + r] > 0, rows[r] & seg != 0, "round {round}");
        }
    }
}

#[test]
fn bit_mma_counts_intersections() {
    let mut a = [0u128; 8];
    let mut b = [0u128; 8];
    a[0] = 0b1011;
    b[0] = 0b0011;
    a[7] = u128::MAX;
    b[7] = u128::MAX;
    let mut c = [0u32; 64];
    let mut ctr = cubie_core::OpCounters::new();
    mma_b1_m8n8k128_and_popc(&a, &b, &mut c, &mut ctr);
    assert_eq!(c[0], 2); // popc(1011 & 0011) = 2
    assert_eq!(c[7 * 8 + 7], 128);
    assert_eq!(c[7], 3); // row 0, col 7: a[0] & full = 3 bits
    assert_eq!(ctr.mma_b1, 1);
}

#[test]
fn bit_mma_accumulates() {
    let a = [1u128; 8];
    let b = [1u128; 8];
    let mut c = [0u32; 64];
    let mut ctr = cubie_core::OpCounters::new();
    mma_b1_m8n8k128_and_popc(&a, &b, &mut c, &mut ctr);
    mma_b1_m8n8k128_and_popc(&a, &b, &mut c, &mut ctr);
    assert!(c.iter().all(|&v| v == 2));
}

/// The body of `csr_graph_well_formed`: CSR adjacency is sorted,
/// deduplicated and in bounds.
fn assert_well_formed(n: usize, edges: &[(u32, u32)], sym: bool) {
    let g = CsrGraph::from_edges(n, edges, sym);
    assert_eq!(g.offsets.len(), n + 1);
    for v in 0..n {
        let nb = g.neighbors(v);
        for w in nb.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &u in nb {
            assert!((u as usize) < n);
        }
    }
}

/// The body of `symmetrize_creates_reverse_arcs`: a symmetrized graph
/// contains every reverse arc.
fn assert_symmetrized_has_reverse_arcs(n: usize, edges: &[(u32, u32)]) {
    let g = CsrGraph::from_edges(n, edges, true);
    for u in 0..n {
        for &v in g.neighbors(u) {
            if v as usize != u {
                assert!(
                    g.neighbors(v as usize).contains(&(u as u32)),
                    "missing {}→{}",
                    v,
                    u
                );
            }
        }
    }
}

/// A failure case an upstream proptest run once recorded in the
/// `(n, edges, _)` shape of `symmetrize_creates_reverse_arcs`: 139
/// vertices, 303 edges with four self-loops, `symmetrize = false`.
/// Replayed through both properties that take that shape.
#[test]
fn recorded_self_loop_case_holds_both_graph_properties() {
    let flat: [u32; 606] = [
        106, 68, 42, 106, 69, 100, 77, 97, 102, 138, 80, 69, 69, 126, 106, 100, 136, 69, 113, 120,
        88, 21, 25, 61, 124, 13, 117, 90, 88, 41, 90, 61, 105, 54, 81, 16, 94, 16, 112, 43, 8, 41,
        37, 111, 57, 24, 5, 52, 11, 97, 25, 23, 131, 22, 72, 84, 25, 75, 72, 47, 53, 131, 72, 117,
        19, 87, 37, 75, 4, 78, 80, 40, 67, 10, 137, 97, 116, 53, 100, 121, 41, 3, 127, 78, 16, 82,
        66, 43, 26, 34, 102, 136, 32, 98, 130, 80, 58, 41, 87, 93, 36, 40, 113, 57, 132, 54, 110,
        74, 54, 134, 28, 91, 114, 19, 59, 84, 104, 117, 77, 61, 27, 82, 48, 61, 133, 15, 57, 58,
        130, 108, 22, 19, 85, 81, 89, 129, 137, 112, 69, 87, 6, 107, 15, 59, 62, 2, 32, 129, 43,
        100, 26, 59, 50, 119, 121, 37, 6, 19, 5, 22, 12, 113, 55, 116, 27, 108, 61, 86, 31, 72,
        111, 13, 13, 14, 137, 125, 24, 43, 14, 106, 46, 4, 118, 105, 55, 35, 73, 12, 95, 124, 83,
        84, 111, 100, 53, 56, 58, 37, 81, 68, 128, 106, 137, 64, 39, 92, 76, 79, 53, 137, 69, 43,
        53, 58, 72, 100, 40, 88, 60, 46, 107, 65, 125, 42, 48, 97, 76, 82, 92, 12, 26, 49, 118,
        134, 75, 55, 123, 3, 95, 22, 69, 49, 49, 3, 128, 110, 81, 106, 63, 82, 18, 76, 48, 9, 80,
        92, 29, 106, 106, 49, 44, 129, 92, 24, 138, 81, 25, 21, 104, 93, 76, 31, 96, 74, 123, 0,
        68, 119, 71, 136, 125, 83, 8, 113, 53, 48, 124, 79, 68, 15, 32, 131, 44, 5, 127, 65, 95, 6,
        10, 54, 87, 16, 108, 118, 106, 47, 132, 116, 102, 109, 84, 49, 44, 75, 125, 4, 29, 0, 100,
        90, 11, 132, 81, 54, 33, 33, 115, 76, 136, 99, 25, 69, 45, 133, 32, 118, 101, 14, 16, 98,
        60, 80, 122, 51, 47, 35, 37, 118, 32, 7, 59, 30, 101, 62, 111, 27, 50, 91, 65, 108, 67, 75,
        73, 108, 132, 109, 98, 105, 32, 13, 80, 127, 42, 130, 38, 100, 132, 53, 105, 98, 27, 122,
        67, 28, 109, 131, 42, 16, 111, 48, 4, 53, 105, 33, 35, 8, 134, 1, 26, 127, 84, 17, 1, 5,
        103, 116, 86, 2, 21, 130, 71, 71, 110, 72, 79, 106, 84, 74, 5, 138, 113, 16, 29, 66, 93,
        76, 85, 16, 78, 59, 78, 11, 111, 130, 85, 63, 69, 8, 34, 109, 76, 52, 17, 52, 63, 69, 83,
        98, 86, 119, 90, 89, 89, 14, 112, 130, 127, 10, 114, 112, 47, 24, 1, 55, 51, 51, 69, 97,
        127, 123, 105, 90, 48, 23, 15, 29, 85, 94, 49, 15, 56, 13, 132, 129, 20, 123, 47, 135, 135,
        65, 82, 74, 121, 26, 122, 111, 21, 88, 107, 92, 88, 111, 18, 113, 14, 21, 10, 106, 104, 45,
        26, 96, 71, 110, 65, 54, 30, 92, 121, 92, 23, 130, 103, 136, 112, 75, 34, 27, 38, 82, 65,
        106, 45, 85, 3, 121, 51, 110, 60, 69, 100, 64, 116, 72, 6, 37, 1, 85, 24, 83, 22, 16, 123,
        103, 82, 61, 57, 19, 134, 2, 63, 138, 138, 21, 11, 37, 100, 131, 93, 118, 31, 52, 97, 109,
        116, 62, 121, 59, 29, 50, 125, 88, 112, 112, 49, 28, 85, 2, 93, 119, 12, 84, 31, 98, 31,
        34, 35, 20, 28, 5, 62, 117, 67, 51, 18, 126,
    ];
    let edges: Vec<(u32, u32)> = flat.chunks_exact(2).map(|e| (e[0], e[1])).collect();
    assert_well_formed(139, &edges, false);
    assert_symmetrized_has_reverse_arcs(139, &edges);
}

/// Run `f` under each of the worker caps 1 and 3, restoring the cap.
fn under_worker_caps<T>(f: impl Fn() -> T) -> Vec<T> {
    [1, 3]
        .into_iter()
        .map(|w| {
            let prev = set_max_workers(w);
            let out = f();
            set_max_workers(prev);
            out
        })
        .collect()
}

/// The sort-based bitmap build the per-band counting pass replaced: one
/// (row band, column band, local row, local column) key per arc, sorted
/// globally and bucketed into slices.
fn bitmap_by_sort(g: &CsrGraph) -> BitmapGraph {
    let n = g.n;
    let row_blocks = n.div_ceil(BLOCK_ROWS);
    let col_blocks = n.div_ceil(BLOCK_COLS);
    let mut keys = Vec::with_capacity(g.num_arcs());
    for u in 0..n {
        for &v in g.neighbors(u) {
            let (r, c) = (v as usize, u);
            keys.push((
                (r / BLOCK_ROWS) as u32,
                (c / BLOCK_COLS) as u32,
                (r % BLOCK_ROWS) as u8,
                (c % BLOCK_COLS) as u8,
            ));
        }
    }
    keys.sort_unstable();
    let mut offsets = vec![0usize; row_blocks + 1];
    let mut slices: Vec<Slice> = Vec::new();
    let mut current: Option<(u32, u32)> = None;
    for &(rb, cb, lr, lc) in &keys {
        if current != Some((rb, cb)) {
            slices.push(Slice {
                col_block: cb,
                rows: [0u128; BLOCK_ROWS],
            });
            current = Some((rb, cb));
        }
        slices.last_mut().unwrap().rows[lr as usize] |= 1u128 << lc;
        offsets[rb as usize + 1] = slices.len();
    }
    for i in 1..=row_blocks {
        offsets[i] = offsets[i].max(offsets[i - 1]);
    }
    BitmapGraph {
        n,
        row_blocks,
        col_blocks,
        offsets,
        slices,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The counting-pass builder equals the sort-based one, with
    /// duplicate arcs, self-loops and both `symmetrize` settings.
    #[test]
    fn from_edges_matches_sort_based((n, edges, sym) in arb_multigraph()) {
        prop_assert_eq!(
            CsrGraph::from_edges(n, &edges, sym),
            from_edges_by_sort(n, &edges, sym)
        );
    }

    /// The bitmap-free slice fill is the bitmap's, bit for bit.
    #[test]
    fn feature_slice_fill_matches_bitmap((n, edges, sym) in arb_multigraph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        prop_assume!(g.num_arcs() > 0);
        prop_assert_eq!(
            GraphFeatures::of(&g).slice_fill.to_bits(),
            BitmapGraph::from_graph(&g).slice_fill().to_bits()
        );
    }

    /// The counting transpose equals the sort-based one, and reversing
    /// twice gives the graph back.
    #[test]
    fn reverse_matches_sort_based((n, edges, sym) in arb_builder_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        let r = reverse(&g);
        prop_assert_eq!(&r, &reverse_by_sort(&g));
        prop_assert_eq!(reverse(&r), g);
    }

    /// The per-band bitmap build equals the sort-based one field by
    /// field: band offsets, slice order, column blocks and row bits.
    #[test]
    fn bitmap_matches_sort_based((n, edges, sym) in arb_builder_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        prop_assert_eq!(BitmapGraph::from_graph(&g), bitmap_by_sort(&g));
    }

    /// The bitmap-free `pull_bfs` equals the slice traversal in every
    /// field, from any source: `n` rarely a multiple of 8 or 128,
    /// isolated vertices, unreached bands and paths deeper than 64.
    #[test]
    fn pull_bfs_matches_slice_traversal(
        (n, edges, sym) in arb_bfs_graph(),
        src_pick in any::<prop::sample::Index>(),
    ) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        assert_pull_bfs_matches_slices(&g, src_pick.index(n), "random graph");
    }

    /// CSR adjacency is sorted, deduplicated and in bounds.
    #[test]
    fn csr_graph_well_formed((n, edges, sym) in arb_graph()) {
        assert_well_formed(n, &edges, sym);
    }

    /// Symmetrized graphs contain every reverse arc.
    #[test]
    fn symmetrize_creates_reverse_arcs((n, edges, _) in arb_graph()) {
        assert_symmetrized_has_reverse_arcs(n, &edges);
    }

    /// BFS levels satisfy the defining property: level(v) = 1 + min
    /// level over in-neighbours, and every edge spans ≤ 1 level.
    #[test]
    fn bfs_levels_are_consistent((n, edges, sym) in arb_graph(), src_pick in any::<prop::sample::Index>()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        let src = src_pick.index(n);
        let level = g.bfs_serial(src);
        prop_assert_eq!(level[src], 0);
        for u in 0..n {
            if level[u] < 0 {
                continue;
            }
            for &v in g.neighbors(u) {
                let lv = level[v as usize];
                prop_assert!(lv >= 0, "reachable vertex unlabelled");
                prop_assert!(lv <= level[u] + 1, "edge {}→{} spans >1 level", u, v);
            }
        }
    }

    /// The bitmap slice-set holds exactly the arcs of the graph.
    #[test]
    fn bitmap_preserves_arcs((n, edges, sym) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        let b = BitmapGraph::from_graph(&g);
        prop_assert_eq!(b.num_bits(), g.num_arcs());
        // Spot-check: every arc u→v sets bit u of row v.
        for u in 0..n {
            for &v in g.neighbors(u) {
                let band = b.band(v as usize / 8);
                let cb = (u / 128) as u32;
                let slice = band.iter().find(|s| s.col_block == cb);
                prop_assert!(slice.is_some(), "missing slice for arc {}→{}", u, v);
                let bit = slice.unwrap().rows[v as usize % 8] >> (u % 128) & 1;
                prop_assert_eq!(bit, 1, "bit unset for arc {}→{}", u, v);
            }
        }
    }
}

proptest! {
    // Each case samples up to ~130k edges three times over.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chunked R-MAT sampling equals one serial pass of the same stream,
    /// under one worker and under three.
    #[test]
    fn chunked_rmat_matches_serial(
        levels in 3u32..12,
        m in arb_edge_count(),
        probs in prop_oneof![
            Just((0.57, 0.19, 0.19, 0.05)),
            Just((0.45, 0.25, 0.2, 0.1)),
            Just((0.25, 0.25, 0.25, 0.25)),
        ],
        seed in 0..u64::MAX,
        sym in any::<bool>(),
    ) {
        let (a, b, c, d) = probs;
        let n = 1usize << levels;
        let want = rmat_serial(n, m, a, b, c, d, seed, sym);
        for got in under_worker_caps(|| rmat(n, m, a, b, c, d, seed, sym)) {
            prop_assert_eq!(&got, &want);
        }
    }

    /// Chunked community sampling, with its per-chunk self-loop filter,
    /// equals one serial pass, under one worker and under three.
    #[test]
    fn chunked_community_graph_matches_serial(
        n in 2usize..5000,
        m in arb_edge_count(),
        local_frac in 0.0f64..1.0,
        window in 1usize..200,
        skew in 1.0f64..3.0,
        seed in 0..u64::MAX,
        sym in any::<bool>(),
    ) {
        let want = community_serial(n, m, local_frac, window, skew, seed, sym);
        let got = under_worker_caps(|| community_graph(n, m, local_frac, window, skew, seed, sym));
        for g in got {
            prop_assert_eq!(&g, &want);
        }
    }
}
