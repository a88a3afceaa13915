//! Property-based tests of the graph substrate.

use cubie_graph::bitmap::{BitmapGraph, Slice, BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::csr_graph::CsrGraph;
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

/// The sort-based transpose the counting pass replaced: reversed arcs
/// re-sorted through `from_edges`.
fn reverse_by_sort(g: &CsrGraph) -> CsrGraph {
    let mut edges = Vec::with_capacity(g.num_arcs());
    for u in 0..g.n {
        for &v in g.neighbors(u) {
            edges.push((v, u as u32));
        }
    }
    CsrGraph::from_edges(g.n, &edges, false)
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

    /// The counting transpose equals the sort-based one, and reversing
    /// twice gives the graph back.
    #[test]
    fn reverse_matches_sort_based((n, edges, sym) in arb_builder_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        let r = g.reverse();
        prop_assert_eq!(&r, &reverse_by_sort(&g));
        prop_assert_eq!(r.reverse(), g);
    }

    /// The per-band bitmap build equals the sort-based one field by
    /// field: band offsets, slice order, column blocks and row bits.
    #[test]
    fn bitmap_matches_sort_based((n, edges, sym) in arb_builder_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        prop_assert_eq!(BitmapGraph::from_graph(&g), bitmap_by_sort(&g));
    }

    /// CSR adjacency is sorted, deduplicated and in bounds.
    #[test]
    fn csr_graph_well_formed((n, edges, sym) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        prop_assert_eq!(g.offsets.len(), n + 1);
        for v in 0..n {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &u in nb {
                prop_assert!((u as usize) < n);
            }
        }
    }

    /// Symmetrized graphs contain every reverse arc.
    #[test]
    fn symmetrize_creates_reverse_arcs((n, edges, _) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, true);
        for u in 0..n {
            for &v in g.neighbors(u) {
                if v as usize != u {
                    prop_assert!(
                        g.neighbors(v as usize).contains(&(u as u32)),
                        "missing {}→{}",
                        v,
                        u
                    );
                }
            }
        }
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

    /// BFS-order relabelling preserves the degree sequence and the arc
    /// count (it is a vertex permutation).
    #[test]
    fn relabel_preserves_structure((n, edges, _) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, true);
        let r = g.relabel_by_bfs_order();
        prop_assert_eq!(r.num_arcs(), g.num_arcs());
        let mut a: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut b: Vec<usize> = (0..n).map(|v| r.degree(v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
