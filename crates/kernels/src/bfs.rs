//! **BFS** — breadth-first search (Quadrant IV).
//!
//! * **TC** follows BerryBees (Niu & Casas, PPoPP '25): the transposed
//!   adjacency lives in the 8×128 bitmap block slice-set format
//!   (`cubie-graph::bitmap`); a pull iteration ANDs every active slice
//!   against the matching 128-bit frontier segment through the
//!   single-bit `mma.m8n8k128` instruction and reads the popcount
//!   **diagonal** (Quadrant IV's partial output). The compact bitmap is
//!   the "efficient data structure with low memory footprint" Section
//!   6.1 credits for the BFS speedups.
//! * **CC** executes the same slice loop as 32-bit AND/POPC integer
//!   sequences (identical frontier evolution).
//! * **CC-E** executes the same slice loop, but is charged only the
//!   essential bit tests: `12 × 8 / 2 + 8` integer ops per processed
//!   slice instead of CC's `768 + 8` (same memory traffic, fewer lane
//!   ops).
//! * **Baseline** models Gunrock: direction-optimizing push/pull BFS
//!   over CSR with frontier queues.
//!
//! TC, CC and CC-E run the same pull traversal: all three skip bands whose
//! rows are all settled, and slices whose frontier segment is empty.
//! Their traces differ only in how each processed slice is counted.
//!
//! BFS performs no floating-point arithmetic; correctness is exact
//! level-by-level agreement with the serial reference.

use cubie_core::counters::MemTraffic;
use cubie_core::OpCounters;
use cubie_graph::bitmap::{BitmapGraph, BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::csr_graph::CsrGraph;
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::Variant;

/// Serial CPU ground truth.
pub fn reference(g: &CsrGraph, source: usize) -> Vec<i32> {
    g.bfs_serial(source)
}

/// Functional execution of one variant; returns per-vertex levels and the
/// per-iteration workload trace (one kernel launch per BFS level, as the
/// real implementations issue).
pub fn run(g: &CsrGraph, source: usize, variant: Variant) -> (Vec<i32>, WorkloadTrace) {
    match variant {
        Variant::Baseline => run_push_pull(g, source),
        Variant::Tc | Variant::Cc | Variant::CcE => {
            let profile = pull_profile(g, source);
            let trace = trace_from_profile(&profile, variant);
            (profile.levels, trace)
        }
    }
}

/// Trace-only entry point (BFS traces are data-dependent, so this simply
/// runs the traversal structure; `run` and `trace` share one path).
pub fn trace(g: &CsrGraph, source: usize, variant: Variant) -> WorkloadTrace {
    run(g, source, variant).1
}

/// Useful traversal work: arcs in the graph (for GTEPS reporting).
pub fn useful_edges(g: &CsrGraph) -> f64 {
    g.num_arcs() as f64
}

/// What one bitmap pull traversal (TC / CC / CC-E) leaves behind:
/// everything the three bitmap variants' traces are a function of.
struct PullProfile {
    /// Per-vertex levels (`-1` for unreachable vertices).
    levels: Vec<i32>,
    /// Per launch: (slices processed, vertices discovered).
    per_level: Vec<(u64, u64)>,
    /// 128-column frontier segments.
    col_blocks: usize,
}

/// The pull traversal over the bitmap slice sets. A processed slice is
/// one bit MMA of its rows against the frontier segment replicated
/// across the eight `B` columns; only the diagonal is read, and entry
/// `r` is `popcount(rows[r] & seg)`, so a row is hit exactly when
/// `rows[r] & seg != 0`.
fn pull_profile(g: &CsrGraph, source: usize) -> PullProfile {
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
    PullProfile {
        levels: level,
        per_level,
        col_blocks,
    }
}

/// One launch per profiled level, counted for the variant's pipes.
fn trace_from_profile(profile: &PullProfile, variant: Variant) -> WorkloadTrace {
    let mut workload = WorkloadTrace::default();
    for (i, &(processed, next_count)) in profile.per_level.iter().enumerate() {
        let mut ops = OpCounters::default();
        match variant {
            Variant::Tc => ops.mma_b1 = processed,
            Variant::Cc => ops.int_ops = processed * 768 + processed * 8,
            Variant::CcE => {
                // Essential: only unsettled rows' segments are tested
                // (~4 u128 ops per live row on average).
                ops.int_ops = processed * 12 * 8 / 2 + processed * 8;
            }
            Variant::Baseline => unreachable!(),
        }
        if variant == Variant::Tc {
            ops.int_ops = processed * 8; // diagonal extraction
        }
        ops.gmem_load = MemTraffic::coalesced(processed * 132) + MemTraffic::random(processed * 16);
        ops.gmem_store = MemTraffic::coalesced(next_count * 4 + profile.col_blocks as u64 * 16);
        ops.smem_bytes = processed * 16;
        workload.push(KernelTrace::new(
            format!("bfs-{}-level{}", variant.label(), i + 1),
            processed.div_ceil(8).max(1),
            256,
            4096,
            ops,
            latency::GMEM_RT + latency::MMA_B1 + latency::SMEM_RT,
        ));
    }
    workload
}

/// Direction-optimizing push/pull BFS (Gunrock-style baseline).
fn run_push_pull(g: &CsrGraph, source: usize) -> (Vec<i32>, WorkloadTrace) {
    let rev = g.reverse();
    let n = g.n;
    let mut level = vec![-1i32; n];
    level[source] = 0;
    let mut frontier = vec![source as u32];
    let mut next = Vec::new();
    let mut unvisited = n as u64 - 1;
    let mut workload = WorkloadTrace::default();
    let mut depth = 0i32;
    while !frontier.is_empty() {
        depth += 1;
        let frontier_edges: u64 = frontier.iter().map(|&u| g.degree(u as usize) as u64).sum();
        let unvisited_edges = unvisited * (g.num_arcs() as u64 / n.max(1) as u64).max(1);
        let mut ops = OpCounters::default();
        next.clear();
        if frontier_edges > unvisited_edges / 14 && unvisited > 0 {
            // Pull: every unvisited vertex scans its in-neighbours until
            // it finds a frontier parent.
            let mut inspections = 0u64;
            for v in 0..n {
                if level[v] >= 0 {
                    continue;
                }
                for &u in rev.neighbors(v) {
                    inspections += 1;
                    if level[u as usize] == depth - 1 {
                        level[v] = depth;
                        next.push(v as u32);
                        break;
                    }
                }
            }
            ops.int_ops = inspections * 4;
            ops.gmem_load = MemTraffic::strided(inspections * 4)
                + MemTraffic::random(inspections * 4)
                + MemTraffic::coalesced((n as u64) * 8);
            ops.gmem_store = MemTraffic::coalesced(next.len() as u64 * 4);
        } else {
            // Push: expand the frontier queue.
            let mut inspections = 0u64;
            for &u in frontier.iter() {
                for &v in g.neighbors(u as usize) {
                    inspections += 1;
                    if level[v as usize] < 0 {
                        level[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            ops.int_ops = inspections * 4 + next.len() as u64 * 2;
            ops.gmem_load = MemTraffic::strided(inspections * 4)
                + MemTraffic::random(inspections * 4)
                + MemTraffic::coalesced(frontier.len() as u64 * 12);
            ops.gmem_store = MemTraffic::random(next.len() as u64 * 8);
        }
        unvisited -= next.len() as u64;
        workload.push(KernelTrace::new(
            format!("bfs-Baseline-level{depth}"),
            (frontier.len() as u64).div_ceil(256).max(1),
            256,
            0,
            ops,
            latency::GMEM_RT * 2.0,
        ));
        std::mem::swap(&mut frontier, &mut next);
    }
    (level, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_graph::generators;

    fn graphs() -> Vec<CsrGraph> {
        vec![
            generators::mycielskian(8),
            generators::grid_graph(20, 30),
            generators::kron_g500(10, 12, 3),
            generators::rmat(1 << 10, 6 << 10, 0.5, 0.2, 0.2, 0.1, 9, false),
        ]
    }

    #[test]
    fn all_variants_match_serial_levels() {
        for (gi, g) in graphs().iter().enumerate() {
            let src = g.max_degree_vertex();
            let gold = reference(g, src);
            for v in Variant::ALL {
                let (levels, _) = run(g, src, v);
                assert_eq!(levels, gold, "graph {gi}, variant {v}");
            }
        }
    }

    #[test]
    fn trace_has_one_launch_per_level() {
        let g = generators::grid_graph(12, 12);
        let src = 0;
        let gold = reference(&g, src);
        let max_depth = *gold.iter().max().unwrap();
        // One launch per discovered level plus the final empty-frontier
        // check (which real implementations also pay).
        let t = trace(&g, src, Variant::Tc);
        assert_eq!(t.launches(), max_depth as usize + 1);
    }

    #[test]
    fn tc_counts_bit_mmas() {
        let g = generators::kron_g500(10, 16, 5);
        let t = trace(&g, g.max_degree_vertex(), Variant::Tc).total_ops();
        assert!(t.mma_b1 > 0);
        assert_eq!(t.fma_f64, 0, "BFS performs no floating point");
        assert_eq!(t.mma_f64, 0);
    }

    #[test]
    fn cc_replaces_bit_mma_with_int_ops() {
        let g = generators::grid_graph(16, 16);
        let src = 0;
        let tc = trace(&g, src, Variant::Tc).total_ops();
        let cc = trace(&g, src, Variant::Cc).total_ops();
        assert_eq!(cc.mma_b1, 0);
        assert!(cc.int_ops > tc.int_ops);
        // Bit work is conserved: 768 int ops stand in for each 8192-bitop
        // MMA.
        assert!(cc.int_ops as f64 > tc.mma_b1 as f64 * 700.0);
    }

    #[test]
    fn cce_does_less_lane_work_than_cc() {
        let g = generators::kron_g500(9, 10, 7);
        let src = g.max_degree_vertex();
        let cc = trace(&g, src, Variant::Cc).total_ops();
        let cce = trace(&g, src, Variant::CcE).total_ops();
        assert!(cce.int_ops < cc.int_ops);
        assert_eq!(cce.gmem_bytes(), cc.gmem_bytes(), "same traffic");
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        let g = CsrGraph::from_edges(64, &[(0, 1), (1, 2), (10, 11)], true);
        for v in Variant::ALL {
            let (levels, _) = run(&g, 0, v);
            assert_eq!(levels[2], 2, "{v}");
            assert_eq!(levels[10], -1, "{v}");
            assert_eq!(levels[63], -1, "{v}");
        }
    }

    #[test]
    fn baseline_switches_to_pull_on_dense_frontier() {
        // A star graph: after one hop the frontier covers everything —
        // the heuristic must take the pull branch at least once on a
        // dense expansion.
        let n = 1 << 12;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        edges.extend((1..200u32).map(|v| (v, v + 200)));
        let g = CsrGraph::from_edges(n, &edges, true);
        let (levels, t) = run(&g, 0, Variant::Baseline);
        assert_eq!(levels[1], 1);
        assert!(t.launches() >= 2);
    }

    #[test]
    fn row_hit_is_the_mma_diagonal() {
        use cubie_core::mma::mma_b1_m8n8k128_and_popc;
        let mut rng = cubie_core::SplitMix64::new(11);
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
            let mut scratch = OpCounters::default();
            mma_b1_m8n8k128_and_popc(&rows, &[seg; 8], &mut c, &mut scratch);
            for r in 0..BLOCK_ROWS {
                assert_eq!(c[r * 8 + r], (rows[r] & seg).count_ones(), "round {round}");
                assert_eq!(c[r * 8 + r] > 0, rows[r] & seg != 0, "round {round}");
            }
        }
    }

    #[test]
    fn singleton_source_terminates() {
        let g = CsrGraph::from_edges(4, &[(1, 2)], true);
        for v in Variant::ALL {
            let (levels, _) = run(&g, 3, v);
            assert_eq!(levels, vec![-1, -1, -1, 0], "{v}");
        }
    }
}
