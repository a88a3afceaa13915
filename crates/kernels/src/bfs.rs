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
//! All four variants share one profile: the levels; per launch the
//! slices the pull traversal processes (it skips bands whose rows are
//! all settled and slices whose frontier segment is empty) and the
//! vertices it discovers; and per level the vertices' out-arcs, in-arcs
//! and ranks, which the push/pull baseline inspects.
//! `cubie_graph::bitmap::pull_bfs` derives it from the CSR in one
//! traversal and one pass over the arcs, without building the bitmap or
//! the reversed graph, once per graph and source ([`CsrGraph::pull_bfs`]
//! memoises it). This module owns only the op accounting: TC, CC and
//! CC-E differ in how each processed slice is counted, and Baseline
//! counts its push and pull launches from the level totals.
//!
//! BFS performs no floating-point arithmetic; correctness is exact
//! level-by-level agreement with the serial reference.

use cubie_core::counters::MemTraffic;
use cubie_core::OpCounters;
use cubie_graph::bitmap::PullBfs;
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
///
/// # Panics
/// Panics if `source` is not a vertex of `g`, naming the source and `n`.
pub fn run(g: &CsrGraph, source: usize, variant: Variant) -> (Vec<i32>, WorkloadTrace) {
    let profile = g.pull_bfs(source);
    let trace = match variant {
        Variant::Baseline => baseline_trace(&profile, g.num_arcs()),
        Variant::Tc | Variant::Cc | Variant::CcE => trace_from_profile(&profile, variant),
    };
    (profile.levels.clone(), trace)
}

/// Trace-only entry point. BFS traces are data-dependent, so this runs
/// the traversal; `run` and `trace` share one path. Every variant counts
/// from the graph's memoised `cubie_graph::bitmap` pull profile, which
/// is computed once per graph and source.
pub fn trace(g: &CsrGraph, source: usize, variant: Variant) -> WorkloadTrace {
    run(g, source, variant).1
}

/// Useful traversal work: arcs in the graph (for GTEPS reporting).
pub fn useful_edges(g: &CsrGraph) -> f64 {
    g.num_arcs() as f64
}

/// One launch per profiled level, counted for the variant's pipes.
fn trace_from_profile(profile: &PullBfs, variant: Variant) -> WorkloadTrace {
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

/// Direction-optimizing push/pull BFS (Gunrock-style baseline), counted
/// from the shared profile's
/// [`LevelArcs`](cubie_graph::bitmap::LevelArcs).
///
/// The traversal this stands for runs one launch per depth `d = 1, 2, …`
/// from the frontier of level `d − 1`, until the frontier is empty. It
/// pulls when the frontier's out-arcs exceed 1/14 of the unvisited
/// vertices' estimated arcs, and pushes otherwise. Both discover exactly
/// the level-`d` vertices, so every count follows from the levels:
///
/// * **Push** inspects Σ out-degree over level `d − 1`.
/// * **Pull** has every unvisited vertex scan its in-arcs, sources
///   ascending, until one comes from level `d − 1`. A level-`d` vertex
///   stops at its rank; a deeper or unreached vertex has no such arc and
///   scans all its in-arcs.
/// * **The choice** and the unvisited count follow from the level
///   histogram.
fn baseline_trace(profile: &PullBfs, num_arcs: usize) -> WorkloadTrace {
    let n = profile.levels.len();
    let (reached, unreached) = profile.level_arcs.split_at(profile.level_arcs.len() - 1);
    let arcs_per_vertex = (num_arcs as u64 / n as u64).max(1);
    let mut unvisited = n as u64 - 1;
    // In-arcs of the vertices deeper than the launch's level, or unreached.
    let mut deeper_in: u64 = reached[1..]
        .iter()
        .chain(unreached)
        .map(|l| l.in_arcs)
        .sum();
    let mut workload = WorkloadTrace::default();
    for depth in 1..=reached.len() {
        let frontier = reached[depth - 1];
        // The last launch discovers nothing.
        let next = reached.get(depth).copied().unwrap_or_default();
        deeper_in -= next.in_arcs;
        let unvisited_edges = unvisited * arcs_per_vertex;
        let mut ops = OpCounters::default();
        if frontier.out_arcs > unvisited_edges / 14 && unvisited > 0 {
            let inspections = next.rank_sum + deeper_in;
            ops.int_ops = inspections * 4;
            ops.gmem_load = MemTraffic::strided(inspections * 4)
                + MemTraffic::random(inspections * 4)
                + MemTraffic::coalesced((n as u64) * 8);
            ops.gmem_store = MemTraffic::coalesced(next.vertices * 4);
        } else {
            let inspections = frontier.out_arcs;
            ops.int_ops = inspections * 4 + next.vertices * 2;
            ops.gmem_load = MemTraffic::strided(inspections * 4)
                + MemTraffic::random(inspections * 4)
                + MemTraffic::coalesced(frontier.vertices * 12);
            ops.gmem_store = MemTraffic::random(next.vertices * 8);
        }
        unvisited -= next.vertices;
        workload.push(KernelTrace::new(
            format!("bfs-Baseline-level{depth}"),
            frontier.vertices.div_ceil(256).max(1),
            256,
            0,
            ops,
            latency::GMEM_RT * 2.0,
        ));
    }
    workload
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
    fn singleton_source_terminates() {
        let g = CsrGraph::from_edges(4, &[(1, 2)], true);
        for v in Variant::ALL {
            let (levels, _) = run(&g, 3, v);
            assert_eq!(levels, vec![-1, -1, -1, 0], "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "BFS source 64 is outside 0..64")]
    fn bad_source_panics_naming_it() {
        let g = CsrGraph::from_edges(64, &[(0, 1)], true);
        run(&g, 64, Variant::Tc);
    }

    #[test]
    #[should_panic(expected = "BFS source 0 is outside 0..0")]
    fn empty_graph_has_no_source() {
        let g = CsrGraph::from_edges(0, &[], false);
        run(&g, g.max_degree_vertex(), Variant::Baseline);
    }
}
