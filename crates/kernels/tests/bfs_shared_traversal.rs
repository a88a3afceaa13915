//! All four BFS variants of one prepared case share a single pull
//! traversal, memoised on the case's graph, even when their traces are
//! built concurrently (as `SweepCache::ensure`'s parallel fan-out does).

use std::sync::Arc;

use cubie_graph::generators;
use cubie_kernels::{PreparedCase, Variant};

fn bfs_case() -> PreparedCase {
    let graph = generators::kron_g500(12, 16, 3);
    PreparedCase::Bfs {
        info: generators::table3_specs()[4],
        source: graph.max_degree_vertex(),
        graph: Box::new(graph),
    }
}

#[test]
fn concurrent_variants_share_one_traversal() {
    let case = bfs_case();
    let PreparedCase::Bfs { graph, source, .. } = &case else {
        unreachable!()
    };
    let variants = Variant::ALL;
    let seen: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = variants
            .iter()
            .map(|&v| {
                let case = &case;
                s.spawn(move || (case.trace(v), graph.pull_bfs(*source)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shared = graph.pull_bfs(*source);
    for (v, (trace, traversal)) in variants.iter().zip(&seen) {
        assert_eq!(trace, &bfs_case().trace(*v), "{v}");
        assert!(Arc::ptr_eq(traversal, &shared), "{v} saw another traversal");
    }
}
