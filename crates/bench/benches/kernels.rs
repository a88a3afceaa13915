//! Criterion benchmark of the BFS workload's functional implementation:
//! one traversal per variant on a Kronecker graph, and the three bitmap
//! variants sharing one traversal. This measures this library's actual
//! CPU execution, while the `fig*` artifacts (`cubie figure`) hold the
//! simulated GPU times that reproduce the paper. CI runs it as
//! `cargo bench -p cubie-bench --bench kernels -- bfs_kron14`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use cubie_kernels::{bfs, Variant};

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g
}

fn bench_bfs(c: &mut Criterion) {
    let graph = cubie_graph::generators::kron_g500(14, 16, 7);
    let src = graph.max_degree_vertex();
    let mut g = quick(c, "bfs_kron14");
    // A graph memoises its bitmap traversal, so every iteration runs on
    // a fresh clone (empty memo) to time a traversal rather than a memo
    // hit. The clone is inside the timed region.
    for v in [Variant::Baseline, Variant::Tc] {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(bfs::run(&graph.clone(), src, v)))
        });
    }
    // The three bitmap variants of one case, as a sweep traces them.
    g.bench_function("bitmap_variants", |bench| {
        bench.iter(|| {
            let fresh = graph.clone();
            for v in [Variant::Tc, Variant::Cc, Variant::CcE] {
                std::hint::black_box(bfs::run(&fresh, src, v));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bfs);
criterion_main!(benches);
