//! Criterion benchmarks of the substrates: the MMA emulation, sparse
//! formats, graph traversal, generators and PCA.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use cubie_core::mma::{cc_mma_f64_m8n8k4, mma_b1_m8n8k128_and_popc, mma_f64_m8n8k4};
use cubie_core::{LcgF64, OpCounters};

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g
}

fn bench_mma(c: &mut Criterion) {
    let mut rng = LcgF64::new(1);
    let mut a = [0.0; 32];
    let mut b = [0.0; 32];
    let mut cm = [0.0; 64];
    rng.fill(&mut a);
    rng.fill(&mut b);
    rng.fill(&mut cm);
    let mut g = quick(c, "mma_emulation");
    g.bench_function("mma_f64_m8n8k4", |bench| {
        bench.iter(|| {
            let mut ctr = OpCounters::new();
            let mut cc = cm;
            mma_f64_m8n8k4(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &mut cc,
                &mut ctr,
            );
            cc
        })
    });
    g.bench_function("cc_mma_f64_m8n8k4", |bench| {
        bench.iter(|| {
            let mut ctr = OpCounters::new();
            let mut cc = cm;
            cc_mma_f64_m8n8k4(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &mut cc,
                &mut ctr,
            );
            cc
        })
    });
    let rows = [u128::MAX; 8];
    let cols = [0x5555_5555_5555_5555_5555_5555_5555_5555u128; 8];
    g.bench_function("mma_b1_m8n8k128", |bench| {
        bench.iter(|| {
            let mut ctr = OpCounters::new();
            let mut cm = [0u32; 64];
            mma_b1_m8n8k128_and_popc(
                std::hint::black_box(&rows),
                std::hint::black_box(&cols),
                &mut cm,
                &mut ctr,
            );
            cm
        })
    });
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let m = cubie_sparse::generators::conf5_like(8);
    let x: Vec<f64> = LcgF64::new(3).vec(m.cols);
    let mut g = quick(c, "sparse_substrate");
    g.bench_function("spmv_naive_conf5_eighth", |bench| {
        bench.iter(|| std::hint::black_box(m.spmv_naive(&x)))
    });
    g.bench_function("mbsr_from_csr", |bench| {
        bench.iter(|| std::hint::black_box(cubie_sparse::Mbsr::from_csr(&m)))
    });
    g.bench_function("dasp_format_build", |bench| {
        bench.iter(|| std::hint::black_box(cubie_kernels::spmv::DaspFormat::from_csr(&m)))
    });
    // Generation is dominated by COO→CSR assembly (`Csr::from_coo`).
    g.bench_function("generate_bcsstk39_eighth", |bench| {
        bench.iter(|| {
            std::hint::black_box(cubie_sparse::generators::bcsstk39_like(
                std::hint::black_box(8),
            ))
        })
    });
    g.bench_function("generate_diverse_corpus_80", |bench| {
        bench.iter(|| {
            std::hint::black_box(cubie_sparse::generators::diverse_corpus(
                std::hint::black_box(80),
                0xF16B,
            ))
        })
    });
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let graph = cubie_graph::generators::kron_g500(13, 16, 5);
    let mut g = quick(c, "graph_substrate");
    g.bench_function("bfs_serial_kron13", |bench| {
        bench.iter(|| std::hint::black_box(graph.bfs_serial(0)))
    });
    g.bench_function("mycielskian_10", |bench| {
        bench.iter(|| std::hint::black_box(cubie_graph::generators::mycielskian(10)))
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let samples: Vec<Vec<f64>> = {
        let mut rng = LcgF64::new(7);
        (0..500).map(|_| rng.vec(10)).collect()
    };
    let mut g = quick(c, "analysis_substrate");
    g.bench_function("pca_fit_500x10", |bench| {
        bench.iter(|| std::hint::black_box(cubie_analysis::Pca::fit(&samples)))
    });
    let m = cubie_sparse::generators::bcsstk39_like(8);
    g.bench_function("matrix_features", |bench| {
        bench.iter(|| std::hint::black_box(cubie_sparse::MatrixFeatures::of(&m)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mma,
    bench_sparse,
    bench_graph,
    bench_analysis
);
criterion_main!(benches);
