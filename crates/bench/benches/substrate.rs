//! Criterion benchmarks of the sparse substrate: the naive CSR SpMV, the
//! MBSR and DASP format builds, and matrix generation (dominated by
//! COO→CSR assembly).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use cubie_core::LcgF64;

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

criterion_group!(benches, bench_sparse);
criterion_main!(benches);
