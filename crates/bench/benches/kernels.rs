//! Criterion benchmarks of the *functional* Rust implementations of the
//! ten workloads — one group per workload, one benchmark per variant, at
//! sizes chosen so `cargo bench` finishes in minutes. These measure this
//! library's actual CPU execution (useful for tracking the
//! implementation), while the `fig*` artifacts (`cubie figure`) hold the
//! simulated GPU times that reproduce the paper.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use cubie_kernels::{bfs, fft, gemm, gemv, pic, reduction, scan, spgemm, spmv, stencil, Variant};

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

fn bench_gemm(c: &mut Criterion) {
    let case = gemm::GemmCase::square(256);
    let (a, b) = gemm::inputs(&case);
    let mut g = quick(c, "gemm_256");
    for v in [Variant::Baseline, Variant::Tc] {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(gemm::run(&a, &b, v)))
        });
    }
    g.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let case = gemv::GemvCase { m: 32_768, n: 16 };
    let (a, x) = gemv::inputs(&case);
    let mut g = quick(c, "gemv_32768x16");
    for v in Variant::ALL {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(gemv::run(&a, &x, v)))
        });
    }
    g.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let m = cubie_sparse::generators::conf5_like(4);
    let x = spmv::input_vector(&m);
    let mut g = quick(c, "spmv_conf5_quarter");
    for v in Variant::ALL {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(spmv::run(&m, &x, v)))
        });
    }
    g.finish();
}

fn bench_spgemm(c: &mut Criterion) {
    let m = cubie_sparse::generators::chevron1_like(4);
    let mut g = quick(c, "spgemm_chevron_quarter");
    for v in [Variant::Baseline, Variant::Tc, Variant::CcE] {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(spgemm::run(&m, v)))
        });
    }
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let case = fft::FftCase {
        h: 64,
        w: 64,
        batch: 8,
    };
    let data = fft::input(&case);
    let mut g = quick(c, "fft_64x64xb8");
    for v in [Variant::Baseline, Variant::Tc] {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(fft::run(&case, &data, v)))
        });
    }
    g.finish();
}

fn bench_stencil(c: &mut Criterion) {
    let case = stencil::StencilCase::star2d(512, 512);
    let x = stencil::input(&case);
    let mut g = quick(c, "stencil_star2d_512");
    for v in [Variant::Baseline, Variant::Tc] {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(stencil::run(&case, &x, v)))
        });
    }
    g.finish();
}

fn bench_scan_reduction(c: &mut Criterion) {
    let x = scan::input(&scan::ScanCase { n: 1024 });
    let mut g = quick(c, "scan_1024");
    for v in Variant::ALL {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(scan::run(&x, v)))
        });
    }
    g.finish();
    let x = reduction::input(&reduction::ReductionCase { n: 1024 });
    let mut g = quick(c, "reduction_1024");
    for v in Variant::ALL {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(reduction::run(&x, v)))
        });
    }
    g.finish();
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

fn bench_pic(c: &mut Criterion) {
    let case = pic::PicCase { n: 16_384 };
    let (parts, grid) = pic::input(&case);
    let mut g = quick(c, "pic_16k");
    for v in [Variant::Tc, Variant::Cc] {
        g.bench_function(v.label(), |bench| {
            bench.iter(|| std::hint::black_box(pic::run(&case, &parts, &grid, v)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemv,
    bench_spmv,
    bench_spgemm,
    bench_fft,
    bench_stencil,
    bench_scan_reduction,
    bench_bfs,
    bench_pic
);
criterion_main!(benches);
