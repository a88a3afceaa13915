//! Hot-path microbenchmarks for the execution substrate: simd-vs-scalar
//! groups for the three vectorized inner kernels (every compiled+supported
//! `cubie_core::simd` path on the same inputs — the scalar rows are the
//! baseline of the ≥2x dispatch-speedup target).
//!
//! Run with `cargo bench -p cubie-core --bench hotpath -- simd`; the
//! offline criterion stand-in prints median ns/iter per case (see README,
//! "Offline dependencies"). Set `CUBIE_CRITERION_JSON=<path>` to capture
//! the results as the machine-readable baseline CI uploads.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cubie_core::rng::LcgF64;
use cubie_core::simd::{self, StarTap};

/// The three vectorized inner kernels, once per supported SIMD path on
/// identical inputs. Labels follow `simd-<kernel>/<path>/<shape>` so
/// `-- simd` filters to these groups and a path's rows diff cleanly
/// against `scalar`'s.
fn bench_simd_paths(c: &mut Criterion) {
    let paths = simd::supported_paths();
    let mut rng = LcgF64::new(42);

    // Strided MMA core: a 32-tile band per iteration (the trace phase's
    // dominant op), tiles side by side in one wide row-major C.
    const TILES: usize = 32;
    let a = rng.vec(8 * 4);
    let b = rng.vec(4 * 8 * TILES);
    let mut cbuf = rng.vec(8 * 8 * TILES);
    let mut g = c.benchmark_group("simd-mma-strided");
    g.sample_size(50)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &p in &paths {
        g.bench_function(format!("{}/8x{}-band", p.label(), 8 * TILES), |bch| {
            bch.iter(|| {
                for t in 0..TILES {
                    simd::mma_f64_m8n8k4_strided_on(
                        p,
                        &a,
                        0,
                        4,
                        &b,
                        t * 8,
                        8 * TILES,
                        &mut cbuf,
                        t * 8,
                        8 * TILES,
                    );
                }
                black_box(cbuf[0])
            })
        });
    }
    g.finish();

    // CSR SpMV row: one long row (4096 nonzeros) with a strided column
    // pattern against a 64k-element vector.
    let nnz = 4096usize;
    let xlen = 65_536usize;
    let vals = rng.vec(nnz);
    let x = rng.vec(xlen);
    let cols: Vec<u32> = (0..nnz).map(|i| ((i * 37) % xlen) as u32).collect();
    let mut g = c.benchmark_group("simd-spmv-row");
    g.sample_size(50)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &p in &paths {
        g.bench_function(format!("{}/nnz{nnz}", p.label()), |bch| {
            bch.iter(|| black_box(simd::spmv_csr_row_on(p, &vals, &cols, &x)))
        });
    }
    g.finish();

    // Stencil star row: one 4096-point row with the 2D radius-1 tap
    // structure (neighbour rows + shifted center slices).
    let n = 4096usize;
    let center = rng.vec(n + 2);
    let (north, south) = (rng.vec(n), rng.vec(n));
    let mut out = vec![0.0f64; n];
    let mut g = c.benchmark_group("simd-stencil-row");
    g.sample_size(50)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &p in &paths {
        g.bench_function(format!("{}/n{n}", p.label()), |bch| {
            bch.iter(|| {
                let taps = [
                    StarTap {
                        weight: 0.125,
                        a: &north,
                        b: &south,
                    },
                    StarTap {
                        weight: 0.125,
                        a: &center[0..n],
                        b: &center[2..n + 2],
                    },
                ];
                simd::star_row_on(p, 0.5, &center[1..n + 1], &taps, &mut out);
                black_box(out[0])
            })
        });
    }
    g.finish();
}

criterion_group!(hotpath, bench_simd_paths);
criterion_main!(hotpath);
