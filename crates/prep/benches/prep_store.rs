//! `prep-warm` criterion group: warm snapshot loads of the Table 4 set.
//!
//! The one-off populate before the timed loop is the cold path; every
//! timed iteration is a pure warm load.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use cubie_prep::{table4_matrices_with, PrepConfig};

const SCALE: usize = 16;

fn bench_cfg(tag: &str) -> PrepConfig {
    let dir = std::env::temp_dir().join(format!("cubie_prep_bench_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    PrepConfig { enabled: true, dir }
}

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// prep-warm: serve the same set from recorded snapshots.
fn prep_warm_load(c: &mut Criterion) {
    let cfg = bench_cfg("warm");
    // Populate once; every timed iteration is then a pure warm load.
    let _ = table4_matrices_with(&cfg, SCALE);
    let mut g = quick(c, "prep-warm");
    g.bench_function("table4_warm_load", |b| {
        b.iter(|| std::hint::black_box(table4_matrices_with(&cfg, SCALE)))
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

criterion_group!(benches, prep_warm_load);
criterion_main!(benches);
