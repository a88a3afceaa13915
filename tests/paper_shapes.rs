//! Integration tests asserting the paper's headline result *shapes*:
//! which variant wins per workload/quadrant/device and by roughly what
//! factor (Figures 3–6 and the nine observations). Absolute numbers are
//! not asserted — the substrate is a model, not the authors' testbed.
//!
//! The regular tests run at the pinned reduced golden scales (sparse
//! matrices ÷64, graphs ÷512) so the suite stays inside the tier-1 time
//! budget; the degree-distribution classes — and hence the shapes —
//! persist across scale. The published full sizes are still covered by
//! [`full_scale_paper_shapes`], an `#[ignore]`d test that only runs when
//! `CUBIE_FULL_SCALE_TESTS=1` is set:
//!
//! ```text
//! CUBIE_FULL_SCALE_TESTS=1 cargo test --release --test paper_shapes -- --ignored
//! ```

use std::sync::Arc;

use cubie::bench::SweepCache;
use cubie::device::{all_devices, DeviceSpec};
use cubie::kernels::{Variant, Workload};
use cubie::sim::{time_workload, WorkloadTrace};

/// (sparse_scale, graph_scale) of the regular tier-1 runs — the same
/// pinned reduction the golden artifacts use.
const REDUCED: (usize, usize) = (64, 512);

/// The paper's published sizes: sparse matrices at full scale, graphs at
/// 1/16 (the full 90–234M-arc graphs need several GB).
const FULL: (usize, usize) = (1, 16);

/// Cached trace of (workload, case index, variant), via the shared sweep
/// cache: each workload's five cases and all variant traces are prepared
/// once per test process, no matter which test asks first.
fn trace_of(
    w: Workload,
    idx: usize,
    v: Variant,
    (ss, gs): (usize, usize),
) -> Option<Arc<WorkloadTrace>> {
    SweepCache::global()
        .ensure(w, ss, gs)
        .trace(idx, v)
        .cloned()
}

/// Geomean speedup of `a` over `b` across the five Table 2 cases.
fn geomean_speedup(
    w: Workload,
    dev: &DeviceSpec,
    a: Variant,
    b: Variant,
    scales: (usize, usize),
) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for idx in 0..5 {
        let (Some(ta), Some(tb)) = (trace_of(w, idx, a, scales), trace_of(w, idx, b, scales))
        else {
            continue;
        };
        let sa = time_workload(dev, &ta).total_s;
        let sb = time_workload(dev, &tb).total_s;
        log_sum += (sb / sa).ln();
        count += 1;
    }
    assert!(count > 0, "no comparable cases for {w:?}");
    (log_sum / count as f64).exp()
}

fn print_speedup(
    w: Workload,
    dev: &DeviceSpec,
    a: Variant,
    b: Variant,
    scales: (usize, usize),
) -> f64 {
    let s = geomean_speedup(w, dev, a, b, scales);
    println!(
        "{:>9} {:28} {a} vs {b}: {s:.2}x",
        format!("{w:?}"),
        dev.name
    );
    s
}

fn assert_fig4_tc_beats_baseline(workloads: &[Workload], scales: (usize, usize)) {
    for dev in all_devices() {
        for &w in workloads {
            let s = print_speedup(w, &dev, Variant::Tc, Variant::Baseline, scales);
            assert!(
                s > 1.05,
                "{w:?} on {}: TC speedup {s:.2} should exceed 1 (paper Fig. 4)",
                dev.name
            );
            assert!(
                s < 10.0,
                "{w:?} on {}: TC speedup {s:.2} implausibly large",
                dev.name
            );
        }
    }
}

fn assert_fig4_fft_tc_loses(scales: (usize, usize)) {
    for dev in all_devices() {
        let s = print_speedup(Workload::Fft, &dev, Variant::Tc, Variant::Baseline, scales);
        assert!(
            s < 1.0,
            "FFT TC should underperform the cuFFT-style baseline (paper §6.1); got {s:.2}"
        );
        assert!(s > 0.3, "FFT TC loss {s:.2} too extreme");
    }
}

fn assert_fig5_cc_is_slower(scales: (usize, usize)) {
    for dev in all_devices() {
        for w in Workload::ALL {
            let s = geomean_speedup(w, &dev, Variant::Cc, Variant::Tc, scales);
            println!("{:>9} {:28} CC vs TC: {s:.2}x", format!("{w:?}"), dev.name);
            assert!(
                s <= 1.02,
                "{w:?} on {}: CC should not beat TC (paper Fig. 5); got {s:.2}",
                dev.name
            );
            assert!(
                s > 0.08,
                "{w:?} on {}: CC slowdown {s:.2} implausible",
                dev.name
            );
        }
    }
}

fn assert_fig5_gemm_cc_tracks_peak_ratio(scales: (usize, usize)) {
    for dev in all_devices() {
        let s = geomean_speedup(Workload::Gemm, &dev, Variant::Cc, Variant::Tc, scales);
        let expected = 1.0 / dev.tc_cc_ratio();
        assert!(
            (s - expected).abs() < 0.2,
            "GEMM CC/TC on {}: {s:.2} vs peak ratio {expected:.2}",
            dev.name
        );
    }
}

fn assert_fig6_spmv_cce_recovers(scales: (usize, usize)) {
    for dev in all_devices() {
        let s = geomean_speedup(Workload::Spmv, &dev, Variant::CcE, Variant::Tc, scales);
        println!("SpMV CC-E vs TC on {}: {s:.2}x", dev.name);
        assert!(
            (0.95..=1.4).contains(&s),
            "SpMV CC-E should be around 1.0–1.2× of TC (paper Fig. 6); got {s:.2} on {}",
            dev.name
        );
    }
}

fn assert_fig6_scan_reduction_cce_underperforms(scales: (usize, usize)) {
    for dev in all_devices() {
        for w in [Workload::Scan, Workload::Reduction] {
            let s = geomean_speedup(w, &dev, Variant::CcE, Variant::Tc, scales);
            println!("{w:?} CC-E vs TC on {}: {s:.2}x", dev.name);
            assert!(
                s < 0.9,
                "{w:?} CC-E should clearly underperform TC (paper Fig. 6); got {s:.2} on {}",
                dev.name
            );
        }
    }
}

fn assert_quadrant_iv_benefits_from_b200(scales: (usize, usize)) {
    // B200 has lower FP64 TC peak than H200 but double the bandwidth:
    // memory-bound Quadrant IV TC kernels must not regress (paper §6.1).
    let devs = all_devices();
    let (h200, b200) = (&devs[1], &devs[2]);
    for w in [Workload::Spmv, Workload::Bfs, Workload::Spgemm] {
        let mut h_total = 0.0;
        let mut b_total = 0.0;
        for idx in 0..5 {
            let t = trace_of(w, idx, Variant::Tc, scales).unwrap();
            h_total += time_workload(h200, &t).total_s;
            b_total += time_workload(b200, &t).total_s;
        }
        println!("{w:?}: H200 {h_total:.3e}s vs B200 {b_total:.3e}s");
        assert!(
            b_total < h_total * 1.05,
            "{w:?}: B200 ({b_total:.3e}s) should be competitive with H200 ({h_total:.3e}s)"
        );
    }
}

/// The eight Fig. 4 workloads where TC wins. SpMV is excluded here: its
/// TC advantage comes from the dense block structure of the full Table 4
/// matrices and genuinely inverts below ~half the published size, so it
/// keeps full sparse scale in [`fig4_spmv_tc_beats_baseline`].
const FIG4_SCALE_ROBUST: [Workload; 6] = [
    Workload::Gemm,
    Workload::Stencil,
    Workload::Scan,
    Workload::Reduction,
    Workload::Bfs,
    Workload::Gemv,
];

#[test]
fn fig4_tc_beats_baseline_where_paper_says() {
    assert_fig4_tc_beats_baseline(&FIG4_SCALE_ROBUST, REDUCED);
}

#[test]
fn fig4_spmv_tc_beats_baseline() {
    // Full sparse scale (the shape is scale-sensitive); graphs are unused
    // by SpMV, so the graph divisor stays at the cheap pinned value.
    assert_fig4_tc_beats_baseline(&[Workload::Spmv], (1, REDUCED.1));
}

#[test]
fn fig4_spgemm_tc_beats_baseline() {
    // SpGEMM's B200 advantage thins below ~1/16 of the published sizes
    // (1.02× at ÷32), so it gets the mildest reduction that stays cheap.
    assert_fig4_tc_beats_baseline(&[Workload::Spgemm], (16, REDUCED.1));
}

#[test]
fn fig4_fft_tc_loses_to_cufft() {
    assert_fig4_fft_tc_loses(REDUCED);
}

#[test]
fn fig5_cc_is_slower_than_tc() {
    assert_fig5_cc_is_slower(REDUCED);
}

#[test]
fn fig5_gemm_cc_tracks_the_peak_ratio() {
    assert_fig5_gemm_cc_tracks_peak_ratio(REDUCED);
}

#[test]
fn fig6_spmv_cce_recovers_redundancy() {
    assert_fig6_spmv_cce_recovers(REDUCED);
}

#[test]
fn fig6_scan_reduction_cce_underperforms_tc() {
    assert_fig6_scan_reduction_cce_underperforms(REDUCED);
}

#[test]
fn quadrant_iv_benefits_from_b200_bandwidth() {
    assert_quadrant_iv_benefits_from_b200(REDUCED);
}

/// Every shape assertion at the paper's published sizes. Ignored by
/// default (multi-minute in debug builds); opt in with
/// `CUBIE_FULL_SCALE_TESTS=1 cargo test --release -- --ignored`.
#[test]
#[ignore = "published full scales; set CUBIE_FULL_SCALE_TESTS=1 and pass --ignored"]
fn full_scale_paper_shapes() {
    if std::env::var("CUBIE_FULL_SCALE_TESTS").ok().as_deref() != Some("1") {
        eprintln!("skipping full-scale shapes: set CUBIE_FULL_SCALE_TESTS=1 to opt in");
        return;
    }
    assert_fig4_tc_beats_baseline(&FIG4_SCALE_ROBUST, FULL);
    assert_fig4_tc_beats_baseline(&[Workload::Spmv, Workload::Spgemm], FULL);
    assert_fig4_fft_tc_loses(FULL);
    assert_fig5_cc_is_slower(FULL);
    assert_fig5_gemm_cc_tracks_peak_ratio(FULL);
    assert_fig6_spmv_cce_recovers(FULL);
    assert_fig6_scan_reduction_cce_underperforms(FULL);
    assert_quadrant_iv_benefits_from_b200(FULL);
}
