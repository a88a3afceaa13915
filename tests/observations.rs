//! Integration tests for the observations not covered by
//! `paper_shapes.rs`: O2 (quadrants), O6 (EDP), O7 (numerics),
//! O8 (memory regularization) and O9 (suite diversity).

use cubie::analysis::errors::{table6, ErrorScale};
use cubie::analysis::quadrants::{utilization_of, utilizations};
use cubie::bench::artifacts::suite_study;
use cubie::device::h200;
use cubie::kernels::{prepare_cases, Quadrant, Variant, Workload};
use cubie::sim::{power_report, time_workload};

#[test]
fn o2_quadrant_utilizations_partition_the_suite() {
    let mut by_quadrant = std::collections::HashMap::new();
    for u in utilizations() {
        *by_quadrant
            .entry(u.workload.spec().quadrant.label())
            .or_insert(0usize) += 1;
    }
    assert_eq!(by_quadrant["I"], 4);
    assert_eq!(by_quadrant["II"], 1);
    assert_eq!(by_quadrant["III"], 1);
    assert_eq!(by_quadrant["IV"], 4);
}

/// (sparse_scale, graph_scale) of the regular tier-1 runs — the pinned
/// golden reduction. The milder scales previously used here are still
/// exercised by [`full_scale_observations`] (opt-in).
const REDUCED: (usize, usize) = (64, 512);

fn assert_o6_tc_reduces_edp((ss, gs): (usize, usize)) {
    let dev = h200();
    for q in [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV] {
        let mut log_ratio = 0.0;
        let mut count = 0usize;
        for w in Workload::ALL.iter().filter(|w| w.spec().quadrant == q) {
            if w.spec().baseline.is_none() {
                continue;
            }
            let cases = prepare_cases(*w, ss, gs);
            let case = &cases[2];
            let tc = power_report(
                &dev,
                &time_workload(&dev, &case.trace(Variant::Tc).unwrap()),
                100,
            );
            let base = power_report(
                &dev,
                &time_workload(&dev, &case.trace(Variant::Baseline).unwrap()),
                100,
            );
            log_ratio += (tc.edp / base.edp).ln();
            count += 1;
        }
        let geomean = (log_ratio / count as f64).exp();
        // The paper reports 30–80 % quadrant-geomean reductions; FFT drags
        // Quadrant I in our model too, so require a reduction for II–IV
        // and allow Quadrant I to be carried by GEMM/Stencil.
        if q != Quadrant::I {
            assert!(
                geomean < 1.0,
                "Q{q}: TC geomean EDP ratio {geomean:.2} should be < 1 (O6)"
            );
        }
        println!("Q{q}: TC/baseline geomean EDP ratio {geomean:.3}");
    }
}

#[test]
fn o6_tc_reduces_geomean_edp_in_every_quadrant() {
    assert_o6_tc_reduces_edp(REDUCED);
}

#[test]
fn o7_tc_and_cc_are_numerically_identical_everywhere() {
    // table6 asserts bit-identity internally for all nine FP workloads.
    let rows = table6(ErrorScale::Quick);
    assert_eq!(rows.len(), 9);
    for r in &rows {
        assert!(r.tc_cc.avg.is_finite());
        // Every error is tiny in absolute terms (FP64 on (-2,2) data).
        assert!(r.tc_cc.max < 1e-8, "{:?}", r.workload);
    }
}

#[test]
fn o7_transformations_can_move_the_error() {
    // At least one workload must show baseline ≠ TC error (accumulation
    // order differs) — the paper's reproducibility caution.
    let rows = table6(ErrorScale::Quick);
    let moved = rows
        .iter()
        .filter(|r| {
            r.baseline
                .map(|b| (b.avg - r.tc_cc.avg).abs() > f64::EPSILON)
                .unwrap_or(false)
        })
        .count();
    assert!(moved >= 3, "only {moved} workloads moved error");
}

fn assert_o8_tc_more_coalesced((ss, gs): (usize, usize)) {
    for w in [Workload::Spmv, Workload::Gemv] {
        let cases = prepare_cases(w, ss, gs);
        let case = &cases[2];
        let frac = |v: Variant| {
            let ops = case.trace(v).unwrap().total_ops();
            let total = ops.gmem_load.total() + ops.gmem_store.total();
            (ops.gmem_load.coalesced + ops.gmem_store.coalesced) as f64 / total.max(1) as f64
        };
        assert!(
            frac(Variant::Tc) > frac(Variant::Baseline),
            "{w:?}: TC should be more coalesced"
        );
    }
}

#[test]
fn o8_tc_coalesced_fraction_dominates_baseline_on_quadrant_iv() {
    assert_o8_tc_more_coalesced(REDUCED);
}

fn assert_o9_cubie_most_diverse((ss, gs): (usize, usize)) {
    let study = suite_study(ss, gs);
    let spread = |s: &str| {
        study
            .spread
            .iter()
            .find(|(n, _)| *n == s)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(spread("Cubie") > spread("Rodinia"));
    assert!(spread("Cubie") > spread("SHOC"));
}

#[test]
fn o9_cubie_is_the_most_diverse_suite() {
    assert_o9_cubie_most_diverse(REDUCED);
}

/// O6/O8/O9 at the milder scales they originally ran at. Ignored by
/// default; opt in with
/// `CUBIE_FULL_SCALE_TESTS=1 cargo test --release -- --ignored`.
#[test]
#[ignore = "larger scales; set CUBIE_FULL_SCALE_TESTS=1 and pass --ignored"]
fn full_scale_observations() {
    if std::env::var("CUBIE_FULL_SCALE_TESTS").ok().as_deref() != Some("1") {
        eprintln!("skipping full-scale observations: set CUBIE_FULL_SCALE_TESTS=1 to opt in");
        return;
    }
    assert_o6_tc_reduces_edp((8, 64));
    assert_o8_tc_more_coalesced((8, 64));
    assert_o9_cubie_most_diverse((32, 256));
}

#[test]
fn o2_output_utilization_tracks_quadrants() {
    for u in utilizations() {
        let q = u.workload.spec().quadrant;
        assert_eq!(q.full_output(), u.output >= 1.0, "{:?}", u.workload);
        assert_eq!(q.full_input(), u.input >= 1.0, "{:?}", u.workload);
    }
    // Spot values from Figure 2's discussion.
    assert_eq!(utilization_of(Workload::Spgemm).output, 0.5);
    assert_eq!(utilization_of(Workload::Reduction).output, 1.0 / 64.0);
}
