//! Differential cross-variant oracle, in the style of the sweep-based
//! model validations of "Dissecting Tensor Cores via Microbenchmarks"
//! (Sun et al.) and "Accurate Models of NVIDIA Tensor Cores" (Khattak &
//! Mikaitis): for every workload and case, the Baseline / TC / CC / CC-E
//! functional outputs must agree with the serial CPU ground truth within
//! the Table 6 error scale, and the essential-only CC-E variant must
//! never issue more work than the faithful CC port it strips down.

use cubie::analysis::errors::{table6, ErrorScale};
use cubie::bench::SweepCache;
use cubie::kernels::{bfs, gemm, MmaGen, Precision, Variant, Workload};

/// Table 6 reports avg/max FP64 errors between 5e-17 and ~5e-9 across
/// every workload/variant cell; 1e-8 bounds the whole published table.
const TABLE6_SCALE: f64 = 1e-8;

/// Reduced-size preparation scales shared by the counter tests (the
/// comparison is scale-invariant: CC-E strips redundancy at any size).
const SPARSE_SCALE: usize = 64;
const GRAPH_SCALE: usize = 512;

#[test]
fn all_variants_agree_within_table6_error_scale() {
    // `table6` itself computes every variant's element-wise error against the
    // serial CPU reference and asserts TC ≡ CC bit-identically; here we
    // pin every cell below the published error scale.
    for row in table6(ErrorScale::Quick) {
        assert!(
            row.tc_cc.max < TABLE6_SCALE,
            "{:?} ({}): TC/CC max error {:.3e} exceeds the Table 6 scale",
            row.workload,
            row.case_label,
            row.tc_cc.max
        );
        if let Some(b) = row.baseline {
            assert!(
                b.max < TABLE6_SCALE,
                "{:?} ({}): Baseline max error {:.3e} exceeds the Table 6 scale",
                row.workload,
                row.case_label,
                b.max
            );
        }
        if let Some(e) = row.cce {
            assert!(
                e.max < TABLE6_SCALE,
                "{:?} ({}): CC-E max error {:.3e} exceeds the Table 6 scale",
                row.workload,
                row.case_label,
                e.max
            );
        }
    }
}

#[test]
fn table6_reports_every_fp_workload_and_distinct_cce() {
    let rows = table6(ErrorScale::Quick);
    // Every workload except BFS (integer levels, no FP error) is covered.
    for w in Workload::ALL {
        assert_eq!(
            rows.iter().any(|r| r.workload == w),
            w != Workload::Bfs,
            "{w:?} coverage in the Table 6 differential study"
        );
    }
    // CC-E is reported exactly where the paper evaluates it as distinct.
    for row in &rows {
        assert_eq!(
            row.cce.is_some(),
            row.workload.spec().distinct_cce,
            "{:?}: CC-E column presence",
            row.workload
        );
    }
}

#[test]
fn bfs_variants_agree_exactly() {
    // BFS has no floating point: every variant must reproduce the serial
    // reference levels exactly (the paper verifies traversal equivalence).
    let g = cubie::graph::generators::kron_g500(12, 16, 5);
    let src = g.max_degree_vertex();
    let gold = bfs::reference(&g, src);
    for v in Workload::Bfs.variants() {
        let (levels, _) = bfs::run(&g, src, v);
        assert_eq!(
            levels, gold,
            "BFS {v} levels differ from the serial reference"
        );
    }
}

#[test]
fn mixed_precision_tc_and_cc_agree_bitwise_and_track_the_reference() {
    // The differential oracle extended along the new precision axis:
    // for every reduced operand format and both tensor-core
    // generations, the TC kernel and its CUDA-core replacement must be
    // bit-identical (Observation 7 carries over), and both must track
    // the FP64 serial reference within the operand format's unit
    // roundoff — the mixed-precision analogue of the Table 6 scale.
    let case = gemm::GemmCase {
        m: 96,
        n: 64,
        k: 80,
    };
    let (a, b) = gemm::inputs(&case);
    let reference = gemm::reference(&a, &b);
    // k = 80 accumulations of O(1) inputs: ~k·u headroom over the unit
    // roundoff u of each operand format (f16 u = 2^-11, bf16 u = 2^-8,
    // tf32 u = 2^-11; accumulation is f32 throughout).
    let tol = |p: Precision| match p {
        Precision::F16 | Precision::Tf32 => 3e-2,
        Precision::Bf16 => 2e-1,
        Precision::F64 => unreachable!(),
    };
    for p in [Precision::F16, Precision::Bf16, Precision::Tf32] {
        for gen in [MmaGen::Volta, MmaGen::Ampere] {
            let (tc, _) = gemm::run_precision(&a, &b, Variant::Tc, p, gen);
            let (cc, _) = gemm::run_precision(&a, &b, Variant::Cc, p, gen);
            for (i, (x, y)) in tc.iter().zip(&cc).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{p} {gen:?}: TC and CC diverge at element {i}"
                );
            }
            let mut max_rel = 0.0f64;
            for (got, want) in tc.iter().zip(reference.as_slice()) {
                let rel = (f64::from(*got) - want).abs() / want.abs().max(1.0);
                max_rel = max_rel.max(rel);
            }
            assert!(
                max_rel < tol(p),
                "{p} {gen:?}: max relative error {max_rel:.3e} exceeds the \
                 format scale {:.1e}",
                tol(p)
            );
        }
    }
}

#[test]
fn cce_never_issues_more_work_than_cc() {
    // CC-E strips the redundant (fill/identity) operations the faithful
    // CC port of the MMU algorithm performs (Section 5.2): its aggregate
    // op counters must be bounded by CC's for every workload where the
    // paper evaluates CC-E as distinct (Quadrants II–IV), on every case.
    let cache = SweepCache::global();
    for w in Workload::ALL.into_iter().filter(|w| w.spec().distinct_cce) {
        let meta = cache.ensure(w, SPARSE_SCALE, GRAPH_SCALE);
        for ci in 0..meta.labels.len() {
            let cc = meta.trace(ci, Variant::Cc).expect("CC trace").total_ops();
            let cce = meta
                .trace(ci, Variant::CcE)
                .expect("CC-E trace")
                .total_ops();
            let case = &meta.labels[ci];
            assert!(
                cce.flops_f64() <= cc.flops_f64(),
                "{w:?} ({case}): CC-E FP64 FLOPs {} > CC {}",
                cce.flops_f64(),
                cc.flops_f64()
            );
            assert!(
                cce.int_ops <= cc.int_ops,
                "{w:?} ({case}): CC-E int ops {} > CC {}",
                cce.int_ops,
                cc.int_ops
            );
            assert!(
                cce.gmem_bytes() <= cc.gmem_bytes(),
                "{w:?} ({case}): CC-E global bytes {} > CC {}",
                cce.gmem_bytes(),
                cc.gmem_bytes()
            );
            assert!(
                cce.smem_bytes <= cc.smem_bytes,
                "{w:?} ({case}): CC-E shared bytes {} > CC {}",
                cce.smem_bytes,
                cc.smem_bytes
            );
        }
    }
}
