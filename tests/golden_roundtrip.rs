//! Record → check round-trip over the full golden registry: every
//! artifact the harness can snapshot must survive canonical JSON
//! serialization bit-for-bit and diff clean against itself.
//!
//! The context uses a reduced workload set and corpus sizes (this runs
//! in the debug profile under `cargo test`); the committed goldens under
//! `results/golden/` are recorded at the full ten-workload pinned scale
//! by `cubie golden record` and checked by the CI `golden-check` job.

use cubie::bench::artifacts::{self, GoldenConfig, GoldenCtx};
use cubie::golden::{diff, Artifact};
use cubie::kernels::Workload;

fn test_ctx() -> GoldenCtx {
    GoldenCtx::new(GoldenConfig {
        matrix_corpus: 30,
        graph_corpus: 15,
        power_samples: 12,
        workloads: vec![
            Workload::Scan,
            Workload::Reduction,
            Workload::Spmv,
            Workload::Gemv,
            Workload::Bfs,
        ],
        ..GoldenConfig::default()
    })
}

#[test]
fn every_artifact_survives_record_then_check() {
    let ctx = test_ctx();
    let dir = std::env::temp_dir().join(format!("cubie-golden-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in artifacts::GOLDEN_ARTIFACTS {
        let built = artifacts::build(&ctx, name)
            .unwrap_or_else(|| panic!("{name} missing from the builder registry"));
        assert_eq!(built.name, *name);
        assert!(!built.rows.is_empty(), "{name} produced no rows");

        // Record: write the canonical JSON document.
        let path = dir.join(format!("{name}.json"));
        built.write(&path).unwrap();

        // Check: parse it back and diff against the in-memory original.
        let reread = Artifact::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let d = diff(&built, &reread);
        assert!(
            d.passed(),
            "{name} failed its own round-trip:\n{:?}\n{:?}",
            d.structural,
            d.cells
        );

        // The canonical text itself must be byte-stable.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            reread.to_json().to_pretty_string(),
            "{name}: reserialization changed bytes"
        );

        // And the CSV projection must agree with the row count.
        let (headers, rows) = built.csv();
        assert_eq!(headers.len(), built.columns.len());
        assert_eq!(rows.len(), built.rows.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builders_reject_unknown_names() {
    let ctx = test_ctx();
    assert!(artifacts::build(&ctx, "fig99_imaginary").is_none());
}

#[test]
fn committed_goldens_parse_and_declare_the_schema() {
    // The snapshots under results/golden/ are part of the repository;
    // every one must parse as a cubie-golden/v1 artifact with rows.
    let dir = std::path::Path::new("results/golden");
    let mut seen = 0;
    for name in artifacts::GOLDEN_ARTIFACTS {
        let path = dir.join(format!("{name}.json"));
        let a = Artifact::read(&path).unwrap_or_else(|e| panic!("committed golden {name}: {e}"));
        assert_eq!(a.name, *name);
        assert!(!a.rows.is_empty());
        seen += 1;
    }
    assert_eq!(seen, artifacts::GOLDEN_ARTIFACTS.len());
}

#[test]
fn simulated_total_of_the_four_quadrant_representatives_is_pinned() {
    // Scan, Reduction, SpMV and BFS: one cheap workload per quadrant and
    // input family. Their summed simulated time is pinned far tighter
    // than golden's per-cell TIME_EPS, so a model change that drifts
    // every cell by less than 1e-6 still fails here, under every SIMD
    // path and job count the test suite runs with.
    const WORKLOADS: [Workload; 4] = [
        Workload::Scan,
        Workload::Reduction,
        Workload::Spmv,
        Workload::Bfs,
    ];
    const PINNED_TOTAL_S: f64 = 0.006060909034635003;
    let ctx = test_ctx();
    let cells: Vec<_> = ctx
        .sweep()
        .cells
        .iter()
        .filter(|c| WORKLOADS.contains(&c.workload))
        .collect();
    assert_eq!(cells.len(), 240, "the swept cell set changed shape");
    let total: f64 = cells.iter().map(|c| c.time_s()).sum();
    assert!(
        (total - PINNED_TOTAL_S).abs() <= 1e-9 * PINNED_TOTAL_S.max(total.abs()),
        "simulated total drifted: pinned {PINNED_TOTAL_S:?} s vs current {total:?} s"
    );
}
