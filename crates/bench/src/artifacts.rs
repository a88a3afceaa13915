//! The canonical artifact layer: every figure and table of the paper
//! (plus the observations and extensions) is built here as one
//! schema-versioned [`Artifact`]. `cubie golden record|check` snapshots
//! and diffs it; `cubie figure` [`emit`]s it as CSV, canonical JSON and
//! a markdown log ([`render_markdown`]), so the log a reader opens is a
//! view of the same data the golden gate pins.
//!
//! Column classes follow the contract in `cubie-golden`:
//!
//! * **exact** — emulator numerics (Table 6 FP64 error stats) and
//!   instruction/byte counters (`trace_counters`): a refactor of the MMA
//!   emulator or kernels must not move one ulp or one count;
//! * **epsilon** — simulated times, throughputs, power, energy, EDP and
//!   PCA coordinates: small model-parameter drift is tolerated;
//! * **ordinal** — who-wins / limiter / quadrant claims: the paper's
//!   observations must keep their *direction* even if magnitudes drift.
//!
//! [`GoldenCtx`] pins the reduced scale the committed goldens under
//! `results/golden/` are recorded at ([`GoldenConfig::default`]), or the
//! paper scale `cubie figure` renders at ([`GoldenConfig::paper`]), and
//! lazily shares one sweep, one Table 6 run, one pair of Figure 10
//! corpus studies and one Figure 11 suite study across all builders in
//! a pass.

use std::path::PathBuf;
use std::sync::OnceLock;

use cubie_analysis::advisor::{advise, reference_mapping, source_variant};
use cubie_analysis::coverage::{
    corpus_studies, suite_diversity_study, CorpusStudy, StudyInputs, SuiteStudy, TABLE7,
    TABLE7_FEATURES,
};
use cubie_analysis::errors::{table6, ErrorRow, ErrorScale};
use cubie_analysis::metrics::REPRESENTATIVE_CASE;
use cubie_analysis::quadrants::utilizations;
use cubie_analysis::report;
use cubie_core::cas::fnv1a64;
use cubie_core::par::par_map;
use cubie_device::{all_devices, b200, DeviceSpec, PEAK_EVOLUTION};
use cubie_golden::{Artifact, Class, Column, Json};
use cubie_kernels::segmented::{trace_reduce, trace_scan, SegmentedCase};
use cubie_kernels::{gemm, MmaGen, Precision, Quadrant, Variant, Workload};
use cubie_sim::{power_report, power_trace, time_workload, Roofline};

use crate::sweep::{Sweep, SweepCache, SweepConfig, SweepRunner};
use crate::{fig7_repeats, graph_scale, sparse_scale};

/// Relative tolerance for simulated times/throughput/power/energy/EDP.
pub const TIME_EPS: f64 = 1e-6;
/// Relative tolerance for PCA coordinates and other derived statistics.
pub const STAT_EPS: f64 = 1e-6;
/// Lenient tolerance for observation magnitudes (their *direction* is
/// what the ordinal claim column pins).
pub const OBS_EPS: f64 = 1e-3;

/// Sparse-matrix scale divisor the goldens are recorded at.
pub const GOLDEN_SPARSE_SCALE: usize = 64;
/// Graph scale divisor the goldens are recorded at.
pub const GOLDEN_GRAPH_SCALE: usize = 512;

/// Scale/scope configuration of a golden record/check pass.
#[derive(Debug, Clone)]
pub struct GoldenConfig {
    /// Table 4 sparse-matrix scale divisor.
    pub sparse_scale: usize,
    /// Table 3 graph scale divisor.
    pub graph_scale: usize,
    /// Figure 10 synthetic matrix-corpus size.
    pub matrix_corpus: usize,
    /// Figure 10 synthetic graph-corpus size.
    pub graph_corpus: usize,
    /// Samples per Figure 8 power trace.
    pub power_samples: usize,
    /// Table 6 case sizing.
    pub error_scale: ErrorScale,
    /// Workloads in scope (Table 2 order).
    pub workloads: Vec<Workload>,
}

impl Default for GoldenConfig {
    fn default() -> Self {
        GoldenConfig {
            sparse_scale: GOLDEN_SPARSE_SCALE,
            graph_scale: GOLDEN_GRAPH_SCALE,
            matrix_corpus: 80,
            graph_corpus: 40,
            power_samples: 24,
            error_scale: ErrorScale::Quick,
            workloads: Workload::ALL.to_vec(),
        }
    }
}

impl GoldenConfig {
    /// The paper-scale configuration `cubie figure` renders at: the
    /// Table 4 matrices at their published sizes and the Table 3 graphs
    /// at 1/16 ([`sparse_scale`]/[`graph_scale`]), 400/150-point
    /// Figure 10 corpora, 200 samples per Figure 8 trace and the full
    /// Table 6 cases.
    pub fn paper() -> Self {
        GoldenConfig {
            sparse_scale: sparse_scale(),
            graph_scale: graph_scale(),
            matrix_corpus: 400,
            graph_corpus: 150,
            power_samples: 200,
            error_scale: ErrorScale::Full,
            ..GoldenConfig::default()
        }
    }
}

/// Shared state of one record/check pass: the configuration plus the
/// lazily-built sweep, Table 6 rows, Figure 10 corpus studies and
/// Figure 11 suite study every builder projects from.
pub struct GoldenCtx {
    /// The pinned scales/scopes.
    pub config: GoldenConfig,
    sweep: OnceLock<Sweep>,
    errors: OnceLock<Vec<ErrorRow>>,
    corpora: OnceLock<(CorpusStudy, CorpusStudy)>,
    suite: OnceLock<SuiteStudy>,
}

impl GoldenCtx {
    /// A context over `config`.
    pub fn new(config: GoldenConfig) -> Self {
        GoldenCtx {
            config,
            sweep: OnceLock::new(),
            errors: OnceLock::new(),
            corpora: OnceLock::new(),
            suite: OnceLock::new(),
        }
    }

    /// The full workload × case × variant × device sweep at the golden
    /// scale (built once, via the process-global sweep cache).
    pub fn sweep(&self) -> &Sweep {
        self.sweep.get_or_init(|| {
            let cfg = SweepConfig {
                workloads: self.config.workloads.clone(),
                sparse_scale: self.config.sparse_scale,
                graph_scale: self.config.graph_scale,
                ..SweepConfig::default()
            };
            SweepRunner::new(cfg).run()
        })
    }

    /// The Table 6 error study at the golden scale (built once).
    pub fn errors(&self) -> &[ErrorRow] {
        self.errors.get_or_init(|| table6(self.config.error_scale))
    }

    /// Figure 10's (graph, matrix) corpus studies at the configured
    /// corpus sizes (built once).
    pub fn corpus_studies(&self) -> &(CorpusStudy, CorpusStudy) {
        self.corpora.get_or_init(|| {
            corpus_studies(
                StudyInputs {
                    corpus: self.config.graph_corpus,
                    rep_scale: 64,
                    seed: 0xF16A,
                },
                StudyInputs {
                    corpus: self.config.matrix_corpus,
                    rep_scale: 8,
                    seed: 0xF16B,
                },
            )
        })
    }

    /// Figure 11's suite-diversity study on H200 at the configured
    /// scales (built once): Figure 11 plots it and O9 reads its spreads.
    pub fn suite_study(&self) -> &SuiteStudy {
        self.suite
            .get_or_init(|| suite_study(self.config.sparse_scale, self.config.graph_scale))
    }
}

/// Figure 11's suite-diversity study on H200 at the given scales. The
/// Cubie workloads' traces come from the process-global sweep cache, so
/// a pass whose sweep ran at the same scales prepares nothing again.
pub fn suite_study(sparse_scale: usize, graph_scale: usize) -> SuiteStudy {
    let traces = par_map(Workload::ALL.len(), |i| {
        let w = Workload::ALL[i];
        let trace = SweepCache::global()
            .ensure(w, sparse_scale, graph_scale)
            .trace(REPRESENTATIVE_CASE, Variant::Tc)
            .expect("TC variant exists for every workload")
            .clone();
        (w, trace)
    });
    suite_diversity_study(&cubie_device::h200(), &traces)
}

/// Names of every artifact the golden harness records and checks (and
/// `cubie figure` renders), in check order.
pub const GOLDEN_ARTIFACTS: &[&str] = &[
    "fig3_performance",
    "fig4_tc_vs_baseline",
    "fig5_cc_vs_tc",
    "fig6_cce_vs_tc",
    "fig7_edp",
    "fig8_power_traces",
    "fig9_roofline",
    "fig10_corpus_pca",
    "fig10_coverage_stats",
    "fig11_suite_pca",
    "fig12_peak_evolution",
    "table5_specs",
    "table6_errors",
    "table7_coverage",
    "table234_inventory",
    "trace_counters",
    "observations",
    "ext_advisor_validation",
    "ext_future_fp64",
    "ext_precision_sweep",
    "ext_precision_mma",
    "ext_segmented_sweep",
];

/// Build one golden artifact by name (`None` for unknown names).
pub fn build(ctx: &GoldenCtx, name: &str) -> Option<Artifact> {
    let c = &ctx.config;
    Some(match name {
        "fig3_performance" => fig3(ctx.sweep()),
        "fig4_tc_vs_baseline" => fig4(ctx.sweep()),
        "fig5_cc_vs_tc" => fig5(ctx.sweep()),
        "fig6_cce_vs_tc" => fig6(ctx.sweep()),
        "fig7_edp" => fig7(ctx.sweep()),
        "fig8_power_traces" => fig8(ctx.sweep(), c.power_samples),
        "fig9_roofline" => fig9(ctx.sweep()),
        "fig10_corpus_pca" => {
            let (graphs, matrices) = ctx.corpus_studies();
            fig10(graphs, matrices, c.matrix_corpus, c.graph_corpus)
        }
        "fig10_coverage_stats" => {
            let (graphs, matrices) = ctx.corpus_studies();
            fig10_coverage(graphs, matrices, c.matrix_corpus, c.graph_corpus)
        }
        "fig11_suite_pca" => fig11(ctx.suite_study(), c.sparse_scale, c.graph_scale),
        "fig12_peak_evolution" => fig12(),
        "table5_specs" => table5(),
        "table6_errors" => table6_artifact(ctx.errors(), c.error_scale),
        "table7_coverage" => table7(),
        "table234_inventory" => table234(c.sparse_scale, c.graph_scale),
        "trace_counters" => trace_counters(ctx.sweep()),
        "observations" => observations(ctx.sweep(), ctx.errors(), ctx.suite_study()),
        "ext_advisor_validation" => ext_advisor(ctx.sweep()),
        "ext_future_fp64" => ext_future(ctx.sweep()),
        "ext_precision_sweep" => ext_precision_sweep(),
        "ext_precision_mma" => ext_precision_mma(),
        "ext_segmented_sweep" => ext_segmented_sweep(),
        _ => return None,
    })
}

/// The committed golden-snapshot store: `results/golden/` under the
/// working directory (override with `CUBIE_GOLDEN_DIR`, e.g. from
/// integration tests). Nothing is created here: only `cubie golden
/// record` makes the directory.
pub fn golden_dir() -> PathBuf {
    match std::env::var("CUBIE_GOLDEN_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => PathBuf::from("results").join("golden"),
    }
}

/// Write `artifact` as `results/<name>.csv`, `results/<name>.json` and
/// the markdown log `results/logs/<name>.md`, returning the log's path.
pub fn emit(artifact: &Artifact) -> std::io::Result<PathBuf> {
    let dir = report::results_dir();
    let (headers, rows) = artifact.csv();
    report::write_csv(dir.join(format!("{}.csv", artifact.name)), &headers, &rows)?;
    artifact.write(dir.join(format!("{}.json", artifact.name)))?;
    let logs = dir.join("logs");
    std::fs::create_dir_all(&logs)?;
    let log = logs.join(format!("{}.md", artifact.name));
    std::fs::write(&log, render_markdown(artifact))?;
    Ok(log)
}

/// Render `artifact` as markdown: a title, its `meta` entries and one
/// table. Cells follow their column's class: exact and ordinal cells
/// print as the canonical JSON renders them (exact values in full),
/// epsilon floats to one significant digit past what their tolerance
/// pins, and nulls as `-`.
pub fn render_markdown(artifact: &Artifact) -> String {
    let mut out = format!("# {}\n\n", artifact.name);
    for (key, value) in &artifact.meta {
        out.push_str(&format!("- {key}: {}\n", escape_cell(value.render())));
    }
    if !artifact.meta.is_empty() {
        out.push('\n');
    }
    let headers: Vec<&str> = artifact.columns.iter().map(|c| c.name.as_str()).collect();
    let rows: Vec<Vec<String>> = artifact
        .rows
        .iter()
        .map(|row| {
            artifact
                .columns
                .iter()
                .zip(row)
                .map(|(col, cell)| escape_cell(render_cell(col.class, cell)))
                .collect()
        })
        .collect();
    out.push_str(&report::markdown_table(&headers, &rows));
    out
}

fn render_cell(class: Class, cell: &Json) -> String {
    match (class, cell) {
        (Class::Epsilon(rel), Json::Float(v)) => {
            // A relative tolerance of 1e-k pins k significant digits; one
            // more shows the digit where tolerated drift would appear.
            significant(*v, (-rel.log10()).ceil().max(0.0) as usize + 1)
        }
        _ => cell.render(),
    }
}

/// `v` to `digits` significant digits: fixed notation for magnitudes in
/// [1e-4, 1e6), scientific outside it.
fn significant(v: f64, digits: usize) -> String {
    if v == 0.0 || !v.is_finite() {
        return Json::Float(v).render();
    }
    let exp = v.abs().log10().floor() as i64;
    if (-4..6).contains(&exp) {
        let decimals = (digits as i64 - 1 - exp).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.*e}", digits - 1)
    }
}

/// Escape the markdown table delimiter inside a cell.
fn escape_cell(text: String) -> String {
    if text.contains('|') {
        text.replace('|', "\\|")
    } else {
        text
    }
}

fn scale_meta(a: Artifact, sweep: &Sweep) -> Artifact {
    a.with_meta("sparse_scale", sweep.config.sparse_scale)
        .with_meta("graph_scale", sweep.config.graph_scale)
}

/// The device the paper pins single-device studies to (H200), or the
/// sweep's first device when H200 was filtered out.
fn pinned_device(sweep: &Sweep) -> DeviceSpec {
    let devs = sweep.devices();
    devs.iter()
        .find(|d| d.name.contains("H200"))
        .unwrap_or(&devs[0])
        .clone()
}

/// Figure 3: absolute performance of every swept cell.
pub fn fig3(sweep: &Sweep) -> Artifact {
    let mut a = Artifact::new(
        "fig3_performance",
        vec![
            Column::exact("workload").key(),
            Column::exact("device").key(),
            Column::exact("case").key(),
            Column::exact("variant").key(),
            Column::eps("time_s", TIME_EPS),
            Column::eps("gthroughput", TIME_EPS),
        ],
    );
    for c in &sweep.cells {
        a.push(vec![
            c.workload.spec().name.into(),
            c.device.as_str().into(),
            c.case.as_str().into(),
            c.variant.label().into(),
            c.time_s().into(),
            c.gthroughput().into(),
        ]);
    }
    scale_meta(a, sweep)
}

fn speedup_artifact(
    name: &str,
    sweep: &Sweep,
    num: Variant,
    den: Variant,
    include: impl Fn(Workload) -> bool,
) -> Artifact {
    let mut a = Artifact::new(
        name,
        vec![
            Column::exact("workload").key(),
            Column::exact("device").key(),
            Column::eps("speedup", TIME_EPS),
            Column::ordinal("wins"),
        ],
    );
    for &w in sweep.workloads() {
        if !include(w) {
            continue;
        }
        for dev in sweep.devices() {
            let Some(s) = sweep.geomean_speedup(w, &dev.name, num, den) else {
                continue;
            };
            let wins = if s > 1.0 { num.label() } else { den.label() };
            a.push(vec![
                w.spec().name.into(),
                dev.name.as_str().into(),
                s.into(),
                wins.into(),
            ]);
        }
    }
    scale_meta(a, sweep)
}

/// Figure 4: geomean TC speedup over the baselines, with the who-wins
/// direction as an ordinal claim.
pub fn fig4(sweep: &Sweep) -> Artifact {
    speedup_artifact(
        "fig4_tc_vs_baseline",
        sweep,
        Variant::Tc,
        Variant::Baseline,
        |w| w.spec().baseline.is_some(),
    )
}

/// Figure 5: geomean CC speedup over TC.
pub fn fig5(sweep: &Sweep) -> Artifact {
    speedup_artifact("fig5_cc_vs_tc", sweep, Variant::Cc, Variant::Tc, |_| true)
}

/// Figure 6: geomean CC-E speedup over TC (Quadrants II–IV).
pub fn fig6(sweep: &Sweep) -> Artifact {
    speedup_artifact("fig6_cce_vs_tc", sweep, Variant::CcE, Variant::Tc, |w| {
        w.spec().distinct_cce
    })
}

/// Figure 7: EDP on the pinned device, representative case, paper
/// repeat counts.
pub fn fig7(sweep: &Sweep) -> Artifact {
    let dev = pinned_device(sweep);
    let mut a = Artifact::new(
        "fig7_edp",
        vec![
            Column::exact("workload").key(),
            Column::exact("variant").key(),
            Column::eps("avg_power_w", TIME_EPS),
            Column::eps("time_s", TIME_EPS),
            Column::eps("energy_j", TIME_EPS),
            Column::eps("edp", TIME_EPS),
        ],
    );
    for &w in sweep.workloads() {
        let repeats = fig7_repeats(w);
        for v in [Variant::Baseline, Variant::Tc, Variant::Cc, Variant::CcE] {
            let Some(cell) = sweep.cell(w, REPRESENTATIVE_CASE, v, &dev.name) else {
                continue;
            };
            let r = power_report(&dev, &cell.timing, repeats);
            let mut row: Vec<Json> = vec![w.spec().name.into(), v.label().into()];
            row.extend(r.named_fields().iter().map(|(_, v)| Json::Float(*v)));
            a.push(row);
        }
    }
    scale_meta(a, sweep)
        .with_meta("device", dev.name.as_str())
        .with_meta("case_idx", REPRESENTATIVE_CASE)
}

/// Figure 8: EMA-smoothed power traces on the pinned device.
pub fn fig8(sweep: &Sweep, samples: usize) -> Artifact {
    let dev = pinned_device(sweep);
    let mut a = Artifact::new(
        "fig8_power_traces",
        vec![
            Column::exact("workload").key(),
            Column::exact("variant").key(),
            Column::exact("sample").key(),
            Column::eps("t_s", TIME_EPS),
            Column::eps("power_w", TIME_EPS),
        ],
    );
    for &w in sweep.workloads() {
        let repeats = fig7_repeats(w);
        for v in sweep.config.variants_of(w) {
            let Some(cell) = sweep.cell(w, REPRESENTATIVE_CASE, v, &dev.name) else {
                continue;
            };
            let total = cell.timing.total_s * repeats as f64 + 1.0;
            let dt = total / samples as f64;
            for (i, s) in power_trace(&dev, &cell.timing, repeats, dt)
                .iter()
                .enumerate()
            {
                a.push(vec![
                    w.spec().name.into(),
                    v.label().into(),
                    i.into(),
                    s.t_s.into(),
                    s.power_w.into(),
                ]);
            }
        }
    }
    scale_meta(a, sweep)
        .with_meta("device", dev.name.as_str())
        .with_meta("case_idx", REPRESENTATIVE_CASE)
        .with_meta("samples", samples)
}

/// Figure 9: cache-aware roofline placements on the pinned device (BFS
/// excluded: bitwise work has no FP64 placement).
pub fn fig9(sweep: &Sweep) -> Artifact {
    let dev = pinned_device(sweep);
    let roof = Roofline::of(&dev);
    let mut a = Artifact::new(
        "fig9_roofline",
        vec![
            Column::exact("kernel").key(),
            Column::eps("ai", STAT_EPS),
            Column::eps("gflops", TIME_EPS),
            Column::ordinal("dram_bound"),
        ],
    );
    for &w in sweep.workloads() {
        if w == Workload::Bfs {
            continue;
        }
        for v in sweep.config.variants_of(w) {
            let Some(cell) = sweep.cell(w, REPRESENTATIVE_CASE, v, &dev.name) else {
                continue;
            };
            let name = format!("{}-{}", w.spec().name, v.label());
            if let Some(p) = roof.place(&name, &cell.timing) {
                let above = p.gflops > roof.dram_bound(p.ai);
                a.push(vec![
                    name.into(),
                    p.ai.into(),
                    p.gflops.into(),
                    if above {
                        "above_dram_roof"
                    } else {
                        "below_dram_roof"
                    }
                    .into(),
                ]);
            }
        }
    }
    scale_meta(a, sweep)
        .with_meta("device", dev.name.as_str())
        .with_meta("case_idx", REPRESENTATIVE_CASE)
}

fn push_corpus_study(a: &mut Artifact, study_name: &str, study: &CorpusStudy) {
    for (kind, points) in [
        ("corpus", &study.corpus),
        ("representative", &study.representatives),
    ] {
        for p in points {
            a.push(vec![
                study_name.into(),
                kind.into(),
                p.name.as_str().into(),
                p.xy[0].into(),
                p.xy[1].into(),
            ]);
        }
    }
}

/// Figure 10: input-coverage PCA of the synthetic graph/matrix corpora
/// (`graph_corpus`/`matrix_corpus` points) and their representatives.
pub fn fig10(
    graphs: &CorpusStudy,
    matrices: &CorpusStudy,
    matrix_corpus: usize,
    graph_corpus: usize,
) -> Artifact {
    let mut a = Artifact::new(
        "fig10_corpus_pca",
        vec![
            Column::exact("study").key(),
            Column::exact("kind").key(),
            Column::exact("point").key(),
            Column::eps("pc1", STAT_EPS),
            Column::eps("pc2", STAT_EPS),
        ],
    );
    push_corpus_study(&mut a, "graphs", graphs);
    push_corpus_study(&mut a, "matrices", matrices);
    a.with_meta("matrix_corpus", matrix_corpus)
        .with_meta("graph_corpus", graph_corpus)
}

/// Figure 10's coverage statistics (Section 10): how the representatives
/// spread over each corpus, from the same studies as [`fig10`].
pub fn fig10_coverage(
    graphs: &CorpusStudy,
    matrices: &CorpusStudy,
    matrix_corpus: usize,
    graph_corpus: usize,
) -> Artifact {
    let mut a = Artifact::new(
        "fig10_coverage_stats",
        vec![
            Column::exact("study").key(),
            Column::exact("corpus_points"),
            Column::eps("representative_dispersion", STAT_EPS),
            Column::eps("nn_dispersion", STAT_EPS),
            Column::eps("pc1_range_coverage", STAT_EPS),
            Column::eps("pc2_range_coverage", STAT_EPS),
            Column::eps("near_representative_fraction", STAT_EPS),
            Column::eps("explained_variance", STAT_EPS),
        ],
    );
    for (name, s) in [("graphs", graphs), ("matrices", matrices)] {
        a.push(vec![
            name.into(),
            s.corpus.len().into(),
            s.representative_dispersion.into(),
            s.nearest_neighbour_dispersion.into(),
            s.range_coverage[0].into(),
            s.range_coverage[1].into(),
            s.near_representative_fraction.into(),
            s.explained_variance.into(),
        ]);
    }
    a.with_meta("matrix_corpus", matrix_corpus)
        .with_meta("graph_corpus", graph_corpus)
}

/// Figure 11: suite-diversity PCA (Rodinia / SHOC / Cubie) on H200,
/// from `study` at `sparse_scale`/`graph_scale`.
pub fn fig11(study: &SuiteStudy, sparse_scale: usize, graph_scale: usize) -> Artifact {
    let mut a = Artifact::new(
        "fig11_suite_pca",
        vec![
            Column::exact("suite").key(),
            Column::exact("workload").key(),
            Column::eps("pc1", STAT_EPS),
            Column::eps("pc2", STAT_EPS),
        ],
    );
    for (name, suite, xy) in &study.points {
        a.push(vec![
            (*suite).into(),
            name.as_str().into(),
            xy[0].into(),
            xy[1].into(),
        ]);
    }
    a.with_meta("sparse_scale", sparse_scale)
        .with_meta("graph_scale", graph_scale)
}

/// Figure 12: peak-throughput evolution (device constants, bit-exact).
pub fn fig12() -> Artifact {
    let mut a = Artifact::new(
        "fig12_peak_evolution",
        vec![
            Column::exact("arch").key(),
            Column::exact("fp16_tc"),
            Column::exact("fp16_cc"),
            Column::exact("fp64_tc"),
            Column::exact("fp64_cc"),
        ],
    );
    for g in &PEAK_EVOLUTION {
        a.push(vec![
            g.arch.to_string().into(),
            g.fp16_tc.into(),
            g.fp16_cc.into(),
            g.fp64_tc.into(),
            g.fp64_cc.into(),
        ]);
    }
    a
}

/// Table 5: device specifications (constants, bit-exact).
pub fn table5() -> Artifact {
    let mut a = Artifact::new(
        "table5_specs",
        vec![
            Column::exact("device").key(),
            Column::exact("tc_fp64"),
            Column::exact("cc_fp64"),
            Column::exact("dram_gbs"),
            Column::exact("dram_gb"),
            Column::exact("sms"),
            Column::exact("tdp_w"),
        ],
    );
    for d in all_devices() {
        a.push(vec![
            d.name.as_str().into(),
            d.tc_fp64_tflops.into(),
            d.cc_fp64_tflops.into(),
            d.dram_bw_gbs.into(),
            d.dram_gb.into(),
            d.sm_count.into(),
            d.power.tdp_w.into(),
        ]);
    }
    a
}

/// Table 6: FP64 error statistics — **bit-exact**: these are the
/// emulator's numerics, the most regression-sensitive artifact of the
/// suite (a one-ulp change in the MMA accumulation chain lands here).
pub fn table6_artifact(rows: &[ErrorRow], scale: ErrorScale) -> Artifact {
    let mut a = Artifact::new(
        "table6_errors",
        vec![
            Column::exact("workload").key(),
            Column::exact("variant").key(),
            Column::exact("case"),
            Column::exact("avg_error"),
            Column::exact("max_error"),
            Column::exact("n"),
        ],
    );
    for r in rows {
        let w = r.workload.spec().name;
        let mut push = |variant: &str, e: cubie_core::ErrorStats| {
            a.push(vec![
                w.into(),
                variant.into(),
                r.case_label.as_str().into(),
                e.avg.into(),
                e.max.into(),
                e.n.into(),
            ]);
        };
        if let Some(b) = r.baseline {
            push("Baseline", b);
        }
        push("TC/CC", r.tc_cc);
        if let Some(c) = r.cce {
            push("CC-E", c);
        }
    }
    a.with_meta(
        "error_scale",
        if scale == ErrorScale::Quick {
            "quick"
        } else {
            "full"
        },
    )
}

/// Table 7: dwarf/feature coverage counts (constants, bit-exact).
pub fn table7() -> Artifact {
    let mut a = Artifact::new(
        "table7_coverage",
        vec![
            Column::exact("dwarf_or_feature").key(),
            Column::exact("rodinia"),
            Column::exact("shoc"),
            Column::exact("cubie"),
        ],
    );
    for r in &TABLE7 {
        a.push(vec![
            r.dwarf.into(),
            u64::from(r.rodinia).into(),
            u64::from(r.shoc).into(),
            u64::from(r.cubie).into(),
        ]);
    }
    for (feature, suites) in &TABLE7_FEATURES {
        a.push(vec![
            (*feature).into(),
            suites[0].into(),
            suites[1].into(),
            suites[2].into(),
        ]);
    }
    a
}

/// Tables 2/3/4: the workload inventory and the generated graph/matrix
/// sizes at the current scale, in long `(table, name, field, value)`
/// form — all bit-exact (generator output sizes are integer counters).
/// The Table 3/4 inputs come through the prep store, whose output is
/// identical to the generators', so a warm store loads them.
pub fn table234(sparse_scale: usize, graph_scale: usize) -> Artifact {
    let mut a = Artifact::new(
        "table234_inventory",
        vec![
            Column::exact("table").key(),
            Column::exact("name").key(),
            Column::exact("field").key(),
            Column::exact("value"),
        ],
    );
    let mut push = |table: &str, name: &str, field: &str, value: Json| {
        a.push(vec![table.into(), name.into(), field.into(), value]);
    };
    for w in Workload::ALL {
        let s = w.spec();
        push("T2", s.name, "quadrant", format!("Q{}", s.quadrant).into());
        push("T2", s.name, "dwarf", s.dwarf.into());
        push("T2", s.name, "baseline", s.baseline.unwrap_or("-").into());
        push("T2", s.name, "cases", w.case_labels().join(", ").into());
    }
    for (info, g) in cubie_prep::table3_graphs(graph_scale) {
        push("T3", info.name, "paper_vertices", info.vertices.into());
        push("T3", info.name, "paper_edges", info.edges.into());
        push("T3", info.name, "generated_vertices", g.n.into());
        push("T3", info.name, "generated_arcs", g.num_arcs().into());
    }
    for (info, m) in cubie_prep::table4_matrices(sparse_scale) {
        push("T4", info.name, "paper_rows", info.rows.into());
        push("T4", info.name, "paper_nnz", info.nnz.into());
        push("T4", info.name, "generated_rows", m.rows.into());
        push("T4", info.name, "generated_nnz", m.nnz().into());
    }
    a.with_meta("sparse_scale", sparse_scale)
        .with_meta("graph_scale", graph_scale)
}

/// Instruction/byte counters of every swept (workload, case, variant)
/// trace — **bit-exact**, the emulator's operational contract. Counters
/// are device-independent, so one device's cells cover the sweep.
pub fn trace_counters(sweep: &Sweep) -> Artifact {
    let mut columns = vec![
        Column::exact("workload").key(),
        Column::exact("case").key(),
        Column::exact("variant").key(),
        Column::exact("kernel_launches"),
    ];
    columns.extend(
        cubie_core::OpCounters::default()
            .named_counts()
            .iter()
            .map(|(name, _)| Column::exact(name)),
    );
    let mut a = Artifact::new("trace_counters", columns);
    let Some(first_device) = sweep.devices().first().map(|d| d.name.clone()) else {
        return scale_meta(a, sweep);
    };
    for c in sweep.cells.iter().filter(|c| c.device == first_device) {
        let mut row: Vec<Json> = vec![
            c.workload.spec().name.into(),
            c.case_idx.into(),
            c.variant.label().into(),
            c.timing.kernels.len().into(),
        ];
        row.extend(
            c.timing
                .total_ops
                .named_counts()
                .iter()
                .map(|(_, v)| Json::from(*v)),
        );
        a.push(row);
    }
    scale_meta(a, sweep)
}

/// The nine observations (O1–O9) as measured, directional claims: the
/// `claim` column is ordinal — magnitudes may drift inside `value`'s
/// lenient epsilon, but a direction inversion (TC stops beating the
/// baseline, EDP stops shrinking, Cubie stops being the widest suite)
/// fails the check. O9 reads the spreads of Figure 11's `suite` study.
pub fn observations(sweep: &Sweep, errors: &[ErrorRow], suite: &SuiteStudy) -> Artifact {
    let mut a = Artifact::new(
        "observations",
        vec![
            Column::exact("observation").key(),
            Column::exact("subject").key(),
            Column::eps("value", OBS_EPS),
            Column::ordinal("claim"),
        ],
    );
    let dev = pinned_device(sweep);
    let devs = sweep.devices();

    // O1 — the Quadrant II–IV kernels ship dedicated MMU formats (a
    // structural property of the suite, recorded as pure claims).
    for &w in sweep.workloads() {
        if w.spec().quadrant != Quadrant::I {
            a.push(vec![
                "O1".into(),
                w.spec().name.into(),
                Json::Null,
                "mmu_format".into(),
            ]);
        }
    }

    // O2 — the four utilization quadrants.
    for u in utilizations() {
        if !sweep.workloads().contains(&u.workload) {
            continue;
        }
        let spec = u.workload.spec();
        a.push(vec![
            "O2".into(),
            format!("{} input_util", spec.name).into(),
            u.input.into(),
            format!("Q{}", spec.quadrant).into(),
        ]);
        a.push(vec![
            "O2".into(),
            format!("{} output_util", spec.name).into(),
            u.output.into(),
            format!("Q{}", spec.quadrant).into(),
        ]);
    }

    // O3 — TC beats the baselines portably.
    let (mut wins, mut total) = (0u64, 0u64);
    for &w in sweep.workloads() {
        if w.spec().baseline.is_none() {
            continue;
        }
        for d in devs {
            let Some(s) = sweep.geomean_speedup(w, &d.name, Variant::Tc, Variant::Baseline) else {
                continue;
            };
            total += 1;
            if s > 1.0 {
                wins += 1;
            }
            a.push(vec![
                "O3".into(),
                format!("{} @ {}", w.spec().name, d.name).into(),
                s.into(),
                if s > 1.0 { "tc_wins" } else { "baseline_wins" }.into(),
            ]);
        }
    }
    a.push(vec![
        "O3".into(),
        "wins".into(),
        Json::Null,
        format!("{wins}/{total}").into(),
    ]);

    // O4 — CC retains a fraction of TC.
    for &w in sweep.workloads() {
        for d in devs {
            let Some(s) = sweep.geomean_speedup(w, &d.name, Variant::Cc, Variant::Tc) else {
                continue;
            };
            a.push(vec![
                "O4".into(),
                format!("{} @ {}", w.spec().name, d.name).into(),
                s.into(),
                if s <= 1.0 {
                    "tc_retains_advantage"
                } else {
                    "cc_faster"
                }
                .into(),
            ]);
        }
    }

    // O5 — essential-only CC on the pinned device.
    for &w in sweep.workloads().iter().filter(|w| w.spec().distinct_cce) {
        let Some(s) = sweep.geomean_speedup(w, &dev.name, Variant::CcE, Variant::Tc) else {
            continue;
        };
        a.push(vec![
            "O5".into(),
            w.spec().name.into(),
            s.into(),
            if s > 1.0 { "cce_wins" } else { "tc_wins" }.into(),
        ]);
    }

    // O6 — per-quadrant EDP reduction on the pinned device.
    for q in [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV] {
        let mut tc = Vec::new();
        let mut base = Vec::new();
        for &w in sweep.workloads().iter().filter(|w| w.spec().quadrant == q) {
            let repeats = fig7_repeats(w);
            if let Some(c) = sweep.cell(w, REPRESENTATIVE_CASE, Variant::Tc, &dev.name) {
                tc.push(power_report(&dev, &c.timing, repeats).edp);
            }
            if let Some(c) = sweep.cell(w, REPRESENTATIVE_CASE, Variant::Baseline, &dev.name) {
                base.push(power_report(&dev, &c.timing, repeats).edp);
            }
        }
        if !tc.is_empty() && !base.is_empty() {
            let cut = 1.0 - report::geomean(&tc) / report::geomean(&base);
            a.push(vec![
                "O6".into(),
                format!("Q{q}").into(),
                cut.into(),
                if cut > 0.0 {
                    "edp_reduced"
                } else {
                    "edp_increased"
                }
                .into(),
            ]);
        }
    }

    // O7 — TC ≡ CC bit-identity (asserted inside the Table 6 run; the
    // claim records that the assertion executed for the workload).
    for r in errors {
        if sweep.workloads().contains(&r.workload) {
            a.push(vec![
                "O7".into(),
                r.workload.spec().name.into(),
                r.tc_cc.max.into(),
                "tc_cc_bit_identical".into(),
            ]);
        }
    }

    // O8 — MMU layouts regularize memory access.
    for w in [Workload::Spmv, Workload::Gemv, Workload::Stencil] {
        if !sweep.workloads().contains(&w) {
            continue;
        }
        let (Some(tct), Some(bt)) = (
            sweep.trace(w, REPRESENTATIVE_CASE, Variant::Tc),
            sweep.trace(w, REPRESENTATIVE_CASE, Variant::Baseline),
        ) else {
            continue;
        };
        let frac = |ops: cubie_core::OpCounters| {
            let t = ops.gmem_load.total() + ops.gmem_store.total();
            if t == 0 {
                1.0
            } else {
                (ops.gmem_load.coalesced + ops.gmem_store.coalesced) as f64 / t as f64
            }
        };
        let (tf, bf) = (frac(tct.total_ops()), frac(bt.total_ops()));
        a.push(vec![
            "O8".into(),
            w.spec().name.into(),
            (tf - bf).into(),
            if tf >= bf {
                "tc_more_coalesced"
            } else {
                "baseline_more_coalesced"
            }
            .into(),
        ]);
    }

    // O9 — Cubie spans wider behaviour than Rodinia/SHOC.
    let widest = suite
        .spread
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(s, _)| *s)
        .unwrap_or("-");
    for (name, spread) in &suite.spread {
        a.push(vec![
            "O9".into(),
            (*name).into(),
            (*spread).into(),
            if *name == widest {
                "widest"
            } else {
                "narrower"
            }
            .into(),
        ]);
    }

    scale_meta(a, sweep)
}

/// Extension: advisor predictions vs measured TC-over-CC ratios.
pub fn ext_advisor(sweep: &Sweep) -> Artifact {
    let dev = pinned_device(sweep);
    let mut a = Artifact::new(
        "ext_advisor_validation",
        vec![
            Column::exact("workload").key(),
            Column::exact("from"),
            Column::eps("predicted", STAT_EPS),
            Column::eps("actual", TIME_EPS),
            Column::eps("ratio", STAT_EPS),
            Column::ordinal("verdict"),
            Column::ordinal("within_2x"),
        ],
    );
    for &w in sweep.workloads() {
        let cc_variant = source_variant(w);
        let Some(cc_trace) = sweep.trace(w, REPRESENTATIVE_CASE, cc_variant) else {
            continue;
        };
        let (Some(cc_cell), Some(tc_cell)) = (
            sweep.cell(w, REPRESENTATIVE_CASE, cc_variant, &dev.name),
            sweep.cell(w, REPRESENTATIVE_CASE, Variant::Tc, &dev.name),
        ) else {
            continue;
        };
        let adv = advise(&dev, cc_trace, &reference_mapping(w));
        let actual = cc_cell.time_s() / tc_cell.time_s();
        let ratio = adv.predicted_speedup / actual;
        a.push(vec![
            w.spec().name.into(),
            cc_variant.label().into(),
            adv.predicted_speedup.into(),
            actual.into(),
            ratio.into(),
            format!("{:?}", adv.recommendation).into(),
            ((0.5..2.0).contains(&ratio)).into(),
        ]);
    }
    scale_meta(a, sweep)
        .with_meta("device", dev.name.as_str())
        .with_meta("case_idx", REPRESENTATIVE_CASE)
}

/// Extension: the hypothetical FP64-strengthened Blackwell.
pub fn ext_future(sweep: &Sweep) -> Artifact {
    let devs = sweep.devices();
    let real = devs
        .iter()
        .find(|d| d.name.contains("B200"))
        .unwrap_or(&devs[0])
        .clone();
    let mut hyp = b200();
    hyp.name = "B200-HPC (hypothetical, FP64 TC ×2)".to_string();
    hyp.tc_fp64_tflops = 80.0;
    let mut a = Artifact::new(
        "ext_future_fp64",
        vec![
            Column::exact("workload").key(),
            Column::exact("quadrant"),
            Column::eps("time_b200_s", TIME_EPS),
            Column::eps("time_hpc_s", TIME_EPS),
            Column::eps("gain", TIME_EPS),
            Column::ordinal("direction"),
        ],
    );
    for &w in sweep.workloads() {
        let Some(cell) = sweep.cell(w, REPRESENTATIVE_CASE, Variant::Tc, &real.name) else {
            continue;
        };
        let t_real = cell.time_s();
        let Some(t_hyp) = sweep
            .time_on(&hyp, w, REPRESENTATIVE_CASE, Variant::Tc)
            .map(|t| t.total_s)
        else {
            continue;
        };
        let gain = t_real / t_hyp;
        a.push(vec![
            w.spec().name.into(),
            format!("Q{}", w.spec().quadrant).into(),
            t_real.into(),
            t_hyp.into(),
            gain.into(),
            if gain >= 1.0 {
                "faster_or_equal"
            } else {
                "slower"
            }
            .into(),
        ]);
    }
    scale_meta(a, sweep)
        .with_meta("device", real.name.as_str())
        .with_meta("case_idx", REPRESENTATIVE_CASE)
}

/// Extension: the mixed-precision GEMM axis — the analytic `mma.sync`
/// warp-tile kernels (FP16/BF16 `m16n8k16`, TF32 `m16n8k8`, f32
/// accumulate) timed on every device. MMA/FMA instruction counts are
/// bit-exact; times and achieved throughput carry the usual epsilon;
/// the limiting pipe is an ordinal claim. Independent of the FP64
/// sweep, so recording it never touches the existing goldens.
pub fn ext_precision_sweep() -> Artifact {
    let mut a = Artifact::new(
        "ext_precision_sweep",
        vec![
            Column::exact("precision").key(),
            Column::exact("case").key(),
            Column::exact("variant").key(),
            Column::exact("device").key(),
            Column::exact("mma"),
            Column::exact("fma_f32"),
            Column::eps("time_s", TIME_EPS),
            Column::eps("tflops", TIME_EPS),
            Column::ordinal("limiter"),
        ],
    );
    for p in Precision::ALL.into_iter().filter(|p| *p != Precision::F64) {
        for case in gemm::GemmCase::cases() {
            for v in [Variant::Tc, Variant::Cc] {
                let trace = gemm::trace_precision(&case, v, p);
                let ops = trace.kernels[0].ops;
                for d in all_devices() {
                    let t = time_workload(&d, &trace);
                    a.push(vec![
                        p.label().into(),
                        case.label().into(),
                        v.label().into(),
                        d.name.as_str().into(),
                        (ops.mma_f16 + ops.mma_bf16 + ops.mma_tf32).into(),
                        ops.fma_f32.into(),
                        t.total_s.into(),
                        (case.useful_flops() / t.total_s / 1e12).into(),
                        format!("{:?}", t.kernels[0].limiter).into(),
                    ]);
                }
            }
        }
    }
    a
}

/// Extension: **bit-exact** mixed-precision MMA numerics — one reduced
/// GEMM per precision × tensor-core generation on pinned inputs. Probe
/// elements' `f32` bit patterns and an FNV-1a digest of the whole output
/// are exact columns, so a one-ulp change anywhere in the quantize →
/// exact-product → per-generation-accumulate chain trips the golden
/// check (the reduced-precision sibling of `table6_errors`). The TC and
/// CC digests are recorded side by side: per Observation 7 they must be
/// identical.
pub fn ext_precision_mma() -> Artifact {
    const PROBES: [usize; 6] = [0, 1, 7, 255, 256, 511];
    let case = gemm::GemmCase {
        m: 32,
        n: 16,
        k: 32,
    };
    let (ma, mb) = gemm::inputs(&case);
    let mut columns = vec![
        Column::exact("precision").key(),
        Column::exact("gen").key(),
        Column::exact("mma"),
        Column::exact("tc_digest"),
        Column::exact("cc_digest"),
        Column::ordinal("tc_cc_identical"),
    ];
    columns.extend(PROBES.iter().map(|i| Column::exact(&format!("c{i}_bits"))));
    let mut a = Artifact::new("ext_precision_mma", columns);
    let fnv = |c: &[f32]| -> u64 {
        let bytes: Vec<u8> = c.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        fnv1a64(&bytes)
    };
    for p in Precision::ALL.into_iter().filter(|p| *p != Precision::F64) {
        for gen in [MmaGen::Volta, MmaGen::Ampere] {
            let (tc, trace) = gemm::run_precision(&ma, &mb, Variant::Tc, p, gen);
            let (cc, _) = gemm::run_precision(&ma, &mb, Variant::Cc, p, gen);
            let ops = trace.kernels[0].ops;
            let identical = tc.iter().zip(&cc).all(|(x, y)| x.to_bits() == y.to_bits());
            let mut row: Vec<Json> = vec![
                p.label().into(),
                format!("{gen:?}").into(),
                (ops.mma_f16 + ops.mma_bf16 + ops.mma_tf32).into(),
                fnv(&tc).into(),
                fnv(&cc).into(),
                if identical {
                    "tc_cc_bit_identical"
                } else {
                    "tc_cc_diverged"
                }
                .into(),
            ];
            row.extend(
                PROBES
                    .iter()
                    .map(|&i| Json::from(u64::from(tc[i].to_bits()))),
            );
            a.push(row);
        }
    }
    a.with_meta("case", case.label())
}

/// Extension: the Dakkak-style *segmented* scan/reduction sweep — the
/// throughput regime (~16M elements in flight) next to the paper's
/// single-block Quadrant II/III cases. There the kernels ride the DRAM
/// roof and the variants converge, which is why the paper evaluates the
/// latency regime to tell the compute units apart.
pub fn ext_segmented_sweep() -> Artifact {
    let mut a = Artifact::new(
        "ext_segmented_sweep",
        vec![
            Column::exact("workload").key(),
            Column::exact("device").key(),
            Column::exact("case").key(),
            Column::exact("variant").key(),
            Column::eps("gelems", TIME_EPS),
        ],
    );
    let cases = SegmentedCase::sweep();
    let n_variants = Variant::ALL.len();
    for w in [Workload::Scan, Workload::Reduction] {
        let traces = par_map(cases.len() * n_variants, |i| {
            let (case, v) = (&cases[i / n_variants], Variant::ALL[i % n_variants]);
            match w {
                Workload::Scan => trace_scan(case, v),
                _ => trace_reduce(case, v),
            }
        });
        for dev in all_devices() {
            for (ci, case) in cases.iter().enumerate() {
                for (vi, v) in Variant::ALL.iter().enumerate() {
                    let timing = time_workload(&dev, &traces[ci * n_variants + vi]);
                    a.push(vec![
                        w.spec().name.into(),
                        dev.name.as_str().into(),
                        case.label().into(),
                        v.label().into(),
                        (case.total() as f64 / timing.total_s / 1e9).into(),
                    ]);
                }
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepCache;
    use std::sync::Arc;

    fn quick_sweep() -> Sweep {
        let cfg = SweepConfig {
            workloads: vec![Workload::Scan, Workload::Reduction],
            sparse_scale: 64,
            graph_scale: 512,
            ..SweepConfig::default()
        };
        SweepRunner::with_cache(cfg, Arc::new(SweepCache::default())).run()
    }

    #[test]
    fn o9_reports_the_spreads_of_figure_11s_study() {
        // Below sparse 8 / graph 64, O9 once clamped its scales and so
        // reported a different study from the Figure 11 it cites.
        let (ss, gs) = (7, 63);
        let ctx = GoldenCtx::new(GoldenConfig {
            sparse_scale: ss,
            graph_scale: gs,
            workloads: vec![Workload::Scan],
            ..GoldenConfig::default()
        });
        let o9: Vec<(String, f64)> = build(&ctx, "observations")
            .unwrap()
            .rows
            .iter()
            .filter(|r| r[0] == "O9".into())
            .map(|r| (r[1].as_str().unwrap().to_string(), r[2].as_f64().unwrap()))
            .collect();
        let fig11 = suite_study(ss, gs);
        let want: Vec<(String, f64)> = fig11
            .spread
            .iter()
            .map(|(s, v)| (s.to_string(), *v))
            .collect();
        assert_eq!(o9, want);
    }

    #[test]
    fn fig3_has_one_row_per_cell_and_round_trips() {
        let sweep = quick_sweep();
        let a = fig3(&sweep);
        assert_eq!(a.rows.len(), sweep.cells.len());
        let text = a.to_json().to_pretty_string();
        let back = Artifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(cubie_golden::diff(&a, &back).passed());
    }

    #[test]
    fn speedup_artifacts_carry_ordinal_wins() {
        let sweep = quick_sweep();
        let a = fig4(&sweep);
        assert!(!a.rows.is_empty());
        let wins_col = a.columns.iter().position(|c| c.name == "wins").unwrap();
        assert!(matches!(
            a.columns[wins_col].class,
            cubie_golden::Class::Ordinal
        ));
        // Scan/Reduction TC beats the baselines on every device.
        for row in &a.rows {
            assert_eq!(row[wins_col].as_str(), Some("TC"));
        }
    }

    #[test]
    fn trace_counters_are_device_independent_ints() {
        let sweep = quick_sweep();
        let a = trace_counters(&sweep);
        // One row per (workload, case, variant): 2 × 5 × 4.
        assert_eq!(a.rows.len(), 2 * 5 * 4);
        for row in &a.rows {
            for cell in &row[3..] {
                assert!(
                    matches!(cell, Json::Int(_)),
                    "counter cell {cell:?} not an int"
                );
            }
        }
    }

    #[test]
    fn constant_artifacts_have_expected_shapes() {
        assert_eq!(fig12().rows.len(), 3);
        assert_eq!(table5().rows.len(), 3);
        assert_eq!(table7().rows.len(), TABLE7.len() + TABLE7_FEATURES.len());
    }

    #[test]
    fn precision_sweep_artifact_covers_the_mixed_grid() {
        let a = ext_precision_sweep();
        // 3 precisions × 5 cases × {TC, CC} × 3 devices.
        assert_eq!(a.rows.len(), 3 * 5 * 2 * 3);
        let (mma, fma) = (4, 5);
        for row in &a.rows {
            // Exactly one compute counter is populated per variant row.
            let is_tc = row[2].as_str() == Some("TC");
            assert_eq!(row[mma] != Json::Int(0), is_tc, "mma count vs variant");
            assert_eq!(row[fma] == Json::Int(0), is_tc, "fma count vs variant");
        }
        let text = a.to_json().to_pretty_string();
        let back = Artifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(cubie_golden::diff(&a, &back).passed());
    }

    #[test]
    fn precision_mma_artifact_is_bit_stable_and_discriminates_gens() {
        let a = ext_precision_mma();
        let b = ext_precision_mma();
        // 3 precisions × 2 generations, reproducible bit for bit.
        assert_eq!(a.rows.len(), 6);
        assert!(cubie_golden::diff(&a, &b).passed());
        for row in &a.rows {
            assert_eq!(row[5].as_str(), Some("tc_cc_bit_identical"));
        }
        // Volta (serial RZ+FTZ) and Ampere (fused RN) accumulation must
        // produce different output digests for every precision.
        for pair in a.rows.chunks(2) {
            assert_eq!(pair[0][0], pair[1][0]);
            assert_ne!(
                pair[0][3], pair[1][3],
                "gen digests equal for {:?}",
                pair[0][0]
            );
        }
    }

    fn render_fixture() -> Artifact {
        let mut a = Artifact::new(
            "render_fixture",
            vec![
                Column::exact("name").key(),
                Column::exact("bits"),
                Column::eps("time_s", 1e-6),
                Column::eps("value", 1e-3),
                Column::ordinal("claim"),
            ],
        )
        .with_meta("sparse_scale", 64usize)
        .with_meta("device", "H200|SXM");
        a.push(vec![
            "a|b".into(),
            0.1f64.into(),
            1.234_567_89e-3.into(),
            2.0f64.into(),
            "tc_wins".into(),
        ]);
        a.push(vec![
            "plain".into(),
            Json::Null,
            12_345_678.9f64.into(),
            Json::Null,
            "tc_wins".into(),
        ]);
        a
    }

    #[test]
    fn render_shows_title_meta_headers_and_every_row() {
        let a = render_fixture();
        let md = render_markdown(&a);
        assert!(md.starts_with("# render_fixture\n"), "{md}");
        for (key, _) in &a.meta {
            assert!(md.contains(&format!("- {key}: ")), "meta {key}: {md}");
        }
        let header = md.lines().find(|l| l.starts_with("| name")).unwrap();
        for c in &a.columns {
            assert!(header.contains(&c.name), "header {}: {md}", c.name);
        }
        let table_rows = md.lines().filter(|l| l.starts_with("| ")).count();
        assert_eq!(table_rows, 1 + a.rows.len(), "{md}");
    }

    #[test]
    fn render_formats_cells_by_column_class() {
        let md = render_markdown(&render_fixture());
        // Exact floats print in full, epsilon floats to one significant
        // digit past their tolerance, ordinals verbatim.
        assert!(md.contains("| 0.1 "), "{md}");
        assert!(md.contains("| 0.001234568 "), "{md}");
        assert!(md.contains("| 2.000 "), "{md}");
        assert!(md.contains("| 1.234568e7 "), "{md}");
        assert!(md.contains("| tc_wins "), "{md}");
    }

    #[test]
    fn render_prints_nulls_as_dashes() {
        let md = render_markdown(&render_fixture());
        let row = md.lines().find(|l| l.starts_with("| plain")).unwrap();
        let cells: Vec<&str> = row.trim_matches('|').split(" | ").map(str::trim).collect();
        assert_eq!(cells[1], "-", "{row}");
        assert_eq!(cells[3], "-", "{row}");
    }

    #[test]
    fn render_escapes_pipes_in_strings() {
        let md = render_markdown(&render_fixture());
        assert!(md.contains("| a\\|b "), "{md}");
        assert!(md.contains("- device: H200\\|SXM"), "{md}");
        // Every table line keeps its column count: escaped pipes are not
        // delimiters.
        for line in md.lines().filter(|l| l.starts_with('|')) {
            let delimiters = line.replace("\\|", "").matches('|').count();
            assert_eq!(delimiters, 6, "{line}");
        }
    }

    #[test]
    fn segmented_sweep_covers_both_workloads_on_every_device() {
        let a = ext_segmented_sweep();
        let per_workload = SegmentedCase::sweep().len() * Variant::ALL.len() * 3;
        assert_eq!(a.rows.len(), 2 * per_workload);
        for row in &a.rows {
            assert!(row[4].as_f64().is_some_and(|g| g > 0.0), "{row:?}");
        }
    }

    #[test]
    fn registry_covers_every_name() {
        let ctx = GoldenCtx::new(GoldenConfig {
            workloads: vec![Workload::Scan],
            ..GoldenConfig::default()
        });
        // Cheap structural check on the constant artifacts only; the
        // sweep-backed ones are covered by the round-trip integration
        // test. Unknown names must be rejected.
        assert!(build(&ctx, "nonexistent").is_none());
        for name in ["fig12_peak_evolution", "table5_specs", "table7_coverage"] {
            assert!(GOLDEN_ARTIFACTS.contains(&name));
            let a = build(&ctx, name).unwrap();
            assert_eq!(a.name, name);
        }
    }
}
