//! The perf smoke harness (`cubie bench-smoke`): a pinned, cheap subset
//! of the sweep is executed end-to-end (preparation **included** — each
//! repetition uses a private [`SweepCache`], so generator or trace-layer
//! slowdowns are visible), the best-of-N wall time, the deterministic
//! simulated totals, and the per-phase breakdown of the best repetition
//! are written to `results/BENCH_sweep.json`, and a committed baseline
//! under `results/golden/` gates regressions:
//!
//! * cell counts and the summed simulated time must match the baseline
//!   (epsilon `1e-9` — the simulation is deterministic, so this is a
//!   correctness tripwire, not a perf one);
//! * wall time may not exceed `factor ×` the baseline (default 3.0 —
//!   generous, because CI machines are noisy and heterogeneous; override
//!   with `CUBIE_SMOKE_FACTOR`). When the gate trips, the per-phase
//!   breakdown attributes the regression (generation vs trace vs timing)
//!   instead of reporting one opaque wall-clock number;
//! * hot-loop allocation counts may not exceed
//!   `CUBIE_SMOKE_ALLOC_FACTOR ×` the baseline (default
//!   [`DEFAULT_ALLOC_FACTOR`]) — allocations are deterministic per code
//!   version, so this catches order-of-magnitude allocation churn (a
//!   per-element `Vec` in a hot loop) long before it shows up in noisy
//!   wall time. Baselines recorded before allocation telemetry parse as
//!   zero and skip the gate (no re-record).
//!
//! The sweep runs with a **pinned worker cap** ([`SMOKE_JOBS`], override
//! `CUBIE_SMOKE_JOBS`) so a baseline recorded on a many-core machine is
//! comparable on a small CI runner; the recording host's core count and
//! the effective cap ride along in the artifact to keep diffs
//! interpretable.
//!
//! GEMM is deliberately excluded: its Table 2 cases are fixed-size (no
//! scale knob), so it would dominate the smoke run's wall clock.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cubie_golden::{obj, Json};
use cubie_kernels::Workload;

use crate::sweep::{SweepCache, SweepConfig, SweepRunner};

/// Schema tag of `BENCH_sweep.json`. Rev 2 added `jobs`, `host_cores`
/// and the per-phase `phases` breakdown.
pub const SMOKE_SCHEMA: &str = "cubie-bench-smoke/v2";

/// Default regression threshold: wall time may grow this much over the
/// committed baseline before the gate fails. Tightened from 4.0 once the
/// persistent worker pool removed per-call thread-spawn overhead from
/// the sweep's dispatch path.
pub const DEFAULT_FACTOR: f64 = 3.0;

/// Workloads the smoke run sweeps — cheap representatives of the four
/// quadrants (and the three input families: dense, sparse, graph).
pub const SMOKE_WORKLOADS: [Workload; 4] = [
    Workload::Scan,
    Workload::Reduction,
    Workload::Spmv,
    Workload::Bfs,
];

/// Wall-time repetitions; the minimum is reported (standard practice for
/// noisy timers).
pub const SMOKE_REPS: usize = 3;

/// Pinned worker-thread cap of the smoke sweep: decoupling the measured
/// wall time from the host's core count keeps one committed baseline
/// meaningful across heterogeneous machines (a 64-core recorder would
/// otherwise trip the gate on a 4-core runner).
pub const SMOKE_JOBS: usize = 4;

/// The phases of the smoke breakdown, in pipeline order: case generation,
/// functional trace execution, timing simulation, and parallel-worker
/// loop time (overlaps the other three under `par_map`).
pub const SMOKE_PHASES: [&str; 4] = ["prepare", "trace", "time", "par"];

/// [`SMOKE_REPS`], overridable via `CUBIE_SMOKE_REPS` (integration tests
/// drop to 1 — a debug-profile sweep is seconds per rep).
pub fn smoke_reps() -> usize {
    match crate::env_parse::<usize>("CUBIE_SMOKE_REPS") {
        Some(0) => {
            eprintln!("warning: ignoring CUBIE_SMOKE_REPS=0: must be at least 1");
            SMOKE_REPS
        }
        Some(n) => n,
        None => SMOKE_REPS,
    }
}

/// [`SMOKE_JOBS`], overridable via `CUBIE_SMOKE_JOBS` (0 is rejected —
/// the cap must be explicit for cross-machine comparability).
pub fn smoke_jobs() -> usize {
    match crate::env_parse::<usize>("CUBIE_SMOKE_JOBS") {
        Some(0) => {
            eprintln!("warning: ignoring CUBIE_SMOKE_JOBS=0: must be at least 1");
            SMOKE_JOBS
        }
        Some(n) => n,
        None => SMOKE_JOBS,
    }
}

/// The host's available core count (what the pinned cap protects the
/// baseline from).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Busy time of one instrumentation phase in the best smoke repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Phase name (one of [`SMOKE_PHASES`]).
    pub phase: String,
    /// Spans recorded under the phase.
    pub calls: u64,
    /// Summed span duration across workers, milliseconds.
    pub busy_ms: f64,
    /// Heap allocations performed inside the phase's spans (0 in
    /// baselines recorded before allocation telemetry, or when the
    /// counting allocator is not installed).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// The result of one smoke run.
#[derive(Debug, Clone)]
pub struct SmokeResult {
    /// Number of timed cells in the pinned sweep.
    pub cells: usize,
    /// Sum of simulated cell times, seconds (deterministic).
    pub sim_total_s: f64,
    /// Best end-to-end wall time over [`smoke_reps`] runs, milliseconds.
    pub wall_ms: f64,
    /// Worker-thread cap the sweep ran under.
    pub jobs: usize,
    /// Core count of the machine that produced this result.
    pub host_cores: usize,
    /// Per-phase busy times of the best repetition, [`SMOKE_PHASES`] order.
    pub phases: Vec<PhaseBreakdown>,
    /// Label of the SIMD path the run dispatched to
    /// (`cubie_core::simd::active_path`); `"unrecorded"` in pre-SIMD
    /// baselines.
    pub simd_path: String,
    /// Measured speedup of the active SIMD path over forced scalar on
    /// the strided MMA core ([`simd_ratio`]); `0.0` when unrecorded.
    /// Informational — never gated by [`check_smoke`] (the wall-time
    /// factor covers perf), but kept in the artifact so the perf
    /// trajectory is visible per-run.
    pub simd_ratio: f64,
}

impl SmokeResult {
    /// Serialize as a `BENCH_sweep.json` document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", SMOKE_SCHEMA.into()),
            (
                "workloads",
                Json::Array(
                    SMOKE_WORKLOADS
                        .iter()
                        .map(|w| w.spec().name.into())
                        .collect(),
                ),
            ),
            ("reps", smoke_reps().into()),
            ("jobs", self.jobs.into()),
            ("host_cores", self.host_cores.into()),
            ("cells", self.cells.into()),
            ("sim_total_s", self.sim_total_s.into()),
            ("wall_ms", self.wall_ms.into()),
            ("simd_path", self.simd_path.as_str().into()),
            ("simd_ratio", self.simd_ratio.into()),
            (
                "phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("phase", p.phase.as_str().into()),
                                ("calls", p.calls.into()),
                                ("busy_ms", p.busy_ms.into()),
                                ("alloc_count", p.alloc_count.into()),
                                ("alloc_bytes", p.alloc_bytes.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a `BENCH_sweep.json` document.
    pub fn from_json(doc: &Json) -> Result<SmokeResult, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SMOKE_SCHEMA) {
            return Err(format!(
                "not a {SMOKE_SCHEMA} document — re-record with `cubie bench-smoke --record`"
            ));
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field `{name}`"))
        };
        let mut phases = Vec::new();
        for p in doc
            .get("phases")
            .and_then(Json::as_array)
            .ok_or("missing `phases` array")?
        {
            phases.push(PhaseBreakdown {
                phase: p
                    .get("phase")
                    .and_then(Json::as_str)
                    .ok_or("phase entry missing `phase`")?
                    .to_string(),
                calls: p.get("calls").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                busy_ms: p
                    .get("busy_ms")
                    .and_then(Json::as_f64)
                    .ok_or("phase entry missing `busy_ms`")?,
                // Optional (added within schema v2): baselines recorded
                // before allocation telemetry parse as zero allocations,
                // which also disables the alloc gate — no re-record.
                alloc_count: p.get("alloc_count").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                alloc_bytes: p.get("alloc_bytes").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            });
        }
        Ok(SmokeResult {
            cells: field("cells")? as usize,
            sim_total_s: field("sim_total_s")?,
            wall_ms: field("wall_ms")?,
            jobs: field("jobs")? as usize,
            host_cores: field("host_cores")? as usize,
            phases,
            // Optional (added within schema v2): baselines recorded
            // before the SIMD kernels parse with the sentinel defaults.
            simd_path: doc
                .get("simd_path")
                .and_then(Json::as_str)
                .unwrap_or("unrecorded")
                .to_string(),
            simd_ratio: doc.get("simd_ratio").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }

    /// Read a baseline from disk.
    pub fn read(path: &Path) -> Result<SmokeResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        SmokeResult::from_json(&doc)
    }
}

/// The pinned smoke sweep configuration.
pub fn smoke_config() -> SweepConfig {
    SweepConfig {
        workloads: SMOKE_WORKLOADS.to_vec(),
        sparse_scale: crate::artifacts::GOLDEN_SPARSE_SCALE,
        graph_scale: crate::artifacts::GOLDEN_GRAPH_SCALE,
        jobs: Some(smoke_jobs()),
        ..SweepConfig::default()
    }
}

/// Roll recorded spans up into per-phase busy times, [`SMOKE_PHASES`]
/// order (phases with no spans are omitted).
pub fn phase_rollup(spans: &[cubie_obs::SpanRecord]) -> Vec<PhaseBreakdown> {
    SMOKE_PHASES
        .iter()
        .filter_map(|phase| {
            let matching = spans.iter().filter(|s| s.phase == *phase);
            let calls = matching.clone().count() as u64;
            if calls == 0 {
                return None;
            }
            Some(PhaseBreakdown {
                phase: phase.to_string(),
                calls,
                busy_ms: matching.clone().map(|s| s.dur_ns as f64 * 1e-6).sum(),
                alloc_count: matching.clone().map(|s| s.alloc_count).sum(),
                alloc_bytes: matching.map(|s| s.alloc_bytes).sum(),
            })
        })
        .collect()
}

/// Measure the active SIMD path's speedup over forced scalar on the
/// strided `m8n8k4` MMA core (the dominant `trace`-phase inner loop):
/// `(active_path, scalar_time / active_time)`, best-of-3 per side on a
/// 256-tile band. ~1 means the active path *is* scalar (or the host
/// gains nothing); the ratio is reported, never gated.
pub fn simd_ratio() -> (cubie_core::simd::SimdPath, f64) {
    use cubie_core::simd::{self, SimdPath};
    const TILES: usize = 256;
    let mut rng = cubie_core::LcgF64::new(42);
    let a = rng.vec(8 * 4);
    let b = rng.vec(4 * 8 * TILES);
    let mut c = rng.vec(8 * 8 * TILES);
    let mut time_path = |p: SimdPath| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for _ in 0..20 {
                for t in 0..TILES {
                    simd::mma_f64_m8n8k4_strided_on(
                        p,
                        &a,
                        0,
                        4,
                        &b,
                        t * 8,
                        8 * TILES,
                        &mut c,
                        t * 8,
                        8 * TILES,
                    );
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let active = simd::active_path();
    let active_t = time_path(active);
    let scalar_t = time_path(SimdPath::Scalar);
    std::hint::black_box(&c);
    (active, scalar_t / active_t)
}

/// Run the smoke sweep [`smoke_reps`] times, each on a cold private
/// cache, and report cell count, simulated total, best wall time and the
/// best repetition's phase breakdown (spans are recorded for every rep;
/// the guard-band for the instrumentation itself is well under the 4×
/// wall gate).
pub fn run_smoke() -> SmokeResult {
    let mut best_ms = f64::INFINITY;
    let mut cells = 0usize;
    let mut sim_total_s = 0.0f64;
    let mut phases = Vec::new();
    let config = smoke_config();
    for _ in 0..smoke_reps() {
        cubie_obs::enable();
        let start = Instant::now();
        let sweep = SweepRunner::with_cache(config.clone(), Arc::new(SweepCache::default())).run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        cubie_obs::disable();
        let spans = cubie_obs::drain();
        if ms < best_ms {
            best_ms = ms;
            phases = phase_rollup(&spans);
        }
        cells = sweep.cells.len();
        sim_total_s = sweep.cells.iter().map(|c| c.time_s()).sum();
    }
    let (path, ratio) = simd_ratio();
    SmokeResult {
        cells,
        sim_total_s,
        wall_ms: best_ms,
        jobs: config.jobs.unwrap_or(0),
        host_cores: host_cores(),
        phases,
        simd_path: path.label().to_string(),
        simd_ratio: ratio,
    }
}

/// The regression threshold factor (`CUBIE_SMOKE_FACTOR` override).
pub fn smoke_factor() -> f64 {
    crate::env_parse("CUBIE_SMOKE_FACTOR").unwrap_or(DEFAULT_FACTOR)
}

/// Default allocation-count regression threshold: total hot-loop
/// allocations may grow this much over the baseline before the gate
/// fails. Generous, because allocation counts — unlike wall time — are
/// deterministic per code version but legitimately move with feature
/// work; the gate exists to catch *order-of-magnitude* churn (a
/// per-element `Vec` in a hot loop), not small honest growth.
pub const DEFAULT_ALLOC_FACTOR: f64 = 2.0;

/// The allocation threshold factor (`CUBIE_SMOKE_ALLOC_FACTOR` override).
pub fn smoke_alloc_factor() -> f64 {
    crate::env_parse("CUBIE_SMOKE_ALLOC_FACTOR").unwrap_or(DEFAULT_ALLOC_FACTOR)
}

/// Summed allocations across a result's phases.
fn total_allocs(r: &SmokeResult) -> u64 {
    r.phases.iter().map(|p| p.alloc_count).sum()
}

/// Gate `current` against `baseline`: returns the list of failures
/// (empty = pass). A wall-time failure carries the per-phase attribution
/// when both sides recorded a breakdown. Allocation counts are gated by
/// [`smoke_alloc_factor`] via [`check_smoke_with_allocs`]; the plain
/// entry point keeps the alloc gate at its default.
pub fn check_smoke(current: &SmokeResult, baseline: &SmokeResult, factor: f64) -> Vec<String> {
    check_smoke_with_allocs(current, baseline, factor, DEFAULT_ALLOC_FACTOR)
}

/// [`check_smoke`] with an explicit allocation-count factor. The alloc
/// gate is skipped when either side recorded zero allocations — a
/// baseline written before allocation telemetry (or by a binary without
/// the counting allocator) parses as all-zero and must not force a
/// re-record.
pub fn check_smoke_with_allocs(
    current: &SmokeResult,
    baseline: &SmokeResult,
    factor: f64,
    alloc_factor: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if current.cells != baseline.cells {
        failures.push(format!(
            "cell count changed: baseline {} vs current {} — the pinned sweep shape moved; \
             re-record the baseline if intentional",
            baseline.cells, current.cells
        ));
    }
    let (a, b) = (current.sim_total_s, baseline.sim_total_s);
    if (a - b).abs() > 1e-9 * b.abs().max(a.abs()) {
        failures.push(format!(
            "simulated total drifted: baseline {b:?} s vs current {a:?} s — the model \
             changed; re-record the baseline (and the goldens) if intentional"
        ));
    }
    if current.wall_ms > factor * baseline.wall_ms {
        let mut msg = format!(
            "wall time regressed: baseline {:.0} ms vs current {:.0} ms (limit {factor}×; \
             baseline host: {} cores, jobs {}; current host: {} cores, jobs {})",
            baseline.wall_ms,
            current.wall_ms,
            baseline.host_cores,
            baseline.jobs,
            current.host_cores,
            current.jobs
        );
        for cur in &current.phases {
            let base = baseline.phases.iter().find(|p| p.phase == cur.phase);
            match base {
                Some(b) if b.busy_ms > 0.0 => {
                    msg.push_str(&format!(
                        "\n    phase {:8} baseline {:8.1} ms vs current {:8.1} ms ({:.2}×)",
                        cur.phase,
                        b.busy_ms,
                        cur.busy_ms,
                        cur.busy_ms / b.busy_ms
                    ));
                }
                _ => {
                    msg.push_str(&format!(
                        "\n    phase {:8} baseline        - vs current {:8.1} ms",
                        cur.phase, cur.busy_ms
                    ));
                }
            }
        }
        failures.push(msg);
    }
    let (ca, ba) = (total_allocs(current), total_allocs(baseline));
    if ba > 0 && ca > 0 && ca as f64 > alloc_factor * ba as f64 {
        let mut msg = format!(
            "hot-loop allocations regressed: baseline {ba} vs current {ca} \
             (limit {alloc_factor}×; override with CUBIE_SMOKE_ALLOC_FACTOR)"
        );
        for cur in &current.phases {
            let base = baseline.phases.iter().find(|p| p.phase == cur.phase);
            match base {
                Some(b) if b.alloc_count > 0 => {
                    msg.push_str(&format!(
                        "\n    phase {:8} baseline {:>10} allocs vs current {:>10} ({:.2}×, \
                         {} bytes)",
                        cur.phase,
                        b.alloc_count,
                        cur.alloc_count,
                        cur.alloc_count as f64 / b.alloc_count as f64,
                        cur.alloc_bytes
                    ));
                }
                _ => {
                    msg.push_str(&format!(
                        "\n    phase {:8} baseline          - allocs vs current {:>10} \
                         ({} bytes)",
                        cur.phase, cur.alloc_count, cur.alloc_bytes
                    ));
                }
            }
        }
        failures.push(msg);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SmokeResult {
        SmokeResult {
            cells: 55,
            sim_total_s: 1.25,
            wall_ms: 900.0,
            jobs: 4,
            host_cores: 8,
            phases: vec![
                PhaseBreakdown {
                    phase: "prepare".to_string(),
                    calls: 4,
                    busy_ms: 500.0,
                    alloc_count: 10_000,
                    alloc_bytes: 8_000_000,
                },
                PhaseBreakdown {
                    phase: "time".to_string(),
                    calls: 240,
                    busy_ms: 300.0,
                    alloc_count: 2_000,
                    alloc_bytes: 160_000,
                },
            ],
            simd_path: "avx2".to_string(),
            simd_ratio: 2.5,
        }
    }

    #[test]
    fn smoke_result_round_trips() {
        let r = sample();
        let text = r.to_json().to_pretty_string();
        let back = SmokeResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.cells, r.cells);
        assert_eq!(back.sim_total_s.to_bits(), r.sim_total_s.to_bits());
        assert_eq!(back.wall_ms.to_bits(), r.wall_ms.to_bits());
        assert_eq!(back.jobs, r.jobs);
        assert_eq!(back.host_cores, r.host_cores);
        assert_eq!(back.phases, r.phases);
        assert_eq!(back.simd_path, r.simd_path);
        assert_eq!(back.simd_ratio.to_bits(), r.simd_ratio.to_bits());
    }

    #[test]
    fn pre_simd_baselines_parse_with_sentinel_defaults() {
        // A v2 document recorded before the SIMD fields existed must
        // still read cleanly (no golden/baseline re-record required).
        let mut doc = sample().to_json();
        let Json::Object(ref mut fields) = doc else {
            panic!("smoke json is an object")
        };
        fields.retain(|(k, _)| k != "simd_path" && k != "simd_ratio");
        let back = SmokeResult::from_json(&doc).unwrap();
        assert_eq!(back.simd_path, "unrecorded");
        assert_eq!(back.simd_ratio, 0.0);
    }

    #[test]
    fn simd_ratio_reports_the_active_path() {
        let (path, ratio) = simd_ratio();
        assert_eq!(path, cubie_core::simd::active_path());
        assert!(ratio.is_finite() && ratio > 0.0, "ratio {ratio}");
    }

    #[test]
    fn v1_documents_are_rejected_with_guidance() {
        let doc = Json::parse(r#"{"schema": "cubie-bench-smoke/v1", "cells": 1}"#).unwrap();
        let err = SmokeResult::from_json(&doc).unwrap_err();
        assert!(err.contains("re-record"), "{err}");
    }

    #[test]
    fn identical_results_pass() {
        assert!(check_smoke(&sample(), &sample(), DEFAULT_FACTOR).is_empty());
    }

    #[test]
    fn wall_regression_fails_only_beyond_factor() {
        let base = sample();
        let mut cur = sample();
        cur.wall_ms = base.wall_ms * 2.9;
        assert!(check_smoke(&cur, &base, DEFAULT_FACTOR).is_empty());
        cur.wall_ms = base.wall_ms * 3.1;
        let failures = check_smoke(&cur, &base, DEFAULT_FACTOR);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("wall time regressed"));
    }

    #[test]
    fn wall_regression_is_phase_attributed() {
        let base = sample();
        let mut cur = sample();
        cur.wall_ms = base.wall_ms * 5.0;
        cur.phases[0].busy_ms = 4000.0; // prepare blew up
        let failures = check_smoke(&cur, &base, DEFAULT_FACTOR);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("phase prepare"), "{}", failures[0]);
        assert!(failures[0].contains("8.00×"), "{}", failures[0]);
    }

    #[test]
    fn sim_drift_and_shape_change_fail() {
        let base = sample();
        let mut cur = sample();
        cur.sim_total_s += 1e-6;
        cur.cells += 1;
        let failures = check_smoke(&cur, &base, DEFAULT_FACTOR);
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn wall_speedup_passes() {
        let base = sample();
        let mut cur = sample();
        cur.wall_ms = 1.0;
        assert!(check_smoke(&cur, &base, DEFAULT_FACTOR).is_empty());
    }

    #[test]
    fn cubie_smoke_reps_rejects_zero_and_garbage() {
        let _guard = crate::env_lock();
        std::env::set_var("CUBIE_SMOKE_REPS", "0");
        assert_eq!(smoke_reps(), SMOKE_REPS);
        std::env::set_var("CUBIE_SMOKE_REPS", "lots");
        assert_eq!(smoke_reps(), SMOKE_REPS);
        std::env::set_var("CUBIE_SMOKE_REPS", "1");
        assert_eq!(smoke_reps(), 1);
        std::env::remove_var("CUBIE_SMOKE_REPS");
        assert_eq!(smoke_reps(), SMOKE_REPS);
    }

    #[test]
    fn cubie_smoke_jobs_rejects_zero_and_garbage() {
        let _guard = crate::env_lock();
        std::env::set_var("CUBIE_SMOKE_JOBS", "0");
        assert_eq!(smoke_jobs(), SMOKE_JOBS);
        std::env::set_var("CUBIE_SMOKE_JOBS", "auto");
        assert_eq!(smoke_jobs(), SMOKE_JOBS);
        std::env::set_var("CUBIE_SMOKE_JOBS", "2");
        assert_eq!(smoke_jobs(), 2);
        std::env::remove_var("CUBIE_SMOKE_JOBS");
        assert_eq!(smoke_jobs(), SMOKE_JOBS);
    }

    #[test]
    fn cubie_smoke_factor_falls_back_on_garbage() {
        let _guard = crate::env_lock();
        std::env::set_var("CUBIE_SMOKE_FACTOR", "loose");
        assert_eq!(smoke_factor(), DEFAULT_FACTOR);
        std::env::set_var("CUBIE_SMOKE_FACTOR", "2.5");
        assert_eq!(smoke_factor(), 2.5);
        std::env::remove_var("CUBIE_SMOKE_FACTOR");
    }

    #[test]
    fn phase_rollup_groups_by_phase_in_pipeline_order() {
        let rec = |phase: &'static str, dur_ms: u64| cubie_obs::SpanRecord {
            phase,
            label: String::new(),
            tid: 0,
            start_ns: 0,
            dur_ns: dur_ms * 1_000_000,
            bytes: 0,
            items: 0,
            alloc_count: 3,
            alloc_bytes: 24,
        };
        let spans = vec![rec("time", 5), rec("prepare", 100), rec("time", 7)];
        let phases = phase_rollup(&spans);
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].phase.as_str(), phases[0].calls), ("prepare", 1));
        assert_eq!((phases[1].phase.as_str(), phases[1].calls), ("time", 2));
        assert!((phases[1].busy_ms - 12.0).abs() < 1e-9);
        assert_eq!(
            (phases[1].alloc_count, phases[1].alloc_bytes),
            (6, 48),
            "allocation telemetry must sum across a phase's spans"
        );
    }

    #[test]
    fn pre_alloc_baselines_parse_with_zero_defaults() {
        // A v2 phase entry recorded before allocation telemetry must
        // parse as zero allocations (no baseline re-record required).
        let mut doc = sample().to_json();
        let Json::Object(ref mut fields) = doc else {
            panic!("smoke json is an object")
        };
        for (k, v) in fields.iter_mut() {
            if k != "phases" {
                continue;
            }
            let Json::Array(ref mut entries) = v else {
                panic!("phases is an array")
            };
            for entry in entries {
                let Json::Object(ref mut pf) = entry else {
                    panic!("phase entry is an object")
                };
                pf.retain(|(k, _)| k != "alloc_count" && k != "alloc_bytes");
            }
        }
        let back = SmokeResult::from_json(&doc).unwrap();
        assert!(back.phases.iter().all(|p| p.alloc_count == 0));
        assert!(back.phases.iter().all(|p| p.alloc_bytes == 0));
        // ... and such a baseline never trips the alloc gate, no matter
        // how many allocations the current run records.
        assert!(check_smoke(&sample(), &back, DEFAULT_FACTOR).is_empty());
    }

    #[test]
    fn alloc_regression_fails_only_beyond_factor() {
        let base = sample();
        let mut cur = sample();
        cur.phases[0].alloc_count = (total_allocs(&base) as f64 * 1.9) as u64;
        cur.phases[1].alloc_count = 0;
        assert!(check_smoke(&cur, &base, DEFAULT_FACTOR).is_empty());
        cur.phases[0].alloc_count = (total_allocs(&base) as f64 * 2.1) as u64;
        let failures = check_smoke(&cur, &base, DEFAULT_FACTOR);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("allocations regressed"),
            "{failures:?}"
        );
        assert!(failures[0].contains("phase prepare"), "{}", failures[0]);
    }

    #[test]
    fn alloc_gate_skipped_when_current_unrecorded() {
        // A binary without the counting allocator reads zero allocations;
        // its results must still pass against an alloc-recording baseline.
        let base = sample();
        let mut cur = sample();
        for p in &mut cur.phases {
            p.alloc_count = 0;
            p.alloc_bytes = 0;
        }
        assert!(check_smoke(&cur, &base, DEFAULT_FACTOR).is_empty());
    }

    #[test]
    fn cubie_smoke_alloc_factor_falls_back_on_garbage() {
        let _guard = crate::env_lock();
        std::env::set_var("CUBIE_SMOKE_ALLOC_FACTOR", "plenty");
        assert_eq!(smoke_alloc_factor(), DEFAULT_ALLOC_FACTOR);
        std::env::set_var("CUBIE_SMOKE_ALLOC_FACTOR", "8.0");
        assert_eq!(smoke_alloc_factor(), 8.0);
        std::env::remove_var("CUBIE_SMOKE_ALLOC_FACTOR");
    }
}
