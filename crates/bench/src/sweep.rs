//! The shared sweep engine: one parallel, cached execution of the
//! workload × case × variant × device cross-product that every figure
//! and table artifact projects from.
//!
//! 1. **Preparation is cached.** [`SweepCache`] keeps one [`CaseMeta`]
//!    entry per `(workload, sparse_scale, graph_scale)`: the case labels,
//!    the useful work and the analytic [`WorkloadTrace`] of every
//!    (case, variant) — so the functional execution behind each cell
//!    happens exactly once per process, no matter how many consumers
//!    (figures, observations, tests) ask for it.
//! 2. **Execution is parallel.** Workload preparation fans out via
//!    `cubie_core::par::par_map`, as do the per-case trace constructions
//!    and the per-cell timings. Results are collected in index order, so
//!    the output is bit-identical for any `--jobs` setting.
//! 3. **Projection is cheap.** A [`Sweep`] holds the timed
//!    [`SweepCell`]s in deterministic (Table 2 workload, case, variant,
//!    device) order plus the cache entries behind them, so figure
//!    artifacts become filters/folds over one shared result.
//!
//! `cubie sweep` narrows the cross-product with `--filter` terms, read by
//! [`SweepConfig::apply_filter`] (`workload=… variant=… device=… case=…
//! precision=…`), so a partial sweep never pays full-suite cost.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

use cubie_core::par::{par_map, par_map_lpt, set_max_workers};
use cubie_device::{all_devices, find_device, DeviceSpec};
use cubie_kernels::{gemm, prepare_cases, Precision, Variant, Workload};
use cubie_sim::{time_workload, WorkloadTiming, WorkloadTrace};

/// Cache key: workload at a generation scale.
type CaseKey = (Workload, usize, usize);

/// What one preparation of a workload at one pair of scales leaves
/// behind: labels, useful work and the traces of all five cases.
#[derive(Debug, Clone)]
pub struct CaseMeta {
    /// Case labels (x-axis of Figure 3), in Table 2 order.
    pub labels: Vec<String>,
    /// Useful work per case, in the workload's unit basis.
    pub useful: Vec<f64>,
    /// Case-major traces over [`Variant::ALL`] (`None` where the paper
    /// does not evaluate the variant, e.g. the PiC baseline).
    traces: Vec<Option<Arc<WorkloadTrace>>>,
}

impl CaseMeta {
    /// The trace of one (case, variant) cell (`None` when the paper does
    /// not evaluate the variant, or past the fifth case).
    pub fn trace(&self, case_idx: usize, v: Variant) -> Option<&Arc<WorkloadTrace>> {
        let vi = Variant::ALL.iter().position(|x| *x == v)?;
        self.traces
            .get(case_idx * Variant::ALL.len() + vi)?
            .as_ref()
    }
}

/// Process-wide memo of prepared cases and their analytic traces.
///
/// `prepare_cases` generates multi-hundred-MB sparse matrices and graphs
/// and the trace construction performs the functional execution of the
/// kernels; both are paid once per `(workload, scale)` here. The bulky
/// inputs themselves are dropped as soon as the traces exist — only
/// labels, useful work and traces are retained.
#[derive(Default)]
pub struct SweepCache {
    entries: Mutex<HashMap<CaseKey, Arc<CaseMeta>>>,
}

/// The cache behind [`SweepCache::global`].
static GLOBAL: LazyLock<Arc<SweepCache>> = LazyLock::new(Arc::default);

impl SweepCache {
    /// The process-wide cache shared by every default [`SweepRunner`].
    pub fn global() -> &'static Arc<SweepCache> {
        &GLOBAL
    }

    /// The entry of `w` at the given scales, preparing it (once per
    /// process) and recording the traces of all four variants for all
    /// five cases.
    pub fn ensure(&self, w: Workload, sparse_scale: usize, graph_scale: usize) -> Arc<CaseMeta> {
        let key = (w, sparse_scale, graph_scale);
        if let Some(meta) = self.entries.lock().unwrap().get(&key) {
            return Arc::clone(meta);
        }
        // Prepare outside the lock: generation is the expensive part and
        // other workloads must be able to prepare concurrently. If two
        // threads race on the same workload the loser's identical result
        // is discarded below.
        let cases = prepare_cases(w, sparse_scale, graph_scale);
        let useful: Vec<f64> = cases.iter().map(|c| c.useful_work()).collect();
        // All (case, variant) traces in parallel while the inputs are
        // alive; `trace()` is pure, so any schedule yields the same data.
        // Trace construction performs the functional execution — the
        // dominant cost of a cold sweep — so dispatch longest-first
        // (useful work is the cost estimate) to overlap the heavy cases
        // with the cheap tail instead of serializing behind them.
        let n_variants = Variant::ALL.len();
        let traces = par_map_lpt(
            cases.len() * n_variants,
            |i| useful[i / n_variants],
            |i| {
                let (ci, vi) = (i / n_variants, i % n_variants);
                cases[ci].trace(Variant::ALL[vi]).map(Arc::new)
            },
        );
        drop(cases);
        let meta = Arc::new(CaseMeta {
            labels: w.case_labels(),
            useful,
            traces,
        });
        Arc::clone(self.entries.lock().unwrap().entry(key).or_insert(meta))
    }
}

/// What to sweep: the filterable cross-product plus execution knobs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workloads to sweep, in output order (default: all ten, Table 2
    /// order).
    pub workloads: Vec<Workload>,
    /// Restrict to these variants (`None`: each workload's paper
    /// variants).
    pub variants: Option<Vec<Variant>>,
    /// Devices to time on (default: the three Table 5 devices).
    pub devices: Vec<DeviceSpec>,
    /// Restrict to these Table 2 case indices 0–4 (`None`: all five).
    pub cases: Option<Vec<usize>>,
    /// Operand precisions to sweep (default: FP64 only — the paper's main
    /// axis). Reduced precisions add GEMM-only TC/CC cells modelling the
    /// `m16n8k16`/`m16n8k8` mixed-precision MMAs; the FP64 cells are
    /// unaffected.
    pub precisions: Vec<Precision>,
    /// Scale divisor for the Table 4 sparse matrices.
    pub sparse_scale: usize,
    /// Scale divisor for the Table 3 graphs.
    pub graph_scale: usize,
    /// Worker-thread cap for this run (`None`: keep the process cap;
    /// also settable via `CUBIE_JOBS`). Never changes results, only
    /// wall-clock time.
    pub jobs: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            workloads: Workload::ALL.to_vec(),
            variants: None,
            devices: all_devices(),
            cases: None,
            precisions: vec![Precision::F64],
            sparse_scale: crate::sparse_scale(),
            graph_scale: crate::graph_scale(),
            jobs: crate::env_parse("CUBIE_JOBS"),
        }
    }
}

impl SweepConfig {
    /// The job count this configuration will actually run with: the
    /// explicit `--jobs`/`CUBIE_JOBS` value when set, otherwise the job
    /// count the pool resolves on its own
    /// ([`cubie_core::par::effective_workers`]). Startup log lines must
    /// print this — never a raw `Option` — so the CLI reports the same
    /// number the pool uses.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(cubie_core::par::effective_workers)
    }

    /// Apply one `key=value[,value…]` filter term (`workload=`,
    /// `variant=`, `device=`, `case=`, `precision=`).
    pub fn apply_filter(&mut self, term: &str) -> Result<(), String> {
        let (key, vals) = term
            .split_once('=')
            .ok_or_else(|| format!("filter `{term}` is not key=value"))?;
        match key {
            "workload" | "w" => {
                let mut ws = Vec::new();
                for v in vals.split(',') {
                    ws.push(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
                }
                // Preserve Table 2 order regardless of filter order.
                self.workloads = Workload::ALL
                    .into_iter()
                    .filter(|w| ws.contains(w))
                    .collect();
            }
            "variant" | "v" => {
                let mut vs = Vec::new();
                for v in vals.split(',') {
                    vs.push(Variant::parse(v).ok_or_else(|| format!("unknown variant `{v}`"))?);
                }
                self.variants = Some(vs);
            }
            "device" | "d" => {
                self.devices = vals.split(',').map(find_device).collect::<Result<_, _>>()?;
            }
            "precision" | "p" => {
                let mut ps = Vec::new();
                for v in vals.split(',') {
                    ps.push(
                        Precision::parse(v).ok_or_else(|| {
                            format!("unknown precision `{v}` (f64|f16|bf16|tf32)")
                        })?,
                    );
                }
                // Canonical f64 → f16 → bf16 → tf32 order regardless of
                // filter order.
                self.precisions = Precision::ALL
                    .into_iter()
                    .filter(|p| ps.contains(p))
                    .collect();
            }
            "case" | "c" => {
                let mut cs = Vec::new();
                for v in vals.split(',') {
                    let idx: usize = v
                        .parse()
                        .map_err(|_| format!("case index `{v}` is not 0–4"))?;
                    if idx > 4 {
                        return Err(format!("case index `{v}` is not 0–4"));
                    }
                    cs.push(idx);
                }
                cs.sort_unstable();
                cs.dedup();
                self.cases = Some(cs);
            }
            other => return Err(format!("unknown filter key `{other}`")),
        }
        Ok(())
    }

    /// The variants of `w` that survive this config's variant filter.
    pub fn variants_of(&self, w: Workload) -> Vec<Variant> {
        w.variants()
            .into_iter()
            .filter(|v| {
                self.variants
                    .as_ref()
                    .map(|f| f.contains(v))
                    .unwrap_or(true)
            })
            .collect()
    }

    /// The case indices swept (`cases` filter ∩ the workload's five).
    pub fn case_indices(&self, n_cases: usize) -> Vec<usize> {
        match &self.cases {
            Some(cs) => cs.iter().copied().filter(|c| *c < n_cases).collect(),
            None => (0..n_cases).collect(),
        }
    }

    /// The canonical request identity of this configuration — the
    /// keyed-request API the `cubied` content-addressed store hangs off.
    ///
    /// Two configurations produce bit-identical [`Sweep::to_artifact`]
    /// payloads iff their keys are equal: every axis that shapes the
    /// result (workloads, variant/case filters, devices, precisions,
    /// scales — order-sensitive, because cell order is) is spelled out,
    /// while `jobs` is deliberately **excluded** — the worker cap changes
    /// wall-clock only, never a bit of output (`tests/pool_determinism`),
    /// so requests differing only in `jobs` dedup onto one store entry.
    pub fn cache_key(&self) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        let wl = join(
            self.workloads
                .iter()
                .map(|w| w.spec().name.into())
                .collect(),
        );
        let var = match &self.variants {
            None => "*".to_string(),
            Some(vs) => join(vs.iter().map(|v| v.label().to_ascii_lowercase()).collect()),
        };
        let dev = join(self.devices.iter().map(|d| d.name.clone()).collect());
        let case = match &self.cases {
            None => "*".to_string(),
            Some(cs) => join(cs.iter().map(|c| c.to_string()).collect()),
        };
        let prec = join(self.precisions.iter().map(|p| p.label().into()).collect());
        format!(
            "wl={wl};var={var};dev={dev};case={case};prec={prec};sparse={};graph={}",
            self.sparse_scale, self.graph_scale
        )
    }
}

/// One timed cell of the sweep cross-product.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Workload.
    pub workload: Workload,
    /// Table 2 case index (0–4).
    pub case_idx: usize,
    /// Case label.
    pub case: String,
    /// Variant.
    pub variant: Variant,
    /// Operand precision ([`Precision::F64`] for every paper-default
    /// cell; reduced precisions appear only on GEMM TC/CC cells).
    pub precision: Precision,
    /// Device name.
    pub device: String,
    /// Useful work of one execution (workload unit basis).
    pub useful: f64,
    /// Full simulated timing (per-launch detail included).
    pub timing: WorkloadTiming,
}

impl SweepCell {
    /// Simulated execution time, seconds.
    pub fn time_s(&self) -> f64 {
        self.timing.total_s
    }

    /// Throughput in the workload's unit (useful work / time / 1e9).
    pub fn gthroughput(&self) -> f64 {
        self.useful / self.timing.total_s / 1e9
    }
}

/// The result of a sweep: cells in deterministic order plus the
/// underlying traces, for projections that need more than a timing
/// (power traces, roofline placement, advisor input, custom devices).
pub struct Sweep {
    /// All timed cells, ordered by (Table 2 workload, case index,
    /// variant order, device order).
    pub cells: Vec<SweepCell>,
    /// The configuration that produced this sweep.
    pub config: SweepConfig,
    meta: HashMap<Workload, Arc<CaseMeta>>,
}

impl Sweep {
    /// Workloads in this sweep, Table 2 order.
    pub fn workloads(&self) -> &[Workload] {
        &self.config.workloads
    }

    /// Devices in this sweep.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.config.devices
    }

    /// Case labels of `w` (all five, regardless of any case filter).
    pub fn labels(&self, w: Workload) -> &[String] {
        &self.meta[&w].labels
    }

    /// The cell of one (workload, case, variant, device), if swept.
    pub fn cell(
        &self,
        w: Workload,
        case_idx: usize,
        v: Variant,
        device: &str,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.workload == w && c.case_idx == case_idx && c.variant == v && c.device == device
        })
    }

    /// The cached analytic trace behind a cell (`None` for unevaluated
    /// variants or cells outside the swept scope).
    pub fn trace(&self, w: Workload, case_idx: usize, v: Variant) -> Option<&Arc<WorkloadTrace>> {
        let meta = self.meta.get(&w)?;
        let swept = self
            .config
            .case_indices(meta.labels.len())
            .contains(&case_idx)
            && self.config.variants_of(w).contains(&v);
        meta.trace(case_idx, v).filter(|_| swept)
    }

    /// Time one swept cell on an arbitrary (possibly hypothetical)
    /// device, reusing the cached trace.
    pub fn time_on(
        &self,
        device: &DeviceSpec,
        w: Workload,
        case_idx: usize,
        v: Variant,
    ) -> Option<WorkloadTiming> {
        self.trace(w, case_idx, v).map(|t| time_workload(device, t))
    }

    /// Project the swept cells into a canonical
    /// [`cubie_golden::Artifact`] — the serializable,
    /// golden-differ-comparable payload `cubied` serves and stores.
    /// Every column is `Class::Exact`: the simulator is
    /// deterministic, so a store hit must reproduce a fresh run
    /// bit-for-bit (f64s compared by bits via the canonical
    /// shortest-round-trip writer), and any drift is a cache-validation
    /// failure, not tolerable noise. Identity columns are key columns so
    /// `cubie_golden::diff` reports per-cell rows on mismatch. The
    /// request key rides in `meta` (bit-compared too), pinning the
    /// artifact to the configuration that produced it.
    pub fn to_artifact(&self) -> cubie_golden::Artifact {
        use cubie_golden::Column;
        let mut a = cubie_golden::Artifact::new(
            "sweep",
            vec![
                Column::exact("workload").key(),
                Column::exact("case").key(),
                Column::exact("variant").key(),
                Column::exact("precision").key(),
                Column::exact("device").key(),
                Column::exact("case_label"),
                Column::exact("useful"),
                Column::exact("time_s"),
            ],
        )
        .with_meta("key", self.config.cache_key().as_str())
        .with_meta("sparse_scale", self.config.sparse_scale as u64)
        .with_meta("graph_scale", self.config.graph_scale as u64);
        for c in &self.cells {
            a.push(vec![
                c.workload.spec().name.into(),
                (c.case_idx as u64).into(),
                c.variant.label().into(),
                c.precision.label().into(),
                c.device.as_str().into(),
                c.case.as_str().into(),
                c.useful.into(),
                c.time_s().into(),
            ]);
        }
        a
    }

    /// Geomean speedup of variant `a` over `b` on `device` across the
    /// swept cases of `w` (`None` if no case has both variants).
    pub fn geomean_speedup(
        &self,
        w: Workload,
        device: &str,
        a: Variant,
        b: Variant,
    ) -> Option<f64> {
        let mut log_sum = 0.0;
        let mut count = 0usize;
        for ci in 0..self.labels(w).len() {
            let (Some(ca), Some(cb)) = (self.cell(w, ci, a, device), self.cell(w, ci, b, device))
            else {
                continue;
            };
            log_sum += (cb.time_s() / ca.time_s()).ln();
            count += 1;
        }
        (count > 0).then(|| (log_sum / count as f64).exp())
    }
}

/// LPT dispatch order, re-exported from [`cubie_core::par`] where it
/// lives so the prep-store cold path and the sparse/graph generators
/// can schedule by it too. Kept `pub` here for the existing bench API
/// surface.
pub use cubie_core::par::makespan_order;

/// Runs the configured cross-product through the cache, in parallel.
pub struct SweepRunner {
    config: SweepConfig,
    cache: Arc<SweepCache>,
}

impl SweepRunner {
    /// A runner over the process-global cache (what the CLI uses).
    pub fn new(config: SweepConfig) -> Self {
        SweepRunner::with_cache(config, Arc::clone(SweepCache::global()))
    }

    /// A runner over a private cache (isolation for equivalence tests).
    pub fn with_cache(config: SweepConfig, cache: Arc<SweepCache>) -> Self {
        SweepRunner { config, cache }
    }

    /// Execute the sweep: prepare (cached) every workload in parallel,
    /// then time every (workload, case, variant, device) cell in
    /// parallel, collecting in deterministic order.
    pub fn run(&self) -> Sweep {
        let cfg = &self.config;
        let prev_jobs = cfg.jobs.map(set_max_workers);
        // Spawn the persistent pool up to the job cap before the first
        // parallel region: back-to-back sweeps in one process (and the
        // nested `par_*` calls inside each phase) reuse these workers
        // instead of paying thread creation per call.
        cubie_core::pool::prewarm();

        // Phase A — preparation + traces, fanned out over workloads.
        let (ss, gs) = (cfg.sparse_scale, cfg.graph_scale);
        let metas = par_map(cfg.workloads.len(), |i| {
            self.cache.ensure(cfg.workloads[i], ss, gs)
        });
        let meta: HashMap<Workload, Arc<CaseMeta>> =
            cfg.workloads.iter().copied().zip(metas).collect();

        // Enumerate the cross-product in canonical order, keeping only
        // cells whose variant the paper evaluates. FP64 is the paper's
        // main axis; a `precision=` filter excluding it skips phase B.
        let mut keys: Vec<(Workload, usize, Variant, usize)> = Vec::new();
        if cfg.precisions.contains(&Precision::F64) {
            for &w in &cfg.workloads {
                for ci in cfg.case_indices(meta[&w].labels.len()) {
                    for v in cfg.variants_of(w) {
                        if meta[&w].trace(ci, v).is_none() {
                            continue; // PiC baseline
                        }
                        for di in 0..cfg.devices.len() {
                            keys.push((w, ci, v, di));
                        }
                    }
                }
            }
        }

        // Phase B — timing, fanned out over cells longest-first (useful
        // work estimates per-cell cost) so a heavy straggler cannot be
        // the last dispatch. Results scatter back to index order, so
        // `cells` stays canonical and bit-identical for any job count.
        let mut cells = par_map_lpt(
            keys.len(),
            |i| meta[&keys[i].0].useful[keys[i].1],
            |i| {
                let (w, ci, v, di) = keys[i];
                let device = &cfg.devices[di];
                let m = &meta[&w];
                SweepCell {
                    workload: w,
                    case_idx: ci,
                    case: m.labels[ci].clone(),
                    variant: v,
                    precision: Precision::F64,
                    device: device.name.clone(),
                    useful: m.useful[ci],
                    timing: time_workload(device, m.trace(ci, v).expect("keyed cells have traces")),
                }
            },
        );

        // Phase C — mixed-precision cells, appended after the FP64 block
        // so default sweeps stay bit-identical. Reduced precisions exist
        // for GEMM only (the quadrant the mixed-precision MMAs serve) in
        // the TC and CC variants.
        let mixed: Vec<Precision> = cfg
            .precisions
            .iter()
            .copied()
            .filter(|p| *p != Precision::F64)
            .collect();
        if !mixed.is_empty() && cfg.workloads.contains(&Workload::Gemm) {
            let cases = gemm::GemmCase::cases();
            let m = &meta[&Workload::Gemm];
            let variants: Vec<Variant> = [Variant::Tc, Variant::Cc]
                .into_iter()
                .filter(|v| cfg.variants_of(Workload::Gemm).contains(v))
                .collect();
            let mut mkeys: Vec<(Precision, usize, Variant, usize)> = Vec::new();
            for &p in &mixed {
                for ci in cfg.case_indices(cases.len()) {
                    for &v in &variants {
                        for di in 0..cfg.devices.len() {
                            mkeys.push((p, ci, v, di));
                        }
                    }
                }
            }
            cells.extend(par_map_lpt(
                mkeys.len(),
                |i| m.useful[mkeys[i].1],
                |i| {
                    let (p, ci, v, di) = mkeys[i];
                    let device = &cfg.devices[di];
                    let trace = gemm::trace_precision(&cases[ci], v, p);
                    SweepCell {
                        workload: Workload::Gemm,
                        case_idx: ci,
                        case: m.labels[ci].clone(),
                        variant: v,
                        precision: p,
                        device: device.name.clone(),
                        useful: m.useful[ci],
                        timing: time_workload(device, &trace),
                    }
                },
            ));
        }

        if let Some(prev) = prev_jobs {
            set_max_workers(prev);
        }
        Sweep {
            cells,
            config: cfg.clone(),
            meta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SweepConfig {
        SweepConfig {
            workloads: vec![Workload::Scan, Workload::Reduction],
            sparse_scale: 64,
            graph_scale: 512,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_produces_cells_in_canonical_order() {
        let sweep = SweepRunner::with_cache(quick_config(), Arc::new(SweepCache::default())).run();
        // 2 workloads × 5 cases × 4 variants × 3 devices.
        assert_eq!(sweep.cells.len(), 2 * 5 * 4 * 3);
        let mut prev: Option<(usize, usize, usize, usize)> = None;
        for c in &sweep.cells {
            let variants = c.workload.variants();
            let key = (
                c.workload.index(),
                c.case_idx,
                variants.iter().position(|v| *v == c.variant).unwrap(),
                sweep
                    .devices()
                    .iter()
                    .position(|d| d.name == c.device)
                    .unwrap(),
            );
            if let Some(p) = prev {
                assert!(key > p, "cells out of order: {key:?} after {p:?}");
            }
            prev = Some(key);
            assert!(c.time_s() > 0.0 && c.gthroughput() > 0.0);
        }
    }

    #[test]
    fn makespan_order_is_longest_first_with_index_tiebreak() {
        let costs = [3.0, 9.0, 1.0, 9.0, 4.0];
        assert_eq!(makespan_order(costs.len(), |i| costs[i]), [1, 3, 4, 0, 2]);
        // NaN costs must not panic and must stay deterministic.
        let weird = [f64::NAN, 2.0, f64::NAN];
        let order = makespan_order(weird.len(), |i| weird[i]);
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2], "order must be a permutation");
        assert_eq!(makespan_order(0, |_| 0.0), Vec::<usize>::new());
    }

    #[test]
    fn par_map_lpt_scatters_back_to_canonical_order() {
        // Inverted costs force a dispatch order that is the exact
        // reverse of the index order — the scatter must undo it.
        let n = 97;
        let lpt = par_map_lpt(n, |i| -(i as f64), |i| i * i);
        let plain = par_map(n, |i| i * i);
        assert_eq!(lpt, plain);
    }

    #[test]
    fn cache_prepares_once() {
        let cache = Arc::new(SweepCache::default());
        let m1 = cache.ensure(Workload::Gemm, 64, 512);
        let m2 = cache.ensure(Workload::Gemm, 64, 512);
        assert!(Arc::ptr_eq(&m1, &m2), "second ensure must hit the cache");
        assert_eq!(m1.labels, Workload::Gemm.case_labels());
        assert!(m1.trace(4, Variant::Tc).is_some());
        assert!(m1.trace(5, Variant::Tc).is_none(), "five cases only");
        let pic = cache.ensure(Workload::Pic, 64, 512);
        assert!(
            pic.trace(0, Variant::Baseline).is_none(),
            "PiC has no baseline"
        );
    }

    #[test]
    fn filters_restrict_the_cross_product() {
        let mut cfg = quick_config();
        cfg.apply_filter("variant=tc").unwrap();
        cfg.apply_filter("case=2").unwrap();
        cfg.apply_filter("device=h200").unwrap();
        let sweep = SweepRunner::with_cache(cfg, Arc::new(SweepCache::default())).run();
        assert_eq!(sweep.cells.len(), 2); // 2 workloads × 1 × 1 × 1
        assert!(sweep
            .cells
            .iter()
            .all(|c| c.variant == Variant::Tc && c.case_idx == 2));
        // Traces outside the filters stay hidden though the cache holds them.
        assert!(sweep.trace(Workload::Scan, 2, Variant::Tc).is_some());
        assert!(sweep.trace(Workload::Scan, 1, Variant::Tc).is_none());
        assert!(sweep.trace(Workload::Scan, 2, Variant::Cc).is_none());
        assert!(sweep.trace(Workload::Gemm, 2, Variant::Tc).is_none());
    }

    #[test]
    fn filter_errors_are_reported() {
        let mut cfg = SweepConfig::default();
        assert!(cfg.apply_filter("workload=nope").is_err());
        assert!(cfg.apply_filter("case=9").is_err());
        assert!(cfg.apply_filter("bogus").is_err());
    }

    #[test]
    fn unknown_filter_values_name_the_offender() {
        let mut cfg = SweepConfig::default();
        let err = cfg.apply_filter("workload=gemmm").unwrap_err();
        assert!(err.contains("gemmm"), "{err}");
        let err = cfg.apply_filter("variant=tcx").unwrap_err();
        assert!(err.contains("tcx"), "{err}");
        let err = cfg.apply_filter("speed=fast").unwrap_err();
        assert!(err.contains("unknown filter key"), "{err}");
    }

    #[test]
    fn cache_key_excludes_jobs_and_tracks_every_result_axis() {
        let base = quick_config();
        let mut capped = base.clone();
        capped.jobs = Some(7);
        assert_eq!(
            base.cache_key(),
            capped.cache_key(),
            "jobs never changes results, so it must not change the key"
        );
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.cache_key());
        for term in ["workload=gemm", "variant=tc", "device=h200", "case=2"] {
            let mut cfg = quick_config();
            cfg.apply_filter(term).unwrap();
            assert!(
                seen.insert(cfg.cache_key()),
                "{term} did not change the key"
            );
        }
        let mut cfg = quick_config();
        cfg.sparse_scale = 128;
        assert!(seen.insert(cfg.cache_key()));
        cfg.graph_scale = 1024;
        assert!(seen.insert(cfg.cache_key()));
        cfg.precisions = vec![Precision::F64, Precision::F16];
        assert!(seen.insert(cfg.cache_key()));
    }

    #[test]
    fn to_artifact_is_bit_deterministic_and_row_per_cell() {
        let mut cfg = quick_config();
        cfg.apply_filter("case=1,3").unwrap();
        let a = SweepRunner::with_cache(cfg.clone(), Arc::new(SweepCache::default()))
            .run()
            .to_artifact();
        let b = SweepRunner::with_cache(cfg.clone(), Arc::new(SweepCache::default()))
            .run()
            .to_artifact();
        assert_eq!(a.rows.len(), 2 * 2 * 4 * 3, "one row per swept cell");
        // Two cold-cache runs must serialize to the same bytes — the
        // invariant the content-addressed store's hit path rests on.
        assert_eq!(
            a.to_json().to_pretty_string(),
            b.to_json().to_pretty_string()
        );
        cubie_golden::verify_bit_identical(&a, &b).expect("differ must agree");
        assert_eq!(
            a.meta.iter().find(|(k, _)| k == "key").map(|(_, v)| v),
            Some(&cubie_golden::Json::from(cfg.cache_key().as_str()))
        );
    }

    #[test]
    fn repeated_workload_filter_is_last_wins() {
        // Each workload filter restarts from the full Table 2 list, so the
        // last one on the command line wins — repeats never intersect.
        let mut cfg = SweepConfig::default();
        cfg.apply_filter("workload=scan").unwrap();
        cfg.apply_filter("workload=gemm").unwrap();
        assert_eq!(cfg.workloads, vec![Workload::Gemm]);
    }

    #[test]
    fn workload_filter_preserves_table2_order() {
        // spmv listed before gemm; the sweep still runs Table 2 order
        // (Gemm before Spmv).
        let mut cfg = SweepConfig::default();
        cfg.apply_filter("workload=spmv,gemm").unwrap();
        assert_eq!(cfg.workloads, vec![Workload::Gemm, Workload::Spmv]);
    }

    #[test]
    fn effective_jobs_matches_what_the_pool_runs() {
        let _env = crate::env_lock();
        let _cap = cubie_core::pool::cap_lock();
        // Explicit --jobs / CUBIE_JOBS: the printed count is the flag.
        std::env::set_var("CUBIE_JOBS", "3");
        let cfg = SweepConfig::default();
        assert_eq!(cfg.jobs, Some(3));
        assert_eq!(cfg.effective_jobs(), 3);
        // Unset (and unparseable, which env_parse warns about and
        // drops): the printed count is exactly the pool's own
        // resolution — not "auto", not a guess.
        std::env::set_var("CUBIE_JOBS", "a-few");
        let cfg = SweepConfig::default();
        assert_eq!(cfg.jobs, None);
        assert_eq!(cfg.effective_jobs(), cubie_core::par::effective_workers());
        std::env::remove_var("CUBIE_JOBS");
        let cfg = SweepConfig::default();
        assert_eq!(cfg.effective_jobs(), cubie_core::par::effective_workers());
    }

    #[test]
    fn precision_filter_parses_and_orders() {
        let mut cfg = SweepConfig::default();
        assert_eq!(cfg.precisions, vec![Precision::F64]);
        cfg.apply_filter("precision=tf32,f16").unwrap();
        assert_eq!(cfg.precisions, vec![Precision::F16, Precision::Tf32]);
        cfg.apply_filter("p=f64,bf16").unwrap();
        assert_eq!(cfg.precisions, vec![Precision::F64, Precision::Bf16]);
        assert!(cfg.apply_filter("precision=f8").is_err());
    }

    #[test]
    fn default_sweep_cells_are_all_f64() {
        let sweep = SweepRunner::with_cache(quick_config(), Arc::new(SweepCache::default())).run();
        assert!(sweep.cells.iter().all(|c| c.precision == Precision::F64));
    }

    #[test]
    fn mixed_precision_sweep_adds_gemm_cells() {
        let mut cfg = SweepConfig {
            workloads: vec![Workload::Gemm],
            sparse_scale: 64,
            graph_scale: 512,
            ..SweepConfig::default()
        };
        cfg.apply_filter("precision=f16,tf32").unwrap();
        cfg.apply_filter("case=0,1").unwrap();
        cfg.apply_filter("device=h200").unwrap();
        let sweep = SweepRunner::with_cache(cfg, Arc::new(SweepCache::default())).run();
        // No f64 precision requested: 2 precisions × 2 cases × 2 variants
        // (TC, CC) × 1 device, no FP64 block.
        assert_eq!(sweep.cells.len(), 2 * 2 * 2);
        assert!(sweep.cells.iter().all(|c| c.workload == Workload::Gemm
            && c.precision != Precision::F64
            && matches!(c.variant, Variant::Tc | Variant::Cc)));
        // An f16 MMA cell must run faster than its CC replacement: the
        // TC/CC peak gap at reduced precision is ~15×, not FP64's 2×.
        let tc = sweep
            .cells
            .iter()
            .find(|c| c.variant == Variant::Tc && c.precision == Precision::F16)
            .unwrap();
        let cc = sweep
            .cells
            .iter()
            .find(|c| {
                c.variant == Variant::Cc
                    && c.precision == Precision::F16
                    && c.case_idx == tc.case_idx
            })
            .unwrap();
        assert!(tc.time_s() < cc.time_s(), "TC must beat its CC replacement");
    }

    #[test]
    fn mixed_precision_block_appends_after_f64_block() {
        let mut cfg = SweepConfig {
            workloads: vec![Workload::Gemm],
            sparse_scale: 64,
            graph_scale: 512,
            ..SweepConfig::default()
        };
        cfg.apply_filter("precision=f64,bf16").unwrap();
        cfg.apply_filter("case=0").unwrap();
        cfg.apply_filter("device=a100").unwrap();
        let sweep = SweepRunner::with_cache(cfg, Arc::new(SweepCache::default())).run();
        // FP64 block (TC, CC — quadrant I folds CC-E; Baseline too) then
        // the bf16 block (TC, CC).
        let split = sweep
            .cells
            .iter()
            .position(|c| c.precision != Precision::F64)
            .unwrap();
        assert!(sweep.cells[..split]
            .iter()
            .all(|c| c.precision == Precision::F64));
        assert!(sweep.cells[split..]
            .iter()
            .all(|c| c.precision == Precision::Bf16));
        assert_eq!(sweep.cells.len() - split, 2);
    }

    #[test]
    fn geomean_speedup_matches_direction() {
        let mut cfg = quick_config();
        cfg.workloads = vec![Workload::Reduction];
        let sweep = SweepRunner::with_cache(cfg, Arc::new(SweepCache::default())).run();
        let d = &sweep.devices()[0].name.clone();
        let s = sweep
            .geomean_speedup(Workload::Reduction, d, Variant::Tc, Variant::Baseline)
            .unwrap();
        assert!(s > 1.0, "reduction TC speedup {s}");
    }

    #[test]
    fn pic_baseline_has_no_cells() {
        let cfg = SweepConfig {
            workloads: vec![Workload::Pic],
            sparse_scale: 64,
            graph_scale: 512,
            ..SweepConfig::default()
        };
        let sweep = SweepRunner::with_cache(cfg, Arc::new(SweepCache::default())).run();
        assert!(sweep.cells.iter().all(|c| c.variant != Variant::Baseline));
        // 5 cases × 2 variants (TC, CC — quadrant I folds CC-E) × 3 devices.
        assert_eq!(sweep.cells.len(), 5 * 2 * 3);
    }
}
