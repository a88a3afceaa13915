//! cubie-perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_warm|sweep_cold|golden_check|cubied_mix> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root. With `--trace 0` it measures the
//! workload end to end for `--seconds`; with `--trace 1` it repeats the
//! serial traced pass (`layers`) instead and reports per-layer times.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a readable table goes
//! to standard error and the full record (host fingerprint, raw samples,
//! the workload's own named metrics) to `perfbench/results/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod golden;
mod layers;
mod mix;
mod stats;
mod sweeps;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use cubie_bench::SweepConfig;
use cubie_golden::Json;
use cubie_prep::PrepConfig;

use stats::Tail;

/// Table 4 sparse-matrix scale divisor of every workload (the goldens').
pub const SPARSE_SCALE: usize = cubie_bench::artifacts::GOLDEN_SPARSE_SCALE;
/// Table 3 graph scale divisor of every workload (the goldens').
pub const GRAPH_SCALE: usize = cubie_bench::artifacts::GOLDEN_GRAPH_SCALE;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str =
    "usage: cubie-perfbench --workload <sweep_warm|sweep_cold|golden_check|cubied_mix> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full sweep, warm prep store.
    SweepWarm,
    /// Full sweep, prep store emptied before each sweep.
    SweepCold,
    /// `cubie golden check` as a subprocess.
    GoldenCheck,
    /// Closed-loop request mix against an in-process `cubied`.
    CubiedMix,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::SweepWarm,
        Kind::SweepCold,
        Kind::GoldenCheck,
        Kind::CubiedMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::SweepWarm => "sweep_warm",
            Kind::SweepCold => "sweep_cold",
            Kind::GoldenCheck => "golden_check",
            Kind::CubiedMix => "cubied_mix",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweeps, golden checks, requests, traced
    /// passes).
    pub attempted: u64,
    /// Attempts that errored, were rejected, or failed an oracle.
    pub failed: u64,
    /// The metrics of the final JSON line (`end_to_end` or `per_layer`).
    pub metrics: Vec<Metric>,
    /// The workload's own named metrics, kept in the record.
    pub details: Vec<Metric>,
    /// How `tail_s` was taken.
    pub tail: Option<Tail>,
    /// Raw per-operation samples, kept in the record.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Push the end-to-end metrics every workload reports, with the
    /// workload's `mean_s` and its raw per-operation wall times. The
    /// median and the tail go to the record only: they move more between
    /// runs than any allowed bound (see `perfbench/README.md`,
    /// "End-to-end metrics").
    pub fn end_to_end(&mut self, mean_s: f64, samples: &[f64], setup_s: f64, peak_rss_mib: f64) {
        self.metrics.extend([
            Metric::new("mean_s", mean_s, "s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        ]);
        let tail = stats::tail(samples);
        self.details.extend([
            Metric::new("p50_s", stats::median(samples), "s"),
            Metric::new("tail_s", tail.value, "s"),
        ]);
        self.tail = Some(tail);
    }
}

/// Paths and knobs of one run.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    /// Worker count of the parallel workloads: the host's core count.
    pub jobs: usize,
    /// The repository root (absolute; also the working directory).
    pub root: PathBuf,
    /// This run's scratch directory, relative to the root so that unix
    /// socket paths under it stay short.
    pub work: PathBuf,
}

impl Bench {
    /// The prep store every sweep of this run reads and writes
    /// (absolute: subprocesses run elsewhere). [`bench_for`] points
    /// `CUBIE_PREP_DIR` at it, so `PrepConfig::from_env()` resolves to it.
    pub fn prep_dir(&self) -> PathBuf {
        self.root.join(&self.work).join("prep")
    }

    pub fn empty_prep_store(&self) {
        let _ = std::fs::remove_dir_all(self.prep_dir());
    }

    /// Empty the prep store, then record the Table 3/4 snapshots at the
    /// golden scales.
    pub fn fill_prep_store(&self) {
        self.empty_prep_store();
        let cfg = PrepConfig::from_env();
        cubie_prep::table4_matrices_with(&cfg, SPARSE_SCALE);
        cubie_prep::table3_graphs_with(&cfg, GRAPH_SCALE);
    }

    /// The full ten-workload FP64 sweep over all devices at the golden
    /// scales, capped at `jobs` workers.
    pub fn sweep_config(&self, jobs: usize) -> SweepConfig {
        SweepConfig {
            sparse_scale: SPARSE_SCALE,
            graph_scale: GRAPH_SCALE,
            jobs: Some(jobs),
            ..SweepConfig::default()
        }
    }
}

/// Run `f` [`SETUP_REPS`] times; the median wall time and the last
/// result. Each earlier result is dropped before the next timed call.
pub fn median_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("SETUP_REPS > 0"))
}

/// Peak resident set (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status` (`pid` may be `self`).
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset this process's peak resident set to its current resident set,
/// so that a later `peak_rss_mib("self")` covers only what runs after
/// the call (the measured phase, not set-up).
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak resident set: {e}");
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Resolve the run's paths and pin the environment knobs the program
/// reads, so that nothing from the caller's shell changes what is
/// measured.
fn bench_for(args: &Args) -> Result<Bench, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    for needed in ["Cargo.toml", "crates", "results/golden"] {
        if !root.join(needed).exists() {
            return Err(format!(
                "`{needed}` not found: run from the repository root"
            ));
        }
    }
    let work = PathBuf::from("perfbench/work").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let bench = Bench {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        jobs: cubie_core::pool::host_parallelism(),
        root,
        work,
    };
    for knob in [
        "CUBIE_JOBS",
        "CUBIE_PREP_CACHE",
        "CUBIE_PREP_MMAP",
        "CUBIE_SPARSE_SCALE",
        "CUBIE_GRAPH_SCALE",
        "CUBIE_GOLDEN_DIR",
        "CUBIE_WS",
        "CUBIE_MMA_PERTURB_ULP",
        "CUBIE_ERRORS_QUICK",
        "CUBIE_MATRIX_CORPUS",
        "CUBIE_GRAPH_CORPUS",
    ] {
        std::env::remove_var(knob);
    }
    std::env::set_var("CUBIE_PREP_DIR", bench.prep_dir());
    std::env::set_var("CUBIE_GOLDEN_DIR", bench.root.join("results/golden"));
    Ok(bench)
}

/// First line of a command's standard output, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// The host fingerprint recorded with every result.
fn fingerprint(b: &Bench, trace: bool) -> Json {
    let prep_store = match (b.kind, trace) {
        (Kind::SweepCold, _) => "cold",
        _ => "warm",
    };
    Json::Object(vec![
        ("nproc".into(), (b.jobs as u64).into()),
        (
            "simd_path".into(),
            cubie_core::simd::active_path().label().into(),
        ),
        (
            "jobs".into(),
            (if trace { 1 } else { b.jobs as u64 }).into(),
        ),
        (
            "rustc".into(),
            command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        (
            "commit".into(),
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into())
                .into(),
        ),
        ("prep_store".into(), prep_store.into()),
    ])
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Object(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Object(vec![
                        ("value".into(), m.value.into()),
                        ("unit".into(), m.unit.into()),
                    ]),
                )
            })
            .collect(),
    )
}

/// Write the full record of the run under `perfbench/results/`.
fn write_record(b: &Bench, trace: bool, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = Path::new("perfbench/results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        b.kind.name(),
        b.seed,
        u8::from(trace)
    ));
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    let mut doc = vec![
        ("workload".to_string(), b.kind.name().into()),
        ("seed".into(), b.seed.into()),
        ("seconds".into(), b.seconds.into()),
        ("trace".into(), trace.into()),
        ("host".into(), fingerprint(b, trace)),
        ("attempted".into(), out.attempted.into()),
        ("failed".into(), out.failed.into()),
        ("failed_share".into(), failed_share.into()),
        ("metrics".into(), metrics_json(&out.metrics)),
        ("details".into(), metrics_json(&out.details)),
    ];
    if let Some(t) = out.tail {
        doc.push((
            "tail".into(),
            Json::Object(vec![
                ("percentile".into(), t.percentile.into()),
                ("samples".into(), (t.samples as u64).into()),
            ]),
        ));
    }
    doc.push((
        "samples".into(),
        Json::Object(
            out.samples
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Json::Array(v.iter().map(|x| (*x).into()).collect()),
                    )
                })
                .collect(),
        ),
    ));
    std::fs::write(&path, Json::Object(doc).to_pretty_string())?;
    Ok(path)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(golden::CHILD_FLAG) {
        std::process::exit(golden::traced_child());
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bench = match bench_for(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Library diagnostics (prep loads, daemon banners) stay in memory
    // instead of flooding standard error.
    cubie_obs::set_log_echo(false);

    let out = if args.trace {
        layers::run(&bench)
    } else {
        match bench.kind {
            Kind::SweepWarm => sweeps::run(&bench, false),
            Kind::SweepCold => sweeps::run(&bench, true),
            Kind::GoldenCheck => golden::run(&bench),
            Kind::CubiedMix => mix::run(&bench),
        }
    };
    let _ = std::fs::remove_dir_all(&bench.work);

    eprintln!(
        "perfbench: {} seed={} trace={} attempted={} failed={}",
        bench.kind.name(),
        bench.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for m in out.metrics.iter().chain(&out.details) {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = out.tail {
        eprintln!("  tail_s is p{} of {} samples", t.percentile, t.samples);
    }
    match write_record(&bench, args.trace, &out) {
        Ok(path) => eprintln!("perfbench: record written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write the record: {e}"),
    }
    let result = Json::Object(vec![
        ("correct".into(), (out.failed == 0).into()),
        ("attempted".into(), out.attempted.into()),
        ("failed".into(), out.failed.into()),
        ("metrics".into(), metrics_json(&out.metrics)),
    ]);
    println!("{}", result.to_canonical_string());
}
