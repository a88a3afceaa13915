//! `cubie` — command-line front end to the suite.
//!
//! ```text
//! cubie devices                      list the Table 5 devices
//! cubie workloads                    the suite inventory (Table 2)
//! cubie sweep [opts]                 the full workload × case × variant ×
//!                                    device sweep (parallel, cached)
//! cubie run <workload> [opts]        simulate all variants of a workload
//! cubie verify <workload>            each variant's max error on Table 6's
//!                                    quick case, against the serial CPU
//!                                    reference (TC and CC must agree bit
//!                                    for bit); BFS compares levels
//! cubie errors [--quick]             the Table 6 accuracy study
//! cubie figure [--only a,b] [opts]   build every figure/table artifact
//!                                    at the paper scale and write
//!                                    results/<name>.csv, .json and the
//!                                    markdown log results/logs/<name>.md
//! cubie advise <workload> [opts]     MMU-suitability prediction
//! cubie golden record [--only a,b]   snapshot every canonical artifact
//!                                    at the pinned reduced scale into
//!                                    results/golden/
//! cubie golden check [--only a,b]    rebuild and diff against the
//!                                    committed goldens (bit-exact /
//!                                    epsilon / ordinal per column);
//!                                    writes results/golden_diff.json,
//!                                    exits 1 on any mismatch
//! cubie golden list                  registry + recorded status
//! cubie profile [opts] [--check]     run a (filterable) sweep with the
//!                                    span recorder on; print a per-phase
//!                                    hotspot table and write a Chrome
//!                                    trace (results/profile_trace.json,
//!                                    loadable in Perfetto / chrome://
//!                                    tracing) plus the table as JSON
//!                                    (results/profile_hotspots.json).
//!                                    --check forces --jobs 1 and exits 1
//!                                    unless the top-level phase times sum
//!                                    to within 20% of wall time
//! cubie serve [opts]                 run cubied, the sweep-as-a-service
//!                                    daemon: line-delimited JSON over a
//!                                    unix socket, deduplicated execution,
//!                                    a content-addressed result store
//!                                    under results/store/, admission
//!                                    control with backpressure
//! cubie client <req> [opts]          talk to a running cubied:
//!                                    ping|stats|shutdown|sweep|advise|
//!                                    profile; prints the JSON response,
//!                                    exits 1 on an error response
//!
//! options: --device a100|h200|b200   (default: all three)
//!          --case N                  Table 2 case index 0–4 (default 2)
//!          --sparse-scale K          divide Table 4 matrix sizes by K
//!          --graph-scale K           divide Table 3 graph sizes by K
//!
//! `sweep`, `profile` and `client sweep|profile` accept the engine flags:
//!          --filter workload=…|variant=…|device=…|case=…|precision=…
//!                                    (repeatable; precision adds GEMM
//!                                    f16/bf16/tf32 TC/CC cells)
//!          --jobs N                  worker-thread cap (results identical
//!                                    for every N; only wall-clock changes)
//! (`-f` and `-j` spell them too on `sweep` and `profile`).
//!
//! `CUBIE_JOBS=N` is the sweep engine's default `--jobs`; `verify`,
//! `errors`, `figure`, `advise` and `golden record|check` apply it to
//! the whole process, so Table 6, Figure 10, Figure 11 and the advisor's
//! preparation run under it too.
//! ```
//!
//! Every command declares its arguments once, in `COMMANDS`; the same
//! declaration parses the command line and prints the usage line. An
//! unknown argument, a flag without its value, an extra positional or a
//! repeated flag (only `--filter` repeats) is a usage error (exit 2,
//! with the command's usage line) before anything is prepared, written
//! or connected to.

use std::path::PathBuf;

use cubie::analysis::advisor::{advise, reference_mapping, source_variant};
use cubie::analysis::errors::{table6, table6_row, ErrorScale};
use cubie::analysis::metrics::REPRESENTATIVE_CASE;
use cubie::analysis::report;
use cubie::bench::{artifacts, parse_flag, parse_scale, SweepConfig, SweepRunner};
use cubie::device::{all_devices, find_device, DeviceSpec};
use cubie::golden::{ArtifactDiff, DiffReport, Json};
use cubie::kernels::Workload;
use cubie::serve::{AdviseSpec, SweepSpec};

/// Every command as its usage line, and its handler. The usage line is
/// the declaration the parser reads: the leading words select the
/// command (`a|b` lists alternatives), `<name>` is a required
/// positional, `[--flag VALUE]` a flag with a value (`--flag|-f` adds a
/// second spelling) and `[--flag]` a switch. Only `--filter` repeats.
const COMMANDS: &[(&str, Handler)] = &[
    ("devices", devices_cmd),
    ("workloads", workloads_cmd),
    (
        "sweep [--filter|-f workload=…|variant=…|device=…|case=…|precision=…] \
         [--jobs|-j N] [--sparse-scale K] [--graph-scale K]",
        sweep_cmd,
    ),
    (
        "run <workload> [--device a100|h200|b200] [--case 0..4] \
         [--sparse-scale K] [--graph-scale K]",
        run_cmd,
    ),
    ("verify <workload>", verify_cmd),
    ("errors [--quick]", errors_cmd),
    (
        "figure [--only name,name] [--sparse-scale K] [--graph-scale K]",
        figure_cmd,
    ),
    (
        "advise <workload> [--device a100|h200|b200] [--sparse-scale K] [--graph-scale K]",
        advise_cmd,
    ),
    ("golden record [--only name,name]", golden_record),
    ("golden check [--only name,name]", golden_check),
    ("golden list", golden_list),
    (
        "profile [--filter|-f workload=…|variant=…|device=…|case=…|precision=…] \
         [--jobs|-j N] [--sparse-scale K] [--graph-scale K] [--check]",
        profile_cmd,
    ),
    (
        "serve [--socket PATH] [--store DIR] [--max-jobs N] [--heavy N] [--queue N]",
        serve_cmd,
    ),
    ("client ping|stats|shutdown [--socket PATH]", |args| {
        client_send(args, cubie::serve::proto::simple_request(&args.word))
    }),
    (
        "client sweep|profile [--filter workload=…|variant=…|device=…|case=…|precision=…] \
         [--jobs N] [--sparse-scale K] [--graph-scale K] [--verify] [--socket PATH]",
        |args| client_send(args, args.sweep_spec().to_json(&args.word)),
    ),
    (
        "client advise <workload> [--device a100|h200|b200] [--sparse-scale K] \
         [--graph-scale K] [--socket PATH]",
        client_advise,
    ),
];

type Handler = fn(&Args);

/// The one flag that may be given more than once.
const FILTER: &str = "--filter";

/// A command's grammar, read from its usage line.
struct Grammar {
    usage: &'static str,
    /// The selecting words, each `a|b` alternatives.
    words: Vec<&'static str>,
    positionals: Vec<&'static str>,
    /// The spellings of each flag that takes a value (`--jobs|-j`).
    valued: Vec<&'static str>,
    switches: Vec<&'static str>,
}

impl Grammar {
    fn new(usage: &'static str) -> Grammar {
        let mut g = Grammar {
            usage,
            words: Vec::new(),
            positionals: Vec::new(),
            valued: Vec::new(),
            switches: Vec::new(),
        };
        let mut tokens = usage.split_whitespace();
        while let Some(t) = tokens.next() {
            if let Some(flag) = t.strip_prefix('[') {
                match flag.strip_suffix(']') {
                    Some(switch) => g.switches.push(switch),
                    None => {
                        g.valued.push(flag);
                        tokens.next(); // the value's placeholder
                    }
                }
            } else if t.starts_with('<') {
                g.positionals.push(t);
            } else {
                g.words.push(t);
            }
        }
        g
    }

    /// The number of leading `args` that select this command, if they do.
    fn selected_by(&self, args: &[String]) -> Option<usize> {
        let matched = self
            .words
            .iter()
            .zip(args)
            .take_while(|(w, a)| w.split('|').any(|alt| alt == *a))
            .count();
        (matched == self.words.len()).then_some(matched)
    }

    /// Parse the arguments after the selecting words; `word` is the last
    /// selecting word (`check` for `golden check`).
    fn parse(&self, word: &str, rest: &[String]) -> Result<Args, String> {
        let mut args = Args {
            usage: self.usage,
            word: word.to_string(),
            positionals: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            if let Some(spellings) = self.valued.iter().find(|v| v.split('|').any(|s| s == a)) {
                // Handlers ask for a flag by its first spelling.
                let flag = spellings.split('|').next().unwrap_or(spellings);
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                if flag != FILTER && args.values.iter().any(|(f, _)| *f == flag) {
                    return Err(format!("{flag} given more than once"));
                }
                args.values.push((flag, value.clone()));
            } else if let Some(switch) = self.switches.iter().find(|s| *s == a) {
                if args.switches.contains(switch) {
                    return Err(format!("{switch} given more than once"));
                }
                args.switches.push(switch);
            } else if a.starts_with('-') {
                return Err(format!("unknown argument `{a}`"));
            } else if args.positionals.len() == self.positionals.len() {
                return Err(format!("unexpected argument `{a}`"));
            } else {
                args.positionals.push(a.clone());
            }
        }
        match self.positionals.get(args.positionals.len()) {
            Some(missing) => Err(format!("missing {missing}")),
            None => Ok(args),
        }
    }
}

/// Print `msg` and the command's usage line to stderr, and exit 2.
fn usage_error(usage: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("cubie: error: {msg}\n\nusage: cubie {usage}");
    std::process::exit(2);
}

/// One parsed command line.
struct Args {
    usage: &'static str,
    /// The last word that selected the command (`sweep` for
    /// `client sweep`).
    word: String,
    positionals: Vec<String>,
    /// `(flag, value)` pairs in command-line order.
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    fn fail(&self, msg: impl std::fmt::Display) -> ! {
        usage_error(self.usage, msg)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag` through `parse` (`None` when absent); a value
    /// that does not parse is a usage error naming the flag and the
    /// value.
    fn parsed<T>(&self, flag: &str, parse: fn(&str, &str) -> Result<T, String>) -> Option<T> {
        let raw = self.value(flag)?;
        Some(parse(flag, raw).unwrap_or_else(|e| self.fail(e)))
    }

    /// The `<workload>` positional.
    fn workload(&self) -> Workload {
        let name = &self.positionals[0];
        Workload::parse(name).unwrap_or_else(|| self.fail(format!("unknown workload `{name}`")))
    }

    /// `--device`, else all three devices.
    fn devices(&self) -> Vec<DeviceSpec> {
        match self.value("--device") {
            Some(name) => vec![find_device(name).unwrap_or_else(|e| self.fail(e))],
            None => all_devices(),
        }
    }

    /// `--sparse-scale`/`--graph-scale`, defaulting to
    /// `CUBIE_SPARSE_SCALE`/`CUBIE_GRAPH_SCALE` (1 / 16) like every
    /// other sweep entry point.
    fn scales(&self) -> (usize, usize) {
        (
            self.parsed("--sparse-scale", parse_scale)
                .unwrap_or_else(cubie::bench::sparse_scale),
            self.parsed("--graph-scale", parse_scale)
                .unwrap_or_else(cubie::bench::graph_scale),
        )
    }

    /// The sweep-engine flags, as the request `cubied` gets.
    fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            filters: self
                .values
                .iter()
                .filter(|(f, _)| *f == FILTER)
                .map(|(_, v)| v.clone())
                .collect(),
            jobs: self.parsed("--jobs", parse_flag),
            sparse_scale: self.parsed("--sparse-scale", parse_scale),
            graph_scale: self.parsed("--graph-scale", parse_scale),
            verify: self.switch("--verify"),
        }
    }

    /// The sweep-engine flags resolved for a local run.
    fn sweep_config(&self) -> SweepConfig {
        self.sweep_spec()
            .to_config()
            .unwrap_or_else(|e| self.fail(e))
    }

    /// `--socket`, else the [`cubie::serve::ServeConfig`] default under
    /// `results/`.
    fn socket(&self) -> PathBuf {
        self.value("--socket").map_or_else(
            || cubie::serve::ServeConfig::default().socket,
            PathBuf::from,
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        usage();
        return;
    };
    if matches!(first.as_str(), "--help" | "-h" | "help") {
        usage();
        return;
    }
    for &(usage, run) in COMMANDS {
        let grammar = Grammar::new(usage);
        if let Some(n) = grammar.selected_by(&args) {
            match grammar.parse(&args[n - 1], &args[n..]) {
                Ok(parsed) => run(&parsed),
                Err(e) => usage_error(usage, e),
            }
            return;
        }
    }
    // An unknown command, or an unknown or missing `golden`/`client`
    // request: name it, with the usage lines that share its first word.
    let family: Vec<String> = COMMANDS
        .iter()
        .filter(|(usage, _)| usage.split(' ').next() == Some(first.as_str()))
        .map(|(usage, _)| format!("cubie {usage}"))
        .collect();
    if family.is_empty() {
        eprintln!(
            "cubie: error: unknown command `{first}`\n\n{}",
            usage_text()
        );
    } else {
        let msg = match args.get(1) {
            Some(sub) => format!("unknown command `{first} {sub}`"),
            None => format!("`{first}` needs a command"),
        };
        eprintln!("cubie: error: {msg}\n\nusage: {}", family.join("\n       "));
    }
    std::process::exit(2);
}

fn usage_text() -> String {
    let lines: Vec<String> = COMMANDS
        .iter()
        .map(|(usage, _)| format!("  cubie {usage}\n"))
        .collect();
    format!(
        "cubie — the Cubie MMU characterization suite\n\nUSAGE:\n{}\n\
         workloads: gemm pic fft stencil scan reduction bfs gemv spmv spgemm",
        lines.concat()
    )
}

fn usage() {
    println!("{}", usage_text());
}

/// Print a fatal diagnostic and exit nonzero. The CLI's replacement for
/// `expect`/`panic!` on user-reachable failure paths — a typo'd path or
/// a full disk deserves one readable line, not a backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("cubie: error: {msg}");
    std::process::exit(1);
}

/// Cap the whole process at `CUBIE_JOBS` workers (when it is set and
/// parses), so every fan-out of a command runs under it: Table 6, the
/// Figure 10 studies, the Figure 11 suite and a bare preparation as well
/// as the sweep.
fn cap_jobs_from_env() {
    if let Some(jobs) = cubie::bench::env_parse("CUBIE_JOBS") {
        cubie::core::par::set_max_workers(jobs);
    }
}

/// Write a results file or die with the path in the diagnostic.
fn write_or_fail(path: &std::path::Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("cannot write {}: {e}", path.display()));
    }
}

fn devices_cmd(_: &Args) {
    let rows: Vec<Vec<String>> = all_devices()
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                format!("{:.1}", d.tc_fp64_tflops),
                format!("{:.1}", d.cc_fp64_tflops),
                format!("{:.0}", d.dram_bw_gbs),
                format!("{:.0}", d.power.tdp_w),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &[
                "device",
                "TC FP64 TF/s",
                "CC FP64 TF/s",
                "DRAM GB/s",
                "TDP W"
            ],
            &rows
        )
    );
}

fn workloads_cmd(_: &Args) {
    let rows: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| {
            let s = w.spec();
            vec![
                s.name.to_string(),
                format!("Q{}", s.quadrant),
                s.dwarf.to_string(),
                s.baseline.unwrap_or("-").to_string(),
                w.variants()
                    .iter()
                    .map(|v| v.label())
                    .collect::<Vec<_>>()
                    .join("/"),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &["workload", "quadrant", "dwarf", "baseline", "variants"],
            &rows
        )
    );
}

fn sweep_cmd(args: &Args) {
    let sweep = SweepRunner::new(args.sweep_config()).run();
    let rows: Vec<Vec<String>> = sweep
        .cells
        .iter()
        .map(|c| {
            vec![
                c.workload.spec().name.to_string(),
                c.case.clone(),
                c.variant.label().to_string(),
                c.precision.label().to_string(),
                c.device.clone(),
                report::seconds(c.time_s()),
                format!("{:.2}", c.gthroughput()),
                format!("{:.0}%", 100.0 * c.timing.tc_util().max(c.timing.b1_util())),
                format!("{:.0}%", 100.0 * c.timing.mem_util()),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &[
                "workload",
                "case",
                "variant",
                "prec",
                "device",
                "time",
                "Gunit/s",
                "TC util",
                "DRAM util"
            ],
            &rows
        )
    );
    println!("{} cells swept.", sweep.cells.len());
}

fn run_cmd(args: &Args) {
    let w = args.workload();
    let (ss, gs) = args.scales();
    let case_idx = args
        .parsed("--case", parse_flag)
        .unwrap_or(REPRESENTATIVE_CASE);
    if case_idx > 4 {
        args.fail("case index out of range (0..5)");
    }
    // One workload × one case × all variants on the chosen devices — a
    // filtered projection of the shared sweep engine.
    let cfg = SweepConfig {
        workloads: vec![w],
        variants: None,
        devices: args.devices(),
        cases: Some(vec![case_idx]),
        precisions: vec![cubie::kernels::Precision::F64],
        sparse_scale: ss,
        graph_scale: gs,
        // Honour CUBIE_JOBS (and its parse warning) like every other
        // sweep entry point — a literal `None` here silently ignored it.
        ..SweepConfig::default()
    };
    let sweep = SweepRunner::new(cfg).run();
    let Some(first) = sweep.cells.first() else {
        fail(format!(
            "nothing swept for {} case {case_idx}",
            w.spec().name
        ));
    };
    println!(
        "{} case {} ({}), useful work {:.3e} {}\n",
        w.spec().name,
        case_idx,
        first.case,
        first.useful,
        w.spec().perf_unit
    );
    let mut rows = Vec::new();
    for dev in sweep.devices() {
        for v in w.variants() {
            let Some(c) = sweep.cell(w, case_idx, v, &dev.name) else {
                continue;
            };
            rows.push(vec![
                dev.name.clone(),
                v.label().to_string(),
                report::seconds(c.time_s()),
                format!("{:.2}", c.gthroughput()),
                format!("{:.0}%", 100.0 * c.timing.tc_util().max(c.timing.b1_util())),
                format!("{:.0}%", 100.0 * c.timing.mem_util()),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "device",
                "variant",
                "time",
                "Gunit/s",
                "TC util",
                "DRAM util"
            ],
            &rows
        )
    );
}

/// Table 6's quick case of the workload: every variant's max error
/// against the serial CPU reference, under 1e-9 (FFT 1e-8). Building the
/// row asserts that TC and CC agree bit for bit. BFS has no floating
/// point and no Table 6 row: each variant's levels must equal the
/// reference traversal's.
fn verify_cmd(args: &Args) {
    let w = args.workload();
    cap_jobs_from_env();
    println!(
        "verifying {} against the serial CPU reference…",
        w.spec().name
    );
    let ok = match table6_row(w, ErrorScale::Quick) {
        Some(row) => {
            println!("  Table 6 quick case: {}", row.case_label);
            let tol = if w == Workload::Fft { 1e-8 } else { 1e-9 };
            w.variants().iter().fold(true, |ok, &v| {
                let max = row.of(v).expect("a Table 6 row holds each variant").max;
                println!("  {:9} max err {max:e}", v.label());
                ok & (max < tol)
            })
        }
        None => verify_bfs_levels(),
    };
    if ok {
        println!("OK: every variant matches (TC ≡ CC bitwise).");
    } else {
        eprintln!("FAILED");
        std::process::exit(1);
    }
}

fn verify_bfs_levels() -> bool {
    use cubie::kernels::bfs;
    let g = cubie::graph::generators::kron_g500(12, 16, 5);
    let src = g.max_degree_vertex();
    let gold = bfs::reference(&g, src);
    Workload::Bfs.variants().iter().fold(true, |ok, &v| {
        let exact = bfs::run(&g, src, v).0 == gold;
        let shown = if exact { "exact" } else { "MISMATCH" };
        println!("  {:9} levels {shown}", v.label());
        ok & exact
    })
}

fn errors_cmd(args: &Args) {
    cap_jobs_from_env();
    let scale = if args.switch("--quick") {
        ErrorScale::Quick
    } else {
        ErrorScale::Full
    };
    print!(
        "{}",
        artifacts::render_markdown(&artifacts::table6_artifact(&table6(scale), scale))
    );
}

fn figure_cmd(args: &Args) {
    let mut config = artifacts::GoldenConfig::paper();
    if let Some(k) = args.parsed("--sparse-scale", parse_scale) {
        config.sparse_scale = k;
    }
    if let Some(k) = args.parsed("--graph-scale", parse_scale) {
        config.graph_scale = k;
    }
    let names = artifact_selection(args);
    cap_jobs_from_env();
    let ctx = artifacts::GoldenCtx::new(config);
    println!(
        "rendering {} artifact(s) at sparse_scale={} graph_scale={}",
        names.len(),
        ctx.config.sparse_scale,
        ctx.config.graph_scale
    );
    for name in names {
        let Some(artifact) = artifacts::build(&ctx, name) else {
            fail(format!("artifact `{name}` missing from the build registry"));
        };
        match artifacts::emit(&artifact) {
            Ok(log) => println!(
                "  {name}: {} rows -> {}",
                artifact.rows.len(),
                log.display()
            ),
            Err(e) => fail(format!("cannot write artifact `{name}`: {e}")),
        }
    }
}

fn advise_cmd(args: &Args) {
    let w = args.workload();
    let devices = args.devices();
    let (ss, gs) = args.scales();
    cap_jobs_from_env();
    // Prepare through the shared sweep cache: labels and traces of all
    // variants are memoized for the rest of the process.
    let entry = cubie::bench::SweepCache::global().ensure(w, ss, gs);
    let cc_variant = source_variant(w);
    let Some(cc_trace) = entry.trace(REPRESENTATIVE_CASE, cc_variant) else {
        fail(format!("no CUDA-core trace for {}", w.spec().name));
    };
    let mapping = reference_mapping(w);
    println!(
        "advising on {} (case {}), from its {} trace:\n",
        w.spec().name,
        entry.labels[REPRESENTATIVE_CASE],
        cc_variant.label()
    );
    let mut rows = Vec::new();
    for dev in devices {
        let a = advise(&dev, cc_trace, &mapping);
        rows.push(vec![
            dev.name.clone(),
            format!("{:.2}x", a.predicted_speedup),
            format!("{:?}", a.cc_limiter),
            format!("{:?}", a.tc_limiter),
            format!("Q{}", a.quadrant),
            format!("{:?}", a.recommendation),
        ]);
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "device",
                "predicted speedup",
                "CC limiter",
                "TC limiter",
                "quadrant",
                "verdict"
            ],
            &rows
        )
    );
}

/// Artifact names selected by `--only a,b` (default: the full registry).
fn artifact_selection(args: &Args) -> Vec<&'static str> {
    let Some(only) = args.value("--only") else {
        return artifacts::GOLDEN_ARTIFACTS.to_vec();
    };
    only.split(',')
        .map(|n| {
            artifacts::GOLDEN_ARTIFACTS
                .iter()
                .find(|a| **a == n)
                .copied()
                .unwrap_or_else(|| {
                    args.fail(format!(
                        "unknown artifact `{n}` — `cubie golden list` shows the registry"
                    ))
                })
        })
        .collect()
}

/// The golden store `check` and `list` read. When it does not exist
/// (say, the working directory is not the repository root) this fails
/// with one line naming it, before any artifact is built.
fn recorded_golden_dir() -> std::path::PathBuf {
    let dir = artifacts::golden_dir();
    if !dir.is_dir() {
        let shown = std::path::absolute(&dir).unwrap_or(dir);
        fail(format!(
            "no golden snapshots at {} — run from the repository root or set CUBIE_GOLDEN_DIR",
            shown.display()
        ));
    }
    dir
}

fn golden_record(args: &Args) {
    let names = artifact_selection(args);
    cap_jobs_from_env();
    let ctx = artifacts::GoldenCtx::new(artifacts::GoldenConfig::default());
    let dir = artifacts::golden_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(format!("cannot create {}: {e}", dir.display()));
    }
    println!(
        "recording goldens at sparse_scale={} graph_scale={} into {}",
        ctx.config.sparse_scale,
        ctx.config.graph_scale,
        dir.display()
    );
    for name in names {
        let Some(artifact) = artifacts::build(&ctx, name) else {
            fail(format!("artifact `{name}` missing from the build registry"));
        };
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = artifact.write(&path) {
            fail(format!("cannot write golden {}: {e}", path.display()));
        }
        println!(
            "  {name}: {} rows -> {}",
            artifact.rows.len(),
            path.display()
        );
    }
}

fn golden_check(args: &Args) {
    let names = artifact_selection(args);
    let dir = recorded_golden_dir();
    cap_jobs_from_env();
    let ctx = artifacts::GoldenCtx::new(artifacts::GoldenConfig::default());
    let mut report_diffs = Vec::new();
    for name in names {
        let path = dir.join(format!("{name}.json"));
        let diff = match cubie::golden::Artifact::read(&path) {
            Ok(golden) => {
                let Some(actual) = artifacts::build(&ctx, name) else {
                    fail(format!("artifact `{name}` missing from the build registry"));
                };
                cubie::golden::diff(&golden, &actual)
            }
            Err(e) => ArtifactDiff {
                name: name.to_string(),
                structural: vec![format!(
                    "golden snapshot unreadable ({e}) — run `cubie golden record`"
                )],
                cells: Vec::new(),
            },
        };
        report_diffs.push(diff);
    }
    let diff_report = DiffReport {
        artifacts: report_diffs,
    };
    print!("{}", diff_report.render());
    let out = report::results_dir().join("golden_diff.json");
    write_or_fail(&out, &diff_report.to_json().to_pretty_string());
    println!("wrote {}", out.display());
    if !diff_report.passed() {
        std::process::exit(1);
    }
}

fn golden_list(_: &Args) {
    let dir = recorded_golden_dir();
    let rows: Vec<Vec<String>> = artifacts::GOLDEN_ARTIFACTS
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.json"));
            let status = match cubie::golden::Artifact::read(&path) {
                Ok(a) => format!("recorded ({} rows)", a.rows.len()),
                Err(_) => "missing".to_string(),
            };
            vec![name.to_string(), status]
        })
        .collect();
    println!("{}", report::markdown_table(&["artifact", "golden"], &rows));
    println!("store: {}", dir.display());
}

/// Cold-vs-warm verdict on the prepared-input store after a sweep,
/// printed by `cubie profile`: snapshot hits mean the `prepare` phase
/// was loaded from snapshots under `results/prep`; misses mean it paid
/// generation and recorded a snapshot for the next run. `prepare_busy_s` is this run's measured
/// `prepare` busy time, so cold and warm invocations can be compared
/// directly from their output.
fn prep_store_line(prepare_busy_s: f64) -> String {
    let cfg = cubie::prep::PrepConfig::from_env();
    if !cfg.enabled {
        return format!(
            "prepare: cold every run (CUBIE_PREP_CACHE=off) — busy {}",
            report::seconds(prepare_busy_s)
        );
    }
    let total = cubie::prep::process_total();
    let (hits, misses) = (total.hits, total.misses);
    if hits == 0 && misses == 0 {
        return format!(
            "prepare: no snapshot-backed inputs in this run — busy {}",
            report::seconds(prepare_busy_s)
        );
    }
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let verdict = if misses == 0 {
        "warm"
    } else if hits == 0 {
        "cold"
    } else {
        "mixed"
    };
    format!(
        "prepare: {verdict} — {hits} snapshot hit(s) ({:.1} MiB loaded), \
         {misses} miss(es) ({:.1} MiB recorded), busy {} (store {})",
        mib(total.bytes_loaded),
        mib(total.bytes_written),
        report::seconds(prepare_busy_s),
        cfg.dir.display()
    )
}

/// Coverage window of `profile --check`: the summed busy time of the
/// top-level phases must land within ±20% of measured wall time.
const CHECK_WINDOW: f64 = 0.20;

fn profile_cmd(args: &Args) {
    let check = args.switch("--check");
    let mut cfg = args.sweep_config();
    if check {
        // The coverage invariant only holds serially: with one worker the
        // serial `par` fast path spawns no threads, so the prepare/trace/
        // time spans are disjoint and must tile the run end to end. Under
        // `--jobs N` the phases overlap and busy time legitimately
        // exceeds wall.
        cfg.jobs = Some(1);
    }
    println!(
        "profiling {} workload(s), jobs {}…",
        cfg.workloads.len(),
        // The resolved count the pool will actually run with, so this
        // line and the pool agree (previously printed "auto").
        cfg.effective_jobs()
    );

    // A private cold cache, so case preparation is part of the profile
    // (the process-global cache would hide it after the first run).
    cubie::obs::enable();
    let start = std::time::Instant::now();
    let sweep = SweepRunner::with_cache(
        cfg,
        std::sync::Arc::new(cubie::bench::SweepCache::default()),
    )
    .run();
    let wall_s = start.elapsed().as_secs_f64();
    cubie::obs::disable();
    let spans = cubie::obs::drain();

    let aggs = cubie::obs::aggregate(&spans);
    let rows: Vec<Vec<String>> = aggs
        .iter()
        .map(|a| {
            vec![
                a.phase.to_string(),
                if a.label.is_empty() {
                    "-".to_string()
                } else {
                    a.label.clone()
                },
                a.calls.to_string(),
                report::seconds(a.busy_s),
                report::seconds(a.wall_s),
                if a.alloc_count == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{} ({:.1} MiB)",
                        a.alloc_count,
                        a.alloc_bytes as f64 / (1024.0 * 1024.0)
                    )
                },
                a.items.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::markdown_table(
            &["phase", "label", "calls", "busy", "wall", "allocs", "items"],
            &rows
        )
    );
    println!(
        "{} cells swept in {}; {} spans recorded; {} persistent pool worker(s).",
        sweep.cells.len(),
        report::seconds(wall_s),
        spans.len(),
        cubie::core::pool::worker_count()
    );
    println!(
        "{}",
        prep_store_line(cubie::obs::busy_of(&spans, &["prepare"]))
    );

    let results = report::results_dir();
    let trace_path = results.join("profile_trace.json");
    write_or_fail(
        &trace_path,
        &cubie::obs::chrome_trace(&spans).to_pretty_string(),
    );
    println!(
        "wrote {} (open in https://ui.perfetto.dev)",
        trace_path.display()
    );

    let hotspots = cubie::golden::obj(vec![
        ("schema", "cubie-profile/v2".into()),
        ("wall_s", wall_s.into()),
        ("cells", sweep.cells.len().into()),
        ("spans", spans.len().into()),
        (
            "hotspots",
            cubie::golden::Json::Array(
                aggs.iter()
                    .map(|a| {
                        cubie::golden::obj(vec![
                            ("phase", a.phase.into()),
                            ("label", a.label.as_str().into()),
                            ("calls", a.calls.into()),
                            ("busy_s", a.busy_s.into()),
                            ("wall_s", a.wall_s.into()),
                            ("alloc_count", a.alloc_count.into()),
                            ("alloc_bytes", a.alloc_bytes.into()),
                            ("items", a.items.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let hotspot_path = results.join("profile_hotspots.json");
    write_or_fail(&hotspot_path, &hotspots.to_pretty_string());
    println!("wrote {}", hotspot_path.display());

    if check {
        let covered = cubie::obs::busy_of(&spans, &["prepare", "trace", "time"]);
        let ratio = covered / wall_s;
        println!(
            "check: phases cover {} of {} wall ({:.0}%)",
            report::seconds(covered),
            report::seconds(wall_s),
            100.0 * ratio
        );
        if (ratio - 1.0).abs() > CHECK_WINDOW {
            eprintln!(
                "FAIL: phase coverage {:.0}% outside the ±{:.0}% window — \
                 instrumentation lost track of where time goes",
                100.0 * ratio,
                100.0 * CHECK_WINDOW
            );
            std::process::exit(1);
        }
        println!("PASS: instrumented phases account for wall time.");
    }
}

fn serve_cmd(args: &Args) {
    let defaults = cubie::serve::ServeConfig::default();
    let cfg = cubie::serve::ServeConfig {
        socket: args.socket(),
        store_dir: args
            .value("--store")
            .map_or(defaults.store_dir, PathBuf::from),
        max_jobs: args
            .parsed("--max-jobs", parse_flag)
            .unwrap_or(defaults.max_jobs),
        heavy_slots: args
            .parsed("--heavy", parse_flag)
            .map_or(defaults.heavy_slots, |n: usize| n.max(1)),
        queue_limit: args
            .parsed("--queue", parse_flag)
            .unwrap_or(defaults.queue_limit),
        ..defaults
    };
    let mut handle = match cubie::serve::Daemon::start(cfg) {
        Ok(h) => h,
        Err(e) => fail(format!("cannot start cubied: {e}")),
    };
    // Block until a client `shutdown` request stops the accept loop; the
    // startup banner already went to stderr via `cubie_obs::log`.
    handle.wait();
}

fn client_advise(args: &Args) {
    let spec = AdviseSpec {
        workload: args.positionals[0].clone(),
        devices: args.value("--device").map(|d| vec![d.to_string()]),
        sparse_scale: args.parsed("--sparse-scale", parse_scale),
        graph_scale: args.parsed("--graph-scale", parse_scale),
    };
    client_send(args, spec.to_json());
}

/// Send one request to the `cubied` at `--socket` and print the reply;
/// exit 1 when it cannot be reached or answers with an error.
fn client_send(args: &Args, request: Json) {
    let socket = args.socket();
    let response = match cubie::serve::client_request(&socket, &request) {
        Ok(r) => r,
        Err(e) => fail(format!(
            "cubied at {} is unreachable: {e} (start it with `cubie serve`)",
            socket.display()
        )),
    };
    println!("{}", response.to_pretty_string());
    if response.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `rest` under the command whose usage line starts with `name`.
    fn parse(name: &str, rest: &[&str]) -> Result<Args, String> {
        let (usage, _) = COMMANDS.iter().find(|(u, _)| u.starts_with(name)).unwrap();
        let rest: Vec<String> = rest.iter().map(|s| s.to_string()).collect();
        Grammar::new(usage).parse(name, &rest)
    }

    fn error(name: &str, rest: &[&str]) -> String {
        parse(name, rest).err().expect("a usage error")
    }

    #[test]
    fn every_usage_line_declares_a_well_formed_grammar() {
        for (usage, _) in COMMANDS {
            let g = Grammar::new(usage);
            assert!(!g.words.is_empty(), "{usage}");
            let words: Vec<String> = g
                .words
                .iter()
                .map(|w| w.split('|').next().unwrap().to_string())
                .collect();
            assert_eq!(g.selected_by(&words), Some(words.len()), "{usage}");
            let flags: Vec<&str> = g
                .valued
                .iter()
                .flat_map(|v| v.split('|'))
                .chain(g.switches.iter().copied())
                .collect();
            for f in &flags {
                assert!(f.starts_with('-'), "{usage}: `{f}`");
                assert_eq!(flags.iter().filter(|g| *g == f).count(), 1, "{usage}");
            }
            assert!(g.positionals.iter().all(|p| p.starts_with('<')));
        }
    }

    #[test]
    fn selection_needs_every_word() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let check = Grammar::new("golden check [--only name,name]");
        assert_eq!(check.selected_by(&args(&["golden", "check", "x"])), Some(2));
        assert_eq!(check.selected_by(&args(&["golden"])), None);
        assert_eq!(check.selected_by(&args(&["golden", "list"])), None);
        let client = Grammar::new("client sweep|profile [--jobs N]");
        assert_eq!(client.selected_by(&args(&["client", "profile"])), Some(2));
    }

    #[test]
    fn flags_without_a_value_are_errors() {
        for (flag, named) in [
            ("--filter", "--filter"),
            ("-f", "--filter"),
            ("--jobs", "--jobs"),
            ("-j", "--jobs"),
            ("--sparse-scale", "--sparse-scale"),
            ("--graph-scale", "--graph-scale"),
        ] {
            let err = error("sweep", &["--filter", "workload=scan", flag]);
            assert_eq!(err, format!("{named} needs a value"), "{flag}");
        }
    }

    #[test]
    fn unknown_arguments_extra_positionals_and_repeats_are_errors() {
        assert_eq!(
            error("sweep", &["--frobnicate"]),
            "unknown argument `--frobnicate`"
        );
        // `-f` is a spelling of `sweep`'s, not `client sweep`'s, filter.
        assert_eq!(
            error("client sweep", &["-f", "w=scan"]),
            "unknown argument `-f`"
        );
        assert_eq!(
            error("run", &["scan", "gemm"]),
            "unexpected argument `gemm`"
        );
        assert_eq!(error("run", &["--case", "1"]), "missing <workload>");
        assert_eq!(
            error("sweep", &["--jobs", "1", "-j", "2"]),
            "--jobs given more than once"
        );
        assert_eq!(
            error("profile", &["--check", "--check"]),
            "--check given more than once"
        );
    }

    #[test]
    fn sweep_flags_parse_into_the_spec_and_resolve() {
        let args = parse(
            "sweep",
            &[
                "-j",
                "3",
                "--sparse-scale",
                "64",
                "-f",
                "workload=spmv,gemm",
                "--graph-scale",
                "512",
                "--filter",
                "case=2",
            ],
        )
        .ok()
        .unwrap();
        let spec = args.sweep_spec();
        assert_eq!(spec.filters, ["workload=spmv,gemm", "case=2"]);
        assert_eq!(
            (spec.jobs, spec.sparse_scale, spec.graph_scale),
            (Some(3), Some(64), Some(512))
        );
        let cfg = args.sweep_config();
        assert_eq!(cfg.jobs, Some(3));
        assert_eq!((cfg.sparse_scale, cfg.graph_scale), (64, 512));
        assert_eq!(cfg.workloads, [Workload::Gemm, Workload::Spmv]);
        assert_eq!(cfg.cases, Some(vec![2]));
    }
}
