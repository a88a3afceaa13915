//! `cubie` — command-line front end to the suite.
//!
//! ```text
//! cubie devices                      list the Table 5 devices
//! cubie workloads                    the suite inventory (Table 2)
//! cubie sweep [opts]                 the full workload × case × variant ×
//!                                    device sweep (parallel, cached)
//! cubie run <workload> [opts]        simulate all variants of a workload
//! cubie verify <workload>            functional run vs CPU ground truth
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
//! `sweep` additionally accepts the shared engine flags:
//!          --filter workload=…|variant=…|device=…|case=…|precision=…
//!                                    (repeatable; precision adds GEMM
//!                                    f16/bf16/tf32 TC/CC cells)
//!          --jobs N                  worker-thread cap (results identical
//!                                    for every N; only wall-clock changes)
//! ```

use cubie::analysis::advisor::{advise, reference_mapping, source_variant};
use cubie::analysis::errors::{table6, ErrorScale};
use cubie::analysis::metrics::REPRESENTATIVE_CASE;
use cubie::analysis::report;
use cubie::bench::{artifacts, parse_flag, parse_scale, SweepConfig, SweepRunner};
use cubie::device::{all_devices, find_device, DeviceSpec};
use cubie::golden::{ArtifactDiff, DiffReport};
use cubie::kernels::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        usage();
        return;
    };
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "devices" => devices_cmd(),
        "workloads" => workloads_cmd(),
        "sweep" => sweep_cmd(&rest),
        "run" => run_cmd(&rest),
        "verify" => verify_cmd(&rest),
        "errors" => errors_cmd(&rest),
        "figure" => figure_cmd(&rest),
        "advise" => advise_cmd(&rest),
        "golden" => golden_cmd(&rest),
        "profile" => profile_cmd(&rest),
        "serve" => serve_cmd(&rest),
        "client" => client_cmd(&rest),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command `{other}`\n");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    println!(
        "cubie — the Cubie MMU characterization suite\n\n\
         USAGE:\n  cubie devices\n  cubie workloads\n  \
         cubie sweep [--filter workload=…|variant=…|device=…|case=…|precision=…] \
         [--jobs N] [--sparse-scale K] [--graph-scale K]\n  \
         cubie run <workload> [--device a100|h200|b200] [--case 0..4] \
         [--sparse-scale K] [--graph-scale K]\n  \
         cubie verify <workload>\n  cubie errors [--quick]\n  \
         cubie figure [--only name,name] [--sparse-scale K] [--graph-scale K]\n  \
         cubie advise <workload> [--device ...]\n  \
         cubie golden record|check|list [--only name,name]\n  \
         cubie profile [--filter workload=…|variant=…|device=…|case=…] [--jobs N] \
         [--sparse-scale K] [--graph-scale K] [--check]\n  \
         cubie serve [--socket PATH] [--store DIR] [--max-jobs N] [--heavy N] [--queue N]\n  \
         cubie client ping|stats|shutdown [--socket PATH]\n  \
         cubie client sweep|profile [--filter …] [--jobs N] [--sparse-scale K] \
         [--graph-scale K] [--verify] [--socket PATH]\n  \
         cubie client advise <workload> [--device a100|h200|b200] [--socket PATH]\n\n\
         workloads: gemm pic fft stencil scan reduction bfs gemv spmv spgemm"
    );
}

/// Print a fatal diagnostic and exit nonzero. The CLI's replacement for
/// `expect`/`panic!` on user-reachable failure paths — a typo'd path or
/// a full disk deserves one readable line, not a backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("cubie: error: {msg}");
    std::process::exit(1);
}

/// Write a results file or die with the path in the diagnostic.
fn write_or_fail(path: &std::path::Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("cannot write {}: {e}", path.display()));
    }
}

fn opt<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

/// The parsed value of flag `name`, `None` when absent. A flag without
/// a value, or with one that does not parse, is a usage error (exit 2)
/// naming the flag and the value — never a silent fall-back to the
/// default.
fn flag<T: std::str::FromStr>(rest: &[&String], name: &str) -> Option<T> {
    flag_with(rest, name, parse_flag)
}

/// [`flag`] for `--sparse-scale`/`--graph-scale`: 0 is a usage error too.
fn scale_flag(rest: &[&String], name: &str) -> Option<usize> {
    flag_with(rest, name, parse_scale)
}

fn flag_with<T>(
    rest: &[&String],
    name: &str,
    parse: fn(&str, &str) -> Result<T, String>,
) -> Option<T> {
    rest.iter().position(|a| a.as_str() == name)?;
    let parsed = match opt(rest, name) {
        Some(raw) => parse(name, raw),
        None => Err(format!("{name} needs a value")),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("cubie: error: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_workload(s: &str) -> Workload {
    Workload::parse(s).unwrap_or_else(|| {
        eprintln!("unknown workload `{s}`");
        std::process::exit(2);
    })
}

fn parse_devices(rest: &[&String]) -> Vec<DeviceSpec> {
    match opt(rest, "--device") {
        Some(name) => vec![find_device(name).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })],
        None => all_devices(),
    }
}

/// `--sparse-scale`/`--graph-scale`, defaulting to `CUBIE_SPARSE_SCALE`/
/// `CUBIE_GRAPH_SCALE` (1 / 16) like every other sweep entry point.
fn scales(rest: &[&String]) -> (usize, usize) {
    (
        scale_flag(rest, "--sparse-scale").unwrap_or_else(cubie::bench::sparse_scale),
        scale_flag(rest, "--graph-scale").unwrap_or_else(cubie::bench::graph_scale),
    )
}

fn devices_cmd() {
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

fn workloads_cmd() {
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

fn sweep_cmd(rest: &[&String]) {
    let cfg = match SweepConfig::from_cli_args(rest.iter().map(|s| (*s).clone())) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "{e}\n\nusage: cubie sweep \
                 [--filter workload=…|variant=…|device=…|case=…|precision=…] \
                 [--jobs N] [--sparse-scale K] [--graph-scale K]"
            );
            std::process::exit(2);
        }
    };
    let sweep = SweepRunner::new(cfg).run();
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

fn run_cmd(rest: &[&String]) {
    let Some(wname) = rest.first() else {
        eprintln!("usage: cubie run <workload> [options]");
        std::process::exit(2);
    };
    let w = parse_workload(wname);
    let (ss, gs) = scales(rest);
    let case_idx: usize = flag(rest, "--case").unwrap_or(REPRESENTATIVE_CASE);
    if case_idx > 4 {
        eprintln!("case index out of range (0..5)");
        std::process::exit(2);
    }
    // One workload × one case × all variants on the chosen devices — a
    // filtered projection of the shared sweep engine.
    let cfg = SweepConfig {
        workloads: vec![w],
        variants: None,
        devices: parse_devices(rest),
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
        eprintln!("nothing swept for {wname} case {case_idx}");
        std::process::exit(2);
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

fn verify_cmd(rest: &[&String]) {
    let Some(wname) = rest.first() else {
        eprintln!("usage: cubie verify <workload>");
        std::process::exit(2);
    };
    let w = parse_workload(wname);
    println!(
        "verifying {} against the serial CPU reference…",
        w.spec().name
    );
    let ok = verify_one(w);
    if ok {
        println!("OK: every variant matches (TC ≡ CC bitwise).");
    } else {
        eprintln!("FAILED");
        std::process::exit(1);
    }
}

fn verify_one(w: Workload) -> bool {
    use cubie::core::ErrorStats;
    use cubie::kernels::*;
    let tol = 1e-9;
    match w {
        Workload::Gemm => {
            let case = gemm::GemmCase::square(192);
            let (a, b) = gemm::inputs(&case);
            let gold = gemm::reference(&a, &b);
            w.variants().iter().all(|&v| {
                let (c, _) = gemm::run(&a, &b, v);
                let e = ErrorStats::compare(c.as_slice(), gold.as_slice());
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Gemv => {
            let case = gemv::GemvCase { m: 2048, n: 16 };
            let (a, x) = gemv::inputs(&case);
            let gold = gemv::reference(&a, &x);
            w.variants().iter().all(|&v| {
                let (y, _) = gemv::run(&a, &x, v);
                let e = ErrorStats::compare(&y, &gold);
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Scan => {
            let x = scan::input(&scan::ScanCase { n: 1024 });
            let gold = scan::reference(&x);
            w.variants().iter().all(|&v| {
                let (y, _) = scan::run(&x, v);
                let e = ErrorStats::compare(&y, &gold);
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Reduction => {
            let x = reduction::input(&reduction::ReductionCase { n: 1024 });
            let gold = reduction::reference(&x);
            w.variants().iter().all(|&v| {
                let (s, _) = reduction::run(&x, v);
                println!("  {:9} err {}", v.label(), report::sci((s - gold).abs()));
                (s - gold).abs() < tol
            })
        }
        Workload::Spmv => {
            let m = cubie::sparse::generators::conf5_like(16);
            let x = spmv::input_vector(&m);
            let gold = spmv::reference(&m, &x);
            w.variants().iter().all(|&v| {
                let (y, _) = spmv::run(&m, &x, v);
                let e = ErrorStats::compare(&y, &gold);
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Spgemm => {
            let m = cubie::sparse::generators::spmsrts_like(64);
            let gold = spgemm::reference(&m);
            w.variants().iter().all(|&v| {
                let (c, _) = spgemm::run(&m, v);
                let (gd, cd) = (gold.to_dense(), c.to_dense());
                let e = ErrorStats::compare(&cd, &gd);
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Fft => {
            let case = fft::FftCase {
                h: 32,
                w: 32,
                batch: 2,
            };
            let data = fft::input(&case);
            let gold: Vec<_> = data.iter().map(|g| fft::dft2_naive(32, 32, g)).collect();
            w.variants().iter().all(|&v| {
                let (out, _) = fft::run(&case, &data, v);
                let e = out
                    .iter()
                    .zip(&gold)
                    .map(|(o, g)| ErrorStats::compare_c64(o, g))
                    .fold(ErrorStats::default(), |a, b| a.merge(b));
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < 1e-8
            })
        }
        Workload::Stencil => {
            let case = stencil::StencilCase::star2d(96, 96);
            let x = stencil::input(&case);
            let gold = stencil::reference(&case, &x);
            w.variants().iter().all(|&v| {
                let (y, _) = stencil::run(&case, &x, v);
                let e = ErrorStats::compare(&y, &gold);
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Pic => {
            let case = pic::PicCase { n: 4096 };
            let (parts, grid) = pic::input(&case);
            let gold = pic::run_serial_style(&parts, &grid);
            let flat = |p: &pic::Particles| -> Vec<f64> {
                p.pos
                    .iter()
                    .chain(p.vel.iter())
                    .flat_map(|v| v.iter().copied())
                    .collect()
            };
            let gf = flat(&gold);
            w.variants().iter().all(|&v| {
                let (out, _) = pic::run(&case, &parts, &grid, v);
                let e = ErrorStats::compare(&flat(&out), &gf);
                println!("  {:9} max err {}", v.label(), report::sci(e.max));
                e.max < tol
            })
        }
        Workload::Bfs => {
            let g = cubie::graph::generators::kron_g500(12, 16, 5);
            let src = g.max_degree_vertex();
            let gold = bfs::reference(&g, src);
            w.variants().iter().all(|&v| {
                let (levels, _) = bfs::run(&g, src, v);
                let ok = levels == gold;
                println!(
                    "  {:9} levels {}",
                    v.label(),
                    if ok { "exact" } else { "MISMATCH" }
                );
                ok
            })
        }
    }
}

fn errors_cmd(rest: &[&String]) {
    let scale = if rest.iter().any(|a| a.as_str() == "--quick") {
        ErrorScale::Quick
    } else {
        ErrorScale::Full
    };
    print!(
        "{}",
        artifacts::render_markdown(&artifacts::table6_artifact(&table6(scale), scale))
    );
}

/// Parse `cubie figure`'s flags into the paper configuration and the
/// `--only` selection. Unknown arguments are an error.
fn figure_args<'a>(
    rest: &[&'a String],
) -> Result<(artifacts::GoldenConfig, Option<&'a str>), String> {
    let mut config = artifacts::GoldenConfig::paper();
    let mut only = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .map(|v| v.as_str())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--only" => only = Some(value_of("--only")?),
            "--sparse-scale" => {
                config.sparse_scale = parse_scale("--sparse-scale", value_of("--sparse-scale")?)?
            }
            "--graph-scale" => {
                config.graph_scale = parse_scale("--graph-scale", value_of("--graph-scale")?)?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((config, only))
}

fn figure_cmd(rest: &[&String]) {
    let (config, only) = figure_args(rest).unwrap_or_else(|e| {
        eprintln!(
            "{e}\n\nusage: cubie figure [--only name,name] [--sparse-scale K] [--graph-scale K]"
        );
        std::process::exit(2);
    });
    let names = artifact_selection(only);
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

fn advise_cmd(rest: &[&String]) {
    let Some(wname) = rest.first() else {
        eprintln!("usage: cubie advise <workload> [--device ...]");
        std::process::exit(2);
    };
    let w = parse_workload(wname);
    let devices = parse_devices(rest);
    let (ss, gs) = scales(rest);
    // Prepare through the shared sweep cache: labels and traces of all
    // variants are memoized for the rest of the process.
    let entry = cubie::bench::SweepCache::global().ensure(w, ss, gs);
    let cc_variant = source_variant(w);
    let Some(cc_trace) = entry.trace(REPRESENTATIVE_CASE, cc_variant) else {
        eprintln!("no CUDA-core trace for {wname}");
        std::process::exit(2);
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
fn artifact_selection(only: Option<&str>) -> Vec<&'static str> {
    let Some(only) = only else {
        return artifacts::GOLDEN_ARTIFACTS.to_vec();
    };
    let mut names = Vec::new();
    for n in only.split(',') {
        match artifacts::GOLDEN_ARTIFACTS.iter().find(|a| **a == n) {
            Some(a) => names.push(*a),
            None => {
                eprintln!("unknown artifact `{n}` — `cubie golden list` shows the registry");
                std::process::exit(2);
            }
        }
    }
    names
}

fn golden_cmd(rest: &[&String]) {
    let sub = rest.first().map(|s| s.as_str()).unwrap_or("");
    let tail = &rest[rest.len().min(1)..];
    match sub {
        "record" => golden_record(tail),
        "check" => golden_check(tail),
        "list" => golden_list(),
        _ => {
            eprintln!("usage: cubie golden record|check|list [--only name,name]");
            std::process::exit(2);
        }
    }
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

fn golden_record(rest: &[&String]) {
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
    for name in artifact_selection(opt(rest, "--only")) {
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

fn golden_check(rest: &[&String]) {
    let dir = recorded_golden_dir();
    let ctx = artifacts::GoldenCtx::new(artifacts::GoldenConfig::default());
    let mut report_diffs = Vec::new();
    for name in artifact_selection(opt(rest, "--only")) {
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

fn golden_list() {
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
    let hits = cubie::obs::counter_get("prep.hit");
    let misses = cubie::obs::counter_get("prep.miss");
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
        mib(cubie::obs::counter_get("prep.bytes_loaded")),
        mib(cubie::obs::counter_get("prep.bytes_written")),
        report::seconds(prepare_busy_s),
        cfg.dir.display()
    )
}

/// Coverage window of `profile --check`: the summed busy time of the
/// top-level phases must land within ±20% of measured wall time.
const CHECK_WINDOW: f64 = 0.20;

fn profile_cmd(rest: &[&String]) {
    // `--check` is a profile-only flag, stripped before the shared sweep
    // argument parser sees the rest.
    let check = rest.iter().any(|a| a.as_str() == "--check");
    let sweep_args: Vec<String> = rest
        .iter()
        .filter(|a| a.as_str() != "--check")
        .map(|s| (*s).clone())
        .collect();
    let mut cfg = match SweepConfig::from_cli_args(sweep_args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "{e}\n\nusage: cubie profile [--filter workload=…|variant=…|device=…|case=…] \
                 [--jobs N] [--sparse-scale K] [--graph-scale K] [--check]"
            );
            std::process::exit(2);
        }
    };
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

/// Socket path shared by `serve` and `client` (`--socket`, else the
/// [`cubie::serve::ServeConfig`] default under `results/`).
fn socket_path(rest: &[&String]) -> std::path::PathBuf {
    match opt(rest, "--socket") {
        Some(p) => std::path::PathBuf::from(p),
        None => cubie::serve::ServeConfig::default().socket,
    }
}

fn serve_cmd(rest: &[&String]) {
    // Every argument is one of the flags below with its value; anything
    // else is a usage error, before a socket is bound.
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let known =
            ["--socket", "--store", "--max-jobs", "--heavy", "--queue"].contains(&arg.as_str());
        if !known || it.next().is_none() {
            let e = if known {
                format!("{arg} needs a value")
            } else {
                format!("unknown argument `{arg}`")
            };
            eprintln!(
                "{e}\n\nusage: cubie serve [--socket PATH] [--store DIR] [--max-jobs N] \
                 [--heavy N] [--queue N]"
            );
            std::process::exit(2);
        }
    }
    let mut cfg = cubie::serve::ServeConfig {
        socket: socket_path(rest),
        ..cubie::serve::ServeConfig::default()
    };
    if let Some(dir) = opt(rest, "--store") {
        cfg.store_dir = std::path::PathBuf::from(dir);
    }
    if let Some(n) = flag(rest, "--max-jobs") {
        cfg.max_jobs = n;
    }
    if let Some(n) = flag::<usize>(rest, "--heavy") {
        cfg.heavy_slots = n.max(1);
    }
    if let Some(n) = flag(rest, "--queue") {
        cfg.queue_limit = n;
    }
    let mut handle = match cubie::serve::Daemon::start(cfg) {
        Ok(h) => h,
        Err(e) => fail(format!("cannot start cubied: {e}")),
    };
    // Block until a client `shutdown` request stops the accept loop; the
    // startup banner already went to stderr via `cubie_obs::log`.
    handle.wait();
}

/// Build the request JSON for one `cubie client` invocation.
fn client_build_request(sub: &str, tail: &[&String]) -> cubie::golden::Json {
    use cubie::serve::proto;
    match sub {
        "ping" | "stats" | "shutdown" => proto::simple_request(sub),
        "sweep" | "profile" => {
            let mut filters = Vec::new();
            let mut i = 0;
            while i < tail.len() {
                if tail[i].as_str() == "--filter" {
                    match tail.get(i + 1) {
                        Some(f) => filters.push((*f).clone()),
                        None => fail("--filter expects a key=value term"),
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let spec = cubie::serve::SweepSpec {
                filters,
                jobs: flag(tail, "--jobs"),
                sparse_scale: scale_flag(tail, "--sparse-scale"),
                graph_scale: scale_flag(tail, "--graph-scale"),
                verify: tail.iter().any(|a| a.as_str() == "--verify"),
            };
            spec.to_json(sub)
        }
        "advise" => {
            let Some(wname) = tail.first().filter(|a| !a.starts_with("--")) else {
                fail("usage: cubie client advise <workload> [--device a100|h200|b200]");
            };
            let spec = cubie::serve::AdviseSpec {
                workload: (*wname).clone(),
                devices: opt(tail, "--device").map(|d| vec![d.to_string()]),
                sparse_scale: scale_flag(tail, "--sparse-scale"),
                graph_scale: scale_flag(tail, "--graph-scale"),
            };
            spec.to_json()
        }
        other => {
            fail(format!(
                "unknown client request `{other}` \
                 (ping|stats|shutdown|sweep|profile|advise)"
            ));
        }
    }
}

fn client_cmd(rest: &[&String]) {
    let Some(sub) = rest.first() else {
        fail("usage: cubie client ping|stats|shutdown|sweep|profile|advise [opts]");
    };
    let tail = &rest[1..];
    let request = client_build_request(sub, tail);
    let socket = socket_path(rest);
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
