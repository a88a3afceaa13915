//! The `cubie` CLI's argument handling, driven through the built binary:
//! a malformed flag value, or a scale of 0, is a usage error (exit 2)
//! naming the flag, `--device` names a device the way `--filter device=`
//! does, `cubie figure` writes the CSV, the JSON and the markdown log
//! of every artifact it is asked for, `cubie profile` writes its
//! hotspot table and Chrome trace with exactly the documented keys, and
//! `cubie golden check` fails fast without its golden directory and
//! prepares only the inputs an artifact reads. Every command rejects an
//! unknown argument, a flag without its value and an extra positional
//! before it does anything, and `cubie verify` prints Table 6's quick
//! rows.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use cubie::bench::artifacts;
use cubie::golden::{Artifact, Json};
use cubie::kernels::{Variant, Workload};

/// A fresh working directory, so anything a run writes under `results/`
/// stays out of the repository.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cubie-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cubie(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubie"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn cubie")
}

fn assert_usage_error(args: &[&str], cwd: &Path, mentions: &[&str]) {
    let out = cubie(args, cwd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for m in mentions {
        assert!(stderr.contains(m), "{args:?}: stderr lacks `{m}`: {stderr}");
    }
}

#[test]
fn unparsable_scale_and_case_values_are_usage_errors() {
    let dir = scratch_dir("values");
    for (args, flag, value) in [
        (
            &["run", "spmv", "--sparse-scale", "abc"][..],
            "--sparse-scale",
            "abc",
        ),
        (
            &["run", "bfs", "--graph-scale", "1.5"],
            "--graph-scale",
            "1.5",
        ),
        (&["run", "scan", "--case", "two"], "--case", "two"),
        (
            &["advise", "spgemm", "--sparse-scale", "-4"],
            "--sparse-scale",
            "-4",
        ),
        (&["sweep", "--jobs", "fast"], "--jobs", "fast"),
        (&["sweep", "--sparse-scale", "big"], "--sparse-scale", "big"),
    ] {
        assert_usage_error(args, &dir, &[flag, value]);
    }
    assert_usage_error(
        &["run", "scan", "--case"],
        &dir,
        &["--case", "needs a value"],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scale_zero_is_a_usage_error_on_every_command_and_prepares_nothing() {
    let dir = scratch_dir("scale-zero");
    let store = dir.join("prep");
    for (args, flag) in [
        (
            &["sweep", "--filter", "workload=spmv", "--sparse-scale", "0"][..],
            "--sparse-scale",
        ),
        (
            &["profile", "--filter", "workload=bfs", "--graph-scale", "0"],
            "--graph-scale",
        ),
        (
            &[
                "figure",
                "--only",
                "table234_inventory",
                "--sparse-scale",
                "0",
            ],
            "--sparse-scale",
        ),
        (&["run", "spmv", "--sparse-scale", "0"], "--sparse-scale"),
        (&["advise", "bfs", "--graph-scale", "0"], "--graph-scale"),
        (
            &["client", "sweep", "--sparse-scale", "0"],
            "--sparse-scale",
        ),
        (
            &["client", "advise", "bfs", "--graph-scale", "0"],
            "--graph-scale",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cubie"))
            .args(args)
            .current_dir(&dir)
            .env("CUBIE_PREP_DIR", &store)
            .output()
            .expect("spawn cubie");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let want = format!("{flag} must be at least 1");
        assert!(
            stderr.contains(&want),
            "{args:?}: stderr lacks `{want}`: {stderr}"
        );
    }
    let stored = std::fs::read_dir(&store).map_or(0, |d| d.count());
    assert_eq!(stored, 0, "a rejected run wrote to the prep store");
    assert!(!dir.join("results").exists(), "a rejected run wrote output");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cubie advise` in a fresh directory with its own prep store.
fn advise(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubie"))
        .arg("advise")
        .args(args)
        .current_dir(dir)
        .env("CUBIE_PREP_DIR", dir.join("prep"))
        .output()
        .expect("spawn cubie")
}

#[test]
fn advise_device_matches_the_name_in_any_case() {
    let dir = scratch_dir("advise-device");
    let out = advise(&["spmv", "--device", "H200", "--sparse-scale", "64"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("advising on"), "{stdout}");
    assert!(stdout.contains("H200 (Hopper)"), "{stdout}");
    assert!(!stdout.contains("A100"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn advise_unknown_device_is_a_usage_error_before_any_preparation() {
    let dir = scratch_dir("advise-unknown-device");
    let out = advise(&["spmv", "--device", "V100", "--sparse-scale", "64"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown device `V100`"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("advising on"), "{stdout}");
    let stored = std::fs::read_dir(dir.join("prep")).map_or(0, |d| d.count());
    assert_eq!(stored, 0, "a rejected advise wrote to the prep store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn advise_ambiguous_device_is_a_usage_error_before_any_preparation() {
    // `x` is in both "SXM" names: a query that matches two devices must
    // not pick the first.
    let dir = scratch_dir("advise-ambiguous-device");
    let out = advise(&["spmv", "--device", "x", "--sparse-scale", "64"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("ambiguous device `x`"), "{stderr}");
    assert!(stderr.contains("usage: cubie advise"), "{stderr}");
    assert!(!stderr.contains("prep:"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("advising on"), "{stdout}");
    let stored = std::fs::read_dir(dir.join("prep")).map_or(0, |d| d.count());
    assert_eq!(stored, 0, "a rejected advise wrote to the prep store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_rejects_unknown_arguments_names_and_values() {
    let dir = scratch_dir("figure-args");
    assert_usage_error(&["figure", "--bogus"], &dir, &["--bogus", "usage"]);
    assert_usage_error(
        &["figure", "--only", "fig99_imaginary"],
        &dir,
        &["fig99_imaginary"],
    );
    assert_usage_error(
        &["figure", "--sparse-scale", "big"],
        &dir,
        &["--sparse-scale", "big"],
    );
    assert_usage_error(
        &["figure", "--graph-scale"],
        &dir,
        &["--graph-scale", "needs a value"],
    );
    assert!(!dir.join("results").exists(), "a rejected run wrote output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_unknown_arguments_without_starting_a_daemon() {
    let dir = scratch_dir("serve-args");
    for args in [
        &["serve", "--help"][..],
        &["serve", "--bogus"],
        &["serve", "--heavy"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cubie"))
            .args(args)
            .current_dir(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cubie");
        // A daemon that started would serve until shut down: kill it
        // after a few seconds and fail.
        let deadline = Instant::now() + Duration::from_secs(5);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                child.kill().unwrap();
                child.wait().unwrap();
                panic!("{args:?}: still running after 5 s, killed");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: cubie serve"), "{args:?}: {stderr}");
        assert!(
            !dir.join("results/cubied.sock").exists(),
            "{args:?} created a socket"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_writes_csv_json_and_log_for_each_selected_artifact() {
    let dir = scratch_dir("figure");
    let names = ["table5_specs", "fig12_peak_evolution"];
    let out = cubie(&["figure", "--only", &names.join(",")], &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = dir.join("results");
    for name in names {
        assert!(results.join(format!("{name}.csv")).is_file(), "{name}.csv");
        let artifact = Artifact::read(results.join(format!("{name}.json"))).unwrap();
        assert_eq!(artifact.name, name);
        let log = std::fs::read_to_string(results.join(format!("logs/{name}.md"))).unwrap();
        assert_eq!(log, artifacts::render_markdown(&artifact), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keys of a JSON object, sorted.
fn keys(doc: &Json) -> Vec<&str> {
    let Json::Object(pairs) = doc else {
        panic!("not an object: {doc:?}");
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn profile_writes_schema_v2_hotspots_and_trace_with_exact_keys() {
    let dir = scratch_dir("profile");
    let out = cubie(
        &[
            "profile",
            "--filter",
            "workload=spmv",
            "--sparse-scale",
            "64",
            "--graph-scale",
            "512",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| {
        let text = std::fs::read_to_string(dir.join("results").join(name)).unwrap();
        Json::parse(&text).unwrap()
    };

    let hotspots = read("profile_hotspots.json");
    assert_eq!(
        keys(&hotspots),
        ["cells", "hotspots", "schema", "spans", "wall_s"]
    );
    assert_eq!(
        hotspots.get("schema").and_then(Json::as_str),
        Some("cubie-profile/v2")
    );
    let rows = hotspots.get("hotspots").and_then(Json::as_array).unwrap();
    assert!(!rows.is_empty(), "no hotspot rows");
    for row in rows {
        assert_eq!(
            keys(row),
            [
                "alloc_bytes",
                "alloc_count",
                "busy_s",
                "calls",
                "items",
                "label",
                "phase",
                "wall_s"
            ],
            "{row:?}"
        );
    }

    let trace = read("profile_trace.json");
    let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty(), "no trace events");
    for event in events {
        assert_eq!(
            keys(event.get("args").unwrap()),
            ["alloc_bytes", "alloc_count", "items"],
            "{event:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_check_without_a_golden_dir_fails_fast_and_creates_none() {
    let dir = scratch_dir("no-goldens");
    for args in [
        &["golden", "check", "--only", "table5_specs"][..],
        &["golden", "list"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cubie"))
            .args(args)
            .current_dir(&dir)
            .env_remove("CUBIE_GOLDEN_DIR")
            .output()
            .expect("spawn cubie");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("results/golden") && stderr.contains("CUBIE_GOLDEN_DIR"),
            "{args:?}: the error must name the directory and the override: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line: {stderr}");
        assert!(
            !dir.join("results").join("golden").exists(),
            "{args:?} created results/golden"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table234_check_prepares_only_its_own_tables() {
    let dir = scratch_dir("table234");
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden");
    let check = || {
        let out = Command::new(env!("CARGO_BIN_EXE_cubie"))
            .args(["golden", "check", "--only", "table234_inventory"])
            .current_dir(&dir)
            .env("CUBIE_GOLDEN_DIR", &goldens)
            .env("CUBIE_PREP_DIR", dir.join("prep"))
            .env_remove("CUBIE_PREP_CACHE")
            .output()
            .expect("spawn cubie");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "check failed: {stderr}");
        stderr
    };
    check(); // cold: records the snapshots
    let warm = check();
    let count = |prefix: &str| warm.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(count("prep: matrices"), 1, "{warm}");
    assert_eq!(count("prep: graphs"), 1, "{warm}");
    assert!(!warm.contains("scale=1024"), "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every command, with the arguments of a valid call, and one of its
/// flags that takes a value (if it has one).
const EVERY_COMMAND: [(&[&str], Option<&str>); 16] = [
    (&["devices"], None),
    (&["workloads"], None),
    (&["sweep"], Some("--jobs")),
    (&["run", "scan"], Some("--case")),
    (&["verify", "scan"], None),
    (&["errors"], None),
    (&["figure"], Some("--only")),
    (&["advise", "scan"], Some("--device")),
    (&["golden", "record"], Some("--only")),
    (&["golden", "check"], Some("--only")),
    (&["golden", "list"], None),
    (&["profile"], Some("--filter")),
    (&["serve"], Some("--queue")),
    (&["client", "ping"], Some("--socket")),
    (&["client", "sweep"], Some("--filter")),
    (&["client", "advise", "scan"], Some("--device")),
];

/// Run `cubie args` in `dir` with its own prep store and golden
/// directory; a run still going after 10 s (a daemon that started, a
/// study that ran) is killed and fails the test.
fn cubie_bounded(args: &[&str], dir: &Path) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubie"))
        .args(args)
        .current_dir(dir)
        .env("CUBIE_PREP_DIR", dir.join("prep"))
        .env(
            "CUBIE_GOLDEN_DIR",
            Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden"),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cubie");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{args:?}: still running after 10 s, killed");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().unwrap()
}

/// `args` is a usage error naming `offender`, with the command's usage
/// line, and leaves no `results/` or prep store behind — `client` exits
/// 2 before it tries the socket (an unreachable daemon is exit 1).
fn assert_rejected_before_any_work(args: &[&str], offender: &str, dir: &Path) {
    let out = cubie_bounded(args, dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(offender),
        "{args:?}: names `{offender}`: {stderr}"
    );
    let usage = format!("usage: cubie {} ", args[0]);
    assert!(
        stderr.contains(&usage) || stderr.contains(usage.trim_end()),
        "{args:?}: usage line: {stderr}"
    );
    assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    assert!(!dir.join("prep").exists(), "{args:?} opened the prep store");
}

#[test]
fn every_command_rejects_an_unknown_flag() {
    let dir = scratch_dir("unknown-flag");
    for (call, _) in EVERY_COMMAND {
        let args = [call, &["--bogus"][..]].concat();
        assert_rejected_before_any_work(&args, "--bogus", &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_rejects_a_trailing_flag_without_its_value() {
    let dir = scratch_dir("no-value");
    for (call, flag) in EVERY_COMMAND {
        let Some(flag) = flag else { continue };
        let args = [call, &[flag][..]].concat();
        assert_rejected_before_any_work(&args, &format!("{flag} needs a value"), &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_rejects_an_extra_positional() {
    let dir = scratch_dir("extra-positional");
    for (call, _) in EVERY_COMMAND {
        let args = [call, &["surplus"][..]].concat();
        assert_rejected_before_any_work(&args, "`surplus`", &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `max_error` of every Table 6 Quick row in the committed golden,
/// by (workload, variant column).
fn golden_table6_max_errors() -> Vec<(String, String, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden/table6_errors.json");
    let golden = Artifact::read(path).unwrap();
    assert_eq!(
        golden
            .meta
            .iter()
            .find(|(k, _)| k == "error_scale")
            .map(|(_, v)| v),
        Some(&Json::from("quick"))
    );
    let col = |name: &str| golden.columns.iter().position(|c| c.name == name).unwrap();
    let (w, v, max) = (col("workload"), col("variant"), col("max_error"));
    golden
        .rows
        .iter()
        .map(|r| {
            (
                r[w].as_str().unwrap().to_string(),
                r[v].as_str().unwrap().to_string(),
                r[max].as_f64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn verify_prints_the_table6_quick_rows_for_every_workload() {
    let dir = scratch_dir("verify");
    let golden = golden_table6_max_errors();
    for w in Workload::ALL {
        let out = cubie(&["verify", w.key()], &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{}: {stdout}", w.key());
        assert!(stdout.contains("OK: every variant matches"), "{stdout}");
        for v in w.variants() {
            let line = stdout
                .lines()
                .find(|l| l.split_whitespace().next() == Some(v.label()))
                .unwrap_or_else(|| panic!("{}: no {} line: {stdout}", w.key(), v.label()));
            if w == Workload::Bfs {
                assert!(line.ends_with("levels exact"), "{line}");
                continue;
            }
            let printed: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            let column = match v {
                Variant::Tc | Variant::Cc => "TC/CC",
                other => other.label(),
            };
            let want = golden
                .iter()
                .find(|(gw, gv, _)| gw == w.spec().name && gv == column)
                .unwrap_or_else(|| panic!("no golden row {} {column}", w.spec().name))
                .2;
            assert_eq!(printed.to_bits(), want.to_bits(), "{line}");
        }
    }
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The most threads `cubie args` had alive at once under
/// `CUBIE_JOBS=jobs`, sampled from `/proc/<pid>/task` until it exits.
/// Pool workers stay alive once spawned, so the sample cannot miss one.
fn peak_threads(args: &[&str], jobs: &str, dir: &Path) -> usize {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubie"))
        .args(args)
        .current_dir(dir)
        .env("CUBIE_JOBS", jobs)
        .env("CUBIE_PREP_DIR", dir.join("prep"))
        .env(
            "CUBIE_GOLDEN_DIR",
            Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden"),
        )
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cubie");
    let tasks = format!("/proc/{}/task", child.id());
    let mut peak = 0;
    while child.try_wait().unwrap().is_none() {
        if let Ok(entries) = std::fs::read_dir(&tasks) {
            peak = peak.max(entries.count());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(child.wait().unwrap().success(), "{args:?} failed");
    peak
}

/// `CUBIE_JOBS` caps every fan-out of a command, not only a sweep's:
/// Table 6's and a bare preparation's too. Under 1 the process never
/// runs a second thread. Under 3, Table 6 (long enough for the sampler
/// to see its pool) runs exactly three, whatever the host's core count.
#[cfg(target_os = "linux")]
#[test]
fn cubie_jobs_caps_the_whole_process() {
    let dir = scratch_dir("jobs");
    for args in [
        &["errors", "--quick"][..],
        &["verify", "spgemm"],
        &["golden", "check", "--only", "table6_errors"],
        &["advise", "spgemm", "--sparse-scale", "256"],
    ] {
        assert_eq!(peak_threads(args, "1", &dir), 1, "{args:?} under one job");
    }
    assert_eq!(peak_threads(&["errors", "--quick"], "3", &dir), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
