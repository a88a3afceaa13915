//! `golden_check`: one `cubie golden check` over all twenty artifacts
//! per iteration, run as a subprocess because its sweep goes through the
//! process-global sweep cache. Every check must exit 0.
//!
//! Also the golden half of the traced pass: [`traced_child`] replays the
//! check's steps in a fresh serial process and times each from outside.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cubie_bench::artifacts::{self, GoldenConfig, GoldenCtx, GOLDEN_ARTIFACTS};
use cubie_golden::{Artifact, Json};

use crate::{median_setup, stats, Bench, Outcome};

/// First argument that turns the benchmark binary into the traced
/// golden child.
pub const CHILD_FLAG: &str = "--golden-trace-child";

/// The cargo target directory this binary was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

/// Build the `cubie` CLI into this binary's target directory and return
/// its path. A no-op rebuild takes well under a second.
pub fn build_cubie(b: &Bench) -> Result<PathBuf, String> {
    let target = target_dir()?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "cubie",
            "--manifest-path",
        ])
        .arg(b.root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the cubie CLI failed ({status})"));
    }
    Ok(target.join("release").join("cubie"))
}

/// A check still running after this long is killed and counts as
/// failed, so a hang cannot hold the run past its time limit.
const CHECK_LIMIT: Duration = Duration::from_secs(120);

/// Wait for `child`, sampling its peak resident set while it runs.
/// Returns whether it exited 0 and the highest `VmHWM` seen.
fn wait_sampling_rss(child: &mut Child) -> std::io::Result<(bool, f64)> {
    let pid = child.id().to_string();
    let started = Instant::now();
    let mut peak = 0.0f64;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok((status.success(), peak));
        }
        if started.elapsed() > CHECK_LIMIT {
            child.kill()?;
            child.wait()?;
            return Ok((false, peak));
        }
        if let Some(mib) = crate::peak_rss_mib(&pid) {
            peak = peak.max(mib);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run `golden_check`.
pub fn run(b: &Bench) -> Outcome {
    let mut out = Outcome::default();
    let cubie = match build_cubie(b) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let (setup_s, _) = median_setup(|| b.fill_prep_store());
    let cwd = b.work.join("golden");
    std::fs::create_dir_all(&cwd).expect("the work directory is writable");
    let log_path = b.work.join("golden_check.log");

    let (mut samples, mut peaks) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while samples.is_empty() || start.elapsed().as_secs_f64() < b.seconds {
        out.attempted += 1;
        let log = File::create(&log_path).expect("the work directory is writable");
        let t0 = Instant::now();
        let spawned = Command::new(&cubie)
            .args(["golden", "check"])
            .current_dir(&cwd)
            .stdout(log.try_clone().expect("log handle"))
            .stderr(log)
            .spawn();
        let waited = spawned.and_then(|mut child| wait_sampling_rss(&mut child));
        let wall = t0.elapsed().as_secs_f64();
        match waited {
            Ok((true, peak)) => peaks.push(peak),
            Ok((false, _)) => {
                out.failed += 1;
                let log = std::fs::read_to_string(&log_path).unwrap_or_default();
                eprintln!("perfbench: golden check failed:\n{log}");
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: cannot run {}: {e}", cubie.display());
            }
        }
        samples.push(wall);
    }
    let peak = peaks.iter().copied().fold(0.0, f64::max);
    out.end_to_end(stats::mean(&samples), &samples, setup_s, peak);
    out.samples.push(("golden_check_s".into(), samples));
    out
}

/// The golden-check steps in check order, each timed on its own: the
/// shared sweep and Table 6 rows first (a real check builds them lazily
/// inside the first builder that needs them), then per artifact the read
/// of the committed golden, the build, and the diff. Runs in a fresh
/// process so the process-global sweep cache starts empty, capped at one
/// worker like the rest of the traced pass. Prints one JSON line of
/// timings.
pub fn traced_child() -> i32 {
    cubie_core::par::set_max_workers(1);
    cubie_obs::set_log_echo(false);
    let mut t: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut timed = |key: &'static str, t0: Instant| {
        *t.entry(key).or_default() += t0.elapsed().as_secs_f64();
    };
    let wall = Instant::now();
    let ctx = GoldenCtx::new(GoldenConfig::default());
    let dir = artifacts::golden_dir();
    let t0 = Instant::now();
    ctx.sweep();
    timed("golden.sweep_s", t0);
    let t0 = Instant::now();
    ctx.errors();
    timed("golden.errors_s", t0);
    let mut passed = true;
    for name in GOLDEN_ARTIFACTS {
        let t0 = Instant::now();
        let golden = Artifact::read(dir.join(format!("{name}.json")));
        timed("golden.read_s", t0);
        let t0 = Instant::now();
        let actual = artifacts::build(&ctx, name).expect("registry names build");
        timed(
            match *name {
                "fig10_corpus_pca" => "golden.build.fig10_corpus_pca_s",
                "observations" => "golden.build.observations_s",
                _ => "golden.build.other_s",
            },
            t0,
        );
        let t0 = Instant::now();
        let ok = golden.is_ok_and(|g| cubie_golden::diff(&g, &actual).passed());
        timed("golden.diff_s", t0);
        if !ok {
            eprintln!("perfbench: golden `{name}` does not match");
            passed = false;
        }
    }
    let mut doc: Vec<(String, Json)> = t.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
    doc.push(("wall_s".into(), wall.elapsed().as_secs_f64().into()));
    doc.push(("passed".into(), passed.into()));
    println!("{}", Json::Object(doc).to_canonical_string());
    i32::from(!passed)
}
