//! `sweep_warm` and `sweep_cold`: the full ten-workload FP64 sweep over
//! the three Table 5 devices at the golden scales, with `jobs = nproc`.
//!
//! Every timed sweep runs on a fresh private `SweepCache`, so it pays
//! preparation and tracing like a fresh `cubie sweep` process does. The
//! warm workload reads the prep store filled during set-up; the cold one
//! empties the store before each sweep (outside the timed region), so
//! each sweep regenerates and records the Table 3/4 snapshots.

use std::sync::Arc;
use std::time::Instant;

use cubie_bench::{SweepCache, SweepConfig, SweepRunner};

use crate::{median_setup, stats, Bench, Outcome};

/// One full sweep on a fresh cache, timed up to its canonical artifact.
/// Returns the wall seconds and the artifact's canonical bytes.
pub fn sweep_once(cfg: &SweepConfig) -> (f64, String) {
    let t0 = Instant::now();
    let sweep = SweepRunner::with_cache(cfg.clone(), Arc::new(SweepCache::default())).run();
    let artifact = sweep.to_artifact();
    let wall = t0.elapsed().as_secs_f64();
    drop(sweep);
    (wall, artifact.to_json().to_canonical_string())
}

/// Set-up shared by every workload that sweeps: record the Table 3/4
/// snapshots into an emptied prep store, then compute the `jobs = 1`
/// reference artifact the oracle compares every sweep against.
pub fn setup(b: &Bench) -> String {
    b.fill_prep_store();
    sweep_once(&b.sweep_config(1)).1
}

/// Run `sweep_warm` (`cold = false`) or `sweep_cold` (`cold = true`).
pub fn run(b: &Bench, cold: bool) -> Outcome {
    let (setup_s, reference) = median_setup(|| setup(b));
    crate::reset_peak_rss();
    let cfg = b.sweep_config(b.jobs);
    let mut out = Outcome::default();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed().as_secs_f64() < b.seconds {
        if cold {
            b.empty_prep_store();
        }
        let (wall, bytes) = sweep_once(&cfg);
        out.attempted += 1;
        if bytes != reference {
            out.failed += 1;
            eprintln!(
                "perfbench: sweep {} differs from the jobs=1 reference",
                samples.len()
            );
        }
        samples.push(wall);
    }
    let peak = crate::peak_rss_mib("self").unwrap_or(0.0);
    out.end_to_end(stats::mean(&samples), &samples, setup_s, peak);
    out.samples.push(("sweep_s".into(), samples));
    out
}
