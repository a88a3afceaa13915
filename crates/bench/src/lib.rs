//! # cubie-bench
//!
//! The experiment harness: the sweep engine, one [`artifacts`] builder
//! per paper figure/table, and Criterion benchmarks of the actual Rust
//! implementations. `cubie figure [--only a,b]` builds every registered
//! artifact at the paper scale and writes `results/<name>.csv`,
//! `results/<name>.json` and the markdown log `results/logs/<name>.md`;
//! `cubie golden check` diffs the same builders, at a reduced scale,
//! against `results/golden/`.
//!
//! | artifact                 | regenerates                    |
//! |--------------------------|--------------------------------|
//! | `fig3_performance`       | Figure 3                       |
//! | `fig4_tc_vs_baseline`    | Figure 4                       |
//! | `fig5_cc_vs_tc`          | Figure 5                       |
//! | `fig6_cce_vs_tc`         | Figure 6                       |
//! | `fig7_edp`               | Figure 7                       |
//! | `fig8_power_traces`      | Figure 8                       |
//! | `fig9_roofline`          | Figure 9                       |
//! | `fig10_corpus_pca`       | Figure 10                      |
//! | `fig10_coverage_stats`   | Figure 10's coverage statistics|
//! | `fig11_suite_pca`        | Figure 11                      |
//! | `fig12_peak_evolution`   | Figure 12                      |
//! | `table5_specs`           | Table 5                        |
//! | `table6_errors`          | Table 6                        |
//! | `table7_coverage`        | Table 7                        |
//! | `table234_inventory`     | Tables 2, 3, 4                 |
//! | `trace_counters`         | per-trace op/byte counters     |
//! | `observations`           | Observations O1–O9             |
//! | `ext_*`                  | the extension experiments      |
//!
//! ## The sweep engine
//!
//! All workload-sweeping artifacts are **projections of one shared
//! [`sweep::SweepRunner`] result**: the engine enumerates the
//! workload × case × variant × device cross-product, prepares each
//! workload's Table 2/3/4 cases exactly once per process (memoized in
//! [`sweep::SweepCache`], one entry per `(workload, sparse_scale,
//! graph_scale)` holding its labels, useful work and traces),
//! executes the functional kernels and trace construction in parallel
//! via `cubie_core::par`, and hands each builder an ordered list of
//! [`sweep::SweepCell`]s to fold. `cubie sweep` exposes the engine
//! directly:
//!
//! * `--filter workload=…|variant=…|device=…|case=…` — sweep a subset
//!   without paying full-suite cost;
//! * `--jobs N` — cap (or oversubscribe) the worker threads; results
//!   are bit-identical for every `N`, only wall-clock changes.

#![warn(missing_docs)]

pub mod artifacts;
pub mod sweep;

pub use sweep::{Sweep, SweepCache, SweepCell, SweepConfig, SweepRunner};

use cubie_kernels::Workload;

/// Parse `value` (from environment variable `name`) as a `T`, reporting
/// what was wrong instead of discarding the failure — the pure core of
/// [`env_parse`], unit-testable without touching the process environment.
pub fn parse_env_value<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("ignoring {name}={value}: not a valid value for this variable"))
}

/// Parse `value` of command-line flag `flag` as a `T`, naming both on
/// failure (``--jobs `fast` is not a number``).
pub fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} `{value}` is not a number"))
}

/// The one rule for a scale divisor, wherever it is read: it must be at
/// least 1. The generators treat 0 as 1, so accepting it would record
/// the scale-1 inputs a second time under a new key. The error names
/// `name` (a flag, an env var or a request field).
pub fn check_scale(name: &str, k: usize) -> Result<usize, String> {
    if k == 0 {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(k)
}

/// Parse the value of scale flag `flag` (`--sparse-scale`/
/// `--graph-scale`): a number, and [`check_scale`]d.
pub fn parse_scale(flag: &str, value: &str) -> Result<usize, String> {
    check_scale(flag, parse_flag(flag, value)?)
}

/// Read and parse environment variable `name`. Unset returns `None`
/// silently; a set-but-unparseable value (e.g. `CUBIE_JOBS=fast`) emits a
/// one-line stderr warning and returns `None`, so typos degrade loudly to
/// the default instead of being silently swallowed.
pub fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    let value = std::env::var(name).ok()?;
    match parse_env_value(name, &value) {
        Ok(v) => Some(v),
        Err(msg) => {
            eprintln!("warning: {msg}");
            None
        }
    }
}

/// Scale environment variable `name`, or `default`. A value of 0 warns
/// and falls back, like an unparsable one.
fn env_scale(name: &str, default: usize) -> usize {
    match env_parse(name).map(|k| check_scale(name, k)) {
        Some(Ok(k)) => k,
        Some(Err(msg)) => {
            eprintln!("warning: ignoring {name}=0: {msg}");
            default
        }
        None => default,
    }
}

/// Scale divisor for the Table 4 sparse matrices (1 = the published
/// sizes). Override with `CUBIE_SPARSE_SCALE`.
pub fn sparse_scale() -> usize {
    env_scale("CUBIE_SPARSE_SCALE", 1)
}

/// Scale divisor for the Table 3 graphs (default 16: the published
/// 90–234M-arc graphs need several GB to materialize). Override with
/// `CUBIE_GRAPH_SCALE`.
pub fn graph_scale() -> usize {
    env_scale("CUBIE_GRAPH_SCALE", 16)
}

/// The paper's Figure 7 per-workload repeat counts ("each of the ten
/// workloads is executed 500, 60, 400, 5K, 25K, 50K, 2K, 6M, 1M, and 5K
/// times"), assigned in Table 2 order.
pub fn fig7_repeats(w: Workload) -> u64 {
    match w {
        Workload::Gemm => 500,
        Workload::Pic => 60,
        Workload::Fft => 400,
        Workload::Stencil => 5_000,
        Workload::Scan => 6_000_000 / cubie_kernels::scan::KERNEL_REPEATS,
        Workload::Reduction => 1_000_000 / cubie_kernels::scan::KERNEL_REPEATS,
        Workload::Bfs => 2_000,
        Workload::Gemv => 50_000,
        Workload::Spmv => 25_000,
        Workload::Spgemm => 5_000,
    }
}

/// Serializes tests that mutate the process environment (Rust runs test
/// threads concurrently within one process; `set_var` races otherwise).
#[cfg(test)]
pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_env_value_accepts_valid_input() {
        assert_eq!(parse_env_value::<usize>("CUBIE_JOBS", "8"), Ok(8));
        assert_eq!(
            parse_env_value::<f64>("CUBIE_EXAMPLE_FACTOR", "2.5"),
            Ok(2.5)
        );
    }

    #[test]
    fn parse_env_value_names_the_variable_and_value_on_failure() {
        let err = parse_env_value::<usize>("CUBIE_JOBS", "fast").unwrap_err();
        assert!(err.contains("CUBIE_JOBS=fast"), "{err}");
    }

    #[test]
    fn cubie_jobs_typo_degrades_to_default_not_silence() {
        let _guard = env_lock();
        std::env::set_var("CUBIE_JOBS", "many");
        assert_eq!(env_parse::<usize>("CUBIE_JOBS"), None);
        std::env::set_var("CUBIE_JOBS", "6");
        assert_eq!(env_parse::<usize>("CUBIE_JOBS"), Some(6));
        std::env::remove_var("CUBIE_JOBS");
        assert_eq!(env_parse::<usize>("CUBIE_JOBS"), None);
    }

    #[test]
    fn cubie_sparse_scale_falls_back_on_garbage() {
        let _guard = env_lock();
        std::env::set_var("CUBIE_SPARSE_SCALE", "1.5");
        assert_eq!(sparse_scale(), 1);
        std::env::set_var("CUBIE_SPARSE_SCALE", "0");
        assert_eq!(sparse_scale(), 1);
        std::env::set_var("CUBIE_SPARSE_SCALE", "4");
        assert_eq!(sparse_scale(), 4);
        std::env::remove_var("CUBIE_SPARSE_SCALE");
    }

    #[test]
    fn cubie_graph_scale_falls_back_on_garbage() {
        let _guard = env_lock();
        std::env::set_var("CUBIE_GRAPH_SCALE", "");
        assert_eq!(graph_scale(), 16);
        std::env::set_var("CUBIE_GRAPH_SCALE", "0");
        assert_eq!(graph_scale(), 16);
        std::env::set_var("CUBIE_GRAPH_SCALE", "32");
        assert_eq!(graph_scale(), 32);
        std::env::remove_var("CUBIE_GRAPH_SCALE");
    }

    #[test]
    fn fig7_repeats_cover_all() {
        for w in Workload::ALL {
            assert!(fig7_repeats(w) > 0);
        }
    }
}
