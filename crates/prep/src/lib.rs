//! # cubie-prep
//!
//! The persistent prepared-input store: content-addressed, checksummed
//! snapshots of the Table 4 sparse matrices and Table 3 graphs under
//! `results/prep/`, shared by every entry point (CLI sweeps, benches,
//! tests, `cubied`).
//!
//! Cold path: generation fans out across the worker pool ([`par_map_lpt`],
//! heaviest case first) and each generated case is recorded as one
//! atomic snapshot. Warm path: the snapshot is streamed once through a
//! fixed buffer, checksummed and decoded straight into the case's
//! `Vec`s, so a warm restart pays one read of the file, not a
//! regeneration.
//!
//! Correctness before speed: every snapshot embeds its canonical key
//! and a checksum over its header and payload; truncated, bit-rotted,
//! or version-skewed entries are detected at open, logged, deleted, and
//! regenerated — never a panic, never a silent wrong-input run.
//! Generators are deterministic, so loaded cases are bit-identical to
//! fresh ones (the `prep_store_identity` suite and the golden gates
//! enforce this).
//!
//! Knobs (read once per call, so tests can flip them):
//!
//! * `CUBIE_PREP_CACHE=off` — bypass the store entirely (generate
//!   in-memory, still parallel). Default: on.
//! * `CUBIE_PREP_DIR=<path>` — store directory. Default:
//!   `results/prep` under the current directory.
//!
//! Observability: `prep.hit` / `prep.miss` / `prep.invalidated` /
//! `prep.store_err` counters, `prep.bytes_loaded` / `prep.bytes_written`
//! byte counters, and one `prep:` log line per table load — all through
//! [`cubie_obs`].
//!
//! [`par_map_lpt`]: cubie_core::par::par_map_lpt

#![warn(missing_docs)]

pub mod format;
pub mod store;

use std::path::PathBuf;

use cubie_core::par::par_map_lpt;
use cubie_graph::csr_graph::CsrGraph;
use cubie_graph::generators as graph_gen;
use cubie_graph::generators::GraphInfo;
use cubie_sparse::generators as sparse_gen;
use cubie_sparse::generators::MatrixInfo;
use cubie_sparse::Csr;

pub use cubie_core::cas::OpenReport;
pub use format::Decoded;
pub use store::{Lookup, PrepKey, PrepStore};

/// Resolved store configuration: what a load/generate call should do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepConfig {
    /// Whether the on-disk store is consulted at all
    /// (`CUBIE_PREP_CACHE`, default on).
    pub enabled: bool,
    /// Store directory (`CUBIE_PREP_DIR`, default `results/prep`).
    pub dir: PathBuf,
}

impl PrepConfig {
    /// The default config: store enabled at `results/prep`.
    pub fn new() -> PrepConfig {
        PrepConfig {
            enabled: true,
            dir: PathBuf::from("results/prep"),
        }
    }

    /// Resolve the config from the environment knobs (see crate docs).
    pub fn from_env() -> PrepConfig {
        let mut cfg = PrepConfig::new();
        if let Ok(v) = std::env::var("CUBIE_PREP_CACHE") {
            cfg.enabled = !matches!(v.as_str(), "off" | "0" | "false");
        }
        if let Ok(v) = std::env::var("CUBIE_PREP_DIR") {
            if !v.is_empty() {
                cfg.dir = PathBuf::from(v);
            }
        }
        cfg
    }

    /// A disabled config (always generate in-memory).
    pub fn disabled() -> PrepConfig {
        PrepConfig {
            enabled: false,
            ..PrepConfig::new()
        }
    }
}

impl Default for PrepConfig {
    fn default() -> Self {
        PrepConfig::new()
    }
}

/// One table-load's hit/miss accounting (also logged and mirrored into
/// the `prep.*` counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Cases served from snapshots.
    pub hits: usize,
    /// Cases generated (and recorded when the store is enabled).
    pub misses: usize,
    /// Snapshots deleted for corruption/skew during this load.
    pub invalidated: usize,
    /// Bytes served from snapshots.
    pub bytes_loaded: u64,
    /// Bytes written for newly recorded snapshots.
    pub bytes_written: u64,
}

/// The five Table 4 matrices, through the store configured by the
/// environment. Output (order and bits) is identical to
/// [`sparse_gen::table4_matrices`].
pub fn table4_matrices(scale: usize) -> Vec<(MatrixInfo, Csr)> {
    table4_matrices_with(&PrepConfig::from_env(), scale).0
}

/// The five Table 3 graphs, through the store configured by the
/// environment. Output (order and bits) is identical to
/// [`graph_gen::table3_graphs`].
pub fn table3_graphs(scale: usize) -> Vec<(GraphInfo, CsrGraph)> {
    table3_graphs_with(&PrepConfig::from_env(), scale).0
}

/// [`table4_matrices`] with an explicit config (tests pass temp dirs
/// here instead of mutating the environment).
pub fn table4_matrices_with(
    cfg: &PrepConfig,
    scale: usize,
) -> (Vec<(MatrixInfo, Csr)>, LoadReport) {
    let specs = sparse_gen::table4_specs().to_vec();
    cached_table(
        cfg,
        "matrices",
        scale,
        &specs,
        |spec| PrepKey::matrix(spec.name, scale),
        |spec| spec.nnz as f64,
        |spec| sparse_gen::generate(spec.name, scale),
        |loaded| match loaded {
            Decoded::Matrix(m) => Some(m),
            Decoded::Graph(_) => None,
        },
        |store, key, m| store.save_matrix(key, m),
    )
}

/// [`table3_graphs`] with an explicit config.
pub fn table3_graphs_with(
    cfg: &PrepConfig,
    scale: usize,
) -> (Vec<(GraphInfo, CsrGraph)>, LoadReport) {
    let specs = graph_gen::table3_specs().to_vec();
    cached_table(
        cfg,
        "graphs",
        scale,
        &specs,
        |spec| PrepKey::graph(spec.name, scale),
        |spec| spec.edges as f64,
        |spec| graph_gen::generate(spec.name, scale),
        |loaded| match loaded {
            Decoded::Graph(g) => Some(g),
            Decoded::Matrix(_) => None,
        },
        |store, key, g| store.save_graph(key, g),
    )
}

/// The shared load-or-generate engine: try every key against the store,
/// fan misses out with LPT-ordered [`par_map_lpt`], record what was
/// generated, and return cases in spec order — bit-identical to a pure
/// generation run, whatever mix of hits and misses happened.
#[allow(clippy::too_many_arguments)]
fn cached_table<S: Copy + Sync, T: Send>(
    cfg: &PrepConfig,
    what: &str,
    scale: usize,
    specs: &[S],
    key_of: impl Fn(&S) -> PrepKey,
    cost_of: impl Fn(&S) -> f64 + Sync,
    generate: impl Fn(&S) -> T + Sync,
    downcast: impl Fn(Decoded) -> Option<T>,
    save: impl Fn(&PrepStore, &PrepKey, &T) -> std::io::Result<std::path::PathBuf>,
) -> (Vec<(S, T)>, LoadReport) {
    let mut report = LoadReport::default();
    let store = if cfg.enabled {
        match PrepStore::open_unchecked(&cfg.dir) {
            Ok(s) => Some(s),
            Err(e) => {
                cubie_obs::counter_add("prep.store_err", 1);
                cubie_obs::log(format!(
                    "prep: store at {} unavailable ({e}); generating in-memory",
                    cfg.dir.display()
                ));
                None
            }
        }
    } else {
        None
    };

    // Phase 1 — consult the store (cheap: open + read + validate).
    let mut out: Vec<Option<T>> = specs.iter().map(|_| None).collect();
    if let Some(store) = &store {
        for (slot, spec) in specs.iter().enumerate() {
            let key = key_of(spec);
            match store.load(&key) {
                Lookup::Hit(loaded) => {
                    if let Some(case) = downcast(loaded.case) {
                        report.hits += 1;
                        report.bytes_loaded += loaded.bytes;
                        out[slot] = Some(case);
                    } else {
                        // Address collision across kinds — astronomically
                        // unlikely, but treat as a miss, never mis-serve.
                        cubie_obs::log(format!(
                            "prep: entry at {} holds the wrong case kind; regenerating",
                            key.address()
                        ));
                    }
                }
                Lookup::Miss => {}
                Lookup::Invalidated(reason) => {
                    report.invalidated += 1;
                    cubie_obs::log(format!(
                        "prep: invalidated snapshot {}: {reason}",
                        key.address()
                    ));
                }
            }
        }
    }

    // Phase 2 — generate what's missing, heaviest first, in parallel.
    let missing: Vec<usize> = (0..specs.len()).filter(|&i| out[i].is_none()).collect();
    report.misses = missing.len();
    let generated = par_map_lpt(
        missing.len(),
        |i| cost_of(&specs[missing[i]]),
        |i| generate(&specs[missing[i]]),
    );
    for (&slot, case) in missing.iter().zip(generated) {
        if let Some(store) = &store {
            let key = key_of(&specs[slot]);
            match save(store, &key, &case) {
                Ok(path) => {
                    report.bytes_written += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                }
                Err(e) => {
                    cubie_obs::counter_add("prep.store_err", 1);
                    cubie_obs::log(format!(
                        "prep: failed to record snapshot {}: {e}",
                        key.address()
                    ));
                }
            }
        }
        out[slot] = Some(case);
    }

    cubie_obs::counter_add("prep.hit", report.hits as u64);
    cubie_obs::counter_add("prep.miss", report.misses as u64);
    cubie_obs::counter_add("prep.invalidated", report.invalidated as u64);
    cubie_obs::counter_add("prep.bytes_loaded", report.bytes_loaded);
    cubie_obs::counter_add("prep.bytes_written", report.bytes_written);
    if store.is_some() {
        cubie_obs::log(format!(
            "prep: {what} scale={scale} hits={} misses={} invalidated={} loaded={}B written={}B",
            report.hits,
            report.misses,
            report.invalidated,
            report.bytes_loaded,
            report.bytes_written
        ));
    }

    let cases = specs
        .iter()
        .copied()
        .zip(out.into_iter().map(|o| o.expect("every slot filled")))
        .collect();
    (cases, report)
}

/// Revalidate (and page-cache-warm) the store without generating
/// anything — what `cubied` runs at startup so a restarted daemon
/// serves its first sweep from snapshots. Missing directory is
/// fine (fresh report); errors are logged and swallowed.
pub fn prewarm(cfg: &PrepConfig) -> OpenReport {
    if !cfg.enabled {
        return OpenReport::default();
    }
    match PrepStore::open(&cfg.dir) {
        Ok((_, report)) => {
            cubie_obs::counter_add("prep.prewarm_kept", report.kept as u64);
            cubie_obs::counter_add("prep.prewarm_bytes", report.kept_bytes);
            cubie_obs::counter_add("prep.invalidated", report.removed_invalid as u64);
            report
        }
        Err(e) => {
            cubie_obs::counter_add("prep.store_err", 1);
            cubie_obs::log(format!(
                "prep: prewarm of {} failed: {e}",
                cfg.dir.display()
            ));
            OpenReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_cfg(tag: &str) -> PrepConfig {
        let dir = std::env::temp_dir().join(format!("cubie_prep_lib_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PrepConfig { enabled: true, dir }
    }

    #[test]
    fn disabled_config_matches_plain_generation() {
        let (cases, report) = table4_matrices_with(&PrepConfig::disabled(), 128);
        let plain = sparse_gen::table4_matrices(128);
        assert_eq!(report.hits, 0);
        assert_eq!(cases.len(), plain.len());
        for ((ia, ma), (ib, mb)) in cases.iter().zip(&plain) {
            assert_eq!(ia.name, ib.name);
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn cold_then_warm_matrices_are_bit_identical() {
        let cfg = tmp_cfg("warm_mat");
        let (cold, r1) = table4_matrices_with(&cfg, 128);
        assert_eq!(r1.misses, 5);
        assert_eq!(r1.hits, 0);
        let (warm, r2) = table4_matrices_with(&cfg, 128);
        assert_eq!(r2.hits, 5);
        assert_eq!(r2.misses, 0);
        for ((ia, ma), (ib, mb)) in cold.iter().zip(&warm) {
            assert_eq!(ia, ib);
            assert_eq!(ma, mb);
            for (a, b) in ma.vals.iter().zip(mb.vals.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn cold_then_warm_graphs_are_bit_identical() {
        let cfg = tmp_cfg("warm_graph");
        let (cold, r1) = table3_graphs_with(&cfg, 1024);
        assert_eq!(r1.misses, 5);
        let (warm, r2) = table3_graphs_with(&cfg, 1024);
        assert_eq!(r2.hits, 5);
        for ((ia, ga), (ib, gb)) in cold.iter().zip(&warm) {
            assert_eq!(ia, ib);
            assert_eq!(ga, gb);
        }
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn different_scales_use_different_snapshots() {
        let cfg = tmp_cfg("scales");
        let (_, r1) = table4_matrices_with(&cfg, 128);
        let (_, r2) = table4_matrices_with(&cfg, 256);
        assert_eq!(r1.misses, 5);
        assert_eq!(r2.misses, 5, "a different scale must not hit");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn prewarm_reports_the_store_contents() {
        let cfg = tmp_cfg("prewarm");
        assert_eq!(prewarm(&cfg), OpenReport::default());
        let (_, _) = table4_matrices_with(&cfg, 128);
        let report = prewarm(&cfg);
        assert_eq!(report.kept, 5);
        assert!(report.kept_bytes > 0);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn prep_config_env_parsing() {
        // Direct construction only — env mutation is reserved for
        // subprocess probes in the integration suite.
        let cfg = PrepConfig::new();
        assert!(cfg.enabled);
        assert_eq!(cfg.dir, PathBuf::from("results/prep"));
    }
}
