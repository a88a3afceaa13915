//! # cubie-prep
//!
//! The persistent prepared-input store: content-addressed, checksummed
//! snapshots of the Table 4 sparse matrices, the Table 3 graphs and
//! Figure 10's corpus items under `results/prep/`, shared by every entry
//! point (CLI sweeps, golden checks, benches, tests, `cubied`).
//!
//! Every case is served on its own by [`Table::case`]: on a hit its
//! snapshot is streamed once through a fixed buffer, checksummed and
//! decoded straight into the case's `Vec`s, so a warm restart pays one
//! read of the file, not a regeneration; on a miss the case is
//! generated and recorded as one atomic snapshot. A table load
//! ([`table4_matrices_with`], [`table3_graphs_with`]) runs its five
//! cases on the worker pool ([`par_map_lpt`], heaviest case first),
//! hits and misses alike, then [`Table::finish`] publishes the summed
//! [`LoadReport`]. Callers that want one case at a time, such as
//! Figure 10's study fan-out, open a [`Table`] and do the same; its
//! corpus items come the same way through a [`Corpus`], whose items are
//! keyed by family and own seed rather than by name and scale.
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
//! Observability: one `prep:` log line per table or corpus load (through
//! [`cubie_obs::log`]), and the process-wide sum of every load's
//! [`LoadReport`] in [`process_total`].
//!
//! [`par_map_lpt`]: cubie_core::par::par_map_lpt

#![warn(missing_docs)]

pub mod format;
pub mod store;

use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::Mutex;

use cubie_core::par::par_map_lpt;
use cubie_core::SplitMix64;
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

/// One load's hit/miss accounting: of one case ([`Table::case`],
/// [`Corpus::item`]), summed over a table or corpus (logged and added to
/// [`process_total`] by [`Table::finish`] or [`Corpus::finish`]), or over
/// the process.
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

impl std::ops::AddAssign for LoadReport {
    fn add_assign(&mut self, other: LoadReport) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidated += other.invalidated;
        self.bytes_loaded += other.bytes_loaded;
        self.bytes_written += other.bytes_written;
    }
}

/// Every table load's summed report since the process started.
static PROCESS_TOTAL: Mutex<LoadReport> = Mutex::new(LoadReport {
    hits: 0,
    misses: 0,
    invalidated: 0,
    bytes_loaded: 0,
    bytes_written: 0,
});

/// The sum of every [`Table::finish`]ed and [`Corpus::finish`]ed report
/// in this process — what `cubie profile`'s cold/warm verdict reads.
pub fn process_total() -> LoadReport {
    *PROCESS_TOTAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A kind of case the store holds: a Table 4 matrix or a Table 3 graph,
/// and the Figure 10 corpus items of the same kind.
pub trait PrepCase: Sized {
    /// The table's name in the `prep:` log line.
    const TABLE: &'static str;
    /// The case kind its keys name.
    const KIND: &'static str;
    /// Families of this kind's Figure 10 corpus: item `i` is of family
    /// `i % CORPUS_FAMILIES`.
    const CORPUS_FAMILIES: usize;
    /// Generate the case fresh.
    fn generate(name: &str, scale: usize) -> Self;
    /// The name of Figure 10 corpus item `i`.
    fn corpus_name(i: usize) -> String;
    /// Generate a Figure 10 corpus item of `family` fresh from its own
    /// seed.
    fn generate_corpus(family: usize, seed: u64) -> Self;
    /// The decoded snapshot as this kind of case, if it is one.
    fn from_decoded(case: Decoded) -> Option<Self>;
    /// Record the case as the snapshot of `key`.
    fn save(&self, store: &PrepStore, key: &PrepKey) -> std::io::Result<PathBuf>;
}

impl PrepCase for Csr {
    const TABLE: &'static str = "matrices";
    const KIND: &'static str = "matrix";
    const CORPUS_FAMILIES: usize = sparse_gen::CORPUS_FAMILIES;

    fn generate(name: &str, scale: usize) -> Csr {
        sparse_gen::generate(name, scale)
    }

    fn corpus_name(i: usize) -> String {
        sparse_gen::corpus_matrix_name(i)
    }

    fn generate_corpus(family: usize, seed: u64) -> Csr {
        sparse_gen::corpus_matrix(family, seed)
    }

    fn from_decoded(case: Decoded) -> Option<Csr> {
        match case {
            Decoded::Matrix(m) => Some(m),
            Decoded::Graph(_) => None,
        }
    }

    fn save(&self, store: &PrepStore, key: &PrepKey) -> std::io::Result<PathBuf> {
        store.save_matrix(key, self)
    }
}

impl PrepCase for CsrGraph {
    const TABLE: &'static str = "graphs";
    const KIND: &'static str = "graph";
    const CORPUS_FAMILIES: usize = graph_gen::CORPUS_FAMILIES;

    fn generate(name: &str, scale: usize) -> CsrGraph {
        graph_gen::generate(name, scale)
    }

    fn corpus_name(i: usize) -> String {
        graph_gen::corpus_graph_name(i)
    }

    fn generate_corpus(family: usize, seed: u64) -> CsrGraph {
        graph_gen::corpus_graph(family, seed)
    }

    fn from_decoded(case: Decoded) -> Option<CsrGraph> {
        match case {
            Decoded::Graph(g) => Some(g),
            Decoded::Matrix(_) => None,
        }
    }

    fn save(&self, store: &PrepStore, key: &PrepKey) -> std::io::Result<PathBuf> {
        store.save_graph(key, self)
    }
}

/// The store one load reads from and records into (none when it is off
/// or unusable), and what its `prep:` line calls the load.
struct Shelf {
    store: Option<PrepStore>,
    label: String,
}

impl Shelf {
    /// Open the store `cfg` names. An unusable store is logged, and the
    /// load generates in memory.
    fn open(cfg: &PrepConfig, label: String) -> Shelf {
        let store = if cfg.enabled {
            match PrepStore::open_unchecked(&cfg.dir) {
                Ok(s) => Some(s),
                Err(e) => {
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
        Shelf { store, label }
    }

    /// The case of `key`: loaded from its snapshot when a valid one is
    /// recorded, made by `generate` (and recorded) otherwise. The bits
    /// are the same either way. The report counts this case alone.
    fn serve<T: PrepCase>(&self, key: &PrepKey, generate: impl FnOnce() -> T) -> (T, LoadReport) {
        let mut report = LoadReport::default();
        if let Some(store) = &self.store {
            match store.load(key) {
                Lookup::Hit(loaded) => {
                    if let Some(case) = T::from_decoded(loaded.case) {
                        report.hits = 1;
                        report.bytes_loaded = loaded.bytes;
                        return (case, report);
                    }
                    // Address collision across kinds — astronomically
                    // unlikely, but treat as a miss, never mis-serve.
                    cubie_obs::log(format!(
                        "prep: entry at {} holds the wrong case kind; regenerating",
                        key.address()
                    ));
                }
                Lookup::Miss => {}
                Lookup::Invalidated(reason) => {
                    report.invalidated = 1;
                    cubie_obs::log(format!(
                        "prep: invalidated snapshot {}: {reason}",
                        key.address()
                    ));
                }
            }
        }
        let case = generate();
        report.misses = 1;
        if let Some(store) = &self.store {
            match case.save(store, key) {
                Ok(path) => {
                    report.bytes_written = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                }
                Err(e) => {
                    cubie_obs::log(format!(
                        "prep: failed to record snapshot {}: {e}",
                        key.address()
                    ));
                }
            }
        }
        (case, report)
    }

    /// Publish a load's summed accounting: add it to [`process_total`],
    /// and log one `prep:` line when the store is in use.
    fn finish(&self, report: &LoadReport) {
        *PROCESS_TOTAL.lock().unwrap_or_else(|e| e.into_inner()) += *report;
        if self.store.is_some() {
            cubie_obs::log(format!(
                "prep: {} hits={} misses={} invalidated={} loaded={}B written={}B",
                self.label,
                report.hits,
                report.misses,
                report.invalidated,
                report.bytes_loaded,
                report.bytes_written
            ));
        }
    }
}

/// One table's load at one scale divisor, through the store or in
/// memory. [`Table::case`] serves one case at a time, from any thread;
/// [`Table::finish`] publishes the summed accounting once, as the
/// `prep: <table> scale=<scale>` line.
pub struct Table<T> {
    shelf: Shelf,
    scale: usize,
    kind: PhantomData<fn() -> T>,
}

impl<T: PrepCase> Table<T> {
    /// Open the store `cfg` names for a load at `scale`. An unusable
    /// store is logged, and the load generates in memory.
    pub fn open(cfg: &PrepConfig, scale: usize) -> Table<T> {
        Table {
            shelf: Shelf::open(cfg, format!("{} scale={scale}", T::TABLE)),
            scale,
            kind: PhantomData,
        }
    }

    /// The case called `name`: loaded from its snapshot when a valid one
    /// is recorded, generated (and recorded) otherwise. The bits are the
    /// same either way. The report counts this case alone.
    pub fn case(&self, name: &str) -> (T, LoadReport) {
        let key = PrepKey::case(T::KIND, name, self.scale);
        self.shelf.serve(&key, || T::generate(name, self.scale))
    }

    /// Publish a table's summed accounting: add it to
    /// [`process_total`], and log one `prep:` line when the store is in
    /// use.
    pub fn finish(&self, report: &LoadReport) {
        self.shelf.finish(report);
    }
}

/// One kind's Figure 10 corpus drawn from one seed, through the store or
/// in memory: item `i` is of family `i % CORPUS_FAMILIES`, built from
/// its own seed (the corpus seed's draw `i`) and keyed by the two, so
/// corpora that share an item share its snapshot. [`Corpus::item`] serves
/// one item at a time, from any thread; [`Corpus::finish`] publishes the
/// summed accounting once, as the `prep: <table> corpus seed=<seed>`
/// line.
pub struct Corpus<T> {
    shelf: Shelf,
    seeds: Vec<u64>,
    kind: PhantomData<fn() -> T>,
}

impl<T: PrepCase> Corpus<T> {
    /// Open the store `cfg` names for the `count` items of the corpus
    /// drawn from `seed`.
    pub fn open(cfg: &PrepConfig, seed: u64, count: usize) -> Corpus<T> {
        Corpus {
            shelf: Shelf::open(cfg, format!("{} corpus seed={seed:#x}", T::TABLE)),
            seeds: SplitMix64::seeds(seed, count),
            kind: PhantomData,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the corpus has no items.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The store key of item `i`.
    pub fn key(&self, i: usize) -> PrepKey {
        PrepKey::corpus(T::KIND, i % T::CORPUS_FAMILIES, self.seeds[i])
    }

    /// Item `i` and its name: loaded from its snapshot when a valid one
    /// is recorded, generated (and recorded) otherwise. The bits are the
    /// same either way. The report counts this item alone.
    pub fn item(&self, i: usize) -> (String, T, LoadReport) {
        let generate = || T::generate_corpus(i % T::CORPUS_FAMILIES, self.seeds[i]);
        let (case, report) = self.shelf.serve(&self.key(i), generate);
        (T::corpus_name(i), case, report)
    }

    /// Publish the corpus's summed accounting, as [`Table::finish`] does.
    pub fn finish(&self, report: &LoadReport) {
        self.shelf.finish(report);
    }
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
    let specs = sparse_gen::table4_specs();
    let (cases, report) = load_table(cfg, scale, &specs.map(|s| (s.name, s.nnz as f64)));
    (specs.into_iter().zip(cases).collect(), report)
}

/// [`table3_graphs`] with an explicit config.
pub fn table3_graphs_with(
    cfg: &PrepConfig,
    scale: usize,
) -> (Vec<(GraphInfo, CsrGraph)>, LoadReport) {
    let specs = graph_gen::table3_specs();
    let (cases, report) = load_table(cfg, scale, &specs.map(|s| (s.name, s.edges as f64)));
    (specs.into_iter().zip(cases).collect(), report)
}

/// Load a table's `(name, cost)` cases on the pool, heaviest first
/// ([`par_map_lpt`]), each through [`Table::case`], and return them in
/// the given order — bit-identical to a pure generation run, whatever
/// mix of hits and misses happened.
fn load_table<T: PrepCase + Send>(
    cfg: &PrepConfig,
    scale: usize,
    cases: &[(&str, f64)],
) -> (Vec<T>, LoadReport) {
    let table = Table::<T>::open(cfg, scale);
    let loaded = par_map_lpt(cases.len(), |i| cases[i].1, |i| table.case(cases[i].0));
    let mut report = LoadReport::default();
    let cases = loaded
        .into_iter()
        .map(|(case, r)| {
            report += r;
            case
        })
        .collect();
    table.finish(&report);
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
        Ok((_, report)) => report,
        Err(e) => {
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

    /// Load every item of a corpus, cold or warm, with the summed report.
    fn load_corpus<T: PrepCase>(
        cfg: &PrepConfig,
        seed: u64,
        count: usize,
    ) -> (Vec<(String, T)>, LoadReport) {
        let corpus = Corpus::<T>::open(cfg, seed, count);
        let mut report = LoadReport::default();
        let items = (0..corpus.len())
            .map(|i| {
                let (name, case, r) = corpus.item(i);
                report += r;
                (name, case)
            })
            .collect();
        corpus.finish(&report);
        (items, report)
    }

    #[test]
    fn corpus_cold_then_warm_is_the_generated_corpus() {
        let cfg = tmp_cfg("corpus");
        let bits = |m: &Csr| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let fresh = sparse_gen::diverse_corpus(12, 0xF16B);
        let (cold, r1) = load_corpus::<Csr>(&cfg, 0xF16B, 12);
        let (warm, r2) = load_corpus::<Csr>(&cfg, 0xF16B, 12);
        assert_eq!((r1.hits, r1.misses), (0, 12));
        assert_eq!((r2.hits, r2.misses, r2.bytes_written), (12, 0, 0));
        assert_eq!(r2.bytes_loaded, r1.bytes_written);
        for (((fn_, f), (cn, c)), (wn, w)) in fresh.iter().zip(&cold).zip(&warm) {
            assert_eq!((cn, wn), (fn_, fn_));
            assert_eq!((c, w), (f, f));
            assert_eq!((bits(c), bits(w)), (bits(f), bits(f)));
        }
        let fresh = graph_gen::diverse_graph_corpus(10, 13);
        let (cold, r1) = load_corpus::<CsrGraph>(&cfg, 13, 10);
        let (warm, r2) = load_corpus::<CsrGraph>(&cfg, 13, 10);
        assert_eq!((r1.misses, r2.hits), (10, 10));
        assert_eq!(cold, fresh);
        assert_eq!(warm, fresh);
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
    fn finish_adds_each_table_load_to_the_process_total() {
        let cfg = tmp_cfg("total");
        let before = process_total();
        let (_, report) = table4_matrices_with(&cfg, 128);
        let after = process_total();
        assert_eq!(report.misses, 5);
        assert!(report.bytes_written > 0);
        // Other tests load tables concurrently: the total grows by at
        // least this load.
        assert!(after.misses >= before.misses + report.misses);
        assert!(after.bytes_written >= before.bytes_written + report.bytes_written);
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
