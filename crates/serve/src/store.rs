//! The content-addressed result store under `results/store/`.
//!
//! Every completed `sweep` execution is persisted as one JSON document
//! whose file name is the FNV-1a 64-bit hash of its **canonical key** —
//! the store schema, the golden artifact schema version, the crate
//! version, and the request's [`SweepConfig::cache_key`] spelling, in
//! that order:
//!
//! ```text
//! results/store/<16-hex-of-fnv1a64(key)>.json
//! {
//!   "schema": "cubied-store/v1",
//!   "key": "cubied-store/v1;golden=cubie-golden/v1;crate=0.1.0;wl=…",
//!   "artifact": { …canonical golden artifact… }
//! }
//! ```
//!
//! Because the golden schema and crate version are folded into the
//! hashed key *and* spelled out in the stored document, version skew is
//! caught twice: a bumped version hashes to a fresh path (old entries
//! simply stop being addressable), and a doctored or hand-migrated
//! entry whose stored key disagrees with the current canonical spelling
//! is **invalidated on load** — deleted and recomputed, never served.
//!
//! Addressing, crash-safe writes and `.tmp` sweeping are the shared
//! [`cubie_core::cas`] discipline; this module owns only the JSON
//! envelope. The artifact inside a hit is parsed back through the same
//! strict [`Artifact::from_json`] path the golden gates use, so a
//! truncated or bit-rotted entry degrades to a miss (plus deletion),
//! never to serving garbage.
//!
//! [`SweepConfig::cache_key`]: cubie_bench::SweepConfig::cache_key

use std::io::{self, Read};
use std::path::PathBuf;

use cubie_core::cas::{self, Dir, Key, OpenReport};
use cubie_golden::{obj, Artifact, Json};

/// Store document schema version. Bump when the envelope shape changes.
pub const STORE_SCHEMA: &str = "cubied-store/v1";

/// The full canonical key of a request: versions plus request identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey(Key);

impl StoreKey {
    /// Build the key for a request identity (a
    /// `SweepConfig::cache_key()` string), folding in the store schema,
    /// the golden artifact schema, and the crate version.
    pub fn for_request(request_key: &str) -> StoreKey {
        StoreKey(Key::new(&current_prefix(), request_key))
    }
}

impl std::ops::Deref for StoreKey {
    type Target = Key;

    fn deref(&self) -> &Key {
        &self.0
    }
}

/// The versioned prefix every currently-valid canonical key starts
/// with; entries whose stored key has any other prefix are stale.
fn current_prefix() -> String {
    format!(
        "{STORE_SCHEMA};golden={};crate={};",
        cubie_golden::SCHEMA,
        env!("CARGO_PKG_VERSION"),
    )
}

/// What [`Store::load`] found: a hit carries the stored artifact.
pub type Lookup = cas::Lookup<Artifact>;

/// The on-disk store handle.
#[derive(Debug)]
pub struct Store {
    dir: Dir,
}

/// Validate one stored document against the strict envelope contract.
/// `expect_key` additionally pins the stored canonical key (load path);
/// open-time revalidation only pins the version prefix and address.
fn validate_doc(
    mut file: std::fs::File,
    file_stem: &str,
    expect_key: Option<&Key>,
) -> Result<Artifact, String> {
    let mut text = String::new();
    file.read_to_string(&mut text)
        .map_err(|e| format!("unreadable entry: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("unparseable entry: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("entry has no `schema`")?;
    if schema != STORE_SCHEMA {
        return Err(format!(
            "store schema skew: entry is `{schema}`, current is `{STORE_SCHEMA}`"
        ));
    }
    let key = doc
        .get("key")
        .and_then(Json::as_str)
        .ok_or("entry has no `key`")?;
    Key::check_stored(key, &current_prefix(), file_stem)?;
    if let Some(expect) = expect_key {
        expect.check_same(key)?;
    }
    let artifact = doc.get("artifact").ok_or("entry has no `artifact`")?;
    Artifact::from_json(artifact).map_err(|e| format!("stored artifact invalid: {e}"))
}

impl Store {
    /// Open (creating if needed) the store directory and revalidate its
    /// contents: sweep out `.tmp` leftovers from interrupted writes and
    /// delete entries that are corrupt or recorded under a different
    /// schema/crate version — the restart-revalidation half of the
    /// crash-safety contract.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Store, OpenReport)> {
        let dir = Dir::new(dir, "json")?;
        let report = dir.revalidate(|file, stem| validate_doc(file, stem, None).map(|_| ()))?;
        Ok((Store { dir }, report))
    }

    /// The final on-disk path of a key.
    pub fn path_for(&self, key: &StoreKey) -> PathBuf {
        self.dir.path_for(key)
    }

    /// Look up a key. Corrupt, skewed, or mismatched entries are
    /// deleted and reported as [`cas::Lookup::Invalidated`].
    pub fn load(&self, key: &StoreKey) -> Lookup {
        self.dir
            .load(key, |file| validate_doc(file, &key.address(), Some(key)))
    }

    /// Persist an artifact under a key, atomically (see
    /// [`cas::Dir::save`]). Returns the final path.
    pub fn save(&self, key: &StoreKey, artifact: &Artifact) -> io::Result<PathBuf> {
        let doc = obj(vec![
            ("schema", STORE_SCHEMA.into()),
            ("key", key.canonical().into()),
            ("artifact", artifact.to_json()),
        ]);
        self.dir.save(key, doc.to_pretty_string().as_bytes())
    }

    /// Number of committed entries currently in the store.
    pub(crate) fn len(&self) -> usize {
        self.dir.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_golden::Column;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cubied_store_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn artifact() -> Artifact {
        let mut a = Artifact::new(
            "sweep",
            vec![Column::exact("who").key(), Column::exact("t")],
        );
        a.push(vec!["scan".into(), 1.25e-3.into()]);
        a
    }

    #[test]
    fn save_then_load_round_trips_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report, OpenReport::default());
        let key = StoreKey::for_request("wl=Scan;sparse=64");
        assert_eq!(
            key.canonical(),
            "cubied-store/v1;golden=cubie-golden/v1;crate=0.1.0;wl=Scan;sparse=64"
        );
        // Pinned: existing stores stay addressable.
        assert_eq!(key.address(), "a2aada65e52a3b82");
        assert!(matches!(store.load(&key), Lookup::Miss));
        let a = artifact();
        let path = store.save(&key, &a).unwrap();
        assert!(path.ends_with(format!("{}.json", key.address())));
        match store.load(&key) {
            Lookup::Hit(back) => {
                cubie_golden::verify_bit_identical(&a, &back).unwrap();
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skewed_entry_is_dropped_at_open_and_load() {
        let dir = tmp_dir("skew");
        let (store, _) = Store::open(&dir).unwrap();
        let key = StoreKey::for_request("wl=Scan;sparse=64");
        let path = store.path_for(&key);
        // Doctor the entry to claim an older golden schema, as a store
        // written by a previous release would.
        let save_doctored = || {
            store.save(&key, &artifact()).unwrap();
            let doctored = fs::read_to_string(&path)
                .unwrap()
                .replace("golden=cubie-golden/v1", "golden=cubie-golden/v0");
            fs::write(&path, doctored).unwrap();
        };
        save_doctored();
        match store.load(&key) {
            Lookup::Invalidated(reason) => assert!(reason.contains("version skew"), "{reason}"),
            other => panic!("expected invalidation, got {other:?}"),
        }
        assert!(!path.exists(), "invalidated entry must be deleted");
        save_doctored();
        let (_, report) = Store::open(&dir).unwrap();
        assert_eq!(report.removed_invalid, 1);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_degrades_to_invalidation_not_garbage() {
        let dir = tmp_dir("truncate");
        let (store, _) = Store::open(&dir).unwrap();
        let key = StoreKey::for_request("wl=Scan;sparse=64");
        store.save(&key, &artifact()).unwrap();
        let path = store.path_for(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(store.load(&key), Lookup::Invalidated(_)));
        assert!(matches!(store.load(&key), Lookup::Miss), "then a miss");
        let _ = fs::remove_dir_all(&dir);
    }

    /// An entry nested past the JSON parser's depth limit is corrupt:
    /// invalidated on load and dropped at open, never a stack overflow.
    #[test]
    fn too_deep_entry_is_invalidated_at_load_and_open() {
        let dir = tmp_dir("deep");
        let (store, _) = Store::open(&dir).unwrap();
        let key = StoreKey::for_request("wl=Scan;sparse=64");
        let path = store.path_for(&key);
        let deep = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
        fs::write(&path, &deep).unwrap();
        match store.load(&key) {
            Lookup::Invalidated(reason) => assert!(reason.contains("nesting"), "{reason}"),
            other => panic!("expected invalidation, got {other:?}"),
        }
        assert!(!path.exists(), "invalidated entry must be deleted");
        fs::write(&path, &deep).unwrap();
        let (_, report) = Store::open(&dir).unwrap();
        assert_eq!(report.removed_invalid, 1);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writers of one key must never share a temp file: every save of
    /// every round succeeds, the entry serves a hit, and nothing is left
    /// behind.
    #[test]
    fn concurrent_saves_of_one_key_all_succeed() {
        const WRITERS: usize = 4;
        let dir = tmp_dir("race");
        let (store, _) = Store::open(&dir).unwrap();
        let key = StoreKey::for_request("wl=Scan;sparse=64");
        let a = artifact();
        let round = std::sync::Barrier::new(WRITERS);
        // Failures are collected, not unwrapped: a panicking writer would
        // leave the others blocked on the barrier.
        let failures: Vec<String> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    s.spawn(|| {
                        (0..20)
                            .filter_map(|_| {
                                round.wait();
                                store.save(&key, &a).err().map(|e| e.to_string())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert!(failures.is_empty(), "failed saves: {failures:?}");
        match store.load(&key) {
            Lookup::Hit(back) => cubie_golden::verify_bit_identical(&a, &back).unwrap(),
            other => panic!("expected hit, got {other:?}"),
        }
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp leftovers: {leftovers:?}");
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
