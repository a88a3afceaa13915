//! The content-addressed snapshot store under `results/prep/`.
//!
//! One file per prepared case at `<dir>/<16-hex-of-fnv1a64(canonical
//! key)>.bin`; the canonical key folds in the store schema, the
//! generator version, and the on-disk layout version, so bumping any of
//! them retires every old entry (it simply stops being addressable)
//! without a migration. Addressing, crash-safe writes and `.tmp`
//! sweeping are the shared [`cubie_core::cas`] discipline, the same the
//! `cubied` result store uses; this module owns only the binary
//! envelope. Open structurally validates every entry (magic, length,
//! checksum, key-hashes-to-address); the load path additionally pins
//! the full canonical key. Anything invalid is deleted and reported,
//! never served.

use std::fs::File;
use std::io;
use std::path::PathBuf;

use cubie_core::cas::{self, Dir, Key, OpenReport};

use crate::format::{self, Decoded};

/// Snapshot store schema. Bump when the envelope/addressing changes.
pub const PREP_SCHEMA: &str = "cubie-prep/v1";

/// Version of the deterministic input generators. Bump whenever any
/// Table 3/4 generator or Figure 10 corpus generator changes its output
/// bits — old snapshots stop being addressable and regenerate on next
/// use.
pub const GENERATOR_VERSION: u32 = 1;

/// Version of the on-disk binary layout (`format` module). Bump when
/// the snapshot byte layout changes.
pub const LAYOUT_VERSION: u32 = 2;

/// The canonical key of one prepared case, and its address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepKey(Key);

/// The versioned prefix every currently-valid canonical key starts
/// with; entries recorded under any other prefix are stale.
pub fn current_prefix() -> String {
    format!("{PREP_SCHEMA};gen={GENERATOR_VERSION};layout={LAYOUT_VERSION};")
}

impl PrepKey {
    /// Key of the Table 3/4 case of `kind` called `name` at a scale
    /// divisor. A Table 4 matrix is one key for SpMV and SpGEMM alike:
    /// the input is identical, so one snapshot serves both.
    pub fn case(kind: &str, name: &str, scale: usize) -> PrepKey {
        PrepKey(Key::new(
            &current_prefix(),
            &format!("kind={kind};name={name};scale={scale}"),
        ))
    }

    /// Key of a Figure 10 corpus item of `kind` and `family`, built from
    /// its own `seed`.
    pub fn corpus(kind: &str, family: usize, seed: u64) -> PrepKey {
        PrepKey(Key::new(
            &current_prefix(),
            &format!("kind={kind};corpus-family={family};seed={seed:#018x}"),
        ))
    }
}

impl std::ops::Deref for PrepKey {
    type Target = Key;

    fn deref(&self) -> &Key {
        &self.0
    }
}

/// A successfully loaded snapshot.
pub struct Loaded {
    /// The decoded case, in owned `Vec`s.
    pub case: Decoded,
    /// Snapshot file size in bytes.
    pub bytes: u64,
}

/// What [`PrepStore::load`] found. Callers regenerate on anything but
/// a hit.
pub type Lookup = cas::Lookup<Loaded>;

/// The on-disk snapshot store handle.
#[derive(Debug)]
pub struct PrepStore {
    dir: Dir,
}

/// An entry's length in bytes, which the decoder checks the header
/// against.
fn entry_len(file: &File) -> Result<u64, String> {
    file.metadata()
        .map(|m| m.len())
        .map_err(|e| format!("unreadable entry: {e}"))
}

/// Open-time check: structure sound, key current and at its address.
/// Checksums the entry without building its case.
fn validate_entry(file: File, stem: &str) -> Result<(), String> {
    let len = entry_len(&file)?;
    format::validate(file, len, |stored| {
        Key::check_stored(stored, &current_prefix(), stem)
    })
}

impl PrepStore {
    /// Open (creating if needed) the store directory and revalidate its
    /// contents: sweep `.tmp` leftovers, delete corrupt or
    /// version-skewed snapshots. Reading every kept entry end to end
    /// (checksums) doubles as the daemon's prewarm — the surviving
    /// snapshots are in the page cache when `open` returns.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(PrepStore, OpenReport)> {
        let store = PrepStore::open_unchecked(dir)?;
        let report = store.dir.revalidate(validate_entry)?;
        Ok((store, report))
    }

    /// Open the directory **without** revalidating existing entries —
    /// the per-lookup validation in [`PrepStore::load`] still catches
    /// anything invalid at the address actually used. This is the
    /// cheap constructor the generation wrappers use on every call.
    pub fn open_unchecked(dir: impl Into<PathBuf>) -> io::Result<PrepStore> {
        Ok(PrepStore {
            dir: Dir::new(dir, "bin")?,
        })
    }

    /// Look up a key. Truncated, bit-rotted, skewed, or mismatched
    /// snapshots are deleted and reported as
    /// [`cas::Lookup::Invalidated`] — callers treat that as a miss and
    /// regenerate.
    pub fn load(&self, key: &PrepKey) -> Lookup {
        self.dir.load(key, |file| {
            let bytes = entry_len(&file)?;
            let case = format::decode(file, bytes, |stored| key.check_same(stored))?;
            Ok(Loaded { case, bytes })
        })
    }

    /// Serialize and persist a matrix snapshot (atomically, see
    /// [`cas::Dir::save`]).
    pub fn save_matrix(&self, key: &PrepKey, m: &cubie_sparse::Csr) -> io::Result<PathBuf> {
        self.dir
            .save(key, &format::encode_matrix(key.canonical(), m))
    }

    /// Serialize and persist a graph snapshot.
    pub fn save_graph(
        &self,
        key: &PrepKey,
        g: &cubie_graph::csr_graph::CsrGraph,
    ) -> io::Result<PathBuf> {
        self.dir
            .save(key, &format::encode_graph(key.canonical(), g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cubie_prep_store_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn matrix() -> cubie_sparse::Csr {
        cubie_sparse::generators::random_sparse(50, 50, 300, 11)
    }

    #[test]
    fn key_addresses_are_stable_and_distinct() {
        let a = PrepKey::case("matrix", "spmsrts", 64);
        let b = PrepKey::case("matrix", "spmsrts", 32);
        let c = PrepKey::case("graph", "spmsrts", 64);
        assert_eq!(a, PrepKey::case("matrix", "spmsrts", 64));
        assert_ne!(a.address(), b.address());
        assert_ne!(a.address(), c.address());
        assert_eq!(a.address().len(), 16);
        assert!(a.canonical().starts_with(&current_prefix()));
        // Pinned: an address moves only when a version in the prefix is
        // bumped on purpose.
        assert_eq!(a.address(), "00945d8f9fe52d3a");
        let corpus = PrepKey::corpus("matrix", 3, 0xF16B);
        assert_ne!(corpus, PrepKey::corpus("graph", 3, 0xF16B));
        assert_ne!(corpus, PrepKey::corpus("matrix", 2, 0xF16B));
        assert_eq!(corpus.address(), "1a41dc9b7322e545");
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let (store, report) = PrepStore::open(&dir).unwrap();
        assert_eq!(report, OpenReport::default());
        let key = PrepKey::case("matrix", "test", 4);
        assert!(matches!(store.load(&key), Lookup::Miss));
        let m = matrix();
        store.save_matrix(&key, &m).unwrap();
        match store.load(&key) {
            Lookup::Hit(loaded) => {
                let Decoded::Matrix(back) = loaded.case else {
                    panic!("wrong kind");
                };
                assert_eq!(back, m);
            }
            _ => panic!("expected hit"),
        }
        assert_eq!(store.dir.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_invalidated_then_missing() {
        let dir = tmp_dir("corrupt");
        let (store, _) = PrepStore::open(&dir).unwrap();
        let key = PrepKey::case("matrix", "test", 4);
        store.save_matrix(&key, &matrix()).unwrap();
        let path = store.dir.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(&key), Lookup::Invalidated(_)));
        assert!(!path.exists(), "invalidated snapshot must be deleted");
        assert!(matches!(store.load(&key), Lookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skewed_entry_is_dropped_at_open_and_load() {
        let dir = tmp_dir("skew");
        let (store, _) = PrepStore::open(&dir).unwrap();
        let key = PrepKey::case("matrix", "test", 4);
        store.save_matrix(&key, &matrix()).unwrap();
        // Doctor the snapshot as a previous generator version would have
        // written it: rewrite the embedded key (same length, so the
        // structure stays sound) and recompute nothing else — the load
        // path must reject it on the key, not the checksum.
        let path = store.dir.path_for(&key);
        let text = format!("gen={GENERATOR_VERSION}");
        let mut bytes = fs::read(&path).unwrap();
        let pos = bytes
            .windows(text.len())
            .position(|w| w == text.as_bytes())
            .unwrap();
        bytes[pos + 4] = b'0'; // gen=1 → gen=0
        fs::write(&path, &bytes).unwrap();
        match store.load(&key) {
            Lookup::Invalidated(reason) => assert!(reason.contains("key mismatch"), "{reason}"),
            _ => panic!("expected invalidation"),
        }
        assert!(!path.exists());
        // Same doctored entry dropped by open-time revalidation too.
        store.save_matrix(&key, &matrix()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[pos + 4] = b'0';
        fs::write(&path, &bytes).unwrap();
        let (_, report) = PrepStore::open(&dir).unwrap();
        assert_eq!(report.removed_invalid, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
