//! The content-addressed store primitive under both on-disk caches: the
//! `cubied` result store (`results/store/`, JSON documents) and the
//! prepared-input snapshot store (`results/prep/`, binary snapshots).
//!
//! * **Addressing** — an entry lives at `<dir>/<16-hex>.<ext>`, where
//!   the hex is the FNV-1a 64-bit hash of its canonical [`Key`]: a
//!   versioned prefix (store schema, format and generator versions)
//!   followed by the entry's identity. Bumping any version retires
//!   every old entry (it simply stops being addressable) without a
//!   migration; each entry also embeds its key, so a doctored or
//!   hand-migrated entry is caught by [`Key::check_stored`].
//! * **Crash safety** — [`Dir::save`] writes a process-unique
//!   `<addr>.<pid>.<seq>.tmp` sibling, fsyncs it, renames it over the
//!   final path and fsyncs the directory. Writers of the same key, in
//!   one process or many, never share a temp file; the last rename wins
//!   with identical bytes (entries are deterministic functions of their
//!   key). A kill mid-write leaves a `.tmp` that [`Dir::revalidate`]
//!   sweeps out once no live process has the pid in its name; a temp
//!   file whose writer is still running belongs to a save in progress
//!   and is left alone.
//! * **Validation** — the caller owns the entry format, so it supplies
//!   the validator: [`Dir::load`] deletes an entry its reader rejects
//!   and reports [`Lookup::Invalidated`]; [`Dir::revalidate`] runs the
//!   caller's check over every entry, deleting and logging the invalid
//!   ones. Nothing invalid is ever served.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms
/// and processes (unlike `DefaultHasher`, whose seeds are randomized),
/// which is what a content-*addressed* store needs from its address.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical key of one entry — versioned prefix plus identity —
/// and its hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    canonical: String,
    hash: u64,
}

impl Key {
    /// The key `prefix` + `identity`, where `prefix` is the versioned
    /// spelling every currently valid key of this store starts with.
    pub fn new(prefix: &str, identity: &str) -> Key {
        let canonical = format!("{prefix}{identity}");
        let hash = fnv1a64(canonical.as_bytes());
        Key { canonical, hash }
    }

    /// The canonical key string (embedded verbatim in the entry).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 16-hex-digit address (file stem under the store directory).
    pub fn address(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Check a key read back on the load path: it must be this key.
    pub fn check_same(&self, stored: &str) -> Result<(), String> {
        if stored == self.canonical {
            return Ok(());
        }
        Err(format!(
            "key mismatch at this address: stored `{stored}`, requested `{}`",
            self.canonical
        ))
    }

    /// Check a key read back from an entry file named `<stem>.<ext>`:
    /// it must carry the current versioned `prefix` and hash to `stem`.
    pub fn check_stored(stored: &str, prefix: &str, stem: &str) -> Result<(), String> {
        if !stored.starts_with(prefix) {
            return Err(format!(
                "version skew: entry key `{stored}` does not match `{prefix}…`"
            ));
        }
        if format!("{:016x}", fnv1a64(stored.as_bytes())) != stem {
            return Err(format!("entry key `{stored}` does not hash to its address"));
        }
        Ok(())
    }
}

/// What [`Dir::load`] found.
#[derive(Debug)]
pub enum Lookup<T> {
    /// A valid entry, as the caller's reader decoded it.
    Hit(T),
    /// No entry at this address.
    Miss,
    /// An entry existed but failed validation (corruption, truncation,
    /// version skew, key mismatch); it has been deleted and the reason
    /// is carried for counters/logs. Callers treat it as a miss.
    Invalidated(String),
}

/// What [`Dir::revalidate`] did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Entries that passed validation and were kept.
    pub kept: usize,
    /// Total bytes of the kept entries (read during validation, so a
    /// revalidation also pulls the store into the page cache).
    pub kept_bytes: u64,
    /// `.tmp` leftovers of interrupted writes (no live writer), swept
    /// out.
    pub removed_tmp: usize,
    /// Entries deleted for corruption or version skew.
    pub removed_invalid: usize,
}

/// A store directory whose entries are `<address>.<ext>` files.
#[derive(Debug)]
pub struct Dir {
    dir: PathBuf,
    ext: &'static str,
}

/// Monotonic discriminator so concurrent saves from one process never
/// share a temp path (the pid separates processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Dir {
    /// Open (creating if needed) the directory holding `*.<ext>`
    /// entries, without looking at what is already there.
    pub fn new(dir: impl Into<PathBuf>, ext: &'static str) -> io::Result<Dir> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Dir { dir, ext })
    }

    /// The final on-disk path of a key.
    pub fn path_for(&self, key: &Key) -> PathBuf {
        self.dir.join(format!("{}.{}", key.address(), self.ext))
    }

    /// Persist `bytes` under a key, atomically: process-unique `.tmp`
    /// sibling → fsync → rename over the final path → directory fsync.
    /// Returns the final path.
    pub fn save(&self, key: &Key, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            "{}.{}.{}.tmp",
            key.address(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // Persist the rename itself: fsync the directory so a crash
        // immediately after `save` cannot resurrect the old state.
        File::open(&self.dir)?.sync_all()?;
        Ok(path)
    }

    /// Look up a key, decoding the entry with `read`. An entry `read`
    /// rejects is deleted and reported as [`Lookup::Invalidated`]; one
    /// that exists but cannot be opened is reported without deletion.
    pub fn load<T>(&self, key: &Key, read: impl FnOnce(File) -> Result<T, String>) -> Lookup<T> {
        let path = self.path_for(key);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return Lookup::Invalidated(format!("unreadable entry: {e}")),
        };
        match read(file) {
            Ok(value) => Lookup::Hit(value),
            Err(reason) => {
                let _ = fs::remove_file(&path);
                Lookup::Invalidated(reason)
            }
        }
    }

    /// Revalidate the directory: sweep out `*.tmp` leftovers of
    /// interrupted writes, run `check(file, stem)` over every
    /// `<stem>.<ext>` entry, and delete (and log) the entries it
    /// rejects. Temp files whose writer pid is still alive (a save in
    /// progress) and other files are left alone. A file that another
    /// process renames or deletes after the directory listing is
    /// skipped, not an error.
    pub fn revalidate(
        &self,
        mut check: impl FnMut(File, &str) -> Result<(), String>,
    ) -> io::Result<OpenReport> {
        let mut report = OpenReport::default();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                if !writer_alive(name) && remove_if_present(&path)? {
                    report.removed_tmp += 1;
                }
                continue;
            }
            let Some(stem) = name
                .strip_suffix(self.ext)
                .and_then(|s| s.strip_suffix('.'))
            else {
                continue; // not ours; leave it alone
            };
            let verdict = File::open(&path)
                .map_err(|e| format!("unreadable entry: {e}"))
                .and_then(|file| {
                    let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
                    check(file, stem).map(|()| bytes)
                });
            match verdict {
                Ok(bytes) => {
                    report.kept += 1;
                    report.kept_bytes += bytes;
                }
                Err(reason) => {
                    if remove_if_present(&path)? {
                        report.removed_invalid += 1;
                        cubie_obs::log(format!(
                            "store {}: dropped {name}: {reason}",
                            self.dir.display()
                        ));
                    }
                }
            }
        }
        Ok(report)
    }

    /// Number of committed entries currently in the directory.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == self.ext))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the directory holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Whether the writer of a `<addr>.<pid>.<seq>.tmp` file may still be
/// mid-save: its pid names a live process (possibly this one, from
/// another thread). Pid 0, which no writer has, and names not in that
/// shape count as dead. Liveness is read from `/proc`; where there is
/// none every writer counts as dead, the sweep-everything behaviour. A
/// recycled pid keeps a leftover until that process exits too.
fn writer_alive(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    match parts[..] {
        [_, pid, _, "tmp"] => pid
            .parse::<u32>()
            .is_ok_and(|pid| pid != 0 && pid_alive(pid)),
        _ => false,
    }
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    false
}

/// Delete `path`, returning whether this call removed it: a file that
/// is already gone (renamed or deleted by another process since it was
/// listed) is not an error.
fn remove_if_present(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    const PREFIX: &str = "cas-test/v1;";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cubie_cas_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The test format: the entry is its own canonical key.
    fn read_key(mut file: File) -> Result<String, String> {
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| format!("unreadable entry: {e}"))?;
        Ok(text)
    }

    fn check(file: File, stem: &str) -> Result<(), String> {
        Key::check_stored(&read_key(file)?, PREFIX, stem)
    }

    fn tmp_count(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .count()
    }

    #[test]
    fn fnv1a64_matches_published_vectors() {
        // Reference values of the FNV-1a 64-bit test suite.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_is_prefix_plus_identity_addressed_by_its_hash() {
        let key = Key::new(PREFIX, "name=x");
        assert_eq!(key.canonical(), "cas-test/v1;name=x");
        assert_eq!(
            key.address(),
            format!("{:016x}", fnv1a64(b"cas-test/v1;name=x"))
        );
        assert_eq!(
            Key::check_stored(key.canonical(), PREFIX, &key.address()),
            Ok(())
        );
        let skew = Key::check_stored(key.canonical(), "cas-test/v2;", &key.address());
        assert!(skew.unwrap_err().contains("version skew"));
        let moved = Key::check_stored(key.canonical(), PREFIX, "0000000000000000");
        assert!(moved.unwrap_err().contains("does not hash to its address"));
        assert_eq!(key.check_same(key.canonical()), Ok(()));
        let other = key.check_same("cas-test/v1;name=y");
        assert!(other.unwrap_err().contains("key mismatch"));
    }

    #[test]
    fn save_then_load_round_trips_and_missing_is_a_miss() {
        let dir = tmp_dir("roundtrip");
        let store = Dir::new(&dir, "ent").unwrap();
        let key = Key::new(PREFIX, "name=x");
        assert!(matches!(store.load(&key, read_key), Lookup::Miss));
        assert!(store.is_empty());
        let path = store.save(&key, key.canonical().as_bytes()).unwrap();
        assert_eq!(path, dir.join(format!("{}.ent", key.address())));
        match store.load(&key, read_key) {
            Lookup::Hit(text) => assert_eq!(text, key.canonical()),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(store.len(), 1);
        assert_eq!(tmp_count(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_entry_is_deleted_then_missing() {
        let dir = tmp_dir("reject");
        let store = Dir::new(&dir, "ent").unwrap();
        let key = Key::new(PREFIX, "name=x");
        store.save(&key, b"corrupt").unwrap();
        let reject = |_: File| -> Result<(), String> { Err("corrupt entry".into()) };
        match store.load(&key, reject) {
            Lookup::Invalidated(reason) => assert_eq!(reason, "corrupt entry"),
            other => panic!("expected invalidation, got {other:?}"),
        }
        assert!(!store.path_for(&key).exists(), "rejected entry is deleted");
        assert!(matches!(store.load(&key, read_key), Lookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn revalidate_sweeps_tmp_and_invalid_entries_and_leaves_others() {
        let dir = tmp_dir("sweep");
        let store = Dir::new(&dir, "ent").unwrap();
        let key = Key::new(PREFIX, "name=x");
        store.save(&key, key.canonical().as_bytes()).unwrap();
        fs::write(dir.join("0123456789abcdef.0.0.tmp"), "partial").unwrap();
        fs::write(dir.join("00000000deadbeef.ent"), "not a key").unwrap();
        fs::write(dir.join("README"), "unrelated file, left alone").unwrap();
        let report = store.revalidate(check).unwrap();
        assert_eq!(
            report,
            OpenReport {
                kept: 1,
                kept_bytes: key.canonical().len() as u64,
                removed_tmp: 1,
                removed_invalid: 1,
            }
        );
        assert!(store.path_for(&key).exists());
        assert!(dir.join("README").exists());
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn revalidate_keeps_tmp_of_a_live_writer() {
        let dir = tmp_dir("live");
        let store = Dir::new(&dir, "ent").unwrap();
        let live = dir.join(format!("0123456789abcdef.{}.7.tmp", std::process::id()));
        fs::write(&live, "mid-save").unwrap();
        let report = store.revalidate(check).unwrap();
        assert_eq!(report.removed_tmp, 0);
        assert!(live.exists(), "a live writer's temp file is left alone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn revalidate_sweeps_tmp_of_a_reaped_writer() {
        let dir = tmp_dir("reaped");
        let store = Dir::new(&dir, "ent").unwrap();
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let pid = child.id();
        child.wait().unwrap();
        let dead = dir.join(format!("0123456789abcdef.{pid}.0.tmp"));
        fs::write(&dead, "partial").unwrap();
        let report = store.revalidate(check).unwrap();
        assert_eq!(report.removed_tmp, 1);
        assert!(!dead.exists(), "a reaped writer's temp file is swept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_deleted_after_listing_does_not_fail_revalidate() {
        let dir = tmp_dir("vanish");
        let store = Dir::new(&dir, "ent").unwrap();
        let key = Key::new(PREFIX, "name=x");
        store.save(&key, key.canonical().as_bytes()).unwrap();
        // Another process deletes the entry between `read_dir` and the
        // removal of a rejected entry.
        let vanish = |_: File, stem: &str| -> Result<(), String> {
            fs::remove_file(dir.join(format!("{stem}.ent"))).unwrap();
            Err("rejected".into())
        };
        let report = store.revalidate(vanish).unwrap();
        assert_eq!(report, OpenReport::default());
        assert!(!store.path_for(&key).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_to_one_key_both_succeed() {
        let dir = tmp_dir("race");
        let store = Dir::new(&dir, "ent").unwrap();
        let key = Key::new(PREFIX, "name=race");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    store.save(&key, key.canonical().as_bytes()).unwrap();
                });
            }
        });
        match store.load(&key, read_key) {
            Lookup::Hit(text) => assert_eq!(text, key.canonical()),
            other => panic!("expected hit after racing saves, got {other:?}"),
        }
        assert_eq!(tmp_count(&dir), 0, "no tmp leftovers once writers finish");
        let _ = fs::remove_dir_all(&dir);
    }
}
