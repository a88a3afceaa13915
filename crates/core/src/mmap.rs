//! Read-only file mappings for the prepared-input snapshot store.
//!
//! [`Mapping`] wraps a whole-file `mmap(2)` (via the C library every
//! Rust binary on unix already links — no new dependency) so multi-
//! hundred-MB prepared cases can be served as borrowed slices without
//! copying them onto the heap: pages fault in lazily from the kernel
//! page cache, and a warm restart touches no bytes it does not read.
//!
//! Portability: the mapped fast path is compiled on 64-bit unix targets;
//! everywhere else (and whenever the `mmap` call itself fails — some
//! filesystems refuse it) [`Mapping::of_file`] degrades to reading the
//! file into an owned buffer. Consumers only ever see `&[u8]`, so the
//! two representations are interchangeable — which is exactly the
//! contract the zero-copy [`crate::slab::Slab`] layer builds on.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

/// A read-only view of one file's bytes: either a live `mmap` or an
/// owned in-memory copy (the portability/error fallback).
#[derive(Debug)]
pub struct Mapping {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    /// A live `PROT_READ` mapping, unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: *mut u8, len: usize },
    /// Owned fallback: the file was read into memory.
    Owned(Vec<u8>),
}

// SAFETY: the mapped variant is a read-only, private mapping whose
// lifetime is owned by this struct; shared references to immutable bytes
// are safe to send and share across threads (the owned variant trivially
// so).
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mapping {
    /// Map `file` read-only in its entirety. Falls back to an owned
    /// read when mapping is unavailable (non-unix target, zero-length
    /// file, or an `mmap` refusal from the filesystem).
    pub fn of_file(file: &mut File) -> io::Result<Mapping> {
        let len = file.metadata()?.len();
        if usize::try_from(len).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to map on this target",
            ));
        }
        let len = len as usize;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 {
            use std::os::fd::AsRawFd;
            // SAFETY: a whole-file PROT_READ/MAP_PRIVATE mapping of a
            // file descriptor we own; failure is reported as MAP_FAILED
            // (-1), checked below.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                return Ok(Mapping {
                    repr: Repr::Mapped {
                        ptr: ptr.cast(),
                        len,
                    },
                });
            }
            // fall through to the owned read
        }
        let mut buf = Vec::with_capacity(len);
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut buf)?;
        Ok(Mapping {
            repr: Repr::Owned(buf),
        })
    }

    /// Wrap already-materialized bytes as an owned (non-mmap) view —
    /// lets decoders that normally read from a file mapping run over
    /// in-memory buffers (tests, in-process snapshots).
    pub fn from_bytes(bytes: Vec<u8>) -> Mapping {
        Mapping {
            repr: Repr::Owned(bytes),
        }
    }

    /// The mapped (or copied) bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `munmap` in `Drop`.
            Repr::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Repr::Owned(v) => v,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.repr {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Repr::Mapped { len, .. } => *len,
            Repr::Owned(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are served by a live `mmap` (false: owned copy).
    pub fn is_mmap(&self) -> bool {
        match &self.repr {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Repr::Mapped { .. } => true,
            Repr::Owned(_) => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match &self.repr {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Repr::Mapped { ptr, len } => {
                // SAFETY: exactly the pointer/length pair returned by
                // `mmap`, unmapped exactly once.
                unsafe {
                    sys::munmap(ptr.cast::<std::ffi::c_void>(), *len);
                }
            }
            Repr::Owned(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(tag: &str, contents: &[u8]) -> (std::path::PathBuf, File) {
        let path =
            std::env::temp_dir().join(format!("cubie_mmap_test_{}_{tag}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        f.sync_all().unwrap();
        let f = File::open(&path).unwrap();
        (path, f)
    }

    #[test]
    fn maps_file_bytes() {
        let (path, mut f) = tmp_file("basic", b"hello mapping");
        let m = Mapping::of_file(&mut f).unwrap();
        assert_eq!(m.bytes(), b"hello mapping");
        assert_eq!(m.len(), 13);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(m.is_mmap(), "unix should serve a real mapping");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_file_degrades_to_owned() {
        let (path, mut f) = tmp_file("empty", b"");
        let m = Mapping::of_file(&mut f).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_mmap());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mapping_is_send_and_shared_across_threads() {
        let (path, mut f) = tmp_file("threads", &vec![7u8; 4096]);
        let m = std::sync::Arc::new(Mapping::of_file(&mut f).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || m.bytes().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7 * 4096);
        }
        let _ = std::fs::remove_file(path);
    }
}
