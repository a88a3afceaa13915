//! The length-prefixed little-endian binary snapshot layout.
//!
//! One snapshot file holds one prepared case — a Table 4 CSR matrix or
//! a Table 3 graph:
//!
//! ```text
//! 0x00  magic        "CUBPREP2"                       [u8; 8]
//! 0x08  kind         1 = CSR matrix, 2 = graph        u32 LE
//! 0x0c  key_len      length of the embedded key       u32 LE
//! 0x10  meta         matrix: rows, cols, nnz, 0       [u64; 4] LE
//!                    graph:  n, arcs, 0, 0
//! 0x30  payload_len  bytes of the payload region      u64 LE
//! 0x38  checksum     word-wise FNV-1a 64, see below   u64 LE
//! 0x40  key          canonical store key, zero-padded to a multiple of 8
//!       payload      matrix: row_ptr u64·(rows+1) | vals f64·nnz |
//!                            col_idx u32·nnz | zero pad to 8
//!                    graph:  offsets u64·(n+1) | adj u32·arcs | pad to 8
//! ```
//!
//! The checksum is FNV-1a over 64-bit little-endian words: first the
//! header's first 0x38 bytes (everything but the checksum itself), then
//! the payload. Each step `h = (h ^ w)·p` is a bijection of `h` and of
//! `w`, so any change confined to one word is always detected. (The
//! embedded key is not hashed; every reader pins it separately.)
//!
//! [`decode`] streams a snapshot from any reader: the header and key
//! first, then each payload section through one fixed buffer that is
//! hashed and converted straight into the section's `Vec`. The file
//! length is checked against the header before anything is allocated,
//! so a corrupt count cannot ask for more memory than the file holds.
//! A truncated or bit-rotted snapshot is reported as a decode error
//! (the store deletes it and regenerates), never served.

use std::io::Read;

use cubie_graph::csr_graph::CsrGraph;
use cubie_sparse::Csr;

/// Magic bytes every snapshot starts with ("CUBPREP" + layout digit).
pub const MAGIC: [u8; 8] = *b"CUBPREP2";

/// Header size in bytes (fixed fields before the embedded key).
const HEADER: usize = 0x40;

/// Offset of the checksum field: the hashed part of the header ends here.
const CHECKSUM_AT: usize = 0x38;

/// Bytes read per payload chunk while decoding (a multiple of 8).
const CHUNK: usize = 1 << 16;

/// `kind` field value for a CSR matrix snapshot.
pub const KIND_MATRIX: u32 = 1;
/// `kind` field value for a graph snapshot.
pub const KIND_GRAPH: u32 = 2;

/// A decoded snapshot: the prepared case it holds.
pub enum Decoded {
    /// A Table 4 CSR matrix.
    Matrix(Csr),
    /// A Table 3 graph.
    Graph(CsrGraph),
}

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// FNV-1a 64 offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` (a multiple of 8 long) into `h`, one little-endian
/// 64-bit word per FNV-1a step.
fn fnv_words(mut h: u64, bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len().is_multiple_of(8));
    for w in bytes.chunks_exact(8) {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u64s(out: &mut Vec<u8>, vals: impl Iterator<Item = u64>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn encode(kind: u32, key: &str, meta: [u64; 4], payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len().is_multiple_of(8));
    let key_bytes = key.as_bytes();
    let payload_off = HEADER + pad8(key_bytes.len());
    let mut out = Vec::with_capacity(payload_off + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    put_u64s(&mut out, meta.into_iter());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = fnv_words(fnv_words(FNV_BASIS, &out), &payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(key_bytes);
    out.resize(payload_off, 0);
    out.extend_from_slice(&payload);
    out
}

/// Serialize a CSR matrix snapshot under its canonical key.
pub fn encode_matrix(key: &str, m: &Csr) -> Vec<u8> {
    let mut payload = Vec::with_capacity(pad8((m.rows + 1) * 8 + m.nnz() * 12));
    put_u64s(&mut payload, m.row_ptr.iter().map(|&p| p as u64));
    for &v in &m.vals {
        payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &c in &m.col_idx {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    payload.resize(pad8(payload.len()), 0);
    encode(
        KIND_MATRIX,
        key,
        [m.rows as u64, m.cols as u64, m.nnz() as u64, 0],
        payload,
    )
}

/// Serialize a graph snapshot under its canonical key.
pub fn encode_graph(key: &str, g: &CsrGraph) -> Vec<u8> {
    let mut payload = Vec::with_capacity(pad8((g.n + 1) * 8 + g.num_arcs() * 4));
    put_u64s(&mut payload, g.offsets.iter().map(|&p| p as u64));
    for &v in &g.adj {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.resize(pad8(payload.len()), 0);
    encode(
        KIND_GRAPH,
        key,
        [g.n as u64, g.num_arcs() as u64, 0, 0],
        payload,
    )
}

fn get_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn get_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// The payload half of a decode: reads sections in order through one
/// chunk buffer, folding every chunk into the running checksum.
struct Payload<R> {
    src: R,
    buf: Vec<u8>,
    hash: u64,
    /// The checksum stored in the header.
    stored: u64,
}

impl<R: Read> Payload<R> {
    /// Read the next `left` bytes (a multiple of 8) chunk by chunk,
    /// folding each chunk into the checksum and handing it to `take`.
    fn stream(
        &mut self,
        mut left: usize,
        what: &str,
        mut take: impl FnMut(&[u8]),
    ) -> Result<(), String> {
        while left > 0 {
            let chunk = &mut self.buf[..left.min(CHUNK)];
            self.src
                .read_exact(chunk)
                .map_err(|e| format!("{what}: read failed: {e}"))?;
            self.hash = fnv_words(self.hash, chunk);
            take(chunk);
            left -= chunk.len();
        }
        Ok(())
    }

    /// Read `n` elements of `W` bytes each (the section plus its zero
    /// pad to 8), converting each with `conv`.
    fn section<T, const W: usize>(
        &mut self,
        n: usize,
        what: &str,
        mut conv: impl FnMut([u8; W]) -> T,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::with_capacity(n);
        self.stream(pad8(n * W), what, |chunk| {
            let want = n - out.len();
            out.extend(
                chunk
                    .chunks_exact(W)
                    .take(want)
                    .map(|c| conv(c.try_into().unwrap())),
            );
        })?;
        Ok(out)
    }

    /// A u64-on-disk section as `usize`s.
    fn usizes(&mut self, n: usize, what: &str) -> Result<Vec<usize>, String> {
        let mut too_big = false;
        let v = self.section(n, what, |b| {
            let x = u64::from_le_bytes(b);
            too_big |= usize::try_from(x).is_err();
            x as usize
        })?;
        if too_big {
            return Err(format!("{what}: value exceeds usize"));
        }
        Ok(v)
    }

    /// Compare the running checksum, complete once every section is
    /// read, with the stored one.
    fn verify(&self) -> Result<(), String> {
        if self.hash != self.stored {
            return Err(format!(
                "checksum mismatch: stored {:016x}, computed {:016x}",
                self.stored, self.hash
            ));
        }
        Ok(())
    }
}

/// The validated header of a snapshot: what its payload holds.
enum Dims {
    Matrix {
        rows: usize,
        cols: usize,
        nnz: usize,
    },
    Graph {
        n: usize,
        arcs: usize,
    },
}

/// Read and check everything before the payload: header, length, key
/// and the payload size the dimensions imply. Returns the dimensions,
/// the payload size and the reader positioned at the payload.
fn open<R: Read>(
    mut src: R,
    len: u64,
    check_key: impl FnOnce(&str) -> Result<(), String>,
) -> Result<(Dims, usize, Payload<R>), String> {
    if len < HEADER as u64 {
        return Err(format!("truncated header: {len} bytes"));
    }
    let mut header = [0u8; HEADER];
    src.read_exact(&mut header)
        .map_err(|e| format!("header: read failed: {e}"))?;
    if header[..8] != MAGIC {
        return Err("bad magic: not a cubie-prep snapshot".into());
    }
    let kind = get_u32(&header, 0x08);
    let key_len = get_u32(&header, 0x0c) as usize;
    let meta = [0x10, 0x18, 0x20, 0x28].map(|off| get_u64(&header, off));
    let payload_len = get_u64(&header, 0x30);
    let key_padded = pad8(key_len);
    let expect_total = (HEADER as u64 + key_padded as u64)
        .checked_add(payload_len)
        .ok_or("payload length overflows")?;
    if len != expect_total {
        return Err(format!(
            "length mismatch: file is {len} bytes, header implies {expect_total}"
        ));
    }
    let mut key = vec![0u8; key_padded];
    src.read_exact(&mut key)
        .map_err(|e| format!("key: read failed: {e}"))?;
    key.truncate(key_len);
    let key = String::from_utf8(key).map_err(|_| "embedded key is not UTF-8".to_string())?;
    check_key(&key)?;

    let elems = |count: u64, what: &str| -> Result<usize, String> {
        usize::try_from(count).map_err(|_| format!("{what} exceeds usize"))
    };
    // Payload bytes of `wide` 8-byte elements then `narrow` 4-byte ones
    // padded to 8, or `None` when a corrupt count overflows.
    let implied = |wide: usize, narrow: usize| -> Option<u64> {
        let narrow = narrow.checked_mul(4)?.checked_next_multiple_of(8)?;
        Some(wide.checked_mul(8)?.checked_add(narrow)? as u64)
    };
    let (dims, need) = match kind {
        KIND_MATRIX => {
            let (rows, cols, nnz) = (
                elems(meta[0], "rows")?,
                elems(meta[1], "cols")?,
                elems(meta[2], "nnz")?,
            );
            let need = rows
                .checked_add(1)
                .and_then(|r| implied(r.checked_add(nnz)?, nnz));
            (Dims::Matrix { rows, cols, nnz }, need)
        }
        KIND_GRAPH => {
            let (n, arcs) = (elems(meta[0], "vertices")?, elems(meta[1], "arcs")?);
            let need = n.checked_add(1).and_then(|n1| implied(n1, arcs));
            (Dims::Graph { n, arcs }, need)
        }
        other => return Err(format!("unknown snapshot kind {other}")),
    };
    if need != Some(payload_len) {
        return Err(format!(
            "payload is {payload_len} bytes, not what the header's dimensions imply"
        ));
    }
    let body = Payload {
        src,
        buf: vec![0u8; CHUNK],
        hash: fnv_words(FNV_BASIS, &header[..CHECKSUM_AT]),
        stored: get_u64(&header, CHECKSUM_AT),
    };
    Ok((dims, payload_len as usize, body))
}

/// Validate and decode a snapshot of `len` bytes read from `src`.
/// `check_key` vets the embedded canonical key before the payload is
/// read (the load path pins it exactly). Every failure is a
/// description — the caller deletes the file and regenerates; nothing
/// here panics on corrupt input.
pub fn decode(
    src: impl Read,
    len: u64,
    check_key: impl FnOnce(&str) -> Result<(), String>,
) -> Result<Decoded, String> {
    let (dims, _, mut body) = open(src, len, check_key)?;
    match dims {
        Dims::Matrix { rows, cols, nnz } => {
            let row_ptr = body.usizes(rows + 1, "row_ptr")?;
            let vals = body.section(nnz, "vals", |b| f64::from_bits(u64::from_le_bytes(b)))?;
            let col_idx = body.section(nnz, "col_idx", u32::from_le_bytes)?;
            body.verify()?;
            if row_ptr.last() != Some(&nnz) {
                return Err("row_ptr does not end at nnz".into());
            }
            Ok(Decoded::Matrix(Csr::from_parts(
                rows, cols, row_ptr, col_idx, vals,
            )))
        }
        Dims::Graph { n, arcs } => {
            let offsets = body.usizes(n + 1, "offsets")?;
            let adj = body.section(arcs, "adj", u32::from_le_bytes)?;
            body.verify()?;
            if offsets.last() != Some(&arcs) {
                return Err("offsets do not end at the arc count".into());
            }
            Ok(Decoded::Graph(CsrGraph::from_parts(n, offsets, adj)))
        }
    }
}

/// [`decode`]'s header, length, key and checksum checks, without
/// building the case: the payload is only hashed, through the one chunk
/// buffer. Open-time revalidation uses this, so checking a store
/// allocates nothing per entry beyond that buffer.
pub fn validate(
    src: impl Read,
    len: u64,
    check_key: impl FnOnce(&str) -> Result<(), String>,
) -> Result<(), String> {
    let (_, payload_len, mut body) = open(src, len, check_key)?;
    body.stream(payload_len, "payload", |_| {})?;
    body.verify()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Csr {
        cubie_sparse::generators::random_sparse(40, 30, 200, 7)
    }

    fn sample_graph() -> CsrGraph {
        cubie_graph::generators::grid_graph(7, 9)
    }

    fn any_key(_: &str) -> Result<(), String> {
        Ok(())
    }

    fn decode_bytes(bytes: &[u8]) -> Result<Decoded, String> {
        decode(bytes, bytes.len() as u64, any_key)
    }

    fn roundtrip(bytes: Vec<u8>) -> Decoded {
        decode_bytes(&bytes).unwrap()
    }

    #[test]
    fn matrix_roundtrips_bit_identically() {
        let m = sample_matrix();
        let Decoded::Matrix(back) = roundtrip(encode_matrix("k", &m)) else {
            panic!("wrong kind");
        };
        assert_eq!(back, m);
        for (a, b) in back.vals.iter().zip(m.vals.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn graph_roundtrips_bit_identically() {
        let g = sample_graph();
        let Decoded::Graph(back) = roundtrip(encode_graph("gk", &g)) else {
            panic!("wrong kind");
        };
        assert_eq!(back, g);
    }

    #[test]
    fn graph_bytes_ignore_the_traversal_memo() {
        let g = sample_graph();
        let before = encode_graph("gk", &g);
        g.pull_bfs(g.max_degree_vertex());
        assert_eq!(encode_graph("gk", &g), before);
    }

    #[test]
    fn matrix_bytes_ignore_the_structure_memo() {
        let m = sample_matrix();
        let before = encode_matrix("k", &m);
        m.square_structure();
        assert_eq!(encode_matrix("k", &m), before);
    }

    #[test]
    fn truncation_is_detected() {
        let mut bytes = encode_matrix("k", &sample_matrix());
        bytes.truncate(bytes.len() - 3);
        let err = decode_bytes(&bytes).err().unwrap();
        assert!(err.contains("length mismatch"), "{err}");
    }

    #[test]
    fn bit_rot_is_detected_by_checksum() {
        let mut bytes = encode_matrix("k", &sample_matrix());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = decode_bytes(&bytes).err().unwrap();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn rejected_key_fails_the_decode() {
        let bytes = encode_graph("stored-key", &sample_graph());
        let err = decode(bytes.as_slice(), bytes.len() as u64, |key| {
            Err(format!("rejected `{key}`"))
        })
        .err()
        .unwrap();
        assert_eq!(err, "rejected `stored-key`");
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = encode_graph("k", &sample_graph());
        bytes[0] = b'X';
        assert!(decode_bytes(&bytes).err().unwrap().contains("bad magic"));
    }

    /// Every single-bit flip, every truncation and a trailing byte on a
    /// small snapshot are rejected or decode to the original case,
    /// `validate` agrees with `decode` on each, and none panics.
    fn assert_corruption_is_caught(bytes: &[u8], same: impl Fn(&Decoded) -> bool) {
        let validates = |b: &[u8]| validate(b, b.len() as u64, any_key).is_ok();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let decoded = decode_bytes(&flipped);
            assert_eq!(validates(&flipped), decoded.is_ok(), "bit {bit}");
            if let Ok(case) = decoded {
                assert!(same(&case), "flip of bit {bit} served a different case");
            }
        }
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            assert!(
                decode_bytes(cut).is_err(),
                "truncation to {len} bytes decoded"
            );
            assert!(!validates(cut), "truncation to {len} bytes validated");
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(decode_bytes(&longer).is_err(), "a trailing byte decoded");
        assert!(!validates(&longer), "a trailing byte validated");
        assert!(validates(bytes));
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected_or_harmless() {
        let m = cubie_sparse::generators::random_sparse(6, 5, 11, 3);
        assert_corruption_is_caught(
            &encode_matrix("mk", &m),
            |case| matches!(case, Decoded::Matrix(back) if *back == m),
        );
        let g = cubie_graph::generators::grid_graph(3, 2);
        assert_corruption_is_caught(
            &encode_graph("gk", &g),
            |case| matches!(case, Decoded::Graph(back) if *back == g),
        );
    }

    #[test]
    fn header_fields_are_under_the_checksum() {
        let mut bytes = encode_matrix("k", &sample_matrix());
        bytes[0x18] ^= 1; // cols 30 -> 31
        let err = decode_bytes(&bytes).err().unwrap();
        assert!(err.contains("checksum mismatch"), "{err}");
        // A huge row count is an error, not an overflow panic.
        let mut bytes = encode_matrix("k", &sample_matrix());
        bytes[0x17] ^= 0x20; // bit 61 of rows
        assert!(decode_bytes(&bytes).is_err());
    }

    #[test]
    fn word_checksum_matches_a_reference_fold() {
        assert_eq!(fnv_words(FNV_BASIS, &[]), FNV_BASIS);
        let words = [1u64, 0x0123_4567_89ab_cdef];
        let mut h = FNV_BASIS;
        for w in words {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv_words(FNV_BASIS, &bytes), h);
    }

    #[test]
    fn sections_larger_than_one_chunk_roundtrip() {
        let m = cubie_sparse::generators::random_sparse(3000, 2000, 3 * CHUNK / 8, 5);
        let Decoded::Matrix(back) = roundtrip(encode_matrix("k", &m)) else {
            panic!("wrong kind");
        };
        assert_eq!(back, m);
    }
}
