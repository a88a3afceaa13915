//! The length-prefixed little-endian binary snapshot layout.
//!
//! One snapshot file holds one prepared case — a Table 4 CSR matrix or
//! a Table 3 graph — laid out so that a warm load can hand the index
//! and value arrays to kernels **zero-copy**, as [`Slab`] windows over
//! the file mapping:
//!
//! ```text
//! 0x00  magic        "CUBPREP1"                       [u8; 8]
//! 0x08  kind         1 = CSR matrix, 2 = graph        u32 LE
//! 0x0c  key_len      length of the embedded key       u32 LE
//! 0x10  meta         matrix: rows, cols, nnz, 0       [u64; 4] LE
//!                    graph:  n, arcs, 0, 0
//! 0x30  payload_len  bytes of the payload region      u64 LE
//! 0x38  checksum     FNV-1a 64 over the payload       u64 LE
//! 0x40  key          canonical store key, zero-padded to a multiple of 8
//!       payload      matrix: row_ptr u64·(rows+1) | vals f64·nnz |
//!                            col_idx u32·nnz | zero pad to 8
//!                    graph:  offsets u64·(n+1) | adj u32·arcs | pad to 8
//! ```
//!
//! Every section starts 8-aligned (the header is 0x40 bytes, the key is
//! padded, u64/f64 sections precede the u32 section), so on 64-bit
//! little-endian hosts the sections reinterpret in place. Elsewhere the
//! decoder falls back to an owned `from_le_bytes` conversion — same
//! values, one copy. File length and checksum are validated before any
//! reinterpretation: a truncated or bit-rotted snapshot is reported as
//! a decode error (the store deletes it and regenerates), never served.

use std::sync::Arc;

use cubie_core::cas::fnv1a64;
use cubie_core::mmap::Mapping;
use cubie_core::slab::Slab;
use cubie_graph::csr_graph::CsrGraph;
use cubie_sparse::Csr;

/// Magic bytes every snapshot starts with ("CUBPREP" + layout digit).
pub const MAGIC: [u8; 8] = *b"CUBPREP1";

/// Header size in bytes (fixed fields before the embedded key).
const HEADER: usize = 0x40;

/// `kind` field value for a CSR matrix snapshot.
pub const KIND_MATRIX: u32 = 1;
/// `kind` field value for a graph snapshot.
pub const KIND_GRAPH: u32 = 2;

/// Whether payload sections can be reinterpreted in place on this host
/// (the on-disk layout is 64-bit little-endian).
pub const ZERO_COPY_OK: bool = cfg!(target_endian = "little") && cfg!(target_pointer_width = "64");

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

fn put_u64s(out: &mut Vec<u8>, vals: impl Iterator<Item = u64>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn encode(kind: u32, key: &str, meta: [u64; 4], payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len().is_multiple_of(8));
    let key_bytes = key.as_bytes();
    let mut out = Vec::with_capacity(HEADER + pad8(key_bytes.len()) + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    put_u64s(&mut out, meta.into_iter());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(key_bytes);
    out.resize(HEADER + pad8(key_bytes.len()), 0);
    out.extend_from_slice(&payload);
    out
}

/// Serialize a CSR matrix snapshot under its canonical key.
pub fn encode_matrix(key: &str, m: &Csr) -> Vec<u8> {
    let mut payload = Vec::with_capacity(pad8((m.rows + 1) * 8 + m.nnz() * 12));
    put_u64s(&mut payload, m.row_ptr.iter().map(|&p| p as u64));
    for &v in m.vals.iter() {
        payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &c in m.col_idx.iter() {
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
    for &v in g.adj.iter() {
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

/// A u64-on-disk section as a `Slab<usize>`: reinterpreted in place on
/// 64-bit LE hosts, converted element-wise elsewhere.
fn usize_section(
    map: &Arc<Mapping>,
    off: usize,
    n: usize,
    what: &str,
) -> Result<Slab<usize>, String> {
    if ZERO_COPY_OK {
        Slab::from_mapping(Arc::clone(map), off, n).map_err(|e| format!("{what}: {e}"))
    } else {
        let bytes = &map.bytes()[off..off + n * 8];
        let mut v = Vec::with_capacity(n);
        for ch in bytes.chunks_exact(8) {
            let x = u64::from_le_bytes(ch.try_into().unwrap());
            v.push(usize::try_from(x).map_err(|_| format!("{what}: value exceeds usize"))?);
        }
        Ok(v.into())
    }
}

/// A u32 section as a `Slab<u32>` (zero-copy on LE hosts).
fn u32_section(map: &Arc<Mapping>, off: usize, n: usize, what: &str) -> Result<Slab<u32>, String> {
    if cfg!(target_endian = "little") {
        Slab::from_mapping(Arc::clone(map), off, n).map_err(|e| format!("{what}: {e}"))
    } else {
        let bytes = &map.bytes()[off..off + n * 4];
        Ok(bytes
            .chunks_exact(4)
            .map(|ch| u32::from_le_bytes(ch.try_into().unwrap()))
            .collect::<Vec<_>>()
            .into())
    }
}

/// An f64 section as a `Slab<f64>` (zero-copy on LE hosts).
fn f64_section(map: &Arc<Mapping>, off: usize, n: usize, what: &str) -> Result<Slab<f64>, String> {
    if cfg!(target_endian = "little") {
        Slab::from_mapping(Arc::clone(map), off, n).map_err(|e| format!("{what}: {e}"))
    } else {
        let bytes = &map.bytes()[off..off + n * 8];
        Ok(bytes
            .chunks_exact(8)
            .map(|ch| f64::from_bits(u64::from_le_bytes(ch.try_into().unwrap())))
            .collect::<Vec<_>>()
            .into())
    }
}

/// Validate and decode a snapshot. `check_key` vets the embedded
/// canonical key before the payload is checksummed (the load path pins
/// it exactly; open-time revalidation checks its version prefix and
/// address). Every failure is a description — the caller deletes the
/// file and regenerates; nothing here panics on corrupt input.
pub fn decode(
    map: Arc<Mapping>,
    check_key: impl FnOnce(&str) -> Result<(), String>,
) -> Result<Decoded, String> {
    let bytes = map.bytes();
    if bytes.len() < HEADER {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    }
    if bytes[..8] != MAGIC {
        return Err("bad magic: not a cubie-prep snapshot".into());
    }
    let kind = get_u32(bytes, 0x08);
    let key_len = get_u32(bytes, 0x0c) as usize;
    let meta = [
        get_u64(bytes, 0x10),
        get_u64(bytes, 0x18),
        get_u64(bytes, 0x20),
        get_u64(bytes, 0x28),
    ];
    let payload_len = get_u64(bytes, 0x30) as usize;
    let checksum = get_u64(bytes, 0x38);
    let payload_off = HEADER
        .checked_add(pad8(key_len))
        .ok_or("key length overflows")?;
    let expect_total = payload_off
        .checked_add(payload_len)
        .ok_or("payload length overflows")?;
    if bytes.len() != expect_total {
        return Err(format!(
            "length mismatch: file is {} bytes, header implies {expect_total}",
            bytes.len()
        ));
    }
    let key = std::str::from_utf8(&bytes[HEADER..HEADER + key_len])
        .map_err(|_| "embedded key is not UTF-8".to_string())?;
    check_key(key)?;
    let payload = &bytes[payload_off..];
    let got = fnv1a64(payload);
    if got != checksum {
        return Err(format!(
            "checksum mismatch: stored {checksum:016x}, computed {got:016x}"
        ));
    }

    let elems = |count: u64, what: &str| -> Result<usize, String> {
        usize::try_from(count).map_err(|_| format!("{what} exceeds usize"))
    };
    match kind {
        KIND_MATRIX => {
            let rows = elems(meta[0], "rows")?;
            let cols = elems(meta[1], "cols")?;
            let nnz = elems(meta[2], "nnz")?;
            let need = pad8((rows + 1) * 8 + nnz * 12);
            if payload_len != need {
                return Err(format!(
                    "matrix payload is {payload_len} bytes, dims imply {need}"
                ));
            }
            let rp_off = payload_off;
            let vals_off = rp_off + (rows + 1) * 8;
            let ci_off = vals_off + nnz * 8;
            let row_ptr = usize_section(&map, rp_off, rows + 1, "row_ptr")?;
            let vals = f64_section(&map, vals_off, nnz, "vals")?;
            let col_idx = u32_section(&map, ci_off, nnz, "col_idx")?;
            if row_ptr.last() != Some(&nnz) {
                return Err("row_ptr does not end at nnz".into());
            }
            Ok(Decoded::Matrix(Csr::from_parts(
                rows, cols, row_ptr, col_idx, vals,
            )))
        }
        KIND_GRAPH => {
            let n = elems(meta[0], "vertices")?;
            let arcs = elems(meta[1], "arcs")?;
            let need = pad8((n + 1) * 8 + arcs * 4);
            if payload_len != need {
                return Err(format!(
                    "graph payload is {payload_len} bytes, dims imply {need}"
                ));
            }
            let off_off = payload_off;
            let adj_off = off_off + (n + 1) * 8;
            let offsets = usize_section(&map, off_off, n + 1, "offsets")?;
            let adj = u32_section(&map, adj_off, arcs, "adj")?;
            if offsets.last() != Some(&arcs) {
                return Err("offsets do not end at the arc count".into());
            }
            Ok(Decoded::Graph(CsrGraph::from_parts(n, offsets, adj)))
        }
        other => Err(format!("unknown snapshot kind {other}")),
    }
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

    fn roundtrip(bytes: Vec<u8>) -> Decoded {
        let map = Arc::new(Mapping::from_bytes(bytes));
        decode(map, any_key).unwrap()
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
    fn truncation_is_detected() {
        let mut bytes = encode_matrix("k", &sample_matrix());
        bytes.truncate(bytes.len() - 3);
        let map = Arc::new(Mapping::from_bytes(bytes));
        let err = decode(map, any_key).err().unwrap();
        assert!(err.contains("length mismatch"), "{err}");
    }

    #[test]
    fn bit_rot_is_detected_by_checksum() {
        let mut bytes = encode_matrix("k", &sample_matrix());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let map = Arc::new(Mapping::from_bytes(bytes));
        let err = decode(map, any_key).err().unwrap();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn rejected_key_fails_the_decode() {
        let bytes = encode_graph("stored-key", &sample_graph());
        let map = Arc::new(Mapping::from_bytes(bytes));
        let err = decode(map, |key| Err(format!("rejected `{key}`")))
            .err()
            .unwrap();
        assert_eq!(err, "rejected `stored-key`");
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = encode_graph("k", &sample_graph());
        bytes[0] = b'X';
        let map = Arc::new(Mapping::from_bytes(bytes));
        assert!(decode(map, any_key).err().unwrap().contains("bad magic"));
    }

    #[test]
    fn zero_copy_sections_borrow_the_mapping() {
        if !ZERO_COPY_OK {
            return;
        }
        let m = sample_matrix();
        let Decoded::Matrix(back) = roundtrip(encode_matrix("k", &m)) else {
            panic!("wrong kind");
        };
        assert!(back.row_ptr.is_mapped());
        assert!(back.col_idx.is_mapped());
        assert!(back.vals.is_mapped());
    }
}
