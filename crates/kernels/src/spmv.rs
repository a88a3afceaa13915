//! **SpMV** — sparse matrix–vector multiplication (Quadrant IV).
//!
//! * **TC** follows DASP (Lu & Liu, SC '23) in FP64: rows are sorted by
//!   length and grouped into bundles of 8 (DASP's long/medium/short row
//!   categorization); each bundle's nonzeros are packed into 8×4 value
//!   blocks with the matching gathered-`x` entries forming the 4×8 `B`
//!   operand so that the useful dot products land on the **diagonal** of
//!   the 8×8 MMA output. The packed layout streams values and column
//!   indices fully coalesced — the memory regularization of
//!   Observation 8.
//! * **CC** keeps the DASP layout, issuing the full redundant 8×8
//!   products as CUDA-core FMA chains (bit-identical to TC).
//! * **CC-E** keeps the layout but computes only the 32 essential FMAs
//!   per block — the one workload where the paper finds removing MMA
//!   redundancy profitable (Observation 5).
//! * **Baseline** models cuSPARSE's CSR-vector kernel: warp-per-row dot
//!   products straight off CSR, whose short rows leave transactions
//!   partially filled (strided traffic) and whose `x` gathers are random.

use cubie_core::counters::{MemTraffic, MMA_F64_FMAS};
use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::{par, OpCounters};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};
use cubie_sparse::Csr;

use crate::common::Variant;

/// Rows per DASP bundle (the MMA `m` dimension).
pub const BUNDLE_ROWS: usize = 8;
/// Nonzero slots per row per MMA step (the MMA `k` dimension).
pub const SLOTS: usize = 4;
/// Rows longer than this split into [`LONG_CHUNK`]-nonzero segments that
/// behave as independent virtual rows (DASP's long-row category), so one
/// hub row cannot serialize a whole bundle.
pub const LONG_THRESHOLD: usize = 128;
/// Segment length of a split long row.
pub const LONG_CHUNK: usize = 128;

/// One bundle: 8 length-sorted (virtual) rows packed into `steps` 8×4
/// blocks. Split long rows appear as several entries with the same
/// original row index; their partial sums accumulate at scatter time.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// Original row indices (`u32::MAX` marks padding rows).
    pub rows: [u32; BUNDLE_ROWS],
    /// Number of 8×4 MMA steps (`ceil(max row length / 4)`).
    pub steps: usize,
    /// Packed values, layout `[step][row][slot]`, zero padded.
    pub vals: Vec<f64>,
    /// Packed column indices, same layout (padding points at column 0
    /// with a zero value).
    pub cols: Vec<u32>,
}

/// Packing statistics (see [`DaspFormat::packing_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackingStats {
    /// Total MMA steps across all bundles.
    pub total_steps: u64,
    /// Number of 8-row bundles.
    pub bundle_count: usize,
    /// Steps of the longest bundle (1 when the matrix is empty) — the
    /// critical-path depth.
    pub max_steps: usize,
}

/// Virtual-row expansion shared by [`DaspFormat::from_csr`] and
/// [`DaspFormat::packing_stats`]: `(original row, slot offset, length)`
/// triples, longest first, plus per-category row counts.
fn virtual_rows(m: &Csr) -> (Vec<(u32, u32, u32)>, [usize; 3]) {
    let mut virt: Vec<(u32, u32, u32)> = Vec::with_capacity(m.rows);
    let mut category_counts = [0usize; 3];
    for r in 0..m.rows {
        let n = m.row_nnz(r);
        let c = if n <= SLOTS {
            0
        } else if n <= LONG_THRESHOLD {
            1
        } else {
            2
        };
        category_counts[c] += 1;
        if n > LONG_THRESHOLD {
            let mut off = 0usize;
            while off < n {
                let len = LONG_CHUNK.min(n - off);
                virt.push((r as u32, off as u32, len as u32));
                off += len;
            }
        } else {
            virt.push((r as u32, 0, n as u32));
        }
    }
    // Stable sort, like the original packer: equal-length virtual rows
    // keep row order, which fixes bundle membership and therefore the
    // partial-sum accumulation order of split long rows.
    virt.sort_by_key(|&(_, _, len)| std::cmp::Reverse(len));
    (virt, category_counts)
}

/// The DASP-style packed format.
#[derive(Debug, Clone, PartialEq)]
pub struct DaspFormat {
    /// Source matrix shape.
    pub rows: usize,
    /// Source matrix columns.
    pub cols: usize,
    /// Row bundles, longest rows first.
    pub bundles: Vec<Bundle>,
    /// Count of rows per category (Short, Medium, Long).
    pub category_counts: [usize; 3],
}

impl DaspFormat {
    /// Pack a CSR matrix: rows longer than [`LONG_THRESHOLD`] split into
    /// [`LONG_CHUNK`]-nonzero virtual rows (DASP's long category), all
    /// virtual rows sort by length, and bundles of 8 pack into 8×4 step
    /// blocks.
    pub fn from_csr(m: &Csr) -> Self {
        let (virt, category_counts) = virtual_rows(m);
        let bundles = virt
            .chunks(BUNDLE_ROWS)
            .map(|chunk| {
                let mut rows = [u32::MAX; BUNDLE_ROWS];
                for (ri, &(r, _, _)) in chunk.iter().enumerate() {
                    rows[ri] = r;
                }
                let max_nnz = chunk.iter().map(|&(_, _, l)| l as usize).max().unwrap_or(0);
                let steps = max_nnz.div_ceil(SLOTS).max(1);
                let mut vals = vec![0.0f64; steps * BUNDLE_ROWS * SLOTS];
                let mut cols = vec![0u32; steps * BUNDLE_ROWS * SLOTS];
                for (ri, &(r, off, len)) in chunk.iter().enumerate() {
                    let (rc, rv) = m.row(r as usize);
                    let seg = off as usize..(off + len) as usize;
                    for (slot, (&c, &v)) in rc[seg.clone()].iter().zip(&rv[seg]).enumerate() {
                        let step = slot / SLOTS;
                        let k = slot % SLOTS;
                        let idx = step * BUNDLE_ROWS * SLOTS + ri * SLOTS + k;
                        vals[idx] = v;
                        cols[idx] = c;
                    }
                }
                Bundle {
                    rows,
                    steps,
                    vals,
                    cols,
                }
            })
            .collect();
        Self {
            rows: m.rows,
            cols: m.cols,
            bundles,
            category_counts,
        }
    }

    /// Total MMA steps across all bundles.
    pub fn total_steps(&self) -> u64 {
        self.bundles.iter().map(|b| b.steps as u64).sum()
    }

    /// Statistics of the packing [`from_csr`](Self::from_csr) would
    /// produce, without materializing any bundle — everything the
    /// analytic trace needs, from the virtual-row expansion alone (the
    /// numbers are identical to building the format and reading them
    /// back).
    pub fn packing_stats(m: &Csr) -> PackingStats {
        let (virt, _) = virtual_rows(m);
        let mut total_steps = 0u64;
        let mut bundle_count = 0usize;
        let mut max_steps = 0usize;
        for chunk in virt.chunks(BUNDLE_ROWS) {
            let max_nnz = chunk.iter().map(|&(_, _, l)| l as usize).max().unwrap_or(0);
            let steps = max_nnz.div_ceil(SLOTS).max(1);
            total_steps += steps as u64;
            bundle_count += 1;
            // Longest-first sort: the first bundle carries the maximum.
            if bundle_count == 1 {
                max_steps = steps;
            }
        }
        PackingStats {
            total_steps,
            bundle_count,
            max_steps: if bundle_count == 0 { 1 } else { max_steps },
        }
    }

    /// Padding overhead: packed slots over actual nonzeros.
    pub fn padding_ratio(&self, nnz: usize) -> f64 {
        (self.total_steps() * (BUNDLE_ROWS * SLOTS) as u64) as f64 / nnz.max(1) as f64
    }
}

/// Deterministic dense vector input for a matrix.
pub fn input_vector(m: &Csr) -> Vec<f64> {
    cubie_core::LcgF64::new(0x51 + m.cols as u64).vec(m.cols)
}

/// Serial CPU ground truth: naive CSR SpMV (Section 8's reference).
pub fn reference(m: &Csr, x: &[f64]) -> Vec<f64> {
    m.spmv_naive(x)
}

/// Functional execution of one variant.
pub fn run(m: &Csr, x: &[f64], variant: Variant) -> (Vec<f64>, WorkloadTrace) {
    assert_eq!(m.cols, x.len(), "dimension mismatch");
    match variant {
        Variant::Baseline => (run_baseline(m, x), trace(m, variant)),
        Variant::Tc | Variant::Cc => {
            let fmt = DaspFormat::from_csr(m);
            (run_mma(&fmt, x), trace(m, variant))
        }
        Variant::CcE => {
            let fmt = DaspFormat::from_csr(m);
            (run_essential(&fmt, x), trace(m, variant))
        }
    }
}

/// TC/CC functional path: per bundle, chain the 8×4 value blocks against
/// gathered-`x` operands, accumulating in the MMA `C` across steps, then
/// extract the diagonal.
fn run_mma(fmt: &DaspFormat, x: &[f64]) -> Vec<f64> {
    let results: Vec<([u32; 8], [f64; 8])> = par::par_map(fmt.bundles.len(), |bi| {
        let b = &fmt.bundles[bi];
        let mut at = [0.0f64; 32];
        let mut bt = [0.0f64; 32];
        let mut ct = [0.0f64; 64];
        let mut scratch = OpCounters::new();
        for step in 0..b.steps {
            let base = step * BUNDLE_ROWS * SLOTS;
            for r in 0..BUNDLE_ROWS {
                for k in 0..SLOTS {
                    let v = b.vals[base + r * SLOTS + k];
                    at[r * SLOTS + k] = v;
                    // B[k][r] = x[col(r, k)] — the gathered operand that
                    // places the dot product on the diagonal.
                    bt[k * BUNDLE_ROWS + r] = x[b.cols[base + r * SLOTS + k] as usize];
                }
            }
            mma_f64_m8n8k4(&at, &bt, &mut ct, &mut scratch);
        }
        let mut diag = [0.0f64; 8];
        for (r, d) in diag.iter_mut().enumerate() {
            *d = ct[r * 8 + r];
        }
        (b.rows, diag)
    });
    let mut y = vec![0.0f64; fmt.rows];
    for (rows, diag) in results {
        for (r, v) in rows.iter().zip(diag) {
            if *r != u32::MAX {
                // Accumulate: split long rows contribute several partials.
                y[*r as usize] += v;
            }
        }
    }
    y
}

/// CC-E functional path: same packed layout, only the essential fused
/// dot products (identical accumulation order along each row's slots).
fn run_essential(fmt: &DaspFormat, x: &[f64]) -> Vec<f64> {
    let results: Vec<([u32; 8], [f64; 8])> = par::par_map(fmt.bundles.len(), |bi| {
        let b = &fmt.bundles[bi];
        let mut acc = [0.0f64; 8];
        for step in 0..b.steps {
            let base = step * BUNDLE_ROWS * SLOTS;
            for r in 0..BUNDLE_ROWS {
                for k in 0..SLOTS {
                    let v = b.vals[base + r * SLOTS + k];
                    let xv = x[b.cols[base + r * SLOTS + k] as usize];
                    acc[r] = v.mul_add(xv, acc[r]);
                }
            }
        }
        (b.rows, acc)
    });
    let mut y = vec![0.0f64; fmt.rows];
    for (rows, acc) in results {
        for (r, v) in rows.iter().zip(acc) {
            if *r != u32::MAX {
                y[*r as usize] += v;
            }
        }
    }
    y
}

/// Baseline functional path: CSR-vector — 32 lanes stride a row, fused
/// partials, shuffle-tree combine (cuSPARSE-style). The per-row dot
/// product runs on the active `cubie_core::simd` path (bit-identical to
/// scalar on every path).
fn run_baseline(m: &Csr, x: &[f64]) -> Vec<f64> {
    par::par_map(m.rows, |r| {
        let (cols, vals) = m.row(r);
        cubie_core::simd::spmv_csr_row(vals, cols, x)
    })
}

/// Analytic trace of one variant (structure-only pass over the matrix).
pub fn trace(m: &Csr, variant: Variant) -> WorkloadTrace {
    let label = format!("spmv-{}-{}x{}", variant.label(), m.rows, m.cols);
    let mut ops = OpCounters::default();
    let (blocks, threads, critical);
    match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => {
            // Structure-only: the step counts, not the packed buffers.
            let fmt = DaspFormat::packing_stats(m);
            let steps = fmt.total_steps;
            let slots = steps * (BUNDLE_ROWS * SLOTS) as u64;
            match variant {
                Variant::Tc => ops.mma_f64 = steps,
                Variant::Cc => {
                    ops.fma_f64 = steps * MMA_F64_FMAS;
                    ops.int_ops = steps * MMA_F64_FMAS; // operand shuffles
                }
                Variant::CcE => ops.fma_f64 = slots,
                _ => unreachable!(),
            }
            // Packed values + columns stream coalesced; the x gathers
            // hit L2 (the vector fits the last-level cache).
            ops.gmem_load = MemTraffic::coalesced(slots * 8 + slots * 4);
            ops.l2_bytes = slots * 8;
            ops.gmem_store =
                MemTraffic::coalesced(m.rows as u64 * 8 + fmt.bundle_count as u64 * 32);
            ops.int_ops = slots; // gather address arithmetic
            blocks = (fmt.bundle_count as u64).div_ceil(8);
            threads = 256;
            let max_steps = fmt.max_steps as f64;
            critical = latency::GMEM_RT
                + max_steps
                    * match variant {
                        Variant::Tc => latency::MMA_F64,
                        _ => SLOTS as f64 * latency::FMA_F64,
                    };
        }
        Variant::Baseline => {
            ops.fma_f64 = m.nnz() as u64;
            ops.add_f64 = m.rows as u64 * 5;
            ops.int_ops = m.nnz() as u64 + m.rows as u64 * 5;
            // CSR value/index streams: rows shorter than two warp widths
            // leave transactions partially filled (CSR-vector's classic
            // inefficiency); x gathers hit L2.
            let mut co = 0u64;
            let mut st = 0u64;
            for r in 0..m.rows {
                let n = m.row_nnz(r) as u64;
                if n >= 64 {
                    co += n * 12;
                } else {
                    st += n * 12;
                }
            }
            ops.gmem_load = MemTraffic {
                coalesced: co + m.rows as u64 * 8, // row pointers
                strided: st,
                random: 0,
            };
            ops.l2_bytes = m.nnz() as u64 * 8; // x gathers
            ops.gmem_store = MemTraffic::coalesced(m.rows as u64 * 8);
            blocks = (m.rows as u64).div_ceil(8);
            threads = 256;
            let max_nnz = (0..m.rows).map(|r| m.row_nnz(r)).max().unwrap_or(1) as f64;
            critical = latency::GMEM_RT
                + (max_nnz / 32.0).ceil() * latency::FMA_F64
                + 5.0 * (latency::SHFL + latency::FMA_F64);
        }
    }
    WorkloadTrace::single(KernelTrace::new(label, blocks, threads, 0, ops, critical))
}

/// Useful floating-point work of an SpMV on `m`: `2·nnz`.
pub fn useful_flops(m: &Csr) -> f64 {
    2.0 * m.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;
    use cubie_sparse::generators;

    fn test_matrix() -> Csr {
        generators::spmsrts_like(16)
    }

    #[test]
    fn all_variants_match_reference() {
        let m = test_matrix();
        let x = input_vector(&m);
        let gold = reference(&m, &x);
        for v in Variant::ALL {
            let (y, _) = run(&m, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-10, "{v}: max err {}", e.max);
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let m = generators::conf5_like(8);
        let x = input_vector(&m);
        assert_eq!(run(&m, &x, Variant::Tc).0, run(&m, &x, Variant::Cc).0);
    }

    #[test]
    fn dasp_format_covers_all_nonzeros() {
        let m = test_matrix();
        let fmt = DaspFormat::from_csr(&m);
        let packed: usize = fmt
            .bundles
            .iter()
            .map(|b| b.vals.iter().filter(|&&v| v != 0.0).count())
            .sum();
        assert_eq!(packed, m.vals.iter().filter(|&&v| v != 0.0).count());
        let total_rows: usize = fmt
            .bundles
            .iter()
            .flat_map(|b| b.rows.iter())
            .filter(|&&r| r != u32::MAX)
            .count();
        assert_eq!(total_rows, m.rows);
    }

    #[test]
    fn sorting_reduces_padding() {
        // The QCD matrix has perfectly uniform rows: padding ratio should
        // be essentially the slot rounding only (39 → 40 slots).
        let m = generators::conf5_like(8);
        let fmt = DaspFormat::from_csr(&m);
        let ratio = fmt.padding_ratio(m.nnz());
        assert!(ratio < 1.05, "QCD padding ratio {ratio}");
    }

    #[test]
    fn category_counts_sum_to_rows() {
        let m = test_matrix();
        let fmt = DaspFormat::from_csr(&m);
        assert_eq!(fmt.category_counts.iter().sum::<usize>(), m.rows);
    }

    #[test]
    fn tc_trace_mma_matches_steps() {
        let m = test_matrix();
        let fmt = DaspFormat::from_csr(&m);
        let t = trace(&m, Variant::Tc).total_ops();
        assert_eq!(t.mma_f64, fmt.total_steps());
    }

    #[test]
    fn cce_does_eighth_of_cc_flops() {
        let m = test_matrix();
        let cc = trace(&m, Variant::Cc).total_ops();
        let cce = trace(&m, Variant::CcE).total_ops();
        assert_eq!(cc.fma_f64, 8 * cce.fma_f64);
    }

    #[test]
    fn baseline_has_more_irregular_traffic_than_tc() {
        let m = test_matrix();
        let b = trace(&m, Variant::Baseline).total_ops();
        let t = trace(&m, Variant::Tc).total_ops();
        assert!(b.gmem_load.strided > 0, "short CSR rows are strided");
        assert_eq!(t.gmem_load.strided, 0, "DASP layout streams coalesced");
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = cubie_sparse::Coo::new(20, 20);
        coo.push(0, 0, 1.0);
        coo.push(19, 19, 2.0);
        let m = Csr::from_coo(coo);
        let x = vec![1.0; 20];
        for v in Variant::ALL {
            let (y, _) = run(&m, &x, v);
            assert_eq!(y[0], 1.0, "{v}");
            assert_eq!(y[19], 2.0, "{v}");
            assert_eq!(y[10], 0.0, "{v}");
        }
    }
}

#[cfg(test)]
mod long_row_tests {
    use super::*;
    use crate::common::Variant;
    use cubie_core::ErrorStats;
    use cubie_sparse::Coo;

    /// A matrix with one hub row of 1000 nonzeros among short rows.
    fn skewed() -> Csr {
        let mut coo = Coo::new(64, 1200);
        let mut vg = cubie_core::LcgF64::new(99);
        for c in 0..1000usize {
            coo.push(5, c, vg.next_f64());
        }
        for r in 0..64usize {
            coo.push(r, (r * 7) % 1200, vg.next_f64());
        }
        Csr::from_coo(coo)
    }

    #[test]
    fn long_rows_are_categorized_and_split() {
        let m = skewed();
        let fmt = DaspFormat::from_csr(&m);
        assert_eq!(fmt.category_counts[2], 1, "one long row");
        // The hub row appears as ceil(1001/128) = 8 virtual rows.
        let virt_count: usize = fmt
            .bundles
            .iter()
            .flat_map(|b| b.rows.iter())
            .filter(|&&r| r == 5)
            .count();
        assert_eq!(virt_count, 1001usize.div_ceil(LONG_CHUNK));
        // No bundle needs more steps than a chunk's worth.
        let max_steps = fmt.bundles.iter().map(|b| b.steps).max().unwrap();
        assert!(max_steps <= LONG_CHUNK.div_ceil(SLOTS));
    }

    #[test]
    fn split_rows_still_compute_the_right_values() {
        let m = skewed();
        let x = input_vector(&m);
        let gold = reference(&m, &x);
        for v in Variant::ALL {
            let (y, _) = run(&m, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-10, "{v}: {}", e.max);
        }
    }

    #[test]
    fn splitting_improves_padding_on_skewed_matrices() {
        let m = skewed();
        let fmt = DaspFormat::from_csr(&m);
        // Without splitting, the hub row's bundle would pad 7 empty rows
        // to 1001 nonzeros: > 8× overhead. With splitting the overhead
        // stays moderate.
        assert!(
            fmt.padding_ratio(m.nnz()) < 3.0,
            "padding {:.2}",
            fmt.padding_ratio(m.nnz())
        );
    }
}
