//! **SpGEMM** — sparse × sparse matrix multiplication `C = A·A`
//! (Quadrant IV).
//!
//! * **TC** follows AmgT (Lu et al., SC '24) in FP64: both operands are
//!   tiled into the mBSR format (dense 4×4 blocks). Two queued block
//!   products `(A₁·B₁)` and `(A₂·B₂)` are fused into a single `m8n8k4`
//!   MMA by stacking `[A₁; A₂]` (8×4) against `[B₁ | B₂]` (4×8): the
//!   *diagonal* 4×4 quadrants of the 8×8 output are the wanted products,
//!   the off-diagonal quadrants (`A₁·B₂`, `A₂·B₁`) are discarded — "half
//!   of the 8-by-8 output tiles" utilization (Section 6.1), with the
//!   running accumulators carried in the MMA `C` quadrants.
//! * **CC** issues the identical chains on CUDA cores (bit-identical).
//! * **CC-E** is modelled as computing only the two useful quadrants:
//!   its trace counts 128 of CC's 256 FMAs per MMA. Functionally it runs
//!   the same routine as TC and CC, since the kept quadrants come out
//!   the same either way.
//! * **Baseline** models cuSPARSE's row-wise SpGEMM: scalar CSR products
//!   through a per-row hash accumulator.
//!
//! The four traces are structure-only: they count from one
//! [`SquareStructure`](cubie_sparse::mbsr::SquareStructure) (blocks of
//! `A` and `C`, block and scalar products), which
//! [`Csr::square_structure`] counts from the CSR pattern without block
//! values and memoises on the matrix, so every variant's trace and
//! [`useful_flops`] share one count.

use cubie_core::counters::{MemTraffic, MMA_F64_FMAS};
use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::{par, OpCounters};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};
use cubie_sparse::mbsr::{self, Mbsr, BLOCK};
use cubie_sparse::Csr;

use crate::common::Variant;

/// Serial CPU ground truth.
pub fn reference(a: &Csr) -> Csr {
    a.spgemm_naive(a)
}

/// Functional execution of `C = A·A` under one variant.
pub fn run(a: &Csr, variant: Variant) -> (Csr, WorkloadTrace) {
    let c = match variant {
        Variant::Baseline => run_baseline(a),
        Variant::Tc | Variant::Cc | Variant::CcE => run_mma(a),
    };
    (c, trace(a, variant))
}

/// Rows of `C` one pool task assembles with one set of scratch buffers
/// (for the mBSR path, `ROWS_PER_TASK / BLOCK` block rows). A constant,
/// never the worker count, so the task boundaries are the same under
/// any job count.
const ROWS_PER_TASK: usize = 64;

/// Consecutive CSR rows of `C`, written by one task.
#[derive(Default)]
struct RowRun {
    /// Nonzeros of each row, in row order.
    counts: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

/// Join the runs, in task order, into one CSR matrix: one prefix sum
/// over the row counts, one copy of the entries.
fn stitch(rows: usize, cols: usize, runs: Vec<RowRun>) -> Csr {
    let nnz = runs.iter().map(|r| r.col_idx.len()).sum();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for run in runs {
        for n in run.counts {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + n);
        }
        col_idx.extend_from_slice(&run.col_idx);
        vals.extend_from_slice(&run.vals);
    }
    Csr::from_parts(rows, cols, row_ptr, col_idx, vals)
}

/// One queued 4×4 block product.
struct Product<'m> {
    a: &'m [f64; 16],
    b: &'m [f64; 16],
    /// Block column of C this product accumulates into.
    c_col: u32,
}

/// The zero block that pads an odd product count.
const ZERO_BLOCK: [f64; 16] = [0.0; 16];

/// TC/CC/CC-E functional path over mBSR blocks. All three run this one
/// routine: the MMA's quadrants do not interact (`[A₁;A₂]·[B₁|B₂]` is
/// block-diagonal in the useful parts), so skipping the discarded
/// off-diagonal quadrants, as CC-E does, leaves the kept values
/// unchanged. Only CC-E's trace differs.
///
/// Each block row's products are paired in the order they are visited.
/// The row's block columns are then sorted and its four CSR rows are
/// written straight from the block accumulators, in column order,
/// skipping zeros and the lanes past the matrix edge.
fn run_mma(a: &Csr) -> Csr {
    let am = Mbsr::from_csr(a);
    let bm = &am; // C = A·A
    let per_task = ROWS_PER_TASK / BLOCK;
    let runs = par::par_map(am.block_rows.div_ceil(per_task), |t| {
        let mut run = RowRun::default();
        // Dense block accumulator over C's block row, reused by each
        // block row of the task.
        let mut acc: Vec<[f64; 16]> = Vec::new();
        let mut slot_of = vec![-1i32; bm.block_cols];
        let mut touched: Vec<u32> = Vec::new();
        let mut scratch = OpCounters::new();
        for br in t * per_task..((t + 1) * per_task).min(am.block_rows) {
            let mut pending: Option<Product> = None;
            let (acols, ablks) = am.block_row(br);
            for (ac, ablk) in acols.iter().zip(ablks) {
                let (bcols, bblks) = bm.block_row(*ac as usize);
                for (bc, bblk) in bcols.iter().zip(bblks) {
                    if slot_of[*bc as usize] < 0 {
                        slot_of[*bc as usize] = acc.len() as i32;
                        acc.push([0.0; 16]);
                        touched.push(*bc);
                    }
                    let p = Product {
                        a: ablk,
                        b: bblk,
                        c_col: *bc,
                    };
                    if let Some(q) = pending.take() {
                        paired_mma(&q, &p, &mut acc, &slot_of, &mut scratch);
                    } else {
                        pending = Some(p);
                    }
                }
            }
            if let Some(q) = pending {
                // Odd product count: pad the second half with zeros. The
                // zero quadrant adds `+= 0.0` to the first product's
                // block, so accumulating in place is exact.
                let zero = Product {
                    a: &ZERO_BLOCK,
                    b: &ZERO_BLOCK,
                    c_col: q.c_col,
                };
                paired_mma(&q, &zero, &mut acc, &slot_of, &mut scratch);
            }
            touched.sort_unstable();
            for lr in 0..BLOCK.min(a.rows - br * BLOCK) {
                let start = run.col_idx.len();
                for &bc in &touched {
                    let blk = &acc[slot_of[bc as usize] as usize];
                    for lc in 0..BLOCK {
                        let (v, c) = (blk[lr * BLOCK + lc], bc as usize * BLOCK + lc);
                        if v != 0.0 && c < a.cols {
                            run.col_idx.push(c as u32);
                            run.vals.push(v);
                        }
                    }
                }
                run.counts.push(run.col_idx.len() - start);
            }
            for &bc in &touched {
                slot_of[bc as usize] = -1;
            }
            touched.clear();
            acc.clear();
        }
        run
    });
    stitch(a.rows, a.cols, runs)
}

/// Execute one paired MMA: quadrant accumulators are loaded into the
/// 8×8 `C`, the fused chain runs, and the diagonal quadrants are stored
/// back.
fn paired_mma(
    p1: &Product,
    p2: &Product,
    acc: &mut [[f64; 16]],
    slot_of: &[i32],
    scratch: &mut OpCounters,
) {
    let mut at = [0.0f64; 32];
    let mut bt = [0.0f64; 32];
    let mut ct = [0.0f64; 64];
    for r in 0..4 {
        at[r * 4..r * 4 + 4].copy_from_slice(&p1.a[r * 4..r * 4 + 4]);
        at[(r + 4) * 4..(r + 4) * 4 + 4].copy_from_slice(&p2.a[r * 4..r * 4 + 4]);
    }
    for k in 0..4 {
        bt[k * 8..k * 8 + 4].copy_from_slice(&p1.b[k * 4..k * 4 + 4]);
        bt[k * 8 + 4..k * 8 + 8].copy_from_slice(&p2.b[k * 4..k * 4 + 4]);
    }
    let s1 = slot_of[p1.c_col as usize] as usize;
    let s2 = slot_of[p2.c_col as usize] as usize;
    // Preload the diagonal quadrants with the running accumulators.
    // When both products target the same C block, the second quadrant
    // must see the first's contribution — but MMA quadrants accumulate
    // independently, so chain them through quadrant 1 then fold.
    for r in 0..4 {
        for c in 0..4 {
            ct[r * 8 + c] = acc[s1][r * 4 + c];
        }
    }
    // The fused instruction computes all four quadrants; the diagonal
    // ones are the same whether or not the others are computed.
    mma_f64_m8n8k4(&at, &bt, &mut ct, scratch);
    for r in 0..4 {
        for c in 0..4 {
            acc[s1][r * 4 + c] = ct[r * 8 + c];
        }
    }
    // Second quadrant: accumulate its product (computed against a zero
    // preload would lose the running value, so add explicitly).
    for r in 0..4 {
        for c in 0..4 {
            let prod = ct[(r + 4) * 8 + (c + 4)];
            acc[s2][r * 4 + c] += prod;
        }
    }
}

/// Baseline functional path: row-wise scalar SpGEMM with a dense
/// accumulator (hash-accumulator semantics), one accumulator per task.
/// Each row's columns are sorted and written in order, zeros included.
fn run_baseline(a: &Csr) -> Csr {
    let runs = par::par_map(a.rows.div_ceil(ROWS_PER_TASK), |t| {
        let mut run = RowRun::default();
        let mut acc = vec![0.0f64; a.cols];
        let mut seen = vec![false; a.cols];
        let mut touched: Vec<u32> = Vec::new();
        for r in t * ROWS_PER_TASK..((t + 1) * ROWS_PER_TASK).min(a.rows) {
            let (acols, avals) = a.row(r);
            for (ac, av) in acols.iter().zip(avals) {
                let (bcols, bvals) = a.row(*ac as usize);
                for (bc, bv) in bcols.iter().zip(bvals) {
                    let c = *bc as usize;
                    if !seen[c] {
                        seen[c] = true;
                        touched.push(*bc);
                    }
                    acc[c] = av.mul_add(*bv, acc[c]);
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                run.col_idx.push(c);
                run.vals.push(acc[c as usize]);
                acc[c as usize] = 0.0;
                seen[c as usize] = false;
            }
            run.counts.push(touched.len());
            touched.clear();
        }
        run
    });
    stitch(a.rows, a.cols, runs)
}

/// Structure statistics needed by the trace (block products, result
/// blocks, scalar products).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpgemmStats {
    /// 4×4 block products of the mBSR formulation.
    pub block_products: u64,
    /// Nonempty blocks of `C`.
    pub c_blocks: u64,
    /// Blocks of `A` (and `B`).
    pub a_blocks: u64,
    /// Scalar multiply-adds of the CSR formulation.
    pub scalar_products: u64,
    /// Nonzeros of `C`.
    pub c_nnz: u64,
    /// Transfer size of one mBSR block: index plus the bitmap-compressed
    /// payload (AmgT ships only the present values, sized by the average
    /// block fill).
    pub block_bytes: u64,
}

/// Count the multiplication structure without numeric work, from the
/// matrix's memoised [`Csr::square_structure`]: every variant's trace and
/// [`useful_flops`] share one count per matrix.
pub fn stats(a: &Csr) -> SpgemmStats {
    let s = a.square_structure();
    SpgemmStats {
        block_products: s.block_products,
        c_blocks: s.c_blocks,
        a_blocks: s.a_blocks,
        scalar_products: s.scalar_products,
        // C's nnz: estimated from block structure (exact value needs the
        // numeric phase; the 16× bound is what the memory trace uses).
        c_nnz: s.c_blocks * (BLOCK * BLOCK) as u64,
        block_bytes: 4
            + (16.0 * mbsr::fill_ratio(a.nnz(), s.a_blocks as usize) * 8.0).ceil() as u64,
    }
}

/// Analytic trace of one variant (structure-only pass).
pub fn trace(a: &Csr, variant: Variant) -> WorkloadTrace {
    let s = stats(a);
    let label = format!("spgemm-{}-{}x{}", variant.label(), a.rows, a.cols);
    let mut ops = OpCounters::default();
    let blocks;
    let critical;
    match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => {
            let mma = s.block_products.div_ceil(2);
            match variant {
                Variant::Tc => ops.mma_f64 = mma,
                Variant::Cc => {
                    ops.fma_f64 = mma * MMA_F64_FMAS;
                    ops.int_ops = mma * MMA_F64_FMAS;
                }
                // Only the two diagonal quadrants: half the FMAs, no
                // full-fragment shuffle pattern.
                Variant::CcE => ops.fma_f64 = mma * MMA_F64_FMAS / 2,
                _ => unreachable!(),
            }
            // Second-quadrant fold-in.
            ops.add_f64 = mma * 16;
            // A blocks stream per block row (coalesced); B blocks are
            // gathered per product but heavily reused, so the gathers are
            // served by L2; C blocks stored once. Blocks travel in AmgT's
            // bitmap-compressed form.
            ops.gmem_load = MemTraffic::coalesced(s.a_blocks * s.block_bytes);
            ops.l2_bytes = s.block_products * s.block_bytes;
            ops.gmem_store = MemTraffic::coalesced(s.c_blocks * s.block_bytes);
            ops.int_ops += s.block_products * 4; // accumulator indexing
            ops.smem_bytes = s.block_products * 64;
            blocks = (a.rows as u64 / BLOCK as u64).div_ceil(8).max(1);
            let avg_chain = s.block_products as f64 / (a.rows as f64 / BLOCK as f64).max(1.0);
            critical = latency::GMEM_RT
                + avg_chain / 2.0
                    * match variant {
                        Variant::Tc => latency::MMA_F64,
                        _ => 4.0 * latency::FMA_F64,
                    };
        }
        Variant::Baseline => {
            ops.fma_f64 = s.scalar_products;
            // Hash accumulator: probe chain + insert + collision handling
            // (cuSPARSE's generic SpGEMM pays ~a dozen lane ops per
            // product).
            ops.int_ops = s.scalar_products * 12;
            ops.gmem_load = MemTraffic::coalesced(a.nnz() as u64 * 12);
            ops.l2_bytes = s.scalar_products * 12;
            ops.gmem_store = MemTraffic::coalesced(s.c_nnz * 12);
            ops.smem_bytes = s.scalar_products * 24; // hash table traffic
            blocks = (a.rows as u64).div_ceil(8);
            let avg_chain = s.scalar_products as f64 / a.rows.max(1) as f64;
            critical =
                latency::GMEM_RT + avg_chain / 32.0 * latency::FMA_F64 + 4.0 * latency::SMEM_RT;
        }
    }
    WorkloadTrace::single(KernelTrace::new(
        label,
        blocks,
        256,
        16 * 1024,
        ops,
        critical,
    ))
}

/// Useful floating-point work: two FLOPs per scalar product.
pub fn useful_flops(a: &Csr) -> f64 {
    2.0 * stats(a).scalar_products as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_sparse::{generators, Coo};

    fn compare(a: &Csr, b: &Csr) -> f64 {
        assert_eq!(a.rows, b.rows);
        // Compare as value maps (patterns can differ by explicit zeros).
        let mut max = 0.0f64;
        let dense_a = a.to_dense();
        let dense_b = b.to_dense();
        for (x, y) in dense_a.iter().zip(&dense_b) {
            max = max.max((x - y).abs());
        }
        max
    }

    fn small() -> Csr {
        generators::chevron1_like(16)
    }

    #[test]
    fn all_variants_match_reference() {
        let a = small();
        let gold = reference(&a);
        for v in Variant::ALL {
            let (c, _) = run(&a, v);
            let d = compare(&c, &gold);
            assert!(d < 1e-10, "{v}: max dev {d}");
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let a = generators::spmsrts_like(64);
        let (tc, _) = run(&a, Variant::Tc);
        let (cc, _) = run(&a, Variant::Cc);
        assert_eq!(tc, cc);
    }

    #[test]
    fn paired_mma_counts_half_products() {
        let a = small();
        let s = stats(&a);
        let t = trace(&a, Variant::Tc).total_ops();
        assert_eq!(t.mma_f64, s.block_products.div_ceil(2));
    }

    #[test]
    fn cce_halves_cc_fma() {
        let a = small();
        let cc = trace(&a, Variant::Cc).total_ops();
        let cce = trace(&a, Variant::CcE).total_ops();
        assert_eq!(cc.fma_f64, 2 * cce.fma_f64);
    }

    #[test]
    fn stats_scalar_products_match_flops() {
        // For C = A·A, scalar products = Σ_r Σ_{k∈row r} nnz(row k).
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 2, 4.0);
        let a = Csr::from_coo(coo);
        let s = stats(&a);
        // row0: cols {0,1} → nnz(r0)+nnz(r1) = 2+1; row1: col {2} → 1;
        // row2: col {2} → 1. Total 5.
        assert_eq!(s.scalar_products, 5);
    }

    #[test]
    fn identity_squared_is_identity() {
        let mut coo = Coo::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, 1.0);
        }
        let a = Csr::from_coo(coo);
        for v in Variant::ALL {
            let (c, _) = run(&a, v);
            assert_eq!(c.to_dense(), a.to_dense(), "{v}");
        }
    }

    #[test]
    fn baseline_gather_traffic_grows_with_products() {
        let a = small();
        let t = trace(&a, Variant::Baseline).total_ops();
        let s = stats(&a);
        assert!(t.l2_bytes >= s.scalar_products * 12);
    }

    #[test]
    fn block_bytes_reflect_fill() {
        // A dense-block matrix ships near-full blocks; a scattered one
        // ships small compressed blocks.
        let dense = generators::raefsky3_like(16);
        let scattered = generators::random_sparse(2000, 2000, 8000, 5);
        assert!(stats(&dense).block_bytes > 3 * stats(&scattered).block_bytes);
    }
}
