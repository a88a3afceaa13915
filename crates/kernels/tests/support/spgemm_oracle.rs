//! SpGEMM's functional paths as they were before each task wrote its CSR
//! rows directly: the mBSR path with copied block products and a COO
//! round trip (`run_mma`, `paired_mma`, `blocks_to_csr`), the Baseline
//! with one dense accumulator per row (`run_baseline`), and the serial
//! reference through `Coo` (`spgemm_naive`). Kept unchanged as the
//! oracles the current paths must match bit for bit.

use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::{par, OpCounters};
use cubie_sparse::mbsr::{Mbsr, BLOCK};
use cubie_sparse::{Coo, Csr};

/// One queued 4×4 block product.
struct Product {
    a: [f64; 16],
    b: [f64; 16],
    /// Block column of C this product accumulates into.
    c_col: u32,
}

/// TC/CC/CC-E functional path over mBSR blocks. `essential_only` skips
/// the discarded off-diagonal quadrants (CC-E); the kept quadrants are
/// numerically identical either way because the MMA's quadrants do not
/// interact (`[A₁;A₂]·[B₁|B₂]` is block-diagonal in the useful parts).
pub fn run_mma(a: &Csr, essential_only: bool) -> Csr {
    let am = Mbsr::from_csr(a);
    let bm = &am; // C = A·A
    let block_cols = bm.block_cols;

    let rows: Vec<Vec<(u32, [f64; 16])>> = par::par_map(am.block_rows, |br| {
        // Dense block accumulator over C's block row.
        let mut acc: Vec<[f64; 16]> = Vec::new();
        let mut slot_of = vec![-1i32; block_cols];
        let mut touched: Vec<u32> = Vec::new();
        let mut pending: Option<Product> = None;
        let mut scratch = OpCounters::new();

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
                    a: *ablk,
                    b: *bblk,
                    c_col: *bc,
                };
                if let Some(q) = pending.take() {
                    paired_mma(&q, &p, &mut acc, &slot_of, essential_only, &mut scratch);
                } else {
                    pending = Some(p);
                }
            }
        }
        if let Some(q) = pending {
            // Odd product count: pad the second half with zeros. The zero
            // quadrant contributes exactly what it did against the old
            // cloned accumulator (`+= 0.0` on the same values), so the
            // copy was pure churn — accumulate in place.
            let zero = Product {
                a: [0.0; 16],
                b: [0.0; 16],
                c_col: q.c_col,
            };
            paired_mma(&q, &zero, &mut acc, &slot_of, essential_only, &mut scratch);
        }
        let mut out: Vec<(u32, [f64; 16])> = touched
            .iter()
            .map(|&bc| (bc, acc[slot_of[bc as usize] as usize]))
            .collect();
        out.sort_unstable_by_key(|(bc, _)| *bc);
        out
    });

    blocks_to_csr(a.rows, a.cols, &rows)
}

/// Execute one paired MMA: quadrant accumulators are loaded into the
/// 8×8 `C`, the fused chain runs, and the diagonal quadrants are stored
/// back.
fn paired_mma(
    p1: &Product,
    p2: &Product,
    acc: &mut [[f64; 16]],
    slot_of: &[i32],
    essential_only: bool,
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
    // The fused instruction computes all four quadrants; CC-E executes
    // only the diagonal ones (identical values on those quadrants).
    mma_f64_m8n8k4(&at, &bt, &mut ct, scratch);
    let _ = essential_only; // numerics identical; only the trace differs
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

/// Assemble per-block-row results into CSR.
fn blocks_to_csr(rows: usize, cols: usize, block_rows: &[Vec<(u32, [f64; 16])>]) -> Csr {
    // Upper bound: every lane of every touched block is nonzero.
    let cap: usize = block_rows.iter().map(|e| e.len() * BLOCK * BLOCK).sum();
    let mut coo = Coo::with_capacity(rows, cols, cap);
    for (br, entries) in block_rows.iter().enumerate() {
        for (bc, blk) in entries.iter() {
            for lr in 0..BLOCK {
                for lc in 0..BLOCK {
                    let v = blk[lr * BLOCK + lc];
                    if v != 0.0 {
                        let (r, c) = (br * BLOCK + lr, *bc as usize * BLOCK + lc);
                        if r < rows && c < cols {
                            coo.push(r, c, v);
                        }
                    }
                }
            }
        }
    }
    Csr::from_coo(coo)
}

/// Baseline functional path: row-wise scalar SpGEMM with a dense
/// accumulator (hash-accumulator semantics).
pub fn run_baseline(a: &Csr) -> Csr {
    let rows: Vec<Vec<(u32, f64)>> = par::par_map(a.rows, |r| {
        let mut acc = vec![0.0f64; a.cols];
        let mut touched: Vec<u32> = Vec::new();
        let (acols, avals) = a.row(r);
        for (ac, av) in acols.iter().zip(avals) {
            let (bcols, bvals) = a.row(*ac as usize);
            for (bc, bv) in bcols.iter().zip(bvals) {
                if acc[*bc as usize] == 0.0 && !touched.contains(bc) {
                    touched.push(*bc);
                }
                acc[*bc as usize] = av.mul_add(*bv, acc[*bc as usize]);
            }
        }
        touched.sort_unstable();
        touched.iter().map(|&c| (c, acc[c as usize])).collect()
    });
    let cap: usize = rows.iter().map(|e| e.len()).sum();
    let mut coo = Coo::with_capacity(a.rows, a.cols, cap);
    for (r, entries) in rows.iter().enumerate() {
        for (c, v) in entries.iter() {
            coo.push(r, *c as usize, *v);
        }
    }
    Csr::from_coo(coo)
}

/// Serial row-wise SpGEMM (`C = A · B`) — the CPU ground truth for
/// the SpGEMM workload. Uses a dense accumulator per row.
pub fn spgemm_naive(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let mut acc = vec![0.0f64; b.cols];
    let mut touched: Vec<u32> = Vec::new();
    let mut out = Coo::new(a.rows, b.cols);
    for r in 0..a.rows {
        touched.clear();
        let (acols, avals) = a.row(r);
        for (ac, av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(*ac as usize);
            for (bc, bv) in bcols.iter().zip(bvals) {
                if acc[*bc as usize] == 0.0 && !touched.contains(bc) {
                    touched.push(*bc);
                }
                acc[*bc as usize] += av * bv;
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            out.push(r, c as usize, acc[c as usize]);
            acc[c as usize] = 0.0;
        }
    }
    Csr::from_coo(out)
}
