//! The FP64 accuracy study of Table 6: every workload variant's output
//! compared element-wise against the serial CPU ground truth
//! (`Average_Error` and `Max_Error`, Section 8). BFS is excluded (no
//! floating point). TC and CC are verified bit-identical and reported as
//! one column, exactly as the paper groups them.

use cubie_core::{par, ErrorStats};
use cubie_kernels::{
    fft, gemm, gemv, pic, reduction, scan, spgemm, spmv, stencil, Variant, Workload,
};
use cubie_sparse::Csr;

/// One Table 6 row.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRow {
    /// The workload.
    pub workload: Workload,
    /// The representative case evaluated.
    pub case_label: String,
    /// Baseline error (`None` for PiC, which has no baseline).
    pub baseline: Option<ErrorStats>,
    /// TC/CC error (verified bit-identical, reported together as in the
    /// paper).
    pub tc_cc: ErrorStats,
    /// CC-E error (`None` in Quadrant I where CC-E ≡ CC).
    pub cce: Option<ErrorStats>,
}

impl ErrorRow {
    /// The error of variant `v` (`None` where the row has no such
    /// variant: the PiC Baseline, CC-E in Quadrant I).
    pub fn of(&self, v: Variant) -> Option<ErrorStats> {
        match v {
            Variant::Baseline => self.baseline,
            Variant::Tc | Variant::Cc => Some(self.tc_cc),
            Variant::CcE => self.cce,
        }
    }
}

/// Case sizing for the error study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorScale {
    /// Small cases for fast tests.
    Quick,
    /// Representative cases (the harness default).
    Full,
}

/// Compare two sparse results over the union of their patterns
/// (absent entries count as zero).
fn compare_sparse(a: &Csr, b: &Csr) -> ErrorStats {
    assert_eq!(a.rows, b.rows);
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut n = 0usize;
    for r in 0..a.rows {
        let (ac, av) = a.row(r);
        let (bc, bv) = b.row(r);
        let (mut i, mut j) = (0usize, 0usize);
        while i < ac.len() || j < bc.len() {
            let d = match (ac.get(i), bc.get(j)) {
                (Some(&ca), Some(&cb)) if ca == cb => {
                    let d = (av[i] - bv[j]).abs();
                    i += 1;
                    j += 1;
                    d
                }
                (Some(&ca), Some(&cb)) if ca < cb => {
                    let d = av[i].abs();
                    i += 1;
                    d
                }
                (Some(_), Some(_)) => {
                    let d = bv[j].abs();
                    j += 1;
                    d
                }
                (Some(_), None) => {
                    let d = av[i].abs();
                    i += 1;
                    d
                }
                (None, Some(_)) => {
                    let d = bv[j].abs();
                    j += 1;
                    d
                }
                (None, None) => unreachable!(),
            };
            sum += d;
            max = max.max(d);
            n += 1;
        }
    }
    ErrorStats {
        avg: if n > 0 { sum / n as f64 } else { 0.0 },
        max,
        n,
    }
}

/// Table 6's blocks in Table 2 order, each with a fixed relative cost
/// that orders only the dispatch: SpGEMM, the slowest block, starts
/// first.
const BLOCKS: [(Workload, f64); 9] = [
    (Workload::Gemv, 0.0),
    (Workload::Gemm, 3.0),
    (Workload::Spmv, 2.0),
    (Workload::Spgemm, 4.0),
    (Workload::Fft, 2.0),
    (Workload::Stencil, 0.0),
    (Workload::Reduction, 0.0),
    (Workload::Scan, 0.0),
    (Workload::Pic, 1.0),
];

/// Run the full Table 6 study: the blocks run as pool tasks, and the
/// rows come back in Table 2 order. Every kernel gives the same bits
/// under any schedule, so the rows do too.
pub fn table6(scale: ErrorScale) -> Vec<ErrorRow> {
    par::par_map_lpt(
        BLOCKS.len(),
        |i| BLOCKS[i].1,
        |i| table6_row(BLOCKS[i].0, scale).expect("BFS has no Table 6 block"),
    )
}

/// One block's row: `err(v)` runs variant `v` and compares it with the
/// block's reference, computed beforehand. The workload's variants run
/// as pool tasks. TC and CC must agree bit for bit.
fn row(
    workload: Workload,
    case_label: String,
    err: impl Fn(Variant) -> ErrorStats + Sync,
) -> ErrorRow {
    let variants = workload.variants();
    let errs = par::par_map(variants.len(), |i| err(variants[i]));
    let of = |v: Variant| variants.iter().position(|&u| u == v).map(|i| errs[i]);
    let (tc, cc) = (of(Variant::Tc).unwrap(), of(Variant::Cc).unwrap());
    assert_eq!(tc, cc, "{workload:?}: TC and CC must be bit-identical");
    ErrorRow {
        workload,
        case_label,
        baseline: of(Variant::Baseline),
        tc_cc: tc,
        cce: of(Variant::CcE),
    }
}

/// The Table 6 row of one workload (`None` for BFS, which has no
/// floating point).
pub fn table6_row(workload: Workload, scale: ErrorScale) -> Option<ErrorRow> {
    let quick = scale == ErrorScale::Quick;
    Some(match workload {
        Workload::Gemv => {
            let case = if quick {
                gemv::GemvCase { m: 512, n: 16 }
            } else {
                gemv::GemvCase { m: 11_008, n: 16 }
            };
            let (a, x) = gemv::inputs(&case);
            let gold = gemv::reference(&a, &x);
            row(workload, case.label(), |v| {
                ErrorStats::compare(&gemv::run(&a, &x, v).0, &gold)
            })
        }
        Workload::Gemm => {
            let case = gemm::GemmCase::square(if quick { 96 } else { 512 });
            let (a, b) = gemm::inputs(&case);
            let gold = gemm::reference(&a, &b);
            row(workload, case.label(), |v| {
                ErrorStats::compare(gemm::run(&a, &b, v).0.as_slice(), gold.as_slice())
            })
        }
        Workload::Spmv => {
            let m = cubie_sparse::generators::conf5_like(if quick { 16 } else { 1 });
            let x = spmv::input_vector(&m);
            let gold = spmv::reference(&m, &x);
            row(workload, format!("conf5-like {}r", m.rows), |v| {
                ErrorStats::compare(&spmv::run(&m, &x, v).0, &gold)
            })
        }
        Workload::Spgemm => {
            let m = cubie_sparse::generators::spmsrts_like(if quick { 32 } else { 1 });
            let gold = spgemm::reference(&m);
            row(workload, format!("spmsrts-like {}r", m.rows), |v| {
                compare_sparse(&spgemm::run(&m, v).0, &gold)
            })
        }
        Workload::Fft => {
            let (h, w, batch) = if quick { (16, 32, 2) } else { (256, 256, 1) };
            let case = fft::FftCase { h, w, batch };
            let data = fft::input(&case);
            let gold: Vec<Vec<cubie_core::C64>> =
                data.iter().map(|g| fft::dft2_naive(h, w, g)).collect();
            row(workload, case.label(), |v| {
                let (out, _) = fft::run(&case, &data, v);
                out.iter()
                    .zip(&gold)
                    .map(|(o, g)| ErrorStats::compare_c64(o, g))
                    .fold(ErrorStats::default(), |acc, e| acc.merge(e))
            })
        }
        Workload::Stencil => {
            let case = if quick {
                stencil::StencilCase::star2d(64, 64)
            } else {
                stencil::StencilCase::star2d(1024, 1024)
            };
            let x = stencil::input(&case);
            let gold = stencil::reference(&case, &x);
            row(workload, case.label(), |v| {
                ErrorStats::compare(&stencil::run(&case, &x, v).0, &gold)
            })
        }
        Workload::Reduction => {
            let case = reduction::ReductionCase { n: 1024 };
            let x = reduction::input(&case);
            let gold = vec![reduction::reference(&x)];
            row(workload, case.label(), |v| {
                ErrorStats::compare(&[reduction::run(&x, v).0], &gold)
            })
        }
        Workload::Scan => {
            let case = scan::ScanCase { n: 1024 };
            let x = scan::input(&case);
            let gold = scan::reference(&x);
            row(workload, case.label(), |v| {
                ErrorStats::compare(&scan::run(&x, v).0, &gold)
            })
        }
        // PiC has no baseline.
        Workload::Pic => {
            let case = pic::PicCase {
                n: if quick { 1024 } else { 65_536 },
            };
            let (parts, grid) = pic::input(&case);
            let gold = pic::run_serial_style(&parts, &grid);
            let flat = |p: &pic::Particles| -> Vec<f64> {
                p.pos
                    .iter()
                    .chain(p.vel.iter())
                    .flat_map(|v| v.iter().copied())
                    .collect()
            };
            let gold_flat = flat(&gold);
            row(workload, case.label(), |v| {
                ErrorStats::compare(&flat(&pic::run(&case, &parts, &grid, v).0), &gold_flat)
            })
        }
        // No floating point.
        Workload::Bfs => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_quick_covers_nine_workloads() {
        let rows = table6(ErrorScale::Quick);
        // All workloads except BFS (no floating point).
        assert_eq!(rows.len(), 9);
        assert!(!rows.iter().any(|r| r.workload == Workload::Bfs));
    }

    #[test]
    fn quick_rows_are_bit_identical_at_one_and_three_workers_in_table2_order() {
        let bits = |e: &ErrorStats| (e.avg.to_bits(), e.max.to_bits(), e.n);
        let run = |jobs: usize| {
            let prev = par::set_max_workers(jobs);
            let rows = table6(ErrorScale::Quick);
            par::set_max_workers(prev);
            rows.iter()
                .map(|r| {
                    (
                        r.workload,
                        r.case_label.clone(),
                        r.baseline.as_ref().map(bits),
                        bits(&r.tc_cc),
                        r.cce.as_ref().map(bits),
                    )
                })
                .collect::<Vec<_>>()
        };
        let _guard = cubie_core::pool::cap_lock();
        let one = run(1);
        assert_eq!(one, run(3));
        assert_eq!(
            one.iter().map(|r| r.0).collect::<Vec<_>>(),
            [
                Workload::Gemv,
                Workload::Gemm,
                Workload::Spmv,
                Workload::Spgemm,
                Workload::Fft,
                Workload::Stencil,
                Workload::Reduction,
                Workload::Scan,
                Workload::Pic,
            ]
        );
    }

    #[test]
    fn errors_are_small_everywhere() {
        for row in table6(ErrorScale::Quick) {
            assert!(
                row.tc_cc.max < 1e-8,
                "{:?}: TC max error {}",
                row.workload,
                row.tc_cc.max
            );
            if let Some(b) = row.baseline {
                assert!(
                    b.max < 1e-8,
                    "{:?}: baseline max error {}",
                    row.workload,
                    b.max
                );
            }
        }
    }

    #[test]
    fn rows_carry_exactly_the_workloads_variants() {
        assert!(table6_row(Workload::Bfs, ErrorScale::Quick).is_none());
        for row in table6(ErrorScale::Quick) {
            for v in Variant::ALL {
                assert_eq!(
                    row.of(v).is_some(),
                    row.workload.variants().contains(&v),
                    "{:?} {v:?}",
                    row.workload
                );
            }
        }
    }

    #[test]
    fn pic_has_no_baseline_row() {
        let rows = table6(ErrorScale::Quick);
        let pic = rows.iter().find(|r| r.workload == Workload::Pic).unwrap();
        assert!(pic.baseline.is_none());
    }

    #[test]
    fn compare_sparse_handles_pattern_mismatch() {
        use cubie_sparse::Coo;
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 1.0);
        a.push(1, 1, 2.0);
        let mut b = Coo::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 0.5);
        let e = compare_sparse(&Csr::from_coo(a), &Csr::from_coo(b));
        assert_eq!(e.n, 3);
        assert_eq!(e.max, 2.0);
    }
}
