//! Synthetic stand-ins for the five SuiteSparse matrices of Table 4.
//!
//! The paper's SpMV/SpGEMM inputs come from the SuiteSparse Matrix
//! Collection, which is not redistributable inside this repository. Each
//! generator below reproduces the published **row count exactly**, the
//! published **nonzero count exactly or within ~1 %**, and — most
//! importantly for kernel behaviour — the **structure class**: what
//! drives DASP's row categorization and mBSR's block fill is the
//! row-length distribution, bandwidth, and block density, not the
//! particular values.
//!
//! | matrix           | class reproduced                                   |
//! |------------------|----------------------------------------------------|
//! | `spmsrts`        | indefinite saddle-point: short banded rows + scattered couplings |
//! | `Chevron1`       | seismic 2-D grid: 9-point stencil on a 141×265 grid |
//! | `raefsky3`       | fluid/structure FEM: dense 8×8 node blocks on a 2-D node grid |
//! | `conf5_4-8x8-10` | QCD lattice: exactly 39 nonzeros in *every* row     |
//! | `bcsstk39`       | stiffness band: symmetric 3-DOF banded coupling     |
//!
//! Every generator accepts a `scale ≥ 1` divisor so tests can exercise the
//! same structure at a fraction of the size; `scale == 1` is the
//! full-size, paper-matching matrix.

use cubie_core::{LcgF64, SplitMix64};

use crate::coo::Coo;
use crate::csr::Csr;

/// Published metadata of one Table 4 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixInfo {
    /// SuiteSparse matrix name.
    pub name: &'static str,
    /// SuiteSparse group.
    pub group: &'static str,
    /// Published row count.
    pub rows: usize,
    /// Published nonzero count.
    pub nnz: usize,
}

/// The five Table 4 entries, in the paper's order.
pub fn table4_specs() -> [MatrixInfo; 5] {
    [
        MatrixInfo {
            name: "spmsrts",
            group: "GHS_indef",
            rows: 29_995,
            nnz: 229_947,
        },
        MatrixInfo {
            name: "Chevron1",
            group: "Chevron",
            rows: 37_365,
            nnz: 330_633,
        },
        MatrixInfo {
            name: "raefsky3",
            group: "Simon",
            rows: 21_200,
            nnz: 1_488_768,
        },
        MatrixInfo {
            name: "conf5_4-8x8-10",
            group: "QCD",
            rows: 49_152,
            nnz: 1_916_928,
        },
        MatrixInfo {
            name: "bcsstk39",
            group: "Boeing",
            rows: 46_772,
            nnz: 2_089_294,
        },
    ]
}

/// Generate the synthetic counterpart of a Table 4 matrix by name.
///
/// # Panics
/// Panics on an unknown name.
pub fn generate(name: &str, scale: usize) -> Csr {
    match name {
        "spmsrts" => spmsrts_like(scale),
        "Chevron1" => chevron1_like(scale),
        "raefsky3" => raefsky3_like(scale),
        "conf5_4-8x8-10" => conf5_like(scale),
        "bcsstk39" => bcsstk39_like(scale),
        other => panic!("unknown Table 4 matrix `{other}`"),
    }
}

/// All five Table 4 matrices with their metadata at the given scale
/// divisor (`scale == 1` → paper-matching sizes).
///
/// Generation fans out across the worker pool, dispatched heaviest
/// first (LPT by the published nnz, which scales uniformly, so the
/// published counts rank the scaled costs too). Each matrix is built by
/// its own deterministic generator, so output order and every bit are
/// identical to the previous serial loop.
pub fn table4_matrices(scale: usize) -> Vec<(MatrixInfo, Csr)> {
    let specs = table4_specs();
    let matrices = cubie_core::par::par_map_lpt(
        specs.len(),
        |i| specs[i].nnz as f64,
        |i| generate(specs[i].name, scale),
    );
    specs.into_iter().zip(matrices).collect()
}

fn values(seed: u64) -> LcgF64 {
    LcgF64::new(seed)
}

/// `spmsrts`-like: saddle-point/indefinite structure — every row has a
/// short tridiagonal band plus 4–5 pseudo-random far couplings, matching
/// the published nonzero count exactly at `scale == 1`.
pub fn spmsrts_like(scale: usize) -> Csr {
    let scale = scale.max(1);
    let rows = 29_995 / scale;
    let nnz_target = 229_947 / scale;
    let band_nnz: usize = (0..rows)
        .map(|r| 1 + usize::from(r > 0) + usize::from(r + 1 < rows))
        .sum();
    let extra_total = nnz_target.saturating_sub(band_nnz);
    let base_extra = extra_total / rows;
    let remainder = extra_total % rows;

    let mut g = SplitMix64::new(0x5051);
    let mut vg = values(11);
    let mut coo = Coo::new(rows, rows);
    let mut taken: Vec<u32> = Vec::with_capacity(16);
    for r in 0..rows {
        taken.clear();
        if r > 0 {
            coo.push(r, r - 1, vg.next_f64());
            taken.push((r - 1) as u32);
        }
        coo.push(r, r, vg.next_f64() + 4.0); // keep the diagonal dominant
        taken.push(r as u32);
        if r + 1 < rows {
            coo.push(r, r + 1, vg.next_f64());
            taken.push((r + 1) as u32);
        }
        let extras = base_extra + usize::from(r < remainder);
        let mut added = 0;
        while added < extras {
            let c = g.next_range(rows as u64) as u32;
            if !taken.contains(&c) {
                taken.push(c);
                coo.push(r, c as usize, vg.next_f64());
                added += 1;
            }
        }
    }
    Csr::from_coo(coo)
}

/// `Chevron1`-like: a 9-point stencil on a 141×265 structured grid
/// (141 × 265 = 37 365 rows), the classic seismic-modelling pattern.
pub fn chevron1_like(scale: usize) -> Csr {
    let scale = scale.max(1);
    let (nx, ny) = if scale == 1 {
        (141usize, 265usize)
    } else {
        ((141 / scale).max(3), (265 / scale).max(3))
    };
    let rows = nx * ny;
    let mut vg = values(12);
    let mut coo = Coo::new(rows, rows);
    for i in 0..nx as i64 {
        for j in 0..ny as i64 {
            let r = (i * ny as i64 + j) as usize;
            for di in -1..=1i64 {
                for dj in -1..=1i64 {
                    let (ni, nj) = (i + di, j + dj);
                    if ni >= 0 && ni < nx as i64 && nj >= 0 && nj < ny as i64 {
                        let c = (ni * ny as i64 + nj) as usize;
                        let v = if r == c {
                            8.0 + vg.next_f64()
                        } else {
                            -1.0 + 0.25 * vg.next_f64()
                        };
                        coo.push(r, c, v);
                    }
                }
            }
        }
    }
    Csr::from_coo(coo)
}

/// `raefsky3`-like: fluid–structure interaction FEM — 8×8 dense node
/// blocks on a 53×50 node grid with 9-point node connectivity
/// (53 × 50 × 8 = 21 200 rows, ≈ 70 nonzeros/row).
pub fn raefsky3_like(scale: usize) -> Csr {
    let scale = scale.max(1);
    let (nx, ny, dof) = if scale == 1 {
        (53usize, 50usize, 8usize)
    } else {
        ((53 / scale).max(2), (50 / scale).max(2), 8usize)
    };
    let rows = nx * ny * dof;
    let mut vg = values(13);
    let mut coo = Coo::new(rows, rows);
    for i in 0..nx as i64 {
        for j in 0..ny as i64 {
            let node = (i * ny as i64 + j) as usize;
            for di in -1..=1i64 {
                for dj in -1..=1i64 {
                    let (ni, nj) = (i + di, j + dj);
                    if ni >= 0 && ni < nx as i64 && nj >= 0 && nj < ny as i64 {
                        let nnode = (ni * ny as i64 + nj) as usize;
                        // Dense dof×dof coupling block between the nodes.
                        for a in 0..dof {
                            for b in 0..dof {
                                let (r, c) = (node * dof + a, nnode * dof + b);
                                let v = if r == c {
                                    16.0 + vg.next_f64()
                                } else {
                                    vg.next_f64() * 0.5
                                };
                                coo.push(r, c, v);
                            }
                        }
                    }
                }
            }
        }
    }
    Csr::from_coo(coo)
}

/// `conf5_4-8x8-10`-like: a QCD lattice operator on an 8×8×8×16 torus
/// with 6 components per site (8·8·8·16·6 = 49 152 rows). Every row has
/// **exactly 39** nonzeros — the published count is matched exactly:
/// a dense 6-wide on-site block (6) plus 4 components on each of the 8
/// forward/backward lattice neighbours (32) plus one extra coupling into
/// the first neighbour (1).
pub fn conf5_like(scale: usize) -> Csr {
    let scale = scale.max(1);
    let (lx, ly, lz, lt, comp) = if scale == 1 {
        (8usize, 8, 8, 16, 6usize)
    } else {
        // Keep every lattice extent ≥ 3 so the ±1 torus neighbours stay
        // distinct and every row keeps exactly 39 nonzeros.
        (4usize, 4, 4, (16 / scale).max(4), 6usize)
    };
    let sites = lx * ly * lz * lt;
    let rows = sites * comp;
    let site_of = |x: usize, y: usize, z: usize, t: usize| ((x * ly + y) * lz + z) * lt + t;
    let mut vg = values(14);
    let mut coo = Coo::new(rows, rows);
    for x in 0..lx {
        for y in 0..ly {
            for z in 0..lz {
                for t in 0..lt {
                    let s = site_of(x, y, z, t);
                    let neighbours = [
                        site_of((x + 1) % lx, y, z, t),
                        site_of((x + lx - 1) % lx, y, z, t),
                        site_of(x, (y + 1) % ly, z, t),
                        site_of(x, (y + ly - 1) % ly, z, t),
                        site_of(x, y, (z + 1) % lz, t),
                        site_of(x, y, (z + lz - 1) % lz, t),
                        site_of(x, y, z, (t + 1) % lt),
                        site_of(x, y, z, (t + lt - 1) % lt),
                    ];
                    for a in 0..comp {
                        let r = s * comp + a;
                        // On-site dense block: 6 entries.
                        for b in 0..comp {
                            let v = if a == b {
                                8.0 + vg.next_f64()
                            } else {
                                vg.next_f64() * 0.5
                            };
                            coo.push(r, s * comp + b, v);
                        }
                        // 4 components per neighbour: 32 entries.
                        for (ni, &n) in neighbours.iter().enumerate() {
                            for b in 0..4 {
                                let col = n * comp + (a + b + ni) % comp;
                                coo.push(r, col, vg.next_f64() * 0.5);
                            }
                            // One extra coupling into the first neighbour
                            // brings the row to exactly 39.
                            if ni == 0 {
                                let col = n * comp + (a + 4) % comp;
                                coo.push(r, col, vg.next_f64() * 0.5);
                            }
                        }
                    }
                }
            }
        }
    }
    Csr::from_coo(coo)
}

/// `bcsstk39`-like: a structural stiffness matrix — symmetric banded
/// coupling of 3-DOF nodes along a solid-rocket-booster-like shell strip,
/// ≈ 44.7 nonzeros/row.
pub fn bcsstk39_like(scale: usize) -> Csr {
    let scale = scale.max(1);
    let rows = 46_772 / scale;
    // 3 DOF per node; each node couples to itself and 7 forward
    // neighbours at node distances {1, 2, 3, 22, 23, 24, 25} (shell ring
    // of ~24 nodes), giving a symmetric band of (1 + 2·7)·3 = 45
    // entries/row in the interior.
    let nodes = rows / 3;
    let offsets: [usize; 7] = [1, 2, 3, 22, 23, 24, 25];
    let mut vg = values(15);
    let mut coo = Coo::new(rows, rows);
    for n in 0..nodes {
        // Diagonal block.
        for a in 0..3 {
            for b in 0..3 {
                let (r, c) = (n * 3 + a, n * 3 + b);
                let v = if a == b {
                    32.0 + vg.next_f64()
                } else {
                    vg.next_f64()
                };
                coo.push(r, c, v);
            }
        }
        for &d in &offsets {
            if n + d < nodes {
                for a in 0..3 {
                    for b in 0..3 {
                        let v = vg.next_f64();
                        coo.push(n * 3 + a, (n + d) * 3 + b, v);
                        coo.push((n + d) * 3 + b, n * 3 + a, v);
                    }
                }
            }
        }
    }
    // Rows not covered by whole nodes (rows % 3) get a diagonal entry.
    for r in nodes * 3..rows {
        coo.push(r, r, 32.0 + vg.next_f64());
    }
    Csr::from_coo(coo)
}

/// A fully random sparse matrix (uniform row lengths, uniform columns) —
/// used by property tests and the coverage corpus.
pub fn random_sparse(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
    let mut g = SplitMix64::new(seed);
    let mut vg = values(seed ^ 0xABCD);
    let mut coo = Coo::new(rows, cols);
    for _ in 0..nnz {
        coo.push(
            g.next_range(rows as u64) as usize,
            g.next_range(cols as u64) as usize,
            vg.next_f64(),
        );
    }
    Csr::from_coo(coo)
}

/// The corpus entry classes used by the Figure 10 coverage study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CorpusClass {
    Banded,
    Grid9,
    Blocked,
    PowerLaw,
    Random,
}

/// Generate a diverse synthetic corpus standing in for the SuiteSparse
/// collection in the PCA coverage study (Figure 10b): `n` small matrices
/// drawn from banded / grid / blocked / power-law / random structure
/// classes with randomized parameters. Matrices are built in parallel
/// from per-matrix seeds drawn up front ([`SplitMix64::seeds`]), each by
/// [`corpus_matrix`] of class `i % CORPUS_FAMILIES` from the seed's draw
/// `i`.
pub fn diverse_corpus(n: usize, seed: u64) -> Vec<(String, Csr)> {
    let seeds = SplitMix64::seeds(seed, n);
    cubie_core::par::par_map(n, |i| {
        (
            corpus_matrix_name(i),
            corpus_matrix(i % CORPUS_FAMILIES, seeds[i]),
        )
    })
}

/// The Figure 10b corpus classes, in family order.
const CORPUS_CLASSES: [CorpusClass; 5] = [
    CorpusClass::Banded,
    CorpusClass::Grid9,
    CorpusClass::Blocked,
    CorpusClass::PowerLaw,
    CorpusClass::Random,
];

/// Structure classes of the Figure 10b corpus; matrix `i` is of class
/// `i % CORPUS_FAMILIES`.
pub const CORPUS_FAMILIES: usize = CORPUS_CLASSES.len();

/// The name of matrix `i` of the Figure 10b corpus: `{class}-{i}`.
pub fn corpus_matrix_name(i: usize) -> String {
    format!("{:?}-{i}", CORPUS_CLASSES[i % CORPUS_FAMILIES])
}

/// A Figure 10b corpus matrix of class `family` (banded, 9-point grid,
/// blocked, power-law, random) from its own seed.
pub fn corpus_matrix(family: usize, seed: u64) -> Csr {
    class_matrix(CORPUS_CLASSES[family], seed)
}

fn class_matrix(class: CorpusClass, seed: u64) -> Csr {
    let mut g = SplitMix64::new(seed);
    match class {
        CorpusClass::Banded => {
            let rows = 400 + g.next_range(2000) as usize;
            let half_bw = 1 + g.next_range(8) as usize;
            let mut vg = values(seed);
            let mut coo = Coo::new(rows, rows);
            for r in 0..rows {
                let lo = r.saturating_sub(half_bw);
                let hi = (r + half_bw).min(rows - 1);
                for c in lo..=hi {
                    coo.push(r, c, vg.next_f64());
                }
            }
            Csr::from_coo(coo)
        }
        CorpusClass::Grid9 => {
            let nx = 15 + g.next_range(40) as usize;
            let ny = 15 + g.next_range(40) as usize;
            let mut vg = values(seed);
            let mut coo = Coo::new(nx * ny, nx * ny);
            for i in 0..nx as i64 {
                for j in 0..ny as i64 {
                    for di in -1..=1i64 {
                        for dj in -1..=1i64 {
                            let (ni, nj) = (i + di, j + dj);
                            if ni >= 0 && ni < nx as i64 && nj >= 0 && nj < ny as i64 {
                                coo.push(
                                    (i * ny as i64 + j) as usize,
                                    (ni * ny as i64 + nj) as usize,
                                    vg.next_f64(),
                                );
                            }
                        }
                    }
                }
            }
            Csr::from_coo(coo)
        }
        CorpusClass::Blocked => {
            let nodes = 40 + g.next_range(200) as usize;
            let dof = 2 + g.next_range(7) as usize;
            let mut vg = values(seed);
            let mut coo = Coo::new(nodes * dof, nodes * dof);
            for n in 0..nodes {
                for d in [0usize, 1, nodes.saturating_sub(1).min(7)] {
                    if n + d < nodes {
                        for a in 0..dof {
                            for b in 0..dof {
                                coo.push(n * dof + a, (n + d) * dof + b, vg.next_f64());
                                if d != 0 {
                                    coo.push((n + d) * dof + b, n * dof + a, vg.next_f64());
                                }
                            }
                        }
                    }
                }
            }
            Csr::from_coo(coo)
        }
        CorpusClass::PowerLaw => {
            let rows = 500 + g.next_range(3000) as usize;
            let mut vg = values(seed);
            let mut coo = Coo::new(rows, rows);
            for r in 0..rows {
                // Zipf-ish row length: a few very long rows.
                let u = g.next_unit().max(1e-6);
                let len = ((2.0 / u.powf(0.7)) as usize).clamp(1, rows / 2);
                let mut c = g.next_range(rows as u64) as usize;
                for _ in 0..len {
                    coo.push(r, c, vg.next_f64());
                    c = (c + 1 + g.next_range(16) as usize) % rows;
                }
            }
            Csr::from_coo(coo)
        }
        CorpusClass::Random => {
            let rows = 300 + g.next_range(2500) as usize;
            let nnz = rows * (2 + g.next_range(12) as usize);
            random_sparse(rows, rows, nnz, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table4() {
        let s = table4_specs();
        assert_eq!(s[3].name, "conf5_4-8x8-10");
        assert_eq!(s[3].rows, 49_152);
        assert_eq!(s[3].nnz, 1_916_928);
        assert_eq!(s[4].nnz, 2_089_294);
    }

    #[test]
    fn conf5_full_size_is_exact() {
        let m = conf5_like(1);
        assert_eq!(m.rows, 49_152);
        assert_eq!(m.nnz(), 1_916_928, "QCD generator must match exactly");
        for r in 0..m.rows {
            assert_eq!(m.row_nnz(r), 39, "row {r} must have exactly 39 nnz");
        }
    }

    #[test]
    fn spmsrts_full_size_matches_published_nnz() {
        let m = spmsrts_like(1);
        assert_eq!(m.rows, 29_995);
        assert_eq!(m.nnz(), 229_947);
    }

    #[test]
    fn chevron_rows_exact_nnz_close() {
        let m = chevron1_like(1);
        let spec = table4_specs()[1];
        assert_eq!(m.rows, spec.rows);
        let err = (m.nnz() as f64 - spec.nnz as f64).abs() / spec.nnz as f64;
        assert!(err < 0.01, "nnz {} vs published {}", m.nnz(), spec.nnz);
    }

    #[test]
    fn raefsky_rows_exact_nnz_close() {
        let m = raefsky3_like(1);
        let spec = table4_specs()[2];
        assert_eq!(m.rows, spec.rows);
        let err = (m.nnz() as f64 - spec.nnz as f64).abs() / spec.nnz as f64;
        assert!(err < 0.02, "nnz {} vs published {}", m.nnz(), spec.nnz);
    }

    #[test]
    fn bcsstk_rows_exact_nnz_close_and_symmetric() {
        let m = bcsstk39_like(1);
        let spec = table4_specs()[4];
        assert_eq!(m.rows, spec.rows);
        let err = (m.nnz() as f64 - spec.nnz as f64).abs() / spec.nnz as f64;
        assert!(err < 0.02, "nnz {} vs published {}", m.nnz(), spec.nnz);
        // Structural symmetry (pattern): transpose has the same pattern.
        let t = m.transpose();
        assert_eq!(t.row_ptr, m.row_ptr);
        assert_eq!(t.col_idx, m.col_idx);
    }

    #[test]
    fn scaled_generators_shrink() {
        for name in [
            "spmsrts",
            "Chevron1",
            "raefsky3",
            "conf5_4-8x8-10",
            "bcsstk39",
        ] {
            let small = generate(name, 8);
            let spec = table4_specs().into_iter().find(|s| s.name == name).unwrap();
            assert!(small.rows < spec.rows, "{name} did not shrink");
            assert!(small.rows > 0);
            assert!(small.nnz() > 0);
        }
    }

    #[test]
    fn random_sparse_respects_bounds() {
        let m = random_sparse(100, 50, 400, 9);
        assert_eq!(m.rows, 100);
        assert_eq!(m.cols, 50);
        assert!(m.nnz() <= 400); // duplicates merge
        for r in 0..m.rows {
            for &c in m.row(r).0 {
                assert!((c as usize) < 50);
            }
        }
    }

    #[test]
    fn corpus_is_diverse() {
        let corpus = diverse_corpus(10, 7);
        assert_eq!(corpus.len(), 10);
        let mut avg_rows: Vec<f64> = corpus.iter().map(|(_, m)| m.avg_row_nnz()).collect();
        avg_rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            avg_rows.last().unwrap() > &(avg_rows.first().unwrap() * 1.5),
            "corpus row densities too uniform: {avg_rows:?}"
        );
    }

    #[test]
    fn corpus_bits_do_not_depend_on_the_worker_count() {
        let _guard = cubie_core::pool::cap_lock();
        let prev = cubie_core::par::set_max_workers(1);
        let serial = diverse_corpus(80, 0xF16B);
        cubie_core::par::set_max_workers(3);
        let pooled = diverse_corpus(80, 0xF16B);
        cubie_core::par::set_max_workers(prev);
        assert_eq!(serial.len(), 80);
        for ((sn, s), (pn, p)) in serial.iter().zip(&pooled) {
            assert_eq!(sn, pn);
            assert_eq!((s.rows, s.cols), (p.rows, p.cols), "{sn}");
            assert_eq!(s.row_ptr, p.row_ptr, "{sn}");
            assert_eq!(s.col_idx, p.col_idx, "{sn}");
            let bits = |m: &Csr| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(s), bits(p), "{sn}");
        }
    }
}
