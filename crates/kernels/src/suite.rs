//! The Cubie suite registry: one uniform handle over the ten workloads,
//! their Table 2 test cases, quadrants (Figure 2), baselines and Berkeley
//! dwarfs (Table 7) — the entry point the figure/table harnesses use.

use cubie_graph::csr_graph::CsrGraph;
use cubie_graph::generators as graph_gen;
use cubie_sim::WorkloadTrace;
use cubie_sparse::generators as sparse_gen;
use cubie_sparse::Csr;

use crate::common::{Quadrant, Variant};
use crate::{bfs, fft, gemm, gemv, pic, reduction, scan, spgemm, spmv, stencil};

/// The ten Cubie workloads, in the paper's Table 2 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Dense matrix–matrix multiplication.
    Gemm,
    /// Particle in cell.
    Pic,
    /// Fast Fourier transform.
    Fft,
    /// Structured-grid stencil.
    Stencil,
    /// Prefix sum.
    Scan,
    /// Array reduction.
    Reduction,
    /// Breadth-first search.
    Bfs,
    /// Dense matrix–vector multiplication.
    Gemv,
    /// Sparse matrix–vector multiplication.
    Spmv,
    /// Sparse matrix–matrix multiplication.
    Spgemm,
}

/// Static description of a workload (Table 2 + Figure 2 + Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// The workload.
    pub workload: Workload,
    /// Display name.
    pub name: &'static str,
    /// MMU utilization quadrant (Figure 2).
    pub quadrant: Quadrant,
    /// The comparison baseline of Table 2 (`None` for PiC).
    pub baseline: Option<&'static str>,
    /// Whether CC-E is a distinct variant (Quadrants II–IV) or equals CC
    /// (Quadrant I, Section 5.2).
    pub distinct_cce: bool,
    /// Berkeley dwarf (Table 7).
    pub dwarf: &'static str,
    /// Unit of the reported throughput.
    pub perf_unit: &'static str,
}

impl Workload {
    /// All ten workloads in Table 2 order.
    pub const ALL: [Workload; 10] = [
        Workload::Gemm,
        Workload::Pic,
        Workload::Fft,
        Workload::Stencil,
        Workload::Scan,
        Workload::Reduction,
        Workload::Bfs,
        Workload::Gemv,
        Workload::Spmv,
        Workload::Spgemm,
    ];

    /// Static spec of this workload.
    pub fn spec(&self) -> WorkloadSpec {
        match self {
            Workload::Gemm => WorkloadSpec {
                workload: *self,
                name: "GEMM",
                quadrant: Quadrant::I,
                baseline: Some("cudaSample matrixMul"),
                distinct_cce: false,
                dwarf: "Dense linear algebra",
                perf_unit: "GFLOP/s",
            },
            Workload::Pic => WorkloadSpec {
                workload: *self,
                name: "PiC",
                quadrant: Quadrant::I,
                baseline: None,
                distinct_cce: false,
                dwarf: "N-Body",
                perf_unit: "Mpush/s",
            },
            Workload::Fft => WorkloadSpec {
                workload: *self,
                name: "FFT",
                quadrant: Quadrant::I,
                baseline: Some("cuFFT"),
                distinct_cce: false,
                dwarf: "Spectral methods",
                perf_unit: "GFLOP/s",
            },
            Workload::Stencil => WorkloadSpec {
                workload: *self,
                name: "Stencil",
                quadrant: Quadrant::I,
                baseline: Some("DRStencil"),
                distinct_cce: false,
                dwarf: "Structured grids",
                perf_unit: "Gpoint/s",
            },
            Workload::Scan => WorkloadSpec {
                workload: *self,
                name: "Scan",
                quadrant: Quadrant::II,
                baseline: Some("CUB BlockScan"),
                distinct_cce: true,
                dwarf: "MapReduce",
                perf_unit: "Gelem/s",
            },
            Workload::Reduction => WorkloadSpec {
                workload: *self,
                name: "Reduction",
                quadrant: Quadrant::III,
                baseline: Some("CUB BlockReduce"),
                distinct_cce: true,
                dwarf: "MapReduce",
                perf_unit: "Gelem/s",
            },
            Workload::Bfs => WorkloadSpec {
                workload: *self,
                name: "BFS",
                quadrant: Quadrant::IV,
                baseline: Some("Gunrock"),
                distinct_cce: true,
                dwarf: "Graph traversal",
                perf_unit: "GTEPS",
            },
            Workload::Gemv => WorkloadSpec {
                workload: *self,
                name: "GEMV",
                quadrant: Quadrant::IV,
                baseline: Some("cuBLAS GEMV"),
                distinct_cce: true,
                dwarf: "Dense linear algebra",
                perf_unit: "GFLOP/s",
            },
            Workload::Spmv => WorkloadSpec {
                workload: *self,
                name: "SpMV",
                quadrant: Quadrant::IV,
                baseline: Some("cuSPARSE SpMV"),
                distinct_cce: true,
                dwarf: "Sparse linear algebra",
                perf_unit: "GFLOP/s",
            },
            Workload::Spgemm => WorkloadSpec {
                workload: *self,
                name: "SpGEMM",
                quadrant: Quadrant::IV,
                baseline: Some("cuSPARSE SpGEMM"),
                distinct_cce: true,
                dwarf: "Sparse linear algebra",
                perf_unit: "GFLOP/s",
            },
        }
    }

    /// Position of this workload in Table 2 order (the canonical sort key
    /// of sweep results).
    pub fn index(&self) -> usize {
        Workload::ALL
            .iter()
            .position(|w| w == self)
            .expect("ALL is total")
    }

    /// Lower-case key used by CLI filters and CSV columns.
    pub fn key(&self) -> &'static str {
        match self {
            Workload::Gemm => "gemm",
            Workload::Pic => "pic",
            Workload::Fft => "fft",
            Workload::Stencil => "stencil",
            Workload::Scan => "scan",
            Workload::Reduction => "reduction",
            Workload::Bfs => "bfs",
            Workload::Gemv => "gemv",
            Workload::Spmv => "spmv",
            Workload::Spgemm => "spgemm",
        }
    }

    /// Parse a workload from its CLI/filter spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Workload> {
        let lower = s.to_ascii_lowercase();
        Workload::ALL.into_iter().find(|w| w.key() == lower)
    }

    /// The variants the paper evaluates for this workload: PiC has no
    /// baseline; Quadrant I folds CC-E into CC.
    pub fn variants(&self) -> Vec<Variant> {
        let spec = self.spec();
        let mut v = Vec::new();
        if spec.baseline.is_some() {
            v.push(Variant::Baseline);
        }
        v.push(Variant::Tc);
        v.push(Variant::Cc);
        if spec.distinct_cce {
            v.push(Variant::CcE);
        }
        v
    }

    /// The five Table 2 case labels (x-axis of Figure 3), in the order
    /// [`prepare_cases`] returns the cases: each case is named by its
    /// size or by its Table 3/4 input, so the labels come from the same
    /// case lists and nothing is generated.
    pub fn case_labels(&self) -> Vec<String> {
        fn labels<C>(cases: impl IntoIterator<Item = C>, label: fn(&C) -> String) -> Vec<String> {
            cases.into_iter().map(|c| label(&c)).collect()
        }
        match self {
            Workload::Gemm => labels(gemm::GemmCase::cases(), gemm::GemmCase::label),
            Workload::Gemv => labels(gemv::GemvCase::cases(), gemv::GemvCase::label),
            Workload::Fft => labels(fft::FftCase::cases(), fft::FftCase::label),
            Workload::Stencil => labels(stencil::StencilCase::cases(), stencil::StencilCase::label),
            Workload::Scan => labels(scan::ScanCase::cases(), scan::ScanCase::label),
            Workload::Reduction => labels(
                reduction::ReductionCase::cases(),
                reduction::ReductionCase::label,
            ),
            Workload::Pic => labels(pic::PicCase::cases(), pic::PicCase::label),
            Workload::Spmv | Workload::Spgemm => {
                labels(sparse_gen::table4_specs(), |s| s.name.to_string())
            }
            Workload::Bfs => labels(graph_gen::table3_specs(), |s| s.name.to_string()),
        }
    }
}

/// All workload specs in Table 2 order.
pub fn all_workloads() -> Vec<WorkloadSpec> {
    Workload::ALL.iter().map(|w| w.spec()).collect()
}

/// A prepared test case: parameters plus any generated inputs, ready to
/// trace (and, at affordable sizes, to execute functionally).
pub enum PreparedCase {
    /// GEMM case.
    Gemm(gemm::GemmCase),
    /// GEMV case.
    Gemv(gemv::GemvCase),
    /// FFT case.
    Fft(fft::FftCase),
    /// Stencil case.
    Stencil(stencil::StencilCase),
    /// Scan case.
    Scan(scan::ScanCase),
    /// Reduction case.
    Reduction(reduction::ReductionCase),
    /// PiC case.
    Pic(pic::PicCase),
    /// SpMV case with its generated matrix.
    Spmv {
        /// Table 4 metadata.
        info: sparse_gen::MatrixInfo,
        /// The generated matrix.
        matrix: Box<Csr>,
    },
    /// SpGEMM case with its generated matrix.
    Spgemm {
        /// Table 4 metadata.
        info: sparse_gen::MatrixInfo,
        /// The generated matrix.
        matrix: Box<Csr>,
    },
    /// BFS case with its generated graph.
    Bfs {
        /// Table 3 metadata.
        info: graph_gen::GraphInfo,
        /// The generated graph.
        graph: Box<CsrGraph>,
        /// BFS source vertex.
        source: usize,
    },
}

impl PreparedCase {
    /// The workload this case belongs to.
    pub fn workload(&self) -> Workload {
        match self {
            PreparedCase::Gemm(_) => Workload::Gemm,
            PreparedCase::Gemv(_) => Workload::Gemv,
            PreparedCase::Fft(_) => Workload::Fft,
            PreparedCase::Stencil(_) => Workload::Stencil,
            PreparedCase::Scan(_) => Workload::Scan,
            PreparedCase::Reduction(_) => Workload::Reduction,
            PreparedCase::Pic(_) => Workload::Pic,
            PreparedCase::Spmv { .. } => Workload::Spmv,
            PreparedCase::Spgemm { .. } => Workload::Spgemm,
            PreparedCase::Bfs { .. } => Workload::Bfs,
        }
    }

    /// Useful work of one execution, in the workload's unit basis
    /// (FLOPs, points, elements, edges, pushes).
    pub fn useful_work(&self) -> f64 {
        match self {
            PreparedCase::Gemm(c) => c.useful_flops(),
            PreparedCase::Gemv(c) => c.useful_flops(),
            PreparedCase::Fft(c) => c.useful_flops(),
            PreparedCase::Stencil(c) => c.points() as f64,
            PreparedCase::Scan(c) => c.useful_flops(),
            PreparedCase::Reduction(c) => c.useful_flops(),
            PreparedCase::Pic(c) => (c.n * pic::SUBSTEPS) as f64,
            PreparedCase::Spmv { matrix, .. } => spmv::useful_flops(matrix),
            PreparedCase::Spgemm { matrix, .. } => spgemm::useful_flops(matrix),
            PreparedCase::Bfs { graph, .. } => bfs::useful_edges(graph),
        }
    }

    /// The analytic trace of one variant, or `None` when the paper does
    /// not evaluate that variant (PiC baseline). The functional execution
    /// behind the trace is profiled as the `trace` phase, labelled
    /// `workload/variant`.
    pub fn trace(&self, variant: Variant) -> Option<WorkloadTrace> {
        match self {
            PreparedCase::Pic(_) if variant == Variant::Baseline => return None,
            _ => {}
        }
        let mut span = cubie_obs::span_with("trace", || {
            format!("{}/{}", self.workload().key(), variant.label())
        });
        span.add_items(1);
        Some(match self {
            PreparedCase::Gemm(c) => gemm::trace(c, variant),
            PreparedCase::Gemv(c) => gemv::trace(c, variant),
            PreparedCase::Fft(c) => fft::trace(c, variant),
            PreparedCase::Stencil(c) => stencil::trace(c, variant),
            PreparedCase::Scan(c) => scan::trace(c, variant),
            PreparedCase::Reduction(c) => reduction::trace(c, variant),
            PreparedCase::Pic(c) => pic::trace(c, variant),
            PreparedCase::Spmv { matrix, .. } => spmv::trace(matrix, variant),
            PreparedCase::Spgemm { matrix, .. } => spgemm::trace(matrix, variant),
            PreparedCase::Bfs { graph, source, .. } => bfs::trace(graph, *source, variant),
        })
    }
}

/// Prepare the five Table 2 test cases of a workload.
///
/// `sparse_scale` / `graph_scale` divide the sparse-matrix and graph
/// sizes (1 = full published sizes; graphs at scale 1 need several GB).
/// Generation is profiled as the `prepare` phase, labelled with the
/// workload key and counting the cases prepared.
pub fn prepare_cases(w: Workload, sparse_scale: usize, graph_scale: usize) -> Vec<PreparedCase> {
    let mut span = cubie_obs::span("prepare", w.key());
    let cases = prepare_cases_inner(w, sparse_scale, graph_scale);
    span.add_items(cases.len() as u64);
    cases
}

fn prepare_cases_inner(w: Workload, sparse_scale: usize, graph_scale: usize) -> Vec<PreparedCase> {
    match w {
        Workload::Gemm => gemm::GemmCase::cases()
            .into_iter()
            .map(PreparedCase::Gemm)
            .collect(),
        Workload::Gemv => gemv::GemvCase::cases()
            .into_iter()
            .map(PreparedCase::Gemv)
            .collect(),
        Workload::Fft => fft::FftCase::cases()
            .into_iter()
            .map(PreparedCase::Fft)
            .collect(),
        Workload::Stencil => stencil::StencilCase::cases()
            .into_iter()
            .map(PreparedCase::Stencil)
            .collect(),
        Workload::Scan => scan::ScanCase::cases()
            .into_iter()
            .map(PreparedCase::Scan)
            .collect(),
        Workload::Reduction => reduction::ReductionCase::cases()
            .into_iter()
            .map(PreparedCase::Reduction)
            .collect(),
        Workload::Pic => pic::PicCase::cases()
            .into_iter()
            .map(PreparedCase::Pic)
            .collect(),
        // Sparse and graph inputs go through the prepared-input store:
        // warm starts load the snapshot under `results/prep` (honoring
        // CUBIE_PREP_CACHE / CUBIE_PREP_DIR), cold starts
        // generate in parallel and record it.
        Workload::Spmv => cubie_prep::table4_matrices(sparse_scale)
            .into_iter()
            .map(|(info, m)| PreparedCase::Spmv {
                info,
                matrix: Box::new(m),
            })
            .collect(),
        Workload::Spgemm => cubie_prep::table4_matrices(sparse_scale)
            .into_iter()
            .map(|(info, m)| PreparedCase::Spgemm {
                info,
                matrix: Box::new(m),
            })
            .collect(),
        Workload::Bfs => cubie_prep::table3_graphs(graph_scale)
            .into_iter()
            .map(|(info, g)| {
                let source = g.max_degree_vertex();
                PreparedCase::Bfs {
                    info,
                    graph: Box::new(g),
                    source,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_workloads() {
        assert_eq!(Workload::ALL.len(), 10);
        assert_eq!(all_workloads().len(), 10);
    }

    #[test]
    fn quadrant_membership_matches_figure2() {
        use Quadrant::*;
        let expect = [
            (Workload::Gemm, I),
            (Workload::Pic, I),
            (Workload::Fft, I),
            (Workload::Stencil, I),
            (Workload::Scan, II),
            (Workload::Reduction, III),
            (Workload::Bfs, IV),
            (Workload::Gemv, IV),
            (Workload::Spmv, IV),
            (Workload::Spgemm, IV),
        ];
        for (w, q) in expect {
            assert_eq!(w.spec().quadrant, q, "{:?}", w);
        }
    }

    #[test]
    fn pic_has_no_baseline() {
        assert!(Workload::Pic.spec().baseline.is_none());
        assert!(!Workload::Pic.variants().contains(&Variant::Baseline));
        for w in Workload::ALL {
            if w != Workload::Pic {
                assert!(w.variants().contains(&Variant::Baseline), "{w:?}");
            }
        }
    }

    #[test]
    fn quadrant_one_has_no_distinct_cce() {
        for w in Workload::ALL {
            let s = w.spec();
            assert_eq!(
                s.distinct_cce,
                s.quadrant != Quadrant::I,
                "{w:?}: CC-E is distinct exactly outside Quadrant I"
            );
        }
    }

    #[test]
    fn dwarf_coverage_matches_table7() {
        // Cubie covers 7 dwarfs: dense LA (2 workloads), sparse LA (2),
        // spectral (1), N-Body (1), structured grids (1), MapReduce (2),
        // graph traversal (1).
        let mut by_dwarf = std::collections::HashMap::new();
        for w in Workload::ALL {
            *by_dwarf.entry(w.spec().dwarf).or_insert(0) += 1;
        }
        assert_eq!(by_dwarf.len(), 7);
        assert_eq!(by_dwarf["Dense linear algebra"], 2);
        assert_eq!(by_dwarf["Sparse linear algebra"], 2);
        assert_eq!(by_dwarf["MapReduce"], 2);
    }

    #[test]
    fn every_workload_prepares_five_cases() {
        for w in Workload::ALL {
            let cases = prepare_cases(w, 64, 512);
            assert_eq!(cases.len(), 5, "{w:?}");
            for (c, label) in cases.iter().zip(w.case_labels()) {
                assert!(c.useful_work() > 0.0, "{w:?} {label}");
            }
        }
    }

    #[test]
    fn case_labels_name_the_prepared_cases_in_order() {
        for w in Workload::ALL {
            assert_eq!(w.case_labels().len(), 5, "{w:?}");
        }
        // The labels of the generated-input workloads are their Table 3/4
        // inputs' names, in the order the prepared cases come back.
        for w in [Workload::Spmv, Workload::Spgemm, Workload::Bfs] {
            let prepared: Vec<String> = prepare_cases(w, 64, 512)
                .iter()
                .map(|c| match c {
                    PreparedCase::Spmv { info, .. } | PreparedCase::Spgemm { info, .. } => {
                        info.name.to_string()
                    }
                    PreparedCase::Bfs { info, .. } => info.name.to_string(),
                    _ => unreachable!("{w:?} prepares generated inputs"),
                })
                .collect();
            assert_eq!(w.case_labels(), prepared, "{w:?}");
        }
    }

    #[test]
    fn traces_exist_for_every_evaluated_variant() {
        for w in [Workload::Gemm, Workload::Scan, Workload::Spmv] {
            let cases = prepare_cases(w, 64, 512);
            for v in w.variants() {
                assert!(cases[0].trace(v).is_some(), "{w:?} {v}");
            }
        }
        // PiC baseline is explicitly absent.
        let pic_case = &prepare_cases(Workload::Pic, 1, 1)[0];
        assert!(pic_case.trace(Variant::Baseline).is_none());
        assert!(pic_case.trace(Variant::Tc).is_some());
    }
}
