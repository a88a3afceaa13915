//! Benchmark-suite coverage analyses (Section 10).
//!
//! * [`matrix_corpus_study`] / [`graph_corpus_study`] — Figure 10: PCA of
//!   structural features over a synthetic corpus standing in for the
//!   SuiteSparse collection, with the five Table 3/4 representatives
//!   projected into the same space, plus the dispersion / range-coverage
//!   metrics the paper quotes. Each corpus is built on the worker pool
//!   from per-item seeds drawn up front, and its features are extracted
//!   there too, so a study has the same bits for any job count.
//! * [`suite_diversity_study`] — Figure 11: PCA of architectural metrics
//!   over Rodinia, SHOC and Cubie workloads, with per-suite spread.
//! * [`TABLE7`] — the dwarf/feature comparison of Table 7.

use std::sync::Arc;

use cubie_core::par::par_map;
use cubie_device::DeviceSpec;
use cubie_graph::csr_graph::CsrGraph;
use cubie_graph::features::GraphFeatures;
use cubie_graph::generators as graph_gen;
use cubie_kernels::Workload;
use cubie_sim::WorkloadTrace;
use cubie_sparse::features::MatrixFeatures;
use cubie_sparse::generators as sparse_gen;
use cubie_sparse::Csr;
use serde::{Deserialize, Serialize};

use crate::metrics::{cubie_metrics, metrics_of};
use crate::minisuites;
use crate::pca::Pca;

/// One labelled point in the 2-D principal component space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcaPoint {
    /// Label ("corpus-…" or a representative's name).
    pub name: String,
    /// PC1/PC2 coordinates.
    pub xy: [f64; 2],
}

/// A Figure 10-style corpus study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusStudy {
    /// Background corpus projections.
    pub corpus: Vec<PcaPoint>,
    /// The five representatives' projections.
    pub representatives: Vec<PcaPoint>,
    /// Mean pairwise distance among the representatives (the paper's
    /// "dispersion").
    pub representative_dispersion: f64,
    /// Mean nearest-neighbour distance within the corpus (the paper's
    /// comparison value).
    pub nearest_neighbour_dispersion: f64,
    /// Fraction of each PC's corpus range spanned by the representatives.
    pub range_coverage: [f64; 2],
    /// Fraction of corpus points lying close to (within 25 % of the
    /// PC-space diagonal of) at least one representative.
    pub near_representative_fraction: f64,
    /// Variance explained by the two plotted components.
    pub explained_variance: f64,
}

fn finish_study(
    corpus_vecs: Vec<(String, Vec<f64>)>,
    rep_vecs: Vec<(String, Vec<f64>)>,
) -> CorpusStudy {
    let all: Vec<Vec<f64>> = corpus_vecs.iter().map(|(_, v)| v.clone()).collect();
    let pca = Pca::fit(&all);
    let project = |vs: &[(String, Vec<f64>)]| -> Vec<PcaPoint> {
        vs.iter()
            .map(|(n, v)| {
                let p = pca.project(v, 2);
                PcaPoint {
                    name: n.clone(),
                    xy: [p[0], p[1]],
                }
            })
            .collect()
    };
    let corpus = project(&corpus_vecs);
    let representatives = project(&rep_vecs);

    let dist = |a: &[f64; 2], b: &[f64; 2]| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();

    // Representative dispersion: mean pairwise distance.
    let mut dsum = 0.0;
    let mut dcnt = 0usize;
    for i in 0..representatives.len() {
        for j in i + 1..representatives.len() {
            dsum += dist(&representatives[i].xy, &representatives[j].xy);
            dcnt += 1;
        }
    }
    let representative_dispersion = dsum / dcnt.max(1) as f64;

    // Corpus nearest-neighbour dispersion.
    let mut nnsum = 0.0;
    for (i, p) in corpus.iter().enumerate() {
        let mut best = f64::INFINITY;
        for (j, q) in corpus.iter().enumerate() {
            if i != j {
                best = best.min(dist(&p.xy, &q.xy));
            }
        }
        nnsum += best;
    }
    let nearest_neighbour_dispersion = nnsum / corpus.len().max(1) as f64;

    // Range coverage per component.
    let mut range_coverage = [0.0f64; 2];
    for (c, rc) in range_coverage.iter_mut().enumerate() {
        let (cmin, cmax) = corpus
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.xy[c]), hi.max(p.xy[c]))
            });
        let (rmin, rmax) = representatives
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.xy[c]), hi.max(p.xy[c]))
            });
        *rc = if cmax > cmin {
            ((rmax - rmin) / (cmax - cmin)).min(1.0)
        } else {
            1.0
        };
    }

    // Near-representative fraction.
    let (xlo, xhi) = corpus
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.xy[0]), hi.max(p.xy[0]))
        });
    let (ylo, yhi) = corpus
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.xy[1]), hi.max(p.xy[1]))
        });
    let diag = ((xhi - xlo).powi(2) + (yhi - ylo).powi(2)).sqrt();
    let radius = 0.25 * diag;
    let near = corpus
        .iter()
        .filter(|p| representatives.iter().any(|r| dist(&p.xy, &r.xy) <= radius))
        .count();
    let near_representative_fraction = near as f64 / corpus.len().max(1) as f64;

    CorpusStudy {
        corpus,
        representatives,
        representative_dispersion,
        nearest_neighbour_dispersion,
        range_coverage,
        near_representative_fraction,
        explained_variance: pca.explained_variance(2),
    }
}

/// Figure 10b: PCA of matrix structural features over a synthetic corpus
/// of `corpus_size` matrices, with the five Table 4 representatives
/// (generated at `rep_scale`). Feature extraction fans out across the
/// worker pool; results are collected in order.
pub fn matrix_corpus_study(corpus_size: usize, rep_scale: usize, seed: u64) -> CorpusStudy {
    let features = |matrices: Vec<(String, Csr)>| -> Vec<(String, Vec<f64>)> {
        let vecs = par_map(matrices.len(), |i| {
            MatrixFeatures::of(&matrices[i].1).to_vec()
        });
        matrices.into_iter().map(|(n, _)| n).zip(vecs).collect()
    };
    let corpus_vecs = features(sparse_gen::diverse_corpus(corpus_size, seed));
    let reps = sparse_gen::table4_matrices(rep_scale)
        .into_iter()
        .map(|(info, m)| (info.name.to_string(), m))
        .collect();
    finish_study(corpus_vecs, features(reps))
}

/// Figure 10a: PCA of graph structural features over a synthetic corpus
/// of `corpus_size` graphs, with the five Table 3 representatives at
/// `rep_scale`, read through the prepared-input store
/// ([`cubie_prep::table3_graphs`]: loaded from a snapshot when one is
/// recorded, generated and recorded otherwise; the bits are the same
/// either way). Feature extraction fans out across the worker pool;
/// results are collected in order, so the study is the same for any job
/// count.
pub fn graph_corpus_study(corpus_size: usize, rep_scale: usize, seed: u64) -> CorpusStudy {
    let features = |graphs: Vec<(String, CsrGraph)>| -> Vec<(String, Vec<f64>)> {
        let vecs = par_map(graphs.len(), |i| GraphFeatures::of(&graphs[i].1).to_vec());
        graphs.into_iter().map(|(n, _)| n).zip(vecs).collect()
    };
    let corpus_vecs = features(graph_gen::diverse_graph_corpus(corpus_size, seed));
    let reps = cubie_prep::table3_graphs(rep_scale)
        .into_iter()
        .map(|(info, g)| (info.name.to_string(), g))
        .collect();
    finish_study(corpus_vecs, features(reps))
}

/// A Figure 11-style suite diversity study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SuiteStudy {
    /// Projected points with their suite label.
    pub points: Vec<(String, &'static str, [f64; 2])>,
    /// Per-suite spread: mean distance to the suite centroid, keyed by
    /// suite name.
    pub spread: Vec<(&'static str, f64)>,
}

/// Figure 11: PCA of architectural metrics across Rodinia, SHOC and
/// Cubie workloads on `device`. `cubie_tc_traces` holds each Cubie
/// workload's TC trace of its
/// [`REPRESENTATIVE_CASE`](crate::metrics::REPRESENTATIVE_CASE), in
/// Table 2 order.
pub fn suite_diversity_study(
    device: &DeviceSpec,
    cubie_tc_traces: &[(Workload, Arc<WorkloadTrace>)],
) -> SuiteStudy {
    let mut all = Vec::new();
    for k in minisuites::rodinia() {
        all.push(metrics_of(k.name, "Rodinia", device, &k.trace));
    }
    for k in minisuites::shoc() {
        all.push(metrics_of(k.name, "SHOC", device, &k.trace));
    }
    all.extend(cubie_metrics(device, cubie_tc_traces));

    let vecs: Vec<Vec<f64>> = all.iter().map(|a| a.values.clone()).collect();
    let pca = Pca::fit(&vecs);
    let points: Vec<(String, &'static str, [f64; 2])> = all
        .iter()
        .map(|a| {
            let p = pca.project(&a.values, 2);
            (a.name.clone(), a.suite, [p[0], p[1]])
        })
        .collect();

    let mut spread = Vec::new();
    for suite in ["Rodinia", "SHOC", "Cubie"] {
        let pts: Vec<&[f64; 2]> = points
            .iter()
            .filter(|(_, s, _)| *s == suite)
            .map(|(_, _, p)| p)
            .collect();
        let cx = pts.iter().map(|p| p[0]).sum::<f64>() / pts.len() as f64;
        let cy = pts.iter().map(|p| p[1]).sum::<f64>() / pts.len() as f64;
        let s = pts
            .iter()
            .map(|p| ((p[0] - cx).powi(2) + (p[1] - cy).powi(2)).sqrt())
            .sum::<f64>()
            / pts.len() as f64;
        spread.push((suite, s));
    }
    SuiteStudy { points, spread }
}

/// One Table 7 row: dwarf coverage counts per suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DwarfRow {
    /// Dwarf name.
    pub dwarf: &'static str,
    /// Rodinia workload count (paper's Table 7).
    pub rodinia: u32,
    /// SHOC workload count.
    pub shoc: u32,
    /// Cubie workload count.
    pub cubie: u32,
}

/// Table 7's dwarf rows.
pub const TABLE7: [DwarfRow; 9] = [
    DwarfRow {
        dwarf: "Dense linear algebra",
        rodinia: 3,
        shoc: 2,
        cubie: 2,
    },
    DwarfRow {
        dwarf: "Sparse linear algebra",
        rodinia: 0,
        shoc: 0,
        cubie: 2,
    },
    DwarfRow {
        dwarf: "Spectral methods",
        rodinia: 0,
        shoc: 1,
        cubie: 1,
    },
    DwarfRow {
        dwarf: "N-Body",
        rodinia: 0,
        shoc: 1,
        cubie: 1,
    },
    DwarfRow {
        dwarf: "Structured grids",
        rodinia: 4,
        shoc: 1,
        cubie: 1,
    },
    DwarfRow {
        dwarf: "Unstructured grids",
        rodinia: 2,
        shoc: 0,
        cubie: 0,
    },
    DwarfRow {
        dwarf: "MapReduce",
        rodinia: 0,
        shoc: 3,
        cubie: 2,
    },
    DwarfRow {
        dwarf: "Graph traversal",
        rodinia: 2,
        shoc: 0,
        cubie: 1,
    },
    DwarfRow {
        dwarf: "Dynamic programming",
        rodinia: 1,
        shoc: 0,
        cubie: 0,
    },
];

/// Features evaluated per suite (Table 7's lower half).
pub const TABLE7_FEATURES: [(&str, [bool; 3]); 6] = [
    ("Parallelization pattern", [true, false, true]),
    ("Performance", [true, true, true]),
    ("Power and energy", [true, true, true]),
    ("Precision", [false, false, true]),
    ("Memory bandwidth", [false, true, true]),
    ("CPU-GPU data transfer", [true, true, false]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::representative_tc_traces;
    use cubie_device::h200;

    #[test]
    fn matrix_study_metrics_behave() {
        let s = matrix_corpus_study(60, 32, 11);
        assert_eq!(s.representatives.len(), 5);
        assert!(s.representative_dispersion.is_finite());
        assert!(
            s.representative_dispersion > s.nearest_neighbour_dispersion,
            "representatives ({}) should be more dispersed than corpus \
             nearest neighbours ({}) — the paper's Figure 10 claim",
            s.representative_dispersion,
            s.nearest_neighbour_dispersion
        );
        assert!(s.range_coverage[0] > 0.1);
        assert!(s.explained_variance > 0.4);
    }

    #[test]
    fn graph_study_metrics_behave() {
        let s = graph_corpus_study(40, 256, 13);
        assert_eq!(s.representatives.len(), 5);
        assert!(s.representative_dispersion > s.nearest_neighbour_dispersion);
        assert!(s.near_representative_fraction > 0.4);
    }

    #[test]
    fn cubie_spreads_wider_than_rodinia_and_shoc() {
        let study = suite_diversity_study(&h200(), &representative_tc_traces(64, 512));
        let get = |name: &str| {
            study
                .spread
                .iter()
                .find(|(s, _)| *s == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let (cubie, rodinia, shoc) = (get("Cubie"), get("Rodinia"), get("SHOC"));
        // Observation 9: Cubie spans a wider behavioural area.
        assert!(
            cubie > rodinia && cubie > shoc,
            "Cubie spread {cubie:.3} vs Rodinia {rodinia:.3} / SHOC {shoc:.3}"
        );
    }

    #[test]
    fn table7_totals_match_paper() {
        let rodinia: u32 = TABLE7.iter().map(|r| r.rodinia).sum();
        let shoc: u32 = TABLE7.iter().map(|r| r.shoc).sum();
        let cubie: u32 = TABLE7.iter().map(|r| r.cubie).sum();
        assert_eq!(rodinia, 12);
        assert_eq!(shoc, 8);
        assert_eq!(cubie, 10, "Cubie's ten workloads");
        // Dwarf counts: Rodinia 5, SHOC 5, Cubie 7.
        assert_eq!(TABLE7.iter().filter(|r| r.rodinia > 0).count(), 5);
        assert_eq!(TABLE7.iter().filter(|r| r.shoc > 0).count(), 5);
        assert_eq!(TABLE7.iter().filter(|r| r.cubie > 0).count(), 7);
    }

    #[test]
    fn cubie_evaluates_five_features() {
        let cubie_features = TABLE7_FEATURES.iter().filter(|(_, v)| v[2]).count();
        assert_eq!(cubie_features, 5, "Table 7: Cubie evaluates 5 features");
    }
}
