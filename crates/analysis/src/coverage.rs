//! Benchmark-suite coverage analyses (Section 10).
//!
//! * [`corpus_studies`] (and [`graph_corpus_study`] for the graph half
//!   alone) — Figure 10: PCA of
//!   structural features over a synthetic corpus standing in for the
//!   SuiteSparse collection, with the five Table 3/4 representatives
//!   projected into the same space, plus the dispersion / range-coverage
//!   metrics the paper quotes. Every input of both studies is one task
//!   of a single pool fan-out, heaviest (the representatives) first.
//!   Each input is loaded from the prepared-input store, or generated
//!   and recorded there: a representative by name and scale
//!   ([`cubie_prep::Table::case`]), a corpus item by its family and its
//!   own seed, drawn up front ([`cubie_prep::Corpus::item`]). Each task
//!   featurises its input and drops it, so only the inputs in flight
//!   are in memory. The vectors are collected in index order, so a
//!   study has the same bits for any job count and any store state.
//! * [`suite_diversity_study`] — Figure 11: PCA of architectural metrics
//!   over Rodinia, SHOC and Cubie workloads, with per-suite spread.
//! * [`TABLE7`] — the dwarf/feature comparison of Table 7.

use std::sync::Arc;

use cubie_core::par::par_map_lpt;
use cubie_device::DeviceSpec;
use cubie_graph::csr_graph::CsrGraph;
use cubie_graph::features::GraphFeatures;
use cubie_graph::generators as graph_gen;
use cubie_kernels::Workload;
use cubie_prep::{Corpus, LoadReport, PrepCase, PrepConfig, Table};
use cubie_sim::WorkloadTrace;
use cubie_sparse::features::MatrixFeatures;
use cubie_sparse::generators as sparse_gen;
use cubie_sparse::Csr;

use crate::metrics::{cubie_metrics, metrics_of};
use crate::minisuites;
use crate::pca::Pca;

/// One labelled point in the 2-D principal component space.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaPoint {
    /// Label ("corpus-…" or a representative's name).
    pub name: String,
    /// PC1/PC2 coordinates.
    pub xy: [f64; 2],
}

/// A Figure 10-style corpus study.
#[derive(Debug, Clone, PartialEq)]
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

/// What one Figure 10 study is built from: `corpus` corpus items drawn
/// from `seed`, and the five Table 3/4 representatives at the scale
/// divisor `rep_scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyInputs {
    /// Number of corpus items.
    pub corpus: usize,
    /// Scale divisor of the representatives.
    pub rep_scale: usize,
    /// Corpus seed; item `i` is built from its draw `i`.
    pub seed: u64,
}

/// Figure 10's two studies, (graphs, matrices), from one pool fan-out
/// over all of their inputs, heaviest first: each task builds or loads
/// one input, featurises it and drops it.
pub fn corpus_studies(graphs: StudyInputs, matrices: StudyInputs) -> (CorpusStudy, CorpusStudy) {
    let graphs = Study::<CsrGraph>::new(graphs);
    let matrices = Study::<Csr>::new(matrices);
    let [graphs, matrices]: [CorpusStudy; 2] = fan_out(&[&graphs, &matrices])
        .try_into()
        .expect("one study per input set");
    (graphs, matrices)
}

/// Figure 10a alone: PCA of graph structural features over a synthetic
/// corpus of `corpus_size` graphs, with the five Table 3 representatives
/// at `rep_scale`, all read through the prepared-input store.
pub fn graph_corpus_study(corpus_size: usize, rep_scale: usize, seed: u64) -> CorpusStudy {
    study::<CsrGraph>(StudyInputs {
        corpus: corpus_size,
        rep_scale,
        seed,
    })
}

/// One study on its own fan-out.
fn study<T: Fig10Case>(inputs: StudyInputs) -> CorpusStudy {
    fan_out(&[&Study::<T>::new(inputs)]).remove(0)
}

/// A Figure 10 input kind: its Table 3/4 representatives and the
/// structural features its PCA reads.
trait Fig10Case: PrepCase + Send {
    /// The representatives' names and published sizes (entries).
    fn representatives() -> Vec<(&'static str, f64)>;
    /// The structural feature vector.
    fn features(&self) -> Vec<f64>;
}

impl Fig10Case for CsrGraph {
    fn representatives() -> Vec<(&'static str, f64)> {
        graph_gen::table3_specs()
            .iter()
            .map(|s| (s.name, s.edges as f64))
            .collect()
    }

    fn features(&self) -> Vec<f64> {
        GraphFeatures::of(self).to_vec()
    }
}

impl Fig10Case for Csr {
    fn representatives() -> Vec<(&'static str, f64)> {
        sparse_gen::table4_specs()
            .iter()
            .map(|s| (s.name, s.nnz as f64))
            .collect()
    }

    fn features(&self) -> Vec<f64> {
        MatrixFeatures::of(self).to_vec()
    }
}

/// One study's labelled feature vector, with the prep accounting of the
/// input it came from.
type Featurised = (String, Vec<f64>, LoadReport);

/// A study as [`fan_out`] sees it: `len` inputs, each featurised on its
/// own, then one [`finish_study`] over the vectors in index order.
trait StudyTasks: Sync {
    fn len(&self) -> usize;
    fn cost(&self, i: usize) -> f64;
    fn featurise(&self, i: usize) -> Featurised;
    fn finish(&self, vecs: Vec<Featurised>) -> CorpusStudy;
}

/// One study's inputs: the items of `corpus`, then the representatives
/// in `table`, each loaded or generated and recorded through the store.
struct Study<T> {
    corpus: Corpus<T>,
    reps: Vec<(&'static str, f64)>,
    rep_scale: usize,
    table: Table<T>,
}

impl<T: Fig10Case> Study<T> {
    fn new(inputs: StudyInputs) -> Study<T> {
        let cfg = PrepConfig::from_env();
        Study {
            corpus: Corpus::open(&cfg, inputs.seed, inputs.corpus),
            reps: T::representatives(),
            rep_scale: inputs.rep_scale,
            table: Table::open(&cfg, inputs.rep_scale),
        }
    }
}

impl<T: Fig10Case> StudyTasks for Study<T> {
    fn len(&self) -> usize {
        self.corpus.len() + self.reps.len()
    }

    /// A representative costs its scaled size; corpus items are small
    /// next to the largest of them and follow in index order.
    fn cost(&self, i: usize) -> f64 {
        match i.checked_sub(self.corpus.len()) {
            Some(r) => self.reps[r].1 / self.rep_scale as f64,
            None => 0.0,
        }
    }

    /// Load or build input `i`, featurise it and drop it.
    fn featurise(&self, i: usize) -> Featurised {
        match i.checked_sub(self.corpus.len()) {
            Some(r) => {
                let name = self.reps[r].0;
                let (case, report) = self.table.case(name);
                (name.to_string(), case.features(), report)
            }
            None => {
                let (name, case, report) = self.corpus.item(i);
                (name, case.features(), report)
            }
        }
    }

    fn finish(&self, vecs: Vec<Featurised>) -> CorpusStudy {
        let mut reports = [LoadReport::default(); 2];
        let mut corpus_vecs: Vec<(String, Vec<f64>)> = vecs
            .into_iter()
            .enumerate()
            .map(|(i, (name, v, r))| {
                reports[usize::from(i >= self.corpus.len())] += r;
                (name, v)
            })
            .collect();
        let rep_vecs = corpus_vecs.split_off(self.corpus.len());
        self.corpus.finish(&reports[0]);
        self.table.finish(&reports[1]);
        finish_study(corpus_vecs, rep_vecs)
    }
}

/// Featurise every input of `studies` in one [`par_map_lpt`], heaviest
/// first, each task building or loading one input and dropping it once
/// its vector is taken; then finish each study on its vectors in index
/// order, so every bit is that of a serial build for any job count.
fn fan_out(studies: &[&dyn StudyTasks]) -> Vec<CorpusStudy> {
    let tasks: Vec<(usize, usize)> = studies
        .iter()
        .enumerate()
        .flat_map(|(s, study)| (0..study.len()).map(move |i| (s, i)))
        .collect();
    let mut vecs = par_map_lpt(
        tasks.len(),
        |t| studies[tasks[t].0].cost(tasks[t].1),
        |t| studies[tasks[t].0].featurise(tasks[t].1),
    )
    .into_iter();
    studies
        .iter()
        .map(|study| study.finish(vecs.by_ref().take(study.len()).collect()))
        .collect()
}

/// A Figure 11-style suite diversity study.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let s = study::<Csr>(StudyInputs {
            corpus: 60,
            rep_scale: 32,
            seed: 11,
        });
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

    /// The Figure 10 studies as they were built before the single
    /// fan-out, unchanged: each stage builds all of its inputs, then
    /// featurises them. The oracle of [`corpus_studies`].
    mod two_phase {
        use super::super::*;
        use cubie_core::par::par_map;

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
    }

    /// Every name and every bit of a study, in order.
    fn study_bits(s: &CorpusStudy) -> Vec<(String, u64)> {
        let mut bits: Vec<(String, u64)> = s
            .corpus
            .iter()
            .chain(&s.representatives)
            .flat_map(|p| p.xy.map(|c| (p.name.clone(), c.to_bits())))
            .collect();
        for (i, v) in [
            s.representative_dispersion,
            s.nearest_neighbour_dispersion,
            s.range_coverage[0],
            s.range_coverage[1],
            s.near_representative_fraction,
            s.explained_variance,
        ]
        .into_iter()
        .enumerate()
        {
            bits.push((format!("summary-{i}"), v.to_bits()));
        }
        bits
    }

    /// Representative scales of the oracle checks: small enough for a
    /// debug build, large enough that every representative has
    /// non-trivial structure.
    const GRAPH_REP_SCALE: usize = 2048;
    const MATRIX_REP_SCALE: usize = 64;

    fn fan_out_matches_two_phase(graphs: usize, matrices: usize, seed: u64) {
        let inputs = |corpus, rep_scale, seed| StudyInputs {
            corpus,
            rep_scale,
            seed,
        };
        let (g, m) = corpus_studies(
            inputs(graphs, GRAPH_REP_SCALE, seed),
            inputs(matrices, MATRIX_REP_SCALE, seed ^ 1),
        );
        let g_old = two_phase::graph_corpus_study(graphs, GRAPH_REP_SCALE, seed);
        let m_old = two_phase::matrix_corpus_study(matrices, MATRIX_REP_SCALE, seed ^ 1);
        assert_eq!(
            study_bits(&g),
            study_bits(&g_old),
            "graph study, seed {seed}"
        );
        assert_eq!(
            study_bits(&m),
            study_bits(&m_old),
            "matrix study, seed {seed}"
        );
        let one = graph_corpus_study(graphs, GRAPH_REP_SCALE, seed);
        assert_eq!(study_bits(&one), study_bits(&g_old), "graph study alone");
        let one = study::<Csr>(inputs(matrices, MATRIX_REP_SCALE, seed ^ 1));
        assert_eq!(study_bits(&one), study_bits(&m_old), "matrix study alone");
    }

    #[test]
    fn fan_out_is_bit_identical_to_the_two_phase_studies() {
        fan_out_matches_two_phase(12, 20, 0xF16A);
        fan_out_matches_two_phase(7, 3, 5);
    }

    #[test]
    fn fan_out_bits_do_not_depend_on_the_worker_count() {
        let _guard = cubie_core::pool::cap_lock();
        let inputs = |corpus, rep_scale| StudyInputs {
            corpus,
            rep_scale,
            seed: 21,
        };
        let run = |jobs| {
            let prev = cubie_core::par::set_max_workers(jobs);
            let (g, m) = corpus_studies(inputs(11, GRAPH_REP_SCALE), inputs(17, MATRIX_REP_SCALE));
            cubie_core::par::set_max_workers(prev);
            (study_bits(&g), study_bits(&m))
        };
        let serial = run(1);
        assert_eq!(serial, run(3), "jobs 3");
        assert_eq!(serial, run(2), "jobs 2");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn fan_out_matches_two_phase_for_any_corpus(
            graphs in 2usize..10,
            matrices in 2usize..14,
            seed in 0u64..u64::MAX,
        ) {
            fan_out_matches_two_phase(graphs, matrices, seed);
        }
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
