//! # cubie-analysis
//!
//! The characterization analyses of the paper, built on the suite:
//!
//! * [`pca`] — standardization + principal component analysis
//!   (covariance matrix + Jacobi eigensolver), the paper's tool for the
//!   coverage studies of Figures 10 and 11.
//! * [`coverage`] — the input-representativeness study (Figure 10): PCA
//!   over synthetic matrix/graph corpora with the five Table 3/4
//!   representatives highlighted, plus the dispersion and range-coverage
//!   metrics the paper reports; and the dwarf/feature comparison of
//!   Table 7.
//! * [`metrics`] — NCU-style architectural metric extraction (memory
//!   efficiency, compute throughput, FMA/tensor pipe utilization) from
//!   simulated workload timings, feeding the suite-diversity PCA of
//!   Figure 11.
//! * [`minisuites`] — profile models of representative Rodinia and SHOC
//!   kernels (the comparison points of Figure 11 and Table 7).
//! * [`quadrants`] — the MMU utilization categorization of Figure 2:
//!   input/output operand utilization fractions per workload.
//! * [`errors`] — the FP64 accuracy study of Table 6: functional runs of
//!   every workload variant against the serial CPU ground truth.
//! * [`advisor`] — the Section 4 future-work extension: predict MMU
//!   accelerability from an existing CUDA-core implementation's trace
//!   plus a description of its MMA mapping.
//! * [`report`] — markdown/CSV rendering helpers shared by the artifact
//!   renderer and the `cubie` CLI.

#![warn(missing_docs)]

pub mod advisor;
pub mod coverage;
pub mod errors;
pub mod metrics;
pub mod minisuites;
pub mod pca;
pub mod quadrants;
pub mod report;

pub use pca::Pca;
