//! # cubie-sparse
//!
//! Sparse-matrix substrate for the SpMV / SpGEMM workloads and the
//! benchmark-coverage analysis:
//!
//! * [`coo`] / [`csr`] — coordinate and compressed-sparse-row storage,
//!   with serial reference kernels (the paper's CPU ground truth).
//! * [`mbsr`] — the mBSR blocked format (4×4 blocks, pairable into the
//!   8×4 MMA operand shape) used by the AmgT SpGEMM kernel.
//! * [`generators`] — synthetic stand-ins for the five SuiteSparse
//!   matrices of Table 4 (paper inputs are not redistributable here);
//!   each generator reproduces the published row count, a closely
//!   matching nonzero count, and the structure class that drives sparse
//!   kernel behaviour (lattice stencil, stiffness band, FEM blocks…).
//! * [`features`] — structural feature extraction (sparsity, degree
//!   statistics, bandwidth, block structure) feeding the PCA coverage
//!   study of Figure 10.

#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod features;
pub mod generators;
pub mod mbsr;

pub use coo::Coo;
pub use csr::Csr;
pub use features::MatrixFeatures;
pub use generators::{table4_matrices, table4_specs, MatrixInfo};
pub use mbsr::Mbsr;
