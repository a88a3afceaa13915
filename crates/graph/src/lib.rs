//! # cubie-graph
//!
//! Graph substrate for the BFS workload and the coverage analysis:
//!
//! * [`csr_graph`] — adjacency in CSR form with a serial reference BFS
//!   (the correctness oracle).
//! * [`bitmap`] — the BFS pull profile over the BerryBees 8×128 bitmap
//!   block slice-set format that feeds the single-bit `mma.m8n8k128`
//!   tensor-core BFS, computed from the CSR without building the bitmap.
//! * [`generators`] — synthetic stand-ins for the five SuiteSparse graphs
//!   of Table 3. `mycielskian17` is reconstructed **exactly** (the
//!   Mycielski construction is deterministic; our vertex and edge counts
//!   match the published 98 303 / 100 245 742). The web, social and
//!   Kronecker graphs are generated with RMAT/Kronecker samplers matched
//!   to the published vertex/edge counts and degree-skew class, with a
//!   `scale` divisor for affordable functional runs.
//! * [`features`] — structural graph features for the Figure 10a PCA.

#![warn(missing_docs)]

pub mod bitmap;
pub mod csr_graph;
pub mod features;
pub mod generators;

pub use csr_graph::CsrGraph;
pub use features::GraphFeatures;
pub use generators::{table3_graphs, table3_specs, GraphInfo};
