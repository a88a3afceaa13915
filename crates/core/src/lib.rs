//! # cubie-core
//!
//! Core substrate for the Cubie-rs characterization suite: the matrix
//! multiplication unit (MMU) abstraction itself.
//!
//! The paper evaluates NVIDIA tensor cores as a representative MMU through
//! the warp-level `mma` PTX interface. Since no tensor-core hardware is
//! assumed here, this crate provides a *functional emulation* of that
//! interface with bit-exact FP64 arithmetic semantics:
//!
//! * [`mma`] — the MMA instructions themselves, with the accumulation
//!   order real FP64 tensor cores use (a chain of fused multiply-adds per
//!   output element) and the tiled FP16/BF16/TF32 MMA. Like published
//!   tensor-core models, they fix arithmetic and accumulation order, not
//!   which lane of the warp holds which element.
//! * [`counters`] — operation counters recorded during functional kernel
//!   execution and produced by analytic kernel traces; these drive the
//!   timing, power, and roofline models in `cubie-sim`.
//! * [`scalar`] — mixed-precision scalar formats (FP16 / BF16 / TF32),
//!   bit-accurate RN/RZ rounding helpers, and the per-generation
//!   accumulation semantics ([`scalar::MmaGen`]) the reduced-precision
//!   MMA models reproduce.
//! * [`rng`] — the Lehmer linear congruential generator the paper borrows
//!   from LINPACK for pseudo-random input initialization in `(-2, 2)`.
//! * [`complex`] — minimal complex arithmetic for the FFT workload.
//! * [`error`] — average / maximum numerical error metrics (Table 6).
//! * [`matrix`] — small row-major dense matrix container shared by the
//!   workloads.
//! * [`par`] — data-parallel helpers used by the functional executions
//!   of the workloads, running on the persistent worker pool in
//!   [`pool`]; includes LPT (longest-first) scheduling that reorders
//!   dispatch without changing any result bit.
//! * [`cas`] — the content-addressed store primitive (FNV-1a
//!   addressing, atomic writes, validator-driven revalidation) under the
//!   prepared-input store and the `cubied` result store.
//! * [`simd`] — SIMD-width implementations of the dominant inner loops
//!   (strided MMA core, CSR SpMV row, stencil star row) with runtime
//!   dispatch across scalar/AVX2/NEON, every path bit-identical
//!   to scalar (`CUBIE_SIMD` forces a path).

#![warn(missing_docs)]

pub mod cas;
pub mod complex;
pub mod counters;
pub mod error;
pub mod matrix;
pub mod mma;
pub mod par;
pub mod pool;
pub mod rng;
pub mod scalar;
pub mod simd;

pub use complex::C64;
pub use counters::{MemTraffic, OpCounters};
pub use error::ErrorStats;
pub use matrix::DenseMatrix;
pub use rng::{LcgF64, SplitMix64};
pub use scalar::{Bf16, MmaGen, Precision, Tf32, F16};

/// Number of threads in a warp — the cooperative execution group that owns
/// MMA fragments.
pub const WARP_SIZE: usize = 32;
