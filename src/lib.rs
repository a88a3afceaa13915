//! # Cubie-rs
//!
//! A Rust reproduction of the Cubie benchmark suite from
//! *"Characterizing Matrix Multiplication Units across General Parallel
//! Patterns in Scientific Computing"* (PPoPP 2026): ten MMU-optimized
//! scientific kernels in Baseline / TC / CC / CC-E variants, a functional
//! FP64 tensor-core (MMU) emulator, an analytic GPU timing/power
//! simulator for A100 / H200 / B200, and the analysis machinery
//! (roofline, PCA coverage, EDP, numerical error) that regenerates every
//! table and figure of the paper.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — MMA semantics, op counters, RNG, error metrics.
//! * [`device`] — A100/H200/B200 device specifications.
//! * [`sim`] — timing, power/EDP, and roofline models.
//! * [`sparse`] — sparse formats and synthetic SuiteSparse-like matrices.
//! * [`graph`] — graphs, bitmap slice-sets, synthetic graph generators.
//! * [`kernels`] — the ten workloads and their variants.
//! * [`analysis`] — PCA, coverage, quadrants, report rendering.
//! * [`mod@bench`] — the parallel cached sweep engine every figure/table
//!   harness projects from (`bench::sweep`), plus the canonical artifact
//!   builders (`bench::artifacts`).
//! * [`golden`] — canonical JSON, the artifact schema, and the
//!   tolerance-aware golden differ behind `cubie golden record|check`.
//! * [`obs`] — the always-compiled span/counter instrumentation layer
//!   behind `cubie profile` (phase hotspots + Chrome traces).
//! * [`prep`] — the persistent prepared-input store: content-addressed
//!   checksummed snapshots of the Table 3/4 inputs and Figure 10's corpus
//!   under `results/prep`, loaded on warm starts, generated in parallel
//!   on cold ones.
//! * [`serve`] — `cubied`, the sweep-as-a-service daemon: line-delimited
//!   JSON over a unix socket, request dedup, admission control, and a
//!   content-addressed result store (`cubie serve` / `cubie client`).
//!
//! ## Quickstart
//!
//! ```
//! use cubie::device::h200;
//! use cubie::kernels::gemm::{self, GemmCase};
//! use cubie::kernels::Variant;
//! use cubie::sim::time_workload;
//!
//! let case = GemmCase::square(2048);
//! let dev = h200();
//! let tc = time_workload(&dev, &gemm::trace(&case, Variant::Tc));
//! let cc = time_workload(&dev, &gemm::trace(&case, Variant::Cc));
//! assert!(tc.total_s < cc.total_s, "tensor cores beat CUDA cores on GEMM");
//! ```

#![warn(missing_docs)]

/// Allocation telemetry for everything linking this facade (the `cubie`
/// CLI, the root integration tests, the examples): every span recorded by
/// [`obs`] carries `alloc_count` / `alloc_bytes` for its phase, and
/// `cubie profile` prints them in its allocs column. Leaf crates that
/// are used without the facade don't count (their counters read 0).
#[global_allocator]
static ALLOC: cubie_obs::alloc::CountingAlloc = cubie_obs::alloc::CountingAlloc;

pub use cubie_analysis as analysis;
pub use cubie_bench as bench;
pub use cubie_core as core;
pub use cubie_device as device;
pub use cubie_golden as golden;
pub use cubie_graph as graph;
pub use cubie_kernels as kernels;
pub use cubie_obs as obs;
pub use cubie_prep as prep;
pub use cubie_serve as serve;
pub use cubie_sim as sim;
pub use cubie_sparse as sparse;
