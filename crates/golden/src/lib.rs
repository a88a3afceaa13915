//! # cubie-golden
//!
//! The golden-artifact regression subsystem: turns `results/` from
//! write-only output into a verified contract.
//!
//! The repo's paper claims live in the figure/table artifacts `cubie
//! figure` emits — a silent numerical regression in the MMU emulator or the
//! timing simulator would ship unnoticed. This crate provides the three
//! pieces that prevent that:
//!
//! 1. [`json`] — a canonical serialization layer (stable key order,
//!    shortest-round-trip `f64` formatting) so artifact diffs are
//!    byte-meaningful;
//! 2. [`artifact`] — schema-versioned result tables whose columns carry
//!    a comparison [`Class`]: **bit-exact** for emulator numerics and
//!    instruction/byte counters, **relative-epsilon** for simulated
//!    times/energy/EDP, and **ordinal** for who-wins/limiter/quadrant
//!    claims;
//! 3. [`mod@diff`] — the tolerance-aware differ producing per-artifact
//!    pass/fail with the offending cells.
//!
//! The artifact *builders* live in `cubie-bench` (they need the sweep
//! engine); the `cubie golden record|check` CLI drives them against
//! committed snapshots under `results/golden/`.

#![warn(missing_docs)]

pub mod artifact;
pub mod diff;
pub mod json;

pub use artifact::{Artifact, Class, Column, DEFAULT_EPS, SCHEMA};
pub use diff::{diff, verify_bit_identical, ArtifactDiff, CellDiff, DiffReport};
pub use json::{fmt_f64, obj, Json};
