//! # cubie-serve
//!
//! `cubied`: the sweep-as-a-service daemon. Lifts the sweep engine's
//! process-wide memoization into a long-running server so repeated
//! characterization queries — the million-user traffic pattern — become
//! O(lookup):
//!
//! * [`proto`] — the line-delimited JSON wire protocol over a unix
//!   socket (`sweep`/`advise`/`profile`/`ping`/`stats`/`shutdown`).
//! * [`store`] — the content-addressed result store under
//!   `results/store/`, keyed by `hash(request identity, golden schema
//!   version, crate version)`, written atomically (via
//!   [`cubie_core::cas`]) through the canonical golden JSON writer so
//!   cache hits are bit-identical to fresh runs, and revalidated on
//!   startup (the golden differ is the validation oracle, reachable on
//!   demand via the `verify` request flag).
//! * [`server`] — the daemon itself: request batching/dedup (N
//!   concurrent identical requests → one execution), admission control
//!   (per-request job clamps, bounded pending queue with backpressure),
//!   per-daemon request counters served by `stats` (`hit` / `miss` /
//!   `dedup` / `exec` / …).
//!
//! Start it with `cubie serve`, talk to it with `cubie client` (see
//! README, "Running cubied").

#![warn(missing_docs)]

pub mod proto;
#[cfg(unix)]
pub mod server;
pub mod store;

pub use proto::{AdviseSpec, Request, SweepSpec, PROTO_VERSION};
#[cfg(unix)]
pub use server::{client_request, Daemon, Handle, ServeConfig};
pub use store::{Lookup, Store, StoreKey, STORE_SCHEMA};
