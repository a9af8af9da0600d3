//! Shared fixtures of the perf-snapshot binaries and the planner
//! calibrator under `src/bin/` — most importantly the [`zoo`] the
//! planner is calibrated and validated on.
//!
//! What each snapshot asserts, and how to regenerate it, is documented
//! in `docs/BENCHMARKS.md` at the repository root.

#![deny(missing_docs)]

pub mod zoo;
