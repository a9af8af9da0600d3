//! Sparse kernels for every mechanism of the SMASH paper's evaluation.
//!
//! Two families:
//!
//! * **Instrumented kernels** ([`spmv`], [`spmm`], [`spadd`], [`convert`]) —
//!   compute the real result *and* describe their instruction stream
//!   (with data dependencies) to a `smash-sim` [`Engine`](smash_sim::Engine),
//!   so the simulator can time them on the Table 2 machine. These power the
//!   Fig. 3 and Figs. 10–17/20 experiments.
//! * **Native kernels** ([`native`]) — plain Rust for wall-clock runs on
//!   the host (the paper's real-system Fig. 9 experiment).
//!
//! The [`spgemm`] module is the native sparse × sparse engine: row-wise
//! Gustavson multiplication with symbolic sizing, per-row dense/hash
//! accumulators and direct CSR emission — triplet-exact to the
//! inner-product oracle and bit-identical at every thread count.
//!
//! The [`harness`] module dispatches by [`Mechanism`], building the right
//! operand encodings (CSR, 2x2 BCSR, SMASH bitmaps + NZA) internally.
//!
//! The [`executor`] module is the native-side counterpart: one
//! [`Executor`] entry point per operation over *format × precision ×
//! serial/parallel*, running each format's row view through one
//! serial/parallel driver pair (`smash_matrix::spmv_rows`,
//! `smash_parallel::par_spmv_rows`) that stays bit-identical at every
//! thread count.
//! Its `Auto` mode delegates to the [`planner`] module — a measured
//! cost model scoring *(format × kernel × threads)* candidates
//! against a checked-in calibration table, with the old shape/nnz
//! thresholds as its fallback tier. All kernels are generic over
//! [`smash_matrix::Scalar`] (`f64` and `f32` out of the box).
//!
//! A map of how these modules fit the wider workspace lives in
//! `docs/ARCHITECTURE.md` at the repository root; the planner's design
//! and calibration workflow in `docs/DISPATCH.md`.
//!
//! # Example
//!
//! ```
//! use smash_kernels::{harness, Mechanism};
//! use smash_core::SmashConfig;
//! use smash_matrix::generators;
//! use smash_sim::SystemConfig;
//!
//! let a = generators::uniform(64, 64, 400, 1);
//! let cfg = SmashConfig::row_major(&[2, 4, 16])?;
//! let csr = harness::sim_spmv(Mechanism::TacoCsr, &a, &cfg, &SystemConfig::paper_table2());
//! let smash = harness::sim_spmv(Mechanism::Smash, &a, &cfg, &SystemConfig::paper_table2());
//! assert!(smash.cycles < csr.cycles, "SMASH must win on this workload");
//! # Ok::<(), smash_core::SmashError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod convert;
pub mod error;
pub mod executor;
pub mod harness;
pub mod native;
pub mod operand;
pub mod planner;
pub mod spadd;
pub mod spgemm;
pub mod spmm;
pub mod spmv;

pub use common::{test_vector, Mechanism, VEC_WIDTH};
pub use error::SmashError;
pub use executor::{
    Degradation, ExecMode, ExecReport, Executor, MemoryBudget, NonFinitePolicy, SpmvOperand,
};
pub use planner::{MatrixProfile, Op, Plan, PlanRequest, Planner};
