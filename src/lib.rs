//! # SMASH — hierarchical-bitmap sparse matrix compression with
//! hardware-accelerated indexing
//!
//! This is the facade crate of a full reproduction of
//! *SMASH: Co-designing Software Compression and Hardware-Accelerated
//! Indexing for Efficient Sparse Matrix Operations* (Kanellopoulos et al.,
//! MICRO-52, 2019). It re-exports the workspace crates:
//!
//! * [`matrix`] — sparse-matrix formats (dense/COO/CSR/CSC/BCSR) and
//!   workload generators,
//! * [`encoding`] — the SMASH hierarchical-bitmap encoding (the paper's
//!   software contribution),
//! * [`sim`] — a cycle-approximate out-of-order CPU + memory-hierarchy
//!   simulator (the zsim substitute),
//! * [`bmu`] — the Bitmap Management Unit hardware model and the five-
//!   instruction SMASH ISA (the paper's hardware contribution),
//! * [`kernels`] — SpMV/SpMM/SpAdd kernels for every mechanism the paper
//!   evaluates, all generic over [`matrix::Scalar`] (`f64` and `f32`),
//!   plus the [`Executor`]: one entry point per operation (`spmv`,
//!   `spmm_dense` — column-tiled so one pass serves many right-hand
//!   sides — `spgemm`) over *format × precision × serial/parallel*;
//!   CSR → SMASH compression has the one serial encoder
//!   `SmashMatrix::encode`,
//! * [`parallel`] — a scoped thread pool plus the parallel drivers
//!   (`par_spmv_rows`, `par_spmm_dense_rows`),
//!   bit-identical to the serial ones at every thread count
//!   (`SMASH_THREADS` overrides the worker count),
//! * [`graph`] — PageRank and Betweenness Centrality built on the
//!   kernels, generic over precision through `Graph<T>`: one
//!   (personalized) PageRank loop and one native BC, both routing every
//!   product through the [`Executor`] (the batched PageRank serves one
//!   `Dense` of personalization vectors per pass), plus convergence-based
//!   PageRank over any row-readable operand (CSR, SMASH, dynamic).
//!
//! Mutating workloads keep their matrix in a [`DynamicMatrix`] — an
//! immutable CSR base tier plus a delta overlay of
//! pending `set`/`add`/`delete` mutations. Kernels read the merged view
//! directly (the overlay is a first-class executor operand,
//! bit-identical to a from-scratch rebuild), explicit
//! [`DynamicMatrix::compact`] folds the overlay back into a fresh base, and
//! `graph::IncrementalPageRank` builds warm-started dynamic-graph
//! PageRank on top.
//!
//! For untrusted input, the executor's `try_*` tier ([`Executor::try_spmv`]
//! and friends) validates operands up front, reports every failure mode
//! through the unified [`SmashError`], and degrades gracefully — worker
//! panics retry serially, over-budget SpGEMM can stream in row chunks
//! under a [`MemoryBudget`] — always returning either a typed error or a
//! bit-identical result.
//!
//! The repository's `docs/` directory holds the long-form guides:
//! `docs/ARCHITECTURE.md` (crate map and the data flow of one SpMV),
//! `docs/DISPATCH.md` (the measured cost-model planner behind
//! [`Executor::auto`]), `docs/SIMD.md` (the runtime-dispatched vector
//! kernel bodies and the lane-striped accumulation contract),
//! `docs/DYNAMIC.md` (the delta-overlay dynamic-matrix layer and
//! incremental PageRank), `docs/BENCHMARKS.md` (what every perf
//! snapshot asserts), and `docs/ROBUSTNESS.md` (the error taxonomy,
//! the degradation ladder, and the fault-injection suite). Their code
//! snippets compile as doctests of this crate.
//!
//! # Quickstart
//!
//! ```
//! use smash::encoding::{SmashConfig, SmashMatrix};
//! use smash::matrix::generators;
//! use smash::Executor;
//!
//! // A random sparse matrix, compressed with a 3-level bitmap hierarchy.
//! let a = generators::uniform(256, 256, 2048, 42);
//! let cfg = SmashConfig::row_major(&[2, 4, 16]).unwrap();
//! let sm = SmashMatrix::encode(&a, cfg);
//!
//! // The encoding is lossless...
//! assert_eq!(sm.decode(), a);
//! // ...and the non-zero values array stores whole blocks (paper §4.1).
//! assert_eq!(sm.nza().len() % 2, 0);
//!
//! // Compute runs through the executor: same entry point for CSR and the
//! // compressed form, serial/parallel picked automatically. For a given
//! // format the result is bit-identical whichever mode runs.
//! let exec = Executor::auto();
//! let x = vec![1.0f64; 256];
//! let (mut y_auto, mut y_serial) = (vec![0.0; 256], vec![0.0; 256]);
//! exec.spmv(&sm, &x, &mut y_auto);
//! Executor::serial().spmv(&sm, &x, &mut y_serial);
//! assert_eq!(y_auto, y_serial);
//! ```

#![deny(missing_docs)]

pub use smash_bmu as bmu;
pub use smash_core as encoding;
pub use smash_graph as graph;
pub use smash_kernels as kernels;
pub use smash_matrix as matrix;
pub use smash_parallel as parallel;
pub use smash_sim as sim;

pub use smash_core::{Delta, DeltaOverlay, DynamicBase, DynamicMatrix};
pub use smash_kernels::{
    Degradation, ExecMode, ExecReport, Executor, MemoryBudget, NonFinitePolicy, SmashError,
    SpmvOperand,
};

// Compile-check every Rust snippet in the README and the `docs/` guides
// as doctests: `cargo test --doc` fails if a guide drifts from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub struct ArchitectureDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/DISPATCH.md")]
pub struct DispatchDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/SIMD.md")]
pub struct SimdDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/DYNAMIC.md")]
pub struct DynamicDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/BENCHMARKS.md")]
pub struct BenchmarksDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/ROBUSTNESS.md")]
pub struct RobustnessDoctests;
