//! Multi-core execution layer for the SMASH reproduction: a small scoped
//! thread pool plus the parallel drivers of the native hot paths.
//!
//! The paper's premise is that removing the indexing bottleneck lets
//! sparse kernels run at memory speed — which on a real host also means
//! using every core. This crate supplies:
//!
//! * [`ThreadPool`] — a from-scratch scoped pool (std threads + channels)
//!   with clean shutdown, panic propagation and a `SMASH_THREADS`
//!   environment override ([`default_threads`]);
//! * [`partition_by_weight`] — deterministic, weight-balanced
//!   contiguous range partitioning;
//! * [`par_spmv_rows`], [`par_spmm_dense_rows`] — the parallel SpMV and
//!   dense-SpMM drivers over any `RowRead` operand (CSR, BCSR, SMASH,
//!   dynamic), both **bit-identical** to their serial counterparts at
//!   every thread count, because workers own disjoint contiguous output
//!   ranges and each line is computed by the serial loop body in serial
//!   order.
//!
//! # Example
//!
//! ```
//! use smash_parallel::{par_spmv_rows, ThreadPool};
//! use smash_matrix::{generators, spmv_rows};
//!
//! let a = generators::uniform(128, 128, 900, 42);
//! let x = vec![1.0; 128];
//! let pool = ThreadPool::new(4);
//! let mut y_par = vec![0.0; 128];
//! par_spmv_rows(&pool, &a, &x, &mut y_par);
//!
//! let mut y_ser = vec![0.0; 128];
//! spmv_rows(&a, &x, &mut y_ser);
//! assert_eq!(y_par, y_ser); // bit-identical, not just close
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "fault-injection")]
pub mod faultinject;
mod kernels;
mod partition;
mod pool;

pub use kernels::{par_spmm_dense_rows, par_spmv_rows};
pub use partition::partition_by_weight;
pub use pool::{
    default_threads, threads_from_env, Scope, ThreadPool, ThreadsEnvError, THREADS_ENV,
};
