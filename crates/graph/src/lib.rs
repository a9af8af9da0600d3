//! Graph substrate and applications for the SMASH reproduction: the
//! PageRank and Betweenness Centrality workloads of the paper's §6 and
//! Fig. 18, built as iterated SpMV over the mechanisms of `smash-kernels`.
//!
//! Each variant has one native loop. Which format and how many threads
//! run it is a property of the operand or the
//! [`Executor`](smash_kernels::Executor), not of the function name:
//!
//! * [`personalized_pagerank`] and [`personalized_pagerank_batched`] share
//!   one fixed-iteration loop over `Executor::spmv` / `spmm_dense`; a
//!   uniform restart vector ([`uniform_ranks`]) makes it plain PageRank.
//! * [`pagerank_power`] runs to convergence over any `RowRead` operand
//!   (CSR, SMASH, dynamic); [`IncrementalPageRank`] builds on it.
//! * [`betweenness_native`] is level-synchronous Brandes with every
//!   level's SpMV routed through the executor.
//! * [`pagerank()`] and [`betweenness()`] are the simulated runs behind the
//!   paper's figures, CSR vs. SMASH through [`GraphMechanism`];
//!   [`pagerank_reference`] and [`betweenness_reference`] are the
//!   uninstrumented oracles.
//!
//! # Example
//!
//! ```
//! use smash_graph::{generators, pagerank, GraphMechanism, PageRankConfig};
//! use smash_sim::CountEngine;
//!
//! let g = generators::rmat(128, 512, 42);
//! let cfg = PageRankConfig { iterations: 3, ..Default::default() };
//! let mut e = CountEngine::new();
//! let ranks = pagerank::pagerank(&mut e, GraphMechanism::Csr, &g, &cfg);
//! assert_eq!(ranks.len(), g.vertices());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod bc;
pub mod generators;
mod graph;
pub mod incremental;
pub mod pagerank;
pub mod triangles;

pub use batched::{personalized_pagerank, personalized_pagerank_batched, seed_batch};
pub use bc::{betweenness, betweenness_native, betweenness_reference, BcConfig};
pub use generators::{generate_graphs, paper_graphs, GraphSpec};
pub use graph::Graph;
pub use incremental::{pagerank_power, uniform_ranks, IncrementalPageRank, PowerSolve};
pub use pagerank::{pagerank, pagerank_reference, GraphMechanism, PageRankConfig};
pub use triangles::{triangle_count, two_hop_counts, undirected_adjacency};
