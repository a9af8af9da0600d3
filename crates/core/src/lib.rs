//! The SMASH hierarchical-bitmap sparse-matrix encoding — the software half
//! of the paper's contribution (§3.2, §4.1).
//!
//! A sparse matrix is compressed into two structures:
//!
//! * a [`BitmapHierarchy`]: Bitmap-0 marks which fixed-size element blocks
//!   contain non-zeros; each higher bitmap summarizes groups of bits of the
//!   level below with a configurable compression ratio. Only the top level
//!   is stored in full — lower levels keep just the child groups of set
//!   parent bits (Fig. 4(b));
//! * an [`Nza`] (Non-Zero Values Array) holding one block of values per set
//!   Bitmap-0 bit, including any explicit zeros inside a block.
//!
//! [`SmashMatrix`] ties both together with the matrix geometry and the
//! [`SmashConfig`] (per-level ratios + row/column-major [`Layout`]), and
//! carries a [`LineDirectory`] — per-line NZA starts and per-level stored
//! positions — so a [`LineCursor`] reaches any row of the compressed form
//! in O(1) and walks it without expanding the bitmaps or issuing a rank
//! or select (the software analogue of the paper's BMU indexing).
//!
//! # Example
//!
//! ```
//! use smash_core::{SmashConfig, SmashMatrix};
//! use smash_matrix::generators;
//!
//! // Compress a banded matrix with the paper's default "16.4.2" hierarchy.
//! let a = generators::banded(128, 128, 4, 900, 7);
//! let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16])?);
//!
//! assert_eq!(sm.decode(), a); // lossless
//! // Banded non-zeros cluster, so few NZA slots are padding zeros:
//! assert!(sm.locality_of_sparsity() > 0.5);
//! # Ok::<(), smash_core::SmashError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitmap;
mod config;
mod directory;
mod dynamic;
mod error;
mod hierarchy;
mod nza;
mod smash_matrix;
pub mod storage;

pub use bitmap::{Bitmap, Ones};
pub use config::{Layout, SmashConfig, MAX_LEVELS, MAX_RATIO};
pub use directory::{LineCursor, LineDirectory};
pub use dynamic::{merge_row, Delta, DeltaOverlay, DynamicBase, DynamicMatrix};
pub use error::SmashError;
pub use hierarchy::{BitmapHierarchy, Scan, Visit, Visits};
pub use nza::Nza;
pub use smash_matrix::{block_axpy_dense, block_dot, SmashMatrix};
