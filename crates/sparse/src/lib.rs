//! # rt3-sparse
//!
//! Sparse matrix formats and kernels for the RT3 reproduction.
//!
//! RT3 ("Dancing along Battery", DAC 2021) argues that *how* pruned weights
//! are stored determines whether pruning actually helps on a mobile device:
//! irregular pruning needs COO-style indices, while block-structured pruning
//! (Level 1) and pattern pruning (Level 2) keep enough regularity for cheap
//! indices and SIMD-friendly kernels. This crate implements all of those
//! formats so the trade-off can be measured:
//!
//! * [`CooMatrix`] and [`CsrMatrix`] — irregular-sparsity baselines.
//! * [`BlockPrunedMatrix`] / [`BlockPartition`] — the Level-1 BP format.
//! * [`PatternMask`], [`PatternSet`], [`PatternPrunedMatrix`] — the Level-2
//!   PP format that is swapped at run time to follow DVFS.
//! * [`PatternPlan`] / [`CompiledPattern`] — the compiled execution plan a
//!   [`PatternPrunedMatrix`] lowers into at construction: flat value arena,
//!   shared per-pattern offset tables and a blocked SIMD-friendly kernel
//!   (see `plan.rs`; the seed scalar kernel survives in [`mod@reference`] for
//!   bit-level cross-checks).
//! * [`Backend`] — the runtime-detected kernel backend (`simd.rs`):
//!   hand-written AVX2 kernels for the full-block widths the engines
//!   dispatch, bit-identical to the compiled scalar fallback.
//! * [`StorageReport`] — byte-level comparison across formats.
//!
//! # Examples
//!
//! ```
//! use rt3_sparse::{BlockPartition, StorageReport};
//! use rt3_tensor::Matrix;
//!
//! // A matrix where entire columns were pruned inside each row block.
//! let mut w = Matrix::filled(8, 8, 1.0);
//! for r in 0..8 {
//!     for c in 0..4 {
//!         w.set(r, c * 2, 0.0);
//!     }
//! }
//! let report = StorageReport::measure(&w, &BlockPartition::even(8, 2));
//! let coo = report.cost(rt3_sparse::SparseFormat::Coo).expect("coo entry");
//! let bp = report.cost(rt3_sparse::SparseFormat::BlockPruned).expect("bp entry");
//! assert!(bp.index_bytes < coo.index_bytes);
//! ```

// unsafe is denied crate-wide and only re-allowed inside `simd`, whose
// `std::arch` kernels carry per-call safety contracts; everything else
// stays safe Rust
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod coo;
mod csr;
mod pattern;
mod plan;
pub mod reference;
mod simd;
mod storage;

pub use block::{BlockPartition, BlockPrunedMatrix, PrunedBlock};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use pattern::{PatternMask, PatternPrunedMatrix, PatternSet, SparseError};
pub use plan::{CompiledPattern, CompiledSet, PackLayout, PatternPlan};
pub use simd::Backend;
pub use storage::{FormatCost, SparseFormat, StorageReport};
