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
//! * [`PatternMask`], [`PatternSet`] — the Level-2 PP patterns, one set
//!   swapped in at run time per DVFS level.
//! * [`PatternPrunedMatrix`] — the Level-2 PP format, lowered once into a
//!   flat value arena under a shared [`PackLayout`] (per-pattern
//!   [`CompiledPattern`] offset tables, one index stream) and executed by
//!   blocked SIMD-friendly kernels (see `plan.rs`; the seed scalar kernel
//!   survives in [`mod@reference`] for bit-level cross-checks).
//! * [`Backend`] — the runtime-detected kernel backend (`simd.rs`):
//!   hand-written AVX2 kernels for the full-block widths the engines
//!   dispatch, bit-identical to the compiled scalar fallback.
//! * [`SparseFormat`] — the format names the latency model prices.
//!
//! # Examples
//!
//! ```
//! use rt3_sparse::{PatternMask, PatternPrunedMatrix, PatternSet};
//! use rt3_tensor::Matrix;
//!
//! // Two 2x2 patterns keeping one column each; every block of `w` keeps
//! // the pattern that preserves its larger column.
//! let left = PatternMask::new(2, vec![true, false, true, false]);
//! let right = PatternMask::new(2, vec![false, true, false, true]);
//! let set = PatternSet::new(vec![left, right])?;
//! let w = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
//! let pp = PatternPrunedMatrix::from_dense(&w, &set);
//! assert_eq!(pp.assignments(), &[1, 1, 1, 1]);
//! assert_eq!(pp.stored_values(), 8);
//! let rhs = Matrix::filled(4, 1, 1.0);
//! assert_eq!(pp.matmul_dense(&rhs), pp.to_dense().matmul(&rhs));
//! # Ok::<(), rt3_sparse::SparseError>(())
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
pub use pattern::{PatternMask, PatternSet, SparseError};
pub use plan::{
    BlockSquares, CompiledPattern, CompiledSet, MaskBits, PackLayout, PatternPrunedMatrix,
};
pub use simd::Backend;
pub use storage::SparseFormat;
