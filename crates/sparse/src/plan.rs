//! The pattern-pruned matrix format and its compiled matmul kernels.
//!
//! The scalar seed kernel paid three per-call costs that dominated the hot
//! path of `BankedModel::infer`: it re-derived each pattern's
//! `kept_positions()` (a fresh `Vec<(usize, usize)>`) for every block of
//! every call, chased one heap pointer per block through `Vec<Vec<f32>>`
//! value storage, and bounds-checked every element access. A
//! [`PatternPrunedMatrix`] removes all three ahead of time, PatDNN-style:
//!
//! * **Flat value arena.** All kept values live in one contiguous
//!   `Vec<f32>`; a `block_offsets` prefix-sum table (one `u32` per block)
//!   replaces the nested vectors.
//! * **Per-pattern offset tables.** Each pattern in the set is compiled
//!   *once* into a [`CompiledPattern`]: its kept positions grouped by local
//!   row (CSR-style `row_ptr` over `u32` column offsets), plus each kept
//!   position's offset within a block (the index table block scoring sums
//!   through). Every block assigned to that pattern shares the table, so
//!   the per-block metadata is a single `u16` pattern id — exactly the
//!   reuse the paper's Level-2 format is designed around.
//! * **One index stream.** Parallel to the arena, one `u32` per stored
//!   value holds its position `col << 4 | r`: its row `r` within its block
//!   row (so a matrix's pattern size is at most 16) and its column `col` in
//!   the weight. A block row's values are one contiguous run of the arena,
//!   so with the stream a walk over a block row is one loop, however many
//!   values each of its blocks keeps. The stream is built once per layout,
//!   when a matrix is first packed under it; the value gather, the
//!   narrow-width kernel and the kept-position walk read it and look up no
//!   pattern table.
//! * **Full-block vs. edge-block dispatch.** Interior blocks (the common
//!   case) run a branch-free loop monomorphized on the rhs width for the
//!   widths the serving engines dispatch (1, 2, 3, 4, 8, 16, 32, 64). At
//!   the narrow widths 1–4 the kernel is one loop over the stored values
//!   of a block row's full blocks and their index stream, each value
//!   running `W` unrolled f32 multiply-adds into its output row; it
//!   carries no per-row or per-block branches, which is what a row of a
//!   few kept values is bound by. At widths 8 and up the portable kernel
//!   holds each output row in a `[f32; W]` register accumulator across all
//!   of the row's kept values. Other widths take a chunked general path.
//!   Only the (at most one) partial row/column strip of edge blocks takes
//!   the checked path.
//!
//! All of it is built when a [`PatternPrunedMatrix`] is lowered, so the
//! matmul hot loop performs **zero heap allocation** and the kernel result is
//! bit-identical to the retained scalar reference
//! ([`crate::reference::matmul_dense_scalar`]) — the accumulation order per
//! output element is unchanged.
//!
//! Lowering itself has two halves. [`PackLayout::assign`] scores every
//! block of a weight against the set (the expensive part) and keeps
//! everything a pack needs that does not depend on the values: the
//! block→pattern ids and the block offsets. It scores from a
//! [`BlockSquares`] table: the squares of the weight, optionally masked
//! element-wise without materialising the product, laid out block-transposed
//! so each pattern's norms for all blocks are a sum of contiguous table
//! rows. The table depends only on the masked weight and the pattern size,
//! so the offline search, which scores many candidate sets against the same
//! backbone-masked weights, builds it once per search. A caller that needs
//! only how many positions a layout keeps under a mask — the offline
//! search's sparsity — counts them from the mask's per-block bitmasks
//! ([`MaskBits::kept`], a popcount per block); a caller that needs the
//! kept positions themselves reads them as a dense keep-mask through
//! [`PackLayout::keep_mask`], and neither gathers a value.
//!
//! A layout assigned under a mask still lays out every position its
//! patterns keep, the masked ones included, so a matrix packed under it
//! stores and multiplies `w * 0`. [`PackLayout::restrict`] narrows it to
//! the positions the mask keeps too: per block the pattern's bits ∧ the
//! block's [`MaskBits`], each distinct result interned into the restricted
//! layout's own [`CompiledSet`]. Its block ids stay `u16`, so every kernel
//! runs it unchanged. For finite rhs values its products equal the
//! unrestricted matrix's bit for bit: each dropped product is `±0`, and an
//! accumulator that starts at `+0` never becomes `-0` under
//! round-to-nearest, so adding `±0` to it changes no bit.
//!
//! [`PatternPrunedMatrix::pack_into`] — the one value gather, which
//! [`PatternPrunedMatrix::from_dense`] and [`PatternPrunedMatrix::pack`]
//! also run — then writes the kept values into a matrix's existing arena.
//! A matrix is an `Arc`-shared layout plus its own arena, and every layout
//! assigned against one pattern set shares a single [`CompiledSet`], so a
//! caller that re-lowers the same weight — the runtime's model bank after
//! an eviction — keeps the layout and only gathers, into buffers it
//! already owns.
//!
//! On top of the compiled layout the matrix carries three execution-time
//! strategies:
//!
//! * **Runtime-dispatched SIMD [`Backend`].** Detected once when the
//!   matrix is lowered; on x86-64 with AVX2 the full-block kernels for
//!   W ∈ {8, 16, 32, 64} run hand-written `std::arch` code (see
//!   `simd.rs`), bit-identical to the scalar kernels they replace.
//! * **Block-row-tiled column sweep for the w = 64 regime.** Once the rhs
//!   no longer fits L1, `execute` switches to a column-major grid
//!   traversal over small block-row tiles so each 2 KB rhs block-column
//!   slice is reused across the whole tile while it is still cache-hot.
//!   For a fixed output element the kept contributions still arrive in
//!   ascending block-column order, so bit-exactness is preserved.
//! * **Row-range parallelism.**
//!   [`PatternPrunedMatrix::par_matmul_dense_into`] splits the block-row
//!   space into contiguous ranges balanced by stored-value count and
//!   executes them on scoped threads over disjoint output slices — no
//!   synchronization on the hot path, and each element is still
//!   accumulated by exactly one thread in arena order.

use crate::pattern::{PatternMask, PatternSet};
use crate::simd::{self, Backend};
use rt3_tensor::Matrix;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Number of f32 lanes the inner multiply-add is chunked by; wide enough
/// for one 256-bit vector, small enough that narrow rhs widths still use
/// the remainder loop efficiently.
const LANES: usize = 8;

/// Assumed L1 data-cache size for the w = 64 regime heuristic. 32 KB is
/// the common mobile/embedded floor (and the paper's device class); a
/// larger actual L1 only makes the tiled sweep kick in early, which is
/// harmless because the tiling is bit-exact.
const L1_BYTES: usize = 32 * 1024;

/// Words of a `psize x psize` in-block bitmask, bit `o % 64` of word
/// `o / 64` standing for in-block offset `o = r * psize + c`.
fn bitmask_words(psize: usize) -> usize {
    (psize * psize).div_ceil(64)
}

/// One pattern lowered to flat offset tables: kept positions grouped by
/// local row, CSR-style, plus each position's in-block offset for block
/// scoring and the index stream, and the kept offsets as a bitmask for
/// counting and restricting kept positions.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPattern {
    /// `row_ptr[r]..row_ptr[r + 1]` indexes `cols` for local row `r`.
    row_ptr: Vec<u32>,
    /// Local column offset of each kept position, in row-major kept order.
    cols: Vec<u32>,
    /// Offset `row * size + col` of each kept position within a
    /// `size x size` block, parallel to `cols`: block scoring's index
    /// table.
    local: Vec<u32>,
    /// The in-block offsets of `local` as a bitmask ([`bitmask_words`]
    /// words), ANDed with a block's [`MaskBits`] to count or keep the
    /// positions both keep.
    bits: Vec<u64>,
}

impl CompiledPattern {
    /// Lowers a pattern mask into its offset tables. Done once per pattern;
    /// every block assigned to the pattern reuses the result.
    pub fn compile(mask: &PatternMask) -> Self {
        let size = mask.size();
        let mut row_ptr = Vec::with_capacity(size + 1);
        let mut cols = Vec::with_capacity(mask.ones());
        let mut local = Vec::with_capacity(mask.ones());
        let mut bits = vec![0u64; bitmask_words(size)];
        row_ptr.push(0);
        for r in 0..size {
            for c in 0..size {
                if mask.is_kept(r, c) {
                    cols.push(c as u32);
                    local.push((r * size + c) as u32);
                    bits[(r * size + c) / 64] |= 1 << ((r * size + c) % 64);
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        Self {
            row_ptr,
            cols,
            local,
            bits,
        }
    }

    /// Number of kept positions.
    pub fn ones(&self) -> usize {
        self.cols.len()
    }

    /// Range into the column table for local row `r`.
    #[inline]
    fn row_range(&self, r: usize) -> (usize, usize) {
        (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize)
    }
}

/// The paper's component-④ selection rule on one block, pattern by
/// pattern: index of the pattern preserving the largest l2 norm over the
/// `h x w` top-left region (`h, w <= psize`) of `block`. Each pattern's
/// norm is a fold over its kept squares in row-major kept order; ties keep
/// the lowest index. [`PatternSet::best_pattern_for`] calls it, and it is
/// the reference the table scorer of [`PackLayout::assign`] is tested
/// against block for block.
///
/// The squares go through `backend` into a zero-padded `psize x psize`
/// scratch, so each pattern sums the squares at its local offsets with no
/// test against the block's shape: an edge block's out-of-shape positions
/// add `+0.0`, which leaves a sum of non-negative squares bit-unchanged
/// (`edge_blocks_score_only_their_in_shape_positions` in `pattern.rs` pins
/// this against summing the in-shape squares alone).
pub(crate) fn best_pattern_for_block(
    compiled: &[CompiledPattern],
    psize: usize,
    block: &Matrix,
    backend: Backend,
) -> usize {
    let (h, w) = (block.rows().min(psize), block.cols().min(psize));
    let mut squares = vec![0.0; psize * psize];
    for r in 0..h {
        backend.square_into(&mut squares[r * psize..][..w], &block.row(r)[..w]);
    }
    let mut best = 0;
    let mut best_norm = f32::NEG_INFINITY;
    for (pi, cp) in compiled.iter().enumerate() {
        let norm = cp
            .local
            .iter()
            .fold(0.0f32, |norm, &o| norm + squares[o as usize]);
        if norm > best_norm {
            best_norm = norm;
            best = pi;
        }
    }
    best
}

/// One compiled table per pattern in `set`, in set order.
pub(crate) fn compile_set(set: &PatternSet) -> Vec<CompiledPattern> {
    set.patterns()
        .iter()
        .map(CompiledPattern::compile)
        .collect()
}

/// A pattern set together with its compiled offset tables, one
/// [`CompiledPattern`] per pattern in set order. Built once per set and
/// shared behind an `Arc` by every [`PackLayout`] lowered against it, so
/// the weights of one model variant carry a single copy of the set.
#[derive(Debug, PartialEq)]
pub struct CompiledSet {
    set: PatternSet,
    patterns: Vec<CompiledPattern>,
}

impl CompiledSet {
    /// Compiles every pattern of `set`.
    pub fn new(set: &PatternSet) -> Self {
        Self {
            set: set.clone(),
            patterns: compile_set(set),
        }
    }
}

/// The element squares of one weight, optionally masked, laid out so that
/// [`PackLayout::assign`] scores every block against a pattern at once:
/// entry `o * blocks + b` holds in-block offset `o = r * psize + c` of
/// block `b` (row-major over the block grid), and is `0.0` outside the
/// weight's shape. A pattern's norms for all blocks are then the sum of the
/// table rows at its kept offsets, a vertical sum over contiguous rows.
///
/// The table depends only on the weight, the mask and the pattern size, so
/// a caller scoring many pattern sets of one size against the same masked
/// weight — the offline search, one set per candidate — builds it once.
/// With a mask each square is `(w * m) * (w * m)`, the same single-rounded
/// products as squaring `weight.zip(mask, |w, m| w * m)`; the squares go
/// through `backend` (clamped like
/// [`PatternPrunedMatrix::from_dense_with_backend`]),
/// and every backend writes the same bits.
#[derive(Debug)]
pub struct BlockSquares {
    rows: usize,
    cols: usize,
    psize: usize,
    grid: (usize, usize),
    squares: Vec<f32>,
}

impl BlockSquares {
    /// Squares every element of `weight`, masked element-wise by `mask` if
    /// given, into the block-transposed table for pattern size `psize`.
    ///
    /// # Panics
    ///
    /// Panics if `psize` is zero or `mask` is not shaped like `weight`.
    pub fn new(weight: &Matrix, mask: Option<&Matrix>, psize: usize, backend: Backend) -> Self {
        assert!(psize > 0, "pattern size must be positive");
        let backend = backend.validated();
        let (rows, cols) = weight.shape();
        let keep = mask.map(|mask| {
            assert_eq!(mask.shape(), (rows, cols), "mask shape mismatch");
            mask.as_slice()
        });
        let grid = (rows.div_ceil(psize), cols.div_ceil(psize));
        let blocks = grid.0 * grid.1;
        let mut squares = vec![0.0; psize * psize * blocks];
        let mut masked = Vec::with_capacity(cols);
        let mut row_squares = vec![0.0; cols];
        for i in 0..rows {
            let row = match keep {
                None => weight.row(i),
                Some(keep) => {
                    masked.clear();
                    let at = i * cols;
                    masked.extend(
                        weight
                            .row(i)
                            .iter()
                            .zip(&keep[at..at + cols])
                            .map(|(&v, &m)| v * m),
                    );
                    &masked[..]
                }
            };
            backend.square_into(&mut row_squares, row);
            // row `r` of block row `br`: offset `r * psize + c` of the
            // row's blocks is one contiguous table run, read `psize` apart
            let (br, r) = (i / psize, i % psize);
            let full = cols / psize;
            for c in 0..psize {
                let dst = &mut squares[(r * psize + c) * blocks + br * grid.1..][..grid.1];
                for (d, chunk) in dst.iter_mut().zip(row_squares.chunks_exact(psize)) {
                    *d = chunk[c];
                }
                if let Some(&s) = row_squares.get(full * psize + c) {
                    dst[full] = s;
                }
            }
        }
        Self {
            rows,
            cols,
            psize,
            grid,
            squares,
        }
    }
}

/// The kept positions of one mask, as bitmasks over the `psize x psize`
/// block grid [`BlockSquares`] uses: per block, `ceil(psize² / 64)` words
/// whose bit `o % 64` of word `o / 64` is set when in-block offset
/// `o = r * psize + c` is in the shape and its mask value is non-zero
/// (every in-shape offset without a mask).
///
/// A layout assigned for the same shape and pattern size has, as its kept
/// count under the mask ([`MaskBits::kept`]), one popcount of its pattern's
/// bitmask ∧ the block's per block: the non-zero count of
/// [`PackLayout::keep_mask`] under the mask, without building it. The bits
/// depend only on the mask and the pattern size, so a caller that needs
/// the sparsity of many pattern sets over the same mask — the offline
/// search, one set per candidate — builds them once, and lowering a matrix,
/// which reads no count, never builds them.
#[derive(Debug)]
pub struct MaskBits {
    rows: usize,
    cols: usize,
    psize: usize,
    bits: Vec<u64>,
}

impl MaskBits {
    /// The bitmasks of `mask` (every in-shape position without one) over a
    /// weight of `shape`, for pattern size `psize`.
    ///
    /// # Panics
    ///
    /// Panics if `psize` is zero or `mask` is not of `shape`.
    pub fn new(shape: (usize, usize), mask: Option<&Matrix>, psize: usize) -> Self {
        assert!(psize > 0, "pattern size must be positive");
        let (rows, cols) = shape;
        let grid_cols = cols.div_ceil(psize);
        let words = bitmask_words(psize);
        let mut bits = vec![0u64; words * rows.div_ceil(psize) * grid_cols];
        // one mask row padded to whole blocks: an edge block's missing
        // columns keep nothing
        let mut row = vec![0.0; grid_cols * psize];
        match mask {
            Some(mask) => assert_eq!(mask.shape(), shape, "mask shape mismatch"),
            None => row[..cols].fill(1.0),
        }
        for i in 0..rows {
            if let Some(mask) = mask {
                row[..cols].copy_from_slice(mask.row(i));
            }
            let (br, r) = (i / psize, i % psize);
            let block_row =
                bits[br * grid_cols * words..][..grid_cols * words].chunks_exact_mut(words);
            for (bits, keep) in block_row.zip(row.chunks_exact(psize)) {
                // up to 64 of the row's offsets folded into one line, then
                // shifted into the word(s) that hold offset `r * psize + c0`
                for (c0, keep) in (0..psize).step_by(64).zip(keep.chunks(64)) {
                    let line = keep
                        .iter()
                        .enumerate()
                        .fold(0u64, |line, (c, &m)| line | u64::from(m != 0.0) << c);
                    let (word, shift) = ((r * psize + c0) / 64, (r * psize + c0) % 64);
                    bits[word] |= line << shift;
                    if shift + keep.len() > 64 {
                        bits[word + 1] |= line >> (64 - shift);
                    }
                }
            }
        }
        Self {
            rows,
            cols,
            psize,
            bits,
        }
    }

    /// Number of positions `layout` keeps whose mask value is non-zero
    /// (every kept in-shape position without a mask): per block, the
    /// popcount of its pattern's bitmask ∧ the block's.
    ///
    /// # Panics
    ///
    /// Panics if `layout` was not laid out for this shape and pattern size.
    pub fn kept(&self, layout: &PackLayout) -> usize {
        assert_eq!(
            (layout.rows, layout.cols, layout.psize),
            (self.rows, self.cols, self.psize),
            "layout of another shape or pattern size"
        );
        let words = bitmask_words(self.psize);
        layout
            .assignments
            .iter()
            .zip(self.bits.chunks_exact(words))
            .map(|(&a, block)| {
                let pattern = &layout.set.patterns[a as usize].bits;
                pattern
                    .iter()
                    .zip(block)
                    .map(|(p, b)| (p & b).count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Everything packing one weight needs that does not depend on its values:
/// the block→pattern assignment and the arena offset of every block, and,
/// once a matrix has been packed under it, the index stream.
/// [`PackLayout::assign`] builds it (the scoring half of lowering);
/// [`PackLayout::restrict`] narrows it to a mask's kept positions; after
/// that, [`PatternPrunedMatrix::pack_into`] only gathers values.
#[derive(Debug, PartialEq)]
pub struct PackLayout {
    set: Arc<CompiledSet>,
    rows: usize,
    cols: usize,
    psize: usize,
    grid: (usize, usize),
    /// Pattern id per block, row-major over the block grid.
    assignments: Vec<u16>,
    /// Prefix sums into the arena, one entry per block plus a terminator.
    block_offsets: Vec<u32>,
    /// Position `col << 4 | r` of every stored value — its row within its
    /// block row and its column in the weight — parallel to the arena;
    /// built on the first pack (see [`PackLayout::index_stream`]).
    stream: OnceLock<Vec<u32>>,
}

impl PackLayout {
    /// The scoring half of lowering: gives each `psize x psize` block of
    /// the weight `squares` was built from the pattern of `set` preserving
    /// the largest l2 norm, and lays out the arena for that assignment.
    ///
    /// All blocks are scored at once, pattern by pattern: one running norm
    /// per block gains the table row at each of the pattern's in-block
    /// offsets ([`CompiledPattern`]'s row-major kept order), so each
    /// block's norm is the same left-to-right sum the per-block fold of
    /// [`PatternSet::best_pattern_for`] computes, and an edge block's
    /// out-of-shape `+0.0` entries leave it bit-unchanged. A block keeps
    /// the first pattern whose norm is strictly greater than every earlier
    /// one, starting from `-inf`, so ties go to the lowest index and a NaN
    /// norm never wins. The layout depends only on the masked weight and
    /// the set, so a caller that packs the same weight again — a model bank
    /// re-materialising an evicted level — keeps it and gathers alone.
    ///
    /// # Panics
    ///
    /// Panics if `squares` was built for another pattern size, the set has
    /// more than `u16::MAX` patterns or the kept values do not fit a `u32`
    /// arena offset.
    pub fn assign(squares: &BlockSquares, set: &Arc<CompiledSet>) -> Self {
        let compiled = &set.patterns;
        assert!(
            compiled.len() <= u16::MAX as usize,
            "pattern set too large for u16 assignment indices"
        );
        assert_eq!(
            squares.psize,
            set.set.size(),
            "square table laid out for another pattern size"
        );
        let blocks = squares.grid.0 * squares.grid.1;
        let mut assignments = vec![0u16; blocks];
        let mut best = vec![f32::NEG_INFINITY; blocks];
        let mut norms = vec![0.0f32; blocks];
        for (pi, cp) in compiled.iter().enumerate() {
            norms.fill(0.0);
            for &o in &cp.local {
                let row = &squares.squares[o as usize * blocks..][..blocks];
                for (norm, &s) in norms.iter_mut().zip(row) {
                    *norm += s;
                }
            }
            for ((a, best), &norm) in assignments.iter_mut().zip(&mut best).zip(&norms) {
                if norm > *best {
                    *best = norm;
                    *a = pi as u16;
                }
            }
        }
        Self::laid_out(
            Arc::clone(set),
            (squares.rows, squares.cols),
            squares.psize,
            assignments,
        )
    }

    /// Each layout narrowed to the positions its mask keeps too: every
    /// block keeps its pattern's bits ∧ the block's bits of the mask, and
    /// each distinct result is one pattern of a [`CompiledSet`] all the
    /// restricted layouts share, in the order their blocks first use it —
    /// as the layouts assigned against one pattern set share that set. A
    /// matrix packed under a restricted layout stores [`MaskBits::kept`] of
    /// the layout it was narrowed from, and for finite rhs values
    /// multiplies to the same bits as a matrix packed under that layout
    /// with the same mask (see the module docs); its
    /// [`PatternPrunedMatrix::pattern_set`]
    /// is the restricted set. A fully masked block keeps the empty pattern
    /// and stores nothing.
    ///
    /// # Panics
    ///
    /// Panics if a mask was not built for its layout's shape and pattern
    /// size, the layouts differ in pattern size or have no block between
    /// them, or the restricted set has more than `u16::MAX` patterns.
    pub fn restrict<'a>(
        layouts: impl IntoIterator<Item = (&'a PackLayout, &'a MaskBits)>,
    ) -> Vec<PackLayout> {
        let mut ids: HashMap<Vec<u64>, u16> = HashMap::new();
        let mut patterns: Vec<Vec<u64>> = Vec::new();
        let mut narrowed = Vec::new();
        let mut psize = None;
        for (layout, mask) in layouts {
            assert_eq!(
                (mask.rows, mask.cols, mask.psize),
                (layout.rows, layout.cols, layout.psize),
                "mask bits of another shape or pattern size"
            );
            let size = *psize.get_or_insert(layout.psize);
            assert_eq!(layout.psize, size, "layouts of different pattern sizes");
            let words = bitmask_words(size);
            let mut both = vec![0u64; words];
            let assignments: Vec<u16> = layout
                .assignments
                .iter()
                .zip(mask.bits.chunks_exact(words))
                .map(|(&a, block)| {
                    let pattern = &layout.set.patterns[a as usize].bits;
                    for ((b, &p), &m) in both.iter_mut().zip(pattern).zip(block) {
                        *b = p & m;
                    }
                    if let Some(&id) = ids.get(&both) {
                        return id;
                    }
                    let id = u16::try_from(patterns.len())
                        .expect("restricted set too large for u16 assignment indices");
                    ids.insert(both.clone(), id);
                    patterns.push(both.clone());
                    id
                })
                .collect();
            narrowed.push((layout, assignments));
        }
        let psize = psize.unwrap_or(0);
        let masks = patterns
            .iter()
            .map(|bits| {
                let keep = (0..psize * psize).map(|o| bits[o / 64] >> (o % 64) & 1 == 1);
                PatternMask::new(psize, keep.collect())
            })
            .collect();
        let set = PatternSet::new(masks).expect("layouts with no block restrict to no pattern");
        let set = Arc::new(CompiledSet::new(&set));
        narrowed
            .into_iter()
            .map(|(layout, assignments)| {
                Self::laid_out(
                    Arc::clone(&set),
                    (layout.rows, layout.cols),
                    psize,
                    assignments,
                )
            })
            .collect()
    }

    /// The layout of `assignments` over `set` for a weight of `shape`: the
    /// arena offset of every block, from its pattern's kept count.
    fn laid_out(
        set: Arc<CompiledSet>,
        shape: (usize, usize),
        psize: usize,
        assignments: Vec<u16>,
    ) -> Self {
        let mut block_offsets = Vec::with_capacity(assignments.len() + 1);
        block_offsets.push(0u32);
        let mut stored = 0usize;
        for &a in &assignments {
            stored += set.patterns[a as usize].ones();
            block_offsets.push(u32::try_from(stored).expect("arena exceeds u32 offsets"));
        }
        let (rows, cols) = shape;
        Self {
            set,
            rows,
            cols,
            psize,
            grid: (rows.div_ceil(psize), cols.div_ceil(psize)),
            assignments,
            block_offsets,
            stream: OnceLock::new(),
        }
    }

    /// Values a matrix under this layout stores, edge-block padding included.
    pub fn stored_values(&self) -> usize {
        *self
            .block_offsets
            .last()
            .expect("offsets carry a terminator") as usize
    }

    /// The arena range of block `bi`.
    #[inline]
    fn block_range(&self, bi: usize) -> Range<usize> {
        self.block_offsets[bi] as usize..self.block_offsets[bi + 1] as usize
    }

    /// The arena range of the blocks `bcs` of block row `br`.
    #[inline]
    fn row_range(&self, br: usize, bcs: Range<usize>) -> Range<usize> {
        let at = br * self.grid.1;
        self.block_offsets[at + bcs.start] as usize..self.block_offsets[at + bcs.end] as usize
    }

    /// The position `col << 4 | r` of every stored value — its row `r`
    /// within its block row and its column `col` in the weight — block-major
    /// and parallel to the arena, built on first use: the first pack under
    /// the layout, so a layout that is never packed — the offline search's
    /// — never builds it. A block row's values are one contiguous run of
    /// it, so a walk over a block row is one loop, whatever each block
    /// keeps; an edge block of an unrestricted layout also lists its
    /// out-of-shape positions.
    ///
    /// # Panics
    ///
    /// Panics if the pattern size exceeds 16, which a 4-bit row cannot
    /// hold, or the weight has `2^28` columns or more.
    fn index_stream(&self) -> &[u32] {
        self.stream.get_or_init(|| {
            let psize = self.psize;
            assert!(
                psize <= 16,
                "pattern size {psize} exceeds the index stream's 4-bit rows"
            );
            assert!(
                (self.grid.1 * psize) < 1 << 28,
                "weight too wide for the index stream's 28-bit columns"
            );
            let psize = psize as u32;
            let mut stream = Vec::with_capacity(self.stored_values());
            for (bi, &a) in self.assignments.iter().enumerate() {
                let base_c = (bi % self.grid.1) as u32 * psize;
                let at = |o: u32| ((base_c + o % psize) << 4) | (o / psize);
                stream.extend(self.set.patterns[a as usize].local.iter().map(|&o| at(o)));
            }
            stream
        })
    }

    /// The combined `and ∧ pattern` keep-mask: `1.0` at every kept
    /// in-shape position whose `and` value is non-zero (every kept in-shape
    /// position without `and`), `0.0` elsewhere. Reads only the layout and
    /// `and`, never a weight value, and writes each kept position without
    /// a branch on `and`.
    ///
    /// # Panics
    ///
    /// Panics if `and` is not shaped like the layout's weight.
    pub fn keep_mask(&self, and: Option<&Matrix>) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let keep = out.as_mut_slice();
        match and {
            None => self.for_each_kept_index(|i| keep[i] = 1.0),
            Some(and) => {
                assert_eq!(and.shape(), (self.rows, self.cols), "mask shape mismatch");
                let and = and.as_slice();
                self.for_each_kept_index(|i| keep[i] = f32::from(u8::from(and[i] != 0.0)));
            }
        }
        out
    }

    /// Calls `f(i)` with the flat weight index of every kept in-shape
    /// position, block-major and in each pattern's row-major kept order,
    /// from the compiled pattern tables (a layout that was never packed has
    /// no index stream).
    fn for_each_kept_index(&self, mut f: impl FnMut(usize)) {
        let mut bi = 0;
        for base_r in (0..self.rows).step_by(self.psize) {
            let h = self.psize.min(self.rows - base_r);
            for base_c in (0..self.cols).step_by(self.psize) {
                let w = self.psize.min(self.cols - base_c);
                let cp = &self.set.patterns[self.assignments[bi] as usize];
                for r in 0..h {
                    let (s, e) = cp.row_range(r);
                    let base = (base_r + r) * self.cols + base_c;
                    for &c in cp.cols[s..e].iter().filter(|&&c| (c as usize) < w) {
                        f(base + c as usize);
                    }
                }
                bi += 1;
            }
        }
    }

    /// Writes every block's kept values into `arena` (block-major, each
    /// block in its pattern's row-major kept order), reading the value at
    /// flat weight index `i` as `value(i)`. One loop over the index stream
    /// per block row serves every block: positions outside the logical
    /// matrix (only edge blocks of an unrestricted layout have any) store
    /// 0.0, so every block assigned to a pattern has the same arena stride.
    fn gather(&self, arena: &mut [f32], value: impl Fn(usize) -> f32) {
        let stream = self.index_stream();
        let full_cols = self.cols / self.psize;
        for (br, base_r) in (0..self.rows).step_by(self.psize).enumerate() {
            let h = self.psize.min(self.rows - base_r);
            let mut first = 0;
            if h == self.psize {
                let range = self.row_range(br, 0..full_cols);
                let base = base_r * self.cols;
                for (d, &s) in arena[range.clone()].iter_mut().zip(&stream[range]) {
                    *d = value(base + (s & 15) as usize * self.cols + (s >> 4) as usize);
                }
                first = full_cols;
            }
            let range = self.row_range(br, first..self.grid.1);
            for (d, &s) in arena[range.clone()].iter_mut().zip(&stream[range]) {
                let (r, col) = ((s & 15) as usize, (s >> 4) as usize);
                *d = if r < h && col < self.cols {
                    value((base_r + r) * self.cols + col)
                } else {
                    0.0
                };
            }
        }
    }
}

/// A matrix stored as pattern-pruned blocks (the paper's Level-2 format):
/// every `psize x psize` block carries the id of its assigned pattern, and
/// only the values its pattern keeps live, in a flat arena under a shared
/// [`PackLayout`]. Construction lowers the matrix once; every kernel
/// (`matmul_dense`, `to_dense`, `mask`) then executes the compiled form, so
/// no per-call layout or indexing work remains on the hot path. See the
/// module docs for the layout rationale. The seed's scalar kernel is
/// retained in [`crate::reference`] for bit-level cross-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternPrunedMatrix {
    /// The value-independent half of the matrix (assignment, block
    /// offsets, compiled tables), shared with every matrix packed under it.
    layout: Arc<PackLayout>,
    /// All kept values, block-major; block `bi` owns
    /// `arena[block_offsets[bi]..block_offsets[bi + 1]]` in its pattern's
    /// row-major kept order.
    arena: Vec<f32>,
    /// Kernel backend the matrix executes with: process state, not model
    /// data, chosen (and validated) for the host CPU when the matrix is
    /// lowered.
    backend: Backend,
}

impl PatternPrunedMatrix {
    /// Prunes `dense` with `set`: [`PackLayout::assign`] gives every
    /// `psize x psize` block the pattern preserving the largest l2 norm,
    /// then [`PatternPrunedMatrix::pack`] packs the kept values into the
    /// arena, on the detected backend.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than `u16::MAX` patterns or the kept
    /// values do not fit a `u32` arena offset.
    pub fn from_dense(dense: &Matrix, set: &PatternSet) -> Self {
        Self::from_dense_with_backend(dense, set, Backend::detect())
    }

    /// [`PatternPrunedMatrix::from_dense`] with an explicit kernel backend.
    /// The request is clamped to what the CPU supports
    /// (`Backend::validated`); forcing [`Backend::Scalar`] is how the
    /// bit-exactness suites obtain the reference on SIMD hosts.
    pub fn from_dense_with_backend(dense: &Matrix, set: &PatternSet, backend: Backend) -> Self {
        let squares = BlockSquares::new(dense, None, set.size(), backend);
        let set = Arc::new(CompiledSet::new(set));
        let layout = Arc::new(PackLayout::assign(&squares, &set));
        Self::pack(&layout, dense, None, backend)
    }

    /// A fresh matrix under `layout` holding the values of `weight`, masked
    /// by `mask` if given (see [`PatternPrunedMatrix::pack_into`]), without
    /// scoring a block. Equals [`Self::from_dense_with_backend`] of the
    /// masked weight when the layout was assigned on it.
    ///
    /// # Panics
    ///
    /// Same as [`PatternPrunedMatrix::pack_into`].
    pub fn pack(
        layout: &Arc<PackLayout>,
        weight: &Matrix,
        mask: Option<&Matrix>,
        backend: Backend,
    ) -> Self {
        let mut matrix = Self {
            layout: Arc::clone(layout),
            arena: Vec::new(),
            backend: backend.validated(),
        };
        matrix.pack_into(layout, weight, mask);
        matrix
    }

    /// The packing half of lowering, and the only value gather: re-targets
    /// this matrix to `layout` and overwrites its arena, in place, with the
    /// kept values of `weight`. With a `mask` every gathered value is
    /// `weight * mask` — the same single f32 multiply as masking the weight
    /// up front with `Matrix::zip`, so the arena is bit-identical to
    /// packing the masked weight. The arena allocates only when it must
    /// grow past its capacity, so re-packing a matrix that once held a
    /// layout at least as large is allocation-free; every slot of the new
    /// layout is written, so nothing of the previous values survives. The
    /// gather walks the layout's index stream, one loop per block row; the
    /// first pack under a layout builds the stream.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `mask` is not shaped like the layout's weight,
    /// the pattern size exceeds 16 or the weight has `2^28` columns or more.
    pub fn pack_into(&mut self, layout: &Arc<PackLayout>, weight: &Matrix, mask: Option<&Matrix>) {
        assert_eq!(
            weight.shape(),
            (layout.rows, layout.cols),
            "weight shape mismatch"
        );
        self.arena.resize(layout.stored_values(), 0.0);
        let data = weight.as_slice();
        match mask {
            None => layout.gather(&mut self.arena, |i| data[i]),
            Some(mask) => {
                assert_eq!(mask.shape(), weight.shape(), "mask shape mismatch");
                let mask = mask.as_slice();
                layout.gather(&mut self.arena, |i| data[i] * mask[i]);
            }
        }
        self.layout = Arc::clone(layout);
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.layout.rows
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.layout.cols
    }

    /// The pattern set the matrix was lowered against.
    pub fn pattern_set(&self) -> &PatternSet {
        &self.layout.set.set
    }

    /// Pattern side length.
    pub fn pattern_size(&self) -> usize {
        self.layout.psize
    }

    /// `(block rows, block cols)` of the block grid.
    pub fn block_grid(&self) -> (usize, usize) {
        self.layout.grid
    }

    /// Pattern id per block, row-major over the block grid.
    pub fn assignments(&self) -> &[u16] {
        &self.layout.assignments
    }

    /// Total values stored in the arena (including kept zeros).
    pub fn stored_values(&self) -> usize {
        self.arena.len()
    }

    /// The packed values of block `bi`, in its pattern's row-major kept
    /// order (the arena slice the kernels execute from).
    pub fn block_values(&self, bi: usize) -> &[f32] {
        &self.arena[self.layout.block_range(bi)]
    }

    /// Fraction of logical elements pruned away by the pattern assignment.
    pub fn sparsity(&self) -> f64 {
        self.mask().sparsity()
    }

    /// Reconstructs the dense matrix with pruned positions zeroed.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        let cols = self.cols();
        self.for_each_kept(|r, c, v| out.as_mut_slice()[r * cols + c] = v);
        out
    }

    /// The binary keep-mask with the logical matrix shape.
    pub fn mask(&self) -> Matrix {
        let mut mask = Matrix::zeros(self.rows(), self.cols());
        let cols = self.cols();
        self.for_each_kept(|r, c, _| mask.as_mut_slice()[r * cols + c] = 1.0);
        mask
    }

    /// Calls `f(row, col, value)` for every kept position inside the
    /// logical matrix bounds, block-major then row-major within the block —
    /// the single traversal backing both `to_dense` and `mask`, over the
    /// index stream.
    fn for_each_kept<F: FnMut(usize, usize, f32)>(&self, mut f: F) {
        let l = &*self.layout;
        let stream = l.index_stream();
        for (br, base_r) in (0..l.rows).step_by(l.psize).enumerate() {
            let range = l.row_range(br, 0..l.grid.1);
            for (&s, &v) in stream[range.clone()].iter().zip(&self.arena[range]) {
                let (r, col) = (base_r + (s & 15) as usize, (s >> 4) as usize);
                if r < l.rows && col < l.cols {
                    f(r, col, v);
                }
            }
        }
    }

    /// Sparse × dense product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        self.matmul_dense_into(rhs, &mut out);
        out
    }

    /// Sparse × dense product `self * rhs`, written into `out` (which is
    /// zeroed first), so steady-state serving can reuse its buffers across
    /// calls. This is the zero-allocation entry point: the hot loop
    /// touches only the arena, the offset tables, the index stream and the
    /// two matrices.
    ///
    /// Common rhs widths (1, 2, 3, 4, 8, 16, 32, 64 — the micro-batch
    /// sizes the serving engines dispatch) run a monomorphized kernel: at
    /// widths 1–4 one walk per block row over the index stream, at 8 and
    /// up a kernel holding each output row in registers (vector registers
    /// on an AVX2 backend); other widths take a chunked general path. All preserve the scalar reference's
    /// per-element accumulation order, so results are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.rows()` does not match the matrix's column count or
    /// `out` is not shaped `(rows, rhs.cols())`.
    pub fn matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_matmul_shapes(rhs, out);
        out.fill_zero();
        let width = rhs.cols();
        if width == 0 {
            return;
        }
        let (grid_rows, _) = self.layout.grid;
        self.dispatch_width(rhs.as_slice(), out.as_mut_slice(), width, 0..grid_rows);
    }

    /// [`PatternPrunedMatrix::matmul_dense_into`] with intra-matmul
    /// row-range parallelism: the block-row space is split into at most
    /// `workers` contiguous ranges balanced by stored-value count
    /// (`row_splits`) and each range runs on its own scoped thread over a
    /// disjoint `split_at_mut` slice of `out`. There is no synchronization
    /// on the hot path and every output element is accumulated by exactly
    /// one thread in arena order, so the result is bit-identical to
    /// [`PatternPrunedMatrix::matmul_dense_into`] for every worker count
    /// (proptest-pinned in `tests/proptest_simd.rs`).
    ///
    /// # Panics
    ///
    /// Same shape requirements as [`PatternPrunedMatrix::matmul_dense_into`].
    pub fn par_matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix, workers: usize) {
        self.check_matmul_shapes(rhs, out);
        out.fill_zero();
        let width = rhs.cols();
        if width == 0 {
            return;
        }
        let splits = self.row_splits(workers);
        let rhs_data = rhs.as_slice();
        if splits.len() <= 1 {
            let (grid_rows, _) = self.layout.grid;
            self.dispatch_width(rhs_data, out.as_mut_slice(), width, 0..grid_rows);
            return;
        }
        std::thread::scope(|scope| {
            let mut rest: &mut [f32] = out.as_mut_slice();
            for brs in splits {
                let psize = self.layout.psize;
                let range_rows = (brs.end * psize).min(self.layout.rows) - brs.start * psize;
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range_rows * width);
                rest = tail;
                scope.spawn(move || self.dispatch_width(rhs_data, chunk, width, brs));
            }
        });
    }

    /// Splits the block-row space into at most `parts` contiguous,
    /// non-empty ranges whose stored-value counts (the kernel work) are as
    /// balanced as the block-row granularity allows, via binary targets on
    /// the `block_offsets` prefix sums. Concatenated in order the ranges
    /// cover `0..grid_rows` exactly.
    fn row_splits(&self, parts: usize) -> Vec<Range<usize>> {
        let (grid_rows, grid_cols) = self.layout.grid;
        if grid_rows == 0 || parts <= 1 {
            return std::iter::once(0..grid_rows).collect();
        }
        let parts = parts.min(grid_rows);
        let total = self.arena.len() as u64;
        let mut splits = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 1..=parts {
            let end = if p == parts {
                grid_rows
            } else {
                // smallest block row with at least p/parts of the values
                // strictly before it
                let target = total * p as u64 / parts as u64;
                let mut end = start;
                while end < grid_rows
                    && u64::from(self.layout.block_offsets[end * grid_cols]) < target
                {
                    end += 1;
                }
                end
            };
            if end > start {
                splits.push(start..end);
                start = end;
            }
        }
        splits
    }

    fn check_matmul_shapes(&self, rhs: &Matrix, out: &Matrix) {
        assert_eq!(self.layout.cols, rhs.rows(), "matmul shape mismatch");
        assert_eq!(
            out.shape(),
            (self.layout.rows, rhs.cols()),
            "matmul output shape mismatch"
        );
    }

    /// Monomorphizes on the rhs width and executes the block rows `brs`
    /// into `out`, which holds exactly those rows (its row 0 is logical
    /// row `brs.start * psize`). W = 0 selects the runtime-width general
    /// kernel.
    fn dispatch_width(&self, rhs: &[f32], out: &mut [f32], width: usize, brs: Range<usize>) {
        match width {
            1 => self.execute::<1>(rhs, out, width, brs),
            2 => self.execute::<2>(rhs, out, width, brs),
            3 => self.execute::<3>(rhs, out, width, brs),
            4 => self.execute::<4>(rhs, out, width, brs),
            8 => self.execute::<8>(rhs, out, width, brs),
            16 => self.execute::<16>(rhs, out, width, brs),
            32 => self.execute::<32>(rhs, out, width, brs),
            64 => self.execute::<64>(rhs, out, width, brs),
            _ => self.execute::<0>(rhs, out, width, brs),
        }
    }

    /// Walks the block rows `brs` dispatching interior blocks to the
    /// branch-free kernels (compile-time width `W` when non-zero; SIMD
    /// when the matrix's backend covers `W`) and edge blocks to the clamped
    /// path. In the w = 64 regime with an L1-overflowing rhs the walk
    /// switches to the block-row-tiled column-major sweep.
    fn execute<const W: usize>(
        &self,
        rhs: &[f32],
        out: &mut [f32],
        width: usize,
        brs: Range<usize>,
    ) {
        let row_base = brs.start * self.layout.psize;
        if W == 64 && std::mem::size_of_val(rhs) > L1_BYTES {
            self.execute_tiled::<W>(rhs, out, width, brs, row_base);
            return;
        }
        let l = &*self.layout;
        let (_, grid_cols) = l.grid;
        let full_cols = l.cols / l.psize;
        for br in brs {
            // at the narrow widths a full block row's full blocks are one
            // walk over the index stream; every other block goes one by one
            let mut first = 0;
            if (1..=4).contains(&W) && (br + 1) * l.psize <= l.rows {
                self.block_row_indexed::<W>(br, full_cols, rhs, out, row_base);
                first = full_cols;
            }
            for bc in first..grid_cols {
                self.process_block::<W>(br, bc, rhs, out, width, row_base);
            }
        }
    }

    /// Column-major grid sweep over small block-row tiles, for the wide
    /// (w = 64) regime where the whole rhs blows L1: within a tile the
    /// same rhs block-column slice (`psize * 64` floats — 2 KB at psize 8)
    /// is applied to every block row of the tile while it is cache-hot,
    /// and the tile bounds the out working set to roughly half of L1. For
    /// any fixed output element the kept contributions still arrive in
    /// ascending block-column order, so the accumulation order per element
    /// — and therefore the result, bitwise — is unchanged.
    fn execute_tiled<const W: usize>(
        &self,
        rhs: &[f32],
        out: &mut [f32],
        width: usize,
        brs: Range<usize>,
        row_base: usize,
    ) {
        let (_, grid_cols) = self.layout.grid;
        let tile = (L1_BYTES / 2 / (self.layout.psize * width * std::mem::size_of::<f32>())).max(1);
        let mut t = brs.start;
        while t < brs.end {
            let t_end = brs.end.min(t + tile);
            for bc in 0..grid_cols {
                for br in t..t_end {
                    self.process_block::<W>(br, bc, rhs, out, width, row_base);
                }
            }
            t = t_end;
        }
    }

    /// Executes one block of the grid. `out` holds the block rows starting
    /// at logical row `row_base`; rhs indexing stays absolute. The narrow
    /// widths reach it only for edge blocks (see [`Self::execute`]).
    #[inline]
    fn process_block<const W: usize>(
        &self,
        br: usize,
        bc: usize,
        rhs: &[f32],
        out: &mut [f32],
        width: usize,
        row_base: usize,
    ) {
        let l = &*self.layout;
        let bi = br * l.grid.1 + bc;
        let base_r = br * l.psize;
        let base_c = bc * l.psize;
        let cp = &l.set.patterns[l.assignments[bi] as usize];
        let vals = self.block_values(bi);
        let local_r = base_r - row_base;
        if base_r + l.psize > l.rows || base_c + l.psize > l.cols {
            self.block_edge(cp, vals, base_r, base_c, local_r, rhs, out, width);
        } else if W == 0 {
            self.block_full_general(cp, vals, local_r, base_c, rhs, out, width);
        } else if self.backend.covers_width(W) {
            // `covers_width` constant-folds the width test per
            // monomorphization; the backend invariant (`Avx2` only after
            // detection) makes the kernel's feature use sound
            simd::block_full::<W>(
                &cp.row_ptr,
                &cp.cols,
                vals,
                l.psize,
                local_r,
                base_c,
                rhs,
                out,
            );
        } else {
            self.block_full_fixed::<W>(cp, vals, local_r, base_c, rhs, out);
        }
    }

    /// Narrow-width kernel (rhs widths 1–4, the ones the serving engines
    /// mostly dispatch, on every backend) over the first `blocks` blocks of
    /// block row `br`, all full. One loop walks their stored values beside
    /// the layout's index stream (`col << 4 | r`), adding `v * rhs[col]`
    /// into output row `r` of the block row with `W` unrolled
    /// multiply-adds, and looks up no pattern table. A loop per block
    /// instead ends after that block's stored count, which varies from
    /// block to block under a restricted layout and mispredicts once per
    /// block; a loop per pattern row (`block_full_fixed`) varies with every
    /// row (0–`psize` kept values each) and pays a row lookup per row,
    /// which a row of at most 4 floats cannot amortise. Each output element
    /// still receives its row's kept values in ascending block column and
    /// then row-major kept order, so the result is bit-identical to the
    /// scalar reference.
    ///
    /// `out` holds the block rows starting at logical row `row_base`
    /// (differs from row 0 during `par_matmul_dense_into`, whose threads see only
    /// their own row-range slice).
    #[inline]
    fn block_row_indexed<const W: usize>(
        &self,
        br: usize,
        blocks: usize,
        rhs: &[f32],
        out: &mut [f32],
        row_base: usize,
    ) {
        let l = &*self.layout;
        let range = l.row_range(br, 0..blocks);
        let local_r = br * l.psize - row_base;
        let (out, _) = out[local_r * W..(local_r + l.psize) * W].as_chunks_mut::<W>();
        let (rhs, _) = rhs[..blocks * l.psize * W].as_chunks::<W>();
        let stream = &l.index_stream()[range.clone()];
        for (&s, &v) in stream.iter().zip(&self.arena[range]) {
            let o = &mut out[(s & 15) as usize];
            let b = &rhs[(s >> 4) as usize];
            for j in 0..W {
                o[j] += v * b[j];
            }
        }
    }

    /// Interior-block kernel for the wide compile-time rhs widths (8 and
    /// up) when the backend has no SIMD kernel for them: the output row is
    /// copied into a `[f32; W]` register accumulator once, every kept
    /// position of the row then runs `W` unrolled multiply-adds against it
    /// (no per-element bounds checks, no output loads/stores per value),
    /// and the row is written back once. Accumulation per element stays in
    /// arena order, so the result is bit-identical to the scalar path.
    /// This is also the loop the AVX2 kernels mirror (`simd::block_full`).
    /// `local_r` indexes `out` as in `block_edge`.
    #[inline]
    fn block_full_fixed<const W: usize>(
        &self,
        cp: &CompiledPattern,
        vals: &[f32],
        local_r: usize,
        base_c: usize,
        rhs: &[f32],
        out: &mut [f32],
    ) {
        for r in 0..self.layout.psize {
            let (s, e) = cp.row_range(r);
            if s == e {
                continue;
            }
            let rr = local_r + r;
            let out_row = &mut out[rr * W..(rr + 1) * W];
            let mut acc = [0.0f32; W];
            acc.copy_from_slice(out_row);
            for (&c, &v) in cp.cols[s..e].iter().zip(&vals[s..e]) {
                let cc = base_c + c as usize;
                let rhs_row = &rhs[cc * W..(cc + 1) * W];
                for (a, &b) in acc.iter_mut().zip(rhs_row) {
                    *a += v * b;
                }
            }
            out_row.copy_from_slice(&acc);
        }
    }

    /// Interior-block kernel for arbitrary rhs widths: each output row is
    /// sliced once and the inner loop is a chunked multiply-add over the
    /// rhs row. `local_r` indexes `out` as in `block_edge`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn block_full_general(
        &self,
        cp: &CompiledPattern,
        vals: &[f32],
        local_r: usize,
        base_c: usize,
        rhs: &[f32],
        out: &mut [f32],
        width: usize,
    ) {
        for r in 0..self.layout.psize {
            let (s, e) = cp.row_range(r);
            if s == e {
                continue;
            }
            let rr = local_r + r;
            let out_row = &mut out[rr * width..(rr + 1) * width];
            for (&c, &v) in cp.cols[s..e].iter().zip(&vals[s..e]) {
                let cc = base_c + c as usize;
                let rhs_row = &rhs[cc * width..(cc + 1) * width];
                axpy(out_row, rhs_row, v);
            }
        }
    }

    /// Edge-block kernel: rows and columns are clamped to the logical
    /// matrix bounds (only the last block row/column can land here).
    /// `base_r` is the logical row (for the clamp); `local_r` is the
    /// block's first row *within `out`* (differs from `base_r` during
    /// `par_matmul_dense_into`, whose threads see only their own row-range slice).
    #[allow(clippy::too_many_arguments)]
    fn block_edge(
        &self,
        cp: &CompiledPattern,
        vals: &[f32],
        base_r: usize,
        base_c: usize,
        local_r: usize,
        rhs: &[f32],
        out: &mut [f32],
        width: usize,
    ) {
        let h = self.layout.psize.min(self.layout.rows - base_r);
        let w = self.layout.psize.min(self.layout.cols - base_c);
        for r in 0..h {
            let (s, e) = cp.row_range(r);
            let rr = local_r + r;
            let out_row = &mut out[rr * width..(rr + 1) * width];
            for (&c, &v) in cp.cols[s..e].iter().zip(&vals[s..e]) {
                if c as usize >= w {
                    continue;
                }
                let cc = base_c + c as usize;
                let rhs_row = &rhs[cc * width..(cc + 1) * width];
                axpy(out_row, rhs_row, v);
            }
        }
    }
}

/// `out += a * x`, chunked by [`LANES`] so the compiler emits vector
/// multiply-adds for the bulk of the row. Both slices have equal length
/// (the rhs width); each output element receives exactly one add, so the
/// accumulation order per element is the same as a scalar loop.
#[inline]
fn axpy(out: &mut [f32], x: &[f32], a: f32) {
    let mut oc = out.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (o, b) in (&mut oc).zip(&mut xc) {
        for k in 0..LANES {
            o[k] += a * b[k];
        }
    }
    for (o, &b) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o += a * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set_of(psize: usize, sparsity: f64, count: usize, seed: u64) -> PatternSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PatternSet::new(
            (0..count)
                .map(|_| PatternMask::random(psize, sparsity, &mut rng))
                .collect(),
        )
        .expect("non-empty set")
    }

    #[test]
    fn compiled_pattern_groups_positions_by_row() {
        let mask = PatternMask::new(
            3,
            vec![true, false, true, false, false, false, true, true, true],
        );
        let cp = CompiledPattern::compile(&mask);
        assert_eq!(cp.ones(), 5);
        assert_eq!(cp.row_range(0), (0, 2));
        assert_eq!(cp.row_range(1), (2, 2));
        assert_eq!(cp.row_range(2), (2, 5));
        assert_eq!(cp.cols, vec![0, 2, 0, 1, 2]);
        assert_eq!(cp.local, vec![0, 2, 6, 7, 8]);
    }

    /// The mask bitmasks equal an entry-by-entry reference — bit `o` of
    /// block `b` set for an in-shape position of offset `o` whose mask
    /// value is non-zero — for pattern sizes 3, 4, 8, 9 and 70 (a block row
    /// wider than one bitmask word), over shapes narrower than one block,
    /// with and without edge blocks, masked and unmasked.
    #[test]
    fn mask_bits_match_an_entrywise_reference() {
        for (rows, cols) in [(5, 3), (13, 27), (16, 64), (17, 70), (70, 17), (9, 130)] {
            let mask = Matrix::from_fn(rows, cols, |r, c| match (r * 7 + c * 13) % 5 {
                0 => 0.0,
                1 => 0.5,
                _ => 1.0,
            });
            for psize in [3, 4, 8, 9, 70] {
                let grid = (rows.div_ceil(psize), cols.div_ceil(psize));
                let words = bitmask_words(psize);
                for mask in [None, Some(&mask)] {
                    let mut bits = vec![0u64; words * grid.0 * grid.1];
                    for b in 0..grid.0 * grid.1 {
                        let (br, bc) = (b / grid.1, b % grid.1);
                        for o in 0..psize * psize {
                            let (i, j) = (br * psize + o / psize, bc * psize + o % psize);
                            if i < rows && j < cols && mask.map_or(1.0, |m| m.get(i, j)) != 0.0 {
                                bits[b * words + o / 64] |= 1 << (o % 64);
                            }
                        }
                    }
                    let got = MaskBits::new((rows, cols), mask, psize);
                    assert_eq!(got.bits, bits, "{rows}x{cols} psize {psize}");
                }
            }
        }
    }

    #[test]
    fn plan_assignments_match_scalar_best_pattern() {
        let mut rng = StdRng::seed_from_u64(31);
        let dense = Matrix::xavier(13, 9, &mut rng);
        let set = set_of(4, 0.5, 3, 32);
        let plan = PatternPrunedMatrix::from_dense(&dense, &set);
        let (grid_rows, grid_cols) = plan.block_grid();
        assert_eq!((grid_rows, grid_cols), (4, 3));
        for br in 0..grid_rows {
            for bc in 0..grid_cols {
                let block = dense.block(br * 4, bc * 4, 4, 4);
                assert_eq!(
                    plan.assignments()[br * grid_cols + bc] as usize,
                    set.best_pattern_for(&block),
                    "block ({br},{bc})"
                );
            }
        }
    }

    #[test]
    fn arena_stride_is_uniform_per_pattern() {
        let mut rng = StdRng::seed_from_u64(33);
        let dense = Matrix::xavier(12, 12, &mut rng);
        let set = set_of(4, 0.75, 2, 34);
        let plan = PatternPrunedMatrix::from_dense(&dense, &set);
        for (bi, &a) in plan.assignments().iter().enumerate() {
            assert_eq!(
                plan.block_values(bi).len(),
                plan.layout.set.patterns[a as usize].ones()
            );
        }
        assert_eq!(plan.stored_values(), 9 * 4); // 9 blocks x 4 kept each
    }

    #[test]
    fn row_splits_cover_grid_and_balance_values() {
        let mut rng = StdRng::seed_from_u64(41);
        let dense = Matrix::xavier(64, 32, &mut rng);
        let set = set_of(4, 0.5, 3, 42);
        let plan = PatternPrunedMatrix::from_dense(&dense, &set);
        let (grid_rows, _) = plan.block_grid();
        for parts in 1..=grid_rows + 3 {
            let splits = plan.row_splits(parts);
            assert!(!splits.is_empty());
            assert!(splits.len() <= parts.max(1));
            assert_eq!(splits[0].start, 0);
            assert_eq!(splits.last().unwrap().end, grid_rows);
            for w in splits.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
                assert!(!w[0].is_empty() && !w[1].is_empty());
            }
        }
        // with one range per block row the split is maximal
        assert_eq!(plan.row_splits(grid_rows).len(), grid_rows);
    }

    #[test]
    fn par_matmul_matches_serial_for_all_worker_counts() {
        let mut rng = StdRng::seed_from_u64(43);
        let dense = Matrix::xavier(50, 30, &mut rng);
        let set = set_of(4, 0.5, 3, 44);
        let plan = PatternPrunedMatrix::from_dense(&dense, &set);
        for width in [1usize, 3, 8, 64] {
            let rhs = Matrix::xavier(30, width, &mut rng);
            let mut serial = Matrix::zeros(50, width);
            plan.matmul_dense_into(&rhs, &mut serial);
            for workers in [1usize, 2, 3, 7, 64] {
                let mut par = Matrix::zeros(50, width);
                plan.par_matmul_dense_into(&rhs, &mut par, workers);
                assert!(
                    par.approx_eq(&serial, 0.0),
                    "width {width} workers {workers} diverged"
                );
            }
        }
    }

    #[test]
    fn matmul_into_handles_zero_width_rhs() {
        let mut rng = StdRng::seed_from_u64(35);
        let dense = Matrix::xavier(8, 8, &mut rng);
        let set = set_of(4, 0.5, 2, 36);
        let plan = PatternPrunedMatrix::from_dense(&dense, &set);
        let rhs = Matrix::zeros(8, 0);
        let mut out = Matrix::zeros(8, 0);
        plan.matmul_dense_into(&rhs, &mut out); // must not panic
        assert_eq!(out.shape(), (8, 0));
    }
}
