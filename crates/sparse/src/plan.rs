//! Compiled execution plans for pattern-pruned matmul.
//!
//! The scalar seed kernel paid three per-call costs that dominated the hot
//! path of `BankedModel::infer`: it re-derived each pattern's
//! `kept_positions()` (a fresh `Vec<(usize, usize)>`) for every block of
//! every call, chased one heap pointer per block through `Vec<Vec<f32>>`
//! value storage, and bounds-checked every element access. A
//! [`PatternPlan`] removes all three ahead of time, PatDNN-style:
//!
//! * **Flat value arena.** All kept values live in one contiguous
//!   `Vec<f32>`; a `block_offsets` prefix-sum table (one `u32` per block)
//!   replaces the nested vectors.
//! * **Per-pattern offset tables.** Each pattern in the set is compiled
//!   *once* into a [`CompiledPattern`]: its kept positions grouped by local
//!   row (CSR-style `row_ptr` over `u32` column offsets), plus each kept
//!   position's local row. Every block assigned to that pattern shares the
//!   table, so the per-block metadata is a single `u16` pattern id —
//!   exactly the reuse the paper's Level-2 format is designed around.
//! * **Full-block vs. edge-block dispatch.** Interior blocks (the common
//!   case) run a branch-free loop monomorphized on the rhs width for the
//!   widths the serving engines dispatch (1, 2, 3, 4, 8, 16, 32, 64). At
//!   the narrow widths 1–4 the kernel is one loop over the block's kept
//!   values (the *kept list*: local row, local column, value), each
//!   running `W` unrolled f32 multiply-adds into its output row; its trip
//!   count is the pattern's kept count, so it carries no per-row branches,
//!   which is what a row of a few kept values is bound by. At widths 8 and
//!   up the portable kernel holds each output row in a `[f32; W]`
//!   register accumulator across all of the row's kept values. Other
//!   widths take a chunked general path. Only the (at most one) partial
//!   row/column strip of edge blocks takes the checked path.
//!
//! The plan is built at [`PatternPrunedMatrix`] construction, so the matmul
//! hot loop performs **zero heap allocation** and the kernel result is
//! bit-identical to the retained scalar reference
//! ([`crate::reference::matmul_dense_scalar`]) — the accumulation order per
//! output element is unchanged.
//!
//! Lowering itself has two halves. [`PackLayout::assign`] scores every
//! block against the set (the expensive part) and keeps everything a pack
//! needs that does not depend on the values: the block→pattern ids, the
//! block offsets, and each pattern's kept positions as flat offsets for
//! the weight's row stride. [`PatternPlan::pack_into`] — the one value
//! gather, which `compile` and [`PatternPlan::pack`] also run — then
//! writes the kept values into a plan's existing arena. A plan is an
//! `Arc`-shared layout plus its own arena, and every layout of one pattern
//! set shares a single [`CompiledSet`], so a caller that re-lowers the same
//! weight — the runtime's model bank after an eviction — keeps the layout
//! and only gathers, into buffers it already owns.
//!
//! On top of the compiled layout the plan carries three execution-time
//! strategies (PR 10):
//!
//! * **Runtime-dispatched SIMD [`Backend`].** Detected once at plan
//!   construction; on x86-64 with AVX2 the full-block kernels for
//!   W ∈ {8, 16, 32, 64} run hand-written `std::arch` code (see
//!   `simd.rs`), bit-identical to the scalar kernels they replace.
//! * **Block-row-tiled column sweep for the w = 64 regime.** Once the rhs
//!   no longer fits L1, `execute` switches to a column-major grid
//!   traversal over small block-row tiles so each 2 KB rhs block-column
//!   slice is reused across the whole tile while it is still cache-hot.
//!   For a fixed output element the kept contributions still arrive in
//!   ascending block-column order, so bit-exactness is preserved.
//! * **Row-range parallelism.** [`PatternPlan::par_matmul_into`] splits
//!   the block-row space into contiguous ranges balanced by stored-value
//!   count and executes them on scoped threads over disjoint output
//!   slices — no synchronization on the hot path, and each element is
//!   still accumulated by exactly one thread in arena order.
//!
//! [`PatternPrunedMatrix`]: crate::PatternPrunedMatrix

use crate::pattern::{PatternMask, PatternSet};
use crate::simd::{self, Backend};
use rt3_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Number of f32 lanes the inner multiply-add is chunked by; wide enough
/// for one 256-bit vector, small enough that narrow rhs widths still use
/// the remainder loop efficiently.
const LANES: usize = 8;

/// Assumed L1 data-cache size for the w = 64 regime heuristic. 32 KB is
/// the common mobile/embedded floor (and the paper's device class); a
/// larger actual L1 only makes the tiled sweep kick in early, which is
/// harmless because the tiling is bit-exact.
const L1_BYTES: usize = 32 * 1024;

/// One pattern lowered to flat offset tables: kept positions grouped by
/// local row, CSR-style, plus each position's local row for the narrow-rhs
/// kept-list kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledPattern {
    /// `row_ptr[r]..row_ptr[r + 1]` indexes `cols` for local row `r`.
    row_ptr: Vec<u32>,
    /// Local column offset of each kept position, in row-major kept order.
    cols: Vec<u32>,
    /// Local row of each kept position, parallel to `cols`.
    rows: Vec<u32>,
}

impl CompiledPattern {
    /// Lowers a pattern mask into its offset tables. Done once per pattern;
    /// every block assigned to the pattern reuses the result.
    pub fn compile(mask: &PatternMask) -> Self {
        let size = mask.size();
        let mut row_ptr = Vec::with_capacity(size + 1);
        let mut cols = Vec::with_capacity(mask.ones());
        let mut rows = Vec::with_capacity(mask.ones());
        row_ptr.push(0);
        for r in 0..size {
            for c in 0..size {
                if mask.is_kept(r, c) {
                    cols.push(c as u32);
                    rows.push(r as u32);
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        Self {
            row_ptr,
            cols,
            rows,
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

/// The single implementation of the paper's component-④ selection rule:
/// index of the pattern preserving the largest l2 norm over one `h x w`
/// block of row-major `data` (row `r` lives at `base + r * stride`).
/// Accumulation is row-major over kept positions and ties keep the lowest
/// index; both [`PackLayout::assign`] and
/// [`PatternSet::best_pattern_for`] call this, so their assignments cannot
/// drift apart.
///
/// The element squares are computed **once per block** into the reusable
/// `squares` scratch through the detected SIMD `backend` (they were
/// previously recomputed per candidate pattern); the per-pattern score is
/// then the sum of the same single-rounded `v * v` products in the same
/// row-major kept order as before, so the winning assignment is
/// bit-identical to the scalar scoring — `lowering_backend_is_bit_stable`
/// in `pattern.rs` pins this.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_pattern_for_block(
    compiled: &[CompiledPattern],
    data: &[f32],
    stride: usize,
    base: usize,
    h: usize,
    w: usize,
    backend: Backend,
    squares: &mut Vec<f32>,
) -> usize {
    squares.clear();
    squares.resize(h * w, 0.0);
    for r in 0..h {
        let row = &data[base + r * stride..][..w];
        backend.square_into(&mut squares[r * w..(r + 1) * w], row);
    }
    let mut best = 0;
    let mut best_norm = f32::NEG_INFINITY;
    for (pi, cp) in compiled.iter().enumerate() {
        let mut norm = 0.0f32;
        for r in 0..h {
            let sq_row = &squares[r * w..(r + 1) * w];
            let (s, e) = cp.row_range(r);
            for &c in &cp.cols[s..e] {
                if (c as usize) < w {
                    norm += sq_row[c as usize];
                }
            }
        }
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
#[derive(Debug, PartialEq, Serialize, Deserialize)]
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

/// Everything packing one weight needs that does not depend on its values:
/// the block→pattern assignment, the arena offset of every block, and each
/// pattern's kept positions as flat offsets for the weight's row stride.
/// [`PackLayout::assign`] builds it (the scoring half of lowering); after
/// that, [`PatternPlan::pack_into`] only gathers values.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
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
    /// Per pattern, the flat offset of every kept position from its
    /// block's origin for row stride `cols`, in row-major kept order.
    flat: Vec<Vec<u32>>,
}

impl PackLayout {
    /// The scoring half of lowering: gives each `psize x psize` block of
    /// `dense` the pattern preserving the largest l2 norm (the same
    /// `best_pattern_for_block` implementation
    /// [`PatternSet::best_pattern_for`] calls) and lays out the arena for
    /// that assignment. The layout depends only on `dense` and the set, so
    /// a caller that packs the same weight again — a model bank
    /// re-materialising an evicted level — keeps it and gathers alone.
    /// `backend` (clamped like [`PatternPlan::compile_with_backend`]) only
    /// speeds up the squares; the assignment is bit-stable across
    /// backends.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than `u16::MAX` patterns or the kept
    /// values do not fit a `u32` arena offset.
    pub fn assign(dense: &Matrix, set: &Arc<CompiledSet>, backend: Backend) -> Self {
        let backend = backend.validated();
        let compiled = &set.patterns;
        assert!(
            compiled.len() <= u16::MAX as usize,
            "pattern set too large for u16 assignment indices"
        );
        let psize = set.set.size();
        let (rows, cols) = dense.shape();
        let grid = (rows.div_ceil(psize), cols.div_ceil(psize));
        let data = dense.as_slice();
        let mut assignments = Vec::with_capacity(grid.0 * grid.1);
        let mut block_offsets = Vec::with_capacity(grid.0 * grid.1 + 1);
        block_offsets.push(0u32);
        let mut stored = 0usize;
        let mut squares = Vec::with_capacity(psize * psize);
        for base_r in (0..rows).step_by(psize) {
            let h = psize.min(rows - base_r);
            for base_c in (0..cols).step_by(psize) {
                let w = psize.min(cols - base_c);
                let best = best_pattern_for_block(
                    compiled,
                    data,
                    cols,
                    base_r * cols + base_c,
                    h,
                    w,
                    backend,
                    &mut squares,
                );
                assignments.push(best as u16);
                stored += compiled[best].ones();
                block_offsets.push(u32::try_from(stored).expect("arena exceeds u32 offsets"));
            }
        }
        let flat = compiled
            .iter()
            .map(|cp| {
                (0..psize)
                    .flat_map(|r| {
                        let (s, e) = cp.row_range(r);
                        cp.cols[s..e].iter().map(move |&c| {
                            u32::try_from(r * cols + c as usize)
                                .expect("row stride exceeds u32 flat offsets")
                        })
                    })
                    .collect()
            })
            .collect();
        Self {
            set: Arc::clone(set),
            rows,
            cols,
            psize,
            grid,
            assignments,
            block_offsets,
            flat,
        }
    }

    /// Values a plan under this layout stores, edge-block padding included.
    pub fn stored_values(&self) -> usize {
        *self
            .block_offsets
            .last()
            .expect("offsets carry a terminator") as usize
    }

    /// Number of kept in-shape positions whose `mask` value is non-zero
    /// (every kept in-shape position without a mask): the non-zero count
    /// of the combined `mask ∧ pattern` keep-mask. Gathers the mask the way
    /// a pack gathers values, so it pays one arena-sized allocation.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is not shaped like the layout's weight.
    pub fn kept(&self, mask: Option<&Matrix>) -> usize {
        let mut keeps = vec![0.0; self.stored_values()];
        match mask {
            None => self.gather(&mut keeps, |_| 1.0),
            Some(mask) => {
                assert_eq!(mask.shape(), (self.rows, self.cols), "mask shape mismatch");
                let mask = mask.as_slice();
                self.gather(&mut keeps, |i| mask[i]);
            }
        }
        keeps.iter().filter(|&&k| k != 0.0).count()
    }

    /// Writes every block's kept values into `arena` (block-major, each
    /// block in its pattern's row-major kept order), reading the value at
    /// flat weight index `i` as `value(i)`. Positions outside the logical
    /// matrix store 0.0, so every block assigned to a pattern has the same
    /// arena stride. Full blocks gather through the flat offsets; only edge
    /// blocks take the clamped path.
    fn gather(&self, arena: &mut [f32], value: impl Fn(usize) -> f32) {
        let mut bi = 0;
        for base_r in (0..self.rows).step_by(self.psize) {
            let h = self.psize.min(self.rows - base_r);
            for base_c in (0..self.cols).step_by(self.psize) {
                let w = self.psize.min(self.cols - base_c);
                let a = self.assignments[bi] as usize;
                let dst = &mut arena
                    [self.block_offsets[bi] as usize..self.block_offsets[bi + 1] as usize];
                let base = base_r * self.cols + base_c;
                if h == self.psize && w == self.psize {
                    for (d, &o) in dst.iter_mut().zip(&self.flat[a]) {
                        *d = value(base + o as usize);
                    }
                } else {
                    let cp = &self.set.patterns[a];
                    for r in 0..self.psize {
                        let (s, e) = cp.row_range(r);
                        for (d, &c) in dst[s..e].iter_mut().zip(&cp.cols[s..e]) {
                            let c = c as usize;
                            *d = if r < h && c < w {
                                value(base + r * self.cols + c)
                            } else {
                                0.0
                            };
                        }
                    }
                }
                bi += 1;
            }
        }
    }
}

/// A pattern-pruned matrix lowered to its executable form: flat value
/// arena, per-block `u32` offsets, shared per-pattern offset tables and a
/// full/edge block split. See the module docs for the layout rationale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternPlan {
    /// The value-independent half of the plan (assignment, block offsets,
    /// compiled tables), shared with every plan packed under it.
    layout: Arc<PackLayout>,
    /// All kept values, block-major; block `bi` owns
    /// `arena[block_offsets[bi]..block_offsets[bi + 1]]` in its pattern's
    /// row-major kept order.
    arena: Vec<f32>,
    /// Kernel backend the plan executes with. Process state, not model
    /// data: it is skipped on serialization and re-detected for the host
    /// CPU on deserialization ([`Backend::default`]).
    #[serde(skip)]
    backend: Backend,
}

impl PatternPlan {
    /// Lowers `dense` against `set`: [`PackLayout::assign`] gives every
    /// `psize x psize` block the pattern preserving the largest l2 norm,
    /// then [`PatternPlan::pack`] packs the kept values into the arena.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than `u16::MAX` patterns or the kept
    /// values do not fit a `u32` arena offset.
    pub fn compile(dense: &Matrix, set: &PatternSet) -> Self {
        Self::compile_with_backend(dense, set, Backend::detect())
    }

    /// [`PatternPlan::compile`] with an explicit kernel backend. The
    /// request is clamped to what the CPU supports
    /// (`Backend::validated`); forcing [`Backend::Scalar`] is how the
    /// proptest suite obtains the bit-exactness reference on SIMD hosts.
    pub fn compile_with_backend(dense: &Matrix, set: &PatternSet, backend: Backend) -> Self {
        let set = Arc::new(CompiledSet::new(set));
        let layout = Arc::new(PackLayout::assign(dense, &set, backend));
        Self::pack(&layout, dense, None, backend)
    }

    /// A fresh plan under `layout` holding the values of `weight`, masked
    /// by `mask` if given (see [`PatternPlan::pack_into`]).
    ///
    /// # Panics
    ///
    /// Same as [`PatternPlan::pack_into`].
    pub fn pack(
        layout: &Arc<PackLayout>,
        weight: &Matrix,
        mask: Option<&Matrix>,
        backend: Backend,
    ) -> Self {
        let mut plan = Self {
            layout: Arc::clone(layout),
            arena: Vec::new(),
            backend: backend.validated(),
        };
        plan.pack_into(layout, weight, mask);
        plan
    }

    /// The packing half of lowering, and the only value gather: re-targets
    /// this plan to `layout` and overwrites its arena, in place, with the
    /// kept values of `weight`. With a `mask` every gathered value is
    /// `weight * mask` — the same single f32 multiply as masking the weight
    /// up front with `Matrix::zip`, so the arena is bit-identical to
    /// packing the masked weight. The arena allocates only when it must
    /// grow past its capacity, so re-packing a plan that once held a
    /// layout at least as large is allocation-free; every slot of the new
    /// layout is written, so nothing of the previous values survives.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `mask` is not shaped like the layout's weight.
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

    /// Logical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.layout.rows, self.layout.cols)
    }

    /// Kernel backend this plan executes with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Re-targets the plan to `backend` (clamped to what the CPU
    /// supports). The lowered layout is backend-independent, so this only
    /// swaps which kernels `matmul_into` dispatches.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend.validated();
        self
    }

    /// The pattern set the plan was lowered against.
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

    /// The compiled offset tables, one per pattern in the set.
    pub fn compiled_patterns(&self) -> &[CompiledPattern] {
        &self.layout.set.patterns
    }

    /// The packed values of block `bi`, in its pattern's row-major kept
    /// order (the arena slice the kernels execute from).
    pub fn block_values(&self, bi: usize) -> &[f32] {
        let offsets = &self.layout.block_offsets;
        &self.arena[offsets[bi] as usize..offsets[bi + 1] as usize]
    }

    /// Bytes of plan metadata beyond the values and the pattern bitmaps:
    /// per-block offsets plus the compiled per-pattern tables.
    pub fn table_bytes(&self) -> usize {
        let tables: usize = self
            .compiled_patterns()
            .iter()
            .map(|cp| {
                (cp.row_ptr.len() + cp.cols.len() + cp.rows.len()) * std::mem::size_of::<u32>()
            })
            .sum();
        self.layout.block_offsets.len() * std::mem::size_of::<u32>() + tables
    }

    /// Calls `f(row, col, value)` for every kept position inside the
    /// logical matrix bounds, block-major then row-major within the block —
    /// the single traversal backing both `to_dense` and `mask`.
    pub fn for_each_kept<F: FnMut(usize, usize, f32)>(&self, mut f: F) {
        let l = &*self.layout;
        let (grid_rows, grid_cols) = l.grid;
        for br in 0..grid_rows {
            let base_r = br * l.psize;
            let h = l.psize.min(l.rows - base_r);
            for bc in 0..grid_cols {
                let bi = br * grid_cols + bc;
                let base_c = bc * l.psize;
                let w = l.psize.min(l.cols - base_c);
                let cp = &l.set.patterns[l.assignments[bi] as usize];
                let vals = self.block_values(bi);
                for r in 0..h {
                    let (s, e) = cp.row_range(r);
                    for (&c, &v) in cp.cols[s..e].iter().zip(&vals[s..e]) {
                        if (c as usize) < w {
                            f(base_r + r, base_c + c as usize, v);
                        }
                    }
                }
            }
        }
    }

    /// Sparse × dense product `plan * rhs`, written into `out` (which is
    /// zeroed first). This is the zero-allocation entry point: the hot loop
    /// touches only the arena, the offset tables and the two matrices.
    ///
    /// Common rhs widths (1, 2, 3, 4, 8, 16, 32, 64 — the micro-batch
    /// sizes the serving engines dispatch) run a monomorphized kernel: the
    /// kept-list loop, or on an AVX2 backend at widths 8 and up a kernel
    /// holding each output row in vector registers; other widths take a
    /// chunked general path. All preserve the scalar reference's
    /// per-element accumulation order, so results are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.rows()` does not match the plan's column count or
    /// `out` is not shaped `(rows, rhs.cols())`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_matmul_shapes(rhs, out);
        out.fill_zero();
        let width = rhs.cols();
        if width == 0 {
            return;
        }
        let (grid_rows, _) = self.layout.grid;
        self.dispatch_width(rhs.as_slice(), out.as_mut_slice(), width, 0..grid_rows);
    }

    /// [`PatternPlan::matmul_into`] with intra-matmul row-range
    /// parallelism: the block-row space is split into at most `workers`
    /// contiguous ranges balanced by stored-value count
    /// ([`PatternPlan::row_splits`]) and each range runs on its own scoped
    /// thread over a disjoint `split_at_mut` slice of `out`. There is no
    /// synchronization on the hot path and every output element is
    /// accumulated by exactly one thread in arena order, so the result is
    /// bit-identical to [`PatternPlan::matmul_into`] for every worker
    /// count (proptest-pinned in `tests/proptest_simd.rs`).
    ///
    /// # Panics
    ///
    /// Same shape requirements as [`PatternPlan::matmul_into`].
    pub fn par_matmul_into(&self, rhs: &Matrix, out: &mut Matrix, workers: usize) {
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
    pub fn row_splits(&self, parts: usize) -> Vec<Range<usize>> {
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
    /// when the plan's backend covers `W`) and edge blocks to the clamped
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
        let (_, grid_cols) = self.layout.grid;
        for br in brs {
            for bc in 0..grid_cols {
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
    /// at logical row `row_base`; rhs indexing stays absolute.
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
        if base_r + l.psize <= l.rows && base_c + l.psize <= l.cols {
            if W == 0 {
                self.block_full_general(cp, vals, local_r, base_c, rhs, out, width);
            } else if self.backend.covers_width(W) {
                // `covers_width` constant-folds the width test per
                // monomorphization; the backend invariant (`Avx2` only
                // after detection) makes the kernel's feature use sound
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
            } else if W <= 4 {
                self.block_full_kept::<W>(cp, vals, local_r, base_c, rhs, out);
            } else {
                self.block_full_fixed::<W>(cp, vals, local_r, base_c, rhs, out);
            }
        } else {
            self.block_edge(cp, vals, base_r, base_c, local_r, rhs, out, width);
        }
    }

    /// Interior-block kernel for the narrow rhs widths (1–4) the serving
    /// engines mostly dispatch, on every backend. One loop walks the
    /// block's kept values, adding `v * rhs[base_c + cols[k]]` into output
    /// row `local_r + rows[k]` with `W` unrolled multiply-adds. A loop over
    /// the block's rows instead (`block_full_fixed`) changes its trip
    /// count with every pattern row (0–`psize` kept values each),
    /// mispredicting its branches, and pays a row lookup per row, which a
    /// row of at most 4 floats cannot amortise; the kept list has one trip
    /// count per pattern. Each output element still receives its row's
    /// kept values in row-major kept order, so the result is bit-identical
    /// to the scalar reference.
    ///
    /// `local_r` is the block's first row *within `out`* (differs from the
    /// logical row during `par_matmul_into`, whose threads see only their
    /// own row-range slice).
    #[inline]
    fn block_full_kept<const W: usize>(
        &self,
        cp: &CompiledPattern,
        vals: &[f32],
        local_r: usize,
        base_c: usize,
        rhs: &[f32],
        out: &mut [f32],
    ) {
        let psize = self.layout.psize;
        let (out, _) = out[local_r * W..(local_r + psize) * W].as_chunks_mut::<W>();
        let (rhs, _) = rhs[base_c * W..(base_c + psize) * W].as_chunks::<W>();
        for ((&r, &c), &v) in cp.rows.iter().zip(&cp.cols).zip(vals) {
            let o = &mut out[r as usize];
            let b = &rhs[c as usize];
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
    /// `local_r` indexes `out` as in `block_full_kept`.
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
    /// rhs row. `local_r` indexes `out` as in `block_full_kept`.
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
    /// `base_r` is the logical row (for the clamp); `local_r` indexes
    /// `out` as in `block_full_kept`.
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
        assert_eq!(cp.rows, vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn plan_assignments_match_scalar_best_pattern() {
        let mut rng = StdRng::seed_from_u64(31);
        let dense = Matrix::xavier(13, 9, &mut rng);
        let set = set_of(4, 0.5, 3, 32);
        let plan = PatternPlan::compile(&dense, &set);
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
        let plan = PatternPlan::compile(&dense, &set);
        for (bi, &a) in plan.assignments().iter().enumerate() {
            assert_eq!(
                plan.block_values(bi).len(),
                plan.compiled_patterns()[a as usize].ones()
            );
        }
        assert_eq!(plan.stored_values(), 9 * 4); // 9 blocks x 4 kept each
    }

    #[test]
    fn row_splits_cover_grid_and_balance_values() {
        let mut rng = StdRng::seed_from_u64(41);
        let dense = Matrix::xavier(64, 32, &mut rng);
        let set = set_of(4, 0.5, 3, 42);
        let plan = PatternPlan::compile(&dense, &set);
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
        let plan = PatternPlan::compile(&dense, &set);
        for width in [1usize, 3, 8, 64] {
            let rhs = Matrix::xavier(30, width, &mut rng);
            let mut serial = Matrix::zeros(50, width);
            plan.matmul_into(&rhs, &mut serial);
            for workers in [1usize, 2, 3, 7, 64] {
                let mut par = Matrix::zeros(50, width);
                plan.par_matmul_into(&rhs, &mut par, workers);
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
        let plan = PatternPlan::compile(&dense, &set);
        let rhs = Matrix::zeros(8, 0);
        let mut out = Matrix::zeros(8, 0);
        plan.matmul_into(&rhs, &mut out); // must not panic
        assert_eq!(out.shape(), (8, 0));
    }
}
