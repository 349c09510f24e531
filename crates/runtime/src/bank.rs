//! The model bank: one pre-materialised sparse model per V/F level.
//!
//! Offline, the Level-2 search picks one candidate pattern set per governor
//! level ([`rt3_core::SearchOutcome`]) — under any `rt3-search` optimizer
//! (the RL controller is the default; `rt3_core::run_level2_search_with`
//! accepts evolutionary/bandit/random/exhaustive alternatives), so better
//! search directly moves what this bank serves. Online, switching levels must be a
//! lightweight pattern-set swap, not a model rebuild — so the bank turns each
//! chosen pattern set into a [`BankedModel`]: the block-sparse Level-1 ∧
//! Level-2 weights ([`PatternPrunedMatrix`]) the workers execute. Entries
//! build lazily on first use and live in a small LRU cache, mirroring how a
//! memory-constrained device would page pattern sets in and out of its
//! working set; the eviction/rebuild traffic is exactly what
//! [`MemoryModel::pattern_switch_cost`] charges for.
//!
//! Lowering is split the way the paper splits its switch. Which pattern
//! each block gets depends only on the model, the backbone and the pattern
//! set, so a level is lowered once — the first time any bank over the same
//! assignment builds it, by the [`PatternScorer`] the offline search lowers
//! its candidates with, built once per assignment and kept for every level
//! — and the lowering is kept, for good and across evictions. Per weight it
//! is a [`PackLayout`] narrowed to the positions both pruning levels keep
//! ([`PackLayout::restrict`]: each block's pattern ∧ its backbone bits), so
//! a switch gathers, and a kernel multiplies, only the values the cost
//! model prices — Level 1 ∧ Level 2 — and none of the `w * 0` a layout
//! over the pattern alone would store. The layout holds a `u16` pattern id
//! and a `u32` arena offset per block (6 bytes per block) and, from the
//! first gather on, a `u32` index stream entry per stored value; the
//! level's layouts share one compiled copy of the distinct restricted
//! patterns their blocks use, and the level also keeps its achieved
//! sparsity. A bank and its spares
//! ([`ModelBank::spare`], one per fleet device) share the scorer, those
//! lowerings, the backbone and the assignment behind one `Arc`, so a level
//! is lowered once however many banks serve it. Every later build of the
//! level, which is what a cold V/F switch pays, is a pure gather: the bank
//! first evicts the least-recently-used variant, so it never holds more
//! than its capacity, then refills that variant's own arenas in place with
//! the new level's kept values. Once every arena has held its largest
//! level, a switch allocates nothing. For finite activations the
//! restricted weights multiply to the same bits as weights that also store
//! the masked zeros (see `rt3_sparse::PatternPrunedMatrix`).

use rt3_hardware::{MemoryModel, SwitchCost};
use rt3_pruning::{CandidatePatternSet, Lowering, PatternScorer, PatternSpace, PrunableWeight};
use rt3_sparse::{Backend, PatternPrunedMatrix, PatternSet};
use rt3_tensor::Matrix;
use rt3_transformer::{MaskSet, Model};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// One ready-to-serve sparse model variant.
#[derive(Debug, Clone, Default)]
pub struct BankedModel {
    /// Governor level position this variant serves (0 = lowest frequency).
    pub level_pos: usize,
    /// Target sparsity of the candidate pattern set.
    pub target_sparsity: f64,
    /// Achieved overall sparsity of the combined backbone ∧ pattern masks.
    pub sparsity: f64,
    /// Block-sparse prunable weights, in model parameter order.
    pub weights: Vec<(String, PatternPrunedMatrix)>,
}

/// Reusable activation/output buffers for [`BankedModel::infer_with`], so a
/// steady-state worker allocates its matmul operands once and then serves
/// every micro-batch allocation-free (the compiled kernel itself never
/// allocates — see `rt3_sparse::PatternPrunedMatrix::matmul_dense_into`).
#[derive(Debug, Default)]
pub struct InferScratch {
    rhs: Vec<f32>,
    out: Vec<f32>,
}

impl InferScratch {
    /// Empty scratch; buffers grow to the largest weight on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BankedModel {
    /// Runs one real sparse inference batch through every banked weight:
    /// each pattern-pruned matrix multiplies a deterministic activation
    /// block with `batch` columns. Returns a checksum of the outputs so the
    /// work cannot be optimised away and runs can be compared bit-for-bit.
    pub fn infer(&self, batch: usize) -> f64 {
        self.infer_with(batch, &mut InferScratch::new())
    }

    /// [`Self::infer`] with caller-owned buffers: identical checksum (same
    /// activations, same kernel, same summation order), but the rhs/output
    /// matrices are carved out of `scratch` instead of freshly allocated,
    /// which is what the worker pool runs per micro-batch.
    pub fn infer_with(&self, batch: usize, scratch: &mut InferScratch) -> f64 {
        self.infer_impl(batch, scratch, 1)
    }

    /// [`Self::infer_with`] with intra-matmul parallelism: every weight's
    /// matmul splits its block-row space across up to `workers` scoped
    /// threads (`PatternPrunedMatrix::par_matmul_dense_into`). The parallel
    /// kernel is bit-identical to the serial one for every worker count, so
    /// the checksum is too — this is how the pool saturates its workers
    /// when a dispatch window carries fewer batches than threads.
    pub fn infer_par_with(&self, batch: usize, scratch: &mut InferScratch, workers: usize) -> f64 {
        self.infer_impl(batch, scratch, workers)
    }

    fn infer_impl(&self, batch: usize, scratch: &mut InferScratch, workers: usize) -> f64 {
        let width = batch.max(1);
        let mut checksum = 0.0f64;
        for (idx, (_, weight)) in self.weights.iter().enumerate() {
            let cols = weight.cols();
            let mut rhs_buf = std::mem::take(&mut scratch.rhs);
            fill_activations(&mut rhs_buf, cols, width, idx);
            let rhs = Matrix::from_vec(cols, width, rhs_buf);
            let mut out_buf = std::mem::take(&mut scratch.out);
            out_buf.resize(weight.rows() * width, 0.0);
            let mut out = Matrix::from_vec(weight.rows(), width, out_buf);
            if workers <= 1 {
                weight.matmul_dense_into(&rhs, &mut out);
            } else {
                weight.par_matmul_dense_into(&rhs, &mut out, workers);
            }
            checksum += out.frobenius_norm() as f64;
            scratch.rhs = rhs.into_vec();
            scratch.out = out.into_vec();
        }
        checksum
    }

    /// Number of stored (surviving) weight values across all banked weights.
    pub fn stored_values(&self) -> usize {
        self.weights.iter().map(|(_, w)| w.stored_values()).sum()
    }
}

/// Fills `buf` with the cheap deterministic activations of weight `idx`: a
/// row-major `rows x width` block whose element `(i, j)` is
/// `((i * 31 + j * 17 + idx * 7) % 13) / 13 - 0.5`, distinct per weight.
/// The residue steps by 31 per row and by 17 per column, so the fill needs
/// no division by the runtime width.
fn fill_activations(buf: &mut Vec<f32>, rows: usize, width: usize, idx: usize) {
    buf.clear();
    buf.reserve(rows * width);
    let mut row_start = (idx * 7) % 13;
    for _ in 0..rows {
        let mut x = row_start;
        for _ in 0..width {
            buf.push(x as f32 / 13.0 - 0.5);
            x = (x + 17) % 13;
        }
        row_start = (row_start + 31) % 13;
    }
}

/// Cache statistics of a [`ModelBank`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Entries served from cache.
    pub hits: u64,
    /// Entries built (cold or after eviction).
    pub builds: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

/// Pre-materialised per-level model variants with lazy build and LRU
/// eviction.
pub struct ModelBank<'m, M: Model> {
    model: PhantomData<&'m M>,
    /// What every bank over this assignment shares.
    shared: Arc<Assignment<'m>>,
    entries: Vec<Option<BankedModel>>,
    /// Level positions ordered least- to most-recently used.
    recency: Vec<usize>,
    capacity: usize,
    stats: BankStats,
}

/// The state of a bank that does not depend on what it holds resident,
/// shared by a bank and its spares.
struct Assignment<'m> {
    backbone: MaskSet,
    /// The prunable weights, in model parameter order.
    prunable: Vec<(String, &'m Matrix)>,
    /// One chosen candidate per governor level position (0 = lowest
    /// frequency).
    levels: Vec<CandidatePatternSet>,
    /// The lowering rule over the backbone-masked prunable weights; built
    /// on the first level's first build, then kept for every other level.
    scorer: OnceLock<PatternScorer>,
    /// Per level, the restricted layouts of every prunable weight and the
    /// achieved sparsity; filled on the level's first build by any sharing
    /// bank.
    lowered: Vec<OnceLock<Lowering>>,
    memory: MemoryModel,
    total_blocks: usize,
}

impl Assignment<'_> {
    /// The level's lowering, lowered on first use (see the module docs).
    fn lowering(&self, level_pos: usize) -> &Lowering {
        self.lowered[level_pos].get_or_init(|| {
            let scorer = self.scorer.get_or_init(|| {
                let weights: Vec<PrunableWeight<'_>> = self
                    .prunable
                    .iter()
                    .map(|(name, weight)| PrunableWeight {
                        name: name.clone(),
                        weight,
                        backbone: self.backbone.get(name),
                    })
                    .collect();
                // every level of one pattern space shares a pattern size
                PatternScorer::new(&weights, &self.backbone, self.levels[0].set.size())
            });
            scorer.lower_restricted(&self.levels[level_pos].set)
        })
    }
}

impl<'m, M: Model> ModelBank<'m, M> {
    /// Builds a bank over the best solution of a Level-2 search. No block
    /// is scored here; each level is lowered on its first build.
    ///
    /// `actions` are candidate indices ordered as the paper orders sub-models
    /// — from the *highest*-frequency level (M1) down — while bank slots are
    /// governor level positions (0 = lowest frequency), so the assignment is
    /// reversed here. `capacity` bounds how many variants stay materialised
    /// at once (a capacity of `actions.len()` keeps everything resident).
    ///
    /// # Panics
    ///
    /// Panics if `actions` is empty, an action indexes outside `space`, or
    /// `capacity` is zero.
    pub fn new(
        model: &'m M,
        backbone: MaskSet,
        space: &PatternSpace,
        actions: &[usize],
        memory: MemoryModel,
        capacity: usize,
    ) -> Self {
        assert!(
            !actions.is_empty(),
            "at least one level assignment is required"
        );
        assert!(capacity > 0, "bank capacity must be positive");
        let levels: Vec<CandidatePatternSet> = actions
            .iter()
            .rev()
            .map(|&a| {
                assert!(a < space.len(), "action {a} outside the pattern space");
                space.candidates()[a].clone()
            })
            .collect();
        let names = model.prunable_parameter_names();
        let prunable: Vec<(String, &'m Matrix)> = model
            .parameters()
            .into_iter()
            .filter(|(name, _)| names.contains(name))
            .collect();
        let psize = space.pattern_size();
        let total_blocks = prunable
            .iter()
            .map(|(_, w)| w.rows().div_ceil(psize) * w.cols().div_ceil(psize))
            .sum();
        let shared = Arc::new(Assignment {
            backbone,
            prunable,
            scorer: OnceLock::new(),
            lowered: levels.iter().map(|_| OnceLock::new()).collect(),
            levels,
            memory,
            total_blocks,
        });
        Self::over(shared, capacity)
    }

    /// An empty bank of `capacity` over `shared`.
    fn over(shared: Arc<Assignment<'m>>, capacity: usize) -> Self {
        let levels = shared.levels.len();
        Self {
            model: PhantomData,
            shared,
            entries: (0..levels).map(|_| None).collect(),
            recency: Vec::with_capacity(levels),
            capacity,
            stats: BankStats::default(),
        }
    }

    /// Number of governor levels the bank serves.
    pub fn levels(&self) -> usize {
        self.shared.levels.len()
    }

    /// The candidate pattern set assigned to a level position.
    pub fn pattern_set(&self, level_pos: usize) -> &PatternSet {
        &self.shared.levels[level_pos].set
    }

    /// Target sparsity assigned to a level position.
    pub fn target_sparsity(&self, level_pos: usize) -> f64 {
        self.shared.levels[level_pos].sparsity
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Total `psize × psize` blocks across the prunable weights (the unit of
    /// the switch-cost model).
    pub fn total_blocks(&self) -> usize {
        self.shared.total_blocks
    }

    /// Cost of swapping the pattern set of `level_pos` into the working set.
    pub fn switch_cost(&self, level_pos: usize) -> SwitchCost {
        let shared = &self.shared;
        shared
            .memory
            .pattern_switch_cost(&shared.levels[level_pos].set, shared.total_blocks)
    }

    /// Builds the variant for a level from scratch, bypassing the cache.
    /// Deterministic: two cold rebuilds produce bit-identical weights and
    /// sparsity (the invariant the bank's caching relies on). The cost-model
    /// calibration pass ([`crate::cost::calibrate`]) also builds its
    /// per-level timing probes through here, so measuring leaves the
    /// serving bank's residency and LRU statistics untouched.
    ///
    /// The level's first build by this bank or any bank sharing its
    /// lowerings scores every block of the backbone-masked weights against
    /// its pattern set and keeps the resulting layouts, narrowed to the
    /// backbone's kept positions; every build — the first included — then
    /// gathers each prunable weight straight from the model weight and its
    /// backbone mask under those layouts
    /// ([`PatternPrunedMatrix::pack_into`]), the same gather a cold switch
    /// in [`Self::get`] runs into an evicted variant's arenas. Each weight
    /// keeps exactly its combined mask of
    /// `rt3_pruning::combined_masks_for_model`, and the achieved sparsity
    /// equals those masks' `overall_sparsity` bit for bit.
    pub fn rebuild_cold(&self, level_pos: usize) -> BankedModel {
        let mut variant = BankedModel::default();
        self.refill(level_pos, &mut variant);
        variant
    }

    /// Overwrites `variant` with the level's weights, reusing its arenas.
    /// A non-empty `variant` must come from this bank: every variant lists
    /// the same weights in the same order, so names stay as they are.
    fn refill(&self, level_pos: usize, variant: &mut BankedModel) {
        let shared = &*self.shared;
        let lowering = shared.lowering(level_pos);
        variant.level_pos = level_pos;
        variant.target_sparsity = shared.levels[level_pos].sparsity;
        variant.sparsity = lowering.sparsity;
        let layouts = &lowering.layouts;
        for (k, ((name, weight), layout)) in shared.prunable.iter().zip(layouts).enumerate() {
            let mask = shared.backbone.get(name);
            match variant.weights.get_mut(k) {
                Some((_, packed)) => packed.pack_into(layout, weight, mask),
                None => variant.weights.push((
                    name.clone(),
                    PatternPrunedMatrix::pack(layout, weight, mask, Backend::detect()),
                )),
            }
        }
    }

    /// The variant for `level_pos`. On a cache miss a full bank first
    /// evicts its least-recently-used variant, then refills that variant's
    /// buffers with the level's values, so at most `capacity` variants are
    /// ever resident.
    pub fn get(&mut self, level_pos: usize) -> &BankedModel {
        assert!(
            level_pos < self.entries.len(),
            "level position out of range"
        );
        if self.entries[level_pos].is_some() {
            self.stats.hits += 1;
        } else {
            let mut variant = self.evict_lru().unwrap_or_default();
            self.refill(level_pos, &mut variant);
            self.entries[level_pos] = Some(variant);
            self.stats.builds += 1;
        }
        self.recency.retain(|&p| p != level_pos);
        self.recency.push(level_pos);
        self.entries[level_pos]
            .as_ref()
            .expect("entry just ensured")
    }

    /// An empty bank of `capacity` over the same levels that shares this
    /// bank's lowerings, those still to come included: a level either bank
    /// lowers, the other builds without scoring a block. It keeps its own
    /// residency and [`BankStats`].
    pub(crate) fn spare(&self, capacity: usize) -> Self {
        assert!(capacity > 0, "bank capacity must be positive");
        Self::over(Arc::clone(&self.shared), capacity)
    }

    /// Whether the variant for `level_pos` is currently materialised.
    pub fn is_resident(&self, level_pos: usize) -> bool {
        self.entries[level_pos].is_some()
    }

    /// Removes the least-recently-used variant if the bank is full.
    fn evict_lru(&mut self) -> Option<BankedModel> {
        if self.recency.len() < self.capacity {
            return None;
        }
        let victim = self.recency.remove(0);
        self.stats.evictions += 1;
        self.entries[victim].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_pruning::{
        block_prune_model, combined_masks_for_model, generate_pattern_space, BlockPruningConfig,
        PatternSpaceConfig,
    };
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn setup() -> (TransformerLm, MaskSet, PatternSpace) {
        setup_with(4)
    }

    fn setup_with(pattern_size: usize) -> (TransformerLm, MaskSet, PatternSpace) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 5);
        let backbone = block_prune_model(&model, &BlockPruningConfig::default());
        let space = generate_pattern_space(
            &model,
            &backbone,
            &[0.4, 0.6, 0.8],
            &PatternSpaceConfig {
                pattern_size,
                patterns_per_set: 2,
                sample_fraction: 0.5,
                seed: 2,
            },
        );
        (model, backbone, space)
    }

    #[test]
    fn activation_fill_matches_closed_form() {
        let mut buf = vec![1.0; 3];
        for width in 1..=4 {
            for idx in [0, 1, 5, 12, 13, 22, 100] {
                fill_activations(&mut buf, 37, width, idx);
                let expected: Vec<f32> = (0..37 * width)
                    .map(|k| {
                        let x = ((k / width) * 31 + (k % width) * 17 + idx * 7) % 13;
                        x as f32 / 13.0 - 0.5
                    })
                    .collect();
                assert_eq!(buf, expected, "width {width}, weight {idx}");
            }
        }
    }

    #[test]
    fn bank_reverses_action_order_and_builds_lazily() {
        let (model, backbone, space) = setup();
        // M1 (highest frequency) gets the densest candidate 0
        let mut bank = ModelBank::new(
            &model,
            backbone,
            &space,
            &[0, 1, 2],
            MemoryModel::odroid_xu3(),
            3,
        );
        assert_eq!(bank.levels(), 3);
        // slot 0 = lowest frequency = last action = sparsest candidate
        assert!(bank.target_sparsity(0) > bank.target_sparsity(2));
        assert_eq!(bank.stats().builds, 0);
        let sparsity_low = bank.get(0).sparsity;
        assert_eq!(bank.stats().builds, 1);
        let sparsity_high = bank.get(2).sparsity;
        assert!(sparsity_low >= sparsity_high);
        let _ = bank.get(0);
        assert_eq!(bank.stats().hits, 1);
        assert_eq!(bank.stats().builds, 2);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_rebuilds_identically() {
        let (model, backbone, space) = setup();
        let mut bank = ModelBank::new(
            &model,
            backbone,
            &space,
            &[0, 1, 2],
            MemoryModel::odroid_xu3(),
            2,
        );
        let first = bank.get(0).weights.clone();
        let _ = bank.get(1);
        let _ = bank.get(2); // evicts level 0
        assert_eq!(bank.stats().evictions, 1);
        assert!(!bank.is_resident(0));
        assert!(bank.is_resident(1) && bank.is_resident(2));
        let rebuilt = bank.get(0).weights.clone(); // evicts level 1
        assert_eq!(
            first, rebuilt,
            "rebuild after eviction must be bit-identical"
        );
        assert!(!bank.is_resident(1));
    }

    /// Per level, the combined backbone ∧ pattern masks of the prunable
    /// weights, in model parameter order, and their overall sparsity.
    fn combined_masks_by_level(
        model: &TransformerLm,
        backbone: &MaskSet,
        bank: &ModelBank<'_, TransformerLm>,
    ) -> Vec<(Vec<Matrix>, f64)> {
        let prunable = model.prunable_parameter_names();
        (0..bank.levels())
            .map(|level| {
                let masks =
                    combined_masks_for_model(model, backbone, &prunable, bank.pattern_set(level));
                let weights = model
                    .parameters()
                    .into_iter()
                    .filter(|(name, _)| prunable.contains(name))
                    .map(|(name, _)| masks.get(&name).expect("a mask per weight").clone())
                    .collect();
                (weights, masks.overall_sparsity())
            })
            .collect()
    }

    /// The oracle for the kept tables and the buffer reuse: a capacity-1
    /// bank is switched across every ordered level pair, so each level is
    /// built first from scratch and then refilled into every other level's
    /// evicted buffers. Each banked weight must keep exactly the combined
    /// backbone ∧ pattern mask, and hold, as numbers, the values of a
    /// from-scratch lowering of the backbone-masked weight, which also
    /// stores the `w * 0` the bank's restricted layouts drop; its products
    /// at widths 1–4 must equal that lowering's bit for bit, and the
    /// sparsity must equal the combined masks' bit for bit. The walk
    /// includes a step from a larger to a smaller arena, where stale tail
    /// values would show. Pattern size 3 leaves partial edge blocks on the
    /// 16- and 32-wide weights.
    #[test]
    fn banked_levels_match_a_from_scratch_lowering() {
        for pattern_size in [4, 3] {
            let (model, backbone, space) = setup_with(pattern_size);
            let prunable = model.prunable_parameter_names();
            let mut bank = ModelBank::new(
                &model,
                backbone.clone(),
                &space,
                &[0, 1, 2],
                MemoryModel::odroid_xu3(),
                1,
            );
            let combined = combined_masks_by_level(&model, &backbone, &bank);
            let from_scratch: Vec<Vec<PatternPrunedMatrix>> = (0..bank.levels())
                .map(|level| {
                    let set = bank.pattern_set(level);
                    model
                        .parameters()
                        .into_iter()
                        .filter(|(name, _)| prunable.contains(name))
                        .map(|(name, w)| {
                            let mask = backbone.get(&name).expect("backbone masks every weight");
                            PatternPrunedMatrix::from_dense(&w.zip(mask, |a, b| a * b), set)
                        })
                        .collect()
                })
                .collect();
            let stored = |level: usize| -> usize {
                combined[level].0.iter().map(Matrix::count_nonzero).sum()
            };
            let bits =
                |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
            let mut shrinks = false;
            let mut accesses = 0;
            for from in 0..bank.levels() {
                for to in (0..bank.levels()).filter(|&to| to != from) {
                    shrinks |= stored(from) > stored(to);
                    for level in [from, to] {
                        let banked = bank.get(level);
                        accesses += 1;
                        let what = format!("psize {pattern_size} {from} -> {to}: level {level}");
                        assert_eq!(banked.weights.len(), from_scratch[level].len());
                        let expected = from_scratch[level].iter().zip(&combined[level].0);
                        for ((name, got), (want, mask)) in banked.weights.iter().zip(expected) {
                            assert_eq!(bits(&got.mask()), bits(mask), "{what} {name} mask");
                            assert!(got.to_dense() == want.to_dense(), "{what} {name} values");
                            for width in 1..=4 {
                                let rhs = Matrix::from_fn(got.cols(), width, |i, j| {
                                    ((i * 7 + j * 3) % 11) as f32 / 11.0 - 0.5
                                });
                                assert_eq!(
                                    bits(&got.matmul_dense(&rhs)),
                                    bits(&want.matmul_dense(&rhs)),
                                    "{what} {name} width {width}"
                                );
                            }
                        }
                        assert_eq!(banked.sparsity.to_bits(), combined[level].1.to_bits());
                    }
                }
            }
            assert!(shrinks, "the walk must shrink an arena");
            let stats = bank.stats();
            assert_eq!(stats.hits + stats.builds, accesses);
            assert_eq!(stats.evictions, stats.builds - 1);
        }
    }

    /// A banked level stores exactly the values both pruning levels keep:
    /// its stored count is the non-zero count of the combined backbone ∧
    /// pattern masks over the patterned weights, with and without edge
    /// blocks.
    #[test]
    fn banked_levels_store_only_what_both_levels_keep() {
        for pattern_size in [4, 3] {
            let (model, backbone, space) = setup_with(pattern_size);
            let mut bank = ModelBank::new(
                &model,
                backbone.clone(),
                &space,
                &[0, 1, 2],
                MemoryModel::odroid_xu3(),
                3,
            );
            let combined = combined_masks_by_level(&model, &backbone, &bank);
            for (level, (masks, _)) in combined.iter().enumerate() {
                let kept: usize = masks.iter().map(Matrix::count_nonzero).sum();
                assert_eq!(bank.get(level).stored_values(), kept, "level {level}");
            }
        }
    }

    /// A spare taken before any build shares the lowerings still to come:
    /// a level it lowers is the level its parent builds from, and both
    /// build what a cold rebuild does, while each bank keeps its own
    /// statistics.
    #[test]
    fn spares_share_levels_lowered_after_they_were_taken() {
        let (model, backbone, space) = setup();
        let mut bank = ModelBank::new(
            &model,
            backbone,
            &space,
            &[0, 1, 2],
            MemoryModel::odroid_xu3(),
            3,
        );
        let mut spare = bank.spare(1);
        let from_spare = spare.get(1).clone();
        let _ = spare.get(1);
        let from_bank = bank.get(1).clone();
        let first_layout = |bank: &ModelBank<'_, TransformerLm>| {
            let lowering = bank.shared.lowered[1].get().expect("level 1 is lowered");
            Arc::clone(&lowering.layouts[0])
        };
        assert!(Arc::ptr_eq(&first_layout(&bank), &first_layout(&spare)));
        let cold = bank.rebuild_cold(1);
        for variant in [&from_spare, &from_bank] {
            assert!(variant.weights == cold.weights);
            assert_eq!(variant.sparsity.to_bits(), cold.sparsity.to_bits());
        }
        let stats = |hits, builds| BankStats {
            hits,
            builds,
            evictions: 0,
        };
        assert_eq!(spare.stats(), stats(1, 1));
        assert_eq!(bank.stats(), stats(0, 1));
    }

    #[test]
    fn switch_cost_is_positive_and_grows_with_patterns() {
        let (model, backbone, space) = setup();
        let bank = ModelBank::new(
            &model,
            backbone,
            &space,
            &[0, 1, 2],
            MemoryModel::odroid_xu3(),
            3,
        );
        assert!(bank.total_blocks() > 0);
        let cost = bank.switch_cost(0);
        assert!(cost.time_ms > 0.0 && cost.bytes_moved > 0);
    }

    #[test]
    fn banked_inference_is_deterministic_and_nontrivial() {
        let (model, backbone, space) = setup();
        let mut bank = ModelBank::new(
            &model,
            backbone,
            &space,
            &[0, 1, 2],
            MemoryModel::odroid_xu3(),
            3,
        );
        let banked = bank.get(1);
        let a = banked.infer(4);
        let b = banked.infer(4);
        assert_eq!(a, b, "inference checksum must be deterministic");
        assert!(a.is_finite() && a != 0.0);
        assert!(banked.stored_values() > 0);
    }
}
