//! Kernel-regression guard: the worker pool's inference checksum over a
//! pinned model and batch list is pinned against the value produced by the
//! PR 2 scalar `matmul_dense` kernel, so a kernel rewrite (the PR 3 compiled
//! execution plans) cannot silently change what the sparse matmuls compute.
//!
//! The checksum is a sum of Frobenius norms of real matmul outputs; it is
//! exactly reproducible because the whole pipeline (vendored splitmix64
//! `StdRng`, IEEE-754 single-precision accumulation in a fixed order) is
//! deterministic. If an *intentional* numeric change moves it, re-capture
//! with `CHECKSUM_PRINT=1 cargo test -p rt3-runtime --test pool_checksum --
//! --nocapture` and update the constant — in the same change that explains
//! why.

use rt3_hardware::MemoryModel;
use rt3_pruning::{
    block_prune_model, generate_pattern_space, BlockPruningConfig, PatternSpaceConfig,
};
use rt3_runtime::{pool, BankedModel, ModelBank};
use rt3_transformer::{TransformerConfig, TransformerLm};

/// Pinned checksum captured from the PR 2 scalar kernel for the model and
/// batch list below (seed 21, tiny(32) transformer, one 0.6-sparsity set).
const PR2_CHECKSUM: f64 = 163.54025781154633;

fn pinned_model() -> BankedModel {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 21);
    let backbone = block_prune_model(&model, &BlockPruningConfig::default());
    let space = generate_pattern_space(
        &model,
        &backbone,
        &[0.6],
        &PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 2,
            sample_fraction: 0.5,
            seed: 21,
        },
    );
    let mut bank = ModelBank::new(&model, backbone, &space, &[0], MemoryModel::odroid_xu3(), 1);
    bank.get(0).clone()
}

#[test]
fn pool_checksum_matches_pr2_scalar_kernel() {
    let model = pinned_model();
    let batches = vec![1, 2, 4, 8, 3, 5, 2, 1];
    let outcome = pool::run_batches(&model, &batches, 4, None);
    if std::env::var("CHECKSUM_PRINT").is_ok() {
        println!("pool checksum = {:?}", outcome.checksum);
        return;
    }
    assert_eq!(outcome.batches, 8);
    assert_eq!(
        outcome.checksum, PR2_CHECKSUM,
        "PoolOutcome.checksum drifted from the PR 2 kernel — the compiled \
         plan no longer computes the same products"
    );
}
