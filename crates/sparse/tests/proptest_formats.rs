//! Property-based tests for the sparse formats: every format must round-trip
//! to the same dense matrix and its kernel must agree with the dense matmul.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rt3_sparse::{
    Backend, BlockPartition, BlockPrunedMatrix, BlockSquares, CompiledSet, CooMatrix, CsrMatrix,
    MaskBits, PackLayout, PatternMask, PatternPrunedMatrix, PatternSet,
};
use rt3_tensor::Matrix;
use std::sync::Arc;

/// Strategy: a small matrix with controllable density of non-zeros.
fn sparse_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop_oneof![3 => Just(0.0f32), 2 => -2.0f32..2.0f32], r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn dense_rhs(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Deterministic pseudo-random right-hand side.
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 31 + j * 17 + seed as usize) as f32;
        (x.sin() * 10.0).fract()
    })
}

/// Single-pass lowering of `dense`, written out independently of
/// `PatternPrunedMatrix`: per block (row-major over the grid) the pattern
/// `best_pattern_for` picks and the block's values in that pattern's
/// row-major kept order, 0.0 outside the matrix.
fn single_pass_lowering(dense: &Matrix, set: &PatternSet) -> (Vec<u16>, Vec<Vec<f32>>) {
    let psize = set.size();
    let mut assignments = Vec::new();
    let mut values = Vec::new();
    for base_r in (0..dense.rows()).step_by(psize) {
        for base_c in (0..dense.cols()).step_by(psize) {
            let best = set.best_pattern_for(&dense.block(base_r, base_c, psize, psize));
            assignments.push(best as u16);
            values.push(
                set.patterns()[best]
                    .kept_positions()
                    .into_iter()
                    .map(|(r, c)| {
                        let (r, c) = (base_r + r, base_c + c);
                        if r < dense.rows() && c < dense.cols() {
                            dense.get(r, c)
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            );
        }
    }
    (assignments, values)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Assign then pack reproduces a single-pass lowering exactly — the
    /// same assignments, the same arena bits block by block (so the same
    /// block offsets) — with and without a mask, on the scalar and the
    /// detected backend, over shapes with partial edge blocks. Packing
    /// with a mask equals lowering the masked weight, packing into a plan
    /// whose arena held a larger layout equals a fresh pack (no stale
    /// value survives), and the layout's kept count, bit-counted against
    /// the mask's bitmasks, is the non-zero count of `mask ∧ pattern mask`.
    #[test]
    fn assign_then_pack_matches_single_pass_lowering(
        m in sparse_matrix(19),
        psize in 2usize..6,
        sparsity in 0.0f64..0.9,
        patterns in 1usize..5,
        seed in 0u64..1_000,
        keep_mask in proptest::collection::vec(prop_oneof![1 => Just(0.0f32), 2 => Just(1.0f32)], 19 * 19),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = PatternSet::new(
            (0..patterns).map(|_| PatternMask::random(psize, sparsity, &mut rng)).collect(),
        )
        .expect("non-empty set");
        let compiled = Arc::new(CompiledSet::new(&set));
        // keeps every position: the largest arena a plan of this shape holds
        let dense_set = PatternSet::new(vec![PatternMask::new(psize, vec![true; psize * psize])])
            .expect("non-empty set");
        let mask = Matrix::from_vec(m.rows(), m.cols(), keep_mask[..m.len()].to_vec());
        let masked = m.zip(&mask, |w, k| w * k);
        for backend in [Backend::Scalar, Backend::detect()] {
            for (dense, mask) in [(&m, None), (&masked, Some(&mask))] {
                let (assignments, values) = single_pass_lowering(dense, &set);
                let squares = BlockSquares::new(dense, None, psize, backend);
                let layout = Arc::new(PackLayout::assign(&squares, &compiled));
                let plan = PatternPrunedMatrix::pack(&layout, &m, mask, backend);
                prop_assert_eq!(plan.assignments(), &assignments[..]);
                for (bi, expected) in values.iter().enumerate() {
                    prop_assert_eq!(bits(plan.block_values(bi)), bits(expected), "block {}", bi);
                }
                prop_assert_eq!(plan.stored_values(), values.iter().map(Vec::len).sum::<usize>());
                prop_assert_eq!(layout.stored_values(), plan.stored_values());
                prop_assert!(plan == PatternPrunedMatrix::from_dense_with_backend(dense, &set, backend));
                let mut reused = PatternPrunedMatrix::from_dense_with_backend(&m, &dense_set, backend);
                reused.pack_into(&layout, &m, mask);
                prop_assert!(reused == plan);
                let pattern_mask = PatternPrunedMatrix::from_dense(dense, &set).mask();
                let combined = match mask {
                    Some(mask) => pattern_mask.zip(mask, |p, k| p * k),
                    None => pattern_mask,
                };
                let kept = MaskBits::new(m.shape(), mask, psize).kept(&layout);
                prop_assert_eq!(kept, combined.count_nonzero());
            }
        }
    }

    /// Assigning through a mask equals assigning the masked weight, bit
    /// for bit, on the scalar and the detected backend, for pattern sizes
    /// 3, 4 and 8 (one bitmask word per block) and 9 and 12 (two and three
    /// words, a block row's bits crossing a word boundary) over shapes that
    /// are not block multiples, with no mask and with masks holding `0.5`
    /// entries, an all-zero row and an all-zero block. The layout's
    /// keep-mask is the pattern mask of the masked weight ∧ the mask, and
    /// its kept count, bit-counted against the mask's bitmasks, is that
    /// mask's non-zero count.
    #[test]
    fn masked_assign_matches_assigning_the_masked_weight(
        m in sparse_matrix(27),
        psize in prop_oneof![Just(3usize), Just(4usize), Just(8usize), Just(9usize), Just(12usize)],
        sparsity in 0.0f64..0.9,
        patterns in 1usize..5,
        seed in 0u64..1_000,
        keep in proptest::collection::vec(
            prop_oneof![2 => Just(0.0f32), 3 => Just(1.0f32), 1 => Just(0.5f32)],
            27 * 27,
        ),
        zero_row in 0usize..27,
        zero_block in (0usize..27, 0usize..27),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = PatternSet::new(
            (0..patterns).map(|_| PatternMask::random(psize, sparsity, &mut rng)).collect(),
        )
        .expect("non-empty set");
        let compiled = Arc::new(CompiledSet::new(&set));
        let (rows, cols) = m.shape();
        let (zr, zc) = (zero_block.0 % rows / psize * psize, zero_block.1 % cols / psize * psize);
        let mask = Matrix::from_fn(rows, cols, |r, c| {
            let in_block = (zr..zr + psize).contains(&r) && (zc..zc + psize).contains(&c);
            if r == zero_row % rows || in_block {
                0.0
            } else {
                keep[r * cols + c]
            }
        });
        let masked = m.zip(&mask, |w, k| w * k);
        for backend in [Backend::Scalar, Backend::detect()] {
            for (mask, dense) in [(None, &m), (Some(&mask), &masked)] {
                let layout = PackLayout::assign(&BlockSquares::new(&m, mask, psize, backend), &compiled);
                let squares = BlockSquares::new(dense, None, psize, backend);
                prop_assert!(layout == PackLayout::assign(&squares, &compiled));
                let pattern_mask = PatternPrunedMatrix::from_dense(dense, &set).mask();
                let combined = match mask {
                    Some(mask) => pattern_mask.zip(mask, |p, k| f32::from(p * k != 0.0)),
                    None => pattern_mask,
                };
                let keep_mask = layout.keep_mask(mask);
                prop_assert_eq!(bits(keep_mask.as_slice()), bits(combined.as_slice()));
                let kept = MaskBits::new(m.shape(), mask, psize).kept(&layout);
                prop_assert_eq!(kept, keep_mask.count_nonzero());
            }
        }
    }

    /// The table scorer of `PackLayout::assign` picks, block for block,
    /// the pattern the per-block fold of `PatternSet::best_pattern_for`
    /// picks on the masked block: pattern sizes 3, 4 and 8 over shapes
    /// that are not block multiples, with no mask and with a mask, with an
    /// all-zero block (every pattern ties at 0.0) and a duplicated pattern
    /// (a tie the earlier copy must win), on the scalar and the detected
    /// backend.
    #[test]
    fn table_scorer_matches_the_per_block_fold(
        m in sparse_matrix(27),
        psize in prop_oneof![Just(3usize), Just(4usize), Just(8usize)],
        sparsity in 0.0f64..0.9,
        patterns in 1usize..5,
        duplicate in 0usize..5,
        seed in 0u64..1_000,
        keep in proptest::collection::vec(
            prop_oneof![2 => Just(0.0f32), 3 => Just(1.0f32), 1 => Just(0.5f32)],
            27 * 27,
        ),
        zero_block in (0usize..27, 0usize..27),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut masks: Vec<PatternMask> =
            (0..patterns).map(|_| PatternMask::random(psize, sparsity, &mut rng)).collect();
        masks.push(masks[duplicate % patterns].clone());
        let set = PatternSet::new(masks).expect("non-empty set");
        let compiled = Arc::new(CompiledSet::new(&set));
        let (rows, cols) = m.shape();
        let (zr, zc) = (zero_block.0 % rows / psize * psize, zero_block.1 % cols / psize * psize);
        let weight = Matrix::from_fn(rows, cols, |r, c| {
            let in_block = (zr..zr + psize).contains(&r) && (zc..zc + psize).contains(&c);
            if in_block { 0.0 } else { m.get(r, c) }
        });
        let mask = Matrix::from_vec(rows, cols, keep[..rows * cols].to_vec());
        for backend in [Backend::Scalar, Backend::detect()] {
            for mask in [None, Some(&mask)] {
                let squares = BlockSquares::new(&weight, mask, psize, backend);
                let layout = Arc::new(PackLayout::assign(&squares, &compiled));
                let assignments = PatternPrunedMatrix::pack(&layout, &weight, mask, backend)
                    .assignments()
                    .to_vec();
                let masked = mask.map_or_else(|| weight.clone(), |k| weight.zip(k, |w, k| w * k));
                let mut bi = 0;
                for base_r in (0..rows).step_by(psize) {
                    for base_c in (0..cols).step_by(psize) {
                        let block = masked.block(base_r, base_c, psize, psize);
                        prop_assert_eq!(
                            assignments[bi] as usize,
                            set.best_pattern_for(&block),
                            "block ({}, {})", base_r, base_c
                        );
                        bi += 1;
                    }
                }
                prop_assert_eq!(bi, assignments.len());
                // the duplicate ties its original on every block
                prop_assert!(assignments.iter().all(|&a| a as usize != patterns));
            }
        }
    }

    #[test]
    fn coo_roundtrip_and_matmul(m in sparse_matrix(12)) {
        let coo = CooMatrix::from_dense(&m);
        prop_assert!(coo.to_dense().approx_eq(&m, 0.0));
        let rhs = dense_rhs(m.cols(), 3, 1);
        prop_assert!(coo.matmul_dense(&rhs).approx_eq(&m.matmul(&rhs), 1e-3));
        prop_assert_eq!(coo.nnz(), m.count_nonzero());
    }

    #[test]
    fn csr_roundtrip_and_matmul(m in sparse_matrix(12)) {
        let csr = CsrMatrix::from_dense(&m);
        prop_assert!(csr.to_dense().approx_eq(&m, 0.0));
        let rhs = dense_rhs(m.cols(), 4, 2);
        prop_assert!(csr.matmul_dense(&rhs).approx_eq(&m.matmul(&rhs), 1e-3));
    }

    #[test]
    fn block_pruned_roundtrip_and_matmul(m in sparse_matrix(12), blocks in 1usize..4) {
        let blocks = blocks.min(m.rows());
        let partition = BlockPartition::even(m.rows(), blocks);
        let bp = BlockPrunedMatrix::from_dense(&m, &partition);
        prop_assert!(bp.to_dense().approx_eq(&m, 0.0));
        let rhs = dense_rhs(m.cols(), 3, 3);
        prop_assert!(bp.matmul_dense(&rhs).approx_eq(&m.matmul(&rhs), 1e-3));
        // the keep-mask must cover every non-zero
        let masked = m.zip(&bp.mask(), |v, mask| v * mask);
        prop_assert!(masked.approx_eq(&m, 0.0));
    }

    #[test]
    fn pattern_pruned_mask_is_consistent(
        m in sparse_matrix(12),
        psize in 2usize..5,
        sparsity in 0.0f64..0.9,
    ) {
        let bits_a = PatternMask::from_importance(
            &Matrix::from_fn(psize, psize, |i, j| ((i * 7 + j * 13) % 5) as f32),
            sparsity,
        );
        let bits_b = PatternMask::from_importance(
            &Matrix::from_fn(psize, psize, |i, j| ((i * 3 + j * 11) % 7) as f32),
            sparsity,
        );
        let set = PatternSet::new(vec![bits_a, bits_b]).expect("non-empty set");
        let pp = PatternPrunedMatrix::from_dense(&m, &set);
        // reconstruction equals mask applied to the original
        let expected = m.zip(&pp.mask(), |v, mask| v * mask);
        prop_assert!(pp.to_dense().approx_eq(&expected, 0.0));
        // kernel agrees with masked dense matmul
        let rhs = dense_rhs(m.cols(), 2, 4);
        prop_assert!(pp.matmul_dense(&rhs).approx_eq(&expected.matmul(&rhs), 1e-3));
        // every block got a valid assignment
        prop_assert!(pp.assignments().iter().all(|&a| (a as usize) < set.len()));
    }

    /// The compiled-plan kernel must be *bit-identical* to the retained
    /// scalar reference across random shapes, including partial edge blocks
    /// (dims not divisible by psize) and all-zero blocks, on the scalar and
    /// the detected backend. The two patterns draw their sparsities
    /// independently, so a set mixes kept counts (arena strides) per
    /// pattern and can hold a near-empty pattern next to a dense one.
    /// Exact equality holds because the plan accumulates into each output
    /// element in the same order as the reference; the only divergence —
    /// the reference skips stored zeros, the plan multiplies them through —
    /// can flip the sign of a zero partial sum, and `approx_eq(_, 0.0)`
    /// treats -0.0 and +0.0 as equal (documented float-reassociation-free
    /// tolerance).
    #[test]
    fn compiled_kernel_is_bit_identical_to_scalar_reference(
        m in sparse_matrix(17),
        psize in 2usize..6,
        sparsity_a in 0.0f64..0.95,
        sparsity_b in 0.0f64..0.95,
        width in 1usize..6,
    ) {
        let bits_a = PatternMask::from_importance(
            &Matrix::from_fn(psize, psize, |i, j| ((i * 5 + j * 3) % 7) as f32),
            sparsity_a,
        );
        let bits_b = PatternMask::from_importance(
            &Matrix::from_fn(psize, psize, |i, j| ((i * 11 + j * 2) % 9) as f32),
            sparsity_b,
        );
        let set = PatternSet::new(vec![bits_a, bits_b]).expect("non-empty set");
        let rhs = dense_rhs(m.cols(), width, 7);
        for backend in [Backend::Scalar, Backend::detect()] {
            let pp = PatternPrunedMatrix::from_dense_with_backend(&m, &set, backend);
            let compiled = pp.matmul_dense(&rhs);
            let scalar = rt3_sparse::reference::matmul_dense_scalar(&pp, &rhs);
            prop_assert!(
                compiled.approx_eq(&scalar, 0.0),
                "compiled plan ({}) diverged from the scalar reference",
                backend.label()
            );
            // the zero-allocation entry point computes the same thing
            let mut out = Matrix::filled(pp.rows(), width, f32::NAN);
            pp.matmul_dense_into(&rhs, &mut out);
            prop_assert!(out.approx_eq(&compiled, 0.0));
        }
    }

    /// An all-zero matrix exercises every block through the plan with a
    /// fully zero arena: kernels, mask and reconstruction must still agree
    /// with the reference bit-for-bit.
    #[test]
    fn compiled_kernel_handles_all_zero_blocks(
        rows in 2usize..14,
        cols in 2usize..14,
        psize in 2usize..5,
    ) {
        let m = Matrix::zeros(rows, cols);
        let imp = Matrix::from_fn(psize, psize, |i, j| ((i * 3 + j) % 4) as f32);
        let set = PatternSet::new(vec![PatternMask::from_importance(&imp, 0.5)])
            .expect("non-empty set");
        let pp = PatternPrunedMatrix::from_dense(&m, &set);
        let rhs = dense_rhs(cols, 3, 9);
        let compiled = pp.matmul_dense(&rhs);
        let scalar = rt3_sparse::reference::matmul_dense_scalar(&pp, &rhs);
        prop_assert!(compiled.approx_eq(&scalar, 0.0));
        prop_assert!(compiled.approx_eq(&Matrix::zeros(rows, 3), 0.0));
        prop_assert!(pp.to_dense().approx_eq(&m, 0.0));
        // the mask still marks kept positions even though every value is 0
        prop_assert!(pp.mask().count_nonzero() > 0);
    }

    #[test]
    fn pattern_sparsity_matches_request(psize in 3usize..12, sparsity in 0.0f64..1.0) {
        let imp = Matrix::from_fn(psize, psize, |i, j| (i * psize + j) as f32);
        let p = PatternMask::from_importance(&imp, sparsity);
        let expected_keep = ((1.0 - sparsity) * (psize * psize) as f64).round() as usize;
        prop_assert_eq!(p.ones(), expected_keep);
    }

    #[test]
    fn partition_covers_every_row_exactly_once(dim in 1usize..200, blocks in 1usize..16) {
        let blocks = blocks.min(dim);
        let p = BlockPartition::even(dim, blocks);
        prop_assert_eq!(p.total(), dim);
        let mut covered = vec![false; dim];
        for &(s, e) in p.ranges() {
            for (i, slot) in covered.iter_mut().enumerate().skip(s).take(e - s) {
                prop_assert!(!*slot, "row {} covered twice", i);
                *slot = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
    }
}
