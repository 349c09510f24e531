//! Property-based pins for restricted layouts: a plan packed under
//! `PackLayout::restrict` stores only the positions both its patterns and
//! its mask keep, and multiplies to the same bits as the unrestricted plan
//! it was narrowed from, for every finite rhs, serial and parallel, on the
//! scalar and the detected backend. The unrestricted plan stores `w * 0`
//! at every masked position its patterns keep; each such product is `±0`
//! and an accumulator that starts at `+0` never becomes `-0` under
//! round-to-nearest, so dropping them changes no output bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rt3_sparse::{
    Backend, BlockSquares, CompiledSet, MaskBits, PackLayout, PatternMask, PatternPrunedMatrix,
    PatternSet,
};
use rt3_tensor::Matrix;
use std::sync::Arc;

/// Every rhs width the serving engines dispatch, plus a runtime-width one.
const WIDTHS: [usize; 9] = [1, 2, 3, 4, 5, 8, 16, 32, 64];

/// Strategy: a small matrix with controllable density of non-zeros.
fn sparse_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop_oneof![3 => Just(0.0f32), 2 => -2.0f32..2.0f32], r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// A deterministic finite rhs with both signed zeros among its entries.
fn finite_rhs(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        match (i * 7 + j * 3 + seed as usize) % 11 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 31 + j * 17 + seed as usize) as f32).sin() * 3.0,
        }
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Restricting the layout a mask assigned — the model bank's lowering —
    /// keeps `mask ∧ pattern` and nothing else: the restricted layout's
    /// keep-mask is the unrestricted one under the mask, and a plan packed
    /// under it stores `MaskBits::kept` of the unrestricted layout. Its
    /// products equal the unrestricted plan's bit for bit at widths 1–5,
    /// 8, 16, 32 and 64, serially and through `par_matmul_dense_into` with 1–4
    /// workers, on the scalar and the detected backend, for pattern sizes
    /// 3, 4 and 8 over shapes with edge blocks, with masks holding `0.5`
    /// entries and a fully pruned block, and with an all-zero mask.
    #[test]
    fn restricted_plans_multiply_to_the_unrestricted_bits(
        m in sparse_matrix(27),
        psize in prop_oneof![Just(3usize), Just(4usize), Just(8usize)],
        sparsity in 0.0f64..0.9,
        patterns in 1usize..5,
        seed in 0u64..1_000,
        keep in proptest::collection::vec(
            prop_oneof![2 => Just(0.0f32), 3 => Just(1.0f32), 1 => Just(0.5f32)],
            27 * 27,
        ),
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
            if in_block { 0.0 } else { keep[r * cols + c] }
        });
        for mask in [mask, Matrix::zeros(rows, cols)] {
            let mask_bits = MaskBits::new(m.shape(), Some(&mask), psize);
            for backend in [Backend::Scalar, Backend::detect()] {
                let squares = BlockSquares::new(&m, Some(&mask), psize, backend);
                let layout = Arc::new(PackLayout::assign(&squares, &compiled));
                let restricted = PackLayout::restrict([(&*layout, &mask_bits)]);
                let restricted = Arc::new(restricted.into_iter().next().expect("one layout"));
                prop_assert_eq!(
                    bits(&restricted.keep_mask(None)),
                    bits(&layout.keep_mask(Some(&mask)))
                );
                let full = PatternPrunedMatrix::pack(&layout, &m, Some(&mask), backend);
                let narrow = PatternPrunedMatrix::pack(&restricted, &m, Some(&mask), backend);
                prop_assert_eq!(narrow.stored_values(), mask_bits.kept(&layout));
                prop_assert_eq!(restricted.stored_values(), narrow.stored_values());
                for width in WIDTHS {
                    let rhs = finite_rhs(cols, width, seed);
                    let mut want = Matrix::filled(rows, width, f32::NAN);
                    full.matmul_dense_into(&rhs, &mut want);
                    let mut got = Matrix::filled(rows, width, f32::NAN);
                    narrow.matmul_dense_into(&rhs, &mut got);
                    prop_assert_eq!(bits(&got), bits(&want), "psize {} width {}", psize, width);
                    for workers in 1..=4 {
                        let mut par = Matrix::filled(rows, width, f32::NAN);
                        narrow.par_matmul_dense_into(&rhs, &mut par, workers);
                        prop_assert_eq!(
                            bits(&par),
                            bits(&want),
                            "psize {} width {} workers {}", psize, width, workers
                        );
                    }
                }
            }
        }
    }
}
