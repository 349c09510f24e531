//! Property-based bit-exactness pins for the PR 10 execution strategies:
//! the runtime-dispatched SIMD backend, the w = 64 block-row-tiled column
//! sweep and the row-range parallel `par_matmul_dense_into` must all produce
//! *bit-identical* outputs to the compiled scalar kernels (which are
//! themselves pinned against the seed scalar reference in
//! `proptest_formats.rs`). Equality here is strict `to_bits` — not even a
//! signed-zero divergence is tolerated, because every strategy preserves
//! the per-output-element accumulation order exactly.
//!
//! On hosts without AVX2 the detected backend degrades to `Scalar` and
//! these tests pin the (then trivial) scalar-vs-scalar equality plus the
//! parallel/tiled paths, which are backend-independent.

use proptest::prelude::*;
use rt3_sparse::{Backend, PatternMask, PatternPrunedMatrix, PatternSet};
use rt3_tensor::Matrix;

/// Strategy: a small matrix with controllable density of non-zeros.
fn sparse_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop_oneof![3 => Just(0.0f32), 2 => -2.0f32..2.0f32], r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Rhs widths biased toward the SIMD-covered set {8, 16, 32, 64}, with
/// scalar-fallback widths mixed in so the dispatch boundary is crossed.
fn rhs_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => prop_oneof![Just(8usize), Just(16), Just(32), Just(64)],
        2 => 1usize..8,
    ]
}

fn dense_rhs(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Deterministic pseudo-random right-hand side.
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * 31 + j * 17 + seed as usize) as f32;
        (x.sin() * 10.0).fract()
    })
}

fn two_pattern_set(psize: usize, sparsity: f64) -> PatternSet {
    let bits_a = PatternMask::from_importance(
        &Matrix::from_fn(psize, psize, |i, j| ((i * 5 + j * 3) % 7) as f32),
        sparsity,
    );
    let bits_b = PatternMask::from_importance(
        &Matrix::from_fn(psize, psize, |i, j| ((i * 11 + j * 2) % 9) as f32),
        sparsity,
    );
    PatternSet::new(vec![bits_a, bits_b]).expect("non-empty set")
}

/// Strict bitwise equality, element by element. (The vendored proptest
/// stand-in reports failures as `Err(String)`.)
fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) -> Result<(), String> {
    prop_assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} diverged at flat index {} ({} vs {})",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The detected backend (AVX2 where available) must match a
    /// scalar-forced plan bit-for-bit across random shapes, pattern sizes,
    /// sparsities and rhs widths — including edge blocks (dims not
    /// divisible by psize) and the non-SIMD width fallbacks.
    #[test]
    fn simd_backend_is_bit_identical_to_scalar(
        m in sparse_matrix(17),
        psize in 2usize..6,
        sparsity in 0.0f64..0.95,
        width in rhs_width(),
    ) {
        let set = two_pattern_set(psize, sparsity);
        let detected = PatternPrunedMatrix::from_dense(&m, &set);
        let scalar = PatternPrunedMatrix::from_dense_with_backend(&m, &set, Backend::Scalar);
        // lowering itself must agree before we compare kernels
        prop_assert_eq!(detected.assignments(), scalar.assignments());
        let rhs = dense_rhs(m.cols(), width, 7);
        let mut out_detected = Matrix::filled(m.rows(), width, f32::NAN);
        let mut out_scalar = Matrix::filled(m.rows(), width, f32::NAN);
        detected.matmul_dense_into(&rhs, &mut out_detected);
        scalar.matmul_dense_into(&rhs, &mut out_scalar);
        assert_bits_eq(&out_detected, &out_scalar, "simd vs scalar")?;
    }

    /// `par_matmul_dense_into` must equal the serial kernel bit-for-bit for
    /// every worker count from degenerate (1) past the block-row count
    /// (where extra workers get empty ranges), on the detected backend.
    #[test]
    fn par_matmul_is_bit_identical_for_every_row_split(
        m in sparse_matrix(15),
        psize in 2usize..6,
        sparsity in 0.0f64..0.95,
        width in rhs_width(),
    ) {
        let set = two_pattern_set(psize, sparsity);
        let pp = PatternPrunedMatrix::from_dense(&m, &set);
        let rhs = dense_rhs(m.cols(), width, 11);
        let mut serial = Matrix::filled(m.rows(), width, f32::NAN);
        pp.matmul_dense_into(&rhs, &mut serial);
        let (grid_rows, _) = pp.block_grid();
        for workers in 1..=grid_rows + 2 {
            let mut par = Matrix::filled(m.rows(), width, f32::NAN);
            pp.par_matmul_dense_into(&rhs, &mut par, workers);
            assert_bits_eq(&par, &serial, "par vs serial")?;
        }
    }
}

/// The w = 64 tiled column sweep only engages once the rhs overflows the
/// assumed L1 (> 32 KB, i.e. more than 128 rhs rows at width 64) — too big
/// for the random-shape strategies above, so pin it deterministically:
/// tiled + SIMD + parallel against the scalar-forced serial plan, bitwise.
#[test]
fn tiled_w64_path_is_bit_identical_to_scalar() {
    let n = 160; // rhs is 160 x 64 floats = 40 KB > L1_BYTES
    let m = Matrix::from_fn(n, n, |i, j| {
        if (i * 7 + j * 13) % 4 == 0 {
            0.0
        } else {
            ((i * 31 + j * 17) as f32).sin()
        }
    });
    let set = two_pattern_set(8, 0.75);
    let detected = PatternPrunedMatrix::from_dense(&m, &set);
    let scalar = PatternPrunedMatrix::from_dense_with_backend(&m, &set, Backend::Scalar);
    let rhs = dense_rhs(n, 64, 13);
    let mut want = Matrix::filled(n, 64, f32::NAN);
    scalar.matmul_dense_into(&rhs, &mut want);
    let mut got = Matrix::filled(n, 64, f32::NAN);
    detected.matmul_dense_into(&rhs, &mut got);
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "tiled simd vs scalar diverged");
    }
    for workers in [2usize, 3, 4, 7] {
        let mut par = Matrix::filled(n, 64, f32::NAN);
        detected.par_matmul_dense_into(&rhs, &mut par, workers);
        for (a, b) in par.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tiled parallel diverged at {workers} workers"
            );
        }
    }
}
