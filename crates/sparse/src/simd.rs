//! Runtime-dispatched SIMD kernels for the pattern-pruned matrix.
//!
//! The wide (w ≥ 8) full-block kernels of [`crate::PatternPrunedMatrix`] hold
//! each output row in a register accumulator; on x86-64 with AVX2 that
//! accumulator maps directly onto 256-bit vector registers (one `__m256`
//! per 8 rhs columns). This module provides those kernels as `std::arch`
//! intrinsics for the wide widths (8, 16, 32, 64 — 1, 2, 4 and 8 vectors
//! per output row), selected **once** when a matrix is lowered, via
//! [`Backend::detect`] and falling back to the portable compiled-scalar
//! kernels everywhere else (the narrow widths 1–4 the serving engines
//! mostly dispatch run the portable index-stream kernel on every backend).
//!
//! **Bit-exactness contract.** The SIMD kernels vectorize across the
//! *width/columns* axis: every output element keeps its own lane-private
//! accumulator and receives the kept values of its row in exactly the arena
//! order the scalar kernel uses. The multiply and the add are kept as two
//! separately-rounded operations (`_mm256_mul_ps` + `_mm256_add_ps`) —
//! *not* fused into `_mm256_fmadd_ps`, which skips the intermediate
//! rounding and would diverge from the scalar reference in the last ulp.
//! FMA availability is still part of the feature gate (every AVX2 serving
//! part has it, and it keeps the door open for a documented
//! accuracy-mode kernel later), but the dispatched kernels only rely on
//! AVX2. The result is bit-identical to
//! [`crate::reference::matmul_dense_scalar`], which the proptest suite
//! (`tests/proptest_simd.rs`) pins.

// the one module where `unsafe` is re-allowed (crate-wide deny in
// lib.rs): every unsafe block here discharges a documented contract of a
// `#[target_feature]` kernel
#![allow(unsafe_code)]

/// Kernel backend executing a [`crate::PatternPrunedMatrix`].
///
/// Detected once per process ([`Backend::detect`], cached) and stored in
/// the matrix when it is lowered. `Scalar` is the portable fallback — the
/// compiled index-stream and register-accumulator kernels — and the
/// bit-exactness reference for every other backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable compiled-scalar kernels (auto-vectorized by the compiler).
    Scalar,
    /// Hand-written AVX2 kernels for the full-block paths with rhs width
    /// 8, 16, 32 or 64; every other shape falls back to `Scalar` code.
    Avx2,
}

impl Backend {
    /// Detects the best backend the CPU supports. The answer is computed
    /// once and cached for the process (the `is_x86_feature_detected!`
    /// probe is not free and matrices are built on V/F switches).
    pub fn detect() -> Self {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    return Backend::Avx2;
                }
            }
            Backend::Scalar
        })
    }

    /// Short label for bench/report lines (`"scalar"` / `"avx2"`).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Clamps a requested backend to what the running CPU actually
    /// supports. Every constructor storing a backend goes through this, so
    /// a stored `Avx2` implies the features were detected in this process —
    /// the safety invariant the `unsafe` kernel calls rely on.
    pub(crate) fn validated(self) -> Self {
        match self {
            Backend::Scalar => Backend::Scalar,
            Backend::Avx2 => Self::detect(),
        }
    }

    /// Whether the width-`w` full-block kernel has a SIMD implementation
    /// under this backend.
    pub fn covers_width(&self, w: usize) -> bool {
        matches!(self, Backend::Avx2) && matches!(w, 8 | 16 | 32 | 64)
    }

    /// Elementwise `dst[i] = src[i] * src[i]` through the backend — the
    /// block-scoring primitive of plan lowering (`BlockSquares::new`
    /// squares each weight row once; `best_pattern_for_block` squares one
    /// block). Each product is a single f32 multiply in both backends, so
    /// the bytes written are identical.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub(crate) fn square_into(&self, dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "square_into length mismatch");
        match self {
            Backend::Scalar => square_into_scalar(dst, src),
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: a stored/constructed `Avx2` went through
                // `validated()`, so the CPU supports the feature.
                unsafe {
                    avx2::square_into(dst, src)
                }
                #[cfg(not(target_arch = "x86_64"))]
                square_into_scalar(dst, src)
            }
        }
    }
}

fn square_into_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s * s;
    }
}

/// Runs the AVX2 full-block kernel for compile-time rhs width `W`
/// (8, 16, 32 or 64). Mirrors `PatternPrunedMatrix::block_full_fixed` exactly:
/// output row loaded once into `W / 8` vector accumulators, one broadcast
/// multiply-add per kept value in arena order, row stored back once.
///
/// `base_r` indexes `out` (which may be a row-range slice during
/// `par_matmul_dense_into`); `base_c` indexes `rhs` absolutely.
///
/// # Panics
///
/// Panics (in debug) if `W` is not a supported width or a row range is
/// out of bounds; release relies on the caller passing full-block
/// geometry, exactly like the scalar kernel.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_full<const W: usize>(
    row_ptr: &[u32],
    cols: &[u32],
    vals: &[f32],
    psize: usize,
    base_r: usize,
    base_c: usize,
    rhs: &[f32],
    out: &mut [f32],
) {
    debug_assert!(matches!(W, 8 | 16 | 32 | 64), "unsupported SIMD width");
    // SAFETY: callers dispatch here only when the matrix's backend is `Avx2`,
    // which `Backend::validated` only yields after feature detection.
    unsafe {
        match W {
            8 => avx2::block_full::<1>(row_ptr, cols, vals, psize, base_r, base_c, rhs, out),
            16 => avx2::block_full::<2>(row_ptr, cols, vals, psize, base_r, base_c, rhs, out),
            32 => avx2::block_full::<4>(row_ptr, cols, vals, psize, base_r, base_c, rhs, out),
            64 => avx2::block_full::<8>(row_ptr, cols, vals, psize, base_r, base_c, rhs, out),
            _ => unreachable!("unsupported SIMD width {W}"),
        }
    }
}

/// Non-x86-64 stub: never reached because [`Backend::detect`] only returns
/// `Avx2` on x86-64, but the call site must still compile.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_full<const W: usize>(
    _row_ptr: &[u32],
    _cols: &[u32],
    _vals: &[f32],
    _psize: usize,
    _base_r: usize,
    _base_c: usize,
    _rhs: &[f32],
    _out: &mut [f32],
) {
    unreachable!("SIMD backend selected without x86-64 support");
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use std::arch::x86_64::*;

    /// AVX2 full-block kernel with `NV` 256-bit accumulators per output
    /// row (rhs width `NV * 8`). See the module docs for the bit-exactness
    /// argument; the loop structure is `PatternPrunedMatrix::block_full_fixed`
    /// verbatim with the `[f32; W]` accumulator replaced by YMM registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (enforced by `Backend::validated`) and full-block
    /// geometry: every `base_r + r` output row and `base_c + c` rhs row
    /// for kept positions must be in bounds of `out` / `rhs` with row
    /// stride `NV * 8`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn block_full<const NV: usize>(
        row_ptr: &[u32],
        cols: &[u32],
        vals: &[f32],
        psize: usize,
        base_r: usize,
        base_c: usize,
        rhs: &[f32],
        out: &mut [f32],
    ) {
        let w = NV * 8;
        debug_assert!(row_ptr.len() > psize);
        debug_assert!(out.len() >= (base_r + psize) * w);
        let rhs_ptr = rhs.as_ptr();
        let out_ptr = out.as_mut_ptr();
        for r in 0..psize {
            let s = *row_ptr.get_unchecked(r) as usize;
            let e = *row_ptr.get_unchecked(r + 1) as usize;
            if s == e {
                continue;
            }
            let out_row = out_ptr.add((base_r + r) * w);
            let mut acc = [_mm256_setzero_ps(); NV];
            for (i, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(out_row.add(i * 8));
            }
            for k in s..e {
                let c = *cols.get_unchecked(k) as usize;
                let v = _mm256_set1_ps(*vals.get_unchecked(k));
                let rhs_row = rhs_ptr.add((base_c + c) * w);
                for (i, a) in acc.iter_mut().enumerate() {
                    let b = _mm256_loadu_ps(rhs_row.add(i * 8));
                    // mul + add kept separate (not fmadd): bit-identical
                    // rounding to the scalar kernel's `a + v * b`
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(v, b));
                }
            }
            for (i, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(out_row.add(i * 8), *a);
            }
        }
    }

    /// Elementwise square, 8 lanes at a time (same single-rounding f32
    /// multiply as the scalar loop).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `dst` and `src` must have equal length (asserted by
    /// the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn square_into(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let dst_ptr = dst.as_mut_ptr();
        let src_ptr = src.as_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(src_ptr.add(i));
            _mm256_storeu_ps(dst_ptr.add(i), _mm256_mul_ps(v, v));
            i += 8;
        }
        while i < n {
            let v = *src_ptr.add(i);
            *dst_ptr.add(i) = v * v;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_validated_is_idempotent() {
        let a = Backend::detect();
        let b = Backend::detect();
        assert_eq!(a, b, "detection must be cached and stable");
        assert_eq!(a.validated(), a);
        assert_eq!(Backend::Scalar.validated(), Backend::Scalar);
        // forcing Avx2 clamps to whatever the CPU actually supports
        assert_eq!(Backend::Avx2.validated(), Backend::detect());
    }

    #[test]
    fn covers_width_only_for_simd_backends_and_vector_widths() {
        assert!(!Backend::Scalar.covers_width(8));
        for w in [8, 16, 32, 64] {
            assert!(Backend::Avx2.covers_width(w));
        }
        for w in [0, 1, 4, 7, 9, 24, 128] {
            assert!(!Backend::Avx2.covers_width(w));
        }
    }

    #[test]
    fn square_into_matches_scalar_bitwise_on_both_backends() {
        let src: Vec<f32> = (0..37)
            .map(|i| (i as f32 * 0.37 - 5.0) * 1.7e-3 + (i as f32).sin())
            .collect();
        let mut scalar = vec![0.0f32; src.len()];
        Backend::Scalar.square_into(&mut scalar, &src);
        for (d, &s) in scalar.iter().zip(&src) {
            assert_eq!(d.to_bits(), (s * s).to_bits());
        }
        let mut detected = vec![0.0f32; src.len()];
        Backend::detect().square_into(&mut detected, &src);
        for (a, b) in scalar.iter().zip(&detected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
