//! The branch-free polynomial `tanh` behind [`Precision::Fast`]'s GELU.
//!
//! The Exact tier computes `tanh` with the bits of libm's `tanhf`
//! ([`crate::exactmath`]); [`fast_tanh`] trades the last few digits for
//! straight-line arithmetic the autovectorizer can work with. It is an
//! odd rational (Padé 7/6) with the input clamped to `|x| ≤ 4.9`:
//! absolute error ≤ 2e-4 over all of ℝ (≤ 2e-5 for `|x| ≤ 4`), output
//! strictly inside `(-1, 1)`, monotone non-decreasing, all
//! property-tested in this module.
//!
//! It is the Fast tier's only approximation: both tiers share `exp`
//! (softmax, sigmoid), `tanh` outside the GELU, and the matmul. Only the
//! Fast GELU calls it (through `simd::fast_tanh_slice`); training,
//! adaptation and the default inference graphs never do.
//!
//! [`Precision::Fast`]: crate::exec::Precision::Fast

/// Largest input magnitude the tanh rational is evaluated at. Beyond it
/// the true tanh is within 1.1e-4 of ±1 and the *unclamped* rational
/// would exceed 1 in magnitude, so the clamp is a correctness bound, not
/// just an optimization.
pub(crate) const TANH_CLAMP: f32 = 4.9;

/// Fast hyperbolic tangent: odd Padé(7,6) rational, clamped, branch-free.
///
/// Contract (property-tested below):
/// * `|fast_tanh(x) - tanh(x)| ≤ 2e-4` for every finite `x`;
/// * monotone non-decreasing;
/// * odd (`fast_tanh(-x) == -fast_tanh(x)` bitwise);
/// * `|fast_tanh(x)| < 1` always.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    // min/max compile to branch-free scalar SSE min/max.
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    // tanh(x) ≈ x (135135 + 17325 x² + 378 x⁴ + x⁶)
    //          / (135135 + 62370 x² + 3150 x⁴ + 28 x⁶)
    let p = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let q = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + x2 * 28.0));
    p / q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_abs_error_bound_on_dense_grid() {
        // 2M-point dense sweep of the interesting range plus the tails.
        let mut worst = 0.0f32;
        let mut x = -10.0f32;
        while x <= 10.0 {
            let err = (fast_tanh(x) - x.tanh()).abs();
            worst = worst.max(err);
            assert!(err <= 2e-4, "x={x} err={err}");
            assert!(fast_tanh(x).abs() < 1.0, "x={x} escaped (-1,1)");
            x += 1e-3;
        }
        assert!(worst > 0.0, "sanity: approximation differs somewhere");
    }

    #[test]
    fn tanh_is_odd_bitwise() {
        for &x in &[0.0f32, 0.1, 0.5, 1.0, 2.5, 4.89, 5.0, 100.0] {
            assert_eq!(fast_tanh(-x).to_bits(), (-fast_tanh(x)).to_bits(), "x={x}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The documented abs-error bound holds at randomly sampled points
        /// across the full finite range (the dense grid above covers the
        /// near field; this covers magnitudes the grid cannot).
        #[test]
        fn tanh_error_bound_holds_at_random_points(x in -1e6f32..1e6) {
            prop_assert!((fast_tanh(x) - x.tanh()).abs() <= 2e-4, "x={x}");
        }

        /// Monotone non-decreasing over sampled ascending pairs.
        #[test]
        fn tanh_is_monotone(x in -8.0f32..8.0, dx in 0.0f32..4.0) {
            prop_assert!(fast_tanh(x + dx) >= fast_tanh(x), "x={x} dx={dx}");
        }
    }
}
