//! Branch-free polynomial approximations backing [`Precision::Fast`].
//!
//! The Exact tier computes `tanh` with the bits of libm's `tanhf`
//! ([`crate::exactmath`]) and `exp` with libm itself; these replacements
//! trade the last few digits for straight-line arithmetic the
//! autovectorizer can work with. Both functions are total over finite inputs, monotone
//! non-decreasing, and carry documented error bounds that the property
//! tests in this module enforce:
//!
//! * [`fast_tanh`] — odd rational (Padé 7/6) with the input clamped to
//!   `|x| ≤ 4.9`. Absolute error ≤ 2e-4 over all of ℝ (≤ 2e-5 for
//!   `|x| ≤ 4`); output stays strictly inside `(-1, 1)`.
//! * [`fast_exp`] — `2^n · 2^f` with round-to-nearest split and a
//!   degree-5 polynomial for `2^f`, `f ∈ [-0.5, 0.5]`. Relative error
//!   ≤ 1e-5 for `x ∈ [-41, 87]`; inputs are clamped so the result is
//!   always finite, positive, and *normal* (underflow saturates near
//!   `2^-60`, overflow near `2^126` — the low floor keeps subnormals,
//!   and their per-op microcode penalty, out of every downstream
//!   computation).
//!
//! None of this is used by Exact-tier code paths: training, adaptation,
//! and the default inference graphs never call into this module.
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

/// Smallest base-2 exponent [`fast_exp`] evaluates at: outputs saturate
/// at ~`2^-60` (≈ 6e-19) instead of descending toward f32's subnormal
/// range. This is a *performance* bound, not just an accuracy trade:
/// an earlier `-126` clamp produced subnormal results for deeply
/// negative inputs (softmax tails over attention scores), and every
/// downstream multiply touching them took the CPU's ~100-cycle
/// subnormal microcode assist — a Fast-tier corpus encode ran ~2x
/// *slower* than Exact. With the floor at `2^-60`, `fast_exp` and
/// everything computed from it stays in normal-f32 territory, and no
/// caller cares: softmax tails below e^-41 are beyond f32 resolution
/// of the normalized row, and a sigmoid is exactly 1.0 at f32 long
/// before its `fast_exp(-x)` term reaches 6e-19.
pub(crate) const EXP_MIN_EXP2: f32 = -60.0;

/// Fast natural exponential: exponent-bit scaling plus a degree-5
/// polynomial, branch-free.
///
/// Contract (property-tested below):
/// * relative error ≤ 1e-5 for `x ∈ [-41, 87]`;
/// * below that, saturates at ~`2^-60` ≈ 6e-19 (`EXP_MIN_EXP2`) —
///   never subnormal, so no consumer pays the denormal penalty;
/// * monotone non-decreasing over inputs spaced ≥ 1e-3 apart;
/// * always finite, strictly positive, and a normal f32.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const LN_2: f32 = std::f32::consts::LN_2;
    // Round-to-nearest magic constant: adding 1.5·2^23 forces the
    // fractional bits out of an f32, leaving round(y) in the low mantissa.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let y = (x * LOG2_E).clamp(EXP_MIN_EXP2, 126.0);
    let shifted = y + MAGIC;
    let n = shifted - MAGIC; // round(y), exact
    let f = y - n; // in [-0.5, 0.5]
                   // 2^f = exp(f·ln2), degree-5 Taylor in t = f·ln2, |t| ≤ 0.347.
    let t = f * LN_2;
    let poly = 1.0 + t * (1.0 + t * (0.5 + t * (1.0 / 6.0 + t * (1.0 / 24.0 + t * (1.0 / 120.0)))));
    // 2^n via the exponent field; n ∈ [-60, 126] so the shift is safe
    // and the scale (hence the product) is always a normal f32.
    let scale = f32::from_bits((((n as i32) + 127) as u32) << 23);
    poly * scale
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
    fn exp_relative_error_bound_on_dense_grid() {
        let mut x = -41.0f32;
        while x <= 87.0 {
            let truth = x.exp();
            let got = fast_exp(x);
            let rel = ((got - truth) / truth).abs();
            assert!(rel <= 1e-5, "x={x} got={got} truth={truth} rel={rel}");
            assert!(got.is_finite() && got > 0.0, "x={x} got={got}");
            x += 1e-2;
        }
        // Saturation: far inputs stay finite and positive.
        assert!(fast_exp(1e6).is_finite());
        assert!(fast_exp(-1e6) > 0.0);
    }

    /// The output is *normal* f32 everywhere — the saturation floor exists
    /// so no downstream arithmetic ever touches a subnormal (the CPU's
    /// per-op denormal assist made a clamp-at-2^-126 variant of this
    /// function 2x slower end-to-end than libm).
    #[test]
    fn exp_never_returns_a_subnormal() {
        for &x in &[-1e9f32, -1e4, -100.0, -60.0, -42.0, -41.0, 0.0, 80.0] {
            let got = fast_exp(x);
            assert!(
                got >= f32::MIN_POSITIVE,
                "x={x} got={got} is subnormal or zero"
            );
        }
        // The floor itself: ~2^-60, orders of magnitude above subnormal.
        assert!((fast_exp(-1e9).log2() + 60.0).abs() <= 1.0);
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

        /// The documented rel-error bound at random points in exp's
        /// accurate range (below -41 the saturation floor takes over).
        #[test]
        fn exp_error_bound_holds_at_random_points(x in -41.0f32..87.0) {
            let truth = x.exp();
            let rel = ((fast_exp(x) - truth) / truth).abs();
            prop_assert!(rel <= 1e-5, "x={x} rel={rel}");
        }

        /// Monotone non-decreasing for inputs spaced ≥ 1e-3 apart (the
        /// documented spacing: below it the ≤1e-5 relative error can
        /// locally reorder two almost-equal outputs).
        #[test]
        fn exp_is_monotone_at_documented_spacing(x in -80.0f32..80.0, dx in 1e-3f32..8.0) {
            prop_assert!(fast_exp(x + dx) >= fast_exp(x), "x={x} dx={dx}");
        }
    }
}
