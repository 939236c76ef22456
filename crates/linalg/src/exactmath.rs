//! The Exact tier's `tanh`: a scalar port of glibc 2.36's `tanhf` and the
//! `expm1f` it calls (`sysdeps/ieee754/flt-32/s_tanhf.c` and
//! `s_expm1f.c`, both fdlibm code).
//!
//! Every operation is an IEEE `f32` add, subtract, multiply or divide, a
//! truncating `f32 -> i32` conversion, or a move of exponent bits, in the
//! C source's order and with no FMA. So [`tanh`] returns the bits of the
//! libm the goldens were made with for every input, NaN payloads
//! included; `crates/linalg/tests/exact_tanh.rs` checks all 2^32 inputs
//! against `f32::tanh`. Unlike libm, this runs the same on every host,
//! and [`crate::simd::exact_tanh_slice`] runs it eight lanes at a time.
//!
//! The Fast tier's approximations live in [`crate::fastmath`]; nothing
//! here trades accuracy for speed.

const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
// The C source's constants, by bit pattern.
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180); // 88.721679688
pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 0.69313812256
pub(crate) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-6
pub(crate) const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216

// Scaled coefficients of expm1's rational remainder.
pub(crate) const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-2
pub(crate) const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-3
pub(crate) const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-5
pub(crate) const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-6
pub(crate) const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-7

/// Bits of `|x|` at and above which [`tanh`] returns `±1` (`|x| >= 22`).
pub(crate) const TANH_SATURATE_BITS: u32 = 0x41b0_0000;
/// Bits of `|x|` below which [`tanh`] returns `x` (`|x| < 2^-55`).
pub(crate) const TANH_TINY_BITS: u32 = 0x2400_0000;

/// Hyperbolic tangent with glibc 2.36 `tanhf`'s exact bits.
///
/// `tanh(±0) = ±0`, `tanh(±inf) = ±1`, a NaN comes back quieted with its
/// payload, `|x| >= 22` gives `±1` and `|x| < 2^-55` gives `x`. In
/// between, `tanh(x) = sign(x) * z` with `t = expm1(±2|x|)` and `z`
/// computed from `t` as the C source does.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 != 0;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1; tanh(NaN) = NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < TANH_SATURATE_BITS {
        if ix == 0 {
            return x;
        }
        if ix < TANH_TINY_BITS {
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if negative {
        -z
    } else {
        z
    }
}

/// `e^x - 1` with glibc 2.36 `expm1f`'s exact bits (checked on a stride of
/// all inputs in this module's tests; every input [`tanh`] passes is
/// covered by its exhaustive sweep).
///
/// `x` is reduced to `k ln2 + r` with `|r| <= ln2 / 2`, `e^r - 1` comes
/// from a rational remainder, and the result is rebuilt in one of six
/// ways chosen by `k`: 0, -1, 1, `<= -2` or `> 56`, 2..22, 23..56.
pub(crate) fn expm1(x: f32) -> f32 {
    let bits = x.to_bits();
    let negative = bits >> 31 != 0;
    let hx = bits & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27 ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if negative {
            return TINY - 1.0;
        }
    }

    // Argument reduction.
    let (k, r, c) = if hx > 0x3eb1_7218 {
        // |x| > ln2 / 2
        let (k, hi, lo) = if hx < 0x3f85_1592 {
            // and |x| < 1.5 ln2
            if negative {
                (-1, x + LN2_HI, -LN2_LO)
            } else {
                (1, x - LN2_HI, LN2_LO)
            }
        } else {
            let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (k, x - t * LN2_HI, t * LN2_LO)
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: return x (with inexact when x != 0).
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (0, x, 0.0)
    };

    // r is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    if k == 0 {
        return r - (r * e - hxs);
    }
    let e = (r * (e - c) - c) - hxs;
    match k {
        -1 => 0.5 * (r - e) - 0.5,
        1 if r < -0.25 => -2.0 * (e - (r + 0.5)),
        1 => 1.0 + 2.0 * (r - e),
        k if k <= -2 || k > 56 => add_to_exponent(1.0 - (e - r), k) - 1.0,
        // t = 1 - 2^-k
        k if k < 23 => add_to_exponent(
            f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - r),
            k,
        ),
        // t = 2^-k
        k => add_to_exponent(
            (r - (e + f32::from_bits(((0x7f - k) << 23) as u32))) + 1.0,
            k,
        ),
    }
}

/// `y * 2^k` by adding `k` to the exponent field, as the C source's
/// `SET_FLOAT_WORD(y, i + (k << 23))` does (no rounding, no range check).
#[inline]
fn add_to_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every 127th bit pattern, all signs, exponents and NaN payloads:
    /// the port equals libm's `expm1f` bit for bit. (The exhaustive
    /// sweep in `tests/exact_tanh.rs` covers every argument `tanh` uses.)
    #[test]
    fn expm1_matches_libm_on_a_stride_of_all_inputs() {
        let mut mismatches = 0u32;
        for bits in (0..=u32::MAX).step_by(127) {
            let x = f32::from_bits(bits);
            if expm1(x).to_bits() != x.exp_m1().to_bits() {
                mismatches += 1;
            }
        }
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(30.0), 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(1e-20), 1e-20);
    }
}
