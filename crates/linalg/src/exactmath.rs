//! The Exact tier's `tanh` and `exp`: scalar ports of glibc 2.36's
//! `tanhf` and `expf`.
//!
//! * [`tanh`] ports `tanhf` and the `expm1f` it calls (fdlibm's
//!   `s_tanhf.c` and `s_expm1f.c`): IEEE `f32` operations and moves of
//!   exponent bits, in the C source's order and with no FMA.
//! * [`expf`] ports `e_expf.c` and its `e_exp2f_data.c` table, in `f64`.
//!   glibc picks a build of it that fuses five multiply-adds on a host
//!   with AVX2 and FMA (the goldens were made on one); the port computes
//!   those five with `f64::mul_add`, which rounds once in hardware or
//!   software alike. Software is a libm `fma` call each, several times
//!   libm `expf`'s cost; the AVX2+FMA pass in [`crate::simd`] inlines the
//!   port and fuses them in hardware.
//!
//! Each returns that libm's bits for every input, NaN payloads included
//! (`crates/linalg/tests/exact_math.rs` checks all 2^32 inputs against
//! `f32::tanh` and `f32::exp`), but the same on every host, and
//! [`crate::simd`] runs each eight lanes at a time. Nothing here trades
//! accuracy for speed; the Fast tier's approximation is in
//! [`crate::fastmath`].

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

/// glibc's `__exp2f_data.tab`, by bit pattern: the bits of `2^(i/32)`
/// minus `i << 47`, so `tab[k % 32] + (k << 47)` is the bits of `2^(k/32)`.
#[rustfmt::skip]
pub(crate) static EXP2F_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f, 0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa, 0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715, 0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429, 0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74, 0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db, 0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c, 0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f, 0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];
/// `32 / ln 2` (`0x1.71547652b82fep0 * 32`).
pub(crate) const EXP_INVLN2N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds to an integer held in the low mantissa bits.
pub(crate) const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/32)`: `0x1.c6af84b912394p-5/32^3`,
/// `0x1.ebfce50fac4f3p-3/32^2` and `0x1.62e42ff0c52d6p-1/32`.
pub(crate) const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// `e^x` with glibc 2.36 `expf`'s exact bits, as its FMA variant computes
/// them.
///
/// `-inf` gives `+0`, `+inf` and NaN give `x + x`, `x > 0x1.62e42ep6`
/// gives `+inf` and `x < -0x1.9fe368p6` gives `+0`. Otherwise
/// `x * 32/ln2 = k + r` with `|r| <= 1/2`, and `e^x` is the table's
/// `2^(k/32)` times a cubic in `r`, in `f64`, rounded once to `f32`.
#[inline]
pub fn expf(x: f32) -> f32 {
    let bits = x.to_bits();
    // |x| >= 88, inf or NaN.
    if bits & 0x7fff_ffff >= 0x42b0_0000 {
        if bits == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if bits & 0x7fff_ffff >= 0x7f80_0000 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let kd = EXP_INVLN2N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INVLN2N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// The logistic sigmoid `1 / (1 + e^-x)` on [`expf`]: the one sigmoid of
/// the tape and of the PLM's replaced-token head.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + expf(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every 127th bit pattern, all signs, exponents and NaN payloads:
    /// the port equals libm's `expm1f` bit for bit. (The exhaustive
    /// sweep in `tests/exact_math.rs` covers every argument `tanh` uses.)
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

    #[test]
    fn expf_special_values() {
        assert_eq!(expf(0.0), 1.0);
        assert_eq!(expf(-0.0), 1.0);
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert!(expf(f32::NAN).is_nan());
        assert_eq!(expf(89.0), f32::INFINITY);
        assert_eq!(expf(-104.0).to_bits(), 0);
        assert_eq!(expf(1.0), std::f32::consts::E);
    }
}
