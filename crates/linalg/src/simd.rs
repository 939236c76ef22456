//! Runtime-dispatched SIMD micro-kernels: one AVX2 matmul tile and the
//! AVX2 `tanh` and `exp` passes, shared by both precision tiers, and the
//! Fast tier's two SSE2 row passes.
//!
//! Every kernel here has two implementations with identical arithmetic
//! structure: an explicit `std::arch::x86_64` version and the portable
//! scalar code it was derived from. Dispatch happens at runtime via
//! `is_x86_feature_detected!` — never at compile time — so one binary
//! runs on every x86-64 host and the portable twin stays tested (the
//! `*_scalar` twins are public for exactly that purpose).
//!
//! * **The matmul tile** (`block_kernel`) is the one block-kernel call
//!   of [`Matrix::matmul_into`]. It holds one 8-lane AVX2 accumulator per
//!   output row of the `MR x NR` tile and issues `vmulps` then `vaddps`
//!   (never FMA), each rounding exactly like the scalar `a * b` then
//!   `+=`. The `a == 0.0` skip instantiation is the same scalar branch
//!   per row; it runs only for a right operand holding an inf or a NaN,
//!   the one case where it changes a bit. So every output element is the
//!   same ascending-`k` chain of identically rounded operations as in the
//!   portable twin (`matrix::packed_block_kernel`), and the tile's bits
//!   are the portable kernel's. Hosts without AVX2 run the twin.
//! * **The `tanh` pass** (`exact_tanh_slice`) runs the scalar port of
//!   glibc's `tanhf` ([`crate::exactmath`]) on eight AVX2 lanes, with
//!   every branch of its `expm1f` computed and blended per lane; the same
//!   bits as the scalar port on all 2^32 inputs.
//! * **The `exp` pass** (`exact_exp_slice`) runs the port of glibc's FMA
//!   `expf` on eight AVX2+FMA lanes, as two halves of four doubles with
//!   the table looked up by a gather; the same bits as the scalar port on
//!   all 2^32 inputs.
//! * **The softmax** (`softmax_rows_avx2`, the body of
//!   [`crate::stats::softmax_rows`]) runs that pass over a whole matrix
//!   and sums eight rows at once, with the textbook row loop's bits.
//! * **The Fast row passes** (`tanh` for the GELU, LayerNorm) stay four
//!   SSE2 lanes wide. `tanh` agrees with its scalar twin bitwise for
//!   finite inputs (same operation order; `mulps`/`addps`/`divps` round
//!   like scalar `f32` ops). The LayerNorm reductions tree-reduce four
//!   lanes, so they may differ from scalar in the last bits — inside the
//!   documented Fast-tier bounds, and deterministic for a fixed row
//!   length. Widening them would move Fast bits, so they are not widened.
//!
//! [`Matrix::matmul_into`]: crate::Matrix::matmul_into

use crate::matrix::{packed_block_kernel, MR, NR};
use crate::{exactmath, fastmath};

/// Whether the SSE2 row passes are taken on this machine. `true` on every
/// x86-64 (SSE2 is the architecture baseline), `false` elsewhere; public
/// so tests can assert which path the suite actually exercised.
#[inline]
pub fn sse2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX2 matmul tile and Exact `tanh` pass are taken on this
/// machine (the portable twins run otherwise); public so tests can name
/// the path they checked.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ------------------------------------------------------------- matmul tile

/// The packed block kernel, with or without the `a == 0.0` skip
/// (`SKIP_ZEROS`, which the Exact tier asks for only when `B` holds an
/// inf or a NaN): `out = a_block * B` for `rows = a_block.len()
/// / k` left-hand rows and `B` (`k x n`) packed in `NR`-column panels.
/// Runtime dispatch between the AVX2 tile and the portable twin
/// [`packed_block_kernel`]; both give the same bits. The only caller is
/// [`Matrix::matmul_into`].
///
/// # Panics
/// Panics if `k` or `n` is zero, or `out` does not hold exactly
/// `rows x n` elements: the AVX2 tile's raw stores rely on it.
///
/// [`Matrix::matmul_into`]: crate::Matrix::matmul_into
#[inline]
pub(crate) fn block_kernel<const SKIP_ZEROS: bool>(
    a_block: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(k > 0 && n > 0, "empty matmul block");
    assert_eq!(out.len(), a_block.len() / k * n, "matmul block output size");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support verified at runtime on the line above; the
        // asserts above give the tile's size preconditions.
        unsafe { block_kernel_avx2::<SKIP_ZEROS>(a_block, k, packed, n, out) };
        return;
    }
    packed_block_kernel::<SKIP_ZEROS>(a_block, k, packed, n, out);
}

/// AVX2 block kernel. A full `MR x NR` tile keeps one `__m256`
/// accumulator per row: each `k` step loads the panel's `NR`-vector once
/// and broadcasts one left-hand scalar per row, skipped when
/// `SKIP_ZEROS` and it is `0.0`. Ragged edges (fewer than `MR` rows or
/// `NR` columns left) run the same chain one row at a time, with masked
/// loads and stores confining a short panel to its `w` columns. Lane
/// `j` of an accumulator is output column `j0 + j`, so each element is
/// the portable twin's chain, rounded the same way.
///
/// # Safety
/// The CPU must support AVX2, `k` and `n` must be positive, and `out`
/// must hold exactly `a_block.len() / k * n` elements ([`block_kernel`]
/// checks all three). Panel reads are bounds-checked per panel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn block_kernel_avx2<const SKIP_ZEROS: bool>(
    a_block: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let rows = a_block.len() / k;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut panel_start = 0;
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        // Bounds-checked once: every load below is at `kk * w + lane` for
        // `kk < k` and an unmasked `lane < w`, inside this slice.
        let panel = &packed[panel_start..panel_start + k * w];
        let mut r0 = 0;
        while r0 < rows {
            let h = MR.min(rows - r0);
            if w == NR && h == MR {
                // Row `r` of the tile starts at `a_tile + r * k`; every
                // read below is at `(r0 + r) * k + kk < rows * k`.
                let a_tile = a_block.as_ptr().add(r0 * k);
                let mut acc = [_mm256_setzero_ps(); MR];
                for kk in 0..k {
                    let b = _mm256_loadu_ps(panel.as_ptr().add(kk * NR));
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let a = a_tile.add(r * k + kk);
                        if SKIP_ZEROS && *a == 0.0 {
                            continue;
                        }
                        *acc_r = _mm256_add_ps(*acc_r, _mm256_mul_ps(_mm256_broadcast_ss(&*a), b));
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    // (r0 + r) * n + j0 + NR <= rows * n = out.len().
                    _mm256_storeu_ps(out.as_mut_ptr().add((r0 + r) * n + j0), *acc_r);
                }
            } else {
                // Lanes `>= w` are masked off: never loaded, never stored.
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), lanes);
                for r in r0..r0 + h {
                    let a_row = &a_block[r * k..(r + 1) * k];
                    let mut acc = _mm256_setzero_ps();
                    for (kk, &a) in a_row.iter().enumerate() {
                        if SKIP_ZEROS && a == 0.0 {
                            continue;
                        }
                        let b = _mm256_maskload_ps(panel.as_ptr().add(kk * w), mask);
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a), b));
                    }
                    _mm256_maskstore_ps(out.as_mut_ptr().add(r * n + j0), mask, acc);
                }
            }
            r0 += h;
        }
        panel_start += k * w;
        j0 += w;
    }
}

// ------------------------------------------------------------- exact tanh

/// Apply [`exactmath::tanh`] over a slice in place: the Exact tier's one
/// `tanh`. Eight AVX2 lanes at a time where available, the scalar twin
/// elsewhere, for the tail, and for any 8-element chunk with a lane
/// outside `2^-55 <= |x| < 22` (±0, tiny and saturated values, inf and
/// NaN). Bitwise equal to the scalar loop for every input: each lane runs
/// the scalar port's operations in its order.
#[inline]
pub fn exact_tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 verified at runtime.
        unsafe { exact_tanh_slice_avx2(xs) };
        return;
    }
    exact_tanh_slice_scalar(xs);
}

/// Scalar twin of [`exact_tanh_slice`]: the portable fallback, public like
/// the other twins so tests and benches can name the path they run.
#[inline]
pub fn exact_tanh_slice_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = exactmath::tanh(*x);
    }
}

/// The AVX2 body of [`exact_tanh_slice`]: per lane, `t = expm1(±2|x|)`
/// (see [`expm1_avx2`]), then `z = 1 - 2/(t+2)` for `|x| >= 1` and
/// `z = -t/(t+2)` below, then `x`'s sign. One division of the blended
/// numerator serves both cases: `-t` rounds like `t` negated and
/// `1 - q` is the scalar subtraction.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exact_tanh_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_epi32(i32::MIN);
    let sign_ps = _mm256_castsi256_ps(sign);
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let below_tiny = _mm256_set1_epi32(exactmath::TANH_TINY_BITS as i32 - 1);
    let saturate = _mm256_set1_epi32(exactmath::TANH_SATURATE_BITS as i32);
    let below_one = _mm256_set1_epi32(0x3f7f_ffff);
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        let x = _mm256_loadu_ps(c.as_ptr());
        let ix = _mm256_andnot_si256(sign, _mm256_castps_si256(x));
        let in_range = _mm256_and_si256(
            _mm256_cmpgt_epi32(ix, below_tiny),
            _mm256_cmpgt_epi32(saturate, ix),
        );
        if _mm256_movemask_ps(_mm256_castsi256_ps(in_range)) != 0xff {
            exact_tanh_slice_scalar(c);
            continue;
        }
        // |x| >= 1: t = expm1(2|x|); below: t = expm1(-2|x|).
        let ge1 = _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, below_one));
        let two_ax = _mm256_mul_ps(two, _mm256_castsi256_ps(ix));
        let t = expm1_avx2(_mm256_xor_ps(two_ax, _mm256_andnot_ps(ge1, sign_ps)));
        let q = _mm256_div_ps(
            _mm256_blendv_ps(_mm256_xor_ps(t, sign_ps), two, ge1),
            _mm256_add_ps(t, two),
        );
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge1);
        let y = _mm256_xor_ps(z, _mm256_and_ps(x, sign_ps));
        _mm256_storeu_ps(c.as_mut_ptr(), y);
    }
    exact_tanh_slice_scalar(chunks.into_remainder());
}

/// [`exactmath::expm1`] on eight lanes, for the arguments
/// [`exact_tanh_slice_avx2`] passes (`2^-54 <= |x| < 44`), where its
/// huge-argument filter never fires. `k` is reduced as in the scalar
/// port (`±1` near `ln2`, `0` below `ln2 / 2`, where `k = 0` leaves
/// `r = x` and `c = 0` exactly). Every reconstruction branch (`k` = 0,
/// -1, 1, `<= -2` or `> 56`, 2..22, 23..56) is computed on every lane
/// and blended by `k`; lanes with `|x| < 2^-25` return `x`.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn expm1_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use exactmath::{INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5};
    use std::arch::x86_64::*;
    let bits = _mm256_castps_si256(x);
    let negative = _mm256_srai_epi32(bits, 31);
    let hx = _mm256_andnot_si256(_mm256_set1_epi32(i32::MIN), bits);

    // Argument reduction: x = k ln2 + r, with c the rounding error of r.
    let reduce = _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3eb1_7218));
    let near = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f85_1592), hx);
    let half = _mm256_xor_ps(_mm256_set1_ps(0.5), _mm256_and_ps(x, _mm256_set1_ps(-0.0)));
    let k_far = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(INVLN2), x),
        half,
    ));
    let k_near = _mm256_or_si256(negative, _mm256_set1_epi32(1));
    let k = _mm256_and_si256(reduce, _mm256_blendv_epi8(k_far, k_near, near));
    let tk = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(x, _mm256_mul_ps(tk, _mm256_set1_ps(LN2_HI)));
    let lo = _mm256_mul_ps(tk, _mm256_set1_ps(LN2_LO));
    let r = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

    // The rational remainder on the primary range.
    let hfx = _mm256_mul_ps(_mm256_set1_ps(0.5), r);
    let hxs = _mm256_mul_ps(r, hfx);
    let poly = _mm256_add_ps(_mm256_set1_ps(Q4), _mm256_mul_ps(hxs, _mm256_set1_ps(Q5)));
    let poly = _mm256_add_ps(_mm256_set1_ps(Q3), _mm256_mul_ps(hxs, poly));
    let poly = _mm256_add_ps(_mm256_set1_ps(Q2), _mm256_mul_ps(hxs, poly));
    let poly = _mm256_add_ps(_mm256_set1_ps(Q1), _mm256_mul_ps(hxs, poly));
    let r1 = _mm256_add_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(hxs, poly));
    let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(r, t)),
        ),
    );
    let k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));

    // Reconstruction for k != 0.
    let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
    let e_minus_r = _mm256_sub_ps(e, r);
    let k_minus1 = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_set1_ps(0.5), _mm256_sub_ps(r, e)),
        _mm256_set1_ps(0.5),
    );
    let k_plus1 = _mm256_blendv_ps(
        _mm256_add_ps(
            _mm256_set1_ps(1.0),
            _mm256_mul_ps(_mm256_set1_ps(2.0), _mm256_sub_ps(r, e)),
        ),
        _mm256_mul_ps(
            _mm256_set1_ps(-2.0),
            _mm256_sub_ps(e, _mm256_add_ps(r, _mm256_set1_ps(0.5))),
        ),
        _mm256_cmp_ps::<_CMP_LT_OQ>(r, _mm256_set1_ps(-0.25)),
    );
    let k_far_out = _mm256_sub_ps(
        add_to_exponent_avx2(_mm256_sub_ps(_mm256_set1_ps(1.0), e_minus_r), k),
        _mm256_set1_ps(1.0),
    );
    // t = 1 - 2^-k
    let one_minus = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f80_0000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
    ));
    let k_low = add_to_exponent_avx2(_mm256_sub_ps(one_minus, e_minus_r), k);
    // t = 2^-k
    let two_minus_k = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k),
        23,
    ));
    let k_high = add_to_exponent_avx2(
        _mm256_add_ps(
            _mm256_sub_ps(r, _mm256_add_ps(e, two_minus_k)),
            _mm256_set1_ps(1.0),
        ),
        k,
    );

    let far_k = _mm256_or_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
        _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
    );
    let mut y = _mm256_blendv_ps(
        k_high,
        k_low,
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k)),
    );
    y = _mm256_blendv_ps(y, k_far_out, _mm256_castsi256_ps(far_k));
    y = _mm256_blendv_ps(
        y,
        k_plus1,
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(1))),
    );
    y = _mm256_blendv_ps(
        y,
        k_minus1,
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))),
    );
    y = _mm256_blendv_ps(
        y,
        k0,
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(0))),
    );
    // |x| < 2^-25: x itself.
    let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3300_0000), hx);
    _mm256_blendv_ps(y, x, _mm256_castsi256_ps(tiny))
}

/// `y * 2^k` per lane by adding `k` to the exponent field, like the
/// scalar port's `add_to_exponent`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_to_exponent_avx2(
    y: std::arch::x86_64::__m256,
    k: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_castsi256_ps(_mm256_add_epi32(
        _mm256_castps_si256(y),
        _mm256_slli_epi32(k, 23),
    ))
}

// --------------------------------------------------------------- exact exp

/// Apply [`exactmath::expf`] over a slice in place. Eight AVX2+FMA lanes
/// at a time where both are available; the scalar twin elsewhere, for
/// the tail, and for any 8-element chunk with a lane where `!(|x| < 88)`
/// (the port's special cases, NaN included). Bitwise equal to the scalar
/// loop for every input.
#[inline]
pub fn exact_exp_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA verified at runtime.
        unsafe { exact_exp_slice_avx2(xs) };
        return;
    }
    exact_exp_slice_scalar(xs);
}

/// Scalar twin of [`exact_exp_slice`]: the portable fallback, public like
/// the other twins so tests and benches can name the path they run.
#[inline]
pub fn exact_exp_slice_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = exactmath::expf(*x);
    }
}

/// The AVX2+FMA body of [`exact_exp_slice`]: each in-range chunk widens
/// to two halves of four doubles (see [`expf_avx2`]) and narrows back.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn exact_exp_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let abs = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX));
    let limit = _mm256_set1_ps(88.0);
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        let x = _mm256_loadu_ps(c.as_ptr());
        let in_range = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(x, abs), limit);
        if _mm256_movemask_ps(in_range) != 0xff {
            exact_exp_slice_scalar(c);
            continue;
        }
        let lo = expf_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = expf_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        _mm256_storeu_ps(c.as_mut_ptr(), _mm256_set_m128(hi, lo));
    }
    exact_exp_slice_scalar(chunks.into_remainder());
}

/// [`exactmath::expf`]'s main path on four lanes (`|x| < 88`): the same
/// five fused multiply-adds, the table entry gathered by `k % 32` with
/// `k << 47` added to it, and one rounding to `f32`.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn expf_avx2(xd: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m128 {
    use exactmath::{EXP2F_TAB, EXP_C, EXP_INVLN2N, EXP_SHIFT};
    use std::arch::x86_64::*;
    let invln2n = _mm256_set1_pd(EXP_INVLN2N);
    let shift = _mm256_set1_pd(EXP_SHIFT);
    let kd = _mm256_fmadd_pd(invln2n, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(invln2n, xd, kd);
    // `k % 32` (the low five bits of `ki`) indexes the 32-entry table, so
    // every gathered read is inside it.
    let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(EXP2F_TAB.as_ptr().cast(), index);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[0]), r, _mm256_set1_pd(EXP_C[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[2]), r, _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(z, r2, y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

// ----------------------------------------------------------------- softmax

/// Scalar twin of [`crate::stats::softmax_rows`]: the textbook row loop.
/// Subtract the row max (NaN values ignored), exponentiate with
/// [`exactmath::expf`], sum in column order from `+0.0`, and scale by
/// `1 / sum` when `sum > 0`.
pub fn softmax_rows_scalar(data: &mut [f32], cols: usize) {
    for row in data.chunks_exact_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = exactmath::expf(*v - max);
            sum += *v;
        }
        scale_by_inverse(row, sum);
    }
}

/// `row *= 1 / sum` when `sum > 0`: a row holding a NaN, all `-inf` or a
/// `+inf` keeps its unnormalized values.
#[inline]
fn scale_by_inverse(row: &mut [f32], sum: f32) {
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row {
            *v *= inv;
        }
    }
}

/// The AVX2+FMA body of [`crate::stats::softmax_rows`], with the bits of
/// [`softmax_rows_scalar`]: subtract each row's max
/// ([`subtract_max_avx2`]), run one `exp` pass over the whole matrix
/// (its chunks may straddle rows), then sum eight rows at once, lane `r`
/// gathering row `r`'s next column, so each lane is one row's sum in
/// column order from `+0.0` and eight add chains hide the latency.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and `cols` must be positive,
/// divide `data.len()`, and be at most `i32::MAX / 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn softmax_rows_avx2(data: &mut [f32], cols: usize) {
    use std::arch::x86_64::*;
    for row in data.chunks_exact_mut(cols) {
        subtract_max_avx2(row);
    }
    exact_exp_slice_avx2(data);
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let offsets = _mm256_mullo_epi32(lanes, _mm256_set1_epi32(cols as i32));
    for block in data.chunks_mut(8 * cols) {
        // Lanes `>= rows` (a last block of fewer than eight rows) are
        // masked off and never read; every read is at `r * cols + c`
        // with `r < rows` and `c < cols`, inside the block.
        let rows = _mm256_set1_epi32((block.len() / cols) as i32);
        let mask = _mm256_castsi256_ps(_mm256_cmpgt_epi32(rows, lanes));
        let mut sums = _mm256_setzero_ps();
        for c in 0..cols {
            let column = block.as_ptr().add(c);
            let x = _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), column, offsets, mask);
            sums = _mm256_add_ps(sums, x);
        }
        let mut lane_sums = [0.0f32; 8];
        _mm256_storeu_ps(lane_sums.as_mut_ptr(), sums);
        for (row, sum) in block.chunks_exact_mut(cols).zip(lane_sums) {
            scale_by_inverse(row, sum);
        }
    }
}

/// Subtract `row`'s max from every element. `maxps` returns its second
/// operand when either is NaN, and `x > max` is false for a NaN, so NaN
/// values are ignored as `f32::max` ignores them. Only a zero's sign in
/// the max can differ from the scalar fold, which `exp(±0) = 1` hides.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn subtract_max_avx2(row: &mut [f32]) {
    use std::arch::x86_64::*;
    // Raw-pointer loops: every access is at an index below `n`.
    let (n, p) = (row.len(), row.as_mut_ptr());
    let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i + 8 <= n {
        acc = _mm256_max_ps(_mm256_loadu_ps(p.add(i)), acc);
        i += 8;
    }
    let m = _mm_max_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    let mut max = _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps::<1>(m, m)));
    while i < n {
        if *p.add(i) > max {
            max = *p.add(i);
        }
        i += 1;
    }
    let m = _mm256_set1_ps(max);
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), m));
        i += 8;
    }
    while i < n {
        *p.add(i) -= max;
        i += 1;
    }
}

// ---------------------------------------------------------- Fast tanh row

/// Apply [`fastmath::fast_tanh`] over a slice: SSE2 four-at-a-time where
/// available, the scalar twin elsewhere and for the tail. Bitwise equal
/// to the scalar loop for finite inputs (same clamp, same polynomial
/// evaluation order, identically-rounded ops).
#[inline]
pub fn fast_tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if sse2_available() {
        // SAFETY: SSE2 verified at runtime.
        unsafe { fast_tanh_slice_sse2(xs) };
        return;
    }
    fast_tanh_slice_scalar(xs);
}

/// Scalar twin of [`fast_tanh_slice`] — the portable fallback, public so
/// the property suite runs against both paths.
#[inline]
pub fn fast_tanh_slice_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = fastmath::fast_tanh(*x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn fast_tanh_slice_sse2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let lo = _mm_set1_ps(-fastmath::TANH_CLAMP);
    let hi = _mm_set1_ps(fastmath::TANH_CLAMP);
    let c0 = _mm_set1_ps(135135.0);
    let c1 = _mm_set1_ps(17325.0);
    let c2 = _mm_set1_ps(378.0);
    let d1 = _mm_set1_ps(62370.0);
    let d2 = _mm_set1_ps(3150.0);
    let d3 = _mm_set1_ps(28.0);
    let mut chunks = xs.chunks_exact_mut(4);
    for c in &mut chunks {
        let x = _mm_loadu_ps(c.as_ptr());
        let x = _mm_max_ps(_mm_min_ps(x, hi), lo);
        let x2 = _mm_mul_ps(x, x);
        // p = x * (135135 + x² (17325 + x² (378 + x²)))
        let p = _mm_mul_ps(
            x,
            _mm_add_ps(
                c0,
                _mm_mul_ps(x2, _mm_add_ps(c1, _mm_mul_ps(x2, _mm_add_ps(c2, x2)))),
            ),
        );
        // q = 135135 + x² (62370 + x² (3150 + 28 x²))
        let q = _mm_add_ps(
            c0,
            _mm_mul_ps(
                x2,
                _mm_add_ps(d1, _mm_mul_ps(x2, _mm_add_ps(d2, _mm_mul_ps(x2, d3)))),
            ),
        );
        _mm_storeu_ps(c.as_mut_ptr(), _mm_div_ps(p, q));
    }
    fast_tanh_slice_scalar(chunks.into_remainder());
}

// ------------------------------------------------------ Fast LayerNorm row

/// Fast-tier LayerNorm row pass: mean/variance reduction then the
/// `(x - mean) * istd * gain + bias` affine sweep. Lane reductions may
/// shift the last bits versus the scalar twin; the affine sweep itself is
/// element-wise and rounds identically.
#[inline]
pub fn layer_norm_row_fast(row: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    #[cfg(target_arch = "x86_64")]
    if sse2_available() {
        // SAFETY: SSE2 verified at runtime.
        unsafe { layer_norm_row_fast_sse2(row, gain, bias, eps) };
        return;
    }
    layer_norm_row_fast_scalar(row, gain, bias, eps);
}

/// Scalar twin of [`layer_norm_row_fast`]: the Exact tier's per-row
/// loops (mean, variance, normalize-affine) verbatim.
pub fn layer_norm_row_fast_scalar(row: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    debug_assert_eq!(row.len(), gain.len());
    debug_assert_eq!(row.len(), bias.len());
    if row.is_empty() {
        return;
    }
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let istd = 1.0 / (var + eps).sqrt();
    for ((v, &g), &b) in row.iter_mut().zip(gain).zip(bias) {
        *v = (*v - mean) * istd * g + b;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn layer_norm_row_fast_sse2(row: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(row.len(), gain.len());
    debug_assert_eq!(row.len(), bias.len());
    if row.is_empty() {
        return;
    }
    let n = row.len() as f32;
    let hsum = |v: __m128| -> f32 {
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), v);
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    };
    let mean = {
        let mut chunks = row.chunks_exact(4);
        let mut s4 = _mm_setzero_ps();
        for c in &mut chunks {
            s4 = _mm_add_ps(s4, _mm_loadu_ps(c.as_ptr()));
        }
        let mut sum = hsum(s4);
        for &v in chunks.remainder() {
            sum += v;
        }
        sum / n
    };
    let var = {
        let m4 = _mm_set1_ps(mean);
        let mut chunks = row.chunks_exact(4);
        let mut s4 = _mm_setzero_ps();
        for c in &mut chunks {
            let d = _mm_sub_ps(_mm_loadu_ps(c.as_ptr()), m4);
            s4 = _mm_add_ps(s4, _mm_mul_ps(d, d));
        }
        let mut sum = hsum(s4);
        for &v in chunks.remainder() {
            sum += (v - mean) * (v - mean);
        }
        sum / n
    };
    let istd = 1.0 / (var + eps).sqrt();
    let m4 = _mm_set1_ps(mean);
    let s4 = _mm_set1_ps(istd);
    let len4 = row.len() - row.len() % 4;
    for i in (0..len4).step_by(4) {
        let x = _mm_loadu_ps(row.as_ptr().add(i));
        let g = _mm_loadu_ps(gain.as_ptr().add(i));
        let b = _mm_loadu_ps(bias.as_ptr().add(i));
        let y = _mm_add_ps(_mm_mul_ps(_mm_mul_ps(_mm_sub_ps(x, m4), s4), g), b);
        _mm_storeu_ps(row.as_mut_ptr().add(i), y);
    }
    for i in len4..row.len() {
        row[i] = (row[i] - mean) * istd * gain[i] + bias[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sse2_detected_on_x86_64() {
        // On the x86-64 CI/reference hosts the SIMD branch must actually
        // be the one under test; elsewhere the scalar fallback is.
        if cfg!(target_arch = "x86_64") {
            assert!(sse2_available());
        } else {
            assert!(!sse2_available());
        }
    }

    proptest! {
        /// The Exact tanh slice pass equals its scalar twin bit for bit on
        /// chunks that mix in-range lanes with raw bit patterns (±0, tiny,
        /// saturated, inf, NaN: the chunk's scalar fallback), and on
        /// ragged tails. `tests/exact_math.rs` sweeps every input.
        #[test]
        fn exact_tanh_slice_matches_scalar_on_mixed_chunks(
            bits in proptest::collection::vec(0u32..u32::MAX, 0..67)
        ) {
            let xs: Vec<f32> = bits
                .iter()
                .map(|&b| if b % 5 == 0 { f32::from_bits(b) } else { (b as f32 / u32::MAX as f32 - 0.5) * 50.0 })
                .collect();
            let mut simd = xs.clone();
            let mut scalar = xs;
            exact_tanh_slice(&mut simd);
            exact_tanh_slice_scalar(&mut scalar);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), c.to_bits());
            }
        }

        /// The dispatched tanh slice pass agrees with the scalar twin
        /// bitwise for finite inputs — same clamp, same polynomial, same
        /// rounding — so either path passes the fastmath error-bound
        /// suite identically.
        #[test]
        fn tanh_slice_simd_matches_scalar_bitwise(
            v in proptest::collection::vec(-50.0f32..50.0, 0..67)
        ) {
            let mut simd = v.clone();
            let mut scalar = v.clone();
            fast_tanh_slice(&mut simd);
            fast_tanh_slice_scalar(&mut scalar);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), c.to_bits());
            }
        }

        /// The exp slice pass equals its scalar twin bit for bit on chunks
        /// that mix softmax-shaped lanes with raw bit patterns (±0, inf,
        /// NaN, `|x| >= 88`: the chunk's scalar fallback), and on ragged
        /// tails. `tests/exact_math.rs` sweeps every input.
        #[test]
        fn exact_exp_slice_matches_scalar_on_mixed_chunks(
            bits in proptest::collection::vec(0u32..u32::MAX, 0..67)
        ) {
            let xs: Vec<f32> = bits
                .iter()
                .map(|&b| if b % 5 == 0 { f32::from_bits(b) } else { (b as f32 / u32::MAX as f32 - 0.5) * 180.0 })
                .collect();
            let mut simd = xs.clone();
            let mut scalar = xs;
            exact_exp_slice(&mut simd);
            exact_exp_slice_scalar(&mut scalar);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert_eq!(s.to_bits(), c.to_bits());
            }
        }

        /// LayerNorm row pass: the SIMD reduction may move the mean and
        /// variance in the last bits, so the contract is a tolerance (well
        /// inside the Fast tier's documented bounds).
        #[test]
        fn layer_norm_row_simd_tracks_scalar(
            v in proptest::collection::vec(-10.0f32..10.0, 1..67),
            g in -2.0f32..2.0,
            b in -2.0f32..2.0,
        ) {
            let gain = vec![g; v.len()];
            let bias = vec![b; v.len()];
            let mut simd = v.clone();
            let mut scalar = v.clone();
            layer_norm_row_fast(&mut simd, &gain, &bias, 1e-5);
            layer_norm_row_fast_scalar(&mut scalar, &gain, &bias, 1e-5);
            for (s, c) in simd.iter().zip(&scalar) {
                prop_assert!((s - c).abs() <= 1e-4 * (1.0 + c.abs()), "simd={s} scalar={c}");
            }
        }
    }

    /// The scalar fallback passes the same error-bound suite as the
    /// dispatched path: run fastmath's documented `tanh` contract against
    /// the explicit `*_scalar` twin (on x86-64 the dispatched assertions
    /// above cover the SSE2 side of the same bound).
    #[test]
    fn scalar_fallback_meets_fastmath_bounds() {
        let mut xs: Vec<f32> = (-1000..=1000).map(|i| i as f32 * 8e-3).collect();
        let expect_tanh: Vec<f32> = xs.iter().map(|x| x.tanh()).collect();
        fast_tanh_slice_scalar(&mut xs);
        for (got, want) in xs.iter().zip(&expect_tanh) {
            assert!((got - want).abs() <= 2e-4);
        }
    }
}
