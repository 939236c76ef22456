//! Numerically stable reductions and summary statistics.

/// Stable softmax of each `cols`-wide row of `data`, in place: the one
/// softmax of both precision tiers. Each row gets the bits of the
/// textbook row loop on [`crate::exactmath::expf`]
/// ([`crate::simd::softmax_rows_scalar`]), computed eight rows at a time
/// where AVX2 and FMA are available.
///
/// # Panics
/// Panics if `cols` is positive and does not divide `data.len()`.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    use crate::simd;
    if cols == 0 {
        return;
    }
    assert!(data.len().is_multiple_of(cols), "softmax_rows: ragged rows");
    // The AVX2 body gathers at offsets `r * cols` for `r < 8`, as `i32`.
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available()
        && std::arch::is_x86_feature_detected!("fma")
        && cols <= i32::MAX as usize / 8
    {
        // SAFETY: AVX2 and FMA verified at runtime; `cols` is positive,
        // divides `data.len()` and keeps the gather offsets in `i32`.
        unsafe { simd::softmax_rows_avx2(data, cols) };
        return;
    }
    simd::softmax_rows_scalar(data, cols);
}

/// Stable softmax over a slice, in place: [`softmax_rows`] with one row.
pub fn softmax_inplace(a: &mut [f32]) {
    softmax_rows(a, a.len());
}

/// Stable softmax, returning a new vector.
pub fn softmax(a: &[f32]) -> Vec<f32> {
    let mut v = a.to_vec();
    softmax_inplace(&mut v);
    v
}

/// log(sum(exp(a))) computed stably.
pub fn log_sum_exp(a: &[f32]) -> f32 {
    if a.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        return max;
    }
    max + a.iter().map(|v| (v - max).exp()).sum::<f32>().ln()
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    (a.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / a.len() as f32).sqrt()
}

/// Shannon entropy (nats) of a probability vector; ignores non-positive entries.
pub fn entropy(p: &[f32]) -> f32 {
    -p.iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| v * v.ln())
        .sum::<f32>()
}

/// Sharpen a probability distribution with temperature `t` (< 1 sharpens).
pub fn sharpen(p: &[f32], t: f32) -> Vec<f32> {
    let mut out: Vec<f32> = p.iter().map(|&v| v.max(1e-12).powf(1.0 / t)).collect();
    let sum: f32 = out.iter().sum();
    for v in &mut out {
        *v /= sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_stable_under_large_inputs() {
        let s = softmax(&[1000.0, 1000.0]);
        assert!((s[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let a = [0.1f32, 0.2, 0.3];
        let naive = a.iter().map(|v| v.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&a) - naive).abs() < 1e-5);
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        let p = [0.25f32; 4];
        assert!((entropy(&p) - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn sharpen_increases_max_probability() {
        let p = [0.6f32, 0.3, 0.1];
        let s = sharpen(&p, 0.5);
        assert!(s[0] > p[0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        assert_eq!(std_dev(&[2.0, 2.0, 2.0]), 0.0);
    }

    proptest! {
        #[test]
        fn softmax_is_a_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..16)) {
            let s = softmax(&v);
            prop_assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }

        #[test]
        fn log_sum_exp_ge_max(v in proptest::collection::vec(-50.0f32..50.0, 1..16)) {
            let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(log_sum_exp(&v) >= max - 1e-4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `softmax_rows` gives every row the bits of the textbook row
        /// loop with the ported `expf`, over 0-20 rows of 1-70 columns.
        /// Lanes mix finite values with raw bit patterns (±0, ±inf, NaN,
        /// `|x| >= 88`), and some rows are all `-inf`.
        #[test]
        fn softmax_rows_matches_the_row_loop_bitwise(
            rows in 0usize..21,
            cols in 1usize..71,
            pool in proptest::collection::vec(0u32..u32::MAX, 20 * 70),
            neg_inf_rows in proptest::collection::vec(0u8..8, 20),
        ) {
            const SPECIAL: [f32; 6] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -95.5];
            let mut data: Vec<f32> = pool[..rows * cols]
                .iter()
                .map(|&b| match b % 16 {
                    0 => SPECIAL[(b / 16) as usize % SPECIAL.len()],
                    1 => f32::from_bits(b),
                    _ => (b as f32 / u32::MAX as f32 - 0.5) * 60.0,
                })
                .collect();
            for (row, &pick) in data.chunks_exact_mut(cols).zip(&neg_inf_rows) {
                if pick == 0 {
                    row.fill(f32::NEG_INFINITY);
                }
            }
            let mut want = data.clone();
            for row in want.chunks_exact_mut(cols) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = crate::exactmath::expf(*v - max);
                    sum += *v;
                }
                if sum > 0.0 {
                    let inv = 1.0 / sum;
                    for v in row.iter_mut() {
                        *v *= inv;
                    }
                }
            }
            let mut scalar = data.clone();
            crate::simd::softmax_rows_scalar(&mut scalar, cols);
            softmax_rows(&mut data, cols);
            for (i, (got, want)) in data.iter().zip(&want).enumerate() {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "row {} col {}", i / cols, i % cols);
                prop_assert_eq!(scalar[i].to_bits(), want.to_bits(), "scalar twin");
            }
        }
    }
}
