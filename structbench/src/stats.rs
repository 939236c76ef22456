//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! ten-samples-beyond rule for tails, medians and open-loop lateness.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: &[f64] = &[99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail is reported only if at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`th percentile among `n >= 1`
/// samples. The epsilon keeps `99.9 * 10_000 / 100` from rounding up past
/// an exact rank.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// How many samples lie strictly beyond the nearest-rank `p`th percentile
/// of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it, and its value. `None` when too few samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Sort a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den`, or `None` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// How late an open-loop generator ran: per request, the send time minus
/// the time it was due (never negative).
#[derive(Clone, Debug, PartialEq)]
pub struct Lateness {
    /// Requests scheduled.
    pub n: usize,
    /// Median lateness in ms.
    pub p50_ms: f64,
    /// Highest-tail lateness in ms (see [`tail`]), or the max when too few.
    pub tail_ms: f64,
    /// Worst lateness in ms.
    pub max_ms: f64,
    /// Requests sent more than one interval after they were due.
    pub missed: usize,
}

impl Lateness {
    /// Summarize `(due, sent)` offsets in ms for a schedule with the given
    /// interval between requests.
    pub fn of(due_sent_ms: &[(f64, f64)], interval_ms: f64) -> Lateness {
        let late: Vec<f64> = due_sent_ms
            .iter()
            .map(|&(due, sent)| (sent - due).max(0.0))
            .collect();
        let s = sorted(&late);
        Lateness {
            n: s.len(),
            p50_ms: percentile(&s, 50.0).unwrap_or(0.0),
            tail_ms: tail(&s)
                .map(|(_, v)| v)
                .or_else(|| s.last().copied())
                .unwrap_or(0.0),
            max_ms: s.last().copied().unwrap_or(0.0),
            missed: late.iter().filter(|&&l| l > interval_ms).count(),
        }
    }

    /// Whether the generator kept its schedule: at most one request in a
    /// hundred was sent more than one interval after it was due.
    pub fn kept_schedule(&self) -> bool {
        self.missed * 100 <= self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly ten beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves nine, so fall back to p95.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        // 100 samples: p90 leaves ten.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 40 samples: p75 leaves ten.
        assert_eq!(tail(&ramp(40)).map(|t| t.0), Some(75.0));
        // Too few for any tail.
        assert_eq!(tail(&ramp(39)), None);
        // The 99.9th needs 10 000 samples.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(ratio(1.0, 0.0), None);
    }

    #[test]
    fn lateness_counts_only_positive_delay() {
        // Due every 10 ms; the third request is 25 ms late, one early.
        let pairs = [(0.0, 0.5), (10.0, 9.0), (20.0, 45.0), (30.0, 31.0)];
        let l = Lateness::of(&pairs, 10.0);
        assert_eq!(l.n, 4);
        assert_eq!(l.max_ms, 25.0);
        assert_eq!(l.missed, 1);
        assert_eq!(l.p50_ms, 0.5);
        // Four samples have no tail with ten beyond: report the max.
        assert_eq!(l.tail_ms, 25.0);
        assert!(!l.kept_schedule());
        let on_time: Vec<(f64, f64)> = (0..200).map(|i| (i as f64, i as f64 + 0.1)).collect();
        assert!(Lateness::of(&on_time, 10.0).kept_schedule());
    }
}
