//! Order statistics: nearest-rank percentiles, the tail rule, the
//! quartile spread the regression check uses, and the fixed-size
//! sample latencies are kept in.

use adgen_exec::Prng;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it, so one outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples: the smallest
/// rank whose sample has at least `p`% of all samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail rule: the highest of `candidates` (percentiles, highest
/// first) that leaves at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, the convention the
/// benchmark's spread bound is stated in. A single value is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median (0 for a single
/// value or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A uniform sample of at most `cap` items of a stream (Vitter's
/// algorithm R). Latency percentiles come from it so that the
/// benchmark's own memory stays fixed however fast the server gets:
/// otherwise a throughput gain would read as a peak-RSS regression.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    prng: Prng,
}

impl<T> Reservoir<T> {
    /// An empty reservoir of `cap` items whose replacement choices
    /// derive from `seed`.
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
            prng: Prng::new(seed),
        }
    }

    /// Offers one item of the stream.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            let j = self.prng.next_range(self.seen) as usize;
            if j < self.cap {
                self.items[j] = item;
            }
        }
    }

    /// The sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond: allowed.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, &[99.9, 99.0, 90.0]), Some(99.0));
        // 999 samples leave only 9 beyond p99: fall back to p90.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, &[99.0, 90.0]), Some(90.0));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_percentile(100, &[90.0]), Some(90.0));
        assert_eq!(tail_percentile(99, &[90.0]), None);
        assert_eq!(tail_percentile(0, &[50.0]), None);
        // A bigger sample moves the tail up, never down.
        assert_eq!(tail_percentile(100_000, &[99.99, 99.9]), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut small = Reservoir::new(100, 1);
        (0..40u32).for_each(|v| small.push(v));
        assert_eq!(small.into_items(), (0..40).collect::<Vec<_>>());

        let mut r = Reservoir::new(1000, 1);
        (0..100_000u32).for_each(|v| r.push(v));
        let items = r.into_items();
        assert_eq!(items.len(), 1000);
        let late = items.iter().filter(|&&v| v >= 50_000).count();
        assert!(
            (400..600).contains(&late),
            "{late} of 1000 from the second half"
        );
    }
}
