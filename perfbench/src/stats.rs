//! Order statistics used by every workload: medians, nearest-rank
//! percentiles, and the tail rule — report the highest percentile that
//! still has a minimum number of samples beyond it.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples the tail rule requires beyond the reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples strictly ranked above the reported one.
    pub beyond: usize,
}

/// Sorts a sample ascending (total order; NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample: the mean of the two middle values for even sizes.
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(p/100 * n)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps decimal percentiles like 99.9 from rounding a
    // whole rank up (99.9 * 1000 / 100 is 999.0000000000001 in f64).
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Quantile {
        percentile: p,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The highest percentile of [`TAIL_LADDER`] with at least `min_beyond`
/// samples ranked above it. `None` when even the median has fewer — the
/// sample is too small to say anything about its tail.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<Quantile> {
    TAIL_LADDER
        .iter()
        .filter_map(|&p| percentile(sorted, p))
        .find(|q| q.beyond >= min_beyond)
}

/// Smallest value of a sample; `None` for an empty sample.
pub fn minimum(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Element-wise statistic over repeated runs of the same deterministic
/// work: entry `i` is `stat` of `runs[r][i]` over every run `r` long
/// enough to have it. With [`median`], a machine stall that hits fewer
/// than half the repeats of an item does not move it; with [`minimum`],
/// one undisturbed repeat of the item is enough. A slow item stays slow
/// either way.
pub fn per_item(runs: &[Vec<f64>], stat: fn(&[f64]) -> Option<f64>) -> Vec<f64> {
    let len = runs.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .filter_map(|i| {
            stat(
                &runs
                    .iter()
                    .filter_map(|r| r.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let q = percentile(&ramp(100), 99.0).unwrap();
        assert_eq!((q.value, q.samples, q.beyond), (99.0, 100, 1));
        let q = percentile(&ramp(10), 50.0).unwrap();
        assert_eq!((q.value, q.beyond), (5.0, 5));
        assert_eq!(percentile(&ramp(7), 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10.
        let q = tail(&ramp(1000), MIN_BEYOND).unwrap();
        assert_eq!((q.percentile, q.value, q.beyond), (99.0, 990.0, 10));
        // 10 000 samples: p99.9 already leaves 10 beyond.
        assert_eq!(tail(&ramp(10_000), MIN_BEYOND).unwrap().percentile, 99.9);
        // 999 samples: p99 rank is 990, leaving 9 — fall back to p95.
        let q = tail(&ramp(999), MIN_BEYOND).unwrap();
        assert_eq!((q.percentile, q.beyond), (95.0, 49));
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(tail(&ramp(200), MIN_BEYOND).unwrap().percentile, 95.0);
    }

    #[test]
    fn per_item_statistics_filter_stalls() {
        let runs = vec![
            vec![1.0, 5.0, 2.0],
            vec![1.0, 5.0, 90.0],
            vec![70.0, 6.0, 80.0, 4.0],
        ];
        assert_eq!(per_item(&runs, median), vec![1.0, 5.0, 80.0, 4.0]);
        assert_eq!(per_item(&runs, minimum), vec![1.0, 5.0, 2.0, 4.0]);
        assert!(per_item(&[], median).is_empty());
        assert_eq!(minimum(&[]), None);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_none() {
        assert!(tail(&ramp(19), MIN_BEYOND).is_none());
        assert_eq!(tail(&ramp(20), MIN_BEYOND).unwrap().percentile, 50.0);
        assert!(tail(&[], MIN_BEYOND).is_none());
    }
}
