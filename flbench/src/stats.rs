//! Order statistics over timing samples.

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample such
/// that at least `p` % of the samples are at or below it. Sorts a copy.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: every caller measures at least
/// one sample, and a NaN time is a bug in the measurement.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as the mean of the two middle samples for an even count, so
/// two-sample medians do not collapse onto the lower sample.
///
/// # Panics
///
/// As [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many samples lie strictly above the `p` percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 25.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 51.0), 3.0);
        assert_eq!(percentile(&s, 99.0), 4.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        // A tiny p still picks the first sample, never index -1.
        assert_eq!(percentile(&s, 0.001), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn beyond_counts_the_tail_past_a_percentile() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&thousand, 99.0), 10);
        assert_eq!(beyond(&[1.0, 1.0, 1.0], 50.0), 0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_are_a_bug() {
        percentile(&[], 50.0);
    }
}
