//! Order statistics used by every metric: a latency is the p50 of a
//! repetition's samples, and a run reports the first decile, from the
//! favourable end, of the per-repetition numbers.

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); sorts in place.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.max(1) - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value a tenth of the way in from the favourable end of `values`, by
/// nearest rank: the 10th percentile of latencies, the 90th of rates.
///
/// Repetitions do identical work, so they differ by what the machine added,
/// and on this shared machine that is one-sided (interference only adds
/// time) and comes in bursts that at times leave two or three undisturbed
/// repetitions in a run. The median holds while fewer than half of the
/// repetitions are disturbed, this while fewer than nine tenths are; it is
/// not the single best one, which one lucky repetition decides. The count of
/// repetitions is fixed per workload, so the rank is too. Returns 0 for an
/// empty slice.
pub fn favourable_decile(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[values.len().div_ceil(10) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so `compare` and the
/// driver agree on what a spread is. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (the driver's spread).
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut [7], 0.5), 7);
        assert_eq!(percentile(&mut [], 0.5), 0);
        // Odd count: the middle element, not an interpolation.
        assert_eq!(percentile(&mut [9, 1, 5], 0.5), 5);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn favourable_decile_follows_the_metric_direction() {
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(favourable_decile(&v, false), 3.0);
        assert_eq!(favourable_decile(&v, true), 22.0);
        // 14 repetitions: the 2nd from the favourable end.
        assert_eq!(favourable_decile(&v[..14], false), 2.0);
        assert_eq!(favourable_decile(&v[..14], true), 13.0);
        assert_eq!(favourable_decile(&[7.0], true), 7.0);
        assert_eq!(favourable_decile(&[], true), 0.0);
        // A burst over most of the repetitions moves the median, not this.
        let calm = [
            10.0, 10.1, 9.9, 10.0, 10.2, 10.1, 9.9, 10.0, 10.1, 10.0, 10.2,
        ];
        let burst = [
            14.0, 14.1, 9.9, 15.0, 13.2, 16.0, 12.8, 13.0, 10.0, 12.2, 14.4,
        ];
        assert!(median(&burst) > 1.2 * median(&calm));
        assert_eq!(favourable_decile(&calm, false), 9.9);
        assert_eq!(favourable_decile(&burst, false), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0]), 0.0);
    }
}
