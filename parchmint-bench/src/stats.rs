//! Order statistics behind every number the benchmark prints.

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it. `None` for no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding (99.9 / 100 × 10 000 reads
    // 9990.000000000002) from bumping an exact rank up by one.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The percentiles a tail is reported at, lowest first.
const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of p50/p90/p99/p99.9 that has at least ten samples
/// beyond it, with its value — the deepest tail `n` samples can
/// support. `None` below 20 samples, where not even the median has ten
/// samples above it.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = TAIL_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)?;
    Some((p, percentile(values, p)?))
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default `exclusive` method). `None` below two
/// samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_real_samples() {
        let values = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&values, 5.0), Some(15.0));
        assert_eq!(percentile(&values, 30.0), Some(20.0));
        assert_eq!(percentile(&values, 40.0), Some(20.0));
        assert_eq!(percentile(&values, 50.0), Some(35.0));
        assert_eq!(percentile(&values, 100.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // An even count takes the lower middle sample, never an average.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(supported_tail(&one_to(19)), None);
        assert_eq!(supported_tail(&one_to(20)), Some((50.0, 10.0)));
        assert_eq!(supported_tail(&one_to(99)), Some((50.0, 50.0)));
        assert_eq!(supported_tail(&one_to(100)), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&one_to(999)), Some((90.0, 900.0)));
        assert_eq!(supported_tail(&one_to(1000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&one_to(10_000)), Some((99.9, 9990.0)));
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&one_to(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
