//! The log-scale histogram behind a trace summary's observations.

/// Bucket count for [`Histogram`]: bucket 0 holds zero, bucket `i`
/// (1..=64) holds values in `2^(i-1) .. 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed log2-scale histogram of `u64` observations.
///
/// Buckets are powers of two, so recording is branch-light
/// (`leading_zeros`) and merging is element-wise addition. Quantiles are
/// answered at bucket granularity (the bucket's inclusive upper bound),
/// which is the right precision for "how many node expansions does a
/// typical net cost" questions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of a bucket.
    pub fn upper_bound(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            b if b >= 64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive upper bound of the bucket containing the `q`
    /// quantile (`0.0..=1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_bound(bucket);
            }
        }
        Self::upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(bucket, &n)| (Self::upper_bound(bucket), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 2072);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![
                (0, 1),
                (1, 1),
                (3, 2),
                (7, 2),
                (15, 1),
                (1023, 1),
                (2047, 1)
            ]
        );
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 63); // rank 50 lands in the 32..=63 bucket
        assert_eq!(h.quantile(1.0), 127);
        let mut other = Histogram::new();
        other.record(0);
        other.merge(&h);
        assert_eq!(other.count(), 101);
        assert_eq!(other.quantile(0.0), 0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }
}
