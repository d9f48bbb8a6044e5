//! Generic log2 histograms over a tick axis.
//!
//! [`Histogram<T>`] generalizes the original latency-only histogram so
//! the same bucket math, quantile estimator, and commutative merge
//! serve both wall-clock samples ([`LatencyHistogram`], ticks = µs)
//! and dimensionless cardinality-accuracy ratios
//! ([`QErrorHistogram`], ticks = 1/1024ths). Bucket `i` counts samples
//! whose tick value has `floor(log2(ticks)) == i`; sub-tick samples
//! land in bucket 0 and everything past the last bucket clamps into
//! it.

use std::time::Duration;

/// Number of log2 buckets in a [`Histogram`] — for latencies bucket 31
/// tops out above half an hour, far past any optimization deadline;
/// for Q-errors it tops out past 2 × 10⁶, far past any useful
/// estimate.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A sample type a [`Histogram`] can bucket: values map monotonically
/// onto an integer tick axis, sum exactly, and divide for the mean.
pub trait HistogramSample: Copy + Default + PartialOrd {
    /// Map the sample onto the tick axis (µs for durations, 1/1024ths
    /// for ratios). Must be monotonic.
    fn to_ticks(self) -> u64;
    /// Inverse of [`HistogramSample::to_ticks`], used to render bucket
    /// upper bounds.
    fn from_ticks(ticks: u64) -> Self;
    /// Sum for the running `total`. Must be exactly commutative and
    /// associative, so totals are bit-identical regardless of
    /// ingestion or merge order (integer-backed types sum natively;
    /// floats must accumulate in tick space).
    fn sum(self, other: Self) -> Self;
    /// `total / count`, for the mean.
    fn div_by(self, count: u64) -> Self;
}

impl HistogramSample for Duration {
    fn to_ticks(self) -> u64 {
        self.as_micros() as u64
    }

    fn from_ticks(ticks: u64) -> Self {
        Duration::from_micros(ticks)
    }

    fn sum(self, other: Self) -> Self {
        self + other
    }

    fn div_by(self, count: u64) -> Self {
        mean_duration(self, count)
    }
}

/// `total / count` for any `u64` count (zero when empty). `Duration`
/// only divides by `u32`: a count cast down to it gives a wrong mean
/// past 2³² − 1 samples and a division by zero at exactly 2³², so the
/// division runs in `u128` nanoseconds.
pub(crate) fn mean_duration(total: Duration, count: u64) -> Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    let nanos = total.as_nanos().checked_div(count.into()).unwrap_or(0);
    Duration::new(
        (nanos / NANOS_PER_SEC) as u64,
        (nanos % NANOS_PER_SEC) as u32,
    )
}

/// Q-error ratios are dimensionless `f64`s ≥ 1; 10 fractional bits of
/// fixed point keep the bucket edges fine enough that a perfect
/// estimate (q = 1) and a 2× miss land ten buckets apart.
impl HistogramSample for f64 {
    fn to_ticks(self) -> u64 {
        if self <= 0.0 {
            0
        } else {
            (self * 1024.0) as u64
        }
    }

    fn from_ticks(ticks: u64) -> Self {
        ticks as f64 / 1024.0
    }

    /// Accumulate in tick space: integer addition is exactly
    /// associative, where a raw `f64` running sum drifts in the last
    /// bits depending on ingestion order. Both operands are dyadic
    /// multiples of 2⁻¹⁰ after the first fold, so the round trip
    /// through ticks is lossless past the initial ≤ 1/1024
    /// quantization per sample.
    fn sum(self, other: Self) -> Self {
        Self::from_ticks(self.to_ticks() + other.to_ticks())
    }

    fn div_by(self, count: u64) -> Self {
        self / count as f64
    }
}

/// A log2 histogram over any [`HistogramSample`]: bucket `i` counts
/// samples whose tick value has `floor(log2(ticks)) == i` (sub-tick
/// samples land in bucket 0; everything past the last bucket clamps
/// into it).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram<T> {
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub total: T,
    /// Largest sample.
    pub max: T,
}

impl<T: HistogramSample + Eq> Eq for Histogram<T> {}

impl<T: HistogramSample> Default for Histogram<T> {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total: T::default(),
            max: T::default(),
        }
    }
}

impl<T: HistogramSample> Histogram<T> {
    /// The bucket index a sample falls into.
    pub fn bucket_for(sample: T) -> usize {
        let ticks = sample.to_ticks().max(1);
        ((63 - ticks.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) − 1` ticks).
    pub fn bucket_upper_bound(i: usize) -> T {
        T::from_ticks((1u64 << (i + 1)) - 1)
    }

    /// Fold in one sample.
    pub fn record(&mut self, sample: T) {
        self.buckets[Self::bucket_for(sample)] += 1;
        self.count += 1;
        self.total = self.total.sum(sample);
        if sample > self.max {
            self.max = sample;
        }
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> T {
        if self.count == 0 {
            T::default()
        } else {
            self.total.div_by(self.count)
        }
    }

    /// The sample at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest sample,
    /// clamped to the observed maximum so a sparse top bucket cannot
    /// inflate the estimate past anything actually seen. Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> T {
        if self.count == 0 {
            return T::default();
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = Self::bucket_upper_bound(i);
                return if bound > self.max { self.max } else { bound };
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> T {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> T {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> T {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one (bucket-wise sum; `max`
    /// and `total` combine exactly). Merging is associative and
    /// commutative, so per-shard histograms can be combined in any
    /// order.
    pub fn merge(&mut self, other: &Histogram<T>) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total = self.total.sum(other.total);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The populated buckets, as `(upper_bound, count)` pairs in
    /// ascending order — what `sdp-service replay` prints.
    pub fn nonzero_buckets(&self) -> Vec<(T, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper_bound(i), n))
            .collect()
    }
}

/// A log2 latency histogram over microsecond ticks — the shape the
/// per-rung tables and the Prometheus exposition were built on.
pub type LatencyHistogram = Histogram<Duration>;

/// A log2 Q-error histogram over 1/1024th ticks: bucket 10's upper
/// edge sits just under q = 2, so "within 2× of the true cardinality"
/// is everything at or below it.
pub type QErrorHistogram = Histogram<f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qerror_buckets_split_at_powers_of_two() {
        // q = 1.0 is 1024 ticks → bucket 10; q just under 2 stays
        // there; q = 2.0 crosses into bucket 11.
        assert_eq!(QErrorHistogram::bucket_for(1.0), 10);
        assert_eq!(QErrorHistogram::bucket_for(1.99), 10);
        assert_eq!(QErrorHistogram::bucket_for(2.0), 11);
        assert_eq!(QErrorHistogram::bucket_for(4.0), 12);
        // Sub-tick and non-finite-adjacent inputs clamp to bucket 0.
        assert_eq!(QErrorHistogram::bucket_for(0.0), 0);
    }

    #[test]
    fn qerror_histogram_tracks_mean_max_and_quantiles() {
        let mut h = QErrorHistogram::default();
        for q in [1.0, 1.0, 1.0, 2.0, 8.0] {
            h.record(q);
        }
        assert_eq!(h.count, 5);
        assert!((h.mean() - 2.6).abs() < 1e-9);
        assert_eq!(h.max, 8.0);
        // p50 falls in bucket 10 (upper bound ~2), clamped by nothing.
        assert!(h.p50() <= 2.0);
        // p99 clamps to the observed max.
        assert_eq!(h.p99(), 8.0);
    }

    #[test]
    fn qerror_merge_is_commutative() {
        let mut a = QErrorHistogram::default();
        let mut b = QErrorHistogram::default();
        for q in [1.0, 3.5, 100.0] {
            a.record(q);
        }
        for q in [2.0, 2.0] {
            b.record(q);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.buckets, ba.buckets);
        assert_eq!(ab.count, ba.count);
        assert_eq!(ab.max, ba.max);
    }

    #[test]
    fn duration_alias_keeps_original_bucket_math() {
        assert_eq!(LatencyHistogram::bucket_for(Duration::ZERO), 0);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(1)), 0);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(2)), 1);
        assert_eq!(
            LatencyHistogram::bucket_upper_bound(3),
            Duration::from_micros(15)
        );
    }
}
