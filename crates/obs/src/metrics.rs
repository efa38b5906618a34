//! Lock-free instruments: counters, gauges and log₂-scaled histograms.
//!
//! Every instrument is a plain `AtomicU64`/`AtomicI64` (or a fixed array of
//! them), so recording from N threads never serializes. Snapshots are taken
//! with relaxed loads — each number is exact per instrument, the set is only
//! approximately simultaneous, which is all a monitoring report needs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add one and return the new value (useful as a run-id allocator).
    pub fn inc_and_get(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds `0..1` ns), so 64 buckets
/// cover everything a `u64` of nanoseconds can express (≈ 584 years).
pub(crate) const BUCKETS: usize = 64;

/// A log₂-scaled histogram of durations.
///
/// Recording is one relaxed `fetch_add` into the matching power-of-two
/// bucket plus a running sum; quantiles are reconstructed from bucket
/// boundaries with within-bucket linear interpolation, which keeps the
/// worst-case relative error well under the raw 2× bucket width for any
/// bucket holding more than one sample.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - nanos.leading_zeros()) as usize; // 0 for nanos == 0
        self.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Freeze the current contents into a [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Per-bucket counts, for cumulative (Prometheus-style) exposition.
    /// Bucket `i` spans `[2^(i-1), 2^i)` ns; bucket 0 is `[0, 1)` ns.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Upper bound of bucket `i` in nanoseconds.
    pub fn bucket_bound_nanos(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Arithmetic mean (exact — the sum is tracked separately).
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.checked_div(self.count).unwrap_or(0))
    }

    /// Quantile `q` in `[0, 1]`, reconstructed from bucket boundaries with
    /// within-bucket linear interpolation: the `k`-th of `c` samples in a
    /// bucket spanning `[lo, hi)` is placed at the midpoint of the `k`-th of
    /// `c` equal sub-intervals, `lo + (hi - lo) · (2k - 1) / 2c`.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let k = rank - seen; // 1-based rank within this bucket
                let hi = 1u128 << i;
                let lo = hi >> 1; // bucket 0: lo == 0 (hi >> 1 of 1)
                let width = hi - lo;
                let v = lo + width * (2 * k as u128 - 1) / (2 * c as u128);
                return Duration::from_nanos(v.min(u64::MAX as u128) as u64);
            }
            seen += c;
        }
        Duration::from_nanos(u64::MAX)
    }

    /// p50 / p95 / p99 in one call.
    pub fn percentiles(&self) -> (Duration, Duration, Duration) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// Hit/miss/eviction snapshot of the daemon's sharded statement cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through.
    pub misses: u64,
    /// Insertions that displaced an older entry.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits / lookups, 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line rendering for bench and report output.
    pub fn render(&self) -> String {
        format!(
            "hits {} misses {} evictions {} (hit rate {:.1}%)",
            self.hits,
            self.misses,
            self.evictions,
            self.hit_rate() * 100.0
        )
    }
}

/// Format a duration compactly for reports.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.inc_and_get(), 6);
        let g = Gauge::default();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn interpolated_quantiles_are_pinned() {
        // Three samples of 100ns land in bucket [64, 128). With linear
        // interpolation the k-th of 3 samples sits at 64 + 64·(2k−1)/6.
        let h = LogHistogram::default();
        for _ in 0..3 {
            h.record(Duration::from_nanos(100));
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), Duration::from_nanos(74)); // k=1: 64 + 64/6
        assert_eq!(s.quantile(0.5), Duration::from_nanos(96)); // k=2: 64 + 64/2
        assert_eq!(s.quantile(1.0), Duration::from_nanos(117)); // k=3: 64 + 320/6
    }

    #[test]
    fn interpolation_spans_multiple_buckets() {
        // 1µs ×2 → bucket [512, 1024); 100µs ×2 → bucket [65536, 131072).
        let h = LogHistogram::default();
        for _ in 0..2 {
            h.record(Duration::from_micros(1));
            h.record(Duration::from_micros(100));
        }
        let s = h.snapshot();
        // rank 2 → second of two samples in the low bucket: 512 + 512·3/4.
        assert_eq!(s.quantile(0.5), Duration::from_nanos(896));
        // rank 4 → second of two in the high bucket: 65536 + 65536·3/4.
        assert_eq!(s.quantile(1.0), Duration::from_nanos(114688));
        assert_eq!(s.mean(), Duration::from_nanos((2_000 + 200_000) / 4));
    }

    #[test]
    fn zero_and_empty_histograms_are_sane() {
        let h = LogHistogram::default();
        assert_eq!(h.snapshot().quantile(0.5), Duration::ZERO);
        h.record(Duration::ZERO);
        // Bucket 0 spans [0, 1): interpolation stays at 0ns.
        assert_eq!(h.snapshot().quantile(0.5), Duration::ZERO);
        assert_eq!(h.snapshot().mean(), Duration::ZERO);
    }

    #[test]
    fn cache_stats_render() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.render(), "hits 3 misses 1 evictions 2 (hit rate 75.0%)");
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn fmt_duration_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.00s");
    }
}
