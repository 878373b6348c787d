//! Latency and throughput telemetry: fixed log-linear-bucket histograms.
//!
//! Latency here is *simulated* — the driver prices each query from the
//! resolver's own accounting (attempts, simulated backoff, TCP
//! fallbacks), the same convention the retry machinery uses. That keeps
//! the histogram deterministic: two runs with the same seed produce the
//! same buckets, regardless of host speed. Wall-clock time only enters
//! the throughput numbers, which are reported separately.
//!
//! Buckets are *log-linear* (HDR-histogram style): each power of two is
//! split into [`SUB_BUCKETS`] linear sub-buckets, so relative bucket
//! width never exceeds 1/8 ≈ 12.5%. Pure log2 buckets — the previous
//! design — collapsed every latency in `[64, 128)` ms into one bucket,
//! which made p50 = p90 = p99 = p999 whenever the distribution sat
//! inside one octave (exactly what the first traffic runs showed: four
//! identical 128 ms percentiles). With 8 sub-buckets per octave the
//! percentiles of any realistically spread distribution are distinct.

/// Linear sub-buckets per power of two (must be a power of two).
pub const SUB_BUCKETS: usize = 8;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 3;

/// Total bucket count. Values `0..SUB_BUCKETS` get exact buckets; above
/// that, value `v` with `e = floor(log2 v)` lands in
/// `(e - SUB_BITS + 1) * SUB_BUCKETS + ((v >> (e - SUB_BITS)) & (SUB_BUCKETS - 1))`.
/// 240 buckets cover the full `u32` range with no clamping.
pub const BUCKETS: usize = 240;

/// A fixed log-linear-bucket latency histogram (milliseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_ms: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_ms: 0,
        }
    }
}

fn bucket_of(ms: u32) -> usize {
    if (ms as usize) < SUB_BUCKETS {
        ms as usize
    } else {
        let e = 31 - ms.leading_zeros();
        ((e - SUB_BITS + 1) as usize) * SUB_BUCKETS
            + ((ms >> (e - SUB_BITS)) as usize & (SUB_BUCKETS - 1))
    }
}

/// The largest value mapping into bucket `i` (inclusive), used as the
/// percentile's reported value (conservative: never under-reports, and
/// over-reports by less than 12.5%).
fn upper_bound_ms(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let e = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let m = (i % SUB_BUCKETS) as u64;
        ((SUB_BUCKETS as u64 + m + 1) << (e - SUB_BITS)) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query latency.
    pub fn record(&mut self, ms: u32) {
        self.buckets[bucket_of(ms)] += 1;
        self.count += 1;
        self.total_ms += ms as u64;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded latencies, ms.
    pub fn total_ms(&self) -> u64 {
        self.total_ms
    }

    /// Mean latency, ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (index = log-linear bucket).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_ms += other.total_ms;
    }

    /// The latency at quantile `q ∈ (0, 1]`, reported as the upper bound
    /// of the bucket holding that sample (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return upper_bound_ms(i);
            }
        }
        upper_bound_ms(BUCKETS - 1)
    }

    /// Median latency, ms.
    pub fn p50(&self) -> u64 {
        self.quantile_ms(0.50)
    }

    /// 90th percentile latency, ms.
    pub fn p90(&self) -> u64 {
        self.quantile_ms(0.90)
    }

    /// 99th percentile latency, ms.
    pub fn p99(&self) -> u64 {
        self.quantile_ms(0.99)
    }

    /// 99.9th percentile latency, ms.
    pub fn p999(&self) -> u64 {
        self.quantile_ms(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear() {
        // Exact buckets below SUB_BUCKETS…
        for v in 0..SUB_BUCKETS as u32 {
            assert_eq!(bucket_of(v), v as usize);
        }
        // …then 8 sub-buckets per octave.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(17), 16, "width-2 sub-bucket in [16, 32)");
        assert_eq!(bucket_of(31), 23);
        assert_eq!(bucket_of(127), 39);
        assert_eq!(bucket_of(128), 40);
        assert_eq!(bucket_of(u32::MAX), BUCKETS - 1);
        // Monotone across the whole range sampled at octave edges.
        let (mut prev_v, mut prev_b) = (0u64, 0usize);
        for e in 0..32u64 {
            for v in [(1u64 << e) - 1, 1u64 << e, (1u64 << e) + 1] {
                let v = v.min(u32::MAX as u64);
                if v <= prev_v {
                    continue;
                }
                let b = bucket_of(v as u32);
                assert!(b >= prev_b, "bucket_of({v}) went backwards");
                (prev_v, prev_b) = (v, b);
            }
        }
    }

    #[test]
    fn upper_bounds_bracket_their_bucket() {
        for v in [
            0u32,
            1,
            7,
            8,
            9,
            15,
            16,
            63,
            64,
            100,
            127,
            128,
            1000,
            1 << 20,
        ] {
            let b = bucket_of(v);
            assert!(upper_bound_ms(b) >= v as u64, "upper({b}) < {v}");
            // Conservative but tight: within 12.5% above SUB_BUCKETS.
            if v as usize >= SUB_BUCKETS {
                assert!(upper_bound_ms(b) < v as u64 + (v as u64 / SUB_BUCKETS as u64).max(1) * 2);
            }
        }
        assert_eq!(upper_bound_ms(bucket_of(u32::MAX)), u32::MAX as u64);
    }

    #[test]
    fn percentiles_walk_the_cumulative_counts() {
        let mut h = LatencyHistogram::new();
        // 90 fast queries (1ms, exact bucket), 9 at ~100ms, 1 at ~2000ms.
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(2000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 1, "sub-ms values are exact");
        assert_eq!(h.p90(), 1);
        // 100 lands in the width-8 sub-bucket [96, 104): upper bound 103.
        assert_eq!(h.p99(), 103);
        // 2000 lands in [1792, 2048): upper bound 2047.
        assert_eq!(h.p999(), 2047);
        assert!((h.mean_ms() - (90.0 + 900.0 + 2000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn spread_distribution_has_distinct_percentiles() {
        // The regression this design fixes: a realistic mix with the bulk
        // between 64 and 128 ms used to collapse p50 = p90 = p99 = p999
        // into the single [64, 128) log2 bucket. Log-linear sub-buckets
        // must keep all four distinct.
        let mut h = LatencyHistogram::new();
        for i in 0..1000u32 {
            h.record(64 + (i % 60)); // bulk: 64..124 ms
        }
        for _ in 0..80 {
            h.record(250); // slow tail
        }
        for _ in 0..2 {
            h.record(900); // very slow tail
        }
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        assert!(p50 < p90, "p50 {p50} vs p90 {p90}");
        assert!(p90 < p99, "p90 {p90} vs p99 {p99}");
        assert!(p99 < p999, "p99 {p99} vs p999 {p999}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(5);
        b.record(500);
        b.record(5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.total_ms(), 510);
        assert_eq!(merged.buckets()[bucket_of(5)], 2);
        assert_eq!(merged.buckets()[bucket_of(500)], 1);
    }
}
