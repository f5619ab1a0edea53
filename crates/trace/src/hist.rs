//! Log-bucketed (HDR-style) latency histograms with atomic buckets.
//!
//! One bucket per power of two: bucket 0 holds the value 0, bucket `i`
//! (i ≥ 1) holds values in `[2^(i-1), 2^i)`. That gives ~2× resolution
//! over the full `u64` range in 65 fixed counters — the classic
//! HdrHistogram trade for latency data, where relative error matters
//! and tail buckets must never saturate.
//!
//! Recording is one atomic increment (plus min/max maintenance), so
//! vCPU threads feed the same histogram without coordination; the
//! summary statistics are read after the run.

use crate::json::{object, JsonWriter};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: value 0, then one per leading-bit position.
pub const BUCKETS: usize = 65;

/// A concurrent power-of-two-bucketed histogram.
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: 0 → 0, otherwise `floor(log2(v))+1`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The half-open `[lo, hi)` range bucket `i` covers. The top bucket
    /// reports `hi = u64::MAX` (its true upper bound saturates).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one sample. Wait-free; callable from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[LogHistogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        let min = self.min.load(Ordering::Relaxed);
        if min == u64::MAX && self.count() == 0 {
            0
        } else {
            min
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Text rendering: summary line plus one bar per non-empty bucket.
    pub fn render(&self, name: &str, unit: &str) -> String {
        let mut out = format!(
            "{name}: count={} min={} max={} mean={:.1} ({unit})\n",
            self.count(),
            self.min(),
            self.max(),
            self.mean()
        );
        let peak = (0..BUCKETS).map(|i| self.bucket(i)).max().unwrap_or(0);
        for i in 0..BUCKETS {
            let n = self.bucket(i);
            if n == 0 {
                continue;
            }
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            let bar = "#".repeat(((n * 40).div_ceil(peak.max(1))) as usize);
            out.push_str(&format!("  [{lo:>12}, {hi:>12}) {n:>8} {bar}\n"));
        }
        out
    }

    /// JSON object: the summary statistics plus one `{lo, hi, count}`
    /// object per non-empty bucket.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj().field("count", self.count());
        w.field("sum", self.sum()).field("min", self.min());
        w.field("max", self.max()).key("buckets").arr();
        for i in (0..BUCKETS).filter(|&i| self.bucket(i) > 0) {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            w.raw(object([("lo", lo), ("hi", hi), ("count", self.bucket(i))]));
        }
        w.end().end().finish()
    }
}

/// The three latencies the tracing plane aggregates, per the paper's
/// cost model: how long SC retries spin, how long entering the
/// stop-the-world section takes, and how deep HTM abort streaks run
/// before a commit or a degradation.
pub struct Histograms {
    /// First failed SC to the eventually-successful SC, nanoseconds
    /// (instructions in deterministic modes).
    pub sc_retry: LogHistogram,
    /// `start_exclusive` wait, nanoseconds.
    pub exclusive_wait: LogHistogram,
    /// Consecutive aborts ended by a commit or a degradation.
    pub htm_abort_streak: LogHistogram,
}

impl Default for Histograms {
    fn default() -> Histograms {
        Histograms::new()
    }
}

impl Histograms {
    pub fn new() -> Histograms {
        Histograms {
            sc_retry: LogHistogram::new(),
            exclusive_wait: LogHistogram::new(),
            htm_abort_streak: LogHistogram::new(),
        }
    }

    /// Whether any histogram saw a sample (gates `--histograms` noise).
    pub fn any_samples(&self) -> bool {
        self.sc_retry.count() > 0
            || self.exclusive_wait.count() > 0
            || self.htm_abort_streak.count() > 0
    }

    /// Text rendering of all three histograms.
    pub fn render(&self, time_unit: &str) -> String {
        let mut out = String::new();
        out.push_str(&self.sc_retry.render("sc_retry_latency", time_unit));
        out.push_str(
            &self
                .exclusive_wait
                .render("exclusive_entry_wait", time_unit),
        );
        out.push_str(&self.htm_abort_streak.render("htm_abort_streak", "aborts"));
        out
    }

    /// JSON object keyed by histogram name.
    pub fn to_json(&self) -> String {
        object([
            ("sc_retry", self.sc_retry.to_json()),
            ("exclusive_wait", self.exclusive_wait.to_json()),
            ("htm_abort_streak", self.htm_abort_streak.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(1023), 10);
        assert_eq!(LogHistogram::bucket_index(1024), 11);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_and_index_agree_on_every_bucket() {
        for i in 0..BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "lo of bucket {i}");
            // The last value strictly inside the bucket maps back too
            // (the top bucket's reported hi is the saturated u64::MAX,
            // which itself still lands in bucket 64).
            let last = if i == 64 { u64::MAX } else { hi - 1 };
            assert_eq!(LogHistogram::bucket_index(last), i, "hi-1 of bucket {i}");
        }
    }

    #[test]
    fn records_land_in_their_buckets() {
        let h = LogHistogram::new();
        for v in [0, 1, 2, 3, 700, 800, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 6 + 1500 + (1 << 20));
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1 << 20);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1); // 0
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 1); // 1
        assert_eq!(h.buckets[2].load(Ordering::Relaxed), 2); // 2, 3
        assert_eq!(h.buckets[10].load(Ordering::Relaxed), 2); // 700, 800
        assert_eq!(h.buckets[21].load(Ordering::Relaxed), 1); // 2^20
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.to_json().contains("\"buckets\":[]"));
    }

    /// One histogram's JSON, pinned: empty buckets skipped, the top
    /// bucket's saturated `hi` printed in full.
    #[test]
    fn histogram_json_is_pinned() {
        let h = LogHistogram::new();
        for v in [0, 1, 3, 700, 800, u64::MAX] {
            h.record(v);
        }
        let golden = include_str!("../tests/data/log_histogram.json");
        assert_eq!(h.to_json(), golden.trim_end());
    }

    /// The three histograms' JSON object, pinned, one of them empty.
    #[test]
    fn histograms_json_is_pinned() {
        let h = Histograms::new();
        h.sc_retry.record(500);
        h.sc_retry.record(2);
        h.htm_abort_streak.record(3);
        let golden = include_str!("../tests/data/histograms.json");
        assert_eq!(h.to_json(), golden.trim_end());
    }

    #[test]
    fn render_and_json_shapes() {
        let h = Histograms::new();
        assert!(!h.any_samples());
        h.sc_retry.record(500);
        h.exclusive_wait.record(2048);
        h.htm_abort_streak.record(3);
        assert!(h.any_samples());
        let text = h.render("ns");
        assert!(text.contains("sc_retry_latency: count=1"));
        assert!(text.contains("exclusive_entry_wait"));
        let json = h.to_json();
        assert!(json.contains("\"sc_retry\":{\"count\":1"));
        assert!(json.contains("{\"lo\":2048,\"hi\":4096,\"count\":1}"));
        assert!(json.contains("{\"lo\":2,\"hi\":4,\"count\":1}"));
    }
}
