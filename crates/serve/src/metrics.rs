//! Serving observability: lock-free counters, a log-scale latency
//! histogram, and a plain-text dump.
//!
//! Everything is atomics so the hot path (workers completing requests,
//! clients submitting) never serializes on a metrics lock. Percentiles
//! come from a log₂ histogram with four sub-buckets per octave
//! (~12.5% resolution), which is plenty for a serving baseline and costs
//! a fixed 256 × 8 bytes.
//!
//! The multi-model engine keeps one [`Metrics`] per registered model
//! plus one aggregate; every event is recorded into both, so each
//! per-model counter column sums exactly to the aggregate.
//! [`ServeReport`] snapshots the whole family.

use mokey_transformer::exec::{PackStats, QuantizedStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BUCKETS: usize = 256;

/// Fixed-size log-scale histogram of durations.
///
/// Bucket resolution is one quarter-octave: values in `[2^k, 2^(k+1))`
/// microseconds land in one of four sub-buckets, so a reported quantile
/// is within ~12.5% of the true value.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    fn bucket_of(micros: u64) -> usize {
        if micros == 0 {
            return 0;
        }
        let octave = 63 - u64::leading_zeros(micros) as usize;
        let quarter = match octave {
            0 => 0,
            1 => ((micros & 1) << 1) as usize,
            _ => ((micros >> (octave - 2)) & 0b11) as usize,
        };
        (1 + octave * 4 + quarter).min(BUCKETS - 1)
    }

    /// The duration a bucket index represents (its sub-bucket midpoint).
    fn representative(bucket: usize) -> Duration {
        if bucket == 0 {
            return Duration::ZERO;
        }
        let octave = (bucket - 1) / 4;
        let quarter = (bucket - 1) % 4;
        let micros = (1u64 << octave) as f64 * (1.0 + (quarter as f64 + 0.5) / 4.0);
        Duration::from_nanos((micros * 1e3) as u64)
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / n)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), within one sub-bucket of the
    /// true value; zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Self::representative(i);
            }
        }
        Self::representative(BUCKETS - 1)
    }
}

/// Live engine counters, shared by reference between clients and workers.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    submitted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_invalid: AtomicU64,
    completed: AtomicU64,
    batches_formed: AtomicU64,
    batched_requests: AtomicU64,
    max_batch_size: AtomicU64,
    packed_batches: AtomicU64,
    packed_requests: AtomicU64,
    solo_requests: AtomicU64,
    pad_rows: AtomicU64,
    packed_rows: AtomicU64,
    act_values: AtomicU64,
    act_outliers: AtomicU64,
    generated_tokens: AtomicU64,
    decode_steps: AtomicU64,
    /// End-to-end latency: submission → response sent.
    pub latency: LatencyHistogram,
    /// Queue wait: submission → batch formed.
    pub queue_wait: LatencyHistogram,
    /// Per-generated-token latency: the gap between consecutive sampled
    /// tokens of a generation (the first observation is time-to-first-
    /// token: accept → first sample, including prefill).
    pub per_token: LatencyHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters; `started` anchors the rate calculations.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches_formed: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch_size: AtomicU64::new(0),
            packed_batches: AtomicU64::new(0),
            packed_requests: AtomicU64::new(0),
            solo_requests: AtomicU64::new(0),
            pad_rows: AtomicU64::new(0),
            packed_rows: AtomicU64::new(0),
            act_values: AtomicU64::new(0),
            act_outliers: AtomicU64::new(0),
            generated_tokens: AtomicU64::new(0),
            decode_steps: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            per_token: LatencyHistogram::new(),
        }
    }

    /// Accounts an accepted request.
    pub fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts a request bounced by admission control (queue full).
    pub fn note_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts a request shed by its model's admission quota.
    pub fn note_rejected_quota(&self) {
        self.rejected_quota.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts a request bounced by validation.
    pub fn note_rejected_invalid(&self) {
        self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one formed batch and its size.
    pub fn note_batch(&self, size: usize) {
        self.batches_formed.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch_size.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Accounts how one batch executed: packed groups vs solo fallbacks,
    /// and the padding rows the packs carried.
    pub fn note_packing(&self, packing: &PackStats) {
        self.packed_batches.fetch_add(packing.packed_batches as u64, Ordering::Relaxed);
        self.packed_requests.fetch_add(packing.packed_requests as u64, Ordering::Relaxed);
        self.solo_requests.fetch_add(packing.solo_requests as u64, Ordering::Relaxed);
        self.pad_rows.fetch_add(packing.pad_rows as u64, Ordering::Relaxed);
        self.packed_rows.fetch_add(packing.packed_rows as u64, Ordering::Relaxed);
    }

    /// Accounts one decode slice: a worker pass that advanced a batch of
    /// in-flight generations one token each with one fused step. Decode slices are *not*
    /// [`Metrics::note_batch`] batches — a generation flows through many
    /// slices but completes once, so counting slices as batches would
    /// corrupt `mean_batch_size`.
    pub fn note_decode_step(&self) {
        self.decode_steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one greedily sampled token and its per-token latency
    /// (gap since the generation's previous token; time-to-first-token
    /// for the first).
    pub fn note_generated(&self, inter_token: Duration) {
        self.generated_tokens.fetch_add(1, Ordering::Relaxed);
        self.per_token.record(inter_token);
    }

    /// Accounts one completed request.
    pub fn note_completed(&self, latency: Duration, queue_wait: Duration, stats: &QuantizedStats) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.act_values.fetch_add(stats.act_values as u64, Ordering::Relaxed);
        self.act_outliers.fetch_add(stats.act_outliers as u64, Ordering::Relaxed);
        self.latency.record(latency);
        self.queue_wait.record(queue_wait);
    }

    /// Consistent point-in-time snapshot for reporting.
    pub fn snapshot(&self, peak_queue_depth: usize) -> MetricsReport {
        let elapsed = self.started.elapsed();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches_formed.load(Ordering::Relaxed);
        let act_values = self.act_values.load(Ordering::Relaxed);
        let pad_rows = self.pad_rows.load(Ordering::Relaxed);
        let packed_rows = self.packed_rows.load(Ordering::Relaxed);
        let generated_tokens = self.generated_tokens.load(Ordering::Relaxed);
        MetricsReport {
            elapsed,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            batches_formed: batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                self.batched_requests.load(Ordering::Relaxed) as f64 / batches as f64
            },
            max_batch_size: self.max_batch_size.load(Ordering::Relaxed),
            packed_batches: self.packed_batches.load(Ordering::Relaxed),
            packed_requests: self.packed_requests.load(Ordering::Relaxed),
            solo_requests: self.solo_requests.load(Ordering::Relaxed),
            pad_waste: if packed_rows == 0 { 0.0 } else { pad_rows as f64 / packed_rows as f64 },
            peak_queue_depth,
            requests_per_sec: completed as f64 / secs,
            act_values,
            act_outliers: self.act_outliers.load(Ordering::Relaxed),
            values_per_sec: act_values as f64 / secs,
            generated_tokens,
            decode_steps: self.decode_steps.load(Ordering::Relaxed),
            tokens_per_sec: generated_tokens as f64 / secs,
            per_token_p50: self.per_token.quantile(0.50),
            per_token_p99: self.per_token.quantile(0.99),
            latency_mean: self.latency.mean(),
            latency_p50: self.latency.quantile(0.50),
            latency_p90: self.latency.quantile(0.90),
            latency_p99: self.latency.quantile(0.99),
            queue_wait_p50: self.queue_wait.quantile(0.50),
            queue_wait_p99: self.queue_wait.quantile(0.99),
        }
    }
}

/// Everything the engine can tell you about one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReport {
    /// Wall-clock time since the engine started.
    pub elapsed: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests bounced by admission control (queue full).
    pub rejected_full: u64,
    /// Requests shed by a model's admission quota
    /// ([`ModelServeConfig::queue_quota`](crate::ModelServeConfig)).
    pub rejected_quota: u64,
    /// Requests bounced by validation (OOV token / over-long sequence).
    pub rejected_invalid: u64,
    /// Batches the dynamic batcher formed.
    pub batches_formed: u64,
    /// Mean formed-batch size (one-shot requests batched /
    /// `batches_formed`; decode slices and completed generations do not
    /// participate).
    pub mean_batch_size: f64,
    /// Largest batch formed.
    pub max_batch_size: u64,
    /// Packed tensor-level groups executed (one tall GEMM per projection
    /// each).
    pub packed_batches: u64,
    /// Requests served inside packed groups.
    pub packed_requests: u64,
    /// Requests that ran alone, as a pack of one (singleton groups and
    /// degenerate sequences).
    pub solo_requests: u64,
    /// Fraction of packed rows that were padding (0.0 when nothing
    /// packed).
    pub pad_waste: f64,
    /// High-water mark of the submission-queue depth.
    pub peak_queue_depth: usize,
    /// Completed requests per second of engine lifetime.
    pub requests_per_sec: f64,
    /// Activation values encoded through the dictionaries.
    pub act_values: u64,
    /// Of those, outlier-dictionary hits.
    pub act_outliers: u64,
    /// Activation values encoded per second of engine lifetime.
    pub values_per_sec: f64,
    /// Tokens greedily sampled by in-flight generations.
    pub generated_tokens: u64,
    /// Decode slices: worker passes that advanced a batch of generations
    /// one token each with one fused step (a generation spans many
    /// slices; `generated_tokens / decode_steps` is the mean fused width,
    /// counting the rare tail a worker finishes inline when a generation
    /// cannot re-enter the queue).
    pub decode_steps: u64,
    /// Generated tokens per second of engine lifetime.
    pub tokens_per_sec: f64,
    /// Median per-generated-token latency (inter-token gap; the first
    /// token's observation is time-to-first-token).
    pub per_token_p50: Duration,
    /// 99th-percentile per-generated-token latency.
    pub per_token_p99: Duration,
    /// Mean end-to-end request latency.
    pub latency_mean: Duration,
    /// Median end-to-end request latency.
    pub latency_p50: Duration,
    /// 90th-percentile end-to-end request latency.
    pub latency_p90: Duration,
    /// 99th-percentile end-to-end request latency.
    pub latency_p99: Duration,
    /// Median submission → batch-formed wait.
    pub queue_wait_p50: Duration,
    /// 99th-percentile submission → batch-formed wait.
    pub queue_wait_p99: Duration,
}

impl MetricsReport {
    /// Plain-text dump of every field, one per line.
    pub fn dump(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "serving metrics ({:.3} s)\n\
             \x20 requests   : {} submitted, {} completed, {} rejected (full), {} shed (quota), {} rejected (invalid)\n\
             \x20 batching   : {} batches, mean size {:.2}, max size {}, peak queue depth {}\n\
             \x20 packing    : {} packed batches ({} requests packed, {} solo), pad waste {:.2}%\n\
             \x20 throughput : {:.1} requests/s, {:.3e} act values/s ({} values, {:.2}% outliers)\n\
             \x20 decode     : {} tokens in {} slices, {:.1} tokens/s, per-token p50 {:.3} ms / p99 {:.3} ms\n\
             \x20 latency    : mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms\n\
             \x20 queue wait : p50 {:.3} ms, p99 {:.3} ms",
            self.elapsed.as_secs_f64(),
            self.submitted,
            self.completed,
            self.rejected_full,
            self.rejected_quota,
            self.rejected_invalid,
            self.batches_formed,
            self.mean_batch_size,
            self.max_batch_size,
            self.peak_queue_depth,
            self.packed_batches,
            self.packed_requests,
            self.solo_requests,
            100.0 * self.pad_waste,
            self.requests_per_sec,
            self.values_per_sec,
            self.act_values,
            if self.act_values == 0 {
                0.0
            } else {
                100.0 * self.act_outliers as f64 / self.act_values as f64
            },
            self.generated_tokens,
            self.decode_steps,
            self.tokens_per_sec,
            ms(self.per_token_p50),
            ms(self.per_token_p99),
            ms(self.latency_mean),
            ms(self.latency_p50),
            ms(self.latency_p90),
            ms(self.latency_p99),
            ms(self.queue_wait_p50),
            ms(self.queue_wait_p99),
        )
    }
}

/// Snapshot of a multi-model serving run: the aggregate engine report
/// plus one report per registered model (in registration order). Counter
/// columns (`submitted`, `completed`, `batches_formed`, `act_values`, …)
/// sum across models to the aggregate, because the engine records every
/// event into both scopes; derived columns (rates, quantiles,
/// `max_batch_size`) do not sum.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The whole-engine report (what single-model [`serve`](crate::serve)
    /// returns).
    pub aggregate: MetricsReport,
    /// Per-model `(name, report)` pairs, in registration order.
    pub per_model: Vec<(String, MetricsReport)>,
}

impl ServeReport {
    /// The report for a registered model name, if present.
    pub fn model(&self, name: &str) -> Option<&MetricsReport> {
        self.per_model.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    /// Plain-text dump: the aggregate, then per-model one-line summaries.
    pub fn dump(&self) -> String {
        let mut out = self.aggregate.dump();
        for (name, r) in &self.per_model {
            out.push_str(&format!(
                "\n  [{name}] {} submitted, {} completed, {:.1} req/s, {} batches \
                 (mean {:.2}), p99 {:.3} ms",
                r.submitted,
                r.completed,
                r.requests_per_sec,
                r.batches_formed,
                r.mean_batch_size,
                r.latency_p99.as_secs_f64() * 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_resolves_models_and_dumps_per_model_lines() {
        let m = Metrics::new();
        m.note_submitted();
        m.note_completed(
            Duration::from_micros(300),
            Duration::from_micros(30),
            &QuantizedStats { act_values: 10, act_outliers: 1, ..Default::default() },
        );
        let report = ServeReport {
            aggregate: m.snapshot(1),
            per_model: vec![("sentiment".into(), m.snapshot(1)), ("topic".into(), m.snapshot(1))],
        };
        assert_eq!(report.model("topic").unwrap().submitted, 1);
        assert!(report.model("absent").is_none());
        let text = report.dump();
        assert!(text.contains("[sentiment]"), "missing per-model line in {text}");
        assert!(text.contains("[topic]"));
    }

    #[test]
    fn histogram_quantiles_track_recorded_scale() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(80));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(
            p50 >= Duration::from_micros(80) && p50 <= Duration::from_micros(130),
            "p50 {p50:?}"
        );
        let p99 = h.quantile(0.99);
        assert!(p99 <= Duration::from_micros(130), "p99 {p99:?}");
        // The tail observation dominates the max quantile.
        let p100 = h.quantile(1.0);
        assert!(p100 >= Duration::from_millis(60), "p100 {p100:?}");
        // The mean is exact, not bucketed.
        let mean = h.mean();
        assert!(
            mean >= Duration::from_micros(890) && mean <= Duration::from_micros(910),
            "mean {mean:?}"
        );
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn bucket_round_trip_is_within_one_subbucket() {
        for micros in [1u64, 3, 7, 10, 100, 1_000, 65_537, 1_000_000] {
            let rep = LatencyHistogram::representative(LatencyHistogram::bucket_of(micros));
            let rep_us = rep.as_secs_f64() * 1e6;
            let ratio = rep_us / micros as f64;
            assert!((0.8..=1.4).contains(&ratio), "{micros} µs → {rep_us} µs");
        }
    }

    #[test]
    fn snapshot_derives_rates_and_batch_means() {
        let m = Metrics::new();
        for _ in 0..6 {
            m.note_submitted();
        }
        m.note_rejected_full();
        m.note_batch(4);
        m.note_batch(2);
        m.note_packing(&PackStats {
            packed_batches: 1,
            packed_requests: 4,
            solo_requests: 2,
            pad_rows: 8,
            packed_rows: 64,
        });
        let stats = QuantizedStats { act_values: 100, act_outliers: 3, ..Default::default() };
        for _ in 0..6 {
            m.note_completed(Duration::from_micros(500), Duration::from_micros(50), &stats);
        }
        let report = m.snapshot(5);
        assert_eq!(report.submitted, 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.rejected_full, 1);
        assert_eq!(report.batches_formed, 2);
        assert!((report.mean_batch_size - 3.0).abs() < 1e-9);
        assert_eq!(report.max_batch_size, 4);
        assert_eq!(report.peak_queue_depth, 5);
        assert_eq!(report.packed_batches, 1);
        assert_eq!(report.packed_requests, 4);
        assert_eq!(report.solo_requests, 2);
        assert!((report.pad_waste - 0.125).abs() < 1e-9);
        assert_eq!(report.act_values, 600);
        assert_eq!(report.act_outliers, 18);
        assert!(report.requests_per_sec > 0.0);
        let text = report.dump();
        for needle in
            ["requests", "batching", "packing", "throughput", "decode", "latency", "queue wait"]
        {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn decode_counters_roll_up_into_token_rates() {
        let m = Metrics::new();
        // Two slices: one advancing three generations, one advancing one.
        m.note_decode_step();
        for _ in 0..3 {
            m.note_generated(Duration::from_micros(200));
        }
        m.note_decode_step();
        m.note_generated(Duration::from_millis(4));
        let report = m.snapshot(0);
        assert_eq!(report.generated_tokens, 4);
        assert_eq!(report.decode_steps, 2);
        assert!(report.tokens_per_sec > 0.0);
        assert!(report.per_token_p50 <= Duration::from_micros(300), "{:?}", report.per_token_p50);
        assert!(report.per_token_p99 >= Duration::from_millis(3), "{:?}", report.per_token_p99);
        // Decode slices are not batches: mean_batch_size stays untouched.
        assert_eq!(report.batches_formed, 0);
    }
}
