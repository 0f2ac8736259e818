//! A small typed metrics registry — counters, gauges and histograms over
//! relaxed `AtomicU64`s — and the service's [`Metrics`] built on it.
//!
//! Every instrument is registered under its wire name at construction, so
//! `GET /metrics` renders the whole registry uniformly instead of a
//! hand-maintained line list. The text format is Prometheus-flavoured
//! (`name{label="v"} value`) but kept trivially greppable for the CI
//! smoke job; wire names are stable across refactors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bounds (µs) of the request-latency histogram buckets; a final
/// `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A monotonically-increasing counter.
///
/// `set` exists for counters mirroring a total owned elsewhere (the
/// journal replay stats, the LRU's eviction count): the source is itself
/// monotonic, the metric just republishes it.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Republish an externally-tracked monotonic total.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (in-flight requests, a state code).
#[derive(Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Add one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.v.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set an absolute value.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations (cumulative-bucket
/// rendering, Prometheus style: `_bucket{le=...}`, `_sum`, `_count`).
pub struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus the `+Inf` overflow slot.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&le| v <= le)
            .unwrap_or(self.bounds.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of instruments rendered uniformly as the
/// `/metrics` document, in registration order.
#[derive(Default)]
pub struct Registry {
    entries: Vec<(&'static str, Instrument)>,
}

impl Registry {
    /// Register and return a new counter.
    pub fn counter(&mut self, name: &'static str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.entries.push((name, Instrument::Counter(c.clone())));
        c
    }

    /// Register and return a new gauge.
    pub fn gauge(&mut self, name: &'static str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        self.entries.push((name, Instrument::Gauge(g.clone())));
        g
    }

    /// Register and return a new histogram with the given upper bounds.
    pub fn histogram(&mut self, name: &'static str, bounds: &'static [u64]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds));
        self.entries.push((name, Instrument::Histogram(h.clone())));
        h
    }

    /// Render every registered instrument.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, inst) in &self.entries {
            match inst {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Instrument::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, le) in h.bounds.iter().enumerate() {
                        cumulative += h.counts[i].load(Ordering::Relaxed);
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    cumulative += h.counts[h.bounds.len()].load(Ordering::Relaxed);
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    out.push_str(&format!("{name}_sum {}\n", h.sum.load(Ordering::Relaxed)));
                    out.push_str(&format!("{name}_count {cumulative}\n"));
                }
            }
        }
        out
    }
}

/// All service instruments. Shared behind an `Arc` by the acceptor, every
/// worker, and the `/metrics` handler. Each field is registered in
/// [`Metrics::new`] under its stable `grover_serve_*` wire name.
pub struct Metrics {
    /// Requests fully processed (any status).
    pub requests_total: Arc<Counter>,
    /// `POST /v1/compile` requests.
    pub compile_requests: Arc<Counter>,
    /// `POST /v1/tune` requests.
    pub tune_requests: Arc<Counter>,
    /// Tune requests answered from the decision cache.
    pub cache_hits: Arc<Counter>,
    /// Tune requests that had to run the tuner.
    pub cache_misses: Arc<Counter>,
    /// LRU evictions in the in-memory cache (republished total).
    pub cache_evictions: Arc<Counter>,
    /// Tuning races actually executed (misses that measured).
    pub tune_races: Arc<Counter>,
    /// Individual kernel launches the tuner executed (race measurements,
    /// retries, differential-output verification runs). A predict-hit
    /// request performs none — `serve_load --predict` asserts this stays
    /// flat across a predicted run.
    pub launches: Arc<Counter>,
    /// `POST /v1/predict` requests.
    pub predict_requests: Arc<Counter>,
    /// Predict requests answered from the model with zero launches.
    pub predict_hits: Arc<Counter>,
    /// Predict requests where the model abstained (below threshold, no
    /// model, or unknown device) and the measured race ran instead.
    pub predict_abstains: Arc<Counter>,
    /// Predictions later contradicted by a measurement (a fallback race
    /// or a cached measured decision disagreed with the model's verdict).
    pub predict_wrong: Arc<Counter>,
    /// Connections rejected with 429 because the queue was full.
    pub rejected_busy: Arc<Counter>,
    /// Requests that ended with a 4xx/5xx status.
    pub errors_total: Arc<Counter>,
    /// Handler panics converted into 500s.
    pub panics_total: Arc<Counter>,
    /// Tune requests that hit their deadline (504).
    pub deadline_timeouts: Arc<Counter>,
    /// Requests currently being processed by a worker.
    pub in_flight: Arc<Gauge>,
    /// Tune misses answered by joining another request's in-flight race.
    pub tune_coalesced: Arc<Counter>,
    /// Coalesced followers that timed out waiting for their leader.
    pub coalesce_timeouts: Arc<Counter>,
    /// Degraded (circuit-open fallback) tune responses served.
    pub degraded: Arc<Counter>,
    /// Times the tuner circuit breaker tripped open (republished total).
    pub breaker_opens: Arc<Counter>,
    /// Breaker state gauge: 0 closed, 1 open, 2 half-open.
    pub breaker_state: Arc<Gauge>,
    /// Journal records recovered at warm-start.
    pub journal_recovered: Arc<Counter>,
    /// Journal records skipped at warm-start: stale pass epoch.
    pub journal_stale_epoch: Arc<Counter>,
    /// Journal records skipped at warm-start: checksum/length mismatch.
    pub journal_corrupt: Arc<Counter>,
    /// Journal records skipped at warm-start: torn trailing write.
    pub journal_torn: Arc<Counter>,
    /// Journal compactions performed since startup (republished total).
    pub journal_compactions: Arc<Counter>,
    /// Decisions that could not be persisted (answered 500, not cached).
    pub persist_failures: Arc<Counter>,
    /// Connections dropped by the per-request socket I/O timeout.
    pub slow_client_drops: Arc<Counter>,
    /// Request latency histogram, µs (see [`LATENCY_BUCKETS_US`]).
    pub request_latency_us: Arc<Histogram>,
    registry: Registry,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh zeroed instruments, registered under their wire names.
    pub fn new() -> Metrics {
        let mut r = Registry::default();
        Metrics {
            requests_total: r.counter("grover_serve_requests_total"),
            compile_requests: r.counter("grover_serve_compile_requests_total"),
            tune_requests: r.counter("grover_serve_tune_requests_total"),
            cache_hits: r.counter("grover_serve_cache_hits_total"),
            cache_misses: r.counter("grover_serve_cache_misses_total"),
            cache_evictions: r.counter("grover_serve_cache_evictions_total"),
            tune_races: r.counter("grover_serve_tune_races_total"),
            launches: r.counter("grover_serve_launches_total"),
            predict_requests: r.counter("grover_serve_predict_requests_total"),
            predict_hits: r.counter("grover_serve_predict_hits_total"),
            predict_abstains: r.counter("grover_serve_predict_abstains_total"),
            predict_wrong: r.counter("grover_serve_predict_wrong_total"),
            rejected_busy: r.counter("grover_serve_rejected_busy_total"),
            errors_total: r.counter("grover_serve_errors_total"),
            panics_total: r.counter("grover_serve_panics_total"),
            deadline_timeouts: r.counter("grover_serve_deadline_timeouts_total"),
            in_flight: r.gauge("grover_serve_in_flight"),
            tune_coalesced: r.counter("grover_serve_tune_coalesced_total"),
            coalesce_timeouts: r.counter("grover_serve_coalesce_timeouts_total"),
            degraded: r.counter("grover_serve_degraded_total"),
            breaker_opens: r.counter("grover_serve_breaker_opens_total"),
            breaker_state: r.gauge("grover_serve_breaker_state"),
            journal_recovered: r.counter("grover_serve_journal_recovered_total"),
            journal_stale_epoch: r.counter("grover_serve_journal_stale_epoch_total"),
            journal_corrupt: r.counter("grover_serve_journal_corrupt_total"),
            journal_torn: r.counter("grover_serve_journal_torn_total"),
            journal_compactions: r.counter("grover_serve_journal_compactions_total"),
            persist_failures: r.counter("grover_serve_persist_failures_total"),
            slow_client_drops: r.counter("grover_serve_slow_client_drops_total"),
            request_latency_us: r.histogram("grover_serve_request_latency_us", &LATENCY_BUCKETS_US),
            registry: r,
        }
    }

    /// Record one finished request's latency.
    pub fn observe_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.request_latency_us.observe(us);
    }

    /// Render the `/metrics` document.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(50)); // le=100
        m.observe_latency(Duration::from_micros(5_000)); // le=10000
        m.observe_latency(Duration::from_secs(60)); // +Inf
        let text = m.render();
        assert!(
            text.contains("grover_serve_request_latency_us_bucket{le=\"100\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("grover_serve_request_latency_us_bucket{le=\"10000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("grover_serve_request_latency_us_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("grover_serve_request_latency_us_count 3"),
            "{text}"
        );
        assert_eq!(m.request_latency_us.count(), 3);
    }

    #[test]
    fn counters_render_as_plain_lines() {
        let m = Metrics::new();
        m.cache_hits.inc();
        m.cache_hits.inc();
        m.requests_total.inc();
        let text = m.render();
        assert!(text.contains("grover_serve_cache_hits_total 2"), "{text}");
        assert!(text.contains("grover_serve_requests_total 1"), "{text}");
        assert!(text.contains("grover_serve_in_flight 0"), "{text}");
    }

    #[test]
    fn gauges_go_up_and_down() {
        let m = Metrics::new();
        m.in_flight.inc();
        m.in_flight.inc();
        m.in_flight.dec();
        assert_eq!(m.in_flight.get(), 1);
        m.breaker_state.set(2);
        assert!(m.render().contains("grover_serve_breaker_state 2"));
    }

    #[test]
    fn registry_renders_in_registration_order() {
        let mut r = Registry::default();
        let a = r.counter("zz_first");
        let _b = r.gauge("aa_second");
        a.add(7);
        let text = r.render();
        let first = text.find("zz_first 7").unwrap();
        let second = text.find("aa_second 0").unwrap();
        assert!(first < second, "{text}");
    }
}
