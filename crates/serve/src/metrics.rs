//! Lock-free request metrics: counters by status class plus a
//! logarithmic latency histogram good enough for p50/p99.
//!
//! Latencies land in power-of-two nanosecond buckets (`⌊log₂ ns⌋`), so
//! recording is two relaxed atomic increments on the hot path and
//! quantiles are a 64-bucket walk at `GET /metrics` time. A quantile is
//! reported as its bucket's upper bound — at most 2× the true value,
//! which is plenty to watch the cold-session vs warm-delta separation
//! the bench gate pins (≥5×).
//!
//! **Accounting invariant** (pinned by a property test in
//! `tests/serve_chaos.rs`): every answered request increments `requests`,
//! one status class and one histogram bucket, so once no request is
//! mid-record `requests == responses.ok_2xx + responses.client_4xx +
//! responses.server_5xx == latency_ns.samples` in the [`MetricsDoc`].
//! The attributions `overload.shed_503`, `.timeouts_408` and `.panics`
//! cross-cut those classes: a shed request is *also* a 5xx, a deadline
//! expiry *also* a 4xx — never double-counted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Serialize;

const BUCKETS: usize = 64;

/// Shared request metrics; every method takes `&self`.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    counters: Counters,
    latency: [AtomicU64; BUCKETS],
}

/// The plain counters of [`Metrics`], each documented at the
/// [`MetricsDoc`] field it fills (in full in `docs/PROTOCOL.md`).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok_2xx: AtomicU64,
    client_4xx: AtomicU64,
    server_5xx: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    accept_errors: AtomicU64,
    poll_wakeups: AtomicU64,
    poll_spurious: AtomicU64,
    adopt_errors: AtomicU64,
}

/// The `GET /metrics` document: field names are its JSON keys, in the
/// order `docs/PROTOCOL.md` lists them, and `serde::json::to_string` its
/// one renderer. [`Metrics::snapshot`] fills the request-side fields; the
/// server fills the rest from the pool, journal, session table and engine.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsDoc {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Answered requests by status class.
    pub responses: Responses,
    /// Requests per second of uptime.
    pub requests_per_sec: f64,
    /// The end-to-end latency histogram.
    pub latency_ns: LatencyNs,
    /// Overload attributions and admission gauges.
    pub overload: Overload,
    /// Event-loop health counters.
    pub readiness: Readiness,
    /// Whether the write-ahead journal is live, and its counters.
    pub persistence: PersistSnapshot,
    /// The session table.
    pub sessions: Sessions,
    /// The shared `ChipEngine`'s work and its matrix tier.
    pub engine: Engine,
}

/// `/metrics` `responses`: answered requests by status class.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Responses {
    /// 2xx responses.
    pub ok_2xx: u64,
    /// 4xx responses.
    pub client_4xx: u64,
    /// 5xx responses.
    pub server_5xx: u64,
}

/// `/metrics` `latency_ns`: quantiles are their bucket's upper bound.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyNs {
    /// Median request latency in nanoseconds.
    pub p50: u64,
    /// 99th-percentile request latency in nanoseconds.
    pub p99: u64,
    /// Histogram samples (equals `requests` by the accounting invariant).
    pub samples: u64,
}

/// `/metrics` `overload`: attributions that cross-cut the status
/// classes, plus the live admission and pool gauges.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Overload {
    /// 503s shed at admission (subset of `server_5xx`).
    pub shed_503: u64,
    /// 408s from blown request deadlines (subset of `client_4xx`).
    pub timeouts_408: u64,
    /// Contained handler panics answered as 500 (subset of `server_5xx`).
    pub panics: u64,
    /// Failed `accept(2)` calls (not requests: outside the invariant).
    pub accept_errors: u64,
    /// The admission gauge: connections the event loops hold, plus those
    /// between accept and adoption.
    pub inflight: usize,
    /// Jobs waiting in the worker pool's queue.
    pub queue_depth: usize,
    /// Workers running a job.
    pub busy_workers: usize,
}

/// `/metrics` `readiness`: event-loop health, outside the accounting
/// invariant (wakeups and adoption failures are not requests).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Readiness {
    /// Blocked-`poll(2)` returns across all event loops (~0 while idle).
    pub poll_wakeups: u64,
    /// Poll wakeups whose readiness made no progress (subset of the above).
    pub spurious_wakeups: u64,
    /// Connections dropped because `set_nonblocking`/`set_nodelay` failed.
    pub adopt_errors: u64,
}

/// `/metrics` `sessions`: the exact-LRU session table.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Sessions {
    /// Sessions held now.
    pub live: usize,
    /// The table's quota (`max_sessions`).
    pub capacity: usize,
    /// Lookups that found their id.
    pub hits: u64,
    /// Lookups that missed their id.
    pub misses: u64,
    /// Sessions evicted by the session quota or the kernel budget (a
    /// `DELETE` is not one).
    pub evictions: u64,
    /// Heap bytes of the distinct kernels the live sessions hold
    /// (`LadderKernel::heap_bytes`, each shared kernel once).
    pub kernel_bytes: usize,
}

/// `/metrics` `engine`: the shared `ChipEngine`'s counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Engine {
    /// Tiles re-solved by power updates.
    pub solves: usize,
    /// Kernels built.
    pub factorizations: usize,
    /// Matrix-tier lookups that found a live kernel.
    pub scenario_hits: usize,
    /// Matrix-tier lookups that missed.
    pub scenario_misses: usize,
    /// Kernels alive now.
    pub matrix_entries: usize,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters; uptime starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            counters: Counters::default(),
            latency: [(); BUCKETS].map(|()| AtomicU64::new(0)),
        }
    }

    /// Records one answered request.
    pub fn record(&self, status: u16, elapsed: Duration) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.counters.ok_2xx,
            400..=499 => &self.counters.client_4xx,
            _ => &self.counters.server_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - u64::leading_zeros(ns.max(1)) as usize).min(BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed at admission (a 503 + `Retry-After`).
    pub fn record_shed(&self, elapsed: Duration) {
        self.record(503, elapsed);
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a blown request deadline (a 408, connection closed).
    pub fn record_timeout(&self, elapsed: Duration) {
        self.record(408, elapsed);
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a contained handler panic (a 500; the request itself is
    /// recorded via [`Metrics::record`] like any other response).
    pub fn note_panic(&self) {
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed `accept(2)` call: not a request, so neither
    /// `requests` nor the histogram moves.
    pub fn record_accept_error(&self) {
        self.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one blocked-`poll(2)` return on an event loop.
    pub fn record_poll_wakeup(&self) {
        self.counters.poll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a poll wakeup that reported readiness but yielded no
    /// progress on the following service pass.
    pub fn record_poll_spurious(&self) {
        self.counters.poll_spurious.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection dropped because adoption failed: not a
    /// request, so neither `requests` nor the histogram moves.
    pub fn record_adopt_error(&self) {
        self.counters.adopt_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The latency at quantile `q` (nearest-rank over the histogram,
    /// reported as the matched bucket's upper bound), or 0 before any
    /// request.
    fn latency_quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return upper_bound_ns(i);
            }
        }
        upper_bound_ns(BUCKETS - 1)
    }

    /// The request-side fields of the `/metrics` document; the blocks
    /// and gauges other owners fill are left at zero.
    #[must_use]
    pub fn snapshot(&self) -> MetricsDoc {
        let uptime_s = self.started.elapsed().as_secs_f64().max(1e-9);
        let c = &self.counters;
        let requests = c.requests.load(Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        let requests_per_sec = requests as f64 / uptime_s;
        MetricsDoc {
            uptime_s,
            requests,
            responses: Responses {
                ok_2xx: c.ok_2xx.load(Ordering::Relaxed),
                client_4xx: c.client_4xx.load(Ordering::Relaxed),
                server_5xx: c.server_5xx.load(Ordering::Relaxed),
            },
            requests_per_sec,
            latency_ns: LatencyNs {
                p50: self.latency_quantile_ns(0.50),
                p99: self.latency_quantile_ns(0.99),
                samples: self.latency.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            },
            overload: Overload {
                shed_503: c.shed.load(Ordering::Relaxed),
                timeouts_408: c.timeouts.load(Ordering::Relaxed),
                panics: c.panics.load(Ordering::Relaxed),
                accept_errors: c.accept_errors.load(Ordering::Relaxed),
                ..Overload::default()
            },
            readiness: Readiness {
                poll_wakeups: c.poll_wakeups.load(Ordering::Relaxed),
                spurious_wakeups: c.poll_spurious.load(Ordering::Relaxed),
                adopt_errors: c.adopt_errors.load(Ordering::Relaxed),
            },
            ..MetricsDoc::default()
        }
    }
}

/// The write-ahead journal's (`crate::persist`) on/off flag and
/// counters, shared between the journal writer and the server's
/// `/metrics` rendering.
///
/// Like `accept_errors` and the readiness counters, everything here
/// lives **outside** the request accounting invariant: journal records
/// are not requests, and a replayed record at boot answered nobody.
#[derive(Debug, Default)]
pub struct PersistStats {
    enabled: AtomicBool,
    records_written: AtomicU64,
    bytes_written: AtomicU64,
    records_replayed: AtomicU64,
    recovered_sessions: AtomicU64,
    compactions: AtomicU64,
    write_errors: AtomicU64,
    unsynced_records: AtomicU64,
}

/// A point-in-time view of [`PersistStats`]: the `/metrics`
/// `persistence` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PersistSnapshot {
    /// Whether the journal is open and has not failed: `false` with no
    /// state dir, after a failed open, and once a write error degraded it.
    pub enabled: bool,
    /// Records appended to the journal since startup.
    pub records_written: u64,
    /// Journal bytes appended since startup (frames, not payloads).
    pub bytes_written: u64,
    /// Records replayed from the journal at startup.
    pub records_replayed: u64,
    /// Sessions rebuilt from the journal at startup.
    pub recovered_sessions: u64,
    /// Snapshot+compaction passes completed.
    pub compactions: u64,
    /// Journal write/fsync failures. The first one disables persistence
    /// for the rest of the process (serving continues unjournaled).
    pub write_errors: u64,
    /// Records appended since the journal's last fsync.
    pub unsynced_records: u64,
}

impl PersistStats {
    /// Whether the journal is live: the one load every journal call
    /// makes before it touches anything else.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Marks the journal live (a successful open) or off (a degrade).
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Counts `n` records appended, totalling `bytes` on the wire.
    pub fn add_written(&self, n: u64, bytes: u64) {
        self.records_written.fetch_add(n, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts `n` records replayed at startup.
    pub fn add_replayed(&self, n: u64) {
        self.records_replayed.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` sessions rebuilt at startup.
    pub fn add_recovered_sessions(&self, n: u64) {
        self.recovered_sessions.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one completed snapshot+compaction pass.
    pub fn add_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one journal write/fsync failure.
    pub fn add_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one record appended but not yet fsynced.
    pub fn add_unsynced(&self) {
        self.unsynced_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an fsync: every appended record is durable.
    pub fn clear_unsynced(&self) {
        self.unsynced_records.store(0, Ordering::Relaxed);
    }

    /// Snapshots every counter at once.
    #[must_use]
    pub fn snapshot(&self) -> PersistSnapshot {
        PersistSnapshot {
            enabled: self.is_enabled(),
            records_written: self.records_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            records_replayed: self.records_replayed.load(Ordering::Relaxed),
            recovered_sessions: self.recovered_sessions.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            unsynced_records: self.unsynced_records.load(Ordering::Relaxed),
        }
    }
}

/// Upper bound of latency bucket `i` in nanoseconds.
fn upper_bound_ns(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_by_status_class() {
        let m = Metrics::new();
        m.record(200, Duration::from_nanos(100));
        m.record(201, Duration::from_nanos(100));
        m.record(404, Duration::from_nanos(100));
        m.record(500, Duration::from_nanos(100));
        let snap = m.snapshot();
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.responses.ok_2xx, 2);
        assert_eq!(snap.responses.client_4xx, 1);
        assert_eq!(snap.responses.server_5xx, 1);
        assert!(snap.requests_per_sec > 0.0);
    }

    #[test]
    fn quantiles_bracket_the_recorded_latencies() {
        let m = Metrics::new();
        // 99 fast requests (~1 µs) and one slow outlier (~1 ms).
        for _ in 0..99 {
            m.record(200, Duration::from_nanos(1_000));
        }
        m.record(200, Duration::from_nanos(1_000_000));
        let p50 = m.latency_quantile_ns(0.50);
        let p99 = m.latency_quantile_ns(0.99);
        assert!((1_000..=2_048).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 1_000, "p99 = {p99}");
        // The worst case lands in the ~1 ms bucket.
        let p100 = m.latency_quantile_ns(1.0);
        assert!((1_000_000..=2_097_152).contains(&p100), "max = {p100}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        assert_eq!(Metrics::new().latency_quantile_ns(0.99), 0);
    }

    #[test]
    fn overload_paths_attribute_without_double_counting() {
        let m = Metrics::new();
        let t = Duration::from_nanos(500);
        m.record(200, t);
        m.record_shed(t);
        m.record_timeout(t);
        m.record(500, t);
        m.note_panic();
        let snap = m.snapshot();
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.responses.ok_2xx, 1);
        assert_eq!(snap.responses.client_4xx, 1, "408");
        assert_eq!(snap.responses.server_5xx, 2, "503 + 500");
        assert_eq!(
            snap.requests,
            snap.responses.ok_2xx + snap.responses.client_4xx + snap.responses.server_5xx
        );
        assert_eq!(snap.latency_ns.samples, snap.requests);
        let o = &snap.overload;
        let attributions = (o.shed_503, o.timeouts_408, o.panics);
        assert_eq!(attributions, (1, 1, 1));
    }

    #[test]
    fn accept_errors_count_outside_the_request_invariant() {
        let m = Metrics::new();
        m.record_accept_error();
        m.record_accept_error();
        let snap = m.snapshot();
        assert_eq!(snap.overload.accept_errors, 2);
        assert_eq!(snap.requests, 0, "accept errors are not requests");
        assert_eq!(snap.latency_ns.samples, 0);
    }

    #[test]
    fn readiness_counters_stay_outside_the_request_invariant() {
        let m = Metrics::new();
        m.record_poll_wakeup();
        m.record_poll_wakeup();
        m.record_poll_spurious();
        m.record_adopt_error();
        let snap = m.snapshot();
        assert_eq!(snap.readiness.poll_wakeups, 2);
        assert_eq!(snap.readiness.spurious_wakeups, 1);
        assert_eq!(snap.readiness.adopt_errors, 1);
        assert_eq!(
            snap.requests, 0,
            "wakeups and adopt errors are not requests"
        );
        assert_eq!(snap.latency_ns.samples, 0);
    }

    #[test]
    fn top_bucket_upper_bound_saturates() {
        let m = Metrics::new();
        m.record(200, Duration::from_nanos(u64::MAX));
        assert_eq!(m.latency_quantile_ns(1.0), u64::MAX);
    }
}
