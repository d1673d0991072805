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
//! exactly one of the three status-class counters, and exactly one
//! histogram bucket — so `requests == ok_2xx + client_4xx + server_5xx`
//! and `requests == Σ histogram` at every instant. The overload/failure
//! attributions (`shed`, `rate_limited`, `timeouts`, `panics`) cross-cut
//! those classes: a shed request is *also* a 5xx, a deadline expiry is
//! *also* a 4xx — they never double-count the totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BUCKETS: usize = 64;

/// Shared request metrics; every method takes `&self`.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests: AtomicU64,
    ok_2xx: AtomicU64,
    client_4xx: AtomicU64,
    server_5xx: AtomicU64,
    /// 503s issued because the worker pool was saturated (load shed).
    shed: AtomicU64,
    /// 429s issued because one session's update queue flooded.
    rate_limited: AtomicU64,
    /// 408s issued because a request blew its deadline (slowloris,
    /// slow reader, stalled body).
    timeouts: AtomicU64,
    /// 500s issued because a handler panicked and was contained.
    panics: AtomicU64,
    /// `accept(2)` failures observed by the accept loop (fd exhaustion,
    /// aborted handshakes); each one also triggers a short backoff there.
    accept_errors: AtomicU64,
    /// Connections currently inside `handle_connection` (gauge).
    inflight: AtomicU64,
    /// Blocked-`poll(2)` returns across all event loops (the spin window
    /// never touches this). An idle server should hold this near zero —
    /// that is the whole point of blocking readiness, and the CI idle
    /// smoke pins it.
    poll_wakeups: AtomicU64,
    /// Poll wakeups that reported socket readiness but whose service
    /// pass then made no progress with an empty inbox (readiness races,
    /// e.g. a peer reset between `poll` and `read`). Persistent growth
    /// here means interest tracking is wrong.
    poll_spurious: AtomicU64,
    /// Connections dropped at adoption because `set_nonblocking` /
    /// `set_nodelay` failed — a socket left blocking would wedge its
    /// whole event loop on the next read, so adoption failure is fatal
    /// to the connection and counted here.
    adopt_errors: AtomicU64,
    latency: [AtomicU64; BUCKETS],
}

/// A point-in-time view of the counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Requests answered (including error responses).
    pub requests: u64,
    /// 2xx responses.
    pub ok_2xx: u64,
    /// 4xx responses.
    pub client_4xx: u64,
    /// 5xx responses.
    pub server_5xx: u64,
    /// Requests per second of uptime.
    pub requests_per_sec: f64,
    /// Median request latency in nanoseconds (bucket upper bound).
    pub p50_latency_ns: u64,
    /// 99th-percentile request latency in nanoseconds (bucket upper bound).
    pub p99_latency_ns: u64,
    /// Total histogram samples (equals `requests` by the accounting
    /// invariant; exported so clients can verify reconciliation).
    pub latency_samples: u64,
    /// 503s shed at admission (subset of `server_5xx`).
    pub shed: u64,
    /// 429s from per-session update floods (subset of `client_4xx`).
    pub rate_limited: u64,
    /// 408s from blown request deadlines (subset of `client_4xx`).
    pub timeouts: u64,
    /// Contained handler panics answered as 500 (subset of `server_5xx`).
    pub panics: u64,
    /// Accept-loop errors (not requests: nothing was parsed or answered,
    /// so these stay outside the accounting invariant).
    pub accept_errors: u64,
    /// Connections currently being handled (gauge, not a total).
    pub inflight: u64,
    /// Blocked-`poll(2)` returns across all event loops (outside the
    /// accounting invariant: wakeups are not requests).
    pub poll_wakeups: u64,
    /// Poll wakeups whose readiness produced no progress (subset of
    /// `poll_wakeups`).
    pub poll_spurious: u64,
    /// Connections dropped because adoption (`set_nonblocking` /
    /// `set_nodelay`) failed — no request was parsed, so these stay
    /// outside the accounting invariant, like `accept_errors`.
    pub adopt_errors: u64,
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
            requests: AtomicU64::new(0),
            ok_2xx: AtomicU64::new(0),
            client_4xx: AtomicU64::new(0),
            server_5xx: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            poll_wakeups: AtomicU64::new(0),
            poll_spurious: AtomicU64::new(0),
            adopt_errors: AtomicU64::new(0),
            latency: [(); BUCKETS].map(|()| AtomicU64::new(0)),
        }
    }

    /// Records one answered request.
    pub fn record(&self, status: u16, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.ok_2xx,
            400..=499 => &self.client_4xx,
            _ => &self.server_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - u64::leading_zeros(ns.max(1)) as usize).min(BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed at admission (a 503 + `Retry-After`).
    pub fn record_shed(&self, elapsed: Duration) {
        self.record(503, elapsed);
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a per-session flood rejection (a 429 + `Retry-After`).
    pub fn record_rate_limited(&self, elapsed: Duration) {
        self.record(429, elapsed);
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a blown request deadline (a 408, connection closed).
    pub fn record_timeout(&self, elapsed: Duration) {
        self.record(408, elapsed);
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a contained handler panic (a 500; the request itself is
    /// recorded via [`Metrics::record`] like any other response).
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed `accept(2)` call. Accept errors are not
    /// requests — no response was produced — so this touches neither
    /// `requests` nor the histogram.
    pub fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one blocked-`poll(2)` return on an event loop.
    pub fn record_poll_wakeup(&self) {
        self.poll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a poll wakeup that reported readiness but yielded no
    /// progress on the following service pass.
    pub fn record_poll_spurious(&self) {
        self.poll_spurious.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection dropped because adoption failed. Like
    /// accept errors, adoption failures are not requests — nothing was
    /// parsed or answered — so this touches neither `requests` nor the
    /// histogram.
    pub fn record_adopt_error(&self) {
        self.adopt_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one connection entering service; the returned guard
    /// decrements the gauge on drop (panic-safe: the worker's
    /// `catch_unwind` runs destructors).
    #[must_use]
    pub fn inflight_guard(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { metrics: self }
    }

    /// The latency at quantile `q` (nearest-rank over the histogram,
    /// reported as the matched bucket's upper bound), or 0 before any
    /// request.
    #[must_use]
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
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

    /// Snapshots every counter at once.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime_s = self.started.elapsed().as_secs_f64().max(1e-9);
        let requests = self.requests.load(Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        let requests_per_sec = requests as f64 / uptime_s;
        MetricsSnapshot {
            uptime_s,
            requests,
            ok_2xx: self.ok_2xx.load(Ordering::Relaxed),
            client_4xx: self.client_4xx.load(Ordering::Relaxed),
            server_5xx: self.server_5xx.load(Ordering::Relaxed),
            requests_per_sec,
            p50_latency_ns: self.latency_quantile_ns(0.50),
            p99_latency_ns: self.latency_quantile_ns(0.99),
            latency_samples: self.latency.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            shed: self.shed.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            poll_spurious: self.poll_spurious.load(Ordering::Relaxed),
            adopt_errors: self.adopt_errors.load(Ordering::Relaxed),
        }
    }
}

/// Counters for the write-ahead journal (`crate::persist`), shared
/// between the journal writer and the server's `/metrics` rendering.
///
/// Like `accept_errors` and the readiness counters, everything here
/// lives **outside** the request accounting invariant: journal records
/// are not requests, and a replayed record at boot answered nobody.
#[derive(Debug, Default)]
pub struct PersistStats {
    records_written: AtomicU64,
    bytes_written: AtomicU64,
    records_replayed: AtomicU64,
    recovered_sessions: AtomicU64,
    compactions: AtomicU64,
    write_errors: AtomicU64,
    unsynced_records: AtomicU64,
}

/// A point-in-time view of [`PersistStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistSnapshot {
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

/// Decrements the in-flight gauge when the connection finishes (however
/// it finishes).
#[derive(Debug)]
pub struct InflightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
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
        assert_eq!(snap.ok_2xx, 2);
        assert_eq!(snap.client_4xx, 1);
        assert_eq!(snap.server_5xx, 1);
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
        m.record_rate_limited(t);
        m.record_timeout(t);
        m.record(500, t);
        m.note_panic();
        let snap = m.snapshot();
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.ok_2xx, 1);
        assert_eq!(snap.client_4xx, 2, "429 + 408");
        assert_eq!(snap.server_5xx, 2, "503 + 500");
        assert_eq!(
            snap.requests,
            snap.ok_2xx + snap.client_4xx + snap.server_5xx
        );
        assert_eq!(snap.latency_samples, snap.requests);
        assert_eq!(
            (snap.shed, snap.rate_limited, snap.timeouts, snap.panics),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn accept_errors_count_outside_the_request_invariant() {
        let m = Metrics::new();
        m.record_accept_error();
        m.record_accept_error();
        let snap = m.snapshot();
        assert_eq!(snap.accept_errors, 2);
        assert_eq!(snap.requests, 0, "accept errors are not requests");
        assert_eq!(snap.latency_samples, 0);
    }

    #[test]
    fn readiness_counters_stay_outside_the_request_invariant() {
        let m = Metrics::new();
        m.record_poll_wakeup();
        m.record_poll_wakeup();
        m.record_poll_spurious();
        m.record_adopt_error();
        let snap = m.snapshot();
        assert_eq!(snap.poll_wakeups, 2);
        assert_eq!(snap.poll_spurious, 1);
        assert_eq!(snap.adopt_errors, 1);
        assert_eq!(
            snap.requests, 0,
            "wakeups and adopt errors are not requests"
        );
        assert_eq!(snap.latency_samples, 0);
    }

    #[test]
    fn top_bucket_upper_bound_saturates() {
        let m = Metrics::new();
        m.record(200, Duration::from_nanos(u64::MAX));
        assert_eq!(m.latency_quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn inflight_gauge_tracks_guards_even_across_panics() {
        let m = Metrics::new();
        assert_eq!(m.snapshot().inflight, 0);
        {
            let _a = m.inflight_guard();
            let _b = m.inflight_guard();
            assert_eq!(m.snapshot().inflight, 2);
        }
        assert_eq!(m.snapshot().inflight, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.inflight_guard();
            panic!("unwind through the guard");
        }));
        assert!(caught.is_err());
        assert_eq!(m.snapshot().inflight, 0, "guard drops during unwind");
    }
}
