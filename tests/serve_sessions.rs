//! Integration suite for `ttsv-serve` serving semantics.
//!
//! * N concurrent clients over a real `TcpListener` on an ephemeral
//!   port, replaying interleaved sessions: every response body must be
//!   **bitwise identical** to evaluating the same floorplan directly
//!   through a fresh `ChipEngine` — at 1, 2, and N server workers.
//! * Session quotas: the exact-LRU table evicts the least-recently-used
//!   session past `max_sessions` (404 afterwards, counted in
//!   `/metrics`), and oversized registrations bounce with 413.
//! * An LRU property test against a naive reference model (eviction
//!   order, counter bookkeeping, capacity enforcement).
//! * Each session owns its kernels: a second session of one via density
//!   factorizes its own and answers byte-identically.
//! * Kernels live with their sessions: an evicted session's kernel is
//!   freed, so `/metrics` `sessions.kernel_bytes` is exactly the live
//!   sessions' kernels. The
//!   kernel budget is a session-table rule: a session heavier than the
//!   budget alone bounces with 413 before it is evaluated, and a
//!   registration past it evicts least-recently-used sessions until it
//!   fits.

pub mod common;

use proptest::prelude::*;
use ttsv::serve::client::{trace_power_body, trace_register_body, Client};
use ttsv::serve::lru::LruCache;
use ttsv::serve::protocol::{apply_delta, parse_power_update, parse_register};
use ttsv::serve::server::{Server, ServerConfig};
use ttsv_chip::ChipEngine;

use common::{direct_session, field, kernel_bytes, metrics, with_densities, GRID, ROUNDS};

const CLIENTS: usize = 4;

/// What one client's session produced: the register report plus one
/// report per power round, as raw response bodies.
fn drive_session(addr: &str, session: usize) -> Vec<String> {
    let mut client = Client::connect(addr).expect("connect");
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, session))
        .expect("register");
    assert_eq!(status, 201, "{body}");
    let (id_part, report) = body
        .split_once(",\"report\":")
        .expect("register response envelope");
    let id: u64 = id_part
        .strip_prefix("{\"session\":")
        .expect("session id field")
        .parse()
        .expect("numeric session id");
    let mut reports = vec![report
        .strip_suffix('}')
        .expect("envelope close")
        .to_string()];
    for round in 0..ROUNDS {
        // `?full=1` opts out of delta responses so every body compares
        // bitwise against direct engine evaluation.
        let (status, body) = client
            .request(
                "POST",
                &format!("/sessions/{id}/power?full=1"),
                &trace_power_body(GRID, session, round),
            )
            .expect("power update");
        assert_eq!(status, 200, "{body}");
        reports.push(body);
    }
    reports
}

#[test]
fn concurrent_sessions_match_direct_evaluation_at_any_worker_count() {
    let expected: Vec<Vec<String>> = (0..CLIENTS).map(direct_session).collect();
    for workers in [1, 2, CLIENTS] {
        let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(workers))
            .expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|s| {
                let addr = addr.clone();
                std::thread::spawn(move || drive_session(&addr, s))
            })
            .collect();
        for (s, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("client thread");
            assert_eq!(
                got, expected[s],
                "session {s} responses diverged from direct evaluation at {workers} workers"
            );
        }
        server.shutdown();
    }
}

/// Default power responses are deltas: only the tiles whose ΔT changed,
/// plus updated summary statistics. Applying each delta to the previous
/// full report client-side must reproduce the full `ChipReport` JSON
/// bitwise — and the delta must actually be smaller than the full
/// report for a two-tile update.
#[test]
fn delta_responses_reconcile_bitwise_with_full_reports() {
    let expected = direct_session(0);
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(2))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "{body}");
    let mut full = expected[0].clone();

    for round in 0..ROUNDS {
        let (status, delta) = client
            .request(
                "POST",
                "/sessions/1/power",
                &trace_power_body(GRID, 0, round),
            )
            .expect("power update");
        assert_eq!(status, 200, "{delta}");
        assert!(
            delta.starts_with("{\"delta\":true,"),
            "default responses are deltas: {delta}"
        );
        assert!(
            delta.len() < expected[round + 1].len(),
            "a two-tile delta ({}B) must be smaller than the full report ({}B)",
            delta.len(),
            expected[round + 1].len()
        );
        full = apply_delta(&full, &delta).expect("delta applies cleanly");
        assert_eq!(
            full,
            expected[round + 1],
            "round {round}: applying the delta must rebuild the full report bitwise"
        );
    }
    // The server's own full view agrees with the client's rebuilt one.
    let (status, body) = client.request("GET", "/sessions/1", "").expect("read");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, full,
        "server full report matches the delta-rebuilt one"
    );
    server.shutdown();
}

/// The multiplexed path at 32 concurrent connections: responses stay
/// bitwise deterministic no matter how many workers or event loops
/// serve them, since every body compares against the same
/// direct-evaluation ground truth.
#[test]
fn thirty_two_concurrent_connections_stay_deterministic() {
    const FANOUT: usize = 32;
    let expected: Vec<Vec<String>> = (0..FANOUT).map(direct_session).collect();
    for (workers, event_loops) in [(1, 1), (2, 2), (4, 3)] {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(workers)
                .with_event_loops(event_loops)
                .with_max_connections(2 * FANOUT),
        )
        .expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..FANOUT)
            .map(|s| {
                let addr = addr.clone();
                std::thread::spawn(move || drive_session(&addr, s))
            })
            .collect();
        for (s, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("client thread");
            assert_eq!(
                got, expected[s],
                "session {s} diverged at {workers} workers / {event_loops} loops"
            );
        }
        server.shutdown();
    }
}

/// `DELETE /sessions/{id}` answers `204 No Content` with an empty body,
/// and the id is gone for good: a later read, update, or second delete
/// against it is a clean 404.
#[test]
fn delete_answers_204_and_the_session_stays_gone() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(1))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let (status, _) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201);
    let (status, body) = client.request("DELETE", "/sessions/1", "").expect("delete");
    assert_eq!(status, 204, "{body}");
    assert!(body.is_empty(), "204 carries no body, got {body:?}");
    for (method, target, body) in [
        ("GET", "/sessions/1", String::new()),
        ("POST", "/sessions/1/power", trace_power_body(GRID, 0, 0)),
        ("DELETE", "/sessions/1", String::new()),
    ] {
        let (status, body) = client.request(method, target, &body).expect("request");
        assert_eq!(status, 404, "{method} {target} after delete: {body}");
    }
    server.shutdown();
}

#[test]
fn lru_quota_evicts_oldest_session_and_metrics_report_it() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(2)
            .with_max_sessions(2)
            .with_max_tiles(GRID * GRID),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    for s in 0..3 {
        let (status, _) = client
            .request("POST", "/sessions", &trace_register_body(GRID, s))
            .expect("register");
        assert_eq!(status, 201);
    }
    // Session 1 (the first id) was LRU-evicted by the third registration.
    let (status, body) = client
        .request("POST", "/sessions/1/power", &trace_power_body(GRID, 0, 0))
        .expect("power update");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("expired"), "{body}");
    // Sessions 2 and 3 still serve.
    for id in [2, 3] {
        let (status, _) = client
            .request("GET", &format!("/sessions/{id}"), "")
            .expect("read session");
        assert_eq!(status, 200);
    }
    // Oversized registration bounces on the tile quota.
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID + 1, 0))
        .expect("register");
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("quota"), "{body}");

    let (status, metrics) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let doc = serde::json::from_str(&metrics).expect("metrics endpoint emits valid JSON");
    let sessions = doc.get("sessions").expect("sessions block");
    assert_eq!(sessions.get("live").and_then(|v| v.as_usize()), Some(2));
    assert_eq!(sessions.get("capacity").and_then(|v| v.as_usize()), Some(2));
    assert_eq!(
        sessions.get("evictions").and_then(|v| v.as_usize()),
        Some(1)
    );
    let engine = doc.get("engine").expect("engine block");
    assert!(engine
        .get("factorizations")
        .and_then(|v| v.as_usize())
        .is_some());
    assert!(doc.get("latency_ns").and_then(|l| l.get("p99")).is_some());
    server.shutdown();
}

/// The quota counts live sessions across the whole table, and a
/// registration past it evicts the least-recently-used one: a deleted
/// session frees its slot without an eviction, and a read promotes its
/// session past an older registration.
#[test]
fn quota_counts_live_sessions_and_evicts_the_least_recently_used() {
    let request = |client: &mut Client, method: &str, target: &str, body: &str| {
        client.request(method, target, body).expect("request")
    };
    for read_first in [false, true] {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(1)
                .with_max_sessions(2)
                .with_max_tiles(GRID * GRID),
        )
        .expect("bind ephemeral port");
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        for s in 0..2 {
            let register = trace_register_body(GRID, s);
            assert_eq!(request(&mut client, "POST", "/sessions", &register).0, 201);
        }
        if read_first {
            // Reading 1 makes 2 the least-recently-used session.
            assert_eq!(request(&mut client, "GET", "/sessions/1", "").0, 200);
        } else {
            // Deleting 2 leaves one live session, so no eviction is due.
            assert_eq!(request(&mut client, "DELETE", "/sessions/2", "").0, 204);
        }
        let register = trace_register_body(GRID, 2);
        assert_eq!(request(&mut client, "POST", "/sessions", &register).0, 201);
        let (status, body) = request(&mut client, "GET", "/sessions/2", "");
        assert_eq!(status, 404, "read_first={read_first}: {body}");
        for id in [1, 3] {
            let (status, body) = request(&mut client, "GET", &format!("/sessions/{id}"), "");
            assert_eq!(status, 200, "read_first={read_first}, session {id}: {body}");
        }
        let (_, metrics) = request(&mut client, "GET", "/metrics", "");
        let doc = serde::json::from_str(&metrics).expect("metrics endpoint emits valid JSON");
        let sessions = doc.get("sessions").expect("sessions block");
        let count = |key: &str| sessions.get(key).and_then(|v| v.as_usize());
        assert_eq!(
            (count("live"), count("evictions")),
            (Some(2), Some(usize::from(read_first))),
            "read_first={read_first}"
        );
        server.shutdown();
    }
}

/// Each session owns its kernels: a second session with the first one's
/// via density factorizes its own, both answer byte-identically to the
/// direct evaluation, and each `DELETE` frees one session's kernel bytes.
#[test]
fn tiny_engine_caches_change_cost_never_results() {
    let expected = direct_session(0);
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(1))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(drive_session(&addr, 0), expected);
    let factored = field(&metrics(&mut client), "engine", "factorizations");
    assert_eq!(
        drive_session(&addr, 0),
        expected,
        "a second session changed a response"
    );
    let doc = metrics(&mut client);
    assert_eq!(
        field(&doc, "engine", "factorizations"),
        2 * factored,
        "the second session factorizes its own kernel"
    );
    let one = kernel_bytes(&trace_register_body(GRID, 0));
    assert_eq!(field(&doc, "sessions", "kernel_bytes"), 2 * one);
    for (id, sessions) in [(1, 1), (2, 0)] {
        let (status, body) = client
            .request("DELETE", &format!("/sessions/{id}"), "")
            .expect("delete");
        assert_eq!(status, 204, "{body}");
        let doc = metrics(&mut client);
        assert_eq!(
            field(&doc, "sessions", "kernel_bytes"),
            sessions * one,
            "after deleting {id}"
        );
    }
    server.shutdown();
}

/// Registering twice the session quota, each session with a via density
/// no other uses, leaves only the live sessions' kernels: an evicted
/// session's kernel goes with it. Every live session still answers a
/// two-tile update bitwise equal to a fresh evaluation.
#[test]
fn evicted_sessions_free_their_kernels() {
    const MAX_SESSIONS: usize = 4;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_max_sessions(MAX_SESSIONS),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let ids: Vec<u64> = (0..2 * MAX_SESSIONS)
        .map(|s| {
            let (status, body) = client
                .request("POST", "/sessions", &trace_register_body(GRID, s))
                .expect("register");
            assert_eq!(status, 201, "{body}");
            body.strip_prefix("{\"session\":")
                .and_then(|rest| rest.split(',').next())
                .and_then(|id| id.parse().ok())
                .expect("session id in register response")
        })
        .collect();

    let doc = metrics(&mut client);
    assert_eq!(field(&doc, "sessions", "live"), MAX_SESSIONS);
    let live: Vec<usize> = (MAX_SESSIONS..2 * MAX_SESSIONS)
        .map(|s| kernel_bytes(&trace_register_body(GRID, s)))
        .collect();
    let held = field(&doc, "sessions", "kernel_bytes");
    assert_eq!(held, live.iter().sum::<usize>());
    assert!(
        held <= MAX_SESSIONS * live.iter().max().expect("live sessions"),
        "{held} kernel bytes for {MAX_SESSIONS} live one-density sessions"
    );

    for (s, id) in ids.iter().enumerate().skip(MAX_SESSIONS) {
        let (status, body) = client
            .request(
                "POST",
                &format!("/sessions/{id}/power?full=1"),
                &trace_power_body(GRID, s, 0),
            )
            .expect("power update");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, direct_session(s)[1], "session {id}");
    }
    server.shutdown();
}

/// A server whose kernel budget is 4.
fn budget_4_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            matrix_cache_cap: 4,
            ..ServerConfig::default().with_workers(1)
        },
    )
    .expect("bind ephemeral port")
}

/// A session weighs one kernel per distinct via density. A 4×4 session
/// with 16 densities weighs more than a budget of 4 on its own: it is
/// answered 413 and neither journaled nor published, and the session
/// already live keeps serving.
#[test]
fn a_registration_over_the_kernel_budget_is_answered_413() {
    let server = budget_4_server();
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let register = trace_register_body(GRID, 0);
    assert_eq!(
        client
            .request("POST", "/sessions", &register)
            .expect("register")
            .0,
        201
    );
    let before = metrics(&mut client);
    let (status, body) = client
        .request("POST", "/sessions", &with_densities(&register, GRID * GRID))
        .expect("register");
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("kernel budget"), "{body}");
    let after = metrics(&mut client);
    for (block, name) in [("sessions", "live"), ("persistence", "records_written")] {
        assert_eq!(
            field(&after, block, name),
            field(&before, block, name),
            "{block}.{name}"
        );
    }
    assert_eq!(field(&after, "sessions", "live"), 1);
    let (status, body) = client.request("GET", "/sessions/1", "").expect("read");
    assert_eq!((status, body), (200, direct_session(0)[0].clone()));
    server.shutdown();
}

/// An over-budget registration is weighed from its parsed plan, before
/// it is evaluated: its 413 costs no factorization.
#[test]
fn an_over_budget_registration_is_refused_before_it_is_evaluated() {
    let server = budget_4_server();
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let before = field(&metrics(&mut client), "engine", "factorizations");
    let register = with_densities(&trace_register_body(GRID, 0), GRID * GRID);
    let (status, body) = client
        .request("POST", "/sessions", &register)
        .expect("register");
    assert_eq!(status, 413, "{body}");
    assert_eq!(
        field(&metrics(&mut client), "engine", "factorizations"),
        before,
        "the refused plan was factorized"
    );
    server.shutdown();
}

/// A registration that pushes the live sessions' kernels past the budget
/// evicts least-recently-used sessions until it fits: the evicted ids
/// answer 404, the survivors answer bitwise what a fresh evaluation
/// gives (a power update included, which factorizes nothing), and
/// `/metrics` counts the evictions and the bytes of exactly the 4
/// kernels the survivors hold.
#[test]
fn a_registration_past_the_kernel_budget_evicts_until_it_fits() {
    let server = budget_4_server();
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for s in 0..3 {
        let (status, body) = client
            .request("POST", "/sessions", &trace_register_body(GRID, s))
            .expect("register");
        assert_eq!(status, 201, "{body}");
    }
    // Reading session 1 leaves 2 and 3 the least recently used.
    assert_eq!(
        client.request("GET", "/sessions/1", "").expect("read").0,
        200
    );
    // Three kernels beside the three live ones: 2 and 3 must go.
    let register = with_densities(&trace_register_body(GRID, 3), 3);
    let (status, body) = client
        .request("POST", "/sessions", &register)
        .expect("register");
    assert!(
        status == 201 && body.starts_with("{\"session\":4,"),
        "{body}"
    );
    for id in [2, 3] {
        let (status, body) = client
            .request("GET", &format!("/sessions/{id}"), "")
            .expect("read");
        assert_eq!(status, 404, "session {id}: {body}");
    }
    let (status, body) = client.request("GET", "/sessions/1", "").expect("read");
    assert_eq!((status, body), (200, direct_session(0)[0].clone()));

    let mut mirror = parse_register(register.as_bytes()).expect("register");
    let update = trace_power_body(GRID, 3, 0);
    let (plane, map) = parse_power_update(update.as_bytes(), &mirror.plan).expect("update");
    mirror.plan.update_power_map(plane, map).expect("same grid");
    let factored = field(&metrics(&mut client), "engine", "factorizations");
    let (status, body) = client
        .request("POST", "/sessions/4/power?full=1", &update)
        .expect("power update");
    assert_eq!(status, 200, "{body}");
    let fresh = ChipEngine::new()
        .with_workers(1)
        .evaluate_factored(&mirror.plan, &mirror.model)
        .expect("solvable");
    assert_eq!(body, fresh.to_json());

    let doc = metrics(&mut client);
    assert_eq!(field(&doc, "engine", "factorizations"), factored);
    assert_eq!(field(&doc, "sessions", "live"), 2);
    assert_eq!(field(&doc, "sessions", "evictions"), 2);
    let survivors = kernel_bytes(&trace_register_body(GRID, 0)) + kernel_bytes(&register);
    assert_eq!(field(&doc, "sessions", "kernel_bytes"), survivors);
    server.shutdown();
}

/// A naive reference LRU: a Vec in recency order, recomputed the
/// obvious way.
#[derive(Default)]
struct ModelLru {
    capacity: usize,
    entries: Vec<(u8, u32)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelLru {
    fn get(&mut self, key: u8) -> Option<u32> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            let entry = self.entries.remove(i);
            self.entries.push(entry);
            Some(self.entries.last().expect("just pushed").1)
        } else {
            self.misses += 1;
            None
        }
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<(u8, u32)> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push((key, value));
        if self.entries.len() > self.capacity {
            self.evictions += 1;
            Some(self.entries.remove(0))
        } else {
            None
        }
    }

    fn remove(&mut self, key: u8) -> Option<u32> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.remove(i).1)
    }

    fn pop_lru(&mut self) -> Option<(u8, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        self.evictions += 1;
        Some(self.entries.remove(0))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The serving LRU agrees with the naive model on every observable:
    // lookups, eviction victims, recency order, counters, and length.
    #[test]
    fn lru_matches_the_reference_model(
        capacity in 1usize..6,
        ops in prop::collection::vec((0usize..4, 0u8..8, 0u32..100), 1..60),
    ) {
        let mut real = LruCache::new(capacity);
        let mut model = ModelLru { capacity, ..ModelLru::default() };
        for (op, key, value) in ops {
            match op {
                0 => prop_assert_eq!(real.get(&key).copied(), model.get(key)),
                1 => prop_assert_eq!(real.insert(key, value), model.insert(key, value)),
                2 => prop_assert_eq!(real.remove(&key), model.remove(key)),
                _ => prop_assert_eq!(real.pop_lru(), model.pop_lru()),
            }
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert!(real.len() <= capacity, "capacity violated");
            let real_order: Vec<u8> = real.iter().map(|(k, _)| *k).collect();
            let model_order: Vec<u8> = model.entries.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(real_order, model_order);
            prop_assert_eq!(
                (real.hits(), real.misses(), real.evictions()),
                (model.hits, model.misses, model.evictions)
            );
        }
    }
}
