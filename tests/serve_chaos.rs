//! Chaos suite for `ttsv-serve`: seeded fault storms, overload control,
//! and the accounting invariants that must survive them.
//!
//! Everything here is deterministic — fault schedules come from
//! [`ServerFaults`] plans and seeded [`FaultConfig`] streams, so a
//! failure reproduces bit-for-bit. The pinned invariants:
//!
//! * **Bitwise transparency** — a *lossless* client-side fault storm
//!   (short reads/writes, delays; never a lost byte) changes nothing:
//!   every response is byte-identical to direct engine evaluation, and
//!   `/metrics` totals reconcile exactly with the requests issued.
//! * **Panic containment** — an injected handler panic (fired while the
//!   per-session lock is held, so the lock is genuinely poisoned)
//!   answers a typed 500, and every later request on every session is
//!   byte-identical to a fault-free run.
//! * **Rollback** — a power update whose evaluation fails (injected
//!   engine error or contained panic) leaves the session bitwise
//!   unchanged. Injected faults fire before the engine runs; an update
//!   itself computes every changed tile before it writes anything.
//! * **Overload control** — connections past the cap are shed with
//!   `503` + `Retry-After` promptly, and a slowloris half-request is
//!   answered `408` at the deadline. Both are counted.
//! * **Survival** — a *lossy* storm (hard connection errors + injected
//!   server panics and engine faults) never takes the server down,
//!   `/metrics` stays internally consistent, and shutdown mid-storm
//!   drains cleanly.

pub mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use ttsv::serve::client::{trace_power_body, trace_register_body, Client, RetryPolicy};
use ttsv::serve::faults::{FaultConfig, ServerFaults};
use ttsv::serve::metrics::Metrics;
use ttsv::serve::server::{Server, ServerConfig, RETRY_AFTER_SECS};

use common::{direct_session, field, GRID, ROUNDS};

/// Reads `/metrics` through a clean client and parses it.
fn fetch_metrics(addr: &str) -> serde::json::Value {
    let mut client = Client::connect(addr).expect("connect for metrics");
    let (status, body) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200, "{body}");
    serde::json::from_str(&body).expect("metrics endpoint emits valid JSON")
}

/// Asserts the accounting invariant on a quiescent server: answered
/// requests equal the status-class sum and the histogram sample count,
/// and each overload attribution is bounded by its status class.
fn assert_metrics_reconcile(doc: &serde::json::Value) {
    let requests = doc
        .get("requests")
        .and_then(serde::json::Value::as_usize)
        .expect("requests field");
    let classes = field(doc, "responses", "ok_2xx")
        + field(doc, "responses", "client_4xx")
        + field(doc, "responses", "server_5xx");
    assert_eq!(requests, classes, "status classes must sum to requests");
    assert_eq!(
        requests,
        field(doc, "latency_ns", "samples"),
        "every answered request lands exactly one histogram sample"
    );
    assert!(field(doc, "overload", "shed_503") <= field(doc, "responses", "server_5xx"));
    assert!(field(doc, "overload", "panics") <= field(doc, "responses", "server_5xx"));
    assert!(field(doc, "overload", "timeouts_408") <= field(doc, "responses", "client_4xx"));
}

/// Every leaf's dotted path (`"overload.inflight"`), in document order.
fn leaf_paths(doc: &serde::json::Value, prefix: &str) -> Vec<String> {
    match doc {
        serde::json::Value::Object(members) => members
            .iter()
            .flat_map(|(key, value)| leaf_paths(value, &format!("{prefix}{key}.")))
            .collect(),
        _ => vec![prefix.trim_end_matches('.').to_string()],
    }
}

/// The `/metrics` document has exactly the keys, nesting and order that
/// `docs/PROTOCOL.md` lists, and `overload.inflight` counts the
/// connection the asking client holds.
#[test]
fn metrics_document_matches_the_protocol_listing() {
    let listing = include_str!("../docs/PROTOCOL.md")
        .split("### `GET /metrics`")
        .nth(1)
        .and_then(|section| section.split("```json\n").nth(1))
        .and_then(|block| block.split("```").next())
        .expect("PROTOCOL.md lists the /metrics document in a json block");
    let documented = serde::json::from_str(listing).expect("the listing is valid JSON");
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(1))
        .expect("bind ephemeral port");
    let doc = fetch_metrics(&server.addr().to_string());
    assert_eq!(
        leaf_paths(&doc, ""),
        leaf_paths(&documented, ""),
        "/metrics keys drifted from PROTOCOL.md"
    );
    assert!(
        field(&doc, "overload", "inflight") >= 1,
        "the asking client's own connection is live"
    );

    // `sessions.kernel_bytes` follows the live sessions' kernels: two
    // sessions of one via density share one serving kernel, counted once
    // and in at most 4 KB, and deleting both frees it.
    let addr = server.addr().to_string();
    assert_eq!(field(&doc, "sessions", "kernel_bytes"), 0);
    let mut client = Client::connect(&addr).expect("connect");
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (status, body) = client
            .request("POST", "/sessions", &trace_register_body(GRID, 1))
            .expect("register");
        assert_eq!(status, 201, "{body}");
        let id = body
            .strip_prefix("{\"session\":")
            .and_then(|rest| rest.split(',').next())
            .expect("session id");
        ids.push(id.to_string());
    }
    let bytes = field(&fetch_metrics(&addr), "sessions", "kernel_bytes");
    assert!((1..=4_096).contains(&bytes), "{bytes} bytes");
    for id in &ids {
        let (status, body) = client
            .request("DELETE", &format!("/sessions/{id}"), "")
            .expect("delete");
        assert_eq!(status, 204, "{body}");
    }
    assert_eq!(field(&fetch_metrics(&addr), "sessions", "kernel_bytes"), 0);
    server.shutdown();
}

/// One session replayed through a (possibly fault-wrapped) client:
/// the register report plus one report per power round, as raw bodies.
/// Every status must be clean — lossless faults may not change behavior.
fn drive_session(addr: &str, session: usize, chaos_seed: Option<u64>) -> Vec<String> {
    let mut client = match chaos_seed {
        Some(seed) => Client::connect_with_faults(addr, FaultConfig::lossless(), seed)
            .expect("connect with faults"),
        None => Client::connect(addr).expect("connect"),
    };
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

/// Lossless transport storm: short reads, short writes, and delays on
/// every client — yet each response is byte-identical to direct engine
/// evaluation, and the server's totals reconcile exactly with the
/// requests issued. Short writes are precisely what exercises
/// partial-read wakeups.
#[test]
fn lossless_fault_storm_is_bitwise_transparent_and_metrics_reconcile() {
    const CLIENTS: usize = 3;
    let expected: Vec<Vec<String>> = (0..CLIENTS).map(direct_session).collect();
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(CLIENTS))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|s| {
            let addr = addr.clone();
            std::thread::spawn(move || drive_session(&addr, s, Some(0xC4A05 + s as u64)))
        })
        .collect();
    for (s, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("chaos client thread");
        assert_eq!(
            got, expected[s],
            "session {s} responses diverged under a lossless fault storm"
        );
    }
    let doc = fetch_metrics(&addr);
    let issued = CLIENTS * (1 + ROUNDS);
    assert_eq!(
        doc.get("requests").and_then(serde::json::Value::as_usize),
        Some(issued),
        "every issued request must be answered and counted exactly once"
    );
    assert_eq!(field(&doc, "responses", "ok_2xx"), issued);
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// One injected panic fires mid-evaluation of a power update — while the
/// per-session lock is held, so the lock is genuinely poisoned. The
/// request answers a typed 500, and every later request (same session
/// and a brand-new one) is byte-identical to a fault-free run.
#[test]
fn injected_panic_answers_500_then_serves_bitwise_correct_reports() {
    // Ordinal 1 is the registration; ordinal 2 (the round-0 power
    // update) panics under the session lock, before its tiles re-solve.
    let faults = Arc::new(ServerFaults::new().panic_on(2));
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(2)
            .with_faults(Arc::clone(&faults)),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let expected = direct_session(0);

    let mut client = Client::connect(&addr).expect("connect");
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "{body}");
    let (status, body) = client
        .request("POST", "/sessions/1/power", &trace_power_body(GRID, 0, 0))
        .expect("power update survives the contained panic");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "typed panic response: {body}");

    // The panicked update left the session bitwise at its registered
    // state; replaying round 0
    // applies the same absolute watt values and every report from here
    // on must match the fault-free ground truth.
    for round in 0..ROUNDS {
        let (status, body) = client
            .request(
                "POST",
                "/sessions/1/power?full=1",
                &trace_power_body(GRID, 0, round),
            )
            .expect("post-panic power update");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body,
            expected[round + 1],
            "round {round} diverged after the contained panic"
        );
    }
    // The poisoned session still reads, and new sessions still register.
    let (status, body) = client.request("GET", "/sessions/1", "").expect("read");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected[ROUNDS]);
    let got = drive_session(&addr, 1, None);
    assert_eq!(got, direct_session(1), "new session after the panic");

    let doc = fetch_metrics(&addr);
    assert_eq!(field(&doc, "overload", "panics"), 1);
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// A power update whose evaluation fails must leave the session exactly
/// as it was: the next read returns the held pre-update report bitwise,
/// and a clean retry evaluates the same state a fault-free server
/// would.
#[test]
fn failed_update_rolls_back_session_state() {
    // Ordinal 1 registers, ordinal 2 is the baseline read; ordinal 3
    // (the first power update) fails with an injected engine error
    // after its body parsed, before its tiles re-solve.
    let faults = Arc::new(ServerFaults::new().engine_error_on(3));
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2).with_faults(faults),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let expected = direct_session(0);

    let mut client = Client::connect(&addr).expect("connect");
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "{body}");
    let (status, before) = client.request("GET", "/sessions/1", "").expect("read");
    assert_eq!(status, 200, "{before}");
    assert_eq!(before, expected[0], "baseline read matches ground truth");

    let (status, body) = client
        .request("POST", "/sessions/1/power", &trace_power_body(GRID, 0, 0))
        .expect("failed update is still answered");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("injected engine fault"), "{body}");

    // The 500'd update must not have mutated the plan: the next read is
    // bitwise identical to the pre-update report.
    let (status, after) = client.request("GET", "/sessions/1", "").expect("re-read");
    assert_eq!(status, 200, "{after}");
    assert_eq!(
        after, before,
        "a failed update must leave the session bitwise unchanged"
    );

    // A clean retry now evaluates the same pre-update state and lands
    // the fault-free round-0 report.
    let (status, body) = client
        .request(
            "POST",
            "/sessions/1/power?full=1",
            &trace_power_body(GRID, 0, 0),
        )
        .expect("retry");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected[1], "retry matches the fault-free run");

    let doc = fetch_metrics(&addr);
    assert_eq!(field(&doc, "responses", "server_5xx"), 1);
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// With a two-connection cap, the first connection pins one slot, the
/// second fills the other, and the third is shed promptly with `503` +
/// `Retry-After` — staged by an event loop before a single request byte
/// is read.
#[test]
fn saturated_pool_sheds_with_503_and_retry_after() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_max_connections(2)
            .with_read_timeout(Duration::from_millis(300)),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Pin one slot: a full round-trip proves the connection was admitted,
    // and the open keep-alive connection holds its slot after it.
    let mut pinned = Client::connect(&addr).expect("connect");
    let (status, _) = pinned
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201);

    // Fill the other slot with a connection that just sits there.
    let queued = TcpStream::connect(&addr).expect("queued connection");
    std::thread::sleep(Duration::from_millis(150));

    // The next connection must be shed, promptly.
    let started = Instant::now();
    let mut shed = TcpStream::connect(&addr).expect("shed connection");
    shed.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = String::new();
    shed.read_to_string(&mut response)
        .expect("read the 503 to EOF");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shedding must be prompt, took {:?}",
        started.elapsed()
    );
    assert!(
        response.starts_with("HTTP/1.1 503 "),
        "expected a 503, got {response:?}"
    );
    assert!(
        response.contains(&format!("retry-after: {RETRY_AFTER_SECS}\r\n")),
        "503 must carry Retry-After: {response:?}"
    );
    assert!(response.contains("saturated"), "{response:?}");

    // Free both slots and confirm the shed was counted.
    drop(pinned);
    drop(queued);
    std::thread::sleep(Duration::from_millis(100));
    let doc = fetch_metrics(&addr);
    assert_eq!(field(&doc, "overload", "shed_503"), 1);
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// A seeded write-error storm against retrying clients: ~40% of request
/// writes hard-fail with a connection error *before any byte lands*
/// (`FaultyStream` injects the error ahead of the real write, so a
/// failed call never half-sends). That is exactly the window where the
/// retry policy may resend a non-idempotent update — the client
/// reconnects and replays, and the observable response stream must stay
/// bitwise identical to direct engine evaluation, with every request
/// landing on the server exactly once.
#[test]
fn retrying_clients_absorb_a_write_error_storm_bitwise() {
    const CLIENTS: usize = 3;
    let expected: Vec<Vec<String>> = (0..CLIENTS).map(direct_session).collect();
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(CLIENTS))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let policy = RetryPolicy {
        max_retries: 16,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
    };
    let handles: Vec<_> = (0..CLIENTS)
        .map(|s| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let storm = FaultConfig {
                    write_error: 0.4,
                    ..FaultConfig::default()
                };
                let mut client = Client::connect_with_faults(&addr, storm, 0x57023 + s as u64)
                    .expect("connect with faults")
                    .with_retry(policy);
                let (status, body) = client
                    .request("POST", "/sessions", &trace_register_body(GRID, s))
                    .expect("register rides out the storm");
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
                    let (status, body) = client
                        .request(
                            "POST",
                            &format!("/sessions/{id}/power?full=1"),
                            &trace_power_body(GRID, s, round),
                        )
                        .expect("power update rides out the storm");
                    assert_eq!(status, 200, "{body}");
                    reports.push(body);
                }
                (reports, client.reconnects())
            })
        })
        .collect();
    let mut total_reconnects = 0;
    for (s, handle) in handles.into_iter().enumerate() {
        let (got, reconnects) = handle.join().expect("storm client thread");
        total_reconnects += reconnects;
        assert_eq!(
            got, expected[s],
            "session {s} responses diverged under the write-error storm"
        );
    }
    assert!(
        total_reconnects > 0,
        "the seeded storm must actually inject failures for the clients to absorb"
    );
    // Failed writes never reached the server, and each retried request
    // landed exactly once — so the server's view is a fault-free run.
    let doc = fetch_metrics(&addr);
    assert_eq!(
        field(&doc, "responses", "ok_2xx"),
        CLIENTS * (1 + ROUNDS),
        "every request must land on the server exactly once"
    );
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// A retrying client against a fully saturated server: both admission
/// slots (a two-connection cap) are pinned by idle connections, so
/// every attempt is shed with `503` + `Retry-After: 1`. The client
/// clamps the hint to its own `max_backoff`, reconnects (shed responses
/// close the connection), and keeps retrying until the slots free up —
/// then the register lands cleanly.
#[test]
fn retrying_client_rides_out_saturation_503s_until_admitted() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_max_connections(2),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Two idle connections pin every admission slot.
    let slot_a = TcpStream::connect(&addr).expect("pin slot a");
    let slot_b = TcpStream::connect(&addr).expect("pin slot b");
    std::thread::sleep(Duration::from_millis(100));

    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        drop(slot_a);
        drop(slot_b);
    });

    let started = Instant::now();
    let mut client = Client::connect(&addr)
        .expect("connect")
        .with_retry(RetryPolicy {
            max_retries: 40,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
        });
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register rides out the 503s");
    assert_eq!(status, 201, "{body}");
    assert!(
        client.reconnects() >= 1,
        "shed 503s close the connection, so success requires reconnecting"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the clamped backoff must converge promptly, took {:?}",
        started.elapsed()
    );
    releaser.join().expect("releaser thread");

    let doc = fetch_metrics(&addr);
    assert!(
        field(&doc, "overload", "shed_503") >= 1,
        "at least one attempt must have been shed"
    );
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// A slowloris half-request — head bytes trickled in, then silence — is
/// answered `408 Request Timeout` once the request deadline lapses, and
/// the connection is closed.
#[test]
fn slowloris_half_request_answers_408_at_the_deadline() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(2)
            .with_request_deadline(Duration::from_millis(250))
            // The idle timeout is much longer: the *deadline* must fire.
            .with_read_timeout(Duration::from_secs(30)),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let started = Instant::now();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /sessions HTTP/1.1\r\ncontent-le")
        .expect("send a partial head");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the 408 to EOF");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "expected a 408, got {response:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the deadline must fire promptly, took {:?}",
        started.elapsed()
    );

    let doc = fetch_metrics(&addr);
    assert_eq!(field(&doc, "overload", "timeouts_408"), 1);
    assert_metrics_reconcile(&doc);
    server.shutdown();
}

/// The full storm: lossy client transports (hard connection errors) plus
/// injected server panics and engine faults. No panic escapes, whatever
/// `/metrics` reports stays internally consistent, and shutting down in
/// the middle of a second storm wave drains cleanly.
#[test]
fn lossy_storm_survives_and_shutdown_mid_storm_is_clean() {
    const CLIENTS: usize = 4;
    let faults = Arc::new(ServerFaults::storm(0xD1CE, 3, 3, 40));
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(CLIENTS)
            .with_read_timeout(Duration::from_millis(250))
            .with_faults(faults),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // A storm client tolerates transport errors and injected 500s; it
    // only fails the test if the *test harness itself* breaks.
    let storm_client = |addr: String, seed: u64, session: usize| {
        move || {
            let Ok(mut client) = Client::connect_with_faults(&addr, FaultConfig::lossy(), seed)
            else {
                return;
            };
            let Ok((status, body)) =
                client.request("POST", "/sessions", &trace_register_body(GRID, session))
            else {
                return;
            };
            if status != 201 {
                return;
            }
            let Some(id) = body.split_once("\"session\":").and_then(|(_, rest)| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse::<u64>()
                    .ok()
            }) else {
                return;
            };
            for round in 0..ROUNDS {
                if client
                    .request(
                        "POST",
                        &format!("/sessions/{id}/power"),
                        &trace_power_body(GRID, session, round),
                    )
                    .is_err()
                {
                    return;
                }
            }
        }
    };

    // Wave one: run to completion, then reconcile on a quiet server.
    let wave: Vec<_> = (0..CLIENTS)
        .map(|s| std::thread::spawn(storm_client(addr.clone(), 0xBEEF + s as u64, s)))
        .collect();
    for handle in wave {
        handle.join().expect("storm client must not panic");
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_metrics_reconcile(&fetch_metrics(&addr));

    // Wave two: shut down while clients are mid-flight. `shutdown`
    // drains in-flight connections, so returning at all (the join below)
    // is the invariant; the clients just see errors.
    let wave: Vec<_> = (0..CLIENTS)
        .map(|s| std::thread::spawn(storm_client(addr.clone(), 0xF00D + s as u64, s)))
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    for handle in wave {
        handle
            .join()
            .expect("mid-shutdown storm client must not panic");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every terminal path — plain responses, shed 503s, deadline 408s,
    // contained-panic 500s — increments `requests`,
    // exactly one status-class counter, and exactly one histogram
    // sample; attributions never exceed their class.
    #[test]
    fn every_terminal_path_keeps_the_accounting_invariant(
        ops in prop::collection::vec((0usize..6, 1u64..2_000_000), 1..200),
    ) {
        let m = Metrics::new();
        let (mut ok, mut c4, mut s5) = (0u64, 0u64, 0u64);
        for &(op, ns) in &ops {
            let t = Duration::from_nanos(ns);
            match op {
                0 => { m.record(200, t); ok += 1; }
                1 => { m.record(404, t); c4 += 1; }
                2 => { m.record(500, t); s5 += 1; }
                3 => { m.record_shed(t); s5 += 1; }
                4 => { m.record_timeout(t); c4 += 1; }
                // A contained panic: the 500 is recorded like any other
                // response, the panic counter is a pure attribution.
                _ => { m.note_panic(); m.record(500, t); s5 += 1; }
            }
        }
        let snap = m.snapshot();
        let (r, o) = (&snap.responses, &snap.overload);
        prop_assert_eq!(snap.requests, ok + c4 + s5);
        prop_assert_eq!(r.ok_2xx, ok);
        prop_assert_eq!(r.client_4xx, c4);
        prop_assert_eq!(r.server_5xx, s5);
        prop_assert_eq!(snap.latency_ns.samples, snap.requests);
        prop_assert!(o.shed_503 + o.panics <= r.server_5xx);
        prop_assert!(o.timeouts_408 <= r.client_4xx);
    }
}
