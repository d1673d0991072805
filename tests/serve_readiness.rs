//! Readiness suite for `ttsv-serve`: the poll(2) event loops' latency
//! and idle-CPU properties, and the nonblocking shed path.
//!
//! The pinned invariants:
//!
//! * **No tick quantization** — a request landing on a *parked* idle
//!   keep-alive connection (well past the loops' spin window) is
//!   answered well under [`PARKED_BOUND`], because the loop blocks in
//!   `poll(2)` on the connection's fd instead of sleeping a millisecond
//!   at a time.
//! * **Idle means idle** — an idle server's per-loop wakeup counter
//!   stays ≈ 0 over a one-second window (a millisecond tick would make
//!   ~1000/s per loop).
//! * **Shedding never stalls admission** — a shed client that refuses
//!   to read its 503 parks *in an event loop*, not on the accept
//!   thread: concurrent connections keep being admitted or shed
//!   promptly, and the stalled client's 503 still arrives.
//! * **Pipelined requests keep the request clock** — a request that
//!   arrives behind another in one write is held to the request
//!   deadline and timed from when its predecessor was popped: a
//!   partial follower gets its 408, and a follower's latency includes
//!   its wait behind a slow predecessor.
//! * **A registration never holds up a warm update** — with the pool's
//!   only worker stalled in a registration, a two-tile update on another
//!   session is answered on its event loop before that registration is.

pub mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttsv::serve::client::{trace_power_body, trace_register_body, Client};
use ttsv::serve::faults::ServerFaults;
use ttsv::serve::server::{Server, ServerConfig, RETRY_AFTER_SECS};

use common::{field, GRID};

/// The parked-request latency bound: one millisecond, the tick a
/// timed-park event loop would quantize every parked request to.
const PARKED_BOUND: Duration = Duration::from_millis(1);

/// A request on a parked idle keep-alive connection must be answered
/// well under [`PARKED_BOUND`]: the owning loop is blocked in `poll(2)`
/// on this very fd, so the wakeup is kernel-immediate, with no
/// millisecond tick to quantize against.
#[test]
fn parked_keepalive_request_beats_the_idle_tick() {
    const SAMPLES: usize = 21;
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(2))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    // Warm up: the first request pays connection adoption.
    let (status, _) = client.request("GET", "/healthz", "").expect("warm-up");
    assert_eq!(status, 200);

    let mut samples_ns: Vec<u128> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        // Park the connection: idle far past the loops' ~200 µs spin
        // window, so the owning loop is genuinely blocked in poll(2)
        // when the request lands.
        std::thread::sleep(Duration::from_millis(5));
        let started = Instant::now();
        let (status, _) = client
            .request("GET", "/healthz", "")
            .expect("parked request");
        let elapsed = started.elapsed();
        assert_eq!(status, 200);
        samples_ns.push(elapsed.as_nanos());
    }
    samples_ns.sort_unstable();
    let median =
        Duration::from_nanos(u64::try_from(samples_ns[SAMPLES / 2]).expect("sub-second sample"));
    // A ticking loop would add up to a full millisecond of park latency
    // on top of the request itself; the median must land clearly below
    // that, i.e. no tick quantization at all. (Median, not max: one
    // preemption on a loaded CI box must not fail the suite.)
    assert!(
        median < PARKED_BOUND,
        "parked-request median {median:?} is not under {PARKED_BOUND:?} \
         — the event loop is ticking, not blocking (samples: {samples_ns:?})"
    );
    server.shutdown();
}

/// A partial request pipelined behind a complete one is held to the
/// request deadline like a lone partial: the complete request gets its
/// 200, then the partial one its 408, and the connection closes — it
/// does not sit on its admission slot forever.
#[test]
fn pipelined_partial_request_answers_408_at_the_deadline() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(2)
            .with_read_timeout(Duration::from_millis(300))
            .with_request_deadline(Duration::from_millis(300)),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let started = Instant::now();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /heal")
        .expect("send a request and a partial follower in one write");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("the server answers the partial follower 408 and closes");
    let elapsed = started.elapsed();
    assert!(
        response.starts_with("HTTP/1.1 200 "),
        "the complete request is answered first: {response:?}"
    );
    assert!(
        response.contains("HTTP/1.1 408 "),
        "the partial follower is answered 408: {response:?}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "the follower's deadline must fire promptly, took {elapsed:?}"
    );

    let mut client = Client::connect(&addr).expect("connect for metrics");
    let (status, body) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200, "{body}");
    let doc: serde::json::Value = serde::json::from_str(&body).expect("metrics JSON");
    assert_eq!(field(&doc, "overload", "timeouts_408"), 1);
    server.shutdown();
}

/// A request pipelined behind a slow one is timed from when its
/// predecessor left the parser, not from its own pop: both reads behind
/// a 300 ms evaluation stall record at least that stall, so the median
/// over register + two reads lands in the 2²⁸ ns bucket or above.
#[test]
fn pipelined_request_latency_counts_its_wait_behind_the_predecessor() {
    const STALL: Duration = Duration::from_millis(300);
    // Ordinal 1 registers; ordinal 2 (the first pipelined read) stalls
    // inside evaluation.
    let faults = Arc::new(ServerFaults::new().engine_delay_on(2, STALL));
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2).with_faults(faults),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "{body}");

    let mut stream = TcpStream::connect(&addr).expect("connect pipelined");
    stream
        .write_all(
            b"GET /sessions/1 HTTP/1.1\r\n\r\n\
              GET /sessions/1 HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .expect("send two pipelined reads in one write");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read both responses to EOF");
    assert_eq!(
        response.matches("HTTP/1.1 200 ").count(),
        2,
        "both pipelined reads answer 200: {response:?}"
    );

    let (status, body) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200, "{body}");
    let doc: serde::json::Value = serde::json::from_str(&body).expect("metrics JSON");
    assert_eq!(field(&doc, "latency_ns", "samples"), 3);
    let p50 = field(&doc, "latency_ns", "p50");
    assert!(
        p50 >= 1 << 28,
        "latency p50 {p50} ns: a read pipelined behind a {STALL:?} stall \
         was recorded without its wait"
    );
    server.shutdown();
}

/// An idle server makes ≈ 0 poll wakeups: with every loop blocked on
/// far-future deadlines, a one-second quiet window adds at most the
/// couple of wakeups our own measurement requests cause — versus the
/// ~1000/loop a ticking loop would burn. This is the idle-CPU smoke CI
/// runs.
#[test]
fn idle_server_makes_almost_no_poll_wakeups() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(2))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // One parked keep-alive connection, so the idle window also covers
    // a loop that *owns* a connection (interest set non-empty).
    let mut parked = Client::connect(&addr).expect("connect parked");
    let (status, _) = parked.request("GET", "/healthz", "").expect("park");
    assert_eq!(status, 200);

    // Same keep-alive client for both snapshots: no new connections
    // (hence no accept-path wakeups) land inside the window.
    let mut observer = Client::connect(&addr).expect("connect observer");
    let (status, before) = observer.request("GET", "/metrics", "").expect("before");
    assert_eq!(status, 200);
    let before: serde::json::Value = serde::json::from_str(&before).expect("metrics JSON");

    std::thread::sleep(Duration::from_secs(1));

    let (status, after) = observer.request("GET", "/metrics", "").expect("after");
    assert_eq!(status, 200);
    let after: serde::json::Value = serde::json::from_str(&after).expect("metrics JSON");

    let wakeups =
        field(&after, "readiness", "poll_wakeups") - field(&before, "readiness", "poll_wakeups");
    // The second /metrics request itself wakes the observer's loop
    // (that wakeup may be counted before the snapshot); everything else
    // in the window must be silence. A ticking loop would show ~1000.
    assert!(
        wakeups <= 5,
        "idle 1 s window produced {wakeups} poll wakeups — the loops are ticking, not blocking"
    );
    let spurious = field(&after, "readiness", "spurious_wakeups")
        - field(&before, "readiness", "spurious_wakeups");
    assert!(
        spurious <= wakeups,
        "spurious wakeups ({spurious}) cannot exceed wakeups ({wakeups})"
    );
    server.shutdown();
}

/// Regression for the synchronous shed write: a shed client that never
/// reads its 503 must not stall admission. Concurrent over-cap
/// connections still get their 503 promptly, a freed slot is reusable
/// while the stalled client still hasn't read a byte, and the stalled
/// client's 503 is delivered in the end (staged nonblocking by an event
/// loop).
#[test]
fn stalled_shed_client_does_not_stall_admission() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_max_connections(1),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Occupy the single admission slot with a served connection.
    let mut occupant = Client::connect(&addr).expect("connect occupant");
    let (status, _) = occupant.request("GET", "/healthz", "").expect("occupy");
    assert_eq!(status, 200);

    // The stalled shed client: over cap, owed a 503, never reads.
    let stalled = TcpStream::connect(&addr).expect("stalled shed connection");

    // A concurrent over-cap connection must still be shed promptly —
    // with the old synchronous shed write, a stalled predecessor could
    // serialize this behind a 1 s write timeout.
    let started = Instant::now();
    let mut concurrent = TcpStream::connect(&addr).expect("concurrent shed connection");
    concurrent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = String::new();
    concurrent
        .read_to_string(&mut response)
        .expect("read the concurrent 503 to EOF");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "concurrent shed took {:?} behind a stalled shed client",
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

    // Free the slot; a fresh connection must get *served* (not shed)
    // once the server reaps the occupant — all while the stalled client
    // still hasn't read its 503. Shed connections are adopted uncounted,
    // so the parked stalled stream must not block readmission either.
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(5);
    let doc = loop {
        // The one admission slot frees once the server reaps the
        // dropped occupant; until then connections are still shed.
        let mut client = Client::connect(&addr).expect("connect after slot freed");
        let (status, _) = client.request("GET", "/healthz", "").expect("readmitted");
        if status == 200 {
            // Same keep-alive connection: a second connect would be
            // shed by the slot *this* client now holds.
            let (status, body) = client.request("GET", "/metrics", "").expect("metrics");
            assert_eq!(status, 200, "{body}");
            let parsed: serde::json::Value =
                serde::json::from_str(&body).expect("metrics endpoint emits valid JSON");
            break parsed;
        }
        assert_eq!(status, 503, "only shed or served are possible");
        assert!(
            Instant::now() < deadline,
            "slot never became reusable behind a stalled shed client"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // The stalled client's 503 was staged nonblocking and must arrive.
    let mut stalled = stalled;
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = String::new();
    stalled
        .read_to_string(&mut response)
        .expect("read the stalled 503 to EOF");
    assert!(
        response.starts_with("HTTP/1.1 503 "),
        "stalled shed client still gets its 503, got {response:?}"
    );

    assert!(
        field(&doc, "overload", "shed_503") >= 2,
        "both over-cap connections were counted"
    );
    assert_eq!(field(&doc, "readiness", "adopt_errors"), 0);
    server.shutdown();
}

/// A registration stalled on the pool's only worker does not hold up a
/// warm two-tile update on another session: the update is answered 200
/// on its event loop while the stalled registration's socket still holds
/// no response byte. One event loop serves every connection, so the
/// update cannot dodge the stall on a second loop. The test orders
/// events; it times nothing.
#[test]
fn warm_update_is_answered_while_a_registration_stalls_the_pool() {
    // Ordinals follow parse order: the first registration is 1, the
    // stalled one 2.
    let faults = Arc::new(ServerFaults::new().engine_delay_on(2, Duration::from_secs(2)));
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_event_loops(1)
            .with_faults(Arc::clone(&faults)),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "{body}");

    let body = trace_register_body(GRID, 1);
    let mut stalled = TcpStream::connect(&addr).expect("connect stalled");
    stalled
        .write_all(
            format!(
                "POST /sessions HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send the stalled registration");
    // Send nothing else until the registration has taken ordinal 2. A
    // server that then runs it anywhere but the pool stalls the loop, and
    // the peek below finds its answer.
    let give_up = Instant::now() + Duration::from_secs(5);
    while faults.requests_seen() < 2 {
        assert!(
            Instant::now() < give_up,
            "the registration was never parsed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut updater = Client::connect(&addr).expect("connect updater");
    let (status, body) = updater
        .request("POST", "/sessions/1/power", &trace_power_body(GRID, 0, 0))
        .expect("power update");
    assert_eq!(status, 200, "{body}");
    stalled.set_nonblocking(true).expect("nonblocking");
    let peeked = stalled.peek(&mut [0u8; 1]);
    assert!(
        matches!(&peeked, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the stalled registration was answered before the update (peek: {peeked:?})"
    );
    server.shutdown();
}
