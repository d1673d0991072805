//! Durability suite for `ttsv-serve`: the write-ahead journal, crash
//! recovery, and its failure modes, driven through real servers on real
//! sockets.
//!
//! The pinned invariants:
//!
//! * **Crash recovery is bitwise** — kill a server without shutdown
//!   (`Server::abort`, the in-process stand-in for `SIGKILL`: no final
//!   compaction), restart from the same
//!   `--state-dir`, and every surviving session's next report is
//!   byte-identical to direct `ChipEngine` evaluation of the same
//!   floorplan history. Session ids keep counting where they left off.
//! * **Torn tails never hurt** — truncating a real server-produced
//!   journal at *every byte offset* still opens: never a panic, always
//!   a valid prefix, with the replayed record count monotone in the
//!   truncation point.
//! * **Tombstones are respected** — a session that was LRU-evicted (by
//!   the session quota or the kernel budget) or explicitly `DELETE`d
//!   before the crash, or evicted by a recovery into a smaller quota or
//!   budget, stays gone after the next recovery.
//! * **Write faults degrade, not kill** — a journal whose writes fail,
//!   or whose state dir cannot be opened, disables persistence (counted
//!   in `/metrics`) while serving continues bitwise-correct.
//! * **The fsync interval holds when traffic stops** — under
//!   `interval:MS` the last acknowledged write is fsynced within a few
//!   intervals with no later write to carry the sync.
//! * **Graceful shutdown round-trips** — `shutdown()` compacts; the
//!   next start replays the compacted journal to the same bitwise state.

pub mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttsv::serve::client::{trace_power_body, trace_register_body, Client};
use ttsv::serve::faults::JournalFaultConfig;
use ttsv::serve::metrics::PersistStats;
use ttsv::serve::persist::{self, FsyncPolicy, Journal, PersistConfig};
use ttsv::serve::protocol::parse_register;
use ttsv::serve::server::{Server, ServerConfig};
use ttsv_chip::ChipEngine;

use common::{direct_session, with_densities, GRID, ROUNDS};

/// A fresh state directory under the system temp dir, unique per test
/// *and* per process so concurrent `cargo test` runs never collide.
fn state_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ttsv-serve-persist-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Registers `session`'s floorplan and applies rounds `0..upto`,
/// returning the allocated id.
fn seed_session(client: &mut Client, session: usize, upto: usize) -> u64 {
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, session))
        .expect("register");
    assert_eq!(status, 201, "{body}");
    let id: u64 = body
        .split_once("\"session\":")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .expect("numeric session id");
    for round in 0..upto {
        let (status, body) = client
            .request(
                "POST",
                &format!("/sessions/{id}/power"),
                &trace_power_body(GRID, session, round),
            )
            .expect("power update");
        assert_eq!(status, 200, "{body}");
    }
    id
}

/// The `/metrics` `persistence` block of a running server.
fn persistence_metrics(addr: &str) -> serde::json::Value {
    let mut client = Client::connect(addr).expect("connect for metrics");
    let (status, body) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200, "{body}");
    let doc: serde::json::Value =
        serde::json::from_str(&body).expect("metrics endpoint emits valid JSON");
    doc.get("persistence").expect("persistence block").clone()
}

fn persist_field(block: &serde::json::Value, name: &str) -> usize {
    block
        .get(name)
        .and_then(serde::json::Value::as_usize)
        .unwrap_or_else(|| panic!("persistence field {name} missing"))
}

/// Kill a journaling server mid-traffic without shutdown, restart from
/// the same state dir, and the recovered sessions answer **bitwise**
/// what a never-crashed server would: the recovered state read, the
/// remaining power rounds, and the id counter all line up with direct
/// engine evaluation.
#[test]
fn crash_recovery_restores_sessions_bitwise() {
    const SESSIONS: usize = 2;
    const PRE_CRASH_ROUNDS: usize = 3;
    let dir = state_dir("crash");
    let expected: Vec<Vec<String>> = (0..SESSIONS).map(direct_session).collect();

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2).with_state_dir(&dir),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let ids: Vec<u64> = (0..SESSIONS)
        .map(|s| seed_session(&mut client, s, PRE_CRASH_ROUNDS))
        .collect();
    assert_eq!(ids, vec![1, 2]);
    drop(client);
    // No shutdown(): no final compaction.
    server.abort();

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2).with_state_dir(&dir),
    )
    .expect("restart from the journal");
    let addr = server.addr().to_string();
    let block = persistence_metrics(&addr);
    assert_eq!(persist_field(&block, "recovered_sessions"), SESSIONS);
    assert!(persist_field(&block, "records_replayed") >= SESSIONS * (1 + PRE_CRASH_ROUNDS));

    let mut client = Client::connect(&addr).expect("reconnect");
    for (s, &id) in ids.iter().enumerate() {
        // The recovered state itself: bitwise the report after the last
        // pre-crash round.
        let (status, body) = client
            .request("GET", &format!("/sessions/{id}"), "")
            .expect("read recovered session");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, expected[s][PRE_CRASH_ROUNDS],
            "session {id} recovered state diverged from direct evaluation"
        );
        // And the remaining rounds continue the same bitwise sequence.
        for round in PRE_CRASH_ROUNDS..ROUNDS {
            let (status, body) = client
                .request(
                    "POST",
                    &format!("/sessions/{id}/power?full=1"),
                    &trace_power_body(GRID, s, round),
                )
                .expect("post-recovery power update");
            assert_eq!(status, 200, "{body}");
            assert_eq!(
                body,
                expected[s][round + 1],
                "session {id} round {round} diverged after recovery"
            );
        }
    }
    // The id counter survived: a fresh registration continues counting
    // instead of reusing a recovered id.
    let next = seed_session(&mut client, 0, 0);
    assert_eq!(next, SESSIONS as u64 + 1, "next_id must survive the crash");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncate a real server-produced journal at every byte offset: the
/// scan never panics and always yields a valid prefix (monotone in the
/// cut point), and `Journal::open` on the truncated file recovers
/// cleanly at every sampled offset.
#[test]
fn torn_tail_truncation_recovers_a_valid_prefix_at_every_byte() {
    let dir = state_dir("torn");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_persist(PersistConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    seed_session(&mut client, 0, 2);
    drop(client);
    server.abort();

    let journal_path = dir.join("journal.ttsv");
    let bytes = std::fs::read(&journal_path).expect("journal exists");
    assert!(bytes.len() > 100, "journal too small to be interesting");

    // Pure-scan property at every single byte.
    let mut last_records = 0;
    let mut last_valid = 0;
    for cut in 0..=bytes.len() {
        let (records, valid_len) = persist::scan(&bytes[..cut]);
        assert!(valid_len <= cut, "valid prefix cannot exceed the cut");
        assert!(
            records.len() >= last_records && valid_len >= last_valid,
            "replayable prefix must be monotone in the cut point"
        );
        last_records = records.len();
        last_valid = valid_len;
    }
    let full = persist::scan(&bytes).0.len();
    assert_eq!(last_records, full, "the uncut journal replays everything");

    // Full `Journal::open` recovery at every byte: never an error, and
    // the replayed count stays monotone.
    let torn = state_dir("torn-open");
    let mut last_replayed = 0;
    for cut in 0..=bytes.len() {
        std::fs::create_dir_all(&torn).expect("state dir");
        std::fs::write(torn.join("journal.ttsv"), &bytes[..cut]).expect("write truncated");
        let stats = Arc::new(PersistStats::default());
        let opened = Journal::open(PersistConfig::new(&torn), Arc::clone(&stats))
            .expect("a torn tail must never fail recovery");
        let replayed = stats.snapshot().records_replayed;
        assert!(
            replayed >= last_replayed,
            "cut {cut}: replayed count regressed"
        );
        last_replayed = replayed;
        drop(opened);
    }
    assert_eq!(last_replayed, full as u64);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&torn);
}

/// Tombstones are respected across a crash: a session LRU-evicted by
/// quota pressure and a session explicitly `DELETE`d (204) both stay
/// gone after recovery, while the survivor answers bitwise.
#[test]
fn eviction_and_delete_tombstones_survive_restart() {
    let dir = state_dir("tombstone");
    let expected = direct_session(2);
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_max_sessions(2)
            .with_state_dir(&dir),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    // Three registrations into a 2-session quota: session 1 is evicted.
    for s in 0..3 {
        seed_session(&mut client, s, 0);
    }
    // Session 2 goes by explicit DELETE (journaled as a tombstone).
    let (status, body) = client.request("DELETE", "/sessions/2", "").expect("delete");
    assert_eq!(status, 204, "{body}");
    drop(client);
    server.abort();

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_max_sessions(2)
            .with_state_dir(&dir),
    )
    .expect("restart from the journal");
    let addr = server.addr().to_string();
    let block = persistence_metrics(&addr);
    assert_eq!(
        persist_field(&block, "recovered_sessions"),
        1,
        "only session 3 survives the tombstones"
    );
    let mut client = Client::connect(&addr).expect("reconnect");
    for dead in [1, 2] {
        let (status, body) = client
            .request("GET", &format!("/sessions/{dead}"), "")
            .expect("read dead session");
        assert_eq!(status, 404, "session {dead} must stay gone: {body}");
    }
    let (status, body) = client.request("GET", "/sessions/3", "").expect("read");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected[0], "the survivor answers bitwise");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart into a smaller quota evicts the stalest recovered sessions
/// and journals their tombstones, so a later restart with room for all
/// of them still recovers only the survivor.
#[test]
fn over_quota_recovery_journals_its_evictions() {
    let dir = state_dir("overquota");
    let start = |max_sessions: usize| {
        Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(1)
                .with_max_sessions(max_sessions)
                .with_state_dir(&dir),
        )
        .expect("bind ephemeral port")
    };
    let server = start(3);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for s in 0..3 {
        seed_session(&mut client, s, 0);
    }
    drop(client);
    server.abort();

    // Recovery into a 1-session quota keeps session 3, the most recently
    // touched, and evicts 1 and 2.
    start(1).abort();

    let server = start(3);
    let addr = server.addr().to_string();
    assert_eq!(
        persist_field(&persistence_metrics(&addr), "recovered_sessions"),
        1,
        "the recovery evictions were journaled as tombstones"
    );
    let mut client = Client::connect(&addr).expect("reconnect");
    for (id, expected) in [(1, 404), (2, 404), (3, 200)] {
        let (status, body) = client
            .request("GET", &format!("/sessions/{id}"), "")
            .expect("read session");
        assert_eq!(status, expected, "session {id}: {body}");
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions the kernel budget evicts journal their tombstones, so a
/// restart with room for every session still recovers only the
/// survivors; and a recovered session over a smaller budget on its own is
/// dropped with a tombstone too, staying gone after the next restart.
#[test]
fn kernel_budget_evictions_stay_gone_after_a_restart() {
    let dir = state_dir("budget");
    let start = |budget: usize| {
        Server::start(
            "127.0.0.1:0",
            ServerConfig {
                matrix_cache_cap: budget,
                ..ServerConfig::default().with_workers(1).with_state_dir(&dir)
            },
        )
        .expect("bind ephemeral port")
    };
    let server = start(4);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for s in 0..3 {
        seed_session(&mut client, s, 0);
    }
    // Three kernels beside the three live sessions' evict sessions 1 and 2.
    let register = with_densities(&trace_register_body(GRID, 3), 3);
    let (status, body) = client
        .request("POST", "/sessions", &register)
        .expect("register");
    assert!(
        status == 201 && body.starts_with("{\"session\":4,"),
        "{body}"
    );
    drop(client);
    server.abort();

    let spec = parse_register(register.as_bytes()).expect("register");
    let dense = ChipEngine::new()
        .with_workers(1)
        .evaluate_factored(&spec.plan, &spec.model)
        .expect("solvable")
        .to_json();
    let survivor = direct_session(2).swap_remove(0);
    // (budget, the sessions that answer 200; the rest answer 404).
    for (budget, live) in [(1 << 10, vec![3, 4]), (2, vec![3]), (1 << 10, vec![3])] {
        let server = start(budget);
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        for id in 1..=4u64 {
            let (status, body) = client
                .request("GET", &format!("/sessions/{id}"), "")
                .expect("read session");
            if live.contains(&id) {
                let expected = if id == 3 { &survivor } else { &dense };
                assert_eq!(
                    (status, &body),
                    (200, expected),
                    "budget {budget}, session {id}"
                );
            } else {
                assert_eq!(
                    status, 404,
                    "budget {budget}: session {id} must stay gone: {body}"
                );
            }
        }
        drop(client);
        server.abort();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal whose writes always fail: the first append degrades
/// persistence (counted, `enabled:false` in `/metrics`) and serving
/// continues bitwise-correct — and the next start from that state dir
/// recovers nothing rather than something wrong.
#[test]
fn journal_write_faults_degrade_gracefully_while_serving_continues() {
    let dir = state_dir("degrade");
    let expected = direct_session(0);
    let broken = JournalFaultConfig {
        write_error: 1.0,
        ..JournalFaultConfig::default()
    };
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_persist(PersistConfig::new(&dir).with_faults(broken, 0xDEAD)),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "registering must survive the journal fault");
    assert!(body.contains("\"session\":1"), "{body}");
    for round in 0..ROUNDS {
        let (status, body) = client
            .request(
                "POST",
                "/sessions/1/power?full=1",
                &trace_power_body(GRID, 0, round),
            )
            .expect("power update");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body,
            expected[round + 1],
            "round {round} diverged on the degraded server"
        );
    }
    let block = persistence_metrics(&addr);
    assert!(
        matches!(block.get("enabled"), Some(serde::json::Value::Bool(false))),
        "the first write error disables persistence: {block:?}"
    );
    assert!(persist_field(&block, "write_errors") >= 1);
    drop(client);
    server.shutdown();

    // Nothing ever landed in the journal, so a healthy restart recovers
    // an empty table — never a corrupt one.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(1).with_state_dir(&dir),
    )
    .expect("restart");
    let addr = server.addr().to_string();
    let block = persistence_metrics(&addr);
    assert_eq!(persist_field(&block, "recovered_sessions"), 0);
    let mut client = Client::connect(&addr).expect("reconnect");
    let (status, _) = client.request("GET", "/sessions/1", "").expect("read");
    assert_eq!(status, 404, "the unjournaled session is gone");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state dir that cannot be opened (here: an existing regular file)
/// leaves persistence off, counted as one write error, and the server
/// still serves: its first registration answers 201 bitwise what direct
/// evaluation gives.
#[test]
fn unopenable_state_dir_serves_in_memory() {
    let blocker = state_dir("not-a-dir");
    std::fs::write(&blocker, b"a regular file, not a directory").expect("write blocker");
    let expected = direct_session(0);
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_state_dir(&blocker),
    )
    .expect("a failed journal open must not fail startup");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let (status, body) = client
        .request("POST", "/sessions", &trace_register_body(GRID, 0))
        .expect("register");
    assert_eq!(status, 201, "{body}");
    assert_eq!(
        body,
        format!("{{\"session\":1,\"report\":{}}}", expected[0]),
        "the in-memory server answers bitwise"
    );
    let block = persistence_metrics(&addr);
    assert!(
        matches!(block.get("enabled"), Some(serde::json::Value::Bool(false))),
        "a failed open leaves persistence off: {block:?}"
    );
    assert_eq!(persist_field(&block, "write_errors"), 1, "{block:?}");
    assert_eq!(persist_field(&block, "records_written"), 0, "{block:?}");
    drop(client);
    server.shutdown();
    assert!(blocker.is_file(), "the blocking file is left as it was");
    let _ = std::fs::remove_file(&blocker);
}

/// `--fsync interval:MS` bounds the loss window on a quiet server too:
/// the last write acknowledged before the traffic stops is fsynced within
/// a few intervals, with no further write to carry the sync.
#[test]
fn interval_fsync_syncs_the_last_write_of_a_quiet_server() {
    const INTERVAL: Duration = Duration::from_millis(50);
    let dir = state_dir("quiet-fsync");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_persist(PersistConfig::new(&dir).with_fsync(FsyncPolicy::Interval(INTERVAL))),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    // More than an interval after the journal opened, the registration's
    // own append syncs; the power update right behind it is then the
    // record left unsynced when the traffic stops.
    std::thread::sleep(2 * INTERVAL);
    seed_session(&mut client, 0, 1);

    // Only `/metrics` reads from here on: they append nothing.
    let give_up = Instant::now() + 20 * INTERVAL;
    loop {
        let block = persistence_metrics(&addr);
        assert_eq!(persist_field(&block, "records_written"), 2, "{block:?}");
        let unsynced = persist_field(&block, "unsynced_records");
        if unsynced == 0 {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "{unsynced} acknowledged record(s) still unsynced {:?} after the last write",
            20 * INTERVAL
        );
        std::thread::sleep(INTERVAL / 5);
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful path: `shutdown()` compacts the journal; restarting
/// replays the compacted snapshot to the same
/// bitwise state, and a tightened compaction threshold actually folds
/// the dead update records away.
#[test]
fn graceful_shutdown_compacts_and_restart_replays_bitwise() {
    let dir = state_dir("graceful");
    let expected = direct_session(0);
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(1)
            .with_persist(PersistConfig::new(&dir).with_compact_min_records(4)),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    // All rounds hit the same planes, so compaction folds the update
    // history down to one full-replacement record per touched plane.
    let id = seed_session(&mut client, 0, ROUNDS);
    drop(client);
    server.shutdown();

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(1).with_state_dir(&dir),
    )
    .expect("restart from the compacted journal");
    let addr = server.addr().to_string();
    let block = persistence_metrics(&addr);
    assert_eq!(persist_field(&block, "recovered_sessions"), 1);
    // Compacted: far fewer records than the 1 + ROUNDS raw appends.
    assert!(
        persist_field(&block, "records_replayed") <= 4,
        "the clean-shutdown compaction must fold the update history: {block:?}"
    );
    let mut client = Client::connect(&addr).expect("reconnect");
    let (status, body) = client
        .request("GET", &format!("/sessions/{id}"), "")
        .expect("read recovered session");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, expected[ROUNDS],
        "the compacted journal replays to the same bitwise state"
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journaling hot path stays on while clients hammer a server that
/// is also evicting and deleting — then one restart recovers exactly
/// the sessions that should exist. This is the mid-traffic kill from
/// the issue: the abort lands while per-session histories differ.
#[test]
fn mid_traffic_abort_recovers_every_surviving_session_bitwise() {
    const CLIENTS: usize = 3;
    let dir = state_dir("mid-traffic");
    let expected: Vec<Vec<String>> = (0..CLIENTS).map(direct_session).collect();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2).with_state_dir(&dir),
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    // Concurrent clients leave sessions at *different* round depths.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|s| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                seed_session(&mut client, s, s + 1)
            })
        })
        .collect();
    let ids: Vec<u64> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    server.abort();

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2).with_state_dir(&dir),
    )
    .expect("restart from the journal");
    let addr = server.addr().to_string();
    assert_eq!(
        persist_field(&persistence_metrics(&addr), "recovered_sessions"),
        CLIENTS
    );
    let mut client = Client::connect(&addr).expect("reconnect");
    for (s, &id) in ids.iter().enumerate() {
        let (status, body) = client
            .request("GET", &format!("/sessions/{id}"), "")
            .expect("read recovered session");
        assert_eq!(status, 200, "{body}");
        // Session `s` stopped after round `s`: its recovered report is
        // that exact point in the direct-evaluation sequence. The id →
        // session mapping is whatever registration order the race
        // produced, which `ids` records.
        assert_eq!(
            body,
            expected[s][s + 1],
            "session {id} recovered at the wrong round"
        );
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
