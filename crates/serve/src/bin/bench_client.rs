//! The `bench-client` binary: replay a deterministic power-trace
//! workload against a running (or freshly spawned) `serve` process and
//! report cold-session vs warm-delta latency.
//!
//! ```text
//! cargo run --release -p ttsv-serve --bin bench-client -- \
//!     --spawn [--trace SESSIONS:ROUNDS:GRID] [--check] [--chaos SEED] \
//!     [--state-dir PATH]
//! cargo run --release -p ttsv-serve --bin bench-client -- \
//!     --addr 127.0.0.1:7071 [--sessions N | --fanout N] [--rounds N] \
//!     [--grid N] [--delta]
//! cargo run --release -p ttsv-serve --bin bench-client -- \
//!     --addr 127.0.0.1:7071 --probe SESSION_ID
//! ```
//!
//! `--spawn` launches the sibling `serve` binary on an ephemeral port
//! (with its connection and queue caps raised so wide fan-outs are not
//! shed) and kills it when the replay finishes, so CI needs no fixed
//! port and no external server. `--check` exits nonzero unless
//! warm-delta p50 latency beats cold-session p99 by at least 5× — the
//! serving-layer acceptance gate: if a *typical* two-tile delta costs
//! anywhere near a full registration, the session cache is broken. (The
//! warm p50, not p99: a warm round that lands a never-seen tile/watt
//! scenario legitimately pays a cache miss, and under concurrency the
//! warm tail also carries queueing — neither says anything about
//! whether the cache pays for itself.) `--chaos SEED`
//! replays the same trace through a seeded lossless fault wrapper (short
//! reads and writes, delays) — every response must still come back
//! correct, which is the transport-robustness smoke CI runs. `--fanout N`
//! replays N concurrent sessions and switches what `--check` gates:
//! under wide fan-out every request's latency is queueing-dominated
//! (32 clients share a few workers), so the cold/warm cache ratio
//! compresses toward the service-time ratio and stops being the
//! interesting invariant. Instead the fan-out check proves the server
//! actually *multiplexed*: the summed per-request latencies must exceed
//! the replay's wall-clock by at least 4× (requests overlapped in
//! flight), which fails if connections are served one at a time — and
//! the replay itself already fails on any shed or wrong response.
//! `--delta` switches the power rounds from `?full=1` full reports to
//! the server's default delta responses.
//! `--state-dir` (only with `--spawn`) forwards the durable-session
//! state directory, so the replay exercises the journaled hot path.
//! `--probe ID` (only with `--addr`) is the restart-recovery smoke:
//! instead of replaying a trace it asserts `GET /sessions/ID` answers
//! 200 *and* `/metrics` reports at least one recovered session — run it
//! against a server restarted from a killed predecessor's state dir.
//!
//! A connection the server refuses or resets exits 1 with a diagnostic
//! naming the address, instead of an opaque panic.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use ttsv_serve::client::{percentile_ns, run_trace, TraceConfig};

/// The `--check` gate: cold-session p99 must exceed 5× warm-delta p50.
const WARM_SPEEDUP_GATE: u128 = 5;

/// The `--fanout --check` gate: summed per-request latencies must exceed
/// wall-clock elapsed by this factor, proving requests overlapped in
/// flight instead of being served one connection at a time.
const FANOUT_OVERLAP_GATE: u128 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: bench-client (--addr HOST:PORT | --spawn) \
         [--trace SESSIONS:ROUNDS:GRID] [--sessions N | --fanout N] [--rounds N] \
         [--grid N] [--delta] [--check] [--chaos SEED] \
         [--state-dir PATH] [--probe SESSION_ID]"
    );
    std::process::exit(2);
}

/// The `--probe ID` recovery smoke: the session must answer 200 and the
/// server must report at least one recovered session in `/metrics`.
/// Exits the process with a diagnostic on any miss.
fn probe_recovered_session(addr: &str, id: u64) -> ! {
    let mut client = ttsv_serve::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("{}", explain_trace_error(addr, &e));
        std::process::exit(1);
    });
    let (status, body) = client
        .request("GET", &format!("/sessions/{id}"), "")
        .unwrap_or_else(|e| {
            eprintln!("{}", explain_trace_error(addr, &e));
            std::process::exit(1);
        });
    if status != 200 {
        eprintln!("--probe FAILED: GET /sessions/{id} answered {status}, not 200: {body}");
        std::process::exit(1);
    }
    let (status, metrics) = client.request("GET", "/metrics", "").unwrap_or_else(|e| {
        eprintln!("{}", explain_trace_error(addr, &e));
        std::process::exit(1);
    });
    if status != 200 {
        eprintln!("--probe FAILED: GET /metrics answered {status}");
        std::process::exit(1);
    }
    // No JSON dependency here: the persistence block's field is flat.
    let recovered: u64 = metrics
        .split_once("\"recovered_sessions\":")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| {
            eprintln!("--probe FAILED: /metrics has no recovered_sessions field: {metrics}");
            std::process::exit(1);
        });
    if recovered == 0 {
        eprintln!("--probe FAILED: session {id} answered but recovered_sessions is 0 — the server did not actually replay a journal");
        std::process::exit(1);
    }
    println!("--probe: session {id} recovered ({recovered} sessions replayed from the journal)");
    std::process::exit(0);
}

/// Turns the usual connection-level failures into actionable one-liners;
/// everything else is reported verbatim.
fn explain_trace_error(addr: &str, e: &std::io::Error) -> String {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::ConnectionRefused => format!(
            "could not connect to {addr}: connection refused — is the serve process running \
             and listening there? (start one with `serve --addr {addr}` or use --spawn)"
        ),
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            format!(
                "connection to {addr} dropped mid-replay ({e}) — the server died, shed the \
                 connection, or a proxy between us closed it"
            )
        }
        _ => format!("trace replay against {addr} failed: {e}"),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(value) = args.next() else {
        eprintln!("{flag} needs a value");
        usage();
    };
    let Ok(parsed) = value.parse() else {
        eprintln!("{flag} {value:?} is not valid");
        usage();
    };
    parsed
}

/// Spawns the sibling `serve` binary on an ephemeral port and reads the
/// bound address from its `listening on <addr>` stdout line.
fn spawn_server(state_dir: Option<&str>) -> (Child, String) {
    let serve = std::env::current_exe()
        .expect("current exe path")
        .with_file_name("serve");
    let mut command = Command::new(&serve);
    // Raised caps: a wide --fanout replay must multiplex, not shed.
    command.args([
        "--addr",
        "127.0.0.1:0",
        "--max-connections",
        "256",
        "--queue-capacity",
        "256",
        "--max-sessions",
        "256",
    ]);
    if let Some(state_dir) = state_dir {
        command.args(["--state-dir", state_dir]);
    }
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", serve.display()));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read serve stdout");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner {line:?}"))
        .to_string();
    (child, addr)
}

fn main() {
    let mut addr: Option<String> = None;
    let mut spawn = false;
    let mut check = false;
    let mut fanout = false;
    let mut state_dir: Option<String> = None;
    let mut probe: Option<u64> = None;
    let mut config = TraceConfig::default();
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse_flag(&mut args, "--addr")),
            "--spawn" => spawn = true,
            "--state-dir" => state_dir = Some(parse_flag(&mut args, "--state-dir")),
            "--probe" => probe = Some(parse_flag(&mut args, "--probe")),
            "--check" => check = true,
            "--sessions" => config.sessions = parse_flag(&mut args, "--sessions"),
            "--fanout" => {
                config.sessions = parse_flag(&mut args, "--fanout");
                fanout = true;
            }
            "--rounds" => config.rounds = parse_flag(&mut args, "--rounds"),
            "--grid" => config.grid = parse_flag(&mut args, "--grid"),
            "--delta" => config.full_reports = false,
            "--chaos" => config.chaos = Some(parse_flag(&mut args, "--chaos")),
            "--trace" => {
                let spec: String = parse_flag(&mut args, "--trace");
                let parts: Vec<&str> = spec.split(':').collect();
                match (
                    parts.first().and_then(|s| s.parse().ok()),
                    parts.get(1).and_then(|s| s.parse().ok()),
                    parts.get(2).and_then(|s| s.parse().ok()),
                ) {
                    (Some(s), Some(r), Some(g)) if parts.len() == 3 => {
                        config = TraceConfig {
                            sessions: s,
                            rounds: r,
                            grid: g,
                            ..config
                        };
                    }
                    _ => {
                        eprintln!("--trace {spec:?} is not SESSIONS:ROUNDS:GRID");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if config.sessions == 0 || config.rounds == 0 || config.grid == 0 {
        eprintln!("trace needs at least one session, round, and tile");
        usage();
    }

    if state_dir.is_some() && !spawn {
        eprintln!("--state-dir only makes sense with --spawn (it configures the spawned server)");
        usage();
    }
    if let Some(id) = probe {
        // The recovery smoke targets an already-restarted server; a
        // freshly spawned one by definition recovered nothing.
        let Some(addr) = addr else {
            eprintln!("--probe needs --addr (point it at the restarted server)");
            usage();
        };
        if spawn {
            eprintln!("--probe and --spawn are mutually exclusive");
            usage();
        }
        probe_recovered_session(&addr, id);
    }

    let mut child = None;
    let addr = match (addr, spawn) {
        (Some(addr), false) => addr,
        (None, true) => {
            let (spawned, addr) = spawn_server(state_dir.as_deref());
            child = Some(spawned);
            addr
        }
        _ => usage(),
    };

    let outcome = run_trace(&addr, config);
    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
    }
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("{}", explain_trace_error(&addr, &e));
        std::process::exit(1);
    });

    let cold_p99 = percentile_ns(&outcome.cold_ns, 0.99);
    let warm_p99 = percentile_ns(&outcome.warm_ns, 0.99);
    let warm_p50 = percentile_ns(&outcome.warm_ns, 0.50);
    println!(
        "{{\"trace\":{{\"sessions\":{},\"rounds\":{},\"grid\":{}}},\"requests\":{},\
         \"requests_per_sec\":{:.1},\"cold_session_p99_ns\":{cold_p99},\
         \"warm_delta_p50_ns\":{warm_p50},\"warm_delta_p99_ns\":{warm_p99}}}",
        config.sessions,
        config.rounds,
        config.grid,
        outcome.requests(),
        outcome.requests_per_sec(),
    );

    if check && fanout {
        let summed: u128 = outcome.cold_ns.iter().chain(outcome.warm_ns.iter()).sum();
        let elapsed = outcome.elapsed.as_nanos().max(1);
        if summed >= FANOUT_OVERLAP_GATE * elapsed {
            println!(
                "--check: {:.1}x request-latency overlap across {} connections (gate: {FANOUT_OVERLAP_GATE}x)",
                summed as f64 / elapsed as f64,
                config.sessions
            );
        } else {
            eprintln!(
                "--check FAILED: summed request latency {summed} ns < {FANOUT_OVERLAP_GATE}x \
                 wall-clock {elapsed} ns — connections were served serially, not multiplexed"
            );
            std::process::exit(1);
        }
    } else if check {
        if cold_p99 >= WARM_SPEEDUP_GATE * warm_p50 {
            println!(
                "--check: warm-delta p50 is {:.1}x faster than cold-session p99 (gate: {WARM_SPEEDUP_GATE}x)",
                cold_p99 as f64 / warm_p50.max(1) as f64
            );
        } else {
            eprintln!(
                "--check FAILED: cold p99 {cold_p99} ns < {WARM_SPEEDUP_GATE}x warm p50 {warm_p50} ns \
                 — the session cache is not paying for itself"
            );
            std::process::exit(1);
        }
    }
}
