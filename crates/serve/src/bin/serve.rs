//! The `serve` binary: run the thermal session server until killed.
//!
//! ```text
//! cargo run --release -p ttsv-serve --bin serve -- \
//!     [--addr 127.0.0.1:7071] [--workers N] [--event-loops N] \
//!     [--max-sessions N] [--max-tiles N] [--max-connections N] \
//!     [--request-deadline-ms MS] [--write-timeout-ms MS] \
//!     [--state-dir PATH] [--fsync always|interval[:MS]|never]
//! ```
//!
//! `--state-dir` turns on durable sessions: a write-ahead journal under
//! PATH records every registration, power update, deletion, and
//! eviction, and a restart pointed at the same PATH recovers the
//! sessions (see `docs/PROTOCOL.md`, "Durability & recovery"). `--fsync`
//! picks the durability-vs-latency point (default `interval:100`).
//!
//! Prints exactly one `listening on <addr>` line to stdout once the
//! socket is bound (port 0 resolves to the real ephemeral port), which
//! is how a spawning script or load driver discovers the address.

use std::num::NonZeroUsize;
use std::time::Duration;

use ttsv_serve::persist::FsyncPolicy;
use ttsv_serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--event-loops N] \
         [--max-sessions N] [--max-tiles N] [--max-connections N] \
         [--request-deadline-ms MS] [--write-timeout-ms MS] \
         [--state-dir PATH] [--fsync always|interval[:MS]|never]"
    );
    std::process::exit(2);
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

/// A count flag: a zero takes the same "not valid" + usage exit as any
/// other unparsable value instead of reaching the config builder's assert.
fn parse_count(args: &mut std::env::Args, flag: &str) -> usize {
    parse_flag::<NonZeroUsize>(args, flag).get()
}

fn main() {
    let mut addr = "127.0.0.1:7071".to_string();
    let mut config = ServerConfig::default();
    let mut state_dir: Option<String> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut args, "--addr"),
            "--state-dir" => state_dir = Some(parse_flag(&mut args, "--state-dir")),
            "--fsync" => fsync = Some(parse_flag(&mut args, "--fsync")),
            "--workers" => config = config.with_workers(parse_count(&mut args, "--workers")),
            "--event-loops" => {
                config = config.with_event_loops(parse_count(&mut args, "--event-loops"));
            }
            "--max-sessions" => {
                config = config.with_max_sessions(parse_count(&mut args, "--max-sessions"));
            }
            "--max-tiles" => config = config.with_max_tiles(parse_count(&mut args, "--max-tiles")),
            "--max-connections" => {
                config = config.with_max_connections(parse_count(&mut args, "--max-connections"));
            }
            "--request-deadline-ms" => {
                config = config.with_request_deadline(Duration::from_millis(parse_flag(
                    &mut args,
                    "--request-deadline-ms",
                )));
            }
            "--write-timeout-ms" => {
                config = config.with_write_timeout(Duration::from_millis(parse_flag(
                    &mut args,
                    "--write-timeout-ms",
                )));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    // `--state-dir` beats the `TTSV_SERVE_STATE_DIR` env default (which
    // `ServerConfig::default` may already have filled in); `--fsync`
    // tunes whichever persistence config ends up active.
    if let Some(dir) = state_dir {
        config = config.with_state_dir(dir);
    }
    if let Some(policy) = fsync {
        match config.persist.take() {
            Some(persist) => config.persist = Some(persist.with_fsync(policy)),
            None => {
                eprintln!("--fsync needs --state-dir (or TTSV_SERVE_STATE_DIR) to apply to");
                usage();
            }
        }
    }
    let server = match Server::start(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());
    // Flush eagerly: a spawning process reads this line through a pipe.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}
