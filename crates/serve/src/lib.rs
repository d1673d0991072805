//! Thermal-as-a-service: a std-only HTTP/1.1 session server over the
//! full-chip floorplan engine.
//!
//! The DATE 2011 models were built to answer *streams* of queries —
//! PAPERS.md's multiscale 3-D-integration workflows assume a chip-thermal
//! engine that prices repeated, slightly-perturbed floorplans cheaply.
//! This crate serves exactly that workload over plain `std::net`
//! sockets, in the spirit of the repo's vendored stand-ins (no external
//! dependencies anywhere):
//!
//! * [`http`] — incremental HTTP/1.1 request parser (partial reads,
//!   `Content-Length` bodies, keep-alive, pipelining, typed 4xx/5xx on
//!   malformed input) + response writer,
//! * [`protocol`] — JSON bodies → validated [`Floorplan`](ttsv_chip::Floorplan)
//!   registrations and power-delta moves, plus the delta-response
//!   renderer and its client-side `apply_delta` inverse
//!   (`docs/PROTOCOL.md` is the wire reference),
//! * [`server`] — the session server: nonblocking connections
//!   multiplexed across a few event-loop threads that answer power
//!   updates and reads themselves and hand registrations to a
//!   long-lived [`WorkerPool`](pool::WorkerPool) whose queue the
//!   connection cap bounds, one shared
//!   [`ChipEngine`](ttsv_chip::ChipEngine) indexing the live kernels,
//!   one exact-LRU session table with quotas and a kernel budget, one
//!   [`LiveChip`](ttsv_chip::LiveChip) per session (owning its plan,
//!   kernels and held report) that power updates patch in place —
//!   re-solving only the changed tiles against the held kernels and
//!   writing nothing until every solve succeeded — and `GET /metrics`,
//! * [`poller`] — real `poll(2)` readiness for the event loops (a
//!   hand-rolled std-only binding plus a self-pipe waker; the crate
//!   builds only on Unix),
//! * [`pool`] — the pool of long-lived worker threads the event loops
//!   hand registrations to,
//! * [`persist`] — the per-server write-ahead journal (`--state-dir`):
//!   CRC32-framed records for registrations, power updates, deletions,
//!   and eviction tombstones; torn-tail-tolerant crash recovery that
//!   answers bitwise-identical reports after a restart; snapshot
//!   compaction; configurable fsync policy; graceful degradation on
//!   journal I/O errors,
//! * [`lru`] / [`metrics`] — the session cache and the request
//!   counters/latency histogram behind it,
//! * [`client`] — a blocking keep-alive client plus the deterministic
//!   trace bodies the integration suites and `bench_json` replay.
//!
//! Binary: `serve` (run the server).
//!
//! # Quick start
//!
//! This snippet is kept byte-identical to the README's
//! "Thermal-as-a-service" section, so that section is verified by
//! `cargo test --doc`:
//!
//! ```
//! use ttsv_serve::client::Client;
//! use ttsv_serve::server::{Server, ServerConfig};
//!
//! fn main() -> std::io::Result<()> {
//!     // Ephemeral port, 2 connection workers, bounded caches.
//!     let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(2))?;
//!     let mut client = Client::connect(&server.addr().to_string())?;
//!
//!     // Register a 2×2 floorplan (3 planes, paper §IV-E geometry).
//!     let (status, body) = client.request(
//!         "POST",
//!         "/sessions",
//!         r#"{"nx":2,"ny":2,"planes":[[20,15,20,15],[2,2,2,2],[2,2,2,2]],"via_density":0.005}"#,
//!     )?;
//!     assert_eq!(status, 201);
//!     assert!(body.starts_with("{\"session\":"));
//!
//!     // Stream a power delta: only the touched tile re-solves.
//!     let (status, report) = client.request(
//!         "POST",
//!         "/sessions/1/power",
//!         r#"{"plane":0,"updates":[[0,0,25.0]]}"#,
//!     )?;
//!     assert_eq!(status, 200);
//!     assert!(report.contains("\"max_delta_t\""));
//!
//!     // Observability: request counters, latency, cache hit rates.
//!     let (status, metrics) = client.request("GET", "/metrics", "")?;
//!     assert_eq!(status, 200);
//!     assert!(metrics.contains("\"sessions\":{\"live\":1"));
//!
//!     server.shutdown();
//!     Ok(())
//! }
//! ```

// `deny`, not `forbid`: the poll(2) binding in `poller` carries the
// crate's one reviewed `#[allow(unsafe_code)]`; everything else stays
// rejected.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod http;
pub mod lru;
pub mod metrics;
pub mod persist;
pub mod poller;
pub mod pool;
pub mod protocol;
pub mod server;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use client::{Client, RetryPolicy};
pub use faults::{FaultConfig, FaultyStream, ServerFaults, SplitMix64};
pub use http::{HttpError, Request, RequestParser, Response};
pub use lru::LruCache;
pub use metrics::Metrics;
pub use persist::{FsyncPolicy, PersistConfig};
pub use server::{Server, ServerConfig};

/// Locks a mutex, recovering from poisoning. Every structure this crate
/// guards (session table and state, loop inboxes, pool queue, journal
/// bookkeeping) stays valid wherever a panic can interrupt it, so one bad
/// request must not brick every later lock.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
