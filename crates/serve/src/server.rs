//! The session server: readiness-based connection multiplexing over a
//! small worker pool, routing, and the shared serving state.
//!
//! # Architecture: event loops own connections, workers own registrations
//!
//! One `std::net::TcpListener` accept thread admits connections (with a
//! live-connection cap and a backoff on accept errors) and hands them
//! round-robin to a small number of **event-loop threads**. Each loop
//! owns its connections outright: sockets are `set_nonblocking(true)`,
//! incoming bytes feed the incremental [`RequestParser`] (whose state is
//! a pure function of the buffered bytes — exactly what a readiness loop
//! needs), and responses drain from per-connection [`WriteBuffer`]s as
//! the sockets accept them. Readiness comes from `poll(2)`: a short
//! yield-spin window after the last progress keeps hot traffic at
//! near-blocking latency, then the loop blocks in real `poll(2)` (via
//! [`crate::poller`], std-only) over its connections' fds plus a
//! self-pipe that the accept thread and worker completions write to, so
//! inbox activity interrupts the block immediately. The poll timeout is derived from the nearest connection
//! deadline alone, so an idle server makes *zero* wakeups instead of
//! ticking every millisecond (the `/metrics` `readiness` block counts
//! wakeups). The loops never schedule journal work: under
//! `interval:MS` the [`Journal`] keeps its own fsync clock, which also
//! syncs a write acknowledged just before the server went quiet.
//!
//! Where a request runs is a property of its route alone. A
//! registration (`POST /sessions`) parses a floorplan and factorizes its
//! kernels, so it is handed to the long-lived [`WorkerPool`], one
//! request in flight per connection, with its completion delivered back
//! to the owning loop. Every other request — power updates (`?full=1`
//! too), session reads, deletes, `/metrics`, `/healthz`, routing errors —
//! is answered by `ServerState::handle` on the loop that parsed it. A
//! power update or read never factorizes: it costs at most `max_tiles`
//! kernel calls plus one render, so a heavy registration on the pool
//! never queues ahead of it. A loop never blocks on a session lock that
//! a worker holds, because a worker only locks the session it is
//! registering, before anyone else can see it; two loops can contend for
//! one session's lock, and each waits at most one bounded update.
//!
//! One caveat: an update's journal append also runs on its loop. Under
//! `--fsync always` that includes the fsync, and the append that crosses
//! [`PersistConfig::compact_min_records`] compacts the journal right
//! there. Either stalls that loop's other connections, as does waiting
//! for the journal's lock while a registration's append holds it.
//!
//! A session's whole mutable state is one [`LiveChip`]: it owns the
//! registered floorplan and the Model B kernels of its via densities. A
//! warm power-delta request parses against the chip's own plan and
//! re-solves only the tiles whose bits changed against the chip's own
//! kernels — without touching the shared engine's index or factorizing,
//! which is the entire point of serving sessions instead of stateless
//! requests. Kernels live exactly as long as the sessions that use them:
//! when the LRU evicts or a `DELETE` removes a session, every kernel no
//! other session shares is freed. The one shared [`ChipEngine`] only
//! indexes the live kernels, so sessions with the same via density (and
//! journal recovery) share one kernel.
//!
//! The session table bounds the kernels. A session weighs its distinct
//! via densities (its report's `distinct_cells`, fixed for its life,
//! counted from the plan before it is evaluated) and the live sessions'
//! weights may sum to at most the config's `matrix_cache_cap`. A
//! registration heavier than that alone is answered `413` before
//! anything is factorized; otherwise publishing it evicts
//! least-recently-used sessions until both the count quota and the
//! kernel budget hold.
//! By default a warm update also *answers* with only what changed: a
//! delta response carrying the changed tiles and updated summary
//! statistics (`?full=1` opts back into the full report; see
//! `docs/PROTOCOL.md`).
//!
//! Sessions live in one exact [`LruCache`] behind one mutex, held only
//! for the lookup, insert, or remove itself — never across an
//! evaluation. Registering past `max_sessions` evicts the
//! least-recently-used live session (counted in `GET /metrics`); a
//! later request against an evicted id is a clean 404. Per-session work
//! is serialized by a per-session mutex, so one session's responses form
//! a deterministic sequence no matter how many workers or loops run —
//! the integration suite pins responses bitwise against direct engine
//! evaluation.
//!
//! # Overload control and failure containment
//!
//! The server is built to survive *mis*behaving traffic, not just
//! well-formed load (`tests/serve_chaos.rs` pins all of this):
//!
//! * **Admission control** — one gate: connections past
//!   [`ServerConfig::max_connections`] (default 5 × workers) are
//!   answered `503 Service Unavailable` with a `Retry-After` hint and
//!   closed, and shed connections are counted in `/metrics`. The 503 is
//!   written *nonblocking by an event loop* (the stream is handed over
//!   uncounted), so a stalled shed client can never serialize the accept
//!   thread. An admitted connection has at most one registration in
//!   flight, so the cap also bounds the pool's queue: at most
//!   `max_connections` − busy workers registrations wait, and the pool
//!   itself refuses nothing. Raising the cap to multiplex more update
//!   clients therefore also raises how many registrations can wait.
//! * **Accept-error backoff** — a failing `accept(2)` (fd exhaustion,
//!   aborted handshakes) counts an `accept_errors` metric and backs the
//!   accept thread off exponentially (1 ms doubling to ~128 ms) instead
//!   of spinning the thread at 100% CPU until the condition clears.
//! * **No per-session queue** — requests against one session serialize
//!   on its lock, but only the event loops take that lock, each for one
//!   bounded update or read, so at most one request per loop ever waits
//!   on it.
//! * **Deadlines** — once a request's first byte arrives (for a
//!   pipelined request: once its predecessor is popped), the whole
//!   request must parse within [`ServerConfig::request_deadline`] (and
//!   may never stall longer than the read timeout) or the connection is
//!   answered `408 Request Timeout` and closed; the latency histogram
//!   measures from that same instant. An idle keep-alive connection is
//!   reclaimed silently after the read timeout. A client that stops
//!   reading its response is dropped once the write buffer makes no
//!   progress for [`ServerConfig::write_timeout`]. Each connection's
//!   `next_deadline` is the one rule for all of these: the poll timeout
//!   sleeps until the nearest one and the service pass acts on it.
//! * **Failed updates change nothing** — a power update computes every
//!   changed tile's `ΔT` before it writes the plan or the report, so an
//!   error (or a contained panic) leaves the session exactly as it was
//!   and a retry evaluates the same pre-update state.
//! * **Panic containment** — every request handler runs under
//!   `catch_unwind`; a panic maps to a typed `500` with the connection,
//!   session table, and metrics left healthy. All shared locks are
//!   acquired with poison recovery, so one bad request can never brick
//!   the server.
//! * **Fault injection** — [`ServerConfig::with_faults`] installs a
//!   deterministic [`ServerFaults`] schedule (injected panics, engine
//!   errors, stalls, aimed by the ordinal the event loop gives each
//!   request as it parses it) so the chaos suite can reproduce failure
//!   storms bit-for-bit.

use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ttsv_chip::{ChipEngine, LiveChip};
use ttsv_core::CoreError;

use crate::faults::{FaultDirective, ServerFaults};
use crate::http::{Method, Request, RequestParser, Response, WriteBuffer};
use crate::lock;
use crate::lru::LruCache;
use crate::metrics::{self, Metrics, MetricsDoc};
use crate::persist::{Journal, PersistConfig};
use crate::poller::{self, PollInterest, Poller, Waker};
use crate::pool::{PoolMonitor, WorkerPool};
use crate::protocol;

/// The `Retry-After` hint (seconds) on a `503` overload response.
pub const RETRY_AFTER_SECS: u64 = 1;

/// How long an event loop keeps yield-spinning after its last progress
/// before blocking in `poll(2)`. Continuous traffic never leaves the
/// window, so the hot path stays at near-blocking latency.
const SPIN_WINDOW: Duration = Duration::from_micros(200);
/// How long a loop parks when `poll(2)` itself fails, so the error
/// path cannot spin the thread.
const IDLE_TICK: Duration = Duration::from_millis(1);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Registration workers (the pool event loops hand `POST /sessions`
    /// to).
    pub workers: usize,
    /// Event-loop threads owning the nonblocking connections.
    pub event_loops: usize,
    /// Live-session quota; registering past it LRU-evicts.
    pub max_sessions: usize,
    /// Per-session tile quota (`nx · ny` at registration).
    pub max_tiles: usize,
    /// Does nothing: the engine no longer has a scenario tier. Kept only
    /// so the external serving benchmark, which still reads it, compiles.
    #[doc(hidden)]
    pub scenario_cache_cap: usize,
    /// The session table's kernel budget. A session holds one Model B
    /// kernel per distinct via density (its report's `distinct_cells`),
    /// and the live sessions' counts may sum to at most this. A
    /// registration whose count alone exceeds it is answered 413 before
    /// it is evaluated; otherwise registering evicts least-recently-used
    /// sessions until the sum fits. Sessions sharing a density count it
    /// once each.
    pub matrix_cache_cap: usize,
    /// Per-connection read timeout (an idle keep-alive connection is
    /// dropped after this; a mid-request stall this long answers 408).
    pub read_timeout: Duration,
    /// Write-progress timeout: a client that stops reading its response
    /// loses the connection instead of pinning a write buffer forever.
    pub write_timeout: Duration,
    /// Total time a request may take from first byte to fully parsed;
    /// past it the connection is answered 408 and closed.
    pub request_deadline: Duration,
    /// Live-connection cap, the server's one admission gate: a
    /// connection past it is shed with 503. `None` derives 5 × workers.
    /// Each connection holds at most one registration in flight, so the
    /// cap also bounds the registration queue; power updates and reads
    /// run on the event loops and take no pool slot. Raising it to
    /// multiplex more update clients also lets more registrations wait.
    pub max_connections: Option<usize>,
    /// Deterministic fault schedule for chaos testing (`None` in
    /// production: one `Option` check per request).
    pub faults: Option<Arc<ServerFaults>>,
    /// Durable-session persistence (`None`: purely in-memory, the
    /// previous behavior). When set, every registration, applied power
    /// update, deletion, and LRU eviction appends to a write-ahead
    /// journal under the configured state directory, and
    /// [`Server::start`] replays any journal found there — see
    /// [`crate::persist`]. Defaults from the `TTSV_SERVE_STATE_DIR`
    /// environment variable (how CI runs the existing suites with
    /// journaling on): each defaulted config gets a *unique*
    /// `srv-{pid}-{n}` subdirectory so concurrently started servers
    /// never share a journal.
    pub persist: Option<PersistConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: ttsv_core::batch::default_workers(),
            event_loops: 2,
            max_sessions: 64,
            max_tiles: 64 * 64,
            scenario_cache_cap: 0,
            matrix_cache_cap: 1 << 10,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(60),
            max_connections: None,
            faults: None,
            persist: std::env::var_os("TTSV_SERVE_STATE_DIR").map(|root| {
                static UNIQUE: AtomicU64 = AtomicU64::new(0);
                let sub = format!(
                    "srv-{}-{}",
                    std::process::id(),
                    UNIQUE.fetch_add(1, Ordering::Relaxed)
                );
                PersistConfig::new(std::path::Path::new(&root).join(sub))
            }),
        }
    }
}

impl ServerConfig {
    /// Overrides the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one server worker");
        self.workers = workers;
        self
    }

    /// Overrides the event-loop thread count.
    ///
    /// # Panics
    ///
    /// Panics if `event_loops` is zero.
    #[must_use]
    pub fn with_event_loops(mut self, event_loops: usize) -> Self {
        assert!(event_loops > 0, "need at least one event loop");
        self.event_loops = event_loops;
        self
    }

    /// Overrides the live-session quota.
    ///
    /// # Panics
    ///
    /// Panics if `max_sessions` is zero.
    #[must_use]
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        assert!(max_sessions > 0, "need room for at least one session");
        self.max_sessions = max_sessions;
        self
    }

    /// Overrides the per-session tile quota.
    ///
    /// # Panics
    ///
    /// Panics if `max_tiles` is zero.
    #[must_use]
    pub fn with_max_tiles(mut self, max_tiles: usize) -> Self {
        assert!(max_tiles > 0, "need room for at least one tile");
        self.max_tiles = max_tiles;
        self
    }

    /// Overrides the idle read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> Self {
        self.read_timeout = read_timeout;
        self
    }

    /// Overrides the write-progress timeout.
    #[must_use]
    pub fn with_write_timeout(mut self, write_timeout: Duration) -> Self {
        self.write_timeout = write_timeout;
        self
    }

    /// Overrides the first-byte-to-parsed request deadline.
    #[must_use]
    pub fn with_request_deadline(mut self, deadline: Duration) -> Self {
        self.request_deadline = deadline;
        self
    }

    /// Overrides the live-connection cap (admission sheds with 503 past
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        assert!(cap > 0, "need room for at least one connection");
        self.max_connections = Some(cap);
        self
    }

    /// Installs a deterministic fault-injection schedule (chaos tests).
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<ServerFaults>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables durable sessions with default journal tuning: a
    /// write-ahead journal lives in `state_dir` (created if missing) and
    /// startup replays whatever journal it finds there.
    #[must_use]
    pub fn with_state_dir(self, state_dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_persist(PersistConfig::new(state_dir))
    }

    /// Enables durable sessions with full journal tuning (fsync policy,
    /// compaction threshold, fault injection).
    #[must_use]
    pub fn with_persist(mut self, persist: PersistConfig) -> Self {
        self.persist = Some(persist);
        self
    }
}

/// The connection-level timeout bundle the event loops enforce.
#[derive(Debug, Clone, Copy)]
struct ConnDeadlines {
    read_timeout: Duration,
    write_timeout: Duration,
    request_deadline: Duration,
}

/// One registered session: its serialized state — the held evaluation
/// that owns the floorplan and its kernels, whose report `GET` returns
/// and power updates patch in place — plus its weight against the kernel
/// budget.
struct Session {
    live: Mutex<LiveChip>,
    /// The kernels `live` holds, one per distinct via density, as
    /// `(address, heap bytes)`: fixed for the session's life, since an
    /// update never changes a density. Their count is the session's weight
    /// against the kernel budget.
    kernels: Vec<(usize, usize)>,
}

/// State shared by the accept thread, event loops, and workers.
struct ServerState {
    engine: ChipEngine,
    sessions: Mutex<LruCache<u64, Arc<Session>>>,
    next_id: AtomicU64,
    metrics: Metrics,
    max_tiles: usize,
    /// Bound on the summed [`Session::kernels`] counts of the live
    /// sessions.
    kernel_budget: usize,
    pool_monitor: PoolMonitor,
    faults: Option<Arc<ServerFaults>>,
    /// Connections currently owned by event loops (plus those in flight
    /// between accept and adoption) — the admission gauge.
    live_connections: AtomicUsize,
    /// The write-ahead journal: off, live or degraded, and the owner of
    /// the `/metrics` `persistence` block in every state.
    journal: Journal,
}

/// Runs a request's injected engine faults (stall, panic, error) where
/// the engine work would start. For power updates and reads that is on
/// the event loop while the per-session lock is held, so the chaos suite
/// proves poison recovery and not just the `catch_unwind` boundary.
fn inject(directive: FaultDirective) -> Result<(), Response> {
    if let Some(delay) = directive.engine_delay {
        std::thread::sleep(delay);
    }
    assert!(
        !directive.panic,
        "injected fault: handler panic mid-evaluation"
    );
    if directive.engine_error {
        return Err(Response::error(
            500,
            "evaluation failed: injected engine fault",
        ));
    }
    Ok(())
}

fn evaluation_failed(e: &CoreError) -> Response {
    Response::error(500, &format!("evaluation failed: {e}"))
}

impl ServerState {
    fn session(&self, id: u64) -> Result<Arc<Session>, Response> {
        lock(&self.sessions).get(&id).cloned().ok_or_else(|| {
            Response::error(
                404,
                &format!("no session {id} (expired or never registered)"),
            )
        })
    }

    /// A session evaluated from `spec`, or the status and reason it is
    /// refused: `413` when its kernels alone exceed the budget — weighed
    /// from the plan before anything is factorized — and `500` when the
    /// evaluation fails. Registration answers the refusal; journal
    /// recovery drops the session.
    fn admit(&self, spec: protocol::SessionSpec) -> Result<Arc<Session>, (u16, String)> {
        let groups = spec.plan.density_groups();
        let kernels = groups.len();
        if kernels > self.kernel_budget {
            return Err((
                413,
                format!(
                    "floorplan of {kernels} distinct via densities exceeds the kernel budget of {}",
                    self.kernel_budget
                ),
            ));
        }
        match self
            .engine
            .evaluate_live_grouped(spec.plan, &groups, &spec.model)
        {
            Ok(live) => {
                let kernels = live
                    .kernels()
                    .map(|kernel| (Arc::as_ptr(kernel) as usize, kernel.heap_bytes()))
                    .collect();
                Ok(Arc::new(Session {
                    live: Mutex::new(live),
                    kernels,
                }))
            }
            Err(e) => Err((500, format!("evaluation failed: {e}"))),
        }
    }

    /// Inserts an admitted `session` as most-recently used, then evicts
    /// least-recently-used sessions until both the count quota and the
    /// kernel budget hold; each eviction's tombstone is journaled after
    /// the table lock drops.
    fn publish(&self, id: u64, session: Arc<Session>) {
        let mut evicted = Vec::new();
        {
            let mut table = lock(&self.sessions);
            evicted.extend(table.insert(id, session).map(|(victim, _)| victim));
            let mut kernels: usize = table.iter().map(|(_, s)| s.kernels.len()).sum();
            while kernels > self.kernel_budget {
                let (victim, dropped) = table
                    .pop_lru()
                    .expect("an admitted session fits the budget alone");
                kernels -= dropped.kernels.len();
                evicted.push(victim);
            }
        }
        for victim in evicted {
            self.journal.record_evict(victim);
        }
    }

    fn register(&self, body: &[u8], directive: FaultDirective) -> Response {
        let spec = match protocol::parse_register(body) {
            Ok(spec) => spec,
            Err(e) => return Response::error(400, &e.0),
        };
        if spec.plan.tiles() > self.max_tiles {
            return Response::error(
                413,
                &format!(
                    "floorplan of {} tiles exceeds the per-session quota of {}",
                    spec.plan.tiles(),
                    self.max_tiles
                ),
            );
        }
        // Evaluate before publishing: a session is never visible in a
        // half-registered state, and the cold-session cost is all here.
        if let Err(resp) = inject(directive) {
            return resp;
        }
        let session = match self.admit(spec) {
            Ok(session) => session,
            Err((status, reason)) => return Response::error(status, &reason),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Journal the raw wire body *before* publishing: if we crash
        // between the append and the insert, recovery resurrects a
        // session the client was never told about — harmless — whereas
        // the reverse order could lose an acknowledged session.
        self.journal.record_register(id, body);
        let mut body = format!("{{\"session\":{id},\"report\":");
        serde::json::write_to(&mut body, lock(&session.live).report());
        body.push('}');
        self.publish(id, session);
        Response::json(201, body)
    }

    fn power_update(
        &self,
        id: u64,
        body: &[u8],
        full: bool,
        directive: FaultDirective,
    ) -> Response {
        let session = match self.session(id) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        // Per-session serialization: deltas from concurrent clients on
        // the same session apply in some total order, and each response
        // reflects exactly the plan it evaluated.
        let mut live = lock(&session.live);
        let (plane, update) = match protocol::parse_power_sparse(body, live.plan()) {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(400, &e.0),
        };
        let updates = update.into_entries(&live.plan().plane_maps()[plane]);
        if let Err(resp) = inject(directive) {
            return resp;
        }
        // Re-solves only the changed tiles and patches the held report;
        // it writes nothing before every solve succeeded, so a failure
        // leaves the plan and report exactly as they were.
        let changed = match live.apply(&self.engine, plane, &updates) {
            Ok(changed) => changed,
            Err(e) => return evaluation_failed(&e),
        };
        // The update is now applied state; journal its raw wire body
        // under the session lock, so the journal's per-session update
        // order is exactly the serialization order the responses
        // reflect.
        self.journal.record_update(id, plane, body);
        let report = live.report();
        let body = if full {
            report.to_json()
        } else {
            protocol::render_delta_tiles(report, &changed)
        };
        Response::json(200, body)
    }

    fn read_session(&self, id: u64, directive: FaultDirective) -> Response {
        let session = match self.session(id) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let live = lock(&session.live);
        match inject(directive) {
            Ok(()) => Response::json(200, live.report().to_json()),
            Err(resp) => resp,
        }
    }

    fn delete_session(&self, id: u64) -> Response {
        let removed = lock(&self.sessions).remove(&id);
        match removed {
            Some(_) => {
                // Tombstone so recovery never resurrects it; an explicit
                // delete outlives the process.
                self.journal.record_delete(id);
                Response::json(204, String::new())
            }
            None => Response::error(404, &format!("no session {id}")),
        }
    }

    fn metrics_json(&self) -> String {
        let snap = self.metrics.snapshot();
        let doc = MetricsDoc {
            overload: metrics::Overload {
                inflight: self.live_connections.load(Ordering::SeqCst),
                queue_depth: self.pool_monitor.queue_depth(),
                busy_workers: self.pool_monitor.in_flight(),
                ..snap.overload
            },
            persistence: self.journal.stats().snapshot(),
            sessions: {
                let table = lock(&self.sessions);
                // Sessions of one density share its kernel: count each
                // live kernel once, by address.
                let mut seen = HashSet::new();
                let kernel_bytes = table
                    .iter()
                    .flat_map(|(_, session)| &session.kernels)
                    .filter(|(address, _)| seen.insert(*address))
                    .map(|(_, bytes)| bytes)
                    .sum();
                metrics::Sessions {
                    live: table.len(),
                    capacity: table.capacity(),
                    hits: table.hits(),
                    misses: table.misses(),
                    evictions: table.evictions(),
                    kernel_bytes,
                }
            },
            engine: metrics::Engine {
                solves: self.engine.solves(),
                factorizations: self.engine.factorizations(),
                scenario_hits: self.engine.scenario_hits(),
                scenario_misses: self.engine.scenario_misses(),
                matrix_entries: self.engine.cache_entries(),
            },
            ..snap
        };
        serde::json::to_string(&doc)
    }

    /// Answers one routed request under its fault directive, with the
    /// panic boundary: an unwinding handler (or an injected fault panic)
    /// becomes a typed 500 and the connection, session table, and metrics
    /// stay healthy.
    fn handle(&self, route: Route, directive: FaultDirective) -> Response {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match route {
            Route::Metrics => Response::json(200, self.metrics_json()),
            Route::Healthz => Response::json(200, "{\"ok\":true}".into()),
            Route::Register(body) => self.register(&body, directive),
            Route::Power { id, full, body } => self.power_update(id, &body, full, directive),
            Route::Read(id) => self.read_session(id, directive),
            Route::Delete(id) => self.delete_session(id),
            Route::Reject(status, message) => Response::error(status, &message),
        }));
        outcome.unwrap_or_else(|_| {
            self.metrics.note_panic();
            Response::error(
                500,
                "request handler panicked; the request was aborted and the server is healthy",
            )
        })
    }
}

/// What a request asks for, parsed once from its method and target: the
/// event loop picks pool or loop by it alone ([`Route::on_pool`]), and
/// [`ServerState::handle`] picks the handler.
enum Route {
    Metrics,
    Healthz,
    Register(Vec<u8>),
    Power {
        id: u64,
        full: bool,
        body: Vec<u8>,
    },
    Read(u64),
    Delete(u64),
    /// An unknown endpoint, a malformed session id or a method the
    /// endpoint does not take: answered with this error status and
    /// message.
    Reject(u16, String),
}

impl Route {
    fn parse(request: Request) -> Self {
        let (path, query) = request
            .target
            .split_once('?')
            .unwrap_or((&request.target, ""));
        let Some(rest) = path.strip_prefix("/sessions/") else {
            return match (request.method, path) {
                (Method::Get, "/metrics") => Self::Metrics,
                (Method::Get, "/healthz") => Self::Healthz,
                (Method::Post, "/sessions") => Self::Register(request.body),
                (_, "/metrics" | "/healthz" | "/sessions") => {
                    Self::Reject(405, "method not allowed on this endpoint".into())
                }
                _ => Self::Reject(404, format!("unknown endpoint {path:?}")),
            };
        };
        let (id_text, tail) = rest
            .split_once('/')
            .map_or((rest, None), |(id, tail)| (id, Some(tail)));
        let Ok(id) = id_text.parse::<u64>() else {
            return Self::Reject(404, format!("malformed session id {id_text:?}"));
        };
        match (request.method, tail) {
            (Method::Post, Some("power")) => Self::Power {
                id,
                full: query.split('&').any(|kv| kv == "full=1"),
                body: request.body,
            },
            (Method::Get, None) => Self::Read(id),
            (Method::Delete, None) => Self::Delete(id),
            (_, Some(other)) => Self::Reject(404, format!("unknown session endpoint {other:?}")),
            _ => Self::Reject(405, "method not allowed on this session endpoint".into()),
        }
    }

    /// Whether the request runs on the pool: only a registration, the
    /// one route that factorizes. Every other route is bounded by
    /// `max_tiles` kernel calls plus one render and is answered on the
    /// event loop that parsed it.
    fn on_pool(&self) -> bool {
        matches!(self, Self::Register(_))
    }
}

/// A request's start instant (the honest latency origin) and keep-alive
/// disposition; a registration on the pool carries it until its
/// completion is answered.
struct Pending {
    started: Instant,
    keep_alive: bool,
}

/// What a connection's nearest deadline does when it passes.
#[derive(Clone, Copy)]
enum Expiry {
    /// The client stopped reading its response: drop the connection.
    SlowReader,
    /// The request started at this instant is late or stalled: 408.
    RequestTimeout(Instant),
    /// A quiet keep-alive connection: reap it silently.
    Idle,
}

/// One nonblocking connection owned by an event loop.
struct Conn {
    id: u64,
    stream: TcpStream,
    parser: RequestParser,
    write: WriteBuffer,
    /// Last byte-level progress in either direction (idle/stall clock).
    last_activity: Instant,
    /// Last time the write buffer drained any bytes (slow-reader clock).
    last_write_progress: Instant,
    /// The request clock: `Some` exactly while the parser holds bytes of
    /// an unanswered request, set when its first byte is read — or, for
    /// a pipelined request, when its predecessor is popped. The request
    /// deadline runs from it and its latency is measured from it.
    request_started: Option<Instant>,
    /// The one registration currently evaluating on the pool, if any.
    inflight: Option<Pending>,
    /// Close once the write buffer drains (error responses, `Connection:
    /// close`, shed requests).
    close_after_flush: bool,
    /// The peer half-closed its sending side (read returned 0).
    read_closed: bool,
    /// Remove the connection at the end of this pass.
    dead: bool,
    /// Whether this connection holds an admission slot
    /// (`live_connections`). Shed connections are adopted *past* the
    /// cap just to deliver their 503, so they must not hold — or
    /// release — a slot.
    counted: bool,
}

impl Conn {
    /// Adopts an accepted stream into the loop. A socket that cannot be
    /// made nonblocking would wedge the whole event loop on its next
    /// read, so a failed `set_nonblocking` (or `set_nodelay`) marks the
    /// connection dead on arrival — it is reaped before ever being
    /// read — and counts an adopt error in `/metrics`.
    fn adopt(stream: TcpStream, id: u64, counted: bool, metrics: &Metrics) -> Self {
        let adopted = stream
            .set_nonblocking(true)
            .and_then(|()| stream.set_nodelay(true));
        if adopted.is_err() {
            metrics.record_adopt_error();
        }
        let now = Instant::now();
        Self {
            id,
            stream,
            parser: RequestParser::new(),
            write: WriteBuffer::new(),
            last_activity: now,
            last_write_progress: now,
            request_started: None,
            inflight: None,
            close_after_flush: false,
            read_closed: false,
            dead: adopted.is_err(),
            counted,
        }
    }

    /// Whether the connection takes in its next request: none in flight
    /// on the pool (one at a time bounds buffering) and no close pending.
    fn accepts_requests(&self) -> bool {
        self.inflight.is_none() && !self.close_after_flush
    }

    /// The nearest deadline and what it does: the slow-reader clock while
    /// the write buffer has bytes and, while the connection accepts
    /// requests, the request deadline and read-stall clock of a request
    /// being parsed, or else the idle clock of a quiet keep-alive
    /// connection. `None` when nothing is timed (e.g. the request is in
    /// flight on the pool — its completion arrives via the waker).
    fn next_deadline(&self, deadlines: &ConnDeadlines) -> Option<(Instant, Expiry)> {
        if self.dead {
            return None;
        }
        let unread = self.last_write_progress + deadlines.write_timeout;
        let slow_reader = (!self.write.is_empty()).then_some((unread, Expiry::SlowReader));
        let stall = self.last_activity + deadlines.read_timeout;
        let reading = match self.request_started {
            _ if !self.accepts_requests() => None,
            Some(started) => Some((
                stall.min(started + deadlines.request_deadline),
                Expiry::RequestTimeout(started),
            )),
            None if self.write.is_empty() => Some((stall, Expiry::Idle)),
            None => None,
        };
        slow_reader
            .into_iter()
            .chain(reading)
            .min_by_key(|&(at, _)| at)
    }
}

/// A loop's mailbox: the accept thread pushes accepted streams with
/// their admission flag (a stream shed at admission is adopted uncounted
/// with its 503 staged, so the accept thread never blocks on a slow
/// client), workers push completed responses, shutdown raises `stop`;
/// [`LoopShared::notify`] wakes the loop out of its blocked `poll(2)`.
#[derive(Default)]
struct LoopInbox {
    incoming: Vec<(TcpStream, bool)>,
    completions: Vec<(u64, Response)>,
    stop: bool,
}

impl LoopInbox {
    /// Whether the loop has anything to pick up (blocking in `poll(2)`
    /// would be wrong).
    fn has_work(&self) -> bool {
        !self.incoming.is_empty() || !self.completions.is_empty() || self.stop
    }
}

struct LoopShared {
    inbox: Mutex<LoopInbox>,
    /// Self-pipe write side: interrupts the loop's blocked `poll(2)`.
    waker: Waker,
}

impl LoopShared {
    /// Wakes the owning loop out of its `poll(2)`. Call after pushing
    /// into the inbox (and dropping the lock).
    fn notify(&self) {
        self.waker.wake();
    }
}

/// The `503` + `Retry-After` for a connection past the live-connection
/// cap; staged with the connection closing after it.
fn saturated_response() -> Response {
    Response::overloaded(
        503,
        "server saturated: the live-connection cap is reached; retry shortly",
        RETRY_AFTER_SECS,
    )
}

/// Records one answered request and stages its response behind the
/// connection's write queue.
fn finish_request(conn: &mut Conn, state: &ServerState, response: Response, pending: &Pending) {
    state
        .metrics
        .record(response.status, pending.started.elapsed());
    stage_response(conn, response, pending.keep_alive);
}

/// Stages a response (metrics already recorded by the caller).
fn stage_response(conn: &mut Conn, response: Response, request_keep_alive: bool) {
    let keep_alive = request_keep_alive && response.keep_alive;
    let response = Response {
        keep_alive,
        ..response
    };
    conn.write.push_response(&response);
    if !keep_alive {
        conn.close_after_flush = true;
    }
    let now = Instant::now();
    conn.last_activity = now;
    conn.last_write_progress = now;
}

/// Routes one parsed request by its route alone: a registration goes to
/// the pool (one in flight per connection), and everything else is
/// answered here on the loop. The fault schedule numbers the request
/// here, in parse order, before any handoff.
fn dispatch_request(
    conn: &mut Conn,
    request: Request,
    started: Instant,
    state: &Arc<ServerState>,
    shared: &Arc<LoopShared>,
    pool: &WorkerPool,
) {
    let pending = Pending {
        started,
        keep_alive: request.keep_alive,
    };
    let route = Route::parse(request);
    let directive = state
        .faults
        .as_ref()
        .map_or_else(FaultDirective::default, |f| f.begin_request());
    if !route.on_pool() {
        let response = state.handle(route, directive);
        finish_request(conn, state, response, &pending);
        return;
    }
    let conn_id = conn.id;
    let job_state = Arc::clone(state);
    let job_shared = Arc::clone(shared);
    pool.submit(move || {
        let response = job_state.handle(route, directive);
        let mut inbox = lock(&job_shared.inbox);
        inbox.completions.push((conn_id, response));
        drop(inbox);
        job_shared.notify();
    });
    conn.inflight = Some(pending);
}

/// One service pass over a connection: flush writes, read fresh bytes,
/// pop/dispatch requests, then act on a deadline that has passed.
/// Returns whether any progress was made (the loop's spin-window signal).
fn service_conn(
    conn: &mut Conn,
    state: &Arc<ServerState>,
    shared: &Arc<LoopShared>,
    pool: &WorkerPool,
    deadlines: &ConnDeadlines,
    chunk: &mut [u8],
) -> bool {
    if conn.dead {
        return false;
    }
    let mut progress = false;

    // 1. Drain the write buffer as far as the socket allows.
    if !conn.write.is_empty() {
        match conn.write.flush(&mut conn.stream) {
            Ok(0) => {}
            Ok(_) => {
                progress = true;
                let now = Instant::now();
                conn.last_write_progress = now;
                conn.last_activity = now;
            }
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
    if conn.write.is_empty() && conn.close_after_flush {
        conn.dead = true;
        return true;
    }

    // 2. Read whatever has arrived — only when able to act on it.
    if conn.accepts_requests() && !conn.read_closed {
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.feed(&chunk[..n]);
                    let now = Instant::now();
                    conn.last_activity = now;
                    conn.request_started.get_or_insert(now);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
    }

    // 3. Pop buffered requests (pipelining) until one needs the pool. A
    //    pop that leaves bytes behind re-arms the request clock for the
    //    request they start, before this one is dispatched.
    while conn.accepts_requests() {
        let Some(started) = conn.request_started else {
            break;
        };
        match conn.parser.next_request() {
            Ok(Some(request)) => {
                progress = true;
                conn.request_started = (conn.parser.buffered() > 0).then(Instant::now);
                dispatch_request(conn, request, started, state, shared, pool);
            }
            Ok(None) => break,
            Err(e) => {
                progress = true;
                conn.request_started = None;
                let response = Response::from_error(&e);
                state.metrics.record(response.status, started.elapsed());
                stage_response(conn, response, false);
            }
        }
    }

    // 4. A half-closed peer with nothing pending (or an abandoned
    //    partial request) is reaped silently, like the blocking server's
    //    EOF return.
    if conn.read_closed && conn.inflight.is_none() && conn.write.is_empty() {
        conn.dead = true;
        return true;
    }

    // 5. A passed deadline drops a slow reader, answers a late or
    //    stalled request 408, or reaps an idle keep-alive connection.
    let now = Instant::now();
    if let Some((_, expiry)) = conn.next_deadline(deadlines).filter(|&(at, _)| at <= now) {
        progress = true;
        match expiry {
            Expiry::SlowReader | Expiry::Idle => conn.dead = true,
            Expiry::RequestTimeout(started) => {
                conn.request_started = None;
                state.metrics.record_timeout(started.elapsed());
                let response = Response::error(
                    408,
                    "request did not complete within the server's request deadline",
                );
                stage_response(conn, response, false);
            }
        }
    }
    progress
}

/// The directions `service_conn` can currently act on for `conn`: read
/// while a fresh request could be parsed, write while the buffer has
/// bytes to drain. `None` (don't poll this fd at all) when neither —
/// e.g. a request is in flight on the pool, where polling the fd with
/// no interest bits would still surface hang-ups and busy-spin the
/// loop.
fn conn_interest(conn: &Conn) -> Option<PollInterest> {
    if conn.dead {
        return None;
    }
    let read = conn.accepts_requests() && !conn.read_closed;
    let write = !conn.write.is_empty();
    if !read && !write {
        return None;
    }
    Some(PollInterest {
        fd: poller::stream_fd(&conn.stream),
        read,
        write,
    })
}

/// An event loop: owns its connections, discovers readiness via a
/// blocking `poll(2)` with a deadline-derived timeout, and runs the
/// service pass over every connection after each wakeup.
fn run_event_loop(
    state: &Arc<ServerState>,
    shared: &Arc<LoopShared>,
    pool: &WorkerPool,
    deadlines: ConnDeadlines,
    mut poller: Poller,
) {
    let mut conns: Vec<Conn> = Vec::new();
    // Completion routing: conn id → slot in `conns`, rebuilt on reap —
    // O(1) delivery per completion instead of a linear scan (quadratic
    // at high fanout).
    let mut slots: HashMap<u64, usize> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    // One `read(2)` takes up to 64 KB, so a 32×32 registration body
    // (≈ 63 KB) arrives in one or two reads rather than sixteen, and the
    // parser's buffer grows once instead of doubling its way up.
    let mut chunk = vec![0u8; 64 * 1024];
    let mut interests: Vec<PollInterest> = Vec::new();
    let mut spin_until = Instant::now();
    // Set when the last blocked poll reported socket readiness; if the
    // following service pass then makes no progress, that readiness was
    // spurious (e.g. a peer reset between poll and read) and is counted.
    let mut poll_reported_ready = false;
    loop {
        let (incoming, completions, stop) = {
            let mut inbox = lock(&shared.inbox);
            (
                std::mem::take(&mut inbox.incoming),
                std::mem::take(&mut inbox.completions),
                inbox.stop,
            )
        };
        if stop {
            let counted = conns.iter().filter(|c| c.counted).count();
            state.live_connections.fetch_sub(counted, Ordering::SeqCst);
            return;
        }
        let mut progress = !incoming.is_empty() || !completions.is_empty();
        for (stream, admitted) in incoming {
            next_conn_id += 1;
            slots.insert(next_conn_id, conns.len());
            let mut conn = Conn::adopt(stream, next_conn_id, admitted, &state.metrics);
            if !admitted {
                // Owed its 503: the normal nonblocking write path — and
                // its slow-reader timeout — delivers it.
                stage_response(&mut conn, saturated_response(), false);
            }
            conns.push(conn);
        }
        for (conn_id, response) in completions {
            // The owning connection may have died while the job ran; the
            // request is still recorded (it was answered, the answer was
            // undeliverable) so the accounting invariant holds.
            if let Some(&slot) = slots.get(&conn_id) {
                let conn = &mut conns[slot];
                debug_assert_eq!(conn.id, conn_id, "stale completion slot");
                if let Some(pending) = conn.inflight.take() {
                    finish_request(conn, state, response, &pending);
                }
            }
        }
        for conn in &mut conns {
            progress |= service_conn(conn, state, shared, pool, &deadlines, &mut chunk);
        }
        // A dead connection with a job still in flight lingers as a
        // tombstone until its completion arrives, so the response is
        // recorded against the real first-byte instant.
        let before = conns.len();
        let mut reaped_counted = 0usize;
        conns.retain(|c| {
            let keep = !c.dead || c.inflight.is_some();
            if !keep && c.counted {
                reaped_counted += 1;
            }
            keep
        });
        if conns.len() != before {
            progress = true;
            if reaped_counted > 0 {
                state
                    .live_connections
                    .fetch_sub(reaped_counted, Ordering::SeqCst);
            }
            slots.clear();
            for (slot, conn) in conns.iter().enumerate() {
                slots.insert(conn.id, slot);
            }
        }
        if poll_reported_ready {
            poll_reported_ready = false;
            if !progress {
                state.metrics.record_poll_spurious();
            }
        }

        let now = Instant::now();
        if progress {
            spin_until = now + SPIN_WINDOW;
            continue;
        }
        if now < spin_until {
            std::thread::yield_now();
            continue;
        }
        // Re-check the inbox under its lock before blocking; a wake
        // issued after this check still ends the poll, because the wake
        // byte stays queued in the self-pipe.
        if lock(&shared.inbox).has_work() {
            continue;
        }
        interests.clear();
        interests.extend(conns.iter().filter_map(conn_interest));
        let timeout = conns
            .iter()
            .filter_map(|c| c.next_deadline(&deadlines).map(|(at, _)| at))
            .min()
            .map(|t| t.saturating_duration_since(now));
        match poller.wait(&interests, timeout) {
            Ok(outcome) => {
                state.metrics.record_poll_wakeup();
                poll_reported_ready = outcome.ready > 0 && !outcome.woken;
            }
            // poll(2) failing outright (ENOMEM and friends) has no
            // recovery that preserves blocking semantics; park for a
            // bounded tick rather than spin.
            Err(_) => std::thread::sleep(IDLE_TICK),
        }
    }
}

/// The accept loop: admission control, accept-error backoff, and
/// round-robin handoff to the event loops. A connection past the cap is
/// shed: its `503` + `Retry-After` is counted here but *written* by the
/// event loop that adopts it uncounted, so a stalled or slow shed client
/// can never serialize the accept thread.
fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    loops: &[Arc<LoopShared>],
    max_connections: usize,
    stop: &AtomicBool,
) {
    let mut next_loop = 0usize;
    let mut consecutive_errors: u32 = 0;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => {
                consecutive_errors = 0;
                stream
            }
            Err(_) => {
                // Persistent accept errors (fd exhaustion and friends)
                // must not busy-spin this thread at 100% CPU: count the
                // error and back off, doubling from 1 ms to ~128 ms.
                state.metrics.record_accept_error();
                let backoff = Duration::from_millis(1 << consecutive_errors.min(7));
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(backoff);
                continue;
            }
        };
        let started = Instant::now();
        let target = &loops[next_loop % loops.len()];
        next_loop = next_loop.wrapping_add(1);
        let admitted = state.live_connections.load(Ordering::SeqCst) < max_connections;
        if admitted {
            state.live_connections.fetch_add(1, Ordering::SeqCst);
        } else {
            state.metrics.record_shed(started.elapsed());
        }
        let mut inbox = lock(&target.inbox);
        inbox.incoming.push((stream, admitted));
        drop(inbox);
        target.notify();
    }
}

/// A running server: accept thread + event loops + worker pool, shut
/// down via [`Server::shutdown`] (or drop).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    loop_handles: Vec<std::thread::JoinHandle<()>>,
    loops: Vec<Arc<LoopShared>>,
    /// Dropped last in shutdown so queued registrations drain after the
    /// loops exit.
    pool: Option<Arc<WorkerPool>>,
    /// Reaches the journal at shutdown.
    state: Arc<ServerState>,
    /// Whether the next shutdown compacts the journal. Cleared by the
    /// first shutdown, so compaction runs at most once, and by
    /// [`Server::abort`] to simulate a crash in-process.
    graceful: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread and event loops in the background.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a failure to build an event loop's
    /// `poll(2)` self-pipe (fd exhaustion), or a thread-spawn failure.
    pub fn start(addr: &str, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::new(config.workers));
        let max_connections = config.max_connections.unwrap_or(5 * config.workers);
        // Build every loop's poller before anything spawns, so a failure
        // leaves no thread behind.
        let pollers = (0..config.event_loops.max(1))
            .map(|_| Poller::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        // Open the journal (and replay any previous run's records)
        // before the session table exists, so every eviction — recovery's
        // included — can journal its tombstone; a journal that fails to
        // open is off, never a startup failure.
        let (journal, recovery) = Journal::open_or_off(config.persist.clone());
        let state = Arc::new(ServerState {
            engine: ChipEngine::new().with_workers(1),
            sessions: Mutex::new(LruCache::new(config.max_sessions)),
            next_id: AtomicU64::new(recovery.next_id),
            metrics: Metrics::new(),
            max_tiles: config.max_tiles,
            kernel_budget: config.matrix_cache_cap,
            pool_monitor: pool.monitor(),
            faults: config.faults.clone(),
            live_connections: AtomicUsize::new(0),
            journal,
        });
        // Re-publish the recovered sessions before any thread can serve:
        // each one is evaluated eagerly so its held report — and
        // therefore its next delta response — is bitwise what the
        // never-crashed server would have answered. Insertion order is
        // the journal's touch order, so LRU recency survives too (and an
        // over-quota or over-budget recovery evicts the *stalest*
        // sessions, journaling their tombstones like any other eviction).
        // A session over the kernel budget on its own is dropped unevaluated
        // with a tombstone, so a later start does not weigh it again.
        for session in recovery.sessions {
            let id = session.id;
            match state.admit(session.spec) {
                Ok(admitted) => state.publish(id, admitted),
                Err((status, reason)) => {
                    eprintln!("ttsv-serve: warning: dropping recovered session {id}: {reason}");
                    if status == 413 {
                        state.journal.record_evict(id);
                    }
                }
            }
        }
        let deadlines = ConnDeadlines {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            request_deadline: config.request_deadline,
        };
        let mut loops = Vec::with_capacity(pollers.len());
        let mut loop_handles = Vec::with_capacity(pollers.len());
        for (i, (poller, waker)) in pollers.into_iter().enumerate() {
            let shared = Arc::new(LoopShared {
                inbox: Mutex::default(),
                waker,
            });
            let loop_state = Arc::clone(&state);
            let loop_shared = Arc::clone(&shared);
            let loop_pool = Arc::clone(&pool);
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("ttsv-serve-loop-{i}"))
                    .spawn(move || {
                        run_event_loop(&loop_state, &loop_shared, &loop_pool, deadlines, poller);
                    })?,
            );
            loops.push(shared);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_state = Arc::clone(&state);
        let accept_loops = loops.clone();
        let accept_handle = std::thread::Builder::new()
            .name("ttsv-serve-accept".into())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &accept_state,
                    &accept_loops,
                    max_connections,
                    &accept_stop,
                );
            })?;
        Ok(Self {
            addr: local,
            stop,
            accept_handle: Some(accept_handle),
            loop_handles,
            loops,
            pool: Some(pool),
            state,
            graceful: true,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the event loops, drains in-flight
    /// registrations, and joins every background thread. A live journal
    /// is then compacted, so the next start replays the folded snapshot.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Shuts down *without* the clean-shutdown path: threads are joined
    /// (so the process stays reusable) but the journal gets no final
    /// compaction — exactly the on-disk state a
    /// `SIGKILL` after the last completed append would leave. The
    /// crash-recovery suite restarts from the same state dir and pins
    /// recovered responses bitwise.
    pub fn abort(mut self) {
        self.graceful = false;
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
        for shared in &self.loops {
            lock(&shared.inbox).stop = true;
            shared.notify();
        }
        for handle in self.loop_handles.drain(..) {
            let _ = handle.join();
        }
        // Last out: dropping the pool joins the workers, so in-flight
        // registrations finish (their completions land in dead inboxes)
        // before shutdown returns. The loops, the pool's only submitters,
        // are already joined, so nothing is submitted to a stopping pool.
        self.pool = None;
        // Only after every thread that could append has exited: compact
        // the journal (skipped by `abort`, by a second call from `drop`,
        // and by the journal itself when it is off or degraded).
        if std::mem::take(&mut self.graceful) {
            self.state.journal.clean_shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{trace_register_body, Client};

    /// The connection cap is the one admission gate: with the only worker
    /// stalled in one registration and every other slot of an
    /// eight-connection cap holding another, all seven wait in the pool's
    /// queue (read from the `/metrics` document while the worker is
    /// stalled) and each is answered 201. Nothing is shed.
    #[test]
    fn the_connection_cap_alone_bounds_the_registration_queue() {
        const CAP: usize = 8;
        const STALL: Duration = Duration::from_secs(3);
        let faults = ServerFaults::new().engine_delay_on(1, STALL);
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(1)
                .with_event_loops(1)
                .with_max_connections(CAP)
                .with_faults(Arc::new(faults)),
        )
        .expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let register = |session: usize| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client
                    .request("POST", "/sessions", &trace_register_body(4, session))
                    .expect("register")
            })
        };
        // Whichever registration the loop parses first takes ordinal 1
        // and stalls the worker; the other seven queue behind it.
        let clients: Vec<_> = (0..CAP).map(register).collect();
        let give_up = Instant::now() + STALL / 2;
        while server.state.pool_monitor.queue_depth() != CAP - 1 {
            assert!(Instant::now() < give_up, "never all queued");
            std::thread::sleep(Duration::from_millis(1));
        }

        let overload = |key: &str| {
            let doc: serde::json::Value =
                serde::json::from_str(&server.state.metrics_json()).expect("metrics JSON");
            doc.get("overload")
                .and_then(|block| block.get(key))
                .and_then(serde::json::Value::as_usize)
                .expect("an overload counter")
        };
        assert_eq!(overload("queue_depth"), CAP - 1);
        assert_eq!(overload("busy_workers"), 1);
        assert_eq!(overload("shed_503"), 0);
        for client in clients {
            let (status, body) = client.join().expect("client thread");
            assert_eq!(status, 201, "{body}");
        }
        assert_eq!(overload("shed_503"), 0);
        server.shutdown();
    }
}
