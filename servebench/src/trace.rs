//! The traced in-process replay: the run's generated requests go through
//! each layer's public functions in the order `server.rs` calls them,
//! with a span around every call.
//!
//! Per request: HTTP parse → body parse → `update_power_map` (with the
//! rollback copy the server keeps) → `evaluate_factored` → journal append
//! (journaled workloads) → render → `Response::to_bytes`. Layers a
//! workload's requests never reach are measured by off-path probes on the
//! workload's own data (`Phase::Probe`), so every per-layer metric exists
//! on every workload; DESIGN.md lists which numbers are probes.
//!
//! Spans are `{name, start, end, parent, request}`, kept in memory and
//! written once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ttsv_chip::{ChipEngine, ChipReport};
use ttsv_serve::http::{RequestParser, Response};
use ttsv_serve::metrics::PersistStats;
use ttsv_serve::persist::{FsyncPolicy, Journal, PersistConfig};
use ttsv_serve::protocol::{parse_power_update, parse_register, render_delta, SessionSpec};
use ttsv_serve::server::ServerConfig;

use crate::gen::{session_id, Inputs, Kind, Request, Rng};
use crate::stats::median;

/// Which part of the run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up registrations and warm-up.
    Setup,
    /// The timed (open-loop) request stream.
    Timed,
    /// An off-path measurement.
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Probe => "probe",
        }
    }
}

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call it covers.
    pub name: &'static str,
    /// Start, nanoseconds since the replay began.
    pub start: u64,
    /// End, nanoseconds since the replay began.
    pub end: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The request (or probe) it belongs to.
    pub request: usize,
    /// The part of the run.
    pub phase: Phase,
}

impl Span {
    #[allow(clippy::cast_precision_loss)]
    fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Per request (or probe): the request kind, for served requests.
    kinds: Vec<Option<Kind>>,
}

impl Tracer {
    #[allow(clippy::cast_possible_truncation)]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request (or probe) and opens its root span.
    fn begin(&mut self, name: &'static str, kind: Option<Kind>, phase: Phase) -> usize {
        self.kinds.push(kind);
        self.open(name, None, phase)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, phase: Phase) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.kinds.len() - 1,
            phase,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a child span of `parent`.
    fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let phase = self.spans[parent].phase;
        let span = self.open(name, Some(parent), phase);
        let out = f();
        self.close(span);
        out
    }
}

/// Engine counters summed over the timed requests' evaluations.
#[derive(Debug, Default, Clone, Copy)]
struct EngineWork {
    solves: usize,
    factorizations: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl EngineWork {
    fn snapshot(engine: &ChipEngine) -> Self {
        Self {
            solves: engine.solves(),
            factorizations: engine.factorizations(),
            hits: engine.scenario_hits(),
            misses: engine.scenario_misses(),
            evictions: engine.evictions(),
        }
    }

    fn add_since(&mut self, before: Self, after: Self) {
        self.solves += after.solves - before.solves;
        self.factorizations += after.factorizations - before.factorizations;
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
    }
}

struct Session {
    spec: SessionSpec,
    last: ChipReport,
}

/// What the last request evaluated: the rescan and Model B probes' input.
#[derive(Debug, Clone, Copy)]
enum Last {
    Session(usize),
    Registered,
}

/// The replayed server state.
struct Replay {
    engine: ChipEngine,
    /// The set-up sessions, by index.
    sessions: Vec<Session>,
    /// The latest timed registration.
    registered: Option<Session>,
    last: Option<Last>,
    journal: Option<Journal>,
    journal_stats: Arc<PersistStats>,
    next_id: u64,
    timed_work: EngineWork,
    timed_requests: usize,
    changed_fracs: Vec<f64>,
    timed_journal_bytes: u64,
}

/// The per-layer result of a traced replay.
#[derive(Debug)]
pub struct TraceResult {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median traced request duration (µs) per request kind of the timed
    /// stream.
    pub request_p50_us: BTreeMap<&'static str, f64>,
    /// Requests whose child spans add up to more than the request's own
    /// span (must be zero).
    pub span_violations: usize,
    /// Spans recorded.
    pub spans: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn evaluate(
    engine: &ChipEngine,
    tracer: &mut Tracer,
    root: usize,
    spec: &SessionSpec,
) -> Result<ChipReport, String> {
    tracer
        .child(root, "engine.evaluate", || {
            engine.evaluate_factored(&spec.plan, &spec.model)
        })
        .map_err(err)
}

/// Runs one journal append inside a span; returns the bytes it wrote.
fn append(
    journal: Option<&Journal>,
    stats: &PersistStats,
    tracer: &mut Tracer,
    root: usize,
    record: impl FnOnce(&Journal),
) -> u64 {
    let Some(journal) = journal else {
        return 0;
    };
    let before = stats.snapshot().bytes_written;
    tracer.child(root, "persist.append", || record(journal));
    stats.snapshot().bytes_written - before
}

impl Replay {
    fn last_session(&self) -> &Session {
        match self.last.expect("a request ran before") {
            Last::Session(i) => &self.sessions[i],
            Last::Registered => self.registered.as_ref().expect("registered above"),
        }
    }

    fn serve(
        &mut self,
        tracer: &mut Tracer,
        request: &Request,
        phase: Phase,
    ) -> Result<(), String> {
        let root = tracer.begin("request", Some(request.kind), phase);
        let parsed = tracer.child(root, "http.parse", || {
            let mut parser = RequestParser::new();
            parser.feed(&request.wire);
            parser.next_request()
        });
        let parsed = parsed
            .map_err(|e| e.message)?
            .ok_or("a generated request did not parse completely")?;
        let before = EngineWork::snapshot(&self.engine);
        let (status, body) = match request.kind {
            Kind::Register => (201, self.register(tracer, root, &parsed.body, phase)?),
            Kind::Update => (
                200,
                self.update(tracer, root, request.session, &parsed.body, phase)?,
            ),
            Kind::Read => (200, self.read(tracer, root, request.session)?),
        };
        if phase == Phase::Timed {
            self.timed_work
                .add_since(before, EngineWork::snapshot(&self.engine));
            self.timed_requests += 1;
        }
        let wire = tracer.child(root, "http.encode", || {
            Response::json(status, body).to_bytes()
        });
        std::hint::black_box(wire);
        tracer.close(root);
        Ok(())
    }

    fn register(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        body: &[u8],
        phase: Phase,
    ) -> Result<String, String> {
        let spec = tracer
            .child(root, "protocol.parse_register", || parse_register(body))
            .map_err(|e| e.0)?;
        let report = evaluate(&self.engine, tracer, root, &spec)?;
        let id = self.next_id;
        self.next_id += 1;
        let bytes = append(
            self.journal.as_ref(),
            &self.journal_stats,
            tracer,
            root,
            |j| {
                j.record_register(id, body);
            },
        );
        let json = tracer.child(root, "report.to_json", || {
            format!("{{\"session\":{id},\"report\":{}}}", report.to_json())
        });
        let session = Session { spec, last: report };
        if phase == Phase::Setup {
            self.sessions.push(session);
            self.last = Some(Last::Session(self.sessions.len() - 1));
        } else {
            self.timed_journal_bytes += bytes;
            self.registered = Some(session);
            self.last = Some(Last::Registered);
        }
        Ok(json)
    }

    fn update(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        session: usize,
        body: &[u8],
        phase: Phase,
    ) -> Result<String, String> {
        let Self {
            engine,
            sessions,
            journal,
            journal_stats,
            last,
            changed_fracs,
            timed_journal_bytes,
            ..
        } = self;
        let s = &mut sessions[session];
        let (plane, map) = tracer
            .child(root, "protocol.parse_update", || {
                parse_power_update(body, &s.spec.plan)
            })
            .map_err(|e| e.0)?;
        tracer
            .child(root, "chip.update_power_map", || {
                // The server keeps the previous map for rollback.
                let previous = s.spec.plan.plane_maps()[plane].clone();
                let applied = s.spec.plan.update_power_map(plane, map);
                std::hint::black_box(previous);
                applied
            })
            .map_err(err)?;
        let report = evaluate(engine, tracer, root, &s.spec)?;
        let id = session_id(session) as u64;
        let bytes = append(journal.as_ref(), journal_stats, tracer, root, |j| {
            j.record_update(id, plane, body);
        });
        let delta = tracer.child(root, "protocol.render_delta", || {
            render_delta(&s.last, &report)
        });
        if phase == Phase::Timed {
            *timed_journal_bytes += bytes;
            changed_fracs.push(changed_frac(&s.last, &report));
        }
        s.last = report;
        *last = Some(Last::Session(session));
        Ok(delta)
    }

    fn read(&mut self, tracer: &mut Tracer, root: usize, session: usize) -> Result<String, String> {
        let spec = &self.sessions[session].spec;
        let report = evaluate(&self.engine, tracer, root, spec)?;
        let json = tracer.child(root, "report.to_json", || report.to_json());
        self.last = Some(Last::Session(session));
        Ok(json)
    }

    /// Re-evaluates the plan the last request evaluated: every tile hits
    /// the scenario tier, so this is the engine's bookkeeping alone.
    fn rescan(&self, tracer: &mut Tracer) -> Result<(), String> {
        let spec = &self.last_session().spec;
        let solves = self.engine.solves();
        let root = tracer.begin("engine.rescan", None, Phase::Probe);
        let report = self
            .engine
            .evaluate_factored(&spec.plan, &spec.model)
            .map_err(err)?;
        tracer.close(root);
        std::hint::black_box(report);
        if self.engine.solves() != solves {
            return Err("a rescan of an unchanged plan solved tiles".into());
        }
        Ok(())
    }
}

#[allow(clippy::cast_precision_loss)]
fn changed_frac(prev: &ChipReport, next: &ChipReport) -> f64 {
    let changed = prev
        .delta_t
        .iter()
        .zip(&next.delta_t)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    changed as f64 / next.delta_t.len() as f64
}

/// Rescan probe cadence: one per this many timed requests.
const RESCAN_EVERY: usize = 4;
/// Factorizations timed per run.
const FACTORIZE_REPEATS: usize = 5;
/// Back-substitutions timed per run.
const SOLVE_REPEATS: usize = 200;
/// Off-path body-parse and render probes per run.
const PROBE_REPEATS: usize = 64;
/// Appends of the off-path journal probe (journal-off workloads).
const JOURNAL_PROBE_RECORDS: usize = 256;
/// Timed reopenings of the crashed journal.
const OPEN_REPEATS: usize = 3;

/// Replays `inputs` (set-up, warm-up, then the timed stream `timed`) in
/// process and derives the per-layer metrics. Spans go to `spans_path`;
/// journals live under `work`.
///
/// # Errors
///
/// Any layer failing on a generated request, a rescan that solves, or an
/// I/O failure on the journal or span file.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn replay(
    inputs: &Inputs,
    timed: &[&Request],
    seed: u64,
    work: &Path,
    spans_path: &Path,
) -> Result<TraceResult, String> {
    let defaults = ServerConfig::default();
    let journal_stats = Arc::new(PersistStats::default());
    let journaled = inputs.workload.journaled();
    let journal_dir = work.join("trace-journal");
    let journal = if journaled {
        let config = PersistConfig::new(&journal_dir).with_fsync(FsyncPolicy::Always);
        Some(
            Journal::open(config, Arc::clone(&journal_stats))
                .map_err(err)?
                .0,
        )
    } else {
        None
    };
    let mut replay = Replay {
        engine: ChipEngine::new()
            .with_workers(1)
            .with_scenario_cache_cap(defaults.scenario_cache_cap)
            .with_matrix_cache_cap(defaults.matrix_cache_cap),
        sessions: Vec::new(),
        registered: None,
        last: None,
        journal,
        journal_stats: Arc::clone(&journal_stats),
        next_id: 1,
        timed_work: EngineWork::default(),
        timed_requests: 0,
        changed_fracs: Vec::new(),
        timed_journal_bytes: 0,
    };
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        kinds: Vec::new(),
    };

    for request in inputs.registrations.iter().chain(&inputs.warmup) {
        replay.serve(&mut tracer, request, Phase::Setup)?;
    }
    for (i, request) in timed.iter().enumerate() {
        replay.serve(&mut tracer, request, Phase::Timed)?;
        if i % RESCAN_EVERY == 0 {
            replay.rescan(&mut tracer)?;
        }
    }

    // Model B on one of the workload's own tiles.
    let mut rng = Rng::new(seed, 99);
    let spec = replay.last_session().spec.clone();
    let (nx, ny) = (spec.plan.nx(), spec.plan.ny());
    let (ix, iy) = (rng.below(nx), rng.below(ny));
    let cell = spec.plan.tile_cell(ix, iy).map_err(err)?;
    let mut factorization = None;
    for _ in 0..FACTORIZE_REPEATS {
        let root = tracer.begin("model_b.factorize", None, Phase::Probe);
        let fact = spec.model.factorize(&cell.scenario).map_err(err)?;
        tracer.close(root);
        factorization = Some(fact);
    }
    let factorization = factorization.expect("factorized at least once");
    let powers = spec.plan.tile_cell_powers(ix, iy);
    for _ in 0..SOLVE_REPEATS {
        let root = tracer.begin("model_b.solve", None, Phase::Probe);
        let t = factorization.max_delta_t(&powers).map_err(err)?;
        tracer.close(root);
        std::hint::black_box(t);
    }

    // Body-parse and delta-render probes where the stream has no updates.
    if replay.changed_fracs.is_empty() {
        let report = replay.last_session().last.clone();
        for _ in 0..PROBE_REPEATS {
            let (ax, ay, bx, by) = (rng.below(nx), rng.below(ny), rng.below(nx), rng.below(ny));
            let body = format!(
                "{{\"plane\":0,\"updates\":[[{ax},{ay},{}],[{bx},{by},{}]]}}",
                0.01 + rng.unit() * 0.02,
                0.01 + rng.unit() * 0.02
            );
            let root = tracer.begin("protocol.parse_update", None, Phase::Probe);
            let parsed = parse_power_update(body.as_bytes(), &spec.plan).map_err(|e| e.0)?;
            tracer.close(root);
            std::hint::black_box(parsed);
            let mut next = report.clone();
            for i in [ay * nx + ax, by * nx + bx] {
                next.delta_t[i] *= 1.0 + 1e-3 * (1.0 + rng.unit());
            }
            let root = tracer.begin("protocol.render_delta", None, Phase::Probe);
            let delta = render_delta(&report, &next);
            tracer.close(root);
            std::hint::black_box(delta);
            replay.changed_fracs.push(changed_frac(&report, &next));
        }
    }

    // The journal: reopen the replay's own (journaled workloads), or
    // append the stream's first bodies to an off-path one.
    let probe_bytes_per_record = if let Some(journal) = replay.journal.take() {
        drop(journal); // a crash: no compaction, no clean marker
        None
    } else {
        let config = PersistConfig::new(&journal_dir).with_fsync(FsyncPolicy::Always);
        let (journal, _) = Journal::open(config, Arc::clone(&journal_stats)).map_err(err)?;
        let mut records = 0u64;
        let sources = inputs.registrations.iter().chain(timed.iter().copied());
        let writes = sources.filter(|r| r.kind != Kind::Read);
        for (i, request) in writes.take(JOURNAL_PROBE_RECORDS).enumerate() {
            let root = tracer.begin("persist.append", None, Phase::Probe);
            if request.kind == Kind::Register {
                journal.record_register(i as u64 + 1, &request.body);
            } else {
                journal.record_update(session_id(request.session) as u64, 0, &request.body);
            }
            tracer.close(root);
            records += 1;
        }
        drop(journal);
        Some(journal_stats.snapshot().bytes_written as f64 / records.max(1) as f64)
    };
    let mut open_ms = Vec::new();
    for _ in 0..OPEN_REPEATS {
        let started = Instant::now();
        let config = PersistConfig::new(&journal_dir).with_fsync(FsyncPolicy::Always);
        let opened = Journal::open(config, Arc::new(PersistStats::default())).map_err(err)?;
        open_ms.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(opened);
    }
    let _ = std::fs::remove_dir_all(&journal_dir);

    // Spans → metrics.
    let spans = &tracer.spans;
    let layer = |name: &str| -> Vec<f64> {
        for phase in [Phase::Timed, Phase::Setup, Phase::Probe] {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name && s.phase == phase)
                .map(Span::micros)
                .collect();
            if !v.is_empty() {
                return v;
            }
        }
        Vec::new()
    };
    let layer_median = |name: &str| -> Result<f64, String> {
        let v = layer(name);
        if v.is_empty() {
            return Err(format!("no {name} span was recorded"));
        }
        Ok(median(&v))
    };
    let work_done = replay.timed_work;
    let timed_n = replay.timed_requests.max(1) as f64;
    let stats = journal_stats.snapshot();
    let appends = layer("persist.append");
    let mut metrics = BTreeMap::new();
    metrics.insert("engine.evaluate_us", layer_median("engine.evaluate")?);
    metrics.insert("engine.rescan_us", layer_median("engine.rescan")?);
    metrics.insert("engine.solves_per_req", work_done.solves as f64 / timed_n);
    metrics.insert(
        "engine.factorizations_per_req",
        work_done.factorizations as f64 / timed_n,
    );
    metrics.insert(
        "engine.scenario_hit_ratio",
        work_done.hits as f64 / (work_done.hits + work_done.misses).max(1) as f64,
    );
    metrics.insert("engine.evictions", work_done.evictions as f64);
    metrics.insert("model_b.factorize_us", layer_median("model_b.factorize")?);
    metrics.insert("model_b.solve_us", layer_median("model_b.solve")?);
    metrics.insert(
        "protocol.parse_update_us",
        layer_median("protocol.parse_update")?,
    );
    metrics.insert(
        "protocol.parse_register_us",
        layer_median("protocol.parse_register")?,
    );
    metrics.insert(
        "protocol.render_delta_us",
        layer_median("protocol.render_delta")?,
    );
    metrics.insert("protocol.changed_frac", median(&replay.changed_fracs));
    metrics.insert("report.to_json_us", layer_median("report.to_json")?);
    metrics.insert("persist.append_us", layer_median("persist.append")?);
    metrics.insert(
        "persist.append_max_us",
        appends.iter().copied().fold(0.0, f64::max),
    );
    metrics.insert("persist.compactions", stats.compactions as f64);
    metrics.insert(
        "persist.bytes_per_req",
        probe_bytes_per_record.unwrap_or(replay.timed_journal_bytes as f64 / timed_n),
    );
    metrics.insert("persist.open_ms", median(&open_ms));
    metrics.insert("persist.write_errors", stats.write_errors as f64);
    metrics.insert("http.parse_us", layer_median("http.parse")?);
    metrics.insert("http.encode_us", layer_median("http.encode")?);

    // Root spans per kind, and the children-within-parent check.
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.end - s.start;
        }
    }
    let span_violations = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.parent.is_none() && children_ns[*i] > s.end - s.start)
        .count();
    let mut request_p50_us = BTreeMap::new();
    for kind in [Kind::Register, Kind::Update, Kind::Read] {
        let roots: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.phase == Phase::Timed)
            .filter(|s| tracer.kinds[s.request] == Some(kind))
            .map(Span::micros)
            .collect();
        if !roots.is_empty() {
            request_p50_us.insert(kind.name(), median(&roots));
        }
    }

    write_spans(spans, spans_path)?;
    Ok(TraceResult {
        metrics,
        request_p50_us,
        span_violations,
        spans: spans.len(),
    })
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"phase\":\"{}\"}}",
            s.name,
            s.start,
            s.end,
            s.request,
            s.phase.name()
        );
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}
