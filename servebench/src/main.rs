//! `servebench`: the serving benchmark for `ttsv-serve`.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1 \
//!            --serve-bin PATH --work-dir PATH
//! ```
//!
//! Each run renders its inputs from the seed, then runs three rounds, each
//! against a freshly spawned `serve` process: set-up, an open-loop latency
//! phase and a closed-loop throughput phase over loopback. It verifies
//! every answer bitwise against in-process evaluation and prints a
//! human-readable table followed by one JSON line. With `--trace 1` it
//! also replays the same requests in process through each layer's public
//! functions and reports per-layer metrics instead. `run.sh` builds both
//! binaries and supplies `--serve-bin`/`--work-dir`; DESIGN.md records
//! the workloads, rates, and predictions.

mod gen;
mod loadgen;
mod spawn;
mod stats;
mod trace;
mod verify;
mod wire;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::json::Value;
use ttsv_chip::ChipEngine;
use ttsv_serve::protocol::parse_register;

use gen::{Inputs, Kind, Request, Rng, Workload};
use loadgen::Outcome;
use spawn::ServeProcess;
use stats::{guarded_percentile, median, sorted};
use wire::Connection;

/// Share of `--seconds` spent in the open-loop latency phase; the rest is
/// the closed-loop throughput phase.
const LATENCY_SHARE: f64 = 0.55;
/// Set-ups per run beyond the rounds' own (spawn → registrations →
/// warm-up, then kill); `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 4;
/// Registrations of `cold_register_32` verified against the mirror.
const COLD_SAMPLES: usize = 6;
/// Windows per round. Each latency window holds at least
/// [`MIN_WINDOW_REQUESTS`] consecutive open-loop requests, and each
/// throughput window an equal share of the closed-loop completions.
const MAX_WINDOWS: usize = 16;
/// Which windows the end-to-end figures describe. Other tenants of a
/// shared host slow some windows down and never speed one up, so the
/// figures are the tenth percentile of the window latencies and the
/// ninetieth of the window rates: what the program does on a calm host.
/// A slower program moves every window, and with them these.
const CALM_LATENCY_QUANTILE: f64 = 0.1;
const CALM_RATE_QUANTILE: f64 = 0.9;
/// Smallest latency window, so a window's p50 rests on enough samples
/// to be steady.
const MIN_WINDOW_REQUESTS: usize = 100;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_us", "us"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 31] = [
    ("engine.evaluate_us", "us"),
    ("engine.rescan_us", "us"),
    ("engine.solves_per_req", "count"),
    ("engine.factorizations_per_req", "count"),
    ("engine.scenario_hit_ratio", "fraction"),
    ("engine.evictions", "count"),
    ("model_b.factorize_us", "us"),
    ("model_b.solve_us", "us"),
    ("protocol.parse_update_us", "us"),
    ("protocol.parse_register_us", "us"),
    ("protocol.render_delta_us", "us"),
    ("protocol.changed_frac", "fraction"),
    ("report.to_json_us", "us"),
    ("persist.append_us", "us"),
    ("persist.append_max_us", "us"),
    ("persist.compactions", "count"),
    ("persist.bytes_per_req", "B"),
    ("persist.open_ms", "ms"),
    ("persist.write_errors", "count"),
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("server.residual_us", "us"),
    ("server.latency_p50_us", "us"),
    ("server.poll_wakeups_per_req", "count"),
    ("server.shed", "count"),
    ("server.timeouts", "count"),
    ("server.panics", "count"),
    ("lru.hit_ratio", "fraction"),
    ("lru.evictions", "count"),
    ("loadgen.lag_p90_us", "us"),
    ("loadgen.sent", "count"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1.0..=120.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One completed set-up.
struct Setup {
    server: ServeProcess,
    took: Duration,
    /// The report JSON each set-up registration answered.
    reports: Vec<String>,
    /// Each warm-up request's `(status, body)`.
    warmup: Vec<(u16, String)>,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn set_up(args: &Args, inputs: &Inputs, journal: Option<&Path>) -> Result<Setup, String> {
    let started = Instant::now();
    let server = ServeProcess::spawn(&args.serve_bin, journal).map_err(io("spawning serve"))?;
    let mut conn = Connection::open(server.addr()).map_err(io("connecting"))?;
    let mut reports = Vec::new();
    for (i, request) in inputs.registrations.iter().enumerate() {
        let reply = conn
            .exchange(&request.wire)
            .map_err(io("set-up registration"))?;
        let envelope = format!("{{\"session\":{},", gen::session_id(i));
        if reply.status != 201 || !reply.body.starts_with(&envelope) {
            return Err(format!(
                "set-up registration {i} answered {}: {:.200}",
                reply.status, reply.body
            ));
        }
        let report =
            verify::registered_report(&reply.body).ok_or("malformed registration reply")?;
        reports.push(report.to_string());
    }
    let mut warmup = Vec::new();
    for request in &inputs.warmup {
        let reply = conn.exchange(&request.wire).map_err(io("warm-up"))?;
        if !(200..300).contains(&reply.status) {
            return Err(format!(
                "warm-up answered {}: {:.200}",
                reply.status, reply.body
            ));
        }
        warmup.push((reply.status, reply.body));
    }
    Ok(Setup {
        server,
        took: started.elapsed(),
        reports,
        warmup,
    })
}

fn get_json(conn: &mut Connection, path: &str) -> Result<Value, String> {
    let wire = format!("GET {path} HTTP/1.1\r\nhost: servebench\r\n\r\n");
    let reply = conn.exchange(wire.as_bytes()).map_err(io(path))?;
    if reply.status != 200 {
        return Err(format!("{path} answered {}", reply.status));
    }
    serde::json::from_str(&reply.body).map_err(|e| format!("{path}: {e}"))
}

#[allow(clippy::cast_precision_loss)]
fn number(doc: &Value, path: &[&str]) -> Result<f64, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("/metrics lacks {}", path.join(".")))?;
    }
    v.as_f64()
        .ok_or_else(|| format!("/metrics {} is not a number", path.join(".")))
}

/// One round against one freshly spawned server.
struct Round {
    setup_s: f64,
    /// `[open loop, closed loop]`, each per connection.
    phases: [[Vec<Outcome>; 2]; 2],
    /// Closed-loop completions per second, per window.
    throughput_rates: Vec<f64>,
    /// Open-loop primary-kind latencies (ns) per window, each sorted.
    latency_windows: Vec<Vec<u64>>,
    metrics: Value,
    rss_mb: f64,
    recovery_s: Option<f64>,
    mismatches: Vec<String>,
}

/// Set-up, the open-loop phase, the closed-loop phase, `/metrics`, the
/// final reads, the crash and recovery (journaled workloads), and the
/// mirror checks — against one fresh `serve` process.
fn run_round(
    args: &Args,
    inputs: &Inputs,
    journal_dir: &Path,
    keep: &(dyn Fn(&Request) -> bool + Sync),
    fold: bool,
) -> Result<Round, String> {
    let workload = inputs.workload;
    let journal = workload.journaled().then_some(journal_dir);
    let Setup {
        server,
        took,
        reports,
        warmup,
    } = set_up(args, inputs, journal)?;

    let addr = server.addr().to_string();
    let mut conns = [
        Connection::open(&addr).map_err(io("connecting"))?,
        Connection::open(&addr).map_err(io("connecting"))?,
    ];
    let latency = loadgen::open_loop_pair(&mut conns, &inputs.latency, workload.interval(), keep);
    let throughput_len =
        Duration::from_secs_f64(args.seconds * (1.0 - LATENCY_SHARE) / workload.rounds() as f64);
    let (throughput, started) =
        loadgen::closed_loop_pair(&mut conns, &inputs.throughput, throughput_len, keep);
    let mut done: Vec<f64> = throughput
        .iter()
        .flatten()
        .filter(|o| o.latency.is_some())
        .map(|o| (o.done - started).as_secs_f64())
        .collect();
    done.sort_by(f64::total_cmp);
    let throughput_rates = stats::windowed_rates(&done, done.len() / MAX_WINDOWS);
    // Primary-kind latencies in due order (the two connections alternate).
    let primary = inputs.workload.primary();
    let in_due_order: Vec<u64> = (0..latency[0].len())
        .flat_map(|i| [&latency[0][i], &latency[1][i]])
        .filter(|o| o.kind == primary)
        .map(Outcome::latency_ns)
        .collect();
    let latency_windows = stats::windows(in_due_order.len(), MIN_WINDOW_REQUESTS, MAX_WINDOWS)
        .into_iter()
        .map(|w| sorted(in_due_order[w].to_vec()))
        .collect();
    let phases = [latency, throughput];

    let [mut conn, _] = conns;
    let metrics = get_json(&mut conn, "/metrics")?;
    let rss_mb = server.peak_rss_mb().map_err(io("reading VmHWM"))?;
    let mut finals = Vec::new();
    for request in &inputs.finals {
        let reply = conn.exchange(&request.wire).map_err(io("final read"))?;
        if reply.status != 200 {
            return Err(format!("final read answered {}", reply.status));
        }
        finals.push(reply.body);
    }
    drop(conn);

    let mut mismatches = Vec::new();
    let mut recovery_s = None;
    if let Some(dir) = journal {
        // Crash, restart on the same state, and time until every session
        // answers its pre-crash report again.
        let killed = server.kill();
        let restarted =
            ServeProcess::spawn(&args.serve_bin, Some(dir)).map_err(io("restarting serve"))?;
        let mut conn = Connection::open(restarted.addr()).map_err(io("connecting"))?;
        for (s, request) in inputs.finals.iter().enumerate() {
            let reply = conn.exchange(&request.wire).map_err(io("recovery read"))?;
            if reply.status != 200 || reply.body != finals[s] {
                mismatches.push(format!(
                    "session {} after the crash differs from its acknowledged state",
                    gen::session_id(s)
                ));
            }
        }
        recovery_s = Some(killed.elapsed().as_secs_f64());
    } else {
        drop(server);
    }
    let _ = std::fs::remove_dir_all(journal_dir);

    mismatches.extend(verify_run(
        inputs, &reports, &warmup, &phases, &finals, fold,
    )?);
    Ok(Round {
        setup_s: took.as_secs_f64(),
        phases,
        throughput_rates,
        latency_windows,
        metrics,
        rss_mb,
        recovery_s,
        mismatches,
    })
}

/// Checks every answer the run can check against the in-process mirror.
fn verify_run(
    inputs: &Inputs,
    reports: &[String],
    warmup: &[(u16, String)],
    phases: &[[Vec<Outcome>; 2]; 2],
    finals: &[String],
    fold: bool,
) -> Result<Vec<String>, String> {
    let engine = ChipEngine::new();
    let mut mismatches = Vec::new();
    let streams = [&inputs.latency, &inputs.throughput];
    for (phase, stream) in phases.iter().zip(streams) {
        for conn in 0..2 {
            for outcome in &phase[conn] {
                if outcome.status == 0 {
                    mismatches.push(format!(
                        "request {} on connection {conn} was lost mid-exchange",
                        outcome.index
                    ));
                }
                let Some(body) = &outcome.body else { continue };
                let request = &stream[conn][outcome.index];
                if request.kind == Kind::Register && outcome.status == 201 {
                    let spec = parse_register(&request.body).map_err(|e| e.0)?;
                    let expected = verify::expected_json(&engine, &spec)?;
                    if verify::registered_report(body) != Some(expected.as_str()) {
                        mismatches.push(format!(
                            "registration {} differs from the mirror",
                            request.session
                        ));
                    }
                }
            }
        }
    }
    if finals.is_empty() {
        return Ok(mismatches);
    }
    let logs = verify::session_logs(inputs, warmup, phases);
    for (s, final_body) in finals.iter().enumerate() {
        let spec = verify::mirror(&inputs.registrations[s], &logs[s])?;
        if *final_body != verify::expected_json(&engine, &spec)? {
            mismatches.push(format!(
                "session {} differs from the mirror replay",
                gen::session_id(s)
            ));
        }
    }
    if fold {
        match verify::fold_deltas(&reports[0], &logs[0]) {
            Ok(folded) if folded == finals[0] => {}
            Ok(_) => {
                mismatches.push("session 1's folded delta chain differs from its report".into())
            }
            Err(e) => mismatches.push(format!("session 1's delta chain: {e}")),
        }
    }
    Ok(mismatches)
}

/// A guarded percentile in microseconds, or why it cannot be reported.
#[allow(clippy::cast_precision_loss)]
fn percentile_us(sorted_ns: &[u64], q: f64, what: &str) -> Result<f64, String> {
    match guarded_percentile(sorted_ns, q) {
        None => Err(format!(
            "refusing to report {what}: {} samples leave fewer than {} beyond p{}",
            sorted_ns.len(),
            stats::MIN_BEYOND,
            q * 100.0
        )),
        Some(u64::MAX) => Err(format!("{what} lands on a failed request")),
        Some(ns) => Ok(ns as f64 / 1e3),
    }
}

fn latencies(outcomes: &[Vec<Outcome>; 2], kind: Option<Kind>) -> Vec<u64> {
    sorted(
        outcomes
            .iter()
            .flatten()
            .filter(|o| kind.is_none_or(|k| o.kind == k))
            .map(Outcome::latency_ns)
            .collect(),
    )
}

/// The open-loop outcomes of every round, pooled per connection.
fn pooled(rounds: &[Round], phase: usize) -> [Vec<Outcome>; 2] {
    let mut out = [Vec::new(), Vec::new()];
    for round in rounds {
        for (conn, outcomes) in round.phases[phase].iter().enumerate() {
            out[conn].extend(outcomes.iter().cloned());
        }
    }
    out
}

/// The median over rounds of a per-round value.
fn across<F>(rounds: &[Round], f: F) -> Result<f64, String>
where
    F: Fn(&Round) -> Result<f64, String>,
{
    let values = rounds.iter().map(f).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&values))
}

/// The human-readable table: per-kind metric names (the mix's reads, the
/// tails, `error_rate`, `recovery_s`), over the pooled rounds.
#[allow(clippy::cast_precision_loss)]
fn table(
    inputs: &Inputs,
    rounds: &[Round],
    attempted: usize,
    failed: usize,
    e2e: &BTreeMap<&str, f64>,
    setups: usize,
) -> String {
    let mut out = String::new();
    let latency = pooled(rounds, 0);
    let mut row = |name: &str, value: Result<f64, String>, unit: &str, note: String| {
        let _ = match value {
            Ok(v) => writeln!(out, "  {name:<18} {v:>14.3} {unit:<9} {note}"),
            Err(e) => writeln!(out, "  {name:<18} {:>14} {unit:<9} {e}", "refused"),
        };
    };
    let kinds: &[(Kind, &str, f64, f64)] = match inputs.workload {
        Workload::WarmUpdate64 => &[(Kind::Update, "update", 0.99, 1.0)],
        Workload::ColdRegister32 => &[(Kind::Register, "register", 0.9, 1e-3)],
        Workload::JournaledMix12 => &[
            (Kind::Update, "update", 0.99, 1.0),
            (Kind::Read, "read", 0.99, 1.0),
        ],
    };
    for &(kind, name, tail, scale) in kinds {
        let ns = latencies(&latency, Some(kind));
        let unit = if scale < 1.0 { "ms" } else { "us" };
        let n = format!("n={}, pooled over rounds", ns.len());
        row(
            &format!("{name}_p50_{unit}"),
            percentile_us(&ns, 0.5, name).map(|v| v * scale),
            unit,
            n.clone(),
        );
        row(
            &format!("{name}_p{}_{unit}", (tail * 100.0).round()),
            percentile_us(&ns, tail, name).map(|v| v * scale),
            unit,
            n,
        );
    }
    row(
        "throughput_rps",
        Ok(e2e["throughput_rps"]),
        "1/s",
        "closed loop, 2 connections, 90th percentile of the window rates".into(),
    );
    row(
        "error_rate",
        Ok(failed as f64 / attempted.max(1) as f64),
        "fraction",
        format!("{failed}/{attempted}"),
    );
    row(
        "setup_s",
        Ok(e2e["setup_s"]),
        "s",
        format!("median of {setups} set-ups"),
    );
    if let Ok(r) = across(rounds, |r| r.recovery_s.ok_or_else(String::new)) {
        row(
            "recovery_s",
            Ok(r),
            "s",
            "SIGKILL → every session verified; median over rounds".into(),
        );
    }
    row(
        "server_rss_mb",
        Ok(e2e["server_rss_mb"]),
        "MB",
        "VmHWM; median over rounds".into(),
    );
    out
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn run(args: &Args) -> Result<String, String> {
    if !args.serve_bin.is_file() {
        return Err(format!("no serve binary at {}", args.serve_bin.display()));
    }
    let workload = args.workload;
    let round_len = args.seconds / workload.rounds() as f64;
    let inputs = gen::generate(
        workload,
        args.seed,
        Duration::from_secs_f64(round_len * LATENCY_SHARE),
        Duration::from_secs_f64(round_len * (1.0 - LATENCY_SHARE)),
    );

    let scratch = args.work_dir.join(format!(
        "{}-seed{}-pid{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(io("creating the work dir"))?;
    let scratch = ScratchDir(scratch);

    // What to keep: the delta chain of set-up session 0, or a seeded
    // sample of the timed registrations.
    let mut rng = Rng::new(args.seed, 7);
    let sampled: HashSet<usize> = (0..COLD_SAMPLES)
        .map(|_| {
            let stream = &inputs.latency[rng.below(2)];
            stream[rng.below(stream.len())].session
        })
        .collect();
    let keep = move |r: &Request| match r.kind {
        Kind::Register => sampled.contains(&r.session),
        Kind::Update => r.session == 0,
        Kind::Read => false,
    };
    // The delta chain is folded in the first round only: at 64×64 every
    // fold step re-parses a full report.
    let rounds = (0..workload.rounds())
        .map(|k| {
            let dir = scratch.0.join(format!("state-{k}"));
            run_round(args, &inputs, &dir, &keep, k == 0)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut mismatches: Vec<String> = rounds.iter().flat_map(|r| r.mismatches.clone()).collect();
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    for k in 0..EXTRA_SETUPS {
        let dir = scratch.0.join(format!("setup-{k}"));
        let setup = set_up(args, &inputs, workload.journaled().then_some(dir.as_path()))?;
        setups.push(setup.took.as_secs_f64());
        drop(setup);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let all: Vec<&Outcome> = rounds
        .iter()
        .flat_map(|r| r.phases.iter().flatten().flatten())
        .collect();
    let attempted = all.len();
    let failed = all.iter().filter(|o| o.latency.is_none()).count();
    // The end-to-end latency is that of the workload's primary request
    // kind (a mix's reads, and every tail, are in the table above the JSON
    // line), over the windows of every round.
    let primary = workload.primary();
    let window_p50s = rounds
        .iter()
        .flat_map(|r| &r.latency_windows)
        .map(|w| percentile_us(w, 0.5, "a window's median latency"))
        .collect::<Result<Vec<_>, _>>()?;
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.throughput_rates.clone())
        .collect();
    if rates.is_empty() {
        return Err("the closed-loop phase completed too few requests".into());
    }
    let mut e2e = BTreeMap::new();
    e2e.insert(
        "latency_p50_us",
        stats::quantile(&window_p50s, CALM_LATENCY_QUANTILE),
    );
    e2e.insert(
        "throughput_rps",
        stats::quantile(&rates, CALM_RATE_QUANTILE),
    );
    e2e.insert("setup_s", median(&setups));
    e2e.insert("server_rss_mb", across(&rounds, |r| Ok(r.rss_mb))?);

    let mut report = format!(
        "servebench {} seed={} seconds={} rounds={}, open-loop rate 2x{}/s ({} requests per round)\n",
        workload.name(),
        args.seed,
        args.seconds,
        workload.rounds(),
        workload.rate_per_conn(),
        inputs.latency[0].len() * 2,
    );
    report.push_str(&table(
        &inputs,
        &rounds,
        attempted,
        failed,
        &e2e,
        setups.len(),
    ));
    for (k, r) in rounds.iter().enumerate() {
        let p50: Vec<f64> = r
            .latency_windows
            .iter()
            .filter_map(|w| percentile_us(w, 0.5, "").ok())
            .collect();
        let _ = writeln!(
            report,
            "  round {k}: window p50s {p50:.0?} us, window rates {:.0?}/s, set-up {:.4} s, rss {:.2} MB",
            r.throughput_rates, r.setup_s, r.rss_mb
        );
    }

    let (metrics, units): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        // One round's open-loop stream, interleaved by due time.
        let n = inputs.latency[0].len();
        let timed: Vec<&Request> = (0..n)
            .flat_map(|i| [&inputs.latency[0][i], &inputs.latency[1][i]])
            .collect();
        let spans_path =
            args.work_dir
                .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
        let traced = trace::replay(&inputs, &timed, args.seed, &scratch.0, &spans_path)?;
        if traced.span_violations > 0 {
            mismatches.push(format!(
                "{} traced requests have child spans longer than themselves",
                traced.span_violations
            ));
        }
        let server = |path: &[&str]| across(&rounds, |r| number(&r.metrics, path));
        let per_request = |path: &[&str]| {
            across(&rounds, |r| {
                Ok(number(&r.metrics, path)? / number(&r.metrics, &["requests"])?.max(1.0))
            })
        };
        let lags = sorted(
            all.iter()
                .map(|o| u64::try_from(o.lag.as_nanos()).unwrap_or(u64::MAX))
                .collect(),
        );
        // The plain p50 over all rounds (not the calm-window figure), as
        // the traced replay's request p50 is a plain median too.
        let untraced_p50 = percentile_us(
            &latencies(&pooled(&rounds, 0), Some(primary)),
            0.5,
            "the pooled p50",
        )?;
        let mut layer = traced.metrics;
        layer.insert(
            "server.residual_us",
            untraced_p50 - traced.request_p50_us[primary.name()],
        );
        layer.insert(
            "server.latency_p50_us",
            server(&["latency_ns", "p50"])? / 1e3,
        );
        layer.insert(
            "server.poll_wakeups_per_req",
            per_request(&["readiness", "poll_wakeups"])?,
        );
        layer.insert("server.shed", server(&["overload", "shed_503"])?);
        layer.insert("server.timeouts", server(&["overload", "timeouts_408"])?);
        layer.insert("server.panics", server(&["overload", "panics"])?);
        layer.insert(
            "lru.hit_ratio",
            across(&rounds, |r| {
                let hits = number(&r.metrics, &["sessions", "hits"])?;
                let misses = number(&r.metrics, &["sessions", "misses"])?;
                Ok(hits / (hits + misses).max(1.0))
            })?,
        );
        layer.insert("lru.evictions", server(&["sessions", "evictions"])?);
        layer.insert(
            "loadgen.lag_p90_us",
            percentile_us(&lags, 0.9, "the p90 lag")?,
        );
        layer.insert("loadgen.sent", attempted as f64);
        let _ = writeln!(
            report,
            "  traced replay: {} timed requests, {} spans written to {}",
            timed.len(),
            traced.spans,
            spans_path.display()
        );
        for (name, unit) in PER_LAYER {
            let _ = writeln!(report, "  {name:<30} {:>14.3} {unit}", layer[name]);
        }
        (layer, &PER_LAYER)
    } else {
        (e2e, &END_TO_END)
    };

    if !mismatches.is_empty() {
        return Err(format!(
            "verification failed ({} mismatches):\n  {}",
            mismatches.len(),
            mismatches.join("\n  ")
        ));
    }
    let mut json =
        format!("{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{");
    for (i, (name, unit)) in units.iter().enumerate() {
        let value = metrics[name];
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    json.push_str("}}");
    Ok(format!("{report}{json}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload warm_update_64|cold_register_32|journaled_mix_12 \
                 --seed N --seconds S --trace 0|1 --serve-bin PATH --work-dir PATH"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}
