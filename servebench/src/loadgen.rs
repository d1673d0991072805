//! The load generator: at most two threads, each owning one keep-alive
//! connection.
//!
//! * **Open loop** — each connection sends on its own fixed-interval
//!   schedule. A request is timed from when it was *due*, so one that
//!   falls due while the previous response is still outstanding (a server
//!   stall) records the wait it suffered; how late each send actually ran
//!   is reported separately as lag.
//! * **Closed loop** — each connection sends back to back until the phase
//!   deadline (or until either connection exhausts its request pool).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{Kind, Request};
use crate::wire::Connection;

/// How close to its due time a send stops sleeping and starts yielding
/// (a sleep can overshoot by the kernel's timer slack).
const YIELD_BEFORE_DUE: Duration = Duration::from_micros(100);

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The request's kind.
    pub kind: Kind,
    /// Its position in the connection's stream.
    pub index: usize,
    /// How late the send ran against its due time (zero in closed loop).
    pub lag: Duration,
    /// Due (open loop) or send (closed loop) time to last response byte;
    /// `None` when the request failed or was refused.
    pub latency: Option<Duration>,
    /// When the last response byte arrived.
    pub done: Instant,
    /// The response status (0 on an I/O error).
    pub status: u16,
    /// The response body, when the caller asked to keep it.
    pub body: Option<String>,
}

impl Outcome {
    /// Latency in nanoseconds, `u64::MAX` for a failure (it misses every
    /// latency limit).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn latency_ns(&self) -> u64 {
        self.latency.map_or(u64::MAX, |d| d.as_nanos() as u64)
    }
}

/// Sleeps, then yields, until `due`.
fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > YIELD_BEFORE_DUE {
            std::thread::sleep(left - YIELD_BEFORE_DUE);
        } else {
            std::thread::yield_now();
        }
    }
}

fn send(
    conn: &mut Connection,
    request: &Request,
    index: usize,
    origin: Instant,
    lag: Duration,
    keep: bool,
) -> Outcome {
    let (status, body) = match conn.exchange(&request.wire) {
        Ok(reply) => (reply.status, Some(reply.body)),
        Err(e) => {
            eprintln!(
                "servebench: request {index} ({}) failed: {e}",
                request.kind.name()
            );
            (0, None)
        }
    };
    let done = Instant::now();
    let ok = (200..300).contains(&status);
    Outcome {
        kind: request.kind,
        index,
        lag,
        latency: ok.then(|| done - origin),
        done,
        status,
        body: if keep { body } else { None },
    }
}

/// Runs one connection's open-loop schedule: request `i` is due at
/// `start + i · interval`.
pub fn open_loop(
    conn: &mut Connection,
    requests: &[Request],
    start: Instant,
    interval: Duration,
    keep: &(dyn Fn(&Request) -> bool + Sync),
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let due = start + interval.mul_f64(i as f64);
        pace_until(due);
        let lag = Instant::now().saturating_duration_since(due);
        out.push(send(conn, request, i, due, lag, keep(request)));
    }
    out
}

/// Runs one connection's closed loop until `deadline`, `stop`, or the end
/// of its pool (which raises `stop` for the other connection).
pub fn closed_loop(
    conn: &mut Connection,
    requests: &[Request],
    deadline: Instant,
    stop: &AtomicBool,
    keep: &(dyn Fn(&Request) -> bool + Sync),
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        if stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return out;
        }
        let sent = Instant::now();
        out.push(send(conn, request, i, sent, Duration::ZERO, keep(request)));
    }
    stop.store(true, Ordering::SeqCst);
    out
}

/// Both connections' open-loop phase, on the calling thread plus one
/// more.
pub fn open_loop_pair(
    conns: &mut [Connection; 2],
    streams: &[Vec<Request>; 2],
    interval: Duration,
    keep: &(dyn Fn(&Request) -> bool + Sync),
) -> [Vec<Outcome>; 2] {
    let [c0, c1] = conns;
    // Both schedules start a little in the future, so neither connection
    // starts behind, and the second runs half an interval after the
    // first: together they offer an evenly spaced stream at twice the
    // per-connection rate.
    let start = Instant::now() + Duration::from_millis(2);
    let offset = start + interval / 2;
    std::thread::scope(|scope| {
        let other = scope.spawn(|| open_loop(c1, &streams[1], offset, interval, keep));
        let mine = open_loop(c0, &streams[0], start, interval, keep);
        [mine, other.join().expect("load thread panicked")]
    })
}

/// Both connections' closed-loop phase. Returns the outcomes and when the
/// phase started.
pub fn closed_loop_pair(
    conns: &mut [Connection; 2],
    pools: &[Vec<Request>; 2],
    length: Duration,
    keep: &(dyn Fn(&Request) -> bool + Sync),
) -> ([Vec<Outcome>; 2], Instant) {
    let [c0, c1] = conns;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + length;
    let outcomes = std::thread::scope(|scope| {
        let other = scope.spawn(|| closed_loop(c1, &pools[1], deadline, &stop, keep));
        let mine = closed_loop(c0, &pools[0], deadline, &stop, keep);
        [mine, other.join().expect("load thread panicked")]
    });
    (outcomes, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ttsv_serve::faults::ServerFaults;
    use ttsv_serve::server::{Server, ServerConfig};

    use crate::gen::{generate, Workload};

    const INTERVAL: Duration = Duration::from_millis(20);
    const STALL: Duration = Duration::from_millis(200);
    /// The stalled update: the server counts the registration as request 1.
    const STALLED: usize = 3;

    /// Requests that fall due while the server stalls an earlier one are
    /// sent late, and their latency still counts from when they were due.
    #[test]
    fn requests_due_during_a_stall_record_the_wait() {
        let inputs = generate(
            Workload::JournaledMix12,
            1,
            Duration::from_secs(2),
            Duration::from_millis(10),
        );
        let updates: Vec<Request> = inputs.latency[0]
            .iter()
            .filter(|r| r.kind == Kind::Update && r.session == 0)
            .take(20)
            .cloned()
            .collect();
        assert_eq!(updates.len(), 20);
        let faults = ServerFaults::new().engine_delay_on(STALLED as u64 + 2, STALL);
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(2)
                .with_faults(Arc::new(faults)),
        )
        .expect("server starts");
        let mut conn = Connection::open(&server.addr().to_string()).expect("connects");
        let reply = conn
            .exchange(&inputs.registrations[0].wire)
            .expect("registers");
        assert_eq!(reply.status, 201);

        let start = Instant::now() + Duration::from_millis(5);
        let out = open_loop(&mut conn, &updates, start, INTERVAL, &|_| false);
        server.shutdown();

        assert!(out.iter().all(|o| o.status == 200));
        let stall_ends = INTERVAL * STALLED as u32 + STALL;
        assert!(out[STALLED].latency.unwrap() >= STALL);
        for o in &out[STALLED + 1..] {
            let due = INTERVAL * o.index as u32;
            let latency = o.latency.unwrap();
            if due < stall_ends {
                let waited = stall_ends - due;
                assert!(
                    latency >= waited,
                    "request {} was due {due:?} into the run, {waited:?} before the stall \
                     ended, but records only {latency:?}",
                    o.index
                );
                assert!(
                    o.lag + Duration::from_millis(5) >= waited,
                    "lag {:?}",
                    o.lag
                );
            }
        }
        // Once the backlog drains the generator is back on schedule.
        let last = out.last().unwrap();
        assert!(
            last.latency.unwrap() < Duration::from_millis(100),
            "{last:?}"
        );
        assert!(last.lag < Duration::from_millis(100), "{last:?}");
    }
}
