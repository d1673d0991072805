//! A minimal blocking keep-alive HTTP/1.1 client plus the deterministic
//! request bodies the integration suites and `bench_json` replay.
//!
//! The client exists so the suites and benches can exercise the server
//! over real sockets with zero external dependencies. The trace bodies
//! are fully deterministic (no RNG): session `s` registers a gradient
//! power map scaled by `s`, then each round patches a couple of tiles
//! with values that cycle through a small set — so a replay is
//! reproducible byte-for-byte, and a warm round re-solves only the tiles
//! it changes against its session's kernel, which is what the cold-vs-warm
//! bench rows price.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::faults::{FaultConfig, FaultyStream};
use crate::protocol::render_register_body;

/// What a [`Client`] talks through: a plain socket or a fault-injecting
/// wrapper around one.
trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// How a [`Client`] retries a failed request. The policy is safe for
/// non-idempotent requests by construction — see [`Client::request`]
/// for exactly which failures are eligible.
///
/// The default client retries nothing ([`RetryPolicy::none`]); opt in
/// with [`Client::with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = never retry).
    pub max_retries: u32,
    /// First backoff; doubles per retry (bounded exponential).
    pub base_backoff: Duration,
    /// Backoff ceiling — also clamps a server-sent `Retry-After`, so a
    /// test (or an impatient caller) can bound the worst-case stall.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// Never retry (the default client behavior).
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The backoff before retry number `attempt` (0-based):
    /// `base · 2^attempt`, capped at `max_backoff`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    /// Up to 4 retries, 10 ms doubling backoff capped at 1 s.
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// A fully parsed response, including the envelope fields retry logic
/// needs (`Retry-After`, `Connection: close`).
struct RawResponse {
    status: u16,
    body: String,
    retry_after: Option<u64>,
    close: bool,
}

/// What went wrong with one request attempt, split by whether a retry
/// could double-apply it.
enum AttemptError {
    /// Failed before a single request byte reached the transport — the
    /// server cannot have seen the request, so a retry is safe even for
    /// a non-idempotent update.
    Fresh(io::Error),
    /// Failed after at least one byte was written (or mid-response):
    /// the server may have applied the request, so the error must
    /// surface instead of being blindly retried.
    Committed(io::Error),
}

/// One reusable keep-alive connection.
pub struct Client {
    stream: Box<dyn Transport>,
    buf: Vec<u8>,
    addr: String,
    faults: Option<(FaultConfig, u64)>,
    retry: RetryPolicy,
    reconnects: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("buffered", &self.buf.len())
            .field("retry", &self.retry)
            .field("reconnects", &self.reconnects)
            .finish()
    }
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7071"`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Ok(Self {
            stream: Box::new(Self::socket(addr)?),
            buf: Vec::new(),
            addr: addr.to_string(),
            faults: None,
            retry: RetryPolicy::none(),
            reconnects: 0,
        })
    }

    /// Connects like [`Client::connect`] but routes all traffic through a
    /// seeded [`FaultyStream`], so a replay can rehearse short
    /// reads/writes and injected socket errors deterministically.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with_faults(addr: &str, config: FaultConfig, seed: u64) -> io::Result<Self> {
        Ok(Self {
            stream: Box::new(FaultyStream::new(Self::socket(addr)?, config, seed)),
            buf: Vec::new(),
            addr: addr.to_string(),
            faults: Some((config, seed)),
            retry: RetryPolicy::none(),
            reconnects: 0,
        })
    }

    /// Enables retries under `policy` (the default retries nothing).
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Connections re-established by the retry logic so far.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn socket(addr: &str) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // A server that stops reading must fail the request, not wedge
        // the client forever.
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(stream)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.reconnects += 1;
        self.buf.clear();
        self.stream = match self.faults {
            // A fresh connection gets a derived sub-seed so the fault
            // schedule stays deterministic but does not replay the exact
            // storm that just killed us.
            Some((config, seed)) => Box::new(FaultyStream::new(
                Self::socket(&self.addr)?,
                config,
                seed.wrapping_add(self.reconnects.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )),
            None => Box::new(Self::socket(&self.addr)?),
        };
        Ok(())
    }

    /// Sends one request and reads the response, returning
    /// `(status, body)`. The connection stays usable afterwards.
    ///
    /// With a [`RetryPolicy`] installed, two — and only two — failure
    /// shapes are retried, both safe for non-idempotent updates:
    ///
    /// * a transport error **before any request byte was written**
    ///   (e.g. the server reset a stale keep-alive connection): the
    ///   client backs off, reconnects, and resends;
    /// * a **503/429** response: the protocol guarantees the request
    ///   was *not* applied, so the client honors `Retry-After` (clamped
    ///   to `max_backoff`, exponential backoff when absent) and
    ///   resends, reconnecting first if the server said
    ///   `Connection: close`.
    ///
    /// A failure after even one request byte is on the wire is never
    /// retried — the server may have applied a half-sent update — and
    /// surfaces as the error it was.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failure or a malformed response, or
    /// when the retry budget is exhausted.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: ttsv\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut attempt: u32 = 0;
        loop {
            let retries_left = attempt < self.retry.max_retries;
            match self.try_request(wire.as_bytes()) {
                Ok(response) => {
                    if (response.status == 503 || response.status == 429) && retries_left {
                        let wait = response
                            .retry_after
                            .map_or_else(|| self.retry.backoff(attempt), Duration::from_secs)
                            .min(self.retry.max_backoff);
                        std::thread::sleep(wait);
                        if response.close {
                            self.reconnect()?;
                        }
                        attempt += 1;
                        continue;
                    }
                    return Ok((response.status, response.body));
                }
                Err(AttemptError::Fresh(_)) if retries_left => {
                    std::thread::sleep(self.retry.backoff(attempt));
                    self.reconnect()?;
                    attempt += 1;
                }
                Err(AttemptError::Fresh(e) | AttemptError::Committed(e)) => return Err(e),
            }
        }
    }

    /// One request attempt: a counting write loop (so a failure knows
    /// whether any byte went out) followed by the response read.
    fn try_request(&mut self, wire: &[u8]) -> Result<RawResponse, AttemptError> {
        let mut written = 0usize;
        let classify = |written: usize, e: io::Error| {
            if written == 0 {
                AttemptError::Fresh(e)
            } else {
                AttemptError::Committed(e)
            }
        };
        while written < wire.len() {
            match self.stream.write(&wire[written..]) {
                Ok(0) => {
                    return Err(classify(
                        written,
                        io::Error::new(io::ErrorKind::WriteZero, "transport accepted no bytes"),
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(classify(written, e)),
            }
        }
        self.read_response().map_err(AttemptError::Committed)
    }

    fn read_response(&mut self) -> io::Result<RawResponse> {
        let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => return Err(malformed("connection closed mid-response")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| malformed("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("malformed status line"))?;
        let mut content_length = 0usize;
        let mut retry_after = None;
        let mut close = false;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .map_err(|_| malformed("malformed content-length"))?;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => return Err(malformed("connection closed mid-body")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| malformed("non-UTF-8 response body"))?;
        self.buf.drain(..body_start + content_length);
        Ok(RawResponse {
            status,
            body,
            retry_after,
            close,
        })
    }

    /// A client over an arbitrary transport, for unit-testing the retry
    /// classification without a socket.
    #[cfg(test)]
    fn over_transport(stream: Box<dyn Transport>, retry: RetryPolicy) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            addr: String::new(),
            faults: None,
            retry,
            reconnects: 0,
        }
    }
}

/// The registration body session `s` sends: three planes of a gradient
/// map (every tile distinct) scaled per session, so no two sessions
/// share cache entries, plus a per-session via density and the paper's
/// deep B(1000) model — registration genuinely pays a fresh ladder
/// factorization, which is the "cold" the cold-vs-warm gate prices.
#[must_use]
pub fn trace_register_body(grid: usize, session: usize) -> String {
    let tiles = grid * grid;
    #[allow(clippy::cast_precision_loss)]
    let scale = 1.0 + session as f64 * 0.01;
    #[allow(clippy::cast_precision_loss)]
    let planes: Vec<Vec<f64>> = [70.0, 7.0, 7.0]
        .iter()
        .map(|&total| {
            (0..tiles)
                .map(|i| scale * (total / tiles as f64) * (0.5 + i as f64 / tiles as f64))
                .collect()
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let density = 0.005 + session as f64 * 1e-5;
    let body = render_register_body(grid, grid, &planes, density);
    format!("{},\"segments\":[10,1000]}}", &body[..body.len() - 1])
}

/// The power-delta body session `s` sends in `round`: patches two tiles
/// with watt values cycling through five levels.
#[must_use]
pub fn trace_power_body(grid: usize, session: usize, round: usize) -> String {
    let tiles = grid * grid;
    let t1 = (round * 7 + session * 3) % tiles;
    let t2 = (round * 13 + session * 5 + 1) % tiles;
    #[allow(clippy::cast_precision_loss)]
    let watts = |t: usize| 0.05 + 0.01 * (((round + session + t) % 5) as f64);
    format!(
        "{{\"plane\":0,\"updates\":[[{},{},{}],[{},{},{}]]}}",
        t1 % grid,
        t1 / grid,
        watts(t1),
        t2 % grid,
        t2 / grid,
        watts(t2)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn half_sent_requests_are_never_retried() {
        // A transport that accepts 5 bytes, then resets. The retry
        // policy has budget, but a half-sent non-idempotent request
        // must surface the error instead of resending.
        struct HalfDeadTransport {
            write_calls: Arc<AtomicUsize>,
        }
        impl Read for HalfDeadTransport {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Ok(0)
            }
        }
        impl Write for HalfDeadTransport {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                match self.write_calls.fetch_add(1, Ordering::Relaxed) {
                    0 => Ok(buf.len().min(5)),
                    _ => Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "reset mid-send",
                    )),
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let write_calls = Arc::new(AtomicUsize::new(0));
        let mut client = Client::over_transport(
            Box::new(HalfDeadTransport {
                write_calls: Arc::clone(&write_calls),
            }),
            RetryPolicy::default(),
        );
        let err = client
            .request("POST", "/sessions/1/power", "{\"plane\":0,\"tiles\":[1]}")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(
            write_calls.load(Ordering::Relaxed),
            2,
            "5 bytes, the reset, and nothing more — no blind retry"
        );
        assert_eq!(client.reconnects(), 0);
    }

    #[test]
    fn overload_responses_are_retried_on_the_same_connection() {
        // Scripted transport: a keep-alive 503 with Retry-After, then a
        // 200. The client must eat the 503, honor the (clamped) wait,
        // and resend without surfacing an error.
        struct Scripted {
            responses: Vec<Vec<u8>>,
            requests_sent: Arc<AtomicUsize>,
        }
        impl Read for Scripted {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.responses.is_empty() {
                    return Ok(0);
                }
                let next = self.responses.remove(0);
                buf[..next.len()].copy_from_slice(&next);
                Ok(next.len())
            }
        }
        impl Write for Scripted {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if buf.ends_with(b"}") {
                    self.requests_sent.fetch_add(1, Ordering::Relaxed);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let requests_sent = Arc::new(AtomicUsize::new(0));
        let overloaded = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\
                           retry-after: 30\r\nconnection: keep-alive\r\n\r\n{}";
        let ok = b"HTTP/1.1 200 OK\r\ncontent-length: 4\r\nconnection: keep-alive\r\n\r\ndone";
        let mut client = Client::over_transport(
            Box::new(Scripted {
                responses: vec![overloaded.to_vec(), ok.to_vec()],
                requests_sent: Arc::clone(&requests_sent),
            }),
            // max_backoff 5 ms clamps the server's 30 s Retry-After, so
            // this test proves the clamp by finishing at all.
            RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
        );
        let started = Instant::now();
        let (status, body) = client.request("POST", "/sessions", "{}").unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!((status, body.as_str()), (200, "done"));
        assert_eq!(requests_sent.load(Ordering::Relaxed), 2);
        assert_eq!(client.reconnects(), 0, "keep-alive 503 reuses the socket");
    }

    #[test]
    fn retry_backoff_is_bounded_exponential() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(70),
        };
        let got: Vec<u64> = (0..5)
            .map(|a| policy.backoff(a).as_millis() as u64)
            .collect();
        assert_eq!(got, [10, 20, 40, 70, 70]);
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn trace_bodies_are_deterministic_and_in_grid() {
        assert_eq!(
            trace_register_body(4, 2),
            trace_register_body(4, 2),
            "replays must be reproducible"
        );
        assert_ne!(trace_register_body(4, 1), trace_register_body(4, 2));
        for round in 0..50 {
            let body = trace_power_body(4, 1, round);
            let spec = crate::protocol::parse_register(trace_register_body(4, 1).as_bytes())
                .expect("trace register body is valid");
            crate::protocol::parse_power_update(body.as_bytes(), &spec.plan)
                .expect("trace power body is valid");
        }
    }
}
