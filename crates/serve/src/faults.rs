//! Deterministic, seeded fault injection for the serving stack.
//!
//! Overload and partial failure are the steady state of a long-running
//! deployment, so the chaos suite (`tests/serve_chaos.rs`) needs to
//! *reproduce* them on demand — the same seed must produce the same
//! storm on every run. Everything here is std-only and driven by a
//! [`SplitMix64`] stream:
//!
//! * [`FaultyStream`] wraps any `Read + Write` transport and injects
//!   **short reads** (a read delivers a single byte), **short writes**
//!   (a write accepts a single byte), **hard I/O errors** (a rotating
//!   set of connection-shaped [`std::io::ErrorKind`]s), and **delays**,
//!   each with an independent seeded probability. The *lossless* faults
//!   (short reads/writes, delays) re-frame the byte stream without
//!   dropping a byte — a correct peer must produce bitwise-identical
//!   results under them, which is exactly the invariant the chaos suite
//!   pins.
//! * [`ServerFaults`] is the server-side hook block:
//!   [`Server`](crate::server::Server) consults it once per parsed
//!   request, in the order its event loop parses them, to decide whether
//!   that request should **panic** inside the handler (proving the
//!   `catch_unwind` boundary and poison recovery), fail its **engine
//!   evaluation** (proving the typed-500 path), or **stall** inside
//!   evaluation (holding the pool's worker or an event loop busy, so
//!   queueing, admission control and request ordering can be exercised
//!   deterministically).
//!
//! Nothing in this module is compiled out in release builds: a fault
//! plan is plain data, `None` by default, and costs one `Option` check
//! per request when absent.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A tiny, high-quality 64-bit PRNG (Steele et al.'s splitmix64):
/// one add + three xor-shift-multiplies per draw, full 2⁶⁴ period,
/// trivially seedable — the right tool for reproducible fault
/// schedules, and std-only.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose entire output sequence is a function of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` (53-bit resolution).
    pub fn next_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit
    }

    /// One Bernoulli draw: `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// Per-operation fault probabilities for a [`FaultyStream`].
///
/// The zero default injects nothing; [`FaultConfig::lossless`] is the
/// storm the bitwise-transparency invariant runs under, and
/// [`FaultConfig::lossy`] adds hard errors for the survival invariant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability a read is truncated to a single byte.
    pub short_read: f64,
    /// Probability a write accepts only a single byte.
    pub short_write: f64,
    /// Probability a read fails with an injected connection error.
    pub read_error: f64,
    /// Probability a write fails with an injected connection error.
    pub write_error: f64,
    /// Probability an operation stalls for [`FaultConfig::delay`] first.
    pub delay_chance: f64,
    /// The injected stall length.
    pub delay: Duration,
}

impl FaultConfig {
    /// Aggressive re-framing and stalls, but never a lost byte: short
    /// reads/writes at 30% and 1 ms delays at 5%. Any correct peer must
    /// behave bitwise-identically under this config.
    #[must_use]
    pub fn lossless() -> Self {
        Self {
            short_read: 0.3,
            short_write: 0.3,
            delay_chance: 0.05,
            delay: Duration::from_millis(1),
            ..Self::default()
        }
    }

    /// Everything in [`FaultConfig::lossless`] plus hard connection
    /// errors at 2% per operation — connections die mid-request; the
    /// server must shrug.
    #[must_use]
    pub fn lossy() -> Self {
        Self {
            read_error: 0.02,
            write_error: 0.02,
            ..Self::lossless()
        }
    }
}

/// The rotating set of connection-shaped error kinds [`FaultyStream`]
/// injects (picked by the seeded stream, so a schedule covers all of
/// them over time).
const INJECTED_KINDS: [io::ErrorKind; 3] = [
    io::ErrorKind::ConnectionReset,
    io::ErrorKind::ConnectionAborted,
    io::ErrorKind::BrokenPipe,
];

/// A `Read + Write` wrapper that injects seeded faults in front of the
/// inner transport. Deterministic: the same seed, config, and sequence
/// of operations produces the same faults.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    rng: SplitMix64,
    config: FaultConfig,
    injected_errors: u64,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` with the given fault schedule.
    #[must_use]
    pub fn new(inner: S, config: FaultConfig, seed: u64) -> Self {
        Self {
            inner,
            rng: SplitMix64::new(seed),
            config,
            injected_errors: 0,
        }
    }

    /// How many hard errors this wrapper has injected so far.
    #[must_use]
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    fn maybe_delay(&mut self) {
        if self.rng.chance(self.config.delay_chance) {
            std::thread::sleep(self.config.delay);
        }
    }

    fn injected_error(&mut self, op: &str) -> io::Error {
        self.injected_errors += 1;
        let kind = INJECTED_KINDS[(self.rng.next_u64() % INJECTED_KINDS.len() as u64) as usize];
        io::Error::new(kind, format!("injected {op} fault"))
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.maybe_delay();
        if self.rng.chance(self.config.read_error) {
            return Err(self.injected_error("read"));
        }
        if !buf.is_empty() && self.rng.chance(self.config.short_read) {
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.maybe_delay();
        if self.rng.chance(self.config.write_error) {
            return Err(self.injected_error("write"));
        }
        if !buf.is_empty() && self.rng.chance(self.config.short_write) {
            return self.inner.write(&buf[..1]);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Per-operation fault probabilities for a [`FaultyJournal`].
///
/// The interesting journal failures are *partial*: a write that lands a
/// strict prefix of the record before the device errors (a torn
/// record), a write that lands nothing, an fsync that fails or stalls.
/// Each is seeded and independent, so a crash storm replays exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalFaultConfig {
    /// Probability a write accepts only a single byte (re-framing; the
    /// journal's `write_all` loop absorbs it losslessly).
    pub short_write: f64,
    /// Probability a write lands a seeded strict prefix of the buffer
    /// on the media and then fails — a torn record: bytes are on disk,
    /// but the writer sees an error.
    pub torn_write: f64,
    /// Probability a write fails with nothing landed.
    pub write_error: f64,
    /// Probability an fsync fails.
    pub sync_error: f64,
    /// A stall injected before every fsync (device latency).
    pub sync_delay: Option<Duration>,
}

/// A [`JournalFaultConfig`] plus the seed that schedules it — the unit
/// [`PersistConfig`](crate::persist::PersistConfig) carries.
#[derive(Debug, Clone, Copy)]
pub struct JournalFaultPlan {
    /// The per-operation probabilities.
    pub config: JournalFaultConfig,
    /// Seed for the fault schedule.
    pub seed: u64,
}

/// A [`JournalMedia`](crate::persist::JournalMedia) wrapper that
/// injects seeded journal faults — short writes, torn records, hard
/// write errors, failed or delayed fsyncs — in front of the real media.
#[derive(Debug)]
pub struct FaultyJournal<M> {
    inner: M,
    rng: SplitMix64,
    config: JournalFaultConfig,
}

impl<M> FaultyJournal<M> {
    /// Wraps `inner` with the given seeded fault schedule.
    #[must_use]
    pub fn new(inner: M, config: JournalFaultConfig, seed: u64) -> Self {
        Self {
            inner,
            rng: SplitMix64::new(seed),
            config,
        }
    }

    /// The wrapped media.
    pub fn get_ref(&self) -> &M {
        &self.inner
    }
}

impl<M: Write> Write for FaultyJournal<M> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.rng.chance(self.config.write_error) {
            return Err(io::Error::other("injected journal write fault"));
        }
        if buf.len() > 1 && self.rng.chance(self.config.torn_write) {
            // Land a strict prefix on the media, then report failure:
            // the on-disk journal now ends in a torn record.
            let torn = 1 + (self.rng.next_u64() % (buf.len() as u64 - 1)) as usize;
            self.inner.write_all(&buf[..torn])?;
            return Err(io::Error::other("injected torn journal write"));
        }
        if !buf.is_empty() && self.rng.chance(self.config.short_write) {
            return self.inner.write(&buf[..1]);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<M: crate::persist::JournalMedia> crate::persist::JournalMedia for FaultyJournal<M> {
    fn sync(&mut self) -> io::Result<()> {
        if let Some(delay) = self.config.sync_delay {
            std::thread::sleep(delay);
        }
        if self.rng.chance(self.config.sync_error) {
            return Err(io::Error::other("injected journal fsync fault"));
        }
        self.inner.sync()
    }
}

/// What [`ServerFaults`] tells the server to do with one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultDirective {
    /// Panic inside the engine evaluation — for a power update that is
    /// while the per-session lock is held, so the `catch_unwind`
    /// boundary *and* poison recovery must both hold for the server to
    /// answer a typed 500 and stay healthy.
    pub panic: bool,
    /// Fail the engine evaluation with an injected error (typed 500).
    pub engine_error: bool,
    /// Stall inside the engine evaluation for this long (holds the
    /// session's serialization lock, and the worker or event loop running
    /// the request — the deterministic way to fill the registration queue
    /// or hold requests behind a slow one in a test).
    pub engine_delay: Option<Duration>,
}

/// One scheduled fault: fires on the `ordinal`-th request the server
/// parses (1-based, across all connections, numbered by the event loop
/// before a registration is handed to the pool).
#[derive(Debug, Clone, Copy)]
enum Planned {
    Panic(u64),
    EngineError(u64),
    EngineDelay(u64, Duration),
}

/// The server-side fault plan: a list of request ordinals that should
/// panic, fail, or stall, consulted once per parsed request.
///
/// Build one explicitly ([`ServerFaults::panic_on`] and friends) for
/// surgical tests, or seed a storm with [`ServerFaults::storm`]. The
/// plan is immutable after construction; only the request counter
/// mutates, so one `Arc<ServerFaults>` is shared by every worker.
#[derive(Debug, Default)]
pub struct ServerFaults {
    planned: Vec<Planned>,
    counter: AtomicU64,
}

impl ServerFaults {
    /// An empty plan (no faults; useful as a base for the builders).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic the `ordinal`-th parsed request (1-based).
    #[must_use]
    pub fn panic_on(mut self, ordinal: u64) -> Self {
        self.planned.push(Planned::Panic(ordinal));
        self
    }

    /// Fail the `ordinal`-th request's engine evaluation.
    #[must_use]
    pub fn engine_error_on(mut self, ordinal: u64) -> Self {
        self.planned.push(Planned::EngineError(ordinal));
        self
    }

    /// Stall the `ordinal`-th request inside its engine evaluation.
    #[must_use]
    pub fn engine_delay_on(mut self, ordinal: u64, delay: Duration) -> Self {
        self.planned.push(Planned::EngineDelay(ordinal, delay));
        self
    }

    /// A seeded storm: `panics` panic ordinals and `engine_errors`
    /// error ordinals drawn without replacement from `1..=within`.
    #[must_use]
    pub fn storm(seed: u64, panics: usize, engine_errors: usize, within: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut taken = Vec::new();
        let mut draw = |rng: &mut SplitMix64| loop {
            let ordinal = rng.next_u64() % within.max(1) + 1;
            if !taken.contains(&ordinal) {
                taken.push(ordinal);
                return ordinal;
            }
        };
        let within_usize = usize::try_from(within).unwrap_or(usize::MAX);
        let panics = panics.min(within_usize);
        let engine_errors = engine_errors.min(within_usize - panics);
        let mut plan = Self::new();
        for _ in 0..panics {
            plan = plan.panic_on(draw(&mut rng));
        }
        for _ in 0..engine_errors {
            plan = plan.engine_error_on(draw(&mut rng));
        }
        plan
    }

    /// Claims the next request ordinal and returns what (if anything)
    /// should go wrong with it. Called exactly once per parsed request.
    pub fn begin_request(&self) -> FaultDirective {
        let ordinal = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut directive = FaultDirective::default();
        for planned in &self.planned {
            match *planned {
                Planned::Panic(o) if o == ordinal => directive.panic = true,
                Planned::EngineError(o) if o == ordinal => directive.engine_error = true,
                Planned::EngineDelay(o, d) if o == ordinal => directive.engine_delay = Some(d),
                _ => {}
            }
        }
        directive
    }

    /// Requests the plan has seen so far.
    #[must_use]
    pub fn requests_seen(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_well_spread() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed, same stream");
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "different seeds diverge");
        // Known-answer from the reference implementation (seed 1234567).
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        // chance() respects the degenerate probabilities.
        let mut r = SplitMix64::new(7);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn lossless_faulty_stream_delivers_every_byte() {
        // Writes through a short-write-heavy wrapper, using write_all to
        // absorb the re-framing, must land byte-identically.
        let payload: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        let mut wrapped = FaultyStream::new(
            Vec::new(),
            FaultConfig {
                short_write: 0.8,
                ..FaultConfig::default()
            },
            9,
        );
        wrapped
            .write_all(&payload)
            .expect("lossless writes succeed");
        assert_eq!(wrapped.get_ref(), &payload);

        // Reads through a short-read-heavy wrapper reassemble the same
        // bytes.
        let mut reader = FaultyStream::new(
            std::io::Cursor::new(payload.clone()),
            FaultConfig {
                short_read: 0.8,
                ..FaultConfig::default()
            },
            10,
        );
        let mut got = Vec::new();
        reader
            .read_to_end(&mut got)
            .expect("lossless reads succeed");
        assert_eq!(got, payload);
        assert_eq!(reader.injected_errors(), 0);
    }

    #[test]
    fn injected_errors_are_seed_deterministic_and_typed() {
        let run = |seed: u64| -> Vec<Option<io::ErrorKind>> {
            let mut s = FaultyStream::new(
                std::io::Cursor::new(vec![0u8; 64]),
                FaultConfig {
                    read_error: 0.5,
                    ..FaultConfig::default()
                },
                seed,
            );
            (0..32)
                .map(|_| {
                    let mut b = [0u8; 4];
                    s.read(&mut b).err().map(|e| e.kind())
                })
                .collect()
        };
        let a = run(5);
        assert_eq!(a, run(5), "same seed, same fault schedule");
        assert!(
            a.iter().flatten().all(|k| INJECTED_KINDS.contains(k)),
            "only connection-shaped kinds are injected"
        );
        assert!(a.iter().any(Option::is_some), "p=0.5 over 32 ops fires");
    }

    #[test]
    fn faulty_journal_is_seeded_and_tears_strict_prefixes() {
        let cfg = JournalFaultConfig {
            torn_write: 0.6,
            ..JournalFaultConfig::default()
        };
        let run = |seed: u64| {
            let mut j = FaultyJournal::new(Vec::new(), cfg, seed);
            let outcomes: Vec<bool> = (0..16).map(|_| j.write(&[0xAB; 24]).is_ok()).collect();
            (outcomes, j.get_ref().clone())
        };
        let a = run(77);
        assert_eq!(a, run(77), "same seed, same storm");
        let (outcomes, media) = a;
        let failures = outcomes.iter().filter(|ok| !**ok).count();
        assert!(failures > 0, "p=0.6 over 16 writes fires");
        let full: usize = outcomes.iter().filter(|ok| **ok).count() * 24;
        assert!(media.len() > full, "torn writes landed strict prefixes");
        assert!(
            media.len() < full + failures * 24,
            "torn writes never landed the whole buffer"
        );
    }

    #[test]
    fn faulty_journal_injects_sync_faults() {
        use crate::persist::JournalMedia;
        let mut j = FaultyJournal::new(
            Vec::new(),
            JournalFaultConfig {
                sync_error: 1.0,
                ..JournalFaultConfig::default()
            },
            5,
        );
        j.write_all(b"ok").expect("writes unaffected");
        assert!(j.sync().is_err(), "sync fault fires");
        assert_eq!(j.get_ref(), b"ok");
    }

    #[test]
    fn server_fault_plan_fires_on_exact_ordinals() {
        let plan = ServerFaults::new()
            .panic_on(2)
            .engine_error_on(3)
            .engine_delay_on(4, Duration::from_millis(5));
        let d1 = plan.begin_request();
        assert!(!d1.panic && !d1.engine_error && d1.engine_delay.is_none());
        assert!(plan.begin_request().panic);
        assert!(plan.begin_request().engine_error);
        assert_eq!(
            plan.begin_request().engine_delay,
            Some(Duration::from_millis(5))
        );
        assert!(!plan.begin_request().panic);
        assert_eq!(plan.requests_seen(), 5);
    }

    #[test]
    fn storm_schedules_are_seeded_and_in_range() {
        let a = ServerFaults::storm(11, 3, 2, 100);
        let b = ServerFaults::storm(11, 3, 2, 100);
        let fire = |plan: &ServerFaults| -> Vec<(bool, bool)> {
            (0..100)
                .map(|_| {
                    let d = plan.begin_request();
                    (d.panic, d.engine_error)
                })
                .collect()
        };
        let fa = fire(&a);
        assert_eq!(fa, fire(&b), "same seed, same storm");
        assert_eq!(fa.iter().filter(|(p, _)| *p).count(), 3);
        assert_eq!(fa.iter().filter(|(_, e)| *e).count(), 2);
        assert_ne!(fa, fire(&ServerFaults::storm(12, 3, 2, 100)));
    }
}
