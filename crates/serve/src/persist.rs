//! Durable sessions: an append-only, CRC-framed write-ahead journal.
//!
//! A crash or restart used to lose every registered floorplan, because
//! sessions lived only in the in-memory [`LruCache`](crate::lru::LruCache).
//! But the engine is bitwise-deterministic, so a session is *fully*
//! determined by its registration body plus its ordered power-update
//! bodies — exactly the shape a small write-ahead journal captures.
//! This module journals those raw wire bodies and replays them through
//! the same [`crate::protocol`] parsers at boot, which is why
//! a recovered session answers its next report bitwise-identical to a
//! server that never crashed.
//!
//! # On-disk format
//!
//! One file per server, `<state-dir>/journal.ttsv`:
//!
//! ```text
//! "TTSVJRNL" (8 B)  version u32 LE (4 B)          — header
//! [len u32 LE][crc32 u32 LE][payload; len B]      — frame, repeated
//! payload = [kind u8][id u64 LE][rest…]
//! ```
//!
//! Kinds: `1` register (rest = raw request body), `2` power update
//! (rest = raw request body), `3` delete, `4` LRU-eviction tombstone,
//! `5` meta (`id` field carries the next session id). The CRC32 is the
//! IEEE polynomial, hand-rolled below (std has none).
//!
//! # Failure model
//!
//! * **Torn tail.** A crash mid-append leaves a partial frame; the
//!   length/CRC framing makes [`scan`] stop at the first bad frame, so
//!   recovery always yields a valid *prefix* of the history — never a
//!   panic, never a half-applied record. The tail is truncated on open
//!   so new appends extend a clean journal.
//! * **Write/fsync errors.** The journal *degrades*: persistence is
//!   disabled for the rest of the process, `persistence.write_errors`
//!   is counted, a warning is printed, and serving continues
//!   unjournaled. Durability is best-effort; availability is not.
//! * **Clean shutdown.** [`Journal::clean_shutdown`] compacts, and the
//!   snapshot is fsynced before it replaces the journal. Nothing marks
//!   the shutdown as clean: the next boot runs the same scan and tail
//!   truncation after a clean shutdown as after a crash.
//!
//! # States
//!
//! A server always holds one [`Journal`], in one of three states, and
//! `persistence.enabled` in `/metrics` reads which:
//!
//! * **Off** — no state dir was configured, or opening it failed
//!   (counted as one write error). There is no file.
//! * **Live** — the journal is open and every mutation appends.
//! * **Degraded** — a write or fsync failed; the file stays as it was.
//!
//! Off and degraded behave alike: each `record_*` call returns after one
//! relaxed load of [`PersistStats::is_enabled`], before anything is
//! copied, and nothing is synced any more.
//!
//! # Fsync clock
//!
//! Under `interval:MS` an append only writes, and a live journal's one
//! clock thread fsyncs MS after the oldest unsynced append, traffic or
//! not. Its failed sync degrades the journal as a failed write does.
//! Dropping the journal joins the clock without a final sync: a crash.
//!
//! # Compaction
//!
//! Deletions, evictions, and repeated updates to the same plane leave
//! dead records behind. Once the journal holds at least
//! [`PersistConfig::compact_min_records`] records and fewer than half
//! are live, it is folded: each live session becomes its original
//! registration body plus **one** full-replacement update per touched
//! plane ([`render_power_body_full`](crate::protocol::render_power_body_full)),
//! written to a temp file and atomically renamed over the journal.
//! Shortest-round-trip float rendering keeps the fold bit-exact. The
//! fold reads the journal *file* under the journal lock only — it never
//! touches live session state, so there is no lock-order cycle with the
//! serving paths.
//!
//! Fault injection for all of this lives in
//! [`crate::faults::FaultyJournal`], seeded like every other chaos
//! tool in this crate.

use std::collections::{BTreeSet, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::faults::{FaultyJournal, JournalFaultConfig, JournalFaultPlan};
use crate::lock;
use crate::metrics::PersistStats;
use crate::protocol::{self, SessionSpec};

/// Journal file magic (first 8 bytes).
const MAGIC: &[u8; 8] = b"TTSVJRNL";
/// Journal format version (4 bytes, little-endian, after the magic).
const VERSION: u32 = 1;
/// Header length: magic + version.
const HEADER_LEN: usize = 12;
/// A frame's payload may not exceed this (sanity bound during the scan:
/// a corrupt length field must not allocate gigabytes). Far above the
/// server's request-body cap.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;
/// The smallest valid payload: kind byte + id.
const MIN_PAYLOAD: usize = 9;

/// Record kinds: the first payload byte.
const REGISTER: u8 = 1;
const POWER_UPDATE: u8 = 2;
const DELETE: u8 = 3;
const EVICT: u8 = 4;
const META: u8 = 5;

/// Hand-rolled IEEE CRC32 (the zlib/Ethernet polynomial, reflected
/// form) — std ships no checksum, and the journal needs one to tell a
/// torn tail from a valid record.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One journal record. `Register` and `PowerUpdate` carry the raw
/// request body exactly as it arrived on the wire — replaying it
/// through the same parser is what makes recovery bitwise-faithful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A session registration (`POST /sessions`) that was accepted.
    Register {
        /// The session id the server allocated.
        id: u64,
        /// The raw registration body.
        body: Vec<u8>,
    },
    /// A power update (`POST /sessions/{id}/power`) that was applied.
    PowerUpdate {
        /// The session the update was applied to.
        id: u64,
        /// The raw update body.
        body: Vec<u8>,
    },
    /// An explicit `DELETE /sessions/{id}` — recovery must never
    /// resurrect this session.
    Delete {
        /// The deleted session.
        id: u64,
    },
    /// An LRU-eviction tombstone — same recovery semantics as a delete.
    Evict {
        /// The evicted session.
        id: u64,
    },
    /// Journal metadata: the next session id to allocate, so ids stay
    /// monotonic across restarts even after every session is deleted.
    Meta {
        /// The next id the server should hand out.
        next_id: u64,
    },
}

/// One framed journal entry, `[len][crc32][kind][id][body]`, built in a
/// single buffer straight from the borrowed body.
fn frame(kind: u8, id: u64, body: &[u8]) -> Vec<u8> {
    let len = MIN_PAYLOAD + body.len();
    let mut frame = Vec::with_capacity(8 + len);
    #[allow(clippy::cast_possible_truncation)]
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.extend_from_slice(&[0; 4]); // the CRC, once the payload is in
    frame.push(kind);
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(body);
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

impl Record {
    /// Encodes this record as one framed journal entry
    /// (`[len][crc32][payload]`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Record::Register { id, body } => frame(REGISTER, *id, body),
            Record::PowerUpdate { id, body } => frame(POWER_UPDATE, *id, body),
            Record::Delete { id } => frame(DELETE, *id, &[]),
            Record::Evict { id } => frame(EVICT, *id, &[]),
            Record::Meta { next_id } => frame(META, *next_id, &[]),
        }
    }

    fn decode(payload: &[u8]) -> Option<Record> {
        if payload.len() < MIN_PAYLOAD {
            return None;
        }
        let id = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let body = &payload[9..];
        match (payload[0], body.is_empty()) {
            (REGISTER, _) => Some(Record::Register {
                id,
                body: body.to_vec(),
            }),
            (POWER_UPDATE, _) => Some(Record::PowerUpdate {
                id,
                body: body.to_vec(),
            }),
            (DELETE, true) => Some(Record::Delete { id }),
            (EVICT, true) => Some(Record::Evict { id }),
            (META, true) => Some(Record::Meta { next_id: id }),
            _ => None,
        }
    }
}

/// The journal header ([`MAGIC`] + version), as written to a new file.
fn header_bytes() -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h
}

/// Scans raw journal bytes into the longest valid record prefix.
///
/// Returns the decoded records and the byte length of the valid prefix
/// (header included). The scan stops — without panicking, whatever the
/// input — at the first missing/oversized/corrupt frame: a torn tail,
/// a bad CRC, or an unknown record kind all just end the prefix. A
/// missing or corrupt *header* yields an empty journal (prefix 0).
#[must_use]
pub fn scan(bytes: &[u8]) -> (Vec<Record>, usize) {
    if bytes.len() < HEADER_LEN
        || &bytes[..8] != MAGIC
        || bytes[8..HEADER_LEN] != VERSION.to_le_bytes()
    {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    while let Some(head) = bytes.get(offset..offset + 8) {
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) {
            break;
        }
        let Some(payload) = bytes.get(offset + 8..offset + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = Record::decode(payload) else {
            break;
        };
        records.push(record);
        offset += 8 + len;
    }
    (records, offset)
}

/// When the journal is flushed to the OS *and* fsynced to the device.
///
/// Appends always reach the OS page cache immediately (surviving a
/// process crash); the fsync policy only governs durability across
/// power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record (most durable, slowest).
    Always,
    /// fsync every appended record within the interval of its append,
    /// at most once per interval, on the journal's own clock thread (see
    /// the module docs) — the default, at 100 ms: bounded power-loss
    /// exposure at near-`Never` append latency, on a quiet server too.
    Interval(Duration),
    /// Never fsync (the OS decides; fastest).
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Interval(Duration::from_millis(100))
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::default()),
            _ => match s.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad fsync interval {ms:?} (milliseconds)")),
                None => Err(format!(
                    "unknown fsync policy {s:?} (expected always | interval[:MS] | never)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// Where journal bytes land: `Write` plus a durability barrier. The
/// real media is a [`File`] (fsync via `sync_data`); tests use
/// `Vec<u8>`, and [`FaultyJournal`] wraps either with seeded faults.
pub trait JournalMedia: Write + Send {
    /// Flushes written bytes through to the device (fsync).
    ///
    /// # Errors
    ///
    /// Propagates the underlying fsync failure.
    fn sync(&mut self) -> io::Result<()>;
}

impl JournalMedia for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl JournalMedia for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Journal configuration: where state lives and how durable it is.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding `journal.ttsv` (created if absent). One server
    /// per directory.
    pub state_dir: PathBuf,
    /// When appended records are fsynced.
    pub fsync: FsyncPolicy,
    /// Compaction never triggers below this many journal records
    /// (avoids rewriting a tiny journal over and over).
    pub compact_min_records: u64,
    /// Seeded fault injection for the journal media (chaos tests).
    pub faults: Option<JournalFaultPlan>,
}

impl PersistConfig {
    /// A default-durability config journaling under `state_dir`.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            state_dir: state_dir.into(),
            fsync: FsyncPolicy::default(),
            compact_min_records: 1024,
            faults: None,
        }
    }

    /// Replaces the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replaces the compaction floor.
    #[must_use]
    pub fn with_compact_min_records(mut self, records: u64) -> Self {
        self.compact_min_records = records;
        self
    }

    /// Wraps the journal media in a seeded [`FaultyJournal`].
    #[must_use]
    pub fn with_faults(mut self, config: JournalFaultConfig, seed: u64) -> Self {
        self.faults = Some(JournalFaultPlan { config, seed });
        self
    }

    /// The journal file this config reads and appends.
    #[must_use]
    pub fn journal_path(&self) -> PathBuf {
        self.state_dir.join("journal.ttsv")
    }

    fn wrap_media(&self, file: File) -> Box<dyn JournalMedia> {
        match self.faults {
            Some(plan) => Box::new(FaultyJournal::new(file, plan.config, plan.seed)),
            None => Box::new(file),
        }
    }
}

/// One session rebuilt from the journal at boot.
#[derive(Debug)]
pub struct RecoveredSession {
    /// Its original id (preserved across the restart).
    pub id: u64,
    /// Its spec with every journaled power update re-applied — hand it
    /// to the engine and the next report is bitwise what the
    /// never-crashed server would have answered.
    pub spec: SessionSpec,
}

/// What [`Journal::open`] replayed, in least-recently-touched-first
/// order (so inserting in order rebuilds the LRU recency too).
#[derive(Debug)]
pub struct Recovery {
    /// The surviving sessions (deleted/evicted ones stay gone).
    pub sessions: Vec<RecoveredSession>,
    /// The next session id to allocate.
    pub next_id: u64,
}

/// A session's journaled history after folding deletes/evictions.
#[derive(Debug, Default)]
struct FoldedSession {
    register: Vec<u8>,
    updates: Vec<Vec<u8>>,
}

/// The fold of a record sequence: live sessions in touch order, plus
/// the id watermark.
#[derive(Debug, Default)]
struct Folded {
    /// Touch-ordered (least recent first), like an LRU's iteration.
    sessions: Vec<(u64, FoldedSession)>,
    next_id: u64,
}

fn fold(records: &[Record]) -> Folded {
    let mut folded = Folded {
        sessions: Vec::new(),
        next_id: 1,
    };
    let position = |sessions: &[(u64, FoldedSession)], id: u64| {
        sessions.iter().position(|(sid, _)| *sid == id)
    };
    for record in records {
        match record {
            Record::Register { id, body } => {
                if let Some(i) = position(&folded.sessions, *id) {
                    folded.sessions.remove(i);
                }
                folded.sessions.push((
                    *id,
                    FoldedSession {
                        register: body.clone(),
                        updates: Vec::new(),
                    },
                ));
                folded.next_id = folded.next_id.max(id + 1);
            }
            Record::PowerUpdate { id, body } => {
                // An update for a dead id is expected: a power update
                // holds its session while a `DELETE` or an LRU eviction
                // removes it, so the tombstone can be journaled first.
                // The session stays dead.
                if let Some(i) = position(&folded.sessions, *id) {
                    let mut entry = folded.sessions.remove(i);
                    entry.1.updates.push(body.clone());
                    folded.sessions.push(entry);
                }
                folded.next_id = folded.next_id.max(id + 1);
            }
            Record::Delete { id } | Record::Evict { id } => {
                if let Some(i) = position(&folded.sessions, *id) {
                    folded.sessions.remove(i);
                }
                folded.next_id = folded.next_id.max(id + 1);
            }
            Record::Meta { next_id } => folded.next_id = folded.next_id.max(*next_id),
        }
    }
    folded
}

/// Replays one folded session through the wire parsers, returning the
/// rebuilt spec and the set of planes its updates touched.
fn rebuild_spec(folded: &FoldedSession) -> Result<(SessionSpec, BTreeSet<usize>), String> {
    let mut spec = protocol::parse_register(&folded.register).map_err(|e| e.to_string())?;
    let mut planes = BTreeSet::new();
    for body in &folded.updates {
        let (plane, map) =
            protocol::parse_power_update(body, &spec.plan).map_err(|e| e.to_string())?;
        spec.plan
            .update_power_map(plane, map)
            .map_err(|e| e.to_string())?;
        planes.insert(plane);
    }
    Ok((spec, planes))
}

/// A folded session's id, journaled history and rebuilt spec.
type Rebuilt<'a> = (u64, &'a FoldedSession, SessionSpec);

/// Rebuilds every folded session (see [`rebuild_spec`]) in touch order,
/// with the bookkeeping [`Inner::sessions`] keeps: the planes each one's
/// updates touched. A session whose bodies no longer parse is dropped
/// with a warning naming the `pass` (recovery or compaction).
fn rebuild_sessions<'a>(
    folded: &'a Folded,
    pass: &str,
) -> (Vec<Rebuilt<'a>>, HashMap<u64, BTreeSet<usize>>) {
    let mut rebuilt = Vec::new();
    let mut bookkeeping = HashMap::new();
    for (id, session) in &folded.sessions {
        match rebuild_spec(session) {
            Ok((spec, planes)) => {
                bookkeeping.insert(*id, planes);
                rebuilt.push((*id, session, spec));
            }
            Err(e) => eprintln!(
                "ttsv-serve: journal {pass} dropping session {id} (body no longer parses: {e})"
            ),
        }
    }
    (rebuilt, bookkeeping)
}

/// An open journal file and its bookkeeping: everything the compaction
/// trigger and the fsync clock need without re-reading the file.
struct Inner {
    config: PersistConfig,
    stats: Arc<PersistStats>,
    media: Box<dyn JournalMedia>,
    /// Records in the file, live or dead.
    total_records: u64,
    /// Live sessions → planes their surviving updates touch; a
    /// session's live-record count is `1 + planes.len()` after a fold.
    sessions: HashMap<u64, BTreeSet<usize>>,
    /// When the oldest unsynced record was appended; `None` when every
    /// appended record is synced.
    unsynced_since: Option<Instant>,
    /// Set when the journal drops: the clock exits without syncing.
    closing: bool,
}

impl Inner {
    fn live_records(&self) -> u64 {
        self.sessions
            .values()
            .map(|planes| 1 + planes.len() as u64)
            .sum::<u64>()
            + 1 // the Meta watermark a fold always writes
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("state_dir", &self.config.state_dir)
            .field("total_records", &self.total_records)
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

/// A live journal's state, shared with its fsync clock.
#[derive(Debug)]
struct Live {
    inner: Mutex<Inner>,
    /// Wakes the clock: on the first unsynced append, and on drop.
    tick: Condvar,
}

/// The per-server write-ahead journal: off, live or degraded (see the
/// module docs). All methods are `&self` and thread-safe.
///
/// Appends never return errors to the serving path: any journal
/// write/fsync failure permanently degrades this journal (persistence
/// off, [`PersistStats::add_write_error`] counted, warning printed) and
/// the request that triggered it still succeeds.
#[derive(Debug)]
pub struct Journal {
    /// The on/off flag and counters `/metrics` reports.
    stats: Arc<PersistStats>,
    /// The open file; `None` when the journal is off.
    live: Option<Arc<Live>>,
    /// The `interval:MS` fsync clock ([`run_clock`]).
    clock: Option<JoinHandle<()>>,
}

impl Journal {
    /// Opens (or creates) the journal under `config.state_dir` and
    /// replays it.
    ///
    /// A torn tail is truncated away; a missing or corrupt header
    /// restarts the journal empty. Sessions whose bodies no longer
    /// parse are dropped with a warning rather than failing the boot.
    ///
    /// # Errors
    ///
    /// Only environmental failures surface here (directory or file
    /// cannot be created/read) — [`Journal::open_or_off`] treats that as
    /// "persistence unavailable", not a fatal server error.
    pub fn open(
        config: PersistConfig,
        stats: Arc<PersistStats>,
    ) -> io::Result<(Journal, Recovery)> {
        fs::create_dir_all(&config.state_dir)?;
        let path = config.journal_path();
        let existing = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = scan(&existing);

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if valid_len == 0 {
            // New file, or an unrecognizable header: start fresh.
            file.set_len(0)?;
            file.write_all(&header_bytes())?;
        } else {
            // Truncate any torn tail so appends extend a valid prefix.
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;

        let folded = fold(&records);
        let (rebuilt, bookkeeping) = rebuild_sessions(&folded, "recovery");
        let sessions: Vec<RecoveredSession> = rebuilt
            .into_iter()
            .map(|(id, _, spec)| RecoveredSession { id, spec })
            .collect();

        let fsync = config.fsync;
        let live = Arc::new(Live {
            inner: Mutex::new(Inner {
                media: config.wrap_media(file),
                config,
                stats: Arc::clone(&stats),
                total_records: records.len() as u64,
                sessions: bookkeeping,
                unsynced_since: None,
                closing: false,
            }),
            tick: Condvar::new(),
        });
        // Spawned before the journal is enabled, so a failed spawn
        // leaves it off.
        let clock = if let FsyncPolicy::Interval(interval) = fsync {
            let live = Arc::clone(&live);
            let clock = std::thread::Builder::new().name("ttsv-journal-clock".into());
            Some(clock.spawn(move || run_clock(&live, interval))?)
        } else {
            None
        };
        stats.add_replayed(records.len() as u64);
        stats.add_recovered_sessions(sessions.len() as u64);
        stats.set_enabled(true);
        let journal = Journal {
            stats,
            live: Some(live),
            clock,
        };
        let recovery = Recovery {
            sessions,
            next_id: folded.next_id,
        };
        Ok((journal, recovery))
    }

    /// The server's journal: [`Journal::open`] on `config`, or an off
    /// journal and an empty recovery when there is no config or the open
    /// fails. A failed open counts one write error and prints a warning;
    /// the server then serves from memory.
    #[must_use]
    pub fn open_or_off(config: Option<PersistConfig>) -> (Journal, Recovery) {
        let stats = Arc::new(PersistStats::default());
        if let Some(config) = config {
            match Journal::open(config, Arc::clone(&stats)) {
                Ok(opened) => return opened,
                Err(e) => {
                    eprintln!(
                        "ttsv-serve: warning: persistence disabled: \
                         opening the journal failed: {e}"
                    );
                    stats.add_write_error();
                }
            }
        }
        let off = Journal {
            stats,
            live: None,
            clock: None,
        };
        let recovery = Recovery {
            sessions: Vec::new(),
            next_id: 1,
        };
        (off, recovery)
    }

    /// The journal's on/off flag ([`PersistStats::is_enabled`]: false
    /// when off, and after a write/fsync error degraded it) and counters.
    #[must_use]
    pub fn stats(&self) -> &PersistStats {
        &self.stats
    }

    /// Journals an accepted registration.
    pub fn record_register(&self, id: u64, body: &[u8]) {
        self.append(REGISTER, id, body, |sessions| {
            sessions.insert(id, BTreeSet::new());
        });
    }

    /// Journals an applied power update (`plane` is the index the
    /// server already parsed from `body`).
    pub fn record_update(&self, id: u64, plane: usize, body: &[u8]) {
        self.append(POWER_UPDATE, id, body, |sessions| {
            if let Some(planes) = sessions.get_mut(&id) {
                planes.insert(plane);
            }
        });
    }

    /// Journals an explicit deletion.
    pub fn record_delete(&self, id: u64) {
        self.append(DELETE, id, &[], |sessions| {
            sessions.remove(&id);
        });
    }

    /// Journals an LRU-eviction tombstone.
    pub fn record_evict(&self, id: u64) {
        self.append(EVICT, id, &[], |sessions| {
            sessions.remove(&id);
        });
    }

    /// The live state and its lock, or `None` when the journal is off or
    /// degraded. The flag is read before the lock and again once it is
    /// held: a write error may have degraded the journal while this call
    /// waited.
    fn lock_live(&self) -> Option<(&Live, MutexGuard<'_, Inner>)> {
        if !self.stats.is_enabled() {
            return None;
        }
        let live = self.live.as_deref()?;
        let inner = lock(&live.inner);
        self.stats.is_enabled().then_some((live, inner))
    }

    /// Appends one record; `track` updates the live-session bookkeeping
    /// once the frame is written.
    fn append(
        &self,
        kind: u8,
        id: u64,
        body: &[u8],
        track: impl FnOnce(&mut HashMap<u64, BTreeSet<usize>>),
    ) {
        let Some((live, mut inner)) = self.lock_live() else {
            return;
        };
        let frame = frame(kind, id, body);
        if let Err(e) = inner.media.write_all(&frame) {
            inner.degrade("write", &e);
            return;
        }
        inner.total_records += 1;
        track(&mut inner.sessions);
        self.stats.add_written(1, frame.len() as u64);

        if inner.config.fsync == FsyncPolicy::Always {
            if let Err(e) = inner.sync() {
                inner.degrade("fsync", &e);
                return;
            }
        } else {
            self.stats.add_unsynced();
            if inner.unsynced_since.is_none() {
                inner.unsynced_since = Some(Instant::now());
                // Starts the interval clock; under `never` no one waits.
                live.tick.notify_one();
            }
        }

        if inner.total_records >= inner.config.compact_min_records
            && inner.live_records() * 2 < inner.total_records
        {
            if let Err(e) = inner.compact() {
                inner.degrade("compaction", &e);
            }
        }
    }

    /// Graceful-shutdown hook: compacts a live journal (the snapshot is
    /// fsynced before it replaces the file); does nothing when the
    /// journal is off or degraded. Crash simulation (`Server::abort`)
    /// skips this — that is the whole difference between the two
    /// shutdowns.
    pub fn clean_shutdown(&self) {
        let Some((_, mut inner)) = self.lock_live() else {
            return;
        };
        if let Err(e) = inner.compact() {
            inner.degrade("shutdown compaction", &e);
        }
    }
}

impl Drop for Journal {
    /// Stops and joins the fsync clock without a final sync, so a
    /// dropped journal leaves what a crash would.
    fn drop(&mut self) {
        if let (Some(live), Some(clock)) = (&self.live, self.clock.take()) {
            lock(&live.inner).closing = true;
            live.tick.notify_one();
            let _ = clock.join();
        }
    }
}

/// The `interval:MS` fsync clock: syncs `interval` after the oldest
/// unsynced append. It exits on drop, on its own failed sync, and at the
/// first deadline after a degrade; it reads the on/off flag only there,
/// since the journal is enabled after the clock is spawned.
fn run_clock(live: &Live, interval: Duration) {
    let mut inner = lock(&live.inner);
    while !inner.closing {
        let left = inner.unsynced_since.map_or(Duration::MAX, |since| {
            interval.saturating_sub(since.elapsed())
        });
        if !left.is_zero() {
            let woken = live.tick.wait_timeout(inner, left);
            inner = woken.unwrap_or_else(PoisonError::into_inner).0;
        } else if !inner.stats.is_enabled() {
            return;
        } else if let Err(e) = inner.sync() {
            inner.degrade("fsync", &e);
            return;
        }
    }
}

impl Inner {
    /// Fsyncs the media and records that nothing is left unsynced.
    fn sync(&mut self) -> io::Result<()> {
        self.media.sync()?;
        self.synced();
        Ok(())
    }

    /// Everything appended so far is durable.
    fn synced(&mut self) {
        self.unsynced_since = None;
        self.stats.clear_unsynced();
    }

    /// Folds the journal file into its live snapshot (see the module
    /// docs). Runs with the journal lock held and touches nothing else.
    fn compact(&mut self) -> io::Result<()> {
        self.media.flush()?;
        let journal_path = self.config.journal_path();
        let bytes = fs::read(&journal_path)?;
        let (records, _) = scan(&bytes);
        let folded = fold(&records);

        let mut out = header_bytes();
        let mut out_records: u64 = 1;
        out.extend_from_slice(&frame(META, folded.next_id, &[]));
        let (rebuilt, bookkeeping) = rebuild_sessions(&folded, "compaction");
        for (id, session, spec) in &rebuilt {
            out.extend_from_slice(&frame(REGISTER, *id, &session.register));
            out_records += 1;
            for &plane in &bookkeeping[id] {
                let body = protocol::render_power_body_full(plane, &spec.plan.plane_maps()[plane]);
                out.extend_from_slice(&frame(POWER_UPDATE, *id, body.as_bytes()));
                out_records += 1;
            }
        }

        let tmp = self.config.state_dir.join("journal.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &journal_path)?;
        sync_dir(&self.config.state_dir);

        let file = OpenOptions::new().append(true).open(&journal_path)?;
        self.media = self.config.wrap_media(file);
        self.total_records = out_records;
        self.sessions = bookkeeping;
        // The snapshot was fsynced before the rename: every live record
        // is durable.
        self.synced();
        self.stats.add_compaction();
        Ok(())
    }

    fn degrade(&self, what: &str, err: &io::Error) {
        self.stats.set_enabled(false);
        self.stats.add_write_error();
        eprintln!(
            "ttsv-serve: persistence disabled after journal {what} error: {err} \
             (serving continues unjournaled)"
        );
    }
}

/// Best-effort directory fsync so a compaction rename is durable; not
/// every filesystem supports it, so failures are ignored.
fn sync_dir(dir: &Path) {
    let _ = File::open(dir).and_then(|d| d.sync_all());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PersistSnapshot;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ttsv-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn register_body(nx: usize, ny: usize) -> Vec<u8> {
        let tiles = nx * ny;
        #[allow(clippy::cast_precision_loss)]
        let planes: Vec<Vec<f64>> = (0..3)
            .map(|j| {
                (0..tiles)
                    .map(|i| 0.5 + 0.01 * i as f64 + 0.1 * j as f64)
                    .collect()
            })
            .collect();
        protocol::render_register_body(nx, ny, &planes, 0.005).into_bytes()
    }

    fn plan_bits(spec: &SessionSpec) -> Vec<Vec<u64>> {
        spec.plan
            .plane_maps()
            .iter()
            .map(|m| m.tiles().iter().map(|w| w.as_watts().to_bits()).collect())
            .collect()
    }

    #[test]
    fn crc32_matches_the_ieee_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn fsync_policy_parses_and_round_trips() {
        assert_eq!("always".parse(), Ok(FsyncPolicy::Always));
        assert_eq!("never".parse(), Ok(FsyncPolicy::Never));
        assert_eq!(
            "interval:250".parse(),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!("interval".parse(), Ok(FsyncPolicy::default()));
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::Interval(Duration::from_millis(7)),
        ] {
            assert_eq!(policy.to_string().parse(), Ok(policy));
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert!("interval:often".parse::<FsyncPolicy>().is_err());
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta { next_id: 7 },
            Record::Register {
                id: 1,
                body: register_body(2, 2),
            },
            Record::PowerUpdate {
                id: 1,
                body: b"{\"plane\":0,\"updates\":[[0,0,9.5]]}".to_vec(),
            },
            Record::Register {
                id: 2,
                body: register_body(2, 2),
            },
            Record::Delete { id: 2 },
            Record::Evict { id: 1 },
        ]
    }

    #[test]
    fn encode_scan_round_trips_every_record_kind() {
        let records = sample_records();
        let mut bytes = header_bytes();
        for r in &records {
            bytes.extend_from_slice(&r.encode());
        }
        let (scanned, valid) = scan(&bytes);
        assert_eq!(scanned, records);
        assert_eq!(valid, bytes.len());
    }

    #[test]
    fn scan_stops_cleanly_at_every_truncation_and_on_corruption() {
        let records = sample_records();
        let mut bytes = header_bytes();
        let mut boundaries = vec![HEADER_LEN];
        for r in &records {
            bytes.extend_from_slice(&r.encode());
            boundaries.push(bytes.len());
        }
        // Truncation at every byte offset: the scan never panics and
        // yields exactly the records whose frames fit entirely.
        for cut in 0..=bytes.len() {
            let (scanned, valid) = scan(&bytes[..cut]);
            let expect =
                boundaries.iter().filter(|b| **b <= cut).count() - usize::from(cut >= HEADER_LEN);
            if cut < HEADER_LEN {
                assert_eq!((scanned.len(), valid), (0, 0), "cut={cut}");
            } else {
                assert_eq!(scanned.len(), expect, "cut={cut}");
                assert_eq!(valid, boundaries[expect], "cut={cut}");
                assert_eq!(scanned.as_slice(), &records[..expect], "cut={cut}");
            }
        }
        // A flipped payload byte kills that record and the rest of the
        // prefix, but not the records before it.
        let mut corrupt = bytes.clone();
        corrupt[boundaries[2] + 12] ^= 0x40;
        let (scanned, valid) = scan(&corrupt);
        assert_eq!(scanned.as_slice(), &records[..2]);
        assert_eq!(valid, boundaries[2]);
        // A corrupt header means an empty journal, not a panic.
        let mut bad_header = bytes;
        bad_header[3] ^= 0xFF;
        assert_eq!(scan(&bad_header), (Vec::new(), 0));
    }

    #[test]
    fn fold_applies_deletes_evictions_and_meta() {
        let folded = fold(&sample_records());
        assert!(folded.sessions.is_empty(), "both sessions ended dead");
        assert_eq!(folded.next_id, 7, "meta watermark wins");

        let folded = fold(&[
            Record::Register {
                id: 3,
                body: register_body(2, 2),
            },
            Record::PowerUpdate {
                id: 3,
                body: b"{\"plane\":1,\"updates\":[[1,0,2.5]]}".to_vec(),
            },
        ]);
        assert_eq!(folded.sessions.len(), 1);
        assert_eq!(folded.sessions[0].0, 3);
        assert_eq!(folded.sessions[0].1.updates.len(), 1);
        assert_eq!(folded.next_id, 4, "max id + 1 without a meta record");

        // A power update holds its session while a `DELETE` or an LRU
        // eviction removes it, so the tombstone can be journaled first.
        for tombstone in [Record::Delete { id: 5 }, Record::Evict { id: 5 }] {
            let folded = fold(&[
                Record::Register {
                    id: 5,
                    body: register_body(2, 2),
                },
                tombstone.clone(),
                Record::PowerUpdate {
                    id: 5,
                    body: b"{\"plane\":0,\"updates\":[[0,0,9.5]]}".to_vec(),
                },
            ]);
            assert!(folded.sessions.is_empty(), "{tombstone:?} then an update");
            assert_eq!(folded.next_id, 6, "{tombstone:?}: the id is never reused");
        }
    }

    #[test]
    fn journal_round_trips_sessions_across_reopen() {
        let dir = test_dir("reopen");
        let config = PersistConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let expected = {
            let (journal, recovery) =
                Journal::open(config.clone(), Arc::new(PersistStats::default())).unwrap();
            assert!(recovery.sessions.is_empty());
            assert_eq!(recovery.next_id, 1);
            journal.record_register(1, &register_body(3, 2));
            journal.record_register(2, &register_body(3, 2));
            let update = b"{\"plane\":2,\"updates\":[[1,1,4.25]]}";
            journal.record_update(1, 2, update);
            journal.record_delete(2);
            // Ground truth: replay by hand.
            let mut spec = protocol::parse_register(&register_body(3, 2)).unwrap();
            let (plane, map) = protocol::parse_power_update(update, &spec.plan).unwrap();
            spec.plan.update_power_map(plane, map).unwrap();
            plan_bits(&spec)
            // journal dropped without `clean_shutdown()`: a crash.
        };

        let stats = Arc::new(PersistStats::default());
        let (journal, recovery) = Journal::open(config.clone(), Arc::clone(&stats)).unwrap();
        assert_eq!(recovery.next_id, 3);
        assert_eq!(recovery.sessions.len(), 1, "session 2 was deleted");
        assert_eq!(recovery.sessions[0].id, 1);
        assert_eq!(plan_bits(&recovery.sessions[0].spec), expected);
        assert_eq!(stats.snapshot().records_replayed, 4);
        assert_eq!(stats.snapshot().recovered_sessions, 1);

        // Clean shutdown compacts; the next open replays the snapshot.
        journal.clean_shutdown();
        let (_, recovery) = Journal::open(config, Arc::new(PersistStats::default())).unwrap();
        assert_eq!(recovery.next_id, 3, "meta record preserves the watermark");
        assert_eq!(recovery.sessions.len(), 1);
        assert_eq!(plan_bits(&recovery.sessions[0].spec), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_truncates_a_torn_tail_and_keeps_appending() {
        let dir = test_dir("torn");
        let config = PersistConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        {
            let (journal, _) =
                Journal::open(config.clone(), Arc::new(PersistStats::default())).unwrap();
            journal.record_register(1, &register_body(2, 2));
            journal.record_register(2, &register_body(2, 2));
        }
        // Tear the last record mid-frame.
        let bytes = fs::read(config.journal_path()).unwrap();
        let torn_len = bytes.len() - 7;
        let f = OpenOptions::new()
            .write(true)
            .open(config.journal_path())
            .unwrap();
        f.set_len(torn_len as u64).unwrap();
        drop(f);

        let (journal, recovery) =
            Journal::open(config.clone(), Arc::new(PersistStats::default())).unwrap();
        assert_eq!(
            recovery.sessions.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1],
            "the torn register never happened"
        );
        // The tail was truncated, so an append after the torn record
        // still yields a fully valid journal.
        journal.record_register(9, &register_body(2, 2));
        drop(journal);
        let bytes = fs::read(config.journal_path()).unwrap();
        let (records, valid) = scan(&bytes);
        assert_eq!(valid, bytes.len(), "no garbage survived the reopen");
        assert_eq!(records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_dead_records_and_preserves_bits() {
        let dir = test_dir("compact");
        let config = PersistConfig::new(&dir)
            .with_fsync(FsyncPolicy::Never)
            .with_compact_min_records(8);
        let stats = Arc::new(PersistStats::default());
        let (journal, _) = Journal::open(config.clone(), Arc::clone(&stats)).unwrap();
        journal.record_register(1, &register_body(3, 3));
        let mut spec = protocol::parse_register(&register_body(3, 3)).unwrap();
        for round in 0..12 {
            let body = format!(
                "{{\"plane\":0,\"updates\":[[{},{},{}.5]]}}",
                round % 3,
                round % 3,
                round
            );
            journal.record_update(1, 0, body.as_bytes());
            let (plane, map) = protocol::parse_power_update(body.as_bytes(), &spec.plan).unwrap();
            spec.plan.update_power_map(plane, map).unwrap();
        }
        assert!(
            stats.snapshot().compactions >= 1,
            "12 same-plane updates against a floor of 8 must have compacted"
        );
        drop(journal);

        let stats = Arc::new(PersistStats::default());
        let (_, recovery) = Journal::open(config, Arc::clone(&stats)).unwrap();
        assert_eq!(recovery.sessions.len(), 1);
        assert_eq!(plan_bits(&recovery.sessions[0].spec), plan_bits(&spec));
        let replayed = stats.snapshot().records_replayed;
        assert!(
            replayed <= 4,
            "a folded session is register + one update per touched plane, got {replayed}"
        );
        assert_eq!(recovery.next_id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_faults_degrade_without_panicking() {
        let dir = test_dir("degrade");
        let stats = Arc::new(PersistStats::default());
        let config = PersistConfig::new(&dir).with_faults(
            JournalFaultConfig {
                write_error: 1.0,
                ..JournalFaultConfig::default()
            },
            42,
        );
        let (journal, _) = Journal::open(config, Arc::clone(&stats)).unwrap();
        assert!(journal.stats().is_enabled());
        journal.record_register(1, &register_body(2, 2));
        assert!(
            !journal.stats().is_enabled(),
            "first failed append degrades"
        );
        assert_eq!(stats.snapshot().write_errors, 1);
        // Further appends are silent no-ops, and clean shutdown neither
        // panics nor touches the state dir.
        assert_records_nothing(&journal, &dir);
        assert_eq!(stats.snapshot().write_errors, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The files under `dir` with their lengths, sorted.
    fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                (entry.path(), entry.metadata().unwrap().len())
            })
            .collect();
        files.sort();
        files
    }

    /// Drives every entry point of an off or degraded journal: nothing
    /// is written, synced or counted, and shutdown creates no file in
    /// `dir`.
    fn assert_records_nothing(journal: &Journal, dir: &Path) {
        let before = journal.stats().snapshot();
        let files = listing(dir);
        journal.record_register(1, &register_body(2, 2));
        journal.record_update(1, 0, b"{\"plane\":0,\"updates\":[[0,0,9.5]]}");
        journal.record_delete(1);
        journal.record_evict(2);
        journal.clean_shutdown();
        assert!(!journal.stats().is_enabled());
        assert_eq!(journal.stats().snapshot(), before, "no counter moved");
        assert_eq!(listing(dir), files, "no file created or grown");
    }

    #[test]
    fn off_journals_record_nothing() {
        let dir = test_dir("off");
        fs::create_dir_all(&dir).unwrap();
        // No state dir configured.
        let (journal, recovery) = Journal::open_or_off(None);
        assert!(recovery.sessions.is_empty());
        assert_eq!(recovery.next_id, 1);
        assert_eq!(journal.stats().snapshot(), PersistSnapshot::default());
        assert_records_nothing(&journal, &dir);

        // A state dir that cannot be created: off, one write error.
        let blocker = dir.join("blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let (journal, recovery) = Journal::open_or_off(Some(PersistConfig::new(&blocker)));
        assert!(recovery.sessions.is_empty());
        assert_eq!(recovery.next_id, 1);
        assert_eq!(journal.stats().snapshot().write_errors, 1);
        assert_records_nothing(&journal, &dir);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Polls `done` until it holds or `limit` has passed; whether it held.
    fn eventually(limit: Duration, done: impl Fn() -> bool) -> bool {
        let give_up = Instant::now() + limit;
        while !done() {
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn interval_clock_syncs_a_journal_nobody_else_calls() {
        const INTERVAL: Duration = Duration::from_millis(20);
        let dir = test_dir("clock");
        let config = PersistConfig::new(&dir).with_fsync(FsyncPolicy::Interval(INTERVAL));
        let stats = Arc::new(PersistStats::default());
        let (journal, _) = Journal::open(config, Arc::clone(&stats)).unwrap();
        journal.record_register(1, &register_body(2, 2));
        journal.record_update(1, 0, b"{\"plane\":0,\"updates\":[[0,0,9.5]]}");
        assert_eq!(stats.snapshot().records_written, 2);
        assert!(
            eventually(20 * INTERVAL, || stats.snapshot().unsynced_records == 0),
            "{} record(s) still unsynced {:?} after the last append",
            stats.snapshot().unsynced_records,
            20 * INTERVAL
        );
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_appends_do_not_wait_for_the_fsync() {
        const INTERVAL: Duration = Duration::from_millis(10);
        const SYNC_DELAY: Duration = Duration::from_millis(300);
        let dir = test_dir("slow-sync");
        let stats = Arc::new(PersistStats::default());
        let config = PersistConfig::new(&dir)
            .with_fsync(FsyncPolicy::Interval(INTERVAL))
            .with_faults(
                JournalFaultConfig {
                    sync_delay: Some(SYNC_DELAY),
                    ..JournalFaultConfig::default()
                },
                3,
            );
        let (journal, _) = Journal::open(config, Arc::clone(&stats)).unwrap();
        // Two intervals after open: a sync is due as soon as this appends.
        std::thread::sleep(2 * INTERVAL);
        let started = Instant::now();
        journal.record_register(1, &register_body(2, 2));
        let took = started.elapsed();
        assert!(
            took < SYNC_DELAY / 3,
            "an interval append took {took:?} against a {SYNC_DELAY:?} fsync"
        );
        assert!(
            eventually(10 * SYNC_DELAY, || stats.snapshot().unsynced_records == 0),
            "the clock synced the record"
        );
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_clock_sync_degrades_the_journal() {
        let dir = test_dir("clock-fault");
        let stats = Arc::new(PersistStats::default());
        let config = PersistConfig::new(&dir)
            .with_fsync(FsyncPolicy::Interval(Duration::from_millis(10)))
            .with_faults(
                JournalFaultConfig {
                    sync_error: 1.0,
                    ..JournalFaultConfig::default()
                },
                11,
            );
        let (journal, _) = Journal::open(config, Arc::clone(&stats)).unwrap();
        journal.record_register(1, &register_body(2, 2));
        assert!(
            eventually(Duration::from_secs(5), || !journal.stats().is_enabled()),
            "the clock's failed sync degrades the journal with no further call"
        );
        assert_eq!(stats.snapshot().write_errors, 1);
        assert_records_nothing(&journal, &dir);
        assert_eq!(stats.snapshot().write_errors, 1);
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_with_a_pending_deadline_drops_promptly_without_syncing() {
        let dir = test_dir("clock-drop");
        let stats = Arc::new(PersistStats::default());
        let config =
            PersistConfig::new(&dir).with_fsync(FsyncPolicy::Interval(Duration::from_secs(3600)));
        let (journal, _) = Journal::open(config, Arc::clone(&stats)).unwrap();
        journal.record_register(1, &register_body(2, 2));
        let started = Instant::now();
        drop(journal);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "drop took {took:?}");
        assert_eq!(stats.snapshot().unsynced_records, 1, "drop is a crash");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_writes_are_absorbed_losslessly() {
        let dir = test_dir("short");
        let config = PersistConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_faults(
                JournalFaultConfig {
                    short_write: 0.8,
                    ..JournalFaultConfig::default()
                },
                7,
            );
        let (journal, _) =
            Journal::open(config.clone(), Arc::new(PersistStats::default())).unwrap();
        journal.record_register(1, &register_body(2, 2));
        journal.record_update(1, 1, b"{\"plane\":1,\"updates\":[[0,1,3.5]]}");
        assert!(journal.stats().is_enabled(), "short writes are not errors");
        drop(journal);
        let stats = Arc::new(PersistStats::default());
        let (_, recovery) = Journal::open(config, Arc::clone(&stats)).unwrap();
        assert_eq!(recovery.sessions.len(), 1);
        assert_eq!(stats.snapshot().records_replayed, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
