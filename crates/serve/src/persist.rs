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
//! * **Clean shutdown.** [`Journal::clean_shutdown`] compacts, syncs,
//!   and writes a `clean` marker recording the journal length; the next
//!   boot uses a matching marker to trust the tail (and to report the
//!   boot as clean) instead of assuming a crash.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::faults::{FaultyJournal, JournalFaultConfig, JournalFaultPlan};
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

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Register { .. } => 1,
            Record::PowerUpdate { .. } => 2,
            Record::Delete { .. } => 3,
            Record::Evict { .. } => 4,
            Record::Meta { .. } => 5,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let (id, body): (u64, &[u8]) = match self {
            Record::Register { id, body } | Record::PowerUpdate { id, body } => (*id, body),
            Record::Delete { id } | Record::Evict { id } => (*id, &[]),
            Record::Meta { next_id } => (*next_id, &[]),
        };
        let mut payload = Vec::with_capacity(MIN_PAYLOAD + body.len());
        payload.push(self.kind());
        payload.extend_from_slice(&id.to_le_bytes());
        payload.extend_from_slice(body);
        payload
    }

    /// Encodes this record as one framed journal entry
    /// (`[len][crc32][payload]`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut frame = Vec::with_capacity(8 + payload.len());
        #[allow(clippy::cast_possible_truncation)]
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    fn decode(payload: &[u8]) -> Option<Record> {
        if payload.len() < MIN_PAYLOAD {
            return None;
        }
        let id = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let body = &payload[9..];
        match (payload[0], body.is_empty()) {
            (1, _) => Some(Record::Register {
                id,
                body: body.to_vec(),
            }),
            (2, _) => Some(Record::PowerUpdate {
                id,
                body: body.to_vec(),
            }),
            (3, true) => Some(Record::Delete { id }),
            (4, true) => Some(Record::Evict { id }),
            (5, true) => Some(Record::Meta { next_id: id }),
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
    /// fsync at most once per interval, yet every appended record within
    /// the interval of its append: by the next append past the deadline,
    /// or by an event loop when the server goes quiet
    /// ([`Journal::sync_if_due`]) — the default, at 100 ms: bounded
    /// power-loss exposure at near-`Never` latency.
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
    /// Directory holding `journal.ttsv` and the `clean` marker
    /// (created if absent). One server per directory.
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

    /// The clean-shutdown marker file.
    #[must_use]
    pub fn marker_path(&self) -> PathBuf {
        self.state_dir.join("clean")
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
    /// How many journal records the scan replayed.
    pub records_replayed: u64,
    /// Whether the previous run wrote a matching clean-shutdown marker.
    pub clean_shutdown: bool,
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
                // An update for an unknown id can only come from silent
                // corruption that beat the CRC; drop it rather than
                // fail the whole recovery.
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

/// Live-append bookkeeping: everything the compaction trigger needs
/// without re-reading the file.
struct Inner {
    media: Box<dyn JournalMedia>,
    /// Journal length in bytes (what a clean marker records).
    file_len: u64,
    /// Records in the file, live or dead.
    total_records: u64,
    /// Live sessions → planes their surviving updates touch; a
    /// session's live-record count is `1 + planes.len()` after a fold.
    sessions: HashMap<u64, BTreeSet<usize>>,
    last_sync: Instant,
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
            .field("file_len", &self.file_len)
            .field("total_records", &self.total_records)
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

/// Mutex poisoning must not take the journal down: a panic elsewhere
/// while holding the lock leaves bookkeeping merely stale, and every
/// append re-validates against it loosely.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The per-server write-ahead journal. All methods are `&self` and
/// thread-safe; the server shares one behind an `Arc`.
///
/// Appends never return errors to the serving path: any journal
/// write/fsync failure permanently degrades this journal (persistence
/// off, [`PersistStats::add_write_error`] counted, warning printed) and
/// the request that triggered it still succeeds.
#[derive(Debug)]
pub struct Journal {
    config: PersistConfig,
    stats: Arc<PersistStats>,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
    /// The epoch `sync_deadline_ns` counts from.
    opened: Instant,
    /// Under `interval:MS`, nanoseconds after `opened` by which the
    /// unsynced records must be fsynced; [`NO_DEADLINE`] when nothing is
    /// unsynced. Written under the journal lock and read without it, so
    /// an idle event loop never contends for the lock. `Relaxed` suffices:
    /// a reader that finds a deadline re-checks it under the lock, and an
    /// event loop learns of each request's append through its inbox
    /// mutex (or appends itself), which orders the store before its next
    /// load.
    sync_deadline_ns: AtomicU64,
}

/// `Journal::sync_deadline_ns` when every appended record is synced.
const NO_DEADLINE: u64 = u64::MAX;

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
    /// cannot be created/read) — the caller treats that as "persistence
    /// unavailable", not a fatal server error.
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
        let marker_len: Option<u64> = fs::read_to_string(config.marker_path())
            .ok()
            .and_then(|s| s.trim().parse().ok());
        // A marker only ever describes the *previous* run; consume it so
        // a crash after this boot is never mistaken for a clean one.
        let _ = fs::remove_file(config.marker_path());

        let (records, valid_len) = scan(&existing);
        let clean_shutdown =
            marker_len == Some(existing.len() as u64) && valid_len == existing.len();

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = if valid_len == 0 {
            // New file, or an unrecognizable header: start fresh.
            file.set_len(0)?;
            file.write_all(&header_bytes())?;
            HEADER_LEN as u64
        } else {
            // Truncate any torn tail so appends extend a valid prefix.
            file.set_len(valid_len as u64)?;
            valid_len as u64
        };
        file.seek(SeekFrom::End(0))?;

        let folded = fold(&records);
        let mut sessions = Vec::new();
        let mut bookkeeping = HashMap::new();
        for (id, folded_session) in &folded.sessions {
            match rebuild_spec(folded_session) {
                Ok((spec, planes)) => {
                    bookkeeping.insert(*id, planes);
                    sessions.push(RecoveredSession { id: *id, spec });
                }
                Err(e) => eprintln!(
                    "ttsv-serve: journal recovery dropping session {id} (body no longer parses: {e})"
                ),
            }
        }
        stats.add_replayed(records.len() as u64);
        stats.add_recovered_sessions(sessions.len() as u64);

        let recovery = Recovery {
            sessions,
            next_id: folded.next_id,
            records_replayed: records.len() as u64,
            clean_shutdown,
        };
        let opened = Instant::now();
        let journal = Journal {
            inner: Mutex::new(Inner {
                media: config.wrap_media(file),
                file_len,
                total_records: records.len() as u64,
                sessions: bookkeeping,
                last_sync: opened,
            }),
            config,
            stats,
            enabled: AtomicBool::new(true),
            opened,
            sync_deadline_ns: AtomicU64::new(NO_DEADLINE),
        };
        Ok((journal, recovery))
    }

    /// Whether persistence is still live (false after the journal has
    /// degraded on a write/fsync error).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Journals an accepted registration.
    pub fn record_register(&self, id: u64, body: &[u8]) {
        self.append(
            Record::Register {
                id,
                body: body.to_vec(),
            },
            None,
        );
    }

    /// Journals an applied power update (`plane` is the index the
    /// server already parsed from `body`).
    pub fn record_update(&self, id: u64, plane: usize, body: &[u8]) {
        self.append(
            Record::PowerUpdate {
                id,
                body: body.to_vec(),
            },
            Some(plane),
        );
    }

    /// Journals an explicit deletion.
    pub fn record_delete(&self, id: u64) {
        self.append(Record::Delete { id }, None);
    }

    /// Journals an LRU-eviction tombstone.
    pub fn record_evict(&self, id: u64) {
        self.append(Record::Evict { id }, None);
    }

    fn append(&self, record: Record, plane: Option<usize>) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = lock(&self.inner);
        if !self.is_enabled() {
            return; // degraded while we waited for the lock
        }
        let frame = record.encode();
        if let Err(e) = inner.media.write_all(&frame) {
            self.degrade("write", &e);
            return;
        }
        inner.file_len += frame.len() as u64;
        inner.total_records += 1;
        match (&record, plane) {
            (Record::Register { id, .. }, _) => {
                inner.sessions.insert(*id, BTreeSet::new());
            }
            (Record::PowerUpdate { id, .. }, Some(plane)) => {
                if let Some(planes) = inner.sessions.get_mut(id) {
                    planes.insert(plane);
                }
            }
            (Record::Delete { id } | Record::Evict { id }, _) => {
                inner.sessions.remove(id);
            }
            _ => {}
        }
        self.stats.add_written(1, frame.len() as u64);

        let due = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(interval) => match inner.last_sync.checked_add(interval) {
                Some(deadline) => {
                    let ns = deadline.duration_since(self.opened).as_nanos();
                    let ns = u64::try_from(ns).unwrap_or(NO_DEADLINE - 1);
                    self.sync_deadline_ns.store(ns, Ordering::Relaxed);
                    Instant::now() >= deadline
                }
                // An interval past the clock's range never comes due.
                None => false,
            },
            FsyncPolicy::Never => false,
        };
        if due {
            if let Err(e) = self.sync_locked(&mut inner) {
                self.degrade("fsync", &e);
                return;
            }
        } else {
            self.stats.add_unsynced();
        }

        if inner.total_records >= self.config.compact_min_records
            && inner.live_records() * 2 < inner.total_records
        {
            if let Err(e) = self.compact_locked(&mut inner) {
                self.degrade("compaction", &e);
            }
        }
    }

    /// When the unsynced records must be fsynced under `interval:MS`;
    /// `None` when nothing is unsynced (or the policy is not an
    /// interval). The event loops fold it into their poll timeout.
    #[must_use]
    pub fn sync_deadline(&self) -> Option<Instant> {
        match self.sync_deadline_ns.load(Ordering::Relaxed) {
            NO_DEADLINE => None,
            ns => Some(self.opened + Duration::from_nanos(ns)),
        }
    }

    /// Fsyncs the journal if [`Journal::sync_deadline`] has passed, so a
    /// record acknowledged just before the server went quiet is still
    /// synced within the interval. Takes the journal lock only when a
    /// sync is due.
    pub fn sync_if_due(&self) {
        if self.sync_deadline().is_none_or(|d| d > Instant::now()) {
            return;
        }
        let mut inner = lock(&self.inner);
        // Another loop may have synced (or a write error degraded the
        // journal) while this one waited for the lock.
        if !self.is_enabled() || self.sync_deadline().is_none() {
            return;
        }
        if let Err(e) = self.sync_locked(&mut inner) {
            self.degrade("fsync", &e);
        }
    }

    /// Fsyncs the media and records that nothing is left unsynced.
    fn sync_locked(&self, inner: &mut Inner) -> io::Result<()> {
        inner.media.sync()?;
        self.synced(inner);
        Ok(())
    }

    /// Everything appended so far is durable.
    fn synced(&self, inner: &mut Inner) {
        inner.last_sync = Instant::now();
        self.sync_deadline_ns.store(NO_DEADLINE, Ordering::Relaxed);
        self.stats.clear_unsynced();
    }

    /// Folds the journal file into its live snapshot (see the module
    /// docs). Runs with the journal lock held and touches nothing else.
    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        inner.media.flush()?;
        let bytes = fs::read(self.config.journal_path())?;
        let (records, _) = scan(&bytes);
        let folded = fold(&records);

        let mut out = header_bytes();
        let mut out_records: u64 = 1;
        out.extend_from_slice(
            &Record::Meta {
                next_id: folded.next_id,
            }
            .encode(),
        );
        let mut bookkeeping = HashMap::new();
        for (id, folded_session) in &folded.sessions {
            match rebuild_spec(folded_session) {
                Ok((spec, planes)) => {
                    out.extend_from_slice(
                        &Record::Register {
                            id: *id,
                            body: folded_session.register.clone(),
                        }
                        .encode(),
                    );
                    out_records += 1;
                    for &plane in &planes {
                        let body =
                            protocol::render_power_body_full(plane, &spec.plan.plane_maps()[plane]);
                        out.extend_from_slice(
                            &Record::PowerUpdate {
                                id: *id,
                                body: body.into_bytes(),
                            }
                            .encode(),
                        );
                        out_records += 1;
                    }
                    bookkeeping.insert(*id, planes);
                }
                Err(e) => eprintln!(
                    "ttsv-serve: journal compaction dropping session {id} (body no longer parses: {e})"
                ),
            }
        }

        let tmp = self.config.state_dir.join("journal.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.config.journal_path())?;
        sync_dir(&self.config.state_dir);

        let file = OpenOptions::new()
            .append(true)
            .open(self.config.journal_path())?;
        inner.media = self.config.wrap_media(file);
        inner.file_len = out.len() as u64;
        inner.total_records = out_records;
        inner.sessions = bookkeeping;
        // The snapshot was fsynced before the rename: every live record
        // is durable.
        self.synced(inner);
        self.stats.add_compaction();
        Ok(())
    }

    /// Graceful-shutdown hook: compact, sync, and write the clean
    /// marker. Crash simulation (`Server::abort`) skips this — that is
    /// the whole difference between the two shutdowns.
    pub fn clean_shutdown(&self) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = lock(&self.inner);
        if !self.is_enabled() {
            return;
        }
        if let Err(e) = self.compact_locked(&mut inner) {
            self.degrade("shutdown compaction", &e);
            return;
        }
        if let Err(e) = self.sync_locked(&mut inner) {
            self.degrade("shutdown fsync", &e);
            return;
        }
        let write_marker = || -> io::Result<()> {
            let mut f = File::create(self.config.marker_path())?;
            write!(f, "{}", inner.file_len)?;
            f.sync_data()
        };
        if let Err(e) = write_marker() {
            self.degrade("shutdown marker", &e);
        }
    }

    fn degrade(&self, what: &str, err: &io::Error) {
        self.enabled.store(false, Ordering::Relaxed);
        // Nothing will be synced any more; a stale deadline would keep
        // the event loops' poll timeout at zero.
        self.sync_deadline_ns.store(NO_DEADLINE, Ordering::Relaxed);
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
    use std::sync::atomic::AtomicU64;

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
    }

    #[test]
    fn journal_round_trips_sessions_across_reopen() {
        let dir = test_dir("reopen");
        let config = PersistConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let expected = {
            let (journal, recovery) =
                Journal::open(config.clone(), Arc::new(PersistStats::default())).unwrap();
            assert!(recovery.sessions.is_empty());
            assert!(!recovery.clean_shutdown);
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
            // journal dropped without clean_shutdown: a crash.
        };

        let stats = Arc::new(PersistStats::default());
        let (journal, recovery) = Journal::open(config.clone(), Arc::clone(&stats)).unwrap();
        assert!(!recovery.clean_shutdown, "no marker was written");
        assert_eq!(recovery.records_replayed, 4);
        assert_eq!(recovery.next_id, 3);
        assert_eq!(recovery.sessions.len(), 1, "session 2 was deleted");
        assert_eq!(recovery.sessions[0].id, 1);
        assert_eq!(plan_bits(&recovery.sessions[0].spec), expected);
        assert_eq!(stats.snapshot().records_replayed, 4);
        assert_eq!(stats.snapshot().recovered_sessions, 1);

        // Clean shutdown compacts and leaves a marker the next open
        // recognizes.
        journal.clean_shutdown();
        let (_, recovery) = Journal::open(config, Arc::new(PersistStats::default())).unwrap();
        assert!(recovery.clean_shutdown);
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

        let (_, recovery) = Journal::open(config, Arc::new(PersistStats::default())).unwrap();
        assert_eq!(recovery.sessions.len(), 1);
        assert_eq!(plan_bits(&recovery.sessions[0].spec), plan_bits(&spec));
        assert!(
            recovery.records_replayed <= 4,
            "a folded session is register + one update per touched plane, got {}",
            recovery.records_replayed
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
        assert!(journal.is_enabled());
        journal.record_register(1, &register_body(2, 2));
        assert!(!journal.is_enabled(), "first failed append degrades");
        assert_eq!(stats.snapshot().write_errors, 1);
        // Further appends are silent no-ops, and clean shutdown neither
        // panics nor writes a marker.
        journal.record_update(1, 0, b"{\"plane\":0,\"tiles\":[1,1,1,1]}");
        assert_eq!(stats.snapshot().write_errors, 1);
        journal.clean_shutdown();
        assert!(
            !journal.config.marker_path().exists(),
            "a degraded journal must not claim a clean shutdown"
        );
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
        assert!(journal.is_enabled(), "short writes are not errors");
        drop(journal);
        let (_, recovery) = Journal::open(config, Arc::new(PersistStats::default())).unwrap();
        assert_eq!(recovery.sessions.len(), 1);
        assert_eq!(recovery.records_replayed, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
