//! Seeded input generation: every byte a run sends is rendered here, from
//! the workload and the seed alone, before the server is spawned.
//!
//! Nothing in this module calls the product's body helpers
//! (`ttsv_serve::client`, `protocol::render_*`), so an edit to those never
//! changes what the benchmark sends.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator. Kept local (not the product's
/// fault-injection PRNG) so the inputs cannot drift with product edits.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..n`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The three serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two 64×64 sessions streaming continuous two-tile power updates
    /// (delta responses, journal off).
    WarmUpdate64,
    /// Never-seen 32×32 registrations, each with its own via density
    /// (journal off; runs past the 64-session quota).
    ColdRegister32,
    /// 32 sessions on 12×12 chips, 3 updates : 1 read, quantized power
    /// levels, `--fsync always`.
    JournaledMix12,
}

/// Total plane powers (W) of the three-plane stack every workload uses.
const PLANE_TOTALS: [f64; 3] = [70.0, 7.0, 7.0];
/// The serving ladder model: `segments:[10,1000]`.
const SEGMENTS: &str = "[10,1000]";
/// Plane-0 tile powers (W) of `journaled_mix_12`.
const MIX_LEVELS: [f64; 8] = [0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09];
/// Plane-1/2 tile power (W) of `journaled_mix_12`.
const MIX_UPPER_WATTS: f64 = 0.05;
/// Via density shared by every `journaled_mix_12` session.
const MIX_DENSITY: f64 = 0.005;
/// Warm-up registrations `cold_register_32` sends before timing.
const COLD_WARMUP: usize = 4;
/// Warm-up updates per session of `warm_update_64`.
const WARM_WARMUP_UPDATES: usize = 16;

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::WarmUpdate64,
        Workload::ColdRegister32,
        Workload::JournaledMix12,
    ];

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmUpdate64 => "warm_update_64",
            Workload::ColdRegister32 => "cold_register_32",
            Workload::JournaledMix12 => "journaled_mix_12",
        }
    }

    /// Chip grid side.
    #[must_use]
    pub fn grid(self) -> usize {
        match self {
            Workload::WarmUpdate64 => 64,
            Workload::ColdRegister32 => 32,
            Workload::JournaledMix12 => 12,
        }
    }

    /// Sessions registered during set-up.
    #[must_use]
    pub fn sessions(self) -> usize {
        match self {
            Workload::WarmUpdate64 => 2,
            Workload::ColdRegister32 => COLD_WARMUP,
            Workload::JournaledMix12 => 32,
        }
    }

    /// Whether the spawned server journals (`--state-dir`, `--fsync always`).
    #[must_use]
    pub fn journaled(self) -> bool {
        self == Workload::JournaledMix12
    }

    /// Offered open-loop rate per connection (requests/s), fixed against
    /// the two-connection closed-loop peak measured on the commit that
    /// introduced the benchmark (DESIGN.md, "Offered rates").
    #[must_use]
    pub fn rate_per_conn(self) -> f64 {
        match self {
            Workload::WarmUpdate64 => 60.0,
            Workload::ColdRegister32 => 12.0,
            Workload::JournaledMix12 => 500.0,
        }
    }

    /// Closed-loop request pool per connection and second: several times
    /// the measured peak, so the throughput phase never runs dry unless
    /// the server got that much faster.
    #[must_use]
    fn pool_rate_per_conn(self) -> f64 {
        match self {
            Workload::WarmUpdate64 => 1500.0,
            Workload::ColdRegister32 => 80.0,
            Workload::JournaledMix12 => 15000.0,
        }
    }

    /// Rounds per run, each against a freshly spawned server (spawn →
    /// registrations → warm-up → open loop → closed loop). The journaled
    /// mix's set-up is cheap and its figures swing most between server
    /// processes, so it samples more of them.
    #[must_use]
    pub fn rounds(self) -> usize {
        match self {
            Workload::JournaledMix12 => 6,
            _ => 3,
        }
    }

    /// The request kind the end-to-end latencies describe.
    #[must_use]
    pub fn primary(self) -> Kind {
        match self {
            Workload::ColdRegister32 => Kind::Register,
            _ => Kind::Update,
        }
    }

    /// The fixed open-loop send interval per connection.
    #[must_use]
    pub fn interval(self) -> Duration {
        Duration::from_secs_f64(1.0 / self.rate_per_conn())
    }
}

/// What a request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /sessions`.
    Register,
    /// `POST /sessions/{id}/power` (delta response).
    Update,
    /// `GET /sessions/{id}`.
    Read,
}

impl Kind {
    /// The name used in reports and spans.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Register => "register",
            Kind::Update => "update",
            Kind::Read => "read",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What it does.
    pub kind: Kind,
    /// The targeted set-up session (index into `Inputs::registrations`);
    /// for a registration, its own ordinal in the run.
    pub session: usize,
    /// The JSON body (empty for reads).
    pub body: Vec<u8>,
    /// The complete HTTP/1.1 request as sent.
    pub wire: Vec<u8>,
}

/// Everything one run sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Set-up registrations, sent in order on one connection, so a fresh
    /// server assigns them ids `1..=n`.
    pub registrations: Vec<Request>,
    /// Deterministic warm-up, sent in order on one connection after the
    /// registrations and before timing.
    pub warmup: Vec<Request>,
    /// Per connection: the open-loop stream, exactly `rate × seconds`
    /// requests.
    pub latency: [Vec<Request>; 2],
    /// Per connection: the closed-loop pool (the phase ends early if a
    /// connection exhausts it).
    pub throughput: [Vec<Request>; 2],
    /// One read per set-up session whose state is verified at the end.
    pub finals: Vec<Request>,
}

/// Which connection owns set-up session `s`: every update and read of a
/// session travels on one connection, so its order is the send order.
#[must_use]
pub fn owner(session: usize) -> usize {
    session % 2
}

/// The server id of set-up session `index` (ids start at 1 on a fresh
/// server and registrations are sent one at a time).
#[must_use]
pub fn session_id(index: usize) -> usize {
    index + 1
}

fn post(path: &str, body: Vec<u8>) -> Vec<u8> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nhost: servebench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    wire
}

fn register(session: usize, body: String) -> Request {
    let body = body.into_bytes();
    Request {
        kind: Kind::Register,
        session,
        wire: post("/sessions", body.clone()),
        body,
    }
}

fn update(session: usize, body: String) -> Request {
    let body = body.into_bytes();
    Request {
        kind: Kind::Update,
        session,
        wire: post(
            &format!("/sessions/{}/power", session_id(session)),
            body.clone(),
        ),
        body,
    }
}

fn read(session: usize) -> Request {
    Request {
        kind: Kind::Read,
        session,
        body: Vec::new(),
        wire: format!(
            "GET /sessions/{} HTTP/1.1\r\nhost: servebench\r\n\r\n",
            session_id(session)
        )
        .into_bytes(),
    }
}

/// A registration body: three planes, `segments:[10,1000]`. Watts render
/// in Rust's shortest round-trip form.
fn register_body(grid: usize, planes: &[Vec<f64>], density: f64) -> String {
    let mut body = format!("{{\"nx\":{grid},\"ny\":{grid},\"planes\":[");
    for (j, plane) in planes.iter().enumerate() {
        if j > 0 {
            body.push(',');
        }
        body.push('[');
        for (i, w) in plane.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "{w}");
        }
        body.push(']');
    }
    let _ = write!(
        body,
        "],\"via_density\":{density},\"segments\":{SEGMENTS}}}"
    );
    body
}

/// A gradient floorplan: every tile of every plane carries a distinct
/// wattage, so a registration shares no unit cell with itself.
#[allow(clippy::cast_precision_loss)]
fn gradient_planes(grid: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
    let tiles = grid * grid;
    let scale = 0.8 + 0.4 * rng.unit();
    let shift = rng.below(tiles);
    PLANE_TOTALS
        .iter()
        .map(|&total| {
            (0..tiles)
                .map(|i| {
                    let rank = (i + shift) % tiles;
                    scale * total / tiles as f64 * (0.5 + rank as f64 / tiles as f64)
                })
                .collect()
        })
        .collect()
}

/// A two-tile plane-0 update body.
fn update_body(tiles: [(usize, usize, f64); 2]) -> String {
    let [(x0, y0, w0), (x1, y1, w1)] = tiles;
    format!("{{\"plane\":0,\"updates\":[[{x0},{y0},{w0}],[{x1},{y1},{w1}]]}}")
}

/// Two distinct tiles of a `grid × grid` chip.
fn two_tiles(grid: usize, rng: &mut Rng) -> [(usize, usize); 2] {
    let tiles = grid * grid;
    let a = rng.below(tiles);
    let b = (a + 1 + rng.below(tiles - 1)) % tiles;
    [(a % grid, a / grid), (b % grid, b / grid)]
}

/// Renders one run's inputs.
///
/// `latency` and `throughput` are the lengths of the two timed phases;
/// they fix how many requests each connection's stream holds.
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn generate(workload: Workload, seed: u64, latency: Duration, throughput: Duration) -> Inputs {
    let open_count = (latency.as_secs_f64() * workload.rate_per_conn()).floor() as usize;
    let pool_count = (throughput.as_secs_f64() * workload.pool_rate_per_conn()).ceil() as usize;
    match workload {
        Workload::WarmUpdate64 => warm_update(seed, open_count, pool_count),
        Workload::ColdRegister32 => cold_register(seed, open_count, pool_count),
        Workload::JournaledMix12 => journaled_mix(seed, open_count, pool_count),
    }
}

fn warm_update(seed: u64, open_count: usize, pool_count: usize) -> Inputs {
    let workload = Workload::WarmUpdate64;
    let grid = workload.grid();
    let mut rng = Rng::new(seed, 1);
    let mut registrations = Vec::new();
    let mut nominal = Vec::new();
    for s in 0..workload.sessions() {
        let planes = gradient_planes(grid, &mut rng);
        let density = 0.004 + 0.001 * s as f64 + 0.0009 * rng.unit();
        registrations.push(register(s, register_body(grid, &planes, density)));
        nominal.push(planes[0].clone());
    }
    // Continuous watts: each update draws fresh values around the tile's
    // registered power, so it misses the scenario tier on exactly its
    // two changed cells.
    let next_update = |session: usize, rng: &mut Rng| {
        let [a, b] = two_tiles(grid, rng);
        let w = |(x, y): (usize, usize), rng: &mut Rng| {
            nominal[session][y * grid + x] * (0.5 + rng.unit())
        };
        let (wa, wb) = (w(a, rng), w(b, rng));
        update(session, update_body([(a.0, a.1, wa), (b.0, b.1, wb)]))
    };
    let mut warmup = Vec::new();
    for _ in 0..WARM_WARMUP_UPDATES {
        for s in 0..workload.sessions() {
            warmup.push(next_update(s, &mut rng));
        }
    }
    let stream = |count: usize, conn: usize, rng: &mut Rng| -> Vec<Request> {
        (0..count).map(|_| next_update(conn, rng)).collect()
    };
    let latency = [
        stream(open_count, 0, &mut rng),
        stream(open_count, 1, &mut rng),
    ];
    let throughput = [
        stream(pool_count, 0, &mut rng),
        stream(pool_count, 1, &mut rng),
    ];
    let finals = (0..workload.sessions()).map(read).collect();
    Inputs {
        workload,
        registrations,
        warmup,
        latency,
        throughput,
        finals,
    }
}

fn cold_register(seed: u64, open_count: usize, pool_count: usize) -> Inputs {
    let workload = Workload::ColdRegister32;
    let grid = workload.grid();
    let mut rng = Rng::new(seed, 2);
    // Every registration of the run gets its own via density, so each one
    // misses both engine tiers: one factorization plus one
    // back-substitution per tile.
    let mut seen = HashSet::new();
    let mut next_body = |rng: &mut Rng| -> String {
        let density = loop {
            let d = 0.004 + 0.003 * rng.unit();
            if seen.insert(d.to_bits()) {
                break d;
            }
        };
        let planes = gradient_planes(grid, rng);
        register_body(grid, &planes, density)
    };
    let registrations: Vec<Request> = (0..workload.sessions())
        .map(|s| register(s, next_body(&mut rng)))
        .collect();
    let mut counter = registrations.len();
    let mut stream = |count: usize, rng: &mut Rng| -> Vec<Request> {
        (0..count)
            .map(|_| {
                counter += 1;
                register(counter - 1, next_body(rng))
            })
            .collect()
    };
    let latency = [stream(open_count, &mut rng), stream(open_count, &mut rng)];
    let throughput = [stream(pool_count, &mut rng), stream(pool_count, &mut rng)];
    Inputs {
        workload,
        registrations,
        warmup: Vec::new(),
        latency,
        throughput,
        finals: Vec::new(),
    }
}

fn journaled_mix(seed: u64, open_count: usize, pool_count: usize) -> Inputs {
    let workload = Workload::JournaledMix12;
    let grid = workload.grid();
    let tiles = grid * grid;
    let mut rng = Rng::new(seed, 3);
    // Every session's plane 0 holds every level at least once, so the
    // first registration alone puts every unit cell a later request can
    // produce into the scenario tier.
    let registrations: Vec<Request> = (0..workload.sessions())
        .map(|s| {
            let offset = rng.below(tiles);
            let mut plane0 = vec![0.0; tiles];
            for (i, w) in plane0.iter_mut().enumerate() {
                let pos = (i + tiles - offset) % tiles;
                *w = if pos < MIX_LEVELS.len() {
                    MIX_LEVELS[pos]
                } else {
                    MIX_LEVELS[rng.below(MIX_LEVELS.len())]
                };
            }
            let upper = vec![MIX_UPPER_WATTS; tiles];
            register(
                s,
                register_body(grid, &[plane0, upper.clone(), upper], MIX_DENSITY),
            )
        })
        .collect();
    let next_update = |session: usize, rng: &mut Rng| {
        let [a, b] = two_tiles(grid, rng);
        let level = |rng: &mut Rng| MIX_LEVELS[rng.below(MIX_LEVELS.len())];
        let (wa, wb) = (level(rng), level(rng));
        update(session, update_body([(a.0, a.1, wa), (b.0, b.1, wb)]))
    };
    // Warm-up: one update and one read per session.
    let mut warmup = Vec::new();
    for s in 0..workload.sessions() {
        warmup.push(next_update(s, &mut rng));
        warmup.push(read(s));
    }
    // Each connection owns every other session and sends, per block of
    // four, three updates and one read in seeded order.
    let stream = |count: usize, conn: usize, rng: &mut Rng| -> Vec<Request> {
        let owned: Vec<usize> = (0..workload.sessions())
            .filter(|&s| owner(s) == conn)
            .collect();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let read_slot = rng.below(4);
            for slot in 0..4 {
                if out.len() == count {
                    break;
                }
                let session = owned[rng.below(owned.len())];
                out.push(if slot == read_slot {
                    read(session)
                } else {
                    next_update(session, rng)
                });
            }
        }
        out
    };
    let latency = [
        stream(open_count, 0, &mut rng),
        stream(open_count, 1, &mut rng),
    ];
    let throughput = [
        stream(pool_count, 0, &mut rng),
        stream(pool_count, 1, &mut rng),
    ];
    let finals = (0..workload.sessions()).map(read).collect();
    Inputs {
        workload,
        registrations,
        warmup,
        latency,
        throughput,
        finals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_serve::protocol::{parse_power_update, parse_register};

    const LATENCY: Duration = Duration::from_millis(400);
    const THROUGHPUT: Duration = Duration::from_millis(100);

    #[test]
    fn same_seed_same_bytes_and_different_seed_different_bytes() {
        for workload in Workload::ALL {
            let a = generate(workload, 7, LATENCY, THROUGHPUT);
            let b = generate(workload, 7, LATENCY, THROUGHPUT);
            let c = generate(workload, 8, LATENCY, THROUGHPUT);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a.latency, c.latency, "{}", workload.name());
            assert_ne!(a.throughput, c.throughput, "{}", workload.name());
        }
    }

    #[test]
    fn open_loop_streams_hold_rate_times_duration_requests() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 1, Duration::from_secs(2), THROUGHPUT);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let expected = (2.0 * workload.rate_per_conn()) as usize;
            assert_eq!(inputs.latency[0].len(), expected, "{}", workload.name());
            assert_eq!(inputs.latency[1].len(), expected, "{}", workload.name());
        }
    }

    /// Every body parses, and every update applies, in the order a
    /// session receives them.
    #[test]
    fn every_body_is_accepted_by_the_wire_parsers() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 3, LATENCY, THROUGHPUT);
            let mut plans: Vec<_> = inputs
                .registrations
                .iter()
                .map(|r| {
                    parse_register(&r.body)
                        .expect("set-up registration parses")
                        .plan
                })
                .collect();
            let timed = inputs.latency.iter().chain(&inputs.throughput).flatten();
            for request in inputs.warmup.iter().chain(timed) {
                match request.kind {
                    Kind::Register => {
                        parse_register(&request.body).expect("registration parses");
                    }
                    Kind::Update => {
                        let plan = &mut plans[request.session];
                        let (plane, map) =
                            parse_power_update(&request.body, plan).expect("update parses");
                        plan.update_power_map(plane, map).expect("update applies");
                    }
                    Kind::Read => assert!(request.body.is_empty()),
                }
            }
        }
    }

    #[test]
    fn requests_stay_on_the_connection_that_owns_their_session() {
        for workload in [Workload::WarmUpdate64, Workload::JournaledMix12] {
            let inputs = generate(workload, 5, LATENCY, THROUGHPUT);
            for conn in 0..2 {
                for r in inputs.latency[conn].iter().chain(&inputs.throughput[conn]) {
                    assert_eq!(owner(r.session), conn, "{}", workload.name());
                }
            }
        }
    }

    #[test]
    fn cold_registrations_never_repeat_a_density() {
        let inputs = generate(Workload::ColdRegister32, 9, LATENCY, THROUGHPUT);
        let timed = inputs.latency.iter().chain(&inputs.throughput).flatten();
        let bodies: Vec<&[u8]> = inputs
            .registrations
            .iter()
            .map(|r| r.body.as_slice())
            .chain(timed.map(|r| r.body.as_slice()))
            .collect();
        let densities: HashSet<u64> = bodies
            .iter()
            .map(|b| {
                let spec = parse_register(b).unwrap();
                spec.plan.via_map().get(0, 0).to_bits()
            })
            .collect();
        assert_eq!(densities.len(), bodies.len());
    }

    #[test]
    fn mix_updates_only_use_the_quantized_levels() {
        let inputs = generate(Workload::JournaledMix12, 4, LATENCY, THROUGHPUT);
        let levels: HashSet<u64> = MIX_LEVELS.iter().map(|w| w.to_bits()).collect();
        for r in &inputs.registrations {
            let spec = parse_register(&r.body).unwrap();
            let plane0: HashSet<u64> = spec.plan.plane_maps()[0]
                .tiles()
                .iter()
                .map(|w| w.as_watts().to_bits())
                .collect();
            assert_eq!(plane0, levels, "every registration holds every level");
        }
        let reads = inputs.latency[0]
            .iter()
            .filter(|r| r.kind == Kind::Read)
            .count();
        let n = inputs.latency[0].len();
        assert!(
            (n / 4..=n.div_ceil(4)).contains(&reads),
            "{reads} reads in {n}"
        );
    }
}
