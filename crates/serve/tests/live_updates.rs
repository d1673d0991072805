//! Property test for the live serving path: seeded random sequences of
//! power-update bodies driven through `parse_power_sparse` and
//! `LiveChip::apply`, exactly as the server applies them. After every
//! step the held report must be byte-identical (in `to_json`) to a fresh
//! engine's full `evaluate_factored` of the same plan, the changed list
//! must be exactly the tiles `render_delta(prev, next)` emits, and the
//! update must not have factorized anything.
//!
//! Watts and via densities come from small level sets, so sequences
//! revisit earlier tile values (restored watts, bitwise no-ops), and
//! per-tile densities keep several ladder matrices in play. Bodies mix
//! sparse updates that name a tile more than once, same-watts no-ops and
//! full-plane `"tiles"` replacements.

use proptest::prelude::*;
use ttsv_chip::{ChipEngine, ChipReport, LiveChip};
use ttsv_serve::protocol::{
    parse_power_sparse, parse_power_update, parse_register, render_delta, render_delta_tiles,
    SessionSpec,
};

/// 8×8 fills one 64-tile leaf of the report's statistics tree exactly,
/// 9×8 spills into a second; 64×64 has 64 full leaves under one root.
const GRIDS: [(usize, usize); 5] = [(1, 1), (7, 5), (8, 8), (9, 8), (64, 64)];
const WATTS: [f64; 5] = [0.0, 0.01, 0.05, 0.2, 1.5];
const DENSITIES: [f64; 3] = [0.004, 0.005, 0.008];
const PLANES: usize = 3;
const STEPS: usize = 10;

/// SplitMix64: the sequence generator, seeded by the property's input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn watts(&mut self) -> f64 {
        WATTS[self.below(WATTS.len())]
    }
}

fn join(values: impl Iterator<Item = String>) -> String {
    values.collect::<Vec<_>>().join(",")
}

fn register_body(nx: usize, ny: usize, rng: &mut Rng) -> String {
    let planes = join(
        (0..PLANES).map(|_| format!("[{}]", join((0..nx * ny).map(|_| rng.watts().to_string())))),
    );
    let densities = join((0..nx * ny).map(|_| DENSITIES[rng.below(DENSITIES.len())].to_string()));
    format!("{{\"nx\":{nx},\"ny\":{ny},\"planes\":[{planes}],\"via_density\":[{densities}]}}")
}

/// One update body against the current plane maps: a full-plane
/// replacement, a same-watts no-op, or a sparse update that may name a
/// tile twice.
fn update_body(current: &[Vec<f64>], nx: usize, ny: usize, rng: &mut Rng) -> String {
    let plane = rng.below(PLANES);
    let tile = |rng: &mut Rng| (rng.below(nx), rng.below(ny));
    match rng.below(8) {
        0 => format!(
            "{{\"plane\":{plane},\"tiles\":[{}]}}",
            join((0..nx * ny).map(|i| {
                // Keep most tiles so the bitwise diff has work to skip.
                let w = if rng.below(4) == 0 {
                    rng.watts()
                } else {
                    current[plane][i]
                };
                w.to_string()
            }))
        ),
        1 => {
            let (ix, iy) = tile(rng);
            format!(
                "{{\"plane\":{plane},\"updates\":[[{ix},{iy},{}]]}}",
                current[plane][iy * nx + ix]
            )
        }
        _ => {
            let mut entries: Vec<String> = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let (ix, iy) = tile(rng);
                entries.push(format!("[{ix},{iy},{}]", rng.watts()));
                if rng.below(3) == 0 {
                    entries.push(format!("[{ix},{iy},{}]", rng.watts()));
                }
            }
            format!("{{\"plane\":{plane},\"updates\":[{}]}}", entries.join(","))
        }
    }
}

fn plane_watts(plan: &ttsv_chip::Floorplan) -> Vec<Vec<f64>> {
    plan.plane_maps()
        .iter()
        .map(|m| m.tiles().iter().map(|p| p.as_watts()).collect())
        .collect()
}

/// A live session beside its mirror, which applies each body through the
/// whole-map fold.
struct Session<'a> {
    engine: &'a ChipEngine,
    live: LiveChip,
    mirror: SessionSpec,
    nx: usize,
    ny: usize,
}

impl<'a> Session<'a> {
    fn open(engine: &'a ChipEngine, nx: usize, ny: usize, register: &str) -> Self {
        let spec = parse_register(register.as_bytes()).expect("valid register body");
        let live = engine
            .evaluate_live(spec.plan.clone(), &spec.model)
            .expect("solvable");
        Self {
            engine,
            live,
            mirror: spec,
            nx,
            ny,
        }
    }

    /// Applies `body` to both, checks the held report against a fresh
    /// evaluation of the mirror, and returns the report before the body.
    fn step(&mut self, body: &str, step: usize) -> Result<ChipReport, TestCaseError> {
        let (engine, live, nx, ny) = (self.engine, &mut self.live, self.nx, self.ny);
        let (plane, update) =
            parse_power_sparse(body.as_bytes(), live.plan()).expect("valid update body");
        let entries = update.into_entries(&live.plan().plane_maps()[plane]);
        let prev = live.report().clone();
        let factored = engine.factorizations();
        let changed = live.apply(engine, plane, &entries).expect("solvable");
        prop_assert!(
            engine.factorizations() == factored,
            "{nx}x{ny} step {step}: an update factorized"
        );

        let mirror = &mut self.mirror;
        let (mirror_plane, map) =
            parse_power_update(body.as_bytes(), &mirror.plan).expect("valid update body");
        mirror
            .plan
            .update_power_map(mirror_plane, map)
            .expect("same grid");
        prop_assert_eq!(plane_watts(live.plan()), plane_watts(&mirror.plan));

        let fresh = ChipEngine::new()
            .evaluate_factored(&mirror.plan, &mirror.model)
            .expect("solvable");
        prop_assert!(
            live.report().to_json() == fresh.to_json(),
            "{nx}x{ny} step {step}: held report diverged after {body}"
        );
        let diff: Vec<usize> = (0..nx * ny)
            .filter(|&i| prev.delta_t[i].to_bits() != fresh.delta_t[i].to_bits())
            .collect();
        prop_assert!(
            changed == diff,
            "{nx}x{ny} step {step}: changed {changed:?} vs {diff:?}"
        );
        prop_assert_eq!(
            render_delta_tiles(live.report(), &changed),
            render_delta(&prev, &fresh)
        );
        Ok(prev)
    }
}

/// One seeded sequence on an `nx × ny` session through `engine`.
fn run_sequence(engine: &ChipEngine, nx: usize, ny: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let register = register_body(nx, ny, &mut rng);
    let mut session = Session::open(engine, nx, ny, &register);
    for step in 0..STEPS {
        let body = update_body(&plane_watts(session.live.plan()), nx, ny, &mut rng);
        session.step(&body, step)?;
    }
    Ok(())
}

/// One seeded sequence of extreme jumps on an `nx × ny` session whose
/// tile 0 has the sparsest vias: each step moves tile 0 to the other of
/// `WATTS`' extremes on every plane (so at the high one it is the hottest
/// tile) and sinks the hottest other tile to the low extreme. Every body
/// thus moves the mean's tile-0 offsets, tile 0 crosses the p99 both
/// ways, and the sinking tiles drain the p99's buffer of largest tiles.
/// Returns how often tile 0 fell and rose across the p99.
fn run_extremes(
    engine: &ChipEngine,
    nx: usize,
    ny: usize,
    seed: u64,
) -> Result<(usize, usize), TestCaseError> {
    let (low, high) = (WATTS[0], WATTS[WATTS.len() - 1]);
    let mut rng = Rng(seed);
    let register = register_body(nx, ny, &mut rng);
    let (head, tail) = register.split_once("\"via_density\":[").expect("densities");
    let rest = &tail[tail.find([',', ']']).expect("a first density")..];
    let register = format!("{head}\"via_density\":[{}{rest}", DENSITIES[0]);
    let mut session = Session::open(engine, nx, ny, &register);
    let (mut fell, mut rose) = (0, 0);
    for step in 0..STEPS {
        let before = session.live.report().clone();
        let zero = if step % 2 == 0 { low } else { high };
        let hottest = (1..nx * ny)
            .reduce(|a, b| {
                if before.delta_t[b] > before.delta_t[a] {
                    b
                } else {
                    a
                }
            })
            .expect("more than one tile");
        let (hx, hy) = (hottest % nx, hottest / nx);
        for plane in 0..PLANES {
            let body =
                format!("{{\"plane\":{plane},\"updates\":[[0,0,{zero}],[{hx},{hy},{low}]]}}");
            session.step(&body, step)?;
        }
        let after = session.live.report();
        let (old, new) = (before.delta_t[0], after.delta_t[0]);
        fell += usize::from(old >= before.p99_delta_t && new < after.p99_delta_t);
        rose += usize::from(old < before.p99_delta_t && new >= after.p99_delta_t);
    }
    Ok((fell, rose))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every grid, each on a fresh engine.
    #[test]
    fn live_updates_track_a_fresh_full_evaluation(seed in 0u64..u64::MAX) {
        for (nx, ny) in GRIDS {
            run_sequence(&ChipEngine::new(), nx, ny, seed)?;
        }
    }

    /// Tile-0 changes and p99 crossings both ways, on every grid with
    /// more than one tile.
    #[test]
    fn extreme_jumps_move_tile_zero_and_cross_the_p99(seed in 0u64..u64::MAX) {
        for (nx, ny) in GRIDS.into_iter().filter(|&(nx, ny)| nx * ny > 1) {
            let (fell, rose) = run_extremes(&ChipEngine::new(), nx, ny, seed)?;
            prop_assert!(fell > 0 && rose > 0, "{nx}x{ny}: p99 fell {fell}, rose {rose}");
        }
    }
}
