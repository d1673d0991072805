//! Held evaluation state for serving: a [`LiveChip`] keeps a plan's
//! [`ChipReport`] current under sparse power updates, at a cost that
//! scales with the tiles an update names rather than the tiles the chip
//! holds.

use std::hash::Hasher;

use ttsv_core::scenario::PowerSeparableModel;
use ttsv_core::CoreError;
use ttsv_units::Power;

use crate::engine::{ChipEngine, KeyHasher, KeyMap};
use crate::floorplan::{CellKey, Floorplan};
use crate::map::PowerMap;
use crate::report::ChipReport;

/// A floorplan's evaluated report held across power updates, built by
/// [`ChipEngine::evaluate_live`].
///
/// [`LiveChip::apply`] re-solves only the tiles an update changes (through
/// the engine's scenario and matrix tiers, so the engine's cache caps
/// still bound memory) and patches the report in place. After every
/// update the held report is bit-identical to
/// [`ChipEngine::evaluate_factored`] on a fresh engine for the same plan:
/// same `ΔT` bits, `distinct_cells`, `total_vias`, row-major `mean`,
/// nearest-rank p99 and first-hit argmax.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveChip {
    report: ChipReport,
    /// Tiles per distinct cell key, which keeps `distinct_cells` exact
    /// across updates.
    key_counts: CellCounts,
}

/// How many tiles hold each distinct cell key, without storing the keys:
/// one `(key hash, representative tile, tile count)` entry per key,
/// sorted by hash. Keys are read back from the plan through the
/// representative, so the count stays exact when hashes collide
/// (colliding keys sit side by side). Holding the keys themselves cost
/// ~240 KB per 32×32 session; this costs 16 bytes per distinct key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellCounts {
    entries: Vec<(u64, u32, u32)>,
}

/// The production key hash (the engine's word hasher over the key bits).
pub(crate) fn key_hash(key: &CellKey) -> u64 {
    let mut hasher = KeyHasher::default();
    for &word in key.bits() {
        hasher.write_u64(word);
    }
    hasher.finish()
}

fn tile_u32(tile: usize) -> u32 {
    u32::try_from(tile).expect("a floorplan's tile indices fit in u32")
}

impl CellCounts {
    /// Counts from a full evaluation: `cell_of` maps each tile to its
    /// distinct cell, `keys` each cell key to that cell's index.
    pub(crate) fn new(
        cell_of: &[usize],
        keys: KeyMap<CellKey, usize>,
        hash: fn(&CellKey) -> u64,
    ) -> Self {
        let mut held = vec![(0u32, 0u32); keys.len()];
        // Backwards, so each representative is the cell's first tile.
        for (tile, &cell) in cell_of.iter().enumerate().rev() {
            held[cell] = (tile_u32(tile), held[cell].1 + 1);
        }
        let mut entries: Vec<(u64, u32, u32)> = keys
            .into_iter()
            .map(|(key, cell)| (hash(&key), held[cell].0, held[cell].1))
            .collect();
        entries.sort_unstable_by_key(|&(h, _, _)| h);
        Self { entries }
    }

    /// The number of distinct keys.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry of the key with hash `h` whose representative `holds`
    /// accepts.
    fn find(&self, h: u64, holds: impl Fn(usize) -> bool) -> Option<usize> {
        let start = self.entries.partition_point(|&(eh, _, _)| eh < h);
        self.entries[start..]
            .iter()
            .take_while(|&&(eh, _, _)| eh == h)
            .position(|&(_, rep, _)| holds(rep as usize))
            .map(|i| start + i)
    }

    /// Moves each tile of `old` — ascending `(tile, watts it held on
    /// plane)` pairs; `plan` already holds the new watts — from its old
    /// key to its new one. All tiles leave before any joins, so every
    /// representative consulted holds the key of its entry.
    pub(crate) fn update(
        &mut self,
        plan: &Floorplan,
        plane: usize,
        old: &[(usize, Power)],
        hash: fn(&CellKey) -> u64,
    ) {
        let nx = plan.nx();
        let new_keys: Vec<CellKey> = old
            .iter()
            .map(|&(t, _)| plan.cell_key(t % nx, t / nx))
            .collect();
        let old_keys: Vec<CellKey> = new_keys
            .iter()
            .zip(old)
            .map(|(key, &(_, watts))| key.with_plane_power(plane, watts))
            .collect();
        let touched = |u: usize| old.binary_search_by_key(&u, |&(t, _)| t);
        // Whether tile `u` held `key` before this update.
        let held = |u: usize, key: &CellKey| match touched(u) {
            Ok(j) => old_keys[j] == *key,
            Err(_) => plan.tile_has_key(u, key),
        };
        for (j, (key, &(tile, _))) in old_keys.iter().zip(old).enumerate() {
            let i = self
                .find(hash(key), |r| held(r, key))
                .expect("a held key is counted");
            let (h, rep, count) = self.entries[i];
            if count == 1 {
                self.entries.remove(i);
                continue;
            }
            // The representative leaves: hand the entry to a tile still
            // holding the key — a later tile of this update, else an
            // untouched one.
            let rep = if rep as usize == tile {
                let later = old_keys[j + 1..]
                    .iter()
                    .position(|k| k == key)
                    .map(|p| old[j + 1 + p].0);
                tile_u32(
                    later
                        .or_else(|| {
                            (0..plan.tiles())
                                .find(|&u| plan.tile_has_key(u, key) && touched(u).is_err())
                        })
                        .expect("a key held by several tiles has another"),
                )
            } else {
                rep
            };
            self.entries[i] = (h, rep, count - 1);
        }
        for (key, &(tile, _)) in new_keys.iter().zip(old) {
            let h = hash(key);
            match self.find(h, |r| plan.tile_has_key(r, key)) {
                Some(i) => self.entries[i].2 += 1,
                None => {
                    let at = self.entries.partition_point(|&(eh, _, _)| eh <= h);
                    self.entries.insert(at, (h, tile_u32(tile), 1));
                }
            }
        }
    }
}

/// A power update's staged tiles: the plan already holds the new watts,
/// and dropping the guard while `armed` — an early error return or an
/// unwinding panic — writes the old ones back.
struct Staged<'a> {
    plan: &'a mut Floorplan,
    plane: usize,
    /// `(tile, previous watts)` for every tile whose power bits changed.
    old: Vec<(usize, Power)>,
    armed: bool,
}

impl Drop for Staged<'_> {
    fn drop(&mut self) {
        if self.armed {
            for &(tile, watts) in self.old.iter().rev() {
                self.plan.replace_tile_power(self.plane, tile, watts);
            }
        }
    }
}

fn invalid(reason: String) -> CoreError {
    CoreError::InvalidFloorplan { reason }
}

impl LiveChip {
    pub(crate) fn new(report: ChipReport, key_counts: CellCounts) -> Self {
        Self { report, key_counts }
    }

    /// The held report.
    #[must_use]
    pub fn report(&self) -> &ChipReport {
        &self.report
    }

    /// Applies a sparse power update to plane `plane` of `plan` — the plan
    /// this chip was evaluated from, with the engine and model that
    /// evaluated it — and patches the held report in place.
    ///
    /// `updates` lists `(row-major tile index, watts)` pairs in strictly
    /// ascending tile order. Entries whose watts are bit-identical to the
    /// current map are no-ops. Returns the tiles whose `ΔT` changed
    /// bitwise, in ascending order.
    ///
    /// The update is transactional: the plan's changed tiles are staged
    /// and written back if any solve fails (or panics), and the report is
    /// patched only after every solve succeeded. On `Err` the plan and
    /// the chip are exactly as they were.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for a plan whose grid
    /// differs from the report's, a plane or tile out of range, tiles out
    /// of order, or watts [`PowerMap::check_power`] rejects; propagates
    /// tile validation, factorization and solve failures.
    pub fn apply<M: PowerSeparableModel + Sync>(
        &mut self,
        engine: &ChipEngine,
        plan: &mut Floorplan,
        model: &M,
        plane: usize,
        updates: &[(usize, Power)],
    ) -> Result<Vec<usize>, CoreError> {
        let (nx, tiles) = (self.report.nx, self.report.tiles);
        if plan.nx() != nx || plan.tiles() != tiles {
            return Err(invalid(format!(
                "a {}×{} plan cannot update a {}×{} report",
                plan.nx(),
                plan.ny(),
                nx,
                self.report.ny
            )));
        }
        if plane >= plan.plane_count() {
            return Err(invalid(format!(
                "plane {plane} out of range for a {}-plane floorplan",
                plan.plane_count()
            )));
        }
        let mut previous: Option<usize> = None;
        for &(tile, watts) in updates {
            if tile >= tiles {
                return Err(invalid(format!(
                    "tile {tile} outside the {tiles}-tile grid"
                )));
            }
            if previous.is_some_and(|p| tile <= p) {
                return Err(invalid(
                    "tile updates must be in strictly ascending order".into(),
                ));
            }
            previous = Some(tile);
            PowerMap::check_power(watts)?;
        }

        let mut staged = Staged {
            plan,
            plane,
            old: Vec::with_capacity(updates.len()),
            armed: true,
        };
        for &(tile, watts) in updates {
            let current = staged.plan.plane_maps()[plane].tiles()[tile];
            if current.as_watts().to_bits() != watts.as_watts().to_bits() {
                staged.plan.replace_tile_power(plane, tile, watts);
                staged.old.push((tile, current));
            }
        }
        let touched: Vec<usize> = staged.old.iter().map(|&(tile, _)| tile).collect();
        let delta_t = engine.solve_tiles(staged.plan, model, &touched)?;

        // Every solve succeeded: commit the key counts and the report.
        self.key_counts
            .update(staged.plan, plane, &staged.old, key_hash);
        let changed = self.report.patch(&touched, &delta_t, self.key_counts.len());
        staged.armed = false;
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU8, Ordering};

    use ttsv_core::full_chip::CaseStudy;
    use ttsv_core::model_b::ModelB;
    use ttsv_core::prelude::*;

    use super::*;
    use crate::map::ViaDensityMap;

    /// A 4×3 plan with two via densities and a power gradient, so several
    /// matrices and many distinct cells are in play.
    fn plan() -> Floorplan {
        let cs = CaseStudy::paper();
        let maps = (0..3)
            .map(|j| {
                PowerMap::from_fn(4, 3, |ix, iy| {
                    cs.plane_powers[j] * ((1.0 + (ix % 2 + iy) as f64) / 24.0)
                })
                .unwrap()
            })
            .collect();
        let densities = (0..12)
            .map(|i| if i % 4 < 2 { 0.005 } else { 0.01 })
            .collect();
        let via = ViaDensityMap::new(4, 3, densities).unwrap();
        Floorplan::new(&cs, maps, via).unwrap()
    }

    fn fresh_json(plan: &Floorplan) -> String {
        ChipEngine::new()
            .evaluate_factored(plan, &ModelB::paper_b20())
            .unwrap()
            .to_json()
    }

    fn watts(plan: &Floorplan) -> Vec<Vec<u64>> {
        plan.plane_maps()
            .iter()
            .map(|m| m.tiles().iter().map(|p| p.as_watts().to_bits()).collect())
            .collect()
    }

    /// Model B whose solves succeed, fail or panic on demand.
    struct Flaky {
        inner: ModelB,
        mode: AtomicU8,
    }

    const OK: u8 = 0;
    const FAIL: u8 = 1;
    const PANIC: u8 = 2;

    impl ThermalModel for Flaky {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn cache_tag(&self) -> String {
            self.inner.cache_tag()
        }
        fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
            self.inner.max_delta_t(scenario)
        }
    }

    impl PowerSeparableModel for Flaky {
        type Factorization = <ModelB as PowerSeparableModel>::Factorization;
        fn factorize_geometry(
            &self,
            scenario: &Scenario,
        ) -> Result<Self::Factorization, CoreError> {
            self.inner.factorize_geometry(scenario)
        }
        fn solve_with_powers(
            &self,
            factorization: &Self::Factorization,
            plane_powers: &[Power],
        ) -> Result<TemperatureDelta, CoreError> {
            match self.mode.load(Ordering::SeqCst) {
                FAIL => Err(CoreError::InvalidScenario {
                    reason: "synthetic solve failure".into(),
                }),
                PANIC => panic!("synthetic solve panic"),
                _ => self.inner.solve_with_powers(factorization, plane_powers),
            }
        }
    }

    #[test]
    fn sparse_updates_match_a_fresh_full_evaluation() {
        let mut plan = plan();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(&plan, &model).unwrap();
        assert_eq!(live.report().to_json(), fresh_json(&plan));
        let w = Power::from_watts;
        for (plane, updates) in [
            (0, vec![(1, w(9.0)), (7, w(0.0))]),
            // Tile 4 gets tile 0's watts: a cell that already exists.
            (1, vec![(4, plan.plane_maps()[1].tiles()[0])]),
            (2, vec![(0, w(3.5)), (5, w(3.5)), (11, w(0.25))]),
            // Restore tile 1: its old cell key comes back.
            (0, vec![(1, plan.plane_maps()[0].tiles()[1])]),
        ] {
            let before = live.report().clone();
            let changed = live
                .apply(&engine, &mut plan, &model, plane, &updates)
                .unwrap();
            assert_eq!(live.report().to_json(), fresh_json(&plan));
            let diff: Vec<usize> = (0..plan.tiles())
                .filter(|&i| before.delta_t[i].to_bits() != live.report().delta_t[i].to_bits())
                .collect();
            assert_eq!(changed, diff);
        }
    }

    #[test]
    fn a_two_tile_update_keys_two_tiles_and_a_no_op_keys_none() {
        let cs = CaseStudy::paper();
        let mut plan = Floorplan::uniform(&cs, 16, 16).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(&plan, &model).unwrap();
        let lookups = || engine.scenario_hits() + engine.scenario_misses();
        let (keyed, solved) = (lookups(), engine.solves());
        let w = Power::from_watts;
        let changed = live
            .apply(&engine, &mut plan, &model, 0, &[(3, w(1.0)), (200, w(2.0))])
            .unwrap();
        assert_eq!(changed, [3, 200]);
        assert_eq!(lookups() - keyed, 2, "only the two named tiles are keyed");
        assert_eq!(engine.solves() - solved, 2);
        assert_eq!(live.report().distinct_cells, 3);

        let same = plan.plane_maps()[0].tiles()[3];
        let (keyed, solved) = (lookups(), engine.solves());
        let held = live.clone();
        let changed = live
            .apply(&engine, &mut plan, &model, 0, &[(3, same)])
            .unwrap();
        assert!(changed.is_empty());
        assert_eq!((lookups(), engine.solves()), (keyed, solved));
        assert_eq!(live, held);
    }

    /// A solve that fails — or panics — leaves the plan's power maps and
    /// the chip bitwise as they were, and a clean retry lands the
    /// fault-free result.
    #[test]
    fn failed_and_panicking_solves_roll_back() {
        let mut plan = plan();
        let model = Flaky {
            inner: ModelB::paper_b20(),
            mode: AtomicU8::new(OK),
        };
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(&plan, &model).unwrap();
        let update = [(2, Power::from_watts(6.0)), (9, Power::from_watts(0.5))];
        let (held_plan, held_live) = (watts(&plan), live.clone());

        model.mode.store(FAIL, Ordering::SeqCst);
        let err = live.apply(&engine, &mut plan, &model, 1, &update);
        assert!(err.is_err());
        assert_eq!(watts(&plan), held_plan, "failed solve rolled the plan back");
        assert_eq!(live, held_live, "failed solve left the chip untouched");

        model.mode.store(PANIC, Ordering::SeqCst);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            live.apply(&engine, &mut plan, &model, 1, &update)
        }));
        assert!(unwound.is_err());
        assert_eq!(
            watts(&plan),
            held_plan,
            "panicking solve rolled the plan back"
        );
        assert_eq!(live, held_live, "panicking solve left the chip untouched");

        model.mode.store(OK, Ordering::SeqCst);
        let changed = live.apply(&engine, &mut plan, &model, 1, &update).unwrap();
        assert_eq!(changed, [2, 9]);
        assert_eq!(live.report().to_json(), fresh_json(&plan));
    }

    /// The exact distinct-key count of `plan` with each tile's cell index.
    fn exact_cells(plan: &Floorplan) -> (Vec<usize>, KeyMap<CellKey, usize>) {
        let mut keys: KeyMap<CellKey, usize> = KeyMap::default();
        let cell_of = (0..plan.tiles())
            .map(|t| {
                let next = keys.len();
                *keys
                    .entry(plan.cell_key(t % plan.nx(), t / plan.nx()))
                    .or_insert(next)
            })
            .collect();
        (cell_of, keys)
    }

    /// With every key hashing alike, all keys share one salt chain; the
    /// count must still follow the plan exactly as tiles move between
    /// shared, fresh and vanishing keys (representatives included).
    #[test]
    fn cell_counts_stay_exact_when_every_hash_collides() {
        let mut plan = Floorplan::uniform(&CaseStudy::paper(), 6, 1).unwrap();
        let (cell_of, keys) = exact_cells(&plan);
        let mut colliding = CellCounts::new(&cell_of, keys.clone(), |_| 0);
        let mut hashed = CellCounts::new(&cell_of, keys, key_hash);
        let w = Power::from_watts;
        for (plane, updates) in [
            (0, vec![(0, w(1.0)), (3, w(2.0))]),
            (0, vec![(1, w(1.0)), (2, w(2.0)), (5, w(1.0))]),
            (1, vec![(0, w(7.0))]),
            (0, vec![(0, w(2.0)), (1, w(2.0)), (3, w(1.0))]),
            (
                0,
                vec![
                    (0, w(0.5)),
                    (1, w(0.5)),
                    (2, w(0.5)),
                    (3, w(0.5)),
                    (4, w(0.5)),
                    (5, w(0.5)),
                ],
            ),
            (1, vec![(0, plan.plane_maps()[1].tiles()[1])]),
        ] {
            let mut old = Vec::new();
            for (tile, watts) in updates {
                let previous = plan.replace_tile_power(plane, tile, watts);
                if previous.as_watts().to_bits() != watts.as_watts().to_bits() {
                    old.push((tile, previous));
                }
            }
            colliding.update(&plan, plane, &old, |_| 0);
            hashed.update(&plan, plane, &old, key_hash);
            let exact = exact_cells(&plan).1.len();
            assert_eq!((colliding.len(), hashed.len()), (exact, exact));
        }
    }

    #[test]
    fn invalid_updates_are_rejected_before_staging() {
        let mut plan = plan();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(&plan, &model).unwrap();
        let (held_plan, held_live) = (watts(&plan), live.clone());
        let w = Power::from_watts;
        for (plane, updates, needle) in [
            (3, vec![(0, w(1.0))], "out of range"),
            (0, vec![(12, w(1.0))], "outside the 12-tile grid"),
            (0, vec![(5, w(1.0)), (5, w(2.0))], "strictly ascending"),
            (0, vec![(0, w(1.0)), (1, w(-1.0))], "non-negative"),
        ] {
            let err = live
                .apply(&engine, &mut plan, &model, plane, &updates)
                .unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        let other = Floorplan::uniform(&CaseStudy::paper(), 3, 4).unwrap();
        let mut other_plan = other.clone();
        assert!(live
            .apply(&engine, &mut other_plan, &model, 0, &[])
            .is_err());
        assert_eq!(watts(&plan), held_plan);
        assert_eq!(live, held_live);
    }
}
