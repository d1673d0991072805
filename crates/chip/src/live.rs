//! Held evaluation state for serving: a [`LiveChip`] owns a plan, its
//! model and the model's kernels, and keeps the plan's [`ChipReport`]
//! current under sparse power updates, at a cost that scales with the
//! tiles an update names rather than the tiles the chip holds. An update
//! is three steps: stage the changed tiles in the plan, evaluate those
//! tiles against the chip's own kernels, patch the report.

use std::sync::Arc;

use ttsv_core::ladder::LadderKernel;
use ttsv_core::scenario::PowerSeparableModel;
use ttsv_core::CoreError;
use ttsv_units::Power;

use crate::engine::ChipEngine;
use crate::floorplan::Floorplan;
use crate::map::PowerMap;
use crate::report::ChipReport;

/// A floorplan's evaluated report held across power updates, built by
/// [`ChipEngine::evaluate_live`]. The chip owns the plan, the model and
/// the model's kernels of the plan's distinct via densities, so an update
/// names only a plane and the tiles it changes.
///
/// ```
/// use ttsv_chip::{ChipEngine, Floorplan};
/// use ttsv_core::{full_chip::CaseStudy, model_b::ModelB, CoreError};
/// use ttsv_units::Power;
///
/// fn main() -> Result<(), CoreError> {
///     let plan = Floorplan::uniform(&CaseStudy::paper(), 16, 16)?;
///     let engine = ChipEngine::new();
///     let mut live = engine.evaluate_live(plan, ModelB::paper_b100())?; // one kernel pass
///     let changed = live.apply(&engine, 2, &[(5, Power::from_watts(0.5))])?; // re-solves tile 5 only
///     assert_eq!((changed, engine.solves()), (vec![5], 1));
///     Ok(())
/// }
/// ```
///
/// The kernels stay alive exactly as long as some chip holds them, and
/// the engine's matrix tier only indexes them so that chips of one
/// geometry share one kernel. Dropping the chip frees every kernel no
/// other chip holds.
///
/// A chip built past the engine's cap
/// ([`ChipEngine::with_matrix_cache_cap`]) holds no kernels — neither
/// the new ones the tier declined nor those it shared from live holders —
/// and its updates factorize the densities they touch through the
/// engine. It stays that way for its whole life: an update never fills
/// it in, even once other chips have dropped and the cap has room.
///
/// [`LiveChip::apply`] re-solves only the tiles an update changes (one
/// kernel call each, against the held kernels, without locking the
/// engine) and patches the report in place. After every update the held
/// report is bit-identical to [`ChipEngine::evaluate_factored`] on a
/// fresh engine for the same plan: same `ΔT` bits, `distinct_cells`,
/// `total_vias`, row-major `mean`, nearest-rank p99 and first-hit argmax.
/// A power update never changes a tile's via density, so
/// `distinct_cells` (the plan's distinct geometries) and `total_vias`
/// hold without any bookkeeping.
///
/// Equality compares the reports, the plans and kernel identity; the
/// models are not compared.
#[derive(Debug, Clone)]
pub struct LiveChip<M> {
    plan: Floorplan,
    model: M,
    report: ChipReport,
    /// `(via-density bits, kernel)`, sorted by the bits; empty when the
    /// matrix tier declined the kernels for its cap.
    kernels: Vec<(u64, Arc<LadderKernel>)>,
}

impl<M> PartialEq for LiveChip<M> {
    fn eq(&self, other: &Self) -> bool {
        self.report == other.report
            && self.plan == other.plan
            && self.kernels.len() == other.kernels.len()
            && self
                .kernels
                .iter()
                .zip(&other.kernels)
                .all(|((a, ka), (b, kb))| a == b && Arc::ptr_eq(ka, kb))
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

impl<M: PowerSeparableModel + Sync> LiveChip<M> {
    pub(crate) fn new(
        plan: Floorplan,
        model: M,
        report: ChipReport,
        mut kernels: Vec<(u64, Arc<LadderKernel>)>,
    ) -> Self {
        kernels.sort_unstable_by_key(|&(bits, _)| bits);
        Self {
            plan,
            model,
            report,
            kernels,
        }
    }

    /// The held report.
    #[must_use]
    pub fn report(&self) -> &ChipReport {
        &self.report
    }

    /// The held plan, with every update applied so far.
    #[must_use]
    pub fn plan(&self) -> &Floorplan {
        &self.plan
    }

    /// Applies a sparse power update to plane `plane` of the chip's plan
    /// through `engine` (the engine that evaluated the chip) and patches
    /// the held report in place.
    ///
    /// `updates` lists `(row-major tile index, watts)` pairs in strictly
    /// ascending tile order. Entries whose watts are bit-identical to the
    /// current map are no-ops. Returns the tiles whose `ΔT` changed
    /// bitwise, in ascending order.
    ///
    /// The update is transactional: the plan's changed tiles are staged
    /// and written back if any solve fails (or panics), and the report is
    /// patched only after every solve succeeded. On `Err` the chip is
    /// exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for a plane or tile out of
    /// range, tiles out of order, or watts [`PowerMap::check_power`]
    /// rejects; on a chip that holds no kernels, propagates tile
    /// validation and factorization failures.
    pub fn apply(
        &mut self,
        engine: &ChipEngine,
        plane: usize,
        updates: &[(usize, Power)],
    ) -> Result<Vec<usize>, CoreError> {
        let Self {
            plan,
            model,
            report,
            kernels,
        } = self;
        let tiles = plan.tiles();
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
        let delta_t = engine.solve_tiles(staged.plan, model, &touched, kernels)?;

        // Every solve succeeded: commit the plan and patch the report.
        let changed = report.patch(&touched, &delta_t);
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

    /// Model B whose factorizations succeed, fail or panic on demand.
    #[derive(Debug, Clone)]
    struct Flaky {
        inner: ModelB,
        mode: Arc<AtomicU8>,
    }

    const OK: u8 = 0;
    const FAIL: u8 = 1;
    const PANIC: u8 = 2;

    impl ThermalModel for Flaky {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
            self.inner.max_delta_t(scenario)
        }
    }

    impl PowerSeparableModel for Flaky {
        fn factorize_geometry(&self, scenario: &Scenario) -> Result<LadderKernel, CoreError> {
            match self.mode.load(Ordering::SeqCst) {
                FAIL => Err(CoreError::InvalidScenario {
                    reason: "synthetic factorization failure".into(),
                }),
                PANIC => panic!("synthetic factorization panic"),
                _ => self.inner.factorize_geometry(scenario),
            }
        }
        fn cache_tag(&self) -> String {
            self.inner.cache_tag()
        }
    }

    #[test]
    fn sparse_updates_match_a_fresh_full_evaluation() {
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(plan(), ModelB::paper_b20()).unwrap();
        assert_eq!(live.report().to_json(), fresh_json(live.plan()));
        let w = Power::from_watts;
        for (plane, updates) in [
            (0, vec![(1, w(9.0)), (7, w(0.0))]),
            // Tile 4 gets tile 0's watts.
            (1, vec![(4, live.plan().plane_maps()[1].tiles()[0])]),
            (2, vec![(0, w(3.5)), (5, w(3.5)), (11, w(0.25))]),
            // Restore tile 1's watts.
            (0, vec![(1, live.plan().plane_maps()[0].tiles()[1])]),
        ] {
            let before = live.report().clone();
            let changed = live.apply(&engine, plane, &updates).unwrap();
            assert_eq!(live.report().to_json(), fresh_json(live.plan()));
            let diff: Vec<usize> = (0..live.plan().tiles())
                .filter(|&i| before.delta_t[i].to_bits() != live.report().delta_t[i].to_bits())
                .collect();
            assert_eq!(changed, diff);
        }
    }

    #[test]
    fn a_two_tile_update_keys_two_tiles_and_a_no_op_keys_none() {
        let cs = CaseStudy::paper();
        let plan = Floorplan::uniform(&cs, 16, 16).unwrap();
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(plan, ModelB::paper_b20()).unwrap();
        let work = || (engine.solves(), engine.factorizations());
        let lookups = || (engine.scenario_hits(), engine.scenario_misses());
        let ((solved, factored), looked_up) = (work(), lookups());
        let w = Power::from_watts;
        let changed = live
            .apply(&engine, 0, &[(3, w(1.0)), (200, w(2.0))])
            .unwrap();
        assert_eq!(changed, [3, 200]);
        assert_eq!(
            work(),
            (solved + 2, factored),
            "only the two named tiles are solved, against the held kernel"
        );
        assert_eq!(lookups(), looked_up, "a held kernel skips the matrix tier");
        assert_eq!(live.report().distinct_cells, 1);

        let same = live.plan().plane_maps()[0].tiles()[3];
        let (solved, factored) = work();
        let held = live.clone();
        let changed = live.apply(&engine, 0, &[(3, same)]).unwrap();
        assert!(changed.is_empty());
        assert_eq!(work(), (solved, factored));
        assert_eq!(live, held);
    }

    /// On a chip past the kernel cap an update factorizes the densities it
    /// touches; a factorization that fails — or panics — leaves the plan's
    /// power maps and the chip bitwise as they were, and a clean retry
    /// lands the fault-free result.
    #[test]
    fn failed_and_panicking_solves_roll_back() {
        let mode = Arc::new(AtomicU8::new(OK));
        let model = Flaky {
            inner: ModelB::paper_b20(),
            mode: Arc::clone(&mode),
        };
        let engine = ChipEngine::new().with_workers(1).with_matrix_cache_cap(1);
        let mut live = engine.evaluate_live(plan(), model).unwrap();
        assert_eq!(engine.evictions(), 2, "the chip holds neither kernel");
        assert_eq!(engine.cache_entries(), 0);
        let update = [(2, Power::from_watts(6.0)), (9, Power::from_watts(0.5))];
        let (held_plan, held_live) = (watts(live.plan()), live.clone());

        mode.store(FAIL, Ordering::SeqCst);
        let err = live.apply(&engine, 1, &update);
        assert!(err.is_err());
        assert_eq!(
            watts(live.plan()),
            held_plan,
            "failed solve rolled the plan back"
        );
        assert_eq!(live, held_live, "failed solve left the chip untouched");

        mode.store(PANIC, Ordering::SeqCst);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            live.apply(&engine, 1, &update)
        }));
        assert!(unwound.is_err());
        assert_eq!(
            watts(live.plan()),
            held_plan,
            "panicking solve rolled the plan back"
        );
        assert_eq!(live, held_live, "panicking solve left the chip untouched");

        mode.store(OK, Ordering::SeqCst);
        let changed = live.apply(&engine, 1, &update).unwrap();
        assert_eq!(changed, [2, 9]);
        assert_eq!(live.report().to_json(), fresh_json(live.plan()));
    }

    /// Past the live-kernel cap a chip holds no kernels: each update
    /// factorizes the densities among its changed tiles that no live chip
    /// shares, and stays bitwise equal to a fresh evaluation.
    #[test]
    fn updates_past_the_matrix_cap_factorize_only_the_changed_densities() {
        // 4×3 grid, one via density per column: 4 geometries. The cap
        // allows one kernel alive, and a neighbour chip holds column 2's.
        let cs = CaseStudy::paper();
        let maps = || {
            (0..3)
                .map(|j| PowerMap::uniform(4, 3, cs.plane_powers[j]).unwrap())
                .collect::<Vec<_>>()
        };
        let densities = [0.004, 0.005, 0.008, 0.01];
        let via = ViaDensityMap::new(4, 3, (0..12).map(|t| densities[t % 4]).collect()).unwrap();
        let plan = Floorplan::new(&cs, maps(), via).unwrap();
        let neighbour_via = ViaDensityMap::uniform(4, 3, densities[2]).unwrap();
        let neighbour_plan = Floorplan::new(&cs, maps(), neighbour_via).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new().with_workers(1).with_matrix_cache_cap(1);
        let neighbour = engine.evaluate_live(neighbour_plan, model.clone()).unwrap();
        assert_eq!((engine.factorizations(), engine.cache_entries()), (1, 1));
        let mut live = engine.evaluate_live(plan, model).unwrap();
        assert_eq!(live.report().distinct_cells, 4);
        assert_eq!(engine.factorizations(), 4, "column 2's kernel is shared");
        assert_eq!(engine.evictions(), 3, "3 new kernels never fit beside it");
        assert_eq!(engine.cache_entries(), 1);
        let w = Power::from_watts;
        // (updates, columns they touch other than column 2).
        for (updates, columns) in [
            (vec![(0, w(1.0)), (5, w(2.0))], 2),
            (vec![(2, w(1.0)), (6, w(1.5))], 0),
            (vec![(3, w(0.5)), (7, w(0.5))], 1),
            (vec![(4, w(3.0)), (9, w(0.25)), (10, w(0.1))], 2),
        ] {
            let (solved, factored) = (engine.solves(), engine.factorizations());
            live.apply(&engine, 0, &updates).unwrap();
            assert_eq!(engine.factorizations() - factored, columns);
            assert_eq!(engine.solves() - solved, updates.len());
            assert_eq!(engine.cache_entries(), 1, "only the neighbour's kernel");
            assert_eq!(live.report().to_json(), fresh_json(live.plan()));
        }
        // Once the neighbour drops, column 2's kernel has no holder.
        drop(neighbour);
        assert_eq!(engine.cache_entries(), 0);
        let factored = engine.factorizations();
        live.apply(&engine, 0, &[(6, w(0.75))]).unwrap();
        assert_eq!(engine.factorizations() - factored, 1);
        assert_eq!(engine.cache_entries(), 0);
        assert_eq!(live.report().to_json(), fresh_json(live.plan()));
    }

    #[test]
    fn dropping_the_chip_frees_its_kernels() {
        let engine = ChipEngine::new().with_workers(1);
        let live = engine.evaluate_live(plan(), ModelB::paper_b20()).unwrap();
        assert_eq!(engine.cache_entries(), 2, "one kernel per via density");
        let copy = live.clone();
        drop(live);
        assert_eq!(engine.cache_entries(), 2, "the clone still holds them");
        drop(copy);
        assert_eq!(engine.cache_entries(), 0);
    }

    #[test]
    fn invalid_updates_are_rejected_before_staging() {
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(plan(), ModelB::paper_b20()).unwrap();
        let (held_plan, held_live) = (watts(live.plan()), live.clone());
        let w = Power::from_watts;
        for (plane, updates, needle) in [
            (3, vec![(0, w(1.0))], "out of range"),
            (0, vec![(12, w(1.0))], "outside the 12-tile grid"),
            (0, vec![(5, w(1.0)), (5, w(2.0))], "strictly ascending"),
            (0, vec![(0, w(1.0)), (1, w(-1.0))], "non-negative"),
        ] {
            let err = live.apply(&engine, plane, &updates).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        assert_eq!(watts(live.plan()), held_plan);
        assert_eq!(live, held_live);
    }
}
