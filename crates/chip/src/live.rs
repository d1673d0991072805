//! Held evaluation state for serving: a [`LiveChip`] owns a plan and its
//! model kernels, and keeps the plan's [`ChipReport`] current under sparse
//! power updates, at a cost that scales with the tiles an update names
//! rather than the tiles the chip holds. An update
//! is three steps: validate it, evaluate the changed tiles against the
//! chip's own kernels, then commit the new watts to the plan and patch the
//! report and its statistics.

use ttsv_core::ladder::LadderKernel;
use ttsv_core::CoreError;
use ttsv_units::Power;

use crate::engine::ChipEngine;
use crate::floorplan::Floorplan;
use crate::map::PowerMap;
use crate::report::{ChipReport, ReportIndex};

/// A floorplan's evaluated report held across power updates, built by
/// [`ChipEngine::evaluate_live`]. The chip owns the plan and the model's
/// kernels of the plan's distinct via densities, so an update names only
/// a plane and the tiles it changes.
///
/// ```
/// use ttsv_chip::{ChipEngine, Floorplan};
/// use ttsv_core::{full_chip::CaseStudy, model_b::ModelB, CoreError};
/// use ttsv_units::Power;
///
/// fn main() -> Result<(), CoreError> {
///     let plan = Floorplan::uniform(&CaseStudy::paper(), 16, 16)?;
///     let engine = ChipEngine::new();
///     let mut live = engine.evaluate_live(plan, &ModelB::paper_b100())?; // one kernel pass
///     let changed = live.apply(&engine, 2, &[(5, Power::from_watts(0.5))])?; // re-solves tile 5 only
///     assert_eq!((changed, engine.solves()), (vec![5], 1));
///     Ok(())
/// }
/// ```
///
/// The chip owns its kernels by value: no other chip or the engine shares
/// them, and dropping the chip frees them. A chip holds one kernel per
/// distinct via density (its report's `distinct_cells`) for its whole
/// life, since an update never changes a density; that count is what a
/// serving layer budgets.
///
/// [`LiveChip::apply`] re-solves only the tiles an update changes (one
/// kernel call each, against the held kernels, without locking the
/// engine; it never factorizes) and patches the report in place from
/// partial statistics the chip keeps beside it, at most a byte a tile: a
/// tree of sums and maxima over 64-tile blocks of the row-major map, 64
/// nodes to a node above, and a buffer of the largest tiles for the p99.
/// A changed tile costs its kernel call and the tree nodes above it, 64
/// inputs each (two levels at 64×64, three at 256×256). Two cases still
/// cost the whole map: a change to tile 0, whose value every leaf's
/// offsets are taken from, and a refill of the p99 buffer when updates
/// drain it. On random two-tile updates both are rare (tile 0 in 2 of `n`
/// updates; one refill in 100,000 updates at 64×64), and a two-tile
/// update reads 245, 263 and 343 ns at 12×12, 64×64 and 256×256
/// (`chip/live_apply/grid{12,64,256}` in `BENCH_38.json`). After every
/// update the held report is bit-identical to
/// [`ChipEngine::evaluate_factored`] on a fresh engine for the same plan:
/// same `ΔT` bits, `distinct_cells`, `total_vias`, mean, nearest-rank p99
/// and first-hit argmax.
/// A power update never changes a tile's via density, so
/// `distinct_cells` (the plan's distinct geometries) and `total_vias`
/// hold without any bookkeeping.
///
/// Equality compares the plans and the reports, not the kernels.
#[derive(Debug, Clone)]
pub struct LiveChip {
    plan: Floorplan,
    report: ChipReport,
    /// The partial statistics `report` is patched from.
    index: ReportIndex,
    /// `(via-density bits, kernel)`, one per via density of the plan,
    /// sorted by the bits.
    kernels: Vec<(u64, LadderKernel)>,
}

impl PartialEq for LiveChip {
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan && self.report == other.report
    }
}

fn invalid(reason: String) -> CoreError {
    CoreError::InvalidFloorplan { reason }
}

impl LiveChip {
    pub(crate) fn new(
        plan: Floorplan,
        (report, index): (ChipReport, ReportIndex),
        mut kernels: Vec<(u64, LadderKernel)>,
    ) -> Self {
        kernels.sort_unstable_by_key(|&(bits, _)| bits);
        Self {
            plan,
            report,
            index,
            kernels,
        }
    }

    /// The held report.
    #[must_use]
    pub fn report(&self) -> &ChipReport {
        &self.report
    }

    /// The kernels the chip holds, one per distinct via density of its
    /// plan.
    pub fn kernels(&self) -> impl ExactSizeIterator<Item = &LadderKernel> {
        self.kernels.iter().map(|(_, kernel)| kernel)
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
    /// The update validates, computes, then commits: each changed tile's
    /// `ΔT` is computed from the held kernel with the new watts in its
    /// cell powers, and only then are the watts written into the plan and
    /// the report patched. Nothing changes before the last step that can
    /// fail, so on `Err` the chip is exactly as it was. An update never
    /// factorizes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for a plane or tile out of
    /// range, tiles out of order, or watts [`PowerMap::check_power`]
    /// rejects.
    pub fn apply(
        &mut self,
        engine: &ChipEngine,
        plane: usize,
        updates: &[(usize, Power)],
    ) -> Result<Vec<usize>, CoreError> {
        let Self {
            plan,
            report,
            index,
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

        let solved = engine.solve_tiles(plan, plane, updates, kernels)?;

        // Every solve succeeded: commit the plan and patch the report.
        for &(tile, watts) in updates {
            plan.replace_tile_power(plane, tile, watts);
        }
        Ok(report.patch(index, solved))
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn sparse_updates_match_a_fresh_full_evaluation() {
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(plan(), &ModelB::paper_b20()).unwrap();
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
        let mut live = engine.evaluate_live(plan, &ModelB::paper_b20()).unwrap();
        let work = || (engine.solves(), engine.factorizations());
        let (solved, factored) = work();
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
        assert_eq!(live.report().distinct_cells, 1);

        let same = live.plan().plane_maps()[0].tiles()[3];
        let (solved, factored) = work();
        let held = live.clone();
        let changed = live.apply(&engine, 0, &[(3, same)]).unwrap();
        assert!(changed.is_empty());
        assert_eq!(work(), (solved, factored));
        assert_eq!(live, held);
    }

    #[test]
    fn invalid_updates_are_rejected_before_staging() {
        let engine = ChipEngine::new().with_workers(1);
        let mut live = engine.evaluate_live(plan(), &ModelB::paper_b20()).unwrap();
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
