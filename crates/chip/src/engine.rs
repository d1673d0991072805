//! Evaluation of a floorplan's tiles. Model kernels live with the chips
//! that use them.
//!
//! # Two paths
//!
//! * **Generic** ([`ChipEngine::evaluate`]) — for models that are not
//!   power-separable (the FEM reference and the 1-D baseline), and the
//!   per-tile reference the property suites compare the factored path
//!   against. Tiles with bit-identical unit cells (via density and
//!   per-plane powers) are deduplicated *within the call*, because a FEM
//!   tile costs milliseconds; the distinct cells are solved on the
//!   bounded worker pool. Nothing is cached across calls.
//! * **Factored** ([`ChipEngine::evaluate_factored`]) — for a
//!   [`PowerSeparableModel`]: [`ModelB`](ttsv_core::model_b::ModelB) and
//!   [`ModelA`](ttsv_core::model_a::ModelA). Each distinct geometry (via
//!   density) is factorized once per call, into the ladder's hotspot
//!   kernel ([`LadderKernel`]: the ladder's closed form per run, with a
//!   few candidate nodes and a bound per run in front of it, 3,280 bytes
//!   for the serving `B(10,1000)` on the §IV-E cell, built in O(runs)).
//!   Every tile then costs one kernel call (≈ 0.05 µs at that geometry)
//!   on the calling thread — no dedup, since hashing a tile's key costs
//!   about as much as evaluating it.
//!
//! # Kernels live with their chips
//!
//! [`ChipEngine::evaluate_live`] runs the factored evaluation once and
//! returns a [`LiveChip`] that owns the plan and, by value, the plan's
//! kernels; its sparse updates call those kernels for the changed tiles
//! only, without factorizing, so a serving update costs what it changes.
//! Because the chip owns both, an update cannot pair kernels with a plan
//! they were not built from, and a chip's kernels are freed with it. The
//! engine keeps no kernel between calls: two chips of one density hold
//! two equal kernels, each factorized for its own chip. A serving layer
//! bounds the chips it keeps, and with them their kernels.
//!
//! [`ChipEngine::factorizations`] and [`ChipEngine::solves`] make the
//! cost observable — the serving tests assert that a power update
//! factorizes nothing and re-solves exactly the changed tiles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use ttsv_core::batch::{default_workers, scoped_batch};
use ttsv_core::ladder::LadderKernel;
use ttsv_core::scenario::{PowerSeparableModel, ThermalModel};
use ttsv_core::CoreError;
use ttsv_units::Power;

use crate::floorplan::{CellKey, DensityGroups, Floorplan};
use crate::live::LiveChip;
use crate::report::ChipReport;

/// One factored pass over every tile of a plan.
struct KernelPass {
    /// Each tile's `ΔT`, row-major.
    delta_t: Vec<f64>,
    /// Per distinct geometry of the plan: its via-density bits and
    /// kernel.
    kernels: Vec<(u64, LadderKernel)>,
}

/// Evaluates a [`Floorplan`] through any [`ThermalModel`] and scatters
/// the results into a full-chip [`ChipReport`]: the generic path
/// deduplicates identical tiles within the call and batch-solves them on
/// the bounded self-scheduling worker pool;
/// [`ChipEngine::evaluate_factored`] evaluates power-separable models
/// through one kernel per geometry, which a [`LiveChip`] keeps — see the
/// module docs.
///
/// The worker count is a performance knob only: for deterministic models
/// the report is bit-identical for every setting, and bit-identical to
/// solving each tile on its own (the property suite enforces both).
///
/// Cloning an engine keeps its worker count and zeroes its counters.
#[derive(Debug)]
pub struct ChipEngine {
    workers: Option<usize>,
    solves: AtomicUsize,
    factorizations: AtomicUsize,
}

impl Clone for ChipEngine {
    fn clone(&self) -> Self {
        Self {
            workers: self.workers,
            ..Self::new()
        }
    }
}

impl Default for ChipEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ChipEngine {
    /// An engine with zeroed counters and the default worker pool
    /// (`available_parallelism()`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: None,
            solves: AtomicUsize::new(0),
            factorizations: AtomicUsize::new(0),
        }
    }

    /// Pins the worker-pool size (the determinism tests run 1 vs N).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one chip-engine worker");
        self.workers = Some(workers);
        self
    }

    /// Does nothing: the engine no longer caches per-tile results. Kept
    /// only so the external serving benchmark, which still calls it,
    /// compiles.
    #[doc(hidden)]
    #[must_use]
    pub fn with_scenario_cache_cap(self, _cap: usize) -> Self {
        self
    }

    /// Does nothing: the engine keeps no kernels (a serving layer bounds
    /// the chips that own them). Kept only so the external serving
    /// benchmark, which still calls it, compiles.
    #[doc(hidden)]
    #[must_use]
    pub fn with_matrix_cache_cap(self, _cap: usize) -> Self {
        self
    }

    /// Unit-cell solves performed, cumulative across calls: one per
    /// distinct cell [`ChipEngine::evaluate`] sends to the model, and one
    /// per tile a [`LiveChip::apply`] re-evaluates. A full
    /// [`ChipEngine::evaluate_factored`] or [`ChipEngine::evaluate_live`]
    /// always costs one kernel call per tile, so it adds nothing here:
    /// its variable cost is [`ChipEngine::factorizations`]. A power
    /// update therefore adds exactly the tiles whose watts changed.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Kernel factorizations performed by the factored paths — one per
    /// distinct via density of each evaluated plan — cumulative across
    /// calls.
    #[must_use]
    pub fn factorizations(&self) -> usize {
        self.factorizations.load(Ordering::Relaxed)
    }

    /// Always 0: the engine shares no kernel. Kept only so the external
    /// serving benchmark, which still reads it, compiles.
    #[doc(hidden)]
    #[must_use]
    pub fn scenario_hits(&self) -> usize {
        0
    }

    /// [`ChipEngine::factorizations`]: every kernel a factored pass needs
    /// is built. Kept only so the external serving benchmark, which still
    /// reads it, compiles.
    #[doc(hidden)]
    #[must_use]
    pub fn scenario_misses(&self) -> usize {
        self.factorizations()
    }

    /// Always 0: the engine declines no kernel. Kept only so the external
    /// serving benchmark, which still reads it, compiles.
    #[doc(hidden)]
    #[must_use]
    pub fn evictions(&self) -> usize {
        0
    }

    /// Evaluates every tile's unit cell and assembles the chip `ΔT` map.
    /// Bit-identical tiles are solved once per call. This path serves
    /// models that are not power-separable (the FEM reference and the 1-D
    /// baseline) and is the per-tile reference of the property suites;
    /// power-separable models belong on
    /// [`ChipEngine::evaluate_factored`].
    ///
    /// # Errors
    ///
    /// Propagates tile-scenario validation failures and the first (by
    /// distinct-cell order) model error.
    pub fn evaluate(
        &self,
        plan: &Floorplan,
        model: &(dyn ThermalModel + Sync),
    ) -> Result<ChipReport, CoreError> {
        let nx = plan.nx();
        let mut seen: HashMap<CellKey, usize> = HashMap::with_capacity(plan.tiles());
        let mut cells: Vec<usize> = Vec::new();
        let cell_of: Vec<usize> = (0..plan.tiles())
            .map(|t| {
                *seen.entry(plan.cell_key(t)).or_insert_with(|| {
                    cells.push(t);
                    cells.len() - 1
                })
            })
            .collect();
        let scenarios = cells
            .iter()
            .map(|&t| plan.tile_cell(t % nx, t / nx).map(|cell| cell.scenario))
            .collect::<Result<Vec<_>, _>>()?;

        let workers = self.workers.unwrap_or_else(default_workers);
        let solved = scoped_batch(scenarios.len(), workers, |k| {
            model.max_delta_t(&scenarios[k]).map(|t| t.as_kelvin())
        })?;
        self.solves.fetch_add(solved.len(), Ordering::Relaxed);
        Ok(ChipReport::from_tiles(
            model.name(),
            nx,
            plan.ny(),
            cell_of.iter().map(|&i| solved[i]).collect(),
            plan.distinct_densities(),
            plan.via_count(),
        ))
    }

    /// Like [`ChipEngine::evaluate`], but for [`PowerSeparableModel`]s:
    /// one kernel per distinct geometry (via density), factorized on the
    /// worker pool, then one kernel call per tile. A full
    /// [`Scenario`](ttsv_core::scenario::Scenario) is built only for the
    /// first tile of each density. Results are bit-identical to
    /// [`ChipEngine::evaluate`] on the model's default solver path
    /// (property-tested).
    ///
    /// The kernels are dropped when the call returns, so a repeat call
    /// factorizes again; serving paths keep their kernels in a
    /// [`LiveChip`] through [`ChipEngine::evaluate_live`].
    ///
    /// # Errors
    ///
    /// Propagates tile validation/factorization failures and the first
    /// (by tile order) model error.
    pub fn evaluate_factored<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
    ) -> Result<ChipReport, CoreError> {
        let pass = self.kernel_pass(plan, &plan.density_groups(), model)?;
        Ok(Self::report(plan, model, pass.delta_t, pass.kernels.len()))
    }

    /// [`ChipEngine::evaluate_factored`], held as a [`LiveChip`] that
    /// owns the plan and one kernel per via density of it, and that later
    /// sparse power updates patch in place.
    ///
    /// # Errors
    ///
    /// As [`ChipEngine::evaluate_factored`].
    pub fn evaluate_live<M: PowerSeparableModel + Sync>(
        &self,
        plan: Floorplan,
        model: &M,
    ) -> Result<LiveChip, CoreError> {
        let groups = plan.density_groups();
        self.evaluate_live_grouped(plan, &groups, model)
    }

    /// [`ChipEngine::evaluate_live`] with the plan's
    /// [`Floorplan::density_groups`] already at hand — a caller that
    /// weighed the plan's kernels by them does not group its tiles again.
    ///
    /// # Errors
    ///
    /// As [`ChipEngine::evaluate_factored`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` visibly belongs to another plan: another tile
    /// count, or a group whose first tile has another density.
    pub fn evaluate_live_grouped<M: PowerSeparableModel + Sync>(
        &self,
        plan: Floorplan,
        groups: &DensityGroups,
        model: &M,
    ) -> Result<LiveChip, CoreError> {
        let KernelPass { delta_t, kernels } = self.kernel_pass(&plan, groups, model)?;
        let report = Self::report(&plan, model, delta_t, kernels.len());
        Ok(LiveChip::new(plan, report, kernels))
    }

    /// The report of a kernel pass over every tile of `plan`.
    fn report<M: PowerSeparableModel>(
        plan: &Floorplan,
        model: &M,
        delta_t: Vec<f64>,
        geometries: usize,
    ) -> ChipReport {
        ChipReport::from_tiles(
            model.name(),
            plan.nx(),
            plan.ny(),
            delta_t,
            geometries,
            plan.via_count(),
        )
    }

    /// The `ΔT` of each `(tile, watts)` in `updates` (row-major tiles),
    /// with plane `plane`'s power of that tile read as `watts` instead of
    /// the plan's — the k-tile solve behind [`LiveChip::apply`], counted
    /// into [`ChipEngine::solves`]. `held` is the kernels of every via
    /// density of `plan`, sorted by the density bits: a tile calls its
    /// kernel from there, and nothing is factorized.
    pub(crate) fn solve_tiles(
        &self,
        plan: &Floorplan,
        plane: usize,
        updates: &[(usize, Power)],
        held: &[(u64, LadderKernel)],
    ) -> Result<Vec<f64>, CoreError> {
        let mut powers = Vec::with_capacity(plan.plane_count());
        let delta_t = updates
            .iter()
            .map(|&(t, watts)| {
                let bits = plan.matrix_bits(t);
                let i = held
                    .binary_search_by_key(&bits, |&(b, _)| b)
                    .expect("a chip holds the kernel of every via density in its plan");
                plan.fill_tile_cell_powers(t, &mut powers);
                powers[plane] = watts * plan.cell_share(t);
                held[i].1.max_delta_t(&powers).map(|dt| dt.as_kelvin())
            })
            .collect::<Result<Vec<f64>, _>>()?;
        self.solves.fetch_add(updates.len(), Ordering::Relaxed);
        Ok(delta_t)
    }

    /// The factored pipeline over every tile of `plan`, grouped by via
    /// density in `groups`: factorize each group's kernel (in parallel),
    /// then call the kernel once per tile, in tile order on the calling
    /// thread — at ≈ 100 ns a tile on the serving geometry
    /// (`model_b/hotspot_1024/b10_1000`), handing tiles to workers would
    /// cost more than it saves.
    fn kernel_pass<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        groups: &DensityGroups,
        model: &M,
    ) -> Result<KernelPass, CoreError> {
        assert!(
            groups.tiles() == plan.tiles()
                && groups
                    .groups
                    .iter()
                    .all(|group| plan.matrix_bits(group.tile) == group.bits),
            "density groups of another plan"
        );
        let nx = plan.nx();
        let workers = self.workers.unwrap_or_else(default_workers);
        let built = scoped_batch(groups.groups.len(), workers, |g| {
            let t = groups.groups[g].tile;
            let cell = plan.tile_cell(t % nx, t / nx)?;
            model.factorize_geometry(&cell.scenario)
        })?;
        self.factorizations
            .fetch_add(built.len(), Ordering::Relaxed);

        let mut powers = Vec::with_capacity(plan.plane_count());
        let delta_t = groups
            .of_tile
            .iter()
            .enumerate()
            .map(|(t, &g)| {
                let g = g as usize;
                plan.fill_tile_powers_shared(t, groups.groups[g].share, &mut powers);
                built[g].max_delta_t(&powers).map(|dt| dt.as_kelvin())
            })
            .collect::<Result<Vec<f64>, _>>()?;
        let kernels = groups
            .groups
            .iter()
            .map(|group| group.bits)
            .zip(built)
            .collect();
        Ok(KernelPass { delta_t, kernels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_core::full_chip::CaseStudy;
    use ttsv_core::model_a::ModelA;
    use ttsv_core::model_b::ModelB;
    use ttsv_core::prelude::*;

    use crate::map::{PowerMap, ViaDensityMap};

    fn model_a() -> ModelA {
        ModelA::with_coefficients(CaseStudy::paper_fitting())
    }

    #[test]
    fn uniform_plan_evaluates_one_distinct_cell() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 4, 4).unwrap();
        let engine = ChipEngine::new();
        let report = engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(report.tiles, 16);
        assert_eq!(report.distinct_cells, 1);
        assert_eq!(engine.solves(), 1);
        assert_eq!(report.delta_t.len(), 16);
        // Uniform chip: every tile identical, flat statistics.
        assert_eq!(report.max_delta_t, report.mean_delta_t);
        assert_eq!(report.max_delta_t, report.p99_delta_t);
        assert!(report.max_delta_t > 0.0);
        // The generic path caches nothing across calls: a repeat solves
        // the one distinct cell again, bit-identically.
        let again = engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(engine.solves(), 2);
        assert_eq!(again.delta_t, report.delta_t);
    }

    #[test]
    fn hotspot_raises_delta_t_where_the_power_is() {
        let cs = CaseStudy::paper();
        // 2×1 grid: left tile hot, right tile cool, same total as paper.
        let hot = |left: f64, total: f64| {
            PowerMap::new(
                2,
                1,
                vec![
                    Power::from_watts(total * left),
                    Power::from_watts(total * (1.0 - left)),
                ],
            )
            .unwrap()
        };
        let maps = vec![hot(0.8, 70.0), hot(0.8, 7.0), hot(0.8, 7.0)];
        let via = ViaDensityMap::uniform(2, 1, cs.density).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        let engine = ChipEngine::new();
        let report = engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(engine.solves(), 2, "two distinct cells");
        assert_eq!(report.distinct_cells, 1, "one via density");
        assert!(report.get(0, 0) > report.get(1, 0));
        assert_eq!((report.argmax_ix, report.argmax_iy), (0, 0));
        assert_eq!(report.max_delta_t, report.get(0, 0));
    }

    #[test]
    fn denser_vias_cool_their_tile() {
        let cs = CaseStudy::paper();
        let maps = (0..3)
            .map(|j| PowerMap::uniform(2, 1, cs.plane_powers[j] * 0.2).unwrap())
            .collect();
        // Right tile has 4× the via density of the left.
        let via = ViaDensityMap::new(2, 1, vec![0.005, 0.02]).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        let report = ChipEngine::new().evaluate(&plan, &model_a()).unwrap();
        assert_eq!(report.distinct_cells, 2);
        assert!(report.get(1, 0) < report.get(0, 0));
    }

    #[test]
    fn factored_path_shares_one_factorization_across_distinct_powers() {
        let cs = CaseStudy::paper();
        // 3×1 grid, all-distinct powers, uniform density → one matrix.
        let maps = (0..3)
            .map(|j| {
                PowerMap::from_fn(3, 1, |ix, _| cs.plane_powers[j] * ((1.0 + ix as f64) / 6.0))
                    .unwrap()
            })
            .collect();
        let via = ViaDensityMap::uniform(3, 1, cs.density).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        let factored = engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(factored.distinct_cells, 1);
        assert_eq!(engine.factorizations(), 1);
        assert_eq!(engine.solves(), 0, "a full kernel pass counts no solves");
        // Bit-identical to the per-tile path.
        let plain = ChipEngine::new().evaluate(&plan, &model).unwrap();
        assert_eq!(factored.delta_t, plain.delta_t);
    }

    #[test]
    fn power_delta_re_solves_only_changed_tiles() {
        let cs = CaseStudy::paper();
        let plan = Floorplan::uniform(&cs, 4, 4).unwrap();
        let engine = ChipEngine::new();
        let mut live = engine.evaluate_live(plan, &ModelB::paper_b20()).unwrap();
        assert_eq!(engine.factorizations(), 1);

        // Double one tile's power on the top plane.
        let doubled = live.plan().plane_maps()[2].tiles()[5] * 2.0;
        live.apply(&engine, 2, &[(5, doubled)]).unwrap();
        assert_eq!(live.report().distinct_cells, 1, "one via density");
        assert_eq!(engine.solves(), 1, "only the changed tile re-solves");
        assert_eq!(engine.factorizations(), 1, "geometry unchanged");
    }

    #[test]
    fn update_power_map_validates_inputs() {
        let cs = CaseStudy::paper();
        let mut plan = Floorplan::uniform(&cs, 2, 2).unwrap();
        assert!(matches!(
            plan.update_power_map(7, PowerMap::uniform(2, 2, Power::from_watts(1.0)).unwrap()),
            Err(CoreError::InvalidFloorplan { .. })
        ));
        assert!(matches!(
            plan.update_power_map(0, PowerMap::uniform(3, 2, Power::from_watts(1.0)).unwrap()),
            Err(CoreError::InvalidFloorplan { .. })
        ));
    }

    /// A 2×1 plan at half the paper's plane powers with one via density.
    fn plan_at(density: f64) -> Floorplan {
        let cs = CaseStudy::paper();
        let maps = (0..3)
            .map(|j| PowerMap::uniform(2, 1, cs.plane_powers[j] * 0.5).unwrap())
            .collect();
        let via = ViaDensityMap::uniform(2, 1, density).unwrap();
        Floorplan::new(&cs, maps, via).unwrap()
    }

    /// Each chip owns the kernels of its own densities: two chips of one
    /// density cost two factorizations and report bitwise what a fresh
    /// engine reports, as does a repeat evaluation.
    #[test]
    fn chips_of_one_density_factorize_their_own_kernels() {
        let model = ModelB::paper_b20();
        let (plan_a, plan_b) = (plan_at(0.005), plan_at(0.01));
        let fresh = |plan: &Floorplan| ChipEngine::new().evaluate_factored(plan, &model).unwrap();
        let engine = ChipEngine::new();
        let held_a = engine.evaluate_live(plan_a.clone(), &model).unwrap();
        let also_a = engine.evaluate_live(plan_a.clone(), &model).unwrap();
        assert_eq!(engine.factorizations(), 2, "each chip builds its own");
        assert_eq!(held_a.report(), also_a.report());
        assert_eq!(also_a.report(), &fresh(&plan_a));
        let held_b = engine.evaluate_live(plan_b.clone(), &model).unwrap();
        assert_eq!(engine.factorizations(), 3);
        assert_eq!(held_b.report(), &fresh(&plan_b));

        let again = engine.evaluate_factored(&plan_a, &model).unwrap();
        assert_eq!(engine.factorizations(), 4, "a held kernel is not shared");
        assert_eq!(&again, held_a.report());
        assert_eq!(
            (engine.scenario_hits(), engine.scenario_misses()),
            (0, 4),
            "the benchmark shims read no hits and one miss per factorization"
        );
    }

    #[test]
    fn cloned_engines_start_cold() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(engine.factorizations(), 1);
        let fresh = engine.clone();
        assert_eq!(fresh.factorizations(), 0);
        fresh.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(fresh.factorizations(), 1);
    }

    #[test]
    fn model_a_fits_differing_only_in_lateral_spreading_share_no_kernel() {
        // `c` scales every non-top plane's liner, so the two fits need
        // two kernels on one geometry.
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        let case = CaseStudy::paper_fitting();
        let unit_c = FittingCoefficients::new(case.k1(), case.k2());
        assert_ne!(case.lateral_spreading(), unit_c.lateral_spreading());
        let engine = ChipEngine::new();
        let reports: Vec<_> = [case, unit_c]
            .into_iter()
            .map(|fit| {
                let model = ModelA::with_coefficients(fit);
                let reused = engine.evaluate_factored(&plan, &model).unwrap();
                let fresh = ChipEngine::new().evaluate_factored(&plan, &model).unwrap();
                assert_eq!(reused, fresh);
                reused
            })
            .collect();
        assert_eq!(engine.factorizations(), 2);
        assert_ne!(reports[0].delta_t, reports[1].delta_t);
    }

    #[test]
    fn model_errors_propagate() {
        struct Failing;
        impl ThermalModel for Failing {
            fn name(&self) -> String {
                "failing".into()
            }
            fn max_delta_t(&self, _: &Scenario) -> Result<TemperatureDelta, CoreError> {
                Err(CoreError::InvalidScenario {
                    reason: "synthetic failure".into(),
                })
            }
        }
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        assert!(ChipEngine::new().evaluate(&plan, &Failing).is_err());
    }
}
