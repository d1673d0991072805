//! Evaluation of a floorplan's tiles, with one cross-call cache: the
//! matrix tier.
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
//!   density) is factorized once, into the ladder's hotspot kernel
//!   ([`LadderKernel`](ttsv_core::ladder::LadderKernel): the unit
//!   responses of the nodes that can be hottest, ≈ 50 KB at the serving
//!   `B(1000)` geometry). Kernels persist across calls in the
//!   **matrix tier**, keyed on the geometry bits and bounded by
//!   [`ChipEngine::with_matrix_cache_cap`]. Every tile then costs one
//!   kernel call (0.08–0.33 µs) on the calling thread — no dedup, since
//!   hashing a tile's key costs about as much as evaluating it.
//!
//! [`ChipEngine::evaluate_live`] runs the factored evaluation once and
//! returns a [`LiveChip`]; its sparse updates evaluate only the changed
//! tiles, so a serving update costs what it changes.
//!
//! The matrix tier is transparent: for deterministic models a cached
//! kernel gives the bits a fresh factorization would (the property suites
//! compare the paths bitwise), so caching changes cost, never results.
//! [`ChipEngine::factorizations`] and [`ChipEngine::solves`] make the
//! cost observable — the serving tests assert that a power update
//! factorizes nothing and re-solves exactly the changed tiles.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ttsv_core::batch::{default_workers, scoped_batch};
use ttsv_core::scenario::{PowerSeparableModel, ThermalModel};
use ttsv_core::CoreError;

use crate::floorplan::{CellKey, Floorplan};
use crate::live::LiveChip;
use crate::report::ChipReport;

/// A matrix-tier key: the model's cache tag plus the exact bit pattern
/// of the plan geometry and one via density.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MatrixKey {
    tag: Arc<str>,
    bits: Vec<u64>,
}

/// The matrix tier: geometry → type-erased model factorization.
type MatrixTier = HashMap<MatrixKey, Arc<dyn Any + Send + Sync>>;

/// Evaluates a [`Floorplan`] through any [`ThermalModel`] and scatters
/// the results into a full-chip [`ChipReport`]: the generic path
/// deduplicates identical tiles within the call and batch-solves them on
/// the bounded self-scheduling worker pool;
/// [`ChipEngine::evaluate_factored`] adds the cross-call matrix tier for
/// power-separable models — see the module docs.
///
/// The worker count is a performance knob only: for deterministic models
/// the report is bit-identical for every setting, and bit-identical to
/// solving each tile on its own (the property suite enforces both).
///
/// Cloning an engine starts with a cold matrix tier and zeroed counters.
#[derive(Debug)]
pub struct ChipEngine {
    workers: Option<usize>,
    matrix_cache_cap: usize,
    matrices: Mutex<MatrixTier>,
    solves: AtomicUsize,
    factorizations: AtomicUsize,
    matrix_hits: AtomicUsize,
    matrix_misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// Default bound on matrix-tier entries. The tier is keyed on geometry
/// only, so thousands of distinct geometries already indicates a
/// pathological workload — see [`ChipEngine::with_matrix_cache_cap`].
const DEFAULT_MATRIX_CACHE_CAP: usize = 1 << 12;

impl Clone for ChipEngine {
    fn clone(&self) -> Self {
        Self {
            workers: self.workers,
            matrix_cache_cap: self.matrix_cache_cap,
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
    /// An engine with a cold matrix tier and the default worker pool
    /// (`available_parallelism()`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: None,
            matrix_cache_cap: DEFAULT_MATRIX_CACHE_CAP,
            matrices: Mutex::new(MatrixTier::new()),
            solves: AtomicUsize::new(0),
            factorizations: AtomicUsize::new(0),
            matrix_hits: AtomicUsize::new(0),
            matrix_misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
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

    /// Bounds the matrix tier (default: 2¹² entries). Kernels dominate
    /// the engine's resident memory, so a serving layer bounds this tier
    /// to its session quota budget. When one evaluation's new kernels
    /// would push the tier past the cap, the tier is cleared first
    /// (generational eviction, counted into [`ChipEngine::evictions`]);
    /// an evaluation that needs more new kernels than the cap caches none
    /// of them.
    ///
    /// A plan with more distinct via densities than the cap is therefore
    /// never held whole: its full evaluation caches nothing, and each
    /// [`LiveChip::apply`] factorizes the densities among its changed
    /// tiles that the tier does not hold. Results never change — only
    /// [`ChipEngine::factorizations`] grows (tested bitwise against a
    /// fresh evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_matrix_cache_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "the matrix cache cap must be positive");
        self.matrix_cache_cap = cap;
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

    /// Kernel factorizations performed by the factored paths (matrix-tier
    /// misses), cumulative across calls.
    #[must_use]
    pub fn factorizations(&self) -> usize {
        self.factorizations.load(Ordering::Relaxed)
    }

    /// Matrix-tier hits: one per distinct geometry a factored evaluation
    /// or update needs whose kernel was already cached, cumulative. The
    /// name predates the matrix tier's being the only cache; it is kept
    /// for the external serving benchmark.
    #[must_use]
    pub fn scenario_hits(&self) -> usize {
        self.matrix_hits.load(Ordering::Relaxed)
    }

    /// Matrix-tier misses: one per distinct geometry a factored
    /// evaluation or update needs whose kernel had to be factorized,
    /// cumulative. Named like [`ChipEngine::scenario_hits`], for the same
    /// reason.
    #[must_use]
    pub fn scenario_misses(&self) -> usize {
        self.matrix_misses.load(Ordering::Relaxed)
    }

    /// Kernels evicted from the matrix tier by its generational cap,
    /// cumulative across calls. Eviction never changes results — an
    /// evicted kernel is factorized again on its next use
    /// (property-tested).
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Kernels currently held by the matrix tier — the serving layer's
    /// memory observability hook.
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.matrices().len()
    }

    /// The matrix tier, locked. Only lookups and inserts run under the
    /// lock, so concurrent evaluations on a shared engine don't
    /// serialize; a poisoned lock is recovered, as every critical section
    /// leaves the map consistent.
    fn matrices(&self) -> MutexGuard<'_, MatrixTier> {
        self.matrices
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
        let geometries: HashSet<u64> = cells.iter().map(|&t| plan.matrix_bits(t)).collect();
        Ok(ChipReport::from_tiles(
            model.name(),
            nx,
            plan.ny(),
            cell_of.iter().map(|&i| solved[i]).collect(),
            geometries.len(),
            plan.via_count(),
        ))
    }

    /// Like [`ChipEngine::evaluate`], but for [`PowerSeparableModel`]s:
    /// one kernel per distinct geometry (via density), from the matrix
    /// tier or factorized on the worker pool, then one kernel call per
    /// tile. No full [`Scenario`](ttsv_core::scenario::Scenario) is built
    /// for a tile whose kernel is cached. Results are bit-identical to
    /// [`ChipEngine::evaluate`] on the model's default solver path
    /// (property-tested).
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
        let (delta_t, geometries) = self.kernel_pass(plan, model, 0..plan.tiles())?;
        Ok(ChipReport::from_tiles(
            model.name(),
            plan.nx(),
            plan.ny(),
            delta_t,
            geometries,
            plan.via_count(),
        ))
    }

    /// [`ChipEngine::evaluate_factored`], held as a [`LiveChip`] that
    /// later sparse power updates patch in place.
    ///
    /// # Errors
    ///
    /// As [`ChipEngine::evaluate_factored`].
    pub fn evaluate_live<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
    ) -> Result<LiveChip, CoreError> {
        self.evaluate_factored(plan, model).map(LiveChip::new)
    }

    /// Evaluates `tiles` (row-major indices) through the matrix tier,
    /// returning each tile's `ΔT` — the k-tile solve behind
    /// [`LiveChip::apply`], counted into [`ChipEngine::solves`].
    pub(crate) fn solve_tiles<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
        tiles: &[usize],
    ) -> Result<Vec<f64>, CoreError> {
        let (delta_t, _) = self.kernel_pass(plan, model, tiles.iter().copied())?;
        self.solves.fetch_add(tiles.len(), Ordering::Relaxed);
        Ok(delta_t)
    }

    /// The factored pipeline over `tiles`: group them by via density,
    /// fetch each group's kernel from the matrix tier or factorize it
    /// (in parallel, publishing the new kernels within the cap), then
    /// call the kernel once per tile, in tile order on the calling
    /// thread — at a few hundred nanoseconds a tile, handing tiles to
    /// workers would cost more than it saves. Returns each tile's `ΔT`
    /// and the number of distinct geometries among the tiles.
    fn kernel_pass<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
        tiles: impl Iterator<Item = usize> + Clone,
    ) -> Result<(Vec<f64>, usize), CoreError> {
        let nx = plan.nx();
        // Per tile its geometry index; per geometry a representative tile.
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut reps: Vec<usize> = Vec::new();
        let geometry_of: Vec<usize> = tiles
            .clone()
            .map(|t| {
                *index.entry(plan.matrix_bits(t)).or_insert_with(|| {
                    reps.push(t);
                    reps.len() - 1
                })
            })
            .collect();

        let tag: Arc<str> = Arc::from(model.cache_tag());
        let geometry = plan.geometry_bits();
        let keys: Vec<MatrixKey> = reps
            .iter()
            .map(|&t| {
                let mut bits = Vec::with_capacity(geometry.len() + 1);
                bits.extend_from_slice(&geometry);
                bits.push(plan.matrix_bits(t));
                MatrixKey {
                    tag: Arc::clone(&tag),
                    bits,
                }
            })
            .collect();
        let mut kernels: Vec<Option<Arc<M::Factorization>>> = {
            let tier = self.matrices();
            keys.iter()
                .map(|key| tier.get(key).and_then(|any| any.clone().downcast().ok()))
                .collect()
        };
        let missing: Vec<usize> = (0..keys.len()).filter(|&g| kernels[g].is_none()).collect();
        self.matrix_hits
            .fetch_add(keys.len() - missing.len(), Ordering::Relaxed);
        self.matrix_misses
            .fetch_add(missing.len(), Ordering::Relaxed);

        let workers = self.workers.unwrap_or_else(default_workers);
        let built = scoped_batch(missing.len(), workers, |k| {
            let t = reps[missing[k]];
            let cell = plan.tile_cell(t % nx, t / nx)?;
            model.factorize_geometry(&cell.scenario).map(Arc::new)
        })?;
        self.factorizations
            .fetch_add(missing.len(), Ordering::Relaxed);
        if !missing.is_empty() && missing.len() <= self.matrix_cache_cap {
            let mut tier = self.matrices();
            if tier.len() + missing.len() > self.matrix_cache_cap {
                self.evictions.fetch_add(tier.len(), Ordering::Relaxed);
                tier.clear();
            }
            for (&g, kernel) in missing.iter().zip(&built) {
                tier.insert(keys[g].clone(), kernel.clone());
            }
        }
        for (&g, kernel) in missing.iter().zip(built) {
            kernels[g] = Some(kernel);
        }

        let mut powers = Vec::with_capacity(plan.plane_count());
        let delta_t = tiles
            .zip(&geometry_of)
            .map(|(t, &g)| {
                let kernel = kernels[g]
                    .as_ref()
                    .expect("every kernel was fetched or built");
                plan.fill_tile_cell_powers(t, &mut powers);
                model
                    .solve_with_powers(kernel, &powers)
                    .map(|dt| dt.as_kelvin())
            })
            .collect::<Result<Vec<f64>, _>>()?;
        Ok((delta_t, reps.len()))
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
        let mut plan = Floorplan::uniform(&cs, 4, 4).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        let mut live = engine.evaluate_live(&plan, &model).unwrap();
        assert_eq!(engine.factorizations(), 1);

        // Double one tile's power on the top plane.
        let doubled = plan.plane_maps()[2].tiles()[5] * 2.0;
        live.apply(&engine, &mut plan, &model, 2, &[(5, doubled)])
            .unwrap();
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

    #[test]
    fn matrix_cache_is_bounded_and_eviction_preserves_results() {
        let cs = CaseStudy::paper();
        let model = ModelB::paper_b20();
        // Two distinct via densities → two distinct matrices, cap of 1:
        // the second factorization evicts the first.
        let plan_at = |density: f64| {
            let maps = (0..3)
                .map(|j| PowerMap::uniform(2, 1, cs.plane_powers[j] * 0.5).unwrap())
                .collect();
            let via = ViaDensityMap::uniform(2, 1, density).unwrap();
            Floorplan::new(&cs, maps, via).unwrap()
        };
        let (plan_a, plan_b) = (plan_at(0.005), plan_at(0.01));
        let engine = ChipEngine::new().with_matrix_cache_cap(1);
        let first = engine.evaluate_factored(&plan_a, &model).unwrap();
        engine.evaluate_factored(&plan_a, &model).unwrap();
        assert_eq!(engine.factorizations(), 1, "a repeat reuses the kernel");
        assert_eq!((engine.scenario_hits(), engine.scenario_misses()), (1, 1));
        engine.evaluate_factored(&plan_b, &model).unwrap();
        assert_eq!(engine.factorizations(), 2);
        assert_eq!(engine.evictions(), 1, "plan_a's matrix was evicted");
        let refac = engine.evaluate_factored(&plan_a, &model).unwrap();
        assert_eq!(engine.factorizations(), 3, "evicted matrix re-factorizes");
        assert_eq!((engine.scenario_hits(), engine.scenario_misses()), (1, 3));
        assert_eq!(refac.delta_t, first.delta_t);
        assert_eq!(engine.cache_entries(), 1, "matrix tier stays bounded");
    }

    #[test]
    fn cloned_engines_start_cold() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        let model = ModelB::paper_b20();
        let engine = ChipEngine::new();
        engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(engine.factorizations(), 1);
        let fresh = engine.clone();
        assert_eq!((fresh.factorizations(), fresh.cache_entries()), (0, 0));
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
                let shared = engine.evaluate_factored(&plan, &model).unwrap();
                let fresh = ChipEngine::new().evaluate_factored(&plan, &model).unwrap();
                assert_eq!(shared, fresh);
                shared
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
