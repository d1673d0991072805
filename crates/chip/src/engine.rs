//! Batched evaluation of a floorplan's distinct unit cells, with
//! cross-call result caching on two tiers.
//!
//! # The two cache tiers
//!
//! * **Scenario tier** — keyed on the full bit pattern of a tile's unit
//!   cell (floorplan geometry + via density + per-plane powers) plus the
//!   model's cache tag. A hit skips the model entirely: the tile's `ΔT`
//!   is read back from an earlier solve, in this call or any previous
//!   call on the same engine. This is what makes the serving loop cheap —
//!   after [`Floorplan::update_power_map`] only the tiles whose power
//!   bits actually changed miss the cache.
//! * **Matrix tier** (the factored path,
//!   [`ChipEngine::evaluate_factored`]) — keyed on the *geometry* bits
//!   only (powers excluded). For a [`PowerSeparableModel`] such as
//!   [`ModelB`](ttsv_core::model_b::ModelB), tiles that differ only in
//!   power share one factorization, and each distinct power vector costs
//!   one evaluation against it instead of an assembly + factorization.
//!   An all-distinct power map (the worst case for the scenario tier)
//!   collapses onto one factorization per distinct via density. For
//!   Model B the cached entry is only the
//!   [`ModelBFactorization`](ttsv_core::model_b::ModelBFactorization)
//!   hotspot kernel — the unit responses of the nodes that can be
//!   hottest, ≈ 50 KB at the serving `B(1000)` geometry — and a tile
//!   costs a few hundred nanoseconds; the ladder's LU factors and full
//!   response basis are dropped once the kernel is built. Distinct
//!   geometries factor on the worker pool; the tiles are then evaluated
//!   in one loop on the calling thread.
//!
//! [`ChipEngine::evaluate_live`] runs the factored evaluation once and
//! returns a [`LiveChip`]; its sparse updates send only the changed
//! tiles through both tiers, so a serving update never re-keys the
//! whole chip.
//!
//! Both tiers are transparent: for deterministic models every cached
//! value is bit-identical to a fresh solve (the property suites compare
//! the paths bitwise), so caching changes cost, never results. The
//! [`ChipEngine::solves`] / [`ChipEngine::factorizations`] counters make
//! the cost observable — the serving tests assert that a power delta
//! re-solves exactly the changed tiles.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ttsv_core::scenario::{PowerSeparableModel, Scenario, ThermalModel};
use ttsv_core::CoreError;
use ttsv_validate::pool::scoped_batch;
use ttsv_validate::sweep::default_workers;

use crate::floorplan::{CellKey, Floorplan};
use crate::live::{key_hash, CellCounts, LiveChip};
use crate::report::ChipReport;

/// A cross-call cache key: the model's cache tag (interned per call)
/// plus the exact bit pattern of everything that determines the cached
/// value. Hashing covers only the bit payload — the tag still takes part
/// in equality (hash collisions across models just share a bucket), so
/// the per-tile hot path never re-hashes the tag string.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EngineKey {
    tag: Arc<str>,
    bits: Vec<u64>,
}

impl std::hash::Hash for EngineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &b in &self.bits {
            state.write_u64(b);
        }
    }
}

/// A Fowler–Noll–Vo-style word hasher for the engine's key maps: the
/// keys are short arrays of already-well-mixed `f64` bit patterns, so a
/// multiply-xor word hash beats the DoS-resistant SipHash default by a
/// wide margin on the per-tile hot path (keys are exact — the hash only
/// picks buckets, equality still compares every bit).
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
        }
        for &b in chunks.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(u64::from(b));
    }

    fn finish(&self) -> u64 {
        // Final avalanche so sequential bit patterns spread across
        // buckets.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The engine's persistent caches (behind one mutex — all bookkeeping
/// happens on the coordinating thread, workers only solve).
#[derive(Default)]
struct EngineCaches {
    /// Scenario tier: full unit-cell bits → `ΔT` in kelvin.
    scenario: KeyMap<EngineKey, f64>,
    /// Matrix tier: geometry bits → type-erased model factorization.
    matrix: KeyMap<EngineKey, Arc<dyn Any + Send + Sync>>,
}

/// Evaluates a [`Floorplan`] through any [`ThermalModel`]: deduplicates
/// identical tiles with a scenario-hash cache (persistent across calls),
/// batch-solves the distinct unit cells on the bounded self-scheduling
/// worker pool, and scatters the results back into a full-chip
/// [`ChipReport`]. [`ChipEngine::evaluate_factored`] adds the matrix
/// tier for power-separable models, factoring each distinct geometry on
/// the pool and evaluating the tiles on the calling thread — see the
/// module docs for when each tier fires.
///
/// The worker count is a performance knob only: for deterministic models
/// the report is bit-identical for every setting, and bit-identical to
/// solving each tile on its own (the property suite enforces both).
///
/// Cloning an engine starts with cold caches and zeroed counters.
#[derive(Debug)]
pub struct ChipEngine {
    workers: Option<usize>,
    scenario_cache_cap: usize,
    matrix_cache_cap: usize,
    caches: Mutex<EngineCaches>,
    solves: AtomicUsize,
    factorizations: AtomicUsize,
    scenario_hits: AtomicUsize,
    scenario_misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// Default bound on scenario-tier entries (~100 MB of keys at typical
/// floorplan key widths) — see [`ChipEngine::with_scenario_cache_cap`].
const DEFAULT_SCENARIO_CACHE_CAP: usize = 1 << 20;

/// Default bound on matrix-tier entries. Factorizations are orders of
/// magnitude heavier than scenario entries, and the tier is keyed on
/// geometry only, so thousands of distinct geometries already indicates a
/// pathological workload — see [`ChipEngine::with_matrix_cache_cap`].
const DEFAULT_MATRIX_CACHE_CAP: usize = 1 << 12;

impl std::fmt::Debug for EngineCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCaches")
            .field("scenario_entries", &self.scenario.len())
            .field("matrix_entries", &self.matrix.len())
            .finish()
    }
}

impl Clone for ChipEngine {
    fn clone(&self) -> Self {
        Self {
            workers: self.workers,
            scenario_cache_cap: self.scenario_cache_cap,
            matrix_cache_cap: self.matrix_cache_cap,
            caches: Mutex::new(EngineCaches::default()),
            solves: AtomicUsize::new(0),
            factorizations: AtomicUsize::new(0),
            scenario_hits: AtomicUsize::new(0),
            scenario_misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }
}

impl Default for ChipEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ChipEngine {
    /// An engine with cold caches and the default worker pool
    /// (`available_parallelism()`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: None,
            scenario_cache_cap: DEFAULT_SCENARIO_CACHE_CAP,
            matrix_cache_cap: DEFAULT_MATRIX_CACHE_CAP,
            caches: Mutex::new(EngineCaches::default()),
            solves: AtomicUsize::new(0),
            factorizations: AtomicUsize::new(0),
            scenario_hits: AtomicUsize::new(0),
            scenario_misses: AtomicUsize::new(0),
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

    /// Bounds the scenario-tier cache (default: 2²⁰ entries). A serving
    /// loop that streams continuously varying power maps would otherwise
    /// accumulate one permanent entry per distinct tile bit-pattern; when
    /// an evaluation would push the tier past the cap, the tier is
    /// cleared first (generational eviction — the current working set
    /// repopulates it, and eviction only costs re-solves, never
    /// correctness). Evicted entries count into [`ChipEngine::evictions`].
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_scenario_cache_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "the scenario cache cap must be positive");
        self.scenario_cache_cap = cap;
        self
    }

    /// Bounds the matrix (factorization) tier the same generational way
    /// (default: 2¹² entries). Factorizations dominate the engine's
    /// resident memory, so a serving layer bounds this tier to its
    /// session quota budget. Evicted factorizations count into
    /// [`ChipEngine::evictions`].
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

    /// Inserts this evaluation's keys, keeping the tier within
    /// [`ChipEngine::with_scenario_cache_cap`]: a working set larger
    /// than the cap is not cached at all, and one that no longer fits
    /// beside the existing entries clears the tier first (`new_entries`
    /// counts this call's cache misses, so steady-state hits don't get
    /// double-counted into spurious clears).
    fn cache_scenarios(
        &self,
        distinct: Vec<((usize, usize), EngineKey)>,
        cell_delta_t: &[f64],
        new_entries: usize,
    ) {
        if distinct.len() > self.scenario_cache_cap {
            return;
        }
        let mut caches = self.caches.lock().expect("engine cache lock");
        if caches.scenario.len() + new_entries > self.scenario_cache_cap {
            self.evictions
                .fetch_add(caches.scenario.len(), Ordering::Relaxed);
            caches.scenario.clear();
        }
        caches.scenario.reserve(distinct.len());
        for (i, (_, key)) in distinct.into_iter().enumerate() {
            caches.scenario.insert(key, cell_delta_t[i]);
        }
    }

    /// Model solves this engine has actually performed (cache misses),
    /// cumulative across calls. A repeat evaluation of an unchanged plan
    /// adds zero; a power-delta update adds exactly the changed tiles.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Matrix factorizations performed by the factored path, cumulative
    /// across calls.
    #[must_use]
    pub fn factorizations(&self) -> usize {
        self.factorizations.load(Ordering::Relaxed)
    }

    /// Scenario-tier cache hits (distinct cells whose `ΔT` was read back
    /// from an earlier solve), cumulative across calls.
    #[must_use]
    pub fn scenario_hits(&self) -> usize {
        self.scenario_hits.load(Ordering::Relaxed)
    }

    /// Scenario-tier cache misses (distinct cells sent to the model),
    /// cumulative across calls.
    #[must_use]
    pub fn scenario_misses(&self) -> usize {
        self.scenario_misses.load(Ordering::Relaxed)
    }

    /// Entries evicted from either cache tier by the generational caps,
    /// cumulative across calls. Eviction never changes results — evicted
    /// work just re-solves on the next touch (property-tested).
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current live entry counts, `(scenario tier, matrix tier)` — the
    /// serving layer's memory observability hook.
    ///
    /// # Panics
    ///
    /// Panics if the internal cache lock is poisoned.
    #[must_use]
    pub fn cache_entries(&self) -> (usize, usize) {
        let caches = self.caches.lock().expect("engine cache lock");
        (caches.scenario.len(), caches.matrix.len())
    }

    /// Gathers the distinct unit cells among `tiles` (row-major indices):
    /// per tile the index into the distinct list, each distinct cell's
    /// representative tile and full cache key, and the cell-key →
    /// distinct-index map.
    fn distinct_cells(
        &self,
        plan: &Floorplan,
        tag: &Arc<str>,
        tiles: impl ExactSizeIterator<Item = usize>,
    ) -> DistinctCells {
        let nx = plan.nx();
        let geometry = plan.geometry_bits();
        let engine_key = |key: &CellKey| {
            let mut bits = Vec::with_capacity(geometry.len() + key.bits().len());
            bits.extend_from_slice(&geometry);
            bits.extend_from_slice(key.bits());
            EngineKey {
                tag: tag.clone(),
                bits,
            }
        };
        let mut out = DistinctCells {
            cell_of: Vec::with_capacity(tiles.len()),
            cells: Vec::new(),
            seen: KeyMap::default(),
        };
        out.seen.reserve(tiles.len());
        for t in tiles {
            let (ix, iy) = (t % nx, t / nx);
            let index = match out.seen.entry(plan.cell_key(ix, iy)) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let index = out.cells.len();
                    out.cells.push(((ix, iy), engine_key(entry.key())));
                    entry.insert(index);
                    index
                }
            };
            out.cell_of.push(index);
        }
        out
    }

    /// The scenario-tier pass: each distinct cell's cached `ΔT` (`NaN`
    /// where the tier misses) plus the indices still to solve.
    fn lookup_scenarios(&self, cells: &[((usize, usize), EngineKey)]) -> (Vec<f64>, Vec<usize>) {
        let mut cell_delta_t = vec![f64::NAN; cells.len()];
        let mut misses: Vec<usize> = Vec::new();
        {
            // Only cache lookups run under the lock; scenario and
            // matrix-key construction happen after it drops, so
            // concurrent evaluations on a shared engine don't serialize.
            let caches = self.caches.lock().expect("engine cache lock");
            for (i, (_, key)) in cells.iter().enumerate() {
                match caches.scenario.get(key) {
                    Some(&dt) => cell_delta_t[i] = dt,
                    None => misses.push(i),
                }
            }
        }
        self.scenario_hits
            .fetch_add(cells.len() - misses.len(), Ordering::Relaxed);
        self.scenario_misses
            .fetch_add(misses.len(), Ordering::Relaxed);
        (cell_delta_t, misses)
    }

    /// Evaluates every tile's unit cell and assembles the chip `ΔT` map,
    /// using the scenario-tier cache across calls.
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
        let tag: Arc<str> = Arc::from(model.cache_tag());
        let distinct = self.distinct_cells(plan, &tag, 0..plan.tiles());
        let distinct_count = distinct.cells.len();
        let (mut cell_delta_t, misses) = self.lookup_scenarios(&distinct.cells);
        let mut to_solve: Vec<(usize, Scenario)> = Vec::with_capacity(misses.len());
        for i in misses {
            let (ix, iy) = distinct.cells[i].0;
            to_solve.push((i, plan.tile_cell(ix, iy)?.scenario));
        }

        let workers = self.workers.unwrap_or_else(default_workers);
        let solved = scoped_batch(to_solve.len(), workers, |k| {
            model.max_delta_t(&to_solve[k].1).map(|t| t.as_kelvin())
        })?;
        self.solves.fetch_add(to_solve.len(), Ordering::Relaxed);
        for ((i, _), dt) in to_solve.iter().zip(&solved) {
            cell_delta_t[*i] = *dt;
        }

        // One pass moves every key into the cache (re-inserting a hit
        // rewrites the same value — harmless and branch-free).
        self.cache_scenarios(distinct.cells, &cell_delta_t, solved.len());
        Ok(assemble(
            plan,
            model.name(),
            &distinct.cell_of,
            &cell_delta_t,
            distinct_count,
        ))
    }

    /// Like [`ChipEngine::evaluate`], but for [`PowerSeparableModel`]s:
    /// distinct cells that miss the scenario tier are solved through the
    /// matrix tier — one factorization per distinct geometry (via
    /// density), one kernel evaluation per distinct power vector — and no
    /// full [`Scenario`] is even built for tiles whose matrix is already
    /// cached. Results are bit-identical to [`ChipEngine::evaluate`] on
    /// the model's default solver path (property-tested).
    ///
    /// # Errors
    ///
    /// Propagates tile validation/factorization failures and the first
    /// (by distinct-cell order) model error.
    pub fn evaluate_factored<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
    ) -> Result<ChipReport, CoreError> {
        let tag: Arc<str> = Arc::from(model.cache_tag());
        let distinct = self.distinct_cells(plan, &tag, 0..plan.tiles());
        let distinct_count = distinct.cells.len();
        let cell_delta_t = self.solve_factored(plan, model, &tag, distinct.cells)?;
        Ok(assemble(
            plan,
            model.name(),
            &distinct.cell_of,
            &cell_delta_t,
            distinct_count,
        ))
    }

    /// [`ChipEngine::evaluate_factored`], keeping what a later sparse
    /// power update needs to patch the report in place: see
    /// [`LiveChip`]. The report is the one `evaluate_factored` returns.
    /// The per-key tile counts are built, and the transient key map
    /// dropped, before any solve allocates.
    ///
    /// # Errors
    ///
    /// As [`ChipEngine::evaluate_factored`].
    pub fn evaluate_live<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
    ) -> Result<LiveChip, CoreError> {
        let tag: Arc<str> = Arc::from(model.cache_tag());
        let DistinctCells {
            cell_of,
            cells,
            seen,
        } = self.distinct_cells(plan, &tag, 0..plan.tiles());
        let key_counts = CellCounts::new(&cell_of, seen, key_hash);
        let distinct_count = cells.len();
        let cell_delta_t = self.solve_factored(plan, model, &tag, cells)?;
        let report = assemble(plan, model.name(), &cell_of, &cell_delta_t, distinct_count);
        Ok(LiveChip::new(report, key_counts))
    }

    /// Re-solves the unit cells of `tiles` (row-major indices) through
    /// both cache tiers, deduplicated like a full evaluation, returning
    /// each tile's `ΔT` — the k-tile solve behind
    /// [`LiveChip::apply`].
    pub(crate) fn solve_tiles<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
        tiles: &[usize],
    ) -> Result<Vec<f64>, CoreError> {
        let tag: Arc<str> = Arc::from(model.cache_tag());
        let distinct = self.distinct_cells(plan, &tag, tiles.iter().copied());
        let cell_delta_t = self.solve_factored(plan, model, &tag, distinct.cells)?;
        Ok(distinct.cell_of.iter().map(|&i| cell_delta_t[i]).collect())
    }

    /// The factored pipeline over a set of distinct cells: scenario tier,
    /// then the matrix tier for the misses, then one
    /// [`PowerSeparableModel::solve_with_powers`] per miss, publishing the
    /// new scenario entries. Returns each distinct cell's `ΔT`.
    fn solve_factored<M: PowerSeparableModel + Sync>(
        &self,
        plan: &Floorplan,
        model: &M,
        tag: &Arc<str>,
        cells: Vec<((usize, usize), EngineKey)>,
    ) -> Result<Vec<f64>, CoreError> {
        let geometry = plan.geometry_bits();
        let workers = self.workers.unwrap_or_else(default_workers);
        let (mut cell_delta_t, misses) = self.lookup_scenarios(&cells);
        let mut to_solve: Vec<(usize, (usize, usize))> = Vec::with_capacity(misses.len());
        let mut matrix_keys: Vec<EngineKey> = Vec::new();
        let mut matrix_index: KeyMap<EngineKey, usize> = KeyMap::default();
        let mut matrix_of: Vec<usize> = Vec::new();
        let mut matrix_rep: Vec<(usize, usize)> = Vec::new();
        for i in misses {
            let (ix, iy) = cells[i].0;
            let mut bits = geometry.clone();
            bits.push(plan.matrix_bits(ix, iy));
            let mkey = EngineKey {
                tag: tag.clone(),
                bits,
            };
            let mi = match matrix_index.entry(mkey) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let mi = matrix_keys.len();
                    matrix_keys.push(entry.key().clone());
                    matrix_rep.push((ix, iy));
                    entry.insert(mi);
                    mi
                }
            };
            matrix_of.push(mi);
            to_solve.push((i, (ix, iy)));
        }

        // Matrix tier: factorize every distinct geometry not already
        // cached (in parallel), then publish the new factorizations.
        let mut factorizations: Vec<Option<Arc<M::Factorization>>> = vec![None; matrix_keys.len()];
        let mut missing: Vec<usize> = Vec::new();
        {
            let caches = self.caches.lock().expect("engine cache lock");
            for (mi, mkey) in matrix_keys.iter().enumerate() {
                let cached = caches.matrix.get(mkey);
                match cached.and_then(|any| any.clone().downcast::<M::Factorization>().ok()) {
                    Some(fact) => factorizations[mi] = Some(fact),
                    None => missing.push(mi),
                }
            }
        }
        let built = scoped_batch(missing.len(), workers, |k| {
            let (ix, iy) = matrix_rep[missing[k]];
            let cell = plan.tile_cell(ix, iy)?;
            model.factorize_geometry(&cell.scenario).map(Arc::new)
        })?;
        self.factorizations
            .fetch_add(missing.len(), Ordering::Relaxed);
        {
            let mut caches = self.caches.lock().expect("engine cache lock");
            // Same generational bound as the scenario tier: a working set
            // past the cap is not cached; one that no longer fits beside
            // the existing entries clears the tier (counted as evictions).
            let cache_matrices = missing.len() <= self.matrix_cache_cap;
            if cache_matrices && caches.matrix.len() + missing.len() > self.matrix_cache_cap {
                self.evictions
                    .fetch_add(caches.matrix.len(), Ordering::Relaxed);
                caches.matrix.clear();
            }
            for (mi, fact) in missing.iter().zip(built) {
                if cache_matrices {
                    caches.matrix.insert(matrix_keys[*mi].clone(), fact.clone());
                }
                factorizations[*mi] = Some(fact);
            }
        }

        // One kernel evaluation per distinct power vector, in cell order
        // on the calling thread: at a few hundred nanoseconds a tile,
        // handing tiles to workers would cost more than it saves.
        for (&(i, (ix, iy)), &mi) in to_solve.iter().zip(&matrix_of) {
            let fact = factorizations[mi]
                .as_ref()
                .expect("every needed matrix was factorized");
            let powers = plan.tile_cell_powers(ix, iy);
            cell_delta_t[i] = model.solve_with_powers(fact, &powers)?.as_kelvin();
        }
        self.solves.fetch_add(to_solve.len(), Ordering::Relaxed);

        // One pass moves every key into the scenario cache.
        self.cache_scenarios(cells, &cell_delta_t, to_solve.len());
        Ok(cell_delta_t)
    }
}

/// The distinct unit cells among a set of tiles (see
/// [`ChipEngine::distinct_cells`]).
struct DistinctCells {
    /// Per input tile, its index into `cells`.
    cell_of: Vec<usize>,
    /// Per distinct cell: a representative tile `(ix, iy)` and its cache
    /// key.
    cells: Vec<((usize, usize), EngineKey)>,
    /// Each distinct cell key → its index in `cells`.
    seen: KeyMap<CellKey, usize>,
}

/// Scatters per-distinct-cell results back onto the tiles and builds the
/// chip report.
fn assemble(
    plan: &Floorplan,
    model: String,
    cell_of: &[usize],
    cell_delta_t: &[f64],
    distinct_cells: usize,
) -> ChipReport {
    let delta_t: Vec<f64> = cell_of.iter().map(|&i| cell_delta_t[i]).collect();
    ChipReport::from_tiles(
        model,
        plan.nx(),
        plan.ny(),
        delta_t,
        distinct_cells,
        plan.via_count(),
    )
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
        // Re-evaluating the same plan is a pure cache hit.
        let again = engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(engine.solves(), 1);
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
        let report = ChipEngine::new().evaluate(&plan, &model_a()).unwrap();
        assert_eq!(report.distinct_cells, 2);
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
        assert_eq!(factored.distinct_cells, 3);
        assert_eq!(engine.factorizations(), 1);
        assert_eq!(engine.solves(), 3);
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
        engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(engine.solves(), 1); // uniform → one distinct cell
        assert_eq!(engine.factorizations(), 1);

        // Double one tile's power on the top plane: 2 distinct cells now,
        // one of them already cached.
        let mut tiles: Vec<Power> = plan.plane_maps()[2].tiles().to_vec();
        tiles[5] = tiles[5] * 2.0;
        plan.update_power_map(2, PowerMap::new(4, 4, tiles).unwrap())
            .unwrap();
        let report = engine.evaluate_factored(&plan, &model).unwrap();
        assert_eq!(report.distinct_cells, 2);
        assert_eq!(engine.solves(), 2, "only the changed tile re-solves");
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
    fn scenario_cache_is_bounded_by_generational_eviction() {
        // Two successive single-cell evaluations under a cap of 1: the
        // second insert clears the first generation, so the tier never
        // exceeds the bound — and correctness is untouched (the evicted
        // tile just re-solves).
        let cs = CaseStudy::paper();
        let plan_a = Floorplan::uniform(&cs, 2, 2).unwrap();
        let mut cs_b = cs.clone();
        cs_b.plane_powers[0] = cs.plane_powers[0] * 2.0;
        let plan_b = Floorplan::uniform(&cs_b, 2, 2).unwrap();
        let engine = ChipEngine::new().with_scenario_cache_cap(1);
        let first = engine.evaluate(&plan_a, &model_a()).unwrap();
        engine.evaluate(&plan_b, &model_a()).unwrap();
        assert_eq!(engine.solves(), 2);
        assert_eq!(engine.evictions(), 1, "plan_a's entry was evicted");
        // plan_a was evicted: evaluating it again re-solves (cache still
        // bounded), bit-identically.
        let again = engine.evaluate(&plan_a, &model_a()).unwrap();
        assert_eq!(engine.solves(), 3);
        assert_eq!(first.delta_t, again.delta_t);
        assert!(engine.cache_entries().0 <= 1, "tier stays within its cap");
    }

    #[test]
    fn hit_and_miss_counters_track_the_scenario_tier() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 4, 4).unwrap();
        let engine = ChipEngine::new();
        engine.evaluate(&plan, &model_a()).unwrap();
        // 16 tiles dedup to 1 distinct cell: 1 miss, 0 hits.
        assert_eq!(engine.scenario_misses(), 1);
        assert_eq!(engine.scenario_hits(), 0);
        engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(engine.scenario_misses(), 1);
        assert_eq!(engine.scenario_hits(), 1);
        assert_eq!(engine.evictions(), 0);
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
        engine.evaluate_factored(&plan_a, &model).unwrap();
        engine.evaluate_factored(&plan_b, &model).unwrap();
        assert_eq!(engine.factorizations(), 2);
        assert_eq!(engine.evictions(), 1, "plan_a's matrix was evicted");
        // Force a re-factorization of plan_a by changing its power bits
        // (a pure scenario-tier hit would never touch the matrix tier).
        let mut plan_a2 = plan_a;
        let tiles: Vec<Power> = plan_a2.plane_maps()[0]
            .tiles()
            .iter()
            .map(|p| *p * 1.5)
            .collect();
        plan_a2
            .update_power_map(0, PowerMap::new(2, 1, tiles).unwrap())
            .unwrap();
        let refac = engine.evaluate_factored(&plan_a2, &model).unwrap();
        assert_eq!(engine.factorizations(), 3, "evicted matrix re-factorizes");
        // Same geometry solved through a fresh engine agrees bitwise.
        let fresh = ChipEngine::new()
            .evaluate_factored(&plan_a2, &model)
            .unwrap();
        assert_eq!(refac.delta_t, fresh.delta_t);
        assert!(engine.cache_entries().1 <= 1, "matrix tier stays bounded");
    }

    #[test]
    fn cloned_engines_start_cold() {
        let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
        let engine = ChipEngine::new();
        engine.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(engine.solves(), 1);
        let fresh = engine.clone();
        assert_eq!(fresh.solves(), 0);
        fresh.evaluate(&plan, &model_a()).unwrap();
        assert_eq!(fresh.solves(), 1);
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
