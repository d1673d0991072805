//! Property tests for the floorplan engine: power conservation under the
//! tiling, dedup transparency, and worker-count determinism of the
//! batch runner — randomized over grid shapes, plane counts, quantized
//! power levels, and via densities.

use std::collections::HashSet;

use proptest::prelude::*;
use ttsv_chip::{ChipEngine, Floorplan, PowerMap, ViaDensityMap};
use ttsv_core::full_chip::CaseStudy;
use ttsv_core::model_a::ModelA;
use ttsv_core::prelude::*;

/// A randomized floorplan description. Powers and densities are drawn
/// from small quantized level sets so the dedup has duplicates to find
/// (continuous draws would make every tile distinct).
#[derive(Debug, Clone)]
struct PlanParams {
    nx: usize,
    ny: usize,
    planes: usize,
    /// Per plane, per tile: index into `POWER_LEVELS` (`planes * nx * ny`).
    power_levels: Vec<usize>,
    /// Per tile: index into `DENSITY_LEVELS` (`nx * ny`).
    density_levels: Vec<usize>,
}

const POWER_LEVELS: [f64; 4] = [0.0, 0.05, 0.4, 1.6];
const DENSITY_LEVELS: [f64; 3] = [0.003, 0.005, 0.01];

fn plan_params() -> impl Strategy<Value = PlanParams> {
    (1usize..5, 1usize..5, 2usize..5).prop_flat_map(|(nx, ny, planes)| {
        (
            proptest::collection::vec(0usize..POWER_LEVELS.len(), planes * nx * ny),
            proptest::collection::vec(0usize..DENSITY_LEVELS.len(), nx * ny),
        )
            .prop_map(move |(power_levels, density_levels)| PlanParams {
                nx,
                ny,
                planes,
                power_levels,
                density_levels,
            })
    })
}

fn build(p: &PlanParams) -> Floorplan {
    let case = CaseStudy::paper();
    let tiles = p.nx * p.ny;
    let maps = (0..p.planes)
        .map(|j| {
            PowerMap::new(
                p.nx,
                p.ny,
                (0..tiles)
                    .map(|t| Power::from_watts(POWER_LEVELS[p.power_levels[j * tiles + t]]))
                    .collect(),
            )
            .expect("levels are finite and non-negative")
        })
        .collect();
    let via = ViaDensityMap::new(
        p.nx,
        p.ny,
        p.density_levels
            .iter()
            .map(|&i| DENSITY_LEVELS[i])
            .collect(),
    )
    .expect("levels are in (0, 1)");
    Floorplan::new(&case, maps, via).expect("strategy produces valid floorplans")
}

fn model() -> ModelA {
    ModelA::with_coefficients(CaseStudy::paper_fitting())
}

/// The body of `factored_batch_matches_per_tile_solves` for one model.
fn check_factored_matches_per_tile<M: PowerSeparableModel + Sync + Clone>(
    plan: &Floorplan,
    model: &M,
) -> Result<(), TestCaseError> {
    let per_tile = per_tile_delta_t(plan, model);
    let engine = ChipEngine::new();
    let factored = engine.evaluate_factored(plan, model).expect("solvable");
    prop_assert_eq!(factored.distinct_cells, distinct_densities(plan));
    for (ft, pt) in factored.delta_t.iter().zip(&per_tile) {
        prop_assert!(
            ft.to_bits() == pt.to_bits(),
            "{}: factored {ft} vs per-tile {pt}",
            model.name()
        );
        let rel = (ft - pt).abs() / pt.abs().max(f64::MIN_POSITIVE);
        prop_assert!(rel <= 1e-15);
    }
    // One factorization per distinct density; a full kernel pass counts
    // no solves.
    prop_assert_eq!(engine.factorizations(), distinct_densities(plan));
    prop_assert_eq!(engine.solves(), 0);
    // Each pass factorizes its own kernels, held by a live chip or not:
    // a live chip and a repeat cost k · distinct_densities factorizations
    // after k passes and give bitwise-equal maps.
    let live = engine.evaluate_live(plan.clone(), model).expect("solvable");
    prop_assert_eq!(engine.factorizations(), 2 * distinct_densities(plan));
    prop_assert_eq!(&live.report().delta_t, &factored.delta_t);
    let again = engine.evaluate_factored(plan, model).expect("solvable");
    prop_assert_eq!(engine.factorizations(), 3 * distinct_densities(plan));
    prop_assert_eq!(&again.delta_t, &factored.delta_t);
    prop_assert_eq!(engine.solves(), 0);
    Ok(())
}

/// Every tile's `ΔT` in kelvin, solved on its own unit cell (row-major) —
/// the reference the engine's dedup and factored path must reproduce
/// bitwise.
fn per_tile_delta_t(plan: &Floorplan, model: &dyn ThermalModel) -> Vec<f64> {
    let mut out = Vec::with_capacity(plan.tiles());
    for iy in 0..plan.ny() {
        for ix in 0..plan.nx() {
            let cell = plan.tile_cell(ix, iy).expect("valid tile");
            out.push(
                model
                    .max_delta_t(&cell.scenario)
                    .expect("solvable")
                    .as_kelvin(),
            );
        }
    }
    out
}

/// The exact number of distinct tiles: distinct bit patterns of (via
/// density, per-plane watts).
fn distinct_tiles(plan: &Floorplan) -> usize {
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    for iy in 0..plan.ny() {
        for ix in 0..plan.nx() {
            let mut bits = vec![plan.via_map().get(ix, iy).to_bits()];
            bits.extend(
                plan.plane_maps()
                    .iter()
                    .map(|m| m.get(ix, iy).as_watts().to_bits()),
            );
            seen.insert(bits);
        }
    }
    seen.len()
}

/// The exact number of distinct via densities (bit patterns).
fn distinct_densities(plan: &Floorplan) -> usize {
    let mut d: Vec<u64> = plan.via_map().tiles().iter().map(|v| v.to_bits()).collect();
    d.sort_unstable();
    d.dedup();
    d.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tiling conserves power: per plane, the per-cell powers summed
    /// over every cell of every tile reproduce the plane total to 1e-9
    /// relative.
    #[test]
    fn tiling_conserves_plane_power(p in plan_params()) {
        let plan = build(&p);
        let totals = plan.plane_totals();
        let mut recovered = vec![0.0f64; plan.plane_count()];
        for iy in 0..plan.ny() {
            for ix in 0..plan.nx() {
                let tile = plan.tile_cell(ix, iy).expect("valid tile");
                for (j, cell_power) in tile.scenario.plane_powers().iter().enumerate() {
                    recovered[j] += cell_power.as_watts() * tile.cells;
                }
            }
        }
        for (j, (got, want)) in recovered.iter().zip(&totals).enumerate() {
            let want = want.as_watts();
            let tolerance = 1e-9 * want.max(1e-12);
            prop_assert!(
                (got - want).abs() <= tolerance,
                "plane {j}: recovered {got} vs map total {want}"
            );
        }
    }

    /// The dedup is transparent: every tile's `ΔT` is bit-identical to
    /// solving that tile on its own, and the engine solves exactly the
    /// distinct tiles — no more, no fewer.
    #[test]
    fn dedup_is_bitwise_transparent(p in plan_params()) {
        let plan = build(&p);
        let model = model();
        let engine = ChipEngine::new();
        let cached = engine.evaluate(&plan, &model).expect("solvable");
        let reference = per_tile_delta_t(&plan, &model);
        for (t, (got, want)) in cached.delta_t.iter().zip(&reference).enumerate() {
            prop_assert!(got.to_bits() == want.to_bits(), "tile {t}: {got} vs {want}");
        }
        prop_assert_eq!(cached.distinct_cells, distinct_densities(&plan));
        prop_assert_eq!(engine.solves(), distinct_tiles(&plan));
    }

    /// The factor-once path is equivalent to per-tile solves, for both
    /// power-separable models: one factorization per distinct via
    /// density, one hotspot-kernel evaluation per tile — and the
    /// resulting map matches the assemble-factorize-solve-per-tile path
    /// bitwise (so trivially within the 1e-15 relative bound the serving
    /// contract promises).
    #[test]
    fn factored_batch_matches_per_tile_solves(p in plan_params()) {
        let plan = build(&p);
        check_factored_matches_per_tile(&plan, &ModelB::paper_b20())?;
        check_factored_matches_per_tile(&plan, &model())?;
    }

    /// The batch runner is deterministic in the worker count: 1, 2, and
    /// `available_parallelism()` workers produce bitwise-equal maps
    /// (mirrors the sweep-runner determinism test).
    #[test]
    fn worker_count_does_not_change_the_map(p in plan_params()) {
        let plan = build(&p);
        let model = model();
        let serial = ChipEngine::new()
            .with_workers(1)
            .evaluate(&plan, &model)
            .expect("solvable");
        let two = ChipEngine::new()
            .with_workers(2)
            .evaluate(&plan, &model)
            .expect("solvable");
        let pooled = ChipEngine::new().evaluate(&plan, &model).expect("solvable");
        prop_assert_eq!(&serial.delta_t, &two.delta_t);
        prop_assert_eq!(&serial.delta_t, &pooled.delta_t);
        prop_assert_eq!(serial.distinct_cells, pooled.distinct_cells);
    }
}
