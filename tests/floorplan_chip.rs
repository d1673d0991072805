//! Integration tests for the full-chip floorplan engine: a 32×32
//! non-uniform hotspot map through the batch engine with cell dedup, FEM
//! hierarchy reuse across cells, and the JSON report surface.

use ttsv::chip::{ChipEngine, Floorplan, PowerMap, ViaDensityMap};
use ttsv::core::full_chip::CaseStudy;
use ttsv::prelude::*;
// The 32×32 workloads (hotspot: 3 quantized power levels → 3 distinct
// unit cells over 1024 tiles; gradient: all-distinct powers) are shared
// with the `floorplan_chip` bench and `bench_json`.
use ttsv_bench::{gradient_floorplan, hotspot_floorplan};

#[test]
fn hotspot_32x32_dedups_to_far_fewer_cells_than_tiles() {
    let plan = hotspot_floorplan(32);
    let engine = ChipEngine::new();
    let report = engine.evaluate(&plan, &ModelB::paper_b100()).unwrap();
    assert_eq!(report.tiles, 1024);
    assert_eq!(report.delta_t.len(), 1024);
    // One via density: one geometry. The dedup counter: solves ≪
    // tiles (3 power levels → 3 solves).
    assert_eq!(report.distinct_cells, 1);
    assert_eq!(
        engine.solves(),
        3,
        "dedup must solve each distinct cell once"
    );
    assert!(
        engine.solves() * 100 <= report.tiles,
        "dedup must collapse the batch: {} solves for {} tiles",
        engine.solves(),
        report.tiles
    );
    // The hotspot is the argmax and visibly hotter than the background.
    assert!(
        (14..=17).contains(&report.argmax_ix),
        "{}",
        report.argmax_ix
    );
    assert!(
        (14..=17).contains(&report.argmax_iy),
        "{}",
        report.argmax_iy
    );
    assert!(report.max_delta_t > 2.0 * report.get(0, 0));
    assert!(report.mean_delta_t < report.max_delta_t);
    assert!(report.p99_delta_t <= report.max_delta_t);
    // Chip power is conserved by the tiling.
    let chip_total: f64 = plan.plane_totals().iter().map(|p| p.as_watts()).sum();
    assert!((chip_total - 84.0).abs() < 1e-9 * 84.0, "{chip_total}");
}

#[test]
fn gradient_32x32_factored_path_shares_one_factorization_bitwise() {
    // All 1024 tiles carry distinct powers at uniform via density: the
    // generic path's dedup can share nothing, but the factored path
    // collapses the whole chip onto ONE ladder factorization + 1024
    // hotspot-kernel evaluations — bit-identical to per-tile solves.
    let plan = gradient_floorplan(32);
    let model = ModelB::paper_b100();
    let engine = ChipEngine::new();
    let factored = engine.evaluate_factored(&plan, &model).unwrap();
    assert_eq!(factored.distinct_cells, 1);
    assert_eq!(engine.factorizations(), 1, "uniform density → one matrix");
    assert_eq!(engine.solves(), 0, "a full kernel pass counts no solves");
    let per_tile = ChipEngine::new().evaluate(&plan, &model).unwrap();
    assert_eq!(factored.delta_t, per_tile.delta_t);
    assert_eq!(
        factored.max_delta_t.to_bits(),
        per_tile.max_delta_t.to_bits()
    );
}

#[test]
fn serving_loop_re_solves_only_the_power_delta() {
    // The serving workload: evaluate once into a live chip, then update
    // one plane's power in a few tiles on the SAME engine — the update
    // must solve exactly the changed tiles against the cached kernel.
    let model = ModelB::paper_b100();
    let engine = ChipEngine::new();
    let mut live = engine
        .evaluate_live(gradient_floorplan(16), model.clone())
        .unwrap();
    let first = live.report().clone();
    assert_eq!(engine.factorizations(), 1);

    // Bump 5 tiles of the top plane by 10 %.
    let updates: Vec<(usize, Power)> = live.plan().plane_maps()[2].tiles()[..5]
        .iter()
        .enumerate()
        .map(|(t, &p)| (t, p * 1.1))
        .collect();
    let changed = live.apply(&engine, 2, &updates).unwrap();
    assert_eq!(changed, [0, 1, 2, 3, 4]);
    assert_eq!(
        engine.solves(),
        5,
        "exactly the five changed tiles re-solve"
    );
    assert_eq!(engine.factorizations(), 1, "geometry unchanged");
    // Unchanged tiles keep their exact values; changed tiles got hotter.
    let second = live.report();
    for i in 5..256 {
        assert_eq!(first.delta_t[i].to_bits(), second.delta_t[i].to_bits());
    }
    for i in 0..5 {
        assert!(second.delta_t[i] > first.delta_t[i]);
    }
    let fresh = ChipEngine::new()
        .evaluate_factored(live.plan(), &model)
        .unwrap();
    assert_eq!(second.to_json(), fresh.to_json());
}

#[test]
fn fem_reference_reuses_one_hierarchy_across_distinct_cells() {
    use ttsv::fem::FemSolver;

    // Two distinct power levels on a 3×3 grid; force the iterative
    // multigrid path (Auto picks direct banded on these meshes) and run
    // the batch on one worker: every distinct cell shares one mesh shape,
    // so aggregation must run exactly once — the same pooled-hierarchy
    // guarantee the 1-D sweeps have.
    let cs = CaseStudy::paper();
    let maps = cs
        .plane_powers
        .iter()
        .map(|&total| {
            PowerMap::from_fn(3, 3, |ix, iy| {
                let hot = if ix == 1 && iy == 1 { 4.0 } else { 1.0 };
                total * (hot / 12.0)
            })
            .unwrap()
        })
        .collect();
    let via = ViaDensityMap::uniform(3, 3, cs.density).unwrap();
    let plan = Floorplan::new(&cs, maps, via).unwrap();

    let fem = FemReference::new()
        .with_resolution(FemResolution::coarse())
        .with_solver(FemSolver::Multigrid);
    let engine = ChipEngine::new().with_workers(1);
    let report = engine.evaluate(&plan, &fem).unwrap();
    assert_eq!(report.distinct_cells, 1, "one via density");
    assert_eq!(engine.solves(), 2, "two power levels → two FEM solves");
    assert_eq!(
        fem.multigrid_builds(),
        1,
        "one mesh shape must aggregate exactly once across the chip"
    );
    assert!(report.get(1, 1) > report.get(0, 0));
}

#[test]
fn report_serializes_to_json_for_serving() {
    let plan = Floorplan::uniform(&CaseStudy::paper(), 2, 2).unwrap();
    let model = ModelA::with_coefficients(CaseStudy::paper_fitting());
    let report = ChipEngine::new().evaluate(&plan, &model).unwrap();
    let json = report.to_json();
    for field in [
        "\"model\":\"Model A\"",
        "\"nx\":2",
        "\"ny\":2",
        "\"delta_t\":[",
        "\"max_delta_t\":",
        "\"p99_delta_t\":",
        "\"argmax_ix\":",
        "\"total_vias\":",
        "\"distinct_cells\":1",
        "\"tiles\":4",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    // Balanced braces/brackets: the emitter produces well-formed JSON.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn non_uniform_via_density_shifts_the_hotspot() {
    // Uniform power, but the left half of the chip has 3× fewer vias:
    // the argmax must land in the sparse half.
    let cs = CaseStudy::paper();
    let n = 8;
    let maps = cs
        .plane_powers
        .iter()
        .map(|&total| PowerMap::uniform(n, n, total).unwrap())
        .collect();
    let via = ViaDensityMap::new(
        n,
        n,
        (0..n * n)
            .map(|i| if i % n < n / 2 { 0.002 } else { 0.006 })
            .collect(),
    )
    .unwrap();
    let plan = Floorplan::new(&cs, maps, via).unwrap();
    let report = ChipEngine::new()
        .evaluate(&plan, &ModelB::paper_b100())
        .unwrap();
    assert_eq!(report.distinct_cells, 2);
    assert!(report.argmax_ix < n / 2, "{}", report.argmax_ix);
    assert!(report.get(0, 0) > report.get(n - 1, 0));
}
