//! Golden-value regression suite for the paper block.
//!
//! Every solver refactor lands under these pins: the exact `ΔT_max`
//! outputs of Model A / Model B / the 1-D baseline and the FEM reference
//! on the paper's Table I setup, the Fig. 4 radius-sweep endpoints, the
//! Fig. 5 liner-sweep endpoints, the Fig. 6 substrate-thinning sweep
//! (including the paper's ≈20 µm minimum), and the §IV-E case study.
//! The values were recorded from this repository's solvers (PR 3); they
//! are *repro* goldens, not the paper's COMSOL numbers — the paper's
//! digitized curves live in `ttsv_validate::paper_data` and are only ever
//! shape-checked.
//!
//! Tolerances: the analytical models are deterministic closed-form /
//! direct-solve pipelines, pinned to 1e-7 relative; the FEM reference is
//! pinned to 1e-5 relative so a kernel-level reordering (e.g. a
//! vectorized banded elimination) passes while any physics drift — a
//! changed conductance formula, a mesh change, a mis-wired boundary
//! condition — fails loudly.

use ttsv::prelude::*;

/// Relative tolerance for the closed-form / direct-ladder models.
const MODEL_RTOL: f64 = 1e-7;
/// Relative tolerance for the finite-volume reference.
const FEM_RTOL: f64 = 1e-5;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

#[track_caller]
fn assert_golden(label: &str, got: f64, want: f64, rtol: f64) {
    assert!(
        (got - want).abs() <= rtol * want.abs(),
        "golden drift in {label}: got {got:.12e}, pinned {want:.12e} \
         (rel err {:.3e}, tol {rtol:.1e})",
        (got - want).abs() / want.abs()
    );
}

/// The Fig. 4 scenario at radius `r` µm (aspect-ratio substrate switch at
/// r = 5 µm, as in the figure caption).
fn fig4_scenario(r: f64) -> Scenario {
    let t_si = if r <= 5.0 { 5.0 } else { 45.0 };
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(um(r), um(0.5)))
        .with_ild_thickness(um(4.0))
        .with_bond_thickness(um(1.0))
        .with_upper_si_thickness(um(t_si))
        .build()
        .expect("valid Fig. 4 scenario")
}

/// The Fig. 5 / Table I scenario at liner thickness `tl` µm.
fn fig5_scenario(tl: f64) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(um(5.0), um(tl)))
        .with_ild_thickness(um(7.0))
        .with_bond_thickness(um(1.0))
        .with_upper_si_thickness(um(45.0))
        .build()
        .expect("valid Fig. 5 scenario")
}

/// The Fig. 6 scenario at upper-substrate thickness `tsi` µm.
fn fig6_scenario(tsi: f64) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(um(8.0), um(1.0)))
        .with_ild_thickness(um(7.0))
        .with_bond_thickness(um(1.0))
        .with_upper_si_thickness(um(tsi))
        .build()
        .expect("valid Fig. 6 scenario")
}

fn fem_coarse() -> FemReference {
    FemReference::new().with_resolution(FemResolution::coarse())
}

#[test]
fn table1_model_b_segment_ladder_is_pinned() {
    // Table I: Model B at every segment count the paper reports, on the
    // Fig. 5 geometry at a 1 µm liner. The ladder must stay monotone
    // (more segments → lower, converging ΔT) *and* numerically pinned.
    let scenario = fig5_scenario(1.0);
    let golden: &[(&str, ModelB, f64)] = &[
        ("B(1)", ModelB::paper_b1(), 4.537074748366e1),
        ("B(20)", ModelB::paper_b20(), 4.116072285819e1),
        ("B(100)", ModelB::paper_b100(), 3.877603905853e1),
        ("B(500)", ModelB::paper_b500(), 3.834928816461e1),
        ("B(1000)", ModelB::paper_b1000(), 3.830970165891e1),
    ];
    let mut previous = f64::INFINITY;
    for (label, model, want) in golden {
        let got = model.max_delta_t(&scenario).unwrap().as_kelvin();
        assert_golden(&format!("table1 {label}"), got, *want, MODEL_RTOL);
        assert!(got < previous, "{label} must refine the coarser ladder");
        previous = got;
    }
}

#[test]
fn fig4_radius_sweep_endpoints_are_pinned() {
    let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
    let b100 = ModelB::paper_b100();
    let one_d = OneDModel::new();
    let fem = fem_coarse();
    // (radius, model A, model B(100), 1-D, FEM-coarse)
    let golden = [
        (
            1.0,
            3.370871527400e1,
            3.932233338861e1,
            4.428348449650e1,
            3.667812498159e1,
        ),
        (
            20.0,
            1.078621370322e1,
            1.375566816673e1,
            2.391621200329e1,
            1.439585335003e1,
        ),
    ];
    for (r, want_a, want_b, want_1d, want_fem) in golden {
        let s = fig4_scenario(r);
        assert_golden(
            &format!("fig4 r={r} Model A"),
            a.max_delta_t(&s).unwrap().as_kelvin(),
            want_a,
            MODEL_RTOL,
        );
        assert_golden(
            &format!("fig4 r={r} Model B(100)"),
            b100.max_delta_t(&s).unwrap().as_kelvin(),
            want_b,
            MODEL_RTOL,
        );
        assert_golden(
            &format!("fig4 r={r} 1-D"),
            one_d.max_delta_t(&s).unwrap().as_kelvin(),
            want_1d,
            MODEL_RTOL,
        );
        assert_golden(
            &format!("fig4 r={r} FEM"),
            fem.max_delta_t(&s).unwrap().as_kelvin(),
            want_fem,
            FEM_RTOL,
        );
    }
}

#[test]
fn fig5_liner_sweep_endpoints_are_pinned() {
    let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
    let b100 = ModelB::paper_b100();
    let one_d = OneDModel::new();
    let fem = fem_coarse();
    // (liner, model A, model B(100), 1-D, FEM-coarse)
    let golden = [
        (
            0.5,
            3.512630200282e1,
            3.664488966346e1,
            5.908985198164e1,
            3.954413044592e1,
        ),
        (
            3.0,
            3.913633375705e1,
            4.231327727037e1,
            6.098769069026e1,
            4.220994376673e1,
        ),
    ];
    for (tl, want_a, want_b, want_1d, want_fem) in golden {
        let s = fig5_scenario(tl);
        assert_golden(
            &format!("fig5 tl={tl} Model A"),
            a.max_delta_t(&s).unwrap().as_kelvin(),
            want_a,
            MODEL_RTOL,
        );
        assert_golden(
            &format!("fig5 tl={tl} Model B(100)"),
            b100.max_delta_t(&s).unwrap().as_kelvin(),
            want_b,
            MODEL_RTOL,
        );
        assert_golden(
            &format!("fig5 tl={tl} 1-D"),
            one_d.max_delta_t(&s).unwrap().as_kelvin(),
            want_1d,
            MODEL_RTOL,
        );
        assert_golden(
            &format!("fig5 tl={tl} FEM"),
            fem.max_delta_t(&s).unwrap().as_kelvin(),
            want_fem,
            FEM_RTOL,
        );
    }
}

#[test]
fn fig6_substrate_thinning_sweep_is_pinned() {
    // Fig. 6: the non-monotone thinning curve — endpoints plus the
    // paper's ≈20 µm minimum. The golden values also encode the shape:
    // the 20 µm point must stay below both endpoints for B(100) and FEM,
    // while the 1-D baseline grows monotonically.
    let b100 = ModelB::paper_b100();
    let one_d = OneDModel::new();
    let fem = fem_coarse();
    // (t_si, model B(100), 1-D, FEM-coarse)
    let golden = [
        (5.0, 3.267314570486e1, 4.505442030758e1, 3.619519091199e1),
        (20.0, 2.792958638841e1, 4.821546442156e1, 3.196353388237e1),
        (80.0, 3.171094390316e1, 5.614003534826e1, 3.381066358199e1),
    ];
    let mut fem_series = Vec::new();
    let mut b_series = Vec::new();
    let mut one_d_series = Vec::new();
    for (tsi, want_b, want_1d, want_fem) in golden {
        let s = fig6_scenario(tsi);
        let got_b = b100.max_delta_t(&s).unwrap().as_kelvin();
        let got_1d = one_d.max_delta_t(&s).unwrap().as_kelvin();
        let got_fem = fem.max_delta_t(&s).unwrap().as_kelvin();
        assert_golden(
            &format!("fig6 tsi={tsi} Model B(100)"),
            got_b,
            want_b,
            MODEL_RTOL,
        );
        assert_golden(&format!("fig6 tsi={tsi} 1-D"), got_1d, want_1d, MODEL_RTOL);
        assert_golden(&format!("fig6 tsi={tsi} FEM"), got_fem, want_fem, FEM_RTOL);
        b_series.push(got_b);
        one_d_series.push(got_1d);
        fem_series.push(got_fem);
    }
    assert!(b_series[1] < b_series[0] && b_series[1] < b_series[2]);
    assert!(fem_series[1] < fem_series[0] && fem_series[1] < fem_series[2]);
    assert!(one_d_series[0] < one_d_series[1] && one_d_series[1] < one_d_series[2]);
}

#[test]
fn case_study_delta_t_is_pinned() {
    // §IV-E DRAM-µP unit cell (paper: A 12.8 °C, B(1000) 13.9 °C,
    // FEM 12.0 °C, 1-D 20 °C — our repro pins its own solver outputs).
    use ttsv::core::full_chip::CaseStudy;
    let scenario = CaseStudy::paper().unit_cell_scenario().unwrap();
    let a = ModelA::with_coefficients(CaseStudy::paper_fitting());
    assert_golden(
        "case study Model A",
        a.max_delta_t(&scenario).unwrap().as_kelvin(),
        1.259763445965e1,
        MODEL_RTOL,
    );
    assert_golden(
        "case study Model B(1000)",
        ModelB::paper_b1000()
            .max_delta_t(&scenario)
            .unwrap()
            .as_kelvin(),
        1.101104421301e1,
        MODEL_RTOL,
    );
    assert_golden(
        "case study 1-D",
        OneDModel::new().max_delta_t(&scenario).unwrap().as_kelvin(),
        2.615354576747e1,
        MODEL_RTOL,
    );
    assert_golden(
        "case study FEM",
        fem_coarse().max_delta_t(&scenario).unwrap().as_kelvin(),
        1.118354740435e1,
        FEM_RTOL,
    );
}

#[test]
fn floorplan_uniform_map_matches_the_case_study_pin() {
    // The floorplan engine in its uniform-map limit must land on the same
    // §IV-E pins as the single-unit-cell path: same golden values, same
    // tolerances. The two paths construct the per-cell power through
    // different (mathematically identical) float expressions, so they
    // agree to rounding, far inside MODEL_RTOL / FEM_RTOL.
    use ttsv::chip::{ChipEngine, Floorplan};
    use ttsv::core::full_chip::CaseStudy;

    let cs = CaseStudy::paper();
    let plan = Floorplan::uniform(&cs, 8, 8).expect("valid uniform floorplan");
    let engine = ChipEngine::new();

    let b1000 = ModelB::paper_b1000();
    let report = engine.evaluate(&plan, &b1000).unwrap();
    // Uniform chip: one geometry, flat map, pinned to the case study.
    assert_eq!(report.tiles, 64);
    assert_eq!(report.distinct_cells, 1);
    assert_golden(
        "floorplan uniform Model B(1000) max",
        report.max_delta_t,
        1.101104421301e1,
        MODEL_RTOL,
    );
    assert_golden(
        "floorplan uniform Model B(1000) mean",
        report.mean_delta_t,
        1.101104421301e1,
        MODEL_RTOL,
    );

    let a = ModelA::with_coefficients(CaseStudy::paper_fitting());
    assert_golden(
        "floorplan uniform Model A max",
        engine.evaluate_factored(&plan, &a).unwrap().max_delta_t,
        1.259763445965e1,
        MODEL_RTOL,
    );
    assert_golden(
        "floorplan uniform 1-D max",
        engine
            .evaluate(&plan, &OneDModel::new())
            .unwrap()
            .max_delta_t,
        2.615354576747e1,
        MODEL_RTOL,
    );
    assert_golden(
        "floorplan uniform FEM max",
        engine.evaluate(&plan, &fem_coarse()).unwrap().max_delta_t,
        1.118354740435e1,
        FEM_RTOL,
    );

    // Direct old-path/new-path agreement on the overlap, tighter than the
    // golden tolerance.
    let unit_cell = cs.unit_cell_scenario().unwrap();
    let old = b1000.max_delta_t(&unit_cell).unwrap().as_kelvin();
    assert!(
        (report.max_delta_t - old).abs() <= 1e-12 * old,
        "floorplan {} vs unit cell {old}",
        report.max_delta_t
    );
}

#[test]
fn solver_knobs_do_not_move_the_goldens() {
    // The pinned physics must be solver-invariant: the same Fig. 5 point
    // solved by the direct banded path and the reused multigrid-PCG path
    // lands on the same golden value within solver tolerance.
    use ttsv::fem::FemSolver;
    let want_fem = 3.954413044592e1;
    let s = fig5_scenario(0.5);
    for (label, solver) in [
        ("direct", FemSolver::DirectBanded),
        ("mg", FemSolver::Multigrid),
    ] {
        let fem = fem_coarse().with_solver(solver);
        let got = fem.max_delta_t(&s).unwrap().as_kelvin();
        assert_golden(&format!("fig5 tl=0.5 FEM via {label}"), got, want_fem, 1e-4);
    }
}
