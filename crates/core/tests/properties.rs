//! Property-based tests: physical invariants of the analytical models over
//! randomized scenarios.

use proptest::prelude::*;
use ttsv_core::geometry::HeatLoad;
use ttsv_core::model_b::PlaneSegments;
use ttsv_core::prelude::*;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// A randomized-but-physical block scenario.
#[derive(Debug, Clone)]
struct BlockParams {
    radius_um: f64,
    liner_um: f64,
    ild_um: f64,
    tsi_um: f64,
    planes: usize,
}

fn block_params() -> impl Strategy<Value = BlockParams> {
    (
        1.0..20.0f64, // radius
        0.2..3.0f64,  // liner
        2.0..10.0f64, // ILD
        5.0..80.0f64, // upper substrate
        2usize..5,    // planes
    )
        .prop_map(
            |(radius_um, liner_um, ild_um, tsi_um, planes)| BlockParams {
                radius_um,
                liner_um,
                ild_um,
                tsi_um,
                planes,
            },
        )
}

/// A Model B ladder with a random explicit segmentation and a batch of
/// power vectors for it: 2–5 planes (a stack needs two), each lumped (one segment) a quarter
/// of the time, otherwise 0–29 silicon and 1–29 ILD segments (so ladder
/// lengths are rarely a multiple of anything); each power an exact zero a
/// quarter of the time, otherwise log-uniform over 1e-6–1e3 W. Such
/// ladders have runs of at most 29 segments, so [`long_kernel_params`]
/// draws the long ladders whose runs span hundreds of segments.
#[derive(Debug, Clone)]
struct KernelParams {
    radius_um: f64,
    liner_um: f64,
    planes: usize,
    segments: Vec<(usize, usize, usize)>,
    powers: Vec<Vec<(usize, f64)>>,
}

fn kernel_params() -> impl Strategy<Value = KernelParams> {
    kernel_params_with((0usize..4, 0usize..30, 1usize..30))
}

/// [`KernelParams`] with hundreds to thousands of segments per ladder:
/// 0–399 silicon and 100–999 ILD segments per plane, lumped an eighth of
/// the time, so the hotspot kernel's run analysis meets runs of hundreds
/// of segments, whose lanes decay to rounding level inside them.
fn long_kernel_params() -> impl Strategy<Value = KernelParams> {
    kernel_params_with((0usize..8, 0usize..400, 100usize..1000))
}

/// Draws [`KernelParams`] whose per-plane `(kind, silicon, ild)` come
/// from `segment` (kind `0` lumps the plane into one segment).
fn kernel_params_with(
    segment: impl Strategy<Value = (usize, usize, usize)>,
) -> impl Strategy<Value = KernelParams> {
    let power = (0usize..4, -6.0..3.0f64);
    (
        1.0..20.0f64,
        0.2..3.0f64,
        2usize..6,
        prop::collection::vec(segment, 5),
        prop::collection::vec(prop::collection::vec(power, 5), 12),
    )
        .prop_map(
            |(radius_um, liner_um, planes, segments, powers)| KernelParams {
                radius_um,
                liner_um,
                planes,
                segments,
                powers,
            },
        )
}

fn build(p: &BlockParams) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(um(p.radius_um), um(p.liner_um)))
        .with_ild_thickness(um(p.ild_um))
        .with_upper_si_thickness(um(p.tsi_um))
        .with_planes(p.planes)
        .build()
        .expect("strategy produces valid scenarios")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_models_produce_positive_finite_delta_t(p in block_params()) {
        let s = build(&p);
        for model in [
            &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
            &ModelB::paper_b100(),
            &OneDModel::new(),
        ] {
            let dt = model.max_delta_t(&s).unwrap().as_kelvin();
            prop_assert!(dt.is_finite() && dt > 0.0, "{}: {dt}", model.name());
        }
    }

    #[test]
    fn growing_the_via_never_heats_the_stack(p in block_params()) {
        // A wider via (same liner) only improves both vertical and lateral
        // conduction — ΔT must not increase. Exception: the 1-D baseline
        // sees none of the lateral benefit but still pays the keep-out area
        // n·π(r + t_L)², so when the liner chokes the via branch
        // (t_L ≳ r/2) a wider via can heat it by a hair; like the division
        // test below, only hold the 1-D model to the realistic-liner regime
        // (paper: t_L/r ≤ 0.6 at most, 0.05–0.1 typically).
        prop_assume!(p.radius_um < 18.0);
        let small = build(&p);
        let mut bigger = p.clone();
        bigger.radius_um += 2.0;
        let big = build(&bigger);
        let model_a = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let model_b = ModelB::paper_b100();
        let one_d = OneDModel::new();
        let mut models: Vec<&dyn ThermalModel> = vec![&model_a, &model_b];
        if p.liner_um <= 0.5 * p.radius_um {
            models.push(&one_d);
        }
        for model in models {
            let dt_small = model.max_delta_t(&small).unwrap().as_kelvin();
            let dt_big = model.max_delta_t(&big).unwrap().as_kelvin();
            prop_assert!(
                dt_big <= dt_small * (1.0 + 1e-9),
                "{}: r {} → {} heated {dt_small} → {dt_big}",
                model.name(), p.radius_um, bigger.radius_um
            );
        }
    }

    #[test]
    fn thickening_the_liner_never_cools(p in block_params()) {
        // The liner only impedes heat entering the via.
        prop_assume!(p.liner_um < 2.5);
        let thin = build(&p);
        let mut thicker = p.clone();
        thicker.liner_um += 0.5;
        let thick = build(&thicker);
        for model in [
            &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
            &ModelB::paper_b100(),
        ] {
            let dt_thin = model.max_delta_t(&thin).unwrap().as_kelvin();
            let dt_thick = model.max_delta_t(&thick).unwrap().as_kelvin();
            prop_assert!(
                dt_thick >= dt_thin * (1.0 - 1e-9),
                "{}: tL {} → {} cooled {dt_thin} → {dt_thick}",
                model.name(), p.liner_um, thicker.liner_um
            );
        }
    }

    #[test]
    fn dividing_the_via_never_heats_meaningfully(p in block_params(), n in 2usize..16) {
        // Eq. 22: same metal, more lateral surface. Strict monotonicity can
        // fail by a hair when the liner dominates the via (t_L ≳ r/2):
        // division grows the keep-out area n·π(r/√n + t_L)², shrinking the
        // bulk cross-section while the choked lateral path gains nothing.
        // Restrict to realistic liners (paper: t_L/r ≤ 0.6 at most, 0.05–0.1
        // typically) and allow a 0.2% slack.
        prop_assume!(p.liner_um <= 0.5 * p.radius_um);
        let single = build(&p);
        let divided = single
            .with_tsv(TtsvConfig::divided(um(p.radius_um), um(p.liner_um), n))
            .unwrap();
        for model in [
            &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
            &ModelB::paper_b100(),
        ] {
            let dt_1 = model.max_delta_t(&single).unwrap().as_kelvin();
            let dt_n = model.max_delta_t(&divided).unwrap().as_kelvin();
            prop_assert!(
                dt_n <= dt_1 * 1.002,
                "{}: n={n} heated {dt_1} → {dt_n}", model.name()
            );
        }
    }

    #[test]
    fn dividing_a_dominant_via_strictly_cools(n in 2usize..16) {
        // Where the via matters (r ≫ t_L, thin substrates), division must
        // strictly cool — the Fig. 7 regime.
        let p = BlockParams {
            radius_um: 10.0,
            liner_um: 1.0,
            ild_um: 4.0,
            tsi_um: 20.0,
            planes: 3,
        };
        let single = build(&p);
        let divided = single
            .with_tsv(TtsvConfig::divided(um(p.radius_um), um(p.liner_um), n))
            .unwrap();
        for model in [
            &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
            &ModelB::paper_b100(),
        ] {
            let dt_1 = model.max_delta_t(&single).unwrap().as_kelvin();
            let dt_n = model.max_delta_t(&divided).unwrap().as_kelvin();
            prop_assert!(dt_n < dt_1, "{}: n={n}: {dt_1} → {dt_n}", model.name());
        }
    }

    #[test]
    fn temperatures_scale_linearly_with_power(p in block_params(), factor in 0.1..10.0f64) {
        let base = build(&p);
        let scaled_powers: Vec<Power> =
            base.plane_powers().iter().map(|q| *q * factor).collect();
        let scaled = Scenario::new(
            base.stack().clone(),
            base.tsv().clone(),
            &HeatLoad::PerPlane(scaled_powers),
        )
        .unwrap();
        for model in [
            &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
            &ModelB::paper_b100(),
            &OneDModel::new(),
        ] {
            let dt_base = model.max_delta_t(&base).unwrap().as_kelvin();
            let dt_scaled = model.max_delta_t(&scaled).unwrap().as_kelvin();
            prop_assert!(
                (dt_scaled - factor * dt_base).abs() <= 1e-9 * dt_scaled.abs().max(1.0),
                "{}: {dt_base} × {factor} ≠ {dt_scaled}", model.name()
            );
        }
    }

    #[test]
    fn one_d_overestimates_in_the_papers_regime(p in block_params()) {
        // In the regimes the paper studies (thin liners relative to the via,
        // substrates ≥ 10 µm) the missing lateral path makes the 1-D
        // baseline run hotter than Model B. Outside that regime — liner
        // chokes the lateral path entirely — the two models genuinely
        // diverge in the other direction, so the property is scoped.
        prop_assume!(p.liner_um <= 0.3 * p.radius_um);
        prop_assume!(p.tsi_um >= 10.0);
        let s = build(&p);
        let b = ModelB::paper_b100().max_delta_t(&s).unwrap().as_kelvin();
        let d = OneDModel::new().max_delta_t(&s).unwrap().as_kelvin();
        prop_assert!(d >= 0.95 * b, "1-D {d} far below Model B {b}");
    }

    #[test]
    fn model_a_solutions_are_internally_consistent(p in block_params()) {
        let s = build(&p);
        let sol = ModelA::with_coefficients(FittingCoefficients::paper_block())
            .solve(&s)
            .unwrap();
        // T0 = Rs Σq (eq. 6).
        let expect_t0 = (s.total_power() * sol.resistances().substrate).as_kelvin();
        prop_assert!((sol.t0().as_kelvin() - expect_t0).abs() <= 1e-9 * expect_t0);
        // Maximum principle: T0 is the coolest node (every path to the sink
        // passes through it), the reported max bounds everything. (Plane-by-
        // plane monotonicity is NOT a theorem: a huge via can cool the top
        // plane below the mid-stack bulk.)
        let reported = sol.max_delta_t();
        let floor = sol.t0() - TemperatureDelta::from_kelvin(1e-9);
        for t in sol.bulk_temperatures() {
            prop_assert!(*t <= reported && *t >= floor);
        }
        for t in sol.via_temperatures().iter().flatten() {
            prop_assert!(*t <= reported && *t >= floor);
        }
    }

    #[test]
    fn model_b_profiles_respect_the_maximum_principle(p in block_params()) {
        // Every path to the sink passes through T0, so T0 is the coolest
        // node; the hottest node bounds every profile. (Strict bulk-chain
        // monotonicity does NOT hold in general: a strong via can carry
        // heat downward and re-inject it into the bulk below a resistive
        // bond layer.)
        let s = build(&p);
        let sol = ModelB::paper_b100().solve(&s).unwrap();
        let floor = sol.t0() - TemperatureDelta::from_kelvin(1e-9);
        let ceiling = sol.max_delta_t() + TemperatureDelta::from_kelvin(1e-9);
        for t in sol.bulk_profile().iter().chain(sol.via_profile()) {
            prop_assert!(*t >= floor, "node {t:?} below T0 {:?}", sol.t0());
            prop_assert!(*t <= ceiling);
        }
        // The reported plane-top temperatures are taken from the profile.
        for t in sol.plane_top_temperatures() {
            prop_assert!(t >= floor && t <= ceiling);
        }
    }

    #[test]
    fn more_planes_run_hotter(p in block_params()) {
        prop_assume!(p.planes < 4);
        let fewer = build(&p);
        let mut more_p = p.clone();
        more_p.planes += 1;
        let more = build(&more_p);
        for model in [
            &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
            &ModelB::paper_b100(),
            &OneDModel::new(),
        ] {
            let dt_fewer = model.max_delta_t(&fewer).unwrap().as_kelvin();
            let dt_more = model.max_delta_t(&more).unwrap().as_kelvin();
            prop_assert!(dt_more > dt_fewer, "{}: {dt_fewer} vs {dt_more}", model.name());
        }
    }
    /// The hotspot kernel's pruned max is bitwise the max over every
    /// superposed ladder node — the full `ModelB::solve_segmented`
    /// profile — for every power vector a factorization serves; and on
    /// Model A's one-segment-per-plane ladder the kernel is bitwise
    /// `ModelA::max_delta_t`.
    #[test]
    fn model_b_kernel_max_is_bitwise_the_max_over_every_node(p in kernel_params()) {
        check_kernel_against_every_node(&p)?;
    }

    /// As `model_b_kernel_max_is_bitwise_the_max_over_every_node`, on
    /// ladders whose runs span hundreds of segments.
    #[test]
    fn model_b_kernel_with_several_super_blocks_is_bitwise_the_max_over_every_node(
        p in long_kernel_params()
    ) {
        check_kernel_against_every_node(&p)?;
    }

    /// The serving geometry: Model B `B(10, 1000)` on the §IV-E case-study
    /// cell (4,021 ladder nodes in 8 runs), under random non-negative
    /// plane powers with exact zeros, is bitwise the max over every node.
    #[test]
    fn serving_kernel_max_is_bitwise_the_max_over_every_node(
        watts in prop::collection::vec(prop::collection::vec((0usize..4, -6.0..3.0f64), 3), 12)
    ) {
        let cell = CaseStudy::paper().unit_cell_scenario().unwrap();
        let model = ModelB::with_segments(10, 1000);
        let kernel = model.factorize(&cell).unwrap();
        for w in &watts {
            let powers: Vec<Power> = w
                .iter()
                .map(|&(zero, exp)| Power::from_watts(if zero == 0 { 0.0 } else { 10f64.powf(exp) }))
                .collect();
            let s = Scenario::new(cell.stack().clone(), cell.tsv().clone(), &HeatLoad::PerPlane(powers))
                .unwrap();
            let every_node = model.solve(&s).unwrap().max_delta_t().as_kelvin();
            let pruned = kernel.max_delta_t(s.plane_powers()).unwrap().as_kelvin();
            prop_assert!(
                pruned.to_bits() == every_node.to_bits(),
                "kernel {pruned} vs every node {every_node} at {:?}",
                s.plane_powers()
            );
        }
    }
}

/// Builds `p`'s ladder, factors it once into its hotspot kernel (and the
/// Model A kernel of the same geometry), and checks every power vector of
/// `p` against the maximum over the full solve's nodes, bitwise.
fn check_kernel_against_every_node(p: &KernelParams) -> Result<(), TestCaseError> {
    let segmentation = Segmentation::explicit(
        p.segments[..p.planes]
            .iter()
            .map(|&(kind, silicon, ild)| match kind {
                0 => PlaneSegments { silicon: 0, ild: 1 },
                _ => PlaneSegments { silicon, ild },
            })
            .collect(),
    );
    let scenario = |watts: &[(usize, f64)]| {
        let powers = watts[..p.planes]
            .iter()
            .map(|&(zero, exp)| Power::from_watts(if zero == 0 { 0.0 } else { 10f64.powf(exp) }))
            .collect();
        Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(p.radius_um), um(p.liner_um)))
            .with_planes(p.planes)
            .with_load(HeatLoad::PerPlane(powers))
            .build()
            .expect("strategy produces valid scenarios")
    };
    let model = ModelB::paper_b100();
    let kernel = model
        .factorize_segmented(&scenario(&p.powers[0]), &segmentation)
        .unwrap();
    let model_a = ModelA::with_coefficients(FittingCoefficients::paper_block());
    let kernel_a = model_a.factorize_geometry(&scenario(&p.powers[0])).unwrap();
    for watts in &p.powers {
        let s = scenario(watts);
        let sol = model.solve_segmented(&s, &segmentation).unwrap();
        let every_node = sol
            .bulk_profile()
            .iter()
            .chain(sol.via_profile())
            .fold(sol.t0(), |m, &t| m.max(t))
            .as_kelvin();
        let pruned = kernel.max_delta_t(s.plane_powers()).unwrap().as_kelvin();
        prop_assert!(
            pruned.to_bits() == every_node.to_bits(),
            "kernel {pruned} vs every node {every_node} at {:?}",
            s.plane_powers()
        );
        let pruned_a = kernel_a.max_delta_t(s.plane_powers()).unwrap().as_kelvin();
        let solved_a = model_a.max_delta_t(&s).unwrap().as_kelvin();
        prop_assert!(
            pruned_a.to_bits() == solved_a.to_bits(),
            "Model A kernel {pruned_a} vs solve {solved_a} at {:?}",
            s.plane_powers()
        );
    }
    Ok(())
}
