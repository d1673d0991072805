//! Model A — the compact per-plane resistive network (paper §II).
//!
//! Each plane contributes a bulk node and a via node at its top interface,
//! connected by three resistances (Fig. 2); the top plane has a single
//! merged node whose via branch is the series `R_{fill} + R_{lat}`
//! (eq. 1). Heat `q_j` enters at each plane's bulk node, and the whole
//! stack drains through the lumped substrate resistance `R_s` (eq. 16),
//! giving `T₀ = R_s·Σq` (eq. 6).
//!
//! That network is the [ladder](crate::ladder) with one segment per plane.
//! Eq. 1's merged node is the top segment's `B_n`: its via node `V_n` links
//! only `B_n` (`R_lat`) and `V_{n-1}` (`R_fill`) and carries no source, so
//! `B_n`–`V_{n-1}` see exactly the series branch.

use ttsv_units::{Power, TemperatureDelta};

use crate::error::CoreError;
use crate::fitting::FittingCoefficients;
use crate::ladder::{LadderKernel, ResponseBasis, Segment};
use crate::resistances::{model_a_resistances, ModelAResistances};
use crate::scenario::{PowerSeparableModel, Scenario, ThermalModel};

/// The compact analytical TTSV model with fitting coefficients.
///
/// ```
/// use ttsv_core::prelude::*;
///
/// let scenario = Scenario::paper_block().build()?;
/// let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
/// let solution = model.solve(&scenario)?;
/// assert!(solution.max_delta_t() > solution.t0()); // heat flows upward
/// # Ok::<(), CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelA {
    fit: FittingCoefficients,
}

impl ModelA {
    /// Model A with unity coefficients (no FEM correction).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Model A with explicit fitting coefficients.
    #[must_use]
    pub fn with_coefficients(fit: FittingCoefficients) -> Self {
        Self { fit }
    }

    /// The coefficients in use.
    #[must_use]
    pub fn coefficients(&self) -> &FittingCoefficients {
        &self.fit
    }

    /// Solves the compact network for a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for a negative or
    /// non-finite plane power and [`CoreError::Linalg`] if the ladder
    /// factorization fails (cannot happen for validated scenarios).
    pub fn solve(&self, scenario: &Scenario) -> Result<ModelASolution, CoreError> {
        let resistances = model_a_resistances(scenario.stack(), scenario.tsv(), &self.fit);
        let t = ladder(&resistances)?.temperatures(scenario.plane_powers())?;
        let n = resistances.planes.len();
        let kelvin = TemperatureDelta::from_kelvin;
        Ok(ModelASolution {
            t0: kelvin(t[0]),
            bulk: (0..n).map(|j| kelvin(t[1 + 2 * j])).collect(),
            via: (0..n)
                .map(|j| (j + 1 < n).then(|| kelvin(t[2 + 2 * j])))
                .collect(),
            max: kelvin(t.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            resistances,
        })
    }

    /// Solves the three-plane system by direct transcription of the paper's
    /// eqs. (1)–(6) into a 5×5 linear system — an independent cross-check of
    /// the ladder formulation used by [`ModelA::solve`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidScenario`] if the stack does not have exactly
    ///   three planes.
    /// * [`CoreError::Linalg`] if the 5×5 solve fails.
    pub fn solve_three_plane_direct(
        &self,
        scenario: &Scenario,
    ) -> Result<ModelASolution, CoreError> {
        if scenario.stack().plane_count() != 3 {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "solve_three_plane_direct needs exactly 3 planes, got {}",
                    scenario.stack().plane_count()
                ),
            });
        }
        let res = model_a_resistances(scenario.stack(), scenario.tsv(), &self.fit);
        let [q1, q2, q3] = [
            scenario.plane_powers()[0].as_watts(),
            scenario.plane_powers()[1].as_watts(),
            scenario.plane_powers()[2].as_watts(),
        ];
        let (r1, r2, r3) = (
            res.planes[0].bulk.as_kelvin_per_watt(),
            res.planes[0].fill.as_kelvin_per_watt(),
            res.planes[0].liner_lateral.as_kelvin_per_watt(),
        );
        let (r4, r5, r6) = (
            res.planes[1].bulk.as_kelvin_per_watt(),
            res.planes[1].fill.as_kelvin_per_watt(),
            res.planes[1].liner_lateral.as_kelvin_per_watt(),
        );
        let (r7, r8, r9) = (
            res.planes[2].bulk.as_kelvin_per_watt(),
            res.planes[2].fill.as_kelvin_per_watt(),
            res.planes[2].liner_lateral.as_kelvin_per_watt(),
        );
        let rs = res.substrate.as_kelvin_per_watt();

        // Eq. (6): T0 = Rs · Σq.
        let t0 = rs * (q1 + q2 + q3);

        // Unknowns x = [T1, T2, T3, T4, T5]; transcribe eqs. (1)–(5).
        let mut a = [[0.0f64; 5]; 5];
        let mut b = [0.0f64; 5];
        // (1)  q3 = (T5 − T3)/R7 + (T5 − T4)/(R8 + R9)
        a[0][4] = 1.0 / r7 + 1.0 / (r8 + r9);
        a[0][2] = -1.0 / r7;
        a[0][3] = -1.0 / (r8 + r9);
        b[0] = q3;
        // (2)  q2 + (T5 − T3)/R7 = (T3 − T4)/R6 + (T3 − T1)/R4
        a[1][2] = 1.0 / r7 + 1.0 / r6 + 1.0 / r4;
        a[1][4] = -1.0 / r7;
        a[1][3] = -1.0 / r6;
        a[1][0] = -1.0 / r4;
        b[1] = q2;
        // (3)  (T3 − T4)/R6 + (T5 − T4)/(R8 + R9) = (T4 − T2)/R5
        a[2][3] = 1.0 / r6 + 1.0 / (r8 + r9) + 1.0 / r5;
        a[2][2] = -1.0 / r6;
        a[2][4] = -1.0 / (r8 + r9);
        a[2][1] = -1.0 / r5;
        b[2] = 0.0;
        // (4)  q1 + (T3 − T1)/R4 = (T1 − T2)/R3 + (T1 − T0)/R1
        a[3][0] = 1.0 / r4 + 1.0 / r3 + 1.0 / r1;
        a[3][2] = -1.0 / r4;
        a[3][1] = -1.0 / r3;
        b[3] = q1 + t0 / r1;
        // (5)  (T1 − T2)/R3 + (T4 − T2)/R5 = (T2 − T0)/R2
        a[4][1] = 1.0 / r3 + 1.0 / r5 + 1.0 / r2;
        a[4][0] = -1.0 / r3;
        a[4][3] = -1.0 / r5;
        b[4] = t0 / r2;

        let rows: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
        let x = ttsv_linalg::DenseMatrix::from_rows(&rows).solve(&b)?;

        let t = TemperatureDelta::from_kelvin;
        let bulk = vec![t(x[0]), t(x[2]), t(x[4])];
        let via = vec![Some(t(x[1])), Some(t(x[3])), None];
        let max = x.iter().fold(t0, |m, &v| m.max(v));
        Ok(ModelASolution {
            resistances: res,
            t0: t(t0),
            bulk,
            via,
            max: t(max),
        })
    }
}

impl ThermalModel for ModelA {
    fn name(&self) -> String {
        "Model A".to_string()
    }

    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
        Ok(self.solve(scenario)?.max_delta_t())
    }
}

impl PowerSeparableModel for ModelA {
    fn factorize_geometry(&self, scenario: &Scenario) -> Result<LadderKernel, CoreError> {
        let resistances = model_a_resistances(scenario.stack(), scenario.tsv(), &self.fit);
        Ok(LadderKernel::from_basis(ladder(&resistances)?))
    }

    fn cache_tag(&self) -> String {
        // The display name omits the fitting coefficients, which change
        // the results — fold their exact bits into the cache identity.
        format!(
            "Model A[k1={:016x},k2={:016x},c={:016x}]",
            self.fit.k1().to_bits(),
            self.fit.k2().to_bits(),
            self.fit.lateral_spreading().to_bits()
        )
    }
}

/// The unit-response basis of Model A's ladder, grounded through the
/// fitted `R_s`, each plane's power entering its bulk node. Every run is
/// one plane, so the condensed system is the ladder itself.
fn ladder(resistances: &ModelAResistances) -> Result<ResponseBasis, CoreError> {
    let pieces = pieces(resistances);
    let heated: Vec<_> = (0..pieces.len()).map(|p| p..p + 1).collect();
    ResponseBasis::new(&pieces, resistances.substrate.as_kelvin_per_watt(), &heated)
}

/// Model A's ladder segments: one per plane with its bulk, fill and liner
/// resistances.
fn pieces(resistances: &ModelAResistances) -> Vec<(Segment, usize)> {
    resistances
        .planes
        .iter()
        .map(|r| {
            let segment = Segment {
                r_bulk: r.bulk.as_kelvin_per_watt(),
                r_fill: r.fill.as_kelvin_per_watt(),
                r_lat: r.liner_lateral.as_kelvin_per_watt(),
            };
            (segment, 1)
        })
        .collect()
}

/// Model A node temperatures and the resistances that produced them.
#[derive(Debug, Clone)]
pub struct ModelASolution {
    resistances: ModelAResistances,
    t0: TemperatureDelta,
    bulk: Vec<TemperatureDelta>,
    via: Vec<Option<TemperatureDelta>>,
    max: TemperatureDelta,
}

impl ModelASolution {
    /// Temperature at the top of the lumped first substrate (paper's `T₀`).
    #[must_use]
    pub fn t0(&self) -> TemperatureDelta {
        self.t0
    }

    /// Bulk-node temperature of each plane (top plane: the merged node,
    /// paper's `T₅`).
    #[must_use]
    pub fn bulk_temperatures(&self) -> &[TemperatureDelta] {
        &self.bulk
    }

    /// Via-node temperature of each plane (`None` for the top plane, whose
    /// via node is merged).
    #[must_use]
    pub fn via_temperatures(&self) -> &[Option<TemperatureDelta>] {
        &self.via
    }

    /// The maximum temperature rise (the paper's `Max ΔT`).
    #[must_use]
    pub fn max_delta_t(&self) -> TemperatureDelta {
        self.max
    }

    /// The resistances used for the solve (eqs. 7–16).
    #[must_use]
    pub fn resistances(&self) -> &ModelAResistances {
        &self.resistances
    }

    /// Heat flowing down the via stack out of plane 1's via into the
    /// substrate: `(T₂ − T₀)/R₂` — a measure of how much the TTSV helps.
    #[must_use]
    pub fn via_heat(&self) -> Power {
        match self.via.first().copied().flatten() {
            Some(t2) => (t2 - self.t0) / self.resistances.planes[0].fill,
            None => Power::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{HeatLoad, TtsvConfig};
    use crate::ladder::superpose;
    use proptest::prelude::*;
    use ttsv_network::{NodeId, Terminal, ThermalNetwork};
    use ttsv_units::Length;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn fig5_scenario(r_um: f64, tl_um: f64) -> Scenario {
        Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(r_um), um(tl_um)))
            .with_ild_thickness(um(7.0))
            .build()
            .unwrap()
    }

    /// The paper's network (Fig. 2, eq. 1) assembled node by node in the
    /// generic [`ThermalNetwork`]: a bulk and a via node per non-top
    /// plane, one merged top node with the series `R_fill + R_lat` branch.
    fn network_solve(model: &ModelA, scenario: &Scenario) -> ModelASolution {
        let resistances = model_a_resistances(scenario.stack(), scenario.tsv(), &model.fit);
        let n = resistances.planes.len();
        let mut net = ThermalNetwork::new();
        let t0 = net.add_node("T0");
        net.add_resistor(t0, Terminal::Ground, resistances.substrate);
        let bulk: Vec<NodeId> = (0..n).map(|j| net.add_node(format!("B{j}"))).collect();
        let via: Vec<Option<NodeId>> = (0..n)
            .map(|j| (j + 1 < n).then(|| net.add_node(format!("V{j}"))))
            .collect();
        for (j, r) in resistances.planes.iter().enumerate() {
            let (below_bulk, below_via) = match j {
                0 => (t0, t0),
                _ => (bulk[j - 1], via[j - 1].expect("below the top")),
            };
            net.add_resistor(bulk[j], below_bulk, r.bulk);
            match via[j] {
                Some(v) => {
                    net.add_resistor(v, below_via, r.fill);
                    net.add_resistor(bulk[j], v, r.liner_lateral);
                }
                None => {
                    net.add_resistor(bulk[j], below_via, r.fill + r.liner_lateral);
                }
            }
            net.add_source(bulk[j], scenario.plane_powers()[j]);
        }
        let sol = net.solve().unwrap();
        let bulk: Vec<_> = bulk.iter().map(|&b| sol.temperature(b)).collect();
        let via: Vec<_> = via.iter().map(|v| v.map(|v| sol.temperature(v))).collect();
        let max = bulk
            .iter()
            .chain(via.iter().flatten())
            .fold(sol.temperature(t0), |m, &t| m.max(t));
        ModelASolution {
            resistances,
            t0: sol.temperature(t0),
            bulk,
            via,
            max,
        }
    }

    proptest! {
        /// The ladder is the paper's network: t0, every bulk node, every
        /// non-top via node and the max agree with the generic network
        /// solve to rounding, over random stacks, loads and fits.
        #[test]
        fn ladder_matches_the_network_reference(
            (r, tl, t_si, planes) in (1.0..20.0f64, 0.1..3.0f64, 5.0..80.0f64, 2usize..6),
            watts in prop::collection::vec(0.0..50.0f64, 5),
            (k1, k2, c) in (0.5..2.0f64, 0.5..2.0f64, 0.5..3.0f64),
        ) {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(r), um(tl)))
                .with_upper_si_thickness(um(t_si))
                .with_planes(planes)
                .with_load(HeatLoad::PerPlane(
                    watts[..planes].iter().map(|&w| Power::from_watts(w)).collect(),
                ))
                .build()
                .unwrap();
            let model =
                ModelA::with_coefficients(FittingCoefficients::with_lateral_spreading(k1, k2, c));
            let ladder = model.solve(&s).unwrap();
            let net = network_solve(&model, &s);
            let close = |a: TemperatureDelta, b: TemperatureDelta| {
                let (a, b) = (a.as_kelvin(), b.as_kelvin());
                (a - b).abs() <= 1e-12 * b.abs()
            };
            prop_assert!(close(ladder.t0(), net.t0()), "t0 {} vs {}", ladder.t0(), net.t0());
            prop_assert!(close(ladder.max_delta_t(), net.max_delta_t()));
            for (a, b) in ladder.bulk_temperatures().iter().zip(net.bulk_temperatures()) {
                prop_assert!(close(*a, *b), "bulk {a} vs {b}");
            }
            for (a, b) in ladder.via_temperatures().iter().zip(net.via_temperatures()) {
                match (a, b) {
                    (Some(a), Some(b)) => prop_assert!(close(*a, *b), "via {a} vs {b}"),
                    (a, b) => prop_assert!(a.is_none() && b.is_none()),
                }
            }
        }
    }

    /// Model A's runs are its planes, so its condensed system is its
    /// ladder: every node temperature is bitwise the superposition of
    /// block Thomas' unit responses over the full ladder.
    #[test]
    fn ladder_is_bitwise_the_block_thomas_reference() {
        for (r, tl) in [(5.0, 0.5), (5.0, 3.0), (10.0, 1.0), (2.0, 0.5)] {
            let s = fig5_scenario(r, tl);
            let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
            let resistances = model_a_resistances(s.stack(), s.tsv(), &model.fit);
            let segments: Vec<Segment> = pieces(&resistances).iter().map(|&(s, _)| s).collect();
            let heated: Vec<_> = (0..segments.len()).map(|p| p..p + 1).collect();
            let rs = resistances.substrate.as_kelvin_per_watt();
            let t: Vec<f64> = crate::model_b::tests::block_thomas_responses(&segments, rs, &heated)
                .iter()
                .map(|u| superpose(s.plane_powers(), u))
                .collect();
            let sol = model.solve(&s).unwrap();
            let n = segments.len();
            let mut nodes = vec![sol.t0()];
            for j in 0..n {
                nodes.push(sol.bulk_temperatures()[j]);
                nodes.extend(sol.via_temperatures()[j]);
            }
            // The top plane's via node is merged away in the solution.
            let reference = t[..2 * n].to_vec();
            let got: Vec<f64> = nodes.iter().map(|t| t.as_kelvin()).collect();
            assert_eq!(
                got.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "r={r} tl={tl}: {got:?} vs {reference:?}"
            );
            let max = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(sol.max_delta_t().as_kelvin().to_bits(), max.to_bits());
        }
    }

    #[test]
    fn ladder_and_direct_transcription_agree() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        for (r, tl) in [(5.0, 0.5), (5.0, 3.0), (10.0, 1.0), (2.0, 0.5)] {
            let s = fig5_scenario(r, tl);
            let ladder = model.solve(&s).unwrap();
            let direct = model.solve_three_plane_direct(&s).unwrap();
            assert!(
                (ladder.max_delta_t().as_kelvin() - direct.max_delta_t().as_kelvin()).abs()
                    < 1e-9 * ladder.max_delta_t().as_kelvin(),
                "r={r} tl={tl}: ladder {} vs direct {}",
                ladder.max_delta_t(),
                direct.max_delta_t()
            );
            for j in 0..3 {
                let a = ladder.bulk_temperatures()[j].as_kelvin();
                let b = direct.bulk_temperatures()[j].as_kelvin();
                assert!((a - b).abs() < 1e-9 * a.max(1.0), "plane {j}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn t0_equals_rs_times_total_power() {
        // Eq. (6) must hold in the network solution too.
        let model = ModelA::new();
        let s = fig5_scenario(5.0, 0.5);
        let sol = model.solve(&s).unwrap();
        let rs = sol.resistances().substrate;
        let want = (s.total_power() * rs).as_kelvin();
        assert!((sol.t0().as_kelvin() - want).abs() < 1e-9 * want);
    }

    #[test]
    fn top_plane_is_the_hottest() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let sol = model.solve(&fig5_scenario(5.0, 0.5)).unwrap();
        assert_eq!(sol.max_delta_t(), *sol.bulk_temperatures().last().unwrap());
        // Temperatures increase monotonically up the stack.
        for w in sol.bulk_temperatures().windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn delta_t_decreases_with_radius() {
        // The paper's Fig. 4 headline trend.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let mut prev = f64::INFINITY;
        for r in [2.0, 5.0, 10.0, 15.0, 20.0] {
            let dt = model
                .max_delta_t(&fig5_scenario(r, 0.5))
                .unwrap()
                .as_kelvin();
            assert!(dt < prev, "ΔT should fall with r: {prev} → {dt} at r={r}");
            prev = dt;
        }
    }

    #[test]
    fn delta_t_increases_with_liner_thickness() {
        // The paper's Fig. 5 trend (thicker liner blocks the lateral path).
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let mut prev = 0.0;
        for tl in [0.5, 1.0, 2.0, 3.0] {
            let dt = model
                .max_delta_t(&fig5_scenario(5.0, tl))
                .unwrap()
                .as_kelvin();
            assert!(
                dt > prev,
                "ΔT should rise with tL: {prev} → {dt} at tL={tl}"
            );
            prev = dt;
        }
    }

    #[test]
    fn delta_t_non_monotonic_in_substrate_thickness() {
        // The paper's Fig. 6 headline: thinning silicon is not always good.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let dt = |t_si: f64| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(8.0), um(1.0)))
                .with_ild_thickness(um(7.0))
                .with_upper_si_thickness(um(t_si))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        let at5 = dt(5.0);
        let at20 = dt(20.0);
        let at80 = dt(80.0);
        assert!(
            at20 < at5,
            "ΔT(20µm) = {at20} should be below ΔT(5µm) = {at5}"
        );
        assert!(
            at80 > at20,
            "ΔT(80µm) = {at80} should be above ΔT(20µm) = {at20}"
        );
    }

    #[test]
    fn dividing_the_via_reduces_delta_t_with_saturation() {
        // The paper's Fig. 7: more, thinner vias (same metal) cool better,
        // with diminishing returns.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let dt = |n: usize| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::divided(um(10.0), um(1.0), n))
                .with_upper_si_thickness(um(20.0))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        let d1 = dt(1);
        let d4 = dt(4);
        let d16 = dt(16);
        assert!(d4 < d1, "division must reduce ΔT: {d1} → {d4}");
        assert!(d16 < d4);
        // Saturation: the second division helps less than the first.
        assert!(
            (d4 - d16) < (d1 - d4),
            "gains should saturate: {d1}, {d4}, {d16}"
        );
    }

    #[test]
    fn via_heat_is_positive_and_bounded() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let s = fig5_scenario(10.0, 0.5);
        let sol = model.solve(&s).unwrap();
        let via_q = sol.via_heat().as_watts();
        assert!(via_q > 0.0, "some heat must use the via");
        assert!(
            via_q < s.total_power().as_watts(),
            "via cannot carry more than the total"
        );
    }

    #[test]
    fn four_plane_extension_works() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let s = Scenario::paper_block().with_planes(4).build().unwrap();
        let sol = model.solve(&s).unwrap();
        assert_eq!(sol.bulk_temperatures().len(), 4);
        // Four planes are hotter than three (more heat, longer path).
        let s3 = Scenario::paper_block().build().unwrap();
        assert!(model.max_delta_t(&s).unwrap() > model.max_delta_t(&s3).unwrap());
    }

    #[test]
    fn direct_solver_rejects_non_three_plane() {
        let model = ModelA::new();
        let s = Scenario::paper_block().with_planes(4).build().unwrap();
        assert!(matches!(
            model.solve_three_plane_direct(&s),
            Err(CoreError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn thermal_model_trait_is_implemented() {
        let model: &dyn ThermalModel = &ModelA::new();
        assert_eq!(model.name(), "Model A");
        let s = fig5_scenario(5.0, 0.5);
        assert!(model.max_delta_t(&s).unwrap().as_kelvin() > 0.0);
    }
}
