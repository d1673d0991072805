//! Model B — the distributed π-segment TTSV model (paper §III).
//!
//! Each plane is split into `n_j` π-segments (eq. 21): silicon segments at
//! the bottom (the first carries the bonding-layer resistance), ILD segments
//! on top. Every segment contributes a vertical bulk resistor, a vertical
//! via-fill resistor (`R_M/n`), and a lateral liner resistor (`n·R_L`);
//! plane heat enters the ILD bulk nodes as `q_j/n_D` (eq. 20). The KCL
//! system (eq. 19) is the shared [ladder](crate::ladder); a generic banded
//! LU and a CG path over it remain in the tests as cross-checks.

use ttsv_units::{Power, TemperatureDelta, ThermalResistance};

use crate::error::CoreError;
use crate::ladder::{LadderKernel, ResponseBasis, Segment};
use crate::resistances::distributed_plane_resistances;
use crate::scenario::{Scenario, ThermalModel};

/// Per-plane segment counts: silicon segments below, ILD segments above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneSegments {
    /// Segments covering the plane's silicon portion (and bond).
    pub silicon: usize,
    /// Segments covering the plane's ILD (heat enters here).
    pub ild: usize,
}

impl PlaneSegments {
    /// Total segments in the plane.
    #[must_use]
    pub fn total(&self) -> usize {
        self.silicon + self.ild
    }
}

/// How a stack is split into π-segments.
///
/// The paper's Table I uses the notation *(n₁, n)* — `n₁` segments in the
/// first plane and `n` in every other plane — with the split between the
/// silicon and ILD portions left to the implementation; we split
/// proportionally to layer thickness, keeping at least one segment per
/// nonempty layer (see DESIGN.md §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segmentation {
    per_plane: Vec<PlaneSegments>,
}

impl Segmentation {
    /// The paper's *(first, others)* scheme materialized for a stack.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn paper_scheme(scenario: &Scenario, first: usize, others: usize) -> Self {
        assert!(first > 0 && others > 0, "segment counts must be positive");
        let stack = scenario.stack();
        let mut per_plane = Vec::with_capacity(stack.plane_count());
        for (j, p) in stack.planes().iter().enumerate() {
            let n = if j == 0 { first } else { others };
            let t_si = if j == 0 {
                stack.l_ext().as_meters()
            } else {
                p.t_si().as_meters()
            };
            let t_ild = p.t_ild().as_meters();
            let si = if n == 1 || t_si == 0.0 {
                0
            } else {
                let frac = t_si / (t_si + t_ild);
                ((n as f64 * frac).round() as usize).clamp(1, n - 1)
            };
            per_plane.push(PlaneSegments {
                silicon: si,
                ild: n - si,
            });
        }
        Self { per_plane }
    }

    /// Explicit per-plane counts.
    ///
    /// # Panics
    ///
    /// Panics if any plane has zero ILD segments (heat could not enter).
    #[must_use]
    pub fn explicit(per_plane: Vec<PlaneSegments>) -> Self {
        assert!(
            per_plane.iter().all(|p| p.ild > 0),
            "every plane needs at least one ILD segment"
        );
        Self { per_plane }
    }

    /// Per-plane counts.
    #[must_use]
    pub fn per_plane(&self) -> &[PlaneSegments] {
        &self.per_plane
    }

    /// Total segments across the stack (the paper's `n_A`).
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_plane.iter().map(PlaneSegments::total).sum()
    }

    /// Each plane's heated segments — its ILD segments, at least one per
    /// plane (eq. 20) — as ladder indices, bottom → top.
    fn heated(&self) -> Vec<std::ops::Range<usize>> {
        let mut end = 0;
        self.per_plane
            .iter()
            .map(|seg| {
                end += seg.total();
                end - seg.ild..end
            })
            .collect()
    }
}

/// The distributed analytical TTSV model (no fitting coefficients).
///
/// ```
/// use ttsv_core::prelude::*;
///
/// let scenario = Scenario::paper_block().build()?;
/// let dt = ModelB::paper_b100().max_delta_t(&scenario)?;
/// assert!(dt.as_kelvin() > 0.0);
/// # Ok::<(), CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelB {
    first_plane_segments: usize,
    upper_plane_segments: usize,
}

impl ModelB {
    /// Model B with the paper's *(first, others)* segment counts.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn with_segments(first: usize, others: usize) -> Self {
        assert!(first > 0 && others > 0, "segment counts must be positive");
        Self {
            first_plane_segments: first,
            upper_plane_segments: others,
        }
    }

    /// Table I's "B (1)": one segment per plane.
    #[must_use]
    pub fn paper_b1() -> Self {
        Self::with_segments(1, 1)
    }

    /// Table I's "B (20)": (2, 20).
    #[must_use]
    pub fn paper_b20() -> Self {
        Self::with_segments(2, 20)
    }

    /// Table I's "B (100)": (10, 100) — the configuration plotted in the
    /// figures.
    #[must_use]
    pub fn paper_b100() -> Self {
        Self::with_segments(10, 100)
    }

    /// Table I's "B (500)": (50, 500).
    #[must_use]
    pub fn paper_b500() -> Self {
        Self::with_segments(50, 500)
    }

    /// The case study's "B (1000)" (§IV-E).
    #[must_use]
    pub fn paper_b1000() -> Self {
        Self::with_segments(50, 1000)
    }

    /// Segments per upper plane (used in display names, e.g. "Model B
    /// (100)").
    #[must_use]
    pub fn upper_plane_segments(&self) -> usize {
        self.upper_plane_segments
    }

    /// Solves the distributed ladder.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`CoreError`].
    pub fn solve(&self, scenario: &Scenario) -> Result<ModelBSolution, CoreError> {
        self.solve_segmented(scenario, &self.segmentation(scenario))
    }

    /// Factorizes the ladder for this scenario's *geometry* into a
    /// [`LadderKernel`]: the KCL matrix (eq. 19)
    /// depends on the stack, the TSV, and the segment scheme but not on
    /// the plane powers, so the kernel answers any power vector on the
    /// same geometry bit-for-bit identically to [`ModelB::solve`]'s
    /// [`ModelBSolution::max_delta_t`].
    ///
    /// # Errors
    ///
    /// Propagates segmentation/solver failures as [`CoreError`].
    pub fn factorize(&self, scenario: &Scenario) -> Result<LadderKernel, CoreError> {
        self.factorize_segmented(scenario, &self.segmentation(scenario))
    }

    /// [`ModelB::factorize`] with an explicit segmentation.
    ///
    /// # Errors
    ///
    /// Propagates segmentation/solver failures as [`CoreError`].
    pub fn factorize_segmented(
        &self,
        scenario: &Scenario,
        segmentation: &Segmentation,
    ) -> Result<LadderKernel, CoreError> {
        let segments = build_segments(scenario, segmentation)?;
        let (rs, heated) = (substrate_resistance(scenario), segmentation.heated());
        ResponseBasis::with(&segments, rs, &heated, LadderKernel::from_basis)
    }

    /// Solves with an explicit segmentation.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`CoreError`].
    pub fn solve_segmented(
        &self,
        scenario: &Scenario,
        segmentation: &Segmentation,
    ) -> Result<ModelBSolution, CoreError> {
        let segments = build_segments(scenario, segmentation)?;
        let rs = substrate_resistance(scenario);
        let t = ResponseBasis::with(&segments, rs, &segmentation.heated(), |basis| {
            basis.temperatures(scenario.plane_powers())
        })??;
        Ok(ModelBSolution::from_parts(&t, segmentation))
    }

    /// This model's *(first, others)* scheme materialized for a stack.
    fn segmentation(&self, scenario: &Scenario) -> Segmentation {
        Segmentation::paper_scheme(
            scenario,
            self.first_plane_segments,
            self.upper_plane_segments,
        )
    }
}

impl ThermalModel for ModelB {
    fn name(&self) -> String {
        format!("Model B ({})", self.upper_plane_segments)
    }

    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
        Ok(self.solve(scenario)?.max_delta_t())
    }

    fn cache_tag(&self) -> String {
        // The display name omits the first-plane segment count, which
        // changes the output bits.
        format!(
            "Model B[{},{}]",
            self.first_plane_segments, self.upper_plane_segments
        )
    }
}

impl crate::scenario::PowerSeparableModel for ModelB {
    type Factorization = LadderKernel;

    fn factorize_geometry(&self, scenario: &Scenario) -> Result<LadderKernel, CoreError> {
        self.factorize(scenario)
    }

    fn solve_with_powers(
        &self,
        factorization: &LadderKernel,
        plane_powers: &[Power],
    ) -> Result<TemperatureDelta, CoreError> {
        factorization.max_delta_t(plane_powers)
    }
}

/// Unfitted lumped substrate resistance `R_s` (eq. 16 with `k₁ = 1`).
fn substrate_resistance(scenario: &Scenario) -> f64 {
    let stack = scenario.stack();
    (stack.planes()[0].t_si() - stack.l_ext()).as_meters()
        / (stack.k_si().as_watts_per_meter_kelvin() * stack.footprint().as_square_meters())
}

/// Materializes the per-segment resistances (eq. 21), bottom → top across
/// all planes.
fn build_segments(
    scenario: &Scenario,
    segmentation: &Segmentation,
) -> Result<Vec<Segment>, CoreError> {
    let stack = scenario.stack();
    if segmentation.per_plane().len() != stack.plane_count() {
        return Err(CoreError::InvalidScenario {
            reason: format!(
                "segmentation covers {} planes, stack has {}",
                segmentation.per_plane().len(),
                stack.plane_count()
            ),
        });
    }
    let mut segments = Vec::with_capacity(segmentation.total());
    for (j, seg) in segmentation.per_plane().iter().enumerate() {
        let d = distributed_plane_resistances(stack, scenario.tsv(), j);
        let n = seg.total();
        if n == 0 {
            return Err(CoreError::InvalidScenario {
                reason: format!("plane {j} has zero segments"),
            });
        }
        let r_fill = d.fill.as_kelvin_per_watt() / n as f64;
        let r_lat = d.liner_lateral.as_kelvin_per_watt() * n as f64;

        if n == 1 {
            // Lumped plane: the single segment carries the whole stack.
            segments.push(Segment {
                r_bulk: (d.bond + d.silicon + d.ild).as_kelvin_per_watt(),
                r_fill,
                r_lat,
            });
            continue;
        }

        // Leftover vertical resistance that has no dedicated segments
        // (bond always; silicon when seg.silicon == 0).
        let mut leftover = d.bond;
        if seg.silicon == 0 {
            leftover += d.silicon;
        }
        for i in 0..seg.silicon {
            let mut r_bulk = d.silicon.as_kelvin_per_watt() / seg.silicon as f64;
            if i == 0 {
                r_bulk += leftover.as_kelvin_per_watt();
                leftover = ThermalResistance::ZERO;
            }
            segments.push(Segment {
                r_bulk,
                r_fill,
                r_lat,
            });
        }
        for i in 0..seg.ild {
            let mut r_bulk = d.ild.as_kelvin_per_watt() / seg.ild as f64;
            if i == 0 && leftover != ThermalResistance::ZERO {
                r_bulk += leftover.as_kelvin_per_watt();
                leftover = ThermalResistance::ZERO;
            }
            segments.push(Segment {
                r_bulk,
                r_fill,
                r_lat,
            });
        }
    }
    Ok(segments)
}

/// Index of each plane's topmost segment.
fn plane_top_segments(segmentation: &Segmentation) -> Vec<usize> {
    let mut tops = Vec::with_capacity(segmentation.per_plane().len());
    let mut acc = 0;
    for p in segmentation.per_plane() {
        acc += p.total();
        tops.push(acc - 1);
    }
    tops
}

/// A solved distributed ladder.
#[derive(Debug, Clone)]
pub struct ModelBSolution {
    /// Temperature at the top of the lumped substrate.
    t0: TemperatureDelta,
    /// Bulk-node temperature per segment, bottom → top.
    bulk: Vec<TemperatureDelta>,
    /// Via-node temperature per segment, bottom → top.
    via: Vec<TemperatureDelta>,
    /// Index of each plane's topmost segment.
    plane_top_segment: Vec<usize>,
}

impl ModelBSolution {
    fn from_parts(t: &[f64], segmentation: &Segmentation) -> Self {
        let n_seg = (t.len() - 1) / 2;
        let t0 = TemperatureDelta::from_kelvin(t[0]);
        let mut bulk = Vec::with_capacity(n_seg);
        let mut via = Vec::with_capacity(n_seg);
        for s in 0..n_seg {
            bulk.push(TemperatureDelta::from_kelvin(t[1 + 2 * s]));
            via.push(TemperatureDelta::from_kelvin(t[2 + 2 * s]));
        }
        Self {
            t0,
            bulk,
            via,
            plane_top_segment: plane_top_segments(segmentation),
        }
    }

    /// Temperature at the top of the lumped first substrate.
    #[must_use]
    pub fn t0(&self) -> TemperatureDelta {
        self.t0
    }

    /// Bulk-node temperatures, bottom → top (one per segment).
    #[must_use]
    pub fn bulk_profile(&self) -> &[TemperatureDelta] {
        &self.bulk
    }

    /// Via-node temperatures, bottom → top (one per segment).
    #[must_use]
    pub fn via_profile(&self) -> &[TemperatureDelta] {
        &self.via
    }

    /// Bulk temperature at the top of each plane.
    #[must_use]
    pub fn plane_top_temperatures(&self) -> Vec<TemperatureDelta> {
        self.plane_top_segment
            .iter()
            .map(|&s| self.bulk[s])
            .collect()
    }

    /// The maximum temperature rise (the paper's `Max ΔT`).
    #[must_use]
    pub fn max_delta_t(&self) -> TemperatureDelta {
        self.bulk
            .iter()
            .chain(self.via.iter())
            .copied()
            .fold(self.t0, TemperatureDelta::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitting::FittingCoefficients;
    use crate::geometry::TtsvConfig;
    use crate::ladder::superpose;
    use crate::model_a::ModelA;
    use ttsv_linalg::BandedMatrix;
    use ttsv_network::{SolverChoice, Terminal, ThermalNetwork};
    use ttsv_units::Length;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn scenario() -> Scenario {
        Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(5.0), um(0.5)))
            .with_ild_thickness(um(7.0))
            .build()
            .unwrap()
    }

    /// Each segment's heat input (eq. 20), derived independently of the
    /// factorization's right-hand-side recipe: a lumped plane takes its
    /// whole power, an ILD segment `q_j / n_D`, a silicon segment none.
    fn segment_heats(scenario: &Scenario, segmentation: &Segmentation) -> Vec<f64> {
        let mut heats = Vec::with_capacity(segmentation.total());
        for (seg, q) in segmentation.per_plane().iter().zip(scenario.plane_powers()) {
            let q = q.as_watts();
            if seg.total() == 1 {
                heats.push(q);
            } else {
                heats.extend(std::iter::repeat_n(0.0, seg.silicon));
                heats.extend(std::iter::repeat_n(q / seg.ild as f64, seg.ild));
            }
        }
        heats
    }

    /// The same ladder through generic banded LU: unknowns
    /// `[T0, B₁, V₁, B₂, V₂, ...]`, bandwidth 2.
    fn solve_banded(
        segmentation: &Segmentation,
        segments: &[Segment],
        heats: &[f64],
        rs: f64,
    ) -> Result<ModelBSolution, CoreError> {
        let n_seg = segments.len();
        let n = 1 + 2 * n_seg;
        let mut m = BandedMatrix::zeros(n, 2, 2);
        let mut rhs = vec![0.0; n];

        let bulk_node = |s: usize| 1 + 2 * s;
        let via_node = |s: usize| 2 + 2 * s;

        // T0 → ground through Rs.
        m.add(0, 0, 1.0 / rs);

        let couple = |m: &mut BandedMatrix, i: usize, j: usize, g: f64| {
            m.add(i, i, g);
            m.add(j, j, g);
            m.add(i, j, -g);
            m.add(j, i, -g);
        };

        for (s, seg) in segments.iter().enumerate() {
            let (below_bulk, below_via) = if s == 0 {
                (0, 0)
            } else {
                (bulk_node(s - 1), via_node(s - 1))
            };
            couple(&mut m, bulk_node(s), below_bulk, 1.0 / seg.r_bulk);
            couple(&mut m, via_node(s), below_via, 1.0 / seg.r_fill);
            couple(&mut m, bulk_node(s), via_node(s), 1.0 / seg.r_lat);
            rhs[bulk_node(s)] += heats[s];
        }

        let t = m.solve(&rhs)?;
        Ok(ModelBSolution::from_parts(&t, segmentation))
    }

    /// The same ladder expressed through the generic
    /// [`ThermalNetwork`] and solved with conjugate gradients.
    fn solve_network(
        segmentation: &Segmentation,
        segments: &[Segment],
        heats: &[f64],
        rs: f64,
    ) -> Result<ModelBSolution, CoreError> {
        let mut net = ThermalNetwork::new();
        let t0 = net.add_node("T0");
        net.add_resistor(
            t0,
            Terminal::Ground,
            ThermalResistance::from_kelvin_per_watt(rs),
        );
        let mut bulk_nodes = Vec::with_capacity(segments.len());
        let mut via_nodes = Vec::with_capacity(segments.len());
        for (s, seg) in segments.iter().enumerate() {
            let b = net.add_node(format!("seg{s}.bulk"));
            let v = net.add_node(format!("seg{s}.via"));
            let (below_b, below_v) = if s == 0 {
                (t0, t0)
            } else {
                (bulk_nodes[s - 1], via_nodes[s - 1])
            };
            net.add_resistor(
                b,
                below_b,
                ThermalResistance::from_kelvin_per_watt(seg.r_bulk),
            );
            net.add_resistor(
                v,
                below_v,
                ThermalResistance::from_kelvin_per_watt(seg.r_fill),
            );
            net.add_resistor(b, v, ThermalResistance::from_kelvin_per_watt(seg.r_lat));
            if heats[s] != 0.0 {
                net.add_source(b, Power::from_watts(heats[s]));
            }
            bulk_nodes.push(b);
            via_nodes.push(v);
        }
        let sol = net
            .solve_with(SolverChoice::ConjugateGradient)
            .expect("the CG reference converges");
        let mut t = Vec::with_capacity(1 + 2 * segments.len());
        t.push(sol.temperature(t0).as_kelvin());
        for s in 0..segments.len() {
            t.push(sol.temperature(bulk_nodes[s]).as_kelvin());
            t.push(sol.temperature(via_nodes[s]).as_kelvin());
        }
        Ok(ModelBSolution::from_parts(&t, segmentation))
    }

    #[test]
    fn segmentation_splits_proportionally() {
        let s = scenario();
        let seg = Segmentation::paper_scheme(&s, 10, 100);
        // Plane 0: l_ext = 1 µm vs tD = 7 µm → si ≈ 1, ild ≈ 9.
        assert_eq!(seg.per_plane()[0].total(), 10);
        assert!(seg.per_plane()[0].silicon >= 1);
        // Upper planes: tSi = 45 vs tD = 7 → si ≈ 87 of 100.
        assert_eq!(seg.per_plane()[1].total(), 100);
        assert!(seg.per_plane()[1].silicon > seg.per_plane()[1].ild);
        assert_eq!(seg.total(), 210);
    }

    #[test]
    fn single_segment_planes_are_lumped() {
        let s = scenario();
        let seg = Segmentation::paper_scheme(&s, 1, 1);
        for p in seg.per_plane() {
            assert_eq!(p.total(), 1);
            assert_eq!(p.silicon, 0);
        }
        // And it still solves.
        let sol = ModelB::paper_b1().solve(&s).unwrap();
        assert!(sol.max_delta_t().as_kelvin() > 0.0);
    }

    #[test]
    fn t0_equals_rs_times_total_power() {
        // All heat exits through Rs, so T0 = Rs·Σq exactly (eq. 6).
        let s = scenario();
        let sol = ModelB::paper_b100().solve(&s).unwrap();
        let rs = substrate_resistance(&s);
        let want = rs * s.total_power().as_watts();
        assert!(
            (sol.t0().as_kelvin() - want).abs() < 1e-9 * want,
            "{} vs {want}",
            sol.t0()
        );
    }

    #[test]
    fn all_three_ladder_solvers_agree() {
        let s = scenario();
        let block = ModelB::paper_b100().solve(&s).unwrap();
        let seg = Segmentation::paper_scheme(&s, 10, 100);
        let segments = build_segments(&s, &seg).unwrap();
        let heats = segment_heats(&s, &seg);
        let rs = substrate_resistance(&s);
        let banded = solve_banded(&seg, &segments, &heats, rs).unwrap();
        let cg = solve_network(&seg, &segments, &heats, rs).unwrap();
        let reference = block.max_delta_t().as_kelvin();
        // The two direct eliminations agree to rounding; CG to its
        // tolerance.
        let banded_dt = banded.max_delta_t().as_kelvin();
        assert!(
            (reference - banded_dt).abs() < 1e-10 * reference,
            "block {reference} vs banded {banded_dt}"
        );
        let cg_dt = cg.max_delta_t().as_kelvin();
        assert!(
            (reference - cg_dt).abs() < 1e-6 * reference,
            "block {reference} vs cg {cg_dt}"
        );
        // The whole profiles, not just the max.
        for (a, b) in block.bulk_profile().iter().zip(banded.bulk_profile()) {
            assert!((a.as_kelvin() - b.as_kelvin()).abs() < 1e-10 * reference);
        }
        for (a, b) in block.via_profile().iter().zip(banded.via_profile()) {
            assert!((a.as_kelvin() - b.as_kelvin()).abs() < 1e-10 * reference);
        }
    }

    #[test]
    fn one_factorization_serves_many_power_vectors() {
        // Scale every plane power: the matrix is power-independent, so the
        // shared factorization must reproduce fresh solves exactly.
        let s = scenario();
        let model = ModelB::paper_b20();
        let fact = model.factorize(&s).unwrap();
        assert_eq!(fact.plane_count(), 3);
        assert_eq!(fact.segment_count(), 42);
        for scale in [0.5, 1.0, 2.25, 7.0] {
            let powers: Vec<Power> = s
                .plane_powers()
                .iter()
                .map(|p| Power::from_watts(p.as_watts() * scale))
                .collect();
            let stack = s.stack().clone();
            let scaled = Scenario::new(
                stack,
                s.tsv().clone(),
                &crate::geometry::HeatLoad::PerPlane(powers.clone()),
            )
            .unwrap();
            let direct = model.solve(&scaled).unwrap().max_delta_t();
            let shared = fact.max_delta_t(&powers).unwrap();
            assert_eq!(
                direct.as_kelvin().to_bits(),
                shared.as_kelvin().to_bits(),
                "scale {scale}: {direct} vs {shared}"
            );
        }
    }

    #[test]
    fn kernel_block_scan_finds_a_winner_that_is_no_candidate() {
        // At 1 W / 10 W / 1 W no candidate (per-plane or all-ones argmax)
        // is the hottest node, so only the block scan can find it — and
        // must find exactly the full profile's maximum.
        let s = scenario();
        let model = ModelB::paper_b100();
        let fact = model.factorize(&s).unwrap();
        let kernel_nodes = fact.candidates.len() / 3 + fact.kept_len;
        assert!(
            kernel_nodes < 1 + 2 * fact.segment_count(),
            "dominance pruning dropped nothing"
        );
        let powers: Vec<Power> = [1.0, 10.0, 1.0].map(Power::from_watts).to_vec();
        let candidates = fact
            .candidates
            .chunks_exact(3)
            .map(|u| superpose(&powers, u))
            .fold(f64::NEG_INFINITY, f64::max);
        let scaled = Scenario::new(
            s.stack().clone(),
            s.tsv().clone(),
            &crate::geometry::HeatLoad::PerPlane(powers.clone()),
        )
        .unwrap();
        let every_node = model.solve(&scaled).unwrap().max_delta_t().as_kelvin();
        assert!(candidates < every_node, "{candidates} vs {every_node}");
        let kernel = fact.max_delta_t(&powers).unwrap().as_kelvin();
        assert_eq!(kernel.to_bits(), every_node.to_bits());
    }

    #[test]
    fn factorization_rejects_wrong_power_count_and_bad_powers() {
        let s = scenario();
        let fact = ModelB::paper_b20().factorize(&s).unwrap();
        assert!(matches!(
            fact.max_delta_t(&[Power::from_watts(1.0)]),
            Err(CoreError::InvalidScenario { .. })
        ));
        let bad = vec![
            Power::from_watts(1.0),
            Power::from_watts(-1.0),
            Power::from_watts(1.0),
        ];
        assert!(matches!(
            fact.max_delta_t(&bad),
            Err(CoreError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn refinement_converges() {
        let s = scenario();
        let d20 = ModelB::paper_b20().max_delta_t(&s).unwrap().as_kelvin();
        let d100 = ModelB::paper_b100().max_delta_t(&s).unwrap().as_kelvin();
        let d500 = ModelB::paper_b500().max_delta_t(&s).unwrap().as_kelvin();
        // Cauchy-style: successive differences shrink.
        assert!(
            (d500 - d100).abs() < (d100 - d20).abs(),
            "{d20}, {d100}, {d500}"
        );
        // And the fine solutions are within 2% of each other.
        assert!((d500 - d100).abs() < 0.02 * d500);
    }

    #[test]
    fn profile_is_monotone_up_the_stack() {
        let s = scenario();
        let sol = ModelB::paper_b100().solve(&s).unwrap();
        // Bulk temperatures must increase monotonically from T0 upward
        // (all heat flows down).
        let profile = sol.bulk_profile();
        assert!(profile[0] >= sol.t0());
        for w in profile.windows(2) {
            assert!(w[1] >= w[0], "bulk profile must be monotone");
        }
        assert_eq!(sol.plane_top_temperatures().len(), 3);
    }

    #[test]
    fn agrees_with_model_a_unity_within_reason() {
        // Model B without fitting ≈ Model A without fitting: same physics,
        // different discretization. Distributing the heat through the ILD
        // and the liner coupling along the via height makes B systematically
        // cooler than the lumped A (that is exactly the discrepancy the
        // paper's k₁/k₂ absorb), but they must stay in the same ballpark.
        let s = scenario();
        let a = ModelA::with_coefficients(FittingCoefficients::unity())
            .max_delta_t(&s)
            .unwrap()
            .as_kelvin();
        let b = ModelB::paper_b100().max_delta_t(&s).unwrap().as_kelvin();
        assert!(
            b < a,
            "distributed B ({b}) should run cooler than lumped A ({a})"
        );
        assert!(
            (a - b).abs() < 0.35 * a,
            "Model A (unity) {a} vs Model B {b}"
        );
    }

    #[test]
    fn delta_t_trends_match_model_a() {
        // Radius down, liner up, substrate non-monotonic.
        let model = ModelB::paper_b100();
        let dt_r = |r: f64| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(r), um(0.5)))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        assert!(dt_r(15.0) < dt_r(8.0));
        assert!(dt_r(8.0) < dt_r(3.0));

        let dt_tsi = |t: f64| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(8.0), um(1.0)))
                .with_ild_thickness(um(7.0))
                .with_upper_si_thickness(um(t))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        let (a5, a20, a80) = (dt_tsi(5.0), dt_tsi(20.0), dt_tsi(80.0));
        assert!(a20 < a5, "non-monotonic dip: {a5} → {a20}");
        assert!(a80 > a20, "non-monotonic rise: {a20} → {a80}");
    }

    #[test]
    fn explicit_segmentation_requires_ild_segments() {
        let s = scenario();
        let seg = Segmentation::explicit(vec![
            PlaneSegments { silicon: 1, ild: 2 },
            PlaneSegments { silicon: 5, ild: 2 },
            PlaneSegments { silicon: 5, ild: 2 },
        ]);
        let sol = ModelB::paper_b100().solve_segmented(&s, &seg).unwrap();
        assert!(sol.max_delta_t().as_kelvin() > 0.0);
    }

    #[test]
    #[should_panic(expected = "ILD segment")]
    fn zero_ild_segments_rejected() {
        let _ = Segmentation::explicit(vec![PlaneSegments { silicon: 1, ild: 0 }]);
    }

    #[test]
    fn segmentation_mismatch_is_an_error() {
        let s = scenario();
        let seg = Segmentation::explicit(vec![PlaneSegments { silicon: 1, ild: 1 }]);
        assert!(matches!(
            ModelB::paper_b100().solve_segmented(&s, &seg),
            Err(CoreError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn model_name_includes_segment_count() {
        assert_eq!(ModelB::paper_b100().name(), "Model B (100)");
        assert_eq!(ModelB::paper_b1().name(), "Model B (1)");
    }
}
