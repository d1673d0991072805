//! Model B — the distributed π-segment TTSV model (paper §III).
//!
//! Each plane is split into `n_j` π-segments (eq. 21): silicon segments at
//! the bottom (the first carries the bonding-layer resistance), ILD segments
//! on top. Every segment contributes a vertical bulk resistor, a vertical
//! via-fill resistor (`R_M/n`), and a lateral liner resistor (`n·R_L`);
//! plane heat enters the ILD bulk nodes as `q_j/n_D` (eq. 20). The KCL
//! system (eq. 19) is the shared [ladder](crate::ladder); a generic banded
//! LU and a CG path over it remain in the tests as cross-checks.

use ttsv_units::{TemperatureDelta, ThermalResistance};

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
        Ok(LadderKernel::from_basis(ladder(scenario, segmentation)?))
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
        let t = ladder(scenario, segmentation)?.temperatures(scenario.plane_powers())?;
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
}

impl crate::scenario::PowerSeparableModel for ModelB {
    fn factorize_geometry(&self, scenario: &Scenario) -> Result<LadderKernel, CoreError> {
        self.factorize(scenario)
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

/// Unfitted lumped substrate resistance `R_s` (eq. 16 with `k₁ = 1`).
fn substrate_resistance(scenario: &Scenario) -> f64 {
    let stack = scenario.stack();
    (stack.planes()[0].t_si() - stack.l_ext()).as_meters()
        / (stack.k_si().as_watts_per_meter_kelvin() * stack.footprint().as_square_meters())
}

/// The unit-response basis of the segmented ladder, grounded through the
/// unfitted `R_s`, each plane's power shared by its heated segments.
fn ladder(scenario: &Scenario, segmentation: &Segmentation) -> Result<ResponseBasis, CoreError> {
    let pieces = build_pieces(scenario, segmentation)?;
    let rs = substrate_resistance(scenario);
    ResponseBasis::new(&pieces, rs, &segmentation.heated())
}

/// The per-segment resistances (eq. 21), bottom → top across all planes,
/// as `(segment, count)` pieces: at most four per plane (the first
/// silicon segment, carrying the bond, then the rest of the silicon; the
/// first ILD segment when it carries the leftover, then the rest).
fn build_pieces(
    scenario: &Scenario,
    segmentation: &Segmentation,
) -> Result<Vec<(Segment, usize)>, CoreError> {
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
    let mut pieces = Vec::with_capacity(4 * stack.plane_count());
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
        let mut push = |r_bulk: f64, count: usize| {
            if count > 0 {
                let segment = Segment {
                    r_bulk,
                    r_fill,
                    r_lat,
                };
                pieces.push((segment, count));
            }
        };

        if n == 1 {
            // Lumped plane: the single segment carries the whole stack.
            push((d.bond + d.silicon + d.ild).as_kelvin_per_watt(), 1);
            continue;
        }

        // Leftover vertical resistance that has no dedicated segments
        // (bond always; silicon when seg.silicon == 0), carried by the
        // plane's first segment.
        if seg.silicon > 0 {
            let r_si = d.silicon.as_kelvin_per_watt() / seg.silicon as f64;
            push(r_si + d.bond.as_kelvin_per_watt(), 1);
            push(r_si, seg.silicon - 1);
        }
        let r_ild = d.ild.as_kelvin_per_watt() / seg.ild as f64;
        let leftover = d.bond + d.silicon;
        if seg.silicon == 0 && leftover != ThermalResistance::ZERO {
            push(r_ild + leftover.as_kelvin_per_watt(), 1);
            push(r_ild, seg.ild - 1);
        } else {
            push(r_ild, seg.ild);
        }
    }
    Ok(pieces)
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
pub(crate) mod tests {
    use super::*;
    use crate::fitting::FittingCoefficients;
    use crate::geometry::TtsvConfig;
    use crate::ladder::superpose;
    use crate::model_a::ModelA;
    use proptest::prelude::*;
    use ttsv_linalg::{BandedMatrix, BlockTridiagonal, BlockTridiagonalLu};
    use ttsv_network::{SolverChoice, Terminal, ThermalNetwork};
    use ttsv_units::{Length, Power};

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

    /// The ladder's segments one by one, bottom → top.
    fn segments(scenario: &Scenario, segmentation: &Segmentation) -> Vec<Segment> {
        build_pieces(scenario, segmentation)
            .unwrap()
            .iter()
            .flat_map(|&(segment, count)| std::iter::repeat_n(segment, count))
            .collect()
    }

    /// Assembles and factorizes the full ladder in its natural 2×2
    /// block-tridiagonal form, for block Thomas elimination over every
    /// segment — the reference the run condensation is checked against.
    ///
    /// Unknowns are padded to an even count — block 0 is `(T₀, dummy)`
    /// with a decoupled unit-diagonal dummy, block `s + 1` is
    /// `(B_s, V_s)` — so T₀'s coupling to both first-segment nodes lands
    /// in the single off-diagonal block between blocks 0 and 1.
    fn factorize_ladder(segments: &[Segment], rs: f64) -> BlockTridiagonalLu {
        let n_seg = segments.len();
        let nb = n_seg + 1;
        let conductances = |seg: &Segment| (1.0 / seg.r_bulk, 1.0 / seg.r_fill);
        let mut diag = Vec::with_capacity(nb);
        let mut lower = Vec::with_capacity(nb - 1);
        let mut upper = Vec::with_capacity(nb - 1);
        let (mut gb, mut gf) = conductances(&segments[0]);
        diag.push([1.0 / rs + gb + gf, 0.0, 0.0, 1.0]);
        upper.push([-gb, -gf, 0.0, 0.0]);
        lower.push([-gb, 0.0, -gf, 0.0]);
        for (s, seg) in segments.iter().enumerate() {
            let (up_b, up_f) = segments.get(s + 1).map_or((0.0, 0.0), conductances);
            let lat = 1.0 / seg.r_lat;
            diag.push([gb + lat + up_b, -lat, -lat, gf + lat + up_f]);
            if s + 1 < n_seg {
                upper.push([-up_b, 0.0, 0.0, -up_f]);
                lower.push([-up_b, 0.0, 0.0, -up_f]);
            }
            (gb, gf) = (up_b, up_f);
        }
        BlockTridiagonal::from_blocks(diag, lower, upper)
            .factorize()
            .expect("the ladder is SPD")
    }

    /// Every node's responses to one watt on each plane by block Thomas
    /// over the full ladder — `heated[p]`'s segments sharing plane `p`'s
    /// watt — node-major in `[T0, B₁, V₁, …]` order: the path before the
    /// run condensation, bit for bit.
    pub(crate) fn block_thomas_responses(
        segments: &[Segment],
        rs: f64,
        heated: &[std::ops::Range<usize>],
    ) -> Vec<Vec<f64>> {
        let lu = factorize_ladder(segments, rs);
        let columns: Vec<Vec<f64>> = heated
            .iter()
            .map(|segs| lu.solve(&unit_heat(lu.dim(), segs)).unwrap())
            .collect();
        node_major(&columns)
    }

    /// One watt shared by `segs`' bulk nodes, over the padded unknowns.
    fn unit_heat(dim: usize, segs: &std::ops::Range<usize>) -> Vec<f64> {
        let mut rhs = vec![0.0; dim];
        for s in segs.clone() {
            rhs[2 * s + 2] = 1.0 / segs.len() as f64;
        }
        rhs
    }

    /// Unknown-indexed columns, one per plane, as node-major responses
    /// (unknown 1 is the dummy).
    fn node_major(columns: &[Vec<f64>]) -> Vec<Vec<f64>> {
        (0..columns[0].len())
            .filter(|&i| i != 1)
            .map(|i| columns.iter().map(|x| x[i]).collect())
            .collect()
    }

    /// [`block_thomas_responses`] after one step of iterative refinement
    /// whose residual is summed as branch fluxes `g·(T_i − T_j)`, never
    /// as `diag·T_i − Σ g·T_j`: a long run's diagonal `2g_b + g_l` holds
    /// its liner rung, `g_l ≈ 10⁻⁵·g_b` on the serving cell, at a
    /// relative precision of only `ε·g_b/g_l`, so block Thomas alone errs
    /// by up to ~1e-8 on `B(1000)` ladders. The refined responses are
    /// accurate to ~1e-13 — the reference the closed form is held to.
    const REFINEMENTS: usize = 3;

    pub(crate) fn refined_block_thomas_responses(
        segments: &[Segment],
        rs: f64,
        heated: &[std::ops::Range<usize>],
    ) -> Vec<Vec<f64>> {
        let lu = factorize_ladder(segments, rs);
        let g = |s: usize| {
            let seg = &segments[s];
            (1.0 / seg.r_bulk, 1.0 / seg.r_fill, 1.0 / seg.r_lat)
        };
        let columns: Vec<Vec<f64>> = heated
            .iter()
            .map(|segs| {
                let heat = unit_heat(lu.dim(), segs);
                let mut x = lu.solve(&heat).unwrap();
                for _ in 0..REFINEMENTS {
                    let (g0b, g0f, _) = g(0);
                    let mut r = heat.clone();
                    r[0] -= x[0] / rs + g0b * (x[0] - x[2]) + g0f * (x[0] - x[3]);
                    for s in 0..segments.len() {
                        let (gb, gf, gl) = g(s);
                        let (b, v) = (x[2 * s + 2], x[2 * s + 3]);
                        let (below_b, below_v) = if s == 0 {
                            (x[0], x[0])
                        } else {
                            (x[2 * s], x[2 * s + 1])
                        };
                        r[2 * s + 2] -= gb * (b - below_b) + gl * (b - v);
                        r[2 * s + 3] -= gf * (v - below_v) + gl * (v - b);
                        if s + 1 < segments.len() {
                            let (ub, uf, _) = g(s + 1);
                            r[2 * s + 2] -= ub * (b - x[2 * s + 4]);
                            r[2 * s + 3] -= uf * (v - x[2 * s + 5]);
                        }
                    }
                    for (x, dx) in x.iter_mut().zip(lu.solve(&r).unwrap()) {
                        *x += dx;
                    }
                }
                x
            })
            .collect();
        node_major(&columns)
    }

    /// The same ladder through (refined) block Thomas over all its
    /// segments, the plane powers superposed as the models do.
    fn solve_block_thomas(
        scenario: &Scenario,
        segmentation: &Segmentation,
        refine: bool,
    ) -> ModelBSolution {
        let segments = segments(scenario, segmentation);
        let (rs, heated) = (substrate_resistance(scenario), segmentation.heated());
        let responses = if refine {
            refined_block_thomas_responses(&segments, rs, &heated)
        } else {
            block_thomas_responses(&segments, rs, &heated)
        };
        let t: Vec<f64> = responses
            .iter()
            .map(|u| superpose(scenario.plane_powers(), u))
            .collect();
        ModelBSolution::from_parts(&t, segmentation)
    }

    /// The largest relative difference of any node temperature between
    /// two solutions of one ladder (0 where both are exactly zero).
    fn max_relative_difference(a: &ModelBSolution, b: &ModelBSolution) -> f64 {
        let nodes = |s: &ModelBSolution| {
            std::iter::once(s.t0())
                .chain(s.bulk_profile().iter().copied())
                .chain(s.via_profile().iter().copied())
                .map(TemperatureDelta::as_kelvin)
                .collect::<Vec<f64>>()
        };
        nodes(a)
            .iter()
            .zip(nodes(b))
            .map(|(x, y)| {
                if *x == y {
                    0.0
                } else {
                    (x - y).abs() / y.abs()
                }
            })
            .fold(0.0, f64::max)
    }

    /// A segmentation drawn for the closed-form property test: the
    /// paper's schemes B(1) … B(1000), or explicit per-plane counts with
    /// lumped and `silicon: 0` planes and runs of one to three segments.
    fn drawn_segmentation(
        scenario: &Scenario,
        scheme: usize,
        per_plane: &[(usize, usize, usize, usize, usize)],
    ) -> Segmentation {
        let paper = [
            (1, 1),
            (2, 20),
            (10, 100),
            (50, 500),
            (50, 1000),
            (10, 1000),
        ];
        if let Some(&(first, others)) = paper.get(scheme) {
            return Segmentation::paper_scheme(scenario, first, others);
        }
        let planes = scenario.stack().plane_count();
        Segmentation::explicit(
            per_plane[..planes]
                .iter()
                .map(|&(kind, si, ild, long_si, long_ild)| match kind {
                    0 => PlaneSegments { silicon: 0, ild: 1 },
                    1 => PlaneSegments { silicon: 0, ild },
                    2 => PlaneSegments { silicon: si, ild },
                    _ => PlaneSegments {
                        silicon: long_si,
                        ild: long_ild,
                    },
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The run condensation agrees with refined block Thomas over the
        /// full ladder to a relative 1e-9 at every node, over random stacks,
        /// TSVs, segmentations and non-negative powers with exact zeros.
        #[test]
        fn closed_form_matches_block_thomas(
            (r, tl, t_ild, t_si, planes) in
                (1.0..20.0f64, 0.2..3.0f64, 2.0..10.0f64, 5.0..80.0f64, 2usize..6),
            scheme in 0usize..10,
            per_plane in prop::collection::vec(
                (0usize..4, 0usize..4, 1usize..4, 0usize..400, 1usize..200), 5),
            watts in prop::collection::vec(prop::collection::vec((0usize..4, -6.0..3.0f64), 5), 3),
        ) {
            let build = |watts: &[(usize, f64)]| {
                let powers = watts[..planes]
                    .iter()
                    .map(|&(zero, exp)| Power::from_watts(if zero == 0 { 0.0 } else { 10f64.powf(exp) }))
                    .collect();
                Scenario::paper_block()
                    .with_tsv(TtsvConfig::new(um(r), um(tl)))
                    .with_ild_thickness(um(t_ild))
                    .with_upper_si_thickness(um(t_si))
                    .with_planes(planes)
                    .with_load(crate::geometry::HeatLoad::PerPlane(powers))
                    .build()
                    .unwrap()
            };
            let seg = drawn_segmentation(&build(&watts[0]), scheme, &per_plane);
            for w in &watts {
                let s = build(w);
                let closed = ModelB::paper_b100().solve_segmented(&s, &seg).unwrap();
                let diff = max_relative_difference(&closed, &solve_block_thomas(&s, &seg, true));
                prop_assert!(diff <= 1e-9, "relative difference {diff:e} at {:?}", s.plane_powers());
            }
        }
    }

    /// The stated bound, against refined block Thomas, on the paper's own
    /// scenarios: the Fig. 4 radius
    /// and Fig. 5 liner sweeps (Table I's) at B(1) … B(1000), and the
    /// §IV-E serving cell at B(10, 1000).
    #[test]
    fn closed_form_matches_block_thomas_on_the_paper_scenarios() {
        let mut scenarios: Vec<(Scenario, (usize, usize))> = Vec::new();
        let sweeps = [1.0, 3.0, 5.0, 8.0, 14.0, 20.0]
            .map(|r| (r, 0.5, 0.0))
            .into_iter()
            .chain([0.1, 0.5, 1.0, 2.0, 3.0].map(|tl| (5.0, tl, 45.0)));
        for (r, tl, t_si) in sweeps {
            let mut block = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(r), um(tl)))
                .with_ild_thickness(um(7.0));
            if t_si > 0.0 {
                block = block.with_upper_si_thickness(um(t_si));
            }
            let s = block.build().unwrap();
            for scheme in [(1, 1), (2, 20), (10, 100), (50, 500), (50, 1000)] {
                scenarios.push((s.clone(), scheme));
            }
        }
        let cell = crate::full_chip::CaseStudy::paper()
            .unit_cell_scenario()
            .unwrap();
        scenarios.push((cell, (10, 1000)));
        let (mut worst, mut worst_plain): (f64, f64) = (0.0, 0.0);
        for (s, (first, others)) in &scenarios {
            let seg = Segmentation::paper_scheme(s, *first, *others);
            let closed = ModelB::with_segments(*first, *others).solve(s).unwrap();
            let refined = solve_block_thomas(s, &seg, true);
            worst = worst.max(max_relative_difference(&closed, &refined));
            let plain = solve_block_thomas(s, &seg, false);
            worst_plain = worst_plain.max(max_relative_difference(&plain, &refined));
        }
        eprintln!(
            "largest relative difference from refined block Thomas: closed form {worst:e}, \
             plain block Thomas {worst_plain:e}"
        );
        assert!(worst <= 1e-9, "closed form: {worst:e}");
        // Plain block Thomas is the less accurate of the two.
        assert!(worst < worst_plain, "{worst:e} vs {worst_plain:e}");
    }

    /// The serving kernel — B(10, 1000) on the §IV-E cell, the one every
    /// resident session holds — fits in 4 KB: it keeps the ladder's closed
    /// form per run, not the 2,006 undominated node responses (52,064
    /// bytes) the node-wise kernel kept.
    #[test]
    fn serving_kernel_is_no_larger_than_before() {
        let cell = crate::full_chip::CaseStudy::paper()
            .unit_cell_scenario()
            .unwrap();
        let kernel = ModelB::with_segments(10, 1000).factorize(&cell).unwrap();
        let bytes = kernel.heap_bytes();
        eprintln!("serving kernel: {bytes} bytes");
        assert!(bytes <= 4_096, "{bytes} bytes");
    }

    /// A kernel is sized by its own ladder, not by what its thread built
    /// before: after a ladder with ten times the segments and one with
    /// more planes on this thread, the serving kernel holds the bytes a
    /// fresh thread's does, within 4 KB.
    #[test]
    fn serving_kernel_is_sized_by_its_own_ladder() {
        let serving = || {
            let cell = crate::full_chip::CaseStudy::paper()
                .unit_cell_scenario()
                .unwrap();
            ModelB::with_segments(10, 1000)
                .factorize(&cell)
                .unwrap()
                .heap_bytes()
        };
        let fresh = std::thread::spawn(serving).join().unwrap();
        let cell = crate::full_chip::CaseStudy::paper()
            .unit_cell_scenario()
            .unwrap();
        ModelB::with_segments(1000, 10000).factorize(&cell).unwrap();
        let five_planes = Scenario::paper_block().with_planes(5).build().unwrap();
        ModelB::with_segments(10, 1000)
            .factorize(&five_planes)
            .unwrap();
        let after = serving();
        assert_eq!(
            after, fresh,
            "{after} bytes after larger ladders, {fresh} fresh"
        );
        assert!(after <= 4_096, "{after} bytes");
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

    /// The run condensation against the three full-ladder solvers:
    /// refined block Thomas, banded LU and CG.
    #[test]
    fn all_three_ladder_solvers_agree() {
        let s = scenario();
        let closed = ModelB::paper_b100().solve(&s).unwrap();
        let seg = Segmentation::paper_scheme(&s, 10, 100);
        let segments = segments(&s, &seg);
        let heats = segment_heats(&s, &seg);
        let rs = substrate_resistance(&s);
        let thomas = solve_block_thomas(&s, &seg, true);
        let banded = solve_banded(&seg, &segments, &heats, rs).unwrap();
        let cg = solve_network(&seg, &segments, &heats, rs).unwrap();
        // The run condensation and the two direct eliminations agree to
        // rounding, node by node; CG to its tolerance.
        for (name, other, tol) in [
            ("block Thomas", &thomas, 1e-9),
            ("banded", &banded, 1e-9),
            ("cg", &cg, 1e-6),
        ] {
            let diff = max_relative_difference(&closed, other);
            assert!(diff <= tol, "closed form vs {name}: {diff:e}");
        }
        assert!(max_relative_difference(&thomas, &banded) < 1e-10);
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

    /// The max over `T₀` and the top bulk and via nodes of every piece
    /// (a superset of the run tops, the kernel's end nodes), superposed
    /// under `powers`.
    fn end_node_max(s: &Scenario, seg: &Segmentation, powers: &[Power]) -> f64 {
        let scaled = Scenario::new(
            s.stack().clone(),
            s.tsv().clone(),
            &crate::geometry::HeatLoad::PerPlane(powers.to_vec()),
        )
        .unwrap();
        let sol = ModelB::paper_b100().solve_segmented(&scaled, seg).unwrap();
        let mut max = sol.t0().as_kelvin();
        let mut top = 0;
        for (_, count) in build_pieces(&scaled, seg).unwrap() {
            top += count;
            for t in [sol.bulk_profile()[top - 1], sol.via_profile()[top - 1]] {
                max = max.max(t.as_kelvin());
            }
        }
        max
    }

    #[test]
    fn kernel_block_scan_finds_a_winner_that_is_no_candidate() {
        // At 0 W / 10 W / 0.1 W no end node is the hottest node (plane 1's
        // heat peaks inside its run), so only the run analysis can find it
        // — and must find exactly the full profile's maximum.
        let s = scenario();
        let model = ModelB::paper_b100();
        let seg = Segmentation::paper_scheme(&s, 10, 100);
        let fact = model.factorize(&s).unwrap();
        let powers: Vec<Power> = [0.0, 10.0, 0.1].map(Power::from_watts).to_vec();
        let scaled = Scenario::new(
            s.stack().clone(),
            s.tsv().clone(),
            &crate::geometry::HeatLoad::PerPlane(powers.clone()),
        )
        .unwrap();
        let every_node = model.solve(&scaled).unwrap().max_delta_t().as_kelvin();
        let ends = end_node_max(&s, &seg, &powers);
        assert!(ends < every_node, "{ends} vs {every_node}");
        let kernel = fact.max_delta_t(&powers).unwrap().as_kelvin();
        assert_eq!(kernel.to_bits(), every_node.to_bits());
    }

    #[test]
    fn kernel_run_analysis_finds_an_interior_winner_on_the_serving_cell() {
        // On the case-study cell at the serving segmentation, B(10, 1000),
        // at 0 W / 3 W / 0.1 W no end node is the hottest node: the winner
        // is interior to a run, so only the analysis of a run whose bound
        // beats the end nodes finds it — and must find exactly the full
        // profile's maximum. The zero-power plane also superposes the
        // one-segment runs' `−∞` bounds to NaN, which must be skipped.
        let s = crate::full_chip::CaseStudy::paper()
            .unit_cell_scenario()
            .unwrap();
        let model = ModelB::with_segments(10, 1000);
        let seg = Segmentation::paper_scheme(&s, 10, 1000);
        let fact = model.factorize(&s).unwrap();
        let powers: Vec<Power> = [0.0, 3.0, 0.1].map(Power::from_watts).to_vec();
        let scaled = Scenario::new(
            s.stack().clone(),
            s.tsv().clone(),
            &crate::geometry::HeatLoad::PerPlane(powers.clone()),
        )
        .unwrap();
        let every_node = model.solve(&scaled).unwrap().max_delta_t().as_kelvin();
        let ends = end_node_max(&s, &seg, &powers);
        assert!(ends < every_node, "{ends} vs {every_node}");
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
