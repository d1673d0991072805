//! Mapping a [`Scenario`] onto the finite-volume reference solver.
//!
//! The paper validates against COMSOL on the true 3-D geometry; we
//! substitute the axisymmetric unit cell (DESIGN.md §3): the (square)
//! footprint becomes an equal-area disc, a cluster of `n` vias becomes `n`
//! identical cells each carrying `1/n` of the heat, and each plane's power
//! enters a thin device sheet on top of its substrate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ttsv_core::scenario::{Scenario, ThermalModel};
use ttsv_core::CoreError;
use ttsv_fem::axisym::{AxisymSolution, AxisymmetricProblem};
use ttsv_fem::{Axis, FemSolver, MultigridContext, MultigridHierarchy};
use ttsv_units::{Area, Length, TemperatureDelta};

/// Mesh-resolution knobs for the reference solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FemResolution {
    /// Radial cells across the via fill.
    pub fill_cells: usize,
    /// Radial cells across the liner.
    pub liner_cells: usize,
    /// Radial cells from the liner to the cell edge.
    pub bulk_cells: usize,
    /// Vertical cells in the thick first substrate.
    pub si1_cells: usize,
    /// Vertical cells per upper-plane substrate.
    pub si_cells: usize,
    /// Vertical cells per ILD layer.
    pub ild_cells: usize,
    /// Vertical cells per bonding layer.
    pub bond_cells: usize,
    /// Vertical cells for the device sheet.
    pub device_cells: usize,
}

impl Default for FemResolution {
    fn default() -> Self {
        Self {
            fill_cells: 5,
            liner_cells: 3,
            bulk_cells: 18,
            si1_cells: 14,
            si_cells: 10,
            ild_cells: 5,
            bond_cells: 3,
            device_cells: 2,
        }
    }
}

impl FemResolution {
    /// A coarser mesh for quick sweeps (~2× fewer cells per axis).
    #[must_use]
    pub fn coarse() -> Self {
        Self {
            fill_cells: 3,
            liner_cells: 2,
            bulk_cells: 10,
            si1_cells: 8,
            si_cells: 6,
            ild_cells: 3,
            bond_cells: 2,
            device_cells: 1,
        }
    }

    /// A finer mesh for convergence checks (~1.5× more cells per axis).
    #[must_use]
    pub fn fine() -> Self {
        Self {
            fill_cells: 8,
            liner_cells: 5,
            bulk_cells: 28,
            si1_cells: 22,
            si_cells: 16,
            ild_cells: 8,
            bond_cells: 5,
            device_cells: 3,
        }
    }
}

/// Warm-start cache: the latest solved temperature field per mesh shape.
/// Shared across clones (one sweep shares one cache between its worker
/// threads); keyed by `(nr, nz)` so a guess is only ever applied to a
/// mesh of identical layout.
type WarmCache = Arc<Mutex<HashMap<(usize, usize), Vec<f64>>>>;

/// Multigrid-hierarchy pool: reusable smoothed-aggregation setups per mesh
/// shape, shared across clones exactly like [`WarmCache`]. A solve pops a
/// hierarchy, numerically refreshes it for its matrix values, and returns
/// it — so an entire sweep over one mesh re-runs aggregation zero times
/// after the first point (each concurrent worker at most once).
type MgPool<K> = Arc<Mutex<HashMap<K, Vec<MultigridHierarchy>>>>;

/// The FEM reference model: a [`ThermalModel`] backed by the axisymmetric
/// finite-volume solver.
///
/// ```no_run
/// use ttsv_core::prelude::*;
/// use ttsv_validate::fem_adapter::FemReference;
///
/// let scenario = Scenario::paper_block().build()?;
/// let fem = FemReference::new();
/// let dt = fem.max_delta_t(&scenario)?;
/// assert!(dt.as_kelvin() > 0.0);
/// # Ok::<(), CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FemReference {
    resolution: FemResolution,
    device_thickness: Length,
    solver: FemSolver,
    warm: WarmCache,
    mg: MgPool<(usize, usize)>,
    /// Full hierarchy builds performed on the iterative path (shared
    /// across clones) — sweep tests assert this stays at one per mesh.
    mg_builds: Arc<AtomicUsize>,
}

impl Default for FemReference {
    fn default() -> Self {
        Self::new()
    }
}

impl FemReference {
    /// Reference solver at the default resolution, with a 1 µm device
    /// sheet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            resolution: FemResolution::default(),
            device_thickness: Length::from_micrometers(1.0),
            solver: FemSolver::default(),
            warm: Arc::new(Mutex::new(HashMap::new())),
            mg: Arc::new(Mutex::new(HashMap::new())),
            mg_builds: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// How many full multigrid hierarchy builds (aggregation + Galerkin
    /// pattern discovery) the iterative path has performed across all
    /// clones sharing this reference. Solves that reuse a pooled
    /// hierarchy only refresh it numerically and do not count.
    #[must_use]
    pub fn multigrid_builds(&self) -> usize {
        self.mg_builds.load(Ordering::Relaxed)
    }

    /// Overrides the mesh resolution.
    #[must_use]
    pub fn with_resolution(mut self, resolution: FemResolution) -> Self {
        self.resolution = resolution;
        self
    }

    /// Overrides the linear solver (default: [`FemSolver::Auto`]).
    #[must_use]
    pub fn with_solver(mut self, solver: FemSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the device-sheet thickness (clamped to the substrate in
    /// `build_problem`).
    #[must_use]
    pub fn with_device_thickness(mut self, thickness: Length) -> Self {
        self.device_thickness = thickness;
        self
    }

    /// Builds the axisymmetric problem for a scenario (exposed so tests and
    /// benches can inspect mesh sizes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] if the via does not fit its
    /// unit cell.
    pub fn build_problem(&self, scenario: &Scenario) -> Result<AxisymmetricProblem, CoreError> {
        let stack = scenario.stack();
        let tsv = scenario.tsv();
        let res = &self.resolution;
        let n_via = tsv.count() as f64;

        // Unit cell: footprint / count, mapped to an equal-area disc.
        let cell_area = Area::from_square_meters(stack.footprint().as_square_meters() / n_via);
        let r_cell = cell_area.equivalent_radius();
        let r_via = tsv.radius();
        let r_liner = tsv.radius() + tsv.liner_thickness();
        if r_liner >= r_cell {
            return Err(CoreError::InvalidScenario {
                reason: format!("via + liner ({r_liner}) does not fit its unit cell ({r_cell})"),
            });
        }

        let r_axis = Axis::builder()
            .segment(r_via, res.fill_cells)
            .segment(tsv.liner_thickness(), res.liner_cells)
            .segment(r_cell - r_liner, res.bulk_cells)
            .build();

        // Vertical layout, bottom → top. Track layer boundaries for
        // material/source assignment.
        struct ZLayer {
            thickness: Length,
            cells: usize,
            kind: LayerKind,
        }
        #[derive(Clone, Copy, PartialEq)]
        enum LayerKind {
            Silicon,
            Device, // silicon that also carries the plane's heat
            Ild,
            Bond,
        }
        let dev_t = |t_si: Length| -> Length {
            // Device sheet cannot exceed half the substrate.
            let cap = t_si * 0.5;
            self.device_thickness.min(cap)
        };

        let mut layers: Vec<(ZLayer, usize)> = Vec::new(); // (layer, plane index)
        for (j, p) in stack.planes().iter().enumerate() {
            if j > 0 {
                layers.push((
                    ZLayer {
                        thickness: p.t_bond_below(),
                        cells: res.bond_cells,
                        kind: LayerKind::Bond,
                    },
                    j,
                ));
            }
            let d = dev_t(p.t_si());
            let body = p.t_si() - d;
            let body_cells = if j == 0 { res.si1_cells } else { res.si_cells };
            layers.push((
                ZLayer {
                    thickness: body,
                    cells: body_cells,
                    kind: LayerKind::Silicon,
                },
                j,
            ));
            layers.push((
                ZLayer {
                    thickness: d,
                    cells: res.device_cells,
                    kind: LayerKind::Device,
                },
                j,
            ));
            layers.push((
                ZLayer {
                    thickness: p.t_ild(),
                    cells: res.ild_cells,
                    kind: LayerKind::Ild,
                },
                j,
            ));
        }

        let mut zb = Axis::builder();
        for (l, _) in &layers {
            zb = zb.segment(l.thickness, l.cells);
        }
        let z_axis = zb.build();

        let mut prob = AxisymmetricProblem::new(r_axis, z_axis, stack.k_si());

        // Material bands across the full radius.
        let full_r = (Length::ZERO, r_cell);
        let mut z0 = Length::ZERO;
        let mut layer_spans: Vec<(Length, Length, LayerKind, usize)> = Vec::new();
        for (l, j) in &layers {
            let z1 = z0 + l.thickness;
            layer_spans.push((z0, z1, l.kind, *j));
            match l.kind {
                LayerKind::Ild => prob.set_material(full_r, (z0, z1), stack.k_ild()),
                LayerKind::Bond => prob.set_material(full_r, (z0, z1), stack.k_bond()),
                LayerKind::Silicon | LayerKind::Device => {} // background
            }
            z0 = z1;
        }
        let z_top = z0;

        // Via fill + liner columns over the via's vertical extent:
        // from (t_Si1 − l_ext) up to the top plane's silicon top.
        let via_bottom = stack.planes()[0].t_si() - stack.l_ext();
        let top_plane = stack.plane_count() - 1;
        let via_top = z_top - stack.planes()[top_plane].t_ild();
        prob.set_material((Length::ZERO, r_via), (via_bottom, via_top), tsv.k_fill());
        prob.set_material((r_via, r_liner), (via_bottom, via_top), tsv.k_liner());

        // Heat: plane power into the device sheet volume of its plane,
        // scaled to the unit cell (1/count).
        for (z_lo, z_hi, kind, j) in &layer_spans {
            if *kind == LayerKind::Device {
                let volume = cell_area * (*z_hi - *z_lo);
                let power = scenario.plane_powers()[*j] * (1.0 / n_via);
                let density = power / volume;
                prob.add_source(full_r, (*z_lo, *z_hi), density);
            }
        }
        // Sanity: sources integrate back to the cell share of total power.
        debug_assert!(
            (prob.total_source_power().as_watts() - scenario.total_power().as_watts() / n_via)
                .abs()
                < 1e-9 * scenario.total_power().as_watts().max(1e-30)
        );

        Ok(prob)
    }

    /// Runs the reference solve and returns the full field.
    ///
    /// Successive solves on meshes of the same shape (every point of a
    /// parameter sweep) warm-start PCG from the previous field via a cache
    /// shared across clones; the direct solver ignores the guess, and the
    /// warm start never changes what the solve converges to — only how
    /// fast it gets there.
    ///
    /// # Errors
    ///
    /// Propagates mesh/solver failures as [`CoreError::InvalidScenario`].
    pub fn solve(&self, scenario: &Scenario) -> Result<AxisymSolution, CoreError> {
        let mut prob = self.build_problem(scenario)?;
        prob.set_solver(self.solver);
        // The warm-start and hierarchy caches only matter on the iterative
        // path; the direct banded solver (the `Auto` resolution on every
        // standard mesh) ignores them, so skip the lock-and-clone entirely.
        let iterative = prob.resolved_solver() == FemSolver::Multigrid;
        let key = (prob.nr(), prob.nz());
        let (guess, mut mg) = if iterative {
            let guess = self
                .warm
                .lock()
                .ok()
                .and_then(|cache| cache.get(&key).cloned());
            // Pop a pooled hierarchy for this mesh shape: the solve will
            // refresh its numeric content instead of re-aggregating.
            let pooled = self
                .mg
                .lock()
                .ok()
                .and_then(|mut pool| pool.get_mut(&key).and_then(Vec::pop));
            let ctx = match pooled {
                Some(hierarchy) => MultigridContext::from_hierarchy(hierarchy),
                None => MultigridContext::new(),
            };
            (guess, Some(ctx))
        } else {
            (None, None)
        };
        let solution = prob
            .solve_with_context(&prob.default_config(), guess.as_deref(), mg.as_mut())
            .map_err(|e| CoreError::InvalidScenario {
                reason: format!("FEM reference solve failed: {e}"),
            })?;
        if iterative {
            if let Ok(mut cache) = self.warm.lock() {
                cache.insert(key, solution.cell_temperatures_kelvin().to_vec());
            }
            if let Some(ctx) = mg {
                self.mg_builds.fetch_add(ctx.builds(), Ordering::Relaxed);
                if let Some(hierarchy) = ctx.into_hierarchy() {
                    if let Ok(mut pool) = self.mg.lock() {
                        pool.entry(key).or_default().push(hierarchy);
                    }
                }
            }
        }
        Ok(solution)
    }
}

impl ThermalModel for FemReference {
    fn name(&self) -> String {
        "FEM".to_string()
    }

    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
        Ok(self.solve(scenario)?.max_temperature())
    }
}

/// A second, independent reference: the same unit cell solved in full 3-D
/// Cartesian coordinates with its true square footprint and a staircase
/// via. Slower than [`FemReference`]; used to bound the error of the
/// equal-area-disc mapping (DESIGN.md §3) on any scenario, not just the
/// hand-built integration-test geometry.
///
/// Resolution caveat: the staircase assigns whole cells by center
/// containment, so the liner is only represented when `lateral_cells`
/// makes the cell width comparable to (or finer than) the liner thickness;
/// sub-cell liners effectively vanish and the via conducts optimistically.
/// The axisymmetric reference has no such limit (its radial grid has
/// explicit liner cells with exact shell conductances), which is why it is
/// the primary reference.
#[derive(Debug, Clone)]
pub struct CartesianReference {
    /// Lateral cells across the cell side.
    pub lateral_cells: usize,
    /// Vertical resolution knobs (shared with the axisymmetric adapter).
    pub resolution: FemResolution,
    /// Linear solver for the 3-D system (default: [`FemSolver::Auto`],
    /// which resolves to multigrid-PCG at these sizes).
    pub solver: FemSolver,
    device_thickness: Length,
    /// Reusable multigrid hierarchies per box shape (these solves run the
    /// multigrid-PCG path, where setup dominates repeated evaluations).
    mg: MgPool<(usize, usize, usize)>,
    mg_builds: Arc<AtomicUsize>,
}

impl Default for CartesianReference {
    fn default() -> Self {
        Self::new()
    }
}

impl CartesianReference {
    /// Cartesian reference at a moderate default resolution.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lateral_cells: 30,
            resolution: FemResolution::default(),
            solver: FemSolver::default(),
            device_thickness: Length::from_micrometers(1.0),
            mg: Arc::new(Mutex::new(HashMap::new())),
            mg_builds: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Full multigrid hierarchy builds performed so far (shared across
    /// clones) — see [`FemReference::multigrid_builds`].
    #[must_use]
    pub fn multigrid_builds(&self) -> usize {
        self.mg_builds.load(Ordering::Relaxed)
    }

    /// Overrides the lateral cell count.
    #[must_use]
    pub fn with_lateral_cells(mut self, cells: usize) -> Self {
        self.lateral_cells = cells;
        self
    }

    /// Overrides the vertical mesh resolution.
    #[must_use]
    pub fn with_resolution(mut self, resolution: FemResolution) -> Self {
        self.resolution = resolution;
        self
    }

    /// Overrides the linear solver (default: [`FemSolver::Auto`]).
    #[must_use]
    pub fn with_solver(mut self, solver: FemSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Builds the 3-D problem for a scenario (single via or one cell of a
    /// cluster, exactly like the axisymmetric adapter).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] if the via does not fit its
    /// unit cell.
    pub fn build_problem(
        &self,
        scenario: &Scenario,
    ) -> Result<ttsv_fem::cartesian::CartesianProblem, CoreError> {
        use ttsv_fem::cartesian::CartesianProblem;

        let stack = scenario.stack();
        let tsv = scenario.tsv();
        let n_via = tsv.count() as f64;
        let cell_area = Area::from_square_meters(stack.footprint().as_square_meters() / n_via);
        let side = Length::from_meters(cell_area.as_square_meters().sqrt());
        let r_liner = tsv.radius() + tsv.liner_thickness();
        if r_liner * 2.0 >= side {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "via diameter ({}) exceeds the cell side ({side})",
                    r_liner * 2.0
                ),
            });
        }

        let x = Axis::builder().segment(side, self.lateral_cells).build();
        let y = Axis::builder().segment(side, self.lateral_cells).build();

        // Vertical layout mirrors the axisymmetric adapter.
        let res = &self.resolution;
        let mut zb = Axis::builder();
        let mut device_spans: Vec<(Length, Length, usize)> = Vec::new();
        let mut z0 = Length::ZERO;
        let mut bands: Vec<(Length, Length, ttsv_units::ThermalConductivity)> = Vec::new();
        for (j, p) in stack.planes().iter().enumerate() {
            if j > 0 {
                let z1 = z0 + p.t_bond_below();
                zb = zb.segment(p.t_bond_below(), res.bond_cells);
                bands.push((z0, z1, stack.k_bond()));
                z0 = z1;
            }
            let dev = self.device_thickness.min(p.t_si() * 0.5);
            let body = p.t_si() - dev;
            zb = zb.segment(body, if j == 0 { res.si1_cells } else { res.si_cells });
            z0 += body;
            let dev_top = z0 + dev;
            zb = zb.segment(dev, res.device_cells);
            device_spans.push((z0, dev_top, j));
            z0 = dev_top;
            let ild_top = z0 + p.t_ild();
            zb = zb.segment(p.t_ild(), res.ild_cells);
            bands.push((z0, ild_top, stack.k_ild()));
            z0 = ild_top;
        }
        let z_top = z0;
        let z = zb.build();

        let mut prob = CartesianProblem::new(x, y, z, stack.k_si());
        prob.set_solver(self.solver);
        let full = (Length::ZERO, side);
        for (lo, hi, k) in bands {
            prob.set_material(full, full, (lo, hi), k);
        }

        // Staircase via at the cell center.
        let center = side * 0.5;
        let via_bottom = stack.planes()[0].t_si() - stack.l_ext();
        let via_top = z_top - stack.planes()[stack.plane_count() - 1].t_ild();
        prob.set_material_cylinder(
            (center, center),
            r_liner,
            (via_bottom, via_top),
            tsv.k_liner(),
        );
        prob.set_material_cylinder(
            (center, center),
            tsv.radius(),
            (via_bottom, via_top),
            tsv.k_fill(),
        );

        // Device-sheet heat, one share per cell.
        for (lo, hi, j) in device_spans {
            let volume = cell_area * (hi - lo);
            let power = scenario.plane_powers()[j] * (1.0 / n_via);
            prob.add_source(full, full, (lo, hi), power / volume);
        }
        Ok(prob)
    }
}

impl ThermalModel for CartesianReference {
    fn name(&self) -> String {
        "FEM (3-D Cartesian)".to_string()
    }

    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
        let prob = self.build_problem(scenario)?;
        let key = prob.dims();
        let pooled = self
            .mg
            .lock()
            .ok()
            .and_then(|mut pool| pool.get_mut(&key).and_then(Vec::pop));
        let mut ctx = match pooled {
            Some(hierarchy) => MultigridContext::from_hierarchy(hierarchy),
            None => MultigridContext::new(),
        };
        let solution = prob
            .solve_with_context(&prob.default_config(), None, Some(&mut ctx))
            .map_err(|e| CoreError::InvalidScenario {
                reason: format!("Cartesian reference solve failed: {e}"),
            })?;
        self.mg_builds.fetch_add(ctx.builds(), Ordering::Relaxed);
        if let Some(hierarchy) = ctx.into_hierarchy() {
            if let Ok(mut pool) = self.mg.lock() {
                pool.entry(key).or_default().push(hierarchy);
            }
        }
        Ok(solution.max_temperature())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_core::geometry::TtsvConfig;
    use ttsv_core::scenario::Scenario;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn scenario(r: f64, tl: f64) -> Scenario {
        Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(r), um(tl)))
            .with_ild_thickness(um(7.0))
            .build()
            .unwrap()
    }

    #[test]
    fn reference_solves_the_paper_block() {
        let fem = FemReference::new();
        let dt = fem.max_delta_t(&scenario(5.0, 0.5)).unwrap();
        // The paper's Fig. 5 reports ≈30 °C for this setup (with its own
        // silicon conductivity); we only pin a generous plausibility band.
        assert!(
            dt.as_kelvin() > 10.0 && dt.as_kelvin() < 60.0,
            "FEM ΔT = {dt}"
        );
    }

    #[test]
    fn radius_trend_matches_models() {
        let fem = FemReference::new().with_resolution(FemResolution::coarse());
        let d3 = fem.max_delta_t(&scenario(3.0, 0.5)).unwrap();
        let d10 = fem.max_delta_t(&scenario(10.0, 0.5)).unwrap();
        assert!(d10 < d3, "ΔT must fall with radius: {d3} vs {d10}");
    }

    #[test]
    fn liner_trend_matches_models() {
        let fem = FemReference::new().with_resolution(FemResolution::coarse());
        let thin = fem.max_delta_t(&scenario(5.0, 0.5)).unwrap();
        let thick = fem.max_delta_t(&scenario(5.0, 3.0)).unwrap();
        assert!(thick > thin, "ΔT must rise with liner: {thin} vs {thick}");
    }

    #[test]
    fn resolution_refinement_is_stable() {
        let s = scenario(8.0, 1.0);
        let coarse = FemReference::new()
            .with_resolution(FemResolution::coarse())
            .max_delta_t(&s)
            .unwrap()
            .as_kelvin();
        let default = FemReference::new().max_delta_t(&s).unwrap().as_kelvin();
        let fine = FemReference::new()
            .with_resolution(FemResolution::fine())
            .max_delta_t(&s)
            .unwrap()
            .as_kelvin();
        // Default within 5% of fine; coarse within 12%.
        assert!(
            (default - fine).abs() < 0.05 * fine,
            "default {default} vs fine {fine}"
        );
        assert!(
            (coarse - fine).abs() < 0.12 * fine,
            "coarse {coarse} vs fine {fine}"
        );
    }

    #[test]
    fn cluster_maps_to_unit_cells() {
        // Dividing the via must reduce ΔT in the FEM reference too (Fig. 7).
        let fem = FemReference::new().with_resolution(FemResolution::coarse());
        let single = Scenario::paper_block()
            .with_tsv(TtsvConfig::divided(um(10.0), um(1.0), 1))
            .with_upper_si_thickness(um(20.0))
            .build()
            .unwrap();
        let divided = Scenario::paper_block()
            .with_tsv(TtsvConfig::divided(um(10.0), um(1.0), 9))
            .with_upper_si_thickness(um(20.0))
            .build()
            .unwrap();
        let d1 = fem.max_delta_t(&single).unwrap();
        let d9 = fem.max_delta_t(&divided).unwrap();
        assert!(d9 < d1, "division must cool: {d1} vs {d9}");
    }

    #[test]
    fn cartesian_reference_agrees_with_axisym_mapping() {
        // The equal-area-disc substitution must hold on the real paper
        // block, not just the hand-built integration-test geometry. Use a
        // liner the staircase grid can actually resolve (2 µm liner vs 2 µm
        // lateral cells); thinner liners need the axisymmetric solver's
        // exact shell conductances.
        let s = scenario(8.0, 2.0);
        let axisym = FemReference::new().max_delta_t(&s).unwrap().as_kelvin();
        let cart = CartesianReference {
            lateral_cells: 50,
            resolution: FemResolution::coarse(),
            ..CartesianReference::new()
        }
        .max_delta_t(&s)
        .unwrap()
        .as_kelvin();
        assert!(
            (axisym - cart).abs() < 0.10 * cart,
            "axisym {axisym} vs cartesian {cart}"
        );
    }

    #[test]
    fn sweep_over_one_mesh_builds_the_hierarchy_once() {
        // Force the iterative path (Auto picks direct banded on these
        // meshes) and walk a Fig. 4-style radius sweep: every point has
        // the same mesh shape, so aggregation/Galerkin setup must run
        // exactly once — later points only refresh numeric values.
        let fem = FemReference::new()
            .with_resolution(FemResolution::coarse())
            .with_solver(FemSolver::Multigrid);
        let radii = [3.0, 5.0, 8.0, 12.0];
        let direct = FemReference::new().with_resolution(FemResolution::coarse());
        for &r in &radii {
            let s = scenario(r, 0.5);
            let iterative = fem.max_delta_t(&s).unwrap().as_kelvin();
            let reference = direct.max_delta_t(&s).unwrap().as_kelvin();
            assert!(
                (iterative - reference).abs() < 1e-6 * reference,
                "r = {r}: pooled-hierarchy solve {iterative} vs direct {reference}"
            );
        }
        assert_eq!(
            fem.multigrid_builds(),
            1,
            "one mesh shape must aggregate exactly once across the sweep"
        );
    }

    #[test]
    fn cartesian_reference_reuses_its_hierarchy() {
        // Radii far enough apart that the staircase via covers different
        // cell sets at this lateral resolution (6.25 µm cells).
        let cart = CartesianReference {
            lateral_cells: 16,
            resolution: FemResolution::coarse(),
            ..CartesianReference::new()
        };
        let d1 = cart.max_delta_t(&scenario(6.0, 2.0)).unwrap();
        let d2 = cart.max_delta_t(&scenario(12.0, 2.0)).unwrap();
        assert!(d2 < d1, "larger via must cool: {d1} vs {d2}");
        assert_eq!(cart.multigrid_builds(), 1, "same box shape: one build");
    }

    #[test]
    fn cartesian_reference_rejects_oversized_via() {
        // A via whose *diameter* exceeds the square cell side still fits an
        // equal-area disc, but not the square: the Cartesian adapter must
        // reject it. 48 µm via in a 100 µm cell: diameter 97 > 100? No —
        // use a cluster to shrink the cell instead.
        let s = Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(8.0), um(0.5)).with_count(30))
            .build()
            .unwrap();
        // cell side = 100/√30 ≈ 18.3 µm, via diameter 17 µm: fits; bump it.
        let s2 = s
            .with_tsv(TtsvConfig::new(um(9.0), um(0.5)).with_count(30))
            .unwrap();
        let cart = CartesianReference::new();
        assert!(cart.max_delta_t(&s2).is_err());
    }

    #[test]
    fn dense_packing_still_solves_and_cools() {
        // 38 vias of r = 8 µm nearly fill the block (the unit cell's rim is
        // under a micrometre wide); the mesh must still assemble and the
        // dense array must cool far better than a single via.
        let fem = FemReference::new().with_resolution(FemResolution::coarse());
        let dense = Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(8.0), um(0.5)).with_count(38))
            .build()
            .unwrap();
        let single = Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(8.0), um(0.5)))
            .build()
            .unwrap();
        let dt_dense = fem.max_delta_t(&dense).unwrap();
        let dt_single = fem.max_delta_t(&single).unwrap();
        assert!(dt_dense < dt_single, "{dt_dense} vs {dt_single}");
    }
}
