//! Full 3-D Cartesian finite-volume heat-conduction solver.
//!
//! Used to bound the error of the square-footprint → equal-area-disc mapping
//! behind the axisymmetric reference (DESIGN.md §3): the same TTSV unit cell
//! is solved with its true square footprint and a staircase approximation of
//! the cylindrical via, and compared against
//! [`axisym`](crate::axisym::AxisymmetricProblem).

use ttsv_linalg::{BandedMatrix, CooBuilder, IterativeConfig};
use ttsv_units::{Length, Power, PowerDensity, TemperatureDelta, ThermalConductivity};

use crate::error::FemError;
use crate::mesh::Axis;
use crate::solver::{solve_multigrid, FemSolver, MultigridContext, SolverPath};

/// A steady heat-conduction problem on a `[0,Lx] × [0,Ly] × [0,Lz]` box with
/// a heat sink at `z = 0` and adiabatic walls elsewhere.
///
/// Material/source regions are axis-aligned boxes assigned by cell-center
/// containment; [`CartesianProblem::set_material_cylinder`] additionally
/// supports the staircase-cylinder used for TSVs.
#[derive(Debug, Clone)]
pub struct CartesianProblem {
    x: Axis,
    y: Axis,
    z: Axis,
    /// Cell conductivity (W/(m·K)), indexed `ix + iy·nx + iz·nx·ny`.
    k: Vec<f64>,
    /// Cell volumetric source (W/m³).
    q: Vec<f64>,
    solver: FemSolver,
}

impl CartesianProblem {
    /// Creates a problem with every cell filled by `background` material.
    #[must_use]
    pub fn new(x: Axis, y: Axis, z: Axis, background: ThermalConductivity) -> Self {
        let n = x.cell_count() * y.cell_count() * z.cell_count();
        Self {
            x,
            y,
            z,
            k: vec![background.as_watts_per_meter_kelvin(); n],
            q: vec![0.0; n],
            solver: FemSolver::default(),
        }
    }

    /// Selects the linear solver (default: [`FemSolver::Auto`], which
    /// picks multigrid-PCG for all but the tiniest boxes) — an ablation
    /// knob; the solution is identical to solver tolerance.
    pub fn set_solver(&mut self, solver: FemSolver) {
        self.solver = solver;
    }

    /// The configured linear solver.
    #[must_use]
    pub fn solver(&self) -> FemSolver {
        self.solver
    }

    /// Cell counts along (x, y, z).
    #[must_use]
    pub fn dims(&self) -> (usize, usize, usize) {
        (
            self.x.cell_count(),
            self.y.cell_count(),
            self.z.cell_count(),
        )
    }

    /// Total cell count.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        let (nx, ny, nz) = self.dims();
        nx * ny * nz
    }

    #[inline]
    fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        let (nx, ny, _) = self.dims();
        ix + iy * nx + iz * nx * ny
    }

    fn for_cells_in_box(
        &mut self,
        x_range: (Length, Length),
        y_range: (Length, Length),
        z_range: (Length, Length),
        mut f: impl FnMut(&mut Self, usize),
    ) {
        let (nx, ny, nz) = self.dims();
        let (x_lo, x_hi) = (x_range.0.as_meters(), x_range.1.as_meters());
        let (y_lo, y_hi) = (y_range.0.as_meters(), y_range.1.as_meters());
        let (z_lo, z_hi) = (z_range.0.as_meters(), z_range.1.as_meters());
        assert!(
            x_lo <= x_hi && y_lo <= y_hi && z_lo <= z_hi,
            "inverted range"
        );
        for iz in 0..nz {
            let zc = self.z.center_m(iz);
            if zc < z_lo || zc > z_hi {
                continue;
            }
            for iy in 0..ny {
                let yc = self.y.center_m(iy);
                if yc < y_lo || yc > y_hi {
                    continue;
                }
                for ix in 0..nx {
                    let xc = self.x.center_m(ix);
                    if xc >= x_lo && xc <= x_hi {
                        let i = self.idx(ix, iy, iz);
                        f(self, i);
                    }
                }
            }
        }
    }

    /// Fills an axis-aligned box with a material.
    ///
    /// # Panics
    ///
    /// Panics on inverted ranges or non-positive conductivity.
    pub fn set_material(
        &mut self,
        x_range: (Length, Length),
        y_range: (Length, Length),
        z_range: (Length, Length),
        conductivity: ThermalConductivity,
    ) {
        let kv = conductivity.as_watts_per_meter_kelvin();
        assert!(
            kv > 0.0,
            "conductivity must be positive, got {conductivity}"
        );
        self.for_cells_in_box(x_range, y_range, z_range, |me, i| me.k[i] = kv);
    }

    /// Fills a vertical cylinder (axis parallel to z through `center`) with
    /// a material, using cell-center containment — the staircase
    /// approximation of a TSV.
    ///
    /// # Panics
    ///
    /// Panics on inverted z-range or non-positive conductivity/radius.
    pub fn set_material_cylinder(
        &mut self,
        center: (Length, Length),
        radius: Length,
        z_range: (Length, Length),
        conductivity: ThermalConductivity,
    ) {
        let kv = conductivity.as_watts_per_meter_kelvin();
        assert!(
            kv > 0.0,
            "conductivity must be positive, got {conductivity}"
        );
        assert!(radius.as_meters() > 0.0, "radius must be positive");
        let (cx, cy) = (center.0.as_meters(), center.1.as_meters());
        let r2 = radius.as_meters() * radius.as_meters();
        let (z_lo, z_hi) = (z_range.0.as_meters(), z_range.1.as_meters());
        assert!(z_lo <= z_hi, "inverted z range");
        let (nx, ny, nz) = self.dims();
        for iz in 0..nz {
            let zc = self.z.center_m(iz);
            if zc < z_lo || zc > z_hi {
                continue;
            }
            for iy in 0..ny {
                let dy = self.y.center_m(iy) - cy;
                for ix in 0..nx {
                    let dx = self.x.center_m(ix) - cx;
                    if dx * dx + dy * dy <= r2 {
                        let i = self.idx(ix, iy, iz);
                        self.k[i] = kv;
                    }
                }
            }
        }
    }

    /// Adds a uniform volumetric source over an axis-aligned box
    /// (accumulates).
    ///
    /// # Panics
    ///
    /// Panics on inverted ranges.
    pub fn add_source(
        &mut self,
        x_range: (Length, Length),
        y_range: (Length, Length),
        z_range: (Length, Length),
        density: PowerDensity,
    ) {
        let qv = density.as_watts_per_cubic_meter();
        self.for_cells_in_box(x_range, y_range, z_range, |me, i| me.q[i] += qv);
    }

    #[inline]
    fn cell_volume(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        self.x.width_m(ix) * self.y.width_m(iy) * self.z.width_m(iz)
    }

    /// Total heat injected by all sources.
    #[must_use]
    pub fn total_source_power(&self) -> Power {
        let (nx, ny, nz) = self.dims();
        let mut total = 0.0;
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    total += self.q[self.idx(ix, iy, iz)] * self.cell_volume(ix, iy, iz);
                }
            }
        }
        Power::from_watts(total)
    }

    /// Harmonic-mean conductance across the face between two cells along
    /// `axis` (0 = x, 1 = y, 2 = z).
    fn g_face(&self, i: usize, j: usize, area: f64, wi: f64, wj: f64) -> f64 {
        area / (wi / (2.0 * self.k[i]) + wj / (2.0 * self.k[j]))
    }

    /// The iteration budget and tolerance [`CartesianProblem::solve`]
    /// uses (callers supplying their own context solve to the same
    /// target).
    #[must_use]
    pub fn default_config(&self) -> IterativeConfig {
        IterativeConfig::new(40 * self.cell_count() + 2000, 1e-10)
    }

    /// Solves with a default iteration budget.
    ///
    /// # Errors
    ///
    /// See [`CartesianProblem::solve_with`].
    pub fn solve(&self) -> Result<CartesianSolution, FemError> {
        self.solve_with(&self.default_config())
    }

    /// Solves the finite-volume system with the configured solver (see
    /// [`CartesianProblem::set_solver`]).
    ///
    /// # Errors
    ///
    /// Returns [`FemError::Solver`] if CG fails to converge within `config`.
    pub fn solve_with(&self, config: &IterativeConfig) -> Result<CartesianSolution, FemError> {
        self.solve_with_context(config, None, None)
    }

    /// Solves like [`CartesianProblem::solve_with`], warm-starting the
    /// iterative path from `guess` (a full per-cell field, indexed
    /// `ix + iy·nx + iz·nx·ny`) and reusing (or populating) the multigrid
    /// hierarchy in `mg` — repeated solves on one box shape skip
    /// aggregation/Galerkin setup after the first call. Neither knob
    /// changes what the solve converges to.
    ///
    /// # Errors
    ///
    /// Returns [`FemError::Solver`] if CG fails to converge within `config`.
    pub fn solve_with_context(
        &self,
        config: &IterativeConfig,
        guess: Option<&[f64]>,
        mg: Option<&mut MultigridContext>,
    ) -> Result<CartesianSolution, FemError> {
        let (nx, ny, nz) = self.dims();
        let n = nx * ny * nz;
        let mut rhs = vec![0.0; n];
        // Lexicographic half-bandwidth is nx·ny: only the tiniest boxes
        // qualify for the direct path under `FemSolver::Auto`.
        let (temperatures, iterations) = match self.solver.resolve(nx * ny) {
            SolverPath::DirectBanded => {
                let mut banded = BandedMatrix::zeros(n, nx * ny, nx * ny);
                self.assemble(&mut rhs, &mut |i, j, g| banded.add(i, j, g));
                (banded.factorize()?.solve(&rhs)?, 0)
            }
            SolverPath::Multigrid => {
                let mut coo = CooBuilder::with_capacity(n, n, 7 * n);
                self.assemble(&mut rhs, &mut |i, j, g| coo.add(i, j, g));
                let guess = guess.filter(|g| g.len() == n);
                solve_multigrid(&coo.to_csr(), &rhs, config, guess, mg)?
            }
        };
        Ok(CartesianSolution {
            problem: self.clone(),
            temperatures,
            iterations,
        })
    }

    /// Walks every face conductance once, emitting the stencil
    /// contributions through `add` (mirrors the axisymmetric solver's
    /// assembly; shared by the banded and CSR paths).
    fn assemble(&self, rhs: &mut [f64], add: &mut dyn FnMut(usize, usize, f64)) {
        let (nx, ny, nz) = self.dims();
        let couple = |i: usize, j: usize, g: f64, add: &mut dyn FnMut(usize, usize, f64)| {
            add(i, i, g);
            add(j, j, g);
            add(i, j, -g);
            add(j, i, -g);
        };
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = self.idx(ix, iy, iz);
                    rhs[i] = self.q[i] * self.cell_volume(ix, iy, iz);

                    if ix + 1 < nx {
                        let j = self.idx(ix + 1, iy, iz);
                        let area = self.y.width_m(iy) * self.z.width_m(iz);
                        let g = self.g_face(i, j, area, self.x.width_m(ix), self.x.width_m(ix + 1));
                        couple(i, j, g, add);
                    }
                    if iy + 1 < ny {
                        let j = self.idx(ix, iy + 1, iz);
                        let area = self.x.width_m(ix) * self.z.width_m(iz);
                        let g = self.g_face(i, j, area, self.y.width_m(iy), self.y.width_m(iy + 1));
                        couple(i, j, g, add);
                    }
                    if iz + 1 < nz {
                        let j = self.idx(ix, iy, iz + 1);
                        let area = self.x.width_m(ix) * self.y.width_m(iy);
                        let g = self.g_face(i, j, area, self.z.width_m(iz), self.z.width_m(iz + 1));
                        couple(i, j, g, add);
                    }
                    if iz == 0 {
                        // Dirichlet sink at z = 0, T = 0.
                        let area = self.x.width_m(ix) * self.y.width_m(iy);
                        let g = area / (self.z.width_m(0) / (2.0 * self.k[i]));
                        add(i, i, g);
                    }
                }
            }
        }
    }
}

/// A solved Cartesian problem.
#[derive(Debug, Clone)]
pub struct CartesianSolution {
    problem: CartesianProblem,
    temperatures: Vec<f64>,
    iterations: usize,
}

impl CartesianSolution {
    /// PCG iterations the solve took (0 for the direct banded solver).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Raw per-cell temperatures in kelvin above the sink, indexed
    /// `ix + iy·nx + iz·nx·ny` — the warm-start guess format of
    /// [`CartesianProblem::solve_with_context`].
    #[must_use]
    pub fn cell_temperatures_kelvin(&self) -> &[f64] {
        &self.temperatures
    }

    /// Temperature of the cell containing `(x, y, z)`.
    ///
    /// # Panics
    ///
    /// Panics if the point is outside the domain.
    #[must_use]
    pub fn temperature_at(&self, x: Length, y: Length, z: Length) -> TemperatureDelta {
        let ix = self.problem.x.cell_at(x);
        let iy = self.problem.y.cell_at(y);
        let iz = self.problem.z.cell_at(z);
        TemperatureDelta::from_kelvin(self.temperatures[self.problem.idx(ix, iy, iz)])
    }

    /// The hottest cell temperature.
    #[must_use]
    pub fn max_temperature(&self) -> TemperatureDelta {
        TemperatureDelta::from_kelvin(
            self.temperatures
                .iter()
                .fold(f64::NEG_INFINITY, |m, &t| m.max(t)),
        )
    }

    /// Heat leaving through the bottom sink plane.
    #[must_use]
    pub fn sink_heat(&self) -> Power {
        let p = &self.problem;
        let (nx, ny, _) = p.dims();
        let mut total = 0.0;
        for iy in 0..ny {
            for ix in 0..nx {
                let i = p.idx(ix, iy, 0);
                let area = p.x.width_m(ix) * p.y.width_m(iy);
                let g = area / (p.z.width_m(0) / (2.0 * p.k[i]));
                total += g * self.temperatures[i];
            }
        }
        Power::from_watts(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::SlabStack;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }
    fn kk(v: f64) -> ThermalConductivity {
        ThermalConductivity::from_watts_per_meter_kelvin(v)
    }
    fn wmm3(v: f64) -> PowerDensity {
        PowerDensity::from_watts_per_cubic_millimeter(v)
    }

    #[test]
    fn laterally_uniform_problem_matches_slab_exact() {
        let x = Axis::builder().segment(um(20.0), 4).build();
        let y = Axis::builder().segment(um(20.0), 4).build();
        let z = Axis::builder()
            .segment(um(50.0), 25)
            .segment(um(5.0), 20)
            .build();
        let mut prob = CartesianProblem::new(x, y, z, kk(150.0));
        prob.set_material(
            (um(0.0), um(20.0)),
            (um(0.0), um(20.0)),
            (um(50.0), um(55.0)),
            kk(1.4),
        );
        prob.add_source(
            (um(0.0), um(20.0)),
            (um(0.0), um(20.0)),
            (um(50.0), um(55.0)),
            wmm3(70.0),
        );

        let mut exact = SlabStack::new();
        exact.push_layer(um(50.0), kk(150.0), PowerDensity::ZERO);
        exact.push_layer(um(5.0), kk(1.4), wmm3(70.0));

        let sol = prob.solve().unwrap();
        // Probe at cell centers (z cells are 2 µm below 50 µm, 0.25 µm above).
        for z_probe in [11.0, 41.0, 52.625, 54.875] {
            let got = sol
                .temperature_at(um(10.0), um(10.0), um(z_probe))
                .as_kelvin();
            let want = exact.temperature_at(um(z_probe)).as_kelvin();
            assert!(
                (got - want).abs() <= 5e-3 * want.abs().max(1e-9),
                "z = {z_probe} µm: cartesian {got} vs slab {want}"
            );
        }
    }

    #[test]
    fn energy_is_conserved() {
        let x = Axis::builder().segment(um(30.0), 6).build();
        let y = Axis::builder().segment(um(30.0), 6).build();
        let z = Axis::builder().segment(um(40.0), 10).build();
        let mut prob = CartesianProblem::new(x, y, z, kk(100.0));
        prob.add_source(
            (um(0.0), um(15.0)),
            (um(0.0), um(30.0)),
            (um(35.0), um(40.0)),
            wmm3(300.0),
        );
        let sol = prob.solve().unwrap();
        let injected = prob.total_source_power().as_watts();
        let drained = sol.sink_heat().as_watts();
        assert!(
            (injected - drained).abs() < 1e-5 * injected,
            "in {injected} vs out {drained}"
        );
    }

    #[test]
    fn staircase_cylinder_cools_like_a_via() {
        let build = |with_via: bool| {
            let x = Axis::builder().segment(um(40.0), 16).build();
            let y = Axis::builder().segment(um(40.0), 16).build();
            let z = Axis::builder().segment(um(60.0), 15).build();
            let mut prob = CartesianProblem::new(x, y, z, kk(1.4));
            if with_via {
                prob.set_material_cylinder(
                    (um(20.0), um(20.0)),
                    um(8.0),
                    (um(0.0), um(60.0)),
                    kk(400.0),
                );
            }
            prob.add_source(
                (um(0.0), um(40.0)),
                (um(0.0), um(40.0)),
                (um(55.0), um(60.0)),
                wmm3(50.0),
            );
            prob.solve().unwrap().max_temperature().as_kelvin()
        };
        let without = build(false);
        let with = build(true);
        assert!(with < 0.5 * without, "via: {with} vs no via: {without}");
    }

    #[test]
    fn preconditioner_choices_agree() {
        let build = || {
            let x = Axis::builder().segment(um(20.0), 6).build();
            let y = Axis::builder().segment(um(20.0), 6).build();
            let z = Axis::builder().segment(um(30.0), 8).build();
            let mut prob = CartesianProblem::new(x, y, z, kk(1.4));
            prob.set_material_cylinder(
                (um(10.0), um(10.0)),
                um(4.0),
                (um(0.0), um(30.0)),
                kk(400.0),
            );
            prob.add_source(
                (um(0.0), um(20.0)),
                (um(0.0), um(20.0)),
                (um(25.0), um(30.0)),
                wmm3(40.0),
            );
            prob
        };
        // A 6×6 footprint has half-bandwidth 36, so `Auto` factorizes it
        // directly; forcing multigrid must land on the same field.
        let reference = build().solve().unwrap().max_temperature().as_kelvin();
        let mut prob = build();
        prob.set_solver(FemSolver::Multigrid);
        let got = prob.solve().unwrap().max_temperature().as_kelvin();
        assert!(
            (got - reference).abs() < 1e-6 * reference,
            "multigrid {got} vs direct banded {reference}"
        );
    }

    #[test]
    fn auto_sends_wide_boxes_to_multigrid_within_tolerance_of_direct() {
        // A 9×9 footprint has half-bandwidth 81 > 64: `Auto` must take the
        // multigrid-PCG path (nonzero iterations) and still agree with the
        // banded factorization of the same system.
        let x = Axis::builder().segment(um(45.0), 9).build();
        let y = Axis::builder().segment(um(45.0), 9).build();
        let z = Axis::builder().segment(um(30.0), 8).build();
        let mut prob = CartesianProblem::new(x, y, z, kk(1.4));
        prob.set_material_cylinder(
            (um(22.5), um(22.5)),
            um(8.0),
            (um(0.0), um(30.0)),
            kk(400.0),
        );
        prob.add_source(
            (um(0.0), um(45.0)),
            (um(0.0), um(45.0)),
            (um(25.0), um(30.0)),
            wmm3(40.0),
        );
        assert_eq!(prob.solver(), FemSolver::Auto);
        let auto = prob.solve().unwrap();
        assert!(
            auto.iterations() > 0,
            "Auto must iterate on a 9×9 footprint"
        );
        prob.set_solver(FemSolver::DirectBanded);
        let direct = prob.solve().unwrap();
        assert_eq!(direct.iterations(), 0);
        let (a, d) = (
            auto.max_temperature().as_kelvin(),
            direct.max_temperature().as_kelvin(),
        );
        assert!((a - d).abs() <= 1e-7 * d, "auto {a} vs direct banded {d}");
    }

    #[test]
    fn symmetric_geometry_gives_symmetric_field() {
        let x = Axis::builder().segment(um(20.0), 8).build();
        let y = Axis::builder().segment(um(20.0), 8).build();
        let z = Axis::builder().segment(um(30.0), 6).build();
        let mut prob = CartesianProblem::new(x, y, z, kk(10.0));
        prob.add_source(
            (um(0.0), um(20.0)),
            (um(0.0), um(20.0)),
            (um(25.0), um(30.0)),
            wmm3(10.0),
        );
        let sol = prob.solve().unwrap();
        let a = sol.temperature_at(um(2.0), um(7.0), um(15.0)).as_kelvin();
        let b = sol.temperature_at(um(18.0), um(13.0), um(15.0)).as_kelvin();
        assert!((a - b).abs() < 1e-7 * a.max(1e-12), "{a} vs {b}");
    }
}
