//! Axisymmetric (r, z) finite-volume heat-conduction solver.
//!
//! The reference solver for every experiment in this reproduction: the
//! paper's 100 µm × 100 µm unit cell with a central TTSV is mapped onto an
//! equal-area disc (DESIGN.md §3) and solved here on a cylindrical grid.
//! The radial discretization uses *exact* cylindrical-shell conductances
//! (`ln` form), so the thin liner annulus is represented without requiring
//! sub-micrometre meshing.

use ttsv_linalg::{BandedMatrix, CooBuilder, CsrMatrix, IterativeConfig};
use ttsv_units::{Length, Power, PowerDensity, TemperatureDelta, ThermalConductivity};

use crate::error::FemError;
use crate::mesh::Axis;
use crate::solver::{solve_multigrid, FemSolver, MultigridContext, SolverPath};

/// Boundary condition at the bottom (`z = 0`) plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BottomBc {
    /// Ideal heat sink: T = 0 (the paper's setup).
    #[default]
    HeatSink,
    /// No heat crosses the bottom (used by pure-radial verification tests).
    Adiabatic,
}

/// An axisymmetric steady heat-conduction problem on a cylindrical
/// `[0, R] × [0, H]` domain.
///
/// Material and source regions are assigned by cell-center containment;
/// build the axes so faces land on region boundaries (see [`Axis`]) and the
/// assignment is exact.
///
/// ```
/// use ttsv_fem::axisym::AxisymmetricProblem;
/// use ttsv_fem::Axis;
/// use ttsv_units::*;
///
/// let r = Axis::builder().segment(Length::from_micrometers(50.0), 20).build();
/// let z = Axis::builder().segment(Length::from_micrometers(100.0), 40).build();
/// let mut prob = AxisymmetricProblem::new(
///     r, z, ThermalConductivity::from_watts_per_meter_kelvin(150.0));
/// prob.add_source(
///     (Length::ZERO, Length::from_micrometers(50.0)),
///     (Length::from_micrometers(95.0), Length::from_micrometers(100.0)),
///     PowerDensity::from_watts_per_cubic_millimeter(700.0),
/// );
/// let solution = prob.solve()?;
/// assert!(solution.max_temperature().as_kelvin() > 0.0);
/// # Ok::<(), ttsv_fem::FemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AxisymmetricProblem {
    r: Axis,
    z: Axis,
    /// Cell conductivity (W/(m·K)), indexed `ir + iz·nr`.
    k: Vec<f64>,
    /// Cell volumetric source (W/m³).
    q: Vec<f64>,
    /// Pinned cell temperatures (K above reference).
    pins: Vec<Option<f64>>,
    bottom: BottomBc,
    solver: FemSolver,
}

impl AxisymmetricProblem {
    /// Creates a problem with every cell filled by `background` material and
    /// no sources.
    #[must_use]
    pub fn new(r: Axis, z: Axis, background: ThermalConductivity) -> Self {
        let n = r.cell_count() * z.cell_count();
        Self {
            r,
            z,
            k: vec![background.as_watts_per_meter_kelvin(); n],
            q: vec![0.0; n],
            pins: vec![None; n],
            bottom: BottomBc::default(),
            solver: FemSolver::default(),
        }
    }

    /// Radial cell count.
    #[must_use]
    pub fn nr(&self) -> usize {
        self.r.cell_count()
    }

    /// Vertical cell count.
    #[must_use]
    pub fn nz(&self) -> usize {
        self.z.cell_count()
    }

    /// Total unknown count.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.nr() * self.nz()
    }

    /// The radial axis.
    #[must_use]
    pub fn r_axis(&self) -> &Axis {
        &self.r
    }

    /// The vertical axis.
    #[must_use]
    pub fn z_axis(&self) -> &Axis {
        &self.z
    }

    /// Selects the bottom boundary condition (default: heat sink).
    pub fn set_bottom(&mut self, bc: BottomBc) {
        self.bottom = bc;
    }

    /// Selects the linear solver (default: [`FemSolver::Auto`], which
    /// picks banded LU for these small-bandwidth meshes) — an ablation
    /// knob; the solution is identical to solver tolerance.
    pub fn set_solver(&mut self, solver: FemSolver) {
        self.solver = solver;
    }

    /// The configured linear solver.
    #[must_use]
    pub fn solver(&self) -> FemSolver {
        self.solver
    }

    /// The solver [`FemSolver::Auto`] resolves to on this mesh —
    /// [`FemSolver::DirectBanded`] or [`FemSolver::Multigrid`] (callers use
    /// this to skip PCG-only work — warm-start guesses — when the direct
    /// path will run).
    #[must_use]
    pub fn resolved_solver(&self) -> FemSolver {
        match self.solver.resolve(self.nr()) {
            SolverPath::DirectBanded => FemSolver::DirectBanded,
            SolverPath::Multigrid => FemSolver::Multigrid,
        }
    }

    /// The iteration budget and tolerance [`AxisymmetricProblem::solve`]
    /// uses.
    #[must_use]
    pub fn default_config(&self) -> IterativeConfig {
        IterativeConfig::new(40 * self.cell_count() + 2000, 1e-11)
    }

    #[inline]
    fn idx(&self, ir: usize, iz: usize) -> usize {
        ir + iz * self.nr()
    }

    fn cells_in(
        &self,
        r_range: (Length, Length),
        z_range: (Length, Length),
    ) -> Vec<(usize, usize)> {
        let (r_lo, r_hi) = (r_range.0.as_meters(), r_range.1.as_meters());
        let (z_lo, z_hi) = (z_range.0.as_meters(), z_range.1.as_meters());
        assert!(r_lo <= r_hi, "radial range is inverted");
        assert!(z_lo <= z_hi, "vertical range is inverted");
        let mut cells = Vec::new();
        for iz in 0..self.nz() {
            let zc = self.z.center_m(iz);
            if zc < z_lo || zc > z_hi {
                continue;
            }
            for ir in 0..self.nr() {
                let rc = self.r.center_m(ir);
                if rc >= r_lo && rc <= r_hi {
                    cells.push((ir, iz));
                }
            }
        }
        cells
    }

    /// Fills every cell whose center lies in the `r × z` box with the given
    /// conductivity.
    ///
    /// # Panics
    ///
    /// Panics if a range is inverted or the conductivity is not positive.
    pub fn set_material(
        &mut self,
        r_range: (Length, Length),
        z_range: (Length, Length),
        conductivity: ThermalConductivity,
    ) {
        let kv = conductivity.as_watts_per_meter_kelvin();
        assert!(
            kv > 0.0,
            "conductivity must be positive, got {conductivity}"
        );
        for (ir, iz) in self.cells_in(r_range, z_range) {
            let i = self.idx(ir, iz);
            self.k[i] = kv;
        }
    }

    /// Adds a uniform volumetric source over the box (accumulates with any
    /// source already present).
    ///
    /// # Panics
    ///
    /// Panics if a range is inverted.
    pub fn add_source(
        &mut self,
        r_range: (Length, Length),
        z_range: (Length, Length),
        density: PowerDensity,
    ) {
        for (ir, iz) in self.cells_in(r_range, z_range) {
            let i = self.idx(ir, iz);
            self.q[i] += density.as_watts_per_cubic_meter();
        }
    }

    /// Pins every cell in the box to a fixed temperature (Dirichlet).
    ///
    /// # Panics
    ///
    /// Panics if a range is inverted.
    pub fn pin(
        &mut self,
        r_range: (Length, Length),
        z_range: (Length, Length),
        temperature: TemperatureDelta,
    ) {
        for (ir, iz) in self.cells_in(r_range, z_range) {
            let i = self.idx(ir, iz);
            self.pins[i] = Some(temperature.as_kelvin());
        }
    }

    /// Total heat injected by all sources.
    #[must_use]
    pub fn total_source_power(&self) -> Power {
        let mut total = 0.0;
        for iz in 0..self.nz() {
            for ir in 0..self.nr() {
                total += self.q[self.idx(ir, iz)] * self.cell_volume(ir, iz);
            }
        }
        Power::from_watts(total)
    }

    /// Per-cell conductivities in W/(m·K), indexed `ir + iz·nr` — exposed
    /// for the nonlinear (temperature-dependent) extension.
    #[must_use]
    pub fn cell_conductivities(&self) -> &[f64] {
        &self.k
    }

    /// Overwrites every cell conductivity (same indexing as
    /// [`AxisymmetricProblem::cell_conductivities`]).
    ///
    /// # Panics
    ///
    /// Panics if the slice length mismatches the cell count or any value is
    /// not strictly positive and finite.
    pub fn set_cell_conductivities(&mut self, k: &[f64]) {
        assert_eq!(k.len(), self.k.len(), "conductivity field length mismatch");
        assert!(
            k.iter().all(|&v| v.is_finite() && v > 0.0),
            "conductivities must be positive and finite"
        );
        self.k.copy_from_slice(k);
    }

    #[inline]
    fn cell_volume(&self, ir: usize, iz: usize) -> f64 {
        let (r0, r1) = (self.r.face_m(ir), self.r.face_m(ir + 1));
        std::f64::consts::PI * (r1 * r1 - r0 * r0) * self.z.width_m(iz)
    }

    /// Ring cross-section area of radial cell `ir` (for vertical faces).
    #[inline]
    fn ring_area(&self, ir: usize) -> f64 {
        let (r0, r1) = (self.r.face_m(ir), self.r.face_m(ir + 1));
        std::f64::consts::PI * (r1 * r1 - r0 * r0)
    }

    /// Conductance of the vertical face between (ir, iz) and (ir, iz+1).
    fn g_vertical(&self, ir: usize, iz: usize) -> f64 {
        let a = self.ring_area(ir);
        let lower = self.z.width_m(iz) / (2.0 * self.k[self.idx(ir, iz)]);
        let upper = self.z.width_m(iz + 1) / (2.0 * self.k[self.idx(ir, iz + 1)]);
        a / (lower + upper)
    }

    /// Conductance of the radial face between (ir, iz) and (ir+1, iz), using
    /// exact cylindrical-shell resistances for the two half-cells.
    fn g_radial(&self, ir: usize, iz: usize) -> f64 {
        let dz = self.z.width_m(iz);
        let rf = self.r.face_m(ir + 1);
        let rc_in = self.r.center_m(ir);
        let rc_out = self.r.center_m(ir + 1);
        let two_pi_dz = 2.0 * std::f64::consts::PI * dz;
        let r_in = (rf / rc_in).ln() / (two_pi_dz * self.k[self.idx(ir, iz)]);
        let r_out = (rc_out / rf).ln() / (two_pi_dz * self.k[self.idx(ir + 1, iz)]);
        1.0 / (r_in + r_out)
    }

    /// Conductance from the bottom cell (ir, 0) to the sink plane.
    fn g_bottom(&self, ir: usize) -> f64 {
        match self.bottom {
            BottomBc::HeatSink => {
                self.ring_area(ir) / (self.z.width_m(0) / (2.0 * self.k[self.idx(ir, 0)]))
            }
            BottomBc::Adiabatic => 0.0,
        }
    }

    /// Solves with the default iteration budget.
    ///
    /// # Errors
    ///
    /// See [`AxisymmetricProblem::solve_with`].
    pub fn solve(&self) -> Result<AxisymSolution, FemError> {
        self.solve_with(&self.default_config())
    }

    /// Solves the finite-volume system with the configured solver (see
    /// [`AxisymmetricProblem::set_solver`]).
    ///
    /// # Errors
    ///
    /// * [`FemError::InvalidProblem`] if nothing fixes the temperature level
    ///   (adiabatic bottom and no pins).
    /// * [`FemError::Solver`] if CG fails to converge within `config`.
    pub fn solve_with(&self, config: &IterativeConfig) -> Result<AxisymSolution, FemError> {
        self.solve_with_guess(config, None)
    }

    /// Solves like [`AxisymmetricProblem::solve_with`], warm-starting PCG
    /// from `guess` — a full per-cell temperature field (indexed
    /// `ir + iz·nr`, as returned by
    /// [`AxisymSolution::cell_temperatures_kelvin`]), typically the
    /// solution of a nearby problem (previous sweep point or Picard
    /// iterate). The warm start changes the iteration count only; the
    /// result converges to the same tolerance.
    ///
    /// # Errors
    ///
    /// Same contract as [`AxisymmetricProblem::solve_with`].
    pub fn solve_with_guess(
        &self,
        config: &IterativeConfig,
        guess: Option<&[f64]>,
    ) -> Result<AxisymSolution, FemError> {
        self.solve_with_context(config, guess, None)
    }

    /// Solves like [`AxisymmetricProblem::solve_with_guess`], additionally
    /// reusing (or populating) the multigrid hierarchy in `mg` on the
    /// iterative path: repeated solves on this mesh shape — Picard
    /// iterations, sweep points — skip aggregation/Galerkin setup after
    /// the first call. The direct banded solver ignores the context; the
    /// converged result is identical either way.
    ///
    /// # Errors
    ///
    /// Same contract as [`AxisymmetricProblem::solve_with`].
    pub fn solve_with_context(
        &self,
        config: &IterativeConfig,
        guess: Option<&[f64]>,
        mg: Option<&mut MultigridContext>,
    ) -> Result<AxisymSolution, FemError> {
        if self.bottom == BottomBc::Adiabatic && self.pins.iter().all(Option::is_none) {
            return Err(FemError::InvalidProblem {
                reason: "no temperature reference: adiabatic bottom and no pinned cells".into(),
            });
        }
        let (nr, nz) = (self.nr(), self.nz());
        let n = nr * nz;

        // Unknowns are the unpinned cells.
        let mut slot = vec![usize::MAX; n];
        let mut cells = Vec::with_capacity(n);
        for i in 0..n {
            if self.pins[i].is_none() {
                slot[i] = cells.len();
                cells.push(i);
            }
        }
        let m = cells.len();
        if m == 0 {
            let t: Vec<f64> = self.pins.iter().map(|p| p.expect("all pinned")).collect();
            return Ok(AxisymSolution {
                problem: self.clone(),
                temperatures: t,
                iterations: 0,
            });
        }

        let mut rhs = vec![0.0; m];
        for iz in 0..nz {
            for ir in 0..nr {
                let i = self.idx(ir, iz);
                if let Some(si) = slot.get(i).copied().filter(|&s| s != usize::MAX) {
                    rhs[si] += self.q[i] * self.cell_volume(ir, iz);
                }
            }
        }

        // The unknown numbering preserves the `ir + iz·nr` order, so the
        // lexicographic half-bandwidth is at most nr — small enough on
        // every axisymmetric mesh that `FemSolver::Auto` picks the direct
        // banded factorization; the PCG path remains for the ablations and
        // as the large-problem route.
        let (solution, iterations) = match self.solver.resolve(nr) {
            SolverPath::DirectBanded => {
                let mut banded = BandedMatrix::zeros(m, nr, nr);
                self.assemble(&slot, &mut rhs, &mut |si, sj, g| banded.add(si, sj, g));
                (banded.factorize()?.solve(&rhs)?, 0)
            }
            SolverPath::Multigrid => {
                let mut coo = CooBuilder::with_capacity(m, m, 5 * m);
                self.assemble(&slot, &mut rhs, &mut |si, sj, g| coo.add(si, sj, g));
                let csr: CsrMatrix = coo.to_csr();
                // Project a full-field guess onto the unknown slots.
                let guess_unknowns: Option<Vec<f64>> = guess
                    .filter(|g| g.len() == n)
                    .map(|g| cells.iter().map(|&i| g[i]).collect());
                solve_multigrid(&csr, &rhs, config, guess_unknowns.as_deref(), mg)?
            }
        };

        let mut temperatures = vec![0.0; n];
        for (s, &cell) in cells.iter().enumerate() {
            temperatures[cell] = solution[s];
        }
        for (i, p) in self.pins.iter().enumerate() {
            if let Some(t) = p {
                temperatures[i] = *t;
            }
        }
        Ok(AxisymSolution {
            problem: self.clone(),
            temperatures,
            iterations,
        })
    }

    /// Walks every face conductance once, emitting the unknown-by-unknown
    /// stencil contributions through `add` (pinned neighbours fold into
    /// `rhs`). Shared by the banded and CSR assemblies.
    fn assemble(&self, slot: &[usize], rhs: &mut [f64], add: &mut dyn FnMut(usize, usize, f64)) {
        let (nr, nz) = (self.nr(), self.nz());
        let couple = |i: usize,
                      j: usize,
                      g: f64,
                      rhs: &mut [f64],
                      add: &mut dyn FnMut(usize, usize, f64)| {
            let (si, sj) = (slot[i], slot[j]);
            match (si != usize::MAX, sj != usize::MAX) {
                (true, true) => {
                    add(si, si, g);
                    add(sj, sj, g);
                    add(si, sj, -g);
                    add(sj, si, -g);
                }
                (true, false) => {
                    add(si, si, g);
                    rhs[si] += g * self.pins[j].expect("pinned");
                }
                (false, true) => {
                    add(sj, sj, g);
                    rhs[sj] += g * self.pins[i].expect("pinned");
                }
                (false, false) => {}
            }
        };
        for iz in 0..nz {
            for ir in 0..nr {
                let i = self.idx(ir, iz);
                if ir + 1 < nr {
                    couple(i, self.idx(ir + 1, iz), self.g_radial(ir, iz), rhs, add);
                }
                if iz + 1 < nz {
                    couple(i, self.idx(ir, iz + 1), self.g_vertical(ir, iz), rhs, add);
                }
                if iz == 0 {
                    let g = self.g_bottom(ir);
                    if g > 0.0 && slot[i] != usize::MAX {
                        // Sink is at T = 0: no RHS contribution.
                        add(slot[i], slot[i], g);
                    }
                }
            }
        }
    }
}

/// A solved axisymmetric problem.
#[derive(Debug, Clone)]
pub struct AxisymSolution {
    problem: AxisymmetricProblem,
    /// Cell temperatures (K above reference), indexed `ir + iz·nr`.
    temperatures: Vec<f64>,
    iterations: usize,
}

impl AxisymSolution {
    /// PCG iterations the solve took (0 for the direct banded solver).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Raw per-cell temperatures in kelvin above the reference, indexed
    /// `ir + iz·nr` — exposed for the nonlinear extension.
    #[must_use]
    pub fn cell_temperatures_kelvin(&self) -> &[f64] {
        &self.temperatures
    }

    /// Temperature of the cell containing `(r, z)`.
    ///
    /// # Panics
    ///
    /// Panics if the point is outside the domain.
    #[must_use]
    pub fn temperature_at(&self, r: Length, z: Length) -> TemperatureDelta {
        let ir = self.problem.r.cell_at(r);
        let iz = self.problem.z.cell_at(z);
        TemperatureDelta::from_kelvin(self.temperatures[self.problem.idx(ir, iz)])
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

    /// Mean temperature over the cells of the horizontal plane containing
    /// `z`, volume-weighted.
    ///
    /// # Panics
    ///
    /// Panics if `z` is outside the domain.
    #[must_use]
    pub fn mean_temperature_at_z(&self, z: Length) -> TemperatureDelta {
        let iz = self.problem.z.cell_at(z);
        let mut num = 0.0;
        let mut den = 0.0;
        for ir in 0..self.problem.nr() {
            let v = self.problem.cell_volume(ir, iz);
            num += v * self.temperatures[self.problem.idx(ir, iz)];
            den += v;
        }
        TemperatureDelta::from_kelvin(num / den)
    }

    /// Vertical temperature profile at radius `r`: `(z_center, T)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the domain.
    #[must_use]
    pub fn z_profile(&self, r: Length) -> Vec<(Length, TemperatureDelta)> {
        let ir = self.problem.r.cell_at(r);
        (0..self.problem.nz())
            .map(|iz| {
                (
                    self.problem.z.cell_center(iz),
                    TemperatureDelta::from_kelvin(self.temperatures[self.problem.idx(ir, iz)]),
                )
            })
            .collect()
    }

    /// Radial temperature profile at height `z`: `(r_center, T)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `z` is outside the domain.
    #[must_use]
    pub fn radial_profile(&self, z: Length) -> Vec<(Length, TemperatureDelta)> {
        let iz = self.problem.z.cell_at(z);
        (0..self.problem.nr())
            .map(|ir| {
                (
                    self.problem.r.cell_center(ir),
                    TemperatureDelta::from_kelvin(self.temperatures[self.problem.idx(ir, iz)]),
                )
            })
            .collect()
    }

    /// Heat leaving through the bottom sink plane plus heat absorbed by
    /// pinned cells — for conservation audits.
    #[must_use]
    pub fn sink_heat(&self) -> Power {
        let p = &self.problem;
        let (nr, nz) = (p.nr(), p.nz());
        let mut total = 0.0;
        // Bottom plane.
        for ir in 0..nr {
            let g = p.g_bottom(ir);
            total += g * self.temperatures[p.idx(ir, 0)];
        }
        // Net inflow into pinned cells.
        for iz in 0..nz {
            for ir in 0..nr {
                let i = p.idx(ir, iz);
                if p.pins[i].is_none() {
                    continue;
                }
                let ti = self.temperatures[i];
                let mut inflow = 0.0;
                if ir > 0 {
                    inflow += p.g_radial(ir - 1, iz) * (self.temperatures[p.idx(ir - 1, iz)] - ti);
                }
                if ir + 1 < nr {
                    inflow += p.g_radial(ir, iz) * (self.temperatures[p.idx(ir + 1, iz)] - ti);
                }
                if iz > 0 {
                    inflow +=
                        p.g_vertical(ir, iz - 1) * (self.temperatures[p.idx(ir, iz - 1)] - ti);
                }
                if iz + 1 < nz {
                    inflow += p.g_vertical(ir, iz) * (self.temperatures[p.idx(ir, iz + 1)] - ti);
                }
                // Source inside a pinned cell is absorbed locally.
                inflow += p.q[i] * p.cell_volume(ir, iz);
                total += inflow;
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
    fn radially_uniform_problem_matches_slab_exact() {
        // Uniform in r ⇒ the axisymmetric solution equals the 1-D slab.
        let r = Axis::builder().segment(um(50.0), 8).build();
        let z = Axis::builder()
            .segment(um(100.0), 50)
            .segment(um(4.0), 16)
            .build();
        let mut prob = AxisymmetricProblem::new(r, z, kk(150.0));
        prob.set_material((um(0.0), um(50.0)), (um(100.0), um(104.0)), kk(1.4));
        prob.add_source((um(0.0), um(50.0)), (um(100.0), um(104.0)), wmm3(70.0));

        let mut exact = SlabStack::new();
        exact.push_layer(um(100.0), kk(150.0), PowerDensity::ZERO);
        exact.push_layer(um(4.0), kk(1.4), wmm3(70.0));

        let sol = prob.solve().unwrap();
        // Compare the whole vertical profile at cell centers.
        for (z, t) in sol.z_profile(um(25.0)) {
            let got = t.as_kelvin();
            let want = exact.temperature_at(z).as_kelvin();
            assert!(
                (got - want).abs() <= 5e-3 * want.abs().max(1e-9),
                "z = {z}: axisym {got} vs slab {want}"
            );
        }
    }

    #[test]
    fn pure_radial_washer_matches_ln_profile() {
        // One z-cell washer, adiabatic bottom, inner cells pinned to 0, heat
        // injected in the outermost ring: the profile between the pin and the
        // source ring is the exact cylindrical ln() solution.
        let r = Axis::builder()
            .segment(um(5.0), 2) // pinned core
            .segment(um(45.0), 90) // conduction region
            .segment(um(5.0), 2) // heated rim
            .build();
        let z = Axis::builder().segment(um(10.0), 1).build();
        let mut prob = AxisymmetricProblem::new(r, z, kk(10.0));
        prob.set_bottom(BottomBc::Adiabatic);
        prob.pin(
            (um(0.0), um(5.0)),
            (um(0.0), um(10.0)),
            TemperatureDelta::ZERO,
        );
        prob.add_source((um(50.0), um(55.0)), (um(0.0), um(10.0)), wmm3(1.0));

        let total = prob.total_source_power().as_watts();
        let sol = prob.solve().unwrap();

        // Between r = 10 µm and r = 40 µm all of `total` flows inward.
        let t10 = sol.temperature_at(um(10.0), um(5.0)).as_kelvin();
        let t40 = sol.temperature_at(um(40.0), um(5.0)).as_kelvin();
        // Compare against ln drop between the *cell centers* that t10/t40
        // actually sample.
        let rc10: f64 = 10.25e-6; // cell [10, 10.5] µm center
        let rc40: f64 = 40.25e-6;
        let want = total * (rc40 / rc10).ln() / (2.0 * std::f64::consts::PI * 10.0 * 10.0e-6);
        let got = t40 - t10;
        assert!(
            (got - want).abs() <= 0.01 * want,
            "ln-profile drop: got {got}, want {want}"
        );
    }

    #[test]
    fn energy_is_conserved() {
        let r = Axis::builder().segment(um(30.0), 6).build();
        let z = Axis::builder().segment(um(50.0), 20).build();
        let mut prob = AxisymmetricProblem::new(r, z, kk(150.0));
        prob.add_source((um(0.0), um(30.0)), (um(45.0), um(50.0)), wmm3(700.0));
        let sol = prob.solve().unwrap();
        let injected = prob.total_source_power().as_watts();
        let drained = sol.sink_heat().as_watts();
        assert!(
            (injected - drained).abs() < 1e-6 * injected,
            "in {injected} vs out {drained}"
        );
    }

    #[test]
    fn high_conductivity_column_cools_the_top() {
        // A copper column through an oxide slab must lower the top
        // temperature relative to pure oxide — the basic TTSV effect.
        let build = |with_via: bool| {
            let r = Axis::builder()
                .segment(um(10.0), 5)
                .segment(um(40.0), 10)
                .build();
            let z = Axis::builder().segment(um(100.0), 30).build();
            let mut prob = AxisymmetricProblem::new(r, z, kk(1.4));
            if with_via {
                prob.set_material((um(0.0), um(10.0)), (um(0.0), um(100.0)), kk(400.0));
            }
            prob.add_source((um(0.0), um(50.0)), (um(95.0), um(100.0)), wmm3(100.0));
            prob.solve().unwrap().max_temperature().as_kelvin()
        };
        let without = build(false);
        let with = build(true);
        // The heated disc extends far beyond the via, so lateral spreading
        // through the low-k oxide limits the improvement — but the via must
        // still at least halve the peak rise.
        assert!(
            with < 0.5 * without,
            "via should cut ΔT substantially: {with} vs {without}"
        );
    }

    #[test]
    fn preconditioner_choices_agree() {
        let build = || {
            let r = Axis::builder()
                .segment(um(8.0), 4)
                .segment(um(42.0), 12)
                .build();
            let z = Axis::builder().segment(um(100.0), 30).build();
            let mut prob = AxisymmetricProblem::new(r, z, kk(150.0));
            prob.set_material((um(0.0), um(8.0)), (um(0.0), um(100.0)), kk(400.0));
            prob.add_source((um(0.0), um(50.0)), (um(95.0), um(100.0)), wmm3(100.0));
            prob
        };
        let reference = build().solve().unwrap().max_temperature().as_kelvin();
        let mut prob = build();
        assert_eq!(prob.resolved_solver(), FemSolver::DirectBanded);
        prob.set_solver(FemSolver::Multigrid);
        let got = prob.solve().unwrap();
        assert!(got.iterations() > 0, "multigrid-PCG must iterate");
        let got = got.max_temperature().as_kelvin();
        assert!(
            (got - reference).abs() < 1e-7 * reference,
            "multigrid {got} vs direct banded {reference}"
        );
    }

    #[test]
    fn warm_start_from_own_solution_converges_immediately() {
        let r = Axis::builder().segment(um(30.0), 10).build();
        let z = Axis::builder().segment(um(60.0), 20).build();
        let mut prob = AxisymmetricProblem::new(r, z, kk(100.0));
        prob.add_source((um(0.0), um(30.0)), (um(55.0), um(60.0)), wmm3(200.0));
        // Force the iterative path: the direct solver has no warm start.
        prob.set_solver(FemSolver::Multigrid);
        let cold = prob.solve().unwrap();
        let warm = prob
            .solve_with_guess(
                &prob.default_config(),
                Some(cold.cell_temperatures_kelvin()),
            )
            .unwrap();
        assert!(
            warm.iterations() <= 1,
            "warm restart took {} iterations",
            warm.iterations()
        );
        assert!(
            (warm.max_temperature().as_kelvin() - cold.max_temperature().as_kelvin()).abs()
                < 1e-9 * cold.max_temperature().as_kelvin()
        );
    }

    #[test]
    fn no_reference_is_rejected() {
        let r = Axis::builder().segment(um(10.0), 2).build();
        let z = Axis::builder().segment(um(10.0), 2).build();
        let mut prob = AxisymmetricProblem::new(r, z, kk(1.0));
        prob.set_bottom(BottomBc::Adiabatic);
        assert!(matches!(prob.solve(), Err(FemError::InvalidProblem { .. })));
    }

    #[test]
    fn fully_pinned_problem_short_circuits() {
        let r = Axis::builder().segment(um(10.0), 2).build();
        let z = Axis::builder().segment(um(10.0), 2).build();
        let mut prob = AxisymmetricProblem::new(r, z, kk(1.0));
        prob.pin(
            (um(0.0), um(10.0)),
            (um(0.0), um(10.0)),
            TemperatureDelta::from_kelvin(3.0),
        );
        let sol = prob.solve().unwrap();
        assert_eq!(sol.iterations(), 0);
        assert!((sol.max_temperature().as_kelvin() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mesh_refinement_converges() {
        let solve_with_cells = |nr: usize, nz: usize| {
            let r = Axis::builder().segment(um(50.0), nr).build();
            let z = Axis::builder().segment(um(100.0), nz).build();
            let mut prob = AxisymmetricProblem::new(r, z, kk(150.0));
            prob.add_source((um(0.0), um(20.0)), (um(90.0), um(100.0)), wmm3(500.0));
            prob.solve().unwrap().max_temperature().as_kelvin()
        };
        let coarse = solve_with_cells(5, 10);
        let medium = solve_with_cells(10, 20);
        let fine = solve_with_cells(20, 40);
        let finest = solve_with_cells(40, 80);
        // Successive differences should shrink (first-order or better).
        let d1 = (medium - coarse).abs();
        let d2 = (fine - medium).abs();
        let d3 = (finest - fine).abs();
        assert!(d2 < d1, "refinement not converging: {d1} then {d2}");
        assert!(d3 < d2, "refinement not converging: {d2} then {d3}");
    }
}
