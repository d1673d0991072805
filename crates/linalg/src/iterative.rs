//! Iterative solvers for sparse symmetric positive-definite systems.

use crate::error::LinalgError;
use crate::precond::{IdentityPreconditioner, Preconditioner};
use crate::sparse::CsrMatrix;
use crate::vector::{axpy, dot, norm2};

/// Iteration budget and stopping tolerance for the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeConfig {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence declared when `‖r‖₂ ≤ tolerance · ‖b‖₂`.
    pub relative_tolerance: f64,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        Self {
            max_iterations: 10_000,
            relative_tolerance: 1e-10,
        }
    }
}

impl IterativeConfig {
    /// Creates a config, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero or the tolerance is not positive.
    #[must_use]
    pub fn new(max_iterations: usize, relative_tolerance: f64) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(
            relative_tolerance > 0.0,
            "relative tolerance must be positive, got {relative_tolerance}"
        );
        Self {
            max_iterations,
            relative_tolerance,
        }
    }
}

/// Outcome of an iterative solve: the solution plus convergence telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The computed solution vector.
    pub solution: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual 2-norm `‖b − A·x‖₂`.
    pub residual_norm: f64,
}

/// Convergence telemetry of an in-place solve ([`solve_pcg_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual 2-norm `‖b − A·x‖₂`.
    pub residual_norm: f64,
}

/// Reusable scratch buffers for [`solve_pcg_into`].
///
/// The PCG inner loop needs four work vectors; keeping them in a workspace
/// lets repeated solves (parameter sweeps, Picard iterations) run without
/// per-solve allocation.
#[derive(Debug, Clone, Default)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl PcgWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n: usize) {
        for buf in [&mut self.r, &mut self.z, &mut self.p, &mut self.ap] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }
}

fn check_system(a: &CsrMatrix, b: &[f64]) -> Result<(), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::InvalidInput {
            reason: format!(
                "iterative solve needs a square matrix, got {}×{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            operation: "iterative solve",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    Ok(())
}

/// Solves `A·x = b` by plain conjugate gradients (`A` must be SPD).
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] / [`LinalgError::DimensionMismatch`] for
///   malformed systems.
/// * [`LinalgError::NotConverged`] if the iteration budget runs out.
pub fn solve_cg(
    a: &CsrMatrix,
    b: &[f64],
    config: &IterativeConfig,
) -> Result<SolveReport, LinalgError> {
    solve_pcg(a, b, &IdentityPreconditioner, config)
}

/// Solves `A·x = b` by preconditioned conjugate gradients (`A` must be SPD,
/// `m` an SPD preconditioner).
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] / [`LinalgError::DimensionMismatch`] for
///   malformed systems.
/// * [`LinalgError::NotConverged`] if the iteration budget runs out.
pub fn solve_pcg<P: Preconditioner + ?Sized>(
    a: &CsrMatrix,
    b: &[f64],
    m: &P,
    config: &IterativeConfig,
) -> Result<SolveReport, LinalgError> {
    let mut x = vec![0.0; b.len()];
    let mut workspace = PcgWorkspace::new();
    let stats = solve_pcg_into(a, b, m, config, &mut x, &mut workspace)?;
    Ok(SolveReport {
        solution: x,
        iterations: stats.iterations,
        residual_norm: stats.residual_norm,
    })
}

/// Solves `A·x = b` by preconditioned conjugate gradients in place: `x`
/// carries the initial guess in (warm start) and the solution out, and all
/// inner-loop scratch lives in `workspace` so repeated solves allocate
/// nothing.
///
/// Convergence is declared at `‖b − A·x‖₂ ≤ tolerance · ‖b‖₂`, the same
/// target as [`solve_pcg`] — a warm start changes the iteration count, not
/// the accuracy of the result.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] / [`LinalgError::DimensionMismatch`] for
///   malformed systems or an `x` of the wrong length.
/// * [`LinalgError::NotConverged`] if the iteration budget runs out.
pub fn solve_pcg_into<P: Preconditioner + ?Sized>(
    a: &CsrMatrix,
    b: &[f64],
    m: &P,
    config: &IterativeConfig,
    x: &mut [f64],
    workspace: &mut PcgWorkspace,
) -> Result<SolveStats, LinalgError> {
    check_system(a, b)?;
    if x.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            operation: "pcg initial guess",
            expected: b.len(),
            actual: x.len(),
        });
    }
    let n = b.len();
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return Ok(SolveStats {
            iterations: 0,
            residual_norm: 0.0,
        });
    }
    let target = config.relative_tolerance * b_norm;

    workspace.prepare(n);
    let PcgWorkspace { r, z, p, ap } = workspace;

    // r = b − A·x (honours the warm start; the all-zero guess of a cold
    // start skips the matvec entirely — an O(n) check vs an O(nnz) pass).
    if x.iter().all(|&v| v == 0.0) {
        r.copy_from_slice(b);
    } else {
        a.matvec_into(x, r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
    }
    m.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);

    for iter in 0..config.max_iterations {
        let r_norm = norm2(r);
        if r_norm <= target {
            return Ok(SolveStats {
                iterations: iter,
                residual_norm: r_norm,
            });
        }
        a.matvec_into(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "matrix is not positive-definite (pᵀAp = {pap:.3e} at iteration {iter})"
                ),
            });
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        m.apply(r, z);
        let rz_next = dot(r, z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    let residual = norm2(r);
    if residual <= target {
        Ok(SolveStats {
            iterations: config.max_iterations,
            residual_norm: residual,
        })
    } else {
        Err(LinalgError::NotConverged {
            iterations: config.max_iterations,
            residual,
            tolerance: target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Preconditioner, SsorPreconditioner};
    use crate::sparse::CooBuilder;

    /// 1-D Poisson matrix: SPD, tridiagonal.
    fn poisson(n: usize) -> CsrMatrix {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.add(i, i, 2.0);
            if i + 1 < n {
                coo.add(i, i + 1, -1.0);
                coo.add(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn cg_solves_poisson() {
        let n = 50;
        let a = poisson(n);
        let b = vec![1.0; n];
        let report = solve_cg(&a, &b, &IterativeConfig::default()).unwrap();
        assert!(report.residual_norm <= 1e-10 * norm2(&b));
        assert!(a.residual_norm(&report.solution, &b).unwrap() < 1e-8);
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations_exactly() {
        // CG terminates in ≤ n steps in exact arithmetic; allow slack for
        // rounding but it must be the same order.
        let n = 30;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let report = solve_cg(&a, &b, &IterativeConfig::new(2 * n, 1e-12)).unwrap();
        assert!(report.iterations <= n + 5, "took {}", report.iterations);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let n = 200;
        let a = poisson(n);
        let b = vec![1.0; n];
        let cfg = IterativeConfig::new(10_000, 1e-10);
        let plain = solve_cg(&a, &b, &cfg).unwrap();
        let ssor = solve_pcg(&a, &b, &SsorPreconditioner::new(&a, 1.5), &cfg).unwrap();
        assert!(
            ssor.iterations < plain.iterations,
            "SSOR {} vs plain {}",
            ssor.iterations,
            plain.iterations
        );
        // Both must agree with each other.
        for (x, y) in plain.solution.iter().zip(&ssor.solution) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_preconditioned_cg_matches_plain_cg() {
        let n = 40;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 / 7.0).cos()).collect();
        let cfg = IterativeConfig::default();
        let x1 = solve_cg(&a, &b, &cfg).unwrap().solution;
        // Diagonal scaling `M = diag(A)`, built here: PCG under any SPD
        // preconditioner must land on the plain-CG solution.
        struct Jacobi(Vec<f64>);
        impl Preconditioner for Jacobi {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                for ((zi, ri), inv) in z.iter_mut().zip(r).zip(&self.0) {
                    *zi = ri * inv;
                }
            }
        }
        let jacobi = Jacobi(a.diagonal().iter().map(|d| 1.0 / d).collect());
        let x2 = solve_pcg(&a, &b, &jacobi, &cfg).unwrap().solution;
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn warm_start_from_exact_solution_converges_immediately() {
        let n = 40;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let cfg = IterativeConfig::default();
        let cold = solve_cg(&a, &b, &cfg).unwrap();
        let mut x = cold.solution.clone();
        let mut ws = PcgWorkspace::new();
        let stats = solve_pcg_into(&a, &b, &IdentityPreconditioner, &cfg, &mut x, &mut ws).unwrap();
        assert_eq!(stats.iterations, 0, "exact guess should short-circuit");
        for (w, c) in x.iter().zip(&cold.solution) {
            assert!((w - c).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_never_degrades_accuracy() {
        // A deliberately bad guess must still converge to the same target.
        let n = 60;
        let a = poisson(n);
        let b = vec![1.0; n];
        let cfg = IterativeConfig::default();
        let mut x = vec![1e6; n];
        let mut ws = PcgWorkspace::new();
        let stats = solve_pcg_into(&a, &b, &IdentityPreconditioner, &cfg, &mut x, &mut ws).unwrap();
        assert!(stats.residual_norm <= cfg.relative_tolerance * norm2(&b));
        assert!(a.residual_norm(&x, &b).unwrap() < 1e-8);
    }

    #[test]
    fn workspace_is_reusable_across_sizes() {
        let mut ws = PcgWorkspace::new();
        let cfg = IterativeConfig::default();
        for n in [10, 50, 25] {
            let a = poisson(n);
            let b = vec![1.0; n];
            let mut x = vec![0.0; n];
            solve_pcg_into(&a, &b, &IdentityPreconditioner, &cfg, &mut x, &mut ws).unwrap();
            assert!(a.residual_norm(&x, &b).unwrap() < 1e-8);
        }
    }

    #[test]
    fn wrong_guess_length_is_rejected() {
        let a = poisson(5);
        let mut x = vec![0.0; 4];
        let mut ws = PcgWorkspace::new();
        let err = solve_pcg_into(
            &a,
            &[1.0; 5],
            &IdentityPreconditioner,
            &IterativeConfig::default(),
            &mut x,
            &mut ws,
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson(5);
        let report = solve_cg(&a, &[0.0; 5], &IterativeConfig::default()).unwrap();
        assert_eq!(report.solution, vec![0.0; 5]);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut coo = CooBuilder::new(2, 2);
        coo.add(0, 0, 1.0);
        coo.add(1, 1, -1.0);
        let a = coo.to_csr();
        let err = solve_cg(&a, &[1.0, 1.0], &IterativeConfig::default()).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let n = 100;
        let a = poisson(n);
        let b = vec![1.0; n];
        let err = solve_cg(&a, &b, &IterativeConfig::new(2, 1e-14)).unwrap_err();
        match err {
            LinalgError::NotConverged { iterations, .. } => assert_eq!(iterations, 2),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }
}
