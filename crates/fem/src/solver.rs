//! Linear-solver selection shared by the finite-volume problems.
//!
//! Both the axisymmetric and the Cartesian problems assemble symmetric
//! positive-definite systems on structured grids. Narrow-band meshes (every
//! axisymmetric one) are factorized directly by banded LU; wide ones (the
//! 3-D Cartesian boxes) are solved by conjugate gradients preconditioned
//! with the smoothed-aggregation multigrid V-cycle of
//! [`MultigridPreconditioner`] — the one iterative path. [`FemSolver::Auto`]
//! picks between the two by half-bandwidth.
//!
//! Multigrid setup (aggregation, Galerkin products) is a one-time cost per
//! sparsity pattern: callers that solve many systems on one mesh — Picard
//! iterations, parameter sweeps — pass a [`MultigridContext`] and every
//! solve after the first refreshes the cached
//! [`MultigridHierarchy`](ttsv_linalg::MultigridHierarchy) numerically
//! instead of rebuilding it.

use ttsv_linalg::{
    solve_pcg_into, CsrMatrix, IterativeConfig, LinalgError, MultigridHierarchy,
    MultigridPreconditioner, PcgWorkspace,
};

/// The widest lexicographic half-bandwidth [`FemSolver::Auto`] still sends
/// to banded LU: a direct `O(n·b²)` factorization beats any iteration on
/// the axisymmetric meshes (measured on the coarse Fig. 4 mesh: 0.15 ms vs
/// 1.05 ms for multigrid-PCG).
const AUTO_MAX_BANDED_HALF_BANDWIDTH: usize = 64;

/// How a finite-volume problem solves its assembled SPD system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FemSolver {
    /// Pick automatically: banded LU when the lexicographic half-bandwidth
    /// is at most 64 (the axisymmetric meshes), multigrid-PCG otherwise
    /// (the large 3-D Cartesian boxes).
    #[default]
    Auto,
    /// Direct banded LU on the lexicographic numbering (exact; reported
    /// iteration count is 0).
    DirectBanded,
    /// Conjugate gradients preconditioned by the smoothed-aggregation
    /// multigrid V-cycle.
    Multigrid,
}

/// The concrete path a [`FemSolver`] resolves to on one mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SolverPath {
    DirectBanded,
    Multigrid,
}

impl FemSolver {
    /// Resolves `Auto` against the problem's lexicographic half-bandwidth;
    /// the explicit variants pass through.
    pub(crate) fn resolve(self, half_bandwidth: usize) -> SolverPath {
        match self {
            FemSolver::DirectBanded => SolverPath::DirectBanded,
            FemSolver::Multigrid => SolverPath::Multigrid,
            FemSolver::Auto if half_bandwidth <= AUTO_MAX_BANDED_HALF_BANDWIDTH => {
                SolverPath::DirectBanded
            }
            FemSolver::Auto => SolverPath::Multigrid,
        }
    }
}

/// Reusable multigrid state for repeated solves on one mesh.
///
/// Holds the smoothed-aggregation hierarchy between solves; as long as the
/// assembled matrix keeps its sparsity pattern (same mesh, new
/// coefficients), each solve after the first performs a cheap numeric
/// refresh instead of re-running aggregation and Galerkin-pattern
/// discovery. Pass one context across Picard iterations or sweep points
/// via `solve_with_context`; a context is also the hand-off vehicle for
/// hierarchies parked in a cross-solve cache
/// ([`MultigridContext::from_hierarchy`] /
/// [`MultigridContext::into_hierarchy`]).
#[derive(Debug, Default)]
pub struct MultigridContext {
    pre: Option<MultigridPreconditioner>,
    /// PCG scratch, reused across the repeated solves the context serves.
    workspace: PcgWorkspace,
    builds: usize,
    refreshes: usize,
}

impl MultigridContext {
    /// An empty context; the first multigrid solve populates it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a hierarchy taken from a cache (counts as neither a build nor
    /// a refresh until the next solve).
    #[must_use]
    pub fn from_hierarchy(hierarchy: MultigridHierarchy) -> Self {
        Self {
            pre: Some(MultigridPreconditioner::from_hierarchy(hierarchy)),
            ..Self::default()
        }
    }

    /// Surrenders the hierarchy (to park it in a cache between solves).
    #[must_use]
    pub fn into_hierarchy(self) -> Option<MultigridHierarchy> {
        self.pre.map(MultigridPreconditioner::into_hierarchy)
    }

    /// How many times this context ran the full hierarchy build
    /// (aggregation + Galerkin pattern discovery).
    #[must_use]
    pub fn builds(&self) -> usize {
        self.builds
    }

    /// How many times this context got away with a numeric-only refresh.
    #[must_use]
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Builds or refreshes the preconditioner for `a`, reusing the cached
    /// hierarchy when the sparsity pattern still matches.
    fn prepare(&mut self, a: &CsrMatrix) -> Result<(), LinalgError> {
        let reusable = self
            .pre
            .as_ref()
            .is_some_and(|p| p.hierarchy().pattern_matches(a));
        if reusable {
            self.pre
                .as_mut()
                .expect("reusable implies present")
                .refresh(a)?;
            self.refreshes += 1;
        } else {
            self.pre = Some(MultigridPreconditioner::new(a)?);
            self.builds += 1;
        }
        Ok(())
    }
}

/// Solves the assembled SPD system with multigrid-preconditioned CG,
/// warm-starting from `guess` when one is supplied and reusing (or
/// populating) the multigrid hierarchy in `mg` when one is provided.
/// Returns the solution and the iteration count.
pub(crate) fn solve_multigrid(
    a: &CsrMatrix,
    rhs: &[f64],
    config: &IterativeConfig,
    guess: Option<&[f64]>,
    mg: Option<&mut MultigridContext>,
) -> Result<(Vec<f64>, usize), LinalgError> {
    let mut x = match guess {
        Some(g) if g.len() == rhs.len() => g.to_vec(),
        _ => vec![0.0; rhs.len()],
    };
    let stats = match mg {
        Some(ctx) => {
            ctx.prepare(a)?;
            // Split the context borrow so the cached PCG workspace is
            // reused alongside the prepared preconditioner.
            let MultigridContext { pre, workspace, .. } = ctx;
            let pre = pre.as_ref().expect("just prepared");
            solve_pcg_into(a, rhs, pre, config, &mut x, workspace)?
        }
        None => {
            let pre = MultigridPreconditioner::new(a)?;
            solve_pcg_into(a, rhs, &pre, config, &mut x, &mut PcgWorkspace::new())?
        }
    };
    Ok((x, stats.iterations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_multigrid() {
        // The default is `Auto`, which means multigrid once the band is
        // wider than 64 and banded LU up to that; the explicit variants
        // pass through at any bandwidth.
        assert_eq!(FemSolver::default(), FemSolver::Auto);
        assert_eq!(FemSolver::Auto.resolve(64), SolverPath::DirectBanded);
        assert_eq!(FemSolver::Auto.resolve(65), SolverPath::Multigrid);
        for half_bandwidth in [1, 64, 65, 10_000] {
            assert_eq!(
                FemSolver::DirectBanded.resolve(half_bandwidth),
                SolverPath::DirectBanded
            );
            assert_eq!(
                FemSolver::Multigrid.resolve(half_bandwidth),
                SolverPath::Multigrid
            );
        }
    }

    #[test]
    fn context_counts_builds_and_refreshes() {
        use ttsv_linalg::CooBuilder;
        let assemble = |scale: f64| {
            let n = 128;
            let mut coo = CooBuilder::new(n, n);
            for i in 0..n {
                coo.add(i, i, 2.0 * scale);
                if i + 1 < n {
                    coo.add(i, i + 1, -scale);
                    coo.add(i + 1, i, -scale);
                }
            }
            coo.to_csr()
        };
        let mut ctx = MultigridContext::new();
        let cfg = IterativeConfig::default();
        let b = vec![1.0; 128];
        let a1 = assemble(1.0);
        let a2 = assemble(4.0);
        let (x1, _) = solve_multigrid(&a1, &b, &cfg, None, Some(&mut ctx)).unwrap();
        let (x2, _) = solve_multigrid(&a2, &b, &cfg, None, Some(&mut ctx)).unwrap();
        assert_eq!((ctx.builds(), ctx.refreshes()), (1, 1));
        assert!(a1.residual_norm(&x1, &b).unwrap() < 1e-7);
        assert!(a2.residual_norm(&x2, &b).unwrap() < 1e-7);
        // The scaled system's solution is the original divided by 4.
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - 4.0 * v).abs() < 1e-6);
        }
    }
}
