//! Preconditioners for the conjugate-gradient solver.

use crate::sparse::CsrMatrix;

/// A preconditioner: an approximation `M ≈ A` whose inverse is cheap to
/// apply. [`solve_pcg`](crate::solve_pcg) calls [`Preconditioner::apply`]
/// once per iteration with the current residual.
pub trait Preconditioner {
    /// Computes `z = M⁻¹ r`, writing into `z`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len() != z.len()` or the length does
    /// not match the matrix the preconditioner was built from.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The trivial preconditioner `M = I` (turns PCG into plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Symmetric SOR preconditioner
/// `M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + Lᵀ) · ω/(2−ω)`
/// applied via one forward and one backward triangular sweep.
///
/// Noticeably fewer CG iterations than diagonal scaling on the FEM systems
/// at the cost of two triangular solves per iteration. Requires a symmetric
/// matrix.
#[derive(Debug, Clone)]
pub struct SsorPreconditioner {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    omega: f64,
}

impl SsorPreconditioner {
    /// Builds the preconditioner with relaxation factor `omega ∈ (0, 2)`.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `(0, 2)`, if `a` is not square, or if a
    /// diagonal entry is zero.
    #[must_use]
    pub fn new(a: &CsrMatrix, omega: f64) -> Self {
        assert!(
            omega > 0.0 && omega < 2.0,
            "SSOR relaxation factor must be in (0, 2), got {omega}"
        );
        let diag = a.diagonal();
        assert!(
            diag.iter().all(|&d| d != 0.0),
            "SSOR preconditioner requires a nonzero diagonal"
        );
        Self {
            a: a.clone(),
            inv_diag: diag.iter().map(|d| 1.0 / d).collect(),
            omega,
        }
    }
}

impl Preconditioner for SsorPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n, "SSOR: wrong residual length");
        assert_eq!(z.len(), n, "SSOR: wrong output length");
        let w = self.omega;

        // M⁻¹ = ω(2−ω) · (D + ωU)⁻¹ · D · (D + ωL)⁻¹
        // Forward sweep: y = (D + ωL)⁻¹ r.
        for i in 0..n {
            let mut sum = r[i];
            for (j, v) in self.a.row_entries(i) {
                if j < i {
                    sum -= w * v * z[j];
                }
            }
            z[i] = sum * self.inv_diag[i];
        }
        // Middle scaling: z ← ω(2−ω) · D · y.
        for i in 0..n {
            z[i] *= w * (2.0 - w) / self.inv_diag[i];
        }
        // Backward sweep: z ← (D + ωU)⁻¹ z.
        for i in (0..n).rev() {
            let mut sum = z[i];
            for (j, v) in self.a.row_entries(i) {
                if j > i {
                    sum -= w * v * z[j];
                }
            }
            z[i] = sum * self.inv_diag[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooBuilder;

    fn spd_ladder(n: usize) -> CsrMatrix {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.add(i, i, 4.0);
            if i + 1 < n {
                coo.add(i, i + 1, -1.0);
                coo.add(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn identity_copies_residual() {
        let mut z = vec![0.0; 3];
        IdentityPreconditioner.apply(&[1.0, -2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn ssor_apply_is_symmetric_positive() {
        // A valid CG preconditioner application must itself be an SPD
        // operator: check symmetry ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩ and positivity on a
        // few vectors.
        let a = spd_ladder(6);
        let p = SsorPreconditioner::new(&a, 1.2);
        let u: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7).sin()).collect();
        let v: Vec<f64> = (0..6).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut mu = vec![0.0; 6];
        let mut mv = vec![0.0; 6];
        p.apply(&u, &mut mu);
        p.apply(&v, &mut mv);
        let lhs = crate::vector::dot(&mu, &v);
        let rhs = crate::vector::dot(&u, &mv);
        assert!((lhs - rhs).abs() < 1e-10, "asymmetric: {lhs} vs {rhs}");
        let mut muu = vec![0.0; 6];
        p.apply(&u, &mut muu);
        assert!(crate::vector::dot(&muu, &u) > 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 2)")]
    fn ssor_rejects_bad_omega() {
        let a = spd_ladder(2);
        let _ = SsorPreconditioner::new(&a, 2.5);
    }
}
