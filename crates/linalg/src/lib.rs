//! Self-contained numerical linear algebra for the TTSV workspace.
//!
//! The offline crate ecosystem available to this reproduction has no
//! scientific-computing stack, so everything the thermal models need is
//! implemented here from scratch:
//!
//! * [`DenseMatrix`] with an [LU](DenseMatrix::lu) (partial pivoting)
//!   factorization — Model A's small KCL systems.
//! * [`Tridiagonal`] (Thomas algorithm), [`BandedMatrix`] (banded LU), and
//!   [`BlockTridiagonal`] (2×2 block Thomas) — the π-segment ladders are
//!   banded SPD systems. The models condense each run of identical
//!   segments in closed form and solve only the condensed system, one
//!   2×2 block per run, with the block kernel; block Thomas and the
//!   banded LU over the full ladder remain the tests' references.
//! * [`CsrMatrix`] sparse storage with [conjugate-gradient](solve_cg)
//!   solvers ([allocation-free and warm-startable](solve_pcg_into) via
//!   [`PcgWorkspace`]), [SSOR](SsorPreconditioner) preconditioning, and a
//!   smoothed-aggregation [multigrid](MultigridPreconditioner) V-cycle for
//!   the structured finite-volume grids — the reference solver's hot path.
//! * Derivative-free optimizers ([`nelder_mead`], [`golden_section`]) — the
//!   k₁/k₂ fitting-coefficient calibration.
//!
//! # Examples
//!
//! ```
//! use ttsv_linalg::DenseMatrix;
//!
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.lu().unwrap().solve(&[1.0, 2.0]).unwrap();
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops are the natural idiom for the numerical kernels here
// (simultaneous access to multiple vectors at matching positions).
#![allow(clippy::needless_range_loop)]

mod banded;
mod block_tridiag;
mod dense;
mod error;
mod iterative;
mod lu;
mod multigrid;
mod optimize;
mod precond;
mod sparse;
mod tridiagonal;
mod vector;

pub use banded::{BandedLu, BandedMatrix};
pub use block_tridiag::{BlockTridiagonal, BlockTridiagonalLu};
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use iterative::{
    solve_cg, solve_pcg, solve_pcg_into, IterativeConfig, PcgWorkspace, SolveReport, SolveStats,
};
pub use lu::LuDecomposition;
pub use multigrid::{MultigridHierarchy, MultigridPreconditioner};
pub use optimize::{
    golden_section, nelder_mead, GoldenSectionResult, NelderMeadConfig, NelderMeadResult,
};
pub use precond::{IdentityPreconditioner, Preconditioner, SsorPreconditioner};
pub use sparse::{CooBuilder, CsrMatrix};
pub use tridiagonal::Tridiagonal;
pub use vector::{axpy, dot, norm2, norm_inf, scale, sub};
