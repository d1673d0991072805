//! Finite-volume steady heat-conduction solvers — the in-repo stand-in for
//! the commercial FEM tool (COMSOL) the DATE 2011 TTSV paper validates
//! against.
//!
//! The paper scores its analytical models against COMSOL Multiphysics.
//! COMSOL is proprietary, so this crate implements the same physics from
//! scratch (see DESIGN.md §3 for the substitution argument):
//!
//! * the steady heat equation `∇·(k ∇T) = −q` with Dirichlet bottom
//!   (heat sink) and adiabatic side/top boundaries,
//! * conservative finite-volume discretization with harmonic-mean face
//!   conductances (exact cylindrical-shell conductances in the radial
//!   direction),
//! * three geometries: a 1-D multilayer [slab](slab1d::Slab1d) (with an
//!   exact analytic cross-check), an axisymmetric
//!   [(r, z) unit cell](axisym::AxisymmetricProblem) — the workhorse used as
//!   the reference in every experiment — and a full 3-D
//!   [Cartesian box](cartesian::CartesianProblem) that bounds the error of
//!   the square-footprint → equal-area-disc mapping.
//!
//! # Examples
//!
//! A two-layer slab heated on top:
//!
//! ```
//! use ttsv_fem::slab1d::Slab1d;
//! use ttsv_units::*;
//!
//! let mut slab = Slab1d::builder(Area::from_square_millimeters(1.0));
//! slab.layer(
//!     Length::from_micrometers(100.0),
//!     ThermalConductivity::from_watts_per_meter_kelvin(150.0),
//!     PowerDensity::ZERO,
//!     40,
//! );
//! slab.layer(
//!     Length::from_micrometers(10.0),
//!     ThermalConductivity::from_watts_per_meter_kelvin(1.4),
//!     PowerDensity::from_watts_per_cubic_millimeter(70.0),
//!     40,
//! );
//! let solution = slab.build().solve()?;
//! assert!(solution.top_temperature().as_kelvin() > 0.0);
//! # Ok::<(), ttsv_fem::FemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops are the natural idiom for stencil assembly (matching
// positions across several per-cell arrays).
#![allow(clippy::needless_range_loop)]

pub mod analytic;
pub mod axisym;
pub mod cartesian;
mod error;
mod mesh;
pub mod nonlinear;
pub mod slab1d;
mod solver;

pub use error::FemError;
pub use mesh::Axis;
pub use solver::{FemSolver, MultigridContext};
// Re-exported so callers can park reusable hierarchies without a
// ttsv-linalg import.
pub use ttsv_linalg::MultigridHierarchy;
