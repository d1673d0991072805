//! Analytical heat-transfer models for thermal through-silicon vias (TTSVs).
//!
//! This crate is the primary contribution of the reproduction of
//! *Xu, Pavlidis, De Micheli, "Analytical Heat Transfer Model for Thermal
//! Through-Silicon Vias", DATE 2011*:
//!
//! * [`ModelA`](model_a::ModelA) — the compact per-plane resistive network
//!   (paper §II, eqs. 1–16) with fitting coefficients `k₁`/`k₂`,
//! * [`ModelB`](model_b::ModelB) — the distributed π-segment ladder
//!   (paper §III, eqs. 17–21) with no fitting coefficients; both solve
//!   the shared [`ladder`] down to one [`LadderKernel`](ladder::LadderKernel),
//! * [`OneDModel`](one_d::OneDModel) — the traditional 1-D baseline the
//!   paper argues against (effective-medium vertical stack, no lateral
//!   liner path),
//! * TTSV [clustering](geometry::TtsvConfig::divided) — dividing one via of
//!   radius `r₀` into `n` vias of radius `r₀/√n` (paper §IV-D, eq. 22),
//! * the [3-D DRAM-µP full-chip case study](full_chip) (paper §IV-E).
//!
//! # Quick start
//!
//! Reproduce one point of the paper's Fig. 4 (ΔT of the three-plane block
//! with an 8 µm TTSV):
//!
//! ```
//! use ttsv_core::prelude::*;
//!
//! let scenario = Scenario::paper_block()
//!     .with_tsv(TtsvConfig::new(
//!         Length::from_micrometers(8.0),
//!         Length::from_micrometers(0.5),
//!     ))
//!     .build()?;
//!
//! let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
//! let dt = a.max_delta_t(&scenario)?;
//! assert!(dt.as_kelvin() > 5.0 && dt.as_kelvin() < 60.0);
//! # Ok::<(), ttsv_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod error;
pub mod fitting;
pub mod full_chip;
pub mod geometry;
pub mod ladder;
pub mod model_a;
pub mod model_b;
pub mod one_d;
pub mod package;
pub mod resistances;
pub mod scenario;

pub use error::CoreError;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::fitting::FittingCoefficients;
    pub use crate::full_chip::CaseStudy;
    pub use crate::geometry::{HeatLoad, Plane, Stack, TtsvConfig};
    pub use crate::ladder::LadderKernel;
    pub use crate::model_a::ModelA;
    pub use crate::model_b::{ModelB, Segmentation};
    pub use crate::one_d::OneDModel;
    pub use crate::package::{Package, WithPackage};
    pub use crate::scenario::{PowerSeparableModel, Scenario, ThermalModel};
    pub use crate::CoreError;
    pub use ttsv_units::{
        Area, Length, Power, PowerDensity, TemperatureDelta, ThermalConductivity,
    };
}
