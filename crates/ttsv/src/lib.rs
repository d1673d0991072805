//! One-stop public API for the TTSV analytical thermal-model library — a
//! reproduction of *Xu, Pavlidis, De Micheli, "Analytical Heat Transfer
//! Model for Thermal Through-Silicon Vias", DATE 2011*.
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`units`] | `ttsv-units` | dimensional newtypes (µm, W, K/W, ...) |
//! | [`materials`] | `ttsv-materials` | Si/Cu/SiO₂/polyimide presets, mixing rules |
//! | [`linalg`] | `ttsv-linalg` | dense/banded/sparse solvers, optimizers |
//! | [`network`] | `ttsv-network` | generic thermal resistive networks: the reference the models' ladder is tested against, linked only by this facade and the tests |
//! | [`fem`] | `ttsv-fem` | finite-volume reference solvers (the COMSOL stand-in) |
//! | [`core`] | `ttsv-core` | Model A and Model B on one shared ladder, the 1-D baseline, clustering, the DRAM-µP case study, the scoped batch runner |
//! | [`validate`] | `ttsv-validate` | FEM adapter, calibration, the paper's experiments |
//! | [`chip`] | `ttsv-chip` | full-chip floorplan engine: power/via maps, batched cell evaluation |
//! | [`serve`] | `ttsv-serve` | thermal-as-a-service: std-only HTTP session server over the chip engine, with its worker pool |
//!
//! # Quick start
//!
//! This snippet is kept byte-identical to the one in the repository
//! `README.md`, so the README is verified by `cargo test --doc`:
//!
//! ```
//! use ttsv::prelude::*;
//!
//! fn main() -> Result<(), ttsv::core::CoreError> {
//!     // The paper's 100 µm × 100 µm three-plane block with an 8 µm TTSV:
//!     let scenario = Scenario::paper_block()
//!         .with_tsv(TtsvConfig::new(
//!             Length::from_micrometers(8.0),
//!             Length::from_micrometers(0.5),
//!         ))
//!         .build()?;
//!
//!     let model_a = ModelA::with_coefficients(FittingCoefficients::paper_block());
//!     let model_b = ModelB::paper_b100();
//!     let baseline = OneDModel::new();
//!
//!     let dt_a = model_a.max_delta_t(&scenario)?;
//!     let dt_b = model_b.max_delta_t(&scenario)?;
//!     let dt_1d = baseline.max_delta_t(&scenario)?;
//!
//!     // The 1-D baseline ignores the lateral liner path and overestimates.
//!     assert!(dt_1d > dt_a);
//!     assert!(dt_1d > dt_b);
//!     Ok(())
//! }
//! ```
//!
//! # Full-chip floorplans
//!
//! This snippet is kept byte-identical to the README's floorplan section,
//! so that section is verified by `cargo test --doc` too:
//!
//! ```
//! use ttsv::core::full_chip::CaseStudy;
//! use ttsv::prelude::*;
//!
//! fn main() -> Result<(), CoreError> {
//!     let cs = CaseStudy::paper();
//!     // 16×16 tiles: hotspot on the µP plane, uniform DRAM planes.
//!     let up = PowerMap::from_fn(16, 16, |ix, iy| {
//!         let hot = if (6..10).contains(&ix) && (6..10).contains(&iy) { 8.0 } else { 1.0 };
//!         cs.plane_powers[0] * (hot / 368.0) // weights normalized to 70 W
//!     })?;
//!     let dram = PowerMap::uniform(16, 16, cs.plane_powers[1])?;
//!     let plan = Floorplan::new(
//!         &cs,
//!         vec![up, dram.clone(), dram],
//!         ViaDensityMap::uniform(16, 16, cs.density)?,
//!     )?;
//!
//!     let report = ChipEngine::new().evaluate_factored(&plan, &ModelB::paper_b100())?;
//!     assert_eq!(report.tiles, 256);
//!     assert_eq!(report.distinct_cells, 1); // one via density → one geometry
//!     println!("hotspot ΔT {:.1} K at ({}, {}); JSON: {} bytes",
//!         report.max_delta_t, report.argmax_ix, report.argmax_iy,
//!         report.to_json().len());
//!     Ok(())
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ttsv_chip as chip;
pub use ttsv_core as core;
pub use ttsv_fem as fem;
pub use ttsv_linalg as linalg;
pub use ttsv_materials as materials;
pub use ttsv_network as network;
pub use ttsv_serve as serve;
pub use ttsv_units as units;
pub use ttsv_validate as validate;

/// Convenience re-exports: the core prelude plus the reference solver and
/// common material/units types.
pub mod prelude {
    pub use ttsv_chip::{ChipEngine, ChipReport, Floorplan, PowerMap, ViaDensityMap};
    pub use ttsv_core::prelude::*;
    pub use ttsv_materials::Material;
    pub use ttsv_units::{Temperature, ThermalResistance};
    pub use ttsv_validate::fem_adapter::{FemReference, FemResolution};
}
