//! Full-chip floorplan engine for non-uniform power and via-density maps.
//!
//! The paper's §IV-E case study assumes uniform power and uniform via
//! density, so the whole chip collapses to one unit cell
//! (`ttsv_core::full_chip`). Real 3-D stacks have hotspots. This crate
//! generalizes the case study to a **floorplan**: a per-plane power map on
//! an `nx × ny` tile grid plus a via-density map, tiled into per-via unit
//! cells under the same adiabatic-wall approximation, and evaluated
//! through any [`ThermalModel`](ttsv_core::scenario::ThermalModel).
//!
//! * [`PowerMap`] — per-plane tile powers (finite, non-negative),
//! * [`ViaDensityMap`] — per-tile TTSV area density in `(0, 1)`,
//! * [`Floorplan`] — geometry (borrowed from a
//!   [`CaseStudy`](ttsv_core::full_chip::CaseStudy)) + maps → per-tile
//!   unit-cell scenarios, with
//!   [`Floorplan::update_power_map`] as the serving-loop delta move,
//! * [`ChipEngine`] — batched evaluation, with the **matrix tier**: a
//!   weak index of the live Model B kernels, so chips of one geometry
//!   share one,
//! * [`ChipReport`] — the full-chip `ΔT` map with hotspot statistics
//!   (max / p99 / mean, argmax tile), JSON-serializable for downstream
//!   serving,
//! * [`LiveChip`] — a report held across sparse power updates; the chip
//!   owns its plan, its model and the plan's kernels, so an update names
//!   only a plane and its tiles, re-solves only the tiles it changes
//!   against the held kernels and patches the report in place,
//!   bit-identical to a full re-evaluation.
//!
//! # Two paths; kernels live with their chips
//!
//! * [`ChipEngine::evaluate`] runs any model, for those that are not
//!   power-separable (the FEM reference, the 1-D baseline). It
//!   deduplicates bit-identical tiles within the call (a 32×32 hotspot
//!   map with 3 power levels costs 3 solves, not 1024) and solves the
//!   distinct cells on the bounded self-scheduling batch runner of
//!   `ttsv_core::batch`. It is also the per-tile reference.
//! * [`ChipEngine::evaluate_factored`] runs
//!   [`PowerSeparableModel`](ttsv_core::scenario::PowerSeparableModel)s
//!   (Model A and Model B). Each distinct geometry (via density) is
//!   factorized once into the ladder's hotspot kernel
//!   ([`LadderKernel`](ttsv_core::ladder::LadderKernel)). Every tile then
//!   costs one kernel call of a few tens of nanoseconds, so an
//!   all-distinct gradient map collapses to a single factorization.
//!   [`ChipEngine::evaluate_live`] takes the plan by value and keeps it,
//!   with one kernel per via density, in the [`LiveChip`] it returns; the
//!   **matrix tier** indexes the kernels weakly (keyed on exact
//!   geometry bits plus the model's
//!   [`cache_tag`](ttsv_core::scenario::PowerSeparableModel::cache_tag)), so a
//!   kernel is shared while some chip holds it and freed when the last
//!   one drops.
//!
//! Sharing kernels changes cost, never results. The
//! [`ChipEngine::solves`] and [`ChipEngine::factorizations`] counters
//! expose what actually ran; the property suites assert the factored
//! path is bitwise-transparent.
//!
//! In the uniform-map limit the engine reproduces the single-unit-cell
//! case study (the golden suite pins this).
//!
//! # Quick start
//!
//! ```
//! use ttsv_chip::{ChipEngine, Floorplan};
//! use ttsv_core::full_chip::CaseStudy;
//! use ttsv_core::model_a::ModelA;
//!
//! let plan = Floorplan::uniform(&CaseStudy::paper(), 4, 4)?;
//! let model = ModelA::with_coefficients(CaseStudy::paper_fitting());
//! let report = ChipEngine::new().evaluate(&plan, &model)?;
//! assert_eq!(report.tiles, 16);
//! assert_eq!(report.distinct_cells, 1); // one via density → one geometry
//! assert!(report.max_delta_t > 0.0);
//! # Ok::<(), ttsv_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod floorplan;
pub mod live;
pub mod map;
pub mod report;

pub use engine::ChipEngine;
pub use floorplan::{DensityGroups, Floorplan, TileCell};
pub use live::LiveChip;
pub use map::{PowerMap, ViaDensityMap};
pub use report::ChipReport;
