//! Full-chip floorplan engine for non-uniform power and via-density maps.
//!
//! The paper's §IV-E case study assumes uniform power and uniform via
//! density, so the whole chip collapses to one unit cell
//! (`ttsv_core::full_chip`). Real 3-D stacks have hotspots. This crate
//! generalizes the case study to a **floorplan**: a per-plane power map on
//! an `nx × ny` tile grid plus a via-density map, tiled into per-via unit
//! cells under the same adiabatic-wall approximation, deduplicated by a
//! scenario-hash cache, and batch-evaluated through any
//! [`ThermalModel`](ttsv_core::scenario::ThermalModel) on the bounded
//! self-scheduling worker pool of `ttsv_validate::pool`.
//!
//! * [`PowerMap`] — per-plane tile powers (finite, non-negative),
//! * [`ViaDensityMap`] — per-tile TTSV area density in `(0, 1)`,
//! * [`Floorplan`] — geometry (borrowed from a
//!   [`CaseStudy`](ttsv_core::full_chip::CaseStudy)) + maps → per-tile
//!   unit-cell scenarios, with
//!   [`Floorplan::update_power_map`] as the serving-loop delta move,
//! * [`ChipEngine`] — dedup + batched evaluation behind **two
//!   cross-call cache tiers**,
//! * [`ChipReport`] — the full-chip `ΔT` map with hotspot statistics
//!   (max / p99 / mean, argmax tile), JSON-serializable for downstream
//!   serving,
//! * [`LiveChip`] — a report held across sparse power updates: each
//!   update re-solves only the tiles it changes and patches the report in
//!   place, bit-identical to a full re-evaluation.
//!
//! # The two cache tiers
//!
//! The engine's caches persist across calls and key on exact bit
//! patterns, so they change cost, never results:
//!
//! * **Scenario tier** — keyed on geometry + via density + per-plane
//!   powers (+ the model's
//!   [`cache_tag`](ttsv_core::scenario::ThermalModel::cache_tag)). Fires
//!   whenever two tiles are bit-identical — within one evaluation (the
//!   classic dedup: a 32×32 hotspot map with 3 power levels costs 3
//!   solves, not 1024) or across evaluations (after
//!   [`Floorplan::update_power_map`], only the tiles whose power bits
//!   changed are re-solved).
//! * **Matrix tier** — keyed on geometry + via density only, used by
//!   [`ChipEngine::evaluate_factored`] for
//!   [`PowerSeparableModel`](ttsv_core::scenario::PowerSeparableModel)s
//!   (Model B): fires when tiles differ *only in power*, where the
//!   scenario tier is useless. Each distinct geometry is factorized
//!   once, into Model B's hotspot kernel; every distinct power vector
//!   then costs one kernel evaluation (a few hundred nanoseconds),
//!   collapsing an all-distinct gradient map to a single factorization.
//!
//! The [`ChipEngine::solves`] and [`ChipEngine::factorizations`]
//! counters expose what actually ran; the property suites assert both
//! tiers (and the factored path) are bitwise-transparent.
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
//! assert_eq!(report.distinct_cells, 1); // uniform maps dedup to one cell
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
pub use floorplan::{Floorplan, TileCell};
pub use live::LiveChip;
pub use map::{PowerMap, ViaDensityMap};
pub use report::ChipReport;
