//! Validation harness for the TTSV analytical models.
//!
//! Everything needed to regenerate the DATE 2011 paper's evaluation:
//!
//! * [`FemReference`](fem_adapter::FemReference) — maps a
//!   [`Scenario`](ttsv_core::scenario::Scenario) onto the axisymmetric
//!   finite-volume solver, playing the role COMSOL plays in the paper,
//! * [`metrics`] — the max/average relative-error statistics of Table I,
//! * [`sweep`] — the parameter-sweep runner over the bounded
//!   self-scheduling worker pool,
//! * [`pool`] — the execution substrate behind [`sweep`]: the scoped
//!   borrow-friendly batch core ([`pool::scoped_batch`], which the
//!   `ttsv-chip` floorplan engine also evaluates its unit cells on) plus
//!   the long-lived bounded
//!   [`WorkerPool`](pool::WorkerPool) the `ttsv-serve` session server
//!   hands its connections to,
//! * [`calibrate`] — fits Model A's `k₁`/`k₂` against the FEM reference,
//!   the way the paper fits against COMSOL,
//! * [`experiments`] — one constructor per paper artifact (Figs. 4–7,
//!   Table I, the §IV-E case study),
//! * [`paper_data`] — the paper's reported numbers (and approximate
//!   digitized curves) for side-by-side comparison,
//! * [`report`] — plain-text/Markdown rendering of the result tables.
//!
//! The `repro` binary drives all of it:
//! `cargo run --release -p ttsv-validate --bin repro -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod experiments;
pub mod fem_adapter;
pub mod metrics;
pub mod paper_data;
pub mod pool;
pub mod report;
pub mod sweep;
