//! Parallel batch and parameter-sweep runners.
//!
//! Every figure in the paper is a sweep of one scenario parameter evaluated
//! by several models, and the full-chip floorplan engine (`ttsv-chip`)
//! evaluates a bag of distinct unit cells — both are instances of the same
//! problem: run `count` independent jobs on a bounded pool of worker
//! threads, at most `available_parallelism()` of them, that claim jobs one
//! at a time from a shared atomic queue (self-scheduling work
//! distribution). [`crate::pool::scoped_batch`] is that primitive, and it
//! also runs single-worker batches inline (no spawn at all, the serving
//! fast path); the long-lived [`crate::pool::WorkerPool`] shares the same
//! self-scheduling core for `'static` jobs such as a server's connections.
//! [`run_sweep`] is the figure-shaped wrapper on top. Dense batches
//! of 100+ jobs therefore never oversubscribe the machine, and expensive
//! jobs naturally load-balance across workers. Evaluation order within a
//! batch is unspecified; the results come back in job order regardless,
//! and models with internal warm-start caches (the FEM reference) share
//! them across workers.

use ttsv_core::scenario::{Scenario, ThermalModel};
use ttsv_core::CoreError;

use crate::pool::scoped_batch;

/// One evaluated sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value (figure x-axis).
    pub x: f64,
    /// `ΔT_max` per model, in the same order as the models passed to
    /// [`run_sweep`].
    pub delta_t: Vec<f64>,
    /// Wall-clock seconds each model spent on this point.
    pub seconds: Vec<f64>,
}

fn evaluate_point(
    x: f64,
    scenario: &Scenario,
    models: &[&(dyn ThermalModel + Sync)],
) -> Result<SweepPoint, CoreError> {
    let mut delta_t = Vec::with_capacity(models.len());
    let mut seconds = Vec::with_capacity(models.len());
    for model in models {
        let start = std::time::Instant::now();
        delta_t.push(model.max_delta_t(scenario)?.as_kelvin());
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok(SweepPoint {
        x,
        delta_t,
        seconds,
    })
}

/// The default worker-pool size: `available_parallelism()`, falling back
/// to one worker when the parallelism query fails.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Evaluates every `(x, scenario)` pair with every model, in parallel over
/// points on a bounded worker pool (at most `available_parallelism()`
/// workers).
///
/// # Errors
///
/// Returns the first (by point order) [`CoreError`] any model produced.
pub fn run_sweep(
    points: &[(f64, Scenario)],
    models: &[&(dyn ThermalModel + Sync)],
) -> Result<Vec<SweepPoint>, CoreError> {
    run_sweep_with_workers(points, models, default_workers())
}

/// Like [`run_sweep`] but with an explicit worker-pool size (clamped to
/// the point count; `1` runs the sweep on a single spawned worker).
/// For deterministic models, point evaluation is independent of which
/// worker claims it, so the returned series are identical for every
/// `workers` value — the determinism tests run the same sweep at 1 and
/// `available_parallelism` and compare bitwise. Models with internal
/// cross-point caches on an *iterative* solve path (a `FemReference`
/// forced onto PCG warm-starts each point from whichever field a worker
/// cached last) converge to the same solver tolerance but not bitwise;
/// the default direct-banded FEM path is exact and order-independent.
///
/// # Panics
///
/// Panics if `workers` is zero.
///
/// # Errors
///
/// Returns the first (by point order) [`CoreError`] any model produced.
pub fn run_sweep_with_workers(
    points: &[(f64, Scenario)],
    models: &[&(dyn ThermalModel + Sync)],
    workers: usize,
) -> Result<Vec<SweepPoint>, CoreError> {
    scoped_batch(points.len(), workers, |i| {
        let (x, scenario) = &points[i];
        evaluate_point(*x, scenario, models)
    })
}

/// Extracts one model's series (by index) from sweep results.
#[must_use]
pub fn series(points: &[SweepPoint], model_index: usize) -> Vec<f64> {
    points.iter().map(|p| p.delta_t[model_index]).collect()
}

/// Sums one model's wall-clock seconds across the sweep.
#[must_use]
pub fn total_seconds(points: &[SweepPoint], model_index: usize) -> f64 {
    points.iter().map(|p| p.seconds[model_index]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_core::prelude::*;

    fn radius_points(radii: &[f64]) -> Vec<(f64, Scenario)> {
        radii
            .iter()
            .map(|&r| {
                (
                    r,
                    Scenario::paper_block()
                        .with_tsv(TtsvConfig::new(
                            Length::from_micrometers(r),
                            Length::from_micrometers(0.5),
                        ))
                        .build()
                        .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_runs_models_in_declared_order() {
        let points = radius_points(&[5.0, 10.0]);
        let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let one_d = OneDModel::new();
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![&a, &one_d];
        let results = run_sweep(&points, &models).unwrap();
        assert_eq!(results.len(), 2);
        for p in &results {
            assert_eq!(p.delta_t.len(), 2);
            // 1-D (index 1) overestimates Model A (index 0).
            assert!(p.delta_t[1] > p.delta_t[0]);
        }
        // Larger via cools better in both models.
        let a_series = series(&results, 0);
        assert!(a_series[1] < a_series[0]);
        assert!(total_seconds(&results, 0) >= 0.0);
    }

    #[test]
    fn dense_sweeps_exceeding_the_core_count_complete_in_order() {
        // More points than any plausible worker pool: the bounded runner
        // must queue them, and results must come back in point order.
        let radii: Vec<f64> = (0..120).map(|i| 1.0 + 19.0 * (i as f64) / 119.0).collect();
        let points = radius_points(&radii);
        let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![&a];
        let results = run_sweep(&points, &models).unwrap();
        assert_eq!(results.len(), points.len());
        for (got, want) in results.iter().zip(&radii) {
            assert_eq!(got.x, *want, "results must stay in point order");
        }
        // ΔT falls monotonically with radius on this sweep.
        let series = series(&results, 0);
        assert!(series.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn sweep_results_are_identical_for_any_worker_count() {
        use crate::fem_adapter::{FemReference, FemResolution};

        // A small Fig. 4-style grid evaluated by deterministic models,
        // including the FEM reference (direct banded path at this
        // resolution): the series must be bitwise identical whether one
        // worker or a full pool evaluates the points.
        let points = radius_points(&[2.0, 5.0, 8.0, 12.0, 16.0, 20.0]);
        let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let one_d = OneDModel::new();
        let b100 = ModelB::paper_b100();
        let fem = FemReference::new().with_resolution(FemResolution::coarse());
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![&a, &b100, &one_d, &fem];

        let serial = run_sweep_with_workers(&points, &models, 1).unwrap();
        let pooled = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let parallel = run_sweep_with_workers(&points, &models, pooled).unwrap();

        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.x, p.x);
            assert_eq!(
                s.delta_t, p.delta_t,
                "worker count changed a sweep result at x = {}",
                s.x
            );
        }
    }

    #[test]
    fn batch_returns_results_in_job_order() {
        let squares = scoped_batch::<_, CoreError, _>(100, 4, |i| Ok(i * i)).unwrap();
        assert_eq!(squares.len(), 100);
        for (i, sq) in squares.iter().enumerate() {
            assert_eq!(*sq, i * i);
        }
    }

    #[test]
    fn batch_propagates_the_first_error_by_job_order() {
        let err = scoped_batch(10, 3, |i| {
            if i >= 4 {
                Err(format!("job {i} failed"))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "job 4 failed");
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = scoped_batch::<usize, CoreError, _>(0, 4, |_| unreachable!()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one batch worker")]
    fn zero_workers_rejected() {
        let _ = scoped_batch::<usize, CoreError, _>(3, 0, Ok);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![];
        assert!(run_sweep(&[], &models).unwrap().is_empty());
    }

    #[test]
    fn model_error_is_propagated() {
        struct Failing;
        impl ThermalModel for Failing {
            fn name(&self) -> String {
                "failing".into()
            }
            fn max_delta_t(&self, _: &Scenario) -> Result<TemperatureDelta, CoreError> {
                Err(CoreError::InvalidScenario {
                    reason: "synthetic failure".into(),
                })
            }
        }
        let points = radius_points(&[5.0]);
        let failing = Failing;
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![&failing];
        assert!(run_sweep(&points, &models).is_err());
    }
}
