//! Full-chip floorplan-engine benchmark (§IV-E generalized to
//! non-uniform maps): a 32×32 hotspot map (3 distinct unit cells after
//! dedup) and a 32×32 gradient map (every cell distinct) evaluated
//! through Model B(100), plus the factor-once batched path (one ladder factorization shared by all 1024
//! distinct-power tiles), and the same path while a held `LiveChip` keeps
//! the kernel alive for the matrix tier to share (1024 kernel calls, no
//! factorization). Model A runs the same factored path on its
//! one-segment-per-plane ladder.
//!
//! Every cold-path row constructs a fresh engine per iteration, so no
//! kernel can be shared.

use criterion::{criterion_group, criterion_main, Criterion};
use ttsv::prelude::*;
use ttsv_bench::{gradient_floorplan, hotspot_floorplan};

fn bench_floorplan(c: &mut Criterion) {
    let mut group = c.benchmark_group("floorplan_chip");
    group.sample_size(10);

    let hotspot = hotspot_floorplan(32);
    let gradient = gradient_floorplan(32);
    let model = ModelB::paper_b100();

    group.bench_function("hotspot_32x32/model_b100", |b| {
        b.iter(|| {
            ChipEngine::new()
                .evaluate(&hotspot, &model)
                .expect("solvable")
        });
    });
    group.bench_function("gradient_32x32/model_b100", |b| {
        b.iter(|| {
            ChipEngine::new()
                .evaluate(&gradient, &model)
                .expect("solvable")
        });
    });
    group.bench_function("gradient_32x32/model_b100/factor_shared", |b| {
        b.iter(|| {
            ChipEngine::new()
                .evaluate_factored(&gradient, &model)
                .expect("solvable")
        });
    });
    group.bench_function("gradient_32x32/model_b100/warm_cache", |b| {
        let engine = ChipEngine::new();
        let _held = engine
            .evaluate_live(gradient.clone(), model.clone())
            .expect("solvable");
        b.iter(|| {
            engine
                .evaluate_factored(&gradient, &model)
                .expect("solvable")
        });
    });
    group.bench_function("hotspot_32x32/model_a", |b| {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_case_study());
        b.iter(|| {
            ChipEngine::new()
                .evaluate_factored(&hotspot, &model)
                .expect("solvable")
        });
    });

    group.finish();
}

criterion_group!(benches, bench_floorplan);
criterion_main!(benches);
