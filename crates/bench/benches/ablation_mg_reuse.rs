//! Ablation: amortizing multigrid setup across solves of one sparsity
//! pattern.
//!
//! On the one smoothed-aggregation hierarchy:
//!
//! * full `MultigridHierarchy::build` vs numeric-only `refresh` on the
//!   32 k-cell box — aggregation, prolongator/Galerkin pattern discovery,
//!   and the transpose adjacency happen once per mesh;
//! * one V-cycle — the per-PCG-iteration cost;
//! * a radius sweep on the 3-D `CartesianReference` with a fresh
//!   reference per run (every point re-aggregates) vs a shared one
//!   (pooled hierarchies refreshed per point).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ttsv::linalg::{MultigridHierarchy, MultigridPreconditioner, Preconditioner};
use ttsv::prelude::*;
use ttsv::validate::fem_adapter::CartesianReference;
use ttsv_bench::{block, mg_box_matrix};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mg_reuse");
    group.sample_size(10);

    let a1 = mg_box_matrix(1.0);
    let a2 = mg_box_matrix(3.0);
    group.bench_function("hierarchy_build/box32k", |b| {
        b.iter(|| MultigridHierarchy::build(black_box(&a1)).expect("coarsens"))
    });
    let mut hierarchy = MultigridHierarchy::build(&a1).expect("coarsens");
    group.bench_function("hierarchy_refresh/box32k", |b| {
        b.iter(|| hierarchy.refresh(black_box(&a2)).expect("same pattern"))
    });

    let n = 32 * 32 * 32;
    let r: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut z = vec![0.0; n];
    let mg = MultigridPreconditioner::new(&a1).expect("coarsens");
    group.bench_function("vcycle/box32k", |b| {
        b.iter(|| mg.apply(black_box(&r), &mut z))
    });

    // End-to-end reuse on the workload where setup is a real fraction of
    // the solve: the 3-D Cartesian reference (multigrid-PCG under Auto).
    let points: Vec<Scenario> = [6.0, 9.0, 12.0].iter().map(|&r| block(r, 2.0)).collect();
    let cart = || {
        CartesianReference::new()
            .with_lateral_cells(16)
            .with_resolution(FemResolution::coarse())
    };
    let sweep = |fem: &CartesianReference| -> f64 {
        points
            .iter()
            .map(|s| fem.max_delta_t(s).expect("solvable").as_kelvin())
            .sum()
    };
    group.bench_function("cartesian_sweep_rebuild/coarse", |b| {
        b.iter(|| {
            let cold = cart();
            sweep(&cold)
        })
    });
    let warm = cart();
    group.bench_function("cartesian_sweep_reuse/coarse", |b| b.iter(|| sweep(&warm)));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
