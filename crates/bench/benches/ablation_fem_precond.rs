//! Ablation: the FEM reference's two linear-solver paths — multigrid-
//! preconditioned CG and the direct banded factorization `FemSolver::Auto`
//! picks on these meshes — at two mesh resolutions.
//!
//! The direct banded path beats the iteration while the lexicographic
//! bandwidth stays small (every axisymmetric mesh); multigrid-PCG is the
//! route for the wide 3-D Cartesian boxes. The retired PCG variants were
//! settled on the coarse mesh (BENCH_13): SSOR-PCG 1.68 ms and
//! Chebyshev-smoothed multigrid 1.33 ms, against 1.05 ms for the
//! Jacobi-smoothed multigrid kept here and 0.15 ms direct.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ttsv::fem::FemSolver;
use ttsv::prelude::*;
use ttsv_bench::block;

fn bench(c: &mut Criterion) {
    let scenario = block(5.0, 0.5);
    let mut group = c.benchmark_group("ablation_fem_precond");
    group.sample_size(15);
    for (res_label, resolution) in [
        ("coarse", FemResolution::coarse()),
        ("default", FemResolution::default()),
    ] {
        let reference = FemReference::new().with_resolution(resolution);
        for (solver_label, solver) in [
            ("multigrid", FemSolver::Multigrid),
            ("direct_banded", FemSolver::DirectBanded),
        ] {
            let problem = {
                let mut p = reference.build_problem(&scenario).expect("valid scenario");
                p.set_solver(solver);
                p
            };
            group.bench_with_input(
                BenchmarkId::new(solver_label, res_label),
                &problem,
                |b, p| b.iter(|| black_box(p).solve().expect("solvable")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
