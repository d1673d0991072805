//! Table I's runtime row: Model B solve time vs segment count.
//!
//! The paper reports 1 ms / 3 ms / 32 ms / 2475 ms for B(1) … B(500) (2010
//! hardware, dense solver). Our block-tridiagonal kernel scales linearly,
//! so the absolute numbers are far smaller, but the growth with segment
//! count is the reproducible shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ttsv::prelude::*;
use ttsv_bench::block;

fn bench(c: &mut Criterion) {
    let scenario = block(5.0, 1.0);
    let mut group = c.benchmark_group("table1_segments");
    group.sample_size(30);
    for (label, model) in [
        ("B(1)", ModelB::paper_b1()),
        ("B(20)", ModelB::paper_b20()),
        ("B(100)", ModelB::paper_b100()),
        ("B(500)", ModelB::paper_b500()),
        ("B(1000)", ModelB::paper_b1000()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, m| {
            b.iter(|| m.max_delta_t(black_box(&scenario)).expect("solvable"))
        });
    }
    // The comparison rows of Table I.
    let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
    group.bench_function("A", |b| {
        b.iter(|| a.max_delta_t(black_box(&scenario)).expect("solvable"))
    });
    let one_d = OneDModel::new();
    group.bench_function("1-D", |b| {
        b.iter(|| one_d.max_delta_t(black_box(&scenario)).expect("solvable"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
