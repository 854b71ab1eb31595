//! Criterion micro-benchmarks of the simulator substrates: one `g(x)`
//! evaluation (and gradient) per test case — the unit cost every
//! estimator's budget is denominated in.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nofis_parallel::ThreadPool;
use nofis_prob::{batch_values, LimitState};
use nofis_testcases::registry::all_cases;

fn bench_case_evaluations(c: &mut Criterion) {
    let mut group = c.benchmark_group("limit_state_value");
    for entry in all_cases() {
        let ls = (entry.make)();
        let x: Vec<f64> = (0..entry.dim)
            .map(|i| 0.3 * (i as f64 * 0.7).sin())
            .collect();
        group.bench_function(entry.name, |b| b.iter(|| ls.value(&x)));
    }
    group.finish();

    let mut group = c.benchmark_group("limit_state_value_grad");
    group.sample_size(20);
    for entry in all_cases() {
        let ls = (entry.make)();
        let x: Vec<f64> = (0..entry.dim)
            .map(|i| 0.3 * (i as f64 * 0.7).sin())
            .collect();
        group.bench_function(entry.name, |b| b.iter(|| ls.value_grad(&x)));
    }
    group.finish();
}

/// Serial vs. parallel chunked batch evaluation of each test-case oracle
/// on a 512-sample batch — the shape of one pilot/IS evaluation pass.
/// Both lanes go through `batch_values`, so the 1-thread number is
/// the true serial baseline for the same code path.
fn bench_parallel_batch_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_batch_serial_vs_parallel");
    group.sample_size(10);
    let serial = ThreadPool::new(1);
    let par4 = ThreadPool::new(4);
    const BATCH: usize = 512;
    for entry in all_cases() {
        let ls = (entry.make)();
        let xs: Vec<Vec<f64>> = (0..BATCH)
            .map(|i| {
                (0..entry.dim)
                    .map(|j| 0.3 * ((i * entry.dim + j) as f64 * 0.7).sin())
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("serial", entry.name), &BATCH, |b, _| {
            b.iter(|| black_box(batch_values(&*ls, &xs, &serial)))
        });
        group.bench_with_input(BenchmarkId::new("parallel4", entry.name), &BATCH, |b, _| {
            b.iter(|| black_box(batch_values(&*ls, &xs, &par4)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_case_evaluations, bench_parallel_batch_eval);
criterion_main!(benches);
