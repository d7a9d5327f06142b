//! E2 / Figures 2–3 — the BG simulation's `sim_write`/`sim_snapshot`.
//!
//! Runs the classic BG configuration — a read/write `(t+1)`-set algorithm
//! for `ASM(n, t, 1)` executed by `t + 1` wait-free simulators — and the
//! same-`n` configuration, for growing `n`. Reports wall time; the
//! classic configuration's deterministic step counts (the model-level
//! cost) are printed once per size (`mpcn_bench::fig2_3`).
//!
//! Expected shape: cost grows with both the number of simulated processes
//! (more write/snapshot agreements) and the number of simulators (each
//! runs the whole code of everyone — the BG simulation trades redundancy
//! for resilience).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpcn_bench::run_and_count;
use mpcn_model::ModelParams;
use mpcn_tasks::algorithms;
use std::hint::black_box;
use std::time::Duration;

fn bg_classic(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_3/bg_classic_t_plus_1_simulators");
    g.warm_up_time(Duration::from_millis(400));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let section = mpcn_bench::fig2_3();
    for line in &section.lines {
        eprintln!("{line}");
    }
    for (id, (alg, target)) in section.cases {
        g.bench_function(id, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_and_count(&alg, target, seed))
            });
        });
    }
    g.finish();
}

fn bg_same_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_3/bg_n_simulators");
    g.warm_up_time(Duration::from_millis(400));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for n in [3u32, 5, 7] {
        let alg = algorithms::kset_read_write(n, 1).expect("valid params");
        let target = ModelParams::new(n, 1, 1).expect("valid params");
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_and_count(&alg, target, seed))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bg_classic, bg_same_n);
criterion_main!(benches);
