//! Ablation: where do a simulation's shared-memory steps go?
//!
//! DESIGN.md calls out the design choices of the general simulator — the
//! input-agreement stage, the per-snapshot agreement objects, and the
//! consensus-object agreements. Using the model world's per-kind operation
//! accounting this bench prints the exact step breakdown of each case
//! (`mpcn_bench::ablation`, deterministic, seed 1) and times the runs;
//! shapes to expect:
//!
//! * input agreement is a fixed `n`-proportional prologue;
//! * snapshot agreements dominate for snapshot-heavy algorithms
//!   (write/snap/min), consensus-object agreements appear only when the
//!   source uses x-cons objects;
//! * the same algorithm under an `x' > 1` target shifts agreement steps
//!   from the snapshot-object kinds into test&set + consensus kinds.

use criterion::{criterion_group, criterion_main, Criterion};
use mpcn_core::simulator::{run_colorless, SimRun};
use std::hint::black_box;
use std::time::Duration;

fn step_breakdown(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/step_breakdown");
    g.warm_up_time(Duration::from_millis(400));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let section = mpcn_bench::ablation();
    for line in &section.lines {
        eprintln!("{line}");
    }
    for (id, (spec, inputs)) in section.cases {
        g.bench_function(id, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let report = run_colorless(&spec, &inputs, &SimRun::seeded(seed));
                assert!(report.all_correct_decided());
                black_box(report.steps)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, step_breakdown);
criterion_main!(benches);
