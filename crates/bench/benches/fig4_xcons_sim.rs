//! E3 / Figure 4 — `sim_x_cons_propose`: simulating consensus-number-`x`
//! objects with read/write simulators (the Section 3 direction).
//!
//! Runs `group-xcons-then-min` for `ASM(n, t', x)` in its canonical
//! read/write form `ASM(n, ⌊t'/x⌋, 1)` across `x`. Expected shape: larger
//! `x` means fewer simulated consensus objects (⌈n/x⌉ groups) but each
//! object's agreement is shared by more simulated ports; total cost stays
//! in the same band — the interesting output is that *all* of these
//! succeed with `t = ⌊t'/x⌋` read/write simulators. The step count of
//! each case is printed once (`mpcn_bench::fig4`).

use criterion::{criterion_group, criterion_main, Criterion};
use mpcn_bench::run_and_count;
use std::hint::black_box;
use std::time::Duration;

fn xcons_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4/section3_xcons_to_read_write");
    g.warm_up_time(Duration::from_millis(400));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let section = mpcn_bench::fig4();
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

criterion_group!(benches, xcons_simulation);
criterion_main!(benches);
