//! E7 / Section 5.4 — the equivalence-class tables.
//!
//! Regenerates (and times, trivially) the paper's `t' = 8` partition, the
//! general class grid, and an **empirical solvability probe**: for a grid
//! of `(t', x)`, run `(⌊t'/x⌋+1)`-set agreement through the simulation and
//! confirm it succeeds — the executable content of "`T_k` solvable in
//! `ASM(n, t, x)` iff `k > ⌊t/x⌋`". The partition itself is printed
//! (`mpcn_bench::section_5_4`).

use criterion::{criterion_group, criterion_main, Criterion};
use mpcn_bench::inputs;
use mpcn_core::equivalence::round_trip;
use mpcn_core::simulator::SimRun;
use mpcn_model::equivalence::{class_grid, class_partition};
use std::hint::black_box;
use std::time::Duration;

fn algebra(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_5_4/algebra");
    let section = mpcn_bench::section_5_4();
    for line in &section.lines {
        eprintln!("{line}");
    }
    for (id, (t_prime, x_max)) in section.cases {
        g.bench_function(id, |b| {
            b.iter(|| black_box(class_partition(black_box(t_prime), black_box(x_max))))
        });
    }
    g.bench_function("class_grid_32x16", |b| {
        b.iter(|| black_box(class_grid(black_box(32), black_box(16))))
    });
    g.finish();
}

fn empirical_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_5_4/empirical_solvability");
    g.warm_up_time(Duration::from_millis(400));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    // One representative of each t'=8-at-small-scale class: n = 6, t' = 4.
    // For each x, (⌊t'/x⌋+1)-set agreement must be solvable via Section 3.
    for x in [1u32, 2, 4] {
        let id = format!("n6_t4_x{x}");
        g.bench_function(&id, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let check = round_trip::section3(6, 4, x, &SimRun::seeded(seed), &inputs(6));
                assert!(check.holds(), "class ⌊4/{x}⌋ task must be solvable");
                black_box(check.report.steps)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, algebra, empirical_probe);
criterion_main!(benches);
