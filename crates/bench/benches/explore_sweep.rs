//! E10 — bounded model-checking sweeps (`runtime::explore`).
//!
//! Two kinds of output:
//!
//! * **Deterministic state-count lines on stderr** — one
//!   `explore: <label> runs=… expansions=… visited=…` line per sweep of
//!   the shared catalogue (`mpcn_agreement::fixtures::catalogue`),
//!   identical across runs, machines, optimization levels and storage
//!   policies. `tests/golden/explore_catalogue.txt` pins them: the
//!   tier-1 tests in `crates/agreement/tests/explore_sweeps.rs` diff the
//!   catalogue against it in memory and through a disk-backed
//!   `SpillStore`. `docs/EXPLORER.md` §6 explains the counters. The
//!   `fig1 n=3 tso` sweep is an **expected counterexample** (unfenced
//!   safe agreement is not safe under TSO), so its line reports
//!   `violations=1` and the bench asserts the violation *is* found.
//! * **Wall time** of pruned sweeps (the vendored criterion shim reports
//!   mean/min/p50/p99, so tail latency is visible).

use criterion::{criterion_group, criterion_main, Criterion};
use mpcn_agreement::fixtures::{
    catalogue, check_agreement, check_winners, fig1_bodies, fig5_bodies, fig6_bodies,
};
use mpcn_runtime::explore::{ExploreLimits, Explorer};
use std::hint::black_box;

fn limits(max_expansions: u64, max_depth: usize) -> ExploreLimits {
    ExploreLimits { max_expansions, max_steps: 2_000, max_depth }
}

fn sweeps(c: &mut Criterion) {
    for sweep in catalogue() {
        let report = sweep.run();
        if sweep.expect_violation {
            assert!(
                !report.violations.is_empty(),
                "{}: the pinned weak-memory counterexample must be found",
                sweep.label
            );
        } else {
            report.assert_no_violation();
        }
        eprintln!("{}", report.summary_line(sweep.label));
    }

    let mut g = c.benchmark_group("explore");
    g.sample_size(10);
    g.bench_function("fig5_n3_x2_pruned_sweep", |b| {
        b.iter(|| {
            let out = Explorer::new(3)
                .limits(limits(500_000, usize::MAX))
                .run(|| fig5_bodies(3, 2), |r| check_winners(r, 3, 2));
            black_box(out.stats.states_visited)
        })
    });
    g.bench_function("fig1_n2_pruned_sweep", |b| {
        b.iter(|| {
            let out = Explorer::new(2)
                .limits(limits(500_000, usize::MAX))
                .run(|| fig1_bodies(2, 1), |r| check_agreement(r, 2, false));
            black_box(out.stats.states_visited)
        })
    });
    // The exhaustive fig6 n=4 sweep. At this group's sample_size of 10
    // the printed p99 is just the maximum (nearest rank) — the real tail
    // comes from the 100-sample n=3 sweep below.
    g.bench_function("fig6_n4_x2_sweep", |b| {
        b.iter(|| {
            let out = Explorer::new(4)
                .limits(limits(2_000_000, usize::MAX))
                .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, false));
            black_box(out.stats.states_visited)
        })
    });
    g.finish();

    // Tail latency: the (fast) exhaustive fig6 n=3 sweep at 100 samples,
    // where the shim's nearest-rank p99 is a real 99th percentile
    // (vendor/README.md documents the line format).
    let mut tail = c.benchmark_group("explore_tail");
    tail.sample_size(100);
    tail.bench_function("fig6_n3_x2_sweep", |b| {
        b.iter(|| {
            let out = Explorer::new(3)
                .limits(limits(1_000_000, usize::MAX))
                .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, false));
            black_box(out.stats.states_visited)
        })
    });
    tail.finish();
}

criterion_group!(benches, sweeps);
criterion_main!(benches);
