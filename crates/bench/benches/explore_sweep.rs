//! E10 — bounded model-checking sweeps (`runtime::explore`).
//!
//! Two kinds of output:
//!
//! * **Deterministic state-count lines on stderr** — one
//!   `explore: <label> runs=… expansions=… visited=…` line per sweep of
//!   the shared catalogue (`mpcn_agreement::fixtures::catalogue`),
//!   identical across runs, machines, optimization levels, *and
//!   explorer thread counts*. The tier-1 test
//!   `crates/agreement/tests/explore_sweeps.rs::catalogue_matches_golden_file`
//!   diffs the same lines against `tests/golden/explore_catalogue.txt`;
//!   CI diffs two bench runs against each other, and a run under
//!   `MPCN_EXPLORE_SPILL=1` (every sweep through a disk-backed
//!   `SpillStore`) against the golden file — storage is policy and must
//!   be invisible. `docs/EXPLORER.md` catalogues the environment knobs
//!   and stderr counters. The `fig1 n=3 tso` sweep is an **expected
//!   counterexample** (unfenced safe agreement is not safe under TSO),
//!   so its line reports `violations=1` and the bench asserts the
//!   violation *is* found.
//! * **Wall time** of pruned sweeps under `threads = 1` and
//!   `threads = k` — the parallel-speedup measure (the vendored
//!   criterion shim reports mean/min/p50/p99, so tail latency is
//!   visible). On a single-core runner the thread counts tie; the
//!   deterministic lines above are identical either way.
//!
//! With `MPCN_BENCH_JSON=<path>` set, the catalogue additionally
//! appends one JSON object per sweep to `<path>` — label, every
//! summary counter, verdict, and the sweep's wall-clock milliseconds
//! (the only non-deterministic field) — the machine-readable
//! trajectory CI uploads as the `BENCH_explore.json` artifact.
//!
//! Worker count for the catalogued sweeps: `MPCN_EXPLORE_THREADS`
//! (default 2).

use criterion::{criterion_group, criterion_main, Criterion};
use mpcn_agreement::fixtures::{
    catalogue, check_agreement, check_winners, fig1_bodies, fig5_bodies, fig6_bodies,
    CatalogueSweep,
};
use mpcn_runtime::explore::{
    spill_from_env, threads_from_env, ExploreLimits, ExploreReport, Explorer,
};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;

fn limits(max_expansions: u64, max_depth: usize) -> ExploreLimits {
    ExploreLimits { max_expansions, max_steps: 2_000, max_depth }
}

/// Runs one catalogued sweep — through a `SpillStore` in its own
/// directory beneath `spill` when given — and returns its report and
/// wall-clock milliseconds (reported only through the `MPCN_BENCH_JSON`
/// trajectory, never on the determinism-gated stderr lines).
fn run_timed(sweep: &CatalogueSweep, spill: Option<&Path>) -> (ExploreReport, u128) {
    let explorer = match spill {
        Some(base) => {
            let slug: String = sweep
                .label
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            sweep.explorer.clone().spill_to(base.join(slug)).fixture_id(sweep.label)
        }
        None => sweep.explorer.clone(),
    };
    let t0 = std::time::Instant::now();
    let report = sweep.run_with(&explorer);
    (report, t0.elapsed().as_millis())
}

/// One machine-readable trajectory record: the sweep's label, every
/// summary counter, the verdict fields, and wall-clock milliseconds.
/// Labels contain no characters that need JSON escaping.
fn json_line(label: &str, report: &ExploreReport, wall_ms: u128) -> String {
    let s = &report.stats;
    format!(
        "{{\"label\":\"{label}\",\"runs\":{},\"expansions\":{},\"visited\":{},\"pruned\":{},\
         \"dpor\":{},\"qhits\":{},\"symm_enabled\":{},\"symm\":{},\"crashes\":{},\
         \"flushes\":{},\"max_depth\":{},\"depth_limited\":{},\"complete\":{},\
         \"violations\":{},\"wall_ms\":{wall_ms}}}",
        s.runs,
        s.expansions,
        s.states_visited,
        s.states_pruned,
        s.dpor_skips,
        s.quotient_hits,
        s.symm_enabled,
        s.symm_hits,
        s.crash_branches,
        s.flush_branches,
        s.max_depth,
        s.depth_limited_runs,
        report.complete,
        report.violations.len(),
    )
}

fn sweeps(c: &mut Criterion) {
    let threads = threads_from_env(2);
    let spill = spill_from_env()
        .then(|| std::env::temp_dir().join(format!("mpcn-bench-spill-{}", std::process::id())));
    let mut json = std::env::var_os("MPCN_BENCH_JSON").map(|p| {
        std::fs::File::create(&p)
            .unwrap_or_else(|e| panic!("MPCN_BENCH_JSON: cannot create {p:?}: {e}"))
    });
    for sweep in catalogue(threads) {
        let (report, wall_ms) = run_timed(&sweep, spill.as_deref());
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
        if let Some(f) = &mut json {
            writeln!(f, "{}", json_line(sweep.label, &report, wall_ms))
                .expect("MPCN_BENCH_JSON: write failed");
        }
    }
    if let Some(base) = &spill {
        let _ = std::fs::remove_dir_all(base);
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
    // Parallel speedup: the same exhaustive fig6 n=4 sweep under 1 worker
    // and under the env-selected worker count. The deterministic lines
    // above prove both produce identical reports; this pair measures what
    // the extra workers buy in wall time. At this group's sample_size of
    // 10 the printed p99 is just the maximum (nearest rank) — the real
    // tail comes from the 100-sample n=3 pair below.
    for (label, k) in [("fig6_n4_x2_sweep_t1", 1), ("fig6_n4_x2_sweep_tk", threads)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let out = Explorer::new(4)
                    .threads(k)
                    .limits(limits(2_000_000, usize::MAX))
                    .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, false));
                black_box(out.stats.states_visited)
            })
        });
    }
    g.finish();

    // Tail latency of the parallel frontier: the (fast) exhaustive fig6
    // n=3 sweep at 100 samples, where the shim's nearest-rank p99 is a
    // real 99th percentile — worker scheduling jitter shows up here
    // first (vendor/README.md documents the line format).
    let mut tail = c.benchmark_group("explore_tail");
    tail.sample_size(100);
    for (label, k) in [("fig6_n3_x2_sweep_t1", 1), ("fig6_n3_x2_sweep_tk", threads)] {
        tail.bench_function(label, |b| {
            b.iter(|| {
                let out = Explorer::new(3)
                    .threads(k)
                    .limits(limits(1_000_000, usize::MAX))
                    .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, false));
                black_box(out.stats.states_visited)
            })
        });
    }
    tail.finish();
}

criterion_group!(benches, sweeps);
criterion_main!(benches);
