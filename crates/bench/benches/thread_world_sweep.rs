//! Real-thread large-`n` sweep.
//!
//! Drives a free-mode [`ModelWorld`] ([`ModelWorld::new_free`]) — real OS
//! threads sharing one world, no scheduler — through safe-agreement
//! rounds at `n ∈ {8, 16, 32, 64}` against the gated [`ModelWorld`]
//! executing the *same* bodies under its step gate, then scales the free
//! world alone through the high-concurrency sizes `n ∈ {128, 256, 1024}`
//! (the gated run spawns one OS thread per process, so the comparison
//! stops being about shared memory well before 1024). One round = every
//! process runs `sa_propose` (3 shared-memory steps) plus `POLLS`
//! `try_decide` polls (1 step each), so a round costs exactly
//! `n · (3 + POLLS)` shared operations in either mode — which makes the
//! printed steps/sec lines a direct measure of the scheduler-handshake
//! overhead (small `n`) and of lock contention (large `n`).
//!
//! The `thread_world …` stderr lines contain wall-clock rates, so no
//! golden file pins them. After all bodies finish, `main` runs the epoch
//! leak gate (quiescent drain of deferred reclamation).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use mpcn_agreement::safe::SafeAgreement;
use mpcn_bench::assert_epoch_drained;
use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig};
use mpcn_runtime::sched::Schedule;
use mpcn_runtime::world::Env;
use std::hint::black_box;
use std::time::Instant;

/// Object-kind namespace of this bench's agreement instances.
const KIND: u32 = 840;
/// `try_decide` polls per process and round.
const POLLS: usize = 2;
/// Sizes where the gated ModelWorld comparison is still meaningful.
const COMPARE_SIZES: [usize; 4] = [8, 16, 32, 64];
/// High-concurrency sizes run on the free world alone.
const LARGE_SIZES: [usize; 3] = [128, 256, 1024];

/// Shared-memory operations one round completes.
fn ops_per_round(n: usize) -> u64 {
    (n * (3 + POLLS)) as u64
}

/// `--quick` / `--test` (the CI smoke): one round per stderr rate line.
fn quick() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// Timed repetitions for the stderr rate lines: amortize for small `n`,
/// back off as thread-spawn cost grows with `n`.
fn rate_rounds(n: usize) -> u32 {
    if quick() {
        1
    } else {
        (2_048 / n as u32).clamp(2, 20)
    }
}

/// One full-speed round on real threads: `n` processes propose and poll
/// on a fresh free-mode world. Returns the number of processes that saw a
/// decided value (data dependency against dead-code elimination).
fn thread_world_round(n: usize) -> usize {
    let world = ModelWorld::new_free(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let world = world.clone();
                scope.spawn(move || {
                    let env = Env::new(world, pid);
                    let sa = SafeAgreement::new(KIND, 0, n);
                    sa.propose(&env, 100 + pid as u64);
                    let mut last = None;
                    for _ in 0..POLLS {
                        last = sa.try_decide::<u64>(&env);
                    }
                    usize::from(last.is_some())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    })
}

fn model_bodies(n: usize) -> Vec<Body> {
    (0..n)
        .map(|pid| {
            Box::new(move |env: Env<ModelWorld>| {
                let sa = SafeAgreement::new(KIND, 0, n);
                sa.propose(&env, 100 + pid as u64);
                let mut last = None;
                for _ in 0..POLLS {
                    last = sa.try_decide::<u64>(&env);
                }
                u64::from(last.is_some())
            }) as Body
        })
        .collect()
}

/// One gated round under the deterministic scheduler. Returns the exact
/// step count (must equal [`ops_per_round`]).
fn model_world_round(n: usize) -> u64 {
    let report =
        ModelWorld::run(RunConfig::new(n).schedule(Schedule::RandomSeed(7)), model_bodies(n));
    report.steps
}

/// Steps/sec over `rounds` timed repetitions of `round` (each returning
/// its completed step count).
fn rate(rounds: u32, mut round: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut steps = 0u64;
    for _ in 0..rounds {
        steps += round();
    }
    steps as f64 / start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
}

fn sweep(c: &mut Criterion) {
    for n in COMPARE_SIZES {
        let model_steps = model_world_round(n);
        assert_eq!(model_steps, ops_per_round(n), "every op is one gated step");
        let rounds = rate_rounds(n);
        let model_rate = rate(rounds.min(3), || model_world_round(n));
        let thread_rate = rate(rounds, || {
            black_box(thread_world_round(n));
            ops_per_round(n)
        });
        eprintln!(
            "thread_world n={n}: gated {model_rate:.0} steps/s vs free \
             {thread_rate:.0} steps/s (x{:.1} gate overhead)",
            thread_rate / model_rate.max(f64::MIN_POSITIVE)
        );
    }
    for n in LARGE_SIZES {
        let thread_rate = rate(rate_rounds(n), || {
            black_box(thread_world_round(n));
            ops_per_round(n)
        });
        eprintln!("thread_world n={n}: free {thread_rate:.0} steps/s (high-concurrency)");
    }

    let mut g = c.benchmark_group("thread_world");
    g.sample_size(10);
    for n in COMPARE_SIZES.into_iter().chain(LARGE_SIZES) {
        // One iteration completes ops_per_round(n) shared-memory steps:
        // the thrpt segment is directly comparable across sizes.
        g.throughput(Throughput::Elements(ops_per_round(n)));
        g.bench_with_input(BenchmarkId::new("agreement_round", n), &n, |b, &n| {
            b.iter(|| black_box(thread_world_round(n)))
        });
    }
    for n in [8usize, 64] {
        g.throughput(Throughput::Elements(ops_per_round(n)));
        g.bench_with_input(BenchmarkId::new("model_world_round", n), &n, |b, &n| {
            b.iter(|| black_box(model_world_round(n)))
        });
    }
    g.finish();
}

criterion_group!(benches, sweep);

fn main() {
    benches();
    assert_epoch_drained();
}
