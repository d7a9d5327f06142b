//! E1 / Figure 1 — safe agreement.
//!
//! Measures (a) the fixed operation cost of one `sa_propose` (3 shared
//! steps) plus `sa_decide` polling, sequentially in a free world, and
//! (b) a full contended propose/decide round among `n` scheduled virtual
//! processes. Expected shape: propose cost is flat in `n` (the snapshot
//! object does the work), full rounds grow roughly linearly with `n`
//! (each process performs a constant number of steps, the scheduler
//! serializes them).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpcn_agreement::safe::SafeAgreement;
use mpcn_bench::free_envs;
use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig};
use mpcn_runtime::sched::Schedule;
use mpcn_runtime::Env;
use std::hint::black_box;
use std::time::Duration;

const KIND: u32 = 500;

fn sequential_propose_decide(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1/sequential_propose_decide");
    for n in [2usize, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let envs = free_envs(n);
            let mut inst = 0u64;
            b.iter(|| {
                inst += 1;
                let sa = SafeAgreement::new(KIND, inst, n);
                for e in &envs {
                    sa.propose(e, black_box(7u64));
                }
                black_box(sa.try_decide::<u64>(&envs[0]).unwrap())
            });
        });
    }
    g.finish();
}

fn contended_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1/contended_round");
    g.warm_up_time(Duration::from_millis(400));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for n in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
                let bodies: Vec<Body> = (0..n)
                    .map(|i| {
                        Box::new(move |env: Env<ModelWorld>| {
                            let sa = SafeAgreement::new(KIND, 0, n);
                            sa.propose(&env, 100 + i as u64);
                            sa.decide::<u64>(&env)
                        }) as Body
                    })
                    .collect();
                black_box(ModelWorld::run(cfg, bodies).steps)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, sequential_propose_decide, contended_round);
criterion_main!(benches);
