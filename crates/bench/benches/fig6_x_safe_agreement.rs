//! E5 / Figure 6 — x-safe-agreement.
//!
//! The dominant cost of `x_sa_propose` is the `SET_LIST` walk: an owner
//! proposes on the consensus object of **every** size-`x` subset containing
//! it — `C(n−1, x−1)` shared steps out of `m = C(n, x)` scanned subsets.
//! Expected shape: combinatorial growth in `x` at fixed `n` (peaking near
//! `x = n/2`), visibly super-linear — the price the Section 4 construction
//! pays for electing owners dynamically. The list length and owner
//! touches per `x` are printed once (`mpcn_bench::fig6`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpcn_agreement::xsafe::XSafeAgreement;
use mpcn_bench::free_envs;
use std::hint::black_box;

const KIND: u32 = 600;

fn propose_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6/x_sa_propose_owner_walk");
    let section = mpcn_bench::fig6();
    for line in &section.lines {
        eprintln!("{line}");
    }
    for (id, (n, x)) in section.cases {
        g.bench_function(id, |b| {
            let envs = free_envs(n);
            let mut inst = 0u64;
            b.iter(|| {
                inst += 1;
                let ag = XSafeAgreement::new(KIND, inst, n, x);
                ag.propose(&envs[0], black_box(42u64));
                black_box(ag.try_decide::<u64>(&envs[1]).unwrap())
            });
        });
    }
    g.finish();
}

fn decide_poll(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6/x_sa_decide_poll");
    let n = 8usize;
    for x in [2u32, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(x), &x, |b, &x| {
            let envs = free_envs(n);
            let ag = XSafeAgreement::new(KIND, 999_000 + u64::from(x), n, x);
            ag.propose(&envs[0], 7u64);
            b.iter(|| black_box(ag.try_decide::<u64>(&envs[2]).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, propose_walk, decide_poll);
criterion_main!(benches);
