//! Property-based fuzzing of the agreement objects at sizes beyond the
//! exhaustive explorer's reach: random schedules, random crash budgets,
//! random owner multiplicities.

use proptest::prelude::*;

use mpcn_agreement::safe::SafeAgreement;
use mpcn_agreement::xcompete::x_compete;
use mpcn_agreement::xsafe::XSafeAgreement;
use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig};
use mpcn_runtime::sched::{Crashes, Schedule};
use mpcn_runtime::Env;

const BASE: u32 = 800;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Safe agreement: agreement + validity + crash-free termination over
    /// random schedules at n up to 6.
    #[test]
    fn safe_agreement_randomized(n in 2usize..7, seed in 0u64..1_000_000) {
        let bodies: Vec<Body> = (0..n)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let sa = SafeAgreement::new(BASE, 0, n);
                    sa.propose(&env, 100 + i as u64);
                    sa.decide::<u64>(&env)
                }) as Body
            })
            .collect();
        let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
        let report = ModelWorld::run(cfg, bodies);
        let vals = report.decided_values();
        prop_assert_eq!(vals.len(), n, "termination without crashes");
        prop_assert!(vals.windows(2).all(|w| w[0] == w[1]), "agreement");
        prop_assert!((100..100 + n as u64).contains(&vals[0]), "validity");
    }

    /// x-safe-agreement: safety plus termination with up to x−1 random
    /// crashes, for x in 2..=4, n up to 6.
    #[test]
    fn x_safe_agreement_randomized(
        n in 3usize..7,
        x in 2u32..5,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(x as usize <= n);
        let crashes = (x - 1) as usize;
        let bodies: Vec<Body> = (0..n)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let ag = XSafeAgreement::new(BASE + 10, 0, n, x);
                    ag.propose(&env, 100 + i as u64);
                    ag.decide::<u64>(&env)
                }) as Body
            })
            .collect();
        let cfg = RunConfig::new(n)
            .schedule(Schedule::RandomSeed(seed))
            .crashes(Crashes::Random { seed: seed ^ 0xF00, p: 0.05, max: crashes });
        let report = ModelWorld::run(cfg, bodies);
        prop_assert!(
            report.all_correct_decided(),
            "termination with <= x-1 crashes (x = {}, crashed {:?})",
            x,
            report.crashed_pids()
        );
        let vals = report.decided_values();
        prop_assert!(vals.windows(2).all(|w| w[0] == w[1]), "agreement");
        prop_assert!((100..100 + n as u64).contains(&vals[0]), "validity");
    }

    /// x_compete: never more than x winners; with crash-free runs of n > x
    /// invokers, exactly x winners.
    #[test]
    fn x_compete_randomized(
        n in 2usize..8,
        x in 1u32..6,
        seed in 0u64..1_000_000,
        crashes in 0usize..3,
    ) {
        let bodies: Vec<Body> = (0..n)
            .map(|_| {
                Box::new(move |env: Env<ModelWorld>| {
                    u64::from(x_compete(&env, BASE + 20, 0, x))
                }) as Body
            })
            .collect();
        let cfg = RunConfig::new(n)
            .schedule(Schedule::RandomSeed(seed))
            .crashes(Crashes::Random { seed: seed ^ 0xBEE, p: 0.1, max: crashes });
        let report = ModelWorld::run(cfg, bodies);
        let winners: u64 = report.decided_values().iter().sum();
        prop_assert!(winners <= u64::from(x), "{winners} > x = {x}");
        if report.crashed_pids().is_empty() {
            prop_assert_eq!(winners, u64::from(x).min(n as u64));
        }
    }

    /// Independence: two concurrent instances of the same family never
    /// interfere (different `inst` ids), whatever the interleaving.
    #[test]
    fn instances_do_not_interfere(seed in 0u64..1_000_000) {
        let n = 4usize;
        let bodies: Vec<Body> = (0..n)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let inst = (i % 2) as u64; // two instances, two proposers each
                    let sa = SafeAgreement::new(BASE + 30, inst, n);
                    sa.propose(&env, 100 + i as u64);
                    sa.decide::<u64>(&env)
                }) as Body
            })
            .collect();
        let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
        let report = ModelWorld::run(cfg, bodies);
        let vals = report.decided_values();
        prop_assert_eq!(vals.len(), 4);
        // Instance 0 is shared by pids 0 and 2; instance 1 by 1 and 3.
        prop_assert_eq!(vals[0], vals[2], "instance 0 agreement");
        prop_assert_eq!(vals[1], vals[3], "instance 1 agreement");
        prop_assert!(vals[0] == 100 || vals[0] == 102, "instance 0 validity");
        prop_assert!(vals[1] == 101 || vals[1] == 103, "instance 1 validity");
    }
}
