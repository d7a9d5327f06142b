//! Dynamic owner election: the `x_compete` operation (paper Figure 5).
//!
//! Each x-safe-agreement object is associated with an `X_T&S` object made
//! of an array of `x` one-shot test&set objects. `x_compete` returns `true`
//! to at most `x` processes — the object's dynamically determined *owners*
//! — and, if at most `x` processes invoke it, every correct invoker obtains
//! `true`.
//!
//! The paper justifies the availability of test&set in the target model by
//! its consensus number 2 ("a test&set object can easily be implemented
//! from an object with consensus number x", citing Gafni, Raynal & Travers
//! 2007); our worlds provide it as a primitive, and [`crate::tas_cons`]
//! demonstrates the reduction for statically-ported process sets.

use mpcn_runtime::world::{Env, ObjKey};

/// `x_compete()` — Figure 5.
///
/// Walks the test&set array `TS[0..x)` (keys `ObjKey(kind, inst, ℓ)`),
/// claiming the first free object; returns `true` iff one was claimed.
///
/// Performs between 1 and `x` shared-memory steps (one per test&set
/// attempt), so a crash may leave a partially walked array — harmless, the
/// crashed invoker simply claims nothing further.
///
/// Guarantees (proved by the "each winner claims exactly one object"
/// counting argument):
///
/// * at most `x` invocations return `true`;
/// * if at most `x` processes ever invoke it, every invoker that does not
///   crash obtains `true`.
pub fn x_compete(env: &Env, kind: u32, inst: u64, x: u32) -> bool {
    // (01) ℓ ← 1; winner ← false
    // (02) while (ℓ ≤ x ∧ ¬winner) do (03) winner ← TS[ℓ].test&set() ...
    for l in 0..x as u64 {
        if env.tas(ObjKey::new(kind, inst, l)) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig};
    use mpcn_runtime::sched::{Crashes, Schedule};
    use mpcn_runtime::Env;

    const KIND: u32 = 550;

    fn compete_bodies(n: usize, x: u32) -> Vec<Body> {
        (0..n)
            .map(|_| {
                Box::new(move |env: Env<ModelWorld>| u64::from(x_compete(&env, KIND, 0, x))) as Body
            })
            .collect()
    }

    #[test]
    fn at_most_x_winners() {
        for seed in 0..100 {
            for x in 1..=4u32 {
                let n = 8;
                let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
                let report = ModelWorld::run(cfg, compete_bodies(n, x));
                let winners: u64 = report.decided_values().iter().sum();
                assert_eq!(winners, x as u64, "exactly x winners when n > x (seed {seed}, x {x})");
            }
        }
    }

    #[test]
    fn all_win_when_at_most_x_invoke() {
        for seed in 0..100 {
            let x = 4u32;
            let n = 3; // fewer invokers than x
            let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
            let report = ModelWorld::run(cfg, compete_bodies(n, x));
            assert_eq!(report.decided_values(), vec![1, 1, 1], "seed {seed}");
        }
    }

    #[test]
    fn crashed_invoker_does_not_spoil_others() {
        // x invokers, one crashes mid-walk: the remaining x-1 still win.
        for seed in 0..50 {
            let x = 3u32;
            let n = 3;
            let cfg = RunConfig::new(n)
                .schedule(Schedule::RandomSeed(seed))
                .crashes(Crashes::AtOwnStep(vec![(0, 0)]));
            let report = ModelWorld::run(cfg, compete_bodies(n, x));
            let vals = report.decided_values();
            assert_eq!(vals, vec![1, 1], "correct invokers all win, seed {seed}");
        }
    }

    #[test]
    fn sequential_winner_then_losers() {
        let w = ModelWorld::new_free(5);
        let envs: Vec<Env<ModelWorld>> = (0..5).map(|p| Env::new(w.clone(), p)).collect();
        let x = 2;
        assert!(x_compete(&envs[0], KIND, 7, x));
        assert!(x_compete(&envs[1], KIND, 7, x));
        assert!(!x_compete(&envs[2], KIND, 7, x), "array exhausted");
        assert!(!x_compete(&envs[3], KIND, 7, x));
    }

    #[test]
    fn instances_are_independent() {
        let w = ModelWorld::new_free(2);
        let e0 = Env::new(w.clone(), 0);
        assert!(x_compete(&e0, KIND, 100, 1));
        assert!(x_compete(&e0, KIND, 101, 1), "fresh instance, fresh array");
    }
}
