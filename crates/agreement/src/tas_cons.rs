//! Test&set from consensus objects (paper Section 4.3, citing Gafni,
//! Raynal & Travers 2007).
//!
//! Test&set has consensus number 2, so any object with consensus number
//! `x ≥ 2` can implement it for a statically known set of at most `x`
//! processes: the processes run consensus on *who invoked first* (each
//! proposes its own id); the consensus winner's invocation returns `true`,
//! all others return `false`.
//!
//! This module exists to make the paper's reduction chain executable end to
//! end: the model worlds expose test&set as a primitive for convenience,
//! and `tas_via_consensus` shows that primitive is not extra power when
//! `x ≥ 2` (for ≤ `x`-ported uses). The *multi-ported* test&set used by
//! `x_compete` among all `n` simulators relies on the full construction of
//! Gafni-Raynal-Travers 2007 (out of scope — a different paper); see
//! DESIGN.md for the substitution note.

use mpcn_runtime::world::{Env, ObjKey, Pid};

/// One-shot test&set among the statically known `ports` (`|ports| ≤ x`),
/// implemented from a single x-consensus object at `key`.
///
/// Returns `true` iff the caller's proposal won the underlying consensus —
/// i.e. to exactly one of the invokers, and to a sole invoker.
///
/// # Panics
///
/// Panics (via the world's port check) if the caller is not in `ports` or
/// if different calls pass different port sets.
pub fn tas_via_consensus(env: &Env, key: ObjKey, ports: &[Pid]) -> bool {
    let me = env.pid() as u64;
    env.xcons_propose(key, ports, me) == me
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig};
    use mpcn_runtime::sched::Schedule;
    use mpcn_runtime::Env;

    const KEY: ObjKey = ObjKey::new(650, 0, 0);

    #[test]
    fn exactly_one_winner() {
        for seed in 0..50 {
            let ports: Vec<Pid> = (0..3).collect();
            let cfg = RunConfig::new(3).schedule(Schedule::RandomSeed(seed));
            let bodies: Vec<Body> = (0..3)
                .map(|_| {
                    let ports = ports.clone();
                    Box::new(move |env: Env<ModelWorld>| {
                        u64::from(tas_via_consensus(&env, KEY, &ports))
                    }) as Body
                })
                .collect();
            let report = ModelWorld::run(cfg, bodies);
            assert_eq!(report.decided_values().iter().sum::<u64>(), 1, "seed {seed}");
        }
    }

    #[test]
    fn sole_invoker_wins() {
        let w = ModelWorld::new_free(4);
        let env = Env::new(w, 2);
        assert!(tas_via_consensus(&env, KEY, &[1, 2, 3]));
    }

    #[test]
    fn later_invokers_lose() {
        let w = ModelWorld::new_free(3);
        let ports: Vec<Pid> = vec![0, 1];
        let e0 = Env::new(w.clone(), 0);
        let e1 = Env::new(w.clone(), 1);
        assert!(tas_via_consensus(&e0, KEY, &ports));
        assert!(!tas_via_consensus(&e1, KEY, &ports));
    }
}
