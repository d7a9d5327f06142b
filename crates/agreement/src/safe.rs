//! The safe agreement object type (paper Figure 1, from Borowsky et al.).
//!
//! Specification (Section 3.1):
//!
//! * **Termination** — if no process crashes while executing `sa_propose`,
//!   every correct process that invokes `sa_decide` returns.
//! * **Agreement** — at most one value is decided.
//! * **Validity** — a decided value is a proposed value.
//!
//! Implementation: a snapshot object `SM[1..n]`, one entry per process,
//! holding `(value, level)` with level 0 = meaningless, 1 = unstable,
//! 2 = stable. `propose(v)` writes `(v, 1)`, snapshots, then downgrades to
//! `(v, 0)` if it saw a stable value and upgrades to `(v, 2)` otherwise.
//! `decide` waits until no entry is unstable, then returns the stable value
//! of the smallest-index process.

use mpcn_runtime::world::{Env, MemVal, ObjKey, World};

/// Levels of a proposal in `SM`.
const MEANINGLESS: u8 = 0;
const UNSTABLE: u8 = 1;
const STABLE: u8 = 2;

/// One safe-agreement instance (see [module docs](self)).
///
/// Stateless handle: all state lives in the world under
/// `ObjKey(kind_base, inst, 0)`.
#[derive(Debug, Clone, Copy)]
pub struct SafeAgreement {
    kind_base: u32,
    inst: u64,
    n: usize,
}

impl SafeAgreement {
    /// Handle on instance `inst` of the family rooted at `kind_base`,
    /// shared by `n` processes.
    pub fn new(kind_base: u32, inst: u64, n: usize) -> Self {
        SafeAgreement { kind_base, inst, n }
    }

    fn sm_key(&self) -> ObjKey {
        ObjKey::new(self.kind_base, self.inst, 0)
    }

    /// `sa_propose(v)` — Figure 1 lines 01–03. Three shared-memory steps;
    /// a crash between the first write and the final write leaves this
    /// process's entry unstable and blocks the instance forever.
    ///
    /// The line-02 snapshot is taken through a **declared view summary**
    /// ([`mpcn_runtime::world::World::snap_scan_via`]): line 03 consumes
    /// only `saw_stable`, so that one bit is all the scan returns — which
    /// licenses the exhaustive explorer to fold the bit, not the `O(n)`
    /// view, into this process's mid-flight state identity.
    pub fn propose<T: MemVal, W: World>(&self, env: &Env<W>, v: T) {
        let i = env.pid();
        let key = self.sm_key();
        // (01) SM[i] ← (v, 1)
        env.snap_write(key, self.n, i, (v.clone(), UNSTABLE));
        // (02+03a) sm ← SM.snapshot(), summarized to ∃x: sm[x].level = 2
        let saw_stable = env.snap_scan_via::<(T, u8), bool>(key, self.n, |sm| {
            sm.iter().flatten().any(|(_, lvl)| *lvl == STABLE)
        });
        // (03b) if saw_stable then SM[i] ← (v, 0) else SM[i] ← (v, 2)
        let level = if saw_stable { MEANINGLESS } else { STABLE };
        env.snap_write(key, self.n, i, (v, level));
    }

    /// One polling iteration of `sa_decide` — Figure 1 lines 04–06.
    ///
    /// Returns `None` while some entry is unstable (level 1) or while no
    /// stable value exists yet; otherwise the stable value of the
    /// smallest-index process. The scan is summarized to exactly that
    /// `Option` — the poll's entire observable effect — under the same
    /// declared-view-summary contract as [`SafeAgreement::propose`].
    pub fn try_decide<T: MemVal, W: World>(&self, env: &Env<W>) -> Option<T> {
        env.snap_scan_via::<(T, u8), Option<T>>(self.sm_key(), self.n, |sm| {
            // (04) repeat until ∀x: sm[x].level ≠ 1
            if sm.iter().flatten().any(|(_, lvl)| *lvl == UNSTABLE) {
                return None;
            }
            // (05) res ← value of min { k | sm[k].level = 2 }
            sm.iter().flatten().find(|(_, lvl)| *lvl == STABLE).map(|(v, _)| v.clone())
        })
    }

    /// Blocking `sa_decide` (spins on [`Self::try_decide`]).
    ///
    /// Spins forever if a proposer crashed mid-`propose`; in model-world
    /// runs the step budget bounds this.
    pub fn decide<T: MemVal, W: World>(&self, env: &Env<W>) -> T {
        loop {
            if let Some(v) = self.try_decide(env) {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig};
    use mpcn_runtime::sched::{Crashes, Schedule};
    use mpcn_runtime::Env;

    const BASE: u32 = 500;

    fn envs(n: usize) -> (ModelWorld, Vec<Env<ModelWorld>>) {
        let w = ModelWorld::new_free(n);
        let es = (0..n).map(|p| Env::new(w.clone(), p)).collect();
        (w, es)
    }

    #[test]
    fn first_stable_proposal_wins_sequentially() {
        let (_w, e) = envs(3);
        let sa = SafeAgreement::new(BASE, 0, 3);
        assert_eq!(sa.try_decide::<u64, _>(&e[0]), None, "nothing proposed yet");
        sa.propose(&e[2], 22u64);
        sa.propose(&e[0], 7u64);
        sa.propose(&e[1], 11u64);
        // p2's proposal stabilized first; later proposals are meaningless.
        for env in &e {
            assert_eq!(sa.try_decide::<u64, _>(env), Some(22));
        }
    }

    #[test]
    fn min_index_rule_applies_among_stable() {
        // Two proposals can both stabilize if their snapshots interleave
        // before either writes level 2 — impossible sequentially; here we
        // exercise the min-index tie-break by scheduling an interleaving.
        let cfg = RunConfig::new(2).schedule(Schedule::Scripted {
            // p0: write(0), p1: write(1), p0: scan, p1: scan,
            // p0: write stable, p1: write stable, then decides.
            steps: vec![0, 1, 0, 1, 0, 1],
            then_seed: 1,
        });
        let bodies: Vec<Body> = (0..2)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let sa = SafeAgreement::new(BASE, 0, 2);
                    sa.propose(&env, 100 + i as u64);
                    sa.decide::<u64, _>(&env)
                }) as Body
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        // Both stabilized → both see both stable → min index (p0) wins.
        assert_eq!(report.decided_values(), vec![100, 100]);
    }

    #[test]
    fn agreement_validity_across_schedules() {
        for seed in 0..200 {
            let cfg = RunConfig::new(4).schedule(Schedule::RandomSeed(seed));
            let bodies: Vec<Body> = (0..4)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        let sa = SafeAgreement::new(BASE, 0, 4);
                        sa.propose(&env, 100 + i as u64);
                        sa.decide::<u64, _>(&env)
                    }) as Body
                })
                .collect();
            let report = ModelWorld::run(cfg, bodies);
            let vals = report.decided_values();
            assert_eq!(vals.len(), 4, "termination (no crashes), seed {seed}");
            assert!(vals.windows(2).all(|w| w[0] == w[1]), "agreement, seed {seed}");
            assert!((100..104).contains(&vals[0]), "validity, seed {seed}");
        }
    }

    #[test]
    fn crash_outside_propose_does_not_block() {
        // p0 completes propose (3 steps) and crashes afterwards: the other
        // processes still decide.
        for seed in 0..50 {
            let cfg = RunConfig::new(3)
                .schedule(Schedule::Scripted { steps: vec![0, 0, 0], then_seed: seed })
                .crashes(Crashes::AtOwnStep(vec![(0, 3)]));
            let bodies: Vec<Body> = (0..3)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        let sa = SafeAgreement::new(BASE, 0, 3);
                        sa.propose(&env, 100 + i as u64);
                        sa.decide::<u64, _>(&env)
                    }) as Body
                })
                .collect();
            let report = ModelWorld::run(cfg, bodies);
            assert_eq!(report.crashed_pids(), vec![0]);
            let vals = report.decided_values();
            assert_eq!(vals.len(), 2, "correct processes decide, seed {seed}");
            assert_eq!(vals[0], 100, "p0's stable value wins");
        }
    }

    #[test]
    fn crash_inside_propose_blocks_instance() {
        // p0 crashes after its level-1 write (own step 1 = the snapshot):
        // its entry stays unstable forever and nobody decides.
        let cfg = RunConfig::new(3)
            .schedule(Schedule::Scripted { steps: vec![0, 0], then_seed: 3 })
            .crashes(Crashes::AtOwnStep(vec![(0, 1)]))
            .max_steps(10_000);
        let bodies: Vec<Body> = (0..3)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let sa = SafeAgreement::new(BASE, 0, 3);
                    sa.propose(&env, 100 + i as u64);
                    sa.decide::<u64, _>(&env)
                }) as Body
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert!(report.timed_out, "instance must be blocked");
        assert_eq!(report.decided_values(), Vec::<u64>::new());
        assert_eq!(report.undecided_pids(), vec![1, 2]);
    }

    #[test]
    fn decided_value_is_stable_forever() {
        let (_w, e) = envs(3);
        let sa = SafeAgreement::new(BASE, 9, 3);
        sa.propose(&e[1], 5u64);
        let first: u64 = sa.try_decide(&e[0]).unwrap();
        sa.propose(&e[0], 6u64);
        sa.propose(&e[2], 7u64);
        for _ in 0..5 {
            assert_eq!(sa.try_decide::<u64, _>(&e[2]), Some(first));
        }
    }

    #[test]
    fn instances_are_independent() {
        let (_w, e) = envs(2);
        let a = SafeAgreement::new(BASE, 1, 2);
        let b = SafeAgreement::new(BASE, 2, 2);
        a.propose(&e[0], 1u64);
        b.propose(&e[1], 2u64);
        assert_eq!(a.try_decide::<u64, _>(&e[1]), Some(1));
        assert_eq!(b.try_decide::<u64, _>(&e[0]), Some(2));
    }
}
