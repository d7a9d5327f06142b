//! The x-safe-agreement object type (paper Section 4.2, Figure 6).
//!
//! Specification:
//!
//! * **Termination** — if at most `x − 1` processes crash while executing
//!   `x_sa_propose`, every correct process that invokes `x_sa_decide`
//!   returns.
//! * **Agreement** — at most one value is decided.
//! * **Validity** — a decided value is a proposed value.
//!
//! The object's ≤ `x` *owners* are elected dynamically by
//! [`crate::xcompete::x_compete`]. An owner does not know who the other
//! owners are, so it cannot know which consensus-number-`x` object to share
//! with them; the paper's resolution is combinatorial brute force: scan
//! `SET_LIST[1..m]` — all `m = C(n, x)` size-`x` subsets of processes, in a
//! canonical order — and propose the running result to the consensus object
//! `XCONS[ℓ]` of every subset containing the caller. Since the owner set is
//! contained in some `SET_LIST[ℓ*]`, all owners converge at `ℓ*` (if not
//! before) and carry the agreed value through the remaining objects into
//! the result register `X_SAFE_AG`.

use mpcn_model::combinatorics::{binomial, subset_unrank};
use mpcn_runtime::world::{Env, MemVal, ObjKey, Pid};

use crate::xcompete::x_compete;

/// One x-safe-agreement instance (see [module docs](self)).
///
/// Stateless handle; world objects used (all derived from `kind_base` and
/// the instance id):
///
/// * `ObjKey(kind_base + 1, inst, ℓ)` — the `X_T&S` test&set array,
///   `ℓ ∈ 0..x`;
/// * `ObjKey(kind_base + 2, inst, ℓ)` — `XCONS[ℓ]`, the consensus object
///   of the `ℓ`-th size-`x` subset, `ℓ ∈ 0..C(n,x)`;
/// * `ObjKey(kind_base + 3, inst, 0)` — the `X_SAFE_AG` result register.
#[derive(Debug, Clone, Copy)]
pub struct XSafeAgreement {
    kind_base: u32,
    inst: u64,
    n: usize,
    x: u32,
}

impl XSafeAgreement {
    /// Handle on instance `inst` of the family rooted at `kind_base`,
    /// shared by `n` processes with consensus-number-`x` objects.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0` or `x > n` (no size-`x` subsets would exist).
    pub fn new(kind_base: u32, inst: u64, n: usize, x: u32) -> Self {
        assert!(x >= 1 && x as usize <= n, "x must satisfy 1 <= x <= n");
        XSafeAgreement { kind_base, inst, n, x }
    }

    fn tas_kind(&self) -> u32 {
        self.kind_base + 1
    }

    fn cons_key(&self, l: u64) -> ObjKey {
        ObjKey::new(self.kind_base + 2, self.inst, l)
    }

    fn result_key(&self) -> ObjKey {
        ObjKey::new(self.kind_base + 3, self.inst, 0)
    }

    /// Number of size-`x` subsets scanned by an owner (`m = C(n, x)`).
    pub fn set_list_len(&self) -> u64 {
        binomial(self.n as u64, self.x as u64)
    }

    /// `x_sa_propose(v)` — Figure 6 lines 01–08.
    ///
    /// Non-owners return after the (at most `x`) test&set steps of
    /// `x_compete`. Owners additionally perform one consensus step per
    /// subset containing them (`C(n−1, x−1)` steps) and one final register
    /// write; a crash anywhere in that walk is survivable by the instance
    /// as long as at least one owner completes.
    pub fn propose<T: MemVal>(&self, env: &Env, v: T) {
        // (01) owner ← X_T&S.x_compete()
        let owner = x_compete(env, self.tas_kind(), self.inst, self.x);
        // (02) if (owner) then
        if !owner {
            return;
        }
        // (03) res ← v
        let mut res = v;
        let i = env.pid();
        let m = self.set_list_len();
        // (04–06) for ℓ from 1 to m: if i ∈ SET_LIST[ℓ] then
        //             res ← XCONS[ℓ].x_cons_propose(res)
        for l in 0..m {
            let set = subset_unrank(self.n as u32, self.x, l);
            if set.binary_search(&(i as u32)).is_ok() {
                let ports: Vec<Pid> = set.iter().map(|&p| p as Pid).collect();
                res = env.xcons_propose(self.cons_key(l), &ports, res);
            }
        }
        // (07) X_SAFE_AG ← res
        env.reg_write(self.result_key(), res);
    }

    /// One polling iteration of `x_sa_decide` — Figure 6 lines 09–10.
    ///
    /// Returns the content of `X_SAFE_AG`, or `None` while it is still `⊥`.
    pub fn try_decide<T: MemVal>(&self, env: &Env) -> Option<T> {
        env.reg_read(self.result_key())
    }

    /// Blocking `x_sa_decide` (spins on [`Self::try_decide`]).
    pub fn decide<T: MemVal>(&self, env: &Env) -> T {
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

    const BASE: u32 = 600;

    fn propose_decide_bodies(n: usize, x: u32) -> Vec<Body> {
        (0..n)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let ag = XSafeAgreement::new(BASE, 0, n, x);
                    ag.propose(&env, 100 + i as u64);
                    ag.decide::<u64>(&env)
                }) as Body
            })
            .collect()
    }

    #[test]
    fn sequential_first_owner_fixes_value() {
        let w = ModelWorld::new_free(4);
        let envs: Vec<Env<ModelWorld>> = (0..4).map(|p| Env::new(w.clone(), p)).collect();
        let ag = XSafeAgreement::new(BASE, 0, 4, 2);
        assert_eq!(ag.try_decide::<u64>(&envs[0]), None);
        ag.propose(&envs[2], 22u64);
        // p2 ran alone: it won x_compete, carried 22 through its subsets,
        // and published it.
        assert_eq!(ag.try_decide::<u64>(&envs[0]), Some(22));
        ag.propose(&envs[1], 11u64);
        assert_eq!(ag.try_decide::<u64>(&envs[1]), Some(22));
    }

    #[test]
    fn agreement_validity_termination_across_schedules() {
        for seed in 0..60 {
            for x in 2..=3u32 {
                let n = 5;
                let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
                let report = ModelWorld::run(cfg, propose_decide_bodies(n, x));
                let vals = report.decided_values();
                assert_eq!(vals.len(), n, "termination, seed {seed} x {x}");
                assert!(vals.windows(2).all(|w| w[0] == w[1]), "agreement, seed {seed} x {x}");
                assert!((100..105).contains(&vals[0]), "validity, seed {seed} x {x}");
            }
        }
    }

    #[test]
    fn survives_up_to_x_minus_one_crashes_in_propose() {
        // x = 3: crash 2 processes at their very first step (inside
        // x_compete). Termination must still hold.
        for seed in 0..60 {
            let n = 5;
            let x = 3u32;
            let cfg = RunConfig::new(n)
                .schedule(Schedule::RandomSeed(seed))
                .crashes(Crashes::AtOwnStep(vec![(0, 1), (1, 1)]));
            let report = ModelWorld::run(cfg, propose_decide_bodies(n, x));
            let vals = report.decided_values();
            assert_eq!(vals.len(), 3, "3 correct processes decide, seed {seed}");
            assert!(vals.windows(2).all(|w| w[0] == w[1]), "agreement, seed {seed}");
        }
    }

    #[test]
    fn blocks_when_all_x_owners_crash_in_propose() {
        // x = 2, n = 4. Let p0 and p1 win the two test&set slots and crash
        // immediately after (before any consensus step): both owners are
        // dead mid-propose, nobody ever publishes, the instance blocks.
        let cfg = RunConfig::new(4)
            .schedule(Schedule::Scripted { steps: vec![0, 1, 1], then_seed: 5 })
            // p0 wins TS[0] at step 0, crashes before its 2nd op.
            // p1 loses TS[0], wins TS[1], crashes before its 3rd op.
            .crashes(Crashes::AtOwnStep(vec![(0, 1), (1, 2)]))
            .max_steps(20_000);
        let report = ModelWorld::run(cfg, propose_decide_bodies(4, 2));
        assert!(report.timed_out, "instance must block");
        assert_eq!(report.decided_values(), Vec::<u64>::new());
        assert_eq!(report.crashed_pids(), vec![0, 1]);
        assert_eq!(report.undecided_pids(), vec![2, 3]);
    }

    #[test]
    fn non_owner_crash_cannot_block() {
        // n = 6, x = 2: processes p0..p3 invoke; p2 and p3 (non-owners,
        // they lose x_compete under the scripted prefix) crash later;
        // owners p0, p1 complete.
        let cfg = RunConfig::new(6)
            .schedule(Schedule::Scripted {
                // p0 wins TS[0]; p1 loses TS[0] wins TS[1]; p2, p3 lose both.
                steps: vec![0, 1, 1, 2, 2, 3, 3],
                then_seed: 8,
            })
            .crashes(Crashes::AtOwnStep(vec![(2, 2), (3, 2)]));
        let bodies: Vec<Body> = (0..6)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let ag = XSafeAgreement::new(BASE, 0, 6, 2);
                    if i < 4 {
                        ag.propose(&env, 100 + i as u64);
                    }
                    ag.decide::<u64>(&env)
                }) as Body
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        let vals = report.decided_values();
        assert_eq!(vals.len(), 4, "everyone correct decides");
        assert!(vals.windows(2).all(|w| w[0] == w[1]));
        assert!(vals[0] == 100 || vals[0] == 101, "an owner's value was decided");
    }

    #[test]
    fn x_equals_one_degenerates_to_single_owner() {
        // With x = 1 the first process to win TS[0] decides alone — useful
        // as a sanity check of the combinatorial walk (C(n,1) subsets).
        let w = ModelWorld::new_free(3);
        let envs: Vec<Env<ModelWorld>> = (0..3).map(|p| Env::new(w.clone(), p)).collect();
        let ag = XSafeAgreement::new(BASE, 1, 3, 1);
        assert_eq!(ag.set_list_len(), 3);
        ag.propose(&envs[1], 9u64);
        ag.propose(&envs[0], 8u64);
        assert_eq!(ag.try_decide::<u64>(&envs[2]), Some(9));
    }

    #[test]
    fn set_list_len_matches_binomial() {
        assert_eq!(XSafeAgreement::new(BASE, 0, 6, 3).set_list_len(), 20);
        assert_eq!(XSafeAgreement::new(BASE, 0, 10, 5).set_list_len(), 252);
    }

    #[test]
    #[should_panic(expected = "x must satisfy")]
    fn rejects_x_larger_than_n() {
        XSafeAgreement::new(BASE, 0, 3, 4);
    }
}
