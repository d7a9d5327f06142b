//! Shared model-checking fixtures: bounded process bodies and
//! outcome-only checkers for the Figure 1/5/6 objects.
//!
//! Both the exploration sweeps (`tests/explore_sweeps.rs`,
//! `tests/exhaustive.rs`) and the `explore_sweep` bench drive exactly
//! these programs. The sweep list itself is shared too: [`catalogue`]
//! is what the bench prints and what the tier-1 golden test diffs
//! against `tests/golden/explore_catalogue.txt`, so the test-side
//! sweeps and the bench can never drift apart.
//!
//! Bodies are **bounded** (propose plus a fixed number of polls — no
//! busy-wait), as the exhaustive explorer requires, and encode their last
//! poll as `0` = `None`, `v + 1` = `Some(v)`. Checkers read only run
//! *outcomes*, the contract under which the explorer's reductions
//! preserve violation sets (see [`mpcn_runtime::explore`]).
//!
//! **View summaries:** the Figure 1 bodies inherit their declared view
//! summaries from [`SafeAgreement`] itself (the propose scan returns
//! only `saw_stable`, the poll only its `Option` result) — that is what
//! makes the `n = 5` sweep exhaustible. The Figure 5/6 bodies have
//! nothing to declare: every operation they perform (`tas`,
//! `xcons_propose`, `reg_read`/`reg_write`) already returns a
//! minimal-width result the body consumes whole, so the summary
//! reduction is, correctly, a no-op on them.

use mpcn_runtime::explore::{ExploreLimits, ExploreReport, Explorer, Reduction};
use mpcn_runtime::model_world::{Body, ModelWorld, RunReport, Symmetry};
use mpcn_runtime::sched::Crashes;
use mpcn_runtime::Env;

use crate::safe::SafeAgreement;
use crate::xcompete::x_compete;
use crate::xsafe::XSafeAgreement;

/// Object-kind namespace of every fixture instance.
pub const KIND_BASE: u32 = 700;

/// Figure 1 bodies: propose `100 + pid`, poll `polls` times, return the
/// last poll encoded.
pub fn fig1_bodies(n: usize, polls: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let sa = SafeAgreement::new(KIND_BASE, 0, n);
                sa.propose(&env, 100 + i as u64);
                let mut last = None;
                for _ in 0..polls {
                    last = sa.try_decide::<u64>(&env);
                }
                last.map_or(0, |v| v + 1)
            }) as Body
        })
        .collect()
}

/// The Figure 1 bodies' pid-symmetry declaration: process `p` is
/// distinguishable only through its proposal `100 + p` (stored in
/// safe-agreement cells and surfaced in poll summaries) and its encoded
/// decision `101 + k` (the decided proposal plus one), so renaming `p`
/// to `perm[p]` relabels exactly those ranges. `check_agreement` is
/// closed under both maps (it compares decided values for equality and
/// range membership only), and every fig1 operation result — `()`
/// writes, `bool` propose summaries, `Option<u64>` poll summaries — is
/// in the codec value universe, as `Snapshot::fingerprint_symmetric`
/// requires. The fig5/fig6 fixtures deliberately declare **no** spec:
/// they are the "asymmetric programs are unaffected" half of the
/// symmetry tests.
pub const FIG1_SYMMETRY: Symmetry = Symmetry {
    relabel_value: |v, perm| {
        if (100..100 + perm.len() as u64).contains(&v) {
            100 + perm[(v - 100) as usize] as u64
        } else {
            v
        }
    },
    relabel_result: |r, perm| {
        if (101..101 + perm.len() as u64).contains(&r) {
            101 + perm[(r - 101) as usize] as u64
        } else {
            r
        }
    },
};

/// Figure 5 bodies: `x_compete`, return 1 on winning.
pub fn fig5_bodies(n: usize, x: u32) -> Vec<Body> {
    (0..n)
        .map(|_| {
            Box::new(move |env: Env<ModelWorld>| u64::from(x_compete(&env, KIND_BASE + 10, 0, x)))
                as Body
        })
        .collect()
}

/// Figure 6 bodies: x-safe-agreement propose `100 + pid`, poll `polls`
/// times, return the last poll encoded.
pub fn fig6_bodies(n: usize, x: u32, polls: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let ag = XSafeAgreement::new(KIND_BASE + 20, 0, n, x);
                ag.propose(&env, 100 + i as u64);
                let mut last = None;
                for _ in 0..polls {
                    last = ag.try_decide::<u64>(&env);
                }
                last.map_or(0, |v| v + 1)
            }) as Body
        })
        .collect()
}

/// Agreement + validity over encoded poll results; with `must_decide`,
/// additionally requires that a complete crash-free run decided.
pub fn check_agreement(report: &RunReport, n: usize, must_decide: bool) -> Result<(), String> {
    let decided: Vec<u64> =
        report.decided_values().into_iter().filter(|&v| v > 0).map(|v| v - 1).collect();
    for &v in &decided {
        if !(100..100 + n as u64).contains(&v) {
            return Err(format!("validity violated: decided {v}"));
        }
    }
    if decided.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("agreement violated: {decided:?}"));
    }
    if must_decide && decided.is_empty() && !report.timed_out && report.crashed_pids().is_empty() {
        // The chronologically last poll of a complete crash-free run
        // happens after every propose completed: someone must decide.
        return Err("termination violated: nobody decided".to_string());
    }
    Ok(())
}

/// At most `x` winners of `x_compete`, and — crash-free, run complete —
/// exactly `min(n, x)`.
pub fn check_winners(report: &RunReport, n: usize, x: u32) -> Result<(), String> {
    let winners: u64 = report.decided_values().iter().sum();
    if winners > u64::from(x) {
        return Err(format!("{winners} winners for x = {x}"));
    }
    if !report.timed_out && report.crashed_pids().is_empty() && winners < u64::from(x.min(n as u32))
    {
        return Err(format!("only {winners} winners though {n} invoked"));
    }
    Ok(())
}

/// One of the fixture programs above, paired with its checker: the
/// bodies a catalogued sweep explores and the predicate every completed
/// run must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// [`fig1_bodies`]`(n, 1)` under [`check_agreement`]`(n, false)`.
    Fig1 {
        /// Number of processes.
        n: usize,
    },
    /// [`fig5_bodies`]`(n, x)` under [`check_winners`].
    Fig5 {
        /// Number of processes.
        n: usize,
        /// At most `x` processes win.
        x: u32,
    },
    /// [`fig6_bodies`]`(n, x, 1)` under [`check_agreement`]`(n, false)`.
    Fig6 {
        /// Number of processes.
        n: usize,
        /// Consensus number of the x-consensus objects.
        x: u32,
    },
}

impl Fixture {
    /// Fresh process bodies (re-invoked per expansion).
    pub fn bodies(self) -> Vec<Body> {
        match self {
            Fixture::Fig1 { n } => fig1_bodies(n, 1),
            Fixture::Fig5 { n, x } => fig5_bodies(n, x),
            Fixture::Fig6 { n, x } => fig6_bodies(n, x, 1),
        }
    }

    /// The outcome-only checker for one completed run.
    pub fn check(self, report: &RunReport) -> Result<(), String> {
        match self {
            Fixture::Fig1 { n } | Fixture::Fig6 { n, .. } => check_agreement(report, n, false),
            Fixture::Fig5 { n, x } => check_winners(report, n, x),
        }
    }
}

/// One catalogued sweep: a labelled fixture and the explorer that
/// sweeps it.
#[derive(Debug, Clone)]
pub struct CatalogueSweep {
    /// The label its `explore:` line carries.
    pub label: &'static str,
    /// The program and checker.
    pub fixture: Fixture,
    /// The configured explorer ([`Reduction::full`] unless the label
    /// says `unpruned`).
    pub explorer: Explorer,
    /// The catalogued point *is* a counterexample (the unfenced Figure 1
    /// object under TSO): the sweep must find a violation, where every
    /// other sweep must find none.
    pub expect_violation: bool,
}

impl CatalogueSweep {
    /// Runs the fixture under `explorer` — the sweep's own, or a variant
    /// of it (spilled, another reduction set).
    pub fn run_with(&self, explorer: &Explorer) -> ExploreReport {
        explorer.run(|| self.fixture.bodies(), |r| self.fixture.check(r))
    }

    /// Runs the sweep as catalogued.
    pub fn run(&self) -> ExploreReport {
        self.run_with(&self.explorer)
    }
}

/// The explorer catalogue: every sweep the `explore_sweep` bench prints
/// and `tests/golden/explore_catalogue.txt` pins, in golden-file order.
/// The Figure 1 sweeps declare [`FIG1_SYMMETRY`]; the `fig1 n=3 tso`
/// sweep is the pinned weak-memory counterexample.
pub fn catalogue() -> Vec<CatalogueSweep> {
    let limits =
        |max_expansions, max_depth| ExploreLimits { max_expansions, max_steps: 2_000, max_depth };
    let fig1 = |n| Explorer::new(n).symmetry(FIG1_SYMMETRY);
    let plain = Explorer::new;
    let sweep = |label, fixture, explorer| CatalogueSweep {
        label,
        fixture,
        explorer,
        expect_violation: false,
    };
    let unbounded = usize::MAX;
    vec![
        sweep(
            "fig1 n=3 pruned",
            Fixture::Fig1 { n: 3 },
            fig1(3).limits(limits(2_000_000, unbounded)),
        ),
        sweep(
            "fig1 n=3 unpruned",
            Fixture::Fig1 { n: 3 },
            plain(3).limits(limits(2_000_000, unbounded)).reduction(Reduction::none()),
        ),
        // The crash plan names a pid, so the symmetry quotient gates
        // itself off (`symm=off`) even though the spec is supplied.
        sweep(
            "fig1 n=3 crash(0@1) pruned",
            Fixture::Fig1 { n: 3 },
            fig1(3).crashes(Crashes::AtOwnStep(vec![(0, 1)])).limits(limits(2_000_000, unbounded)),
        ),
        sweep(
            "fig1 n=4 depth<=9 pruned",
            Fixture::Fig1 { n: 4 },
            fig1(4).limits(limits(2_000_000, 9)),
        ),
        sweep(
            "fig5 n=4 x=2 pruned",
            Fixture::Fig5 { n: 4, x: 2 },
            plain(4).limits(limits(500_000, unbounded)),
        ),
        sweep(
            "fig6 n=3 x=2 pruned",
            Fixture::Fig6 { n: 3, x: 2 },
            plain(3).limits(limits(1_000_000, unbounded)),
        ),
        sweep(
            "fig6 n=4 x=2 pruned",
            Fixture::Fig6 { n: 4, x: 2 },
            plain(4).limits(limits(2_000_000, unbounded)),
        ),
        sweep(
            "fig1 n=4 pruned",
            Fixture::Fig1 { n: 4 },
            fig1(4).limits(limits(2_000_000, unbounded)),
        ),
        sweep(
            "fig1 n=5 pruned",
            Fixture::Fig1 { n: 5 },
            fig1(5).limits(limits(60_000_000, unbounded)),
        ),
        // The fault-tolerance sweeps: every placement of up to `f`
        // crashes as explicit frontier branches, the symmetry quotient
        // live (`UpTo` names no process).
        sweep(
            "fig1 n=5 f=1 pruned",
            Fixture::Fig1 { n: 5 },
            fig1(5).crashes(Crashes::UpTo(1)).limits(limits(60_000_000, unbounded)),
        ),
        sweep(
            "fig1 n=4 f=2 pruned",
            Fixture::Fig1 { n: 4 },
            fig1(4).crashes(Crashes::UpTo(2)).limits(limits(60_000_000, unbounded)),
        ),
        // The weak-memory sweeps (x86-TSO store buffers; the symmetry
        // quotient gates itself off). Unfenced safe agreement breaks, so
        // this line deterministically ends `complete=false violations=1`.
        CatalogueSweep {
            expect_violation: true,
            ..sweep(
                "fig1 n=3 tso pruned",
                Fixture::Fig1 { n: 3 },
                fig1(3).tso(true).limits(limits(10_000_000, unbounded)),
            )
        },
        sweep(
            "fig5 n=4 x=2 tso pruned",
            Fixture::Fig5 { n: 4, x: 2 },
            plain(4).tso(true).limits(limits(500_000, unbounded)),
        ),
        sweep(
            "fig6 n=3 x=2 tso pruned",
            Fixture::Fig6 { n: 3, x: 2 },
            plain(3).tso(true).limits(limits(10_000_000, unbounded)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_runtime::model_world::RunConfig;
    use mpcn_runtime::sched::Schedule;

    #[test]
    fn fixtures_satisfy_their_own_checkers() {
        for seed in 0..10 {
            let r = ModelWorld::run(
                RunConfig::new(3).schedule(Schedule::RandomSeed(seed)),
                fig1_bodies(3, 1),
            );
            check_agreement(&r, 3, true).unwrap();
            let r = ModelWorld::run(
                RunConfig::new(4).schedule(Schedule::RandomSeed(seed)),
                fig5_bodies(4, 2),
            );
            check_winners(&r, 4, 2).unwrap();
            let r = ModelWorld::run(
                RunConfig::new(3).schedule(Schedule::RandomSeed(seed)),
                fig6_bodies(3, 2, 1),
            );
            check_agreement(&r, 3, false).unwrap();
        }
    }

    #[test]
    fn checkers_reject_bad_outcomes() {
        use mpcn_runtime::model_world::Outcome;
        let report = |outcomes: Vec<Outcome>| RunReport {
            outcomes,
            steps: 0,
            timed_out: false,
            trace: None,
            state_hashes: None,
            ops_by_kind: vec![],
        };
        // Disagreement (decoded 100 vs 101).
        let r = report(vec![Outcome::Decided(101), Outcome::Decided(102)]);
        assert!(check_agreement(&r, 2, false).is_err());
        // Validity breach (decoded 999).
        let r = report(vec![Outcome::Decided(1000)]);
        assert!(check_agreement(&r, 2, false).is_err());
        // Three winners for x = 2.
        let r = report(vec![Outcome::Decided(1); 3]);
        assert!(check_winners(&r, 3, 2).is_err());
    }
}
