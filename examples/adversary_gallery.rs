//! A gallery of hand-crafted adversaries: scripted schedules and surgical
//! crash placements that produce the paper's pivotal executions on demand.
//!
//! Run with: `cargo run --release --example adversary_gallery`

use mpcn::agreement::fixtures::{check_agreement, fig1_bodies};
use mpcn::agreement::safe::SafeAgreement;
use mpcn::core::equivalence::{boundary, check_simulation};
use mpcn::core::simulator::SimRun;
use mpcn::model::ModelParams;
use mpcn::runtime::model_world::{Body, ModelWorld, RunConfig, RunReport};
use mpcn::runtime::{Crashes, Env, Schedule};
use mpcn::tasks::algorithms;
use mpcn::{ExploreLimits, Explorer};

fn main() {
    exhibit_1_min_index_tiebreak();
    exhibit_2_blocked_safe_agreement();
    exhibit_3_staggered_stall();
    exhibit_4_multiplicative_rescue();
    exhibit_5_crash_count_search();
}

/// Exhibit 1 — Figure 1's min-index rule: a scripted interleaving where
/// *both* proposals stabilize, so the smallest-index process's value wins.
fn exhibit_1_min_index_tiebreak() {
    println!("Exhibit 1: both proposals stabilize; min index wins");
    let cfg = RunConfig::new(2).schedule(Schedule::Scripted {
        // write(1), write(1), scan, scan, write(2), write(2): neither scan
        // sees a stable value, so both upgrade to level 2.
        steps: vec![0, 1, 0, 1, 0, 1],
        then_seed: 1,
    });
    let bodies: Vec<Body> = (0..2)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let sa = SafeAgreement::new(500, 0, 2);
                sa.propose(&env, 100 + i as u64);
                sa.decide::<u64>(&env)
            }) as Body
        })
        .collect();
    let report = ModelWorld::run(cfg, bodies);
    println!("  decisions: {:?} (p0's value, by the min-index rule)\n", report.decided_values());
    assert_eq!(report.decided_values(), vec![100, 100]);
}

/// Exhibit 2 — the safe-agreement weak spot: crash p0 exactly between its
/// unstable write and its stabilizing write; the object blocks forever.
fn exhibit_2_blocked_safe_agreement() {
    println!("Exhibit 2: one surgical crash blocks safe agreement forever");
    let cfg = RunConfig::new(2)
        .schedule(Schedule::Scripted { steps: vec![0], then_seed: 2 })
        .crashes(Crashes::AtOwnStep(vec![(0, 1)])) // after the level-1 write
        .max_steps(5_000);
    let bodies: Vec<Body> = (0..2)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let sa = SafeAgreement::new(501, 0, 2);
                sa.propose(&env, 100 + i as u64);
                sa.decide::<u64>(&env)
            }) as Body
        })
        .collect();
    let report = ModelWorld::run(cfg, bodies);
    println!("  timed out: {} — survivor is stuck behind p0's unstable entry\n", report.timed_out);
    assert!(report.timed_out);
}

/// Exhibit 3 — the necessity of `t ≥ ⌊t'/x⌋`: three staggered crashes,
/// each inside a *different* simulated process's input agreement, defeat a
/// source that tolerates only one.
fn exhibit_3_staggered_stall() {
    println!("Exhibit 3: staggered crashes stall an unsound simulation");
    let check = boundary::staggered_kset_run(5, 1, 3, 3, 7, 60_000);
    println!(
        "  sound = {}, stalled = {}, blocked simulated processes > t = 1\n",
        check.sound, check.report.timed_out
    );
    assert!(!check.sound && check.report.timed_out);
}

/// Exhibit 4 — the multiplicative rescue: the *same two crashes* that kill
/// a read/write target are harmless once the target's objects have
/// consensus number 2 (both crashes together can kill at most one
/// x-safe-agreement object).
fn exhibit_4_multiplicative_rescue() {
    println!("Exhibit 4: x' = 2 turns a fatal adversary into a tolerable one");
    let alg = algorithms::kset_read_write(5, 1).unwrap();
    let ins: Vec<u64> = (0..5).map(|i| 100 + i).collect();

    let rw = ModelParams::new(5, 2, 1).unwrap();
    let run = SimRun::seeded(3).crashes(Crashes::AtOwnStep(vec![(0, 1), (1, 4)])).max_steps(60_000);
    let dead = check_simulation(&alg, rw, &ins, &run);

    let x2 = ModelParams::new(5, 2, 2).unwrap();
    let run = SimRun::seeded(3).crashes(Crashes::AtOwnStep(vec![(0, 1), (1, 2)]));
    let alive = check_simulation(&alg, x2, &ins, &run);

    println!(
        "  ASM(5,2,1): stalled = {} | ASM(5,2,2): live = {}, decisions = {:?}",
        dead.report.timed_out,
        alive.live,
        alive.report.decided_values()
    );
    assert!(dead.report.timed_out && alive.holds());
}

/// Exhibit 5 — the symmetric crash-count adversary: exhibit 2 needed a
/// hand-placed surgical crash; `Crashes::UpTo(1)` hands the explorer the
/// paper's whole "at most one faulty process" quantifier instead — every
/// placement of one crash becomes an explicit schedule branch. One sweep
/// proves *safety* survives every such placement (agreement and validity
/// hold in all runs), and a second sweep with a liveness probe
/// rediscovers exhibit 2's blocking pattern on its own: a crash after
/// which the survivor exhausts every poll undecided (the bounded bodies
/// encode "no decision yet" as the value 0).
fn exhibit_5_crash_count_search() {
    println!("Exhibit 5: Crashes::UpTo(1) rediscovers the surgical crash");
    let limits = ExploreLimits { max_expansions: 200_000, max_steps: 1_000, ..Default::default() };
    let safe = Explorer::new(2)
        .crashes(Crashes::UpTo(1))
        .limits(limits)
        .run(|| fig1_bodies(2, 2), |r| check_agreement(r, 2, false));
    safe.assert_no_violation();
    assert!(safe.complete, "every placement of one crash must be exhausted");
    println!("  safety under every 1-crash placement: {}", safe.stats.summary());

    let blocked = |r: &RunReport| {
        if !r.crashed_pids().is_empty() && r.decided_values().contains(&0) {
            Err(format!(
                "crashed = {:?}; a survivor exhausted its polls undecided",
                r.crashed_pids()
            ))
        } else {
            Ok(())
        }
    };
    let swept = Explorer::new(2)
        .crashes(Crashes::UpTo(1))
        .limits(limits)
        .run(|| fig1_bodies(2, 2), blocked);
    let v = swept.violation().expect("the crash-count sweep must find exhibit 2's placement");
    println!("  liveness probe found: {}\n", v.message);
    assert!(swept.stats.crash_branches > 0, "the crash band must have branched");
}
