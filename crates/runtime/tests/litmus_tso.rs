//! x86-TSO litmus tests, driven through the exhaustive explorer.
//!
//! The classic store-buffering relaxation (SB) must be **observable**
//! under [`Explorer::tso`] and **unobservable** under sequential
//! consistency, while message passing (MP) and per-location coherence
//! stay forbidden under both memory models — x86-TSO relaxes only the
//! store→load order of a single process, never store→store, load→load,
//! or the per-location total order of stores.
//!
//! Every relaxed outcome the sweeps find is replayed through the gated
//! engine ([`Explorer::replay`] builds the exact `RunConfig::replay` the
//! explorer's internal counterexample confirmation uses), so the
//! counterexamples here double as end-to-end replay fixtures.

use mpcn_runtime::explore::{Explorer, Reduction};
use mpcn_runtime::model_world::{Body, ModelWorld, RunReport};
use mpcn_runtime::sched::Crashes;
use mpcn_runtime::world::{Env, ObjKey};

const X: ObjKey = ObjKey::new(80, 0, 0);
const Y: ObjKey = ObjKey::new(80, 0, 1);
const DATA: ObjKey = ObjKey::new(81, 0, 0);
const FLAG: ObjKey = ObjKey::new(81, 0, 1);

/// The reductions every forbidden-outcome sweep runs under: the
/// reference enumeration (nothing pruned — the ground truth) and the
/// full reduction stack (which must preserve the verdict).
const REDUCTIONS: [fn() -> Reduction; 2] = [Reduction::none, Reduction::full];

/// SB (store buffering): `P0: x=1; r0=y` ∥ `P1: y=1; r1=x`.
/// Each process decides the value it read.
fn sb_bodies() -> Vec<Body> {
    vec![
        Box::new(|env: Env<ModelWorld>| {
            env.reg_write(X, 1u64);
            env.reg_read::<u64>(Y).unwrap_or(0)
        }) as Body,
        Box::new(|env: Env<ModelWorld>| {
            env.reg_write(Y, 1u64);
            env.reg_read::<u64>(X).unwrap_or(0)
        }) as Body,
    ]
}

/// Flags the relaxed SB outcome `r0 = r1 = 0` (both reads miss both
/// writes) as a violation, so sweeps surface it as a counterexample.
fn sb_both_zero(report: &RunReport) -> Result<(), String> {
    if report.decided_values() == [0, 0] {
        return Err("store buffering observed: r0 = r1 = 0".into());
    }
    Ok(())
}

/// SB with a fence between each process's store and load — the classic
/// restoration of sequential consistency on x86.
fn sb_fenced_bodies() -> Vec<Body> {
    vec![
        Box::new(|env: Env<ModelWorld>| {
            env.reg_write(X, 1u64);
            env.fence();
            env.reg_read::<u64>(Y).unwrap_or(0)
        }) as Body,
        Box::new(|env: Env<ModelWorld>| {
            env.reg_write(Y, 1u64);
            env.fence();
            env.reg_read::<u64>(X).unwrap_or(0)
        }) as Body,
    ]
}

/// MP (message passing): `P0: data=1; flag=1` ∥ `P1: r0=flag; r1=data`.
/// P1 decides `2·r0 + r1`; the forbidden outcome `flag=1, data=0`
/// decides `2`.
fn mp_bodies() -> Vec<Body> {
    vec![
        Box::new(|env: Env<ModelWorld>| {
            env.reg_write(DATA, 1u64);
            env.reg_write(FLAG, 1u64);
            0u64
        }) as Body,
        Box::new(|env: Env<ModelWorld>| {
            let flag = env.reg_read::<u64>(FLAG).unwrap_or(0);
            let data = env.reg_read::<u64>(DATA).unwrap_or(0);
            2 * flag + data
        }) as Body,
    ]
}

fn mp_stale_data(report: &RunReport) -> Result<(), String> {
    if report.outcomes[1].decided() == Some(2) {
        return Err("message passing broken: flag = 1 observed with data = 0".into());
    }
    Ok(())
}

/// CoRR (coherence of read-read): `P0: x=1; x=2` ∥ `P1: r1=x; r2=x`.
/// P1 decides `3·r1 + r2`; any outcome with `r2 < r1` reads the
/// per-location store order backwards.
fn corr_bodies() -> Vec<Body> {
    vec![
        Box::new(|env: Env<ModelWorld>| {
            env.reg_write(X, 1u64);
            env.reg_write(X, 2u64);
            0u64
        }) as Body,
        Box::new(|env: Env<ModelWorld>| {
            let r1 = env.reg_read::<u64>(X).unwrap_or(0);
            let r2 = env.reg_read::<u64>(X).unwrap_or(0);
            3 * r1 + r2
        }) as Body,
    ]
}

fn corr_backwards(report: &RunReport) -> Result<(), String> {
    let d = report.outcomes[1].decided().unwrap_or(0);
    let (r1, r2) = (d / 3, d % 3);
    if r2 < r1 {
        return Err(format!("coherence broken: r1 = {r1} then r2 = {r2}"));
    }
    Ok(())
}

/// SB reaches `r0 = r1 = 0` under TSO: the exhaustive sweep finds the
/// relaxed outcome, and every counterexample replays to exactly that
/// outcome through the gated engine.
#[test]
fn sb_relaxation_is_reachable_under_tso_and_replays() {
    let ex = Explorer::new(2).tso(true).reduction(Reduction::none()).collect_all(true);
    let out = ex.run(sb_bodies, sb_both_zero);
    // Exhaustive: 6 actions (2 buffered writes, 2 reads, 2 flushes)
    // whose only order constraints are program order and write-before-
    // flush — C(6,3) · 2 · 2 = 80 linear extensions.
    assert_eq!(out.stats.runs, 80, "the TSO SB state space must be exhausted");
    assert_eq!(out.stats.depth_limited_runs, 0);
    assert_eq!(out.violations.len(), 18, "TSO must reach the relaxed SB outcome r0 = r1 = 0");
    for v in &out.violations {
        let rerun = ex.replay(sb_bodies, &v.choices);
        assert_eq!(
            rerun.decided_values(),
            vec![0, 0],
            "gated replay of {:?} must reproduce the relaxed outcome",
            v.choices
        );
    }
    // The full reduction stack must preserve reachability of the
    // relaxed outcome (DPOR treats fencing footprints as dependent on
    // everything under TSO; the symmetry quotient is off only because
    // the SB bodies declare no spec).
    let reduced =
        Explorer::new(2).tso(true).reduction(Reduction::full()).run(sb_bodies, sb_both_zero);
    assert!(!reduced.violations.is_empty(), "reductions must not hide the SB relaxation");
}

/// SB cannot reach `r0 = r1 = 0` under sequential consistency: with no
/// store buffers at least one write precedes both reads.
#[test]
fn sb_relaxation_is_forbidden_under_sc() {
    for reduction in REDUCTIONS {
        let out = Explorer::new(2).reduction(reduction()).run(sb_bodies, sb_both_zero);
        assert!(out.complete, "the SB state space must be exhausted");
        out.assert_no_violation();
    }
}

/// A fence between each store and load restores sequential consistency:
/// the fenced SB program cannot reach `r0 = r1 = 0` even under TSO.
#[test]
fn fenced_sb_is_forbidden_under_tso_and_sc() {
    for tso in [false, true] {
        for reduction in REDUCTIONS {
            let out = Explorer::new(2)
                .tso(tso)
                .reduction(reduction())
                .run(sb_fenced_bodies, sb_both_zero);
            assert!(out.complete, "the fenced SB state space must be exhausted (tso={tso})");
            out.assert_no_violation();
        }
    }
}

/// MP stays forbidden under both models: store buffers drain in FIFO
/// order, so a process that observes `flag = 1` can never then read
/// `data = 0` (TSO never reorders store→store).
#[test]
fn mp_is_forbidden_under_tso_and_sc() {
    for tso in [false, true] {
        for reduction in REDUCTIONS {
            let out =
                Explorer::new(2).tso(tso).reduction(reduction()).run(mp_bodies, mp_stale_data);
            assert!(out.complete, "the MP state space must be exhausted (tso={tso})");
            out.assert_no_violation();
        }
    }
}

/// Per-location coherence stays forbidden under both models: two reads
/// of the same location by one process can never observe the location's
/// store order backwards (flushes of a FIFO buffer preserve it).
#[test]
fn coherence_per_location_is_forbidden_under_tso_and_sc() {
    for tso in [false, true] {
        for reduction in REDUCTIONS {
            let out =
                Explorer::new(2).tso(tso).reduction(reduction()).run(corr_bodies, corr_backwards);
            assert!(out.complete, "the CoRR state space must be exhausted (tso={tso})");
            out.assert_no_violation();
        }
    }
}

/// Store buffers belong to the hardware, not the process: a write
/// parked in the buffer of a process that then crashes still reaches
/// memory, so another process can observe a value its crashed writer
/// never saw flushed.
#[test]
fn buffered_write_of_a_crashed_process_still_flushes() {
    let writer_crashed_but_read_1 = |report: &RunReport| {
        if report.crashed_pids() == [0] && report.outcomes[1].decided() == Some(1) {
            return Err("crashed writer's buffered store became visible".into());
        }
        Ok(())
    };
    let bodies = || {
        vec![
            // The read of `Y` gives the adversary a crash window while
            // the write of `X` is still parked in P0's store buffer.
            Box::new(|env: Env<ModelWorld>| {
                env.reg_write(X, 1u64);
                let _ = env.reg_read::<u64>(Y);
                0u64
            }) as Body,
            Box::new(|env: Env<ModelWorld>| env.reg_read::<u64>(X).unwrap_or(0)) as Body,
        ]
    };
    let ex = Explorer::new(2)
        .tso(true)
        .crashes(Crashes::UpTo(1))
        .reduction(Reduction::none())
        .collect_all(true);
    let out = ex.run(bodies, writer_crashed_but_read_1);
    assert_eq!(out.stats.depth_limited_runs, 0);
    assert!(
        !out.violations.is_empty(),
        "a flush after the writer's crash must make the store visible"
    );
    for v in &out.violations {
        let rerun = ex.replay(bodies, &v.choices);
        assert_eq!(rerun.crashed_pids(), vec![0]);
        assert_eq!(rerun.outcomes[1].decided(), Some(1));
    }
}
