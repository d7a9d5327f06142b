//! The model world halts virtual processes without the process's panic
//! hook: an adversary crash, a step-budget timeout and a resume park
//! unwind silently, whatever hook the host installs, while a real
//! algorithm bug still reaches that hook and fails its run.
//!
//! Alone in its binary because it sets the process-wide panic hook.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use mpcn_runtime::model_world::{Body, ModelWorld, Outcome, RunConfig};
use mpcn_runtime::sched::{Crashes, Schedule};
use mpcn_runtime::world::{Env, ObjKey};

const REG: ObjKey = ObjKey::new(90, 0, 0);

/// Two processes, each writing `REG` twice and deciding its pid.
fn writers() -> Vec<Body> {
    (0..2u64)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                env.reg_write(REG, i);
                env.reg_write(REG, i + 10);
                i
            }) as Body
        })
        .collect()
}

/// The message of every panic the hook saw since the last call.
fn take(seen: &Mutex<Vec<String>>) -> Vec<String> {
    std::mem::take(&mut *seen.lock().unwrap())
}

#[test]
fn crashes_timeouts_and_parks_never_reach_the_panic_hook() {
    // Warm-up: whatever a first run sets up happens before the host's
    // hook goes in.
    let warm = ModelWorld::run(RunConfig::new(2).schedule(Schedule::RandomSeed(1)), writers());
    assert!(warm.all_correct_decided());

    let seen = Arc::new(Mutex::new(Vec::new()));
    let hook_seen = Arc::clone(&seen);
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        hook_seen.lock().unwrap().push(msg);
    }));

    // A gated adversary crash before process 0's second step.
    let crashed = ModelWorld::run(
        RunConfig::new(2)
            .schedule(Schedule::RandomSeed(1))
            .crashes(Crashes::AtOwnStep(vec![(0, 1)])),
        writers(),
    );
    assert_eq!(crashed.outcomes, vec![Outcome::Crashed, Outcome::Decided(1)]);

    // A gated timeout: the step budget runs out with both processes
    // parked, and the timeout sweep halts them.
    let timed_out = ModelWorld::run(
        RunConfig::new(2).schedule(Schedule::RandomSeed(1)).max_steps(1),
        writers(),
    );
    assert!(timed_out.timed_out);
    assert_eq!(timed_out.undecided_pids(), vec![0, 1]);

    // Resume parks: the root probe parks each body at its first gate,
    // and one resumed step parks process 0 at its second.
    let root = ModelWorld::snapshot_root(2, false, true, writers());
    let next = ModelWorld::resume_from(&root, 0, writers().remove(0));
    assert_eq!(next.own_steps(0), 1);
    assert_eq!(next.alive(), vec![0, 1]);

    let halts = take(&seen);

    // A real algorithm bug still reaches the hook, and its run fails.
    let buggy: Vec<Body> = vec![Box::new(|_env: Env<ModelWorld>| panic!("algorithm bug"))];
    let failed = catch_unwind(AssertUnwindSafe(|| ModelWorld::run(RunConfig::new(1), buggy)));
    let bugs = take(&seen);
    // The default hook again, so a failed assertion below is reported.
    let _ = std::panic::take_hook();

    let halts = halts.len();
    assert!(halts == 0, "{halts} halts reached the panic hook");
    let payload = failed.expect_err("a panicking body must fail its run");
    let msg = payload.downcast_ref::<String>().expect("the run fails with a message");
    assert!(msg.contains("virtual process 0 failed: algorithm bug"), "{msg}");
    assert!(
        bugs.iter().any(|m| m == "algorithm bug"),
        "the body's panic skipped the hook: {bugs:?}"
    );
}
