//! Direct (unsimulated) execution of simulated-process programs.
//!
//! Runs a vector of [`crate::program::SimProcess`] programs as the processes of an
//! `ASM(n, t, x)` system realized by a [`ModelWorld`]: the simulated
//! snapshot memory `mem[1..n]` becomes one world snapshot object, and each
//! `x_cons[a]` becomes one world x-consensus object with the layout's port
//! set. This is the *baseline* execution the paper's reductions are
//! compared against — an algorithm must first solve its task here before
//! being fed to a simulation.

use crate::model_world::{Body, ModelWorld, RunConfig, RunReport};
use crate::program::{BoxedProcess, SimOp, SimResponse, SimStep, XConsLayout};
use crate::world::{Env, ObjKey};

/// Object-family namespaces used by the direct runner.
pub mod kinds {
    /// The simulated snapshot memory `mem[1..n]`.
    pub const MEM: u32 = 100;
    /// The simulated consensus objects `x_cons[a]`.
    pub const XCONS: u32 = 101;
}

/// Key of the direct-run snapshot memory.
pub fn mem_key() -> ObjKey {
    ObjKey::new(kinds::MEM, 0, 0)
}

/// Key of the direct-run consensus object `a`.
pub fn xcons_key(a: usize) -> ObjKey {
    ObjKey::new(kinds::XCONS, a as u64, 0)
}

/// Runs `programs` directly in a model world under `cfg`, with the
/// simulated consensus objects described by `layout`.
///
/// Each program's [`SimStep::Decide`] value becomes the process's decision
/// in the returned report.
///
/// # Panics
///
/// Panics if `cfg.n()` differs from `programs.len()`, or if a program
/// invokes an [`SimOp::XConsPropose`] on an object it is not a port of
/// (surfaced by the world's port check).
pub fn run_direct(cfg: RunConfig, programs: Vec<BoxedProcess>, layout: XConsLayout) -> RunReport {
    let n = programs.len();
    assert_eq!(cfg.n(), n, "one program per process required");
    let bodies: Vec<Body> = programs
        .into_iter()
        .map(|mut prog| {
            let layout = layout.clone();
            Box::new(move |env: Env<ModelWorld>| {
                let mut step = prog.begin();
                loop {
                    match step {
                        SimStep::Decide(v) => return v,
                        SimStep::Invoke(op) => {
                            let resp = perform(&env, &layout, n, op);
                            step = prog.on_response(resp);
                        }
                    }
                }
            }) as Body
        })
        .collect();
    ModelWorld::run(cfg, bodies)
}

/// Executes one simulated-process operation of `env`'s process: a write
/// goes to its own cell of the simulated memory.
fn perform(env: &Env, layout: &XConsLayout, n: usize, op: SimOp) -> SimResponse {
    match op {
        SimOp::Write(v) => {
            env.snap_write(mem_key(), n, env.pid(), v);
            SimResponse::WriteAck
        }
        SimOp::Snapshot => SimResponse::Snapshot(env.snap_scan::<u64>(mem_key(), n)),
        SimOp::XConsPropose { obj, value } => {
            let ports = layout.ports(obj);
            SimResponse::XConsDecided(env.xcons_propose(xcons_key(obj), ports, value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SimProcess;
    use crate::sched::{Crashes, Schedule};

    /// Decides its input immediately (the trivial colorless task).
    struct DecideInput(u64);

    impl SimProcess for DecideInput {
        fn begin(&mut self) -> SimStep {
            SimStep::Decide(self.0)
        }
        fn on_response(&mut self, _r: SimResponse) -> SimStep {
            unreachable!("DecideInput never invokes an operation")
        }
    }

    /// Writes its input, snapshots until it sees `quorum` values, decides
    /// the minimum seen — the classic t-resilient (t+1)-set agreement.
    struct WriteSnapMin {
        input: u64,
        quorum: usize,
        started: bool,
    }

    impl SimProcess for WriteSnapMin {
        fn begin(&mut self) -> SimStep {
            self.started = true;
            SimStep::Invoke(SimOp::Write(self.input))
        }
        fn on_response(&mut self, resp: SimResponse) -> SimStep {
            match resp {
                SimResponse::WriteAck => SimStep::Invoke(SimOp::Snapshot),
                SimResponse::Snapshot(view) => {
                    let seen: Vec<u64> = view.into_iter().flatten().collect();
                    if seen.len() >= self.quorum {
                        let min = seen
                            .into_iter()
                            .min()
                            .expect("quorum >= 1 guarantees a non-empty view");
                        SimStep::Decide(min)
                    } else {
                        SimStep::Invoke(SimOp::Snapshot)
                    }
                }
                SimResponse::XConsDecided(_) => unreachable!(),
            }
        }
    }

    /// Proposes to its group's consensus object and decides the result.
    struct GroupConsensus {
        input: u64,
        obj: usize,
    }

    impl SimProcess for GroupConsensus {
        fn begin(&mut self) -> SimStep {
            SimStep::Invoke(SimOp::XConsPropose { obj: self.obj, value: self.input })
        }
        fn on_response(&mut self, resp: SimResponse) -> SimStep {
            match resp {
                SimResponse::XConsDecided(v) => SimStep::Decide(v),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn trivial_task_runs() {
        let programs: Vec<BoxedProcess> =
            (0..4).map(|i| Box::new(DecideInput(i * 10)) as BoxedProcess).collect();
        let report = run_direct(RunConfig::new(4), programs, XConsLayout::none());
        assert_eq!(report.decided_values(), vec![0, 10, 20, 30]);
        assert_eq!(report.steps, 0, "no shared ops needed");
    }

    #[test]
    fn write_snapshot_min_solves_kset() {
        // n = 5, t = 2 → quorum n - t = 3, at most t + 1 = 3 distinct values.
        for seed in 0..10 {
            let programs: Vec<BoxedProcess> = (0..5)
                .map(|i| {
                    Box::new(WriteSnapMin { input: 100 + i, quorum: 3, started: false })
                        as BoxedProcess
                })
                .collect();
            let cfg = RunConfig::new(5)
                .schedule(Schedule::RandomSeed(seed))
                .crashes(Crashes::Random { seed, p: 0.02, max: 2 });
            let report = run_direct(cfg, programs, XConsLayout::none());
            assert!(report.all_correct_decided(), "seed {seed}");
            assert!(report.distinct_decisions() <= 3, "seed {seed}");
            for v in report.decided_values() {
                assert!((100..105).contains(&v), "validity, seed {seed}");
            }
        }
    }

    #[test]
    fn group_consensus_uses_xcons_objects() {
        // n = 6, x = 3 → 2 groups → at most 2 distinct decisions, wait-free.
        let layout = XConsLayout::partition(6, 3);
        for seed in 0..10 {
            let programs: Vec<BoxedProcess> = (0..6)
                .map(|i| {
                    Box::new(GroupConsensus { input: 100 + i as u64, obj: i / 3 }) as BoxedProcess
                })
                .collect();
            let cfg = RunConfig::new(6)
                .schedule(Schedule::RandomSeed(seed))
                .crashes(Crashes::Random { seed: seed * 3, p: 0.05, max: 5 });
            let report = run_direct(cfg, programs, layout.clone());
            assert!(report.all_correct_decided(), "wait-free, seed {seed}");
            assert!(report.distinct_decisions() <= 2, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "not a port")]
    fn port_violation_is_detected() {
        let layout = XConsLayout::new(vec![vec![1]], 2, 1).unwrap();
        let programs: Vec<BoxedProcess> = vec![
            Box::new(GroupConsensus { input: 1, obj: 0 }), // pid 0 uses obj of pid 1
            Box::new(DecideInput(0)),
        ];
        run_direct(RunConfig::new(2), programs, layout);
    }
}
