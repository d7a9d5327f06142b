//! Shared-memory runtime for `ASM(n, t, x)` system models.
//!
//! This crate is the executable substrate that Imbs & Raynal's paper assumes
//! as its computational model (Section 2.3): asynchronous sequential
//! processes, a crash adversary, a snapshot shared memory, one-shot
//! test&set objects, and port-limited objects of consensus number `x`.
//!
//! It provides:
//!
//! * [`world::Env`] — a process's handle on shared memory, its one way
//!   to reach keyed registers, snapshot objects, test&set, and
//!   x-consensus objects, one atomic step per operation;
//! * [`model_world::ModelWorld`] — the world those operations run in,
//!   in three modes. Gated, it is **deterministic and crash-injecting**:
//!   every virtual process runs on its own thread behind a *step gate*,
//!   the scheduler grants one shared-memory operation at a time
//!   (seeded-random, scripted or indexed order), and a crash can be
//!   delivered between any two shared accesses — exactly the failure
//!   granularity the paper's proofs quantify over (e.g. a simulator
//!   crashing *inside* `sa_propose` blocks that safe-agreement object).
//!   Reachable states can be checkpointed as [`model_world::Snapshot`]s
//!   and resumed one decision at a time on the caller thread — the
//!   substrate of the exhaustive explorer's frontier search. Free
//!   ([`model_world::ModelWorld::new_free`]), it has no scheduler, and
//!   real threads share it at full speed, for benchmarks;
//! * [`atomics`] — lock-free/wait-free building blocks on real atomics
//!   (Afek-et-al-style wait-free snapshot, test&set, CAS consensus),
//!   benchmarked as experiment E9;
//! * [`program`] — the coroutine interface of simulated processes: their
//!   only shared operations are `mem[j].write(v)`, `mem.snapshot()` and
//!   `x_cons[a].propose(v)`, as in the paper's Section 2.4;
//! * [`runner`] — direct (unsimulated) execution of programs in a world,
//!   the baseline the reductions are compared against.
//!
//! # Quickstart
//!
//! ```
//! use mpcn_runtime::model_world::{ModelWorld, RunConfig};
//! use mpcn_runtime::sched::Schedule;
//! use mpcn_runtime::world::{Env, ObjKey};
//!
//! // Two processes race on a test&set object; exactly one wins.
//! let cfg = RunConfig::new(2).schedule(Schedule::RandomSeed(7));
//! let key = ObjKey::new(900, 0, 0);
//! let bodies = (0..2)
//!     .map(|_| {
//!         Box::new(move |env: Env<ModelWorld>| u64::from(env.tas(key)))
//!             as Box<dyn FnOnce(Env<ModelWorld>) -> u64 + Send>
//!     })
//!     .collect();
//! let report = ModelWorld::run(cfg, bodies);
//! let wins: u64 = report.decided_values().into_iter().sum();
//! assert_eq!(wins, 1);
//! ```

pub mod atomics;
pub mod explore;
pub mod fingerprint;
pub mod model_world;
pub mod program;
pub mod runner;
pub mod sched;
pub mod world;

pub use explore::{ExploreLimits, ExploreReport, ExploreStats, Explorer, Reduction, Violation};
pub use model_world::{Footprint, ModelWorld, Outcome, RunConfig, RunReport, Snapshot};
pub use program::{SimOp, SimProcess, SimResponse, SimStep, XConsLayout};
pub use sched::{Crashes, Schedule};
pub use world::{Env, ObjKey, Pid};
