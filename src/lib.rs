//! # mpcn — The Multiplicative Power of Consensus Numbers, executable
//!
//! A full reproduction of Imbs & Raynal, *The Multiplicative Power of
//! Consensus Numbers* (PODC 2010 / IRISA PI 1949), as a Rust workspace:
//! the `ASM(n, t, x)` model algebra, a deterministic crash-injecting
//! shared-memory runtime, the safe-agreement and x-safe-agreement object
//! types, the general BG-style simulation between any two models, the
//! colored-task extension, and an experiment harness regenerating every
//! figure of the paper.
//!
//! This crate is a facade: it re-exports the workspace members under one
//! name. See the member crates for the substance:
//!
//! * [`model`] (`mpcn-model`) — `ASM(n, t, x)` parameters, equivalence
//!   classes `⌊t/x⌋`, hierarchy, combinatorics;
//! * [`runtime`] (`mpcn-runtime`) — worlds, scheduler, crash adversaries,
//!   real-atomics primitives, the simulated-process program model;
//! * [`agreement`] (`mpcn-agreement`) — Figures 1, 5, 6;
//! * [`tasks`] (`mpcn-tasks`) — consensus, k-set agreement, renaming, and
//!   the source-algorithm catalogue;
//! * [`core`] (`mpcn-core`) — the general simulation (Figures 2–4, 7, 8)
//!   and the equivalence harness.
//!
//! The safety claims rest on *enumerated* interleavings: the bounded
//! model checker in [`runtime::explore`] (re-exported here as
//! [`Explorer`]) sweeps every schedule of the Figure 1/5/6 objects at
//! small `n` — resuming from state snapshots instead of re-executing
//! prefixes, optionally across worker threads with byte-identical
//! reports — with visited-state pruning, DPOR-style commutation (pure
//! reads, independent footprints, crash deliveries), observation and
//! view-summary quotients, and a pid-symmetry quotient, and emits
//! replayable [`Schedule::Indexed`](runtime::Schedule) counterexamples
//! when a checker fails.
//!
//! ## The paper in one example
//!
//! `ASM(n, t', x)` and `ASM(n, t, 1)` have the same power for colorless
//! decision tasks iff `t·x ≤ t' ≤ t·x + (x−1)`:
//!
//! ```
//! use mpcn::core::equivalence::round_trip;
//! use mpcn::core::simulator::SimRun;
//! use mpcn::model::{equivalence, ModelParams};
//!
//! // Algebraically: ASM(6, 4, 2) and ASM(6, 2, 1) are equivalent.
//! let a = ModelParams::new(6, 4, 2).unwrap();
//! let b = ModelParams::new(6, 2, 1).unwrap();
//! assert!(equivalence::equivalent(a, b));
//!
//! // Executably: an algorithm using consensus-number-2 objects, designed
//! // for 4 crashes, runs correctly under plain read/write simulators with
//! // 2 crashes allowed (Section 3 direction).
//! let check = round_trip::section3(6, 4, 2, &SimRun::seeded(1), &[1, 2, 3, 4, 5, 6]);
//! assert!(check.sound && check.holds());
//! ```

pub use mpcn_agreement as agreement;
pub use mpcn_core as core;
pub use mpcn_model as model;
pub use mpcn_runtime as runtime;
pub use mpcn_tasks as tasks;

pub use mpcn_runtime::explore::{
    ExploreLimits, ExploreReport, ExploreStats, Explorer, Reduction, Violation,
};
