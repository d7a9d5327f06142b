//! Scheduling policies and crash adversaries for the model world.
//!
//! The paper's results quantify over *all* asynchronous interleavings and
//! over *all* crash patterns of at most `t` processes. The model world
//! executes one interleaving per run; these types choose which one:
//!
//! * [`Schedule`] decides which process performs the next shared-memory
//!   step (seeded random for liveness sampling, scripted prefixes for
//!   adversarial safety tests);
//! * [`Crashes`] decides if a chosen process crashes *instead of* taking
//!   its next step — i.e. crashes land between two shared accesses, the
//!   exact granularity the BG-style arguments need (a simulator crashing
//!   after writing `(v, 1)` but before stabilizing blocks that
//!   safe-agreement object forever).

use crate::world::Pid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which process takes the next step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Uniformly random among alive processes, from a seeded RNG
    /// (deterministic given the seed).
    RandomSeed(u64),
    /// Follow `steps` (skipping entries for dead processes), then fall back
    /// to seeded-random. Used to drive adversarial prefixes, e.g. "let
    /// simulator 0 enter `sa_propose` and park it there".
    Scripted {
        /// The forced schedule prefix.
        steps: Vec<Pid>,
        /// Seed for the random tail.
        then_seed: u64,
    },
    /// At step `i`, pick `alive[choices[i] % alive.len()]` (0 beyond the
    /// end of `choices`). The backbone of the exhaustive explorer
    /// ([`crate::explore`]): a run is fully determined by its choice
    /// vector.
    ///
    /// Two index bands are special (decoded by `ScheduleState::pick`):
    /// `choices[i]` in `alive.len()..2 * alive.len()` picks
    /// `alive[choices[i] - alive.len()]` as a **crash delivery** — the
    /// explorer's encoding of a [`Crashes::UpTo`] branch, so its
    /// counterexample schedules replay crash placements through the gated
    /// engine exactly. Under any other crash policy the pick lands on the
    /// same process but the crash flag is inert (the policy itself
    /// decides). Under TSO, `2 * alive.len() + pid` flushes raw process
    /// `pid`'s store buffer. Explorer-generated op choices are always
    /// `< alive.len()`.
    Indexed {
        /// Index into the alive set per step.
        choices: Vec<usize>,
    },
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::RandomSeed(0xC0FFEE)
    }
}

/// One decoded scheduling decision ([`ScheduleState::pick`]): grant a
/// step, deliver a crash, or flush the head of a process's store buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pick {
    /// Grant `pid` one shared-memory step.
    Op(Pid),
    /// Deliver a crash to `pid` instead of a step.
    Crash(Pid),
    /// Flush the oldest entry of `pid`'s store buffer to shared memory.
    Flush(Pid),
}

impl Pick {
    /// Decodes an indexed choice by band, with no degradation: `choice
    /// < alive.len()` grants `alive[choice]` a step, `alive.len() ..
    /// 2 * alive.len()` delivers a crash to `alive[choice - alive.len()]`,
    /// and `2 * alive.len() + pid` flushes the store buffer of **raw
    /// pid** `pid` (raw, not alive-indexed: finished and crashed
    /// processes keep draining — hardware owns the buffer, not the
    /// process). Explorer-generated choices decode exactly this way.
    pub(crate) fn decode(choice: usize, alive: &[Pid]) -> Pick {
        let a = alive.len();
        if choice < a {
            Pick::Op(alive[choice])
        } else if choice < 2 * a {
            Pick::Crash(alive[choice - a])
        } else {
            Pick::Flush(choice - 2 * a)
        }
    }

    /// The process the decision is about.
    pub(crate) fn pid(self) -> Pid {
        match self {
            Pick::Op(pid) | Pick::Crash(pid) | Pick::Flush(pid) => pid,
        }
    }
}

pub(crate) struct ScheduleState {
    policy: Schedule,
    rng: StdRng,
    cursor: usize,
}

impl ScheduleState {
    pub(crate) fn new(policy: Schedule) -> Self {
        let seed = match &policy {
            Schedule::RandomSeed(s) => *s,
            Schedule::Scripted { then_seed, .. } => *then_seed,
            Schedule::Indexed { .. } => 0,
        };
        ScheduleState { policy, rng: StdRng::seed_from_u64(seed), cursor: 0 }
    }

    /// Decodes the next scheduling decision among the schedulable
    /// processes `alive` and the processes whose store buffers are
    /// non-empty, `flushable` (always empty under sequential
    /// consistency).
    ///
    /// Only [`Schedule::Indexed`] returns [`Pick::Crash`] or
    /// [`Pick::Flush`]; every other policy grants a step to one of
    /// `alive` (non-empty) and leaves crashing to the crash policy. An
    /// indexed choice decodes by band ([`Pick::decode`]).
    ///
    /// Degradations keep foreign vectors total and deterministic: a
    /// flush pick of a pid whose buffer is empty — and any index beyond
    /// every band — degrades to a step grant of `alive[idx % alive.len()]`,
    /// or to a flush of the lowest flushable pid when no process is
    /// schedulable. With no flushable buffers, an indexed vector
    /// therefore decodes exactly as under sequential consistency, and
    /// explorer-generated vectors always index exactly, so degradations
    /// never fire on them.
    pub(crate) fn pick(&mut self, alive: &[Pid], flushable: &[Pid]) -> Pick {
        match &self.policy {
            Schedule::RandomSeed(_) => Pick::Op(alive[self.rng.gen_range(0..alive.len())]),
            Schedule::Scripted { steps, .. } => {
                while self.cursor < steps.len() {
                    let cand = steps[self.cursor];
                    self.cursor += 1;
                    if alive.contains(&cand) {
                        return Pick::Op(cand);
                    }
                }
                Pick::Op(alive[self.rng.gen_range(0..alive.len())])
            }
            Schedule::Indexed { choices } => {
                let idx = choices.get(self.cursor).copied().unwrap_or(0);
                self.cursor += 1;
                match Pick::decode(idx, alive) {
                    Pick::Flush(pid) if !flushable.contains(&pid) => match alive.len() {
                        0 => Pick::Flush(flushable[0]),
                        a => Pick::Op(alive[idx % a]),
                    },
                    pick => pick,
                }
            }
        }
    }
}

/// Whether (and when) processes crash.
#[derive(Debug, Clone, Default)]
pub enum Crashes {
    /// No process ever crashes.
    #[default]
    None,
    /// Crash process `pid` right before it would take its `step`-th
    /// (0-based, counted per-process) shared-memory step. The adversarial
    /// workhorse: `(q, 3)` kills simulator `q` exactly after its third
    /// shared access — e.g. in the middle of a `sa_propose` sequence.
    AtOwnStep(Vec<(Pid, u64)>),
    /// The symmetric crash-*count* adversary: **any** `f` processes may
    /// crash, at any park points — the paper's "at most `t` faulty
    /// processes" quantifier itself, rather than one concrete crash plan.
    /// Never decides a crash on its own: crash deliveries are explicit
    /// schedule branches ([`Schedule::Indexed`]'s crash index band, which
    /// the explorer enumerates at every park point while the budget
    /// lasts), and the budget only caps how many may fire. Because the
    /// policy names no pid, it is pid-permutation-closed — the one crash
    /// adversary the explorer's symmetry quotient stays live under.
    UpTo(usize),
    /// Each time a process is granted a step, crash it instead with
    /// probability `p`, up to `max` total crashes. Deterministic given
    /// `seed`.
    Random {
        /// RNG seed.
        seed: u64,
        /// Per-grant crash probability.
        p: f64,
        /// Maximum number of crashes (the model's `t`).
        max: usize,
    },
}

impl Crashes {
    /// Whether the policy's plan crashes `pid` right before its
    /// `own_step`-th step: the [`Crashes::AtOwnStep`] rule, a pure
    /// function of the pid and its own-step clock. `false` for every
    /// other policy ([`Crashes::UpTo`] crashes are explicit schedule
    /// branches, and [`Crashes::Random`] decisions live in the gated
    /// engine's [`CrashState`]).
    pub(crate) fn fires_at(&self, pid: Pid, own_step: u64) -> bool {
        matches!(self, Crashes::AtOwnStep(plan) if plan.contains(&(pid, own_step)))
    }

    /// Whether a path that has delivered `crashed` crashes may deliver
    /// another scheduled one — `false` for every policy but
    /// [`Crashes::UpTo`], the only one whose crashes are scheduled rather
    /// than decided. The explorer reads this, with the crashed flags of a
    /// node's snapshot, to know whether to enumerate crash branches there.
    pub(crate) fn budget_left(&self, crashed: usize) -> bool {
        matches!(self, Crashes::UpTo(f) if crashed < *f)
    }
}

/// The gated engine's adversary: the policy plus what a run must carry
/// to apply it — the crashes delivered so far (the [`Crashes::UpTo`]
/// budget and the [`Crashes::Random`] cap) and the [`Crashes::Random`]
/// RNG. The explorer needs none of it: under every policy it accepts,
/// a node's adversary state is the crashed flags of its snapshot.
pub(crate) struct CrashState {
    policy: Crashes,
    rng: StdRng,
    crashes_so_far: usize,
}

impl CrashState {
    pub(crate) fn new(policy: Crashes) -> Self {
        let seed = match &policy {
            Crashes::Random { seed, .. } => *seed,
            _ => 0,
        };
        CrashState { policy, rng: StdRng::seed_from_u64(seed), crashes_so_far: 0 }
    }

    /// Decides whether `pid`, about to take its `own_step`-th step, crashes
    /// now instead. [`Crashes::UpTo`] never fires here: its crashes are
    /// explicit schedule branches, delivered via [`CrashState::force_crash`].
    pub(crate) fn should_crash(&mut self, pid: Pid, own_step: u64) -> bool {
        let crash = match &self.policy {
            Crashes::Random { p, max, .. } => self.crashes_so_far < *max && self.rng.gen_bool(*p),
            policy => policy.fires_at(pid, own_step),
        };
        if crash {
            self.crashes_so_far += 1;
        }
        crash
    }

    /// Delivers an explicitly scheduled crash ([`Schedule::Indexed`]'s
    /// crash index band): fires iff the policy is [`Crashes::UpTo`] with
    /// budget remaining. Under every other policy a crash-flagged pick is
    /// inert — the pick degrades to an ordinary step grant, so foreign
    /// choice vectors cannot smuggle crashes past a non-branching
    /// adversary.
    pub(crate) fn force_crash(&mut self) -> bool {
        let fired = self.policy.budget_left(self.crashes_so_far);
        if fired {
            self.crashes_so_far += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedule_is_deterministic() {
        let alive: Vec<Pid> = (0..5).collect();
        let picks = |seed| {
            let mut st = ScheduleState::new(Schedule::RandomSeed(seed));
            (0..100).map(|_| st.pick(&alive, &[])).collect::<Vec<_>>()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
    }

    #[test]
    fn scripted_prefix_then_random() {
        let mut st = ScheduleState::new(Schedule::Scripted { steps: vec![2, 2, 0], then_seed: 9 });
        let alive: Vec<Pid> = vec![0, 1, 2];
        assert_eq!(st.pick(&alive, &[]), Pick::Op(2));
        assert_eq!(st.pick(&alive, &[]), Pick::Op(2));
        assert_eq!(st.pick(&alive, &[]), Pick::Op(0));
        // Falls back to random afterwards — still within alive set.
        for _ in 0..20 {
            let Pick::Op(pid) = st.pick(&alive, &[]) else { panic!("scripted picks are steps") };
            assert!(alive.contains(&pid));
        }
    }

    #[test]
    fn scripted_skips_dead_entries() {
        let mut st = ScheduleState::new(Schedule::Scripted { steps: vec![1, 0], then_seed: 9 });
        let alive: Vec<Pid> = vec![0, 2];
        assert_eq!(st.pick(&alive, &[]), Pick::Op(0), "dead pid 1 skipped");
    }

    #[test]
    fn indexed_crash_band_decodes_victim_and_flag() {
        let alive: Vec<Pid> = vec![0, 2, 5];
        // Op band, crash band, beyond-band wraps as before, past the end
        // — with no flushable buffer, the flush band never decodes.
        let mut st = ScheduleState::new(Schedule::Indexed { choices: vec![1, 3, 5, 7] });
        assert_eq!(st.pick(&alive, &[]), Pick::Op(2), "op pick");
        assert_eq!(st.pick(&alive, &[]), Pick::Crash(0), "crash pick of alive[0]");
        assert_eq!(st.pick(&alive, &[]), Pick::Crash(5), "crash pick of alive[2]");
        assert_eq!(st.pick(&alive, &[]), Pick::Op(2), "beyond both bands wraps modulo");
        assert_eq!(st.pick(&alive, &[]), Pick::Op(0), "past the end defaults to 0");
    }

    #[test]
    fn tso_flush_band_decodes_raw_pids_past_both_bands() {
        let alive: Vec<Pid> = vec![0, 2];
        let flushable: Vec<Pid> = vec![1, 2];
        // Op band (0..2), crash band (2..4), flush band (4..7) by raw
        // pid, then the degradations: an empty-buffer flush pick and an
        // index beyond all bands both degrade to a wrapped op grant.
        let mut st =
            ScheduleState::new(Schedule::Indexed { choices: vec![1, 3, 4 + 1, 4 + 2, 4, 7] });
        assert_eq!(st.pick(&alive, &flushable), Pick::Op(2), "op pick");
        assert_eq!(st.pick(&alive, &flushable), Pick::Crash(2), "crash pick of alive[1]");
        assert_eq!(st.pick(&alive, &flushable), Pick::Flush(1), "flush pick of raw pid 1");
        assert_eq!(st.pick(&alive, &flushable), Pick::Flush(2), "flush pick of raw pid 2");
        assert_eq!(st.pick(&alive, &flushable), Pick::Op(0), "empty buffer degrades to op");
        assert_eq!(st.pick(&alive, &flushable), Pick::Op(2), "beyond all bands wraps");
    }

    #[test]
    fn tso_flush_band_with_no_alive_processes_sits_at_zero() {
        // All processes finished: the op and crash bands are empty, so
        // the flush band starts at index 0 and everything else degrades
        // to the lowest flushable pid.
        let alive: Vec<Pid> = vec![];
        let flushable: Vec<Pid> = vec![1, 2];
        let mut st = ScheduleState::new(Schedule::Indexed { choices: vec![2, 0, 9] });
        assert_eq!(st.pick(&alive, &flushable), Pick::Flush(2), "band base is 0");
        assert_eq!(st.pick(&alive, &flushable), Pick::Flush(1), "empty pid-0 buffer degrades");
        assert_eq!(st.pick(&alive, &flushable), Pick::Flush(1), "beyond the band degrades");
    }

    #[test]
    fn up_to_budget_counts_forced_crashes_only() {
        let mut cs = CrashState::new(Crashes::UpTo(2));
        // The policy never decides a crash on its own...
        for s in 0..10 {
            assert!(!cs.should_crash(s % 3, s as u64));
        }
        assert_eq!(cs.crashes_so_far, 0);
        // ...but delivers exactly `f` scheduled ones.
        assert!(Crashes::UpTo(2).budget_left(1));
        assert!(cs.force_crash());
        assert!(cs.force_crash());
        assert!(!Crashes::UpTo(2).budget_left(2));
        assert!(!cs.force_crash(), "budget exhausted");
        assert_eq!(cs.crashes_so_far, 2);
    }

    #[test]
    fn forced_crashes_are_inert_off_up_to() {
        for policy in [Crashes::None, Crashes::AtOwnStep(vec![(0, 3)])] {
            assert!(!policy.budget_left(0));
            let mut cs = CrashState::new(policy);
            assert!(!cs.force_crash(), "crash-flagged picks degrade to step grants");
            assert_eq!(cs.crashes_so_far, 0);
        }
    }

    #[test]
    fn crash_at_own_step() {
        let mut cs = CrashState::new(Crashes::AtOwnStep(vec![(1, 2)]));
        assert!(!cs.should_crash(1, 0));
        assert!(!cs.should_crash(1, 1));
        assert!(!cs.should_crash(0, 2));
        assert!(cs.should_crash(1, 2));
    }

    #[test]
    fn random_crashes_respect_max() {
        let mut cs = CrashState::new(Crashes::Random { seed: 3, p: 1.0, max: 2 });
        let mut total = 0;
        for s in 0..10 {
            if cs.should_crash(s % 3, s as u64) {
                total += 1;
            }
        }
        assert_eq!(total, 2);
    }

    #[test]
    fn no_crash_policy() {
        let mut cs = CrashState::new(Crashes::None);
        for s in 0..100 {
            assert!(!cs.should_crash(s % 7, s as u64));
        }
    }
}
