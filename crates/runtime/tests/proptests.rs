//! Property-based tests of the runtime: scheduler determinism and
//! fairness, object linearization invariants, and crash-granularity
//! properties over randomized schedules.

use proptest::prelude::*;

use mpcn_runtime::explore::{ExploreLimits, ExploreStats, Explorer, Reduction};
use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig, RunReport, Symmetry};
use mpcn_runtime::sched::{Crashes, Schedule};
use mpcn_runtime::world::{Env, ObjKey};

fn counter_bodies(n: usize, rounds: u64) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let snap = ObjKey::new(70, 0, 0);
                for r in 1..=rounds {
                    env.snap_write(snap, n, i, r);
                }
                let view = env.snap_scan::<u64>(snap, n);
                view.into_iter().flatten().sum()
            }) as Body
        })
        .collect()
}

/// This file's own fixed draw: FNV-1a over the little-endian bytes of
/// `words`. Program shapes, schedules, crash points and checker flags
/// all come from it rather than from the explorer's fingerprint kernel,
/// so a change to the kernel cannot move what these tests cover.
fn draw(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether a checker flags an outcome: about one outcome in `one_in`,
/// drawn from `seed`, the sorted decided values `vals` and each pid
/// list, every list preceded by its length.
fn flagged(seed: u64, one_in: u64, vals: &[u64], pid_lists: &[&[usize]]) -> bool {
    let mut words = vec![vals.len() as u64];
    words.extend(vals);
    for pids in pid_lists {
        words.push(pids.len() as u64);
        words.extend(pids.iter().map(|&p| p as u64));
    }
    draw(words).wrapping_add(seed) % one_in == 0
}

/// The declared view summary of the random programs, deliberately
/// lossy: a body consumes only the count of written cells, not their
/// values.
fn written(view: &[Option<u64>]) -> u64 {
    view.iter().flatten().count() as u64
}

/// A deterministic "random" program: `n` processes, `ops` shared-memory
/// operations each, drawn from a small alphabet (register writes/reads,
/// snapshot writes/scans — raw and summarized to [`written`] —
/// test&set) by hashing `(seed, pid, op index)`. Bodies fold their
/// observations into the decided value, so outcomes depend on the
/// interleaving — the explorer equivalence tests need
/// schedule-sensitive programs. With `summarized`, the summarized-scan
/// arm declares its summary ([`Env::snap_scan_via`]), so the process's
/// history folds the count alone and states coarsen on a fair share of
/// the generated cases; without it, the arm applies [`written`] in the
/// body to a plain scan, whose history folds the whole view. The two
/// forms are the same program.
fn small_program(seed: u64, n: usize, ops: usize, summarized: bool) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let mut acc = 0u64;
                for j in 0..ops {
                    let h = draw([seed, i as u64, j as u64]);
                    // The object index comes from bits the op choice
                    // does not read, so reads and writes reach both.
                    let b = (h >> 32) % 2;
                    let key = ObjKey::new(74, 0, b);
                    match h % 6 {
                        0 => env.reg_write(key, h % 16),
                        1 => acc = acc.wrapping_add(env.reg_read::<u64>(key).unwrap_or(7)),
                        2 => env.snap_write(ObjKey::new(75, 0, 0), n, i, h % 16),
                        3 => {
                            let view = env.snap_scan::<u64>(ObjKey::new(75, 0, 0), n);
                            acc = acc.wrapping_add(view.into_iter().flatten().sum::<u64>());
                        }
                        4 => {
                            let cells = ObjKey::new(75, 0, 0);
                            acc = acc.wrapping_add(if summarized {
                                env.snap_scan_via(cells, n, written)
                            } else {
                                written(&env.snap_scan(cells, n))
                            });
                        }
                        _ => acc = acc.wrapping_add(u64::from(env.tas(ObjKey::new(76, 0, b)))),
                    }
                }
                acc
            }) as Body
        })
        .collect()
}

/// A pid-symmetric variant of [`small_program`]: every process runs the
/// *same* operation sequence — drawn from `(seed, op index)` alone —
/// with pid-free operand values, so a process's identity enters only as
/// its own snapshot-cell index. Such programs satisfy the
/// symmetric-program contract of `docs/EXPLORER.md` §3.5 under the
/// **identity** value/result relabeling ([`IDENTITY_SYMMETRY`]): every
/// stored leaf and decided value is already permutation-invariant, and
/// the only pid-dependent state — who wrote which snapshot cell, who
/// won a test&set — is exactly what the canonicalization's structural
/// cell permutation and per-process erasure quotient away.
fn symmetric_program(seed: u64, n: usize, ops: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let mut acc = 0u64;
                for j in 0..ops {
                    let h = draw([seed, j as u64]);
                    let b = (h >> 32) % 2;
                    let key = ObjKey::new(77, 0, b);
                    match h % 6 {
                        0 => env.reg_write(key, h % 16),
                        1 => acc = acc.wrapping_add(env.reg_read::<u64>(key).unwrap_or(7)),
                        2 => env.snap_write(ObjKey::new(78, 0, 0), n, i, h % 16),
                        3 => {
                            let view = env.snap_scan::<u64>(ObjKey::new(78, 0, 0), n);
                            acc = acc.wrapping_add(view.into_iter().flatten().sum::<u64>());
                        }
                        4 => {
                            let cells = ObjKey::new(78, 0, 0);
                            acc = acc.wrapping_add(env.snap_scan_via(cells, n, written));
                        }
                        _ => acc = acc.wrapping_add(u64::from(env.tas(ObjKey::new(79, 0, b)))),
                    }
                }
                acc
            }) as Body
        })
        .collect()
}

/// A *buffer-free* random program: drawn from the write-free alphabet
/// (register reads, snapshot scans — raw and summarized — and test&set
/// on four keys), so an x86-TSO machine runs it with permanently empty
/// store buffers. On such programs TSO and sequential consistency are
/// the *same* transition system — no write ever parks, no flush action
/// ever becomes schedulable — which is what the SC-vs-TSO differential
/// proptest pins byte for byte. Schedule sensitivity comes from the
/// test&set winners.
fn buffer_free_program(seed: u64, n: usize, ops: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let mut acc = 0u64;
                for j in 0..ops {
                    let h = draw([seed, i as u64, j as u64]);
                    match h % 4 {
                        0 => {
                            acc = acc.wrapping_add(
                                env.reg_read::<u64>(ObjKey::new(84, 0, (h >> 32) % 2)).unwrap_or(7),
                            );
                        }
                        1 => {
                            let view = env.snap_scan::<u64>(ObjKey::new(85, 0, 0), n);
                            acc = acc.wrapping_add(view.into_iter().flatten().sum::<u64>());
                        }
                        2 => {
                            let cells = ObjKey::new(85, 0, 0);
                            acc = acc.wrapping_add(env.snap_scan_via(cells, n, written));
                        }
                        _ => {
                            let key = ObjKey::new(86, 0, (h >> 32) % 4);
                            acc = acc.wrapping_add(u64::from(env.tas(key)));
                        }
                    }
                }
                acc
            }) as Body
        })
        .collect()
}

/// The identity group action: correct for [`symmetric_program`], whose
/// stored and decided values are all pid-free.
const IDENTITY_SYMMETRY: Symmetry = Symmetry { relabel_value: |v, _| v, relabel_result: |r, _| r };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical configurations yield identical traces and outcomes.
    #[test]
    fn runs_are_deterministic(seed in 0u64..1_000_000, n in 2usize..6) {
        let run = |s| {
            let cfg = RunConfig::new(n)
                .schedule(Schedule::RandomSeed(s))
                .record_trace(true);
            let r = ModelWorld::run(cfg, counter_bodies(n, 4));
            (r.trace.clone().expect("requested"), r.outcomes)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Every process is eventually scheduled under the random policy: all
    /// processes finish (no starvation within the step budget).
    #[test]
    fn random_scheduler_is_fair(seed in 0u64..1_000_000, n in 2usize..6) {
        let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
        let report = ModelWorld::run(cfg, counter_bodies(n, 3));
        prop_assert!(report.all_correct_decided());
        prop_assert_eq!(report.decided_values().len(), n);
    }

    /// Test&set has exactly one winner under every random schedule and any
    /// number of adversary crashes (crashed invokers simply claim nothing).
    #[test]
    fn tas_single_winner_with_crashes(
        seed in 0u64..1_000_000,
        crashes in 0usize..3,
    ) {
        let n = 4usize;
        let key = ObjKey::new(71, 0, 0);
        let bodies: Vec<Body> = (0..n)
            .map(|_| Box::new(move |env: Env<ModelWorld>| u64::from(env.tas(key))) as Body)
            .collect();
        let cfg = RunConfig::new(n)
            .schedule(Schedule::RandomSeed(seed))
            .crashes(Crashes::Random { seed: seed ^ 1, p: 0.2, max: crashes });
        let report = ModelWorld::run(cfg, bodies);
        let winners: u64 = report.decided_values().iter().sum();
        prop_assert!(winners <= 1, "{winners} winners");
        if report.crashed_pids().is_empty() {
            prop_assert_eq!(winners, 1);
        }
    }

    /// Snapshot scans observe prefix-closed writer histories: a scan never
    /// sees write r+1 of a writer without every earlier write of the same
    /// writer having happened (per-cell monotone sequence of observations).
    #[test]
    fn snapshot_observations_are_monotone(seed in 0u64..1_000_000) {
        let n = 3usize;
        let snap = ObjKey::new(72, 0, 0);
        let mut bodies: Vec<Body> = (0..n - 1)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    for r in 1..=5u64 {
                        env.snap_write(snap, n, i, r);
                    }
                    0u64
                }) as Body
            })
            .collect();
        bodies.push(Box::new(move |env: Env<ModelWorld>| {
            let mut last = vec![0u64; n];
            for _ in 0..10 {
                let view = env.snap_scan::<u64>(snap, n);
                for (j, v) in view.into_iter().enumerate() {
                    let v = v.unwrap_or(0);
                    assert!(v >= last[j], "cell {j} regressed: {v} < {}", last[j]);
                    last[j] = v;
                }
            }
            1u64
        }));
        let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(seed));
        let report = ModelWorld::run(cfg, bodies);
        prop_assert!(report.all_correct_decided());
    }

    /// State fingerprints are a pure function of the configuration:
    /// identical runs produce identical hash sequences, and a different
    /// schedule produces a different sequence (same final state, but the
    /// path differs).
    #[test]
    fn state_hashes_are_deterministic(seed in 0u64..1_000_000, n in 2usize..5) {
        let run = |s| {
            let cfg = RunConfig::new(n)
                .schedule(Schedule::RandomSeed(s))
                .record_state_hashes(true);
            ModelWorld::run(cfg, counter_bodies(n, 3)).state_hashes.expect("requested")
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Reduced exploration (visited-state pruning + commuting reads)
    /// finds exactly the same violation set as the unpruned reference on
    /// randomly generated small programs, for an outcome-only checker —
    /// every reported schedule replays to its verdict — and never runs
    /// more schedules doing so.
    #[test]
    fn reductions_preserve_violation_sets(seed in 0u64..1_000_000, n in 2usize..4, ops in 1usize..3) {
        let make = move || small_program(seed, n, ops, true);
        let sweep = |reduction| {
            let explorer = Explorer::new(n).reduction(reduction);
            differential_sweep(explorer, Crashes::None, 1_000, make, flag_decided(seed))
        };
        let (reduced_stats, reduced) = sweep(Reduction::full())?;
        let (reference_stats, reference) = sweep(Reduction::none())?;
        prop_assert_eq!(reduced, reference, "violation sets must match (seed {})", seed);
        prop_assert!(reduced_stats.runs <= reference_stats.runs, "reductions never add work");
    }

    /// Differential DPOR test in the spirit of testing reductions against
    /// the unreduced semantics: on random small programs (n ≤ 3, schedule
    /// depth ≤ 8), DPOR-on exploration (footprint commutation + the
    /// observation quotient) and pruning-only exploration (no commutation,
    /// no quotient; declared view summaries fold in both, as in every
    /// pruning sweep) must produce identical violation *sets* and
    /// identical *replay verdicts* — every reported schedule, replayed
    /// through the gated reference engine, must still trip the checker.
    /// DPOR never adds work.
    #[test]
    fn dpor_preserves_violation_sets_and_replay_verdicts(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
    ) {
        let make = move || small_program(seed, n, ops, true);
        let sweep = |reduction| {
            let explorer = Explorer::new(n).reduction(reduction);
            differential_sweep(explorer, Crashes::None, 1_000, make, flag_decided(seed))
        };
        let (dpor_stats, dpor) = sweep(Reduction::full())?;
        let (reference_stats, reference) =
            sweep(Reduction { prune_visited: true, ..Reduction::none() })?;
        prop_assert_eq!(
            dpor, reference,
            "DPOR must preserve the violation set (seed {})", seed
        );
        prop_assert!(dpor_stats.expansions <= reference_stats.expansions, "DPOR never adds work");
    }

    /// Differential view-summary test — the same discipline as the DPOR
    /// gate, moved to the program: each random small program is written
    /// twice, its lossy summarized-scan arm once through a declared
    /// summary ([`Env::snap_scan_via`]) and once as the same summary
    /// applied in the body to a plain scan. Both forms sweep under
    /// [`Reduction::full`] and must produce identical violation *sets*
    /// and identical *replay verdicts* — every reported schedule,
    /// replayed through the gated reference engine, must still trip the
    /// checker. A declared summary only merges states, never splits
    /// them, so it never adds work.
    #[test]
    fn view_summaries_preserve_violation_sets_and_replay_verdicts(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
    ) {
        let sweep = |summarized| {
            let make = move || small_program(seed, n, ops, summarized);
            differential_sweep(Explorer::new(n), Crashes::None, 1_000, make, flag_decided(seed))
        };
        let (summarized_stats, summarized) = sweep(true)?;
        let (reference_stats, reference) = sweep(false)?;
        prop_assert_eq!(
            summarized, reference,
            "view summaries must preserve the violation set (seed {})", seed
        );
        prop_assert!(
            summarized_stats.expansions <= reference_stats.expansions,
            "summaries never add work"
        );
    }

    /// Differential symmetry test — the DPOR/view-summary discipline
    /// applied to the process-identity quotient: on random
    /// pid-symmetric programs with the identity relabeling, under SC and
    /// under `tso`, symm-on exploration ([`Reduction::full`]) and
    /// symm-off exploration (every other reduction still on) must
    /// produce identical violation *sets* and identical *replay
    /// verdicts* — every reported schedule, replayed through the gated
    /// reference engine, must still trip the checker. The checker sorts
    /// decided values, so it is closed under pid permutation of outcomes
    /// (the §7 contract); quotienting orbits never adds work. Under TSO
    /// the explorer runs the quotient without DPOR (`docs/EXPLORER.md`
    /// §3.7), so the reference drops DPOR too and the two sweeps differ
    /// in the quotient alone.
    #[test]
    fn symmetry_preserves_violation_sets_and_replay_verdicts(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
        tso in 0u8..2,
    ) {
        let tso = tso == 1;
        let make = move || symmetric_program(seed, n, ops);
        let sweep = |reduction| {
            let explorer =
                Explorer::new(n).tso(tso).reduction(reduction).symmetry(IDENTITY_SYMMETRY);
            differential_sweep(explorer, Crashes::None, 1_000, make, flag_decided(seed))
        };
        let (symm_stats, symm) = sweep(Reduction::full())?;
        let (reference_stats, reference) =
            sweep(Reduction { symmetry: false, dpor: !tso, ..Reduction::full() })?;
        prop_assert!(symm_stats.symm_enabled, "spec + full reduction must activate the quotient");
        prop_assert!(!reference_stats.symm_enabled, "symmetry off must keep the quotient off");
        if tso {
            prop_assert_eq!(symm_stats.dpor_skips, 0u64, "DPOR must be off next to the quotient");
        }
        prop_assert_eq!(
            symm, reference,
            "symmetry must preserve the violation set (seed {}, tso {})", seed, tso
        );
        prop_assert!(
            symm_stats.expansions <= reference_stats.expansions,
            "quotienting orbits never adds work"
        );
    }

    /// The crash-and-timeout differential: the same DPOR-on vs
    /// pruning-only equivalence (summaries folded in both), but with a
    /// generated single-crash plan (exercising
    /// the crash-commutes-with-everything rule on random programs) and a
    /// deliberately *binding* step budget (exercising the observation
    /// quotient's interaction with timeout cuts — a terminated process's
    /// step-count contribution must stay part of the state identity, or
    /// the reduced search would merge states with different remaining
    /// budgets and mis-report timed-out runs).
    #[test]
    fn dpor_preserves_verdicts_under_crashes_and_tight_budgets(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
        victim in 0usize..3,
        crash_step in 0u64..3,
        max_steps in 1u64..6,
    ) {
        let make = move || small_program(seed, n, ops, true);
        let crashes = Crashes::AtOwnStep(vec![(victim % n, crash_step)]);
        // Outcome-only checker over decided values *and* the undecided
        // set, so timeout placement differences are visible verdicts.
        let check = move |r: &RunReport| {
            let mut vals = r.decided_values();
            vals.sort_unstable();
            let undecided = r.undecided_pids();
            if flagged(seed, 3, &vals, &[&undecided]) {
                return Err(format!("flagged outcome {:?}", (vals, undecided)));
            }
            Ok(())
        };
        let sweep = |reduction| {
            let explorer = Explorer::new(n).reduction(reduction);
            differential_sweep(explorer, crashes.clone(), max_steps, make, check)
        };
        let (_, dpor) = sweep(Reduction::full())?;
        let (_, reference) = sweep(Reduction { prune_visited: true, ..Reduction::none() })?;
        prop_assert_eq!(
            dpor, reference,
            "DPOR must preserve crash/timeout verdicts (seed {})", seed
        );
    }

    /// The bounded-memory frontier is invisible in results: a spilled
    /// sweep under a resident ceiling of 1 (evict all but one node per
    /// layer, rehydrate from the segment file on demand) yields
    /// byte-identical summaries, completeness and violation lists to the
    /// unbounded in-memory run on random small programs.
    #[test]
    fn bounded_frontier_reports_are_byte_identical(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
    ) {
        let unbounded = flagged_sweep(seed, n, ops, Explorer::new(n));
        prop_assert_eq!(unbounded.3.evicted, 0u64, "unbounded run must not evict");
        let dir = sweep_dir("bounded");
        let bounded = flagged_sweep(
            seed,
            n,
            ops,
            Explorer::new(n).resident_ceiling(1).spill_to(&dir),
        );
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            (&unbounded.0, unbounded.1, &unbounded.2),
            (&bounded.0, bounded.1, &bounded.2),
            "the resident ceiling must be invisible (seed {})", seed
        );
    }

    /// The checkpoint stride is pure memory/time policy: for every
    /// `k ∈ {1, 4, 16}`, a spilled ceiling-1
    /// frontier produces byte-identical summaries, completeness, and
    /// violation lists to the unbounded in-memory run on random small
    /// programs — and no rehydration ever replays more than `k`
    /// decisions. At `k = 1` every node anchors to its own record, so
    /// none replays.
    #[test]
    fn checkpoint_stride_is_byte_identical_across_k(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 2usize..4,
    ) {
        let unbounded = flagged_sweep(seed, n, ops, Explorer::new(n));
        prop_assert_eq!(unbounded.3.evicted, 0u64, "unbounded run must not evict");
        prop_assert_eq!(unbounded.3.max_rehydration_replay, 0u64);
        for k in [1, 4, 16] {
            let dir = sweep_dir("stride");
            let bounded = flagged_sweep(
                seed,
                n,
                ops,
                Explorer::new(n)
                        .resident_ceiling(1)
                    .checkpoint_every(k)
                    .spill_to(&dir),
            );
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert_eq!(
                (&unbounded.0, unbounded.1, &unbounded.2),
                (&bounded.0, bounded.1, &bounded.2),
                "checkpoint stride k = {} must be invisible (seed {})", k, seed
            );
            prop_assert!(
                bounded.3.max_rehydration_replay <= k as u64,
                "rehydration must replay at most k = {} decisions ({})",
                k,
                bounded.3.max_rehydration_replay
            );
            if k == 1 {
                prop_assert_eq!(
                    bounded.3.max_rehydration_replay, 0u64,
                    "k = 1 anchors every node to its own record — nothing replays"
                );
            }
        }
    }

    /// Snapshot-resume oracle: driving the snapshot engine down an
    /// arbitrary schedule yields, pick for pick, the same state
    /// fingerprints — and finally the same outcomes, step count, and
    /// op accounting — as a gated replay-from-root of the same choice
    /// vector. Both engines fold the declared view summaries the random
    /// programs return.
    ///
    /// Two further inputs reach the paths where the engines handle
    /// state differently. A one-entry [`Crashes::AtOwnStep`] plan
    /// (`crash_step` past the victim's last operation never fires):
    /// the resume side delivers it with `resume_crash` when the plan
    /// fires, as the explorer does. And under `tso` the choice vector
    /// also picks from the flush band (`2 * alive.len() + pid`), which
    /// the resume side executes with `resume_flush`.
    #[test]
    fn snapshot_resume_matches_gated_replay(
        seed in 0u64..1_000_000,
        pick_seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..4,
        crash_pid in 0usize..2,
        crash_step in 0u64..5,
        tso in 0u8..2,
    ) {
        let make = move || small_program(seed, n, ops, true);
        let tso = tso == 1;
        let plan = vec![(crash_pid, crash_step)];
        let mut snap = ModelWorld::snapshot_root_tso(n, true, true, tso, make());
        let mut choices = Vec::new();
        let mut resumed_hashes = Vec::new();
        while !snap.is_terminal() {
            let alive = snap.alive();
            let flushable = snap.flushable();
            let c = (draw([pick_seed, choices.len() as u64]) as usize)
                % (alive.len() + flushable.len());
            snap = if let Some(&pid) = alive.get(c) {
                choices.push(c);
                if plan.contains(&(pid, snap.own_steps(pid))) {
                    ModelWorld::resume_crash(&snap, pid)
                } else {
                    let body = make().into_iter().nth(pid).expect("pid in range");
                    ModelWorld::resume_from(&snap, pid, body)
                }
            } else {
                let pid = flushable[c - alive.len()];
                choices.push(2 * alive.len() + pid);
                ModelWorld::resume_flush(&snap, pid)
            };
            resumed_hashes.push(snap.fingerprint());
        }
        let gated = ModelWorld::run(
            RunConfig::replay(n, Crashes::AtOwnStep(plan.clone()), 10_000, &choices)
                .record_state_hashes(true)
                .tso(tso),
            make(),
        );
        let report = snap.report(false);
        prop_assert_eq!(report.outcomes, gated.outcomes);
        prop_assert_eq!(report.steps, gated.steps);
        prop_assert_eq!(report.ops_by_kind, gated.ops_by_kind);
        prop_assert_eq!(
            resumed_hashes,
            gated.state_hashes.expect("requested"),
            "engines disagree on state identity (tso {}, plan {:?})",
            tso,
            plan
        );
    }

    /// Crash planning at own-step granularity: a process crashed at step s
    /// completes exactly s shared-memory operations.
    #[test]
    fn crash_respects_own_step_count(seed in 0u64..1_000_000, s in 0u64..5) {
        let n = 2usize;
        let reg = ObjKey::new(73, 0, 0);
        let bodies: Vec<Body> = (0..n)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    for r in 0..8u64 {
                        env.reg_write(reg.with_b(i as u64), r);
                    }
                    i as u64
                }) as Body
            })
            .collect();
        let cfg = RunConfig::new(n)
            .schedule(Schedule::RandomSeed(seed))
            .crashes(Crashes::AtOwnStep(vec![(0, s)]))
            .record_trace(true);
        let report = ModelWorld::run(cfg, bodies);
        prop_assert_eq!(report.crashed_pids(), vec![0]);
        let trace = report.trace.as_ref().expect("requested");
        let p0_steps = trace.iter().filter(|&&p| p == 0).count() as u64;
        prop_assert_eq!(p0_steps, s, "p0 must take exactly {} steps", s);
    }

    /// The snapshot byte codec is faithful on arbitrary reachable
    /// states: walking a random program down a random schedule — with a
    /// mid-walk crash on a seed-dependent subset of cases — every
    /// intermediate snapshot decodes back to a
    /// state with the same fingerprints and observables, and re-encoding
    /// the decoded state reproduces the bytes exactly.
    #[test]
    fn snapshot_codec_roundtrips_reachable_states(
        seed in 0u64..1_000_000,
        pick_seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..4,
    ) {
        let make = move || small_program(seed, n, ops, true);
        let mut snap = ModelWorld::snapshot_root(n, true, true, make());
        let crash_at = (draw([pick_seed]) as usize) % 8;
        let mut step = 0usize;
        loop {
            let bytes = snap.encode().expect("reachable states encode");
            let decoded = mpcn_runtime::model_world::Snapshot::decode(&bytes)
                .expect("own bytes decode");
            prop_assert_eq!(decoded.fingerprint(), snap.fingerprint());
            prop_assert_eq!(decoded.fingerprint_quotient(), snap.fingerprint_quotient());
            prop_assert_eq!(decoded.alive(), snap.alive());
            prop_assert_eq!(decoded.steps(), snap.steps());
            for p in 0..n {
                prop_assert_eq!(decoded.own_steps(p), snap.own_steps(p));
                prop_assert_eq!(decoded.pending_footprint(p), snap.pending_footprint(p));
            }
            prop_assert_eq!(
                decoded.report(false).outcomes,
                snap.report(false).outcomes
            );
            prop_assert_eq!(
                decoded.encode().expect("decoded states re-encode"),
                bytes,
                "re-encoding must be byte-stable"
            );
            if snap.is_terminal() {
                break;
            }
            let alive = snap.alive();
            if step == crash_at && alive.len() > 1 {
                snap = ModelWorld::resume_crash(&snap, alive[0]);
            } else {
                let c = (draw([pick_seed, step as u64]) as usize) % alive.len();
                let pid = alive[c];
                let body = make().into_iter().nth(pid).expect("pid in range");
                snap = ModelWorld::resume_from(&snap, pid, body);
            }
            step += 1;
        }
    }

    /// The kill-and-resume contract on random programs: a spilled sweep
    /// halted after an arbitrary number of layer barriers and then
    /// resumed from its manifest reaches the byte-identical summary,
    /// verdict, and violation list of the uninterrupted in-memory run —
    /// including the degenerate case where the sweep finishes before the
    /// halt (resume then just reloads the done manifest). The adversary
    /// is an input too — none, a one-entry crash plan, or one counted
    /// crash — since resumed nodes read their crash state back from the
    /// crashed flags of the snapshot they rehydrate.
    #[test]
    fn killed_sweeps_resume_to_identical_reports(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
        halt in 1u64..5,
        adversary in 0usize..3,
    ) {
        let make = move || small_program(seed, n, ops, true);
        let crashes = match adversary {
            0 => Crashes::None,
            1 => Crashes::AtOwnStep(vec![(seed as usize % n, seed % ops as u64)]),
            _ => Crashes::UpTo(1),
        };
        let check = move |r: &RunReport| {
            let mut vals = r.decided_values();
            vals.sort_unstable();
            if flagged(seed, 4, &vals, &[]) {
                return Err(format!("flagged outcome {vals:?}"));
            }
            Ok(())
        };
        let limits =
            ExploreLimits { max_expansions: 100_000, max_steps: 1_000, ..Default::default() };
        let sweep = |ex: Explorer| {
            let out = ex.limits(limits).collect_all(true).run(make, check);
            let violations: Vec<(Vec<usize>, String)> =
                out.violations.iter().map(|v| (v.choices.clone(), v.message.clone())).collect();
            (out.stats.summary(), out.complete, violations)
        };
        let baseline = sweep(Explorer::new(n).crashes(crashes.clone()));
        let dir = sweep_dir("prop-resume");
        let _ = sweep(
            Explorer::new(n)
                .crashes(crashes)
                .resident_ceiling(1)
                .checkpoint_every(2)
                .spill_to(&dir)
                .halt_after_layers(halt),
        );
        let out = Explorer::resume_sweep(&dir, make, check);
        let resumed: (String, bool, Vec<(Vec<usize>, String)>) = (
            out.stats.summary(),
            out.complete,
            out.violations.iter().map(|v| (v.choices.clone(), v.message.clone())).collect(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            baseline, resumed,
            "resume must be invisible (seed {}, halt {}, adversary {})", seed, halt, adversary
        );
    }

    /// The SC-vs-TSO differential: on buffer-free random programs (no
    /// writes, so store buffers stay permanently empty) the reference
    /// enumeration under [`Explorer::tso`] pins the *byte-identical*
    /// violation set, verdict, and statistics of the sequentially
    /// consistent sweep — whole summary lines included, `flushes=0` on
    /// both.
    #[test]
    fn tso_equals_sc_on_buffer_free_programs(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..4,
    ) {
        let make = move || buffer_free_program(seed, n, ops);
        let check = move |r: &RunReport| {
            let mut vals = r.decided_values();
            vals.sort_unstable();
            if flagged(seed, 4, &vals, &[]) {
                return Err(format!("flagged outcome {vals:?}"));
            }
            Ok(())
        };
        let sweep = |tso: bool| {
            let out = Explorer::new(n)
                .tso(tso)
                .reduction(Reduction::none())
                .limits(ExploreLimits {
                    max_expansions: 100_000,
                    max_steps: 1_000,
                    ..Default::default()
                })
                .collect_all(true)
                .run(make, check);
            let violations: Vec<(Vec<usize>, String)> =
                out.violations.iter().map(|v| (v.choices.clone(), v.message.clone())).collect();
            (out.stats.summary(), out.complete, violations, out.stats.flush_branches)
        };
        let sc = sweep(false);
        let tso = sweep(true);
        prop_assert_eq!(tso.3, 0u64);
        prop_assert_eq!(
            (&tso.0, tso.1, &tso.2),
            (&sc.0, sc.1, &sc.2),
            "TSO must be invisible on buffer-free programs (seed {})", seed
        );
    }
}

/// The smallest program on which DPOR and the symmetry quotient
/// together lose an outcome under TSO: two processes each scan a 2-cell
/// snapshot and then write their own cell. Both scanning first is the
/// outcome `[0, 0]`. DPOR would keep the state {both decided, cell 0
/// still buffered, cell 1 flushed} and skip its only move, `flush p0`,
/// since 0 < 1 and the cells differ. The covering order reaches that
/// state's π-image, which the quotient prunes as its duplicate, so the
/// outcome would be lost and only `[0, 4]` reported. The explorer runs
/// the quotient without DPOR under TSO, and the full reduction must
/// report what pruning alone reports.
#[test]
fn tso_symmetry_keeps_the_outcome_a_dpor_skip_would_lose() {
    let n = 2;
    let cells = ObjKey::new(87, 0, 0);
    let make = move || -> Vec<Body> {
        (0..n)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    let seen: u64 = env.snap_scan::<u64>(cells, n).into_iter().flatten().sum();
                    env.snap_write(cells, n, i, 4u64);
                    seen
                }) as Body
            })
            .collect()
    };
    let every_outcome = |r: &RunReport| {
        let mut vals = r.decided_values();
        vals.sort_unstable();
        Err(format!("{vals:?}"))
    };
    let outcomes = |reduction| {
        let explorer = Explorer::new(n).tso(true).reduction(reduction).symmetry(IDENTITY_SYMMETRY);
        differential_sweep(explorer, Crashes::None, 1_000, make, every_outcome)
            .expect("the two-process tree is exhausted and every outcome replays")
    };
    let (full_stats, full) = outcomes(Reduction::full());
    let (_, pruned) = outcomes(Reduction { prune_visited: true, ..Reduction::none() });
    assert!(full_stats.symm_enabled && full_stats.symm_hits > 0, "the quotient must merge");
    assert_eq!(pruned, ["[0, 0]", "[0, 4]"]);
    assert_eq!(full, pruned, "the full reduction lost an outcome under TSO");
}

/// Every `AtOwnStep` plan naming at most `f` distinct victims (drawn
/// from `0..n`) with per-victim crash steps in `0..=max_step` — the
/// hand-enumerated adversary family whose union [`Crashes::UpTo`]
/// replaces. Includes the empty plan (zero crashes is within any
/// budget).
fn at_own_step_plans_up_to(n: usize, f: usize, max_step: u64) -> Vec<Vec<(usize, u64)>> {
    let mut plans = vec![Vec::new()];
    let grow = |plans: &[Vec<(usize, u64)>]| {
        let mut out = Vec::new();
        for plan in plans {
            let next_victim = plan.last().map_or(0, |&(p, _)| p + 1);
            for victim in next_victim..n {
                for step in 0..=max_step {
                    let mut bigger = plan.clone();
                    bigger.push((victim, step));
                    out.push(bigger);
                }
            }
        }
        out
    };
    let mut frontier = plans.clone();
    for _ in 0..f {
        frontier = grow(&frontier);
        plans.extend(frontier.iter().cloned());
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The crash-count differential: on random small programs, one
    /// [`Crashes::UpTo`]`(f)` sweep finds exactly the union of the
    /// violation sets of every hand-enumerated [`Crashes::AtOwnStep`]
    /// plan with at most `f` victims, and every crash-branch
    /// counterexample's choice
    /// vector (crash index band included) replays to the same verdict
    /// through the gated reference engine. The checker keys on decided
    /// values, crashed pids, and undecided pids, so crash placement
    /// differences are visible verdicts.
    #[test]
    fn crash_count_matches_union_of_at_own_step_plans(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        ops in 1usize..3,
        f in 1usize..3,
    ) {
        let make = move || small_program(seed, n, ops, true);
        let check = move |r: &RunReport| {
            let mut vals = r.decided_values();
            vals.sort_unstable();
            let (crashed, undecided) = (r.crashed_pids(), r.undecided_pids());
            if flagged(seed, 3, &vals, &[&crashed, &undecided]) {
                return Err(format!("flagged outcome {:?}", (vals, crashed, undecided)));
            }
            Ok(())
        };
        let (_, counted_msgs) =
            differential_sweep(Explorer::new(n), Crashes::UpTo(f), 1_000, make, check)?;
        // A body performs `ops` shared operations, so every park
        // point sits at an own-step count in 0..=ops — plans beyond
        // that never fire and add nothing to the union.
        let mut union_msgs = Vec::new();
        for plan in at_own_step_plans_up_to(n, f, ops as u64) {
            let planned = Explorer::new(n)
                .limits(DIFFERENTIAL_LIMITS)
                .crashes(Crashes::AtOwnStep(plan))
                .collect_all(true)
                .run(make, check);
            prop_assert!(
                planned.complete || !planned.violations.is_empty(),
                "small trees must be exhausted"
            );
            union_msgs.extend(planned.violations.iter().map(|v| v.message.clone()));
        }
        union_msgs.sort();
        union_msgs.dedup();
        prop_assert_eq!(
            &counted_msgs, &union_msgs,
            "UpTo({}) must equal the union of ≤{}-victim plans (seed {})", f, f, seed
        );
    }
}

/// The work cap of a differential sweep, far above any generated tree.
const DIFFERENTIAL_LIMITS: ExploreLimits =
    ExploreLimits { max_expansions: 200_000, max_steps: 1_000, max_depth: usize::MAX };

/// The differential harness of the reduction proptests: one
/// `collect_all` sweep of the program `make` builds, under `explorer`
/// (the caller sets its reductions and symmetry spec), the adversary
/// `crashes` and a `max_steps` budget. The small generated tree must be
/// exhausted (or violated), and every reported schedule must replay
/// through the gated reference engine to a run `check` still rejects.
/// Returns the sweep's statistics and its sorted, deduplicated violation
/// messages.
fn differential_sweep(
    explorer: Explorer,
    crashes: Crashes,
    max_steps: u64,
    make: impl Fn() -> Vec<Body>,
    check: impl Fn(&RunReport) -> Result<(), String>,
) -> Result<(ExploreStats, Vec<String>), TestCaseError> {
    let explorer = explorer
        .limits(ExploreLimits { max_steps, ..DIFFERENTIAL_LIMITS })
        .crashes(crashes)
        .collect_all(true);
    let out = explorer.run(&make, &check);
    prop_assert!(out.complete || !out.violations.is_empty(), "small trees must be exhausted");
    for v in &out.violations {
        let replayed = explorer.replay(&make, &v.choices);
        prop_assert!(check(&replayed).is_err(), "replay verdict lost (choices {:?})", v.choices);
    }
    let mut msgs: Vec<String> = out.violations.iter().map(|v| v.message.clone()).collect();
    msgs.sort();
    msgs.dedup();
    Ok((out.stats, msgs))
}

/// A checker that trips on a seed-dependent third of the decided-value
/// multisets, so some generated cases violate and some do not.
fn flag_decided(seed: u64) -> impl Fn(&RunReport) -> Result<(), String> + Copy {
    move |r: &RunReport| {
        let mut vals = r.decided_values();
        vals.sort_unstable();
        if flagged(seed, 3, &vals, &[]) {
            return Err(format!("flagged outcome {vals:?}"));
        }
        Ok(())
    }
}

/// One `collect_all` sweep of `small_program(seed, n, ops, true)` under `ex`,
/// with a checker that flags about one outcome in five: its summary,
/// completeness, violations (choices and message) and statistics.
fn flagged_sweep(
    seed: u64,
    n: usize,
    ops: usize,
    ex: Explorer,
) -> (String, bool, Vec<(Vec<usize>, String)>, ExploreStats) {
    let out = ex
        .limits(ExploreLimits { max_expansions: 100_000, max_steps: 1_000, ..Default::default() })
        .collect_all(true)
        .run(
            move || small_program(seed, n, ops, true),
            move |r: &RunReport| {
                let mut vals = r.decided_values();
                vals.sort_unstable();
                if flagged(seed, 5, &vals, &[]) {
                    return Err(format!("flagged outcome {vals:?}"));
                }
                Ok(())
            },
        );
    let violations =
        out.violations.iter().map(|v| (v.choices.clone(), v.message.clone())).collect();
    (out.stats.summary(), out.complete, violations, out.stats)
}

/// A unique scratch sweep directory under the system temp dir.
fn sweep_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpcn-prop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
