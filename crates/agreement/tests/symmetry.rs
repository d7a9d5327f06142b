//! Direct coverage of the process-identity symmetry quotient
//! (`Snapshot::fingerprint_symmetric`, `Reduction::symmetry`,
//! `Explorer::symmetry`; soundness argument in `docs/EXPLORER.md` §3.5):
//!
//! * pid-permuted executions of the Figure 1 program — run schedule `s`
//!   vs run `π(s)` for every permutation `π` — must produce identical
//!   canonical fingerprints at **every** prefix, under SC and TSO
//!   (store buffers included), through
//!   adversary crashes, and across a codec encode/decode round trip
//!   (the byte-stability a spilled sweep relies on), while a buffered
//!   write never merges with the same write flushed;
//! * programs that declare no spec (fig6) print byte-identical summary
//!   lines with the symmetry reduction on and off — the "asymmetric
//!   programs are unaffected" half of the contract;
//! * a symmetry-quotiented sweep interrupted at a barrier resumes to
//!   the byte-identical final report via
//!   `Explorer::resume_sweep_with_symmetry`, under SC and TSO, and plain
//!   `resume_sweep` refuses the spec-bearing manifest instead of
//!   silently resuming in the wrong state space.

use mpcn_agreement::fixtures::{
    check_agreement, fig1_bodies, fig6_bodies, FIG1_SYMMETRY, KIND_BASE,
};
use mpcn_runtime::explore::{ExploreLimits, Explorer, Reduction};
use mpcn_runtime::model_world::{Body, ModelWorld, Snapshot, Symmetry};
use mpcn_runtime::world::ObjKey;
use mpcn_runtime::Env;

/// The schedule draw for step `step` of pick seed `pick_seed`: FNV-1a
/// over the two words' little-endian bytes. The draw is this file's own
/// rather than the explorer's fingerprint kernel, so a change to the
/// kernel cannot move the schedules these tests walk: the non-vacuity
/// guards below (a long enough undecided prefix, relabelings the plain
/// fingerprint tells apart) hold on these draws, and a TSO draw that
/// decides within a few steps would leave them nothing to compare.
fn draw(pick_seed: u64, step: u64) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in pick_seed.to_le_bytes().into_iter().chain(step.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// Drive the fig1 `n`-process snapshot engine along a deterministic
/// action sequence derived from `pick_seed`, mapping every chosen pid
/// through `perm`, and return the snapshot after every step (the root
/// included). The fig1 bodies are pid-indexed (body `p` proposes
/// `100 + p`), so stepping `perm[p]` wherever the base run steps `p`
/// reaches exactly the `perm`-relabeled state. Under `tso` an action is
/// an op or a store-buffer flush, and flushing `perm[p]`'s buffer
/// wherever the base run flushes `p`'s keeps the runs π-related.
fn permuted_run(n: usize, tso: bool, pick_seed: u64, perm: &[usize]) -> Vec<Snapshot> {
    let mut snap = ModelWorld::snapshot_root_tso(n, true, true, tso, fig1_bodies(n, 1));
    let mut out = vec![snap.clone()];
    let mut step = 0u64;
    // Choose among the *base* run's pids: the permuted run's alive and
    // flushable sets are the images of the base run's, so selecting a
    // base pid and mapping it lands on an enabled action there too.
    let base = |pids: Vec<usize>| {
        let mut base: Vec<usize> =
            pids.iter().map(|&p| perm.iter().position(|&q| q == p).unwrap()).collect();
        base.sort_unstable();
        base
    };
    while !snap.is_terminal() {
        let (ops, flushes) = (base(snap.alive()), base(snap.flushable()));
        let c = draw(pick_seed, step) % (ops.len() + flushes.len());
        snap = match ops.get(c) {
            Some(&chosen) => {
                let body = fig1_bodies(n, 1).into_iter().nth(perm[chosen]).unwrap();
                ModelWorld::resume_from(&snap, perm[chosen], body)
            }
            None => ModelWorld::resume_flush(&snap, perm[flushes[c - ops.len()]]),
        };
        out.push(snap.clone());
        step += 1;
    }
    out
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for slot in 0..n {
            let mut p = rest.clone();
            p.insert(slot, n - 1);
            out.push(p);
        }
    }
    out
}

/// The core canonicalization property on fig1, over its **equivariant
/// fragment**: for every permutation `π` and every prefix where no
/// process has decided yet, the `π`-relabeled execution reaches a state
/// with the same canonical fingerprint — under SC and under TSO, where
/// the compared prefixes include states
/// with writes still buffered — while the plain fingerprint
/// distinguishes the relabelings (so the equality is the quotient's
/// doing, not a collision of the base hash).
///
/// The decided-prefix restriction is the min-index caveat of
/// `docs/EXPLORER.md` §3.5 made concrete: `SafeAgreement::try_decide`
/// returns the proposal of the *smallest-index* stable process, and
/// `min π(K) ≠ π(min K)`, so once a successful poll has executed, the
/// pid-permuted *execution* is no longer a pid-relabeling of the base
/// one (the two runs may decide different proposals) and their
/// fingerprints rightly differ. The quotient stays sound there because
/// the poll result is control-inert and `check_agreement` is closed
/// under pid permutation of outcomes; the
/// `equivariant_program_is_invariant_at_every_prefix` test below pins
/// full-run invariance on a program without the caveat.
#[test]
fn pid_permuted_fig1_runs_fingerprint_identically_until_a_decision() {
    let n = 3;
    for tso in [false, true] {
        let mut buffered = false;
        for pick_seed in 0..4u64 {
            let identity: Vec<usize> = (0..n).collect();
            let base = permuted_run(n, tso, pick_seed, &identity);
            for perm in permutations(n) {
                let relabeled = permuted_run(n, tso, pick_seed, &perm);
                assert_eq!(base.len(), relabeled.len(), "π-related runs have equal length");
                let mut raw_diverged = false;
                let mut compared = 0;
                for (i, (a, b)) in base.iter().zip(&relabeled).enumerate() {
                    if a.report(false).decided_values().iter().any(|&v| v > 0) {
                        break;
                    }
                    compared += 1;
                    buffered |= !a.flushable().is_empty();
                    for quotient in [false, true] {
                        let (fa, _) = a.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                        let (fb, _) = b.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                        assert_eq!(
                            fa, fb,
                            "canonical fingerprints diverge at prefix {i} (perm {perm:?}, \
                             tso {tso}, quotient {quotient})"
                        );
                    }
                    raw_diverged |= a.fingerprint() != b.fingerprint();
                }
                assert!(compared > 6, "the equivariant fragment must be nontrivial");
                if perm != identity {
                    assert!(
                        raw_diverged,
                        "plain fingerprints must distinguish the relabelings somewhere \
                         (perm {perm:?}, tso {tso}) — otherwise this test proves nothing"
                    );
                }
            }
        }
        assert_eq!(buffered, tso, "TSO prefixes must stop with writes still buffered");
    }
}

/// A buffered write is not a flushed one: fig1's first write left in
/// `p`'s store buffer and the same write flushed to memory canonicalize
/// apart, with and without the observation quotient, while each still
/// merges with its images under every pid permutation.
#[test]
fn buffered_and_flushed_writes_never_merge() {
    let n = 3;
    let fps = |p: usize, flush: bool| {
        let root = ModelWorld::snapshot_root_tso(n, true, true, true, fig1_bodies(n, 1));
        let body = fig1_bodies(n, 1).into_iter().nth(p).unwrap();
        let mut snap = ModelWorld::resume_from(&root, p, body);
        assert_eq!(snap.flushable(), [p], "the propose write parks in its issuer's buffer");
        if flush {
            snap = ModelWorld::resume_flush(&snap, p);
        }
        [false, true].map(|quotient| snap.fingerprint_symmetric(quotient, &FIG1_SYMMETRY).0)
    };
    let (buffered, flushed) = (fps(0, false), fps(0, true));
    for quotient in [0, 1] {
        assert_ne!(buffered[quotient], flushed[quotient], "quotient {quotient}");
    }
    for p in 1..n {
        assert_eq!(fps(p, false), buffered, "p{p}'s buffered write is p0's π-image");
        assert_eq!(fps(p, true), flushed, "p{p}'s flushed write is p0's π-image");
    }
}

/// A fig1-shaped program with **no** min-index caveat: every operation
/// result is either pid-covariant (the process's own `100 + p` cell
/// write) or index-free (written-cell counts and their sums), so
/// pid-permuted executions are genuine state relabelings all the way to
/// termination — and canonical fingerprints must agree at **every**
/// prefix, terminal states included.
fn equivariant_bodies(n: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            Box::new(move |env: Env<ModelWorld>| {
                let marks = ObjKey::new(KIND_BASE + 90, 0, 0);
                let counts = ObjKey::new(KIND_BASE + 90, 0, 1);
                env.snap_write(marks, n, i, 100 + i as u64);
                let written =
                    env.snap_scan_via::<u64, u64>(marks, n, |v| v.iter().flatten().count() as u64);
                env.snap_write(counts, n, i, written);
                env.snap_scan_via::<u64, u64>(counts, n, |v| v.iter().flatten().sum())
            }) as Body
        })
        .collect()
}

const EQUIVARIANT_SYMMETRY: Symmetry = Symmetry {
    relabel_value: |v, perm| {
        if (100..100 + perm.len() as u64).contains(&v) {
            100 + perm[(v - 100) as usize] as u64
        } else {
            v
        }
    },
    // Results are sums of index-free counts: pid-free already.
    relabel_result: |r, _| r,
};

#[test]
fn equivariant_program_is_invariant_at_every_prefix() {
    let n = 3;
    let run = |pick_seed: u64, perm: &[usize]| {
        let mut snap = ModelWorld::snapshot_root(n, true, true, equivariant_bodies(n));
        let mut out = vec![snap.clone()];
        let mut step = 0u64;
        while !snap.is_terminal() {
            let alive = snap.alive();
            let mut base: Vec<usize> =
                alive.iter().map(|&p| perm.iter().position(|&q| q == p).unwrap()).collect();
            base.sort_unstable();
            let chosen = base[draw(pick_seed, step) % base.len()];
            let pid = perm[chosen];
            let body = equivariant_bodies(n).into_iter().nth(pid).unwrap();
            snap = ModelWorld::resume_from(&snap, pid, body);
            out.push(snap.clone());
            step += 1;
        }
        out
    };
    for pick_seed in 0..4u64 {
        let identity: Vec<usize> = (0..n).collect();
        let base = run(pick_seed, &identity);
        for perm in permutations(n) {
            let relabeled = run(pick_seed, &perm);
            assert_eq!(base.len(), relabeled.len());
            for (i, (a, b)) in base.iter().zip(&relabeled).enumerate() {
                for quotient in [false, true] {
                    let (fa, _) = a.fingerprint_symmetric(quotient, &EQUIVARIANT_SYMMETRY);
                    let (fb, _) = b.fingerprint_symmetric(quotient, &EQUIVARIANT_SYMMETRY);
                    assert_eq!(
                        fa,
                        fb,
                        "canonical fingerprints diverge at prefix {i} of {} \
                         (perm {perm:?}, quotient {quotient})",
                        base.len() - 1
                    );
                }
            }
        }
    }
}

/// Canonicalization through adversary crashes: crash victim `p` in the
/// base run and victim `π(p)` in the relabeled run, keep stepping, and
/// the canonical fingerprints still agree at every prefix. (The
/// *explorer* gates the quotient off under crash plans — a plan names
/// pids — but the fingerprint itself must handle crashed processes
/// correctly, e.g. for post-crash states reached before the gate.)
#[test]
fn pid_permuted_post_crash_states_fingerprint_identically() {
    let n = 3;
    let identity: Vec<usize> = (0..n).collect();
    for victim in 0..n {
        for perm in permutations(n) {
            let run = |perm: &[usize]| {
                let mut snap = ModelWorld::snapshot_root(n, true, true, fig1_bodies(n, 1));
                let mut out = Vec::new();
                // One step each from the two non-victims, then the crash,
                // then run the survivors to completion.
                for p in (0..n).filter(|&p| p != victim) {
                    let body = fig1_bodies(n, 1).into_iter().nth(perm[p]).unwrap();
                    snap = ModelWorld::resume_from(&snap, perm[p], body);
                    out.push(snap.clone());
                }
                snap = ModelWorld::resume_crash(&snap, perm[victim]);
                out.push(snap.clone());
                while !snap.is_terminal() {
                    let pid = snap.alive()[0];
                    let body = fig1_bodies(n, 1).into_iter().nth(pid).unwrap();
                    snap = ModelWorld::resume_from(&snap, pid, body);
                    out.push(snap.clone());
                }
                out
            };
            let base = run(&identity);
            let relabeled = run(&perm);
            // The survivors-to-completion suffix schedules by raw pid
            // order, which is not permutation-covariant — compare only
            // the prefix that is (two steps + the crash delivery).
            for (i, (a, b)) in base.iter().zip(&relabeled).enumerate().take(n) {
                for quotient in [false, true] {
                    let (fa, _) = a.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                    let (fb, _) = b.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                    assert_eq!(
                        fa, fb,
                        "post-crash canonical fingerprints diverge at prefix {i} \
                         (victim {victim}, perm {perm:?})"
                    );
                }
            }
        }
    }
}

/// The canonical fingerprint survives a codec round trip byte-stably:
/// a spilled-and-rehydrated snapshot must land in the same visited-set
/// slot as its in-memory original, or resumed sweeps would re-explore
/// (or worse, skip) subtrees. Under TSO the walked states include
/// buffered writes.
#[test]
fn canonical_fingerprint_survives_codec_roundtrip() {
    let n = 3;
    for tso in [false, true] {
        let mut buffered = false;
        for pick_seed in 0..4u64 {
            let identity: Vec<usize> = (0..n).collect();
            for snap in permuted_run(n, tso, pick_seed, &identity) {
                buffered |= !snap.flushable().is_empty();
                let decoded = Snapshot::decode(&snap.encode().expect("encode")).expect("decode");
                for quotient in [false, true] {
                    assert_eq!(
                        snap.fingerprint_symmetric(quotient, &FIG1_SYMMETRY),
                        decoded.fingerprint_symmetric(quotient, &FIG1_SYMMETRY),
                        "canonical fingerprint changed across encode/decode \
                         (tso {tso}, quotient {quotient})"
                    );
                }
            }
        }
        assert_eq!(buffered, tso, "TSO walks must pass through buffered states");
    }
}

/// Programs that declare no spec are untouched by the reduction flag:
/// the fig6 sweep prints byte-identical summary lines under
/// `Reduction::full()` (symmetry on, no spec to act on) and the same
/// set with `symmetry` off.
#[test]
fn programs_without_a_spec_are_untouched() {
    let sweep = |reduction: Reduction| {
        Explorer::new(3)
            .reduction(reduction)
            .limits(ExploreLimits {
                max_expansions: 1_000_000,
                max_steps: 2_000,
                ..Default::default()
            })
            .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, true))
    };
    let on = sweep(Reduction::full());
    let off = sweep(Reduction { symmetry: false, ..Reduction::full() });
    assert_eq!(
        on.stats.summary(),
        off.stats.summary(),
        "a spec-free program must not see the symmetry flag"
    );
    assert_eq!(on.complete, off.complete);
    assert_eq!(on.violations, off.violations);
}

/// A symmetry-quotiented sweep halted at a mid-sweep barrier resumes —
/// with the spec re-supplied — to the byte-identical final report of
/// the uninterrupted sweep, under SC and under TSO (where the resumed
/// sweep must again run the quotient without DPOR and reach the same
/// counterexample).
#[test]
fn symm_sweep_resumes_to_identical_report() {
    for tso in [false, true] {
        let dir =
            std::env::temp_dir().join(format!("mpcn-symm-resume-{tso}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let explorer = Explorer::new(3).symmetry(FIG1_SYMMETRY).tso(tso).limits(ExploreLimits {
            max_expansions: 2_000_000,
            max_steps: 2_000,
            ..Default::default()
        });
        let halted = explorer
            .clone()
            .spill_to(&dir)
            .fixture_id("fig1 n=3 symm resume")
            .halt_after_layers(3)
            .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
        assert!(!halted.complete, "the halt must actually interrupt the sweep");
        let resumed = Explorer::resume_sweep_with_symmetry(
            &dir,
            Some(FIG1_SYMMETRY),
            || fig1_bodies(3, 1),
            |r| check_agreement(r, 3, true),
        );
        let _ = std::fs::remove_dir_all(&dir);
        let uninterrupted = explorer.run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
        assert_eq!(
            resumed.stats.summary(),
            uninterrupted.stats.summary(),
            "resume must reach the uninterrupted sweep's exact summary (tso {tso})"
        );
        assert_eq!(resumed.complete, uninterrupted.complete);
        assert_eq!(resumed.violations, uninterrupted.violations);
        assert_eq!(resumed.violations.is_empty(), !tso, "only TSO breaks fig1");
        assert!(resumed.stats.symm_enabled, "the resumed sweep must keep the quotient active");
    }
}

/// Plain `resume_sweep` must refuse a manifest whose sweep was started
/// with a symmetry spec: resuming without the spec would fingerprint
/// future layers in a different state space than the persisted visited
/// set.
#[test]
#[should_panic(expected = "symmetry")]
fn resume_without_spec_refuses_symm_manifest() {
    let dir = std::env::temp_dir().join(format!("mpcn-symm-refuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = Explorer::new(3)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .spill_to(&dir)
        .fixture_id("fig1 n=3 symm refuse")
        .halt_after_layers(3)
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    let result = std::panic::catch_unwind(|| {
        Explorer::resume_sweep(&dir, || fig1_bodies(3, 1), |r| check_agreement(r, 3, true))
    });
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(_) => panic!("resume_sweep accepted a spec-bearing manifest"),
        Err(e) => std::panic::resume_unwind(e),
    }
}
