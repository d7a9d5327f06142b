//! Model-checking sweeps of the paper's object types (architecture guide
//! in `docs/EXPLORER.md`):
//!
//! * the **explorer catalogue** (`fixtures::catalogue`, also printed by
//!   the `explore_sweep` bench): every sweep's summary line must equal
//!   its line in `tests/golden/explore_catalogue.txt`, the one place
//!   those lines are pinned, both in memory (which never touches a
//!   store) and through a disk-backed `SpillStore` under a binding
//!   ceiling (whose eviction and rehydration counters are checked per
//!   sweep) — and a matrix switches each reduction off in turn over the
//!   catalogue's small fixtures, demanding the full set's verdicts and
//!   pinning every variant's expansions;
//! * Figure 1 safe agreement, `n = 3..7` — exhaustive, termination
//!   checked too; `n = 6` pinned in tier-1, and `n = 6` without
//!   symmetry plus `n = 7`, both through a disk-backed `SpillStore`,
//!   behind `#[ignore]` (release scale);
//! * Figure 5 `x_compete`, `n = 3..5` — exhaustive at `n = 3, 4`,
//!   bounded-depth at `n = 5`;
//! * Figure 6 x-safe agreement, `n = 3..5` — exhaustive at `n = 3, 4`
//!   (termination checked at `n = 4`, whose report a sweep spilled
//!   under a second, tighter storage policy reproduces byte for byte),
//!   bounded-depth at `n = 5`;
//! * a crash-schedule matrix: `fig1 n = 3` with a crash at every
//!   `(process, step)` pair, DPOR-on vs pruning-only, verdicts
//!   cross-checked against the gated-replay oracle — plus a crash-count
//!   differential pinning that one `Crashes::UpTo(1)` sweep reproduces
//!   the exact outcome union of the whole matrix;
//! * weak-memory sweeps (`Explorer::tso`, x86-TSO store buffers):
//!   Figure 1 at `n = 3, 4`, and `n = 5` behind `#[ignore]` (release
//!   scale) — where unfenced safe agreement **breaks** (every process's
//!   propose parks in its own store buffer, its scan forwards only its
//!   own write, and all `n` decide their own proposals); the exact
//!   counterexample choice vectors are pinned and replayed through the
//!   gated engine — plus Figure 5 at `n = 3`, which stays correct under
//!   TSO (its test&set / x-consensus steps fence).

use mpcn_agreement::fixtures::{
    catalogue, check_agreement, check_winners, fig1_bodies, fig5_bodies, fig6_bodies,
    CatalogueSweep, FIG1_SYMMETRY,
};

use mpcn_runtime::explore::{explore, ExploreLimits, ExploreReport, Explorer, Reduction};
use mpcn_runtime::model_world::RunReport;
use mpcn_runtime::sched::Crashes;

/// The acceptance sweep: the Figure 1 object at `n = 3`, exhaustively.
/// The pruned frontier search must complete, find nothing, and visit
/// strictly fewer states (and check strictly fewer runs) than the
/// unpruned reference over the same tree.
#[test]
fn fig1_n3_pruned_sweep_beats_unpruned_reference() {
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    let pruned =
        Explorer::new(3).limits(limits).run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    pruned.assert_no_violation();
    assert!(pruned.complete, "pruned sweep must exhaust the tree ({} runs)", pruned.runs());
    assert!(pruned.stats.states_pruned > 0, "prefix pruning must fire at n = 3");

    let unpruned =
        explore(3, Crashes::None, limits, || fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    unpruned.assert_no_violation();
    assert!(unpruned.complete);

    assert!(
        pruned.stats.states_visited < unpruned.stats.states_visited,
        "pruning must visit strictly fewer states ({} !< {})",
        pruned.stats.states_visited,
        unpruned.stats.states_visited
    );
    assert!(
        pruned.runs() < unpruned.runs(),
        "pruning must check strictly fewer runs ({} !< {})",
        pruned.runs(),
        unpruned.runs()
    );
}

/// Runs one catalogued sweep under `explorer` (its own, or a variant of
/// it) and checks its verdict.
fn catalogue_report(sweep: &CatalogueSweep, explorer: &Explorer) -> ExploreReport {
    let report = sweep.run_with(explorer);
    assert_eq!(
        !report.violations.is_empty(),
        sweep.expect_violation,
        "{}: unexpected verdict",
        sweep.label
    );
    report
}

/// Diffs the catalogue's `lines` against
/// `tests/golden/explore_catalogue.txt` and names every drifted line.
fn assert_matches_golden_catalogue(lines: &[String]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/explore_catalogue.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let drift: Vec<String> = (0..lines.len().max(golden.len()))
        .filter(|&i| lines.get(i).map(String::as_str) != golden.get(i).copied())
        .map(|i| {
            format!("- {}\n+ {}", golden.get(i).unwrap_or(&""), lines.get(i).map_or("", |l| l))
        })
        .collect();
    assert!(
        drift.is_empty(),
        "the catalogue drifted from {} (regenerate it only for an intentional \
         search-shape change):\n{}",
        path.display(),
        drift.join("\n")
    );
}

/// Process bodies each catalogued sweep runs (`ExploreStats::body_runs`,
/// off the summary line): the `n` root probes plus one per
/// continuation-cache miss, or one per op pick in the unpruned sweep,
/// which keeps no cache.
const BODY_RUNS: [(&str, u64); 14] = [
    ("fig1 n=3 pruned", 25),
    ("fig1 n=3 unpruned", 110_253),
    ("fig1 n=3 crash(0@1) pruned", 23),
    ("fig1 n=4 depth<=9 pruned", 34),
    ("fig5 n=4 x=2 pruned", 20),
    ("fig6 n=3 x=2 pruned", 90),
    ("fig6 n=4 x=2 pruned", 172),
    ("fig1 n=4 pruned", 35),
    ("fig1 n=5 pruned", 45),
    ("fig1 n=5 f=1 pruned", 45),
    ("fig1 n=4 f=2 pruned", 35),
    ("fig1 n=3 tso pruned", 30),
    ("fig5 n=4 x=2 tso pruned", 20),
    ("fig6 n=3 x=2 tso pruned", 90),
];

/// The one place the catalogue's summary lines are pinned: every sweep
/// of `fixtures::catalogue`, run in memory, must print exactly its line
/// of `tests/golden/explore_catalogue.txt`, run exactly its
/// [`BODY_RUNS`] bodies, and touch no store: nothing evicted, spilled or
/// read back. After an intentional search-shape change, regenerate the
/// file with `cargo bench --bench explore_sweep -- --quick 2>&1
/// >/dev/null | grep -E '^explore:' > tests/golden/explore_catalogue.txt`.
#[test]
fn catalogue_matches_golden_file() {
    let mut body_runs = Vec::new();
    let lines: Vec<String> = catalogue()
        .iter()
        .map(|sweep| {
            let report = catalogue_report(sweep, &sweep.explorer);
            let stats = &report.stats;
            assert_eq!(
                (stats.evicted, stats.spilled, stats.store_reads),
                (0, 0, 0),
                "{}: an in-memory sweep must not touch a store",
                sweep.label
            );
            body_runs.push((sweep.label, stats.body_runs));
            report.summary_line(sweep.label)
        })
        .collect();
    assert_matches_golden_catalogue(&lines);
    assert_eq!(body_runs, BODY_RUNS, "process bodies run per catalogued sweep");
}

/// Storage is policy, never search shape: every catalogued sweep, run
/// through a disk-backed `SpillStore` in its own temporary directory
/// under a 64-node resident ceiling with 8-layer checkpoints, must print
/// the same golden line as in memory. The ceiling binds on nine sweeps —
/// `fig1 n=3 unpruned`, `fig1 n=4`, `fig1 n=5`, both fault-tolerance
/// sweeps, `fig1 n=3 tso` and all three `fig6` sweeps — so eviction and
/// anchored rehydration from disk run on every pass. Every sweep spills
/// its checkpoint layers, reads each evicted node back at most once and
/// replays at most one stride to rehydrate it; `fig6 n=4` evicts en
/// masse, and `fig1 n=5` evicts and replays at least one decision.
/// Rehydration replays only paths the sweep has already run, so every
/// op pick it replays in a pruned sweep hits the continuation cache: each
/// pruned sweep runs exactly its in-memory [`BODY_RUNS`]. The unpruned
/// sweep keeps no cache, so each op pick its rehydrations replay runs a
/// body again: 176 282 more than in memory.
#[test]
fn spilled_catalogue_matches_golden_file() {
    let mut body_runs = Vec::new();
    let lines: Vec<String> = catalogue()
        .iter()
        .map(|sweep| {
            let slug: String = sweep
                .label
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            let dir = std::env::temp_dir()
                .join(format!("mpcn-catalogue-spill-{}-{slug}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let report = catalogue_report(
                sweep,
                &sweep
                    .explorer
                    .clone()
                    .resident_ceiling(64)
                    .checkpoint_every(8)
                    .spill_to(&dir)
                    .fixture_id(sweep.label),
            );
            let _ = std::fs::remove_dir_all(&dir);
            let (label, stats) = (sweep.label, &report.stats);
            assert!(stats.spilled > 0, "{label}: checkpoint layers must spill to the segment file");
            assert!(
                stats.store_reads <= stats.evicted,
                "{label}: one disk read per evicted node: {} reads for {} evictions",
                stats.store_reads,
                stats.evicted
            );
            assert!(
                stats.max_rehydration_replay <= 8,
                "{label}: rehydration replays at most checkpoint_every decisions ({})",
                stats.max_rehydration_replay
            );
            match label {
                "fig6 n=4 x=2 pruned" => {
                    assert!(
                        stats.evicted > 1_000,
                        "{label}: a 64-node ceiling must evict en masse"
                    );
                    assert!(
                        stats.store_reads > 0,
                        "{label}: evicted nodes must rehydrate from disk"
                    );
                }
                "fig1 n=5 pruned" => {
                    assert!(stats.evicted > 0, "{label}: a 64-node ceiling must evict");
                    assert!(
                        stats.max_rehydration_replay >= 1,
                        "{label}: anchored rehydration must replay a decision"
                    );
                }
                _ => {}
            }
            body_runs.push((label, stats.body_runs));
            report.summary_line(label)
        })
        .collect();
    assert_matches_golden_catalogue(&lines);
    let expected = BODY_RUNS.map(|(label, runs)| match label {
        "fig1 n=3 unpruned" => (label, 286_535),
        _ => (label, runs),
    });
    assert_eq!(body_runs, expected, "rehydration must only hit the continuation cache");
}

/// Expansions of each matrix sweep under the full reduction set and
/// with `dpor`, `quotient_obs` or `symmetry` switched off, in that
/// order. A cell equal to the full set's is a reduction that buys
/// nothing on that sweep: symmetry on the spec-free Figure 5 and 6
/// programs and under a pid-naming crash plan, DPOR under TSO next to
/// the symmetry quotient, and the observation quotient on crash-free
/// SC Figure 1.
const MATRIX_EXPANSIONS: [(&str, [u64; 4]); 8] = [
    ("fig1 n=3 pruned", [196, 235, 196, 763]),
    ("fig1 n=3 crash(0@1) pruned", [206, 301, 206, 206]),
    ("fig5 n=4 x=2 pruned", [129, 172, 184, 129]),
    ("fig6 n=3 x=2 pruned", [1_328, 2_415, 1_336, 1_328]),
    ("fig1 n=3 tso pruned", [3_493, 3_493, 3_493, 12_637]),
    ("fig5 n=4 x=2 tso pruned", [172, 172, 244, 172]),
    ("fig6 n=3 x=2 tso pruned", [5_523, 5_704, 5_706, 5_523]),
    ("fig1 n=3 f=1 pruned", [431, 678, 443, 1_827]),
];

/// Switching off any one reduction — DPOR, the observation quotient,
/// or the symmetry quotient — changes state counts but never the
/// answer: over the catalogue's small fixtures (Figure 1 at `n = 3`
/// plain, under a crash plan, under one counted crash, and under TSO;
/// Figure 5 at `n = 4` and Figure 6 at `n = 3`, each under SC and TSO)
/// every variant must reach the full set's `complete` flag, violation
/// count, and first violation message — the TSO counterexample
/// included. Each variant's expansions are pinned in
/// [`MATRIX_EXPANSIONS`], so a reduction that silently stops reducing
/// fails here too. Declared view summaries are not a variant: the
/// runtime's proptests and `view_summaries_merge_live_histories`
/// compare programs written with and without them.
#[test]
fn reduction_matrix_preserves_catalogue_verdicts() {
    const LABELS: [&str; 7] = [
        "fig1 n=3 pruned",
        "fig1 n=3 crash(0@1) pruned",
        "fig5 n=4 x=2 pruned",
        "fig6 n=3 x=2 pruned",
        "fig1 n=3 tso pruned",
        "fig5 n=4 x=2 tso pruned",
        "fig6 n=3 x=2 tso pruned",
    ];
    let mut sweeps: Vec<CatalogueSweep> =
        catalogue().into_iter().filter(|sweep| LABELS.contains(&sweep.label)).collect();
    assert_eq!(sweeps.len(), LABELS.len(), "matrix labels drifted from the catalogue");
    // The catalogue's crash-count sweeps start at n = 4; one counted
    // crash at n = 3 keeps the matrix small.
    let fig1 = sweeps.iter().find(|s| s.label == "fig1 n=3 pruned").expect("listed above").clone();
    sweeps.push(CatalogueSweep {
        label: "fig1 n=3 f=1 pruned",
        explorer: fig1.explorer.clone().crashes(Crashes::UpTo(1)),
        ..fig1
    });
    let full = Reduction::full();
    let variants = [
        ("dpor", Reduction { dpor: false, ..full }),
        ("quotient_obs", Reduction { quotient_obs: false, ..full }),
        ("symmetry", Reduction { symmetry: false, ..full }),
    ];
    let verdict = |sweep: &CatalogueSweep, reduction: Reduction| {
        let out = sweep.run_with(&sweep.explorer.clone().reduction(reduction));
        let verdict =
            (out.complete, out.violations.len(), out.violation().map(|v| v.message.clone()));
        (verdict, out.stats.expansions)
    };
    let mut expansions = Vec::new();
    for sweep in &sweeps {
        let (reference, full_expansions) = verdict(sweep, full);
        assert_eq!(reference.1 > 0, sweep.expect_violation, "{}: unexpected verdict", sweep.label);
        let mut row = [full_expansions; 4];
        for (cell, (off, reduction)) in row[1..].iter_mut().zip(variants) {
            let (variant, variant_expansions) = verdict(sweep, reduction);
            assert_eq!(
                variant, reference,
                "{}: switching off {off} changed the verdict",
                sweep.label
            );
            *cell = variant_expansions;
        }
        expansions.push((sweep.label, row));
    }
    assert_eq!(expansions, MATRIX_EXPANSIONS, "expansions per reduction variant");
}

/// The Figure 1 `n = 4` sweep under the full reduction set, the
/// pid-symmetry quotient included, checked for termination as well as
/// agreement and validity (the catalogue's `fig1 n=4 pruned` line pins
/// its state counts).
#[test]
fn fig1_n4_exhaustive_baseline() {
    let out = Explorer::new(4)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 4 must exhaust ({} runs)", out.runs());
}

/// The Figure 1 scale-up milestone: safe agreement at `n = 5` — 5
/// proposers, schedule depth 20 — is **exhausted** under the full
/// reduction set with the pid-symmetry quotient, termination checked
/// (the catalogue's `fig1 n=5 pruned` line pins its state counts, in
/// memory and spilled).
#[test]
fn fig1_n5_exhaustive_symm_baseline() {
    let out = Explorer::new(5)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 5 must exhaust ({} runs)", out.runs());
}

/// One scale step past the milestone under the symmetry quotient:
/// `n = 6` (depth 24) exhausts in seconds even in debug — where the
/// symmetry-free engine needs ~1.37M expansions and `#[ignore]`d
/// release scale (the test below) — so the exact line is pinned in the
/// tier-1 suite.
#[test]
fn fig1_n6_exhaustive_symm_baseline() {
    let out = Explorer::new(6)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 5_000,
            ..Default::default()
        })
        .run(|| fig1_bodies(6, 1), |r| check_agreement(r, 6, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 6 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=90 expansions=10399 visited=4062 pruned=6337 dpor=3132 qhits=5846 symm=5794 \
         crashes=0 flushes=0 max_depth=24 depth_limited=0 \
         branching=[0,365,738,992,956,642,280]",
        "fig1 n = 6 symmetry baseline drifted"
    );
}

/// One scale step beyond the milestone: `n = 6` (depth 24) is also
/// exhaustible without the symmetry quotient — ~1.37M expansions, about
/// 5 s release on a 2-vCPU VM — but too heavy for the debug-mode tier-1
/// suite, so the exact baseline is pinned behind `#[ignore]`. The sweep
/// runs through a disk-backed `SpillStore` with a resident ceiling far
/// below the widest layer: checkpoint snapshots live in the segment
/// file, so this is the storage layer at its design scale — and the
/// pinned line proves the disk is invisible in the report.
/// Reproduce with
/// `cargo test --release -p mpcn-agreement --test explore_sweeps -- \
/// --ignored fig1_n6`.
#[test]
#[ignore = "release-scale sweep (~5 s release, minutes debug); run explicitly with --ignored"]
fn fig1_n6_exhaustive_viewsum_spill_baseline() {
    let dir = std::env::temp_dir().join(format!("mpcn-fig1-n6-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Explorer::new(6)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 5_000,
            ..Default::default()
        })
        .resident_ceiling(50_000)
        .checkpoint_every(8)
        .spill_to(&dir)
        .fixture_id("fig1 n=6 viewsum")
        .run(|| fig1_bodies(6, 1), |r| check_agreement(r, 6, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 6 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=3963 expansions=1370196 visited=597940 pruned=772256 dpor=733830 qhits=737210 \
         symm=off crashes=0 flushes=0 max_depth=24 depth_limited=0 \
         branching=[0,29916,94350,162840,169230,105882,31760]",
        "fig1 n = 6 view-summary baseline drifted"
    );
    assert!(out.stats.spilled > 0, "checkpoint layers must spill to the segment file");
    assert!(out.stats.store_reads > 0, "the binding ceiling must rehydrate from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two scale steps past the milestone: `n = 7` — 7 proposers, schedule
/// depth 28, a tree the symmetry-free engine cannot touch (the `n = 6`
/// sweep already needed 1.37M expansions; `n = 7` would be well beyond
/// 10M) — is **exhausted** under the pid-symmetry quotient, through a
/// disk-backed `SpillStore` with a deliberately binding 256-node
/// resident ceiling: the storage layer and the symmetry quotient at
/// their combined design scale, canonical fingerprints surviving
/// spill-encode/decode byte-stably. Reproduce with
/// `cargo test --release -p mpcn-agreement --test explore_sweeps -- \
/// --ignored fig1_n7`.
#[test]
#[ignore = "release-scale sweep (seconds release, minutes debug); run explicitly with --ignored"]
fn fig1_n7_exhaustive_symm_spill_baseline() {
    let dir = std::env::temp_dir().join(format!("mpcn-fig1-n7-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Explorer::new(7)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 5_000,
            ..Default::default()
        })
        .resident_ceiling(256)
        .checkpoint_every(8)
        .spill_to(&dir)
        .fixture_id("fig1 n=7 symm")
        .run(|| fig1_bodies(7, 1), |r| check_agreement(r, 7, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 7 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=139 expansions=28312 visited=9565 pruned=18747 dpor=8896 qhits=17690 \
         symm=17707 crashes=0 flushes=0 max_depth=28 depth_limited=0 \
         branching=[0,586,1271,1898,2144,1856,1174,498]",
        "fig1 n = 7 symmetry baseline drifted"
    );
    assert!(out.stats.spilled > 0, "checkpoint layers must spill to the segment file");
    assert!(out.stats.store_reads > 0, "the binding ceiling must rehydrate from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Figure 5 sweeps: exhaustive at `n = 3, 4`; depth bounded at `n = 5`.
#[test]
fn fig5_x_compete_sweeps_n3_to_n5() {
    for (n, x) in [(3usize, 2u32), (4, 2)] {
        let out = Explorer::new(n)
            .limits(ExploreLimits {
                max_expansions: 500_000,
                max_steps: 1_000,
                ..Default::default()
            })
            .run(|| fig5_bodies(n, x), move |r| check_winners(r, n, x));
        out.assert_no_violation();
        assert!(out.complete, "n = {n} x = {x} must exhaust ({} runs)", out.runs());
    }
    let out = Explorer::new(5)
        .limits(ExploreLimits { max_expansions: 400_000, max_steps: 1_000, max_depth: 7 })
        .run(|| fig5_bodies(5, 2), |r| check_winners(r, 5, 2));
    out.assert_no_violation();
    assert!(out.stats.depth_limited_runs > 0);
}

/// Figure 6 sweeps: exhaustive at `n = 3`; depth bounded at `n = 5`
/// (`n = 4` is exhausted by the bounded-frontier sweep below).
#[test]
fn fig6_x_safe_agreement_sweeps_n3_and_n5() {
    let out = Explorer::new(3)
        .limits(ExploreLimits { max_expansions: 1_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, true));
    out.assert_no_violation();
    assert!(out.complete, "n = 3 x = 2 must exhaust ({} runs)", out.runs());

    let out = Explorer::new(5)
        .limits(ExploreLimits { max_expansions: 400_000, max_steps: 2_000, max_depth: 5 })
        .run(|| fig6_bodies(5, 2, 1), |r| check_agreement(r, 5, true));
    out.assert_no_violation();
    assert!(out.stats.depth_limited_runs > 0, "the bound must bind (n = 5)");
}

/// The crash-schedule matrix: `fig1 n = 3` with a crash injected at
/// every `(process, step)` pair — every victim, every own-step position
/// in its 4-operation body — swept exhaustively under the full
/// reduction set **and** under pruning alone (which folds Figure 1's
/// declared view summaries too). Verdicts must match pair for pair,
/// and both agree with the gated-replay oracle: any violation either
/// sweep found would be re-executed through the gated reference engine
/// (the explorer's built-in confirmation) before being reported, and
/// the canonical choice-0 schedule is additionally replayed gated here
/// and checked directly.
#[test]
fn fig1_n3_crash_matrix_dpor_matches_gated_oracle() {
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    for victim in 0..3usize {
        for crash_step in 0..4u64 {
            let crashes = Crashes::AtOwnStep(vec![(victim, crash_step)]);
            let ex = Explorer::new(3).crashes(crashes).limits(limits);
            let sweep = |reduction: Reduction| {
                ex.clone()
                    .reduction(reduction)
                    .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, false))
            };
            let dpor = sweep(Reduction::full());
            let baseline = sweep(Reduction { prune_visited: true, ..Reduction::none() });
            dpor.assert_no_violation();
            baseline.assert_no_violation();
            assert_eq!(
                (dpor.complete, dpor.violations.len()),
                (baseline.complete, baseline.violations.len()),
                "verdicts must match for victim {victim} at step {crash_step}"
            );
            assert!(dpor.complete, "victim {victim} at step {crash_step} must exhaust");
            assert!(
                dpor.stats.expansions <= baseline.stats.expansions,
                "DPOR never adds work (victim {victim}, step {crash_step})"
            );
            // Gated-replay oracle, driven explicitly on the canonical
            // schedule: the reference engine agrees nothing is violated.
            let gated = ex.replay(|| fig1_bodies(3, 1), &[]);
            assert!(
                check_agreement(&gated, 3, false).is_ok(),
                "gated oracle disagrees (victim {victim}, step {crash_step})"
            );
        }
    }
}

/// The crash-count differential on the real Figure 1 object: one
/// `Crashes::UpTo(1)` sweep must reproduce the **exact union** of
/// outcomes reachable by the 12-cell single-victim matrix above (every
/// victim, every own-step position) plus the crash-free sweep. The
/// outcome-signature checker deliberately errs on *every* run, so the
/// collected message set is the full reachable-outcome set — equality
/// is a semantic exhaustiveness proof over crash placements, not a
/// verdict coincidence (the matrix test above already pins the
/// verdict-level union: complete, zero `check_agreement` violations,
/// which the crash-count sweep reproduces since its outcome set is
/// exactly the matrix's).
#[test]
fn fig1_n3_crash_count_matches_single_victim_union() {
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    let signature = |r: &RunReport| {
        let mut decided = r.decided_values();
        decided.sort_unstable();
        Err(format!(
            "decided={decided:?} crashed={:?} undecided={:?}",
            r.crashed_pids(),
            r.undecided_pids()
        ))
    };
    let collect = |crashes: Crashes| {
        let out = Explorer::new(3)
            .crashes(crashes)
            .collect_all(true)
            .limits(limits)
            .run(|| fig1_bodies(3, 1), signature);
        assert!(out.complete || !out.violations.is_empty(), "the n = 3 tree must be exhausted");
        let mut msgs: Vec<String> = out.violations.iter().map(|v| v.message.clone()).collect();
        msgs.sort();
        msgs.dedup();
        (msgs, out)
    };

    // The oracle: the crash-free sweep plus every single-victim
    // `AtOwnStep` placement, own steps 0..=4 — one past the
    // 4-operation body, so a placement that can never fire degenerates
    // to the crash-free outcome set instead of being silently missed.
    let mut union: Vec<String> = collect(Crashes::None).0;
    for victim in 0..3usize {
        for crash_step in 0..=4u64 {
            union.extend(collect(Crashes::AtOwnStep(vec![(victim, crash_step)])).0);
        }
    }
    union.sort();
    union.dedup();

    let (counted, out) = collect(Crashes::UpTo(1));
    assert_eq!(counted, union, "UpTo(1) must reproduce the single-victim union exactly");
    assert!(out.stats.crash_branches > 0, "the crash band must actually branch");
}

/// The weak-memory counterexample: under x86-TSO store buffers
/// ([`Explorer::tso`]) the **unfenced** Figure 1 safe agreement is no
/// longer safe. Every propose write parks in its issuer's store buffer;
/// the propose scan forwards the issuer's own buffered write but sees
/// nobody else's, so along the schedule that defers every flush each
/// process observes itself as the only stable proposal and decides its
/// own value — all three decide differently. The exact counterexample
/// choice vector (pure op-band: every store still parked when the
/// deciding scans run) and its gated-engine replay are pinned (the
/// catalogue's `fig1 n=3 tso pruned` line pins the sweep's state
/// counts).
#[test]
fn fig1_n3_tso_agreement_counterexample_pinned_and_replayed() {
    let ex = Explorer::new(3).symmetry(FIG1_SYMMETRY).tso(true).limits(ExploreLimits {
        max_expansions: 10_000_000,
        max_steps: 2_000,
        ..Default::default()
    });
    let out = ex.run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    assert!(!out.complete, "a found counterexample ends the sweep early");
    let v = out.violation().expect("TSO must break unfenced safe agreement at n = 3");
    assert_eq!(v.message, "agreement violated: [100, 101, 102]");
    assert_eq!(v.choices, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2]);
    // Gated replay: the relaxed outcome reproduces — every process
    // decides its own proposal (encoded `v + 1`).
    let replayed = ex.replay(|| fig1_bodies(3, 1), &v.choices);
    assert_eq!(replayed.decided_values(), vec![101, 102, 103]);
    assert!(check_agreement(&replayed, 3, true).is_err(), "replay must reproduce the violation");
}

/// The `n = 4` weak-memory counterexample: same failure mode, one
/// scale step up. The pinned summary records the SC-vs-TSO blowup
/// (906 expansions exhaust the SC tree with symmetry; 10 212 without)
/// that EXPERIMENTS.md tabulates: the symmetry quotient, live under TSO
/// with DPOR off, reaches the violation in 42 942 expansions, where the
/// search without it took 515 323.
#[test]
fn fig1_n4_tso_agreement_counterexample_pinned_and_replayed() {
    let ex = Explorer::new(4).symmetry(FIG1_SYMMETRY).tso(true).limits(ExploreLimits {
        max_expansions: 60_000_000,
        max_steps: 2_000,
        ..Default::default()
    });
    let out = ex.run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, true));
    let v = out.violation().expect("TSO must break unfenced safe agreement at n = 4");
    assert_eq!(v.message, "agreement violated: [100, 101, 102, 103]");
    assert_eq!(v.choices, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3]);
    assert_eq!(
        out.stats.summary(),
        "runs=1 expansions=42942 visited=11698 pruned=30984 dpor=0 qhits=29098 symm=27460 \
         crashes=0 flushes=21917 max_depth=24 depth_limited=0 \
         branching=[0,550,1729,3106,3257,2022,795,204,35]",
        "fig1 n = 4 TSO counterexample baseline drifted"
    );
    let replayed = ex.replay(|| fig1_bodies(4, 1), &v.choices);
    assert_eq!(replayed.decided_values(), vec![101, 102, 103, 104]);
    assert!(check_agreement(&replayed, 4, true).is_err(), "replay must reproduce the violation");
}

/// One scale step further: `fig1 n = 5` under TSO reaches the
/// same-shaped counterexample (every propose and scan first, then each
/// process's two decide polls in pid order) in about 0.43M expansions,
/// where the search without the symmetry quotient took 20.7M. Too heavy
/// for the debug-mode tier-1 suite, so the vector, the summary and the
/// gated replay are pinned behind `#[ignore]`. Reproduce with
/// `cargo test --release -p mpcn-agreement --test explore_sweeps -- \
/// --ignored fig1_n5_tso`.
#[test]
#[ignore = "release-scale sweep (seconds release, about a minute debug); run explicitly with --ignored"]
fn fig1_n5_tso_agreement_counterexample_pinned_and_replayed() {
    let ex = Explorer::new(5).symmetry(FIG1_SYMMETRY).tso(true).limits(ExploreLimits {
        max_expansions: 60_000_000,
        max_steps: 2_000,
        ..Default::default()
    });
    let out = ex.run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, true));
    let v = out.violation().expect("TSO must break unfenced safe agreement at n = 5");
    assert_eq!(v.message, "agreement violated: [100, 101, 102, 103, 104]");
    let mut pinned = vec![0; 22];
    pinned.extend([1, 1, 2, 2, 3, 3, 4, 4]);
    assert_eq!(v.choices, pinned);
    assert_eq!(
        out.stats.summary(),
        "runs=1 expansions=426311 visited=93003 pruned=332550 dpor=0 qhits=324021 \
         symm=317548 crashes=0 flushes=226673 max_depth=30 depth_limited=0 \
         branching=[0,1600,6151,14524,22604,23056,15477,6986,2124,425,56]",
        "fig1 n = 5 TSO counterexample baseline drifted"
    );
    let replayed = ex.replay(|| fig1_bodies(5, 1), &v.choices);
    assert_eq!(replayed.decided_values(), vec![101, 102, 103, 104, 105]);
    assert!(check_agreement(&replayed, 5, true).is_err(), "replay must reproduce the violation");
}

/// Figure 5 under TSO: `x_compete` performs only fencing operations
/// (test&set and x-consensus — each drains its issuer's buffer), so
/// store buffers never hold a write, the flush band never opens
/// (`flushes=0`), and the object stays correct — exhausted at `n = 3`
/// (line pinned here) and `n = 4` (line pinned in the catalogue).
#[test]
fn fig5_tso_sweeps_stay_correct_n3_and_n4() {
    for n in [3usize, 4] {
        let out = Explorer::new(n)
            .tso(true)
            .limits(ExploreLimits {
                max_expansions: 10_000_000,
                max_steps: 1_000,
                ..Default::default()
            })
            .run(move || fig5_bodies(n, 2), move |r| check_winners(r, n, 2));
        out.assert_no_violation();
        assert!(out.complete, "fig5 n = {n} must exhaust under TSO ({} runs)", out.runs());
        assert_eq!(out.stats.flush_branches, 0, "x_compete must never buffer a store");
        if n == 3 {
            assert_eq!(
                out.stats.summary(),
                "runs=3 expansions=33 visited=21 pruned=12 dpor=0 qhits=12 symm=off crashes=0 \
                 flushes=0 max_depth=5 depth_limited=0 branching=[0,6,12,1]",
                "fig5 n = 3 TSO baseline drifted"
            );
        }
    }
}

/// The Figure 6 scale-up sweep, `n = 4` `x = 2`, is exhausted with
/// termination checked too (the catalogue's `fig6 n=4 x=2 pruned` line
/// pins its state counts, in memory and spilled under a binding
/// ceiling).
#[test]
fn fig6_n4_exhaustive_baseline() {
    let out = Explorer::new(4)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, true));
    out.assert_no_violation();
    assert!(out.complete, "n = 4 x = 2 must exhaust ({} runs)", out.runs());
}

/// Storage is policy at a second setting too: the Figure 6 scale-up
/// sweep, spilled to a disk-backed `SpillStore` under a 32-node resident
/// ceiling with a 3-layer checkpoint stride (the catalogue's spilled
/// test uses 64 and 8), reports exactly what the in-memory run reports —
/// every statistic of the summary line, completeness, violations. Only
/// the off-summary storage counters see the disk, and each evicted node
/// is read back at most once and rehydrated by at most one stride.
#[test]
fn fig6_n4_spilled_sweep_report_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("mpcn-fig6-n4-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ex = Explorer::new(4).limits(ExploreLimits {
        max_expansions: 2_000_000,
        max_steps: 2_000,
        ..Default::default()
    });
    let run = |ex: Explorer| ex.run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, true));
    let in_memory = run(ex.clone());
    let spilled =
        run(ex.resident_ceiling(32).checkpoint_every(3).spill_to(&dir).fixture_id("fig6 n=4 x=2"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        in_memory.stats.summary(),
        spilled.stats.summary(),
        "eviction and the storage layer must be invisible in the report"
    );
    assert_eq!(in_memory.complete, spilled.complete);
    assert_eq!(in_memory.violations, spilled.violations);
    assert_eq!(in_memory.stats.spilled, 0, "the in-memory run must not touch a disk");
    assert!(spilled.stats.evicted > 1_000, "a 32-node ceiling must evict en masse");
    assert!(spilled.stats.spilled > 0, "checkpoint layers must spill to the segment file");
    assert!(spilled.stats.store_reads > 0, "the 32-node ceiling must rehydrate from disk");
    assert!(
        spilled.stats.store_reads <= spilled.stats.evicted,
        "one disk read per evicted node: {} reads for {} evictions",
        spilled.stats.store_reads,
        spilled.stats.evicted
    );
    assert!(
        spilled.stats.max_rehydration_replay <= 3,
        "rehydration replays at most checkpoint_every decisions ({})",
        spilled.stats.max_rehydration_replay
    );
}

/// A broken invariant on the real Figure 1 object produces a violation
/// whose emitted schedule replays deterministically as a unit test
/// would: the counterexample loop promised by the explorer.
#[test]
fn fig1_violation_schedule_replays_deterministically() {
    // Deliberately false: "process 2's proposal never stabilizes first".
    let broken =
        |r: &RunReport| match r.outcomes.iter().filter_map(|o| o.decided()).find(|&v| v > 0) {
            Some(v) if v - 1 == 102 => Err("p2 stabilized first".to_string()),
            _ => Ok(()),
        };
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    let ex = Explorer::new(3).limits(limits);
    let out = ex.run(|| fig1_bodies(3, 1), broken);
    let v = out.violation().expect("the explorer must find a p2-first schedule");
    // Replay: the violating interleaving re-runs deterministically.
    let replayed = ex.replay(|| fig1_bodies(3, 1), &v.choices);
    assert!(broken(&replayed).is_err(), "replay must reproduce: {}", v.repro_snippet());
    // And twice more, to pin determinism of the replay itself.
    let again = ex.replay(|| fig1_bodies(3, 1), &v.choices);
    assert_eq!(replayed.outcomes, again.outcomes);
}

/// The reduced and reference explorations agree on the full violation
/// *set* (message multiset collapsed to a set) for an outcome-only
/// checker, not just on existence — checked on the smallest tree where
/// both reductions fire.
#[test]
fn fig1_n2_violation_sets_match_between_reduced_and_reference() {
    let broken = |r: &RunReport| {
        let decided: Vec<u64> =
            r.decided_values().into_iter().filter(|&v| v > 0).map(|v| v - 1).collect();
        match decided.first() {
            Some(&v) => Err(format!("decided {v}")),
            None => Ok(()),
        }
    };
    let collect = |reduction: Reduction| {
        let out = Explorer::new(2)
            .reduction(reduction)
            .collect_all(true)
            .limits(ExploreLimits {
                max_expansions: 200_000,
                max_steps: 1_000,
                ..Default::default()
            })
            .run(|| fig1_bodies(2, 1), broken);
        let mut msgs: Vec<String> = out.violations.iter().map(|v| v.message.clone()).collect();
        msgs.sort();
        msgs.dedup();
        msgs
    };
    let reduced = collect(Reduction::full());
    let reference = collect(Reduction::none());
    assert_eq!(reduced, reference, "reductions must preserve the violation set");
    assert!(!reference.is_empty(), "the broken checker must actually fire");
}
