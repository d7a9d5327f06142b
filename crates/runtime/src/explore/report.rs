//! Exploration results: statistics, violations, and replay helpers.
//!
//! Everything in this module is **deterministic**: the same program,
//! limits, and reduction settings produce byte-identical
//! [`ExploreStats::summary`] strings on every run, machine, and
//! optimization level — the property the golden catalogue tests diff.

use crate::sched::Schedule;

/// Coverage and reduction statistics of one exploration.
///
/// "States" are schedule-tree nodes keyed by their global-state
/// fingerprint (see [`crate::model_world::Snapshot::fingerprint`]).
/// Without pruning every expansion reaches a distinct tree node, so the
/// pruned/unpruned `states_visited` values are directly comparable:
/// their difference is the work the reductions avoided.
///
/// All fields are exact and deterministic for any fixed configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreStats {
    /// Completed (terminal, timed-out, or depth-bounded) runs checked.
    pub runs: u64,
    /// Scheduling expansions: one resumed decision or one depth-bounded
    /// completion run each — the exploration's unit of work. Counts
    /// every queued choice (and tail) of each layer the sweep started:
    /// when a violation or the budget stops a sweep part-way through a
    /// layer, the layer's remaining jobs are charged without running.
    /// [`super::ExploreLimits::max_expansions`] is charged when a choice
    /// is *queued*, so an early stop can leave this count short of the
    /// budget by the next layer's jobs, which never start; for completed
    /// sweeps queued == counted.
    pub expansions: u64,
    /// Distinct states visited (child snapshots retained on the
    /// frontier).
    pub states_visited: u64,
    /// Expansions that reached an already-visited state (each cuts the
    /// entire subtree below it).
    pub states_pruned: u64,
    /// Sibling subtrees skipped — before execution — by the DPOR
    /// commutation rule: adjacent pure reads, operations on disjoint
    /// objects, snapshot writes to disjoint cells, and crash
    /// commutations, explored in canonical pid order only
    /// ([`super::Reduction::dpor`]).
    pub dpor_skips: u64,
    /// Pruned expansions whose state identity was coarsened by the
    /// observation quotient (the raw fingerprint differed from the
    /// quotiented one): merges only the observation abstraction
    /// achieves ([`super::Reduction::quotient_obs`]).
    pub quotient_hits: u64,
    /// Pruned expansions whose canonical pid permutation was
    /// nontrivial: merges only the process-identity symmetry quotient
    /// achieves ([`super::Reduction::symmetry`]).
    pub symm_hits: u64,
    /// The symmetry quotient was active for this sweep: the reduction
    /// flag was on, the program declared a [`crate::model_world::Symmetry`]
    /// spec, the adversary was pid-blind ([`crate::sched::Crashes::None`]
    /// or [`crate::sched::Crashes::UpTo`]), and the memory model was
    /// sequentially consistent. [`ExploreStats::summary`] prints
    /// `symm=off` otherwise, and a resumed sweep must agree with it
    /// (the visited set lives in one state space).
    pub symm_enabled: bool,
    /// Crash-branch expansions executed: crash-band scheduling decisions
    /// of the crash-count adversary [`crate::sched::Crashes::UpTo`], one
    /// per explored branch. Crashes a plan delivers instead of a step
    /// ([`crate::sched::Crashes::AtOwnStep`]) are not branches and are
    /// not counted.
    pub crash_branches: u64,
    /// Flush-branch expansions executed under the TSO memory model
    /// ([`super::Explorer::tso`]): scheduling decisions that drained one
    /// store-buffer head to shared memory (one per explored flush-band
    /// branch). Always `0` under sequential consistency.
    pub flush_branches: u64,
    /// Frontier nodes of a spilled sweep evicted down to their choice
    /// path and anchor by [`super::Explorer::resident_ceiling`] and
    /// rehydrated on demand; always `0` in memory, where nothing is
    /// evicted. Deliberately **not** part of [`ExploreStats::summary`]:
    /// the ceiling is a memory policy, not a search-shape parameter, and
    /// bounded and unbounded runs must print byte-identical lines.
    pub evicted: u64,
    /// Longest choice-path suffix any single rehydration replayed —
    /// bounded by [`super::Explorer::checkpoint_every`] (every node
    /// anchors to its nearest checkpointed ancestor's segment-file
    /// record), and `0` when nothing was evicted. Like
    /// [`ExploreStats::evicted`], a memory-policy observable excluded
    /// from [`ExploreStats::summary`].
    pub max_rehydration_replay: u64,
    /// Checkpoint snapshots serialized to the sweep directory's segment
    /// file by a spilled sweep ([`super::Explorer::spill_to`]); `0` for
    /// an in-memory sweep. A storage-policy observable
    /// excluded from [`ExploreStats::summary`], like
    /// [`ExploreStats::evicted`]: spilled and in-memory sweeps must
    /// print byte-identical lines.
    pub spilled: u64,
    /// Total encoded snapshot bytes appended to the segment file —
    /// the sweep's bulk-storage footprint. Excluded from
    /// [`ExploreStats::summary`].
    pub spill_bytes: u64,
    /// Checkpoint records read back and decoded from the segment file
    /// to rehydrate evicted nodes: one per job that runs on an evicted
    /// node, whatever the number of choices queued on it. So a sweep
    /// that is not resumed reads at most [`ExploreStats::evicted`]
    /// records. Excluded from [`ExploreStats::summary`].
    pub store_reads: u64,
    /// Deepest completed run (in picks) seen.
    pub max_depth: usize,
    /// Depth-bounded completion runs: frontier nodes at
    /// [`super::ExploreLimits::max_depth`] resumed to completion along
    /// the canonical choice-0 suffix instead of branching.
    pub depth_limited_runs: u64,
    /// `branching_histogram[d]` counts expanded (interior) tree nodes
    /// that had exactly `d` schedulable actions: alive processes, plus
    /// non-empty store buffers under TSO — so the index runs `0 ..= n`
    /// under sequential consistency and up to `2n` under TSO.
    pub branching_histogram: Vec<u64>,
}

impl ExploreStats {
    pub(super) fn new(n: usize) -> Self {
        ExploreStats {
            runs: 0,
            expansions: 0,
            states_visited: 0,
            states_pruned: 0,
            dpor_skips: 0,
            quotient_hits: 0,
            symm_hits: 0,
            symm_enabled: false,
            crash_branches: 0,
            flush_branches: 0,
            evicted: 0,
            max_rehydration_replay: 0,
            spilled: 0,
            spill_bytes: 0,
            store_reads: 0,
            max_depth: 0,
            depth_limited_runs: 0,
            branching_histogram: vec![0; n + 1],
        }
    }

    /// One deterministic `key=value` line (no timing, no pointers), fit
    /// for golden files. Every sweep prints
    /// every field in one fixed order; `symm=` reads `off` whenever the
    /// symmetry quotient was inactive ([`ExploreStats::symm_enabled`]),
    /// so "quotient inactive" stays distinguishable from "zero hits".
    pub fn summary(&self) -> String {
        let hist =
            self.branching_histogram.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let symm = if self.symm_enabled { self.symm_hits.to_string() } else { "off".to_string() };
        format!(
            "runs={} expansions={} visited={} pruned={} dpor={} qhits={} symm={symm} \
             crashes={} flushes={} max_depth={} depth_limited={} branching=[{hist}]",
            self.runs,
            self.expansions,
            self.states_visited,
            self.states_pruned,
            self.dpor_skips,
            self.quotient_hits,
            self.crash_branches,
            self.flush_branches,
            self.max_depth,
            self.depth_limited_runs,
        )
    }
}

/// A safety violation found by the explorer, together with the exact
/// schedule prefix that reproduces it deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The choice vector of the violating run: replay it with the
    /// explorer that found it ([`super::Explorer::replay`]).
    pub choices: Vec<usize>,
    /// The checker's message.
    pub message: String,
}

impl Violation {
    /// The schedule that re-runs the violating interleaving.
    pub fn schedule(&self) -> Schedule {
        Schedule::Indexed { choices: self.choices.clone() }
    }

    /// A copy-pasteable reproduction expression for a unit test.
    pub fn repro_snippet(&self) -> String {
        format!("Schedule::Indexed {{ choices: vec!{:?} }}", self.choices)
    }
}

/// Result of an exploration ([`super::Explorer::run`]).
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Coverage and reduction statistics.
    pub stats: ExploreStats,
    /// `true` iff the schedule tree was exhausted within every limit: no
    /// run budget exhaustion, no depth truncation, no early stop at a
    /// violation. With reductions enabled, "exhausted" means every
    /// reachable state was covered by a retained representative.
    pub complete: bool,
    /// Violations found, in discovery order (at most one unless
    /// [`super::Explorer::collect_all`] was set).
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Number of completed runs checked.
    pub fn runs(&self) -> u64 {
        self.stats.runs
    }

    /// The first violation found, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Panics with a reproduction recipe if a violation was found.
    ///
    /// # Panics
    ///
    /// If any violation was recorded.
    pub fn assert_no_violation(&self) {
        if let Some(v) = self.violations.first() {
            panic!(
                "exploration found a violating schedule: {}\n  reproduce with {}",
                v.message,
                v.repro_snippet()
            );
        }
    }

    /// One deterministic summary line: `label: <stats> complete=<..>
    /// violations=<count>` — the format the `explore_sweep` bench prints
    /// to stderr and `tests/golden/explore_catalogue.txt` pins.
    pub fn summary_line(&self, label: &str) -> String {
        format!(
            "explore: {label} {} complete={} violations={}",
            self.stats.summary(),
            self.complete,
            self.violations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_stable_and_complete() {
        let mut stats = ExploreStats::new(2);
        stats.runs = 6;
        stats.expansions = 14;
        stats.states_visited = 12;
        stats.dpor_skips = 3;
        stats.quotient_hits = 2;
        stats.crash_branches = 5;
        stats.flush_branches = 11;
        stats.evicted = 5;
        stats.spilled = 9;
        stats.spill_bytes = 4096;
        stats.store_reads = 3;
        stats.max_depth = 4;
        stats.branching_histogram = vec![0, 4, 8];
        // Every field prints, in one order; the storage counters stay
        // off the line.
        assert_eq!(
            stats.summary(),
            "runs=6 expansions=14 visited=12 pruned=0 dpor=3 qhits=2 symm=off crashes=5 \
             flushes=11 max_depth=4 depth_limited=0 branching=[0,4,8]"
        );
        // A nonzero symm_hits stays hidden behind `symm=off` while the
        // quotient is inactive; enabling it prints the count in place.
        stats.symm_hits = 7;
        assert!(stats.summary().contains(" symm=off "));
        stats.symm_enabled = true;
        assert_eq!(
            stats.summary(),
            "runs=6 expansions=14 visited=12 pruned=0 dpor=3 qhits=2 symm=7 crashes=5 \
             flushes=11 max_depth=4 depth_limited=0 branching=[0,4,8]"
        );
    }

    #[test]
    fn violation_repro_snippet_quotes_choices() {
        let v = Violation { choices: vec![1, 0, 2], message: "two winners".into() };
        assert_eq!(v.repro_snippet(), "Schedule::Indexed { choices: vec![1, 0, 2] }");
        assert_eq!(v.schedule(), Schedule::Indexed { choices: vec![1, 0, 2] });
    }

    #[test]
    #[should_panic(expected = "reproduce with Schedule::Indexed")]
    fn assert_no_violation_panics_with_recipe() {
        let report = ExploreReport {
            stats: ExploreStats::new(2),
            complete: false,
            violations: vec![Violation { choices: vec![0], message: "boom".into() }],
        };
        report.assert_no_violation();
    }
}
