//! Shared helpers for the benchmark harness, and the step-count sections
//! the benches print.
//!
//! The benches (one per paper figure/table, see `benches/` and
//! EXPERIMENTS.md) measure two kinds of quantities:
//!
//! * **wall time** of whole simulation runs under the deterministic model
//!   world (dominated by scheduler handshakes — meaningful for *relative*
//!   comparisons: who is cheaper, how cost scales with `n`, `x`, crash
//!   count);
//! * **shared-memory step counts** (exact, deterministic) — the
//!   model-level cost measure the paper's algorithms are judged by.
//!
//! Five benches print step-count lines to stderr, one [`Section`] each:
//! [`ablation`], [`fig2_3`], [`fig4`], [`fig6`] and [`section_5_4`]. Each
//! section holds its case table and the line each case prints; its bench
//! prints the lines and times the same cases. [`step_lines`] concatenates
//! the five in the order of `tests/golden/bench_steps.txt`, and the test
//! `tests/step_lines.rs` diffs it against that file.

use mpcn_core::simulator::{kinds, run_colorless, SimRun, SimulationSpec};
use mpcn_model::combinatorics::binomial;
use mpcn_model::equivalence::class_partition;
use mpcn_model::ModelParams;
use mpcn_runtime::sched::Schedule;
use mpcn_runtime::{Env, ModelWorld};
use mpcn_tasks::{algorithms, SourceAlgorithm};

/// Teardown leak gate for benches built on the epoch-reclaiming substrate:
/// asserts that every allocation retired through `crossbeam::epoch` during
/// the run has been reclaimed. Called from the custom `main` of
/// `atomics_primitives` and `thread_world_sweep` after all benchmark bodies
/// (and their worker threads) have finished, when the process is quiescent
/// — any remaining deferred garbage would be a reclamation leak.
pub fn assert_epoch_drained() {
    assert!(
        crossbeam::epoch::drain_pending(10_000),
        "epoch leak gate: {} deferred allocations survived a quiescent drain",
        crossbeam::epoch::pending_reclaims()
    );
}

/// Builds per-process `Env` handles over a fresh free-mode world (no
/// scheduler: every op executes immediately) — the cheap way to measure
/// pure operation counts of agreement protocols.
pub fn free_envs(n: usize) -> Vec<Env<ModelWorld>> {
    let w = ModelWorld::new_free(n);
    (0..n).map(|p| Env::new(w.clone(), p)).collect()
}

/// Distinct inputs `100, 101, …` for `n` processes.
pub fn inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

/// Runs one colorless simulation and returns `(steps, decided)` — the
/// deterministic cost/outcome pair used by the step-count benches.
///
/// # Panics
///
/// Panics if the simulation violates liveness (these benches only run
/// sound parameter choices).
pub fn run_and_count(alg: &SourceAlgorithm, target: ModelParams, seed: u64) -> (u64, usize) {
    let spec = SimulationSpec::new(alg.clone(), target).expect("valid spec");
    let run = SimRun { schedule: Schedule::RandomSeed(seed), ..SimRun::default() };
    let report = run_colorless(&spec, &inputs(target.n() as usize), &run);
    assert!(report.all_correct_decided(), "benchmarked runs must be live");
    (report.steps, report.decided_values().len())
}

/// One section of `tests/golden/bench_steps.txt`: the deterministic lines
/// a step-count bench prints, and the cases it times.
pub struct Section<C> {
    /// The section's lines, in file order.
    pub lines: Vec<String>,
    /// `(benchmark id, case)` for every case the bench times.
    pub cases: Vec<(String, C)>,
}

impl<C> Section<C> {
    fn new() -> Self {
        Section { lines: Vec::new(), cases: Vec::new() }
    }

    fn push(&mut self, id: impl ToString, case: C, line: String) {
        self.cases.push((id.to_string(), case));
        self.lines.push(line);
    }
}

/// The ablation: where one seed-1 run of each simulation spends its
/// shared-memory steps — the simulated algorithm's own memory, the
/// input-agreement stage, the per-snapshot agreements and the
/// consensus-object agreements. Cases: a read/write source under a
/// read/write target and under an `x = 2` target, and an x-consensus
/// source under a read/write target, each with inputs `1..=n`.
pub fn ablation() -> Section<(SimulationSpec, Vec<u64>)> {
    let mut section = Section::new();
    let cases = [
        ("rw_source_rw_target", algorithms::kset_read_write(5, 2), ModelParams::new(5, 2, 1)),
        ("rw_source_x2_target", algorithms::kset_read_write(5, 2), ModelParams::new(5, 4, 2)),
        (
            "xcons_source_rw_target",
            algorithms::group_xcons_then_min(6, 4, 2),
            ModelParams::new(6, 2, 1),
        ),
    ];
    for (label, alg, target) in cases {
        let alg = alg.expect("valid");
        let inputs: Vec<u64> = (1..=u64::from(alg.model().n())).collect();
        let spec = SimulationSpec::new(alg, target.expect("valid")).expect("valid");
        let report = run_colorless(&spec, &inputs, &SimRun::seeded(1));
        assert!(report.all_correct_decided());
        let on = |base: u32| -> u64 { (0..4).map(|d| report.ops_on_kind(base + d)).sum() };
        let line = format!(
            "ablation[{label}]: total={} MEM={} input_ag={} snap_ag={} xcons_ag={}",
            report.steps,
            report.ops_on_kind(kinds::MEM),
            on(kinds::INPUT_AG_BASE),
            on(kinds::SNAP_AG_BASE),
            on(kinds::XCONS_AG_BASE),
        );
        section.push(label, (spec, inputs), line);
    }
    section
}

/// Figures 2–3: the classic BG configuration — a read/write
/// `(t+1)`-set algorithm for `ASM(n, t, 1)` run by `t + 1` wait-free
/// simulators — at three sizes, seed 1.
pub fn fig2_3() -> Section<(SourceAlgorithm, ModelParams)> {
    let mut section = Section::new();
    for (n, t) in [(3u32, 1u32), (5, 2), (7, 3)] {
        let alg = algorithms::kset_read_write(n, t).expect("valid params");
        let target = ModelParams::new(t + 1, t, 1).expect("valid params");
        let (steps, decided) = run_and_count(&alg, target, 1);
        let line = format!("fig2_3: n={n} t={t} -> {steps} steps, {decided} simulator decisions");
        section.push(format!("n{n}_t{t}"), (alg, target), line);
    }
    section
}

/// Figure 4: `group-xcons-then-min` for `ASM(6, 4, x)` run in its
/// canonical read/write form `ASM(6, ⌊4/x⌋, 1)`, for `x ∈ {1, 2, 4}`,
/// seed 1.
pub fn fig4() -> Section<(SourceAlgorithm, ModelParams)> {
    let mut section = Section::new();
    let (n, t_prime) = (6u32, 4u32);
    for x in [1u32, 2, 4] {
        let alg = algorithms::group_xcons_then_min(n, t_prime, x).expect("valid params");
        let target = ModelParams::new(n, t_prime / x, 1).expect("valid params");
        let (steps, _) = run_and_count(&alg, target, 1);
        let line = format!("fig4: n={n} t'={t_prime} x={x} -> {steps} steps in {target}");
        section.push(x, (alg, target), line);
    }
    section
}

/// Figure 6: the `SET_LIST` walk of `x_sa_propose` at `n = 10` — the list
/// holds all `C(n, x)` size-`x` subsets, and an owner proposes on the
/// `C(n−1, x−1)` that contain it. Cases are `(n, x)`.
pub fn fig6() -> Section<(usize, u32)> {
    let mut section = Section::new();
    let n = 10usize;
    for x in [1u32, 2, 3, 5, 7] {
        let m = binomial(n as u64, u64::from(x));
        let touched = binomial(n as u64 - 1, u64::from(x) - 1);
        let line =
            format!("fig6: n={n} x={x}: SET_LIST length m={m}, owner touches {touched} objects");
        section.push(x, (n, x), line);
    }
    section
}

/// Section 5.4: the paper's worked partition of `ASM(n, 8, x)`,
/// `x ∈ 1..=12`, into equivalence classes — a header line, then one line
/// per class. One case, `(t', x_max) = (8, 12)`.
pub fn section_5_4() -> Section<(u32, u32)> {
    let (t_prime, x_max) = (8u32, 12u32);
    let mut lines = vec![format!("Section 5.4 partition for t' = {t_prime}, x in 1..={x_max}:")];
    lines.extend(class_partition(t_prime, x_max).iter().map(|row| {
        format!(
            "  ASM(n, {t_prime}, x) for x in [{}, {}]  ~  ASM(n, {}, 1)",
            row.x_min, row.x_max, row.class
        )
    }));
    Section { lines, cases: vec![(format!("class_partition_t{t_prime}"), (t_prime, x_max))] }
}

/// Every step-count line the benches print, in the order of
/// `tests/golden/bench_steps.txt`.
pub fn step_lines() -> Vec<String> {
    [ablation().lines, fig2_3().lines, fig4().lines, fig6().lines, section_5_4().lines].concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_and_count_is_deterministic() {
        let alg = algorithms::kset_read_write(4, 1).unwrap();
        let target = ModelParams::new(4, 1, 1).unwrap();
        assert_eq!(run_and_count(&alg, target, 3), run_and_count(&alg, target, 3));
    }

    #[test]
    fn helpers_shapes() {
        assert_eq!(inputs(3), vec![100, 101, 102]);
        assert_eq!(free_envs(2).len(), 2);
    }
}
