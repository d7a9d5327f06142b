//! The general simulation: `n'` simulators in the *target* model execute an
//! algorithm designed for the *source* model.
//!
//! Structure of one simulator `q_i` (paper Section 2.4 + Figures 2–6):
//!
//! * it holds a private copy of **all** `n` simulated programs and advances
//!   them round-robin, one *micro-move* each;
//! * `sim_write` (Figure 2): bump the per-process sequence number, update
//!   the local copy `mem_i`, publish `mem_i` into the shared snapshot
//!   object `MEM[i]` — one shared step;
//! * `sim_snapshot` (Figure 3): snapshot `MEM`, build the *input* vector
//!   from the most advanced simulator per simulated process, propose it to
//!   the agreement object `SAFE_AG[j, snapsn]`, then poll for its decision
//!   on later micro-moves;
//! * `sim_x_cons_propose` (Figure 4): first invocation per simulated
//!   object `a` proposes to `XSAFE_AG[a]` and polls; the decided value is
//!   cached locally (`xres_i[a]`) so the other ports of `a` simulated by
//!   this simulator reuse it — the role of the paper's `mutex2`;
//! * the paper's `mutex1` (at most one outstanding agreement `propose` per
//!   simulator) holds structurally: a micro-move runs its whole `propose`
//!   sequence before returning (a *crash* can still land inside it — that
//!   is the failure mode the object types are designed around);
//! * **colorless decision**: the simulator returns the first value any of
//!   its simulated processes decides (any process's value may be adopted).
//!
//! The agreement family is chosen by the target model's consensus number:
//! `x' = 1` → Figure 1 safe agreement, `x' > 1` → Figures 5–6
//! x-safe-agreement.

use std::collections::HashMap;
use std::sync::Arc;

use mpcn_agreement::{pack_inst, Agreement, AgreementKind};
use mpcn_model::ModelParams;
use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig, RunReport};
use mpcn_runtime::program::{BoxedProcess, SimOp, SimResponse, SimStep};
use mpcn_runtime::sched::{Crashes, Schedule};
use mpcn_runtime::world::{Env, ObjKey};
use mpcn_tasks::SourceAlgorithm;

/// Object-kind namespaces used by the simulation.
pub mod kinds {
    /// Snapshot-agreement objects `SAFE_AG[j, snapsn]` (4 kinds).
    pub const SNAP_AG_BASE: u32 = 700;
    /// Consensus-object agreement `XSAFE_AG[a]` (4 kinds).
    pub const XCONS_AG_BASE: u32 = 710;
    /// The shared snapshot memory `MEM[1..n']`.
    pub const MEM: u32 = 720;
    /// Decision-distribution test&set objects for colored tasks (Fig. 8).
    pub const COLOR_TAS: u32 = 730;
    /// Input-agreement objects `INPUT_AG[j]` (4 kinds): the simulators
    /// agree on each simulated process's proposal, each proposing its own
    /// task input. Without this step the simulators would share common
    /// knowledge of all inputs, which would trivialize agreement tasks and
    /// break the reduction semantics.
    pub const INPUT_AG_BASE: u32 = 740;
}

/// The simulators' view of the simulated memory: per simulated process the
/// last written value and its sequence number (`sn = 0` encodes `⊥`).
type MemArray = Arc<Vec<(u64, u64)>>;

/// Error constructing a [`SimulationSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The algorithm's layout needs consensus number `x` but some simulated
    /// object has more ports than the source model's `x` (checked upstream
    /// by [`SourceAlgorithm`]; kept for completeness).
    LayoutTooWide,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::LayoutTooWide => write!(f, "layout wider than the source model's x"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A simulation instance: an algorithm for the source model, to be executed
/// by the processes of the target model.
#[derive(Debug, Clone)]
pub struct SimulationSpec {
    algorithm: SourceAlgorithm,
    target: ModelParams,
}

impl SimulationSpec {
    /// Pairs a source algorithm with a target model.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::LayoutTooWide`] if the algorithm's object
    /// layout exceeds its own model's consensus number (defensive; normally
    /// unreachable).
    pub fn new(algorithm: SourceAlgorithm, target: ModelParams) -> Result<Self, SpecError> {
        if algorithm.layout().required_x() > algorithm.model().x() {
            return Err(SpecError::LayoutTooWide);
        }
        Ok(SimulationSpec { algorithm, target })
    }

    /// The source algorithm.
    pub fn algorithm(&self) -> &SourceAlgorithm {
        &self.algorithm
    }

    /// The target model the simulators run in.
    pub fn target(&self) -> ModelParams {
        self.target
    }

    /// The agreement family induced by the target model (`x' = 1` →
    /// Figure 1, `x' > 1` → Figures 5–6).
    pub fn agreement_kind(&self) -> AgreementKind {
        AgreementKind::for_x(self.target.x())
    }

    /// Worst-case number of simulated processes the target adversary can
    /// block forever: `x · ⌊t'/x'⌋` (Sections 3.3, 4.4, 5.5).
    ///
    /// Each batch of `x'` crashes inside one agreement `propose` kills one
    /// agreement object; a dead snapshot-agreement blocks 1 simulated
    /// process, a dead consensus-object agreement blocks its ≤ `x` ports.
    pub fn blocked_bound(&self) -> u32 {
        let per_object =
            if self.algorithm.layout().is_empty() { 1 } else { self.algorithm.model().x() };
        per_object * self.target.class()
    }

    /// The paper's soundness condition: the simulation preserves the
    /// algorithm's guarantees iff the source algorithm tolerates every
    /// blocked simulated process, i.e. `x·⌊t'/x'⌋ ≤ t`, equivalently
    /// `⌊t/x⌋ ≥ ⌊t'/x'⌋` (Theorem 1 for `x' = 1`, Theorem 3 for `x = 1`,
    /// Section 5.5 in general).
    pub fn is_sound(&self) -> bool {
        self.algorithm.model().x() * self.target.class() <= self.algorithm.model().t()
    }
}

/// Run-control for a simulation: scheduling and crash injection applied to
/// the **simulators** (the target model's processes).
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Scheduler for the target world.
    pub schedule: Schedule,
    /// Crash adversary for the simulators (must respect the target's `t'`
    /// for the soundness guarantees to apply).
    pub crashes: Crashes,
    /// Step budget; exhausted budget reports survivors as undecided.
    pub max_steps: u64,
}

impl SimRun {
    /// Seeded random schedule, no crashes.
    pub fn seeded(seed: u64) -> Self {
        SimRun {
            schedule: Schedule::RandomSeed(seed),
            crashes: Crashes::None,
            max_steps: 2_000_000,
        }
    }

    /// Replaces the crash adversary.
    pub fn crashes(mut self, c: Crashes) -> Self {
        self.crashes = c;
        self
    }

    /// Replaces the step budget.
    pub fn max_steps(mut self, m: u64) -> Self {
        self.max_steps = m;
        self
    }
}

impl Default for SimRun {
    fn default() -> Self {
        SimRun::seeded(0xBEEF)
    }
}

/// Executes the colorless simulation: the target model's `n'` processes —
/// each knowing only **its own** task input `inputs[i]` — jointly simulate
/// the `n` source processes and decide the first simulated decision they
/// obtain.
///
/// `inputs` is indexed by **simulator** pid (`inputs.len() == target.n()`).
/// The simulated processes' proposals are fixed at run time by the
/// input-agreement objects (each simulator proposes its own input), so
/// every simulated proposal is some simulator's input and colorless-task
/// validity transfers: validate the returned report against `inputs`.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the target model's `n'`.
pub fn run_colorless(spec: &SimulationSpec, inputs: &[u64], run: &SimRun) -> RunReport {
    run_simulation(spec, inputs, run, false)
}

pub(crate) fn run_simulation(
    spec: &SimulationSpec,
    inputs: &[u64],
    run: &SimRun,
    colored: bool,
) -> RunReport {
    let n_targets = spec.target.n() as usize;
    assert_eq!(inputs.len(), n_targets, "one input per simulator (target process) required");
    let cfg = RunConfig::new(n_targets)
        .schedule(run.schedule.clone())
        .crashes(run.crashes.clone())
        .max_steps(run.max_steps);
    let bodies: Vec<Body> = (0..n_targets)
        .map(|qi| {
            let algorithm = spec.algorithm.clone();
            let ag_kind = spec.agreement_kind();
            let own_input = inputs[qi];
            Box::new(move |env: Env<ModelWorld>| {
                Simulator::new(env, n_targets, algorithm, own_input, ag_kind, colored).run()
            }) as Body
        })
        .collect();
    ModelWorld::run(cfg, bodies)
}

/// Per-simulated-process progress inside one simulator.
enum Status {
    /// Input not yet agreed; program not yet built.
    Fresh,
    /// Input proposed, waiting for the input agreement to stabilize.
    WaitInput,
    /// Waiting for the agreement on snapshot `snapsn` of this process.
    WaitSnapshot { snapsn: u32 },
    /// Waiting for the agreement on simulated consensus object `a`.
    WaitXCons { a: usize },
    /// The simulated process decided this value.
    Decided(u64),
    /// Colored mode: decided, but another simulator claimed the value.
    Claimed,
}

/// One simulator `q_i`.
pub(crate) struct Simulator {
    env: Env,
    n_sim: usize,
    n_simulators: usize,
    algorithm: SourceAlgorithm,
    /// This simulator's own task input — its proposal for every simulated
    /// process's input agreement.
    own_input: u64,
    ag_kind: AgreementKind,
    colored: bool,
    /// Program of each simulated process, built once its input is agreed.
    programs: Vec<Option<BoxedProcess>>,
    status: Vec<Status>,
    /// `mem_i`: this simulator's copy of the simulated memory.
    mem: Vec<(u64, u64)>,
    /// `w_sn_i[j]`: writes simulated so far for each process.
    w_sn: Vec<u64>,
    /// `snap_sn_i[j]`: snapshots simulated so far for each process.
    snap_sn: Vec<u32>,
    /// `xres_i[a]`: locally known decisions of simulated consensus objects.
    xres: HashMap<usize, u64>,
    /// Simulated objects this simulator has already proposed for (enforces
    /// the one-shot discipline of `XSAFE_AG[a]`, the role of `mutex2`).
    proposed_x: Vec<bool>,
}

impl Simulator {
    /// Builds simulator `env.pid()` of a group of `n_simulators`, which
    /// will simulate all processes of `algorithm`'s model, proposing
    /// `own_input` to every input agreement.
    pub(crate) fn new(
        env: Env,
        n_simulators: usize,
        algorithm: SourceAlgorithm,
        own_input: u64,
        ag_kind: AgreementKind,
        colored: bool,
    ) -> Self {
        assert!(n_simulators > 0, "at least one simulator required");
        let n_sim = algorithm.model().n() as usize;
        let proposed_x = vec![false; algorithm.layout().len().max(1)];
        Simulator {
            n_sim,
            n_simulators,
            own_input,
            ag_kind,
            colored,
            status: (0..n_sim).map(|_| Status::Fresh).collect(),
            programs: (0..n_sim).map(|_| None).collect(),
            mem: vec![(0, 0); n_sim],
            w_sn: vec![0; n_sim],
            snap_sn: vec![0; n_sim],
            xres: HashMap::new(),
            proposed_x,
            algorithm,
            env,
        }
    }

    fn mem_key(&self) -> ObjKey {
        ObjKey::new(kinds::MEM, 0, 0)
    }

    fn input_agreement(&self, j: usize) -> Agreement {
        Agreement::new(self.ag_kind, kinds::INPUT_AG_BASE, j as u64, self.n_simulators)
    }

    fn snap_agreement(&self, j: usize, snapsn: u32) -> Agreement {
        Agreement::new(
            self.ag_kind,
            kinds::SNAP_AG_BASE,
            pack_inst(j as u32, snapsn),
            self.n_simulators,
        )
    }

    fn xcons_agreement(&self, a: usize) -> Agreement {
        Agreement::new(self.ag_kind, kinds::XCONS_AG_BASE, a as u64, self.n_simulators)
    }

    /// Runs the simulator to its (colorless or colored) decision.
    pub(crate) fn run(mut self) -> u64 {
        loop {
            for j in 0..self.n_sim {
                self.advance(j);
                if let Status::Decided(v) = self.status[j] {
                    if !self.colored {
                        return v;
                    }
                    // Fig. 8 decision distribution: claim p_j's value with
                    // the shared test&set; on loss keep simulating the
                    // others.
                    if self.env.tas(ObjKey::new(kinds::COLOR_TAS, j as u64, 0)) {
                        return v;
                    }
                    self.status[j] = Status::Claimed;
                }
            }
        }
    }

    /// One micro-move of simulated process `j`: resolve a pending wait or
    /// run the program until it parks on an agreement (or decides).
    fn advance(&mut self, j: usize) {
        // Resolve pending waits first (one poll each — one shared step).
        let step = match &self.status[j] {
            Status::Decided(_) | Status::Claimed => return,
            Status::Fresh => {
                // Agree on p_j's input: every simulator proposes its own.
                self.input_agreement(j).propose(&self.env, self.own_input);
                self.status[j] = Status::WaitInput;
                return;
            }
            Status::WaitInput => {
                let ag = self.input_agreement(j);
                match ag.try_decide::<u64>(&self.env) {
                    None => return,
                    Some(input_j) => {
                        self.programs[j] = Some(self.algorithm.program(j, input_j));
                        self.program(j).begin()
                    }
                }
            }
            Status::WaitSnapshot { snapsn } => {
                let ag = self.snap_agreement(j, *snapsn);
                match ag.try_decide::<MemArray>(&self.env) {
                    None => return, // still unstable; try again later
                    Some(input) => {
                        let view =
                            input.iter().map(|&(v, sn)| (sn > 0).then_some(v)).collect::<Vec<_>>();
                        self.program(j).on_response(SimResponse::Snapshot(view))
                    }
                }
            }
            Status::WaitXCons { a } => {
                let a = *a;
                let ag = self.xcons_agreement(a);
                match ag.try_decide::<u64>(&self.env) {
                    None => return,
                    Some(v) => {
                        self.xres.insert(a, v);
                        self.program(j).on_response(SimResponse::XConsDecided(v))
                    }
                }
            }
        };
        self.dispatch(j, step);
    }

    /// The (already built) program of simulated process `j`.
    fn program(&mut self, j: usize) -> &mut BoxedProcess {
        self.programs[j].as_mut().expect("program built after input agreement")
    }

    /// Executes program steps until `j` parks or decides. Writes complete
    /// synchronously; snapshots and consensus proposals park.
    fn dispatch(&mut self, j: usize, mut step: SimStep) {
        loop {
            match step {
                SimStep::Decide(v) => {
                    self.status[j] = Status::Decided(v);
                    return;
                }
                SimStep::Invoke(SimOp::Write(v)) => {
                    // Figure 2: one shared write of the full local copy.
                    self.w_sn[j] += 1;
                    self.mem[j] = (v, self.w_sn[j]);
                    let i = self.env.pid();
                    self.env.snap_write(
                        self.mem_key(),
                        self.n_simulators,
                        i,
                        Arc::new(self.mem.clone()) as MemArray,
                    );
                    step = self.program(j).on_response(SimResponse::WriteAck);
                }
                SimStep::Invoke(SimOp::Snapshot) => {
                    // Figure 3 lines 01-05: snapshot MEM, build the input
                    // from the most advanced simulator per process, propose.
                    let smi = self.env.snap_scan::<MemArray>(self.mem_key(), self.n_simulators);
                    let input = self.build_input(&smi);
                    self.snap_sn[j] += 1;
                    let snapsn = self.snap_sn[j];
                    let ag = self.snap_agreement(j, snapsn);
                    ag.propose(&self.env, input);
                    self.status[j] = Status::WaitSnapshot { snapsn };
                    return;
                }
                SimStep::Invoke(SimOp::XConsPropose { obj: a, value: v }) => {
                    // Figure 4: reuse the locally known decision if any
                    // (mutex2's role); otherwise propose once and park.
                    if let Some(&r) = self.xres.get(&a) {
                        step = self.program(j).on_response(SimResponse::XConsDecided(r));
                        continue;
                    }
                    debug_assert!(
                        self.algorithm.layout().ports(a).contains(&j),
                        "simulated process {j} is not a port of x_cons[{a}]"
                    );
                    if !self.proposed_x[a] {
                        self.proposed_x[a] = true;
                        self.xcons_agreement(a).propose(&self.env, v);
                    }
                    self.status[j] = Status::WaitXCons { a };
                    return;
                }
            }
        }
    }

    /// Figure 3 lines 02–03: for each simulated process `y`, take the value
    /// written by the most advanced simulator.
    fn build_input(&self, smi: &[Option<MemArray>]) -> MemArray {
        let mut input = vec![(0u64, 0u64); self.n_sim];
        for cell in smi.iter().flatten() {
            for (y, &(v, sn)) in cell.iter().enumerate() {
                if sn > input[y].1 {
                    input[y] = (v, sn);
                }
            }
        }
        Arc::new(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_tasks::{algorithms, TaskKind};

    fn spec(alg: SourceAlgorithm, n2: u32, t2: u32, x2: u32) -> SimulationSpec {
        SimulationSpec::new(alg, ModelParams::new(n2, t2, x2).unwrap()).unwrap()
    }

    #[test]
    fn soundness_condition_matches_floor_inequality() {
        // source ASM(5,2,1): class 2.
        let alg = algorithms::kset_read_write(5, 2).unwrap();
        assert!(spec(alg.clone(), 5, 2, 1).is_sound(), "same class");
        assert!(spec(alg.clone(), 6, 5, 2).is_sound(), "⌊5/2⌋ = 2");
        assert!(spec(alg.clone(), 6, 1, 1).is_sound(), "weaker adversary");
        assert!(!spec(alg.clone(), 6, 3, 1).is_sound(), "class 3 > 2");
        assert!(!spec(alg, 8, 6, 2).is_sound(), "⌊6/2⌋ = 3 > 2");
    }

    #[test]
    fn blocked_bound_accounts_for_source_ports() {
        // Source with x = 2 objects: each dead agreement blocks 2 processes.
        let alg = algorithms::group_xcons_then_min(6, 4, 2).unwrap();
        let s = spec(alg, 6, 2, 1); // target class 2
        assert_eq!(s.blocked_bound(), 4);
        assert!(s.is_sound(), "4 ≤ t = 4");
    }

    #[test]
    fn agreement_kind_follows_target_x() {
        let alg = algorithms::kset_read_write(4, 1).unwrap();
        assert_eq!(spec(alg.clone(), 4, 1, 1).agreement_kind(), AgreementKind::Safe);
        assert_eq!(spec(alg, 4, 3, 3).agreement_kind(), AgreementKind::XSafe { x: 3 });
    }

    #[test]
    fn bg_classic_no_crashes() {
        // BG simulation: ASM(4,1,1) algorithm in ASM(2,1,1); the two
        // simulators hold the only two task inputs.
        let alg = algorithms::kset_read_write(4, 1).unwrap();
        let s = spec(alg, 2, 1, 1);
        assert!(s.is_sound());
        let inputs = [10, 20];
        for seed in 0..30 {
            let report = run_colorless(&s, &inputs, &SimRun::seeded(seed));
            assert!(report.all_correct_decided(), "seed {seed}");
            TaskKind::KSet(2).validate(&inputs, &report.outcomes).unwrap();
        }
    }

    #[test]
    fn trivial_task_simulates_everywhere() {
        let alg = algorithms::trivial(3).unwrap();
        let s = spec(alg, 5, 4, 2);
        let inputs = [7, 8, 9, 10, 11];
        let report = run_colorless(&s, &inputs, &SimRun::seeded(3));
        assert!(report.all_correct_decided());
        TaskKind::Trivial.validate(&inputs, &report.outcomes).unwrap();
    }
}
