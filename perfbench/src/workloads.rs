//! The four workloads: their job lists, the verdict each job must reach,
//! and what each job observed.
//!
//! A *job* is one `Explorer::run` sweep (possibly halted and resumed) or
//! one seeded simulation; a *pass* runs a workload's job list once.
//! Verdicts are checked on every job, and only verdicts: state and step
//! counts are reported as layer counts and never fail a job, so a change
//! that legitimately reshapes the search is not refused as wrong.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mpcn_agreement::fixtures::{check_agreement, fig1_bodies, fig6_bodies, FIG1_SYMMETRY};
use mpcn_core::colored::{run_colored, ColoredSpec};
use mpcn_core::equivalence::{round_trip, SimCheck};
use mpcn_core::simulator::{run_colorless, SimRun, SimulationSpec};
use mpcn_model::ModelParams;
use mpcn_runtime::explore::{ExploreLimits, ExploreReport, ExploreStats, Explorer};
use mpcn_runtime::model_world::{Body, RunReport, Symmetry};
use mpcn_runtime::sched::Crashes;
use mpcn_tasks::algorithms;

use crate::stats::derive;
use crate::sys::process_cpu;
use crate::trace::{Tracer, BODIES, CHECKS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreSc,
    ExploreTso,
    ExploreSpill,
    Simulate,
}

pub const WORKLOADS: [Workload; 4] =
    [Workload::ExploreSc, Workload::ExploreTso, Workload::ExploreSpill, Workload::Simulate];

/// Job-list size: `Full` is what the benchmark measures; `Smoke` is the
/// same job shapes at the smallest sizes that still exercise them, used
/// as warm-up, as the traced run's reference jobs, and by the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Seeds per simulation kind in one full `simulate` pass: enough steps
/// per pass (about 20k) that one pass outlasts scheduler noise.
const SIM_SEEDS_PER_KIND: u64 = 8;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreSc => "explore_sc",
            Workload::ExploreTso => "explore_tso",
            Workload::ExploreSpill => "explore_spill",
            Workload::Simulate => "simulate",
        }
    }

    /// The gated engine runs one virtual process at a time, so the
    /// simulate process is confined to one CPU: it loses no parallelism
    /// and stops paying for cross-CPU wake-ups.
    pub fn pinned(self) -> bool {
        self == Workload::Simulate
    }

    /// Whether the workload's sweeps explore under x86-TSO.
    pub fn tso(self) -> bool {
        self == Workload::ExploreTso
    }

    /// The fixture the traced run's resume, fingerprint and codec probes
    /// drive: the workload's first sweep fixture. `simulate` has no
    /// explorer fixture reachable from outside (the simulators' bodies
    /// are private to `mpcn-core`), so it probes Figure 1 at `n = 4`.
    pub fn probe_fixture(self) -> Fixture {
        match self {
            Workload::ExploreSc | Workload::ExploreSpill => Fixture::Fig1(7),
            Workload::ExploreTso | Workload::Simulate => Fixture::Fig1(4),
        }
    }

    pub fn jobs(self, scale: Scale, seed: u64) -> Vec<Job> {
        let full = scale == Scale::Full;
        match self {
            Workload::ExploreSc => vec![
                Job::Sweep(SweepJob::new(Fixture::Fig1(if full { 7 } else { 4 }))),
                Job::Sweep(SweepJob {
                    crashes: Crashes::UpTo(1),
                    ..SweepJob::new(Fixture::Fig1(if full { 5 } else { 3 }))
                }),
                Job::Sweep(SweepJob::new(Fixture::Fig6 { n: if full { 4 } else { 3 }, x: 2 })),
            ],
            Workload::ExploreTso => vec![
                Job::Sweep(SweepJob {
                    tso: true,
                    expect_violation: true,
                    ..SweepJob::new(Fixture::Fig1(if full { 4 } else { 3 }))
                }),
                Job::Sweep(SweepJob { tso: true, ..SweepJob::new(Fixture::Fig6 { n: 3, x: 2 }) }),
            ],
            Workload::ExploreSpill => {
                let (n, spill) = if full { (7, (256, 8)) } else { (5, (64, 4)) };
                // Depth is 4n layers; halt somewhere in the first 6n/7.
                let halt = 1 + derive(seed, 0) % (24 * n as u64 / 7);
                let spilled = SweepJob { spill: Some(spill), ..SweepJob::new(Fixture::Fig1(n)) };
                vec![
                    Job::Sweep(spilled.clone()),
                    Job::Sweep(SweepJob { halt_and_resume: Some((halt, 0)), ..spilled }),
                ]
            }
            Workload::Simulate => {
                let reps = if full { SIM_SEEDS_PER_KIND } else { 1 };
                SIM_KINDS
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &kind)| {
                        (0..reps).map(move |r| {
                            Job::Sim(SimJob { kind, seed: derive(seed, 1 + k as u64 * 1000 + r) })
                        })
                    })
                    .collect()
            }
        }
    }
}

/// An explorer fixture from `mpcn_agreement::fixtures`: bounded bodies
/// (propose, then one poll) and the outcome-only agreement checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    Fig1(usize),
    Fig6 { n: usize, x: u32 },
}

impl Fixture {
    pub fn n(self) -> usize {
        match self {
            Fixture::Fig1(n) | Fixture::Fig6 { n, .. } => n,
        }
    }

    pub fn bodies(self) -> Vec<Body> {
        match self {
            Fixture::Fig1(n) => fig1_bodies(n, 1),
            Fixture::Fig6 { n, x } => fig6_bodies(n, x, 1),
        }
    }

    pub fn check(self, report: &RunReport) -> Result<(), String> {
        match self {
            Fixture::Fig1(n) => check_agreement(report, n, true),
            Fixture::Fig6 { n, .. } => check_agreement(report, n, false),
        }
    }

    /// Figure 1 declares its pid symmetry; Figure 6 declares none.
    pub fn symmetry(self) -> Option<Symmetry> {
        match self {
            Fixture::Fig1(_) => Some(FIG1_SYMMETRY),
            Fixture::Fig6 { .. } => None,
        }
    }

    fn label(self) -> String {
        match self {
            Fixture::Fig1(n) => format!("fig1 n={n}"),
            Fixture::Fig6 { n, x } => format!("fig6 n={n} x={x}"),
        }
    }
}

/// Bounds generous enough never to bind on any job here: every sweep
/// must finish on its own.
const LIMITS: ExploreLimits =
    ExploreLimits { max_expansions: 60_000_000, max_steps: 5_000, max_depth: usize::MAX };

/// One sweep, configured only through `Explorer`'s stable methods
/// (`threads = 1` and the default `Reduction`).
#[derive(Debug, Clone)]
pub struct SweepJob {
    pub fixture: Fixture,
    pub crashes: Crashes,
    pub tso: bool,
    /// The sweep is a pinned counterexample: it must report an agreement
    /// violation instead of finishing clean.
    pub expect_violation: bool,
    /// Spill checkpoints to disk under this `(resident_ceiling,
    /// checkpoint_every)`.
    pub spill: Option<(usize, usize)>,
    /// `(layers, job)`: halt after `layers` layers, finish with
    /// `resume_sweep_with_symmetry`, and require the report to equal
    /// that of job `job` of the same pass.
    pub halt_and_resume: Option<(u64, usize)>,
}

impl SweepJob {
    fn new(fixture: Fixture) -> Self {
        SweepJob {
            fixture,
            crashes: Crashes::None,
            tso: false,
            expect_violation: false,
            spill: None,
            halt_and_resume: None,
        }
    }

    pub fn label(&self) -> String {
        let mut l = self.fixture.label();
        if let Crashes::UpTo(f) = self.crashes {
            l += &format!(" f={f}");
        }
        if self.tso {
            l += " tso";
        }
        if let Some((ceiling, _)) = self.spill {
            l += &format!(" spill ceiling={ceiling}");
        }
        if let Some((layers, _)) = self.halt_and_resume {
            l += &format!(" halt={layers}+resume");
        }
        l
    }

    /// The same sweep without the disk store: `store.overhead_s` is the
    /// spilled sweep's time minus this one's.
    pub fn in_memory(&self) -> SweepJob {
        SweepJob { spill: None, halt_and_resume: None, ..self.clone() }
    }

    fn explorer(&self) -> Explorer {
        let mut ex = Explorer::new(self.fixture.n())
            .limits(LIMITS)
            .crashes(self.crashes.clone())
            .tso(self.tso);
        if let Some(spec) = self.fixture.symmetry() {
            ex = ex.symmetry(spec);
        }
        ex
    }
}

/// The simulations of the `simulate` workload. Figure 7 chain through
/// `equivalence::round_trip`, the Figures 2–3 BG run, and the Figure 8
/// colored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// ASM(6,4,2) → ASM(6,2,1).
    Section3,
    /// The same, with up to 2 random simulator crashes.
    Section3Crashes,
    /// ASM(5,2,1) → ASM(5,4,2).
    Section4,
    /// ASM(6,4,2) → ASM(3,2,1).
    GeneralizedBg,
    /// ASM(6,4,2) → ASM(6,5,2).
    CrossModel,
    /// `kset_read_write(7,3)` in ASM(4,3,1).
    BgKset,
    /// `renaming(8)` in ASM(4,3,2), colored.
    ColoredRenaming,
}

pub const SIM_KINDS: [SimKind; 7] = [
    SimKind::Section3,
    SimKind::Section3Crashes,
    SimKind::Section4,
    SimKind::GeneralizedBg,
    SimKind::CrossModel,
    SimKind::BgKset,
    SimKind::ColoredRenaming,
];

#[derive(Debug, Clone, Copy)]
pub struct SimJob {
    pub kind: SimKind,
    /// Schedule (and crash) seed, derived from the workload seed.
    pub seed: u64,
}

impl SimJob {
    fn label(&self) -> String {
        format!("{:?} seed={}", self.kind, self.seed)
    }
}

/// The specs the `simulate` jobs share, built once at set-up. The
/// `round_trip` experiments build theirs inside each call.
pub struct Specs {
    bg: SimulationSpec,
    colored: ColoredSpec,
}

impl Specs {
    pub fn build() -> Specs {
        let p = |n, t, x| ModelParams::new(n, t, x).expect("valid model parameters");
        let kset = algorithms::kset_read_write(7, 3).expect("valid source parameters");
        let renaming = algorithms::renaming(8).expect("valid source parameters");
        Specs {
            bg: SimulationSpec::new(kset, p(4, 3, 1)).expect("valid BG spec"),
            colored: ColoredSpec::new(renaming, p(4, 3, 2)).expect("valid colored spec"),
        }
    }
}

#[derive(Debug, Clone)]
pub enum Job {
    Sweep(SweepJob),
    Sim(SimJob),
}

/// What one job observed.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub label: String,
    pub ok: bool,
    pub wall: Duration,
    pub cpu: Duration,
    /// Statistics of an uninterrupted sweep (halted-and-resumed sweeps
    /// repeat another job's, so they report none).
    pub stats: Option<ExploreStats>,
    pub report: Option<ExploreReport>,
    pub spilled: bool,
    /// Wall time of the `resume_sweep_with_symmetry` call.
    pub resume_wall: Option<Duration>,
    /// Shared-memory steps of a simulation.
    pub steps: Option<u64>,
}

/// Operations attempted and failed over the whole run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 20 {
                    self.errors.push(format!("{what}: {e}"));
                }
                false
            }
        }
    }
}

/// State shared by every pass of one run.
pub struct Ctx {
    pub tracer: Tracer,
    pub ledger: Ledger,
    /// Scratch directory for spill stores, inside the checkout.
    scratch: PathBuf,
    spills: u64,
}

impl Ctx {
    pub fn new(tracer: Tracer, scratch: PathBuf) -> Ctx {
        Ctx { tracer, ledger: Ledger::default(), scratch, spills: 0 }
    }

    fn spill_dir(&mut self) -> PathBuf {
        self.spills += 1;
        self.scratch.join(format!("spill-{}-{}", std::process::id(), self.spills))
    }
}

/// One pass over a job list.
#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    pub wall: Duration,
    pub cpu: Duration,
    pub jobs: Vec<JobResult>,
    pub span: crate::trace::SpanId,
}

pub fn run_pass(jobs: &[Job], specs: &Specs, ctx: &mut Ctx, name: &str) -> Pass {
    let traced = ctx.tracer.enabled();
    let span = ctx.tracer.enter("pass", name);
    let (t0, c0) = (Instant::now(), process_cpu());
    let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let r = match job {
            Job::Sweep(s) => run_sweep(s, ctx, &results),
            Job::Sim(s) => run_sim(s, specs, ctx),
        };
        results.push(r);
    }
    let (wall, cpu) = (t0.elapsed(), process_cpu().saturating_sub(c0));
    ctx.tracer.exit(span);
    Pass { traced, wall, cpu, jobs: results, span }
}

/// Runs `ex` over `fixture`, timing the fixture callbacks when tracing.
fn explore(ex: &Explorer, fixture: Fixture, traced: bool) -> ExploreReport {
    if traced {
        ex.run(|| BODIES.time(|| fixture.bodies()), |r| CHECKS.time(|| fixture.check(r)))
    } else {
        ex.run(|| fixture.bodies(), |r| fixture.check(r))
    }
}

fn resume(dir: &Path, fixture: Fixture, traced: bool) -> ExploreReport {
    let spec = fixture.symmetry();
    if traced {
        Explorer::resume_sweep_with_symmetry(
            dir,
            spec,
            || BODIES.time(|| fixture.bodies()),
            |r| CHECKS.time(|| fixture.check(r)),
        )
    } else {
        Explorer::resume_sweep_with_symmetry(dir, spec, || fixture.bodies(), |r| fixture.check(r))
    }
}

pub fn run_sweep(job: &SweepJob, ctx: &mut Ctx, earlier: &[JobResult]) -> JobResult {
    let label = job.label();
    let mut ex = job.explorer();
    let dir = job.spill.map(|_| ctx.spill_dir()).unwrap_or_default();
    if let Some((ceiling, every)) = job.spill {
        ex = ex
            .resident_ceiling(ceiling)
            .checkpoint_every(every)
            .spill_to(&dir)
            .fixture_id(job.fixture.label());
    }
    if let Some((layers, _)) = job.halt_and_resume {
        ex = ex.halt_after_layers(layers);
    }
    let traced = ctx.tracer.enabled();
    let span = ctx.tracer.enter("explore", &label);
    let (t0, c0) = (Instant::now(), process_cpu());
    let mut report = explore(&ex, job.fixture, traced);
    let mut resume_wall = None;
    if job.halt_and_resume.is_some() {
        let inner = ctx.tracer.enter("explore", "resume_sweep_with_symmetry");
        let t = Instant::now();
        report = resume(&dir, job.fixture, traced);
        resume_wall = Some(t.elapsed());
        ctx.tracer.exit(inner);
    }
    let (wall, cpu) = (t0.elapsed(), process_cpu().saturating_sub(c0));
    ctx.tracer.exit(span);
    if job.spill.is_some() {
        // Best effort: a leftover directory is only scratch space.
        let _ = std::fs::remove_dir_all(&dir);
    }
    let verdict = sweep_verdict(job, &report, earlier);
    let ok = ctx.ledger.record(&label, verdict);
    JobResult {
        label,
        ok,
        wall,
        cpu,
        stats: job.halt_and_resume.is_none().then(|| report.stats.clone()),
        report: Some(report),
        spilled: job.spill.is_some(),
        resume_wall,
        steps: None,
    }
}

fn sweep_verdict(
    job: &SweepJob,
    report: &ExploreReport,
    earlier: &[JobResult],
) -> Result<(), String> {
    if job.expect_violation {
        return match report.violation() {
            Some(v) if v.message.starts_with("agreement violated") => Ok(()),
            Some(v) => Err(format!("expected an agreement violation, found: {}", v.message)),
            None => Err("the pinned counterexample was not found".to_string()),
        };
    }
    if let Some(v) = report.violation() {
        return Err(format!("violation: {} ({})", v.message, v.repro_snippet()));
    }
    if !report.complete {
        return Err("sweep did not finish".to_string());
    }
    if let Some((_, base)) = job.halt_and_resume {
        let base = earlier
            .get(base)
            .and_then(|r| r.report.as_ref())
            .ok_or("no uninterrupted report to compare with")?;
        if report.stats.summary() != base.stats.summary()
            || report.complete != base.complete
            || report.violations != base.violations
        {
            return Err(format!(
                "resumed report differs from the uninterrupted one: {} vs {}",
                report.stats.summary(),
                base.stats.summary()
            ));
        }
    }
    Ok(())
}

fn inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

pub fn run_sim(job: &SimJob, specs: &Specs, ctx: &mut Ctx) -> JobResult {
    let label = job.label();
    let p = |n, t, x| ModelParams::new(n, t, x).expect("valid model parameters");
    let run = SimRun::seeded(job.seed);
    let held = |c: SimCheck| {
        let verdict = if !c.sound {
            Err("parameters reported unsound".to_string())
        } else if !c.live {
            Err("a correct simulator did not decide".to_string())
        } else {
            c.valid.as_ref().map_err(|v| format!("task violated: {v:?}")).map(|_| ())
        };
        (c.report.steps, verdict)
    };
    let decided = |r: RunReport, spec: &SimulationSpec, inputs: &[u64]| {
        let verdict = if !r.all_correct_decided() {
            Err("a correct simulator did not decide".to_string())
        } else {
            spec.algorithm()
                .task()
                .validate(inputs, &r.outcomes)
                .map_err(|v| format!("task violated: {v:?}"))
        };
        (r.steps, verdict)
    };
    let span = ctx.tracer.enter("simulator", &label);
    let (t0, c0) = (Instant::now(), process_cpu());
    let (steps, verdict) = match job.kind {
        SimKind::Section3 => held(round_trip::section3(6, 4, 2, &run, &inputs(6))),
        SimKind::Section3Crashes => {
            let run = run.crashes(Crashes::Random { seed: job.seed, p: 0.01, max: 2 });
            held(round_trip::section3(6, 4, 2, &run, &inputs(6)))
        }
        SimKind::Section4 => held(round_trip::section4(5, 2, 4, 2, &run, &inputs(5))),
        SimKind::GeneralizedBg => held(round_trip::generalized_bg(6, 4, 2, &run, &inputs(3))),
        SimKind::CrossModel => {
            held(round_trip::cross_model(p(6, 4, 2), p(6, 5, 2), &run, &inputs(6)))
        }
        SimKind::BgKset => {
            let i = inputs(4);
            decided(run_colorless(&specs.bg, &i, &run), &specs.bg, &i)
        }
        SimKind::ColoredRenaming => {
            let i = inputs(4);
            decided(run_colored(&specs.colored, &i, &run), specs.colored.spec(), &i)
        }
    };
    let (wall, cpu) = (t0.elapsed(), process_cpu().saturating_sub(c0));
    ctx.tracer.exit(span);
    let ok = ctx.ledger.record(&label, verdict);
    JobResult {
        label,
        ok,
        wall,
        cpu,
        stats: None,
        report: None,
        spilled: false,
        resume_wall: None,
        steps: Some(steps),
    }
}
