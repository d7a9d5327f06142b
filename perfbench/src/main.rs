//! End-to-end and per-layer benchmark of the explorer and the gated
//! simulations.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--setup-only] [--out <dir>]
//! ```
//!
//! One process runs one workload through the public API of
//! `mpcn-runtime`, `mpcn-agreement` and `mpcn-core`: it sets up, runs the
//! workload's job list once untimed as warm-up, then repeats the job list
//! (one *pass* per repetition) for `--seconds`, starting no pass that
//! would overrun. Every job's verdict is checked; a wrong verdict is a
//! failed operation. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the run's passes, jobs, CPU placement and the host's steal
//! ticks, so a run the host disturbed can be recognized. `perfbench/run.py`
//! builds this binary, samples set-up time over several processes, and
//! prints the same result line.
//!
//! # Workloads
//!
//! All sweeps run at `threads = 1` with the default `Reduction`,
//! configured only through `Explorer`'s stable methods (never
//! `Reduction::no_*` or `MPCN_EXPLORE_*` variables).
//!
//! * `explore_sc` — SC sweeps in memory: `fig1 n=7` with
//!   `FIG1_SYMMETRY`, `fig1 n=5` under `Crashes::UpTo(1)`, and
//!   `fig6 n=4 x=2` (no symmetry spec). This is the verification users
//!   run; the resume engine, symmetric fingerprinting, DPOR and the
//!   visited set do its work, the store and the gated engine none.
//! * `explore_tso` — `fig1 n=4` under `Explorer::tso`, which must find
//!   its agreement counterexample (time-to-bug), and `fig6 n=3 x=2`,
//!   which must finish clean. The same explorer layers used differently:
//!   symmetry switches itself off, flushes are a schedule band, and the
//!   visited set is about 30× larger, so `peak_rss_mib` is large here
//!   and a change that trades memory for time shows.
//! * `explore_spill` — `fig1 n=7` through `spill_to` under
//!   `resident_ceiling(256)` and `checkpoint_every(8)`; then the same
//!   sweep halted after a seed-chosen layer and finished with
//!   `resume_sweep_with_symmetry`, whose report must equal the
//!   uninterrupted one. The only workload where `explore::store` and
//!   the snapshot codec do much of the work; the in-memory workloads are
//!   its no-change control. It runs, but BENCHMARK.json leaves it out:
//!   its fsync waits spread `verdict_s` by about 18% between runs on a
//!   2-vCPU VM. The traced runs of the other workloads measure the
//!   store on its full job list instead.
//! * `simulate` — seeded gated simulations, in a process confined to one
//!   CPU: the Figure 7 chain through `equivalence::round_trip`
//!   (`section3` ASM(6,4,2)→ASM(6,2,1), the same with up to 2 random
//!   simulator crashes, `section4` ASM(5,2,1)→ASM(5,4,2),
//!   `generalized_bg` ASM(6,4,2)→ASM(3,2,1), `cross_model`
//!   ASM(6,4,2)→ASM(6,5,2)), the Figures 2–3 BG run
//!   (`kset_read_write(7,3)` in ASM(4,3,1)) and the Figure 8 colored run
//!   (`renaming(8)` in ASM(4,3,2)), each with 8 seeds derived from the
//!   workload seed. The gated engine does nearly all of this work and
//!   almost none in the explore workloads.
//!
//! The explore sweeps are exhaustive, so their work does not depend on
//! the seed; the seed picks the spill halt layer, the simulation seeds,
//! and the traced run's probe walks.
//!
//! Not measured: `atomics` and `thread_world` (their simulators
//! spin-poll, so their work depends on OS interleavings) and the
//! multi-worker frontier.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | meaning |
//! |---|---|
//! | `setup_s` | process start to the first timed pass: fixtures, specs, lazy set-up (crash hook, first thread) and the warm-up pass |
//! | `verdict_s` | median wall seconds of one pass over the job list |
//! | `verdict_cpu_s` | median CPU seconds of the whole process, all threads, over one pass |
//! | `peak_rss_mib` | peak resident memory (`VmHWM`) at exit |
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run alternates untraced and traced passes, records spans
//! around every public call it makes (see [`trace`]), then runs the
//! direct layer probes of [`probes`], which the untraced run never pays
//! for. Layers a workload does not exercise are measured on a reference
//! pass of a workload that does, so every traced run reports every
//! metric: the store on `explore_spill`'s job list, the explorer on
//! `explore_sc`'s smoke-sized one (for `simulate`), and the simulator
//! on `simulate`'s smoke-sized one (for the explore workloads). The
//! line before the result names each layer's source.
//!
//! | metric | layer, how measured | should move |
//! |---|---|---|
//! | `explore.expansions`, `.visited`, `.admit_ratio` (visited ÷ expansions), `.symm_hits`, `.flushes`, `.evicted`, `.max_rehydration_replay` | `explore`: `ExploreStats` of one pass's uninterrupted sweeps | `verdict_s` on `explore_*`; `visited` also `peak_rss_mib` on `explore_tso` |
//! | `explore.us_per_expansion` | `explore`: sweep CPU µs ÷ expansions | `verdict_cpu_s` on `explore_*`: less work or cheaper work |
//! | `explore.self_s`, `fixtures.bodies_s`, `fixtures.check_s` | self time per pass: sweep spans minus the `make_bodies` and `check` callbacks into `mpcn_agreement::fixtures` | `verdict_s` on `explore_*` |
//! | `model_world.resume_park_ns_p50`, `_p99`, `.resume_finish_ns_p50`, `.replay_ns_per_op`, `.crash_ns_p50`, `.flush_ns_p50` | resume engine: random walks of `resume_from` / `resume_crash` / `resume_flush` from `snapshot_root` over the workload's fixture; replay is the slope over `Snapshot::own_steps` on a one-process body of identical writes | `verdict_cpu_s` on `explore_*`, not `simulate` |
//! | `fingerprint.plain_ns`, `.quotient_ns`, `.symmetric_ns` | `Snapshot::fingerprint*` on the walks' snapshots | `symmetric`: `explore_sc`, `explore_spill`; `quotient`: all `explore_*` |
//! | `codec.encode_ns`, `.decode_ns`, `.bytes_per_snapshot` | `Snapshot::encode` / `decode` round trips, which must keep the fingerprints | `verdict_s` on `explore_spill` |
//! | `store.spilled`, `.spill_bytes`, `.reads`, `.io_wait_s` (wall − CPU of the spilled sweep), `.overhead_s` (spilled sweep − the same sweep in memory), `.resume_s` | `explore::store`: `ExploreStats` counts, times by difference | `verdict_s` on `explore_spill` |
//! | `model_world.gated_us_per_step`, `.gated_cpu_us_per_step`, `.gated_wait_share` ((wall − CPU) ÷ wall) | gated engine: `ModelWorld::run` on register-writing bodies on one CPU — the hand-off floor | `simulate`, not `explore_*` |
//! | `simulator.steps`, `.us_per_step_p50`, `.us_per_step_p99`, `.handshake_share` (gated floor ÷ simulator µs per step), `.self_s` | `core::simulator`: spans around each simulation, steps from its `RunReport` | `simulate` |
//! | `agreement.sa_propose_ns`, `.sa_decide_ns`, `.xsa_propose_ns`, `.x_compete_ns` | `agreement` objects on `ModelWorld::new_free` | both engines |
//! | `trace.overhead_frac` | (median traced pass − median untraced pass) ÷ untraced | nothing: tracing must not move anything |
//!
//! Spans are written to `<out>/spans-<workload>-<seed>.jsonl`.

mod probes;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpcn_runtime::ExploreStats;
use stats::{derive, median, quantile, ratio};
use sys::Ticks;
use trace::Tracer;
use workloads::{run_pass, run_sweep, Ctx, Job, Pass, Scale, Specs, Workload};

const USAGE: &str = "usage: perfbench --workload <explore_sc|explore_tso|explore_spill|simulate> \
                     --seed <n> --seconds <s> --trace <0|1> [--setup-only] [--out <dir>]";

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    scale: Scale,
    out: PathBuf,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut a = Args {
            workload: Workload::ExploreSc,
            seed: 0,
            seconds: 0.0,
            trace: false,
            setup_only: false,
            scale: Scale::Full,
            out: PathBuf::from(".bench_build/perfbench-run"),
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, not {v}")),
                    })
                }
                "--out" => a.out = PathBuf::from(value()?),
                "--setup-only" => a.setup_only = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        a.workload = workload.ok_or("--workload is required")?;
        a.seed = seed.ok_or("--seed is required")?;
        a.seconds = seconds.ok_or("--seconds is required")?;
        a.trace = trace.ok_or("--trace is required")?;
        if !a.seconds.is_finite() || a.seconds <= 0.0 {
            return Err("--seconds must be a positive number".into());
        }
        Ok(a)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit the measurement has, never NaN or inf.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Everything one run measured.
struct Run {
    args: Args,
    setup: Duration,
    ctx: Ctx,
    passes: Vec<Pass>,
    metrics: Vec<Metric>,
    /// Whether each layer's metrics came from the workload's own passes
    /// or from a reference pass.
    layer_sources: Vec<(&'static str, &'static str)>,
    cpus: Vec<usize>,
    pinned_to: Option<usize>,
    ticks: Ticks,
}

/// Runs the timed passes until the next one would overrun `seconds`
/// (at least one; at least one traced and one untraced when tracing).
fn timed_passes(args: &Args, jobs: &[Job], specs: &Specs, ctx: &mut Ctx) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        ctx.tracer.set_enabled(args.trace && passes.len() % 2 == 1);
        let name = format!("pass {}", passes.len());
        passes.push(run_pass(jobs, specs, ctx, &name));
        let typical = median(&passes.iter().map(|p| secs(p.wall)).collect::<Vec<_>>());
        let enough = passes.len() >= if args.trace { 2 } else { 1 };
        if enough && secs(start.elapsed()) + typical > args.seconds {
            break;
        }
    }
    ctx.tracer.set_enabled(false);
    passes
}

fn run(args: Args, started: Instant) -> Run {
    let ticks0 = Ticks::now();
    let cpus = sys::affinity();
    let pinned_to = args.workload.pinned().then(|| cpus[cpus.len() - 1]);
    if let Some(cpu) = pinned_to {
        sys::set_affinity(&[cpu]);
    }
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.out.display()));
    let specs = Specs::build();
    let jobs = args.workload.jobs(args.scale, args.seed);
    let mut ctx = Ctx::new(Tracer::new(false), args.out.clone());
    run_pass(&args.workload.jobs(Scale::Smoke, args.seed), &specs, &mut ctx, "warm-up");
    let setup = started.elapsed();
    let (mut passes, mut metrics, mut layer_sources) = (Vec::new(), Vec::new(), Vec::new());
    if !args.setup_only {
        passes = timed_passes(&args, &jobs, &specs, &mut ctx);
        if args.trace {
            (metrics, layer_sources) = per_layer(&args, &passes, &jobs, &specs, &mut ctx);
        } else {
            let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
            let cpu: Vec<f64> = passes.iter().map(|p| secs(p.cpu)).collect();
            metrics = vec![
                metric("setup_s", secs(setup), "s"),
                metric("verdict_s", median(&walls), "s"),
                metric("verdict_cpu_s", median(&cpu), "s"),
                metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
            ];
        }
    }
    let ticks = Ticks::now().since(ticks0);
    Run { args, setup, ctx, passes, metrics, layer_sources, cpus, pinned_to, ticks }
}

/// Median over `passes` of `f(pass)`.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Median over the traced passes of `src` of `layer`'s self time.
fn self_time(tracer: &Tracer, src: &[Pass], layer: &str) -> f64 {
    let v: Vec<f64> = src
        .iter()
        .filter(|p| p.traced)
        .map(|p| tracer.self_time_by_layer(p.span).get(layer).copied().map_or(0.0, secs))
        .collect();
    median(&v)
}

type Sources = Vec<(&'static str, &'static str)>;

fn per_layer(
    args: &Args,
    passes: &[Pass],
    jobs: &[Job],
    specs: &Specs,
    ctx: &mut Ctx,
) -> (Vec<Metric>, Sources) {
    let seed = args.seed;
    let first = &passes[0].jobs;
    let has_explore = first.iter().any(|j| j.stats.is_some());
    let has_store = first.iter().any(|j| j.spilled);
    let has_sim = first.iter().any(|j| j.steps.is_some());
    let source = |has: bool| if has { "workload" } else { "reference" };
    let sources = vec![
        ("explore", source(has_explore)),
        ("store", source(has_store)),
        ("simulator", source(has_sim)),
    ];

    // Reference passes for the layers this workload does not exercise.
    ctx.tracer.set_enabled(true);
    let reference = |w: Workload, scale: Scale, ctx: &mut Ctx| {
        let jobs = w.jobs(scale, seed);
        let run_it =
            |ctx: &mut Ctx| run_pass(&jobs, specs, ctx, &format!("reference {}", w.name()));
        let pass = if w.pinned() { sys::pinned(|| run_it(ctx)) } else { run_it(ctx) };
        (jobs, vec![pass])
    };
    let (ref_explore, ref_store, ref_sim);
    let explore_src: &[Pass] = if has_explore {
        passes
    } else {
        ref_explore = reference(Workload::ExploreSc, Scale::Smoke, ctx).1;
        &ref_explore
    };
    // The store at its design scale even as a reference: `explore_spill`
    // is left out of BENCHMARK.json, so this is where its layer shows.
    let (store_jobs, store_src): (&[Job], &[Pass]) = if has_store {
        (jobs, passes)
    } else {
        ref_store = reference(Workload::ExploreSpill, args.scale, ctx);
        (&ref_store.0, &ref_store.1)
    };
    let sim_src: &[Pass] = if has_sim {
        passes
    } else {
        ref_sim = reference(Workload::Simulate, Scale::Smoke, ctx).1;
        &ref_sim
    };

    let mut m = Vec::new();

    // explore: counts from one pass's uninterrupted sweeps.
    let sweeps: Vec<&ExploreStats> =
        explore_src[0].jobs.iter().filter_map(|j| j.stats.as_ref()).collect();
    let sum = |f: fn(&ExploreStats) -> u64| sweeps.iter().map(|s| f(s)).sum::<u64>();
    let expansions = sum(|s| s.expansions);
    let visited = sum(|s| s.states_visited);
    m.push(metric("explore.expansions", expansions as f64, "count"));
    m.push(metric("explore.visited", visited as f64, "count"));
    m.push(metric("explore.admit_ratio", ratio(visited as f64, expansions as f64), "ratio"));
    m.push(metric("explore.symm_hits", sum(|s| s.symm_hits) as f64, "count"));
    m.push(metric("explore.flushes", sum(|s| s.flush_branches) as f64, "count"));
    m.push(metric("explore.evicted", sum(|s| s.evicted) as f64, "count"));
    let replay = sweeps.iter().map(|s| s.max_rehydration_replay).max().unwrap_or(0);
    m.push(metric("explore.max_rehydration_replay", replay as f64, "count"));
    let us_per_expansion = per_pass(explore_src, |p| {
        let (cpu, exp) = p
            .jobs
            .iter()
            .filter_map(|j| j.stats.as_ref().map(|s| (secs(j.cpu), s.expansions)))
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        ratio(cpu * 1e6, exp as f64)
    });
    m.push(metric("explore.us_per_expansion", us_per_expansion, "us"));
    m.push(metric("explore.self_s", self_time(&ctx.tracer, explore_src, "explore"), "s"));
    let bodies = self_time(&ctx.tracer, explore_src, "fixtures.bodies");
    m.push(metric("fixtures.bodies_s", bodies, "s"));
    let check = self_time(&ctx.tracer, explore_src, "fixtures.check");
    m.push(metric("fixtures.check_s", check, "s"));

    // Direct probes: resume engine, fingerprints, codec.
    let fixture = args.workload.probe_fixture();
    let tso = args.workload.tso();
    let id = ctx.tracer.enter("probe", "resume");
    let resume = probes::resume(fixture, tso, derive(seed, 7));
    ctx.tracer.exit(id);
    m.push(metric("model_world.resume_park_ns_p50", resume.park_p50(), "ns"));
    m.push(metric("model_world.resume_park_ns_p99", resume.park_p99(), "ns"));
    m.push(metric("model_world.resume_finish_ns_p50", resume.finish_p50(), "ns"));
    m.push(metric("model_world.replay_ns_per_op", resume.replay_ns_per_op(), "ns"));
    m.push(metric("model_world.crash_ns_p50", resume.crash_p50(), "ns"));
    m.push(metric("model_world.flush_ns_p50", resume.flush_p50(), "ns"));
    let id = ctx.tracer.enter("probe", "fingerprint");
    let fp = probes::fingerprints(&resume, fixture);
    ctx.tracer.exit(id);
    m.push(metric("fingerprint.plain_ns", fp.plain_ns, "ns"));
    m.push(metric("fingerprint.quotient_ns", fp.quotient_ns, "ns"));
    m.push(metric("fingerprint.symmetric_ns", fp.symmetric_ns, "ns"));
    let id = ctx.tracer.enter("probe", "codec");
    let codec = probes::codec(&resume, &mut ctx.ledger);
    ctx.tracer.exit(id);
    m.push(metric("codec.encode_ns", codec.encode_ns, "ns"));
    m.push(metric("codec.decode_ns", codec.decode_ns, "ns"));
    m.push(metric("codec.bytes_per_snapshot", codec.bytes_per_snapshot, "B"));
    drop(resume);

    // store: the uninterrupted spilled sweep, its in-memory twin, and
    // the halted sweep's resume.
    let at = store_src[0]
        .jobs
        .iter()
        .position(|j| j.spilled && j.stats.is_some())
        .expect("a store source holds an uninterrupted spilled sweep");
    let spilled = store_src[0].jobs[at].stats.as_ref().expect("uninterrupted sweep");
    m.push(metric("store.spilled", spilled.spilled as f64, "count"));
    m.push(metric("store.spill_bytes", spilled.spill_bytes as f64, "B"));
    m.push(metric("store.reads", spilled.store_reads as f64, "count"));
    let io_wait = per_pass(store_src, |p| secs(p.jobs[at].wall) - secs(p.jobs[at].cpu));
    m.push(metric("store.io_wait_s", io_wait, "s"));
    let Job::Sweep(spill_job) = &store_jobs[at] else {
        unreachable!("spilled results come from sweep jobs")
    };
    let twin = spill_job.in_memory();
    let twin_walls: Vec<f64> = (0..3).map(|_| secs(run_sweep(&twin, ctx, &[]).wall)).collect();
    let spilled_wall = per_pass(store_src, |p| secs(p.jobs[at].wall));
    m.push(metric("store.overhead_s", spilled_wall - median(&twin_walls), "s"));
    let resume_s =
        per_pass(store_src, |p| p.jobs.iter().find_map(|j| j.resume_wall).map_or(0.0, secs));
    m.push(metric("store.resume_s", resume_s, "s"));

    // The gated engine's floor, then the simulator against it.
    let id = ctx.tracer.enter("probe", "gated floor");
    let gated = probes::gated(seed, &mut ctx.ledger);
    ctx.tracer.exit(id);
    m.push(metric("model_world.gated_us_per_step", gated.us_per_step, "us"));
    m.push(metric("model_world.gated_cpu_us_per_step", gated.cpu_us_per_step, "us"));
    m.push(metric("model_world.gated_wait_share", gated.wait_share, "ratio"));
    let steps: u64 = sim_src[0].jobs.iter().filter_map(|j| j.steps).sum();
    m.push(metric("simulator.steps", steps as f64, "count"));
    let per_step: Vec<f64> = sim_src
        .iter()
        .flat_map(|p| &p.jobs)
        .filter_map(|j| j.steps.map(|s| ratio(secs(j.wall) * 1e6, s as f64)))
        .collect();
    let p50 = quantile(&per_step, 0.5);
    m.push(metric("simulator.us_per_step_p50", p50, "us"));
    m.push(metric("simulator.us_per_step_p99", quantile(&per_step, 0.99), "us"));
    m.push(metric("simulator.handshake_share", ratio(gated.us_per_step, p50), "ratio"));
    m.push(metric("simulator.self_s", self_time(&ctx.tracer, sim_src, "simulator"), "s"));

    let id = ctx.tracer.enter("probe", "agreement");
    let ag = probes::agreement(&mut ctx.ledger);
    ctx.tracer.exit(id);
    m.push(metric("agreement.sa_propose_ns", ag.sa_propose_ns, "ns"));
    m.push(metric("agreement.sa_decide_ns", ag.sa_decide_ns, "ns"));
    m.push(metric("agreement.xsa_propose_ns", ag.xsa_propose_ns, "ns"));
    m.push(metric("agreement.x_compete_ns", ag.x_compete_ns, "ns"));

    let wall = |traced: bool| {
        let v: Vec<f64> =
            passes.iter().filter(|p| p.traced == traced).map(|p| secs(p.wall)).collect();
        median(&v)
    };
    let untraced = wall(false);
    m.push(metric("trace.overhead_frac", ratio(wall(true) - untraced, untraced), "ratio"));
    ctx.tracer.set_enabled(false);
    (m, sources)
}

fn detail_line(run: &Run) -> String {
    let walls: Vec<f64> = run.passes.iter().map(|p| secs(p.wall)).collect();
    let mut jobs: Vec<(String, bool, Vec<f64>)> = Vec::new();
    for p in &run.passes {
        for (i, j) in p.jobs.iter().enumerate() {
            if jobs.len() <= i {
                jobs.push((j.label.clone(), true, Vec::new()));
            }
            jobs[i].1 &= j.ok;
            jobs[i].2.push(secs(j.wall));
        }
    }
    let jobs: Vec<String> = jobs
        .iter()
        .map(|(label, ok, w)| {
            format!(
                "{{\"job\":{},\"ok\":{ok},\"wall_s_median\":{}}}",
                json_str(label),
                json_num(median(w))
            )
        })
        .collect();
    let errors: Vec<String> = run.ctx.ledger.errors.iter().map(|e| json_str(e)).collect();
    let sources: Vec<String> =
        run.layer_sources.iter().map(|(l, s)| format!("\"{l}\":\"{s}\"")).collect();
    let cpus: Vec<String> = run.cpus.iter().map(usize::to_string).collect();
    format!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"setup_s\":{},\"passes\":{},\"traced_passes\":{},\
         \"pass_wall_s\":{{\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{},\"each\":[{}]}},\
         \"jobs\":[{}],\"layer_sources\":{{{}}},\"errors\":[{}],\
         \"env\":{{\"nproc\":{},\"cpus\":[{}],\"pinned_to\":{},\"busy_ticks\":{},\
         \"steal_ticks\":{},\"steal_share\":{}}}}}}}",
        run.args.workload.name(),
        run.args.seed,
        json_num(run.args.seconds),
        run.args.trace,
        json_num(secs(run.setup)),
        run.passes.len(),
        run.passes.iter().filter(|p| p.traced).count(),
        json_num(quantile(&walls, 0.0)),
        json_num(quantile(&walls, 0.25)),
        json_num(median(&walls)),
        json_num(quantile(&walls, 0.75)),
        json_num(quantile(&walls, 1.0)),
        walls.iter().map(|&w| json_num(w)).collect::<Vec<_>>().join(","),
        jobs.join(","),
        sources.join(","),
        errors.join(","),
        run.cpus.len(),
        cpus.join(","),
        run.pinned_to.map_or("null".to_string(), |c| c.to_string()),
        run.ticks.busy,
        run.ticks.steal,
        json_num(ratio(run.ticks.steal as f64, (run.ticks.busy + run.ticks.steal) as f64)),
    )
}

fn result_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_num(m.value), m.unit)
        })
        .collect();
    let l = &run.ctx.ledger;
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        l.failed == 0,
        l.attempted,
        l.failed,
        metrics.join(",")
    )
}

fn main() {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = run(args, started);
    if run.args.setup_only {
        println!("{{\"setup_s\":{}}}", json_num(secs(run.setup)));
        return;
    }
    if run.args.trace {
        let path = run.args.out.join(format!(
            "spans-{}-{}.jsonl",
            run.args.workload.name(),
            run.args.seed
        ));
        std::fs::write(&path, run.ctx.tracer.to_jsonl())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    println!("{}", detail_line(&run));
    println!("{}", result_line(&run));
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WORKLOADS;

    /// Metric names of one section of BENCHMARK.json, in order.
    fn declared(section: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let body = &spec[spec.find(&format!("\"{section}\"")).expect("section present")..];
        let body = &body[..body.find(']').expect("section ends")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].into())
            .collect()
    }

    /// A smoke-sized run: one pass (two when traced) of the smoke job list.
    fn smoke(workload: Workload, trace: bool) -> Run {
        // One directory per concurrently running test: spill stores
        // are named per process, not per test.
        let out = std::env::temp_dir().join(format!(
            "perfbench-selftest-{}-{}-{trace}",
            std::process::id(),
            workload.name()
        ));
        let args = Args {
            workload,
            seed: 5,
            seconds: 1e-3,
            trace,
            setup_only: false,
            scale: Scale::Smoke,
            out,
        };
        let out = args.out.clone();
        let run = run(args, Instant::now());
        let _ = std::fs::remove_dir_all(out);
        run
    }

    fn check(run: &Run, section: &str) {
        let w = run.args.workload.name();
        let ledger = &run.ctx.ledger;
        assert!(ledger.attempted > 0 && ledger.failed == 0, "{w}: {:?}", ledger.errors);
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, declared(section), "{w}: metrics disagree with BENCHMARK.json");
        assert!(run.metrics.iter().all(|m| m.value.is_finite()), "{w}: {:?}", run.metrics);
        assert!(result_line(run).starts_with("{\"correct\":true,"));
        assert!(detail_line(run).starts_with("{\"perfbench\":{"));
    }

    #[test]
    fn every_workload_reaches_its_verdicts_and_reports_the_end_to_end_metrics() {
        for w in WORKLOADS {
            let run = smoke(w, false);
            check(&run, "end_to_end");
            assert!(run.metrics.iter().all(|m| m.value > 0.0), "{:?}", run.metrics);
        }
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric() {
        for w in WORKLOADS {
            let run = smoke(w, true);
            check(&run, "per_layer");
            assert!(run.passes.iter().any(|p| p.traced) && run.passes.iter().any(|p| !p.traced));
        }
    }

    #[test]
    fn a_seed_fixes_the_simulations() {
        let steps = |seed| {
            let mut ctx = Ctx::new(Tracer::new(false), std::env::temp_dir());
            let jobs = Workload::Simulate.jobs(Scale::Smoke, seed);
            let pass = run_pass(&jobs, &Specs::build(), &mut ctx, "test");
            assert_eq!(ctx.ledger.failed, 0, "{:?}", ctx.ledger.errors);
            pass.jobs.iter().map(|j| j.steps.expect("simulations count steps")).collect::<Vec<_>>()
        };
        assert_eq!(steps(9), steps(9));
        let seeds = |seed| {
            Workload::Simulate
                .jobs(Scale::Full, seed)
                .into_iter()
                .map(|j| match j {
                    Job::Sim(s) => s.seed,
                    Job::Sweep(_) => unreachable!("simulate has no sweeps"),
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(seeds(1), seeds(2));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload simulate --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Simulate, 7, 2.5, true));
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload simulate --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload simulate --seed 1 --trace 0").is_err());
        assert!(parse("--workload simulate --seed 1 --seconds 0 --trace 0").is_err());
    }
}
