//! Direct layer probes of the traced run. Each drives one layer's public
//! functions over the workload's fixture and times them from outside;
//! every probe also checks what it measured, so a probe that goes wrong
//! counts as a failed operation rather than a fast one.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mpcn_agreement::safe::SafeAgreement;
use mpcn_agreement::xcompete::x_compete;
use mpcn_agreement::xsafe::XSafeAgreement;
use mpcn_runtime::model_world::{Body, ModelWorld, RunConfig, Snapshot};
use mpcn_runtime::sched::Schedule;
use mpcn_runtime::world::{Env, ObjKey};

use crate::stats::{median, quantile, slope, Rng};
use crate::sys::{pinned, process_cpu};
use crate::workloads::{Fixture, Ledger};

/// Samples at least this many resumes of each kind, so that the p99 has
/// ten samples beyond it.
const RESUME_SAMPLES: usize = 1_500;
/// Snapshots kept from the walks for the fingerprint and codec probes.
const KEPT_SNAPSHOTS: usize = 2_000;

/// Timings of the resume engine, and the snapshots its walks visited.
#[derive(Default)]
pub struct Resume {
    /// `resume_from` calls whose body parked at its next operation.
    pub park_ns: Vec<f64>,
    /// `resume_from` calls whose body returned.
    pub finish_ns: Vec<f64>,
    /// `(own steps of the resumed process before the call, ns)` on the
    /// replay ladder: the slope is the cost of replaying one logged op.
    pub replay: Vec<(f64, f64)>,
    pub crash_ns: Vec<f64>,
    pub flush_ns: Vec<f64>,
    /// Snapshots under the workload's memory model.
    pub kept: Vec<Snapshot>,
    /// Sequentially consistent snapshots (the symmetry quotient is off
    /// under TSO, so the symmetric fingerprint is timed on these).
    pub kept_sc: Vec<Snapshot>,
}

fn root(fixture: Fixture, tso: bool) -> Snapshot {
    ModelWorld::snapshot_root_tso(fixture.n(), true, true, tso, fixture.bodies())
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Random walks from the root until [`RESUME_SAMPLES`] finishing resumes
/// (and, under TSO, flushes) are timed: at every state, one uniformly
/// chosen enabled action (an op or, under TSO, a flush) is resumed and
/// timed; every fourth state also times a crash delivery to a random
/// process. The first [`KEPT_SNAPSHOTS`] states visited are kept.
fn walks(fixture: Fixture, tso: bool, rng: &mut Rng) -> Resume {
    let mut out = Resume::default();
    let enough = |out: &Resume| {
        out.finish_ns.len() >= RESUME_SAMPLES && (!tso || out.flush_ns.len() >= RESUME_SAMPLES)
    };
    while !enough(&out) {
        let mut snap = root(fixture, tso);
        loop {
            if out.kept.len() < KEPT_SNAPSHOTS {
                out.kept.push(snap.clone());
            }
            let alive = snap.alive();
            let flushable = snap.flushable();
            if alive.is_empty() && flushable.is_empty() {
                break;
            }
            if !alive.is_empty() && rng.below(4) == 0 {
                let pid = alive[rng.below(alive.len())];
                let t = Instant::now();
                let crashed = ModelWorld::resume_crash(&snap, pid);
                out.crash_ns.push(ns(t.elapsed()));
                drop(black_box(crashed));
            }
            let k = rng.below(alive.len() + flushable.len());
            snap = if k < alive.len() {
                let pid = alive[k];
                let body: Body = fixture.bodies().swap_remove(pid);
                let t = Instant::now();
                let next = ModelWorld::resume_from(&snap, pid, body);
                let dt = ns(t.elapsed());
                if next.alive().contains(&pid) {
                    out.park_ns.push(dt);
                } else {
                    out.finish_ns.push(dt);
                }
                next
            } else {
                let t = Instant::now();
                let next = ModelWorld::resume_flush(&snap, flushable[k - alive.len()]);
                out.flush_ns.push(ns(t.elapsed()));
                next
            };
        }
    }
    out
}

/// Drives the resume engine (`snapshot_root`, `resume_from`,
/// `resume_crash`, `resume_flush`) over `fixture` under the workload's
/// memory model. A second walk under the other model supplies what the
/// first cannot: flushes for an SC workload, SC snapshots for a TSO one.
pub fn resume(fixture: Fixture, tso: bool, seed: u64) -> Resume {
    let mut rng = Rng::new(seed);
    let mut out = walks(fixture, tso, &mut rng);
    let other = walks(fixture, !tso, &mut rng);
    if tso {
        out.kept_sc = other.kept;
    } else {
        out.flush_ns = other.flush_ns;
        out.kept_sc = out.kept.clone();
    }
    out.replay = replay_ladder();
    out
}

/// Writes per rung of the replay ladder.
const LADDER_WRITES: u64 = 64;
const LADDERS: usize = 40;

/// `(own steps, ns)` of every parking `resume_from` along a one-process
/// body that writes the same register [`LADDER_WRITES`] times: only the
/// replayed prefix grows from one call to the next. (The fixtures' own
/// steps differ by position — a write, then an `O(n)` scan — which
/// would confound a slope taken over them.)
fn replay_ladder() -> Vec<(f64, f64)> {
    let body = || -> Body {
        Box::new(|env: Env<ModelWorld>| {
            for i in 0..LADDER_WRITES {
                env.reg_write(ObjKey::new(995, 0, 0), i);
            }
            0
        })
    };
    let mut points = Vec::new();
    for _ in 0..LADDERS {
        let mut snap = ModelWorld::snapshot_root(1, true, true, vec![body()]);
        while snap.alive() == [0] {
            let (own, b) = (snap.own_steps(0) as f64, body());
            let t = Instant::now();
            let next = ModelWorld::resume_from(&snap, 0, b);
            let dt = ns(t.elapsed());
            if next.alive() == [0] {
                points.push((own, dt));
            }
            snap = next;
        }
    }
    points
}

impl Resume {
    pub fn park_p50(&self) -> f64 {
        quantile(&self.park_ns, 0.5)
    }
    pub fn park_p99(&self) -> f64 {
        quantile(&self.park_ns, 0.99)
    }
    pub fn finish_p50(&self) -> f64 {
        quantile(&self.finish_ns, 0.5)
    }
    pub fn replay_ns_per_op(&self) -> f64 {
        slope(&self.replay)
    }
    pub fn crash_p50(&self) -> f64 {
        quantile(&self.crash_ns, 0.5)
    }
    pub fn flush_p50(&self) -> f64 {
        quantile(&self.flush_ns, 0.5)
    }
}

/// Mean ns per call of `f` over `items`, as the median of five batches.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            items.iter().for_each(&mut f);
            ns(t.elapsed()) / items.len().max(1) as f64
        })
        .collect();
    median(&batches)
}

pub struct Fingerprints {
    pub plain_ns: f64,
    pub quotient_ns: f64,
    pub symmetric_ns: f64,
}

/// `Snapshot::fingerprint*` on the resume walks' snapshots.
pub fn fingerprints(r: &Resume, fixture: Fixture) -> Fingerprints {
    let spec = fixture.symmetry().expect("probe fixtures declare a symmetry");
    Fingerprints {
        plain_ns: per_call(&r.kept, |s| {
            black_box(s.fingerprint());
        }),
        quotient_ns: per_call(&r.kept, |s| {
            black_box(s.fingerprint_quotient());
        }),
        symmetric_ns: per_call(&r.kept_sc, |s| {
            black_box(s.fingerprint_symmetric(true, &spec));
        }),
    }
}

pub struct Codec {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_snapshot: f64,
}

/// `Snapshot::encode` / `Snapshot::decode` round trips; each must keep
/// the snapshot's fingerprints and re-encode to the same bytes.
pub fn codec(r: &Resume, ledger: &mut Ledger) -> Codec {
    let encoded: Vec<Vec<u8>> = r
        .kept
        .iter()
        .map(|s| s.encode().expect("reachable snapshots are in the codec universe"))
        .collect();
    for (s, bytes) in r.kept.iter().zip(&encoded) {
        let verdict = match Snapshot::decode(bytes) {
            Err(e) => Err(format!("decode failed: {e}")),
            Ok(d) if d.fingerprint() != s.fingerprint() => Err("fingerprint changed".into()),
            Ok(d) if d.fingerprint_quotient() != s.fingerprint_quotient() => {
                Err("quotient fingerprint changed".into())
            }
            Ok(d) if d.encode().as_ref().ok() != Some(bytes) => Err("re-encoding differs".into()),
            Ok(_) => Ok(()),
        };
        if !ledger.record("codec round trip", verdict) {
            break;
        }
    }
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    Codec {
        encode_ns: per_call(&r.kept, |s| {
            black_box(s.encode().expect("encodable"));
        }),
        decode_ns: per_call(&encoded, |b| {
            black_box(Snapshot::decode(b).expect("decodable"));
        }),
        bytes_per_snapshot: bytes as f64 / encoded.len().max(1) as f64,
    }
}

pub struct Gated {
    pub us_per_step: f64,
    pub cpu_us_per_step: f64,
    pub wait_share: f64,
}

const GATED_N: usize = 4;
const GATED_WRITES: u64 = 100;
const GATED_RUNS: u64 = 40;

/// The gated engine's hand-off floor: `ModelWorld::run` on bodies that
/// only write registers, confined to one CPU as the simulate workload is.
pub fn gated(seed: u64, ledger: &mut Ledger) -> Gated {
    pinned(|| {
        let (t0, c0) = (Instant::now(), process_cpu());
        let mut steps = 0;
        for run in 0..GATED_RUNS {
            let bodies: Vec<Body> = (0..GATED_N as u64)
                .map(|p| {
                    Box::new(move |env: Env<ModelWorld>| {
                        for i in 0..GATED_WRITES {
                            env.reg_write(ObjKey::new(990, p, i), i);
                        }
                        p
                    }) as Body
                })
                .collect();
            let cfg = RunConfig::new(GATED_N).schedule(Schedule::RandomSeed(seed ^ run));
            let report = ModelWorld::run(cfg, bodies);
            let expected = GATED_N as u64 * GATED_WRITES;
            let verdict = if report.steps == expected && report.all_correct_decided() {
                Ok(())
            } else {
                Err(format!("{} steps, expected {expected}", report.steps))
            };
            ledger.record("gated floor run", verdict);
            steps += report.steps;
        }
        let (wall, cpu) =
            (t0.elapsed().as_secs_f64(), process_cpu().as_secs_f64() - c0.as_secs_f64());
        Gated {
            us_per_step: wall * 1e6 / steps as f64,
            cpu_us_per_step: cpu * 1e6 / steps as f64,
            wait_share: (wall - cpu) / wall,
        }
    })
}

pub struct Agreement {
    pub sa_propose_ns: f64,
    pub sa_decide_ns: f64,
    pub xsa_propose_ns: f64,
    pub x_compete_ns: f64,
}

const AG_N: usize = 4;
const AG_X: u32 = 2;
const AG_INSTANCES: u64 = 400;

/// Agreement objects on `ModelWorld::new_free`: every operation runs
/// immediately under the world lock, with no scheduler. One fresh
/// instance per round; each process calls once per round.
pub fn agreement(ledger: &mut Ledger) -> Agreement {
    let mut sa_propose = Vec::new();
    let mut sa_decide = Vec::new();
    let mut xsa_propose = Vec::new();
    let mut compete = Vec::new();
    for batch in 0..5u64 {
        let world = ModelWorld::new_free(AG_N);
        let envs: Vec<Env<ModelWorld>> = (0..AG_N).map(|p| Env::new(world.clone(), p)).collect();
        let calls = (AG_INSTANCES * AG_N as u64) as f64;
        let insts = batch * AG_INSTANCES..(batch + 1) * AG_INSTANCES;
        let (mut propose, mut decide) = (Duration::ZERO, Duration::ZERO);
        let mut agreed = true;
        for inst in insts.clone() {
            let sa = SafeAgreement::new(980, inst, AG_N);
            let t = Instant::now();
            for env in &envs {
                sa.propose(env, 100 + env.pid() as u64);
            }
            propose += t.elapsed();
            let t = Instant::now();
            let decided: Vec<Option<u64>> = envs.iter().map(|e| sa.try_decide(e)).collect();
            decide += t.elapsed();
            agreed &= decided.iter().all(|d| d.is_some() && *d == decided[0]);
        }
        ledger.record("safe agreement", agreed.then_some(()).ok_or("disagreement".into()));
        sa_propose.push(ns(propose) / calls);
        sa_decide.push(ns(decide) / calls);

        let t = Instant::now();
        for inst in insts.clone() {
            let ag = XSafeAgreement::new(970, inst, AG_N, AG_X);
            for env in &envs {
                ag.propose(env, 100 + env.pid() as u64);
            }
        }
        xsa_propose.push(ns(t.elapsed()) / calls);

        let mut winners = 0;
        let t = Instant::now();
        for inst in insts {
            for env in &envs {
                winners += u32::from(x_compete(env, 960, inst, AG_X));
            }
        }
        compete.push(ns(t.elapsed()) / calls);
        let expected = AG_X * AG_INSTANCES as u32;
        ledger.record(
            "x_compete",
            (winners == expected)
                .then_some(())
                .ok_or(format!("{winners} winners, expected {expected}")),
        );
    }
    Agreement {
        sa_propose_ns: median(&sa_propose),
        sa_decide_ns: median(&sa_decide),
        xsa_propose_ns: median(&xsa_propose),
        x_compete_ns: median(&compete),
    }
}
