//! The deterministic, crash-injecting model world.
//!
//! [`ModelWorld`] executes a set of virtual processes — arbitrary Rust
//! closures over [`Env`] — under a *step gate*: every shared-memory
//! operation first waits for a grant from the scheduler, which issues one
//! grant at a time. Consequences:
//!
//! * every operation is an atomic step (linearizability by construction),
//!   matching the paper's model where processes "execute a sequence of
//!   atomic steps";
//! * runs are **deterministic**: given the same [`RunConfig`] (schedule
//!   seed, crash policy) and the same process bodies, the step trace and
//!   all outcomes are identical;
//! * crashes are delivered *instead of* a process's next step, i.e. between
//!   two shared accesses — so a crash can land in the middle of a
//!   multi-step protocol (e.g. inside `sa_propose`), which is precisely the
//!   failure mode the BG-style simulations must tolerate.
//!
//! Processes signal decision by returning a `u64` from their body. A run
//! ends when every process has returned or crashed, or when the step budget
//! is exhausted (remaining processes are reported [`Outcome::Undecided`] —
//! used by the boundary experiments to detect forever-blocked simulations).
//!
//! **One state, three modes.** The model-world state is one struct,
//! [`Snapshot`]: shared memory, per-process liveness, results,
//! observation histories, store buffers and step counters. Every mode
//! steps it, one operation at a time, through the same code: the object
//! semantics of `Object`, the store-buffer flush and drain, the state
//! fingerprint, and the run report.
//!
//! * The **free** mode ([`ModelWorld::new_free`]) has no scheduler:
//!   every operation runs at once under the world lock, so any number of
//!   real threads may share one world (linearizable, not deterministic).
//! * The **gated** engine ([`ModelWorld::run`]) gives each process its
//!   own thread and grants steps through a handshake; the threads hold
//!   the continuations, so the state's operation logs stay empty.
//! * The **resume** engine ([`ModelWorld::resume_from`]) treats a
//!   [`Snapshot`] as a checkpoint: the per-process operation logs are
//!   continuation cursors, and a single further step is executed *on
//!   the caller thread* — no process threads, no scheduler handshakes.
//!   The exhaustive explorer ([`crate::explore`]) is built on it.
//!
//! A gated crash or timeout, and a resume park, halt a process body by
//! unwinding it with a private payload through
//! [`std::panic::resume_unwind`], which skips the panic hook: the host's
//! hook sees only real algorithm bugs.

pub(crate) mod codec;
mod snapshot;

pub use codec::{CodecError, CODEC_VERSION};
pub use snapshot::Snapshot;

use snapshot::{LogEntry, ResumeCtl, ResumeGate};

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::fingerprint::{fp_of, mix, Fnv1a};
use crate::sched::{CrashState, Crashes, Pick, Schedule, ScheduleState};
use crate::world::{Env, MemVal, ObjKey, Pid, Stored};
use std::hash::Hasher;

/// The unwind payload that halts a process body: a gated crash or
/// timeout, or a resume park (see [`Snapshot`]). [`ModelWorld::step`]
/// raises it with [`std::panic::resume_unwind`], which never calls the
/// panic hook; a world runs in one mode, so the payload needs no kind.
struct Halt;

/// How long the scheduler waits for the processes to settle — a granted
/// process to take its step and run on to its next gate, return or fail —
/// before declaring the harness wedged (indicates a bug in a process body,
/// e.g. an infinite local loop that never touches shared memory).
const STEP_GRANT_TIMEOUT: Duration = Duration::from_secs(60);

/// Final status of one virtual process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The process returned (decided) this value.
    Decided(u64),
    /// The process was crashed by the adversary.
    Crashed,
    /// The process was still running when the step budget ran out
    /// (blocked forever, or simply starved).
    Undecided,
}

impl Outcome {
    /// The decided value, if any.
    pub fn decided(&self) -> Option<u64> {
        match self {
            Outcome::Decided(v) => Some(*v),
            _ => None,
        }
    }
}

/// Result of a [`ModelWorld::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-process outcome, indexed by [`Pid`].
    pub outcomes: Vec<Outcome>,
    /// Total completed shared-memory steps.
    pub steps: u64,
    /// `true` if the step budget was exhausted before every process
    /// finished or crashed.
    pub timed_out: bool,
    /// The schedule of completed steps, if requested via
    /// [`RunConfig::record_trace`].
    pub trace: Option<Vec<Pid>>,
    /// The global-state fingerprint after each pick, if requested via
    /// [`RunConfig::record_state_hashes`]; entry `i` identifies the state
    /// reached by the schedule prefix of `i + 1` picks (shared memory +
    /// per-process observation history + liveness flags + results).
    /// Equal fingerprints mean equal futures under equal schedule
    /// suffixes — the prefix-pruning invariant of [`crate::explore`].
    pub state_hashes: Option<Vec<u64>>,
    /// Completed shared-memory operations per object-kind namespace —
    /// the cost breakdown of a run (e.g. how many steps went to the BG
    /// simulation's input agreements vs. snapshot agreements vs. `MEM`).
    /// Sorted by kind for stable output.
    pub ops_by_kind: Vec<(u32, u64)>,
}

impl RunReport {
    /// Values decided by processes that finished.
    pub fn decided_values(&self) -> Vec<u64> {
        self.outcomes.iter().filter_map(Outcome::decided).collect()
    }

    /// Pids crashed by the adversary.
    pub fn crashed_pids(&self) -> Vec<Pid> {
        self.pids_with(|o| matches!(o, Outcome::Crashed))
    }

    /// Pids that neither decided nor crashed (blocked/starved at timeout).
    pub fn undecided_pids(&self) -> Vec<Pid> {
        self.pids_with(|o| matches!(o, Outcome::Undecided))
    }

    /// Completed operations on object kind `kind` (0 if none).
    pub fn ops_on_kind(&self, kind: u32) -> u64 {
        self.ops_by_kind.iter().find(|(k, _)| *k == kind).map_or(0, |(_, c)| *c)
    }

    /// `true` iff every non-crashed process decided.
    pub fn all_correct_decided(&self) -> bool {
        self.outcomes.iter().all(|o| !matches!(o, Outcome::Undecided))
    }

    /// Number of distinct decided values.
    pub fn distinct_decisions(&self) -> usize {
        let mut v = self.decided_values();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    fn pids_with(&self, f: impl Fn(&Outcome) -> bool) -> Vec<Pid> {
        self.outcomes.iter().enumerate().filter(|(_, o)| f(o)).map(|(p, _)| p).collect()
    }
}

/// Configuration of one model-world run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    n: usize,
    schedule: Schedule,
    crashes: Crashes,
    max_steps: u64,
    record_trace: bool,
    record_state_hashes: bool,
    view_summaries: bool,
    tso: bool,
}

impl RunConfig {
    /// A run of `n` processes with the default schedule (seeded random),
    /// no crashes, and a 2-million-step budget.
    pub fn new(n: usize) -> Self {
        RunConfig {
            n,
            schedule: Schedule::default(),
            crashes: Crashes::None,
            max_steps: 2_000_000,
            record_trace: false,
            record_state_hashes: false,
            view_summaries: false,
            tso: false,
        }
    }

    /// The exact configuration a recorded choice vector must be re-run
    /// under: `n` processes, the original crash plan and step budget, and
    /// the [`Schedule::Indexed`] policy over `choices`.
    ///
    /// Built by [`crate::explore::Explorer::replay`] from the explorer's
    /// own configuration — the one path that re-runs its choice vectors,
    /// counterexample confirmation included — so reproduction configs
    /// cannot drift from sweep configs.
    pub fn replay(n: usize, crashes: Crashes, max_steps: u64, choices: &[usize]) -> Self {
        RunConfig::new(n)
            .schedule(Schedule::Indexed { choices: choices.to_vec() })
            .crashes(crashes)
            .max_steps(max_steps)
    }

    /// Sets the scheduling policy.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Sets the crash adversary.
    pub fn crashes(mut self, c: Crashes) -> Self {
        self.crashes = c;
        self
    }

    /// Sets the step budget.
    pub fn max_steps(mut self, m: u64) -> Self {
        self.max_steps = m;
        self
    }

    /// Records the step trace into the report (for determinism tests).
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Records a global-state fingerprint after every pick (for the
    /// explorer's visited-state pruning). Enables the per-operation
    /// fingerprint bookkeeping, so leave it off for plain runs.
    pub fn record_state_hashes(mut self, yes: bool) -> Self {
        self.record_state_hashes = yes;
        self
    }

    /// Folds **declared view summaries** ([`Env::snap_scan_via`])
    /// instead of raw views into the per-process observation histories
    /// the state fingerprints hash. Only meaningful together with
    /// [`RunConfig::record_state_hashes`]; run *behavior* is identical
    /// either way (the calling process only ever receives the summary).
    /// Off by default so recorded state hashes stay comparable with the
    /// summary-free engine; the explorer switches it on under
    /// [`crate::explore::Reduction::view_summaries`].
    pub fn view_summaries(mut self, yes: bool) -> Self {
        self.view_summaries = yes;
        self
    }

    /// Explores **TSO (total store order)** semantics instead of
    /// sequential consistency: every `reg_write` / `snap_write` *enqueues*
    /// into the calling process's FIFO store buffer (one atomic step, but
    /// no memory change), and the buffered write reaches shared memory
    /// only when a distinct **flush** action is scheduled —
    /// [`crate::sched::Schedule::Indexed`]'s third index band,
    /// `2 * alive.len() .. 2 * alive.len() + n`, addressing buffers by
    /// raw pid (buffers keep draining after their owner finishes or
    /// crashes: the hardware owns them, not the process). Reads forward
    /// from the issuing process's own buffer (newest entry per
    /// object/cell); `tas` / `xcons_propose` / [`Env::fence`] drain the
    /// caller's buffer before (or as) their step, the x86-TSO fence
    /// discipline. Off by default — SC runs are byte-identical to the
    /// pre-TSO engine.
    ///
    /// Gated TSO runs require an [`crate::sched::Schedule::Indexed`]
    /// policy (no other policy can schedule flushes); the exhaustive
    /// explorer enumerates flush branches natively
    /// (`crate::explore::Explorer::tso`).
    pub fn tso(mut self, yes: bool) -> Self {
        self.tso = yes;
        self
    }

    /// Whether the run explores TSO store-buffer semantics.
    pub fn is_tso(&self) -> bool {
        self.tso
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// A process body: runs with an [`Env`] handle and returns its decision.
pub type Body = Box<dyn FnOnce(Env<ModelWorld>) -> u64 + Send>;

/// A program's declaration that it is **pid-symmetric**: permuting the
/// process identities yields an automorphism of its transition system, so
/// the explorer may canonicalize visited-state identity under pid
/// permutation ([`Snapshot::fingerprint_symmetric`],
/// [`crate::explore::Reduction::symmetry`]).
///
/// The declaration consists of two pid-relabel maps over the `u64` leaves
/// the program stores and returns (both are plain `fn` pointers so the
/// spec stays `Copy` and needs no serialization — a resumed sweep
/// re-supplies it alongside the bodies, see
/// [`crate::explore::Explorer::resume_sweep_with_symmetry`]):
///
/// * `relabel_value(v, perm)` — how a value **written to shared memory or
///   returned by an operation** transforms when process `p` is renamed to
///   `perm[p]`. Values that carry no pid must map to themselves;
///   pid-carrying values (e.g. fig1's proposal `100 + p`) map through
///   `perm`. Applied structurally to every `u64` leaf of the codec's
///   closed value universe.
/// * `relabel_result(r, perm)` — the same map for the `u64` a process
///   body **returns** (its decision), which may use a different encoding
///   than stored values (fig1 returns `v + 1`).
///
/// Both maps must satisfy, for every value `v` in the program's reachable
/// universe and all permutations `π`, `σ`: `relabel(v, id) = v` and
/// `relabel(relabel(v, π), σ) = relabel(v, σ∘π)` — i.e. they are a group
/// action of the symmetric group on the value universe. The program's
/// bodies must be identical up to `relabel_value` of the pid-dependent
/// constants, and its checker must be permutation-closed (accept a run
/// iff it accepts every pid-permuted run). `docs/EXPLORER.md` §3 carries
/// the full soundness argument and §7 the program-side contract.
#[derive(Clone, Copy)]
pub struct Symmetry {
    /// Relabels a stored/observed `u64` leaf under a pid permutation.
    pub relabel_value: fn(u64, &[Pid]) -> u64,
    /// Relabels a decided (body-returned) `u64` under a pid permutation.
    pub relabel_result: fn(u64, &[Pid]) -> u64,
}

impl std::fmt::Debug for Symmetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Symmetry").finish_non_exhaustive()
    }
}

/// A stored value together with its fingerprint (0 when fingerprint
/// tracking is off — see [`Snapshot::track`]).
#[derive(Debug, Clone)]
struct Cell {
    val: Stored,
    fp: u64,
}

impl Cell {
    fn new<T: MemVal>(val: T, track: bool) -> Self {
        let fp = if track { fp_of(&val) } else { 0 };
        Cell { val: Arc::new(val), fp }
    }

    /// The stored value as a `T`; any other type is an algorithm bug.
    fn get<T: MemVal>(&self, key: ObjKey, what: &str) -> T {
        self.val
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("type mismatch reading {what} {key}"))
            .clone()
    }
}

/// One shared object, with the operation semantics every mode runs on
/// its [`Snapshot`]. Each operation panics on the algorithm bugs
/// [`Env`] lists: a kind, length, type or port mismatch.
#[derive(Debug, Clone)]
enum Object {
    Register(Option<Cell>),
    Snapshot(Vec<Option<Cell>>),
    Tas(bool),
    XCons { ports: Vec<Pid>, decided: Option<Cell> },
}

impl Object {
    /// Content fingerprint (independent of `HashMap` iteration order when
    /// XOR-combined per key into [`Snapshot::mem_fp`]).
    fn fp(&self) -> u64 {
        let mut h = Fnv1a::default();
        match self {
            Object::Register(slot) => {
                h.write_u64(1);
                h.write_u64(slot.as_ref().map_or(u64::MAX, |c| c.fp));
            }
            Object::Snapshot(cells) => {
                h.write_u64(2);
                for c in cells {
                    h.write_u64(c.as_ref().map_or(u64::MAX, |c| c.fp));
                }
            }
            Object::Tas(taken) => {
                h.write_u64(3);
                h.write_u64(u64::from(*taken));
            }
            // `ports` is static per key (checked on every access) and so
            // carries no state.
            Object::XCons { decided, .. } => {
                h.write_u64(4);
                h.write_u64(decided.as_ref().map_or(u64::MAX, |c| c.fp));
            }
        }
        h.finish()
    }

    /// Writes the register.
    fn write_register(&mut self, key: ObjKey, cell: Cell) {
        match self {
            Object::Register(slot) => *slot = Some(cell),
            other => panic!("object {key} is not a register: {other:?}"),
        }
    }

    /// Reads the register (`None` if never written).
    fn read_register<T: MemVal>(&self, key: ObjKey) -> Option<T> {
        match self {
            Object::Register(slot) => slot.as_ref().map(|c| c.get(key, "register")),
            other => panic!("object {key} is not a register: {other:?}"),
        }
    }

    /// Writes cell `idx` of the `len`-cell snapshot object.
    fn write_cell(&mut self, key: ObjKey, len: usize, idx: usize, cell: Cell) {
        match self {
            Object::Snapshot(cells) => {
                assert_eq!(cells.len(), len, "snapshot {key} length mismatch");
                cells[idx] = Some(cell);
            }
            other => panic!("object {key} is not a snapshot object: {other:?}"),
        }
    }

    /// Reads every cell of the `len`-cell snapshot object.
    fn scan<T: MemVal>(&self, key: ObjKey, len: usize) -> Vec<Option<T>> {
        match self {
            Object::Snapshot(cells) => {
                assert_eq!(cells.len(), len, "snapshot {key} length mismatch");
                cells.iter().map(|c| c.as_ref().map(|c| c.get(key, "snapshot cell"))).collect()
            }
            other => panic!("object {key} is not a snapshot object: {other:?}"),
        }
    }

    /// One-shot test&set: `true` to the first invocation only.
    fn test_and_set(&mut self, key: ObjKey) -> bool {
        match self {
            Object::Tas(taken) => !std::mem::replace(taken, true),
            other => panic!("object {key} is not a test&set object: {other:?}"),
        }
    }

    /// Proposes `val` through port `pid` and returns the decided value —
    /// the first proposal, stored with its fingerprint under `track`.
    fn propose<T: MemVal>(
        &mut self,
        pid: Pid,
        key: ObjKey,
        ports: &[Pid],
        val: T,
        track: bool,
    ) -> T {
        assert!(
            ports.contains(&pid),
            "process {pid} is not a port of consensus object {key} (ports {ports:?})"
        );
        match self {
            Object::XCons { ports: stored_ports, decided } => {
                assert_eq!(
                    stored_ports, ports,
                    "consensus object {key} accessed with inconsistent port sets"
                );
                decided.get_or_insert_with(|| Cell::new(val, track)).get(key, "consensus object")
            }
            other => panic!("object {key} is not a consensus object: {other:?}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Permit {
    Idle,
    Granted,
    Crash,
}

/// What drives the processes of a [`ModelWorld`].
enum Mode {
    /// No scheduler: every operation proceeds at once, on whichever
    /// thread issues it ([`ModelWorld::new_free`]).
    Free,
    /// The gated engine ([`ModelWorld::run`]): one thread per process,
    /// one scheduler grant per step.
    Gated,
    /// The resume engine: one process is driven from a [`Snapshot`] on
    /// the caller thread; [`ModelWorld::step`] replays its operation log
    /// and executes exactly the granted fresh operations (see
    /// [`snapshot`]).
    Resume(ResumeCtl),
}

/// A world's state: the model-world state proper plus the gated
/// engine's scheduler handshake.
struct State {
    /// The model-world state, the one struct every engine steps. In free
    /// and gated runs its operation logs and pending footprints stay
    /// empty: the process threads hold the continuations.
    snap: Snapshot,
    mode: Mode,
    permits: Vec<Permit>,
    /// Process is parked at its gate, ready to take a granted step. The
    /// scheduler only picks among *settled* processes (waiting, finished or
    /// crashed), which makes the alive set — and hence branch degrees and
    /// traces — deterministic instead of racing with finish recording.
    /// [`ModelWorld::grant`] clears the flag, so the next settle wait
    /// covers the granted step.
    waiting: Vec<bool>,
    failures: Vec<(Pid, String)>,
    trace: Vec<Pid>,
}

/// Operation tags folded into [`Snapshot::obs_fp`].
const OP_REG_WRITE: u64 = 1;
const OP_REG_READ: u64 = 2;
const OP_SNAP_WRITE: u64 = 3;
const OP_SNAP_SCAN: u64 = 4;
const OP_TAS: u64 = 5;
const OP_XCONS: u64 = 6;
/// An [`Env::fence`] step (TSO mode only: under SC a fence never gates).
const OP_FENCE: u64 = 7;
/// The footprint tag of a store-buffer **flush** action (TSO mode). Never
/// appears in operation logs — a flush is a hardware action, not a process
/// step — only in [`Footprint`]s and the explorer's action encoding.
const OP_FLUSH: u64 = 8;

/// Object-kind namespace of the per-process pseudo-key a fence step is
/// accounted and logged under (`ObjKey::new(FENCE_KIND, pid, 0)`): fences
/// touch no single object, so they get a key outside every program
/// family.
const FENCE_KIND: u32 = u32::MAX;

/// One write of a register or a snapshot cell: the target object, the
/// snapshot cell for `snap_write` (`None` for a register write), the
/// snapshot length (to default-create the object), and the value with
/// its fingerprint. Under SC it reaches memory in its own step; under
/// TSO it parks in the writer's FIFO store buffer until a flush.
#[derive(Debug, Clone)]
struct BufferedWrite {
    key: ObjKey,
    cell_idx: Option<usize>,
    len: usize,
    cell: Cell,
}

impl BufferedWrite {
    /// The dependency footprint of flushing this entry: a write to the
    /// target object (cell-granular for snapshot cells), so
    /// [`Footprint::commutes`] gives flush/flush independence on distinct
    /// objects and flush/read conflicts on the flushed object for free.
    fn flush_footprint(&self) -> Footprint {
        Footprint::new(OP_FLUSH, self.key, self.cell_idx.map(|i| i as u64), false)
    }
}

/// Per-process store-buffer fingerprint: an order-sensitive fold of
/// `(key, cell, value fp)` per entry — mixed into the owner's flags word
/// by the state fingerprints whenever the buffer is non-empty, so
/// SC states (and TSO states with drained buffers) keep their exact
/// pre-TSO identities.
fn buffer_fp(buf: &[BufferedWrite]) -> u64 {
    let mut acc = 0u64;
    for w in buf {
        let mut h = Fnv1a::default();
        h.write_u64(u64::from(w.key.kind));
        h.write_u64(w.key.a);
        h.write_u64(w.key.b);
        h.write_u64(w.cell_idx.map_or(u64::MAX, |i| i as u64));
        h.write_u64(w.cell.fp);
        acc = mix(acc, h.finish());
    }
    acc
}

/// The dependency footprint of one shared-memory operation: which object
/// it touches, at what granularity, and whether it can change memory.
///
/// A [`Snapshot`] records the footprint of the operation each parked
/// process is about to execute ([`Snapshot::pending_footprint`]); the
/// exhaustive explorer's DPOR-style reduction ([`crate::explore`]) uses
/// [`Footprint::commutes`] to recognize adjacent independent actions and
/// explore them in canonical order only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Operation tag (the `OP_*` log-entry tag).
    op: u64,
    /// The object accessed.
    pub key: ObjKey,
    /// For `snap_write`: the cell written. Writes to distinct cells of
    /// the same snapshot object commute.
    pub cell: Option<u64>,
    /// Pure read (`reg_read` / `snap_scan`): cannot change shared memory.
    pub pure_read: bool,
}

impl Footprint {
    const fn new(op: u64, key: ObjKey, cell: Option<u64>, pure_read: bool) -> Self {
        Footprint { op, key, cell, pure_read }
    }

    /// `true` when the two operations, executed adjacently by two
    /// *different* processes, commute as actions: either order yields the
    /// same shared memory, and each operation returns the same value
    /// either way (so both processes' observation histories — and hence
    /// their control states — also agree across the two orders).
    ///
    /// Conservative by construction: `false` never loses soundness, it
    /// only costs reduction. The recognized independent pairs are
    ///
    /// * two pure reads (any objects),
    /// * operations on different objects,
    /// * `snap_write`s to *distinct cells* of the same snapshot object
    ///   (each writer observes only its own completion).
    pub fn commutes(&self, other: &Footprint) -> bool {
        if self.pure_read && other.pure_read {
            return true;
        }
        if self.key != other.key {
            return true;
        }
        match (self.cell, other.cell) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    /// `true` for operations that drain the caller's store buffer under
    /// TSO (`tas`, `xcons_propose`, [`Env::fence`]): their step may
    /// write *several* objects beyond [`Footprint::key`], so the TSO
    /// explorer treats them as conflicting with every adjacent action
    /// instead of trusting the single-key footprint. SC commutation is
    /// untouched — buffers are empty there, and the SC reduction never
    /// consults this.
    pub(crate) fn fences(&self) -> bool {
        matches!(self.op, OP_TAS | OP_XCONS | OP_FENCE)
    }
}

/// `hash(key, object-content)` — the per-key word XOR-folded into
/// [`Snapshot::mem_fp`].
fn key_obj_fp(key: ObjKey, obj: &Object) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(u64::from(key.kind));
    h.write_u64(key.a);
    h.write_u64(key.b);
    h.write_u64(obj.fp());
    h.finish()
}

impl Snapshot {
    /// Folds one completed operation of `pid` into its observation
    /// fingerprint (only called when [`Snapshot::track`] is set).
    fn observe(&mut self, pid: Pid, op: u64, key: ObjKey, result_fp: u64) {
        let mut h = Fnv1a::default();
        h.write_u64(op);
        h.write_u64(u64::from(key.kind));
        h.write_u64(key.a);
        h.write_u64(key.b);
        h.write_u64(result_fp);
        self.obs_fp[pid] = mix(self.obs_fp[pid], h.finish());
    }

    /// Runs `f` on the object at `key` (created via `default` on first
    /// access), maintaining the incremental memory fingerprint
    /// [`Snapshot::mem_fp`]: the key's contribution is XORed out before and
    /// back in after the access, and a freshly defaulted object is XORed
    /// in — so `mem_fp` always equals the full-map walk without ever
    /// recomputing it (asserted in debug builds on the gated engine's
    /// per-pick fingerprints).
    fn with_obj<R>(
        &mut self,
        key: ObjKey,
        default: impl FnOnce() -> Object,
        f: impl FnOnce(&mut Object) -> R,
    ) -> R {
        let track = self.track;
        let existed = !track || self.objects.contains_key(&key);
        let obj = self.objects.entry(key).or_insert_with(default);
        let before = if track && existed { key_obj_fp(key, obj) } else { 0 };
        let out = f(obj);
        if track {
            let after = key_obj_fp(key, obj);
            self.mem_fp ^= before ^ after;
        }
        out
    }

    /// `pid`'s write step: under SC the write reaches shared memory at
    /// once; under TSO it parks in `pid`'s store buffer and shared memory
    /// changes only at the flush step.
    fn write(&mut self, pid: Pid, w: BufferedWrite) {
        if self.track {
            let (op, result_fp) = match w.cell_idx {
                None => (OP_REG_WRITE, w.cell.fp),
                Some(idx) => (OP_SNAP_WRITE, mix(idx as u64, w.cell.fp)),
            };
            self.observe(pid, op, w.key, result_fp);
        }
        if self.tso {
            self.buffers[pid].push(w);
        } else {
            self.apply(w);
        }
    }

    /// Applies one write to shared memory: a direct write under SC, or a
    /// store-buffer entry reaching memory under TSO.
    fn apply(&mut self, w: BufferedWrite) {
        let BufferedWrite { key, cell_idx, len, cell } = w;
        match cell_idx {
            None => {
                self.with_obj(key, || Object::Register(None), |obj| obj.write_register(key, cell))
            }
            Some(idx) => self.with_obj(
                key,
                || Object::Snapshot(vec![None; len]),
                |obj| obj.write_cell(key, len, idx, cell),
            ),
        }
    }

    /// `pid`'s read of register `key`. Under TSO a read sees the newest
    /// entry for the register in the *issuing process's own* buffer,
    /// ahead of shared memory (store-to-load forwarding); other
    /// processes' buffers are invisible — that is exactly the SB
    /// reordering.
    fn read<T: MemVal>(&mut self, pid: Pid, key: ObjKey) -> Option<T> {
        let out = self.with_obj(key, || Object::Register(None), |obj| obj.read_register(key));
        match self.buffers[pid].iter().rev().find(|w| w.key == key && w.cell_idx.is_none()) {
            Some(w) => Some(w.cell.get(key, "buffered register write")),
            None => out,
        }
    }

    /// `pid`'s scan of the `len`-cell snapshot object `key`. Under TSO
    /// `pid`'s own buffered cells of `key` overlay the view in FIFO order
    /// (newest entry per cell wins).
    fn scan<T: MemVal>(&mut self, pid: Pid, key: ObjKey, len: usize) -> Vec<Option<T>> {
        let mut view =
            self.with_obj(key, || Object::Snapshot(vec![None; len]), |obj| obj.scan(key, len));
        for w in self.buffers[pid].iter().filter(|w| w.key == key) {
            let i = w.cell_idx.unwrap_or_else(|| {
                panic!("object {key} is not a register: buffered kind mismatch")
            });
            view[i] = Some(w.cell.get(key, "buffered snapshot cell"));
        }
        view
    }

    /// Flushes the oldest entry of `pid`'s store buffer to shared memory
    /// (TSO mode) — one global step of the hardware, not of any process:
    /// memory, the buffer and the total step count change; logs,
    /// observation histories and own-step clocks do not. Panics if the
    /// buffer is empty.
    pub(super) fn flush(&mut self, pid: Pid) {
        assert!(!self.buffers[pid].is_empty(), "flush of an empty store buffer (pid {pid})");
        let w = self.buffers[pid].remove(0);
        self.apply(w);
        self.steps += 1;
    }

    /// Drains `pid`'s store buffer to shared memory in FIFO order — the
    /// x86-TSO semantics of atomic read-modify-write operations and
    /// fences, executed as part of the draining step (a no-op under SC,
    /// where buffers are always empty).
    fn drain(&mut self, pid: Pid) {
        for w in std::mem::take(&mut self.buffers[pid]) {
            self.apply(w);
        }
    }

    /// The full-map recomputation of [`Snapshot::mem_fp`] — the gated
    /// engine's debug-build cross-check of the incremental accumulator,
    /// and the codec's check of a decoded one.
    fn recompute_mem_fp(&self) -> u64 {
        self.objects.iter().fold(0u64, |acc, (key, obj)| acc ^ key_obj_fp(*key, obj))
    }

    /// Accounts one completed operation of `pid` on an object of `kind`:
    /// its own-step clock, the path's total step count and the per-kind
    /// op counter.
    fn count_op(&mut self, pid: Pid, kind: u32) {
        self.own_steps[pid] += 1;
        self.steps += 1;
        *self.op_counts.entry(kind).or_insert(0) += 1;
    }
}

struct Inner {
    st: Mutex<State>,
    proc_cvs: Vec<Condvar>,
    sched_cv: Condvar,
}

/// The deterministic model world, in one of three modes: free
/// ([`ModelWorld::new_free`]), gated ([`ModelWorld::run`]) or resumed
/// ([`ModelWorld::resume_from`]). Cheap to clone (shared handle).
///
/// See the [module docs](self) for the execution model, and
/// [`ModelWorld::run`] for the entry point.
#[derive(Clone)]
pub struct ModelWorld {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ModelWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.st.lock();
        f.debug_struct("ModelWorld")
            .field("n", &st.snap.n)
            .field("objects", &st.snap.objects.len())
            .field("free", &matches!(st.mode, Mode::Free))
            .finish()
    }
}

impl ModelWorld {
    /// A world driving `snap` in `mode`. Only the gated engine needs the
    /// per-process handshake slots.
    fn with_state(snap: Snapshot, mode: Mode) -> Self {
        let n = if matches!(mode, Mode::Gated) { snap.n } else { 0 };
        let st = State {
            snap,
            mode,
            permits: vec![Permit::Idle; n],
            waiting: vec![false; n],
            failures: Vec::new(),
            trace: Vec::new(),
        };
        ModelWorld {
            inner: Arc::new(Inner {
                st: Mutex::new(st),
                proc_cvs: (0..n).map(|_| Condvar::new()).collect(),
                sched_cv: Condvar::new(),
            }),
        }
    }

    /// A world of `n` processes with no scheduler: every operation
    /// proceeds at once under the world lock.
    ///
    /// Real threads may share it (clones are handles to one world), one
    /// per pid in `0..n`: every operation is still one atomic step, so
    /// runs are linearizable, but the interleaving is whatever the OS
    /// scheduler produces — no determinism, no crash injection.
    pub fn new_free(n: usize) -> Self {
        ModelWorld::with_state(Snapshot::new(n, false, false, false), Mode::Free)
    }

    /// Runs `bodies` (one per process) to completion under `cfg`.
    ///
    /// Returns when every process has decided or crashed, or when the step
    /// budget is exhausted (then the remaining processes are reported
    /// [`Outcome::Undecided`] and [`RunReport::timed_out`] is set).
    ///
    /// # Panics
    ///
    /// Panics if `bodies.len() != cfg.n()`, or if any process body panics
    /// (a real bug in an algorithm under test; crashes and timeouts halt
    /// bodies without a panic).
    pub fn run(cfg: RunConfig, bodies: Vec<Body>) -> RunReport {
        assert_eq!(bodies.len(), cfg.n(), "one body per process required");
        assert!(
            !cfg.tso || matches!(cfg.schedule, Schedule::Indexed { .. }),
            "TSO gated runs require Schedule::Indexed (no other policy schedules flushes)"
        );
        let n = cfg.n();
        let world = ModelWorld::with_state(
            Snapshot::new(n, cfg.record_state_hashes, cfg.view_summaries, cfg.tso),
            Mode::Gated,
        );
        let mut sched = ScheduleState::new(cfg.schedule.clone());
        let mut crash = CrashState::new(cfg.crashes.clone());

        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(pid, body)| {
                let w = world.clone();
                std::thread::Builder::new()
                    .name(format!("mpcn-proc-{pid}"))
                    .spawn(move || w.drive(pid, body))
                    .expect("spawn virtual process thread")
            })
            .collect();

        let mut picks: usize = 0;
        let mut timed_out = false;
        let mut state_hashes: Vec<u64> = Vec::new();
        loop {
            let (alive, flushable, steps) = {
                // Wait until every process is settled (parked at its gate,
                // finished, or crashed): the alive set is then a pure
                // function of the schedule prefix, so runs are replayable.
                let mut st = world.inner.st.lock();
                loop {
                    let settled =
                        (0..n).all(|p| st.waiting[p] || st.snap.finished[p] || st.snap.crashed[p]);
                    if settled {
                        break;
                    }
                    if world.inner.sched_cv.wait_for(&mut st, STEP_GRANT_TIMEOUT).timed_out() {
                        panic!(
                            "a virtual process did not settle within {STEP_GRANT_TIMEOUT:?} (runaway local loop?)"
                        );
                    }
                }
                // The state reached by the previous pick, now that its
                // effects are settled.
                if cfg.record_state_hashes && picks > state_hashes.len() {
                    debug_assert_eq!(
                        st.snap.mem_fp,
                        st.snap.recompute_mem_fp(),
                        "incremental memory fingerprint drifted from the full-map walk"
                    );
                    state_hashes.push(st.snap.fingerprint());
                }
                (st.snap.alive(), st.snap.flushable(), st.snap.steps)
            };
            // A TSO run is terminal only once every buffer has drained:
            // undelivered writes still change shared memory.
            if alive.is_empty() && flushable.is_empty() {
                break;
            }
            if steps >= cfg.max_steps {
                timed_out = true;
                for p in alive {
                    world.unwind(p);
                }
                break;
            }
            picks += 1;
            let (pid, crash_pick) = match sched.pick(&alive, &flushable) {
                Pick::Flush(p) => {
                    world.inner.st.lock().snap.flush(p);
                    continue;
                }
                Pick::Crash(p) => (p, true),
                Pick::Op(p) => (p, false),
            };
            let own = world.inner.st.lock().snap.own_steps[pid];
            // A crash-flagged pick delivers one of the crash-count
            // adversary's budgeted crashes (inert under other policies);
            // otherwise the crash policy decides, as always.
            let crashes_now =
                if crash_pick { crash.force_crash() } else { crash.should_crash(pid, own) };
            if crashes_now {
                world.crash(pid);
            } else {
                world.grant(pid, cfg.record_trace);
            }
        }

        for h in handles {
            h.join().expect("virtual process thread never panics (crashes are caught)");
        }

        let mut st = world.inner.st.lock();
        if let Some((pid, msg)) = st.failures.first() {
            panic!("virtual process {pid} failed: {msg}");
        }
        debug_assert!(
            !cfg.record_state_hashes || timed_out || state_hashes.len() == picks,
            "one state fingerprint per pick ({} hashes, {picks} picks)",
            state_hashes.len()
        );
        let mut report = st.snap.report(timed_out);
        report.trace = cfg.record_trace.then(|| std::mem::take(&mut st.trace));
        report.state_hashes = cfg.record_state_hashes.then_some(state_hashes);
        report
    }

    /// Thread body for one virtual process.
    fn drive(&self, pid: Pid, body: Body) {
        let env = Env::new(self.clone(), pid);
        let result = catch_unwind(AssertUnwindSafe(move || body(env)));
        let mut st = self.inner.st.lock();
        match result {
            Ok(v) => st.snap.finish(pid, v),
            // The scheduler recorded an adversary crash when it delivered
            // it; the timeout sweep's halts stay unrecorded, so those
            // processes report `Undecided`.
            Err(payload) if payload.is::<Halt>() => {}
            Err(payload) => {
                st.failures.push((pid, panic_message(payload.as_ref())));
                // Settled, so the run can end and report the failure.
                st.snap.crashed[pid] = true;
            }
        }
        self.inner.sched_cv.notify_one();
    }

    /// Grants one step to `pid` and records it in the trace. `pid` is no
    /// longer settled, so the run loop's next settle wait covers the step
    /// and the body's run to its next gate. A granted process always
    /// completes its operation; if the operation panics instead, the run
    /// panics with that failure, so the trace is never observed.
    fn grant(&self, pid: Pid, record_trace: bool) {
        let mut st = self.inner.st.lock();
        st.permits[pid] = Permit::Granted;
        st.waiting[pid] = false;
        if record_trace {
            st.trace.push(pid);
        }
        self.inner.proc_cvs[pid].notify_one();
    }

    /// Delivers an adversary crash to `pid` instead of its next step: the
    /// state records it, as [`ModelWorld::resume_crash`] does, and the
    /// process thread unwinds at its gate.
    fn crash(&self, pid: Pid) {
        self.inner.st.lock().snap.crash(pid);
        self.unwind(pid);
    }

    /// Unwinds `pid`'s thread at its gate without recording a crash (the
    /// timeout sweep); the run joins the thread before it reports.
    fn unwind(&self, pid: Pid) {
        self.inner.st.lock().permits[pid] = Permit::Crash;
        self.inner.proc_cvs[pid].notify_one();
    }

    /// Performs one shared-memory step of `pid`: runs `op` on the state
    /// (object map + fingerprint bookkeeping) and counts the step — the
    /// process's own-step clock, the total step count and the per-kind
    /// op counter — in every mode. `footprint` describes the operation's
    /// dependency surface (object, cell granularity, purity — published
    /// while parked, for the explorer's reductions).
    ///
    /// In the gated mode the step first waits for the scheduler's grant;
    /// the scheduler sees the step done once the body settles again (at
    /// its next gate, or finished).
    ///
    /// In the resume mode ([`Snapshot`]) the first `log.len()` operations
    /// are answered from the recorded log without executing `op`; the
    /// granted fresh operations execute and are appended to the log; one
    /// operation past the budget unwinds with [`Halt`] — the process is
    /// then parked at its next gate, footprint recorded.
    fn step<R>(&self, pid: Pid, footprint: Footprint, op: impl FnOnce(&mut Snapshot) -> R) -> R
    where
        R: Clone + Send + Sync + 'static,
    {
        let key = footprint.key;
        let mut st = self.inner.st.lock();
        match &mut st.mode {
            Mode::Free => {}
            Mode::Resume(ctl) => match ctl.gate::<R>(pid, footprint.op, key) {
                ResumeGate::Replayed(out) => return out,
                ResumeGate::Park => {
                    ctl.park_at(footprint);
                    drop(st);
                    std::panic::resume_unwind(Box::new(Halt));
                }
                ResumeGate::Fresh => {}
            },
            Mode::Gated => {
                st.waiting[pid] = true;
                self.inner.sched_cv.notify_one();
                loop {
                    match st.permits[pid] {
                        Permit::Granted => {
                            st.permits[pid] = Permit::Idle;
                            break;
                        }
                        Permit::Crash => {
                            st.waiting[pid] = false;
                            drop(st);
                            std::panic::resume_unwind(Box::new(Halt));
                        }
                        Permit::Idle => self.inner.proc_cvs[pid].wait(&mut st),
                    }
                }
            }
        }
        let out = op(&mut st.snap);
        st.snap.count_op(pid, key.kind);
        if let Mode::Resume(ctl) = &mut st.mode {
            ctl.push_fresh(LogEntry::new(footprint.op, key, Arc::new(out.clone())));
        }
        out
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The shared-memory operations of a process. Each is one atomic step of
/// [`Env::pid`] through the world's step gate, in every mode: under the
/// world lock when free, on the scheduler's grant when gated, and from the
/// operation log when resumed.
impl Env {
    /// Writes a multi-writer multi-reader atomic register.
    pub fn reg_write<T: MemVal>(&self, key: ObjKey, val: T) {
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_REG_WRITE, key, None, false), |st| {
            let cell = Cell::new(val, st.track);
            st.write(pid, BufferedWrite { key, cell_idx: None, len: 0, cell });
        });
    }

    /// Reads a multi-writer multi-reader atomic register. `None` if never
    /// written (the paper's `⊥`).
    pub fn reg_read<T: MemVal>(&self, key: ObjKey) -> Option<T> {
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_REG_READ, key, None, true), |st| {
            let out = st.read(pid, key);
            if st.track {
                st.observe(pid, OP_REG_READ, key, fp_of::<Option<T>>(&out));
            }
            out
        })
    }

    /// Writes cell `idx` of the `len`-cell snapshot object `key`.
    pub fn snap_write<T: MemVal>(&self, key: ObjKey, len: usize, idx: usize, val: T) {
        assert!(idx < len, "snapshot cell index {idx} out of range (len {len})");
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_SNAP_WRITE, key, Some(idx as u64), false), |st| {
            let cell = Cell::new(val, st.track);
            st.write(pid, BufferedWrite { key, cell_idx: Some(idx), len, cell });
        });
    }

    /// Atomically reads all cells of the `len`-cell snapshot object `key`.
    /// Unwritten cells read as `None` (the paper's `⊥`).
    pub fn snap_scan<T: MemVal>(&self, key: ObjKey, len: usize) -> Vec<Option<T>> {
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_SNAP_SCAN, key, None, true), |st| {
            let out: Vec<Option<T>> = st.scan(pid, key, len);
            if st.track {
                st.observe(pid, OP_SNAP_SCAN, key, fp_of(&out));
            }
            out
        })
    }

    /// Atomically scans the `len`-cell snapshot object `key` and returns
    /// `summarize(view)` — a **program-declared view summary**: the caller
    /// receives *only* the summary, never the raw view.
    ///
    /// Semantically identical to `summarize(&snap_scan(..))`, and still
    /// one atomic step. The point of declaring the summary at the
    /// operation is what it licenses the exhaustive explorer to do:
    /// because the calling process's continuation is a deterministic
    /// function of the values its operations *returned*, a scan that
    /// returns only `saw_stable` makes the process's control state a
    /// function of that one bit — so the model world may fold the
    /// summary, instead of the full `O(len)` view, into the process's
    /// observation identity
    /// ([`crate::explore::Reduction::view_summaries`]). Sound by
    /// construction: nothing the abstraction drops was ever visible to
    /// the program.
    ///
    /// The step has the *same* dependency footprint as [`Env::snap_scan`]
    /// (same key, pure read), so every commutation argument carries over
    /// unchanged. What differs is the observation fold: with
    /// [`RunConfig::view_summaries`] off, the **raw view** is folded
    /// exactly as a plain scan folds it (byte-identical state identity —
    /// recorded baselines cannot move); with it on, only the **declared
    /// summary** is folded, so live processes whose raw views differed
    /// but whose summaries agree become indistinguishable. The resume log
    /// records the summary either way (it is the value the operation
    /// returned).
    ///
    /// `summarize` is a plain `fn` pointer on purpose: it cannot capture
    /// mutable state, so it is structurally a pure function of the view
    /// (plus the caller's type parameters) — the determinism the model
    /// world's log-replay resumption requires.
    ///
    /// ```
    /// use mpcn_runtime::model_world::ModelWorld;
    /// use mpcn_runtime::world::{Env, ObjKey};
    ///
    /// let env = Env::new(ModelWorld::new_free(2), 0);
    /// let key = ObjKey::new(901, 0, 0);
    /// env.snap_write(key, 2, 0, 7u64);
    /// // The caller receives only the declared summary — here, how many
    /// // cells have been written — never the raw view.
    /// let written =
    ///     env.snap_scan_via::<u64, u64>(key, 2, |view| view.iter().flatten().count() as u64);
    /// assert_eq!(written, 1);
    /// ```
    pub fn snap_scan_via<T: MemVal, S: MemVal>(
        &self,
        key: ObjKey,
        len: usize,
        summarize: fn(&[Option<T>]) -> S,
    ) -> S {
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_SNAP_SCAN, key, None, true), |st| {
            let raw: Vec<Option<T>> = st.scan(pid, key, len);
            let out = summarize(&raw);
            if st.track {
                let result_fp = if st.viewsum { fp_of(&out) } else { fp_of(&raw) };
                st.observe(pid, OP_SNAP_SCAN, key, result_fp);
            }
            out
        })
    }

    /// Store-buffer drain point (a full memory fence). Under sequential
    /// consistency every write is globally visible the moment it
    /// completes, so a fence is a free no-op: it takes no scheduling step
    /// and leaves run traces untouched. Under the TSO exploration mode
    /// ([`RunConfig::tso`]) a fence is one atomic step that drains the
    /// calling process's FIFO store buffer to shared memory.
    pub fn fence(&self) {
        // The check reads the fixed `tso` mode flag only (never buffer
        // contents), so whether a fence gates is a pure function of the
        // run mode and log replay stays deterministic.
        if !self.world.inner.st.lock().snap.tso {
            return;
        }
        let pid = self.pid;
        let key = ObjKey::new(FENCE_KIND, pid as u64, 0);
        self.world.step(pid, Footprint::new(OP_FENCE, key, None, false), |st| {
            st.drain(pid);
            if st.track {
                st.observe(pid, OP_FENCE, key, 0);
            }
        });
    }

    /// One-shot test&set: `true` to the first invocation ever, `false` to
    /// all later ones.
    pub fn tas(&self, key: ObjKey) -> bool {
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_TAS, key, None, false), |st| {
            // x86-TSO: a LOCK'd RMW drains the issuing process's buffer as
            // part of its atomic step.
            st.drain(pid);
            let won = st.with_obj(key, || Object::Tas(false), |obj| obj.test_and_set(key));
            if st.track {
                st.observe(pid, OP_TAS, key, u64::from(won));
            }
            won
        })
    }

    /// Proposes `val` to the port-limited consensus object `key` and
    /// returns its decided value.
    ///
    /// `ports` is the static set of processes allowed to access the object;
    /// it must be identical across all accesses, contain the caller's pid,
    /// and its length is the object's consensus number `x`.
    pub fn xcons_propose<T: MemVal>(&self, key: ObjKey, ports: &[Pid], val: T) -> T {
        let pid = self.pid;
        self.world.step(pid, Footprint::new(OP_XCONS, key, None, false), |st| {
            // LOCK'd RMW under x86-TSO — see `tas`.
            st.drain(pid);
            let track = st.track;
            let out = st.with_obj(
                key,
                || Object::XCons { ports: ports.to_vec(), decided: None },
                |obj| obj.propose(pid, key, ports, val, track),
            );
            if st.track {
                st.observe(pid, OP_XCONS, key, fp_of(&out));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Crashes, Schedule};

    fn body(f: impl FnOnce(Env<ModelWorld>) -> u64 + Send + 'static) -> Body {
        Box::new(f)
    }

    const REG: ObjKey = ObjKey::new(1, 0, 0);
    const SNAP: ObjKey = ObjKey::new(2, 0, 0);
    const TAS: ObjKey = ObjKey::new(3, 0, 0);
    const CONS: ObjKey = ObjKey::new(4, 0, 0);

    #[test]
    fn free_world_register_semantics() {
        let p0 = Env::new(ModelWorld::new_free(1), 0);
        assert_eq!(p0.reg_read::<u64>(REG), None);
        p0.reg_write(REG, 17u64);
        assert_eq!(p0.reg_read::<u64>(REG), Some(17));
        p0.reg_write(REG, 18u64);
        assert_eq!(p0.reg_read::<u64>(REG), Some(18));
    }

    #[test]
    fn free_world_snapshot_semantics() {
        let w = ModelWorld::new_free(2);
        let (p0, p1) = (Env::new(w.clone(), 0), Env::new(w.clone(), 1));
        assert_eq!(p0.snap_scan::<u64>(SNAP, 3), vec![None, None, None]);
        p0.snap_write(SNAP, 3, 0, 5u64);
        p1.snap_write(SNAP, 3, 2, 7u64);
        assert_eq!(p1.snap_scan::<u64>(SNAP, 3), vec![Some(5), None, Some(7)]);
    }

    #[test]
    fn free_world_tas_once() {
        let w = ModelWorld::new_free(2);
        let (p0, p1) = (Env::new(w.clone(), 0), Env::new(w.clone(), 1));
        assert!(p0.tas(TAS));
        assert!(!p1.tas(TAS));
        assert!(!p0.tas(TAS));
    }

    #[test]
    fn free_world_xcons_agreement_and_ports() {
        let w = ModelWorld::new_free(3);
        let ports = vec![0usize, 2];
        assert_eq!(Env::new(w.clone(), 0).xcons_propose(CONS, &ports, 40u64), 40);
        assert_eq!(Env::new(w.clone(), 2).xcons_propose(CONS, &ports, 41u64), 40);
    }

    #[test]
    fn concurrent_tas_single_winner() {
        let w = ModelWorld::new_free(8);
        let key = ObjKey::new(11, 0, 0);
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|pid| {
                    let env = Env::new(w.clone(), pid);
                    s.spawn(move || usize::from(env.tas(key)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1);
    }

    #[test]
    fn concurrent_xcons_agreement() {
        let w = ModelWorld::new_free(6);
        let key = ObjKey::new(12, 0, 0);
        let ports: Vec<Pid> = (0..6).collect();
        let decisions: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|pid| {
                    let env = Env::new(w.clone(), pid);
                    let ports = ports.clone();
                    s.spawn(move || env.xcons_propose(key, &ports, pid as u64 + 1))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
        assert!((1..=6).contains(&decisions[0]), "validity");
    }

    #[test]
    fn concurrent_snapshot_scans_are_consistent() {
        // Writer fills cells 0 and 1 with equal counters in separate ops;
        // scans under the lock must never observe cell1 > cell0.
        let w = ModelWorld::new_free(2);
        let key = ObjKey::new(13, 0, 0);
        std::thread::scope(|s| {
            let writer = Env::new(w.clone(), 0);
            s.spawn(move || {
                for k in 0..2000u64 {
                    writer.snap_write(key, 2, 0, k + 1);
                    writer.snap_write(key, 2, 1, k + 1);
                }
            });
            let reader = Env::new(w.clone(), 1);
            s.spawn(move || {
                for _ in 0..2000 {
                    let v = reader.snap_scan::<u64>(key, 2);
                    let a = v[0].unwrap_or(0);
                    let b = v[1].unwrap_or(0);
                    assert!(a >= b, "scan saw cell1 ahead of cell0: {a} < {b}");
                }
            });
        });
    }

    #[test]
    #[should_panic(expected = "not a port")]
    fn xcons_rejects_non_port() {
        Env::new(ModelWorld::new_free(3), 1).xcons_propose(CONS, &[0, 2], 1u64);
    }

    #[test]
    #[should_panic(expected = "inconsistent port sets")]
    fn xcons_rejects_port_mutation() {
        let w = ModelWorld::new_free(3);
        Env::new(w.clone(), 0).xcons_propose(CONS, &[0, 2], 1u64);
        Env::new(w.clone(), 1).xcons_propose(CONS, &[0, 1], 2u64);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn register_type_mismatch_panics() {
        let p0 = Env::new(ModelWorld::new_free(1), 0);
        p0.reg_write(REG, 1u64);
        let _: Option<String> = p0.reg_read(REG);
    }

    #[test]
    #[should_panic(expected = "is not a register")]
    fn object_kind_mismatch_panics() {
        let p0 = Env::new(ModelWorld::new_free(1), 0);
        p0.tas(REG);
        p0.reg_write(REG, 1u64);
    }

    #[test]
    fn worlds_larger_than_64_processes_run_without_decision_recording() {
        // Plain runs work at any n: nothing in the gated engine caps
        // the world at 64 processes.
        let n = 65;
        let cfg = RunConfig::new(n).schedule(Schedule::RandomSeed(1));
        let bodies = (0..n)
            .map(|i| {
                body(move |env| {
                    env.reg_write(ObjKey::new(11, i as u64, 0), 1u64);
                    env.reg_read::<u64>(ObjKey::new(11, i as u64, 0)).unwrap()
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.decided_values().len(), n);
    }

    #[test]
    fn scheduled_run_all_decide() {
        let cfg = RunConfig::new(3).schedule(Schedule::RandomSeed(1));
        let bodies = (0..3)
            .map(|i| {
                body(move |env| {
                    env.reg_write(ObjKey::new(10, i, 0), i);
                    env.reg_read::<u64>(ObjKey::new(10, i, 0)).unwrap()
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.decided_values().len(), 3);
        assert!(report.all_correct_decided());
        assert!(!report.timed_out);
        assert_eq!(report.steps, 6);
    }

    #[test]
    fn scheduled_tas_exactly_one_winner() {
        for seed in 0..20 {
            let cfg = RunConfig::new(4).schedule(Schedule::RandomSeed(seed));
            let bodies = (0..4).map(|_| body(move |env| u64::from(env.tas(TAS)))).collect();
            let report = ModelWorld::run(cfg, bodies);
            assert_eq!(report.decided_values().iter().sum::<u64>(), 1, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_traces() {
        let run = |seed| {
            let cfg = RunConfig::new(3).schedule(Schedule::RandomSeed(seed)).record_trace(true);
            let bodies = (0..3)
                .map(|i| {
                    body(move |env| {
                        for r in 0..5u64 {
                            env.snap_write(SNAP, 3, i as usize, r);
                            env.snap_scan::<u64>(SNAP, 3);
                        }
                        i
                    })
                })
                .collect();
            ModelWorld::run(cfg, bodies).trace.unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn crash_at_own_step_is_honored() {
        // Process 0 is crashed before its second op; it never decides.
        let cfg = RunConfig::new(2)
            .schedule(Schedule::RandomSeed(1))
            .crashes(Crashes::AtOwnStep(vec![(0, 1)]));
        let bodies = (0..2)
            .map(|i| {
                body(move |env| {
                    env.reg_write(REG, i);
                    env.reg_write(REG, i + 10);
                    i
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.outcomes[0], Outcome::Crashed);
        assert_eq!(report.outcomes[1], Outcome::Decided(1));
    }

    #[test]
    fn blocked_process_reports_undecided_on_timeout() {
        // Process 1 spins until REG is written, but process 0 crashes before
        // writing: the run times out and 1 is Undecided.
        let cfg = RunConfig::new(2)
            .schedule(Schedule::RandomSeed(2))
            .crashes(Crashes::AtOwnStep(vec![(0, 0)]))
            .max_steps(5_000);
        let bodies: Vec<Body> = vec![
            body(|env| {
                env.reg_write(REG, 1u64);
                0
            }),
            body(|env| loop {
                if let Some(v) = env.reg_read::<u64>(REG) {
                    return v;
                }
            }),
        ];
        let report = ModelWorld::run(cfg, bodies);
        assert!(report.timed_out);
        assert_eq!(report.outcomes[0], Outcome::Crashed);
        assert_eq!(report.outcomes[1], Outcome::Undecided);
        assert!(!report.all_correct_decided());
    }

    #[test]
    fn spin_wait_completes_without_crash() {
        // Same as above but no crash: the spinner is eventually satisfied.
        let cfg = RunConfig::new(2).schedule(Schedule::RandomSeed(3));
        let bodies: Vec<Body> = vec![
            body(|env| {
                env.reg_write(REG, 42u64);
                0
            }),
            body(|env| loop {
                if let Some(v) = env.reg_read::<u64>(REG) {
                    return v;
                }
            }),
        ];
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.outcomes[1], Outcome::Decided(42));
    }

    #[test]
    #[should_panic(expected = "virtual process 0 failed")]
    fn algorithm_bug_panics_surface() {
        let cfg = RunConfig::new(1);
        let bodies: Vec<Body> = vec![body(|_env| panic!("algorithm bug"))];
        ModelWorld::run(cfg, bodies);
    }

    #[test]
    fn report_helpers() {
        let report = RunReport {
            outcomes: vec![
                Outcome::Decided(3),
                Outcome::Crashed,
                Outcome::Undecided,
                Outcome::Decided(3),
            ],
            steps: 10,
            timed_out: true,
            trace: None,
            state_hashes: None,
            ops_by_kind: vec![],
        };
        assert_eq!(report.decided_values(), vec![3, 3]);
        assert_eq!(report.crashed_pids(), vec![1]);
        assert_eq!(report.undecided_pids(), vec![2]);
        assert_eq!(report.distinct_decisions(), 1);
        assert!(!report.all_correct_decided());
    }

    /// A fence is free under SC: fences around a write change neither the
    /// step count, nor the trace, nor any state hash, and no operation
    /// runs on the fence kind. Under TSO each fence is one step on the
    /// fence kind. The gated and the resume engine agree on every run.
    #[test]
    fn fence_is_free_under_sc_and_one_step_under_tso() {
        fn plain() -> Body {
            body(|env| {
                env.reg_write(REG, 1u64);
                0
            })
        }
        fn fenced() -> Body {
            body(|env| {
                env.fence();
                env.reg_write(REG, 1u64);
                env.fence();
                0
            })
        }
        // One process, gated (trace and state hashes recorded) and
        // resumed step by step from its root snapshot.
        let run = |make: fn() -> Body, tso: bool| {
            let cfg = RunConfig::new(1)
                .schedule(Schedule::Indexed { choices: Vec::new() })
                .record_trace(true)
                .record_state_hashes(true)
                .tso(tso);
            let gated = ModelWorld::run(cfg, vec![make()]);
            let mut snap = ModelWorld::snapshot_root_tso(1, true, false, tso, vec![make()]);
            let mut hashes = Vec::new();
            while !snap.is_terminal() {
                snap = if snap.alive().is_empty() {
                    ModelWorld::resume_flush(&snap, 0)
                } else {
                    ModelWorld::resume_from(&snap, 0, make())
                };
                hashes.push(snap.fingerprint());
            }
            let resumed = snap.report(false);
            assert_eq!((resumed.steps, &resumed.ops_by_kind), (gated.steps, &gated.ops_by_kind));
            assert_eq!(gated.state_hashes.as_ref(), Some(&hashes), "tso {tso}");
            gated
        };
        let (sc_plain, sc_fenced) = (run(plain, false), run(fenced, false));
        assert_eq!(sc_fenced.steps, sc_plain.steps);
        assert_eq!(sc_fenced.trace, sc_plain.trace);
        assert_eq!(sc_fenced.state_hashes, sc_plain.state_hashes);
        assert_eq!(sc_fenced.ops_on_kind(FENCE_KIND), 0);
        // Plain: the write, then its flush. Fenced: two fences and the
        // write, which the second fence drains, so nothing is left to
        // flush.
        let (tso_plain, tso_fenced) = (run(plain, true), run(fenced, true));
        assert_eq!(tso_plain.steps, 2);
        assert_eq!(tso_plain.ops_on_kind(FENCE_KIND), 0);
        assert_eq!(tso_fenced.steps, 3);
        assert_eq!(tso_fenced.ops_on_kind(FENCE_KIND), 2);
        assert_eq!(tso_fenced.trace, Some(vec![0, 0, 0]));
    }

    #[test]
    fn snapshot_scan_is_one_atomic_step() {
        // A scan never observes a torn pair of writes: writer alternates
        // writing (k, k) into two cells via two ops — scans may see cells
        // differing by at most one step. With gating, each scan sees some
        // prefix of the writer's history.
        let cfg = RunConfig::new(2).schedule(Schedule::RandomSeed(11));
        let bodies: Vec<Body> = vec![
            body(|env| {
                for k in 0..50u64 {
                    env.snap_write(SNAP, 2, 0, k);
                    env.snap_write(SNAP, 2, 1, k);
                }
                0
            }),
            body(|env| {
                for _ in 0..30 {
                    let v = env.snap_scan::<u64>(SNAP, 2);
                    let a = v[0].unwrap_or(0);
                    let b = v[1].unwrap_or(0);
                    assert!(a == b || a == b + 1, "torn snapshot: {a} vs {b}");
                }
                1
            }),
        ];
        let report = ModelWorld::run(cfg, bodies);
        assert!(report.all_correct_decided());
    }
}
