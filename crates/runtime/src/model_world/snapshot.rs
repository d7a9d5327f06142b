//! Snapshot-resume execution of model-world programs.
//!
//! A [`Snapshot`] is a cheap checkpoint of one reachable global state:
//! shared memory (plain clone of the object map — objects share their
//! `Arc`ed cells), the incremental memory fingerprint, each process's
//! observation history, liveness flags and result, and — the key piece —
//! each process's **operation log**: the ordered `(op, key, result)`
//! records of every shared-memory operation it has completed. Because
//! process bodies are deterministic closures whose control state is
//! exactly a function of the values their operations returned, a log *is*
//! a continuation cursor: re-running the body and answering its first
//! `log.len()` operations from the log reconstructs the process's local
//! state without executing anything against shared memory, without
//! threads, and without scheduler handshakes.
//!
//! [`ModelWorld::resume_from`] uses that to execute **one** scheduling
//! decision from a snapshot on the caller thread: replay the picked
//! process's log, execute its next operation against the snapshot's
//! memory (appending the new log record), let the body run on to its next
//! gate — where a [`Halt`] unwind parks it, recording the purity of the
//! operation it stopped at — or to completion. The exhaustive
//! explorer ([`crate::explore`]) expands its frontier this way instead of
//! re-executing every schedule from the root.
//!
//! The cost of resuming process `p` is `O(|log(p)|)` pure closure
//! re-execution (no syscalls, no locks beyond uncontended per-op
//! acquisitions), versus a full gated replay's two context switches per
//! step of *every* process. Logs are shared (`Arc`) between a snapshot
//! and its children; only the stepped process's log is rebuilt.
//!
//! A sweep resumes the same process history from many snapshots, which
//! differ only in the other processes and in memory. The explorer's
//! [`Continuations`] cache runs the body once per history instead:
//! [`ModelWorld::resume_cached`] keeps a type-erased copy of the
//! operation a history parks before, and later resumes of that history
//! run the copy on the new snapshot — no body, no replay, no unwind.
//!
//! **Caveat:** resume executes bodies on the caller thread, so — unlike
//! the gated world, which has a watchdog — a body that spins forever in
//! local code without reaching another shared operation hangs the caller.
//! The explorer's contract (bounded bodies) already excludes those.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use super::{
    buffer_fp, codec, entry_prefix, key_hasher, panic_message, Body, BufferedWrite, Footprint,
    Halt, Mode, ModelWorld, Outcome, RunReport,
};
use crate::fingerprint::{fold_state_fp, mix, BuildStateHasher, StateHasher};
use crate::world::{Env, ObjKey, Pid, Stored};

/// One completed shared-memory operation of a process: operation tag
/// (`OP_*`), key, and the (type-erased) value the operation returned.
#[derive(Clone)]
pub(super) struct LogEntry {
    pub(super) op: u64,
    pub(super) key: ObjKey,
    pub(super) result: Stored,
    /// The hasher state after `(key, op)` ([`entry_prefix`]): the
    /// symmetric fingerprint resumes from it and hashes only the
    /// relabeled result.
    prefix: u64,
}

impl LogEntry {
    pub(super) fn new(op: u64, key: ObjKey, result: Stored) -> Self {
        LogEntry { op, key, result, prefix: entry_prefix(op, key) }
    }
}

/// A type-erased copy of one operation a process body issued: it runs
/// the operation on a snapshot and returns its result as a log entry
/// stores it. The continuation cache ([`Continuations`]) runs it again,
/// without the body, on every snapshot where the same history parks
/// before it.
type StoredOp = Arc<dyn Fn(&mut Snapshot) -> Stored + Send + Sync>;

/// Erases `op` into a [`StoredOp`].
fn store_op<R, F>(op: F) -> StoredOp
where
    R: Send + Sync + 'static,
    F: Fn(&mut Snapshot) -> R + Send + Sync + 'static,
{
    Arc::new(move |snap: &mut Snapshot| -> Stored { Arc::new(op(snap)) })
}

/// Control state of one resumed process (the world's resume mode).
pub(super) struct ResumeCtl {
    /// The process being driven — resume mode executes no other body.
    pid: Pid,
    /// Its operation log from the snapshot.
    log: Arc<Vec<LogEntry>>,
    /// Log entries replayed so far (the continuation cursor).
    cursor: usize,
    /// Fresh operations allowed before parking (0 = probe only).
    budget: usize,
    /// Fresh operations completed this resume, in order.
    fresh: Vec<LogEntry>,
    /// Footprint of the operation the body parked at, once stopped.
    next_op: Option<Footprint>,
    /// Keep copies of the fresh operation and of the parked one, for the
    /// continuation cache.
    keep_ops: bool,
    /// The kept copy of the last fresh operation.
    fresh_op: Option<StoredOp>,
    /// The kept copy of the operation the body parked at.
    park_op: Option<StoredOp>,
}

impl ResumeCtl {
    /// Drives `pid` from its operation `log`, granting it `budget` fresh
    /// operations (0 = probe only), and keeps copies of the operations
    /// it runs and parks at under `keep_ops`.
    fn new(pid: Pid, log: Arc<Vec<LogEntry>>, budget: usize, keep_ops: bool) -> Self {
        ResumeCtl {
            pid,
            log,
            cursor: 0,
            budget,
            fresh: Vec::new(),
            next_op: None,
            keep_ops,
            fresh_op: None,
            park_op: None,
        }
    }

    /// Classifies the operation `(op_tag, key)` of `pid` against the
    /// resume log.
    ///
    /// # Panics
    ///
    /// Panics if the body diverges from its recorded log (a
    /// nondeterministic process body — disallowed by the model) or if
    /// another process's body somehow runs.
    pub(super) fn gate<R: Clone + 'static>(
        &mut self,
        pid: Pid,
        op_tag: u64,
        key: ObjKey,
    ) -> ResumeGate<R> {
        assert_eq!(pid, self.pid, "resume executes only the picked process");
        if self.cursor < self.log.len() {
            let entry = &self.log[self.cursor];
            assert!(
                entry.op == op_tag && entry.key == key,
                "nondeterministic process body: replay step {} issued op {op_tag} on {key}, \
                 log records op {} on {}",
                self.cursor,
                entry.op,
                entry.key
            );
            self.cursor += 1;
            let out = entry
                .result
                .downcast_ref::<R>()
                .expect("nondeterministic process body: replayed result type changed")
                .clone();
            return ResumeGate::Replayed(out);
        }
        if self.fresh.len() >= self.budget {
            ResumeGate::Park
        } else {
            ResumeGate::Fresh
        }
    }

    /// Records a completed fresh operation: its log `entry`, and a copy
    /// of `op` under `keep_ops`.
    pub(super) fn push_fresh<R, F>(&mut self, entry: LogEntry, op: F)
    where
        R: Send + Sync + 'static,
        F: Fn(&mut Snapshot) -> R + Send + Sync + 'static,
    {
        self.fresh.push(entry);
        if self.keep_ops {
            self.fresh_op = Some(store_op(op));
        }
    }

    /// Records the footprint of the operation `op` the body is about to
    /// park at, and a copy of `op` under `keep_ops`.
    pub(super) fn park_at<R, F>(&mut self, footprint: Footprint, op: F)
    where
        R: Send + Sync + 'static,
        F: Fn(&mut Snapshot) -> R + Send + Sync + 'static,
    {
        self.next_op = Some(footprint);
        if self.keep_ops {
            self.park_op = Some(store_op(op));
        }
    }
}

/// What [`ModelWorld::step`] must do with an operation arriving in resume
/// mode.
pub(super) enum ResumeGate<R> {
    /// Answered from the log — return this value, execute nothing.
    Replayed(R),
    /// A granted fresh operation — execute it.
    Fresh,
    /// Budget exhausted — record the footprint and unwind with
    /// [`Halt`].
    Park,
}

/// What a process does next from one history: park before an operation,
/// or return.
#[derive(Clone)]
enum Next {
    /// It parks before this operation: its footprint, and a copy that
    /// runs it.
    Op(Footprint, StoredOp),
    /// Its body returns this value.
    Returns(u64),
}

impl Next {
    /// What the body does next, from how a resume that kept its
    /// operations (`ctl`) left it (`resumed`).
    fn of(resumed: Resumed, ctl: ResumeCtl) -> Next {
        match resumed {
            Resumed::Finished(v) => Next::Returns(v),
            Resumed::Parked => Next::Op(
                ctl.next_op.expect("a live body parks at its next gate"),
                ctl.park_op.expect("a resume that keeps operations keeps the parked one"),
            ),
        }
    }

    /// Settles `pid` in `snap` at this continuation: parked before the
    /// operation, or finished with the value.
    fn settle(&self, snap: &mut Snapshot, pid: Pid) {
        match self {
            Next::Op(footprint, _) => snap.pending_op[pid] = Some(*footprint),
            Next::Returns(v) => snap.finish(pid, *v),
        }
    }
}

/// The continuation cache of one explorer sweep: what each process does
/// next at each history it has reached, so that
/// [`ModelWorld::resume_cached`] runs a process body once per distinct
/// history instead of once per resume.
///
/// A history is keyed by `(pid, obs_fp[pid], log length)`. The
/// observation fingerprint folds every operation's tag, key and result,
/// and a body's control state is a function of the results it received,
/// so equal keys mean equal continuations: the history identity the
/// visited set already relies on when it prunes on state fingerprints.
/// Only tracked snapshots keep `obs_fp`, so the cache is for sweeps that
/// prune.
#[derive(Default)]
pub(crate) struct Continuations {
    next: HashMap<(Pid, u64, usize), Next, BuildStateHasher>,
}

/// The working buffers of [`Snapshot::fingerprint_symmetric`], kept per
/// thread and reused by every call, so that canonicalizing allocates no
/// bookkeeping once they have grown to `n`.
struct SymmBuffers {
    /// The pid map: all zeros while ranking (the erasure), then the
    /// canonical permutation.
    perm: Vec<Pid>,
    /// Every process with its erased sort key, sorted into canonical
    /// order.
    ranked: Vec<(u64, Pid)>,
}

thread_local! {
    static SYMM_BUFFERS: RefCell<SymmBuffers> =
        const { RefCell::new(SymmBuffers { perm: Vec::new(), ranked: Vec::new() }) };
}

/// One reachable model-world state: the state every engine steps, and a
/// checkpoint from which execution can be resumed one scheduling
/// decision at a time (see the [`crate::model_world`] module docs,
/// "snapshot resumption").
#[derive(Clone)]
pub struct Snapshot {
    // Fields are `pub(super)` (not private) for the two other readers and
    // writers: the engines in [`super`], which step this struct, and the
    // byte codec in [`super::codec`], which must see every field to
    // guarantee exact roundtrips.
    pub(super) n: usize,
    /// Fingerprint bookkeeping enabled (set by
    /// [`super::RunConfig::record_state_hashes`] or `snapshot_root`'s
    /// `track`); off for plain runs so the per-operation hashing costs
    /// nothing.
    pub(super) track: bool,
    pub(super) objects: HashMap<ObjKey, super::Object, BuildStateHasher>,
    /// Incrementally maintained XOR accumulator over
    /// `hash(key, object-content)` of every object in `objects` —
    /// maintained as a delta on each write instead of rehashing the full
    /// map (XOR, not [`mix`], so the fold is independent of `HashMap`
    /// iteration order). Only maintained under [`Snapshot::track`].
    pub(super) mem_fp: u64,
    /// Per-process rolling fingerprint of the operation/observation
    /// history: every shared-memory operation folds (op tag, key, result
    /// fingerprint) into its caller's entry. Because process bodies are
    /// deterministic closures whose control state is exactly a function of
    /// the values their operations returned, two runs in which every
    /// process has the same observation fingerprint (and memory agrees)
    /// are in behaviorally identical global states.
    pub(super) obs_fp: Vec<u64>,
    pub(super) logs: Vec<Arc<Vec<LogEntry>>>,
    pub(super) finished: Vec<bool>,
    pub(super) crashed: Vec<bool>,
    pub(super) results: Vec<Option<u64>>,
    pub(super) pending_op: Vec<Option<Footprint>>,
    pub(super) own_steps: Vec<u64>,
    pub(super) op_counts: HashMap<u32, u64, BuildStateHasher>,
    pub(super) steps: u64,
    /// This path explores TSO store-buffer semantics
    /// ([`super::RunConfig::tso`]); fixed at the root and inherited by
    /// every successor, so a path never mixes memory models.
    pub(super) tso: bool,
    /// Per-process FIFO store buffers (always empty when [`Snapshot::tso`]
    /// is off). Part of the state: they enter the fingerprint, the codec,
    /// and the terminality condition.
    pub(super) buffers: Vec<Vec<BufferedWrite>>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("n", &self.n)
            .field("steps", &self.steps)
            .field("objects", &self.objects.len())
            .field("alive", &self.alive())
            .finish()
    }
}

impl Snapshot {
    /// The state before any step: empty memory, every process alive with
    /// an empty history.
    pub(super) fn new(n: usize, track: bool, tso: bool) -> Self {
        Snapshot {
            n,
            track,
            objects: HashMap::default(),
            mem_fp: 0,
            obs_fp: vec![0; n],
            logs: (0..n).map(|_| Arc::new(Vec::new())).collect(),
            finished: vec![false; n],
            crashed: vec![false; n],
            results: vec![None; n],
            pending_op: vec![None; n],
            own_steps: vec![0; n],
            op_counts: HashMap::default(),
            steps: 0,
            tso,
            buffers: vec![Vec::new(); n],
        }
    }

    /// Records that `pid`'s body returned `v`.
    pub(super) fn finish(&mut self, pid: Pid, v: u64) {
        self.finished[pid] = true;
        self.results[pid] = Some(v);
        self.pending_op[pid] = None;
    }

    /// `pid`'s history as the continuation cache keys it.
    fn history(&self, pid: Pid) -> (Pid, u64, usize) {
        (pid, self.obs_fp[pid], self.logs[pid].len())
    }

    /// Records an adversary crash of `pid`.
    pub(super) fn crash(&mut self, pid: Pid) {
        self.crashed[pid] = true;
        self.pending_op[pid] = None;
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Completed shared-memory steps along the path to this state.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Completed shared-memory steps of `pid` (the crash adversary's
    /// own-step clock).
    pub fn own_steps(&self, pid: Pid) -> u64 {
        self.own_steps[pid]
    }

    /// Schedulable processes, in increasing pid order — the order
    /// [`crate::sched::Schedule::Indexed`] indexes into.
    pub fn alive(&self) -> Vec<Pid> {
        (0..self.n).filter(|&p| !self.finished[p] && !self.crashed[p]).collect()
    }

    /// Adversary crashes delivered along the path to this state: the
    /// number of crashed flags. Every delivery sets exactly one new flag
    /// ([`ModelWorld::resume_crash`]), so this is the crash count the
    /// explorer's [`crate::sched::Crashes::UpTo`] budget reads.
    pub(crate) fn crashes(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// `true` once every process has decided or crashed — and, under TSO,
    /// every store buffer has drained: undelivered writes still change
    /// shared memory, so a state with a non-empty buffer has futures.
    pub fn is_terminal(&self) -> bool {
        (0..self.n).all(|p| self.finished[p] || self.crashed[p])
            && self.buffers.iter().all(Vec::is_empty)
    }

    /// Whether this path explores TSO store-buffer semantics.
    pub fn is_tso(&self) -> bool {
        self.tso
    }

    /// Processes with a non-empty store buffer, in increasing pid order —
    /// the order of [`crate::sched::Schedule::Indexed`]'s flush band.
    /// Indexed by raw pid (not alive rank): buffers keep draining after
    /// their owner finishes or crashes.
    pub fn flushable(&self) -> Vec<Pid> {
        (0..self.n).filter(|&p| !self.buffers[p].is_empty()).collect()
    }

    /// Number of writes parked in `pid`'s store buffer.
    pub fn buffered(&self, pid: Pid) -> usize {
        self.buffers[pid].len()
    }

    /// The dependency footprint of flushing the *oldest* entry of `pid`'s
    /// store buffer (`None` if the buffer is empty) — the flush-band
    /// analogue of [`Snapshot::pending_footprint`]. Only the head is a
    /// schedulable action: flushes of one buffer are FIFO-ordered.
    pub fn flush_footprint(&self, pid: Pid) -> Option<Footprint> {
        self.buffers[pid].first().map(BufferedWrite::flush_footprint)
    }

    /// The dependency footprint of the operation alive `pid` is parked
    /// before (`None` once `pid` finished or crashed) — a function of its
    /// own operation log only, purity bit included. The explorer's
    /// DPOR-style reduction reads every enabled step's footprint from
    /// here.
    pub fn pending_footprint(&self, pid: Pid) -> Option<Footprint> {
        self.pending_op[pid]
    }

    /// The global-state fingerprint of this snapshot: shared memory (the
    /// incrementally maintained, iteration-order-independent memory
    /// fingerprint), plus every process's observation history,
    /// liveness flags, store buffer and result. The gated world records
    /// it per pick under [`super::RunConfig::record_state_hashes`], so
    /// both engines agree on it after the same schedule prefix
    /// (property-tested in `tests/proptests.rs`).
    ///
    /// Two equal fingerprints identify states with identical futures
    /// under identical schedule suffixes — see [`crate::explore`] for the
    /// pruning argument. Deliberately excluded: step counters, traces,
    /// and `op_counts` (path statistics, not state).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the snapshot was built without tracking.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(false)
    }

    /// The **observation-quotiented** state fingerprint: identical to
    /// [`Snapshot::fingerprint`] except that terminated (finished or
    /// crashed) processes contribute `0` in place of their observation
    /// histories, and the path's **total step count** is folded in their
    /// stead.
    ///
    /// Sound for visited-state pruning because a terminated process has
    /// no futures: only its result and liveness flags (both still
    /// folded) plus the run's total step count — which the explorer's
    /// `max_steps` timeout reads, and which the dropped histories
    /// contributed to — can influence any reachable outcome report.
    /// Folding the total keeps the budget's remaining headroom part of
    /// the state identity without distinguishing *how* the terminated
    /// processes split it. States that differ only in how a terminated
    /// process reached its outcome — e.g. order-equivalent poll
    /// histories that decided the same value — collapse into one
    /// equivalence-class representative. See
    /// [`crate::fingerprint::fold_state_fp`] and the pruning argument in
    /// [`crate::explore`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the snapshot was built without tracking.
    pub fn fingerprint_quotient(&self) -> u64 {
        self.fingerprint_with(true)
    }

    /// `true` when [`Snapshot::fingerprint_quotient`] coarsens this
    /// state's identity relative to [`Snapshot::fingerprint`]: some
    /// terminated process has a nonempty observation history the
    /// quotient drops. Cheap `O(n)` flag check — no fingerprint fold.
    pub fn quotient_coarsens(&self) -> bool {
        (0..self.n).any(|p| (self.finished[p] || self.crashed[p]) && self.obs_fp[p] != 0)
    }

    /// Process `p`'s liveness word as the fingerprints fold it — bit 0
    /// finished, bit 1 crashed — extended with its store-buffer fold
    /// ([`buffer_fp`] over `entry`'s per-entry words) when (and only
    /// when) the buffer is non-empty, so SC states and drained TSO states
    /// hash alike. The two bits are the whole liveness state: a process
    /// has a result exactly when it finished (`Snapshot::decode` rejects
    /// any other liveness triple).
    fn flags(&self, p: Pid, entry: impl Fn(&BufferedWrite) -> [u64; 2]) -> u64 {
        let flags = u64::from(self.finished[p]) | u64::from(self.crashed[p]) << 1;
        let buf = &self.buffers[p];
        if buf.is_empty() {
            flags
        } else {
            mix(flags, buffer_fp(buf, entry))
        }
    }

    fn fingerprint_with(&self, quotient_obs: bool) -> u64 {
        debug_assert!(self.track, "fingerprints require tracking (snapshot_root track=true)");
        // The quotient folds the path's total step count in place of the
        // terminated processes' histories: the `max_steps` timeout reads
        // the total, never a terminated process's share of it.
        let mem = if quotient_obs { mix(self.mem_fp, self.steps) } else { self.mem_fp };
        fold_state_fp(
            mem,
            (0..self.n).map(|p| {
                let terminated = self.finished[p] || self.crashed[p];
                (
                    if quotient_obs && terminated { 0 } else { self.obs_fp[p] },
                    self.flags(p, BufferedWrite::plain_words),
                    self.results[p].unwrap_or(0),
                )
            }),
        )
    }

    /// The **pid-symmetry-canonical** state fingerprint: the identity of
    /// this state's equivalence class under process-identity permutation,
    /// for programs that declared themselves pid-symmetric via a
    /// [`super::Symmetry`] spec ([`crate::explore::Reduction::symmetry`]).
    /// Returns `(fp, nontrivial)`: the canonical fingerprint, and whether
    /// the canonical permutation actually moved a process (the explorer's
    /// `symm=` coarsening flag).
    ///
    /// Canonicalization happens in two passes:
    ///
    /// 1. **Order.** Each process gets a **pid-erased** sort key — the
    ///    hash of its operation-log fold, liveness flags with its store
    ///    buffer folded in, result, and the erased contents of its own
    ///    pid-indexed snapshot cells (the memory refinement that keeps
    ///    all-terminated states sortable under `quotient_obs`, where the
    ///    log word is zeroed) — with every embedded pid relabeled to `0`,
    ///    and processes are sorted by that key (pid tie-break, the same
    ///    canonical-pid seed as DPOR's tie-break). Erasure is pid-blind
    ///    by the spec's group-action contract, so two π-related states
    ///    sort their corresponding processes into the same ranks (ties
    ///    can diverge — a reduction loss, never an unsoundness). The
    ///    order follows the hash kernel, so which permutations count as
    ///    nontrivial does too; which states merge does not, because any
    ///    pid-blind order relabels π-related states alike.
    /// 2. **Fold.** The state description is refolded under the induced
    ///    permutation `perm[pid] = rank`: memory objects with every value
    ///    leaf relabeled through [`super::Symmetry::relabel_value`] and
    ///    per-process snapshot cells moved to their canonical index, then
    ///    each process's (relabeled log fold, flags with its relabeled
    ///    store buffer, relabeled result) triple in canonical order — the
    ///    same [`crate::fingerprint::fold_state_fp`] shape as
    ///    [`Snapshot::fingerprint`].
    ///
    /// A TSO store buffer moves with its owner and relabels like the
    /// memory it is bound for: a write to cell `i` of a per-process
    /// snapshot object folds as a write to cell `perm[i]`, its value
    /// relabeled (its raw fingerprint outside the codec universe), its key
    /// unchanged. An empty buffer folds as in [`Snapshot::fingerprint`],
    /// so SC states canonicalize exactly as before TSO existed.
    ///
    /// The description folds the **operation log itself** (op tag, key,
    /// relabeled result fingerprint per entry — the exact words
    /// `Snapshot::observe` folds) rather than the precomputed `obs_fp`,
    /// which already hashed the unrelabeled results. Pending footprints
    /// and per-process step counts are deliberately **not** folded:
    /// bodies are deterministic, so both are functions of the log. Under
    /// `quotient_obs` the observation quotient composes: terminated
    /// processes contribute `0` in place of their log fold and the
    /// path's total step count is mixed into the memory word, exactly as
    /// in [`Snapshot::fingerprint_quotient`].
    ///
    /// Equal canonical fingerprints imply the two states are images of
    /// one another under a pid permutation (the relabel maps are
    /// bijective per permutation and the folded description is
    /// complete); the soundness argument for pruning on that identity —
    /// when bodies are identical up to value and checkers are
    /// permutation/value-closed — is in `docs/EXPLORER.md` §3.
    ///
    /// # Panics
    ///
    /// Panics if a logged operation result lies outside the codec's
    /// closed value universe: there is no sound fallback for an
    /// observation that cannot be relabeled (a constant would merge
    /// distinct observations). Pid-symmetric programs must keep their
    /// operation results in the universe — the same requirement
    /// spilling already imposes (`docs/EXPLORER.md` §7). Memory cells
    /// outside the universe merely fall back to their unrelabeled
    /// fingerprint (sound: π-related states then simply stop merging).
    /// Panics in debug builds if the snapshot was built without
    /// tracking.
    pub fn fingerprint_symmetric(&self, quotient_obs: bool, spec: &super::Symmetry) -> (u64, bool) {
        debug_assert!(self.track, "fingerprints require tracking (snapshot_root track=true)");
        SYMM_BUFFERS.with_borrow_mut(|bufs| self.fingerprint_symmetric_in(quotient_obs, spec, bufs))
    }

    /// [`Snapshot::fingerprint_symmetric`] in the caller's `bufs`.
    fn fingerprint_symmetric_in(
        &self,
        quotient_obs: bool,
        spec: &super::Symmetry,
        bufs: &mut SymmBuffers,
    ) -> (u64, bool) {
        let SymmBuffers { perm, ranked } = bufs;
        let n = self.n;
        // The zero map erases every pid-derived leaf while ranking.
        perm.clear();
        perm.resize(n, 0);
        ranked.clear();
        ranked.extend((0..n).map(|p| (0, p)));
        // Erased view of each process's own pid-indexed snapshot cells,
        // XOR-folded over the objects so that the map's iteration order
        // does not matter. Without it, states whose processes differ
        // only through memory — e.g. all-terminated states under
        // `quotient_obs`, whose log words are zeroed — would sort
        // entirely by the pid tie-break, and π-related states could
        // canonicalize inconsistently.
        for (key, obj) in &self.objects {
            if let super::Object::Snapshot(cells) = obj {
                if cells.len() == n {
                    let kfp = key_hasher(*key).finish();
                    for ((own, _), c) in ranked.iter_mut().zip(cells) {
                        let cfp = c.as_ref().map_or(u64::MAX, |c| cell_symm_fp(c, perm, spec));
                        *own ^= mix(kfp, cfp);
                    }
                }
            }
        }
        for (erased, p) in ranked.iter_mut() {
            let [obs, flags, result] = self.symm_proc_word(*p, quotient_obs, perm, spec);
            *erased = fold_state_fp(*erased, std::iter::once((obs, flags, result)));
        }
        ranked.sort_unstable();
        let mut nontrivial = false;
        for (rank, &(_, p)) in ranked.iter().enumerate() {
            perm[p] = rank;
            nontrivial |= rank != p;
        }
        let mut mem = 0u64;
        for (key, obj) in &self.objects {
            let mut h = key_hasher(*key);
            h.write_u64(self.obj_symm_fp(obj, perm, ranked, spec));
            mem ^= h.finish();
        }
        if quotient_obs {
            mem = mix(mem, self.steps);
        }
        let fp = fold_state_fp(
            mem,
            ranked.iter().map(|&(_, p)| {
                let [obs, flags, result] = self.symm_proc_word(p, quotient_obs, perm, spec);
                (obs, flags, result)
            }),
        );
        (fp, nontrivial)
    }

    /// One process's `(log fold, flags, result)` description word under
    /// the pid map `perm` — the erased sort key when `perm` is all
    /// zeros, a canonical-description entry when it is the induced
    /// permutation.
    fn symm_proc_word(
        &self,
        p: Pid,
        quotient_obs: bool,
        perm: &[Pid],
        spec: &super::Symmetry,
    ) -> [u64; 3] {
        let terminated = self.finished[p] || self.crashed[p];
        let obs = if quotient_obs && terminated {
            0
        } else {
            let mut acc = 0u64;
            for e in self.logs[p].iter() {
                let rfp = codec::stored_symm_fp(&e.result, perm, spec.relabel_value)
                    .unwrap_or_else(|| {
                        panic!(
                            "symmetry quotient: process {p} logged an operation result outside \
                             the codec value universe — pid-symmetric programs must keep results \
                             in the closed universe (docs/EXPLORER.md §7)"
                        )
                    });
                acc = mix(acc, mix(e.prefix, rfp));
            }
            acc
        };
        // A buffered write relabels like the memory it is bound for: a
        // cell of a per-process snapshot object moves to its canonical
        // index and the value relabels; the key stays, since only
        // snapshot cells may be pid-indexed (docs/EXPLORER.md §3.5).
        let flags = self.flags(p, |w| {
            let cell = match w.cell_idx {
                Some(i) if w.len == self.n => perm[i] as u64,
                Some(i) => i as u64,
                None => u64::MAX,
            };
            [cell, cell_symm_fp(&w.cell, perm, spec)]
        });
        let result = (spec.relabel_result)(self.results[p].unwrap_or(0), perm);
        [obs, flags, result]
    }

    /// [`super::Object`] content fingerprint under the pid map: the same
    /// tagged shape as the baseline object fingerprint, with every value
    /// leaf relabeled (falling back to the cell's unrelabeled
    /// fingerprint outside the codec universe — sound, merely less
    /// merging) and, for per-process snapshot objects (`cells.len() ==
    /// n`), cells moved to their canonical index: canonical position
    /// `rank` holds the relabeled cell of the process ranked `rank`.
    fn obj_symm_fp(
        &self,
        obj: &super::Object,
        perm: &[Pid],
        ranked: &[(u64, Pid)],
        spec: &super::Symmetry,
    ) -> u64 {
        let cell_fp =
            |c: &Option<super::Cell>| c.as_ref().map_or(u64::MAX, |c| cell_symm_fp(c, perm, spec));
        let mut h = StateHasher::default();
        match obj {
            super::Object::Register(slot) => {
                h.write_u64(1);
                h.write_u64(cell_fp(slot));
            }
            super::Object::Snapshot(cells) => {
                h.write_u64(2);
                if cells.len() == self.n {
                    for &(_, p) in ranked {
                        h.write_u64(cell_fp(&cells[p]));
                    }
                } else {
                    for c in cells {
                        h.write_u64(cell_fp(c));
                    }
                }
            }
            super::Object::Tas(taken) => {
                h.write_u64(3);
                h.write_u64(u64::from(*taken));
            }
            // `ports` is static per key, exactly as in the baseline
            // object fingerprint.
            super::Object::XCons { decided, .. } => {
                h.write_u64(4);
                h.write_u64(cell_fp(decided));
            }
        }
        h.finish()
    }

    /// The [`RunReport`] of the path that reached this state — what
    /// [`ModelWorld::run`] returns, which builds its report here too (no
    /// trace or state-hash records: those are opt-in path recordings,
    /// not state).
    ///
    /// `timed_out` marks a run cut by the step budget (alive processes
    /// report [`Outcome::Undecided`], as the gated world's timeout sweep
    /// leaves them).
    pub fn report(&self, timed_out: bool) -> RunReport {
        let outcomes = (0..self.n)
            .map(|p| {
                if let Some(v) = self.results[p] {
                    Outcome::Decided(v)
                } else if self.crashed[p] {
                    Outcome::Crashed
                } else {
                    Outcome::Undecided
                }
            })
            .collect();
        let mut ops_by_kind: Vec<(u32, u64)> =
            self.op_counts.iter().map(|(&k, &c)| (k, c)).collect();
        ops_by_kind.sort_unstable();
        RunReport {
            outcomes,
            steps: self.steps,
            timed_out,
            trace: None,
            state_hashes: None,
            ops_by_kind,
        }
    }
}

/// A stored cell's value fingerprint under the pid map `perm`: the
/// relabeled value's, falling back to the cell's own fingerprint outside
/// the codec universe (sound, merely less merging).
fn cell_symm_fp(c: &super::Cell, perm: &[Pid], spec: &super::Symmetry) -> u64 {
    codec::stored_symm_fp(&c.val, perm, spec.relabel_value).unwrap_or(c.fp)
}

/// Panics unless `pid` is an alive process of `snap`: only those take a
/// resumed step.
fn assert_alive(snap: &Snapshot, pid: Pid) {
    assert!(
        pid < snap.n && !snap.finished[pid] && !snap.crashed[pid],
        "resume_from requires an alive process (pid {pid})"
    );
}

/// Asserts that `cached`, the successor a continuation-cache hit built,
/// is `reference`, the one [`ModelWorld::resume_from`] built from the
/// same snapshot: the same fingerprint, pending footprints, log lengths,
/// results and step counters.
fn assert_same_successor(cached: &Snapshot, reference: &Snapshot) {
    let log_lens = |s: &Snapshot| s.logs.iter().map(|log| log.len()).collect::<Vec<_>>();
    assert_eq!(cached.fingerprint(), reference.fingerprint(), "continuation cache: fingerprint");
    assert_eq!(cached.pending_op, reference.pending_op, "continuation cache: pending footprints");
    assert_eq!(log_lens(cached), log_lens(reference), "continuation cache: log lengths");
    assert_eq!(cached.results, reference.results, "continuation cache: results");
    assert_eq!(
        (cached.steps, &cached.own_steps, &cached.op_counts),
        (reference.steps, &reference.own_steps, &reference.op_counts),
        "continuation cache: step counters"
    );
}

#[derive(Clone, Copy)]
enum Resumed {
    /// The body parked at its next gate.
    Parked,
    /// The body ran to completion and decided.
    Finished(u64),
}

impl ModelWorld {
    /// Builds a resume-mode world loaded with a copy of `snap`.
    fn from_snapshot(snap: &Snapshot, ctl: ResumeCtl) -> ModelWorld {
        ModelWorld::with_state(snap.clone(), Mode::Resume(ctl))
    }

    /// Takes the stepped state and the resume control back out of a
    /// resume-mode world whose body has parked or returned.
    fn into_resumed(self) -> (Snapshot, ResumeCtl) {
        let inner = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("a resumed process body kept its Env handle"));
        let st = inner.st.into_inner();
        let Mode::Resume(ctl) = st.mode else { unreachable!("resume mode") };
        (st.snap, ctl)
    }

    /// Runs `body` as process `pid` against this resume-mode world until
    /// it parks ([`Halt`]) or returns.
    fn drive_resumed(&self, pid: Pid, body: Body) -> Resumed {
        let env = Env::new(self.clone(), pid);
        match catch_unwind(AssertUnwindSafe(move || body(env))) {
            Ok(v) => Resumed::Finished(v),
            Err(payload) if payload.is::<Halt>() => Resumed::Parked,
            Err(payload) => {
                panic!("virtual process {pid} failed: {}", panic_message(payload.as_ref()))
            }
        }
    }

    /// The initial [`Snapshot`] of a run of `bodies`: every process is
    /// settled at its first shared-memory gate (or has already decided,
    /// for bodies that return without touching shared memory). With
    /// `track`, fingerprint bookkeeping is enabled for the whole path —
    /// required for [`Snapshot::fingerprint`]. The observation histories
    /// fold what each operation returned to its body, declared view
    /// summaries included ([`crate::world::Env::snap_scan_via`]).
    ///
    /// `viewsum` is ignored: it is kept only so that existing call sites
    /// keep compiling. Pass `true`.
    ///
    /// # Panics
    ///
    /// Panics if `bodies.len() != n` or if a body fails with a real panic.
    pub fn snapshot_root(n: usize, track: bool, viewsum: bool, bodies: Vec<Body>) -> Snapshot {
        ModelWorld::snapshot_root_tso(n, track, viewsum, false, bodies)
    }

    /// [`ModelWorld::snapshot_root`] with the memory model chosen
    /// explicitly: with `tso`, the whole path explores TSO store-buffer
    /// semantics ([`super::RunConfig::tso`]) — a root property inherited
    /// by every successor. `viewsum` is ignored, as in
    /// [`ModelWorld::snapshot_root`].
    pub fn snapshot_root_tso(
        n: usize,
        track: bool,
        _viewsum: bool,
        tso: bool,
        bodies: Vec<Body>,
    ) -> Snapshot {
        assert_eq!(bodies.len(), n, "one body per process required");
        let mut snap = Snapshot::new(n, track, tso);
        for (pid, body) in bodies.into_iter().enumerate() {
            // Probe (budget 0): the body unwinds at its first operation
            // without touching shared state, recording the op's purity.
            match ModelWorld::resume_body(&snap, pid, body, 0, false) {
                (_, _, Resumed::Finished(v)) => snap.finish(pid, v),
                (_, ctl, Resumed::Parked) => {
                    snap.pending_op[pid] = Some(ctl.next_op.expect("parked at a gate"));
                }
            }
        }
        snap
    }

    /// Runs `body` as `pid` from `snap`'s operation log with `budget`
    /// fresh operations (0 = probe only), keeping copies of the
    /// operations it runs and parks at under `keep_ops`, and returns the
    /// stepped state, the resume control and how the body stopped.
    ///
    /// # Panics
    ///
    /// Panics if the body diverges from its log or fails with a real
    /// panic.
    fn resume_body(
        snap: &Snapshot,
        pid: Pid,
        body: Body,
        budget: usize,
        keep_ops: bool,
    ) -> (Snapshot, ResumeCtl, Resumed) {
        let ctl = ResumeCtl::new(pid, Arc::clone(&snap.logs[pid]), budget, keep_ops);
        let world = ModelWorld::from_snapshot(snap, ctl);
        let resumed = world.drive_resumed(pid, body);
        let (next, ctl) = world.into_resumed();
        assert_eq!(
            ctl.cursor,
            ctl.log.len(),
            "nondeterministic process body: replay consumed {} of {} logged operations",
            ctl.cursor,
            ctl.log.len()
        );
        (next, ctl, resumed)
    }

    /// Executes one scheduling decision from `snap`: grants alive process
    /// `pid` one shared-memory step of `body` (which must be the same
    /// deterministic closure the snapshot's path was built from) and
    /// returns the successor snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not alive in `snap`, or if `body` diverges from
    /// the recorded operation log (nondeterministic bodies are disallowed
    /// by the model).
    pub fn resume_from(snap: &Snapshot, pid: Pid, body: Body) -> Snapshot {
        ModelWorld::resume_step(snap, pid, body, false).0
    }

    /// The one granted step of [`ModelWorld::resume_from`]: returns the
    /// successor, the resume control, which holds copies of the executed
    /// and the parked operation under `keep_ops`, and how the body
    /// stopped.
    fn resume_step(
        snap: &Snapshot,
        pid: Pid,
        body: Body,
        keep_ops: bool,
    ) -> (Snapshot, ResumeCtl, Resumed) {
        assert_alive(snap, pid);
        let (mut next, mut ctl, resumed) = ModelWorld::resume_body(snap, pid, body, 1, keep_ops);
        assert_eq!(
            ctl.fresh.len(),
            1,
            "an alive process must complete exactly one granted step (completed {})",
            ctl.fresh.len()
        );
        let mut full = (*ctl.log).clone();
        full.append(&mut ctl.fresh);
        next.logs[pid] = Arc::new(full);
        match resumed {
            Resumed::Finished(v) => next.finish(pid, v),
            Resumed::Parked => {
                next.pending_op[pid] =
                    Some(ctl.next_op.expect("a live body parks at its next gate"));
            }
        }
        (next, ctl, resumed)
    }

    /// [`ModelWorld::resume_from`] through the continuation cache `conts`
    /// of a sweep whose snapshots track fingerprints: the same successor,
    /// but `make_body` builds `pid`'s body only when `conts` misses.
    /// Returns the successor and whether a body ran.
    ///
    /// * **Hit** (`conts` knows the operation `pid`'s history parks
    ///   before): the cached copy runs on a clone of `snap`, the step is
    ///   counted and logged, and what `pid` does next is read from
    ///   `conts` too. No body runs, no log is replayed, nothing unwinds.
    /// * **Miss**: [`ModelWorld::resume_from`]'s path runs the body and
    ///   fills `conts` with this history and the next one; when only the
    ///   next history is new, a budget-0 probe over the grown log fills
    ///   it.
    ///
    /// Every build asserts that a hit's cached footprint is the one `pid`
    /// is parked at; debug builds also check every hit against
    /// [`ModelWorld::resume_from`] (fingerprint, pending footprints, log
    /// lengths, results and step counters).
    ///
    /// # Panics
    ///
    /// As [`ModelWorld::resume_from`], with the same `virtual process
    /// {pid} failed: …` message when a cached operation panics; also if
    /// `snap` does not track fingerprints.
    pub(crate) fn resume_cached(
        snap: &Snapshot,
        pid: Pid,
        conts: &mut Continuations,
        make_body: impl Fn() -> Body,
    ) -> (Snapshot, bool) {
        assert!(snap.track, "the continuation cache keys on fingerprints only tracked paths keep");
        assert_alive(snap, pid);
        let here = snap.history(pid);
        let Some(cached) = conts.next.get(&here) else {
            let (next, mut ctl, resumed) = ModelWorld::resume_step(snap, pid, make_body(), true);
            let footprint = snap.pending_op[pid].expect("an alive process parks at a gate");
            let op = ctl.fresh_op.take().expect("a granted step keeps its operation");
            conts.next.insert(here, Next::Op(footprint, op));
            conts.next.insert(next.history(pid), Next::of(resumed, ctl));
            return (next, true);
        };
        let Next::Op(footprint, op) = cached.clone() else {
            panic!("continuation cache: alive process {pid} has a history that returned")
        };
        assert_eq!(
            Some(footprint),
            snap.pending_op[pid],
            "continuation cache: the cached operation of process {pid} is not the one it is \
             parked at"
        );
        let mut next = snap.clone();
        let result = catch_unwind(AssertUnwindSafe(|| op(&mut next))).unwrap_or_else(|payload| {
            panic!("virtual process {pid} failed: {}", panic_message(payload.as_ref()))
        });
        next.count_op(pid, footprint.key.kind);
        let mut log = Vec::with_capacity(snap.logs[pid].len() + 1);
        log.extend(snap.logs[pid].iter().cloned());
        log.push(LogEntry::new(footprint.op, footprint.key, result));
        next.logs[pid] = Arc::new(log);
        let after = next.history(pid);
        let ran = match conts.next.get(&after) {
            Some(then) => {
                then.settle(&mut next, pid);
                false
            }
            None => {
                let (_, ctl, resumed) = ModelWorld::resume_body(&next, pid, make_body(), 0, true);
                let then = Next::of(resumed, ctl);
                then.settle(&mut next, pid);
                conts.next.insert(after, then);
                true
            }
        };
        if cfg!(debug_assertions) {
            assert_same_successor(&next, &ModelWorld::resume_from(snap, pid, make_body()));
        }
        (next, ran)
    }

    /// Delivers an adversary crash to alive `pid` *instead of* its next
    /// step (the gated world's crash granularity) and returns the
    /// successor snapshot. Memory, logs, and step counters are untouched;
    /// only the liveness flags — and hence the fingerprint — change.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not alive in `snap`.
    pub fn resume_crash(snap: &Snapshot, pid: Pid) -> Snapshot {
        assert!(
            pid < snap.n && !snap.finished[pid] && !snap.crashed[pid],
            "resume_crash requires an alive process (pid {pid})"
        );
        let mut out = snap.clone();
        out.crash(pid);
        out
    }

    /// Flushes the oldest entry of `pid`'s store buffer to shared memory
    /// — one scheduling decision of the TSO flush band — and returns the
    /// successor snapshot. A flush is a hardware step, not a process
    /// step: memory, the buffer, and the global step counter change;
    /// logs, observation histories, and own-step clocks do not. Legal for
    /// finished and crashed owners (the hardware owns the buffer).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is not a TSO path or `pid`'s buffer is
    /// empty.
    pub fn resume_flush(snap: &Snapshot, pid: Pid) -> Snapshot {
        assert!(snap.tso, "resume_flush requires a TSO path");
        assert!(
            pid < snap.n && !snap.buffers[pid].is_empty(),
            "resume_flush requires a non-empty store buffer (pid {pid})"
        );
        let mut out = snap.clone();
        out.flush(pid);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Body, ModelWorld, Outcome, RunConfig};
    use super::{assert_same_successor, Continuations};
    use crate::sched::Schedule;
    use crate::world::{Env, ObjKey};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const REG: ObjKey = ObjKey::new(30, 0, 0);
    const SNAP: ObjKey = ObjKey::new(31, 0, 0);
    const TAS: ObjKey = ObjKey::new(32, 0, 0);
    const CONS: ObjKey = ObjKey::new(33, 0, 0);

    fn body(f: impl FnOnce(Env<ModelWorld>) -> u64 + Send + 'static) -> Body {
        Box::new(f)
    }

    fn writer_bodies(n: usize, rounds: u64) -> Vec<Body> {
        (0..n)
            .map(|i| {
                body(move |env: Env<ModelWorld>| {
                    for r in 1..=rounds {
                        env.snap_write(SNAP, n, i, r);
                    }
                    let view = env.snap_scan::<u64>(SNAP, n);
                    view.into_iter().flatten().sum()
                })
            })
            .collect()
    }

    #[test]
    fn root_settles_every_process_at_its_first_gate() {
        let snap = ModelWorld::snapshot_root(3, true, true, writer_bodies(3, 2));
        assert_eq!(snap.alive(), vec![0, 1, 2]);
        assert_eq!(snap.steps(), 0);
        assert!(!snap.pending_footprint(0).unwrap().pure_read, "first op is a snap_write");
        assert!(!snap.is_terminal());
    }

    #[test]
    fn root_records_immediately_deciding_bodies() {
        let bodies: Vec<Body> = vec![body(|_env| 41), body(|env| u64::from(env.tas(REG)))];
        let snap = ModelWorld::snapshot_root(2, false, true, bodies);
        assert_eq!(snap.alive(), vec![1]);
        assert_eq!(snap.report(false).outcomes[0], Outcome::Decided(41));
    }

    #[test]
    fn resume_steps_match_a_gated_indexed_run() {
        // Drive the snapshot engine and the gated world down the same
        // indexed schedule; outcomes, steps, and every per-pick
        // fingerprint must agree.
        let n = 2;
        let mut snap = ModelWorld::snapshot_root(n, true, true, writer_bodies(n, 2));
        let mut choices = Vec::new();
        let mut resumed_hashes = Vec::new();
        while !snap.is_terminal() {
            let alive = snap.alive();
            // A fixed but non-trivial zig-zag through the alive sets.
            let c = choices.len() % alive.len();
            let pid = alive[c];
            choices.push(c);
            let body = writer_bodies(n, 2).into_iter().nth(pid).unwrap();
            snap = ModelWorld::resume_from(&snap, pid, body);
            resumed_hashes.push(snap.fingerprint());
        }
        let gated = ModelWorld::run(
            RunConfig::new(n).schedule(Schedule::Indexed { choices }).record_state_hashes(true),
            writer_bodies(n, 2),
        );
        let report = snap.report(false);
        assert_eq!(report.outcomes, gated.outcomes);
        assert_eq!(report.steps, gated.steps);
        assert_eq!(report.ops_by_kind, gated.ops_by_kind);
        assert_eq!(resumed_hashes, gated.state_hashes.unwrap());
    }

    #[test]
    fn resume_crash_kills_without_consuming_steps() {
        let n = 2;
        let snap = ModelWorld::snapshot_root(n, false, true, writer_bodies(n, 1));
        let crashed = ModelWorld::resume_crash(&snap, 0);
        assert_eq!(crashed.alive(), vec![1]);
        assert_eq!(crashed.steps(), 0);
        assert_eq!(crashed.own_steps(0), 0);
        let report = crashed.report(false);
        assert_eq!(report.outcomes[0], Outcome::Crashed);
    }

    #[test]
    fn pending_read_tracks_the_next_operation() {
        // Body: one write, then a scan — after the write step the process
        // must be parked before a pure read.
        let n = 1;
        let bodies = || {
            vec![body(move |env: Env<ModelWorld>| {
                env.snap_write(SNAP, 1, 0, 7u64);
                env.snap_scan::<u64>(SNAP, 1);
                0
            })]
        };
        let snap = ModelWorld::snapshot_root(n, false, true, bodies());
        assert!(!snap.pending_footprint(0).unwrap().pure_read);
        let snap = ModelWorld::resume_from(&snap, 0, bodies().remove(0));
        assert!(snap.pending_footprint(0).unwrap().pure_read, "parked before the scan");
        let snap = ModelWorld::resume_from(&snap, 0, bodies().remove(0));
        assert!(snap.is_terminal());
        assert_eq!(snap.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "nondeterministic process body")]
    fn diverging_replay_is_detected() {
        let make = |tag: u64| {
            vec![body(move |env: Env<ModelWorld>| {
                if tag == 0 {
                    env.reg_write(REG, 1u64);
                } else {
                    env.tas(REG.with_b(9));
                }
                env.reg_write(REG.with_b(1), 2u64);
                0
            })]
        };
        let snap = ModelWorld::snapshot_root(1, false, true, make(0));
        let snap = ModelWorld::resume_from(&snap, 0, make(0).remove(0));
        // Resuming with a *different* body: the log replay must detect it.
        ModelWorld::resume_from(&snap, 0, make(1).remove(0));
    }

    /// Bodies that issue all eight operations and branch on what they
    /// read, so that random walks reach some histories again and others
    /// for the first time.
    fn mixed_bodies(n: usize) -> Vec<Body> {
        (0..n)
            .map(|i| {
                let ports: Vec<usize> = (0..n).collect();
                body(move |env: Env<ModelWorld>| {
                    env.snap_write(SNAP, n, i, i as u64 + 1);
                    env.fence();
                    let seen = env.snap_scan::<u64>(SNAP, n).into_iter().flatten().count() as u64;
                    if seen > 1 {
                        env.reg_write(REG, seen);
                    }
                    let won = env.tas(TAS);
                    let read = env.reg_read::<u64>(REG).unwrap_or(0);
                    let sum =
                        env.snap_scan_via::<u64, u64>(SNAP, n, |view| view.iter().flatten().sum());
                    env.xcons_propose(CONS, &ports, read + sum + u64::from(won))
                })
            })
            .collect()
    }

    /// The continuation cache's hit path, checked in every build (the
    /// audit inside `resume_cached` runs in debug builds only): random
    /// walks under SC and TSO mix flushes and crash deliveries into
    /// their op picks, and every op pick's cached successor must be the
    /// one `resume_from` builds.
    #[test]
    fn cached_resumes_match_resume_from_on_random_walks() {
        let n = 3;
        for tso in [false, true] {
            let mut rng = StdRng::seed_from_u64(if tso { 3 } else { 1 });
            let mut conts = Continuations::default();
            let (mut op_picks, mut body_runs) = (0u64, 0u64);
            for _ in 0..40 {
                let mut snap = ModelWorld::snapshot_root_tso(n, true, true, tso, mixed_bodies(n));
                while !snap.is_terminal() {
                    let (alive, flushable) = (snap.alive(), snap.flushable());
                    if !flushable.is_empty() && (alive.is_empty() || rng.gen_range(0..3) == 0) {
                        let pid = flushable[rng.gen_range(0..flushable.len())];
                        snap = ModelWorld::resume_flush(&snap, pid);
                        continue;
                    }
                    let pid = alive[rng.gen_range(0..alive.len())];
                    if snap.crashes() == 0 && rng.gen_range(0..12) == 0 {
                        snap = ModelWorld::resume_crash(&snap, pid);
                        continue;
                    }
                    let make = || mixed_bodies(n).swap_remove(pid);
                    let (cached, ran) = ModelWorld::resume_cached(&snap, pid, &mut conts, make);
                    assert_same_successor(&cached, &ModelWorld::resume_from(&snap, pid, make()));
                    op_picks += 1;
                    body_runs += u64::from(ran);
                    snap = cached;
                }
            }
            assert!(
                body_runs * 3 < op_picks,
                "tso {tso}: the walks must mostly hit the cache \
                 ({body_runs} body runs for {op_picks} op picks)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "virtual process 0 failed")]
    fn real_panics_surface_through_resume() {
        let bodies: Vec<Body> = vec![body(|_env| panic!("algorithm bug"))];
        ModelWorld::snapshot_root(1, false, true, bodies);
    }
}
