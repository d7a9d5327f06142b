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
//! gate — where a [`StopSignal`] unwind parks it, recording the purity of
//! the operation it stopped at — or to completion. The exhaustive
//! explorer ([`crate::explore`]) expands its frontier this way instead of
//! re-executing every schedule from the root.
//!
//! The cost of resuming process `p` is `O(|log(p)|)` pure closure
//! re-execution (no syscalls, no locks beyond uncontended per-op
//! acquisitions), versus a full gated replay's two context switches per
//! step of *every* process. Logs are shared (`Arc`) between a snapshot
//! and its children; only the stepped process's log is rebuilt.
//!
//! **Caveat:** resume executes bodies on the caller thread, so — unlike
//! the gated world, which has a watchdog — a body that spins forever in
//! local code without reaching another shared operation hangs the caller.
//! The explorer's contract (bounded bodies) already excludes those.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use super::{
    buffer_fp, codec, install_crash_hook, panic_message, Body, BufferedWrite, Footprint, Mode,
    ModelWorld, Outcome, RunReport, StopSignal,
};
use crate::fingerprint::{canonical_order, fold_state_fp, mix, Fnv1a};
use crate::world::{Env, ObjKey, Pid, Stored};
use std::hash::Hasher;

/// One completed shared-memory operation of a process: operation tag
/// (`OP_*`), key, and the (type-erased) value the operation returned.
#[derive(Clone)]
pub(super) struct LogEntry {
    pub(super) op: u64,
    pub(super) key: ObjKey,
    pub(super) result: Stored,
}

impl LogEntry {
    pub(super) fn new(op: u64, key: ObjKey, result: Stored) -> Self {
        LogEntry { op, key, result }
    }
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
}

impl ResumeCtl {
    /// Drives `pid` from its operation `log`, granting it `budget` fresh
    /// operations (0 = probe only).
    fn new(pid: Pid, log: Arc<Vec<LogEntry>>, budget: usize) -> Self {
        ResumeCtl { pid, log, cursor: 0, budget, fresh: Vec::new(), next_op: None }
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

    pub(super) fn push_fresh(&mut self, entry: LogEntry) {
        self.fresh.push(entry);
    }

    /// Records the footprint of the operation the body is about to park
    /// at.
    pub(super) fn park_at(&mut self, footprint: Footprint) {
        self.next_op = Some(footprint);
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
    /// [`StopSignal`].
    Park,
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
    /// Observation histories along this path fold declared view summaries
    /// instead of raw views (see [`super::RunConfig::view_summaries`]);
    /// fixed at the root and inherited by every successor, so a path
    /// never mixes the two identities. Only read where
    /// [`Snapshot::track`] is on; never changes behavior.
    pub(super) viewsum: bool,
    pub(super) objects: HashMap<ObjKey, super::Object>,
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
    pub(super) op_counts: HashMap<u32, u64>,
    pub(super) steps: u64,
    /// This path explores TSO store-buffer semantics
    /// ([`super::RunConfig::tso`]); fixed at the root like
    /// [`Snapshot::viewsum`], so a path never mixes memory models.
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
    pub(super) fn new(n: usize, track: bool, viewsum: bool, tso: bool) -> Self {
        Snapshot {
            n,
            track,
            viewsum,
            objects: HashMap::new(),
            mem_fp: 0,
            obs_fp: vec![0; n],
            logs: (0..n).map(|_| Arc::new(Vec::new())).collect(),
            finished: vec![false; n],
            crashed: vec![false; n],
            results: vec![None; n],
            pending_op: vec![None; n],
            own_steps: vec![0; n],
            op_counts: HashMap::new(),
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

    /// Process `p`'s liveness word as the state fingerprints fold it,
    /// extended with its store-buffer contents when (and only when) the
    /// buffer is non-empty, so SC states and drained TSO states hash
    /// alike. Bit 2 repeats the crashed bit (every recorded crash is an
    /// adversary crash); the word stays as it is because spilled sweeps
    /// persist the fingerprints built from it.
    fn flags(&self, p: Pid) -> u64 {
        let flags = u64::from(self.finished[p])
            | u64::from(self.crashed[p]) << 1
            | u64::from(self.crashed[p]) << 2
            | u64::from(self.results[p].is_some()) << 3;
        let buf = &self.buffers[p];
        if buf.is_empty() {
            flags
        } else {
            mix(flags, buffer_fp(buf))
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
                    self.flags(p),
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
    /// 1. **Order.** Each process gets a **pid-erased** sort key — its
    ///    operation-log fold, liveness flags, result, and the erased
    ///    contents of its own pid-indexed snapshot cells (the memory
    ///    refinement that keeps all-terminated states sortable under
    ///    `quotient_obs`, where the log word is zeroed) — with every
    ///    embedded pid relabeled to `0` — and
    ///    [`crate::fingerprint::canonical_order`] sorts processes by that
    ///    key (pid tie-break, the same canonical-pid seed as DPOR's
    ///    tie-break). Erasure is pid-blind by the spec's group-action
    ///    contract, so two π-related states sort their corresponding
    ///    processes into the same ranks (ties can diverge — a reduction
    ///    loss, never an unsoundness).
    /// 2. **Fold.** The state description is refolded under the induced
    ///    permutation `perm[pid] = rank`: memory objects with every value
    ///    leaf relabeled through [`super::Symmetry::relabel_value`] and
    ///    per-process snapshot cells moved to their canonical index, then
    ///    each process's (relabeled log fold, flags, relabeled result)
    ///    triple in canonical order — the same
    ///    [`crate::fingerprint::fold_state_fp`] shape as
    ///    [`Snapshot::fingerprint`].
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
        debug_assert!(
            !self.tso,
            "the symmetry quotient is gated off under TSO (store-buffer contents are \
             per-process state the erasure does not canonicalize) — the explorer must not \
             request canonical fingerprints on a TSO path"
        );
        let n = self.n;
        let zeros = vec![0; n];
        // Erased view of each process's own pid-indexed snapshot cells,
        // folded in deterministic key order. Without it, states whose
        // processes differ only through memory — e.g. all-terminated
        // states under `quotient_obs`, whose log words are zeroed —
        // would sort entirely by the pid tie-break, and π-related
        // states could canonicalize inconsistently.
        let mut own_cells = vec![0u64; n];
        let mut keys: Vec<&crate::world::ObjKey> = self.objects.keys().collect();
        keys.sort_unstable();
        for key in keys {
            if let super::Object::Snapshot(cells) = &self.objects[key] {
                if cells.len() == n {
                    let mut kh = Fnv1a::default();
                    kh.write_u64(u64::from(key.kind));
                    kh.write_u64(key.a);
                    kh.write_u64(key.b);
                    let kfp = kh.finish();
                    for (p, c) in cells.iter().enumerate() {
                        let cfp = c.as_ref().map_or(u64::MAX, |c| {
                            codec::stored_symm_fp(&c.val, &zeros, spec.relabel_value)
                                .unwrap_or(c.fp)
                        });
                        own_cells[p] = mix(own_cells[p], mix(kfp, cfp));
                    }
                }
            }
        }
        let erased: Vec<[u64; 4]> = (0..n)
            .map(|p| {
                let [obs, flags, result] = self.symm_proc_word(p, quotient_obs, &zeros, spec);
                [obs, flags, result, own_cells[p]]
            })
            .collect();
        let order = canonical_order(&erased);
        let mut perm = vec![0; n];
        let mut nontrivial = false;
        for (rank, &p) in order.iter().enumerate() {
            perm[p] = rank;
            nontrivial |= rank != p;
        }
        let mut mem = 0u64;
        for (key, obj) in &self.objects {
            let mut h = Fnv1a::default();
            h.write_u64(u64::from(key.kind));
            h.write_u64(key.a);
            h.write_u64(key.b);
            h.write_u64(self.obj_symm_fp(obj, &perm, &order, spec));
            mem ^= h.finish();
        }
        if quotient_obs {
            mem = mix(mem, self.steps);
        }
        let fp = fold_state_fp(
            mem,
            order.iter().map(|&p| {
                let [obs, flags, result] = self.symm_proc_word(p, quotient_obs, &perm, spec);
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
                let mut h = Fnv1a::default();
                h.write_u64(e.op);
                h.write_u64(u64::from(e.key.kind));
                h.write_u64(e.key.a);
                h.write_u64(e.key.b);
                h.write_u64(rfp);
                acc = mix(acc, h.finish());
            }
            acc
        };
        let result = (spec.relabel_result)(self.results[p].unwrap_or(0), perm);
        [obs, self.flags(p), result]
    }

    /// [`super::Object`] content fingerprint under the pid map: the same
    /// tagged shape as the baseline object fingerprint, with every value
    /// leaf relabeled (falling back to the cell's unrelabeled
    /// fingerprint outside the codec universe — sound, merely less
    /// merging) and, for per-process snapshot objects (`cells.len() ==
    /// n`), cells moved to their canonical index: canonical position
    /// `rank` holds the relabeled cell of process `order[rank]`.
    fn obj_symm_fp(
        &self,
        obj: &super::Object,
        perm: &[Pid],
        order: &[Pid],
        spec: &super::Symmetry,
    ) -> u64 {
        let cell_fp = |c: &Option<super::Cell>| {
            c.as_ref().map_or(u64::MAX, |c| {
                codec::stored_symm_fp(&c.val, perm, spec.relabel_value).unwrap_or(c.fp)
            })
        };
        let mut h = Fnv1a::default();
        match obj {
            super::Object::Register(slot) => {
                h.write_u64(1);
                h.write_u64(cell_fp(slot));
            }
            super::Object::Snapshot(cells) => {
                h.write_u64(2);
                if cells.len() == self.n {
                    for &p in order {
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
    /// it parks ([`StopSignal`]) or returns.
    fn drive_resumed(&self, pid: Pid, body: Body) -> Resumed {
        let env = Env::new(self.clone(), pid);
        match catch_unwind(AssertUnwindSafe(move || body(env))) {
            Ok(v) => Resumed::Finished(v),
            Err(payload) if payload.downcast_ref::<StopSignal>().is_some() => Resumed::Parked,
            Err(payload) => {
                panic!("virtual process {pid} failed: {}", panic_message(payload.as_ref()))
            }
        }
    }

    /// The initial [`Snapshot`] of a run of `bodies`: every process is
    /// settled at its first shared-memory gate (or has already decided,
    /// for bodies that return without touching shared memory). With
    /// `track`, fingerprint bookkeeping is enabled for the whole path —
    /// required for [`Snapshot::fingerprint`]. With `viewsum`, the
    /// observation histories fold declared view summaries instead of raw
    /// views ([`super::RunConfig::view_summaries`]) — a property of the
    /// whole path, inherited by every resumed successor.
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
    /// by every successor, like `viewsum`.
    pub fn snapshot_root_tso(
        n: usize,
        track: bool,
        viewsum: bool,
        tso: bool,
        bodies: Vec<Body>,
    ) -> Snapshot {
        assert_eq!(bodies.len(), n, "one body per process required");
        install_crash_hook();
        let mut snap = Snapshot::new(n, track, viewsum, tso);
        for (pid, body) in bodies.into_iter().enumerate() {
            // Probe (budget 0): the body unwinds at its first operation
            // without touching shared state, recording the op's purity.
            let world = ModelWorld::from_snapshot(
                &snap,
                ResumeCtl::new(pid, Arc::clone(&snap.logs[pid]), 0),
            );
            match world.drive_resumed(pid, body) {
                Resumed::Finished(v) => snap.finish(pid, v),
                Resumed::Parked => {
                    let (_, ctl) = world.into_resumed();
                    snap.pending_op[pid] = Some(ctl.next_op.expect("parked at a gate"));
                }
            }
        }
        snap
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
        assert!(
            pid < snap.n && !snap.finished[pid] && !snap.crashed[pid],
            "resume_from requires an alive process (pid {pid})"
        );
        install_crash_hook();
        let ctl = ResumeCtl::new(pid, Arc::clone(&snap.logs[pid]), 1);
        let world = ModelWorld::from_snapshot(snap, ctl);
        let resumed = world.drive_resumed(pid, body);
        let (mut next, ctl) = world.into_resumed();
        assert_eq!(
            ctl.cursor,
            ctl.log.len(),
            "nondeterministic process body: replay consumed {} of {} logged operations",
            ctl.cursor,
            ctl.log.len()
        );
        assert_eq!(
            ctl.fresh.len(),
            1,
            "an alive process must complete exactly one granted step (completed {})",
            ctl.fresh.len()
        );
        let mut full = (*ctl.log).clone();
        full.extend(ctl.fresh);
        next.logs[pid] = Arc::new(full);
        match resumed {
            Resumed::Finished(v) => next.finish(pid, v),
            Resumed::Parked => {
                next.pending_op[pid] =
                    Some(ctl.next_op.expect("a live body parks at its next gate"));
            }
        }
        next
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
    use crate::sched::Schedule;
    use crate::world::{Env, ObjKey};

    const REG: ObjKey = ObjKey::new(30, 0, 0);
    const SNAP: ObjKey = ObjKey::new(31, 0, 0);

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
        let snap = ModelWorld::snapshot_root(3, true, false, writer_bodies(3, 2));
        assert_eq!(snap.alive(), vec![0, 1, 2]);
        assert_eq!(snap.steps(), 0);
        assert!(!snap.pending_footprint(0).unwrap().pure_read, "first op is a snap_write");
        assert!(!snap.is_terminal());
    }

    #[test]
    fn root_records_immediately_deciding_bodies() {
        let bodies: Vec<Body> = vec![body(|_env| 41), body(|env| u64::from(env.tas(REG)))];
        let snap = ModelWorld::snapshot_root(2, false, false, bodies);
        assert_eq!(snap.alive(), vec![1]);
        assert_eq!(snap.report(false).outcomes[0], Outcome::Decided(41));
    }

    #[test]
    fn resume_steps_match_a_gated_indexed_run() {
        // Drive the snapshot engine and the gated world down the same
        // indexed schedule; outcomes, steps, and every per-pick
        // fingerprint must agree.
        let n = 2;
        let mut snap = ModelWorld::snapshot_root(n, true, false, writer_bodies(n, 2));
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
        let snap = ModelWorld::snapshot_root(n, false, false, writer_bodies(n, 1));
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
        let snap = ModelWorld::snapshot_root(n, false, false, bodies());
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
        let snap = ModelWorld::snapshot_root(1, false, false, make(0));
        let snap = ModelWorld::resume_from(&snap, 0, make(0).remove(0));
        // Resuming with a *different* body: the log replay must detect it.
        ModelWorld::resume_from(&snap, 0, make(1).remove(0));
    }

    #[test]
    #[should_panic(expected = "virtual process 0 failed")]
    fn real_panics_surface_through_resume() {
        let bodies: Vec<Body> = vec![body(|_env| panic!("algorithm bug"))];
        ModelWorld::snapshot_root(1, false, false, bodies);
    }
}
