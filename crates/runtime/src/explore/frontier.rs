//! The frontier engine: layered, snapshot-resuming, optionally parallel
//! expansion of the schedule tree.
//!
//! # Shape
//!
//! The engine maintains a **frontier** of tree nodes — each a
//! [`Snapshot`] plus its choice path, alive set, and per-path adversary
//! state — and processes the tree in layers (all nodes at one depth):
//!
//! 1. **Expand (parallel):** every `(node, choice)` job of the layer
//!    resumes one scheduling decision from the node's snapshot
//!    ([`ModelWorld::resume_from`] / [`ModelWorld::resume_crash`]) and
//!    fingerprints the child. Jobs are claimed work-stealing style from a
//!    shared atomic cursor by up to [`super::Explorer::threads`] workers;
//!    each worker also pre-checks the child's fingerprint against the
//!    **committed** visited set, a plain `HashSet` the workers only
//!    borrow: nothing inserts into it during the phase, so the check
//!    needs no lock and its outcome is independent of worker
//!    interleaving.
//! 2. **Merge (canonical):** results are folded **in job order** —
//!    visited-set insertion, within-layer duplicate resolution,
//!    statistics, violation checks, and the next layer's job list. Every
//!    nondeterministic effect of phase 1 is invisible to phase 2, so the
//!    whole exploration — counts, violations, report — is byte-identical
//!    for `threads = 1` and `threads = k` (property-tested in
//!    `tests/proptests.rs`, and pinned by the golden catalogue test,
//!    which runs at two workers against lines generated at one).
//!
//! Terminal nodes (everyone decided/crashed, or the per-path step budget
//! exhausted) synthesize their [`RunReport`] from the snapshot and are
//! checked at merge time. Nodes at the sibling-enumeration depth bound
//! run a **tail**: resumed to completion along the canonical choice-0
//! suffix as one job, exactly like the gated explorer's depth-bounded
//! runs. A violation's confirmation re-runs its choice vector through the
//! **gated** world ([`RunConfig::replay`]) and asserts both engines agree
//! on the outcomes — a permanent cross-check of the resume engine against
//! the reference implementation.
//!
//! # Crash-count branching ([`Crashes::UpTo`])
//!
//! Under the symmetric crash-count adversary, crash delivery is not a
//! policy decision but a **schedule branch**: at every interior node
//! whose crash budget is not exhausted, [`Engine::admit`] queues — next
//! to each alive process's op expansion — a crash sibling encoded as
//! choice `alive.len() + i` (the same crash index band
//! `Schedule::Indexed` decodes, so counterexample vectors replay their
//! crash placements through the gated engine verbatim). One sweep thus
//! exhausts *all* crash placements against *all* alive processes for
//! every budget `≤ f`. Because the policy names no pid, the schedule
//! space stays permutation-closed and the symmetry quotient remains
//! live — the one crash adversary it accepts. Depth-bounded tails
//! still complete along the canonical choice-0 (op) suffix: a
//! `max_depth` cut under `UpTo` is incomplete anyway, and tails never
//! deliver further crashes.
//!
//! # Reductions (see [`super::Reduction`])
//!
//! The one commutation rule lives in [`Engine::skips`]: with DPOR on, a
//! child pick is skipped when its pending *action* (operation footprint,
//! crash delivery, or flush) commutes with the action that created the
//! node and the pids are inverted — only the pid-canonical order of each
//! adjacent independent pair is explored. The observation quotient swaps
//! [`Snapshot::fingerprint`] for [`Snapshot::fingerprint_quotient`] as
//! the visited-set identity.
//!
//! # Bounded-memory frontier ([`super::Explorer::resident_ceiling`])
//!
//! Each retained frontier node normally holds its [`Snapshot`] (object
//! map + operation logs — the heavy part). Under a resident ceiling, only
//! the first `ceiling` nodes admitted per layer stay resident; colder
//! nodes are **evicted** down to their scheduling metadata (choice path,
//! alive set, pending footprints, own-step counters), and a worker that
//! expands one first **rehydrates** it by replaying its choice path
//! through the snapshot engine — the operation-log cursors make every
//! replayed decision a deterministic `O(own log)` resume, so the rebuilt
//! snapshot (and hence the whole report) is byte-identical to the
//! never-evicted run.
//!
//! Rehydration does not start at the root: every node carries an
//! [`Anchor`] — a reference to its nearest checkpoint-depth ancestor's
//! **stored** snapshot (depth a multiple of
//! [`super::Explorer::checkpoint_every`]`= k`) plus that ancestor's
//! adversary state. An evicted expansion therefore replays at most `k`
//! decisions (`anchor.depth ..` of the node's path), turning the old
//! `O(depth)` root replay into `O(k)`; the longest suffix actually
//! replayed is reported as
//! [`super::ExploreStats::max_rehydration_replay`].
//!
//! # Storage seam (see [`super::store`])
//!
//! *Where* a checkpoint snapshot lives is the [`SnapshotStore`]'s
//! business, not the engine's: when a node is admitted on a
//! checkpoint-depth layer (and eviction is possible at all), the engine
//! hands its snapshot to [`SnapshotStore::put`] and anchors the node to
//! the returned [`SnapRef`]; children inherit the parent's anchor. The
//! in-memory store returns a shared `Arc` (and exempts checkpoint
//! layers from eviction, since those `Arc`s *are* the anchors) —
//! byte-for-byte the classic engine. The disk-spilling store appends
//! the encoded snapshot to a segment file and returns a record locator,
//! so checkpoint layers need no exemption: the resident ceiling really
//! bounds RAM, and rehydration reads the anchor back from disk
//! ([`super::ExploreStats::store_reads`]). The store also persists
//! every layer boundary ([`SnapshotStore::barrier`], called by
//! [`Engine::drive`] right after each merge — the point where the
//! engine's state is exactly {committed stats, visited set, next job
//! list}), which is what makes a killed sweep resumable
//! ([`Engine::resume`]).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::model_world::{Body, Footprint, ModelWorld, RunConfig, RunReport, Snapshot, Symmetry};
use crate::sched::{CrashState, Crashes};
use crate::world::Pid;

use super::report::{ExploreReport, ExploreStats, Violation};
use super::store::{MemStore, PendingSweep, SnapRef, SnapshotStore, SpillStore, SweepCheckpoint};
use super::Explorer;

/// The scheduling decision that created a node, as an *action*: the
/// dependency footprint of the completed operation, a crash delivery, or
/// — under TSO — a store-buffer flush (the footprint is the flushed
/// head entry's memory write).
#[derive(Clone, Copy)]
pub(super) enum Action {
    Op(Footprint),
    Crash,
    Flush(Footprint),
}

impl Action {
    /// Whether two actions, performed adjacently by two different
    /// processes, commute (either order reaches the same global state).
    /// Crash deliveries commute with everything: they only flip the
    /// victim's liveness flags, which no operation reads, no flush
    /// consults, and they leave every other process's enabledness,
    /// own-step clock, and store buffer untouched. A flush is a memory
    /// write by the buffer's owner, so flush/flush and flush/op
    /// commutation is exactly footprint independence — sound under TSO
    /// because a *different* process's op never reads or appends to the
    /// flushing buffer (ops enqueue to and forward from their own
    /// buffer only), and the drain-everything ops (`tas`,
    /// `xcons_propose`, `fence`) are excluded upstream by
    /// [`Footprint::fences`] before this is consulted.
    fn commutes(&self, other: &Action) -> bool {
        match (self, other) {
            (Action::Crash, _) | (_, Action::Crash) => true,
            (Action::Op(f) | Action::Flush(f), Action::Op(g) | Action::Flush(g)) => f.commutes(g),
        }
    }

    /// The action's memory footprint, for the TSO fence rule: `None`
    /// for crashes (which touch no memory).
    fn footprint(&self) -> Option<&Footprint> {
        match self {
            Action::Op(f) | Action::Flush(f) => Some(f),
            Action::Crash => None,
        }
    }

    /// Whether the action consumes one global step (ops and flushes do;
    /// crash deliveries do not) — what the mixed-transposition timeout
    /// guard in [`Engine::skips`] needs to know.
    fn consumes_step(&self) -> bool {
        !matches!(self, Action::Crash)
    }
}

/// A node's state payload: resident nodes carry their snapshot (shared —
/// descendants anchor to checkpoint-layer snapshots); evicted nodes keep
/// only what the merge-phase reductions need and are rehydrated by the
/// worker that expands them.
pub(super) enum Store {
    Resident(Arc<Snapshot>),
    Evicted {
        /// Pending footprint per pid (what [`Engine::skips`] reads).
        pending: Vec<Option<Footprint>>,
        /// Store-buffer head (next-to-flush) footprint per pid — `None`
        /// for empty buffers and everywhere under SC (what the
        /// flush-band arm of [`Engine::skips`] reads).
        flush_heads: Vec<Option<Footprint>>,
        /// Per-process own-step clocks (what the crash plan reads).
        own_steps: Vec<u64>,
        /// Completed steps along the path (what the timeout guard of
        /// [`Engine::skips`] reads).
        steps: u64,
    },
}

/// A node's rehydration base: the nearest ancestor at a
/// checkpoint-stride depth ([`super::Explorer::checkpoint_every`]),
/// held as wherever the [`SnapshotStore`] put it — a shared in-memory
/// `Arc`, kept alive exactly as long as some frontier descendant still
/// rehydrates through it, or a disk record locator.
#[derive(Clone)]
pub(super) struct Anchor {
    /// The ancestor's depth — rehydration replays `path[depth..]`.
    pub(super) depth: usize,
    /// The ancestor's stored snapshot.
    pub(super) snap: SnapRef,
    /// The ancestor's post-path adversary state (so the replayed picks
    /// make exactly the `should_crash` calls the original expansion
    /// made).
    pub(super) crash: CrashState,
}

/// One frontier node: a reachable state plus everything path-dependent
/// the engine needs to continue from it.
pub(super) struct Node {
    pub(super) store: Store,
    /// Choice vector from the root (the replayable schedule prefix).
    pub(super) path: Vec<usize>,
    /// Cached alive set of the node's state.
    pub(super) alive: Vec<Pid>,
    /// The decision that created this node. `None` at the root.
    pub(super) incoming: Option<(Pid, Action)>,
    /// Adversary state after this node's path (one `should_crash` call
    /// per pick, as in a gated run).
    pub(super) crash: CrashState,
    /// Nearest checkpointed ancestor, installed by [`Engine::admit`]
    /// when the node itself sits on a checkpoint-depth layer and
    /// inherited from the parent otherwise. `None` throughout any
    /// exploration where nothing can be evicted ([`Engine::evictable`])
    /// — anchors exist only to serve rehydration, so keeping them alive
    /// then would pin a whole checkpoint layer's snapshots past their
    /// layer's lifetime for no benefit.
    pub(super) anchor: Option<Anchor>,
}

impl Node {
    fn pending_footprint(&self, pid: Pid) -> Option<Footprint> {
        match &self.store {
            Store::Resident(snap) => snap.pending_footprint(pid),
            Store::Evicted { pending, .. } => pending[pid],
        }
    }

    fn flush_head(&self, pid: Pid) -> Option<Footprint> {
        match &self.store {
            Store::Resident(snap) => snap.flush_footprint(pid),
            Store::Evicted { flush_heads, .. } => flush_heads[pid],
        }
    }

    fn own_steps(&self, pid: Pid) -> u64 {
        match &self.store {
            Store::Resident(snap) => snap.own_steps(pid),
            Store::Evicted { own_steps, .. } => own_steps[pid],
        }
    }

    fn steps(&self) -> u64 {
        match &self.store {
            Store::Resident(snap) => snap.steps(),
            Store::Evicted { steps, .. } => *steps,
        }
    }
}

pub(super) enum Job {
    /// Execute one scheduling decision at `node`: pick `alive[choice]`,
    /// or — for a crash-band choice `alive.len() + i` under
    /// [`Crashes::UpTo`] — deliver a crash to `alive[i]`, or — for a
    /// TSO flush-band choice `2 * alive.len() + pid` — flush the head
    /// of raw process `pid`'s store buffer.
    Expand { node: Arc<Node>, choice: usize },
    /// Resume `node` to completion along the canonical choice-0 suffix
    /// (sibling enumeration was cut by the depth bound).
    Tail { node: Arc<Node> },
}

enum JobResult {
    Expanded(Box<Expanded>),
    Tail(TailRun),
}

struct Expanded {
    /// `None` when the committed visited set already contained `fp` (the
    /// snapshot is dropped in the worker, saving merge-phase memory).
    node: Option<Node>,
    fp: u64,
    /// The observation quotient coarsened this child's identity (its raw
    /// fingerprint differs from `fp`) — feeds the `qhits` counter when
    /// the child is pruned.
    coarsened: bool,
    /// The symmetry quotient's canonical permutation moved a process
    /// (the child's identity was folded under a nontrivial pid
    /// relabeling) — feeds the `symm=` counter when the child is
    /// pruned.
    symm_coarsened: bool,
    pre_pruned: bool,
    /// The executed decision was a crash-band branch of
    /// [`Crashes::UpTo`] — feeds the `crashes=` counter.
    crash_branch: bool,
    /// The executed decision flushed a store-buffer head (a TSO
    /// flush-band branch) — feeds the `flushes=` counter.
    flushed: bool,
    /// Choice-path suffix length a rehydration replayed (0 if the parent
    /// was resident) — feeds `max_rehydration_replay`.
    rehydration_replay: u64,
    /// Checkpoint records this job read back from disk storage (0 under
    /// the in-memory store) — feeds `store_reads`.
    store_reads: u64,
}

struct TailRun {
    report: RunReport,
    /// Full choice vector from the root, including the `0` tail.
    choices: Vec<usize>,
    /// Total picks from the root (the run's schedule depth).
    depth: usize,
    /// See [`Expanded::rehydration_replay`].
    rehydration_replay: u64,
    /// See [`Expanded::store_reads`].
    store_reads: u64,
}

/// The read-only context expansion workers share.
struct Shared<'a, F> {
    n: usize,
    crashes: &'a Crashes,
    make_bodies: &'a F,
    /// The committed visited set — read-only while workers expand.
    visited: &'a HashSet<u64>,
    /// Visited-state pruning enabled — also the only reason to
    /// fingerprint child snapshots, so it doubles as the tracking flag.
    prune: bool,
    /// Fingerprint children by the observation quotient.
    quotient: bool,
    /// Fold declared view summaries into live observation histories
    /// (fixed at the root snapshot; kept here for rehydration roots).
    viewsum: bool,
    /// Fingerprint children by the pid-symmetry canonical form (`Some`
    /// only when the reduction is on, the program declared a spec, and
    /// the adversary is pid-blind — [`Crashes::None`] or
    /// [`Crashes::UpTo`]; see [`Engine::with_store`]).
    symmetry: Option<Symmetry>,
    /// Explore under the TSO memory model (fixed at the root snapshot;
    /// kept here for rehydration roots).
    tso: bool,
    max_steps: u64,
}

/// One exploration in progress. Construction wires the configuration;
/// [`Engine::run`] consumes it.
pub(super) struct Engine<'a, F, C> {
    ex: &'a Explorer,
    make_bodies: &'a F,
    check: &'a C,
    /// See [`Shared::prune`] — also the snapshot-tracking flag.
    prune: bool,
    dpor: bool,
    quotient: bool,
    viewsum: bool,
    /// See [`Shared::symmetry`].
    symmetry: Option<Symmetry>,
    threads: usize,
    /// Fingerprints of every retained state. Only the engine thread
    /// inserts ([`Engine::merge`], [`Engine::resume`]).
    visited: HashSet<u64>,
    stats: ExploreStats,
    violations: Vec<Violation>,
    complete: bool,
    stopped: bool,
    /// Jobs queued so far — the meter [`super::ExploreLimits::max_expansions`]
    /// is charged against. `stats.expansions` counts *executed* jobs, so
    /// on an early stop the final layer's still-queued jobs are charged
    /// here but never reported as performed.
    queued: u64,
    /// Snapshots kept resident in the layer currently being admitted
    /// (reset per merge pass; compared against
    /// [`super::Explorer::resident_ceiling`]).
    resident: usize,
    /// Where checkpoint snapshots live ([`super::store`]).
    store: Box<dyn SnapshotStore>,
    /// The store is the disk-spilling one — gates barrier bookkeeping
    /// (visited-delta collection) that would be waste under [`MemStore`].
    spilling: bool,
    /// Completed layer barriers (the root admission is layer 0's).
    layer: u64,
    /// Fingerprints committed to the visited set since the last barrier,
    /// in canonical merge order (collected only when spilling).
    visited_delta: Vec<u64>,
}

impl<'a, F, C> Engine<'a, F, C>
where
    F: Fn() -> Vec<Body> + Sync,
    C: Fn(&RunReport) -> Result<(), String>,
{
    pub(super) fn new(ex: &'a Explorer, make_bodies: &'a F, check: &'a C) -> Self {
        let (store, spilling): (Box<dyn SnapshotStore>, bool) = match &ex.spill_dir {
            Some(dir) => {
                let store = SpillStore::create(dir).unwrap_or_else(|e| {
                    panic!(
                        "explore spill: cannot initialize sweep directory {}: {e}",
                        dir.display()
                    )
                });
                (Box::new(store), true)
            }
            None => (Box::new(MemStore), false),
        };
        Engine::with_store(ex, make_bodies, check, store, spilling)
    }

    fn with_store(
        ex: &'a Explorer,
        make_bodies: &'a F,
        check: &'a C,
        store: Box<dyn SnapshotStore>,
        spilling: bool,
    ) -> Self {
        // The symmetry quotient requires a pid-blind adversary: an
        // [`Crashes::AtOwnStep`] plan names concrete pids, so delivering
        // it breaks the permutation-closure the canonical fingerprint's
        // soundness rests on. [`Crashes::None`] and the
        // crash-count adversary [`Crashes::UpTo`] qualify — the budget
        // is a pure count (the number of crashed flags in the state,
        // which the erasure sort key already carries), so relabeling
        // pids maps every explored schedule to an explored schedule
        // with the same budget consumption (docs/EXPLORER.md §3.6).
        // And, of course, a declared spec. TSO gates the quotient off
        // wholesale: the symmetric fingerprint canonicalizes per-process
        // words by erasure sort, and a store buffer's *contents* (keys
        // whose `ObjKey::a` may encode concrete pids) are folded into
        // those words — a permutation of pids does not permute the
        // buffered keys, so the canonical form is not an automorphism
        // witness under TSO. The summary line then says `symm=off`.
        let symmetry = if ex.reduction.prune_visited
            && ex.reduction.symmetry
            && !ex.tso
            && matches!(ex.crashes, Crashes::None | Crashes::UpTo(_))
        {
            ex.symmetry
        } else {
            None
        };
        let mut stats = ExploreStats::new(ex.n);
        stats.symm_enabled = symmetry.is_some();
        Engine {
            ex,
            make_bodies,
            check,
            prune: ex.reduction.prune_visited,
            dpor: ex.reduction.dpor,
            quotient: ex.reduction.prune_visited && ex.reduction.quotient_obs,
            viewsum: ex.reduction.prune_visited && ex.reduction.view_summaries,
            symmetry,
            threads: ex.threads.max(1),
            visited: HashSet::new(),
            stats,
            violations: Vec::new(),
            complete: true,
            stopped: false,
            queued: 0,
            resident: 0,
            store,
            spilling,
            layer: 0,
            visited_delta: Vec::new(),
        }
    }

    pub(super) fn run(mut self) -> ExploreReport {
        let snap = ModelWorld::snapshot_root_tso(
            self.ex.n,
            self.prune,
            self.viewsum,
            self.ex.tso,
            (self.make_bodies)(),
        );
        let root = Node {
            alive: snap.alive(),
            store: Store::Resident(Arc::new(snap)),
            path: Vec::new(),
            incoming: None,
            crash: CrashState::new(self.ex.crashes.clone()),
            anchor: None,
        };
        let mut jobs = Vec::new();
        self.admit(root, &mut jobs);
        self.drive(jobs)
    }

    /// Continues an interrupted spilled sweep from its persisted state:
    /// the pending layer's jobs re-execute from the last barrier, which
    /// is sound because the barrier committed *all* merge effects of
    /// prior layers and *none* of the pending one.
    pub(super) fn resume(
        ex: &'a Explorer,
        make_bodies: &'a F,
        check: &'a C,
        pending: PendingSweep,
    ) -> ExploreReport {
        let mut engine = Engine::with_store(ex, make_bodies, check, Box::new(pending.store), true);
        assert_eq!(
            engine.symmetry.is_some(),
            pending.stats.symm_enabled,
            "explore spill: the resumed configuration {} the symmetry quotient but the \
             manifest says the original sweep {} it — the visited set would be in the wrong \
             state space",
            if engine.symmetry.is_some() { "enables" } else { "disables" },
            if pending.stats.symm_enabled { "enabled" } else { "disabled" },
        );
        engine.visited.extend(pending.visited);
        engine.stats = pending.stats;
        engine.violations = pending.violations;
        engine.queued = pending.queued;
        engine.complete = pending.complete;
        engine.layer = pending.layer;
        engine.drive(pending.jobs)
    }

    /// The layer loop, entered with layer `self.layer`'s job list (from
    /// the root admission or a resumed manifest). Persists a barrier
    /// after every merge; a configured [`super::Explorer::halt_after_layers`]
    /// exits *between* barriers — leaving the sweep directory exactly as
    /// a kill at that instant would — and reports incomplete.
    fn drive(mut self, mut jobs: Vec<Job>) -> ExploreReport {
        self.barrier(&jobs, false);
        let mut halted = false;
        while !jobs.is_empty() && !self.stopped {
            if self.ex.halt_after_layers.is_some_and(|h| self.layer >= h) {
                halted = true;
                break;
            }
            let results = self.execute(&jobs);
            jobs = self.merge(results);
            self.layer += 1;
            self.barrier(&jobs, false);
        }
        if !halted {
            self.barrier(&[], true);
        }
        ExploreReport {
            complete: self.complete && self.violations.is_empty() && !halted,
            stats: self.stats,
            violations: self.violations,
        }
    }

    /// Persists one layer boundary through the store (a no-op in
    /// memory). The engine's own state never depends on it — only a
    /// future [`Engine::resume`] does.
    fn barrier(&mut self, jobs: &[Job], done: bool) {
        let ck = SweepCheckpoint {
            ex: self.ex,
            layer: self.layer,
            jobs,
            stats: &self.stats,
            violations: &self.violations,
            visited_delta: &self.visited_delta,
            queued: self.queued,
            complete: self.complete,
            done,
        };
        if let Err(e) = self.store.barrier(&ck) {
            panic!("explore spill: cannot persist the layer-{} barrier: {e}", self.layer);
        }
        self.visited_delta.clear();
    }

    /// Whether eviction (and hence rehydration) can happen at all — the
    /// only situation node anchors are worth installing.
    fn evictable(&self) -> bool {
        self.ex.resident_ceiling != usize::MAX || self.spilling
    }

    /// Classifies a freshly retained node: terminal and timed-out nodes
    /// are checked now; depth-bounded nodes queue a tail job; everything
    /// else queues one expansion job per non-redundant choice. A
    /// non-terminal node beyond the layer's resident ceiling is evicted
    /// to scheduling metadata before queueing.
    fn admit(&mut self, mut node: Node, jobs: &mut Vec<Job>) {
        let Store::Resident(snap) = &node.store else {
            unreachable!("children are admitted resident");
        };
        let depth = node.path.len();
        // Under TSO a state with everyone finished/crashed but writes
        // still parked in store buffers is *not* terminal: the pending
        // flushes are hardware actions that still mutate shared memory
        // (and future readers), so such nodes branch on flushes below.
        // Under SC every buffer is empty and this is the classic check.
        let flushable = snap.flushable();
        if node.alive.is_empty() && flushable.is_empty() {
            let report = snap.report(false);
            self.finish_run(report, node.path, depth);
            return;
        }
        if snap.steps() >= self.ex.limits.max_steps {
            let report = snap.report(true);
            self.finish_run(report, node.path, depth);
            return;
        }
        // Checkpoint-depth nodes anchor to themselves: their snapshot
        // goes to the store, and every descendant down to the next
        // checkpoint layer inherits the returned reference.
        if self.evictable() && depth % self.ex.checkpoint_every == 0 {
            let snap_ref = match self.store.put(snap, &mut self.stats) {
                Ok(snap_ref) => snap_ref,
                Err(e) => panic!("explore spill: cannot store a checkpoint snapshot: {e}"),
            };
            node.anchor = Some(Anchor { depth, snap: snap_ref, crash: node.crash.clone() });
        }
        let node = self.maybe_evict(node);
        if depth >= self.ex.limits.max_depth {
            // The bound binds: this is no longer a full proof.
            self.complete = false;
            if self.take_work() {
                jobs.push(Job::Tail { node: Arc::new(node) });
            }
            return;
        }
        // The branch degree counts every schedulable action: alive
        // processes plus — under TSO — pending flushes. Flushes can push
        // the degree past `n` (up to `2n`), so the histogram grows on
        // demand; SC sweeps never index past the preallocated `n + 1`
        // slots and their summary lines are untouched.
        let degree = node.alive.len() + flushable.len();
        if degree >= self.stats.branching_histogram.len() {
            self.stats.branching_histogram.resize(degree + 1, 0);
        }
        self.stats.branching_histogram[degree] += 1;
        let node = Arc::new(node);
        // Op expansions (`choice < alive.len()`), then — while the
        // crash-count adversary's budget lasts — one crash sibling per
        // alive process in the crash index band (`alive.len() + i`
        // delivers a crash to `alive[i]`; other adversaries never have
        // budget, so the band stays empty for them), then one flush
        // sibling per non-empty store buffer in the TSO flush band
        // (`2 * alive.len() + pid` flushes raw process `pid`'s head —
        // raw pids, because buffers outlive their owner's finish or
        // crash and the owner may have left the alive set). The band
        // offsets match `ScheduleState::pick` exactly, so counterexample
        // vectors replay their crash and flush placements through the
        // gated engine verbatim.
        let a = node.alive.len();
        let choices = if node.crash.budget_left() { 0..2 * a } else { 0..a };
        for choice in choices.chain(flushable.iter().map(|&p| 2 * a + p)) {
            if self.skips(&node, choice) {
                self.stats.dpor_skips += 1;
                continue;
            }
            if !self.take_work() {
                return;
            }
            jobs.push(Job::Expand { node: Arc::clone(&node), choice });
        }
    }

    /// Applies the resident ceiling: the first
    /// [`super::Explorer::resident_ceiling`] nodes admitted per layer
    /// keep their snapshot; colder ones are stripped down to scheduling
    /// metadata and rehydrated on demand by the expanding worker.
    /// Under the in-memory store, checkpoint layers (depth a multiple
    /// of [`super::Explorer::checkpoint_every`]) are exempt: their
    /// resident snapshots *are* the anchors every descendant rehydrates
    /// from, so evicting one would silently reintroduce the `O(depth)`
    /// root replay this policy exists to avoid. The disk store keeps
    /// its anchors in the segment file and waives the exemption —
    /// checkpoint nodes count against the ceiling like any other.
    fn maybe_evict(&mut self, node: Node) -> Node {
        if self.store.exempts_checkpoints() && node.path.len() % self.ex.checkpoint_every == 0 {
            return node;
        }
        if self.resident < self.ex.resident_ceiling {
            self.resident += 1;
            return node;
        }
        let Store::Resident(snap) = &node.store else {
            return node;
        };
        self.stats.evicted += 1;
        let pending = (0..self.ex.n).map(|p| snap.pending_footprint(p)).collect();
        let flush_heads = (0..self.ex.n).map(|p| snap.flush_footprint(p)).collect();
        let own_steps = (0..self.ex.n).map(|p| snap.own_steps(p)).collect();
        let steps = snap.steps();
        Node { store: Store::Evicted { pending, flush_heads, own_steps, steps }, ..node }
    }

    /// Accounts one unit of expansion work against the budget; on
    /// exhaustion the exploration stops incomplete.
    fn take_work(&mut self) -> bool {
        if self.queued >= self.ex.limits.max_expansions {
            self.complete = false;
            self.stopped = true;
            return false;
        }
        self.queued += 1;
        true
    }

    /// The partial-order skip rule ([`super::Reduction::dpor`]). Picking
    /// `p = alive[choice]` right after the action that created `node`
    /// (performed by `q`) is redundant when `p < q` and the two actions
    /// *commute* ([`Action::commutes`]: footprint independence — pure
    /// reads included — and crash commutation): the transposed pair
    /// reaches the canonical (pid-ascending) pair's state, whose subtree
    /// is covered from its canonical representative. `p`'s action is a
    /// crash delivery when the (stateless) crash plan fires at its
    /// current own-step clock, and the completed operation's footprint
    /// otherwise.
    fn skips(&self, node: &Node, choice: usize) -> bool {
        if !self.dpor {
            return false;
        }
        let Some((q, act_q)) = &node.incoming else { return false };
        let a = node.alive.len();
        let (p, act_p) = if let Some(pid) = choice.checked_sub(2 * a) {
            // A TSO flush-band sibling: the action is the buffered
            // head's memory write, attributed to the buffer's owner
            // (raw pid). Always available at the parent too: no other
            // process's action touches `pid`'s buffer (only `pid`'s own
            // ops enqueue to it, and same-pid pairs never skip), so the
            // covering transposed path flushes the identical entry.
            let Some(head) = node.flush_head(pid) else { return false };
            (pid, Action::Flush(head))
        } else if let Some(i) = choice.checked_sub(a) {
            // A crash-band sibling ([`Crashes::UpTo`] budget branch):
            // the action is the crash delivery itself. Transposing it
            // before `q`'s incoming action is always budget-sound: ops
            // consume no crash budget, so the budget available at the
            // parent is (crash incoming) one more than, or (op
            // incoming) equal to, the budget here — either way enough
            // for the covering path to deliver this crash first.
            (node.alive[i], Action::Crash)
        } else {
            let p = node.alive[choice];
            let act = if self.crash_fires(p, node.own_steps(p)) {
                Action::Crash
            } else {
                let Some(footprint) = node.pending_footprint(p) else { return false };
                Action::Op(footprint)
            };
            (p, act)
        };
        if p >= *q {
            return false;
        }
        // The TSO fence rule: an operation that drains the caller's
        // store buffer (`tas`, `xcons_propose`, `fence`) may write
        // several objects beyond its single-key footprint, so under TSO
        // it conflicts with every adjacent action — never skip around
        // it. SC is untouched (buffers are empty, the drain is a
        // no-op, and the single-key footprint is exact).
        if self.ex.tso
            && [&act_p, act_q].iter().any(|act| act.footprint().is_some_and(Footprint::fences))
        {
            return false;
        }
        // A crash delivery consumes no step but an operation (or a
        // flush) does, so transposing a step-consuming action past an
        // incoming crash is only valid when the covering path — the
        // step *first*, then the crash — is not cut by the step budget
        // in between: if the step lands exactly on `max_steps`, the
        // covering run times out before the crash is delivered and
        // reports the victim undecided instead of crashed. (Op-op,
        // op-flush, and flush-flush transpositions are symmetric in
        // steps, and crash-crash consumes none, so only this mixed
        // case needs the guard.)
        if matches!(act_q, Action::Crash)
            && act_p.consumes_step()
            && node.steps() + 1 >= self.ex.limits.max_steps
        {
            return false;
        }
        act_p.commutes(act_q)
    }

    /// Whether the (stateless) crash plan crashes `pid` at its `own`-th
    /// step. [`Crashes::Random`] never reaches here: [`Explorer::run`]
    /// rejects it.
    fn crash_fires(&self, pid: Pid, own: u64) -> bool {
        match &self.ex.crashes {
            Crashes::None => false,
            Crashes::AtOwnStep(plan) => plan.iter().any(|&(p, s)| p == pid && s == own),
            // Crash-count crashes are explicit crash-band branches, never
            // a side effect of an op pick.
            Crashes::UpTo(_) => false,
            Crashes::Random { .. } => unreachable!("Explorer::run rejects random crashes"),
        }
    }

    /// Phase 1: runs the layer's jobs, on this thread or on a scoped
    /// worker pool claiming jobs from an atomic cursor. Only reads shared
    /// state; all results are folded canonically by [`Engine::merge`].
    fn execute(&self, jobs: &[Job]) -> Vec<JobResult> {
        let shared = Shared {
            n: self.ex.n,
            crashes: &self.ex.crashes,
            make_bodies: self.make_bodies,
            visited: &self.visited,
            prune: self.prune,
            quotient: self.quotient,
            viewsum: self.viewsum,
            symmetry: self.symmetry,
            tso: self.ex.tso,
            max_steps: self.ex.limits.max_steps,
        };
        let workers = self.threads.min(jobs.len());
        if workers <= 1 {
            return jobs.iter().map(|job| run_job(&shared, job)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let out = run_job(&shared, &jobs[i]);
                    *slots[i].lock() = Some(out);
                });
            }
        });
        slots.into_iter().map(|slot| slot.into_inner().expect("every job ran")).collect()
    }

    /// Phase 2: folds the layer's results in job order — deterministic
    /// regardless of which worker produced what when.
    fn merge(&mut self, results: Vec<JobResult>) -> Vec<Job> {
        // Every result in hand was executed, even those a mid-merge stop
        // discards below — `expansions` reports performed work.
        self.stats.expansions += results.len() as u64;
        self.resident = 0;
        let mut jobs = Vec::new();
        for result in results {
            if self.stopped {
                break;
            }
            match result {
                JobResult::Tail(tail) => {
                    self.stats.depth_limited_runs += 1;
                    self.stats.max_rehydration_replay =
                        self.stats.max_rehydration_replay.max(tail.rehydration_replay);
                    self.stats.store_reads += tail.store_reads;
                    self.finish_run(tail.report, tail.choices, tail.depth);
                }
                JobResult::Expanded(child) => {
                    self.stats.max_rehydration_replay =
                        self.stats.max_rehydration_replay.max(child.rehydration_replay);
                    self.stats.store_reads += child.store_reads;
                    if child.crash_branch {
                        self.stats.crash_branches += 1;
                    }
                    if child.flushed {
                        self.stats.flush_branches += 1;
                    }
                    if self.prune && (child.pre_pruned || !self.visited.insert(child.fp)) {
                        self.stats.states_pruned += 1;
                        if child.coarsened {
                            self.stats.quotient_hits += 1;
                        }
                        if child.symm_coarsened {
                            self.stats.symm_hits += 1;
                        }
                        continue;
                    }
                    if self.prune && self.spilling {
                        self.visited_delta.push(child.fp);
                    }
                    self.stats.states_visited += 1;
                    let node = child.node.expect("retained children carry their node");
                    self.admit(node, &mut jobs);
                }
            }
        }
        jobs
    }

    /// Accounts one completed run and checks it; a violation is confirmed
    /// against the gated engine before being recorded.
    fn finish_run(&mut self, report: RunReport, choices: Vec<usize>, depth: usize) {
        self.stats.runs += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if let Err(message) = (self.check)(&report) {
            self.confirm_against_gated_replay(&choices, &report);
            self.violations.push(Violation { choices, message });
            if !self.ex.collect_all {
                self.complete = false;
                self.stopped = true;
            }
        }
    }

    /// Re-runs a violating choice vector through the gated world (the
    /// same [`RunConfig::replay`] the public [`super::replay`] builds)
    /// and asserts both engines reach the same outcomes.
    fn confirm_against_gated_replay(&self, choices: &[usize], report: &RunReport) {
        let cfg = RunConfig::replay(
            self.ex.n,
            self.ex.crashes.clone(),
            self.ex.limits.max_steps,
            choices,
        )
        .tso(self.ex.tso);
        let replayed = ModelWorld::run(cfg, (self.make_bodies)());
        assert_eq!(
            replayed.outcomes, report.outcomes,
            "snapshot-resume exploration and gated replay disagree on a counterexample \
             (choices {choices:?}) — model-world engine bug"
        );
    }
}

fn run_job<F: Fn() -> Vec<Body>>(shared: &Shared<'_, F>, job: &Job) -> JobResult {
    match job {
        Job::Expand { node, choice } => {
            JobResult::Expanded(Box::new(expand(shared, node, *choice)))
        }
        Job::Tail { node } => JobResult::Tail(run_tail(shared, node)),
    }
}

/// One scheduling decision from `snap`, advancing `crash` by its
/// `should_crash` call: a firing crash replaces the step, exactly as in
/// the gated scheduler loop. Returns the successor and whether the pick
/// delivered a crash.
///
/// Under the `Fn() -> Vec<Body>` contract a non-crash step must
/// materialize all `n` bodies to use the picked one — `O(n)` small boxed
/// allocations per step. Negligible for the catalogued sweeps; a
/// per-pid body constructor in the public API would remove it if a
/// multi-million-expansion sweep ever makes it measurable.
fn step_snapshot<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    snap: &Snapshot,
    crash: &mut CrashState,
    pid: Pid,
) -> (Snapshot, bool) {
    if crash.should_crash(pid, snap.own_steps(pid)) {
        (ModelWorld::resume_crash(snap, pid), true)
    } else {
        let body = (shared.make_bodies)().into_iter().nth(pid).expect("one body per process");
        (ModelWorld::resume_from(snap, pid, body), false)
    }
}

/// Executes one choice-vector entry from `snap`: a pick in the op band
/// (`choice < alive.len()`) is a [`step_snapshot`] scheduling decision,
/// a pick in the crash index band (`alive.len() + i`) delivers one
/// of the crash-count adversary's budgeted crashes to `alive[i]` —
/// consuming no step — and a pick in the TSO flush band
/// (`2 * alive.len() + pid`, raw pids) flushes the head of `pid`'s
/// store buffer, consuming one step but no adversary decision — each
/// exactly as the gated engine decodes the same vector through
/// `Schedule::Indexed`. Returns the successor, the chosen pid, and
/// whether the pick delivered a crash / flushed a buffer.
fn apply_choice<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    snap: &Snapshot,
    alive: &[Pid],
    crash: &mut CrashState,
    choice: usize,
) -> (Snapshot, Pid, bool, bool) {
    if let Some(pid) = choice.checked_sub(2 * alive.len()) {
        (ModelWorld::resume_flush(snap, pid), pid, false, true)
    } else if let Some(i) = choice.checked_sub(alive.len()) {
        let pid = alive[i];
        let fired = crash.force_crash();
        debug_assert!(fired, "crash-band choices are queued only while budget remains");
        (ModelWorld::resume_crash(snap, pid), pid, true, false)
    } else {
        let pid = alive[choice];
        let (next, crashed) = step_snapshot(shared, snap, crash, pid);
        (next, pid, crashed, false)
    }
}

/// Rebuilds an evicted node's snapshot by replaying its choice-path
/// suffix from its [`Anchor`] — every replayed decision a deterministic
/// resume from a copy of the anchor's snapshot (cloned from memory or
/// read back and decoded from the segment file, counted in `reads`) and
/// adversary state, so the result is identical to the snapshot that was
/// evicted. At most [`super::Explorer::checkpoint_every`] decisions are
/// replayed (the anchor is the nearest checkpoint-depth ancestor).
/// Falls back to a fresh root for anchorless nodes — only the root
/// itself, which is never evicted, so the fallback is defensive.
fn rehydrate<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    node: &Node,
    reads: &mut u64,
) -> (Snapshot, u64) {
    let (mut snap, mut crash, from) = match &node.anchor {
        Some(anchor) => {
            let base = match &anchor.snap {
                SnapRef::Mem(snap) => (**snap).clone(),
                SnapRef::Disk(disk) => {
                    *reads += 1;
                    disk.read().unwrap_or_else(|e| {
                        panic!("explore spill: cannot rehydrate a checkpoint snapshot: {e}")
                    })
                }
            };
            (base, anchor.crash.clone(), anchor.depth)
        }
        None => (
            ModelWorld::snapshot_root_tso(
                shared.n,
                shared.prune,
                shared.viewsum,
                shared.tso,
                (shared.make_bodies)(),
            ),
            CrashState::new(shared.crashes.clone()),
            0,
        ),
    };
    let suffix = &node.path[from..];
    for &choice in suffix {
        let alive = snap.alive();
        let (next, _, _, _) = apply_choice(shared, &snap, &alive, &mut crash, choice);
        snap = next;
    }
    (snap, suffix.len() as u64)
}

/// The node's snapshot: borrowed if resident, rebuilt into `slot` if
/// evicted (also reporting the replayed suffix length and any disk
/// reads).
fn snapshot_of<'s, F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    node: &'s Node,
    slot: &'s mut Option<Snapshot>,
    replayed: &mut u64,
    reads: &mut u64,
) -> &'s Snapshot {
    match &node.store {
        Store::Resident(snap) => snap,
        Store::Evicted { .. } => {
            let (snap, suffix) = rehydrate(shared, node, reads);
            *replayed = suffix;
            &*slot.insert(snap)
        }
    }
}

/// Executes one scheduling decision from `node`.
fn expand<F: Fn() -> Vec<Body>>(shared: &Shared<'_, F>, node: &Node, choice: usize) -> Expanded {
    let mut crash = node.crash.clone();
    let mut rebuilt = None;
    let mut rehydration_replay = 0;
    let mut store_reads = 0;
    let parent = snapshot_of(shared, node, &mut rebuilt, &mut rehydration_replay, &mut store_reads);
    // The flushed head's footprint must be read from the *parent* (the
    // child's buffer no longer holds it).
    let flushed_head = choice.checked_sub(2 * node.alive.len()).map(|pid| {
        parent.flush_footprint(pid).expect("flush-band choices target non-empty buffers")
    });
    let (snap, pid, crashed_now, flushed_now) =
        apply_choice(shared, parent, &node.alive, &mut crash, choice);
    let crash_branch = (node.alive.len()..2 * node.alive.len()).contains(&choice);
    let (fp, coarsened, symm_coarsened) = if shared.prune {
        let coarsened = shared.quotient && snap.quotient_coarsens();
        match &shared.symmetry {
            Some(spec) => {
                let (fp, nontrivial) = snap.fingerprint_symmetric(shared.quotient, spec);
                (fp, coarsened, nontrivial)
            }
            None if shared.quotient => (snap.fingerprint_quotient(), coarsened, false),
            None => (snap.fingerprint(), false, false),
        }
    } else {
        (0, false, false)
    };
    if shared.prune && shared.visited.contains(&fp) {
        return Expanded {
            node: None,
            fp,
            coarsened,
            symm_coarsened,
            pre_pruned: true,
            crash_branch,
            flushed: flushed_now,
            rehydration_replay,
            store_reads,
        };
    }
    let incoming = if let Some(head) = flushed_head {
        Some((pid, Action::Flush(head)))
    } else if crashed_now {
        Some((pid, Action::Crash))
    } else {
        let executed = node.pending_footprint(pid).expect("an alive process parks at a gate");
        Some((pid, Action::Op(executed)))
    };
    let mut path = node.path.clone();
    path.push(choice);
    let alive = snap.alive();
    let child = Node {
        store: Store::Resident(Arc::new(snap)),
        path,
        alive,
        incoming,
        crash,
        // The admit pass overwrites this with a self-anchor on
        // checkpoint-depth layers.
        anchor: node.anchor.clone(),
    };
    Expanded {
        node: Some(child),
        fp,
        coarsened,
        symm_coarsened,
        pre_pruned: false,
        crash_branch,
        flushed: flushed_now,
        rehydration_replay,
        store_reads,
    }
}

/// Resumes `node` to completion along the canonical choice-0 suffix —
/// the depth-bounded sweep's "runs still execute to completion" path.
fn run_tail<F: Fn() -> Vec<Body>>(shared: &Shared<'_, F>, node: &Node) -> TailRun {
    let mut rebuilt = None;
    let mut rehydration_replay = 0;
    let mut store_reads = 0;
    let mut snap =
        snapshot_of(shared, node, &mut rebuilt, &mut rehydration_replay, &mut store_reads).clone();
    let mut crash = node.crash.clone();
    let mut choices = node.path.clone();
    let report = loop {
        let alive = snap.alive();
        if alive.is_empty() && snap.is_terminal() {
            break snap.report(false);
        }
        if snap.steps() >= shared.max_steps {
            break snap.report(true);
        }
        if let Some(&pid) = alive.first() {
            choices.push(0);
            let (next, _) = step_snapshot(shared, &snap, &mut crash, pid);
            snap = next;
        } else {
            // Everyone finished or crashed but store buffers still hold
            // writes (TSO only): drain them in raw-pid order, recording
            // each flush as its properly band-encoded choice
            // (`2 * alive.len() + pid` — here `alive` is empty, so just
            // `pid`) so the vector replays through the gated engine.
            let pid = *snap.flushable().first().expect("non-terminal with no alive process");
            choices.push(2 * alive.len() + pid);
            snap = ModelWorld::resume_flush(&snap, pid);
        }
    };
    TailRun { report, depth: choices.len(), choices, rehydration_replay, store_reads }
}
