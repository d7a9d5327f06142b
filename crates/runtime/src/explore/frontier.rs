//! The frontier engine: layered, snapshot-resuming expansion of the
//! schedule tree.
//!
//! # Shape
//!
//! The engine maintains a **frontier** of tree nodes — each a choice
//! path plus its [`Snapshot`] or, once evicted, the [`Anchor`] it is
//! rebuilt from — and processes the tree in layers (all nodes at one
//! depth). Everything else a node's scheduling needs (alive set,
//! pending footprints, clocks, and the adversary state: which
//! processes have crashed) is read from the snapshot.
//!
//! A layer is a list of node jobs, each one node plus the choices queued
//! on it, which [`Engine::run_layer`] runs in one phase, in job order.
//! A job takes its node's snapshot (or rebuilds it once, if evicted),
//! resumes each queued scheduling decision from it
//! ([`ModelWorld::resume_from`] / [`ModelWorld::resume_crash`] /
//! [`ModelWorld::resume_flush`]), and fingerprints each child and prunes
//! or admits it, in choice order, as soon as it has run — visited-set
//! insertion, statistics, violation checks, and the next layer's job
//! list. So the layer never holds more than one parent snapshot and one
//! child in flight, and a job — with its parent snapshot — is dropped as
//! soon as it has run. Jobs in order and children in choice order is the
//! canonical order every report, state file and segment file is written
//! in.
//!
//! Terminal nodes (everyone decided/crashed, or the per-path step budget
//! exhausted) synthesize their [`RunReport`] from the snapshot and are
//! checked when admitted. Nodes at the sibling-enumeration depth bound
//! run a **tail**: resumed to completion along the canonical choice-0
//! suffix as one job, exactly like the gated explorer's depth-bounded
//! runs. A violation's confirmation re-runs its choice vector through the
//! **gated** world ([`Explorer::replay`]) and asserts both engines agree
//! on the outcomes — a permanent cross-check of the resume engine against
//! the reference implementation.
//!
//! # Crash-count branching ([`Crashes::UpTo`])
//!
//! Under the symmetric crash-count adversary, crash delivery is not a
//! policy decision but a **schedule branch**: at every interior node
//! whose crash budget is not exhausted — the budget spent is the number
//! of crashed flags in the node's snapshot ([`Snapshot::crashes`]) —
//! [`Engine::admit`] queues, next to each alive process's op expansion,
//! a crash sibling encoded as choice `alive.len() + i` (the crash band
//! of [`Pick::decode`], which `Schedule::Indexed` shares, so
//! counterexample vectors replay their crash placements through the
//! gated engine verbatim). One sweep thus exhausts *all* crash
//! placements against *all* alive processes for every budget `≤ f`.
//! Because the policy names no pid, the schedule space stays
//! permutation-closed and the symmetry quotient remains
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
//! Every frontier snapshot has exactly one owner: the [`Node`] that
//! holds it or, once evicted, the spill store's segment file. Eviction
//! happens only in a spilled sweep ([`super::Explorer::spill_to`]): only
//! the first `ceiling` nodes admitted per layer keep their snapshot;
//! colder nodes are **evicted** down to their choice path and anchor,
//! and an evicted node's job **rehydrates** it, once, by replaying its
//! choice path through the snapshot engine — the operation-log cursors
//! make every replayed decision a deterministic `O(own log)` resume, so
//! the rebuilt snapshot (and hence the whole report) is byte-identical
//! to the never-evicted run.
//! [`Engine::admit`] makes every decision that reads a node's state
//! (terminality, tail, choices, skips) from the freshly expanded node's
//! snapshot, so an evicted node is rebuilt only to be expanded.
//!
//! Rehydration does not start at the root: every node of a spilled sweep
//! carries an [`Anchor`] — the segment-file record of its nearest
//! checkpoint-depth ancestor (depth a multiple of
//! [`super::Explorer::checkpoint_every`]`= k`; depth 0 is one, so no
//! node lacks an anchor). An evicted expansion therefore replays at most
//! `k` decisions (`anchor.depth ..` of the node's path); the longest
//! suffix actually replayed is reported as
//! [`super::ExploreStats::max_rehydration_replay`].
//!
//! # Storage ([`super::store`])
//!
//! [`Engine::store`] is `None` for an in-memory sweep, which installs no
//! anchors and evicts nothing. Under [`super::Explorer::spill_to`] it is
//! a [`SpillStore`]: [`SpillStore::put`] appends each checkpoint
//! snapshot to the segment file and the node anchors to the returned
//! record, and rehydration reads the anchor back through the store
//! ([`SpillStore::read`], counted in
//! [`super::ExploreStats::store_reads`]). [`SpillStore::barrier`]
//! persists every layer boundary — called by [`Engine::drive`] right
//! after each layer, where the engine's state is exactly {committed
//! stats, visited set, next job list} — which is what makes a killed
//! sweep resumable ([`Engine::resume`]).

use std::collections::HashSet;

use crate::model_world::{Body, Footprint, ModelWorld, RunReport, Snapshot, Symmetry};
use crate::sched::{Crashes, Pick};
use crate::world::Pid;

use super::report::{ExploreReport, ExploreStats, Violation};
use super::store::{DiskRef, PendingSweep, SpillStore, SweepCheckpoint};
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

/// A node's rehydration base in a spilled sweep: the segment-file record
/// of its nearest ancestor at a checkpoint-stride depth
/// ([`super::Explorer::checkpoint_every`]).
#[derive(Clone, Copy)]
pub(super) struct Anchor {
    /// The ancestor's depth — rehydration replays `path[depth..]`.
    pub(super) depth: usize,
    /// The ancestor's stored snapshot.
    pub(super) disk: DiskRef,
}

/// One frontier node: a choice path plus either its snapshot or, once
/// evicted, the anchor it is rebuilt from. Everything else the engine
/// reads — the alive set, footprints, clocks and crash count — comes
/// from the snapshot.
pub(super) struct Node {
    /// The node's state while resident — its only owner; `None` once
    /// evicted ([`Engine::stays_resident`]), when its job rehydrates it.
    pub(super) snap: Option<Box<Snapshot>>,
    /// Choice vector from the root (the replayable schedule prefix).
    pub(super) path: Vec<usize>,
    /// Nearest checkpointed ancestor, installed by [`Engine::admit`]
    /// when the node itself sits on a checkpoint-depth layer and
    /// inherited from the parent otherwise. `None` throughout an
    /// in-memory sweep, which evicts nothing; in a spilled one every
    /// node has an anchor, since depth 0 is a checkpoint layer.
    pub(super) anchor: Option<Anchor>,
}

/// One node of a frontier layer and the work queued on it; running the
/// job reads or rebuilds the node's snapshot once.
pub(super) enum Job {
    /// Execute each of `choices` — never empty, strictly ascending — at
    /// `node`: a choice decodes by band ([`Pick::decode`]) to a step, a
    /// [`Crashes::UpTo`] crash delivery, or a TSO store-buffer flush.
    Expand { node: Node, choices: Vec<usize> },
    /// Resume `node` to completion along the canonical choice-0 suffix
    /// (sibling enumeration was cut by the depth bound).
    Tail { node: Node },
}

impl Job {
    /// The expansions the job performs: one per queued choice, and one
    /// for a tail.
    fn work(&self) -> u64 {
        match self {
            Job::Expand { choices, .. } => choices.len() as u64,
            Job::Tail { .. } => 1,
        }
    }
}

/// One exploration in progress. Construction wires the configuration;
/// [`Engine::run`] consumes it.
pub(super) struct Engine<'a, F, C> {
    ex: &'a Explorer,
    make_bodies: &'a F,
    check: &'a C,
    /// Visited-state pruning enabled — also the only reason to
    /// fingerprint child snapshots, so it doubles as the tracking flag.
    prune: bool,
    dpor: bool,
    /// Fingerprint children by the observation quotient.
    quotient: bool,
    viewsum: bool,
    /// Fingerprint children by the pid-symmetry canonical form (`Some`
    /// only when the reduction is on, the program declared a spec, and
    /// the adversary is pid-blind — [`Crashes::None`] or
    /// [`Crashes::UpTo`]; see [`Engine::with_store`]).
    symmetry: Option<Symmetry>,
    /// Fingerprints of every retained state.
    visited: HashSet<u64>,
    stats: ExploreStats,
    violations: Vec<Violation>,
    complete: bool,
    stopped: bool,
    /// Choices (and tails) queued so far — the meter
    /// [`super::ExploreLimits::max_expansions`] is charged against.
    /// `stats.expansions` counts every queued choice of each layer the
    /// sweep started, so the two differ only by the jobs queued for a
    /// layer that an early stop never started.
    queued: u64,
    /// Snapshots kept resident in the layer currently being admitted
    /// (reset per layer; compared against
    /// [`super::Explorer::resident_ceiling`]).
    resident: usize,
    /// `None`: an in-memory sweep (no checkpoints, nothing evicted);
    /// `Some`: checkpoints go to the segment file and every layer
    /// barrier is persisted ([`super::store`]).
    store: Option<SpillStore>,
    /// Completed layer barriers (the root admission is layer 0's).
    layer: u64,
    /// Fingerprints committed to the visited set since the last barrier,
    /// in canonical order (collected only when spilling).
    visited_delta: Vec<u64>,
}

impl<'a, F, C> Engine<'a, F, C>
where
    F: Fn() -> Vec<Body>,
    C: Fn(&RunReport) -> Result<(), String>,
{
    pub(super) fn new(ex: &'a Explorer, make_bodies: &'a F, check: &'a C) -> Self {
        let store = ex.spill_dir.as_ref().map(|dir| {
            SpillStore::create(dir).unwrap_or_else(|e| {
                panic!("explore spill: cannot initialize sweep directory {}: {e}", dir.display())
            })
        });
        Engine::with_store(ex, make_bodies, check, store)
    }

    fn with_store(
        ex: &'a Explorer,
        make_bodies: &'a F,
        check: &'a C,
        store: Option<SpillStore>,
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
            visited: HashSet::new(),
            stats,
            violations: Vec::new(),
            complete: true,
            stopped: false,
            queued: 0,
            resident: 0,
            store,
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
        let root = Node { snap: Some(Box::new(snap)), path: Vec::new(), anchor: None };
        let mut jobs = Vec::new();
        self.admit(root, None, &mut jobs);
        self.drive(jobs)
    }

    /// Continues an interrupted spilled sweep from its persisted state:
    /// the pending layer's jobs re-execute from the last barrier, which
    /// is sound because the barrier committed *all* effects of prior
    /// layers and *none* of the pending one.
    pub(super) fn resume(
        ex: &'a Explorer,
        make_bodies: &'a F,
        check: &'a C,
        pending: PendingSweep,
    ) -> ExploreReport {
        let mut engine = Engine::with_store(ex, make_bodies, check, Some(pending.store));
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
    /// after every layer; a configured [`super::Explorer::halt_after_layers`]
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
            jobs = self.run_layer(jobs);
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

    /// Persists one layer boundary when spilling. The engine's own state
    /// never depends on it — only a future [`Engine::resume`] does.
    fn barrier(&mut self, jobs: &[Job], done: bool) {
        let Some(store) = &mut self.store else { return };
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
        if let Err(e) = store.barrier(&ck) {
            panic!("explore spill: cannot persist the layer-{} barrier: {e}", self.layer);
        }
        self.visited_delta.clear();
    }

    /// Classifies a freshly retained node, created by `incoming` (`None`
    /// at the root): terminal and timed-out nodes are checked now;
    /// depth-bounded nodes queue a tail job; everything else queues one
    /// expansion job holding its non-redundant choices. Every decision
    /// reads the node's own snapshot, which `admit` holds on to until
    /// the node is queued, resident or evicted.
    fn admit(&mut self, mut node: Node, incoming: Option<(Pid, Action)>, jobs: &mut Vec<Job>) {
        let snap = node.snap.take().expect("children are admitted resident");
        let depth = node.path.len();
        let alive = snap.alive();
        // Under TSO a state with everyone finished/crashed but writes
        // still parked in store buffers is *not* terminal: the pending
        // flushes are hardware actions that still mutate shared memory
        // (and future readers), so such nodes branch on flushes below.
        // Under SC every buffer is empty and this is the classic check.
        let flushable = snap.flushable();
        if alive.is_empty() && flushable.is_empty() {
            self.finish_run(snap.report(false), node.path);
            return;
        }
        if snap.steps() >= self.ex.limits.max_steps {
            self.finish_run(snap.report(true), node.path);
            return;
        }
        // Checkpoint-depth nodes of a spilled sweep anchor to the record
        // the store appends, and every descendant down to the next
        // checkpoint layer inherits that.
        if let Some(store) = self.store.as_mut().filter(|_| depth % self.ex.checkpoint_every == 0) {
            let disk = store.put(&snap, &mut self.stats).unwrap_or_else(|e| {
                panic!("explore spill: cannot store a checkpoint snapshot: {e}")
            });
            node.anchor = Some(Anchor { depth, disk });
        }
        let resident = self.stays_resident();
        if depth >= self.ex.limits.max_depth {
            // The bound binds: this is no longer a full proof.
            self.complete = false;
            if self.take_work() {
                node.snap = resident.then_some(snap);
                jobs.push(Job::Tail { node });
            }
            return;
        }
        // The branch degree counts every schedulable action: alive
        // processes plus — under TSO — pending flushes. Flushes can push
        // the degree past `n` (up to `2n`), so the histogram grows on
        // demand; SC sweeps never index past the preallocated `n + 1`
        // slots and their summary lines are untouched.
        let degree = alive.len() + flushable.len();
        if degree >= self.stats.branching_histogram.len() {
            self.stats.branching_histogram.resize(degree + 1, 0);
        }
        self.stats.branching_histogram[degree] += 1;
        // Op expansions (`choice < alive.len()`), then — while the
        // crash-count adversary's budget lasts — one crash sibling per
        // alive process in the crash band, then one flush sibling per
        // non-empty store buffer in the TSO flush band (raw pids,
        // because buffers outlive their owner's finish or crash). The
        // bands are [`Pick::decode`]'s, which `ScheduleState::pick`
        // shares, so counterexample vectors replay their crash and flush
        // placements through the gated engine verbatim.
        let a = alive.len();
        let picks = if self.ex.crashes.budget_left(snap.crashes()) { 0..2 * a } else { 0..a };
        let mut choices = Vec::new();
        for choice in picks.chain(flushable.iter().map(|&p| 2 * a + p)) {
            if self.skips(&snap, &alive, incoming, choice) {
                self.stats.dpor_skips += 1;
                continue;
            }
            if !self.take_work() {
                break;
            }
            choices.push(choice);
        }
        if !choices.is_empty() {
            node.snap = resident.then_some(snap);
            jobs.push(Job::Expand { node, choices });
        }
    }

    /// Applies the resident ceiling to one admitted node: the first
    /// [`super::Explorer::resident_ceiling`] nodes admitted per layer
    /// keep their snapshot; colder ones are evicted down to their path
    /// and anchor, and rehydrated when their job runs. Only a
    /// spilled sweep sets a ceiling ([`super::Explorer::run`] checks),
    /// so every evicted node has a disk anchor.
    fn stays_resident(&mut self) -> bool {
        if self.resident < self.ex.resident_ceiling {
            self.resident += 1;
            return true;
        }
        self.stats.evicted += 1;
        false
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

    /// The partial-order skip rule ([`super::Reduction::dpor`]), read
    /// off the node's snapshot `snap` (alive set `alive`). Picking `p`
    /// right after the action that created the node (`incoming`,
    /// performed by `q`) is redundant when `p < q` and the two actions
    /// *commute* ([`Action::commutes`]: footprint independence — pure
    /// reads included — and crash commutation): the transposed pair
    /// reaches the canonical (pid-ascending) pair's state, whose subtree
    /// is covered from its canonical representative. An op-band pick of
    /// `p` is a crash delivery when the (stateless) crash plan fires at
    /// its current own-step clock, and the completed operation's
    /// footprint otherwise.
    fn skips(
        &self,
        snap: &Snapshot,
        alive: &[Pid],
        incoming: Option<(Pid, Action)>,
        choice: usize,
    ) -> bool {
        if !self.dpor {
            return false;
        }
        let Some((q, act_q)) = incoming else { return false };
        let (p, act_p) = match Pick::decode(choice, alive) {
            // A TSO flush-band sibling: the action is the buffered
            // head's memory write, attributed to the buffer's owner
            // (raw pid). Always available at the parent too: no other
            // process's action touches `pid`'s buffer (only `pid`'s own
            // ops enqueue to it, and same-pid pairs never skip), so the
            // covering transposed path flushes the identical entry.
            Pick::Flush(pid) => {
                let Some(head) = snap.flush_footprint(pid) else { return false };
                (pid, Action::Flush(head))
            }
            // A crash-band sibling ([`Crashes::UpTo`] budget branch):
            // the action is the crash delivery itself. Transposing it
            // before `q`'s incoming action is always budget-sound: ops
            // consume no crash budget, so the budget available at the
            // parent is (crash incoming) one more than, or (op
            // incoming) equal to, the budget here — either way enough
            // for the covering path to deliver this crash first.
            Pick::Crash(pid) => (pid, Action::Crash),
            Pick::Op(pid) if self.ex.crashes.fires_at(pid, snap.own_steps(pid)) => {
                (pid, Action::Crash)
            }
            Pick::Op(pid) => {
                let Some(footprint) = snap.pending_footprint(pid) else { return false };
                (pid, Action::Op(footprint))
            }
        };
        if p >= q {
            return false;
        }
        // The TSO fence rule: an operation that drains the caller's
        // store buffer (`tas`, `xcons_propose`, `fence`) may write
        // several objects beyond its single-key footprint, so under TSO
        // it conflicts with every adjacent action — never skip around
        // it. SC is untouched (buffers are empty, the drain is a
        // no-op, and the single-key footprint is exact).
        if self.ex.tso
            && [&act_p, &act_q].iter().any(|act| act.footprint().is_some_and(Footprint::fences))
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
            && snap.steps() + 1 >= self.ex.limits.max_steps
        {
            return false;
        }
        act_p.commutes(&act_q)
    }

    /// Runs one layer, consuming its jobs in order, and returns the next
    /// layer's jobs.
    fn run_layer(&mut self, jobs: Vec<Job>) -> Vec<Job> {
        // The whole layer is charged up front: when a violation or the
        // budget stops the sweep part-way through it, the jobs it leaves
        // unrun still count their queued choices.
        self.stats.expansions += jobs.iter().map(Job::work).sum::<u64>();
        self.resident = 0;
        let mut next = Vec::new();
        for job in jobs {
            if self.stopped {
                break;
            }
            self.run_job(job, &mut next);
        }
        next
    }

    /// Runs one job, consuming it: takes the node's snapshot, or rebuilds
    /// it once if the node was evicted, then expands every queued choice
    /// or runs the tail.
    fn run_job(&mut self, job: Job, next: &mut Vec<Job>) {
        let (mut node, choices) = match job {
            Job::Expand { node, choices } => (node, Some(choices)),
            Job::Tail { node } => (node, None),
        };
        let snap = match node.snap.take() {
            Some(snap) => *snap,
            None => self.rehydrate(&node),
        };
        let Some(choices) = choices else {
            self.run_tail(node.path, snap);
            return;
        };
        for choice in choices {
            if self.stopped {
                break;
            }
            self.expand(&node, &snap, choice, next);
        }
    }

    /// Executes one queued choice at `node`, whose snapshot is `parent`,
    /// and prunes the child at once if its state was visited, or admits
    /// it into the next layer.
    fn expand(&mut self, node: &Node, parent: &Snapshot, choice: usize, next: &mut Vec<Job>) {
        let (snap, pick, action) = self.apply_choice(parent, choice);
        match pick {
            Pick::Crash(_) => self.stats.crash_branches += 1,
            Pick::Flush(_) => self.stats.flush_branches += 1,
            Pick::Op(_) => {}
        }
        if self.prune {
            let (fp, symm_coarsened) = match &self.symmetry {
                Some(spec) => snap.fingerprint_symmetric(self.quotient, spec),
                None if self.quotient => (snap.fingerprint_quotient(), false),
                None => (snap.fingerprint(), false),
            };
            if !self.visited.insert(fp) {
                self.stats.states_pruned += 1;
                // The observation quotient coarsened the child's identity
                // (its raw fingerprint differs), or the symmetry
                // quotient's canonical permutation moved a process.
                if self.quotient && snap.quotient_coarsens() {
                    self.stats.quotient_hits += 1;
                }
                if symm_coarsened {
                    self.stats.symm_hits += 1;
                }
                return;
            }
            if self.store.is_some() {
                self.visited_delta.push(fp);
            }
        }
        self.stats.states_visited += 1;
        let mut path = node.path.clone();
        path.push(choice);
        // `admit` overwrites the anchor with a self-anchor on
        // checkpoint-depth layers.
        let child = Node { snap: Some(Box::new(snap)), path, anchor: node.anchor };
        self.admit(child, Some((pick.pid(), action)), next);
    }

    /// Accounts one completed run and checks it; a violation is confirmed
    /// against the gated engine before being recorded.
    fn finish_run(&mut self, report: RunReport, choices: Vec<usize>) {
        self.stats.runs += 1;
        self.stats.max_depth = self.stats.max_depth.max(choices.len());
        if let Err(message) = (self.check)(&report) {
            self.confirm_against_gated_replay(&choices, &report);
            self.violations.push(Violation { choices, message });
            if !self.ex.collect_all {
                self.complete = false;
                self.stopped = true;
            }
        }
    }

    /// Re-runs a violating choice vector through the gated world
    /// ([`Explorer::replay`]) and asserts both engines reach the same
    /// outcomes.
    fn confirm_against_gated_replay(&self, choices: &[usize], report: &RunReport) {
        let replayed = self.ex.replay(self.make_bodies, choices);
        assert_eq!(
            replayed.outcomes, report.outcomes,
            "snapshot-resume exploration and gated replay disagree on a counterexample \
             (choices {choices:?}) — model-world engine bug"
        );
    }

    /// Executes one choice-vector entry from `snap`, decoded by band
    /// ([`Pick::decode`]) exactly as the gated engine decodes the same
    /// vector through `Schedule::Indexed`: an op pick is a scheduling
    /// decision — a crash instead of the step when the (stateless) crash
    /// plan fires at the process's own-step clock — a crash-band pick
    /// delivers one of the crash-count adversary's budgeted crashes,
    /// consuming no step, and a flush-band pick flushes the head of a raw
    /// pid's store buffer, consuming one step but no adversary decision.
    /// Returns the successor, the decoded pick, and the executed action
    /// (its footprint read from `snap`: the flushed head is gone from the
    /// successor's buffer).
    ///
    /// Under the `Fn() -> Vec<Body>` contract a step must materialize all
    /// `n` bodies to use the picked one — `O(n)` small boxed allocations
    /// per step. Negligible for the catalogued sweeps; a per-pid body
    /// constructor in the public API would remove it if a
    /// multi-million-expansion sweep ever makes it measurable.
    ///
    /// # Panics
    ///
    /// Panics, naming the choice, if the decoded pick is not enabled at
    /// `snap`: a crash-band pick with no crash budget left, or a flush-band
    /// pick for a pid whose store buffer is empty or that does not exist.
    /// The engine never queues one, so such a choice comes from a corrupt
    /// sweep state file; executing it would silently change the report.
    fn apply_choice(&self, snap: &Snapshot, choice: usize) -> (Snapshot, Pick, Action) {
        let crashes = &self.ex.crashes;
        let pick = Pick::decode(choice, &snap.alive());
        let action = match pick {
            Pick::Op(pid) if crashes.fires_at(pid, snap.own_steps(pid)) => Some(Action::Crash),
            Pick::Op(pid) => Some(Action::Op(
                snap.pending_footprint(pid).expect("an alive process parks at a gate"),
            )),
            Pick::Crash(_) => crashes.budget_left(snap.crashes()).then_some(Action::Crash),
            Pick::Flush(pid) if pid < snap.n() => snap.flush_footprint(pid).map(Action::Flush),
            Pick::Flush(_) => None,
        };
        let Some(action) = action else {
            panic!(
                "explore: choice {choice} ({pick:?}) is not enabled at its node: a corrupt sweep \
                 state file, or an engine bug"
            )
        };
        let pid = pick.pid();
        let successor = match action {
            Action::Op(_) => {
                let body = (self.make_bodies)().into_iter().nth(pid).expect("one body per process");
                ModelWorld::resume_from(snap, pid, body)
            }
            Action::Crash => ModelWorld::resume_crash(snap, pid),
            Action::Flush(_) => ModelWorld::resume_flush(snap, pid),
        };
        (successor, pick, action)
    }

    /// Rebuilds an evicted node's snapshot by replaying its choice-path
    /// suffix from its [`Anchor`] — every replayed decision a
    /// deterministic resume from the anchor's snapshot, read back and
    /// decoded from the segment file, so the result is identical to the
    /// snapshot that was evicted. At most
    /// [`super::Explorer::checkpoint_every`] decisions are replayed (the
    /// anchor is the nearest checkpoint-depth ancestor); the read and the
    /// replayed suffix length feed `store_reads` and
    /// `max_rehydration_replay`.
    fn rehydrate(&mut self, node: &Node) -> Snapshot {
        let anchor =
            node.anchor.as_ref().expect("a spilled sweep anchors every node (depth 0 checkpoints)");
        let store = self.store.as_ref().expect("only a spilled sweep evicts");
        let mut snap = store.read(&anchor.disk).unwrap_or_else(|e| {
            panic!("explore spill: cannot rehydrate a checkpoint snapshot: {e}")
        });
        let suffix = &node.path[anchor.depth..];
        for &choice in suffix {
            snap = self.apply_choice(&snap, choice).0;
        }
        self.stats.store_reads += 1;
        self.stats.max_rehydration_replay =
            self.stats.max_rehydration_replay.max(suffix.len() as u64);
        snap
    }

    /// Resumes `snap`, the state at the end of the path `choices`, to
    /// completion along the canonical choice-0 suffix, which it appends to
    /// `choices`, and checks the run — the depth-bounded sweep's "runs
    /// still execute to completion" path.
    fn run_tail(&mut self, mut choices: Vec<usize>, mut snap: Snapshot) {
        let report = loop {
            if snap.is_terminal() {
                break snap.report(false);
            }
            if snap.steps() >= self.ex.limits.max_steps {
                break snap.report(true);
            }
            // Step the lowest alive process; once everyone finished or
            // crashed but store buffers still hold writes (TSO only),
            // drain them in raw-pid order — with no alive process the
            // flush band starts at 0, so the choice is the pid itself and
            // the vector replays through the gated engine.
            let choice = if snap.alive().is_empty() { snap.flushable()[0] } else { 0 };
            choices.push(choice);
            snap = self.apply_choice(&snap, choice).0;
        };
        self.stats.depth_limited_runs += 1;
        self.finish_run(report, choices);
    }
}
