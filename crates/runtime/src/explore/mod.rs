//! Bounded model checking of model-world programs: exhaustive schedule
//! enumeration with visited-state pruning, DPOR-style commutation,
//! state quotients, and snapshot-resume execution — loom-style, but over
//! the model world's virtual processes.
//!
//! # Enumeration (snapshot-resuming frontier search)
//!
//! A model-world run is fully determined by its *choice vector*: at the
//! `i`-th scheduling decision the scheduler picks `alive[c_i % alive.len()]`
//! ([`Schedule::Indexed`](crate::sched::Schedule::Indexed)). Because
//! process bodies are deterministic, the
//! branch degree at each decision is a function of the prefix of choices,
//! so the space of schedules forms a finitely-branching tree. The
//! explorer walks that tree **without ever re-executing a prefix**: each
//! tree node is held as a [`Snapshot`](crate::model_world::Snapshot)
//! (shared memory, per-process
//! operation logs — the continuation cursors — observation histories,
//! adversary state), and a child is produced by resuming exactly one
//! scheduling decision from its parent's snapshot
//! ([`ModelWorld::resume_from`]). Completed runs are checked from the
//! terminal snapshot's synthesized [`RunReport`].
//!
//! The frontier is processed in depth layers, each a list of node jobs
//! (a node plus the choices queued on it), run in order on the caller's
//! thread: each child is fingerprinted, pruned or admitted, in choice
//! order, as soon as it has run, so a layer holds one job's parent and
//! child in flight beside the frontier it builds. See the `frontier`
//! module docs.
//!
//! # Prefix pruning ([`Reduction::prune_visited`])
//!
//! The exponential cost of naive enumeration is sibling *subtrees* that
//! converge to the same global state (e.g. two writes to different
//! snapshot cells in either order). Every child snapshot is fingerprinted
//! (shared-memory contents — maintained incrementally as XOR deltas per
//! write — plus, per process, its liveness flags, result, and the rolling
//! hash of its *observation history*: every operation's key and returned
//! value). A deterministic closure's control state is exactly a function
//! of the values its operations returned, so
//!
//! > equal fingerprint ⇒ equal memory and equal per-process control
//! > states ⇒ identical behavior under identical schedule suffixes.
//!
//! A child whose fingerprint was already visited is dropped with its
//! entire subtree: the state's futures were or will be covered from its
//! first occurrence. No reachable final state is lost, so a checker that
//! reads only run outcomes (decided values, crash/undecided status) sees
//! the same violation set with pruning on or off — property-tested in
//! `tests/proptests.rs`. Path statistics (`steps`, `ops_by_kind`) are
//! *not* part of the state and may differ between the retained
//! representative and a pruned schedule.
//!
//! # DPOR footprints ([`Reduction::dpor`])
//!
//! Every parked process's pending operation is known to its snapshot as
//! a [`Footprint`](crate::model_world::Footprint) — which object it
//! touches, at which snapshot cell, and whether it is a pure read (a
//! function of the process's own operation log, so nothing executes to
//! learn it). Two adjacent *actions* commute when their footprints are
//! independent (both pure reads, disjoint objects, or snapshot writes to
//! disjoint cells) or when either is a crash delivery (a crash only
//! flips the victim's liveness flags, which no operation reads, and
//! leaves every other process's enabledness and own-step clock
//! untouched). In the spirit of sleep sets, only the canonical
//! (pid-ascending) order of each adjacent commuting pair is explored and
//! the transposed sibling is skipped *before executing it* — the
//! persistent-set-style backtracking of DPOR collapsed onto the layered
//! frontier. Crash plans are honored: a pick that would deliver a crash
//! is a crash action, never the pending operation. Soundness is
//! *differentially tested* against the unreduced enumeration on random
//! programs (`tests/proptests.rs`) and with each reduction switched off
//! on the agreement fixtures, in the spirit of testing reductions
//! against the unreduced semantics rather than assuming them.
//!
//! [`Crashes::Random`] is rejected ([`Explorer::run`] panics): its RNG
//! state is a function of the pick history, not of the reached state,
//! so no reduction's argument applies (that policy is for sampling, not
//! exhaustive exploration).
//!
//! # Observation quotient ([`Reduction::quotient_obs`])
//!
//! State fingerprints normally fold every process's full observation
//! history — required while the process is running, because a
//! deterministic closure's control state is exactly a function of the
//! values its operations returned. Once a process has **finished or
//! crashed** it has no futures: only its result and liveness flags can
//! influence any future outcome report — except through the run's
//! *total step count*, which the `max_steps` timeout reads. The
//! quotiented fingerprint
//! ([`Snapshot::fingerprint_quotient`](crate::model_world::Snapshot::fingerprint_quotient))
//! therefore zeroes terminated processes' observation words and folds
//! the path's total step count in their stead, merging states that
//! differ only in *how* the terminated processes reached their outcomes
//! while keeping the step budget's remaining headroom part of the state
//! identity.
//!
//! **Invariant:** `fingerprint_quotient(s₁) = fingerprint_quotient(s₂)`
//! implies (modulo 64-bit collisions) equal shared memory, equal
//! observation histories for every *alive* process, equal
//! `(finished, crashed, result)` triples for every process, and equal
//! total step counts — hence equal futures under equal schedule suffixes
//! *and* equal outcome reports for every suffix, timeout cuts included
//! (property-tested with a deliberately binding `max_steps` in
//! `tests/proptests.rs`). This is exactly the contract prefix pruning
//! needs, so the quotient composes with [`Reduction::prune_visited`]
//! without weakening it; it merges, among others, order-equivalent poll
//! histories (commuting poll results that fold into different histories
//! en route to the same decided value) the moment the poller returns.
//! Checkers must remain outcome-only — the same contract pruning already
//! imposes.
//!
//! # View summaries ([`crate::world::Env::snap_scan_via`])
//!
//! The observation quotient only collapses *terminated* histories; a
//! process still mid-protocol keeps its full poll history in the state
//! identity — even when its program, by construction, consumed almost
//! none of it. [`crate::world::Env::snap_scan_via`] lets a program
//! **declare** that at an operation: the scan returns only a summary
//! (e.g. Figure 1's propose-scan returns just `saw_stable`), so the
//! process's continuation is a function of the summary alone. Every
//! observation history folds the value each operation returned to the
//! body, so the live process's fingerprint folds the declared summary,
//! not the raw `O(n)` view — merging mid-flight states whose raw views
//! differed but whose summaries (and memory, flags, results) agree.
//! This is not a [`Reduction`] switch: a program that wants the raw
//! view in its state identity scans with [`crate::world::Env::snap_scan`]
//! and applies the summary in its body. Soundness is by construction —
//! nothing the fold drops was ever returned to the program — and is
//! *differentially tested* like DPOR, at the program level: random
//! programs written both ways must reach identical violation sets and
//! replay verdicts in `tests/proptests.rs`.
//!
//! # Bounded-memory frontier ([`Explorer::resident_ceiling`])
//!
//! Wide layers at `n ≥ 4` can hold hundreds of thousands of live
//! snapshots. A spilled sweep ([`Explorer::spill_to`]) can cap the nodes
//! that keep their snapshot: only the first `ceiling` nodes admitted per
//! layer stay resident; colder nodes are evicted down to their choice
//! path and anchor and deterministically rehydrated when their job runs
//! — reports are byte-identical to the unbounded run (tested in
//! `crates/agreement/tests/explore_sweeps.rs`). The
//! anchor is the segment-file record of the node's nearest ancestor
//! whose depth is a multiple of [`Explorer::checkpoint_every`]`= k`, so
//! a rehydration replays at most `k` decisions instead of `O(depth)`
//! (pinned by a unit test on [`ExploreStats::max_rehydration_replay`]).
//! An in-memory sweep evicts nothing: each snapshot has one owner, its
//! node, which is dropped as soon as its job has run.
//!
//! # Crashes and bounds
//!
//! Crash plans compose orthogonally: [`Crashes::AtOwnStep`] is expressed
//! per victim's own step count, which is schedule independent, so
//! exhausting `(victim, step)` pairs × schedules covers every placement
//! of a crash in every interleaving. The crash-**count** adversary
//! [`Crashes::UpTo`] goes further: instead of enumerating plans by
//! hand, one sweep *branches* on crash delivery at every park point
//! with unspent budget (a crash sibling next to each op expansion in
//! the frontier), exhausting all placements of up to `f` crashes — and
//! because it names no pid, it is the one crash adversary the symmetry
//! quotient stays live under. [`ExploreLimits::max_depth`] bounds
//! *sibling enumeration* depth for bounded-depth sweeps of larger
//! configurations: runs still execute to completion (along the canonical
//! choice-0 suffix), but scheduling alternatives are only explored in the
//! first `max_depth` picks (the report is then marked incomplete).
//! [`ExploreLimits::max_expansions`] bounds total work;
//! [`ExploreLimits::max_steps`] bounds each path.
//!
//! Use **bounded** process bodies (no unbounded busy-wait loops): a
//! spinning process makes the schedule tree explode within the step
//! budget — and, with snapshot resumption executing bodies on the caller
//! thread, a body that never reaches another shared operation hangs. The
//! agreement protocols are verified with propose sequences plus a fixed
//! number of polls — safety (agreement, validity) is exhaustively checked
//! on every interleaving of the proposes.

mod frontier;
pub mod report;
mod store;

pub use report::{ExploreReport, ExploreStats, Violation};

use std::path::{Path, PathBuf};

use crate::model_world::{Body, ModelWorld, RunConfig, RunReport, Symmetry};
use crate::sched::Crashes;

/// Default ancestor-checkpoint stride of a spilled sweep
/// ([`Explorer::checkpoint_every`]): every 16th layer's snapshots are
/// written to the segment file, and rehydrating an evicted node replays
/// at most 16 decisions. Irrelevant to an in-memory sweep.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 16;

/// Bounds for an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum number of scheduling expansions (one resumed decision or
    /// depth-bounded completion run each — the unit of exploration work)
    /// before giving up (incomplete exploration).
    pub max_expansions: u64,
    /// Step budget per run (guards against accidental unbounded bodies).
    pub max_steps: u64,
    /// Sibling-enumeration depth bound (in picks): scheduling
    /// alternatives are only explored in the first `max_depth` decisions
    /// of a run. `usize::MAX` (the default) means unbounded.
    pub max_depth: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits { max_expansions: 1_000_000, max_steps: 10_000, max_depth: usize::MAX }
    }
}

/// Which search-space reductions the explorer applies.
///
/// Declared view summaries ([`crate::world::Env::snap_scan_via`]) are not
/// a reduction here: every fingerprinted state folds what each operation
/// returned to its body, so each sweep that prunes folds the summaries a
/// program declares (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reduction {
    /// Skip subtrees rooted at an already-visited global state.
    pub prune_visited: bool,
    /// Keep only the canonical order of adjacent commuting actions —
    /// independent footprints (pure reads included) and crash
    /// deliveries (DPOR-style persistent-set pruning; see the
    /// [module docs](self)). Inactive in a TSO sweep whose symmetry
    /// quotient is live ([`Explorer::tso`]).
    pub dpor: bool,
    /// Quotient state fingerprints by the observation abstraction:
    /// finished and crashed processes' observation histories are dropped
    /// from the state identity (their results and flags remain). Only
    /// meaningful with [`Reduction::prune_visited`].
    pub quotient_obs: bool,
    /// Canonicalize visited-state identity under **process-identity
    /// permutation** for programs that declared a pid-symmetry spec
    /// ([`Explorer::symmetry`],
    /// [`crate::model_world::Snapshot::fingerprint_symmetric`]): the up
    /// to `n!` pid-permuted copies of each state collapse to one
    /// canonical representative. Only meaningful with
    /// [`Reduction::prune_visited`]; a no-op for programs that declare
    /// no spec, and automatically inactive under pid-naming crash
    /// adversaries ([`Crashes::AtOwnStep`] plans name concrete pids, so
    /// the transition system is not permutation-closed — the pid-blind
    /// [`Crashes::UpTo`] keeps it closed and the quotient live).
    pub symmetry: bool,
}

impl Reduction {
    /// All reductions (the default).
    pub fn full() -> Self {
        Reduction { prune_visited: true, dpor: true, quotient_obs: true, symmetry: true }
    }

    /// Plain exhaustive enumeration — the reference the reductions are
    /// validated against. It fingerprints nothing, so no state identity
    /// exists to fold a view summary into; the pruning-only reference
    /// `Reduction { prune_visited: true, ..Reduction::none() }` folds
    /// declared summaries like every pruning sweep.
    pub fn none() -> Self {
        Reduction { prune_visited: false, dpor: false, quotient_obs: false, symmetry: false }
    }
}

impl Default for Reduction {
    fn default() -> Self {
        Reduction::full()
    }
}

/// A configured bounded model checker for `n`-process model-world
/// programs.
///
/// ```
/// use mpcn_runtime::explore::Explorer;
/// use mpcn_runtime::model_world::{Body, ModelWorld};
/// use mpcn_runtime::world::{Env, ObjKey};
///
/// // Two processes race on a test&set object; exactly one wins, on
/// // every interleaving.
/// let key = ObjKey::new(900, 0, 0);
/// let report = Explorer::new(2).run(
///     || {
///         (0..2)
///             .map(|_| Box::new(move |env: Env<ModelWorld>| u64::from(env.tas(key))) as Body)
///             .collect()
///     },
///     |r| {
///         let wins: u64 = r.decided_values().iter().sum();
///         (wins == 1).then_some(()).ok_or_else(|| format!("{wins} winners"))
///     },
/// );
/// assert!(report.complete);
/// report.assert_no_violation();
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    n: usize,
    crashes: Crashes,
    /// Explore under the x86-TSO memory model: writes park in
    /// per-process FIFO store buffers and flushes are first-class
    /// scheduling branches ([`Explorer::tso`]).
    tso: bool,
    limits: ExploreLimits,
    reduction: Reduction,
    collect_all: bool,
    resident_ceiling: usize,
    checkpoint_every: usize,
    /// Spill checkpoint snapshots (and per-layer resume state) into this
    /// sweep directory instead of holding them in memory.
    spill_dir: Option<PathBuf>,
    /// Stop the sweep between layer barriers after this many layers —
    /// the deterministic stand-in for a mid-sweep kill, used by the
    /// resume tests and the CI interrupt-then-resume gate. Not persisted
    /// to the manifest (it is the driver's knob, not the sweep's).
    halt_after_layers: Option<u64>,
    /// Free-form sweep identifier recorded in the manifest, so a resumed
    /// sweep can be matched to the fixture that produced it.
    fixture: String,
    /// The program's pid-symmetry declaration, if any — required (in
    /// addition to [`Reduction::symmetry`]) for the symmetry quotient to
    /// activate. Like the bodies and the checker, the spec is code, not
    /// state: the manifest records only its presence, and a resumed
    /// symmetric sweep re-supplies it
    /// ([`Explorer::resume_sweep_with_symmetry`]).
    symmetry: Option<Symmetry>,
}

impl Explorer {
    /// An explorer for `n`-process programs with no crashes, default
    /// limits, and every reduction enabled ([`Reduction::full`]).
    pub fn new(n: usize) -> Self {
        Explorer {
            n,
            crashes: Crashes::None,
            tso: false,
            limits: ExploreLimits::default(),
            reduction: Reduction::default(),
            collect_all: false,
            resident_ceiling: usize::MAX,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            spill_dir: None,
            halt_after_layers: None,
            fixture: String::new(),
            symmetry: None,
        }
    }

    /// Declares the program **pid-symmetric**: permuting process
    /// identities is an automorphism of its transition system (bodies
    /// identical up to the values `spec` relabels, checker closed under
    /// pid permutation and value relabeling — the full contract is
    /// `docs/EXPLORER.md` §7). With the declaration in place and
    /// [`Reduction::symmetry`] on (the default), the explorer prunes on
    /// the **symmetry-canonical** state fingerprint
    /// ([`crate::model_world::Snapshot::fingerprint_symmetric`]),
    /// collapsing the up to `n!` pid-permuted copies of every state.
    /// Programs that declare no spec are completely unaffected by the
    /// reduction flag. Automatically inactive under a pid-naming crash
    /// adversary ([`Crashes::AtOwnStep`] plans name concrete pids);
    /// stays active under the pid-blind [`Crashes::UpTo`].
    pub fn symmetry(mut self, spec: Symmetry) -> Self {
        self.symmetry = Some(spec);
        self
    }

    /// Sets the crash adversary, exhausted alongside the schedules:
    /// [`Crashes::None`], [`Crashes::AtOwnStep`] or [`Crashes::UpTo`].
    ///
    /// [`Crashes::Random`] is a sampling policy, not an exhaustive one,
    /// and [`Explorer::run`] rejects it: its RNG state is a function of
    /// the pick history, not of the reached state, so no pruning
    /// argument applies and no spilled sweep could restore it.
    pub fn crashes(mut self, c: Crashes) -> Self {
        self.crashes = c;
        self
    }

    /// Explores under the **x86-TSO memory model** instead of sequential
    /// consistency (the default): every write parks in the writer's
    /// FIFO store buffer, reads forward from the issuing process's own
    /// buffer, and each buffered write's flush to shared memory is a
    /// **first-class scheduling branch** — encoded in the flush index
    /// band `2 * alive.len() + pid` of [`crate::sched::Schedule::Indexed`],
    /// next to the op and crash bands, so one sweep exhausts every
    /// placement of every flush against every interleaving (and every
    /// counterexample vector replays its flush placements through the
    /// gated engine verbatim). `tas`, `xcons_propose`, and
    /// [`crate::world::Env::fence`] drain the caller's buffer.
    ///
    /// Store buffers are hardware state: they survive their owner's
    /// crash or finish, and a run is terminal only once every buffer
    /// has drained. Every reduction stays live: the observation
    /// quotient, the process-identity symmetry quotient (each buffer
    /// relabels with its owner), and the DPOR footprint
    /// rule (flushes commute by footprint independence;
    /// buffer-draining ops conflict with everything via
    /// [`crate::model_world::Footprint`]'s fence classification) —
    /// except that DPOR is off while the symmetry quotient is live, the
    /// one pair that does not compose once flushes exist
    /// (`docs/EXPLORER.md` §3.7). A summarized scan overlays the
    /// caller's own buffer before summarizing, so declared view
    /// summaries fold as under SC. SC sweeps are byte-for-byte
    /// unaffected by this mode existing.
    pub fn tso(mut self, yes: bool) -> Self {
        self.tso = yes;
        self
    }

    /// Sets the exploration bounds.
    pub fn limits(mut self, l: ExploreLimits) -> Self {
        self.limits = l;
        self
    }

    /// Sets the search-space reductions.
    pub fn reduction(mut self, r: Reduction) -> Self {
        self.reduction = r;
        self
    }

    /// Keep exploring after a violation and collect all of them, instead
    /// of stopping at the first (the default).
    pub fn collect_all(mut self, yes: bool) -> Self {
        self.collect_all = yes;
        self
    }

    /// Bounds a spilled sweep's frontier: at most `ceiling` nodes
    /// admitted per layer keep their [`crate::model_world::Snapshot`]
    /// resident (clamped to at least 1); colder nodes keep only their
    /// choice path and are rehydrated by replaying it from their nearest
    /// checkpointed ancestor's segment-file record
    /// ([`Explorer::checkpoint_every`]) when expanded. A layer runs one
    /// job at a time, so the ceiling bounds the snapshots a sweep holds:
    /// the two layers' resident nodes plus one job's parent and child.
    /// Reports are byte-identical to the unbounded run; evicted
    /// expansions cost one record read and at most `checkpoint_every`
    /// extra resumes each. The default is `usize::MAX` (never evict); a
    /// ceiling needs [`Explorer::spill_to`], since the segment file is
    /// where evicted snapshots live ([`Explorer::run`] panics otherwise).
    pub fn resident_ceiling(mut self, ceiling: usize) -> Self {
        self.resident_ceiling = ceiling.max(1);
        self
    }

    /// Sets the ancestor-checkpoint stride `k` of a spilled sweep
    /// (clamped to at least 1; default [`DEFAULT_CHECKPOINT_EVERY`]):
    /// the snapshots of frontier layers whose depth is a multiple of `k`
    /// are appended to the segment file, and every node anchors to its
    /// nearest such ancestor's record — so rehydrating a node evicted by
    /// [`Explorer::resident_ceiling`] replays at most `k` scheduling
    /// decisions instead of its full choice path from the root. Pure
    /// storage/time policy: reports are byte-identical for every `k`
    /// (property-tested across `k ∈ {1, 4, 16}`). Smaller `k` trades
    /// segment-file bytes for cheaper rehydration.
    ///
    /// ```
    /// use mpcn_runtime::explore::Explorer;
    /// use mpcn_runtime::model_world::{Body, ModelWorld};
    /// use mpcn_runtime::world::{Env, ObjKey};
    ///
    /// let bodies = || {
    ///     (0..2u64)
    ///         .map(|i| {
    ///             Box::new(move |env: Env<ModelWorld>| {
    ///                 env.reg_write(ObjKey::new(902, i, 0), i);
    ///                 env.reg_write(ObjKey::new(902, i, 1), i);
    ///                 i
    ///             }) as Body
    ///         })
    ///         .collect::<Vec<_>>()
    /// };
    /// let unbounded = Explorer::new(2).run(bodies, |_r| Ok(()));
    /// // Spill and evict aggressively, checkpointing every 2nd layer:
    /// // identical report, and no rehydration replays more than 2
    /// // decisions.
    /// let dir = std::env::temp_dir().join(format!("mpcn-doc-stride-{}", std::process::id()));
    /// let bounded = Explorer::new(2)
    ///     .resident_ceiling(1)
    ///     .checkpoint_every(2)
    ///     .spill_to(&dir)
    ///     .run(bodies, |_r| Ok(()));
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// assert_eq!(unbounded.stats.summary(), bounded.stats.summary());
    /// assert!(bounded.stats.max_rehydration_replay <= 2);
    /// ```
    pub fn checkpoint_every(mut self, k: usize) -> Self {
        self.checkpoint_every = k.max(1);
        self
    }

    /// Spills checkpoint snapshots to disk and makes the sweep
    /// **crash-resumable**: checkpoint layers' snapshots are serialized
    /// (via the versioned codec of
    /// [`crate::model_world::CODEC_VERSION`]) into an append-only
    /// segment file under `dir`, and every layer boundary atomically
    /// persists a manifest plus the frontier — so a killed sweep can be
    /// continued with [`Explorer::resume_sweep`] and still produce the
    /// byte-identical final report. Purely a storage policy:
    /// [`ExploreStats::summary`] is byte-identical with spilling on or
    /// off (the spill counters — [`ExploreStats::spilled`],
    /// [`ExploreStats::spill_bytes`], [`ExploreStats::store_reads`] —
    /// stay off the summary line, like [`ExploreStats::evicted`]).
    ///
    /// Only a spilled sweep evicts: with [`Explorer::resident_ceiling`],
    /// nodes past the ceiling drop their snapshot and are rebuilt from
    /// their checkpoint record. The directory is created (or wiped) when
    /// the sweep starts. Every crash adversary the explorer accepts spills:
    /// under [`Crashes::None`], [`Crashes::AtOwnStep`] and
    /// [`Crashes::UpTo`] the adversary state is the crashed flags of
    /// the snapshots a resumed sweep rehydrates.
    pub fn spill_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Stops a spilled sweep between layer barriers once `layers` layers
    /// have been persisted, reporting incomplete — the deterministic
    /// stand-in for a mid-sweep kill. The sweep directory is left
    /// exactly as an interruption at that instant would leave it, ready
    /// for [`Explorer::resume_sweep`]. Only meaningful with
    /// [`Explorer::spill_to`] (without it, halting just truncates the
    /// sweep).
    pub fn halt_after_layers(mut self, layers: u64) -> Self {
        self.halt_after_layers = Some(layers);
        self
    }

    /// Records a free-form sweep identifier in the spill manifest (e.g.
    /// `"fig1-n5"`), so an operator resuming a sweep directory can tell
    /// which fixture it belongs to.
    pub fn fixture_id(mut self, id: impl Into<String>) -> Self {
        self.fixture = id.into();
        self
    }

    /// Continues (or just reloads) a sweep from a directory written by
    /// [`Explorer::spill_to`]. If the sweep already finished, its final
    /// report is reconstructed from the manifest; otherwise the
    /// interrupted layer is re-executed from the persisted frontier and
    /// the sweep runs to completion — producing the **byte-identical**
    /// summary, verdict, and violations an uninterrupted run yields
    /// (kill-and-resume differential in `tests/proptests.rs`; the
    /// storage-policy counters may legitimately differ, which is why
    /// they are off the summary line).
    ///
    /// `make_bodies` and `check` must be the same fixture the original
    /// sweep ran — the manifest records configuration and progress, not
    /// code. Limits and reductions are restored from the manifest,
    /// **not** taken from a builder.
    ///
    /// # Panics
    ///
    /// Panics if `dir` has no readable manifest or its contents are
    /// corrupt (a torn *tail* past the last barrier is fine — that is
    /// the crash case this exists for; a damaged committed prefix is
    /// not).
    pub fn resume_sweep<F, C>(dir: impl AsRef<Path>, make_bodies: F, check: C) -> ExploreReport
    where
        F: Fn() -> Vec<Body>,
        C: Fn(&RunReport) -> Result<(), String>,
    {
        Explorer::resume_sweep_with_symmetry(dir, None, make_bodies, check)
    }

    /// [`Explorer::resume_sweep`] for sweeps that were started with a
    /// pid-symmetry declaration ([`Explorer::symmetry`]): like the
    /// bodies and the checker, the [`Symmetry`] spec is code (a pair of
    /// `fn` pointers), so the manifest records only *whether* the
    /// original sweep had one — the resumer must re-supply the same
    /// spec here.
    ///
    /// # Panics
    ///
    /// In addition to the [`Explorer::resume_sweep`] cases, panics if
    /// `symmetry` disagrees with the manifest about the spec's presence
    /// — silently resuming a symmetric sweep without its spec (or vice
    /// versa) would fingerprint future layers in a different state
    /// space than the persisted visited set.
    pub fn resume_sweep_with_symmetry<F, C>(
        dir: impl AsRef<Path>,
        symmetry: Option<Symmetry>,
        make_bodies: F,
        check: C,
    ) -> ExploreReport
    where
        F: Fn() -> Vec<Body>,
        C: Fn(&RunReport) -> Result<(), String>,
    {
        let dir = dir.as_ref();
        let opened = store::open_sweep(dir).unwrap_or_else(|e| {
            panic!("explore spill: cannot resume sweep directory {}: {e}", dir.display())
        });
        match opened {
            store::OpenedSweep::Done(report) => report,
            store::OpenedSweep::Pending(pending) => {
                let mut pending = *pending;
                assert_eq!(
                    pending.symm_spec,
                    symmetry.is_some(),
                    "explore spill: sweep directory {} was started {} a pid-symmetry spec; \
                     resume it through Explorer::resume_sweep_with_symmetry({}) with the \
                     original fixture's spec",
                    dir.display(),
                    if pending.symm_spec { "with" } else { "without" },
                    if pending.symm_spec { "Some(spec)" } else { "None" },
                );
                pending.ex.symmetry = symmetry;
                let ex = pending.ex.clone();
                frontier::Engine::resume(&ex, &make_bodies, &check, pending)
            }
        }
    }

    /// Explores every schedule of the processes produced by `make_bodies`
    /// (re-invoked per expansion — bodies must be deterministic), running
    /// `check` on every completed run.
    ///
    /// With [`Reduction::prune_visited`] on, `check` must depend only on
    /// run *outcomes* (decided values, crash/undecided status) for the
    /// violation set to be preserved — path statistics differ between a
    /// pruned schedule and its retained representative.
    ///
    /// # Panics
    ///
    /// Panics if [`ExploreLimits::max_expansions`] is `0`: a zero work
    /// budget would silently explore nothing and report an empty,
    /// violation-free (but incomplete) sweep — an easy false green. Ask
    /// for at least one expansion. Panics under [`Crashes::Random`], a
    /// sampling adversary the explorer cannot exhaust (see
    /// [`Explorer::crashes`]), and when [`Explorer::resident_ceiling`]
    /// is set without [`Explorer::spill_to`]: evicted snapshots live
    /// only in the segment file.
    pub fn run<F, C>(&self, make_bodies: F, check: C) -> ExploreReport
    where
        F: Fn() -> Vec<Body>,
        C: Fn(&RunReport) -> Result<(), String>,
    {
        assert!(
            self.limits.max_expansions > 0,
            "ExploreLimits::max_expansions = 0 explores nothing; set a positive work budget"
        );
        assert!(
            !matches!(self.crashes, Crashes::Random { .. }),
            "Explorer::run cannot exhaust Crashes::Random (its RNG state is a function of the \
             pick history, not of the reached state); use Crashes::None, Crashes::AtOwnStep or \
             Crashes::UpTo"
        );
        assert!(
            self.resident_ceiling == usize::MAX || self.spill_dir.is_some(),
            "Explorer::resident_ceiling evicts to the segment file only: set Explorer::spill_to too"
        );
        frontier::Engine::new(self, &make_bodies, &check).run()
    }

    /// Replays one choice vector through the gated engine under this
    /// explorer's configuration — its process count, crash adversary,
    /// step budget and memory model — the deterministic reproduction of
    /// a [`Violation`] it found. The [`RunConfig`] is built by
    /// [`RunConfig::replay`], as the explorer's own counterexample
    /// confirmation builds it, so a repro cannot drift from its sweep: a
    /// TSO vector replays under TSO, at the step budget it was found at.
    pub fn replay<F>(&self, make_bodies: F, choices: &[usize]) -> RunReport
    where
        F: FnOnce() -> Vec<Body>,
    {
        let cfg = RunConfig::replay(self.n, self.crashes.clone(), self.limits.max_steps, choices)
            .tso(self.tso);
        ModelWorld::run(cfg, make_bodies())
    }
}

/// Exhaustively explores every schedule with **no reductions** — the
/// reference enumeration. Stops at the first violation or when
/// `limits.max_expansions` is hit.
///
/// Shorthand for [`Explorer::run`] with [`Reduction::none`]; use the
/// builder for pruning, bounded-depth sweeps, spilling, or violation
/// collection.
pub fn explore<F, C>(
    n: usize,
    crashes: Crashes,
    limits: ExploreLimits,
    make_bodies: F,
    check: C,
) -> ExploreReport
where
    F: Fn() -> Vec<Body>,
    C: Fn(&RunReport) -> Result<(), String>,
{
    Explorer::new(n)
        .crashes(crashes)
        .limits(limits)
        .reduction(Reduction::none())
        .run(make_bodies, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Env, ObjKey};

    const REG: ObjKey = ObjKey::new(60, 0, 0);
    const TAS: ObjKey = ObjKey::new(61, 0, 0);

    fn tas_bodies() -> Vec<Body> {
        (0..2)
            .map(|_| Box::new(move |env: Env<ModelWorld>| u64::from(env.tas(TAS))) as Body)
            .collect()
    }

    fn one_winner(report: &RunReport) -> Result<(), String> {
        let wins: u64 = report.decided_values().iter().sum();
        (wins == 1).then_some(()).ok_or_else(|| format!("{wins} winners"))
    }

    #[test]
    fn explores_all_interleavings_of_two_single_step_processes() {
        // Two processes, one step each: exactly 2 terminal schedules
        // (AB, BA).
        let out = explore(2, Crashes::None, ExploreLimits::default(), tas_bodies, one_winner);
        assert!(out.complete);
        assert!(out.violations.is_empty());
        assert_eq!(out.runs(), 2);
        assert_eq!(out.stats.max_depth, 2);
        // Without pruning, every expansion reaches a fresh state.
        assert_eq!(out.stats.expansions, out.stats.states_visited);
    }

    /// A sweep whose cached operation panics on a cache hit fails with
    /// the message of the same sweep without the cache: process 1's
    /// register write, cached when it runs first, clashes with process
    /// 0's test&set of the same key when it runs second.
    #[test]
    fn a_cached_operation_that_panics_fails_the_sweep_like_an_uncached_one() {
        let bodies = || -> Vec<Body> {
            vec![
                Box::new(|env: Env<ModelWorld>| u64::from(env.tas(REG))),
                Box::new(|env: Env<ModelWorld>| {
                    env.reg_write(REG, 5u64);
                    0
                }),
            ]
        };
        let failure = |reduction: Reduction| {
            let sweep = || Explorer::new(2).reduction(reduction).run(bodies, |_r| Ok(()));
            let payload = std::panic::catch_unwind(sweep).expect_err("the clash fails the sweep");
            crate::model_world::panic_message(payload.as_ref())
        };
        let cached = failure(Reduction::full());
        assert_eq!(cached, failure(Reduction::none()));
        assert!(cached.starts_with("virtual process 1 failed: object"), "{cached}");
    }

    #[test]
    fn finds_a_violation_and_reports_the_schedule() {
        // A deliberately broken invariant: "process 1 always wins the
        // test&set" fails exactly on schedules where 0 runs first.
        let out =
            explore(2, Crashes::None, ExploreLimits::default(), tas_bodies, |report| match report
                .outcomes[1]
                .decided()
            {
                Some(1) => Ok(()),
                other => Err(format!("p1 got {other:?}")),
            });
        let v = out.violation().expect("violation must be found");
        assert!(!out.complete);
        // Replay the emitted schedule: it reproduces the violation
        // deterministically.
        let report = Explorer::new(2).replay(tas_bodies, &v.choices);
        assert_eq!(report.outcomes[1].decided(), Some(0));
        assert_eq!(v.repro_snippet(), format!("explorer.replay(make_bodies, &{:?})", v.choices));
    }

    #[test]
    fn schedule_count_matches_interleaving_combinatorics() {
        // Two processes with 2 steps each: C(4,2) = 6 interleavings.
        let bodies = || {
            (0..2)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.reg_write(ObjKey::new(62, i, 0), 1u64);
                        env.reg_write(ObjKey::new(62, i, 1), 2u64);
                        i
                    }) as Body
                })
                .collect()
        };
        let out = explore(2, Crashes::None, ExploreLimits::default(), bodies, |_r| Ok(()));
        assert!(out.complete);
        assert_eq!(out.runs(), 6);
        // The histogram is the degree census of the expanded (interior)
        // tree nodes; its weighted sum is the number of children created,
        // i.e. every non-root node of the unreduced tree.
        assert_eq!(out.stats.branching_histogram[0], 0);
        let children: u64 = out
            .stats
            .branching_histogram
            .iter()
            .enumerate()
            .map(|(degree, &count)| degree as u64 * count)
            .sum();
        assert_eq!(children, out.stats.states_visited);
    }

    #[test]
    fn three_processes_one_step_each_gives_six_orders() {
        let bodies = || {
            (0..3)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.reg_write(REG.with_b(i), 1u64);
                        i
                    }) as Body
                })
                .collect()
        };
        let out = explore(3, Crashes::None, ExploreLimits::default(), bodies, |_r| Ok(()));
        assert!(out.complete);
        assert_eq!(out.runs(), 6, "3! orders");
    }

    #[test]
    fn expansion_budget_reports_incomplete() {
        let out = explore(
            2,
            Crashes::None,
            ExploreLimits { max_expansions: 3, max_steps: 100, max_depth: usize::MAX },
            || {
                (0..2)
                    .map(|i| {
                        Box::new(move |env: Env<ModelWorld>| {
                            for b in 0..3 {
                                env.reg_write(ObjKey::new(63, i, b), b);
                            }
                            i
                        }) as Body
                    })
                    .collect()
            },
            |_r| Ok(()),
        );
        assert!(!out.complete);
        assert!(
            out.stats.expansions <= 3,
            "at most the budgeted jobs execute ({} performed)",
            out.stats.expansions
        );
        assert!(out.runs() < 20, "the budget must cut the C(6,3) = 20 leaves");
    }

    #[test]
    fn crash_plans_compose_with_exploration() {
        // Crash p0 before its only step, in every schedule: p1 must then
        // always win the test&set.
        let out = explore(
            2,
            Crashes::AtOwnStep(vec![(0, 0)]),
            ExploreLimits::default(),
            tas_bodies,
            |report| match report.outcomes[1].decided() {
                Some(1) => Ok(()),
                other => Err(format!("p1 got {other:?}")),
            },
        );
        assert!(out.complete, "exploration finishes");
        out.assert_no_violation();
    }

    /// Two writers to different registers: the orders converge to the
    /// same states, so pruning collapses the diamond.
    #[test]
    fn pruning_merges_commuting_writes() {
        let bodies = || {
            (0..2)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.reg_write(REG.with_b(10 + i), i);
                        env.reg_write(REG.with_b(20 + i), i);
                        i
                    }) as Body
                })
                .collect()
        };
        let unpruned = explore(2, Crashes::None, ExploreLimits::default(), bodies, |_r| Ok(()));
        let pruned = Explorer::new(2)
            .reduction(Reduction { prune_visited: true, ..Reduction::none() })
            .run(bodies, |_r| Ok(()));
        assert!(unpruned.complete && pruned.complete);
        assert_eq!(unpruned.runs(), 6);
        assert!(pruned.runs() < unpruned.runs(), "{} !< {}", pruned.runs(), unpruned.runs());
        assert!(pruned.stats.states_visited < unpruned.stats.states_visited);
        assert!(pruned.stats.states_pruned > 0);
    }

    /// Readers followed by private writes: the sleep-set-style read-read
    /// case of the DPOR rule skips each transposed adjacent read pair
    /// before execution, so it expands strictly fewer states than plain
    /// enumeration.
    #[test]
    fn sleep_reduction_cuts_transposed_read_pairs() {
        let bodies = || {
            (0..2)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        let seen = env.reg_read::<u64>(REG).map_or(0, |v| v);
                        env.reg_write(REG.with_b(30 + i), seen);
                        i
                    }) as Body
                })
                .collect()
        };
        let unpruned = explore(2, Crashes::None, ExploreLimits::default(), bodies, |_r| Ok(()));
        let dpor = Explorer::new(2)
            .reduction(Reduction { dpor: true, ..Reduction::none() })
            .run(bodies, |_r| Ok(()));
        assert_eq!(unpruned.runs(), 6, "C(4,2) interleavings");
        assert!(dpor.complete);
        assert!(dpor.runs() < unpruned.runs(), "{} !< {}", dpor.runs(), unpruned.runs());
        assert!(dpor.stats.dpor_skips > 0);
    }

    /// Reductions must preserve the violation set of outcome-only
    /// checkers (here: existence plus the message).
    #[test]
    fn reductions_preserve_violations() {
        let check = |report: &RunReport| match report.outcomes[1].decided() {
            Some(1) => Ok(()),
            other => Err(format!("p1 got {other:?}")),
        };
        let ex = Explorer::new(2);
        let unpruned = explore(2, Crashes::None, ExploreLimits::default(), tas_bodies, check);
        let reduced = ex.run(tas_bodies, check);
        let (u, r) = (unpruned.violation().unwrap(), reduced.violation().unwrap());
        assert_eq!(u.message, r.message);
        // Both replay to the same outcome, under the configuration (step
        // budget included) both sweeps ran with.
        let ru = ex.replay(tas_bodies, &u.choices);
        let rr = ex.replay(tas_bodies, &r.choices);
        assert_eq!(ru.outcomes[1], rr.outcomes[1]);
    }

    /// A depth bound truncates sibling enumeration, not execution, and
    /// marks the exploration incomplete.
    #[test]
    fn depth_bound_truncates_enumeration() {
        let bodies = || {
            (0..2)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        for b in 0..4 {
                            env.reg_write(ObjKey::new(64, i, b), b);
                        }
                        i
                    }) as Body
                })
                .collect()
        };
        let full = explore(2, Crashes::None, ExploreLimits::default(), bodies, |_r| Ok(()));
        let bounded = Explorer::new(2)
            .reduction(Reduction::none())
            .limits(ExploreLimits { max_depth: 2, ..ExploreLimits::default() })
            .run(bodies, |_r| Ok(()));
        assert!(full.complete);
        assert!(!bounded.complete);
        assert_eq!(bounded.stats.depth_limited_runs, 4, "one tail per depth-2 node");
        assert!(bounded.runs() < full.runs());
        assert_eq!(bounded.stats.max_depth, 8, "runs still execute to completion");
    }

    #[test]
    fn collect_all_gathers_every_violating_schedule() {
        // "p1 always wins": fails on every schedule where p0 steps first —
        // unpruned, that is half of the 2 leaf schedules.
        let out = Explorer::new(2).reduction(Reduction::none()).collect_all(true).run(
            tas_bodies,
            |report| match report.outcomes[1].decided() {
                Some(1) => Ok(()),
                other => Err(format!("p1 got {other:?}")),
            },
        );
        assert!(!out.complete, "violations make a run incomplete as a proof");
        assert_eq!(out.runs(), 2, "collect_all keeps enumerating");
        assert_eq!(out.violations.len(), 1);
    }

    /// The DPOR footprint rule skips transposed adjacent *writes to
    /// disjoint objects* — not just pure reads — and reaches the same
    /// verdict over strictly less work than pruning alone.
    #[test]
    fn dpor_skips_commuting_writes_before_execution() {
        let bodies = || {
            (0..3)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.reg_write(REG.with_b(40 + i), i);
                        env.reg_write(REG.with_b(50 + i), i);
                        i
                    }) as Body
                })
                .collect()
        };
        let without = Explorer::new(3)
            .reduction(Reduction { prune_visited: true, ..Reduction::none() })
            .run(bodies, |_r| Ok(()));
        let with = Explorer::new(3).run(bodies, |_r| Ok(()));
        assert!(without.complete && with.complete);
        assert!(with.stats.dpor_skips > 0, "disjoint-register writes must be skipped");
        assert!(
            with.stats.expansions < without.stats.expansions,
            "{} !< {}",
            with.stats.expansions,
            without.stats.expansions
        );
        assert_eq!(with.violations.len(), without.violations.len());
    }

    /// The observation quotient merges states that differ only in a
    /// *finished* process's history: readers that observe different
    /// interleavings but decide the same value collapse on return.
    #[test]
    fn observation_quotient_merges_terminated_histories() {
        // p0/p1 write disjoint registers; p2 reads both (its view varies
        // with the interleaving) but always decides 7.
        let bodies = || {
            let mut v: Vec<Body> = (0..2)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.reg_write(REG.with_b(70 + i), i);
                        i
                    }) as Body
                })
                .collect();
            v.push(Box::new(move |env: Env<ModelWorld>| {
                env.reg_read::<u64>(REG.with_b(70));
                env.reg_read::<u64>(REG.with_b(71));
                7u64
            }) as Body);
            v
        };
        let sweep = |quotient_obs: bool| {
            Explorer::new(3)
                .reduction(Reduction { dpor: false, quotient_obs, ..Reduction::full() })
                .run(bodies, |_r| Ok(()))
        };
        let raw = sweep(false);
        let quotiented = sweep(true);
        assert!(raw.complete && quotiented.complete);
        assert!(quotiented.stats.quotient_hits > 0, "the quotient must merge states");
        assert!(
            quotiented.stats.states_visited < raw.stats.states_visited,
            "{} !< {}",
            quotiented.stats.states_visited,
            raw.stats.states_visited
        );
        assert!(quotiented.runs() <= raw.runs());
    }

    /// A resident ceiling changes memory policy, not results: the spilled
    /// report is byte-identical to the unbounded in-memory run, with
    /// evictions recorded.
    #[test]
    fn resident_ceiling_is_invisible_in_the_report() {
        let bodies = || {
            (0..3u64)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.snap_write(ObjKey::new(66, 0, 0), 3, i as usize, i + 1);
                        let view = env.snap_scan::<u64>(ObjKey::new(66, 0, 0), 3);
                        view.into_iter().flatten().sum()
                    }) as Body
                })
                .collect()
        };
        let unbounded = Explorer::new(3).run(bodies, |_r| Ok(()));
        let dir = sweep_dir("ceiling");
        let bounded = Explorer::new(3).resident_ceiling(2).spill_to(&dir).run(bodies, |_r| Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(bounded.stats.evicted > 0, "a ceiling of 2 must evict");
        assert_eq!(unbounded.stats.summary(), bounded.stats.summary());
        assert_eq!(unbounded.complete, bounded.complete);
        assert_eq!(unbounded.violations, bounded.violations);
    }

    /// The checkpoint stride bounds rehydration work: with a ceiling of
    /// 1 (evict all but one node per layer) and a stride of 4 over a
    /// depth-12 tree, evicted expansions replay at most 4 decisions from
    /// their anchored ancestor — never the full path — and the report
    /// stays byte-identical to the unbounded in-memory run.
    #[test]
    fn checkpoint_stride_bounds_rehydration_replay() {
        let bodies = || {
            (0..2)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        for b in 0..6 {
                            env.reg_write(ObjKey::new(67, i, b), b);
                        }
                        i
                    }) as Body
                })
                .collect()
        };
        let unbounded = Explorer::new(2).run(bodies, |_r| Ok(()));
        let dir = sweep_dir("stride");
        let bounded = Explorer::new(2)
            .resident_ceiling(1)
            .checkpoint_every(4)
            .spill_to(&dir)
            .run(bodies, |_r| Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(unbounded.stats.max_rehydration_replay, 0);
        assert!(bounded.stats.evicted > 0, "a ceiling of 1 must evict");
        assert!(bounded.stats.max_rehydration_replay >= 1, "evicted expansions rehydrate");
        assert!(
            bounded.stats.max_rehydration_replay <= 4,
            "rehydration must replay at most checkpoint_every = 4 decisions ({})",
            bounded.stats.max_rehydration_replay
        );
        assert_eq!(unbounded.stats.summary(), bounded.stats.summary());
    }

    /// Declared view summaries merge *live* histories: two readers that
    /// scanned different views but received the same declared summary
    /// collapse while still mid-flight, where the terminated-history
    /// quotient cannot reach. The reference is the same program with the
    /// summary applied in the body to a plain scan, whose history folds
    /// the whole view.
    #[test]
    fn view_summaries_merge_live_histories() {
        // p0/p1 write distinct cells; p2 scans (summarized to the count
        // of written cells) and then writes — so p2 is still *alive*
        // when the summarized observation lands in its history.
        fn written(view: &[Option<u64>]) -> u64 {
            view.iter().flatten().count() as u64
        }
        let bodies = |summarized: bool| {
            let mut v: Vec<Body> = (0..2u64)
                .map(|i| {
                    Box::new(move |env: Env<ModelWorld>| {
                        env.snap_write(ObjKey::new(68, 0, 0), 3, i as usize, 10 + i);
                        i
                    }) as Body
                })
                .collect();
            v.push(Box::new(move |env: Env<ModelWorld>| {
                let key = ObjKey::new(68, 0, 0);
                let count = if summarized {
                    env.snap_scan_via(key, 3, written)
                } else {
                    written(&env.snap_scan(key, 3))
                };
                env.snap_write(key, 3, 2, 99);
                count
            }) as Body);
            v
        };
        let sweep = |summarized: bool| Explorer::new(3).run(|| bodies(summarized), |_r| Ok(()));
        let raw = sweep(false);
        let summarized = sweep(true);
        assert!(raw.complete && summarized.complete);
        assert!(
            summarized.stats.states_visited < raw.stats.states_visited,
            "summaries must merge live states ({} !< {})",
            summarized.stats.states_visited,
            raw.stats.states_visited
        );
        assert_eq!(summarized.violations, raw.violations);
    }

    /// Evicted snapshots live only in the segment file, so a resident
    /// ceiling without a spill directory is refused up front.
    #[test]
    #[should_panic(expected = "set Explorer::spill_to too")]
    fn resident_ceiling_requires_spill_to() {
        Explorer::new(2).resident_ceiling(1).run(tas_bodies, one_winner);
    }

    #[test]
    #[should_panic(expected = "max_expansions = 0 explores nothing")]
    fn zero_expansion_budget_panics_instead_of_reporting_empty() {
        let limits = ExploreLimits { max_expansions: 0, ..ExploreLimits::default() };
        Explorer::new(2).limits(limits).run(tas_bodies, one_winner);
    }

    /// A unique scratch sweep directory under the system temp dir (no
    /// external tempdir dependency), wiped if a previous run left one.
    fn sweep_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mpcn-sweep-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Three writers + scanners: deep enough (9 layers) to cross two
    /// checkpoint strides at `checkpoint_every(4)`.
    fn spill_bodies() -> Vec<Body> {
        (0..3u64)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    env.snap_write(ObjKey::new(69, 0, 0), 3, i as usize, i + 1);
                    let view = env.snap_scan::<u64>(ObjKey::new(69, 0, 0), 3);
                    env.snap_write(ObjKey::new(69, 0, 1), 3, i as usize, i);
                    view.into_iter().flatten().sum()
                }) as Body
            })
            .collect()
    }

    /// Disk spilling is a storage policy: the report must be
    /// byte-identical to the in-memory run, while the off-summary spill
    /// counters record the disk traffic.
    #[test]
    fn spilled_sweep_reproduces_the_in_memory_report() {
        let dir = sweep_dir("byte-identity");
        let in_memory = Explorer::new(3).run(spill_bodies, |_r| Ok(()));
        let spilled = Explorer::new(3)
            .resident_ceiling(1)
            .checkpoint_every(4)
            .spill_to(&dir)
            .fixture_id("unit-byte-identity")
            .run(spill_bodies, |_r| Ok(()));
        assert_eq!(in_memory.stats.summary(), spilled.stats.summary());
        assert_eq!(in_memory.complete, spilled.complete);
        assert_eq!(in_memory.violations, spilled.violations);
        assert!(spilled.stats.spilled > 0, "checkpoint layers must hit the segment file");
        assert!(spilled.stats.spill_bytes > 0);
        assert!(spilled.stats.store_reads > 0, "a ceiling of 1 must rehydrate from disk");
        assert_eq!(in_memory.stats.spilled, 0);
        assert_eq!(in_memory.stats.store_reads, 0);
        // The finished sweep's manifest reconstructs the same report.
        let reloaded = Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
        assert_eq!(reloaded.stats.summary(), spilled.stats.summary());
        assert_eq!(reloaded.complete, spilled.complete);
        assert_eq!(reloaded.violations, spilled.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Halting a spilled sweep between barriers and resuming it must
    /// reach the byte-identical final report — the kill-and-resume
    /// contract (randomized coverage lives in `tests/proptests.rs`).
    #[test]
    fn halted_sweep_resumes_to_the_identical_report() {
        let dir = sweep_dir("halt-resume");
        let baseline = Explorer::new(3).run(spill_bodies, |_r| Ok(()));
        let halted = Explorer::new(3)
            .resident_ceiling(2)
            .checkpoint_every(2)
            .spill_to(&dir)
            .halt_after_layers(3)
            .run(spill_bodies, |_r| Ok(()));
        assert!(!halted.complete, "a halted sweep is not a proof");
        assert!(
            halted.stats.expansions < baseline.stats.expansions,
            "the halt must actually interrupt the sweep"
        );
        let resumed = Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
        assert_eq!(baseline.stats.summary(), resumed.stats.summary());
        assert_eq!(baseline.complete, resumed.complete);
        assert_eq!(baseline.violations, resumed.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two writers whose run length depends on the interleaving: a
    /// process that scans before its peer writes takes one extra step,
    /// so terminal runs land on different layers.
    fn uneven_bodies() -> Vec<Body> {
        (0..2u64)
            .map(|i| {
                Box::new(move |env: Env<ModelWorld>| {
                    env.snap_write(ObjKey::new(70, 0, 0), 2, i as usize, i + 1);
                    let view = env.snap_scan::<u64>(ObjKey::new(70, 0, 0), 2);
                    let seen = view.iter().flatten().count() as u64;
                    if seen < 2 {
                        env.snap_write(ObjKey::new(70, 0, 1), 2, i as usize, seen);
                    }
                    seen
                }) as Body
            })
            .collect()
    }

    /// Violations found *before* the interruption ride through the
    /// persisted state: the halt lands between the shallow terminals
    /// (already flagged) and the deeper runs (still queued), and the
    /// resumed sweep reports exactly the uninterrupted violation list.
    #[test]
    fn resume_preserves_recorded_violations() {
        let check = |_r: &RunReport| Err("flagged".to_string());
        let baseline = Explorer::new(2).collect_all(true).run(uneven_bodies, check);
        let dir = sweep_dir("violations");
        let halted = Explorer::new(2)
            .collect_all(true)
            .spill_to(&dir)
            .halt_after_layers(4)
            .run(uneven_bodies, check);
        assert!(!halted.violations.is_empty(), "depth-4 terminals are flagged before the halt");
        assert!(
            halted.violations.len() < baseline.violations.len(),
            "deeper runs must still be outstanding at the halt"
        );
        let resumed = Explorer::resume_sweep(&dir, uneven_bodies, check);
        assert_eq!(baseline.stats.summary(), resumed.stats.summary());
        assert_eq!(baseline.violations, resumed.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill mid-layer leaves torn tails past the last barrier in the
    /// segment and visited files; resume must truncate them back to the
    /// manifest's recorded lengths and still finish byte-identically.
    #[test]
    fn resume_truncates_torn_file_tails() {
        use std::io::Write as _;
        let baseline = Explorer::new(3).run(spill_bodies, |_r| Ok(()));
        let dir = sweep_dir("torn-tail");
        Explorer::new(3)
            .resident_ceiling(1)
            .checkpoint_every(2)
            .spill_to(&dir)
            .halt_after_layers(2)
            .run(spill_bodies, |_r| Ok(()));
        for file in ["segments.bin", "visited.bin"] {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(file))
                .expect("sweep file exists");
            f.write_all(&[0xAB; 13]).expect("append torn tail");
        }
        let resumed = Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
        assert_eq!(baseline.stats.summary(), resumed.stats.summary());
        assert_eq!(baseline.complete, resumed.complete);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash-count kill-and-resume contract: a spilled
    /// [`Crashes::UpTo`] sweep halted between barriers and resumed from
    /// its manifest — which round-trips the `up_to:<f>` policy and
    /// the crash-branch counter — reaches the byte-identical report of
    /// the uninterrupted in-memory run, crash branches re-queued with
    /// exactly the budget each persisted node had left.
    #[test]
    fn crash_count_sweep_resumes_to_identical_report() {
        let dir = sweep_dir("crashcount-resume");
        let baseline = Explorer::new(3).crashes(Crashes::UpTo(1)).run(spill_bodies, |_r| Ok(()));
        assert!(baseline.stats.crash_branches > 0, "budget 1 must branch on crash delivery");
        let halted = Explorer::new(3)
            .crashes(Crashes::UpTo(1))
            .resident_ceiling(1)
            .checkpoint_every(2)
            .spill_to(&dir)
            .halt_after_layers(3)
            .run(spill_bodies, |_r| Ok(()));
        assert!(!halted.complete, "a halted sweep is not a proof");
        let resumed = Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
        assert_eq!(baseline.stats.summary(), resumed.stats.summary());
        assert_eq!(baseline.complete, resumed.complete);
        assert_eq!(baseline.violations, resumed.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A TSO sweep's spill manifest round-trips the weak-memory state:
    /// checkpoints serialize store-buffer contents through the snapshot
    /// codec, evicted and resumed nodes read their flush heads from the
    /// snapshot they rehydrate, and the manifest records the `tso` flag
    /// plus the flush counter — so a sweep killed mid-flight resumes to
    /// the byte-identical report of the uninterrupted run.
    #[test]
    fn tso_sweep_resumes_to_identical_report() {
        let dir = sweep_dir("tso-resume");
        let baseline = Explorer::new(3).tso(true).run(spill_bodies, |_r| Ok(()));
        assert!(baseline.stats.flush_branches > 0, "buffered writes must branch on flushes");
        let halted = Explorer::new(3)
            .tso(true)
            .resident_ceiling(1)
            .checkpoint_every(2)
            .spill_to(&dir)
            .halt_after_layers(3)
            .run(spill_bodies, |_r| Ok(()));
        assert!(!halted.complete, "a halted sweep is not a proof");
        let resumed = Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
        assert_eq!(baseline.stats.summary(), resumed.stats.summary());
        assert_eq!(baseline.complete, resumed.complete);
        assert_eq!(baseline.violations, resumed.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Older manifests must be rejected whole, not partially decoded: a
    /// v11 manifest carries the `view_summaries` key and codec-v3
    /// checkpoints, a v10 manifest's visited set holds fingerprints of
    /// the old hash kernel, and a v3 manifest (pre-TSO key set) cannot
    /// describe a TSO sweep at all.
    #[test]
    #[should_panic(expected = "unsupported manifest version 3")]
    fn resume_rejects_older_manifest_versions() {
        let dir = sweep_dir("old-reject");
        Explorer::new(3).spill_to(&dir).halt_after_layers(2).run(spill_bodies, |_r| Ok(()));
        let manifest = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        assert!(text.contains("manifest_version=12"), "current manifests are v12");
        let downgrade = |version: u64| {
            let old = text.replace("manifest_version=12", &format!("manifest_version={version}"));
            std::fs::write(&manifest, old).expect("rewrite manifest");
        };
        for version in [11, 10] {
            downgrade(version);
            let Err(e) = store::open_sweep(&dir) else {
                panic!("a v{version} manifest must be rejected")
            };
            let expected = format!("unsupported manifest version {version}");
            assert!(e.to_string().contains(&expected), "{e}");
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        }
        downgrade(3);
        Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
    }

    /// The value of `key=` in a sweep directory's manifest.
    fn manifest_field(dir: &std::path::Path, key: &str) -> String {
        let text = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest exists");
        let prefix = format!("{key}=");
        let line = text.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
        line.unwrap_or_else(|| panic!("manifest records {key}")).to_string()
    }

    /// Sets the value of `key=` in a sweep directory's manifest and
    /// re-stamps its `manifest_fnv`, so that a later check is still
    /// reached.
    fn set_manifest_field(dir: &std::path::Path, key: &str, value: impl std::fmt::Display) {
        let manifest = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        let prefix = format!("{key}=");
        let mut body = String::new();
        for line in text.lines().filter(|l| !l.starts_with("manifest_fnv=")) {
            match line.strip_prefix(prefix.as_str()) {
                Some(_) => body += &format!("{prefix}{value}\n"),
                None => body += &format!("{line}\n"),
            }
        }
        let stamp = format!("manifest_fnv={}\n", store::fnv1a(body.as_bytes()));
        std::fs::write(&manifest, body + &stamp).expect("rewrite manifest");
    }

    /// Replaces a sweep directory's state file with `bytes` and re-stamps
    /// the manifest's `state_fnv`, so that a later check is still reached.
    fn rewrite_state(dir: &std::path::Path, bytes: &[u8]) {
        let state = dir.join(manifest_field(dir, "state_file"));
        std::fs::write(state, bytes).expect("rewrite state file");
        set_manifest_field(dir, "state_fnv", store::fnv1a(bytes));
    }

    /// A fresh three-process sweep directory halted after three layers.
    fn halted_sweep(tag: &str) -> std::path::PathBuf {
        let dir = sweep_dir(tag);
        Explorer::new(3).spill_to(&dir).halt_after_layers(3).run(spill_bodies, |_r| Ok(()));
        dir
    }

    /// Opening `dir` must fail as corrupt (`InvalidData`).
    fn assert_corrupt(dir: &std::path::Path) {
        let Err(e) = store::open_sweep(dir) else { panic!("a corrupt sweep directory opened") };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The manifest commits to the state file: flipping the first job's
    /// first path choice from pick 0 to pick 1, which is enabled too,
    /// would resume to a different report.
    #[test]
    fn resume_rejects_a_flipped_path_choice() {
        let dir = halted_sweep("flipped-path");
        let state = dir.join(manifest_field(&dir, "state_file"));
        let mut bytes = std::fs::read(&state).expect("state file exists");
        // Magic, codec version, violation count, job count, the first
        // job's path length, then its first choice.
        let first_choice_at = 4 + 2 + 8 + 8 + 8;
        assert_eq!(bytes[first_choice_at..first_choice_at + 8], 0u64.to_le_bytes());
        bytes[first_choice_at] = 1;
        std::fs::write(&state, bytes).expect("rewrite state file");
        assert_corrupt(&dir);
    }

    /// The manifest commits to itself: a halted sweep whose `runs=` value
    /// is edited would resume to a report with the wrong `runs`, and a
    /// manifest without its `manifest_fnv` line has nothing to check.
    #[test]
    fn resume_rejects_an_edited_manifest() {
        let dir = halted_sweep("edited-manifest");
        let manifest = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        let runs = manifest_field(&dir, "runs");
        let edited = text.replace(&format!("\nruns={runs}\n"), &format!("\nruns={runs}1\n"));
        assert_ne!(edited, text, "the manifest records runs");
        std::fs::write(&manifest, edited).expect("rewrite manifest");
        let Err(e) = store::open_sweep(&dir) else { panic!("an edited manifest opened") };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        let unstamped = text.lines().filter(|l| !l.starts_with("manifest_fnv="));
        std::fs::write(&manifest, unstamped.map(|l| format!("{l}\n")).collect::<String>())
            .expect("rewrite manifest");
        assert_corrupt(&dir);
    }

    /// A fresh sweep owns its directory: nothing an earlier sweep left
    /// survives it. The first sweep halts after more layers than the
    /// second, shorter one needs, so its last state file has a name the
    /// second never writes.
    #[test]
    fn a_fresh_sweep_clears_an_earlier_sweeps_files() {
        let dir = sweep_dir("fresh-owns-dir");
        Explorer::new(3).spill_to(&dir).halt_after_layers(5).run(spill_bodies, |_r| Ok(()));
        assert!(dir.join("state-5.bin").exists(), "the halted sweep leaves its state file");
        std::fs::write(dir.join("MANIFEST.tmp"), "torn").expect("leave a torn manifest");
        let report = Explorer::new(2).spill_to(&dir).run(tas_bodies, one_winner);
        assert!(report.complete);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("sweep directory")
            .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["MANIFEST", "segments.bin", "state-final.bin", "visited.bin"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest commits to the visited set: a flipped byte in its
    /// committed prefix would resurrect or prune the wrong subtrees.
    #[test]
    fn resume_rejects_a_flipped_visited_fingerprint() {
        let dir = halted_sweep("flipped-visited");
        let visited = dir.join("visited.bin");
        let mut bytes = std::fs::read(&visited).expect("visited file exists");
        assert!(bytes.len() >= 8, "the halted sweep committed visited fingerprints");
        bytes[0] ^= 1;
        std::fs::write(&visited, bytes).expect("rewrite visited file");
        assert_corrupt(&dir);
    }

    /// The manifest commits to the segment file: the last payload byte of
    /// the first record is the high byte of its snapshot's `steps`, and a
    /// flipped one still decodes, but would resume to a different report.
    #[test]
    fn resume_rejects_a_flipped_segment_byte() {
        let dir = halted_sweep("flipped-segment");
        let segments = dir.join("segments.bin");
        let mut bytes = std::fs::read(&segments).expect("segment file exists");
        let len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let steps_at = 8 + len - 8;
        assert_eq!(bytes[steps_at..steps_at + 8], 0u64.to_le_bytes(), "the root took no steps");
        bytes[steps_at + 7] ^= 0x80;
        std::fs::write(&segments, bytes).expect("rewrite segment file");
        assert_corrupt(&dir);
    }

    /// A `segments_len` past the end of the segment file is corrupt, not
    /// a reason to zero-extend the file.
    #[test]
    fn resume_rejects_segments_len_past_the_file_end() {
        let dir = halted_sweep("long-segments");
        let segments_len: u64 = manifest_field(&dir, "segments_len").parse().expect("a u64");
        set_manifest_field(&dir, "segments_len", segments_len + 4096);
        let on_disk = || std::fs::metadata(dir.join("segments.bin")).expect("segment file").len();
        assert_eq!(on_disk(), segments_len);
        let Err(e) = store::open_sweep(&dir) else { panic!("a long segments_len opened") };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        assert_eq!(on_disk(), segments_len, "the segment file must not grow");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest whose checkpoint stride is 0 is corrupt: opening it
    /// is an `InvalidData` error, not a division by zero at the first
    /// admitted node.
    #[test]
    fn resume_rejects_a_zero_checkpoint_stride() {
        let dir = sweep_dir("zero-stride");
        Explorer::new(3)
            .resident_ceiling(1)
            .checkpoint_every(2)
            .spill_to(&dir)
            .halt_after_layers(2)
            .run(spill_bodies, |_r| Ok(()));
        assert_eq!(manifest_field(&dir, "checkpoint_every"), "2");
        set_manifest_field(&dir, "checkpoint_every", 0);
        assert_corrupt(&dir);
    }

    /// A frontier record whose anchor lies deeper than its own choice
    /// path is corrupt: opening it is an `InvalidData` error, not an
    /// out-of-range slice when the node is rehydrated.
    #[test]
    fn resume_rejects_an_anchor_beyond_its_path() {
        let dir = sweep_dir("deep-anchor");
        Explorer::new(3)
            .resident_ceiling(1)
            .checkpoint_every(4)
            .spill_to(&dir)
            .halt_after_layers(2)
            .run(spill_bodies, |_r| Ok(()));
        // The state file (`store::encode_state`): magic, codec version,
        // violation count (none here), group count, then the first
        // node record — path length, path, anchor depth.
        let state = dir.join(manifest_field(&dir, "state_file"));
        let mut bytes = std::fs::read(&state).expect("state file exists");
        let word = |bytes: &[u8], at: usize| {
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
        };
        let path_len_at = 4 + 2 + 8 + 8;
        let path_len = word(&bytes, path_len_at);
        let depth_at = path_len_at + 8 + 8 * path_len as usize;
        assert!(word(&bytes, depth_at) <= path_len, "the recorded anchor sits on the path");
        bytes[depth_at..depth_at + 8].copy_from_slice(&(path_len + 1).to_le_bytes());
        rewrite_state(&dir, &bytes);
        assert_corrupt(&dir);
    }

    /// A queued choice must be enabled at its node. The state file of a
    /// halted sweep without crashes is rewritten twice: a job whose
    /// choices are no longer strictly increasing is an `InvalidData`
    /// error, and an ascending list whose last choice moved into the
    /// crash band fails loudly when the choice is applied, instead of
    /// delivering a crash the adversary cannot make.
    #[test]
    #[should_panic(expected = "choice 5 (Crash(2)) is not enabled at its node")]
    fn resume_rejects_a_crash_choice_without_budget() {
        let dir = sweep_dir("crash-choice");
        Explorer::new(3).spill_to(&dir).halt_after_layers(2).run(spill_bodies, |_r| Ok(()));
        // The state file (`store::encode_state`): magic, codec version,
        // violation count (none here), job count, then the first job —
        // path length, path, anchor depth, offset and length, the expand
        // tag, the choice count and the choices.
        let state = dir.join(manifest_field(&dir, "state_file"));
        let bytes = std::fs::read(&state).expect("state file exists");
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let path_len_at = 4 + 2 + 8 + 8;
        let tag_at = path_len_at + 8 + 8 * word(path_len_at) as usize + 3 * 8;
        assert_eq!(bytes[tag_at], 1, "the first job expands");
        let choices_at = tag_at + 1 + 8;
        let last_at = choices_at + 8 * (word(tag_at + 1) as usize - 1);
        // Three processes are alive at depth 2, so the node's choices
        // are op-band picks 0, 1 and 2.
        assert_eq!((word(choices_at), word(last_at)), (0, 2), "the first job queues picks 0..=2");
        let rewrite = |at: usize, choice: u64| {
            let mut corrupt = bytes.clone();
            corrupt[at..at + 8].copy_from_slice(&choice.to_le_bytes());
            rewrite_state(&dir, &corrupt);
        };
        rewrite(choices_at, 2);
        let Err(e) = store::open_sweep(&dir) else { panic!("unordered choices must be rejected") };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        // Choice 3 + 2 is the crash band's pick of alive[2].
        rewrite(last_at, 5);
        Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
    }

    /// A manifest whose `visited_len` is not a multiple of the 8-byte
    /// fingerprint size is corrupt — resume must refuse it instead of
    /// silently dropping the trailing bytes (which would resurrect
    /// pruned subtrees and change the resumed report).
    #[test]
    #[should_panic(expected = "not a multiple of the 8-byte")]
    fn resume_rejects_misaligned_visited_len() {
        let dir = halted_sweep("misaligned-visited");
        let recorded: u64 = manifest_field(&dir, "visited_len").parse().expect("a u64");
        assert!(recorded >= 8, "the halted sweep must have committed visited fingerprints");
        set_manifest_field(&dir, "visited_len", recorded - 3);
        Explorer::resume_sweep(&dir, spill_bodies, |_r| Ok(()));
    }

    /// Random crashes are a sampling policy: every sweep rejects them,
    /// in memory or spilled, before any exploration or directory setup.
    /// Spilling adds no check of its own: this sweep spills and still
    /// hits the one in [`Explorer::run`].
    #[test]
    #[should_panic(expected = "cannot exhaust Crashes::Random")]
    fn spilling_rejects_random_crashes() {
        let dir = sweep_dir("random-reject");
        Explorer::new(2)
            .crashes(Crashes::Random { seed: 1, p: 0.0, max: 0 })
            .spill_to(&dir)
            .run(tas_bodies, one_winner);
    }
}
