//! The shared-memory world interface.
//!
//! A *world* holds the objects shared by the processes of one system model
//! instance: multi-writer registers, snapshot objects, one-shot test&set
//! objects, and port-limited x-consensus objects. Objects are addressed by
//! structured [`ObjKey`]s and created lazily on first access, so unbounded
//! families like the BG simulation's `SAFE_AG[1..n, 0..+∞)` need no
//! up-front allocation.
//!
//! One implementation exists, [`crate::model_world::ModelWorld`], in
//! three modes: free (no scheduler — every operation runs at once under
//! the world lock, so real threads may share one world), gated
//! (deterministic and crash-injecting: every operation is one scheduler
//! step, so every operation is trivially linearizable and crashes land
//! between operations) and resumed (one scheduling decision from a
//! checkpoint, the explorer's engine). All three run the same object
//! semantics, so they create, read and write objects, and panic on
//! algorithm bugs, identically.

use std::any::Any;
use std::sync::Arc;

/// Identifier of a virtual process within a world (0-based).
pub type Pid = usize;

/// Values stored in shared objects.
///
/// Objects are dynamically typed (the world stores `Arc<dyn Any>`); each
/// call site fixes a concrete `T: MemVal` and a mismatch is a bug in the
/// calling algorithm, reported by panic.
///
/// The [`std::hash::Hash`] bound lets the model world fingerprint memory
/// contents and operation results for the exhaustive explorer's
/// visited-state pruning ([`crate::explore`]); every value the paper's
/// algorithms store (integers, tuples, vectors of them) hashes naturally.
pub trait MemVal: Clone + std::hash::Hash + Send + Sync + 'static {}
impl<T: Clone + std::hash::Hash + Send + Sync + 'static> MemVal for T {}

/// Structured key addressing one shared object.
///
/// `kind` namespaces object families (each module defines its own kinds);
/// `a` and `b` index within a family — e.g. the BG simulation addresses the
/// safe-agreement object for the `sn`-th snapshot of simulated process `j`
/// as `ObjKey::new(KIND_SAFE_AG, j, sn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjKey {
    /// Object-family namespace.
    pub kind: u32,
    /// First index within the family.
    pub a: u64,
    /// Second index within the family.
    pub b: u64,
}

impl ObjKey {
    /// Creates a key.
    pub const fn new(kind: u32, a: u64, b: u64) -> Self {
        ObjKey { kind, a, b }
    }

    /// Derives a key in the same family with a different second index.
    pub const fn with_b(self, b: u64) -> Self {
        ObjKey { b, ..self }
    }
}

impl std::fmt::Display for ObjKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj({}, {}, {})", self.kind, self.a, self.b)
    }
}

/// Type-erased stored value.
pub type Stored = Arc<dyn Any + Send + Sync>;

/// The shared-memory operations available to a virtual process.
///
/// All operations take the calling process's [`Pid`]; implementations may
/// use it for scheduling (the model world's step gate), failure injection,
/// and port checks. Each method is one atomic step of the calling process.
///
/// # Panics
///
/// All methods panic on *algorithm bugs*: type mismatches between uses of
/// the same key, snapshot length mismatches, out-of-range cell indices, and
/// x-consensus port violations. These indicate an incorrectly constructed
/// simulation, never a legal run-time condition.
pub trait World: Clone + Send + Sync + 'static {
    /// Writes a multi-writer multi-reader atomic register.
    fn reg_write<T: MemVal>(&self, pid: Pid, key: ObjKey, val: T);

    /// Reads a multi-writer multi-reader atomic register. `None` if never
    /// written (the paper's `⊥`).
    fn reg_read<T: MemVal>(&self, pid: Pid, key: ObjKey) -> Option<T>;

    /// Writes cell `idx` of the `len`-cell snapshot object `key`.
    fn snap_write<T: MemVal>(&self, pid: Pid, key: ObjKey, len: usize, idx: usize, val: T);

    /// Atomically reads all cells of the `len`-cell snapshot object `key`.
    /// Unwritten cells read as `None` (the paper's `⊥`).
    fn snap_scan<T: MemVal>(&self, pid: Pid, key: ObjKey, len: usize) -> Vec<Option<T>>;

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
    fn snap_scan_via<T: MemVal, S: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
        summarize: fn(&[Option<T>]) -> S,
    ) -> S;

    /// Store-buffer drain point (a full memory fence). Under sequential
    /// consistency every write is globally visible the moment it
    /// completes, so a fence is a free no-op: it takes no scheduling step
    /// and leaves run traces untouched. Under the model world's TSO
    /// exploration mode a fence is one atomic step that drains the
    /// calling process's FIFO store buffer to shared memory
    /// ([`crate::model_world::RunConfig::tso`]).
    fn fence(&self, pid: Pid);

    /// One-shot test&set: `true` to the first invocation ever, `false` to
    /// all later ones.
    fn tas(&self, pid: Pid, key: ObjKey) -> bool;

    /// Proposes `val` to the port-limited consensus object `key` and
    /// returns its decided value.
    ///
    /// `ports` is the static set of processes allowed to access the object;
    /// it must be identical across all accesses, contain `pid`, and its
    /// length is the object's consensus number `x`.
    fn xcons_propose<T: MemVal>(&self, pid: Pid, key: ObjKey, ports: &[Pid], val: T) -> T;
}

/// A process-scoped handle: a world plus the calling process identity.
///
/// Process bodies receive an `Env` so algorithm code reads like the paper's
/// pseudo-code (no explicit `pid` threading).
#[derive(Debug, Clone)]
pub struct Env<W> {
    world: W,
    pid: Pid,
}

impl<W: World> Env<W> {
    /// Creates a handle binding `world` to process `pid`.
    pub fn new(world: W, pid: Pid) -> Self {
        Env { world, pid }
    }

    /// The identity of the calling process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The underlying world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// See [`World::reg_write`].
    pub fn reg_write<T: MemVal>(&self, key: ObjKey, val: T) {
        self.world.reg_write(self.pid, key, val);
    }

    /// See [`World::reg_read`].
    pub fn reg_read<T: MemVal>(&self, key: ObjKey) -> Option<T> {
        self.world.reg_read(self.pid, key)
    }

    /// See [`World::snap_write`].
    pub fn snap_write<T: MemVal>(&self, key: ObjKey, len: usize, idx: usize, val: T) {
        self.world.snap_write(self.pid, key, len, idx, val);
    }

    /// See [`World::snap_scan`].
    pub fn snap_scan<T: MemVal>(&self, key: ObjKey, len: usize) -> Vec<Option<T>> {
        self.world.snap_scan(self.pid, key, len)
    }

    /// See [`World::snap_scan_via`].
    pub fn snap_scan_via<T: MemVal, S: MemVal>(
        &self,
        key: ObjKey,
        len: usize,
        summarize: fn(&[Option<T>]) -> S,
    ) -> S {
        self.world.snap_scan_via(self.pid, key, len, summarize)
    }

    /// See [`World::fence`].
    pub fn fence(&self) {
        self.world.fence(self.pid);
    }

    /// See [`World::tas`].
    pub fn tas(&self, key: ObjKey) -> bool {
        self.world.tas(self.pid, key)
    }

    /// See [`World::xcons_propose`].
    pub fn xcons_propose<T: MemVal>(&self, key: ObjKey, ports: &[Pid], val: T) -> T {
        self.world.xcons_propose(self.pid, key, ports, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_key_derivation() {
        let k = ObjKey::new(3, 7, 0);
        assert_eq!(k.with_b(9), ObjKey::new(3, 7, 9));
        assert_eq!(k.to_string(), "obj(3, 7, 0)");
    }

    #[test]
    fn obj_key_ordering_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ObjKey::new(1, 2, 3));
        assert!(set.contains(&ObjKey::new(1, 2, 3)));
        assert!(!set.contains(&ObjKey::new(1, 2, 4)));
        assert!(ObjKey::new(1, 0, 0) < ObjKey::new(2, 0, 0));
    }
}
