//! The process handle and the vocabulary of shared memory.
//!
//! A *world* holds the objects shared by the processes of one system model
//! instance: multi-writer registers, snapshot objects, one-shot test&set
//! objects, and port-limited x-consensus objects. Objects are addressed by
//! structured [`ObjKey`]s and created lazily on first access, so unbounded
//! families like the BG simulation's `SAFE_AG[1..n, 0..+∞)` need no
//! up-front allocation. A process reaches them only through its [`Env`].
//!
//! The one world is [`ModelWorld`], in three modes: free (no scheduler —
//! every operation runs at once under the world lock, so real threads may
//! share one world), gated (deterministic and crash-injecting: every
//! operation is one scheduler step, so every operation is trivially
//! linearizable and crashes land between operations) and resumed (one
//! scheduling decision from a checkpoint, the explorer's engine). All
//! three run the same object semantics, so they create, read and write
//! objects, and panic on algorithm bugs, identically.

use std::any::Any;
use std::sync::Arc;

use crate::model_world::ModelWorld;

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

/// A process-scoped handle: a world plus the calling process identity.
///
/// Process bodies receive an `Env`, and it is their one way to reach
/// shared memory: each of its operations — [`Env::reg_write`],
/// [`Env::reg_read`], [`Env::snap_write`], [`Env::snap_scan`],
/// [`Env::snap_scan_via`], [`Env::fence`], [`Env::tas`] and
/// [`Env::xcons_propose`], defined next to the model world's step gate —
/// is one atomic step of this process, so algorithm code reads like the
/// paper's pseudo-code (no explicit `pid` threading).
///
/// The type parameter only ever means [`ModelWorld`], its default, and
/// nothing is implemented for any other world: plain `Env` and
/// `Env<ModelWorld>` are the same type. It stays because the benchmark
/// harness (`perfbench/src/probes.rs`) names `Env<ModelWorld>`.
///
/// # Panics
///
/// Every operation panics on *algorithm bugs*: type mismatches between
/// uses of the same key, snapshot length mismatches, out-of-range cell
/// indices, and x-consensus port violations. These indicate an
/// incorrectly constructed simulation, never a legal run-time condition.
#[derive(Debug, Clone)]
pub struct Env<W = ModelWorld> {
    pub(crate) world: W,
    pub(crate) pid: Pid,
}

impl Env {
    /// Creates a handle binding `world` to process `pid`.
    pub fn new(world: ModelWorld, pid: Pid) -> Self {
        Env { world, pid }
    }

    /// The identity of the calling process.
    pub fn pid(&self) -> Pid {
        self.pid
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
