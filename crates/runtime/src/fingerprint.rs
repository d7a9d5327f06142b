//! Deterministic 64-bit fingerprints for model-checking state hashing.
//!
//! The exhaustive explorer ([`crate::explore`]) prunes schedule subtrees
//! whose root *global state* was already visited. That requires hashing
//! shared-memory contents and per-process observation histories in a way
//! that is stable across runs, processes, and `HashMap` iteration orders —
//! the standard library's `RandomState` is per-process seeded and therefore
//! useless here. [`Fnv1a`] is a plain FNV-1a 64-bit [`std::hash::Hasher`]
//! with fixed parameters: the same value always hashes to the same word, so
//! explorer statistics (states visited/pruned) are exactly reproducible —
//! the property the golden catalogue tests check.
//!
//! Collisions merge distinct states and could in principle hide a
//! violating schedule; with a 64-bit digest and state spaces in the
//! millions the collision probability is ≈ `k²/2⁶⁵`, negligible next to
//! the model-level abstractions the explorer already makes.

use std::hash::{Hash, Hasher};

/// FNV-1a offset basis (64-bit).
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A fixed-parameter FNV-1a 64-bit hasher: deterministic across runs,
/// processes, and platforms (multi-byte writes are folded little-endian).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Fingerprints one hashable value.
pub fn fp_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::default();
    value.hash(&mut h);
    h.finish()
}

/// Extends a rolling fingerprint with the next word (order sensitive:
/// `mix(mix(s, a), b) ≠ mix(mix(s, b), a)` in general).
pub fn mix(state: u64, word: u64) -> u64 {
    let mut h = Fnv1a(state);
    h.write_u64(word);
    h.finish()
}

/// Folds a memory accumulator and every process's `(observation
/// fingerprint, liveness flags, result)` triple into one global-state
/// fingerprint — shared by the gated world's per-pick state hashes and
/// [`crate::model_world::Snapshot::fingerprint`], so the two execution
/// engines agree on state identity word for word.
///
/// # The observation quotient
///
/// Callers may pass a **quotiented** observation word: a process that has
/// *finished or crashed* takes no further steps, so its observation
/// history is not part of any reachable future — only its result,
/// liveness flags, and its contribution to the global step count (which
/// the explorer's timeout bound reads) are. Zeroing such a process's
/// observation fingerprint while folding the path's *total step count*
/// in its stead therefore merges exactly the states that differ only in
/// *how* the terminated processes reached their outcomes, and the
/// pruning invariant (equal fingerprint ⇒ equal futures and equal
/// outcome reports) still holds — including under a binding step budget. This is the canonical
/// observation abstraction [`crate::explore`] uses to collapse
/// order-equivalent poll histories: commuting poll results that fold into
/// different histories en route to the same decided value become one
/// state the moment the poller returns. See
/// [`crate::model_world::Snapshot::fingerprint_quotient`].
pub fn fold_state_fp(mem: u64, per_proc: impl Iterator<Item = (u64, u64, u64)>) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(mem);
    for (obs, flags, result) in per_proc {
        h.write_u64(obs);
        h.write_u64(flags);
        h.write_u64(result);
    }
    h.finish()
}

/// Sorts process indices `0..keys.len()` by their **pid-erased** sort
/// key, breaking ties by pid — the canonical enumeration order of the
/// process-identity symmetry quotient
/// ([`crate::model_world::Snapshot::fingerprint_symmetric`]). Returns
/// `order` with `order[rank] = pid`: position `rank` of the canonical
/// state description is filled by process `order[rank]`. The pid
/// tie-break is the same canonical-pid seed DPOR's tie-break uses: on
/// equal erased keys it is a *deterministic* (if arbitrary) choice, so
/// two π-related states may canonicalize differently only when their
/// erased keys collide — a reduction loss, never an unsoundness (both
/// fingerprints still describe their states completely).
pub fn canonical_order<K: Ord>(keys: &[K]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_sorts_and_tie_breaks_by_pid() {
        assert_eq!(canonical_order(&[3u64, 1, 2]), vec![1, 2, 0]);
        assert_eq!(canonical_order(&[7u64, 7, 7]), vec![0, 1, 2]);
        assert_eq!(canonical_order(&[(1u64, 9u64), (1, 2), (0, 5)]), vec![2, 1, 0]);
        assert_eq!(canonical_order::<u64>(&[]), Vec::<usize>::new());
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let v = (42u64, "state", vec![1u8, 2, 3]);
        assert_eq!(fp_of(&v), fp_of(&v));
    }

    #[test]
    fn distinguishes_close_values() {
        assert_ne!(fp_of(&0u64), fp_of(&1u64));
        assert_ne!(fp_of(&Some(0u64)), fp_of(&None::<u64>));
        assert_ne!(fp_of(&(1u64, 2u64)), fp_of(&(2u64, 1u64)));
    }

    #[test]
    fn mix_is_order_sensitive() {
        let s = fp_of(&0u8);
        assert_ne!(mix(mix(s, 1), 2), mix(mix(s, 2), 1));
        assert_eq!(mix(mix(s, 1), 2), mix(mix(s, 1), 2));
    }

    #[test]
    fn fold_state_fp_is_order_sensitive_and_obs_sensitive() {
        let a = fold_state_fp(1, [(10, 0, 0), (20, 0, 0)].into_iter());
        let b = fold_state_fp(1, [(20, 0, 0), (10, 0, 0)].into_iter());
        assert_ne!(a, b, "per-process words are positional (pid identity)");
        let quotiented = fold_state_fp(1, [(0, 0, 0), (20, 0, 0)].into_iter());
        assert_ne!(a, quotiented, "zeroing an observation changes the fold");
        assert_eq!(quotiented, fold_state_fp(1, [(0, 0, 0), (20, 0, 0)].into_iter()));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c — pins the algorithm so a
        // refactor cannot silently change every recorded baseline.
        let mut h = Fnv1a::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
