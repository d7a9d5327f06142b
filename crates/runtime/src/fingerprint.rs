//! Deterministic 64-bit fingerprints for model-checking state hashing.
//!
//! The exhaustive explorer ([`crate::explore`]) prunes schedule subtrees
//! whose root *global state* was already visited. That requires hashing
//! shared-memory contents and per-process observation histories in a way
//! that is stable across runs, processes, platforms and `HashMap`
//! iteration orders — the standard library's `RandomState` is
//! per-process seeded and therefore useless here.
//!
//! # One kernel: [`StateHasher`]
//!
//! Every state fingerprint runs through [`StateHasher`], a word-at-a-time
//! [`Hasher`]: [`fp_of`], [`mix`], [`fold_state_fp`], and every hashing
//! site of [`crate::model_world`] (object contents, the memory and
//! observation folds, store buffers and the three
//! `Snapshot::fingerprint*`). Each 64-bit word costs one mixing step,
//! `h ← fold((h ⊕ w) · K)`, where `fold` XORs the two halves of the
//! 64×64→128-bit product, so every input bit reaches every output bit.
//! Byte slices fold as little-endian words; a sub-word write (`u8`,
//! `u16`, `u32`, or a slice's last partial word) carries its byte width
//! in the word's top byte, so `1u8`, `1u16`, `1u32` and `1u64` hash
//! apart (a `bool` hashes as its byte). The arithmetic is pure `u64`/`u128`, so a value hashes to the
//! same word on every platform and explorer statistics are exactly
//! reproducible — the property the golden catalogue tests check. The
//! model world's object map and op counters, the explorer's visited set
//! and its continuation cache hash their keys with it too
//! ([`BuildStateHasher`]): nothing reads their iteration order.
//!
//! # Why FNV-1a remains for file checksums
//!
//! The spill store's file checksums (`explore/store.rs`) stay byte-wise
//! FNV-1a. The segment file's checksum is a running hash that resume
//! re-hashes in other chunk sizes, so it must not depend on how the
//! bytes are chunked — and a word-wise hash that tags partial words
//! does.
//!
//! # Collisions
//!
//! Collisions merge distinct states and could in principle hide a
//! violating schedule. Modeling the kernel as a random function of its
//! word sequence, `k` distinct states share a fingerprint with
//! probability ≈ `k²/2⁶⁵`: below 10⁻⁶ for the largest sweeps here (a few
//! million states), negligible next to the model-level abstractions the
//! explorer already makes. The kernel is neither keyed nor
//! collision-resistant against chosen input (a word equal to the running
//! state resets it to zero), but the words here are program states, not
//! an adversary's choice.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplier of the mixing step: `⌊2⁶⁴/φ⌋`, which is odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// State of a fresh [`StateHasher`]: the first 64 fractional bits of π.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The mixing step: the 128-bit product `x · K` with its halves XORed.
#[inline]
fn fold(x: u64) -> u64 {
    let p = u128::from(x) * u128::from(K);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The word-at-a-time state hasher behind every state fingerprint (see
/// the module docs): one folded multiply per 64-bit word, deterministic
/// across runs, processes and platforms.
#[derive(Debug, Clone, Copy)]
pub struct StateHasher(u64);

impl StateHasher {
    /// Absorbs one 64-bit word.
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = fold(self.0 ^ w);
    }

    /// Absorbs a partial word of `width` bytes (1 to 7), tagged with its
    /// width in the top byte.
    #[inline]
    fn partial(&mut self, v: u64, width: u64) {
        self.word(v | width << 56);
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher(SEED)
    }
}

impl Hasher for StateHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let v = tail.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b));
            self.partial(v, tail.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.partial(u64::from(n), 1);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.partial(u64::from(n), 2);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.partial(u64::from(n), 4);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.word(n as u64);
        self.word((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
}

/// Builds [`StateHasher`]s for the hash maps and sets of model-world and
/// explorer state.
pub type BuildStateHasher = BuildHasherDefault<StateHasher>;

/// Fingerprints one hashable value.
pub fn fp_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = StateHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Extends a rolling fingerprint with the next word: the [`StateHasher`]
/// whose state is `state` absorbs `word` (order sensitive:
/// `mix(mix(s, a), b) ≠ mix(mix(s, b), a)` in general).
#[inline]
pub fn mix(state: u64, word: u64) -> u64 {
    let mut h = StateHasher(state);
    h.word(word);
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
    let mut h = StateHasher::default();
    h.word(mem);
    for (obs, flags, result) in per_proc {
        h.word(obs);
        h.word(flags);
        h.word(result);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
    fn known_state_hasher_vectors() {
        // Pins the kernel so a refactor cannot silently change every
        // recorded baseline. Each value is `fold((h ⊕ w) · K)` over the
        // words, from `h = SEED`, computed independently of this code.
        assert_eq!(fp_of(&0u64), 0xe184_8576_4ba0_3644);
        assert_eq!(fp_of(&0x0123_4567_89ab_cdefu64), 0x72e2_0167_0fda_5a1b);
        // One full little-endian word, then a 2-byte tail tagged with
        // its width.
        let mut h = StateHasher::default();
        h.write(b"abcdefghij");
        assert_eq!(h.finish(), 0xacfe_3416_241a_2db2);
        assert_eq!(mix(0, 1), K, "a single-bit word multiplies through");
    }

    #[test]
    fn sub_word_writes_carry_their_width() {
        // `bool` hashes as its byte (`Hasher::write_u8`), under this
        // kernel as under any other: no hasher can tell `true` from 1u8.
        assert_eq!(fp_of(&true), fp_of(&1u8));
        let fps = [fp_of(&true), fp_of(&1u16), fp_of(&1u32), fp_of(&1u64), fp_of(&1u128)];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "{fps:x?}");
            }
        }
        // A byte slice's tail is the partial word of its width: three
        // bytes and four differ, and four hash as the `u32` they spell.
        let mut bytes = StateHasher::default();
        bytes.write(&[7, 0, 0]);
        let mut wide = StateHasher::default();
        wide.write(&[7, 0, 0, 0]);
        assert_ne!(bytes.finish(), wide.finish(), "3 bytes and 4 bytes differ");
        assert_eq!(wide.finish(), fp_of(&7u32));
    }

    /// No two distinct inputs of a structured set share a fingerprint:
    /// `mix(s, w)` for a few seeds `s` and, for each, every byte value,
    /// every single-bit word and every all-but-one-bit word, plus every
    /// `fold_state_fp` of two processes over a four-word alphabet — over
    /// 17 000 inputs.
    #[test]
    fn structured_inputs_do_not_collide() {
        let mut words: Vec<u64> = (0..=255).collect();
        words.extend((0..64).map(|b| 1u64 << b).filter(|&w| w > 255));
        words.extend((0..64).map(|b| !(1u64 << b)));
        let seeds = [0, SEED, fp_of(&1u64), fp_of(&"seed")];
        let mut seen: HashMap<u64, String> = HashMap::new();
        let mut admit = |fp: u64, input: String| {
            if let Some(earlier) = seen.insert(fp, input.clone()) {
                panic!("{earlier} and {input} share fingerprint {fp:#x}");
            }
        };
        for s in seeds {
            for &w in &words {
                admit(mix(s, w), format!("mix({s:#x}, {w:#x})"));
            }
        }
        let alphabet = [0, 1, u64::MAX, fp_of(&2u64)];
        for code in 0..alphabet.len().pow(7) {
            let w: Vec<u64> =
                (0..7).map(|i| alphabet[code / alphabet.len().pow(i) % alphabet.len()]).collect();
            let fp = fold_state_fp(w[0], [(w[1], w[2], w[3]), (w[4], w[5], w[6])].into_iter());
            admit(fp, format!("fold_state_fp{w:x?}"));
        }
        assert!(seen.len() >= 10_000, "{} inputs", seen.len());
    }
}
