//! A hand-rolled FxHash-style hasher for the kernel's small maps.
//!
//! The per-call scratch memos of `restrict`/`compose`/`rename` and
//! quantification, the root registry and the name index are `HashMap`s
//! with small keys, mostly single node handles.  The standard library's
//! default SipHash pays for DoS resistance the kernel does not need (keys
//! are internal arena indices and names, never attacker-controlled), and
//! on these tiny keys the setup cost dominates the probe.  This module
//! provides the classic multiply-rotate "Fx" construction used by rustc:
//! one rotate, one xor and one multiply per word.
//!
//! The two hot tables — the unique table and the ITE computed table — are
//! not `HashMap`s: they are flat arrays owned by the manager.  They pick
//! their slot with `mix2`, the same construction applied once to a
//! three-handle key packed into two words.
//!
//! The workspace builds offline with zero external dependencies, so this
//! is written from scratch rather than pulled from `rustc-hash`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the 64-bit Fx construction (derived from
/// the golden ratio, chosen to spread entropy across the high bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state: a single word folded once per written word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Builds [`FxHasher`]s; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// One-shot mix of two words, used by the unique and computed tables to
/// pick a slot without going through the `Hasher` machinery.
#[inline]
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    let mut h = FxHasher::default();
    h.add_to_hash(a);
    h.add_to_hash(b);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        // Consecutive integers (the common arena-index pattern) must land in
        // different slots of a power-of-two table.
        let slots: std::collections::HashSet<u64> = (0..1024).map(|i| hash(i) % 4096).collect();
        assert!(slots.len() > 900, "low-bit diffusion is too weak");
    }

    #[test]
    fn byte_writes_agree_with_word_writes_for_padding() {
        let mut words = FxHasher::default();
        words.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        let mut bytes = FxHasher::default();
        bytes.write(b"abcdefgh");
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(42, 43)), Some(&42));
        assert_eq!(m.get(&(43, 42)), None);
    }

    #[test]
    fn mix2_spreads_pairs() {
        let slots: std::collections::HashSet<u64> = (0..64u64)
            .flat_map(|a| (0..64u64).map(move |b| mix2(a, b) % (1 << 14)))
            .collect();
        assert!(slots.len() > 3500, "pair mixing collides too much");
    }
}
