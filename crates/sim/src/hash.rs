//! A fixed integer hasher for the simulator's per-packet maps.
//!
//! The per-packet bookkeeping maps (R2P2 tokens and captures, LightSABRes
//! ids, source-pipeline transfers, reader in-flight sets) are keyed by
//! small integers the simulator itself hands out, so they need neither
//! SipHash's flood resistance nor its per-map random keys. [`IntHasher`]
//! is the multiply-rotate mix of rustc's `FxHasher`: a couple of
//! instructions per key word, and the same hash on every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, fixed (unkeyed) hasher for integer-like keys.
///
/// # Example
///
/// ```
/// use sabre_sim::IntMap;
///
/// let mut m: IntMap<u64, &str> = IntMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IntHasher`]; build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed with [`IntHasher`]; build one with `IntSet::default()`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_fixed_and_separates_small_keys() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        let hashes: IntSet<u64> = (0..10_000u64).map(hash_of).collect();
        assert_eq!(hashes.len(), 10_000);
        // Composite keys mix every field, not just the last one.
        assert_ne!(hash_of((1u8, 2u8, 3u32)), hash_of((2u8, 1u8, 3u32)));
    }
}
