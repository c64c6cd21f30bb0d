//! A small deterministic hasher for keys made of node ids.
//!
//! The translator's hash-consing maps and memo tables are keyed by ids
//! (`u32` newtypes) and by nodes built from them.  The standard library's
//! SipHash spends most of its time resisting hash flooding, which these keys
//! cannot mount: every node a [`Context`](crate::Context) interns is built by
//! the program itself from a design in its own model catalog, and the
//! serving layer accepts only catalog model references, never a formula.
//! [`IdHasher`] instead folds each `u64` word into its state with one
//! rotate, xor and multiply, which is enough to spread consecutive ids over
//! the table.  It has no random seed, so the same keys land in the same
//! buckets on every run.
//!
//! Should a formula ever come from outside the program, its maps must go
//! back to [`std::collections::hash_map::RandomState`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of [`IdHasher`]: an odd constant with well-mixed bits
/// (the one of rustc's `FxHasher`).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-rotate hasher over `u64` words; see the [module docs](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    /// Byte strings take one word per byte; the maps this hasher serves are
    /// keyed by ids, which arrive through the integer methods below.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // A product's low bits depend only on the multiplicand's low bits,
        // and the table picks buckets by the low bits: rotate the well-mixed
        // high bits down.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_small_ids() {
        assert_eq!(hash_of(&7u32), hash_of(&7u32));
        let hashes: HashSet<u64> = (0u32..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_slices_fold_every_byte() {
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
    }
}
