//! A small deterministic hasher for keys made of node ids.
//!
//! The context's hash-consing index and the translator's memo tables are
//! keyed by ids (`u32` newtypes) and by nodes built from them.  The standard
//! library's SipHash spends most of its time resisting hash flooding, which
//! these keys cannot mount: every node a [`Context`](crate::Context) interns
//! is built by the program itself from a design in its own model catalog,
//! and the serving layer accepts only catalog model references, never a
//! formula.
//! [`IdHasher`] instead folds each `u64` word into its state with one
//! rotate, xor and multiply, which is enough to spread consecutive ids over
//! the table.  It has no random seed, so the same keys land in the same
//! buckets on every run.
//!
//! Should a formula ever come from outside the program, its maps must go
//! back to [`std::collections::hash_map::RandomState`], and the context's
//! index must seed its hash the same way.

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

/// The [`IdHasher`] hash of a sequence of `u32` words.
pub(crate) fn hash_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hasher = IdHasher::default();
    for word in words {
        hasher.write_u32(word);
    }
    hasher.finish()
}

/// An open-addressing set of `u32` ids whose keys are stored elsewhere.
///
/// A hash-consing index keeps each key once, in the vector the ids index,
/// and only the id here: the caller hashes a key and tells, for a stored id,
/// whether it names an equal key.  Linear probing over a power-of-two table
/// kept at most half full.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

/// A free slot of an [`IdTable`].
const EMPTY: u32 = u32::MAX;

impl IdTable {
    /// The stored id `is_key` accepts among those probed from `hash`.
    #[inline]
    pub(crate) fn get(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                id if is_key(id) => return Some(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `id`, whose key hashes to `hash` and is not in the table yet.
    /// Growing rehashes every stored id with `hash_of`.
    pub(crate) fn insert(&mut self, hash: u64, id: u32, hash_of: impl Fn(u32) -> u64) {
        debug_assert_ne!(id, EMPTY);
        if 2 * (self.len + 1) > self.slots.len() {
            let mut grown = vec![EMPTY; (2 * self.slots.len()).max(16)];
            for &old in self.slots.iter().filter(|&&old| old != EMPTY) {
                Self::place(&mut grown, hash_of(old), old);
            }
            self.slots = grown;
        }
        Self::place(&mut self.slots, hash, id);
        self.len += 1;
    }

    fn place(slots: &mut [u32], hash: u64, id: u32) {
        let mask = slots.len() - 1;
        let mut slot = hash as usize & mask;
        while slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slots[slot] = id;
    }
}

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
    fn an_id_table_finds_every_key_it_stored() {
        // Keys live outside the table; many share a hash bucket.
        let keys: Vec<u32> = (0..1_000).map(|i| i * 7).collect();
        let hash = |key: u32| u64::from(key % 37);
        let mut table = IdTable::default();
        assert_eq!(table.get(0, |_| true), None);
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(table.get(hash(key), |i| keys[i as usize] == key), None);
            table.insert(hash(key), id as u32, |i| hash(keys[i as usize]));
        }
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(
                table.get(hash(key), |i| keys[i as usize] == key),
                Some(id as u32)
            );
        }
        assert_eq!(table.get(hash(3), |i| keys[i as usize] == 3), None);
        assert!(table.slots.len() >= 2 * keys.len());
    }

    #[test]
    fn byte_slices_fold_every_byte() {
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
    }
}
