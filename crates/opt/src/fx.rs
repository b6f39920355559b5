//! The crate's one hash map: `std`'s `HashMap` with an Fx-style hasher.
//!
//! The passes hash small keys — value ids, opcodes, constants, block-key
//! words — millions of times per search, inside one process and never from
//! untrusted input, so SipHash's flooding resistance buys nothing. The Fx
//! hash (from rustc) is one rotate, xor and multiply per word.
//!
//! No pass output may depend on a map's iteration order: the passes only
//! probe their maps, and the one map that is iterated (merge-functions'
//! fingerprint groups, which share no function) yields the same redirects
//! in any order. `clippy.toml` bans `std::collections::HashMap` and
//! `HashSet` in this crate, so the alias below is the only way to a hash
//! map.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hash: `h = (h.rotl(5) ^ word) * SEED` per machine word.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &byte in chunks.remainder() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of([1u64, 2, 3].as_slice()), hash_of(vec![1u64, 2, 3]));
        assert_ne!(hash_of(1u32), hash_of(2u32));
        assert_ne!(hash_of([1u64, 2].as_slice()), hash_of([2u64, 1].as_slice()));
        assert_ne!(hash_of(b"abcdefghi".as_slice()), hash_of(b"abcdefgh".as_slice()));
    }

    #[test]
    fn the_map_behaves_like_a_map() {
        let mut m: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        m.insert(vec![1, 2], 7);
        assert_eq!(m.get([1u64, 2].as_slice()), Some(&7));
        assert_eq!(m.get([2u64, 1].as_slice()), None);
        m.clear();
        assert!(m.is_empty());
    }
}
