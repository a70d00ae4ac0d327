//! A fixed integer hasher for maps keyed by grid cells.
//!
//! std's `HashMap` hashes with keyed SipHash, which resists collision
//! attacks on keys an adversary picks. Grid cells are not such keys: a
//! conflict-zone cell comes from the intersection's own zone grid (a
//! plan names a movement, and the topology decides which cells it
//! crosses), and a sensing-grid cell from a simulated position. For
//! those maps SipHash is pure cost: Algorithm 1 probes a reservation
//! table for every plan on every block, and each probe hashes a cell.
//! [`CellHasher`] hashes integers with one multiply per word.
//!
//! Keys that arrive over the medium keep std's keyed hasher: vehicle
//! identifiers in plans, reports and blocks are chosen by senders, and a
//! sender that knew a fixed hash function could pick identifiers that
//! all land in one bucket. Maps keyed by them stay on `HashMap`'s
//! default.
//!
//! A [`CellMap`] iterates in an order fixed by its contents and insert
//! history rather than a per-process random one; nothing may depend on
//! that order either way.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the rustc-hash 2 constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for small integer keys: each word is added to
/// the state, which is then multiplied by an odd constant; `finish`
/// rotates the well-mixed high bits down to where the table takes its
/// bucket index.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellHasher {
    hash: u64,
}

impl CellHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for CellHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    // `write_i32` and `write_i64`, which `ZoneId` and `(i64, i64)` call,
    // forward to these two.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed by grid cells, hashed with [`CellHasher`].
pub type CellMap<K, V> = HashMap<K, V, BuildHasherDefault<CellHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn finds_every_inserted_cell_including_negative_coordinates() {
        let mut map: CellMap<(i64, i64), usize> = CellMap::default();
        let cells: Vec<(i64, i64)> = (-20..20)
            .flat_map(|x| (-20..20).map(move |y| (x * 7, y * 13)))
            .chain([(i64::MIN, i64::MAX), (-1, 0), (0, -1)])
            .collect();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(map.insert(*cell, i), None, "{cell:?} inserted twice");
        }
        assert_eq!(map.len(), cells.len());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(map.get(cell), Some(&i), "{cell:?}");
        }
        assert_eq!(map.get(&(1, 1)), None);

        let mut small: CellMap<(i32, i32), ()> = CellMap::default();
        small.insert((-3, 4), ());
        assert!(small.contains_key(&(-3, 4)));
        assert!(!small.contains_key(&(3, -4)));
    }

    #[test]
    fn neighbouring_cells_hash_apart() {
        let build = BuildHasherDefault::<CellHasher>::default();
        let mut seen = std::collections::HashSet::new();
        for x in -16i32..16 {
            for y in -16i32..16 {
                assert!(seen.insert(build.hash_one((x, y))), "({x}, {y}) collides");
            }
        }
    }

    #[test]
    fn byte_writes_cover_a_partial_last_word() {
        let hash = |bytes: &[u8]| {
            let mut h = CellHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 4]));
        assert_ne!(hash(&[1; 9]), hash(&[1; 8]));
    }
}
