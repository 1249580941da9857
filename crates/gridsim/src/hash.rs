//! One fixed-seed hasher for maps keyed by the simulator's own ids.
//!
//! The per-event maps (`World`'s FIFO slots and cancelled timers, the
//! network's link overrides, a GridManager's sequence and contact indexes,
//! an LRM's running and terminal tables) are keyed by small integers the
//! program itself hands out. The standard SipHash defends against keys an
//! outsider crafts to collide — nobody crafts these — and costs more than
//! the lookup it guards. [`IdMap`]/[`IdSet`] hash such keys with a couple
//! of multiplies and no per-map random seed. Keep the default hasher for
//! anything keyed by strings or by input from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher over integer writes (the FxHash recurrence),
/// folded at the end so both the low bits (bucket index) and the high bits
/// (control byte) depend on every input bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

const K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by program-issued ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-issued ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn sequential_ids_spread_over_buckets_and_control_bytes() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let (mut low, mut high) = (HashSet::new(), HashSet::new());
        // Contact-style ids: a site fingerprint up high, a counter below.
        for i in 0..4096u64 {
            let h = build.hash_one((0xbeefu64 << 32) | i);
            low.insert(h & 0xfff);
            high.insert(h >> 57);
        }
        assert!(low.len() > 2048, "only {} of 4096 low patterns", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn pairs_are_order_sensitive() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_ne!(build.hash_one((1u32, 2u32)), build.hash_one((2u32, 1u32)));
    }
}
