//! One fixed-seed hasher for maps keyed by the simulator's own ids.
//!
//! The per-event maps (`World`'s FIFO slots and cancelled timers, the
//! network's link overrides, a GridManager's sequence and contact indexes,
//! an LRM's running and terminal tables) are keyed by small integers the
//! program itself hands out. The standard SipHash defends against keys an
//! outsider crafts to collide — nobody crafts these — and costs more than
//! the lookup it guards. [`IdMap`]/[`IdSet`] hash such keys with a couple
//! of multiplies and no per-map random seed. Strings the program builds
//! itself from such ids (the stable store's keys) may use [`IdHasher`] too.
//! Keep the default hasher for anything keyed by input from outside the
//! program.
//!
//! [`IdTable`] is the id-keyed table for large values: the values sit in a
//! dense `Vec` and the hash map holds only an id-to-slot index.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;

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

/// Values by slot in a `Vec`, found through an [`IdMap`] from id to slot.
///
/// A removed value's slot goes on a free list for the next insert, and a
/// table that drains gives back all its memory.
///
/// Iteration goes in slot order, not id order: a loop whose effects depend
/// on order goes over [`IdTable::sorted_ids`] instead.
#[derive(Debug)]
pub struct IdTable<K, V> {
    slots: Vec<Option<(K, V)>>,
    index: IdMap<K, u32>,
    free: Vec<u32>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            index: IdMap::default(),
            free: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V> IdTable<K, V> {
    /// Whether the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `id` has a value.
    pub fn contains_key(&self, id: &K) -> bool {
        self.index.contains_key(id)
    }

    /// `id`'s value.
    pub fn get(&self, id: &K) -> Option<&V> {
        let slot = *self.index.get(id)?;
        self.slots[slot as usize].as_ref().map(|(_, v)| v)
    }

    /// `id`'s value, mutably.
    pub fn get_mut(&mut self, id: &K) -> Option<&mut V> {
        let slot = *self.index.get(id)?;
        self.slots[slot as usize].as_mut().map(|(_, v)| v)
    }

    /// Store `value` under `id`: a value already under `id` is replaced in
    /// place, a new one takes a vacated slot if any.
    pub fn insert(&mut self, id: K, value: V) {
        let slot = match self.index.get(&id) {
            Some(&slot) => slot as usize,
            None => {
                let slot = self.free.pop().map_or(self.slots.len(), |s| s as usize);
                if slot == self.slots.len() {
                    self.slots.push(None);
                }
                let at = u32::try_from(slot).expect("fewer than 2^32 slots");
                self.index.insert(id, at);
                slot
            }
        };
        self.slots[slot] = Some((id, value));
    }

    /// Take `id`'s value out, vacating its slot.
    pub fn remove(&mut self, id: &K) -> Option<V> {
        let slot = self.index.remove(id)?;
        let (_, value) = self.slots[slot as usize]
            .take()
            .expect("an indexed slot holds its value");
        if self.index.is_empty() {
            *self = IdTable::default();
        } else {
            self.free.push(slot);
        }
        Some(value)
    }

    /// Every `(id, value)`, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().flatten().map(|(id, v)| (*id, v))
    }

    /// The ids whose values `keep` picks, ascending: the order for a loop
    /// whose effects depend on order.
    pub fn sorted_ids(&self, keep: impl Fn(&V) -> bool) -> Vec<K>
    where
        K: Ord,
    {
        let mut ids: Vec<K> = self
            .iter()
            .filter(|(_, v)| keep(v))
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

impl<K: Copy + Eq + Hash, V> Index<&K> for IdTable<K, V> {
    type Output = V;

    fn index(&self, id: &K) -> &V {
        self.get(id).expect("id in the table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
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

    #[test]
    fn a_drained_table_holds_no_capacity() {
        let mut t = IdTable::default();
        for id in 0..1000u64 {
            t.insert(id, [id; 8]);
        }
        for id in (0..1000u64).rev() {
            assert_eq!(t.remove(&id), Some([id; 8]));
        }
        assert!(t.is_empty());
        assert_eq!(t.slots.capacity(), 0);
        assert_eq!(t.index.capacity(), 0);
        assert_eq!(t.free.capacity(), 0);
        // And it fills again from slot 0.
        t.insert(7, [0; 8]);
        assert_eq!(t.slots.len(), 1);
    }

    proptest! {
        /// Against a `BTreeMap`: the same values under the same ids after
        /// every step, a vacated slot is reused before the table grows, and
        /// `iter` yields each id once.
        #[test]
        fn id_table_matches_a_btree_map(
            ops in proptest::collection::vec((any::<bool>(), 0u64..40, any::<u32>()), 0..300),
        ) {
            let mut t = IdTable::default();
            let mut model = BTreeMap::new();
            // The most values held at once since the table last drained.
            let mut peak = 0;
            for (insert, id, value) in ops {
                if insert {
                    t.insert(id, value);
                    model.insert(id, value);
                } else {
                    prop_assert_eq!(t.remove(&id), model.remove(&id));
                }
                peak = if model.is_empty() { 0 } else { peak.max(model.len()) };
                prop_assert_eq!(t.slots.len(), peak);
                prop_assert_eq!(t.is_empty(), model.is_empty());
                for id in 0..40 {
                    prop_assert_eq!(t.get(&id), model.get(&id));
                    prop_assert_eq!(t.contains_key(&id), model.contains_key(&id));
                }
                let mut ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
                ids.sort_unstable();
                prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>());
                let even: Vec<u64> =
                    model.iter().filter(|(_, v)| *v % 2 == 0).map(|(id, _)| *id).collect();
                prop_assert_eq!(t.sorted_ids(|v| v % 2 == 0), even);
            }
        }
    }
}
