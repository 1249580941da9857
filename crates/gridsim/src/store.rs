//! Stable storage.
//!
//! The paper's fault-tolerance story (§4.2) rests on two persistent stores:
//! the Condor-G scheduler's job queue on the submit machine and the GRAM
//! client-side job log. [`StableStore`] models a per-node durable key/value
//! store: it survives node crashes (a crash wipes component memory, not the
//! store), and components re-read it from their boot hooks on restart.
//!
//! Values are byte strings; components serialize their state with the
//! [`crate::codec`] binary codec.

use crate::component::NodeId;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;

/// Durable, crash-surviving per-node key/value storage.
///
/// Keys are `(node, name)`; a `BTreeMap` keeps iteration deterministic.
#[derive(Debug, Default)]
pub struct StableStore {
    data: BTreeMap<(NodeId, String), Vec<u8>>,
    /// Write count (for reporting stable-storage traffic).
    pub writes: u64,
}

impl StableStore {
    /// An empty store.
    pub fn new() -> StableStore {
        StableStore::default()
    }

    /// Write raw bytes under `(node, key)`.
    pub fn put_bytes(&mut self, node: NodeId, key: &str, value: Vec<u8>) {
        self.writes += 1;
        self.data.insert((node, key.to_string()), value);
    }

    /// Read raw bytes.
    pub fn get_bytes(&self, node: NodeId, key: &str) -> Option<&[u8]> {
        self.data.get(&(node, key.to_string())).map(Vec::as_slice)
    }

    /// Serialize `value` with the binary codec and store it.
    pub fn put<T: Serialize>(&mut self, node: NodeId, key: &str, value: &T) {
        let bytes = crate::codec::to_bytes(value).expect("stable store serialize");
        self.put_bytes(node, key, bytes);
    }

    /// Add `element` to the `Vec<T>` stored under `(node, key)` (an absent
    /// key is an empty vector), leaving the bytes `put` of the whole vector
    /// would — at the cost of encoding one element, not all of them.
    pub fn append<T: Serialize>(&mut self, node: NodeId, key: &str, element: &T) {
        self.writes += 1;
        let seq = self.data.entry((node, key.to_string())).or_default();
        crate::codec::push_seq_element(seq, element).expect("stable store serialize");
    }

    /// Load and deserialize a value; `None` if the key is absent.
    ///
    /// Panics if the stored bytes do not decode as `T` — a schema mismatch
    /// is a programming error, not a runtime condition.
    pub fn get<T: DeserializeOwned>(&self, node: NodeId, key: &str) -> Option<T> {
        self.get_bytes(node, key)
            .map(|b| crate::codec::from_bytes(b).expect("stable store deserialize"))
    }

    /// Remove a key. Returns true if it was present.
    pub fn remove(&mut self, node: NodeId, key: &str) -> bool {
        self.data.remove(&(node, key.to_string())).is_some()
    }

    /// All keys on `node` that start with `prefix`, in sorted order.
    pub fn keys_with_prefix(&self, node: NodeId, prefix: &str) -> Vec<String> {
        self.data
            .range((node, prefix.to_string())..)
            .take_while(|((n, k), _)| *n == node && k.starts_with(prefix))
            .map(|((_, k), _)| k.clone())
            .collect()
    }

    /// Remove every key on `node` with the given prefix; returns how many.
    pub fn remove_prefix(&mut self, node: NodeId, prefix: &str) -> usize {
        let keys = self.keys_with_prefix(node, prefix);
        for k in &keys {
            self.data.remove(&(node, k.clone()));
        }
        keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct QueueState {
        jobs: Vec<u64>,
        epoch: u32,
    }

    #[test]
    fn typed_round_trip() {
        let mut s = StableStore::new();
        let st = QueueState {
            jobs: vec![1, 2, 3],
            epoch: 9,
        };
        s.put(NodeId(0), "schedd/queue", &st);
        let back: QueueState = s.get(NodeId(0), "schedd/queue").unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn missing_key_is_none() {
        let s = StableStore::new();
        assert_eq!(s.get::<u32>(NodeId(0), "nope"), None);
    }

    #[test]
    fn keys_are_node_scoped() {
        let mut s = StableStore::new();
        s.put(NodeId(0), "k", &1u32);
        s.put(NodeId(1), "k", &2u32);
        assert_eq!(s.get::<u32>(NodeId(0), "k"), Some(1));
        assert_eq!(s.get::<u32>(NodeId(1), "k"), Some(2));
    }

    #[test]
    fn prefix_scan_sorted_and_scoped() {
        let mut s = StableStore::new();
        s.put(NodeId(0), "job/2", &0u8);
        s.put(NodeId(0), "job/1", &0u8);
        s.put(NodeId(0), "job/10", &0u8);
        s.put(NodeId(0), "log/1", &0u8);
        s.put(NodeId(1), "job/9", &0u8);
        assert_eq!(
            s.keys_with_prefix(NodeId(0), "job/"),
            vec!["job/1", "job/10", "job/2"]
        );
        assert_eq!(s.remove_prefix(NodeId(0), "job/"), 3);
        assert!(s.keys_with_prefix(NodeId(0), "job/").is_empty());
        assert_eq!(s.get::<u8>(NodeId(0), "log/1"), Some(0));
        assert_eq!(s.get::<u8>(NodeId(1), "job/9"), Some(0));
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = StableStore::new();
        s.put(NodeId(0), "x", &5u8);
        assert!(s.remove(NodeId(0), "x"));
        assert!(!s.remove(NodeId(0), "x"));
    }

    proptest! {
        /// Appending element by element leaves the bytes `put` of the
        /// whole vector writes, so readers cannot tell the two apart.
        #[test]
        fn append_equals_put_of_the_whole_vec(
            entries in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), "[ -~]{0,40}"),
                0..80,
            )
        ) {
            let mut s = StableStore::new();
            for (i, (t, j, m)) in entries.iter().enumerate() {
                // Borrowed fields, as `Scheduler::log_event` writes them.
                s.append(NodeId(0), "appended", &(*t, *j, m.as_str()));
                s.put(NodeId(0), "whole", &entries[..=i].to_vec());
                prop_assert_eq!(
                    s.get_bytes(NodeId(0), "appended"),
                    s.get_bytes(NodeId(0), "whole")
                );
            }
            // One write per append, as one per `put`.
            prop_assert_eq!(s.writes, 2 * entries.len() as u64);
            let back: Option<Vec<(u64, u64, String)>> = s.get(NodeId(0), "appended");
            prop_assert_eq!(back, (!entries.is_empty()).then_some(entries));
        }
    }
}
