//! Stable storage.
//!
//! The paper's fault-tolerance story (§4.2) rests on two persistent stores:
//! the Condor-G scheduler's job queue on the submit machine and the GRAM
//! client-side job log. [`StableStore`] models a per-node durable key/value
//! store: it survives node crashes (a crash wipes component memory, not the
//! store), and components re-read it from their boot hooks on restart.
//!
//! Values are byte strings; components serialize their state with the
//! [`crate::codec`] binary codec. A stored value's bytes are a function of
//! the value alone — not of whether it was `put` whole, `append`ed to, or
//! encoded from borrowed fields — so readers never care how a writer got
//! there.

use crate::component::NodeId;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::ops::Bound;

/// Durable, crash-surviving per-node key/value storage.
///
/// One sorted map per node (node ids are dense, so a `Vec` of maps), keyed
/// by `String` so lookups borrow the caller's `&str`; a `BTreeMap` keeps
/// iteration deterministic.
#[derive(Debug, Default)]
pub struct StableStore {
    nodes: Vec<BTreeMap<String, Vec<u8>>>,
    /// Encode buffer shared by every [`StableStore::put`], so a write
    /// allocates the stored value (exact size) and nothing else.
    scratch: Vec<u8>,
    /// Write count (for reporting stable-storage traffic).
    pub writes: u64,
}

impl StableStore {
    /// An empty store.
    pub fn new() -> StableStore {
        StableStore::default()
    }

    fn node(&self, node: NodeId) -> Option<&BTreeMap<String, Vec<u8>>> {
        self.nodes.get(node.0 as usize)
    }

    fn node_mut(&mut self, node: NodeId) -> &mut BTreeMap<String, Vec<u8>> {
        let at = node.0 as usize;
        if at >= self.nodes.len() {
            self.nodes.resize_with(at + 1, BTreeMap::new);
        }
        &mut self.nodes[at]
    }

    /// Write raw bytes under `(node, key)`.
    pub fn put_bytes(&mut self, node: NodeId, key: &str, value: &[u8]) {
        self.writes += 1;
        let map = self.node_mut(node);
        match map.get_mut(key) {
            // Reuse the old allocation only where that strands no more
            // than it already holds: a record that shrank (a tombstone
            // over a live job) must give its capacity back.
            Some(slot) if value.len() <= slot.capacity() && value.len() >= slot.capacity() / 2 => {
                slot.clear();
                slot.extend_from_slice(value);
            }
            Some(slot) => *slot = value.to_vec(),
            None => {
                map.insert(key.to_string(), value.to_vec());
            }
        }
    }

    /// Read raw bytes.
    pub fn get_bytes(&self, node: NodeId, key: &str) -> Option<&[u8]> {
        self.node(node)?.get(key).map(Vec::as_slice)
    }

    /// Serialize `value` with the binary codec and store it.
    pub fn put<T: Serialize + ?Sized>(&mut self, node: NodeId, key: &str, value: &T) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        crate::codec::encode_into(&mut scratch, value).expect("stable store serialize");
        self.put_bytes(node, key, &scratch);
        self.scratch = scratch;
    }

    /// Add `element` to the `Vec<T>` stored under `(node, key)` (an absent
    /// key is an empty vector), leaving the bytes `put` of the whole vector
    /// would — at the cost of encoding one element, not all of them.
    pub fn append<T: Serialize>(&mut self, node: NodeId, key: &str, element: &T) {
        self.writes += 1;
        let map = self.node_mut(node);
        let push = |seq: &mut Vec<u8>| {
            crate::codec::push_seq_element(seq, element).expect("stable store serialize")
        };
        match map.get_mut(key) {
            Some(seq) => push(seq),
            None => {
                let mut seq = Vec::new();
                push(&mut seq);
                map.insert(key.to_string(), seq);
            }
        }
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
        self.nodes
            .get_mut(node.0 as usize)
            .is_some_and(|map| map.remove(key).is_some())
    }

    /// All keys on `node` that start with `prefix`, in sorted order.
    pub fn keys_with_prefix(&self, node: NodeId, prefix: &str) -> Vec<String> {
        let Some(map) = self.node(node) else {
            return Vec::new();
        };
        map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Remove every key on `node` with the given prefix; returns how many.
    pub fn remove_prefix(&mut self, node: NodeId, prefix: &str) -> usize {
        let keys = self.keys_with_prefix(node, prefix);
        for k in &keys {
            self.remove(node, k);
        }
        keys.len()
    }
}

/// A store key built in place: the fixed prefix is rendered once, each
/// key re-renders only its suffix into the same buffer.
#[derive(Debug)]
pub struct KeyBuf {
    buf: String,
    prefix: usize,
}

impl KeyBuf {
    /// Keys that all start with `prefix`.
    pub fn new(prefix: impl Into<String>) -> KeyBuf {
        let buf = prefix.into();
        KeyBuf {
            prefix: buf.len(),
            buf,
        }
    }

    /// The prefix alone (what `keys_with_prefix` takes).
    pub fn prefix(&self) -> &str {
        &self.buf[..self.prefix]
    }

    /// The key `prefix + suffix`; valid until the next call.
    pub fn key(&mut self, suffix: impl fmt::Display) -> &str {
        self.buf.truncate(self.prefix);
        write!(self.buf, "{suffix}").expect("writing to a String");
        &self.buf
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
    fn shrinking_overwrite_gives_its_capacity_back() {
        let mut s = StableStore::new();
        s.put_bytes(NodeId(0), "job", &[7u8; 300]);
        s.put_bytes(NodeId(0), "job", &[9u8; 10]);
        assert_eq!(s.get_bytes(NodeId(0), "job"), Some(&[9u8; 10][..]));
        assert_eq!(s.nodes[0]["job"].capacity(), 10);
        // The same through the typed path, whose scratch buffer has seen
        // the long value.
        s.put(NodeId(0), "rec", &"x".repeat(300));
        s.put(NodeId(0), "rec", &"tombstone!");
        assert_eq!(s.get::<String>(NodeId(0), "rec").unwrap(), "tombstone!");
        let stored = &s.nodes[0]["rec"];
        assert_eq!(stored.capacity(), stored.len());
    }

    #[test]
    fn key_buf_rerenders_only_the_suffix() {
        let mut k = KeyBuf::new(format!("gm/{}/job/", "jane"));
        assert_eq!(k.key(7), "gm/jane/job/7");
        assert_eq!(k.key(format_args!("{:04}", 12)), "gm/jane/job/0012");
        assert_eq!(k.prefix(), "gm/jane/job/");
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
