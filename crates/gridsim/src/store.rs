//! Stable storage.
//!
//! The paper's fault-tolerance story (§4.2) rests on two persistent stores:
//! the Condor-G scheduler's job queue on the submit machine and the GRAM
//! client-side job log. [`StableStore`] models a per-node durable key/value
//! store: it survives node crashes (a crash wipes component memory, not the
//! store), and components re-read it from their boot hooks on restart.
//!
//! Values are byte strings; components encode their state with the
//! [`crate::codec`](mod@crate::codec) binary codec. A stored value's bytes
//! are a function of the value alone — not of whether it was `put` whole,
//! `append`ed to, or encoded from borrowed fields — so readers never care
//! how a writer got there.
//!
//! Each node's keys sit in one hash map. Every key is a string the program
//! builds itself (`gm/<user>/job/<id>` and the like), never outside input,
//! so the map uses the fixed-seed [`IdHasher`](crate::hash::IdHasher).
//! Point lookups are the hot path; prefix scans run only when a component
//! recovers, and sort what they find, so callers see keys in the same
//! order whatever the map's layout.

use crate::codec::{Decode, Encode};
use crate::component::NodeId;
use crate::hash::IdMap;
use std::fmt::{self, Write};

/// One node's keys and values.
type NodeMap = IdMap<Box<str>, Vec<u8>>;

/// Durable, crash-surviving per-node key/value storage.
///
/// One hash map per node (node ids are dense, so a `Vec` of maps), keyed
/// by `Box<str>` so lookups borrow the caller's `&str`. A map that falls
/// under a quarter of its capacity shrinks to twice its length, so a node
/// whose records are retired gives the memory back.
#[derive(Debug, Default)]
pub struct StableStore {
    nodes: Vec<NodeMap>,
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

    fn node(&self, node: NodeId) -> Option<&NodeMap> {
        self.nodes.get(node.0 as usize)
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeMap {
        let at = node.0 as usize;
        if at >= self.nodes.len() {
            self.nodes.resize_with(at + 1, NodeMap::default);
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
                map.insert(key.into(), value.to_vec());
            }
        }
    }

    /// Read raw bytes.
    pub fn get_bytes(&self, node: NodeId, key: &str) -> Option<&[u8]> {
        self.node(node)?.get(key).map(Vec::as_slice)
    }

    /// Encode `value` with the binary codec and store it.
    pub fn put<T: Encode + ?Sized>(&mut self, node: NodeId, key: &str, value: &T) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        value.encode(&mut scratch);
        self.put_bytes(node, key, &scratch);
        self.scratch = scratch;
    }

    /// Add `element` to the `Vec<T>` stored under `(node, key)` (an absent
    /// key is an empty vector), leaving the bytes `put` of the whole vector
    /// would — at the cost of encoding one element, not all of them.
    pub fn append<T: Encode + ?Sized>(&mut self, node: NodeId, key: &str, element: &T) {
        self.writes += 1;
        let map = self.node_mut(node);
        match map.get_mut(key) {
            Some(seq) => crate::codec::push_seq_element(seq, element),
            None => {
                let mut seq = Vec::new();
                crate::codec::push_seq_element(&mut seq, element);
                map.insert(key.into(), seq);
            }
        }
    }

    /// Give back the spare capacity `append` left on `(node, key)`, for a
    /// value that will not grow again. The bytes do not change and no
    /// write is counted; an absent key is a no-op.
    pub fn seal(&mut self, node: NodeId, key: &str) {
        if let Some(value) = self
            .nodes
            .get_mut(node.0 as usize)
            .and_then(|map| map.get_mut(key))
        {
            value.shrink_to_fit();
        }
    }

    /// Load and decode a value; `None` if the key is absent.
    ///
    /// Panics if the stored bytes do not decode as `T` — a schema mismatch
    /// is a programming error, not a runtime condition.
    pub fn get<T: Decode>(&self, node: NodeId, key: &str) -> Option<T> {
        self.get_bytes(node, key)
            .map(|b| crate::codec::from_bytes(b).expect("stable store deserialize"))
    }

    /// Remove a key. Returns true if it was present.
    pub fn remove(&mut self, node: NodeId, key: &str) -> bool {
        let Some(map) = self.nodes.get_mut(node.0 as usize) else {
            return false;
        };
        let present = map.remove(key).is_some();
        if map.len() * 4 < map.capacity() {
            map.shrink_to(map.len() * 2);
        }
        present
    }

    /// All keys on `node` that start with `prefix`, in sorted order.
    pub fn keys_with_prefix(&self, node: NodeId, prefix: &str) -> Vec<String> {
        let Some(map) = self.node(node) else {
            return Vec::new();
        };
        let mut keys: Vec<String> = map
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(|k| k.to_string())
            .collect();
        keys.sort_unstable();
        keys
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

    #[derive(Debug, PartialEq)]
    struct QueueState {
        jobs: Vec<u64>,
        epoch: u32,
    }

    crate::codec! { struct QueueState { jobs, epoch } }

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

    /// A user-log chunk built by `append`, byte for byte as `e025d0e`
    /// wrote it.
    #[test]
    fn appended_log_chunk_bytes_are_pinned() {
        let mut s = StableStore::new();
        s.append(NodeId(0), "log/0", &(17u64, 3u64, "submitted (app)"));
        s.append(NodeId(0), "log/0", &(90_000_000u64, 3u64, "Done"));
        let bytes = s.get_bytes(NodeId(0), "log/0").unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "0200000000000000110000000000000003000000000000000f000000000000007375626d6974746564202861707029804a5d050000000003000000000000000400000000000000446f6e65");
        let back: Vec<(u64, u64, String)> = s.get(NodeId(0), "log/0").unwrap();
        let want = [(17, 3, "submitted (app)"), (90_000_000, 3, "Done")];
        assert_eq!(back, want.map(|(t, j, m)| (t, j, m.to_string())));
    }

    proptest! {
        /// Appending element by element leaves the bytes `put` of the
        /// whole vector writes, so readers cannot tell the two apart — and
        /// sealing the value between appends changes no byte of it.
        #[test]
        fn append_equals_put_of_the_whole_vec(
            entries in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), "[ -~]{0,40}"),
                0..80,
            ),
            seals in proptest::collection::vec(any::<bool>(), 80..81),
        ) {
            let mut s = StableStore::new();
            for (i, (t, j, m)) in entries.iter().enumerate() {
                // Borrowed fields, as `Scheduler::log_event` writes them.
                s.append(NodeId(0), "appended", &(*t, *j, m.as_str()));
                if seals[i] {
                    s.seal(NodeId(0), "appended");
                    let stored = &s.nodes[0]["appended"];
                    prop_assert_eq!(stored.capacity(), stored.len());
                }
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

        /// Random writes, appends, seals and removals on two nodes read
        /// back as a `BTreeMap` per node says they should: the same bytes
        /// under every key, the same sorted keys under every prefix, one
        /// write counted per `put`/`put_bytes`/`append`. A node emptied at
        /// the end holds no capacity.
        #[test]
        fn store_matches_a_btree_map_model(
            ops in proptest::collection::vec(
                (0u8..6, 0u32..2, 0usize..3, 0u64..12, 0usize..40, any::<u8>()),
                0..200,
            ),
        ) {
            use crate::codec::{from_bytes, to_bytes};
            use std::collections::BTreeMap;
            let mut s = StableStore::new();
            let mut model: [BTreeMap<String, Vec<u8>>; 2] = Default::default();
            let mut writes = 0u64;
            let spaces = ["job/", "gm/", "log/"];
            for (op, node, space, n, len, byte) in ops {
                let (at, m) = (NodeId(node), &mut model[node as usize]);
                match op {
                    0 | 1 => {
                        let key = format!("{}{n}", spaces[space % 2]);
                        let value = vec![byte; len];
                        if op == 0 {
                            s.put(at, &key, &value);
                            m.insert(key, to_bytes(&value));
                        } else {
                            s.put_bytes(at, &key, &value);
                            m.insert(key, value);
                        }
                        writes += 1;
                    }
                    2 => {
                        // Only `log/` keys hold sequences.
                        let key = format!("log/{n}");
                        let element = u32::from(byte) + len as u32;
                        s.append(at, &key, &element);
                        let mut seq: Vec<u32> =
                            m.get(&key).map_or(Vec::new(), |b| from_bytes(b).unwrap());
                        seq.push(element);
                        m.insert(key, to_bytes(&seq));
                        writes += 1;
                    }
                    3 => {
                        let key = format!("{}{n}", spaces[space]);
                        s.seal(at, &key);
                        if let Some(stored) = s.node(at).and_then(|map| map.get(key.as_str())) {
                            prop_assert_eq!(stored.capacity(), stored.len());
                        }
                    }
                    4 => {
                        let key = format!("{}{n}", spaces[space]);
                        prop_assert_eq!(s.remove(at, &key), m.remove(&key).is_some());
                    }
                    _ => {
                        let prefix = ["job/1", "log/", ""][space];
                        let before = m.len();
                        m.retain(|k, _| !k.starts_with(prefix));
                        prop_assert_eq!(s.remove_prefix(at, prefix), before - m.len());
                    }
                }
                prop_assert_eq!(s.writes, writes);
                for (node, m) in model.iter().enumerate() {
                    let at = NodeId(node as u32);
                    for space in spaces {
                        for n in 0..12 {
                            let key = format!("{space}{n}");
                            prop_assert_eq!(s.get_bytes(at, &key), m.get(&key).map(Vec::as_slice));
                        }
                    }
                    for prefix in ["", "job/", "job/1", "gm/", "log/", "zz"] {
                        let want: Vec<String> =
                            m.keys().filter(|k| k.starts_with(prefix)).cloned().collect();
                        prop_assert_eq!(s.keys_with_prefix(at, prefix), want);
                    }
                }
            }
            for node in 0..s.nodes.len() {
                s.remove_prefix(NodeId(node as u32), "");
                prop_assert_eq!(s.nodes[node].capacity(), 0);
            }
        }
    }
}
