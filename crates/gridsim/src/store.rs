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
//! Each node's records sit in one hash set. Every key is a string the
//! program builds itself (`gm/<user>/job/<id>` and the like), never
//! outside input, so the set uses the fixed-seed
//! [`IdHasher`](crate::hash::IdHasher). Point lookups are the hot path;
//! prefix scans run only when a component recovers, and sort what they
//! find, so callers see keys in the same order whatever the set's layout.
//!
//! A record is one heap block, `[key length: u16 LE][key bytes][value
//! bytes]`, sized exactly. Under full retention the store holds most of
//! what a job leaves behind, so per-record overhead is per-job memory: a
//! key and a value in blocks of their own cost a 40-byte bucket and two
//! allocations, one block costs a 16-byte bucket and one. A record has no
//! spare capacity, so a value that shrinks or stops growing strands
//! nothing; the price is that `append` copies the record it grows.

use crate::codec::{leading_varint, varint, Decode, Encode};
use crate::component::NodeId;
use crate::hash::IdSet;
use std::borrow::Borrow;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

/// One record: key and value in a single exact-size block, laid out as
/// `[key length: u16 LE][key bytes][value bytes]`. It hashes and compares
/// by its key bytes, so a set of records is looked up by `&[u8]`.
#[derive(Debug)]
struct Rec(Box<[u8]>);

impl Rec {
    /// A record holding `value` under `key`.
    fn new(key: &str, value: &[u8]) -> Rec {
        let key_len = u16::try_from(key.len()).expect("a store key under 64 KiB");
        let mut block = Vec::with_capacity(2 + key.len() + value.len());
        block.extend_from_slice(&key_len.to_le_bytes());
        block.extend_from_slice(key.as_bytes());
        block.extend_from_slice(value);
        Rec(block.into_boxed_slice())
    }

    /// Where the value starts.
    fn value_at(&self) -> usize {
        2 + usize::from(u16::from_le_bytes([self.0[0], self.0[1]]))
    }

    fn key(&self) -> &[u8] {
        &self.0[2..self.value_at()]
    }

    fn value(&self) -> &[u8] {
        &self.0[self.value_at()..]
    }

    fn value_mut(&mut self) -> &mut [u8] {
        let at = self.value_at();
        &mut self.0[at..]
    }

    /// This record with `element` (one encoded element) added to the
    /// sequence its value holds: the varint count at the head of the value
    /// goes up by one and the element goes on the end. The block grows by
    /// exactly the element, and by one byte more when the count needs
    /// another byte (at 128 elements, then 16,384, …); otherwise the count
    /// is rewritten in place.
    ///
    /// Panics if the value does not start with a count: what a key holds
    /// is the caller's schema, not input.
    fn push_seq_element(self, element: &[u8]) -> Rec {
        let at = self.value_at();
        let (count, width) =
            leading_varint(&self.0[at..]).expect("a sequence starts with its count");
        let (count, len) = varint(count + 1);
        let mut block = self.0.into_vec();
        block.reserve_exact(len - width + element.len());
        block.splice(at..at + width, count[..len].iter().copied());
        block.extend_from_slice(element);
        Rec(block.into_boxed_slice())
    }
}

impl Borrow<[u8]> for Rec {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}

impl Hash for Rec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl PartialEq for Rec {
    fn eq(&self, other: &Rec) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Rec {}

/// One node's records.
type NodeMap = IdSet<Rec>;

/// Durable, crash-surviving per-node key/value storage.
///
/// One hash set of records per node (node ids are dense, so a `Vec` of
/// sets); lookups borrow the caller's key bytes. A set that falls under a
/// quarter of its capacity shrinks to twice its length, so a node whose
/// records are retired gives the memory back.
#[derive(Debug, Default)]
pub struct StableStore {
    nodes: Vec<NodeMap>,
    /// Encode buffer shared by [`StableStore::put`] and
    /// [`StableStore::append`], so a write allocates the stored record
    /// (exact size) and nothing else.
    scratch: Vec<u8>,
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
        let map = self.node_mut(node);
        let rec = match map.take(key.as_bytes()) {
            // Same length: overwrite in place, no allocation.
            Some(mut rec) if rec.value().len() == value.len() => {
                rec.value_mut().copy_from_slice(value);
                rec
            }
            _ => Rec::new(key, value),
        };
        map.insert(rec);
    }

    /// Read raw bytes.
    pub fn get_bytes(&self, node: NodeId, key: &str) -> Option<&[u8]> {
        self.node(node)?.get(key.as_bytes()).map(Rec::value)
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
        // A one-element sequence: its count (one byte), then the element.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        1u64.encode(&mut scratch);
        element.encode(&mut scratch);
        let map = self.node_mut(node);
        let rec = match map.take(key.as_bytes()) {
            Some(rec) => rec.push_seq_element(&scratch[1..]),
            None => Rec::new(key, &scratch),
        };
        map.insert(rec);
        self.scratch = scratch;
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
        let present = map.remove(key.as_bytes());
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
            .iter()
            .map(Rec::key)
            .filter(|k| k.starts_with(prefix.as_bytes()))
            .map(|k| String::from_utf8(k.to_vec()).expect("a store key is a str"))
            .collect();
        keys.sort_unstable();
        keys
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
    }

    /// The heap block a record occupies, in bytes.
    fn block_len(s: &StableStore, node: NodeId, key: &str) -> usize {
        s.node(node).unwrap().get(key.as_bytes()).unwrap().0.len()
    }

    #[test]
    fn shrinking_overwrite_gives_its_capacity_back() {
        let mut s = StableStore::new();
        s.put_bytes(NodeId(0), "job", &[7u8; 300]);
        assert_eq!(block_len(&s, NodeId(0), "job"), 2 + 3 + 300);
        s.put_bytes(NodeId(0), "job", &[9u8; 10]);
        assert_eq!(s.get_bytes(NodeId(0), "job"), Some(&[9u8; 10][..]));
        assert_eq!(block_len(&s, NodeId(0), "job"), 2 + 3 + 10);
        // The same through the typed path, whose scratch buffer has seen
        // the long value.
        s.put(NodeId(0), "rec", &"x".repeat(300));
        s.put(NodeId(0), "rec", &"tombstone!");
        assert_eq!(s.get::<String>(NodeId(0), "rec").unwrap(), "tombstone!");
        // A one-byte length, then the ten bytes.
        assert_eq!(block_len(&s, NodeId(0), "rec"), 2 + 3 + 1 + 10);
        // And through `append`, one element at a time: a one-byte count,
        // then one byte for each of 5 and 6.
        s.append(NodeId(0), "log", &5u32);
        s.append(NodeId(0), "log", &6u32);
        assert_eq!(block_len(&s, NodeId(0), "log"), 2 + 3 + 1 + 2);
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

    /// A user-log chunk built by `append`, byte for byte: count 2, then
    /// each entry's time, job and message length as varints
    /// (90,000,000 is `80 95 f5 2a`).
    #[test]
    fn appended_log_chunk_bytes_are_pinned() {
        let mut s = StableStore::new();
        s.append(NodeId(0), "log/0", &(17u64, 3u64, "submitted (app)"));
        s.append(NodeId(0), "log/0", &(90_000_000u64, 3u64, "Done"));
        let bytes = s.get_bytes(NodeId(0), "log/0").unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0211030f7375626d69747465642028617070298095f52a0304446f6e65"
        );
        let back: Vec<(u64, u64, String)> = s.get(NodeId(0), "log/0").unwrap();
        let want = [(17, 3, "submitted (app)"), (90_000_000, 3, "Done")];
        assert_eq!(back, want.map(|(t, j, m)| (t, j, m.to_string())));
    }

    /// The count of an appended sequence takes a second byte at 128
    /// elements: the record grows by that byte and the element, and still
    /// holds what `put` of the whole vector writes.
    #[test]
    fn append_widens_the_count_at_128_elements() {
        let mut s = StableStore::new();
        let mut whole = Vec::new();
        for n in 1..=129u32 {
            s.append(NodeId(0), "log", &n);
            whole.push(n);
            if n >= 127 {
                s.put(NodeId(0), "whole", &whole);
                assert_eq!(
                    s.get_bytes(NodeId(0), "log"),
                    s.get_bytes(NodeId(0), "whole")
                );
            }
            if n == 127 {
                // A one-byte count and 127 one-byte elements.
                assert_eq!(block_len(&s, NodeId(0), "log"), 2 + 3 + 1 + 127);
            }
        }
        // The count, 129, in two bytes, then 127 one-byte elements and two
        // two-byte ones.
        let value = s.get_bytes(NodeId(0), "log").unwrap();
        assert_eq!(value[..2], [0x81, 0x01]);
        assert_eq!(block_len(&s, NodeId(0), "log"), 2 + 3 + 2 + 127 + 2 * 2);
        assert_eq!(s.get::<Vec<u32>>(NodeId(0), "log"), Some(whole));
    }

    proptest! {
        /// Appending element by element leaves the bytes `put` of the
        /// whole vector writes, so readers cannot tell the two apart.
        #[test]
        fn append_equals_put_of_the_whole_vec(
            entries in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), "[ -~]{0,40}"),
                0..200,
            ),
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
            let back: Option<Vec<(u64, u64, String)>> = s.get(NodeId(0), "appended");
            prop_assert_eq!(back, (!entries.is_empty()).then_some(entries));
        }

        /// Random writes, appends and removals on two nodes read back as a
        /// `BTreeMap` per node says they should: the same bytes under every
        /// key, the same sorted keys under every prefix. A node emptied at
        /// the end holds no capacity.
        #[test]
        fn store_matches_a_btree_map_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u32..2, 0usize..3, 0u64..12, 0usize..40, any::<u8>()),
                0..200,
            ),
        ) {
            use crate::codec::{from_bytes, to_bytes};
            use std::collections::BTreeMap;
            let mut s = StableStore::new();
            let mut model: [BTreeMap<String, Vec<u8>>; 2] = Default::default();
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
                    }
                    _ => {
                        let key = format!("{}{n}", spaces[space]);
                        prop_assert_eq!(s.remove(at, &key), m.remove(&key).is_some());
                    }
                }
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
                let at = NodeId(node as u32);
                for key in s.keys_with_prefix(at, "") {
                    prop_assert!(s.remove(at, &key));
                }
                prop_assert_eq!(s.nodes[node].capacity(), 0);
            }
        }
    }
}
