//! Happens-before DAG reconstruction from `(id, cause)` trace pairs.
//!
//! The kernel stamps every scheduled event with the sequence number of its
//! nearest *observable* causal ancestor — the most recent event on its
//! trigger chain during whose processing a trace record was emitted (see
//! [`crate::event::Event::cause`]). Each [`TraceEvent`] carries the id of
//! the kernel event it was emitted under plus that event's cause, so the
//! full happens-before DAG of everything observable can be rebuilt from a
//! trace alone — in memory here, or offline by `condor-g-trace` from a
//! `--trace-out` JSONL file.
//!
//! Nodes are kernel event ids; a node aggregates every trace record emitted
//! while that event was processed. Edges point from effect to cause.
//! Causes always have smaller sequence numbers than the events they
//! trigger (an event's effects are scheduled after it was popped), so the
//! structure is acyclic by construction; the walkers still guard against
//! malformed input.

use crate::event::NO_CAUSE;
use crate::time::SimTime;
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// One node of the happens-before DAG: a kernel event that emitted at
/// least one trace record.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Kernel event sequence number.
    pub id: u64,
    /// Virtual time of the event (time of its first record).
    pub time: SimTime,
    /// Causal parent event id, if any.
    pub cause: Option<u64>,
    /// Indices into the source record slice, in emission order.
    pub records: Vec<usize>,
    /// Event ids this node causally triggered (ascending).
    pub children: Vec<u64>,
}

/// The reconstructed happens-before DAG.
#[derive(Debug, Default)]
pub struct CausalDag {
    nodes: BTreeMap<u64, DagNode>,
}

impl CausalDag {
    /// Add one record: the trace record at `record_idx` was emitted under
    /// kernel event `id`, whose causal parent is `cause` ([`NO_CAUSE`] for
    /// roots), at virtual time `time`.
    fn insert(&mut self, id: u64, cause: u64, time: SimTime, record_idx: usize) {
        let node = self.nodes.entry(id).or_insert_with(|| DagNode {
            id,
            time,
            cause: (cause != NO_CAUSE).then_some(cause),
            records: Vec::new(),
            children: Vec::new(),
        });
        node.records.push(record_idx);
        // All records under one event share its provenance; keep the
        // earliest time in case of out-of-order ingestion.
        node.time = node.time.min(time);
    }

    /// Build from an in-memory trace; record indices point into `events`.
    pub fn from_events(events: &[TraceEvent]) -> CausalDag {
        let mut dag = CausalDag::default();
        for (i, e) in events.iter().enumerate() {
            if e.id == NO_CAUSE {
                // Emitted outside event processing (setup code): not part
                // of the causal structure.
                continue;
            }
            dag.insert(e.id, e.cause, e.time, i);
        }
        dag.link();
        dag
    }

    /// Populate child lists from the cause edges, once every record is in.
    fn link(&mut self) {
        let edges: Vec<(u64, u64)> = self
            .nodes
            .values()
            .filter_map(|n| n.cause.map(|c| (c, n.id)))
            .collect();
        for (parent, child) in edges {
            if let Some(p) = self.nodes.get_mut(&parent) {
                p.children.push(child);
            }
        }
    }

    /// Number of nodes (observable kernel events).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing was observable.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for event `id`, if it was observable.
    pub fn node(&self, id: u64) -> Option<&DagNode> {
        self.nodes.get(&id)
    }

    /// All nodes in event order.
    pub fn nodes(&self) -> impl Iterator<Item = &DagNode> {
        self.nodes.values()
    }

    /// Root nodes: no cause, or a cause that never became observable
    /// (its records were filtered out of this trace).
    pub fn roots(&self) -> impl Iterator<Item = &DagNode> {
        self.nodes
            .values()
            .filter(|n| n.cause.is_none_or(|c| !self.nodes.contains_key(&c)))
    }

    /// The causal chain from `id` back to its root, inclusive: the actual
    /// trigger chain of the event, which for a terminal milestone is the
    /// job's critical path (at every join the cause is the last-arriving
    /// input). Returns `[]` for an unknown id.
    pub fn chain_to_root(&self, id: u64) -> Vec<&DagNode> {
        let mut chain = Vec::new();
        let mut cur = self.nodes.get(&id);
        while let Some(node) = cur {
            // Causes precede effects, so monotone ids guard against any
            // malformed cycle in hand-edited traces.
            if chain
                .last()
                .is_some_and(|prev: &&DagNode| node.id >= prev.id)
            {
                break;
            }
            chain.push(node);
            cur = node.cause.and_then(|c| self.nodes.get(&c));
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Addr, CompId, NodeId};

    fn rec(t: u64, id: u64, cause: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime(t),
            addr: Addr {
                node: NodeId(0),
                comp: CompId(0),
            },
            kind: "k".into(),
            detail: String::new(),
            id,
            cause,
        }
    }

    #[test]
    fn reconstructs_chain_and_roots() {
        // 1 <- 4 <- 9, and 2 a lone root; two records under event 4.
        let events = vec![
            rec(10, 1, NO_CAUSE),
            rec(20, 4, 1),
            rec(21, 4, 1),
            rec(30, 9, 4),
            rec(15, 2, NO_CAUSE),
        ];
        let dag = CausalDag::from_events(&events);
        assert_eq!(dag.len(), 4);
        let roots: Vec<u64> = dag.roots().map(|n| n.id).collect();
        assert_eq!(roots, vec![1, 2]);
        assert_eq!(dag.node(4).unwrap().records, vec![1, 2]);
        assert_eq!(dag.node(1).unwrap().children, vec![4]);
        let chain: Vec<u64> = dag.chain_to_root(9).iter().map(|n| n.id).collect();
        assert_eq!(chain, vec![1, 4, 9]);
    }

    #[test]
    fn missing_parent_makes_a_root() {
        // Cause 3 emitted nothing that survived into this trace.
        let events = vec![rec(5, 7, 3)];
        let dag = CausalDag::from_events(&events);
        assert_eq!(dag.roots().count(), 1);
        let chain: Vec<u64> = dag.chain_to_root(7).iter().map(|n| n.id).collect();
        assert_eq!(chain, vec![7]);
    }

    #[test]
    fn setup_records_are_excluded() {
        let events = vec![rec(0, NO_CAUSE, NO_CAUSE), rec(1, 0, NO_CAUSE)];
        let dag = CausalDag::from_events(&events);
        assert_eq!(dag.len(), 1);
        assert!(dag.node(0).is_some());
    }
}
