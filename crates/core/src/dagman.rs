//! DAGMan: inter-job dependencies.
//!
//! The CMS experience (paper §6) is driven by DAGs at two levels: "a
//! two-node Directed Acyclic Graph of jobs submitted to a Condor-G agent
//! at Caltech triggers 100 simulation jobs... The execution of these jobs
//! is also controlled by a DAG that makes sure that local disk buffers do
//! not overflow". This module provides the DAG description (with a parser
//! for the classic DAGMan text format), validation, and a component that
//! walks the graph through the Scheduler's user API with per-node retries
//! and a max-active throttle.

use crate::api::{GridJobId, GridJobSpec, JobStatus, Universe, UserCmd, UserEvent};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::collections::BTreeMap;
use std::fmt;

/// One DAG node.
#[derive(Clone, Debug)]
pub struct DagNode {
    /// Unique node name.
    pub name: String,
    /// The job to run.
    pub spec: GridJobSpec,
    /// Resubmissions allowed after failures.
    pub retries: u32,
}

/// A DAG description.
#[derive(Clone, Debug, Default)]
pub struct DagSpec {
    /// Nodes, indexed by position.
    pub nodes: Vec<DagNode>,
    /// `(parent, child)` index pairs.
    pub edges: Vec<(usize, usize)>,
    /// Maximum concurrently submitted nodes (0 = unlimited). The CMS DAG
    /// uses this to keep disk buffers from overflowing.
    pub max_active: usize,
}

/// DAG validation/parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagError(pub String);

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DAG error: {}", self.0)
    }
}

impl std::error::Error for DagError {}

impl DagSpec {
    /// An empty DAG.
    pub fn new() -> DagSpec {
        DagSpec::default()
    }

    /// Add a node; returns its index.
    pub fn add(&mut self, name: &str, spec: GridJobSpec) -> usize {
        self.nodes.push(DagNode {
            name: name.to_string(),
            spec,
            retries: 0,
        });
        self.nodes.len() - 1
    }

    /// Declare `child` dependent on `parent`.
    pub fn edge(&mut self, parent: usize, child: usize) {
        self.edges.push((parent, child));
    }

    /// Index of a node by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Validate: known indices, no self-edges, acyclic.
    pub fn validate(&self) -> Result<(), DagError> {
        let n = self.nodes.len();
        for &(p, c) in &self.edges {
            if p >= n || c >= n {
                return Err(DagError(format!("edge ({p},{c}) out of range")));
            }
            if p == c {
                return Err(DagError(format!("self-edge on node {p}")));
            }
        }
        // Kahn's algorithm: all nodes must be orderable.
        let mut indegree = vec![0usize; n];
        for &(_, c) in &self.edges {
            indegree[c] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = ready.pop() {
            seen += 1;
            for &(p, c) in &self.edges {
                if p == u {
                    indegree[c] -= 1;
                    if indegree[c] == 0 {
                        ready.push(c);
                    }
                }
            }
        }
        if seen != n {
            return Err(DagError("cycle detected".into()));
        }
        Ok(())
    }

    /// Parse the classic DAGMan-style text format.
    ///
    /// ```
    /// let dag = condor_g::DagSpec::parse(
    ///     "JOB sim1 runtime=3600 stdout=1048576\n\
    ///      JOB recon runtime=7200 count=4\n\
    ///      PARENT sim1 CHILD recon\n\
    ///      RETRY sim1 3\n\
    ///      MAXACTIVE 20",
    /// ).unwrap();
    /// assert_eq!(dag.nodes.len(), 2);
    /// assert_eq!(dag.edges, vec![(0, 1)]);
    /// assert_eq!(dag.max_active, 20);
    /// ```
    pub fn parse(text: &str) -> Result<DagSpec, DagError> {
        let mut dag = DagSpec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let keyword = words.next().unwrap().to_ascii_uppercase();
            let err = |m: String| DagError(format!("line {}: {m}", lineno + 1));
            match keyword.as_str() {
                "JOB" => {
                    let name = words.next().ok_or_else(|| err("JOB needs a name".into()))?;
                    if dag.index_of(name).is_some() {
                        return Err(err(format!("duplicate node {name}")));
                    }
                    let mut spec = GridJobSpec::grid(name, "/bin/job", Duration::from_secs(60));
                    for opt in words {
                        let (k, v) = opt
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad option {opt}")))?;
                        match k {
                            "runtime" => {
                                spec.runtime = Duration::from_secs(
                                    v.parse().map_err(|_| err("bad runtime".into()))?,
                                )
                            }
                            "exe" => spec.executable = v.to_string(),
                            "stdout" => {
                                spec.stdout_size =
                                    v.parse().map_err(|_| err("bad stdout".into()))?
                            }
                            "count" => {
                                spec.count = v.parse().map_err(|_| err("bad count".into()))?
                            }
                            "universe" => {
                                spec.universe = match v {
                                    "grid" => Universe::Grid,
                                    "pool" => Universe::Pool,
                                    other => return Err(err(format!("bad universe {other}"))),
                                }
                            }
                            other => return Err(err(format!("unknown option {other}"))),
                        }
                    }
                    dag.add(name, spec);
                }
                "PARENT" => {
                    // PARENT a b CHILD c d
                    let rest: Vec<&str> = words.collect();
                    let split = rest
                        .iter()
                        .position(|w| w.eq_ignore_ascii_case("CHILD"))
                        .ok_or_else(|| err("PARENT without CHILD".into()))?;
                    let (parents, children) = rest.split_at(split);
                    let children = &children[1..];
                    if parents.is_empty() || children.is_empty() {
                        return Err(err("PARENT/CHILD lists must be non-empty".into()));
                    }
                    for p in parents {
                        let pi = dag
                            .index_of(p)
                            .ok_or_else(|| err(format!("unknown node {p}")))?;
                        for c in children {
                            let ci = dag
                                .index_of(c)
                                .ok_or_else(|| err(format!("unknown node {c}")))?;
                            dag.edge(pi, ci);
                        }
                    }
                }
                "RETRY" => {
                    let name = words
                        .next()
                        .ok_or_else(|| err("RETRY needs a name".into()))?;
                    let n: u32 = words
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("RETRY needs a count".into()))?;
                    let idx = dag
                        .index_of(name)
                        .ok_or_else(|| err(format!("unknown node {name}")))?;
                    dag.nodes[idx].retries = n;
                }
                "MAXACTIVE" => {
                    dag.max_active = words
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("MAXACTIVE needs a number".into()))?;
                }
                other => return Err(err(format!("unknown keyword {other}"))),
            }
        }
        dag.validate()?;
        Ok(dag)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum NodeState {
    Waiting,
    Ready,
    Submitted,
    Done,
    Failed,
}

const TAG_KICK: u64 = 1;

/// The DAG execution component: submits nodes to a Scheduler as their
/// parents complete, with retries and the max-active throttle.
pub struct DagMan {
    dag: DagSpec,
    scheduler: Addr,
    states: Vec<NodeState>,
    attempts: Vec<u32>,
    /// submission correlation id -> node index.
    pending_ids: BTreeMap<u64, usize>,
    /// grid job id -> node index.
    job_map: BTreeMap<GridJobId, usize>,
    next_cmd: u64,
    active: usize,
    finished: bool,
}

impl DagMan {
    /// Run `dag` through the scheduler at `scheduler`. Validate the DAG
    /// first — this panics on invalid input (construction-time error).
    pub fn new(dag: DagSpec, scheduler: Addr) -> DagMan {
        dag.validate().expect("valid DAG");
        let n = dag.nodes.len();
        DagMan {
            dag,
            scheduler,
            states: vec![NodeState::Waiting; n],
            attempts: vec![0; n],
            pending_ids: BTreeMap::new(),
            job_map: BTreeMap::new(),
            next_cmd: 0,
            active: 0,
            finished: false,
        }
    }

    fn parents_done(&self, node: usize) -> bool {
        self.dag
            .edges
            .iter()
            .filter(|&&(_, c)| c == node)
            .all(|&(p, _)| self.states[p] == NodeState::Done)
    }

    fn refresh_ready(&mut self) {
        for i in 0..self.states.len() {
            if self.states[i] == NodeState::Waiting && self.parents_done(i) {
                self.states[i] = NodeState::Ready;
            }
        }
    }

    fn submit_ready(&mut self, ctx: &mut Ctx<'_>) {
        self.refresh_ready();
        for i in 0..self.states.len() {
            if self.states[i] != NodeState::Ready {
                continue;
            }
            if self.dag.max_active > 0 && self.active >= self.dag.max_active {
                break;
            }
            self.next_cmd += 1;
            self.pending_ids.insert(self.next_cmd, i);
            self.states[i] = NodeState::Submitted;
            self.active += 1;
            ctx.metrics().incr("dag.submitted", 1);
            ctx.send(
                self.scheduler,
                UserCmd::Submit {
                    id: self.next_cmd,
                    spec: self.dag.nodes[i].spec.clone(),
                },
            );
        }
        self.persist(ctx);
        self.check_finished(ctx);
    }

    fn check_finished(&mut self, ctx: &mut Ctx<'_>) {
        if self.finished {
            return;
        }
        let all_done = self.states.iter().all(|s| *s == NodeState::Done);
        let stuck = self.states.contains(&NodeState::Failed)
            && self.active == 0
            && !self
                .states
                .iter()
                .any(|s| matches!(s, NodeState::Ready | NodeState::Submitted));
        if all_done || stuck {
            self.finished = true;
            ctx.metrics().incr(
                if all_done {
                    "dag.completed"
                } else {
                    "dag.failed"
                },
                1,
            );
            ctx.trace_with("dag.finished", || {
                (if all_done { "success" } else { "FAILED" }).to_string()
            });
            self.persist(ctx);
        }
    }

    fn persist(&self, ctx: &mut Ctx<'_>) {
        let done = self
            .states
            .iter()
            .filter(|s| **s == NodeState::Done)
            .count() as u64;
        let failed = self
            .states
            .iter()
            .filter(|s| **s == NodeState::Failed)
            .count() as u64;
        let node = ctx.node();
        ctx.store().put(node, "dag/done_nodes", &done);
        ctx.store().put(node, "dag/failed_nodes", &failed);
        ctx.store().put(node, "dag/finished", &self.finished);
        let all_done = done as usize == self.states.len();
        ctx.store()
            .put(node, "dag/success", &(self.finished && all_done));
    }
}

impl Component for DagMan {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_secs(1), TAG_KICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_KICK {
            self.submit_ready(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        let Some(event) = msg.downcast_ref::<UserEvent>() else {
            return;
        };
        match event {
            UserEvent::Submitted { id, job } => {
                if let Some(node) = self.pending_ids.remove(id) {
                    self.job_map.insert(*job, node);
                }
            }
            UserEvent::Status { job, status, .. } => {
                let Some(&node) = self.job_map.get(job) else {
                    return;
                };
                if self.states[node] != NodeState::Submitted {
                    return;
                }
                match status {
                    JobStatus::Done => {
                        self.states[node] = NodeState::Done;
                        self.active -= 1;
                        ctx.metrics().incr("dag.nodes_done", 1);
                        self.submit_ready(ctx);
                    }
                    JobStatus::Failed(_) | JobStatus::Removed => {
                        self.active -= 1;
                        if self.attempts[node] < self.dag.nodes[node].retries {
                            self.attempts[node] += 1;
                            ctx.metrics().incr("dag.retries", 1);
                            self.states[node] = NodeState::Ready;
                        } else {
                            self.states[node] = NodeState::Failed;
                            ctx.metrics().incr("dag.nodes_failed", 1);
                        }
                        self.submit_ready(ctx);
                    }
                    _ => {}
                }
            }
            UserEvent::Log { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_validate() {
        let dag = DagSpec::parse(
            "# CMS-style pipeline
             JOB sim1 runtime=3600 stdout=1000\n\
             JOB sim2 runtime=3600\n\
             JOB xfer runtime=600\n\
             JOB recon runtime=7200 count=4\n\
             PARENT sim1 sim2 CHILD xfer\n\
             PARENT xfer CHILD recon\n\
             RETRY sim1 3\n\
             MAXACTIVE 2",
        )
        .unwrap();
        assert_eq!(dag.nodes.len(), 4);
        assert_eq!(dag.edges.len(), 3);
        assert_eq!(dag.max_active, 2);
        assert_eq!(dag.nodes[0].retries, 3);
        assert_eq!(dag.nodes[3].spec.count, 4);
    }

    #[test]
    fn parse_errors() {
        assert!(DagSpec::parse("JOB a runtime=ten").is_err());
        assert!(DagSpec::parse("PARENT a CHILD b").is_err(), "unknown nodes");
        assert!(DagSpec::parse("JOB a\nJOB a").is_err(), "duplicate");
        assert!(DagSpec::parse("FROBNICATE x").is_err());
        assert!(DagSpec::parse("JOB a\nPARENT a CHILD").is_err());
    }

    #[test]
    fn cycle_rejected() {
        let mut dag = DagSpec::new();
        let a = dag.add("a", GridJobSpec::grid("a", "/x", Duration::from_secs(1)));
        let b = dag.add("b", GridJobSpec::grid("b", "/x", Duration::from_secs(1)));
        dag.edge(a, b);
        dag.edge(b, a);
        assert!(dag.validate().is_err());
        // Self edge too.
        let mut dag = DagSpec::new();
        let a = dag.add("a", GridJobSpec::grid("a", "/x", Duration::from_secs(1)));
        dag.edge(a, a);
        assert!(dag.validate().is_err());
    }

    #[test]
    fn diamond_is_valid() {
        let mut dag = DagSpec::new();
        let a = dag.add("a", GridJobSpec::grid("a", "/x", Duration::from_secs(1)));
        let b = dag.add("b", GridJobSpec::grid("b", "/x", Duration::from_secs(1)));
        let c = dag.add("c", GridJobSpec::grid("c", "/x", Duration::from_secs(1)));
        let d = dag.add("d", GridJobSpec::grid("d", "/x", Duration::from_secs(1)));
        dag.edge(a, b);
        dag.edge(a, c);
        dag.edge(b, d);
        dag.edge(c, d);
        assert!(dag.validate().is_ok());
    }
}
