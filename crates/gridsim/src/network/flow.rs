//! Shared-bandwidth flow model: a topology of named links with finite
//! capacity, plus a max-min fair-share allocator over the bulk transfers
//! ("flows") currently crossing them.
//!
//! The legacy model in [`super::Network::transfer_duration`] gives every
//! bulk transfer a private, uncontended pipe whose fate is decided entirely
//! at start time. That is fine for control traffic but wrong for the
//! paper's hardest production lessons (§6): stage-in storms, checkpoint
//! traffic and links that degrade mid-run are all *contention* phenomena.
//! In flow mode a transfer instead becomes a kernel-visible object:
//!
//! * each flow follows a route — an ordered list of [`LinkId`]s declared by
//!   the scenario — and is additionally capped by the legacy per-pair
//!   bandwidth (modelling the endpoint NIC / disk);
//! * whenever the flow set or the topology changes, every flow's rate is
//!   recomputed by **max-min fair share** (progressive filling): repeatedly
//!   give every unfixed flow the smallest per-link fair share
//!   `capacity / flows_on_link`, freeze the flows that bottleneck at that
//!   rate, subtract their demand, and continue with the rest;
//! * a flow's completion is a scheduled kernel event. Because rates change
//!   while a flow is in flight, completion events carry no payload except
//!   the flow id and are validated against the flow's *current* deadline:
//!   stale events (scheduled before a rate change) fire and are ignored.
//!
//! Everything here is deterministic: flows are stored in a `BTreeMap` and
//! iterated in id order, the waterfill fixes flows by exact float equality
//! of identically-computed expressions, and no wall-clock or hash-order
//! state is consulted.

use crate::component::{Addr, AnyMsg, NodeId};
use crate::time::{Duration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Handle to a declared topology link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Kernel notice delivered to the *sender* of a bulk transfer that was
/// aborted in flight (network partition, link failure, or receiver crash).
///
/// The original payload is handed back so the sender can decide whether to
/// retransmit (`gass::GcatClient` does), translate the abort into a
/// protocol-level failure for the would-be receiver (`gass::GassServer`
/// turns an aborted GET reply into a retryable `TransferError::Aborted`),
/// or drop it.
#[derive(Debug)]
pub struct BulkAborted {
    /// Where the transfer was headed.
    pub to: Addr,
    /// Size of the aborted transfer.
    pub bytes: u64,
    /// The undelivered payload.
    pub msg: AnyMsg,
}

/// A capacitated topology link (named externally via `FlowNet::by_name`).
#[derive(Debug)]
struct Link {
    /// Configured capacity in bytes/second.
    capacity: f64,
    /// Propagation latency in seconds, paid once per flow as part of the
    /// completion tail.
    latency: f64,
    up: bool,
    /// Fault-plan capacity override (`LinkBandwidth` events).
    override_cap: Option<f64>,
}

impl Link {
    /// Capacity currently available to the fair-share allocator.
    fn effective(&self) -> f64 {
        if !self.up {
            return 0.0;
        }
        self.override_cap.unwrap_or(self.capacity).max(0.0)
    }
}

/// One in-flight bulk transfer.
#[derive(Debug)]
struct Flow {
    from: Addr,
    to: Addr,
    bytes: u64,
    /// Bytes not yet pushed into the pipe (`<= 0` while the last bytes are
    /// "draining" through the latency tail).
    remaining: f64,
    /// Current fair-share rate in bytes/second.
    rate: f64,
    /// Sim time at which `remaining` was last settled.
    last: SimTime,
    /// Completion tail: one end-to-end latency sample plus the route's
    /// summed propagation delays, paid after the last byte is sent.
    latency: Duration,
    route: Vec<LinkId>,
    /// Per-flow ceiling (the legacy per-pair bandwidth — endpoint NIC).
    cap: f64,
    /// Current completion deadline; [`SimTime::MAX`] while stalled. A
    /// `FlowDone` event is valid only if its fire time equals this.
    deadline: SimTime,
    /// The payload, surrendered on completion or abort.
    msg: Option<AnyMsg>,
}

/// An aborted flow, as reported back to the kernel: the kernel wraps it in
/// a [`BulkAborted`] delivered to `from`.
#[derive(Debug)]
pub(crate) struct AbortedFlow {
    pub(crate) from: Addr,
    pub(crate) to: Addr,
    pub(crate) bytes: u64,
    pub(crate) msg: AnyMsg,
}

/// The flow-mode network state: topology plus active flows.
#[derive(Debug, Default)]
pub(crate) struct FlowNet {
    links: Vec<Link>,
    by_name: HashMap<String, LinkId>,
    /// Directed routes; [`FlowNet::set_route`] installs both directions.
    routes: HashMap<(NodeId, NodeId), Vec<LinkId>>,
    /// Active flows in creation order (BTreeMap: deterministic iteration).
    flows: BTreeMap<u64, Flow>,
    next_id: u64,
}

impl FlowNet {
    /// Declare a link. Re-declaring a name updates capacity/latency and
    /// returns the existing id.
    pub(crate) fn add_link(&mut self, name: &str, capacity: f64, latency_secs: f64) -> LinkId {
        if let Some(&id) = self.by_name.get(name) {
            let link = &mut self.links[id.0 as usize];
            link.capacity = capacity;
            link.latency = latency_secs;
            return id;
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            capacity,
            latency: latency_secs,
            up: true,
            override_cap: None,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up a link by name.
    pub(crate) fn link_id(&self, name: &str) -> Option<LinkId> {
        self.by_name.get(name).copied()
    }

    /// Install the route for `a ↔ b` (both directions).
    pub(crate) fn set_route(&mut self, a: NodeId, b: NodeId, route: &[LinkId]) {
        self.routes.insert((a, b), route.to_vec());
        self.routes.insert((b, a), route.to_vec());
    }

    /// The route for `from → to`; empty (capacity-unconstrained, still
    /// flow-scheduled) when none is declared.
    pub(crate) fn route_for(&self, from: NodeId, to: NodeId) -> Vec<LinkId> {
        self.routes.get(&(from, to)).cloned().unwrap_or_default()
    }

    pub(crate) fn link_is_up(&self, id: LinkId) -> bool {
        self.links[id.0 as usize].up
    }

    /// A link's propagation latency in seconds.
    pub(crate) fn link_latency(&self, id: LinkId) -> f64 {
        self.links[id.0 as usize].latency
    }

    /// Set a link's up/down state. Returns false for unknown names.
    pub(crate) fn set_link_up(&mut self, name: &str, up: bool) -> bool {
        match self.by_name.get(name) {
            Some(&id) => {
                self.links[id.0 as usize].up = up;
                true
            }
            None => false,
        }
    }

    /// Set (or with `None`, clear) a link's capacity override.
    pub(crate) fn set_link_override(&mut self, name: &str, cap: Option<f64>) -> bool {
        match self.by_name.get(name) {
            Some(&id) => {
                self.links[id.0 as usize].override_cap = cap;
                true
            }
            None => false,
        }
    }

    /// Number of in-flight flows.
    pub(crate) fn active(&self) -> usize {
        self.flows.len()
    }

    /// Register a new flow (rates/deadlines are assigned by the next
    /// [`FlowNet::refresh`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        &mut self,
        from: Addr,
        to: Addr,
        bytes: u64,
        route: Vec<LinkId>,
        latency: Duration,
        cap: f64,
        now: SimTime,
        msg: AnyMsg,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                from,
                to,
                bytes,
                // Zero-byte transfers still pay the latency tail.
                remaining: (bytes.max(1)) as f64,
                rate: 0.0,
                last: now,
                latency,
                route,
                cap,
                deadline: SimTime::MAX,
                msg: Some(msg),
            },
        );
        id
    }

    /// Complete flow `id` if `now` matches its current deadline (stale
    /// completion events — scheduled before a rate change — return `None`
    /// and are ignored). Returns `(from, to, payload)`.
    pub(crate) fn complete(&mut self, id: u64, now: SimTime) -> Option<(Addr, Addr, AnyMsg)> {
        match self.flows.get(&id) {
            Some(f) if f.deadline == now => {}
            _ => return None,
        }
        let mut flow = self.flows.remove(&id).expect("checked above");
        Some((flow.from, flow.to, flow.msg.take().expect("payload intact")))
    }

    /// Remove and return every flow matching `pred(from_node, to_node,
    /// route)`. The caller is expected to [`FlowNet::refresh`] afterwards.
    pub(crate) fn abort_where(
        &mut self,
        mut pred: impl FnMut(NodeId, NodeId, &[LinkId]) -> bool,
    ) -> Vec<AbortedFlow> {
        let doomed: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| pred(f.from.node, f.to.node, &f.route))
            .map(|(&id, _)| id)
            .collect();
        doomed
            .into_iter()
            .map(|id| {
                let mut f = self.flows.remove(&id).expect("collected above");
                AbortedFlow {
                    from: f.from,
                    to: f.to,
                    bytes: f.bytes,
                    msg: f.msg.take().expect("payload intact"),
                }
            })
            .collect()
    }

    /// Settle progress up to `now` under the old rates, re-run the
    /// fair-share waterfill, and return the flows whose completion deadline
    /// changed to a new finite time — the kernel schedules a `FlowDone`
    /// event for each. Flows whose deadline moved to [`SimTime::MAX`]
    /// (stalled) get no event; their previously scheduled events go stale.
    pub(crate) fn refresh(&mut self, now: SimTime) -> Vec<(u64, SimTime)> {
        // 1. Settle progress under the rates that held since `last`.
        for f in self.flows.values_mut() {
            let dt = (now - f.last).as_secs_f64();
            if dt > 0.0 && f.remaining > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            f.last = now;
        }
        // 2. Max-min fair share over the still-sending flows. Flows that
        //    have pushed their last byte ("draining" the latency tail) hold
        //    their frozen deadline and consume no capacity.
        let mut cap: Vec<f64> = self.links.iter().map(Link::effective).collect();
        let mut load: Vec<u32> = vec![0; self.links.len()];
        let mut todo: Vec<u64> = Vec::new();
        for (&id, f) in &self.flows {
            f.route.iter().for_each(|l| {
                if f.remaining > 0.0 {
                    load[l.0 as usize] += 1;
                }
            });
            if f.remaining > 0.0 {
                todo.push(id);
            }
        }
        while !todo.is_empty() {
            // Each unfixed flow's current ceiling: its own cap and the
            // fair share of every link it crosses.
            let limits: Vec<f64> = todo
                .iter()
                .map(|id| {
                    let f = &self.flows[id];
                    let mut lim = f.cap;
                    for l in &f.route {
                        let i = l.0 as usize;
                        if load[i] > 0 {
                            lim = lim.min(cap[i] / load[i] as f64);
                        }
                    }
                    lim.max(0.0)
                })
                .collect();
            let floor = limits.iter().copied().fold(f64::INFINITY, f64::min);
            // Fix every flow sitting at the global minimum (exact equality:
            // the minimum was computed from these very values).
            let mut rest = Vec::with_capacity(todo.len());
            for (id, lim) in todo.drain(..).zip(limits) {
                if lim <= floor {
                    let f = self.flows.get_mut(&id).expect("in todo");
                    f.rate = lim;
                    for l in &f.route {
                        let i = l.0 as usize;
                        cap[i] = (cap[i] - lim).max(0.0);
                        load[i] -= 1;
                    }
                } else {
                    rest.push(id);
                }
            }
            todo = rest;
        }
        // 3. Recompute deadlines; collect the changed, finite ones.
        let mut changed = Vec::new();
        for (&id, f) in self.flows.iter_mut() {
            if f.remaining <= 0.0 {
                continue; // draining: deadline frozen
            }
            let deadline = if f.rate > 0.0 {
                // Saturated adds collapse to MAX == "never".
                now + Duration::from_secs_f64(f.remaining / f.rate) + f.latency
            } else {
                SimTime::MAX
            };
            if deadline != f.deadline {
                f.deadline = deadline;
                if deadline != SimTime::MAX {
                    changed.push((id, deadline));
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::CompId;

    fn addr(node: u32) -> Addr {
        Addr {
            node: NodeId(node),
            comp: CompId(0),
        }
    }

    fn payload() -> AnyMsg {
        Box::new(42u64)
    }

    fn net_one_link(capacity: f64) -> (FlowNet, LinkId) {
        let mut net = FlowNet::default();
        let wan = net.add_link("wan", capacity, 0.0);
        net.set_route(NodeId(1), NodeId(2), &[wan]);
        net.set_route(NodeId(1), NodeId(3), &[wan]);
        (net, wan)
    }

    /// Start a `bytes`-sized flow from node 1 to `to` with a huge
    /// endpoint cap so only the shared link constrains it.
    fn start(net: &mut FlowNet, to: u32, bytes: u64, now: SimTime) -> u64 {
        let route = net.route_for(NodeId(1), NodeId(to));
        net.start(
            addr(1),
            addr(to),
            bytes,
            route,
            Duration::ZERO,
            1e12,
            now,
            payload(),
        )
    }

    #[test]
    fn fair_share_two_flows_halve_the_link() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 10_000_000, t0);
        let b = start(&mut net, 3, 10_000_000, t0);
        let sched = net.refresh(t0);
        // Both flows see capacity/2 = 500 kB/s => 20 s for 10 MB.
        assert_eq!(sched.len(), 2);
        for &(id, deadline) in &sched {
            assert!(id == a || id == b);
            assert_eq!(deadline, t0 + Duration::from_secs(20));
        }
        assert_eq!(net.flows[&a].rate, 500_000.0);
        assert_eq!(net.flows[&b].rate, 500_000.0);
    }

    #[test]
    fn solo_flow_gets_full_capacity_after_peer_completes() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 10_000_000, t0);
        let b = start(&mut net, 3, 2_000_000, t0);
        net.refresh(t0);
        // b finishes at 4 s (2 MB at 500 kB/s); a then speeds up to full
        // capacity: 10 MB total = 2 MB done + 8 MB at 1 MB/s => t=12 s.
        let t_b = net.flows[&b].deadline;
        assert_eq!(t_b, t0 + Duration::from_secs(4));
        assert!(net.complete(b, t_b).is_some());
        let sched = net.refresh(t_b);
        assert_eq!(sched, vec![(a, t0 + Duration::from_secs(12))]);
    }

    #[test]
    fn stale_completion_events_are_ignored() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 10_000_000, t0);
        net.refresh(t0);
        let first_deadline = net.flows[&a].deadline;
        // A second flow arrives: a's deadline moves out, the event
        // scheduled for the original deadline must be rejected.
        let t1 = t0 + Duration::from_secs(2);
        let _b = start(&mut net, 3, 10_000_000, t1);
        net.refresh(t1);
        assert!(net.flows[&a].deadline > first_deadline);
        assert!(net.complete(a, first_deadline).is_none());
        assert_eq!(net.active(), 2);
    }

    #[test]
    fn per_flow_cap_limits_below_fair_share() {
        let mut net = FlowNet::default();
        let wan = net.add_link("wan", 1_000_000.0, 0.0);
        net.set_route(NodeId(1), NodeId(2), &[wan]);
        net.set_route(NodeId(1), NodeId(3), &[wan]);
        let route = net.route_for(NodeId(1), NodeId(2));
        // a is NIC-capped at 100 kB/s; b should absorb the slack (900 kB/s).
        let a = net.start(
            addr(1),
            addr(2),
            1_000_000,
            route.clone(),
            Duration::ZERO,
            100_000.0,
            SimTime::ZERO,
            payload(),
        );
        let b = net.start(
            addr(1),
            addr(3),
            1_000_000,
            route,
            Duration::ZERO,
            1e12,
            SimTime::ZERO,
            payload(),
        );
        net.refresh(SimTime::ZERO);
        assert_eq!(net.flows[&a].rate, 100_000.0);
        assert_eq!(net.flows[&b].rate, 900_000.0);
    }

    #[test]
    fn zero_capacity_stalls_then_resumes() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 1_000_000, t0);
        let sched = net.refresh(t0);
        assert_eq!(sched.len(), 1);
        // Bandwidth override of 0.0: the flow stalls (deadline => MAX, no
        // event scheduled), and the old completion event goes stale.
        assert!(net.set_link_override("wan", Some(0.0)));
        let t1 = t0 + Duration::from_millis(500);
        let sched = net.refresh(t1);
        assert!(sched.is_empty());
        assert_eq!(net.flows[&a].deadline, SimTime::MAX);
        assert!(net.complete(a, t0 + Duration::from_secs(1)).is_none());
        // Restore: the remaining 500 kB drain at full capacity.
        assert!(net.set_link_override("wan", None));
        let t2 = t0 + Duration::from_secs(10);
        let sched = net.refresh(t2);
        assert_eq!(sched, vec![(a, t2 + Duration::from_millis(500))]);
    }

    #[test]
    fn abort_where_surrenders_payloads() {
        let (mut net, wan) = net_one_link(1_000_000.0);
        let t0 = SimTime::ZERO;
        let _a = start(&mut net, 2, 1_000_000, t0);
        let _b = start(&mut net, 3, 1_000_000, t0);
        net.refresh(t0);
        let aborted = net.abort_where(|_, to, route| to == NodeId(2) && route.contains(&wan));
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].to.node, NodeId(2));
        assert_eq!(aborted[0].bytes, 1_000_000);
        assert!(aborted[0].msg.downcast_ref::<u64>().is_some());
        assert_eq!(net.active(), 1);
        // Survivor speeds up to full capacity.
        let sched = net.refresh(t0);
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn latency_tail_is_not_resliced() {
        // A flow that has pushed its last byte is draining: a topology
        // change must not move its (frozen) deadline.
        let mut net = FlowNet::default();
        let wan = net.add_link("wan", 1_000_000.0, 0.050);
        net.set_route(NodeId(1), NodeId(2), &[wan]);
        net.set_route(NodeId(1), NodeId(3), &[wan]);
        let route = net.route_for(NodeId(1), NodeId(2));
        let a = net.start(
            addr(1),
            addr(2),
            1_000_000,
            route,
            Duration::from_millis(50),
            1e12,
            SimTime::ZERO,
            payload(),
        );
        net.refresh(SimTime::ZERO);
        let deadline = net.flows[&a].deadline;
        assert_eq!(deadline, SimTime::ZERO + Duration::from_millis(1050));
        // At t=1.0 s every byte is pushed; a new flow at t=1.02 s must not
        // extend a's deadline.
        let t = SimTime::ZERO + Duration::from_millis(1020);
        let _b = start(&mut net, 3, 1_000_000, t);
        let sched = net.refresh(t);
        assert_eq!(net.flows[&a].deadline, deadline);
        assert!(sched.iter().all(|&(id, _)| id != a));
        assert!(net.complete(a, deadline).is_some());
    }
}
