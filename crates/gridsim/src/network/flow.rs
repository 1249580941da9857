//! Shared-bandwidth flow model: a topology of named links with finite
//! capacity, plus a max-min fair-share allocator over the bulk transfers
//! ("flows") currently crossing them.
//!
//! A bulk transfer whose route crosses no declared link is a sized message:
//! a private, uncontended pipe whose fate is decided entirely at send time.
//! That is wrong for the paper's hardest production lessons (§6): stage-in
//! storms, checkpoint traffic and links that degrade mid-run are all
//! *contention* phenomena. A transfer whose route crosses a declared link
//! instead becomes a kernel-visible object, a flow:
//!
//! * each flow follows a route — an ordered list of [`LinkId`]s declared by
//!   the scenario — and is additionally capped by the per-pair bandwidth
//!   (modelling the endpoint NIC / disk);
//! * whenever the flow set or the topology changes, every flow's rate is
//!   recomputed by **max-min fair share** (progressive filling): repeatedly
//!   give every unfixed flow the smallest per-link fair share
//!   `capacity / flows_on_link`, freeze the flows that bottleneck at that
//!   rate, subtract their demand, and continue with the rest. Flows with
//!   the same `(route, cap)` — a *class* — get the same share in every
//!   round, so the filling runs over classes, not flows;
//! * a flow's completion is a kernel event, but only one is ever armed
//!   for the whole network. Each time a flow's deadline changes the flow
//!   is *stamped* with a sequence number reserved from the event queue
//!   (and the causal ancestor of that moment) — the queue position an
//!   event pushed right then would have had. `FlowNet::next_due` names
//!   the flow with the smallest `(deadline, stamp)`; the kernel keeps the
//!   event for that one flow in the queue, pushed under its stamp, and an
//!   event is valid only if it matches its flow's current deadline *and*
//!   stamp.
//!
//! Everything here is deterministic: flows are kept and iterated in id
//! order, the waterfill fixes classes by exact float equality of
//! identically-computed expressions, and no wall-clock or hash-order
//! state is consulted.

use crate::component::{Addr, AnyMsg, NodeId};
use crate::event::{EventQueue, NO_CAUSE};
use crate::time::{Duration, SimTime};
use std::collections::HashMap;

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

/// A capacitated topology link.
#[derive(Debug)]
struct Link {
    /// What scenarios, fault plans and invariant messages call it.
    name: String,
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

/// What the waterfill can tell flows apart by: every flow of a class sees
/// the same ceiling in every round and is fixed in the same round.
#[derive(Debug)]
struct Class {
    route: Vec<LinkId>,
    /// Per-flow ceiling (the per-pair bandwidth — endpoint NIC).
    cap: f64,
}

/// One in-flight bulk transfer, as [`FlowNet::refresh`] sees it: one
/// 64-byte row, streamed twice per refresh. What only `start` /
/// `complete` / `abort_where` need lives in the [`Parcel`] at the same
/// index; when the row was last settled is one time for the whole net
/// ([`FlowNet::settled`]).
#[derive(Debug)]
struct Flow {
    id: u64,
    /// Bytes not yet pushed into the pipe (`<= 0` while the last bytes are
    /// "draining" through the latency tail).
    remaining: f64,
    /// Current fair-share rate in bytes/second.
    rate: f64,
    /// Completion tail: one end-to-end latency sample plus the route's
    /// summed propagation delays, paid after the last byte is sent.
    latency: Duration,
    /// Index into [`FlowNet::classes`].
    class: u32,
    /// Current completion deadline; [`SimTime::MAX`] while stalled.
    deadline: SimTime,
    /// Queue sequence number reserved when `deadline` last changed to a
    /// finite time. A `FlowDone` event is valid only if its `(time, seq)`
    /// equals `(deadline, stamp)`.
    stamp: u64,
    /// Causal ancestor captured with `stamp`.
    cause: u64,
}

const _: () = assert!(std::mem::size_of::<Flow>() == 64);

/// What a flow carries and between whom: handed to `start`, surrendered
/// on completion (the kernel delivers `msg` to `to`) or abort (the kernel
/// wraps it in a [`BulkAborted`] delivered to `from`), never read by a
/// refresh.
#[derive(Debug)]
pub(crate) struct Parcel {
    pub(crate) from: Addr,
    pub(crate) to: Addr,
    pub(crate) bytes: u64,
    pub(crate) msg: AnyMsg,
    /// The queue's next sequence number when the flow started: what its
    /// completion must be newer than to reach `to` (not the id of the
    /// event that started it, which may predate `to`'s spawn).
    pub(crate) started: u64,
}

/// The earliest pending completion: what the kernel's one armed
/// `FlowDone` event must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FlowDue {
    pub(crate) at: SimTime,
    /// Reserved queue sequence number to push the event under.
    pub(crate) stamp: u64,
    pub(crate) cause: u64,
    pub(crate) flow: u64,
}

/// Waterfill working state, kept between refreshes so a refresh allocates
/// nothing.
#[derive(Debug, Default)]
struct Waterfill {
    /// Per link: capacity not yet handed out.
    cap: Vec<f64>,
    /// Per link: unfixed flows crossing it.
    load: Vec<u32>,
    /// Per class: flows still sending.
    members: Vec<u32>,
    /// Per class: its ceiling in the current round; once the class is
    /// fixed (has left `todo`), the rate it was fixed at.
    lim: Vec<f64>,
    /// Unfixed classes, ascending.
    todo: Vec<u32>,
    /// Per link: the rates handed out over it, summed by
    /// [`check_capacity`] once the filling is done.
    used: Vec<f64>,
}

/// The declared links, the routes over them, and the active flows.
#[derive(Debug, Default)]
pub(crate) struct FlowNet {
    /// Looked up by name only at declaration and on fault events, so a
    /// scan does.
    links: Vec<Link>,
    /// Directed routes; [`FlowNet::set_route`] installs both directions.
    routes: HashMap<(NodeId, NodeId), Vec<LinkId>>,
    /// Every `(route, cap)` a flow has had; never shrinks (bounded by the
    /// node pairs that exchange bulk data).
    classes: Vec<Class>,
    /// Active flows in creation (= ascending id) order.
    flows: Vec<Flow>,
    /// `parcels[i]` belongs to `flows[i]`: the two are pushed and removed
    /// together.
    parcels: Vec<Parcel>,
    next_id: u64,
    /// Smallest `(deadline, stamp)` as of the last [`FlowNet::refresh`].
    due: Option<FlowDue>,
    fill: Waterfill,
    /// `now` of the last [`FlowNet::refresh`]: every flow it saw has its
    /// `remaining` settled up to then. A flow started since has rate 0
    /// until the next refresh, so it has nothing to settle either way.
    settled: SimTime,
}

impl FlowNet {
    /// Declare a link. Re-declaring a name updates capacity/latency and
    /// returns the existing id.
    pub(crate) fn add_link(&mut self, name: &str, capacity: f64, latency_secs: f64) -> LinkId {
        if let Some(id) = self.link_id(name) {
            let link = &mut self.links[id.0 as usize];
            link.capacity = capacity;
            link.latency = latency_secs;
            return id;
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            name: name.to_string(),
            capacity,
            latency: latency_secs,
            up: true,
            override_cap: None,
        });
        id
    }

    /// Look up a link by name.
    pub(crate) fn link_id(&self, name: &str) -> Option<LinkId> {
        let at = self.links.iter().position(|l| l.name == name)?;
        Some(LinkId(at as u32))
    }

    /// Install the route for `a ↔ b` (both directions).
    pub(crate) fn set_route(&mut self, a: NodeId, b: NodeId, route: &[LinkId]) {
        self.routes.insert((a, b), route.to_vec());
        self.routes.insert((b, a), route.to_vec());
    }

    /// The route for `from → to`; empty when none is declared, and then a
    /// transfer on it is a sized message, not a flow.
    pub(crate) fn route_for(&self, from: NodeId, to: NodeId) -> &[LinkId] {
        self.routes.get(&(from, to)).map_or(&[], Vec::as_slice)
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
        match self.link_id(name) {
            Some(id) => {
                self.links[id.0 as usize].up = up;
                true
            }
            None => false,
        }
    }

    /// Take link `name` down and abort the flows crossing it. `None` for
    /// unknown names.
    pub(crate) fn link_down(&mut self, name: &str) -> Option<Vec<Parcel>> {
        let id = self.link_id(name)?;
        self.links[id.0 as usize].up = false;
        Some(self.abort_where(|_, _, route| route.contains(&id)))
    }

    /// Set (or with `None`, clear) a link's capacity override.
    pub(crate) fn set_link_override(&mut self, name: &str, cap: Option<f64>) -> bool {
        match self.link_id(name) {
            Some(id) => {
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

    /// The earliest pending completion as of the last
    /// [`FlowNet::refresh`], if any flow has a finite deadline.
    pub(crate) fn next_due(&self) -> Option<FlowDue> {
        self.due
    }

    /// Register a new flow over [`FlowNet::route_for`] its endpoints' nodes
    /// (rates/deadlines are assigned by the next [`FlowNet::refresh`]).
    pub(crate) fn start(&mut self, parcel: Parcel, latency: Duration, cap: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        // Few classes (at most the node pairs in use), and the refresh
        // that follows every start walks them all anyway.
        let route = self.route_for(parcel.from.node, parcel.to.node);
        let known = self
            .classes
            .iter()
            .position(|c| c.route == route && c.cap.to_bits() == cap.to_bits());
        let class = match known {
            Some(class) => class,
            None => {
                let route = route.to_vec();
                self.classes.push(Class { route, cap });
                self.classes.len() - 1
            }
        } as u32;
        self.flows.push(Flow {
            id,
            // Zero-byte transfers still pay the latency tail.
            remaining: (parcel.bytes.max(1)) as f64,
            rate: 0.0,
            latency,
            class,
            deadline: SimTime::MAX,
            stamp: 0,
            cause: NO_CAUSE,
        });
        self.parcels.push(parcel);
        id
    }

    /// Complete flow `id` if `(now, stamp)` — the firing event's
    /// `(time, seq)` — matches the flow's current deadline and stamp; an
    /// event armed before the flow was last rescheduled returns `None`.
    /// The caller is expected to [`FlowNet::refresh`] afterwards.
    pub(crate) fn complete(&mut self, id: u64, now: SimTime, stamp: u64) -> Option<Parcel> {
        let i = self.flows.binary_search_by_key(&id, |f| f.id).ok()?;
        let f = &self.flows[i];
        if f.deadline != now || f.stamp != stamp {
            return None;
        }
        self.flows.remove(i);
        Some(self.parcels.remove(i))
    }

    /// Remove and return, in id order, every flow matching
    /// `pred(from_node, to_node, route)`. The caller is expected to
    /// [`FlowNet::refresh`] afterwards.
    pub(crate) fn abort_where(
        &mut self,
        mut pred: impl FnMut(NodeId, NodeId, &[LinkId]) -> bool,
    ) -> Vec<Parcel> {
        let doomed: Vec<bool> = (self.flows.iter().zip(&self.parcels))
            .map(|(f, p)| {
                pred(
                    p.from.node,
                    p.to.node,
                    &self.classes[f.class as usize].route,
                )
            })
            .collect();
        let mut verdict = doomed.iter();
        self.flows
            .retain(|_| !verdict.next().expect("one per flow"));
        let mut verdict = doomed.iter();
        self.parcels
            .extract_if(.., |_| *verdict.next().expect("one per flow"))
            .collect()
    }

    /// Settle progress up to `now` under the old rates, re-run the
    /// fair-share waterfill, and recompute deadlines. Every flow whose
    /// deadline changes to a new finite time is stamped, in id order, with
    /// a sequence number reserved from `queue` and with `cause`; flows
    /// whose deadline moves to [`SimTime::MAX`] (stalled) keep no claim on
    /// the queue. Afterwards [`FlowNet::next_due`] names the earliest
    /// `(deadline, stamp)`.
    pub(crate) fn refresh(&mut self, now: SimTime, cause: u64, queue: &mut EventQueue) {
        // 1. Settle progress under the rates that held since `last`, and
        //    count each class's still-sending flows. Flows that have
        //    pushed their last byte ("draining" the latency tail) hold
        //    their frozen deadline and consume no capacity.
        let members = &mut self.fill.members;
        members.clear();
        members.resize(self.classes.len(), 0);
        let dt = (now - self.settled).as_secs_f64();
        self.settled = now;
        for f in &mut self.flows {
            if dt > 0.0 && f.remaining > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            if f.remaining > 0.0 {
                members[f.class as usize] += 1;
            }
        }
        // 2. Max-min fair share over the classes with sending flows.
        waterfill(&self.links, &self.classes, &mut self.fill);
        check_capacity(&self.links, &self.classes, &mut self.fill);
        // 3. Hand out rates, recompute deadlines, stamp the changed finite
        //    ones, and find the earliest (deadline, stamp).
        let mut due: Option<FlowDue> = None;
        let mut stalled = 0;
        for f in &mut self.flows {
            if f.remaining > 0.0 {
                f.rate = self.fill.lim[f.class as usize];
                let deadline = if f.rate > 0.0 {
                    // Saturated adds collapse to MAX == "never".
                    now + Duration::from_secs_f64(f.remaining / f.rate) + f.latency
                } else {
                    stalled += 1;
                    SimTime::MAX
                };
                if deadline != f.deadline {
                    f.deadline = deadline;
                    if deadline != SimTime::MAX {
                        f.stamp = queue.reserve_seq();
                        f.cause = cause;
                    }
                }
            }
            if f.deadline != SimTime::MAX
                && due.is_none_or(|d| (f.deadline, f.stamp) < (d.at, d.stamp))
            {
                due = Some(FlowDue {
                    at: f.deadline,
                    stamp: f.stamp,
                    cause: f.cause,
                    flow: f.id,
                });
            }
        }
        self.due = due;
        // The other half of the capacity invariant: the sending flows left
        // at "never" are exactly the members of the zero-rate classes.
        let Waterfill { members, lim, .. } = &self.fill;
        let unrated = (members.iter().zip(lim)).filter(|(_, &lim)| lim <= 0.0);
        let expected: u32 = unrated.map(|(&m, _)| m).sum();
        assert!(
            stalled == expected,
            "flow stall invariant: {stalled} sending flows left at deadline MAX, but the \
             classes with no rate hold {expected} (members {members:?}, rates {lim:?})",
        );
    }
}

/// Progressive filling over classes. On entry `w.members` holds each
/// class's sending-flow count; on return `w.lim` holds each such class's
/// fair-share rate.
///
/// This performs, float operation for float operation, what filling over
/// individual flows in id order does: a class's members compute their
/// ceiling from the same `cap`, route and link state, so they share one
/// `lim` and are fixed in the same round; and every flow fixed in a round
/// sits at the round's minimum, so which of them subtracts from a link
/// first does not matter — but *how many times* the clamp
/// `(cap - lim).max(0.0)` is applied does, so it is applied once per
/// member, never as one `members * lim` product. Two things the per-flow
/// filling does are skipped because nothing can observe them: the chain
/// for a link that no class left unfixed by this round crosses (its `cap`
/// is only read under `load > 0`, and `load` never grows), and the
/// members left once the chain reaches zero (`(0.0 - lim).max(0.0)` is
/// `0.0` for every `lim >= 0`).
fn waterfill(links: &[Link], classes: &[Class], w: &mut Waterfill) {
    let Waterfill {
        cap,
        load,
        members,
        lim,
        todo,
        ..
    } = w;
    cap.clear();
    cap.extend(links.iter().map(Link::effective));
    load.clear();
    load.resize(links.len(), 0);
    lim.clear();
    lim.resize(classes.len(), 0.0);
    todo.clear();
    for (c, class) in classes.iter().enumerate() {
        if members[c] > 0 {
            for l in &class.route {
                load[l.0 as usize] += members[c];
            }
            todo.push(c as u32);
        }
    }
    while !todo.is_empty() {
        // Each unfixed class's current ceiling: its own cap and the fair
        // share of every link it crosses.
        let mut floor = f64::INFINITY;
        for &c in todo.iter() {
            let class = &classes[c as usize];
            let mut ceiling = class.cap;
            for l in &class.route {
                let i = l.0 as usize;
                if load[i] > 0 {
                    ceiling = ceiling.min(cap[i] / load[i] as f64);
                }
            }
            lim[c as usize] = ceiling.max(0.0);
            floor = floor.min(lim[c as usize]);
        }
        // Fix every class sitting at the global minimum (exact equality:
        // the minimum was computed from these very values). Their flows
        // leave `load` first, so that the subtraction below can tell which
        // links some class left for a later round still crosses.
        for &c in todo.iter().filter(|&&c| lim[c as usize] <= floor) {
            for l in &classes[c as usize].route {
                load[l.0 as usize] -= members[c as usize];
            }
        }
        todo.retain(|&c| {
            let c = c as usize;
            if lim[c] <= floor {
                for l in &classes[c].route {
                    let i = l.0 as usize;
                    if load[i] == 0 {
                        continue;
                    }
                    let mut left = cap[i];
                    for _ in 0..members[c] {
                        left -= lim[c];
                        if left > 0.0 {
                            continue;
                        }
                        // Zero, below it, or the NaN of `inf - inf`: all
                        // that `max(0.0)` made zero, and zero it stays.
                        left = 0.0;
                        break;
                    }
                    cap[i] = left;
                }
            }
            lim[c] > floor
        });
    }
}

/// The capacity invariant, checked after every waterfill: on every link
/// the rates handed out — `members × lim`, summed over the classes crossing
/// it, once per crossing — stay within the capacity the link has right now.
/// A sum over classes, not flows, so it runs in release builds too.
fn check_capacity(links: &[Link], classes: &[Class], w: &mut Waterfill) {
    let Waterfill {
        members, lim, used, ..
    } = w;
    used.clear();
    used.resize(links.len(), 0.0);
    for (c, class) in classes.iter().enumerate() {
        for l in &class.route {
            used[l.0 as usize] += members[c] as f64 * lim[c];
        }
    }
    for (i, link) in links.iter().enumerate() {
        if used[i] <= link.effective() * (1.0 + 1e-9) {
            continue;
        }
        let shares: Vec<String> = (classes.iter().enumerate())
            .filter(|(c, class)| members[*c] > 0 && class.route.contains(&LinkId(i as u32)))
            .map(|(c, class)| {
                format!(
                    "class {c} (route {:?}, cap {}) has {} flows at {} B/s",
                    class.route, class.cap, members[c], lim[c]
                )
            })
            .collect();
        panic!(
            "flow capacity invariant: link {:?} carries {} B/s, its capacity is {} B/s: {}",
            link.name,
            used[i],
            link.effective(),
            shares.join("; "),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::CompId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn addr(node: u32) -> Addr {
        Addr {
            node: NodeId(node),
            comp: CompId(0),
        }
    }

    /// `bytes` from node 1 to node `to`, carrying a `u64`.
    fn parcel(to: u32, bytes: u64) -> Parcel {
        Parcel {
            from: addr(1),
            to: addr(to),
            bytes,
            msg: Box::new(42u64),
            started: 0,
        }
    }

    /// The flow id a proptest parcel was stamped with.
    fn tag(msg: &AnyMsg) -> Option<u64> {
        msg.downcast_ref::<u64>().copied()
    }

    impl FlowNet {
        fn flow(&self, id: u64) -> &Flow {
            let i = self
                .flows
                .binary_search_by_key(&id, |f| f.id)
                .expect("active flow");
            &self.flows[i]
        }

        /// `(flow id, deadline)` of every flow with a finite deadline.
        fn schedule(&self) -> Vec<(u64, SimTime)> {
            self.flows
                .iter()
                .filter(|f| f.deadline != SimTime::MAX)
                .map(|f| (f.id, f.deadline))
                .collect()
        }
    }

    fn refresh(net: &mut FlowNet, queue: &mut EventQueue, now: SimTime) {
        net.refresh(now, NO_CAUSE, queue);
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
    fn start(net: &mut FlowNet, to: u32, bytes: u64) -> u64 {
        net.start(parcel(to, bytes), Duration::ZERO, 1e12)
    }

    #[test]
    fn fair_share_two_flows_halve_the_link() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 10_000_000);
        let b = start(&mut net, 3, 10_000_000);
        refresh(&mut net, &mut q, t0);
        // Both flows see capacity/2 = 500 kB/s => 20 s for 10 MB.
        let t = t0 + Duration::from_secs(20);
        assert_eq!(net.schedule(), vec![(a, t), (b, t)]);
        assert_eq!(net.flow(a).rate, 500_000.0);
        assert_eq!(net.flow(b).rate, 500_000.0);
        // Stamped in id order; the earlier stamp breaks the deadline tie.
        assert_eq!((net.flow(a).stamp, net.flow(b).stamp), (0, 1));
        assert_eq!(
            net.next_due().map(|d| (d.flow, d.at, d.stamp)),
            Some((a, t, 0))
        );
    }

    #[test]
    fn solo_flow_gets_full_capacity_after_peer_completes() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 10_000_000);
        let b = start(&mut net, 3, 2_000_000);
        refresh(&mut net, &mut q, t0);
        // b finishes at 4 s (2 MB at 500 kB/s); a then speeds up to full
        // capacity: 10 MB total = 2 MB done + 8 MB at 1 MB/s => t=12 s.
        let due = net.next_due().expect("b is due");
        assert_eq!((due.flow, due.at), (b, t0 + Duration::from_secs(4)));
        assert!(net.complete(b, due.at, due.stamp).is_some());
        refresh(&mut net, &mut q, due.at);
        assert_eq!(net.schedule(), vec![(a, t0 + Duration::from_secs(12))]);
        assert_eq!(net.next_due().map(|d| d.flow), Some(a));
    }

    #[test]
    fn superseded_completion_events_are_ignored() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 10_000_000);
        refresh(&mut net, &mut q, t0);
        let first = net.next_due().expect("a is due");
        // A second flow arrives: a's deadline moves out, the event armed
        // for the original deadline must be rejected.
        let t1 = t0 + Duration::from_secs(2);
        let _b = start(&mut net, 3, 10_000_000);
        refresh(&mut net, &mut q, t1);
        assert!(net.flow(a).deadline > first.at);
        assert!(net.complete(a, first.at, first.stamp).is_none());
        assert_eq!(net.active(), 2);
    }

    #[test]
    fn deadline_that_returns_to_the_same_instant_needs_the_new_stamp() {
        // `linkbw` to 0 and back within one instant: the deadline goes
        // D -> MAX -> D. The event armed for the first D holds a queue
        // position from before the stall; only the position reserved when
        // the deadline was set again may complete the flow.
        let (mut net, _) = net_one_link(1_000_000.0);
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 1_000_000);
        refresh(&mut net, &mut q, t0);
        let first = net.next_due().expect("a is due");
        let t1 = t0 + Duration::from_millis(500);
        assert!(net.set_link_override("wan", Some(0.0)));
        refresh(&mut net, &mut q, t1);
        assert_eq!(net.next_due(), None);
        assert!(net.set_link_override("wan", None));
        refresh(&mut net, &mut q, t1);
        let second = net.next_due().expect("a is due again");
        assert_eq!(second.at, first.at);
        assert!(second.stamp > first.stamp);
        assert!(net.complete(a, first.at, first.stamp).is_none());
        assert!(net.complete(a, second.at, second.stamp).is_some());
    }

    #[test]
    fn per_flow_cap_limits_below_fair_share() {
        let mut net = FlowNet::default();
        let mut q = EventQueue::new();
        let wan = net.add_link("wan", 1_000_000.0, 0.0);
        net.set_route(NodeId(1), NodeId(2), &[wan]);
        net.set_route(NodeId(1), NodeId(3), &[wan]);
        // a is NIC-capped at 100 kB/s; b should absorb the slack (900 kB/s).
        let a = net.start(parcel(2, 1_000_000), Duration::ZERO, 100_000.0);
        let b = net.start(parcel(3, 1_000_000), Duration::ZERO, 1e12);
        refresh(&mut net, &mut q, SimTime::ZERO);
        assert_eq!(net.flow(a).rate, 100_000.0);
        assert_eq!(net.flow(b).rate, 900_000.0);
    }

    #[test]
    fn zero_capacity_stalls_then_resumes() {
        let (mut net, _) = net_one_link(1_000_000.0);
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        let a = start(&mut net, 2, 1_000_000);
        refresh(&mut net, &mut q, t0);
        let first = net.next_due().expect("a is due");
        // Bandwidth override of 0.0: the flow stalls (deadline => MAX,
        // nothing due), and the armed completion event is superseded.
        assert!(net.set_link_override("wan", Some(0.0)));
        let t1 = t0 + Duration::from_millis(500);
        refresh(&mut net, &mut q, t1);
        assert_eq!(net.next_due(), None);
        assert_eq!(net.flow(a).deadline, SimTime::MAX);
        assert!(net.complete(a, first.at, first.stamp).is_none());
        // Restore: the remaining 500 kB drain at full capacity.
        assert!(net.set_link_override("wan", None));
        let t2 = t0 + Duration::from_secs(10);
        refresh(&mut net, &mut q, t2);
        assert_eq!(net.schedule(), vec![(a, t2 + Duration::from_millis(500))]);
    }

    #[test]
    fn abort_where_surrenders_payloads() {
        let (mut net, wan) = net_one_link(1_000_000.0);
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        let _a = start(&mut net, 2, 1_000_000);
        let b = start(&mut net, 3, 1_000_000);
        refresh(&mut net, &mut q, t0);
        let aborted = net.abort_where(|_, to, route| to == NodeId(2) && route.contains(&wan));
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].to.node, NodeId(2));
        assert_eq!(aborted[0].bytes, 1_000_000);
        assert!(aborted[0].msg.downcast_ref::<u64>().is_some());
        assert_eq!(net.active(), 1);
        // Survivor speeds up to full capacity.
        refresh(&mut net, &mut q, t0);
        assert_eq!(net.schedule(), vec![(b, t0 + Duration::from_secs(1))]);
    }

    #[test]
    fn latency_tail_is_not_resliced() {
        // A flow that has pushed its last byte is draining: a topology
        // change must not move its (frozen) deadline.
        let mut net = FlowNet::default();
        let mut q = EventQueue::new();
        let wan = net.add_link("wan", 1_000_000.0, 0.050);
        net.set_route(NodeId(1), NodeId(2), &[wan]);
        net.set_route(NodeId(1), NodeId(3), &[wan]);
        let a = net.start(parcel(2, 1_000_000), Duration::from_millis(50), 1e12);
        refresh(&mut net, &mut q, SimTime::ZERO);
        let due = net.next_due().expect("a is due");
        assert_eq!(due.at, SimTime::ZERO + Duration::from_millis(1050));
        // At t=1.0 s every byte is pushed; a new flow at t=1.02 s must not
        // extend a's deadline or restamp it.
        let t = SimTime::ZERO + Duration::from_millis(1020);
        let _b = start(&mut net, 3, 1_000_000);
        refresh(&mut net, &mut q, t);
        assert_eq!(net.next_due(), Some(due));
        assert!(net.complete(a, due.at, due.stamp).is_some());
    }

    #[test]
    #[should_panic(
        expected = "flow capacity invariant: link \"wan\" carries 1500000 B/s, its capacity is \
                    1000000 B/s: class 0 (route [LinkId(0)], cap 1000000000000) has 3 flows at \
                    500000 B/s"
    )]
    fn over_committed_link_names_the_link_and_the_class() {
        // Three flows at half the link each: no waterfill hands this out,
        // so the filling's result is written by hand.
        let (net, wan) = net_one_link(1_000_000.0);
        let classes = [Class {
            route: vec![wan],
            cap: 1e12,
        }];
        let mut fill = Waterfill {
            members: vec![3],
            lim: vec![500_000.0],
            ..Waterfill::default()
        };
        check_capacity(&net.links, &classes, &mut fill);
    }

    // ---- bit-identity against the per-flow waterfill --------------------

    /// The allocator this module shipped with before classes: one
    /// `BTreeMap` entry and one owned route per flow, limits recomputed
    /// per flow per round. Kept as the reference [`FlowNet::refresh`] must
    /// match bit for bit.
    #[derive(Default)]
    struct PerFlowNet {
        flows: BTreeMap<u64, PerFlow>,
        /// Sequence numbers handed out so far: one per changed finite
        /// deadline, in id order, as the old kernel's pushes did.
        next_seq: u64,
    }

    struct PerFlow {
        remaining: f64,
        rate: f64,
        last: SimTime,
        latency: Duration,
        route: Vec<LinkId>,
        cap: f64,
        deadline: SimTime,
        /// Seq of the event pushed when `deadline` was last set.
        seq: u64,
    }

    impl PerFlowNet {
        fn refresh(&mut self, links: &[Link], now: SimTime) {
            for f in self.flows.values_mut() {
                let dt = (now - f.last).as_secs_f64();
                if dt > 0.0 && f.remaining > 0.0 {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
                f.last = now;
            }
            let mut cap: Vec<f64> = links.iter().map(Link::effective).collect();
            let mut load: Vec<u32> = vec![0; links.len()];
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
            for f in self.flows.values_mut() {
                if f.remaining <= 0.0 {
                    continue;
                }
                let deadline = if f.rate > 0.0 {
                    now + Duration::from_secs_f64(f.remaining / f.rate) + f.latency
                } else {
                    SimTime::MAX
                };
                if deadline != f.deadline {
                    f.deadline = deadline;
                    if deadline != SimTime::MAX {
                        f.seq = self.next_seq;
                        self.next_seq += 1;
                    }
                }
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Start a flow over route `route` (index into the route table)
        /// with endpoint cap `cap`, after `dt` µs.
        Start {
            dt: u64,
            route: usize,
            cap: f64,
            bytes: u64,
            latency_us: u64,
        },
        /// Jump to the earliest deadline and complete that flow.
        Complete,
        /// Abort every flow crossing `link`, after `dt` µs.
        Abort { dt: u64, link: u32 },
        /// Override `link`'s capacity (`None` clears), after `dt` µs.
        Override {
            dt: u64,
            link: u32,
            cap: Option<f64>,
        },
    }

    const LINKS: u32 = 4;

    fn arb_op() -> impl Strategy<Value = Op> {
        // Few distinct caps and routes, so classes have several members.
        let cap = prop_oneof![Just(1e12), Just(250_000.1), Just(40_000.7), Just(0.0)];
        let dt = || prop_oneof![Just(0u64), 1u64..2_000_000];
        prop_oneof![
            (dt(), 0usize..8, cap, 0u64..5_000_000, 0u64..80_000).prop_map(
                |(dt, route, cap, bytes, latency_us)| Op::Start {
                    dt,
                    route,
                    cap,
                    bytes,
                    latency_us
                }
            ),
            (dt(), 0usize..8, Just(1e12), 0u64..5_000_000, Just(0u64)).prop_map(
                |(dt, route, cap, bytes, latency_us)| Op::Start {
                    dt,
                    route,
                    cap,
                    bytes,
                    latency_us
                }
            ),
            Just(Op::Complete),
            Just(Op::Complete),
            (dt(), 0..LINKS).prop_map(|(dt, link)| Op::Abort { dt, link }),
            (
                dt(),
                0..LINKS,
                prop_oneof![
                    Just(None),
                    Just(Some(0.0)),
                    (1.0f64..2_000_000.0).prop_map(Some)
                ]
            )
                .prop_map(|(dt, link, cap)| Op::Override { dt, link, cap }),
        ]
    }

    proptest! {
        /// After every start / complete / abort / override, every flow's
        /// rate, remaining bytes, deadline and stamp equal — bit for bit —
        /// what the per-flow allocator and its push-per-changed-deadline
        /// numbering produce; and every flow that leaves, completed or
        /// aborted, hands back the endpoints, size and payload it was
        /// started with.
        #[test]
        fn refresh_is_bit_identical_to_the_per_flow_waterfill(
            capacities in prop::collection::vec(50_000.0f64..3_000_000.0, 4..5),
            routes in prop::collection::vec(prop::collection::vec(0..LINKS, 0..4), 8..9),
            ops in prop::collection::vec(arb_op(), 1..200),
        ) {
            let mut net = FlowNet::default();
            for (i, &c) in capacities.iter().enumerate() {
                net.add_link(&format!("l{i}"), c, 0.0);
            }
            let routes: Vec<Vec<LinkId>> = routes
                .into_iter()
                .map(|r| r.into_iter().map(LinkId).collect())
                .collect();
            for (r, route) in routes.iter().enumerate() {
                net.set_route(NodeId(1), NodeId(10 + r as u32), route);
            }
            // What each flow was started with, by id; its payload is its id.
            let mut sent: BTreeMap<u64, (Addr, Addr, u64)> = BTreeMap::new();
            let mut reference = PerFlowNet::default();
            let mut q = EventQueue::new();
            let mut now = SimTime::ZERO;
            for op in ops {
                // Nothing happens after a due completion without it firing.
                let horizon = net.next_due().map_or(SimTime::MAX, |d| d.at);
                let advance = |now: SimTime, dt: u64| (now + Duration(dt)).min(horizon);
                match op {
                    Op::Start { dt, route, cap, bytes, latency_us } => {
                        now = advance(now, dt);
                        let latency = Duration(latency_us);
                        let next = net.next_id;
                        let comp = CompId(next as u32);
                        let from = Addr { node: NodeId(1), comp };
                        let to = Addr { node: NodeId(10 + route as u32), comp };
                        let msg = Box::new(next);
                        let p = Parcel { from, to, bytes, msg, started: 0 };
                        let id = net.start(p, latency, cap);
                        prop_assert_eq!(id, next);
                        sent.insert(id, (from, to, bytes));
                        reference.flows.insert(id, PerFlow {
                            remaining: (bytes.max(1)) as f64,
                            rate: 0.0,
                            last: now,
                            latency,
                            route: routes[route].clone(),
                            cap,
                            deadline: SimTime::MAX,
                            seq: 0,
                        });
                    }
                    Op::Complete => {
                        let want = reference
                            .flows
                            .iter()
                            .filter(|(_, f)| f.deadline != SimTime::MAX)
                            .map(|(&id, f)| (f.deadline, f.seq, id))
                            .min();
                        let due = net.next_due();
                        prop_assert_eq!(due.map(|d| (d.at, d.stamp, d.flow)), want);
                        let Some(due) = due else { continue };
                        now = due.at;
                        let done = net.complete(due.flow, due.at, due.stamp);
                        prop_assert!(done.is_some());
                        let p = done.expect("checked");
                        prop_assert_eq!(tag(&p.msg), Some(due.flow));
                        prop_assert_eq!((p.from, p.to), (sent[&due.flow].0, sent[&due.flow].1));
                        reference.flows.remove(&due.flow);
                    }
                    Op::Abort { dt, link } => {
                        now = advance(now, dt);
                        let aborted = net.abort_where(|_, _, r| r.contains(&LinkId(link)));
                        let before = reference.flows.len();
                        reference.flows.retain(|_, f| !f.route.contains(&LinkId(link)));
                        prop_assert_eq!(aborted.len(), before - reference.flows.len());
                        let ids: Vec<u64> = aborted.iter().filter_map(|a| tag(&a.msg)).collect();
                        prop_assert_eq!(ids.len(), aborted.len());
                        prop_assert!(ids.is_sorted_by(|a, b| a < b), "abort order {:?}", ids);
                        for (id, a) in ids.iter().zip(&aborted) {
                            prop_assert!(!reference.flows.contains_key(id));
                            prop_assert_eq!((a.from, a.to, a.bytes), sent[id]);
                        }
                    }
                    Op::Override { dt, link, cap } => {
                        now = advance(now, dt);
                        net.set_link_override(&format!("l{link}"), cap);
                    }
                }
                net.refresh(now, NO_CAUSE, &mut q);
                reference.refresh(&net.links, now);
                prop_assert_eq!(net.flows.len(), reference.flows.len());
                prop_assert_eq!(net.parcels.len(), net.flows.len());
                for (f, p) in net.flows.iter().zip(&net.parcels) {
                    prop_assert_eq!(tag(&p.msg), Some(f.id));
                    let r = &reference.flows[&f.id];
                    prop_assert_eq!(f.rate.to_bits(), r.rate.to_bits(), "rate of {}", f.id);
                    prop_assert_eq!(
                        f.remaining.to_bits(), r.remaining.to_bits(), "remaining of {}", f.id
                    );
                    prop_assert_eq!(f.deadline, r.deadline, "deadline of {}", f.id);
                    if f.deadline != SimTime::MAX {
                        prop_assert_eq!(f.stamp, r.seq, "stamp of {}", f.id);
                    }
                }
            }
        }
    }
}
