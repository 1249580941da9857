//! The simulation kernel: owns the clock, the event queue, the nodes and
//! components, the network, stable storage, metrics and traces, and drives
//! everything to completion.

use crate::component::{Addr, AnyMsg, CompId, Component, Ctx, Effect, Message, NodeId, TimerId};
use crate::event::{EventKind, EventQueue, NO_CAUSE};
use crate::fault::{FaultAction, FaultPlan};
use crate::hash::{IdMap, IdSet};
use crate::metrics::{CounterId, Metrics};
use crate::network::flow::Parcel;
use crate::network::Network;
use crate::obs::Profiler;
use crate::rng::SimRng;
use crate::store::StableStore;
use crate::time::{Duration, SimTime};
use crate::trace::TraceSink;
use std::collections::HashMap;
use std::rc::Rc;

/// The address used by [`World::post`] for externally injected messages.
/// Components may reply to it; such replies are silently dropped.
pub const EXTERNAL: Addr = Addr {
    node: NodeId(u32::MAX),
    comp: CompId(u32::MAX),
};

/// Kernel configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Master RNG seed; fully determines a run given the same setup code.
    pub seed: u64,
    /// Whether to collect trace events.
    pub trace: bool,
    /// Hard stop: maximum number of events to process.
    pub max_events: Option<u64>,
    /// Retention: lean (campaign) runs drop each job's per-job state once
    /// it is settled, so memory tracks the *in-flight* jobs rather than
    /// the lifetime total. The kernel recycles the ids of transiently
    /// killed components ([`Ctx::kill_transient`]) into later spawns,
    /// keeping the dense component table sized by the active set; the one
    /// staleness rule (`CompTable`) keeps what was addressed to a dead
    /// id from reaching its next owner, so recycling changes no outcome.
    /// Every protocol layer reads the same value through [`Ctx::lean`] to
    /// decide whether to reclaim its own records. Off by default because
    /// reuse renumbers components and therefore changes trace output.
    pub lean: bool,
}

impl Config {
    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// Enable trace collection.
    pub fn with_trace(mut self) -> Config {
        self.trace = true;
        self
    }

    /// Stop the run after this many events.
    pub fn max_events(mut self, n: u64) -> Config {
        self.max_events = Some(n);
        self
    }

    /// Lean retention (see [`Config::lean`]).
    pub fn lean(mut self) -> Config {
        self.lean = true;
        self
    }
}

/// A boot-time view of a restarting node, used by boot hooks to re-create
/// components from stable storage.
pub struct BootCtx<'w> {
    node: NodeId,
    now: SimTime,
    store: &'w StableStore,
    spawns: Vec<(String, Box<dyn Component>)>,
}

impl<'w> BootCtx<'w> {
    /// The restarting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only stable storage, to decide what to recover.
    pub fn store(&self) -> &StableStore {
        self.store
    }

    /// Re-create a component on this node. Its `on_start` will run once the
    /// boot hook returns.
    pub fn add_component<C: Component>(&mut self, name: &str, comp: C) {
        self.spawns.push((name.to_string(), Box::new(comp)));
    }
}

/// A node's boot hook: re-creates components from stable storage on
/// restart.
type BootHook = Box<dyn FnMut(&mut BootCtx<'_>)>;

/// Per-node bookkeeping.
struct NodeEntry {
    name: String,
    up: bool,
    boot: Option<BootHook>,
}

/// A live component.
struct CompEntry {
    addr: Addr,
    /// The key of its name binding, shared with the profiler, so the hot
    /// dispatch path never copies the name.
    name: Rc<str>,
    /// `None` while its own handler runs.
    comp: Option<Box<dyn Component>>,
}

/// One component id. The marks are queue sequence numbers and outlive
/// the component: a dead slot keeps them until a spawn refills it.
#[derive(Default)]
struct Slot {
    live: Option<CompEntry>,
    /// The queue's next sequence number when the id was bound to its
    /// current name. A same-name respawn keeps it.
    bound: u64,
    /// The queue's next sequence number when the current (or last)
    /// incarnation was spawned.
    born: u64,
}

/// What an event must be newer than to reach a slot.
#[derive(Clone, Copy)]
enum Mark {
    /// The name binding: a message or a flow completion follows its
    /// address across restarts of the same name.
    Binding,
    /// The incarnation: a timer dies with the component that set it.
    Incarnation,
}

/// Every component id the world has handed out and every name bound to
/// one, under one staleness rule: an event reaches a slot only if it was
/// created after what it is addressed to ([`Mark`]). Both marks are queue
/// sequence numbers, compared against the one the event was created at:
/// its own for a timer or a message, its flow's start for a bulk flow's
/// completion.
///
/// A dead component's name stays bound to its id, so the next spawn under
/// that name on that node takes the address back (services restart on the
/// same host:port). [`Ctx::kill_transient`] releases the binding instead,
/// and in a lean run puts the id on the free list for the next spawn under
/// any name.
pub(crate) struct CompTable {
    /// Indexed by `CompId`: ids are handed out densely, so the hot
    /// dispatch path is one array index, not a hash lookup.
    slots: Vec<Slot>,
    /// Per node: name → id, for live components and for dead ones whose
    /// name a restart takes back.
    names: Vec<HashMap<Rc<str>, CompId>>,
    /// Ids released by transient kills. `Some` only when [`Config::lean`]
    /// is on.
    free: Option<Vec<u32>>,
}

impl CompTable {
    fn new(lean: bool) -> CompTable {
        CompTable {
            slots: Vec::new(),
            names: Vec::new(),
            free: lean.then(Vec::new),
        }
    }

    /// Whether the run recycles ids ([`Config::lean`]).
    pub(crate) fn lean(&self) -> bool {
        self.free.is_some()
    }

    /// The id and name key a spawn of `name` on `node` takes: the id a
    /// dead component's binding holds, else a recycled one, else a fresh
    /// one. The binding itself is made when the spawn fills the slot, so a
    /// handler may kill a component and spawn its successor under the
    /// same name: the successor gets a new id.
    pub(crate) fn claim(&mut self, node: NodeId, name: &str) -> (CompId, Rc<str>) {
        let bound = self.names.get(node.0 as usize);
        let key = match bound.and_then(|names| names.get_key_value(name)) {
            Some((key, &id)) if self.slots[id.0 as usize].live.is_none() => {
                return (id, key.clone());
            }
            Some((key, _)) => key.clone(),
            None => name.into(),
        };
        let id = match self.free.as_mut().and_then(Vec::pop) {
            Some(id) => id,
            None => {
                self.slots.push(Slot::default());
                self.slots.len() as u32 - 1
            }
        };
        (CompId(id), key)
    }

    /// Put `comp` into its claimed slot at `addr`, bound to `name`, as of
    /// queue sequence number `seq`. A name whose component is live is
    /// never spawned again.
    fn fill(&mut self, addr: Addr, name: Rc<str>, comp: Box<dyn Component>, seq: u64) {
        let node = addr.node.0 as usize;
        if self.names.len() <= node {
            self.names.resize_with(node + 1, HashMap::new);
        }
        let prior = self.names[node].insert(name.clone(), addr.comp);
        assert!(
            prior.is_none_or(|id| self.slots[id.0 as usize].live.is_none()),
            "spawning {name} on {:?} while it is live",
            addr.node
        );
        let slot = &mut self.slots[addr.comp.0 as usize];
        if prior != Some(addr.comp) {
            slot.bound = seq;
        }
        slot.born = seq;
        slot.live = Some(CompEntry {
            addr,
            name,
            comp: Some(comp),
        });
    }

    /// Empty the slot at `addr`, keeping its name binding for a restart
    /// or, with `release`, dropping it (and recycling the id in a lean
    /// run). Returns whether a component was there.
    fn vacate(&mut self, addr: Addr, release: bool) -> bool {
        let slot = self.slots.get_mut(addr.comp.0 as usize);
        let Some(entry) = slot.and_then(|s| s.live.take_if(|e| e.addr == addr)) else {
            return false;
        };
        if release {
            self.names[addr.node.0 as usize].remove(&entry.name);
            if let Some(free) = &mut self.free {
                free.push(addr.comp.0);
            }
        }
        true
    }

    /// Empty every slot on `node`, keeping their bindings. Every live
    /// component is bound, so the node's names reach them all; their order
    /// is immaterial, as nothing observes a component being dropped.
    fn vacate_node(&mut self, node: NodeId) {
        let Some(names) = self.names.get(node.0 as usize) else {
            return;
        };
        for &id in names.values() {
            self.slots[id.0 as usize].live = None;
        }
    }

    fn live_mut(&mut self, id: CompId) -> Option<&mut CompEntry> {
        self.slots.get_mut(id.0 as usize)?.live.as_mut()
    }

    /// The live component bound to `name` on `node`.
    fn lookup(&self, node: NodeId, name: &str) -> Option<CompId> {
        let &id = self.names.get(node.0 as usize)?.get(name)?;
        self.slots[id.0 as usize].live.as_ref().map(|_| id)
    }

    /// The rule: whether an event created at queue sequence number
    /// `created` reaches a live component at `to`, being no older than its
    /// `mark`.
    fn reaches(&self, to: Addr, created: u64, mark: Mark) -> bool {
        let Some(slot) = self.slots.get(to.comp.0 as usize) else {
            return false;
        };
        let since = match mark {
            Mark::Binding => slot.bound,
            Mark::Incarnation => slot.born,
        };
        slot.live.as_ref().is_some_and(|c| c.addr == to) && created >= since
    }

    /// Whether `parcel`'s flow is still its two ends' own: completing now,
    /// it would reach its receiver, and its sender's id has not been bound
    /// anew since it started. A recycled id, at either end, never takes a
    /// predecessor's flow for its own; a same-name restart keeps it.
    pub(crate) fn owns(&self, parcel: &Parcel) -> bool {
        let sender = self.slots.get(parcel.from.comp.0 as usize);
        self.reaches(parcel.to, parcel.started, Mark::Binding)
            && sender.is_some_and(|slot| slot.bound <= parcel.started)
    }
}

/// Handles of the `net.*` counters the kernel bumps per message, transfer
/// or flow, resolved once so those paths do not look a name up each time.
struct NetCounters {
    sent: CounterId,
    lost: CounterId,
    dropped_dead_node: CounterId,
    dropped_dead_comp: CounterId,
    bulk_transfers: CounterId,
    bulk_bytes: CounterId,
    flows_started: CounterId,
    flows_done: CounterId,
    flows_aborted: CounterId,
}

impl NetCounters {
    fn resolve(metrics: &mut Metrics) -> NetCounters {
        NetCounters {
            sent: metrics.counter_id("net.sent"),
            lost: metrics.counter_id("net.lost"),
            dropped_dead_node: metrics.counter_id("net.dropped_dead_node"),
            dropped_dead_comp: metrics.counter_id("net.dropped_dead_comp"),
            bulk_transfers: metrics.counter_id("net.bulk_transfers"),
            bulk_bytes: metrics.counter_id("net.bulk_bytes"),
            flows_started: metrics.counter_id("net.flows_started"),
            flows_done: metrics.counter_id("net.flows_done"),
            flows_aborted: metrics.counter_id("net.flows_aborted"),
        }
    }
}

/// The simulation world. See the crate docs for the model.
pub struct World {
    now: SimTime,
    queue: EventQueue,
    /// Per directed node pair: the latest scheduled control-message
    /// delivery, enforcing FIFO ordering like the TCP connections the real
    /// protocols run over. Bulk transfers use separate data channels and
    /// are not ordered against control traffic.
    fifo: IdMap<(NodeId, NodeId), SimTime>,
    /// Timers cancelled but not yet popped from the queue.
    cancelled: IdSet<TimerId>,
    nodes: Vec<NodeEntry>,
    comps: CompTable,
    network: Network,
    store: StableStore,
    rng: SimRng,
    metrics: Metrics,
    net: NetCounters,
    trace: TraceSink,
    next_timer: u64,
    halted: bool,
    events_processed: u64,
    max_events: Option<u64>,
    /// Recycled effect buffers: dispatch is reentrant (spawn/kill effects
    /// dispatch nested handlers), so this is a small stack, not one slot.
    effects_pool: Vec<Vec<Effect>>,
    /// Kernel profiler; off by default (see [`World::enable_profiler`]).
    /// Wall-clock measurements never feed back into the simulation, so
    /// profiling does not perturb determinism.
    profiler: Option<Profiler>,
    /// Causal provenance of the event currently being processed: its own
    /// sequence number, its inherited nearest-observable-ancestor, and the
    /// trace sink's emitted count when its processing began. Every event
    /// scheduled while processing it gets `cause = cur_event_id` if a
    /// trace record was emitted since `trace_mark` (the event became
    /// observable), else `cur_inherited` — collapsing unobserved hops so
    /// the exported DAG stays connected without tracing every kernel
    /// event. With tracing off the emitted count never moves, the compare
    /// is always false, and the whole mechanism is three u64 stores per
    /// event.
    cur_event_id: u64,
    cur_inherited: u64,
    trace_mark: u64,
    /// `(time, seq)` of every `FlowDone` event in the queue, latest first.
    /// The last is the flow network's armed completion; the ones before it
    /// were armed when a later flow was the earliest (see
    /// [`World::arm_flow_done`]).
    flow_armed: Vec<(SimTime, u64)>,
}

/// Stable names for kernel event kinds, used by the profiler's per-kind
/// breakdown.
fn event_kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Deliver { .. } => "deliver",
        EventKind::Timer { .. } => "timer",
        EventKind::NodeCrash { .. } => "node_crash",
        EventKind::NodeRestart { .. } => "node_restart",
        EventKind::PartitionStart { .. } => "partition_start",
        EventKind::PartitionEnd { .. } => "partition_end",
        EventKind::SetLossRate { .. } => "set_loss_rate",
        EventKind::FlowDone { .. } => "flow_done",
        EventKind::LinkDown { .. } => "link_down",
        EventKind::LinkUp { .. } => "link_up",
        EventKind::LinkBandwidth { .. } => "link_bandwidth",
    }
}

impl World {
    /// Build an empty world.
    pub fn new(config: Config) -> World {
        let mut metrics = Metrics::new();
        let net = NetCounters::resolve(&mut metrics);
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            fifo: IdMap::default(),
            cancelled: IdSet::default(),
            nodes: Vec::new(),
            comps: CompTable::new(config.lean),
            network: Network::new(),
            store: StableStore::new(),
            rng: SimRng::new(config.seed),
            metrics,
            net,
            trace: TraceSink::new(config.trace),
            next_timer: 0,
            halted: false,
            events_processed: 0,
            max_events: config.max_events,
            effects_pool: Vec::new(),
            profiler: None,
            cur_event_id: NO_CAUSE,
            cur_inherited: NO_CAUSE,
            trace_mark: 0,
            flow_armed: Vec::new(),
        }
    }

    /// The causal ancestor to stamp on an event scheduled right now: the
    /// current event if it proved observable (emitted a trace record),
    /// else whatever it inherited. See the field docs on `cur_event_id`.
    #[inline]
    fn cause_now(&self) -> u64 {
        if self.trace.emitted_count() > self.trace_mark {
            self.cur_event_id
        } else {
            self.cur_inherited
        }
    }

    // ----- construction ---------------------------------------------------

    /// Add a node (machine) named `name`. Nodes start up.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeEntry {
            name: name.to_string(),
            up: true,
            boot: None,
        });
        id
    }

    /// Install a boot hook: called on every restart of `node` to re-create
    /// its components from stable storage.
    pub fn set_boot(&mut self, node: NodeId, boot: impl FnMut(&mut BootCtx<'_>) + 'static) {
        self.nodes[node.0 as usize].boot = Some(Box::new(boot));
    }

    /// Add a component to a (live) node; its `on_start` runs immediately.
    pub fn add_component<C: Component>(&mut self, node: NodeId, name: &str, comp: C) -> Addr {
        assert!(
            self.nodes[node.0 as usize].up,
            "adding component to crashed node"
        );
        let (id, name) = self.comps.claim(node, name);
        let addr = Addr { node, comp: id };
        self.install(addr, name, Box::new(comp));
        addr
    }

    /// Fill a claimed slot and run the component's `on_start`.
    fn install(&mut self, addr: Addr, name: Rc<str>, comp: Box<dyn Component>) {
        self.comps.fill(addr, name, comp, self.queue.next_seq());
        self.dispatch_start(addr);
    }

    /// Find a live component by `(node, name)`.
    pub fn lookup(&self, node: NodeId, name: &str) -> Option<Addr> {
        let comp = self.comps.lookup(node, name)?;
        Some(Addr { node, comp })
    }

    /// The name a node was registered with.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// Whether a node is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].up
    }

    // ----- external stimulus ----------------------------------------------

    /// Inject a message from outside the simulation (delivered at the
    /// current instant, reliable). The receiver sees [`EXTERNAL`] as sender.
    pub fn post<M: Message>(&mut self, to: Addr, msg: M) {
        let created = self.queue.next_seq();
        let msg = Box::new(msg);
        let post = EventKind::Deliver {
            from: EXTERNAL,
            to,
            msg,
            created,
        };
        self.queue.push(self.now, post, NO_CAUSE);
    }

    /// Schedule the actions of a fault plan.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (t, action) in plan.actions() {
            let kind = match action.clone() {
                FaultAction::Crash(node) => EventKind::NodeCrash { node },
                FaultAction::Restart(node) => EventKind::NodeRestart { node },
                FaultAction::Partition(a, b) => EventKind::PartitionStart {
                    group_a: a,
                    group_b: b,
                },
                FaultAction::Heal(a, b) => EventKind::PartitionEnd {
                    group_a: a,
                    group_b: b,
                },
                FaultAction::SetLoss(rate) => EventKind::SetLossRate {
                    rate: rate.unwrap_or(f64::NAN),
                },
                FaultAction::LinkDown(link) => EventKind::LinkDown { link },
                FaultAction::LinkUp(link) => EventKind::LinkUp { link },
                FaultAction::LinkBandwidth(link, capacity) => EventKind::LinkBandwidth {
                    link,
                    capacity: capacity.unwrap_or(f64::NAN),
                },
            };
            // Fault injections are roots of the happens-before DAG.
            self.queue.push(*t, kind, NO_CAUSE);
        }
    }

    /// Crash a node right now (see [`Ctx::crash_node`] for semantics).
    pub fn crash_node_now(&mut self, node: NodeId) {
        self.do_crash(node);
    }

    /// Restart a crashed node right now.
    pub fn restart_node_now(&mut self, node: NodeId) {
        self.do_restart(node);
    }

    /// Abruptly kill a single component (like `kill -9` on one daemon):
    /// no `on_stop` runs, its timers die, in-flight messages to it drop.
    /// Fault-injection only; see [`crate::Ctx::kill`] for graceful removal.
    pub fn kill_component_now(&mut self, addr: Addr) {
        if self.comps.vacate(addr, false) {
            self.metrics.incr("comp.killed", 1);
        }
    }

    // ----- accessors -------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pending events (telemetry heartbeats sample this as a backpressure
    /// signal).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics (for experiment-level bookkeeping).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Turn on the kernel profiler (resets any prior profile). Cheap enough
    /// to leave on for long campaigns.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// The profiler, if [`World::enable_profiler`] was called.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// The trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable trace sink.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Stable storage.
    pub fn store(&self) -> &StableStore {
        &self.store
    }

    /// The network model (to install link overrides).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    // ----- running ---------------------------------------------------------

    /// Process a single event. Returns `false` when nothing was processed
    /// (queue empty, halted, or a stop condition was hit).
    pub fn step(&mut self) -> bool {
        self.step_due(SimTime::MAX)
    }

    /// [`step`](Self::step), unless the next event fires after `limit`.
    fn step_due(&mut self, limit: SimTime) -> bool {
        if self.halted {
            return false;
        }
        if let Some(max) = self.max_events {
            if self.events_processed >= max {
                return false;
            }
        }
        // Discard cancelled timers without advancing the clock, so a
        // cancelled far-future timeout doesn't stretch the run.
        let event = loop {
            let Some(event) = self.queue.pop_due(limit) else {
                return false;
            };
            if let EventKind::Timer { id, .. } = &event.kind {
                if !self.cancelled.is_empty() && self.cancelled.remove(id) {
                    continue;
                }
            }
            break event;
        };
        assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.events_processed += 1;
        self.cur_event_id = event.seq;
        self.cur_inherited = event.cause;
        self.trace_mark = self.trace.emitted_count();
        if let Some(p) = &mut self.profiler {
            let (live, slots) = (self.queue.len(), self.queue.slots());
            p.note_event(event_kind_name(&event.kind), event.time, live, slots);
        }
        self.process(event.kind);
        true
    }

    /// Run until no events remain (or a stop condition fires).
    pub fn run_until_quiescent(&mut self) {
        while self.step() {}
    }

    /// Run all events up to and including `t`, then set the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_due(t) {}
        if self.now < t && !self.halted {
            self.now = t;
        }
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// True once a component asked for a halt ([`Ctx::halt`]).
    pub fn halted(&self) -> bool {
        self.halted
    }

    // ----- internals --------------------------------------------------------

    fn process(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                created,
            } => {
                if !self.nodes.get(to.node.0 as usize).is_some_and(|n| n.up) {
                    self.metrics.add(self.net.dropped_dead_node, 1);
                    return;
                }
                if !self.comps.reaches(to, created, Mark::Binding) {
                    self.metrics.add(self.net.dropped_dead_comp, 1);
                    return;
                }
                self.dispatch(to, |comp, ctx| comp.on_message(ctx, from, msg));
            }
            EventKind::Timer { on, id, tag } => {
                if !self.nodes.get(on.node.0 as usize).is_some_and(|n| n.up) {
                    return;
                }
                if !self.comps.reaches(on, self.cur_event_id, Mark::Incarnation) {
                    return;
                }
                self.dispatch(on, |comp, ctx| comp.on_timer(ctx, id, tag));
            }
            EventKind::NodeCrash { node } => {
                // Emit before acting, so everything the fault triggers
                // (boot chains, retries) links back to this record.
                self.trace_fault("fault.crash", |w| format!("node={}", w.node_name(node)));
                self.do_crash(node);
                let aborted = self
                    .network
                    .flow
                    .abort_where(|a, b, _| a == node || b == node);
                self.finish_flow_aborts(aborted);
            }
            EventKind::NodeRestart { node } => {
                self.trace_fault("fault.restart", |w| format!("node={}", w.node_name(node)));
                self.do_restart(node);
            }
            EventKind::PartitionStart { group_a, group_b } => {
                self.trace_fault("fault.partition", |w| {
                    format!(
                        "a={} b={}",
                        w.group_names(&group_a),
                        w.group_names(&group_b)
                    )
                });
                self.network.partition(&group_a, &group_b);
                self.metrics.incr("net.partitions", 1);
                let aborted = self.network.flow_abort_unreachable();
                self.finish_flow_aborts(aborted);
            }
            EventKind::PartitionEnd { group_a, group_b } => {
                self.trace_fault("fault.heal", |w| {
                    format!(
                        "a={} b={}",
                        w.group_names(&group_a),
                        w.group_names(&group_b)
                    )
                });
                self.network.heal(&group_a, &group_b);
            }
            EventKind::SetLossRate { rate } => {
                self.trace_fault("fault.loss", |_| format!("rate={rate}"));
                self.network
                    .set_global_loss(if rate.is_nan() { None } else { Some(rate) });
            }
            EventKind::FlowDone { flow } => {
                // This event's (time, seq) is the (deadline, stamp) its
                // flow had when it was armed; events fire earliest first,
                // so it is the last one armed.
                let (at, stamp) = (self.now, self.cur_event_id);
                let armed = self.flow_armed.pop();
                debug_assert_eq!(armed, Some((at, stamp)));
                match self.network.flow.complete(flow, at, stamp) {
                    Some(p) => {
                        self.metrics.add(self.net.flows_done, 1);
                        self.send_at(self.now, p.from, p.to, p.msg, p.started);
                        self.flow_refresh();
                    }
                    // The flow was rescheduled after this was armed.
                    None => self.arm_flow_done(),
                }
            }
            EventKind::LinkDown { link } => {
                self.trace_fault("fault.link_down", |_| format!("link={link}"));
                if let Some(aborted) = self.network.flow.link_down(&link) {
                    self.metrics.incr("net.link_downs", 1);
                    self.finish_flow_aborts(aborted);
                }
            }
            EventKind::LinkUp { link } => {
                self.trace_fault("fault.link_up", |_| format!("link={link}"));
                if self.network.flow.link_up(&link) {
                    self.flow_refresh();
                }
            }
            EventKind::LinkBandwidth { link, capacity } => {
                self.trace_fault("fault.link_bandwidth", |_| {
                    format!("link={link} capacity={capacity}")
                });
                let cap = if capacity.is_nan() {
                    None
                } else {
                    Some(capacity)
                };
                if self.network.flow.set_link_override(&link, cap) {
                    self.metrics.incr("net.link_rescales", 1);
                    self.flow_refresh();
                }
            }
        }
    }

    /// Rescale the flow network after a change to its flow set or
    /// topology. Every flow whose completion deadline moves reserves the
    /// sequence number an event pushed for it right now would get, so call
    /// this where that push would happen relative to the other events the
    /// change schedules.
    fn flow_refresh(&mut self) {
        let cause = self.cause_now();
        self.network.flow.refresh(self.now, cause, &mut self.queue);
        if let Some(p) = &mut self.profiler {
            p.note_flow_refresh(self.network.flows_active());
        }
        self.arm_flow_done();
    }

    /// Keep the flow network's earliest completion in the queue: one
    /// `FlowDone`, under the sequence number and cause its flow reserved
    /// when its deadline was set, so it fires at the queue position a
    /// per-flow event would have had. When the earliest completion moves
    /// *earlier* it is pushed in front of the armed event, which stays
    /// queued; when it moves *later* nothing is pushed — the armed event
    /// fires first, matches no current `(deadline, stamp)`, and re-arms
    /// from here.
    fn arm_flow_done(&mut self) {
        let Some(due) = self.network.flow.next_due() else {
            return;
        };
        let key = (due.at, due.stamp);
        if self.flow_armed.last().is_none_or(|&armed| key < armed) {
            let kind = EventKind::FlowDone { flow: due.flow };
            self.queue.push_reserved(due.at, due.stamp, kind, due.cause);
            self.flow_armed.push(key);
        }
    }

    /// Count `aborted` cut flows, whose payloads the flow network has
    /// dropped, then rescale the survivors. Nobody is told: the waiting
    /// side's own timer notices the missing transfer. Nothing aborted,
    /// nothing to rescale: a crash or partition that touches no flow costs
    /// no refresh.
    fn finish_flow_aborts(&mut self, aborted: u64) {
        if aborted == 0 {
            return;
        }
        self.metrics.add(self.net.flows_aborted, aborted);
        self.flow_refresh();
    }

    /// Queue `msg` for delivery to `to` at `at`, as a message that exists
    /// since queue sequence number `created` (see [`EventKind::Deliver`]).
    fn send_at(&mut self, at: SimTime, from: Addr, to: Addr, msg: AnyMsg, created: u64) {
        let cause = self.cause_now();
        let deliver = EventKind::Deliver {
            from,
            to,
            msg,
            created,
        };
        self.queue.push(at, deliver, cause);
    }

    /// Record a kernel-injected fault in the trace (roots of the causal
    /// DAG, attributed to [`EXTERNAL`]). The detail closure runs only when
    /// the sink is active.
    fn trace_fault(&mut self, kind: &'static str, detail: impl FnOnce(&World) -> String) {
        if !self.trace.is_active() {
            return;
        }
        let d = detail(self);
        let (now, id, cause) = (self.now, self.cur_event_id, self.cur_inherited);
        self.trace.emit(now, EXTERNAL, kind, d, id, cause);
    }

    /// Comma-joined node names for a partition group.
    fn group_names(&self, group: &[NodeId]) -> String {
        let names: Vec<&str> = group.iter().map(|&n| self.node_name(n)).collect();
        names.join(",")
    }

    /// Take the component out, run `f` with a fresh context, put it back,
    /// then apply the buffered effects.
    fn dispatch<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut dyn Component, &mut Ctx<'_>),
    {
        let Some(entry) = self.comps.live_mut(addr.comp) else {
            return;
        };
        let Some(mut comp) = entry.comp.take() else {
            return;
        };
        let prof_name = self.profiler.as_ref().map(|_| entry.name.clone());
        let mut ctx = Ctx {
            now: self.now,
            self_addr: addr,
            effects: self.effects_pool.pop().unwrap_or_default(),
            store: &mut self.store,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            trace: &mut self.trace,
            next_timer: &mut self.next_timer,
            comps: &mut self.comps,
            flows: &self.network.flow,
            event_id: self.cur_event_id,
            event_cause: self.cur_inherited,
        };
        let handler_start = prof_name.as_ref().map(|_| std::time::Instant::now());
        f(comp.as_mut(), &mut ctx);
        let effects = ctx.effects;
        if let (Some(p), Some(name), Some(t0)) = (self.profiler.as_mut(), prof_name, handler_start)
        {
            p.note_handler(&name, t0.elapsed());
        }
        if let Some(entry) = self.comps.live_mut(addr.comp) {
            // The slot can only still be empty (crash removes the entry
            // entirely, and effects haven't been applied yet).
            entry.comp = Some(comp);
        }
        self.apply_effects(addr, effects);
    }

    fn dispatch_start(&mut self, addr: Addr) {
        self.dispatch(addr, |comp, ctx| comp.on_start(ctx));
    }

    fn apply_effects(&mut self, from: Addr, mut effects: Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    self.metrics.add(self.net.sent, 1);
                    match self.network.route(&mut self.rng, from.node, to.node, 0) {
                        Some(latency) => {
                            // FIFO per directed link: never deliver before a
                            // message sent earlier on the same link.
                            let mut at = self.now + latency;
                            let slot = self.fifo.entry((from.node, to.node)).or_insert(at);
                            if *slot > at {
                                at = *slot;
                            }
                            *slot = at;
                            self.send_at(at, from, to, msg, self.queue.next_seq());
                        }
                        None => {
                            self.metrics.add(self.net.lost, 1);
                        }
                    }
                }
                Effect::SendBulk { to, bytes, msg } => {
                    self.metrics.add(self.net.bulk_transfers, 1);
                    self.metrics.add(self.net.bulk_bytes, bytes);
                    let Some(latency) =
                        self.network.route(&mut self.rng, from.node, to.node, bytes)
                    else {
                        self.metrics.add(self.net.lost, 1);
                        continue;
                    };
                    if self.network.flow.route_for(from.node, to.node).is_empty() {
                        // No declared link on the way: a sized message.
                        let bw = self.network.bandwidth(from.node, to.node);
                        let delay = latency + Duration::from_secs_f64(bytes as f64 / bw);
                        self.send_at(self.now + delay, from, to, msg, self.queue.next_seq());
                        continue;
                    }
                    // A flow: the transfer contends with every other flow
                    // on its route; its completion time moves with them
                    // instead of being fixed at start.
                    let parcel = Parcel {
                        from,
                        to,
                        bytes,
                        msg,
                        started: self.queue.next_seq(),
                    };
                    self.network.flow_start(parcel, latency);
                    self.metrics.add(self.net.flows_started, 1);
                    self.flow_refresh();
                }
                Effect::SendLocal { to, msg } => {
                    let latency = self
                        .network
                        .route(&mut self.rng, from.node, from.node, 0)
                        .expect("loopback never drops");
                    self.send_at(self.now + latency, from, to, msg, self.queue.next_seq());
                }
                Effect::SetTimer { id, after, tag } => {
                    let cause = self.cause_now();
                    let timer = EventKind::Timer { on: from, id, tag };
                    self.queue.push(self.now + after, timer, cause);
                }
                Effect::CancelTimer { id } => {
                    self.cancelled.insert(id);
                }
                Effect::Spawn {
                    node,
                    name,
                    comp,
                    id,
                } => {
                    // Spawning onto a dead node fails silently, like
                    // forking on a crashed machine.
                    if self.nodes[node.0 as usize].up {
                        self.install(Addr { node, comp: id }, name, comp);
                    }
                }
                Effect::Kill { addr, release } => {
                    self.dispatch(addr, |comp, ctx| comp.on_stop(ctx));
                    self.comps.vacate(addr, release);
                }
                Effect::CrashNode { node } => self.do_crash(node),
                Effect::Halt => {
                    self.halted = true;
                }
            }
        }
        if self.effects_pool.len() < 8 {
            self.effects_pool.push(effects);
        }
    }

    fn do_crash(&mut self, node: NodeId) {
        let entry = &mut self.nodes[node.0 as usize];
        if !entry.up {
            return;
        }
        entry.up = false;
        self.comps.vacate_node(node);
        self.metrics.incr("node.crashes", 1);
    }

    fn do_restart(&mut self, node: NodeId) {
        let entry = &mut self.nodes[node.0 as usize];
        if entry.up {
            return;
        }
        entry.up = true;
        self.metrics.incr("node.restarts", 1);
        // Run the boot hook, collecting spawns, then install them.
        let Some(mut boot) = self.nodes[node.0 as usize].boot.take() else {
            return;
        };
        let mut bctx = BootCtx {
            node,
            now: self.now,
            store: &self.store,
            spawns: Vec::new(),
        };
        boot(&mut bctx);
        let spawns = bctx.spawns;
        self.nodes[node.0 as usize].boot = Some(boot);
        for (name, comp) in spawns {
            let (id, name) = self.comps.claim(node, &name);
            self.install(Addr { node, comp: id }, name, comp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{AnyMsg, TimerId};
    use crate::rng::Dist;

    /// A component that counts messages and echoes them back `echoes` times.
    struct Echo {
        received: u64,
        echoes: u32,
        record_key: Option<String>,
    }

    #[derive(Debug)]
    struct Hit(u32);

    impl Component for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            let Hit(n) = *msg.downcast::<Hit>().unwrap();
            self.received += 1;
            if let Some(key) = &self.record_key {
                let node = ctx.node();
                let count = self.received;
                ctx.store().put(node, key, &count);
            }
            if n < self.echoes && from != EXTERNAL {
                ctx.send(from, Hit(n + 1));
            }
        }
    }

    /// Give every ordered pair of `nodes` the one-way `latency` and, if
    /// given, the `bandwidth` (bytes/s), in place of the network defaults.
    fn set_pairs(w: &mut World, nodes: &[NodeId], latency: Dist, bandwidth: Option<f64>) {
        for &from in nodes {
            for &to in nodes.iter().filter(|&&to| to != from) {
                w.network_mut().set_link_latency(from, to, latency);
                if let Some(bw) = bandwidth {
                    w.network_mut().set_link_bandwidth(from, to, bw);
                }
            }
        }
    }

    #[test]
    fn message_round_trips() {
        let mut w = World::new(Config::default().seed(1));
        let na = w.add_node("a");
        let nb = w.add_node("b");
        let a = w.add_component(
            na,
            "echo",
            Echo {
                received: 0,
                echoes: 4,
                record_key: None,
            },
        );
        let b = w.add_component(
            nb,
            "echo",
            Echo {
                received: 0,
                echoes: 4,
                record_key: None,
            },
        );
        // Prime: have a send to b by posting to a? post is EXTERNAL; instead
        // post directly to b from a's address is not possible — start the
        // exchange with a spawned kicker.
        struct Kicker(Addr);
        impl Component for Kicker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.0, Hit(0));
            }
        }
        w.add_component(na, "kick", Kicker(b));
        w.run_until_quiescent();
        assert!(w.now() > SimTime::ZERO);
        let _ = (a, b);
    }

    #[test]
    fn external_post_is_delivered() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: Some("hits".into()),
            },
        );
        w.post(addr, Hit(0));
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        assert_eq!(w.store().get::<u64>(n, "hits"), Some(2));
    }

    #[test]
    fn crash_drops_components_and_store_survives() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: Some("hits".into()),
            },
        );
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        w.crash_node_now(n);
        assert!(!w.node_up(n));
        assert!(w.lookup(n, "echo").is_none());
        // Store survived the crash.
        assert_eq!(w.store().get::<u64>(n, "hits"), Some(1));
        // Message to the dead component is dropped, not an error.
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        assert_eq!(w.metrics().counter("net.dropped_dead_node"), 1);
    }

    #[test]
    fn boot_hook_recovers_from_store() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: Some("hits".into()),
            },
        );
        w.set_boot(n, move |b| {
            let prior: u64 = b.store().get(b.node(), "hits").unwrap_or(0);
            b.add_component(
                "echo",
                Echo {
                    received: prior,
                    echoes: 0,
                    record_key: Some("hits".into()),
                },
            );
        });
        w.post(addr, Hit(0));
        w.post(addr, Hit(0));
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        w.crash_node_now(n);
        w.restart_node_now(n);
        let revived = w.lookup(n, "echo").expect("component rebooted");
        assert_eq!(revived, addr, "a restarted service keeps its address");
        w.post(revived, Hit(0));
        w.run_until_quiescent();
        assert_eq!(w.store().get::<u64>(n, "hits"), Some(4));
    }

    #[test]
    fn control_messages_arrive_in_send_order_per_node_pair() {
        // Each message draws its own latency in [1 ms, 1 s), yet none
        // overtakes one sent before it over the same directed node pair.
        // GRAM leans on this: an LRM event never overtakes its job's
        // Submitted reply.
        struct Burst(Addr);
        impl Component for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                (0..200).for_each(|n| ctx.send(self.0, Hit(n)));
            }
        }
        type Seen = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, u32)>>>;
        struct Arrivals(Seen);
        impl Component for Arrivals {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _: Addr, msg: AnyMsg) {
                let Hit(n) = *msg.downcast::<Hit>().unwrap();
                self.0.borrow_mut().push((ctx.now(), n));
            }
        }
        let mut w = World::new(Config::default().seed(5));
        let (a, b) = (w.add_node("a"), w.add_node("b"));
        set_pairs(&mut w, &[a, b], Dist::Uniform { lo: 0.001, hi: 1.0 }, None);
        let seen = Seen::default();
        let sink = w.add_component(b, "sink", Arrivals(seen.clone()));
        w.add_component(a, "burst", Burst(sink));
        w.run_until_quiescent();
        let seen = seen.borrow();
        let order: Vec<u32> = seen.iter().map(|&(_, n)| n).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
        // One latency for all would have landed the burst at one instant.
        assert!(seen[0].0 < seen[199].0);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Component for TimerUser {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_secs(1), 1);
                let cancel_me = ctx.set_timer(Duration::from_secs(2), 2);
                ctx.set_timer(Duration::from_secs(3), 3);
                ctx.cancel_timer(cancel_me);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                self.fired.push(tag);
                let node = ctx.node();
                let fired = self.fired.clone();
                ctx.store().put(node, "fired", &fired);
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        w.add_component(n, "t", TimerUser { fired: vec![] });
        w.run_until_quiescent();
        assert_eq!(w.store().get::<Vec<u64>>(n, "fired"), Some(vec![1, 3]));
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(3));
    }

    #[test]
    fn cancelled_far_future_timer_neither_fires_nor_advances_the_clock() {
        struct Canceller {
            far: Option<TimerId>,
        }
        impl Component for Canceller {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_secs(1), 1);
                self.far = Some(ctx.set_timer(Duration::from_hours(1), 2));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                assert_eq!(tag, 1, "the cancelled timer fired");
                ctx.cancel_timer(self.far.take().expect("fires once"));
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        w.add_component(n, "c", Canceller { far: None });
        w.run_until_quiescent();
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(1));
        assert_eq!(w.events_processed(), 1);
        assert_eq!(w.queue_len(), 0);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut w = World::new(Config::default().seed(1));
        w.run_until(SimTime::ZERO + Duration::from_secs(10));
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(10));
    }

    #[test]
    fn run_until_short_of_the_next_event_keeps_later_posts_in_order() {
        // The first limit falls inside the near timer's queue slot, so the
        // queue's cursor moves there without firing it; the second falls
        // short of the far timer's slot. What is posted after either lands
        // at the cursor or ahead of the pending timer and is handled first.
        struct Log;
        impl Component for Log {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_micros(6_000), 1);
                ctx.set_timer(Duration::from_secs(40), 2);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {
                self.note(ctx, 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                self.note(ctx, tag);
            }
        }
        impl Log {
            fn note(&mut self, ctx: &mut Ctx<'_>, what: u64) {
                let (node, now) = (ctx.node(), ctx.now());
                let mut seen: Vec<(u64, u64)> = ctx.store().get(node, "seen").unwrap_or_default();
                seen.push((now.0, what));
                ctx.store().put(node, "seen", &seen);
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(n, "log", Log);
        w.run_until(SimTime(5_500));
        assert_eq!((w.now(), w.events_processed()), (SimTime(5_500), 0));
        w.post(addr, Hit(0));
        w.run_until(SimTime(30_000_000));
        assert_eq!(w.now(), SimTime(30_000_000));
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        assert_eq!(
            w.store().get::<Vec<(u64, u64)>>(n, "seen"),
            Some(vec![
                (5_500, 0),
                (6_000, 1),
                (30_000_000, 0),
                (40_000_000, 2)
            ])
        );
    }

    #[test]
    fn run_until_stops_at_its_limit_after_a_cancelled_timer() {
        // A cancelled timer due before the limit is discarded; the live one
        // behind it is past the limit and must wait.
        struct TwoTimers;
        impl Component for TwoTimers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let early = ctx.set_timer(Duration::from_secs(1), 1);
                ctx.set_timer(Duration::from_secs(3), 2);
                ctx.cancel_timer(early);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {}
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        w.add_component(n, "t", TwoTimers);
        w.run_until(SimTime::ZERO + Duration::from_secs(2));
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(2));
        assert_eq!((w.events_processed(), w.queue_len()), (0, 1));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<String> {
            struct Noisy;
            impl Component for Noisy {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    let jitter = ctx.rng().range_u64(1, 100);
                    ctx.set_timer(Duration::from_millis(jitter), 0);
                }
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                    let r = ctx.rng().range_u64(0, 1000);
                    ctx.trace_with("tick", || format!("tag={tag} r={r}"));
                    if tag < 20 {
                        let jitter = ctx.rng().range_u64(1, 100);
                        ctx.set_timer(Duration::from_millis(jitter), tag + 1);
                    }
                }
            }
            let mut w = World::new(Config::default().seed(seed).with_trace());
            let n = w.add_node("n");
            w.add_component(n, "noisy", Noisy);
            w.run_until_quiescent();
            w.trace().events().iter().map(|e| format!("{e}")).collect()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn spawn_and_kill() {
        struct Parent {
            child: Option<Addr>,
        }
        struct Child;
        impl Component for Child {
            fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
                let node = ctx.node();
                ctx.store().put(node, "child_stopped", &true);
            }
        }
        #[derive(Debug)]
        struct SpawnCmd;
        #[derive(Debug)]
        struct KillCmd;
        impl Component for Parent {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                if msg.is::<SpawnCmd>() {
                    self.child = Some(ctx.spawn(ctx.node(), "child", Child));
                } else if msg.is::<KillCmd>() {
                    ctx.kill(self.child.take().unwrap());
                }
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let p = w.add_component(n, "parent", Parent { child: None });
        w.post(p, SpawnCmd);
        w.run_until_quiescent();
        assert!(w.lookup(n, "child").is_some());
        w.post(p, KillCmd);
        w.run_until_quiescent();
        assert!(w.lookup(n, "child").is_none());
        assert_eq!(w.store().get::<bool>(n, "child_stopped"), Some(true));
    }

    #[test]
    fn kill_transient_leaves_no_residue_and_recycles_ids() {
        // A short-lived worker that sets a far-future timer, then is
        // transiently killed; with id recycling on, the next worker reuses
        // the id and the dead worker's timer must not fire into it.
        struct Worker;
        impl Component for Worker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_hours(1), 99);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                let node = ctx.node();
                let fired: u64 = ctx.store().get(node, "fired_count").unwrap_or(0);
                ctx.store().put(node, "fired_count", &(fired + 1));
            }
        }
        #[derive(Debug)]
        struct Cycle(u32);
        struct Boss {
            child: Option<Addr>,
            ids: Vec<u32>,
        }
        impl Component for Boss {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let Cycle(n) = *msg.downcast::<Cycle>().unwrap();
                if let Some(old) = self.child.take() {
                    ctx.kill_transient(old);
                }
                let addr = ctx.spawn(ctx.node(), &format!("w{n}"), Worker);
                self.ids.push(addr.comp.0);
                self.child = Some(addr);
                let node = ctx.node();
                let ids = self.ids.clone();
                ctx.store().put(node, "ids", &ids);
            }
        }
        let mut w = World::new(Config::default().seed(1).lean());
        let n = w.add_node("n");
        let boss = w.add_component(
            n,
            "boss",
            Boss {
                child: None,
                ids: vec![],
            },
        );
        for i in 0..5u32 {
            w.post(boss, Cycle(i));
            w.run_until(w.now() + Duration::from_secs(1));
        }
        w.run_until_quiescent();
        let ids: Vec<u32> = w.store().get(n, "ids").unwrap();
        assert_eq!(ids.len(), 5);
        // Ids recycle instead of growing without bound: a kill's id is
        // free by the *next* cycle, so five kill/spawn rounds touch at most
        // two distinct ids (alternating), not five.
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() <= 2, "ids grew: {ids:?}");
        // Only the final (still live) worker's timer fires: the four dead
        // incarnations' timers die with their epochs even though the id was
        // recycled.
        assert_eq!(w.store().get::<u64>(n, "fired_count"), Some(1));
        // No retired-name residue from transient kills.
        assert!(w.lookup(n, "w0").is_none());
    }

    #[test]
    fn recycled_id_is_not_delivered_a_stale_message() {
        // A message still crossing the WAN, or a bulk flow still on its
        // link, when its receiver is transiently killed must not reach the
        // component that recycles the id: full retention drops them as
        // addressed to a dead component, and lean retention may deliver no
        // more than that. A flow to the new incarnation is delivered even
        // when the event that starts it was queued before the respawn.
        #[derive(Debug)]
        struct Ping;
        #[derive(Debug)]
        enum Order {
            Ping(Addr),
            Bulk(Addr, &'static str),
            BulkAt5s(Addr),
        }
        #[derive(Debug)]
        struct KillChild;
        #[derive(Debug)]
        struct SpawnChild(&'static str);
        struct Worker(Log);
        impl Component for Worker {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let got = match msg.downcast::<Blob>() {
                    Ok(blob) => blob.0,
                    Err(_) => "ping",
                };
                self.0.borrow_mut().push(got);
            }
        }
        struct Sender(Option<Addr>);
        impl Component for Sender {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                match *msg.downcast::<Order>().unwrap() {
                    Order::Ping(to) => ctx.send(to, Ping),
                    Order::Bulk(to, name) => ctx.send_bulk(to, 10_000_000, Blob(name)),
                    Order::BulkAt5s(to) => {
                        self.0 = Some(to);
                        ctx.set_timer(Duration::from_secs(4), 0);
                    }
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.send_bulk(self.0.unwrap(), 1_000_000, Blob("fresh"));
            }
        }
        struct Boss {
            child: Option<Addr>,
            log: Log,
        }
        impl Component for Boss {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                if msg.is::<KillChild>() {
                    ctx.kill_transient(self.child.take().unwrap());
                } else {
                    let SpawnChild(name) = *msg.downcast::<SpawnChild>().unwrap();
                    let worker = Worker(self.log.clone());
                    self.child = Some(ctx.spawn(ctx.node(), name, worker));
                }
            }
        }
        let mut w = World::new(Config::default().seed(1).lean());
        let (a, b) = (w.add_node("a"), w.add_node("b"));
        set_pairs(&mut w, &[a, b], Dist::Constant(10.0), None);
        let wan = w.network_mut().add_flow_link("wan", 1e6, 0.0);
        w.network_mut().set_flow_route(a, b, &[wan]);
        let log = Log::default();
        let boss = w.add_component(
            b,
            "boss",
            Boss {
                child: None,
                log: log.clone(),
            },
        );
        let sender = w.add_component(a, "sender", Sender(None));
        w.post(boss, SpawnChild("w0"));
        w.run_until(w.now() + Duration::from_secs(1));
        let first = w.lookup(b, "w0").unwrap();
        // The ping lands 10 s from now and the 10 MB flow at 21 s; their
        // receiver dies at 2 s and the id is reused at 3 s. The timer that
        // starts a flow to the new incarnation at 5 s is queued now.
        w.post(sender, Order::Ping(first));
        w.post(sender, Order::Bulk(first, "stale"));
        w.post(sender, Order::BulkAt5s(first));
        w.run_until(w.now() + Duration::from_secs(1));
        w.post(boss, KillChild);
        w.run_until(w.now() + Duration::from_secs(1));
        w.post(boss, SpawnChild("w1"));
        w.run_until(w.now() + Duration::from_secs(1));
        assert_eq!(w.lookup(b, "w1"), Some(first), "the id was recycled");
        w.run_until_quiescent();
        assert_eq!(*log.borrow(), ["fresh"], "only the fresh flow arrives");
        assert_eq!(w.metrics().counter("net.flows_done"), 2);
        assert_eq!(w.metrics().counter("net.dropped_dead_comp"), 2);
        // The new incarnation still hears what is sent to it afterwards.
        w.post(sender, Order::Ping(first));
        w.run_until_quiescent();
        assert_eq!(*log.borrow(), ["fresh", "ping"]);
    }

    #[test]
    fn flow_live_counts_only_flows_their_ends_own() {
        // `Ctx::flow_live` is either end's evidence that a transfer is
        // moving. A transfer between a link-free pair is a sized message,
        // never a flow; a flow started by or addressed to the predecessor
        // of a recycled id is not the new component's; a same-name restart
        // keeps its binding, and with it the flow.
        #[derive(Debug)]
        struct Ask(Addr, Addr);
        struct Probe(std::rc::Rc<std::cell::RefCell<Vec<bool>>>);
        impl Component for Probe {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let Ask(from, to) = *msg.downcast::<Ask>().unwrap();
                self.0.borrow_mut().push(ctx.flow_live(from, to));
            }
        }
        #[derive(Debug)]
        struct Ship(Addr);
        struct Shipper;
        impl Component for Shipper {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let Ship(to) = *msg.downcast::<Ship>().unwrap();
                ctx.send_bulk(to, 10_000_000, Blob("payload"));
            }
        }
        #[derive(Debug)]
        enum Order {
            Spawn(&'static str),
            SpawnShipper(&'static str),
            Reap(Addr),
        }
        struct Boss(Log);
        impl Component for Boss {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                match *msg.downcast::<Order>().unwrap() {
                    Order::Spawn(name) => {
                        ctx.spawn(ctx.node(), name, Sink(self.0.clone()));
                    }
                    Order::SpawnShipper(name) => {
                        ctx.spawn(ctx.node(), name, Shipper);
                    }
                    Order::Reap(addr) => ctx.kill_transient(addr),
                }
            }
        }
        let mut w = World::new(Config::default().seed(1).lean());
        let (a, b, c) = (w.add_node("a"), w.add_node("b"), w.add_node("c"));
        set_pairs(&mut w, &[a, b, c], Dist::Constant(0.0), Some(1e6));
        let wan = w.network_mut().add_flow_link("wan", 1e6, 0.0);
        w.network_mut().set_flow_route(a, b, &[wan]);
        let (asked, log) = (std::rc::Rc::default(), Log::default());
        let probe = w.add_component(a, "probe", Probe(std::rc::Rc::clone(&asked)));
        let shipper = w.add_component(a, "shipper", Shipper);
        let boss = w.add_component(b, "boss", Boss(log.clone()));
        let daemon = w.add_component(b, "daemon", Sink(log.clone()));
        let island = w.add_component(c, "island", Sink(log.clone()));
        let inbox = w.add_component(a, "inbox", Sink(log.clone()));
        fn tell<M: Message>(w: &mut World, to: Addr, msg: M) {
            w.post(to, msg);
            w.run_until(w.now() + Duration::from_secs(1));
        }
        let ask = |w: &mut World, from: Addr, to: Addr| {
            tell(w, probe, Ask(from, to));
            asked.borrow_mut().pop().unwrap()
        };
        tell(&mut w, boss, Order::Spawn("w0"));
        let first = w.lookup(b, "w0").unwrap();
        // Three 10 MB transfers: two flows sharing the 1 MB/s link for
        // 20 s, and a sized message to the island for 10 s.
        for to in [first, daemon, island] {
            w.post(shipper, Ship(to));
        }
        w.run_until(w.now() + Duration::from_secs(1));
        assert!(ask(&mut w, shipper, first), "a flow on its link is live");
        assert!(ask(&mut w, shipper, daemon));
        assert!(
            !ask(&mut w, shipper, island),
            "a link-free transfer is no flow"
        );
        assert!(!ask(&mut w, daemon, shipper), "a flow has a direction");
        tell(&mut w, boss, Order::Reap(first));
        tell(&mut w, boss, Order::Spawn("w1"));
        assert_eq!(w.lookup(b, "w1"), Some(first), "the id was recycled");
        assert!(!ask(&mut w, shipper, first), "not the recycled id's flow");
        // The sending end: a transient shipper's flow is its own, and not
        // its recycled id's.
        tell(&mut w, boss, Order::SpawnShipper("s0"));
        let sender = w.lookup(b, "s0").unwrap();
        tell(&mut w, sender, Ship(inbox));
        assert!(ask(&mut w, sender, inbox), "a sender sees its flow leave");
        tell(&mut w, boss, Order::Reap(sender));
        tell(&mut w, boss, Order::Spawn("w2"));
        assert_eq!(w.lookup(b, "w2"), Some(sender), "the id was recycled");
        assert!(!ask(&mut w, sender, inbox), "not the recycled id's flow");
        w.kill_component_now(daemon);
        let again = w.add_component(b, "daemon", Sink(log.clone()));
        assert_eq!(again, daemon, "a restart keeps its address");
        assert!(ask(&mut w, shipper, daemon), "a restart keeps its flow");
        w.run_until_quiescent();
        assert!(!ask(&mut w, shipper, daemon), "a delivered flow is over");
        assert_eq!(*log.borrow(), ["payload"; 3]);
        assert_eq!(w.metrics().counter("net.flows_done"), 3);
    }

    #[test]
    fn a_restart_keeps_messages_in_flight_and_drops_old_timers() {
        // A daemon restarted under its name takes its address back: the
        // ping sent to the old incarnation reaches the new one, and only
        // the new incarnation's timer fires in it.
        struct Daemon(Log);
        impl Component for Daemon {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_secs(5), 0);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {
                self.0.borrow_mut().push("ping");
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                self.0.borrow_mut().push("timer");
            }
        }
        struct Relay(Addr);
        impl Component for Relay {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {
                ctx.send(self.0, Hit(0));
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let (a, b) = (w.add_node("a"), w.add_node("b"));
        set_pairs(&mut w, &[a, b], Dist::Constant(10.0), None);
        let log = Log::default();
        let daemon = w.add_component(b, "daemon", Daemon(log.clone()));
        let relay = w.add_component(a, "relay", Relay(daemon));
        // The ping lands at 10 s; the first timer was due at 5 s, the
        // restarted daemon's at 7 s.
        w.post(relay, Hit(0));
        w.run_until(SimTime::ZERO + Duration::from_secs(1));
        w.kill_component_now(daemon);
        w.run_until(SimTime::ZERO + Duration::from_secs(2));
        let again = w.add_component(b, "daemon", Daemon(log.clone()));
        assert_eq!(again, daemon, "a restart keeps its address");
        w.run_until_quiescent();
        assert_eq!(*log.borrow(), ["timer", "ping"]);
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(10));
    }

    // ----- flow network: the one armed completion event ------------------

    /// Two nodes joined by one 1 MB/s link, no sampled latency and no
    /// endpoint cap, so flow deadlines are exact: bytes / fair share.
    fn flow_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(Config::default().seed(1));
        let src = w.add_node("src");
        let dst = w.add_node("dst");
        set_pairs(&mut w, &[src, dst], Dist::Constant(0.0), Some(1e12));
        let wan = w.network_mut().add_flow_link("wan", 1e6, 0.0);
        w.network_mut().set_flow_route(src, dst, &[wan]);
        (w, src, dst)
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>;

    #[derive(Debug)]
    struct Blob(&'static str);

    /// Receives bulk transfers and logs their names.
    struct Sink(Log);
    impl Component for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            let Blob(name) = *msg.downcast::<Blob>().unwrap();
            self.0.borrow_mut().push(name);
        }
    }

    #[test]
    fn flow_completion_keeps_its_queue_position_among_same_instant_timers() {
        // Flow A's completion and two timers land on t = 1.5 s. T1 was set
        // before A's deadline last changed, T2 after, so the order is
        // T1, A's completion, T2 — as when every deadline change pushed
        // its own event. The completion itself is silent; it shows in
        // where A's delivery falls among the zero-delay echoes the timers
        // schedule.
        struct Source {
            sink: Addr,
            log: Log,
        }
        impl Component for Source {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // A alone: 1 MB at 1 MB/s, due at 1.0 s.
                ctx.send_bulk(self.sink, 1_000_000, Blob("A"));
                ctx.set_timer(Duration::from_millis(1500), 1);
                ctx.set_timer(Duration::from_millis(500), 2);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                match tag {
                    2 => {
                        // B halves A's rate: 0.5 MB left at 0.5 MB/s moves
                        // A's deadline to 1.5 s.
                        ctx.send_bulk(self.sink, 1_000_000, Blob("B"));
                        ctx.set_timer(Duration::from_secs(1), 3);
                    }
                    1 => {
                        self.log.borrow_mut().push("T1");
                        ctx.set_timer(Duration::ZERO, 11);
                    }
                    3 => {
                        self.log.borrow_mut().push("T2");
                        ctx.set_timer(Duration::ZERO, 13);
                    }
                    11 => self.log.borrow_mut().push("T1 echo"),
                    13 => self.log.borrow_mut().push("T2 echo"),
                    _ => unreachable!(),
                }
            }
        }
        let (mut w, src, dst) = flow_world();
        let log = Log::default();
        let sink = w.add_component(dst, "sink", Sink(log.clone()));
        w.add_component(
            src,
            "source",
            Source {
                sink,
                log: log.clone(),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_millis(1500));
        assert_eq!(*log.borrow(), ["T1", "T2", "T1 echo", "A", "T2 echo"]);
        w.run_until_quiescent();
        assert_eq!(log.borrow().last(), Some(&"B"));
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(2));
    }

    #[test]
    fn flows_on_one_link_cost_a_bounded_number_of_events() {
        // Eight flows of 1..8 MB share the link from t = 0, so every start
        // and every completion moves every deadline. That used to cost one
        // event per moved deadline; now the queue never holds more than
        // the armed completion and the delivery it triggers.
        const FLOWS: u64 = 8;
        const TIMERS: usize = 3;
        struct Source(Addr);
        impl Component for Source {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 1..=FLOWS {
                    ctx.send_bulk(self.0, i * 1_000_000, Blob("x"));
                }
                for _ in 0..TIMERS {
                    ctx.set_timer(Duration::from_secs(100), 0);
                }
            }
        }
        let (mut w, src, dst) = flow_world();
        w.enable_profiler();
        let sink = w.add_component(dst, "sink", Sink(Log::default()));
        w.add_component(src, "source", Source(sink));
        // 36 MB at 1 MB/s: the last flow lands at 36 s, before the timers.
        while w.queue_len() > TIMERS {
            assert!(w.queue_len() <= TIMERS + 2, "queue {}", w.queue_len());
            assert!(w.step());
        }
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(36));
        assert_eq!(w.metrics().counter("net.flows_done"), FLOWS);
        let flow_done = w.profiler().expect("enabled").event_kinds()["flow_done"];
        assert!(
            (FLOWS..=2 * (FLOWS + FLOWS)).contains(&flow_done),
            "{flow_done} flow_done events for {FLOWS} starts and {FLOWS} completions"
        );
    }

    #[test]
    fn an_earlier_completion_elsewhere_leaves_the_armed_event_in_place() {
        // A (2 MB over `wan`) is armed for 2 s when B (1 MB over its own
        // link) starts and is due at 1 s. B is armed in front of A; when
        // B completes, A's deadline has not moved and its event is still
        // queued, so nothing is pushed again: two completions, two events.
        struct Source(Addr, Addr);
        impl Component for Source {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_bulk(self.0, 2_000_000, Blob("A"));
                ctx.send_bulk(self.1, 1_000_000, Blob("B"));
            }
        }
        let (mut w, src, dst) = flow_world();
        let other = w.add_node("other");
        set_pairs(&mut w, &[src, other], Dist::Constant(0.0), Some(1e12));
        let lan = w.network_mut().add_flow_link("lan", 1e6, 0.0);
        w.network_mut().set_flow_route(src, other, &[lan]);
        w.enable_profiler();
        let log = Log::default();
        let a = w.add_component(dst, "sink", Sink(log.clone()));
        let b = w.add_component(other, "sink", Sink(log.clone()));
        w.add_component(src, "source", Source(a, b));
        assert_eq!(w.queue_len(), 2);
        w.run_until_quiescent();
        assert_eq!(*log.borrow(), ["B", "A"]);
        assert_eq!(w.profiler().expect("enabled").event_kinds()["flow_done"], 2);
    }

    #[test]
    fn a_transfer_is_a_flow_only_where_its_route_crosses_a_link() {
        // A (1 MB to `dst`) crosses `wan` and is a flow. B (10 MB to a
        // node with no route) is a sized message: it lands after its
        // latency (0 here) plus 10 MB at the pair's 1 MB/s.
        struct Source(Addr, Addr);
        impl Component for Source {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_bulk(self.0, 1_000_000, Blob("A"));
                ctx.send_bulk(self.1, 10_000_000, Blob("B"));
            }
        }
        let (mut w, src, dst) = flow_world();
        let other = w.add_node("other");
        set_pairs(&mut w, &[src, other], Dist::Constant(0.0), Some(1e12));
        w.network_mut().set_link_bandwidth(src, other, 1e6);
        let log = Log::default();
        let a = w.add_component(dst, "sink", Sink(log.clone()));
        let b = w.add_component(other, "sink", Sink(log.clone()));
        w.add_component(src, "source", Source(a, b));
        w.run_until_quiescent();
        assert_eq!(*log.borrow(), ["A", "B"]);
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(10));
        assert_eq!(w.metrics().counter("net.flows_started"), 1);
        assert_eq!(w.metrics().counter("net.flows_done"), 1);
    }

    #[test]
    fn fault_plan_crashes_and_restarts() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: None,
            },
        );
        w.set_boot(n, |b| {
            b.add_component(
                "echo",
                Echo {
                    received: 0,
                    echoes: 0,
                    record_key: None,
                },
            );
        });
        let plan = FaultPlan::new().crash_restart(
            n,
            SimTime::ZERO + Duration::from_secs(10),
            Duration::from_secs(5),
        );
        w.apply_fault_plan(&plan);
        w.run_until(SimTime::ZERO + Duration::from_secs(12));
        assert!(!w.node_up(n));
        w.run_until(SimTime::ZERO + Duration::from_secs(20));
        assert!(w.node_up(n));
        assert!(w.lookup(n, "echo").is_some());
        assert_eq!(w.metrics().counter("node.crashes"), 1);
        assert_eq!(w.metrics().counter("node.restarts"), 1);
    }
}
