//! The component (actor) model.
//!
//! A [`Component`] is a state machine living on a node. It reacts to three
//! stimuli — start, message delivery, timer expiry — and interacts with the
//! world exclusively through its [`Ctx`]: sending messages, setting timers,
//! spawning components, reading/writing stable storage, drawing randomness,
//! and emitting trace/metric events. Effects are buffered in the context and
//! applied by the kernel after the handler returns, so handlers never alias
//! the world.

use crate::metrics::Metrics;
use crate::network::flow::FlowNet;
use crate::rng::SimRng;
use crate::store::StableStore;
use crate::time::{Duration, SimTime};
use crate::trace::TraceSink;
use crate::world::CompTable;
use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// Identifies a node (a machine) in the simulated grid.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a component instance within the world.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(pub u32);

/// A component's full address: the node it runs on plus its instance id.
///
/// Addresses are location-transparent endpoints: sending to an `Addr` routes
/// through the network model between the two nodes. A component that has
/// been killed or whose node has crashed silently drops deliveries, exactly
/// like a dead TCP endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    /// Node hosting the component.
    pub node: NodeId,
    /// Component instance.
    pub comp: CompId,
}

crate::codec! { struct NodeId { 0 } }
crate::codec! { struct CompId { 0 } }
crate::codec! { struct Addr { node, comp } }

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:?}", self.node, self.comp)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// Handle to a scheduled timer, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// A dynamically-typed message payload.
///
/// Protocol crates define plain Rust structs/enums for their wire messages;
/// the kernel moves them as `AnyMsg` and receivers downcast. `Debug` is
/// required so the trace can render message contents.
pub type AnyMsg = Box<dyn Message>;

/// Trait object bound for message payloads. Blanket-implemented for every
/// `'static + Debug` type, so protocol crates never implement it by hand.
pub trait Message: Any + fmt::Debug {
    /// Upcast for downcasting by receivers.
    fn as_any(self: Box<Self>) -> Box<dyn Any>;
    /// Borrowed upcast for type tests.
    fn as_any_ref(&self) -> &dyn Any;
}

impl<T: Any + fmt::Debug> Message for T {
    fn as_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

impl dyn Message {
    /// Attempt to downcast the boxed payload to a concrete type.
    pub fn downcast<T: Any>(self: Box<Self>) -> Result<Box<T>, Box<dyn Any>> {
        self.as_any().downcast::<T>()
    }

    /// Borrowing downcast.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.as_any_ref().downcast_ref::<T>()
    }

    /// True if the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.as_any_ref().is::<T>()
    }
}

/// A state machine reacting to simulation stimuli.
///
/// Handlers must not block or loop on wall-clock anything; all waiting is
/// expressed as timers.
pub trait Component: 'static {
    /// Called once when the component is added to a live node (including on
    /// re-creation after a node restart).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A message arrived from `from`.
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {}

    /// A timer set via [`Ctx::set_timer`] fired. `tag` is the caller-chosen
    /// discriminator passed at scheduling time.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {}

    /// The component is being torn down (graceful kill, *not* called on
    /// node crash — crashes are abrupt by design).
    fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// An effect requested by a handler, applied by the kernel afterwards.
pub(crate) enum Effect {
    Send {
        to: Addr,
        msg: AnyMsg,
    },
    SendLocal {
        to: Addr,
        msg: AnyMsg,
    },
    SendBulk {
        to: Addr,
        bytes: u64,
        msg: AnyMsg,
    },
    SetTimer {
        id: TimerId,
        after: Duration,
        tag: u64,
    },
    CancelTimer {
        id: TimerId,
    },
    Spawn {
        node: NodeId,
        name: Rc<str>,
        comp: Box<dyn Component>,
        id: CompId,
    },
    Kill {
        addr: Addr,
        /// Whether the name binding goes with the component
        /// ([`Ctx::kill_transient`]) or stays for a restart ([`Ctx::kill`]).
        release: bool,
    },
    CrashNode {
        node: NodeId,
    },
    Halt,
}

/// The handler-side view of the world.
///
/// Owns buffered effects plus direct (safe, order-independent) access to the
/// stable store, RNG, metrics and trace sinks.
pub struct Ctx<'w> {
    pub(crate) now: SimTime,
    pub(crate) self_addr: Addr,
    pub(crate) effects: Vec<Effect>,
    pub(crate) store: &'w mut StableStore,
    pub(crate) rng: &'w mut SimRng,
    pub(crate) metrics: &'w mut Metrics,
    pub(crate) trace: &'w mut TraceSink,
    pub(crate) next_timer: &'w mut u64,
    /// The world's component ids and the names bound to them, where
    /// [`Ctx::spawn`] claims an id.
    pub(crate) comps: &'w mut CompTable,
    /// The flows in flight, for [`Ctx::flow_live`].
    pub(crate) flows: &'w FlowNet,
    /// Sequence number of the kernel event currently being processed;
    /// stamped onto trace records as their `id`.
    pub(crate) event_id: u64,
    /// That event's nearest observable causal ancestor (see
    /// [`crate::trace::TraceEvent::cause`]).
    pub(crate) event_cause: u64,
}

impl<'w> Ctx<'w> {
    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This component's own address.
    #[inline]
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// The node this component runs on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.self_addr.node
    }

    /// The run's retention ([`crate::world::Config::lean`]): when true,
    /// drop a job's per-job records once it is settled.
    #[inline]
    pub fn lean(&self) -> bool {
        self.comps.lean()
    }

    /// Send a message to `to` through the network model (latency, loss and
    /// partitions apply; same-node sends use the loopback path and are
    /// reliable).
    pub fn send<M: Message>(&mut self, to: Addr, msg: M) {
        self.effects.push(Effect::Send {
            to,
            msg: Box::new(msg),
        });
    }

    /// Send `bytes` of bulk data to `to`, delivering `msg` when the
    /// transfer completes. Its fate is decided at send, like a message's,
    /// except that loss compounds per megabyte. If the route from here to
    /// `to` crosses no declared link (`Network::set_flow_route`), it is a
    /// sized message: delivered after one latency sample plus
    /// `bytes / bandwidth` of the pair. If it crosses one, the transfer is
    /// a *flow*: it shares routed link capacity max-min fairly with
    /// concurrent flows, and a partition, crash or link failure
    /// mid-transfer aborts it: `msg` is dropped and nobody is told, as
    /// when a message is lost. A protocol that needs the transfer keeps a
    /// timer and resends.
    pub fn send_bulk<M: Message>(&mut self, to: Addr, bytes: u64, msg: M) {
        self.effects.push(Effect::SendBulk {
            to,
            bytes,
            msg: Box::new(msg),
        });
    }

    /// Whether a bulk flow from `from` to `to` is in flight and would be
    /// delivered: both ends can see its bytes moving, so the transfer is
    /// progressing, however slowly. A flow started by or addressed to a
    /// predecessor of a recycled id does not count; one that a same-name
    /// restart inherits does. A transfer that crosses no declared link is
    /// a sized message, never a flow, so between such a pair this is
    /// always false.
    pub fn flow_live(&self, from: Addr, to: Addr) -> bool {
        self.flows
            .parcels()
            .iter()
            .any(|p| p.from == from && p.to == to && self.comps.owns(p))
    }

    /// Send a message to a component on this same node, bypassing the
    /// network model entirely (delivered at `now` + loopback latency,
    /// never lost).
    pub fn send_local<M: Message>(&mut self, to: Addr, msg: M) {
        debug_assert_eq!(to.node, self.self_addr.node, "send_local across nodes");
        self.effects.push(Effect::SendLocal {
            to,
            msg: Box::new(msg),
        });
    }

    /// Schedule a timer to fire on this component after `after`, carrying
    /// `tag` back to [`Component::on_timer`].
    pub fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, after, tag });
        id
    }

    /// Cancel a previously scheduled timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Create a new component on `node`. Its `on_start` runs before any
    /// other pending event. Returns the address it will have.
    ///
    /// Re-spawning under the name of a dead component on the node takes
    /// over its address (a restarted daemon listens on the same
    /// host:port): messages sent to the old incarnation reach the new one,
    /// its timers do not. A handler may kill a component and spawn its
    /// successor under the same name, which then gets a new address; a
    /// spawn that finds its name's component still live panics.
    pub fn spawn<C: Component>(&mut self, node: NodeId, name: &str, comp: C) -> Addr {
        let (id, name) = self.comps.claim(node, name);
        self.effects.push(Effect::Spawn {
            node,
            name,
            comp: Box::new(comp),
            id,
        });
        Addr { node, comp: id }
    }

    /// Gracefully remove a component (its `on_stop` runs). Its name stays
    /// bound to its address for the next spawn under that name.
    pub fn kill(&mut self, addr: Addr) {
        self.effects.push(Effect::Kill {
            addr,
            release: false,
        });
    }

    /// Gracefully remove a *transient* component (its `on_stop` runs) and
    /// release its name binding. Use for per-job ephemera that are never
    /// re-spawned under the same name — e.g. a GRAM JobManager after its
    /// done-ack — so a million-job campaign keeps no binding per finished
    /// job. A later spawn under the same name gets a *fresh* address; in a
    /// lean run ([`crate::world::Config::lean`]) the dead id itself goes to
    /// the next spawn under any name, and nothing addressed to the dead
    /// component — timer, message or bulk flow — reaches that one.
    pub fn kill_transient(&mut self, addr: Addr) {
        self.effects.push(Effect::Kill {
            addr,
            release: true,
        });
    }

    /// Abruptly crash a node: every component on it loses its in-memory
    /// state; messages in flight to it will be dropped at delivery time.
    pub fn crash_node(&mut self, node: NodeId) {
        self.effects.push(Effect::CrashNode { node });
    }

    /// Stop the simulation after the current event.
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }

    /// Node-scoped stable storage (survives crashes).
    pub fn store(&mut self) -> &mut StableStore {
        self.store
    }

    /// The world's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Metrics sink (counters, gauges, histograms).
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Emit a trace event attributed to this component. `detail` runs only
    /// when the sink is collecting or streaming events, so call sites can
    /// use `|| format!(...)` without paying for it in quiet runs.
    pub fn trace_with(&mut self, kind: &'static str, detail: impl FnOnce() -> String) {
        if !self.trace.is_active() {
            return;
        }
        let (now, addr) = (self.now, self.self_addr);
        self.trace
            .emit(now, addr, kind, detail(), self.event_id, self.event_cause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_downcast() {
        #[derive(Debug, PartialEq)]
        struct Hello(u32);
        let m: AnyMsg = Box::new(Hello(7));
        assert!(m.is::<Hello>());
        assert_eq!(m.downcast_ref::<Hello>(), Some(&Hello(7)));
        let h = m.downcast::<Hello>().unwrap();
        assert_eq!(*h, Hello(7));
    }

    #[test]
    fn message_downcast_wrong_type() {
        #[derive(Debug)]
        struct A;
        #[derive(Debug)]
        struct B;
        let m: AnyMsg = Box::new(A);
        assert!(!m.is::<B>());
        assert!(m.downcast::<B>().is_err());
    }

    #[test]
    fn addr_display() {
        let a = Addr {
            node: NodeId(3),
            comp: CompId(9),
        };
        assert_eq!(format!("{a}"), "n3/c9");
    }
}
