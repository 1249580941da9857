#![warn(missing_docs)]
//! `gridsim` — deterministic discrete-event simulation kernel for the
//! Condor-G reproduction.
//!
//! The original Condor-G (HPDC 2001) ran for days across real
//! multi-institutional testbeds. To reproduce its behaviour faithfully and
//! repeatably, every distributed piece of the system (the agent, the Globus
//! gatekeepers and job managers, the site batch schedulers, the Condor
//! daemons) is implemented as a *component*: a state machine that reacts to
//! messages and timers. Components live on *nodes*, nodes are connected by a
//! *network* with configurable latency, loss, bandwidth and partitions, and
//! the whole world advances in virtual time under a single deterministic
//! event loop.
//!
//! Key properties:
//!
//! * **Determinism** — identical seeds and inputs produce identical event
//!   orderings and traces (ties in the event queue are broken by sequence
//!   number). This is what lets the test suite assert exact protocol
//!   behaviour under scripted failures.
//! * **Crash semantics** — a node crash atomically destroys the in-memory
//!   state of every component on the node; only data written to the
//!   [`store::StableStore`] survives. Node boot hooks re-create components
//!   on restart, which is exactly how the paper's GridManager and Schedd
//!   recover (§4.2 of the paper).
//! * **Failure injection** — [`fault::FaultPlan`] schedules crashes,
//!   restarts, partitions and loss-rate changes, either scripted or sampled
//!   from MTBF/MTTR distributions.
//!
//! # Quick example
//!
//! ```
//! use gridsim::prelude::*;
//!
//! struct Ping { peer: Option<Addr>, hops: u32 }
//! #[derive(Debug)]
//! struct PingMsg(u32);
//!
//! impl Component for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, PingMsg(0));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
//!         let PingMsg(n) = *msg.downcast::<PingMsg>().unwrap();
//!         self.hops += 1;
//!         if n < 10 { ctx.send(from, PingMsg(n + 1)); }
//!     }
//! }
//!
//! let mut world = World::new(Config::default().seed(42));
//! let a = world.add_node("a");
//! let b = world.add_node("b");
//! let pong = world.add_component(b, "pong", Ping { peer: None, hops: 0 });
//! world.add_component(a, "ping", Ping { peer: Some(pong), hops: 0 });
//! world.run_until_quiescent();
//! assert!(world.now() > SimTime::ZERO);
//! ```

pub mod codec;
pub mod component;
pub mod event;
pub mod fault;
pub mod hash;
pub mod metrics;
pub mod network;
pub mod obs;
pub mod rng;
pub mod store;
pub mod time;
pub mod trace;
pub mod world;

/// Convenient glob import for simulation users.
pub mod prelude {
    pub use crate::component::{Addr, AnyMsg, CompId, Component, Ctx, NodeId, TimerId};
    pub use crate::fault::FaultPlan;
    pub use crate::network::flow::LinkId;
    pub use crate::rng::SimRng;
    pub use crate::store::StableStore;
    pub use crate::time::{Duration, SimTime};
    pub use crate::trace::{TraceEvent, TraceSubscriber};
    pub use crate::world::{Config, World};
}

pub use component::{Addr, AnyMsg, CompId, Component, Ctx, NodeId, TimerId};
pub use time::{Duration, SimTime};
pub use world::{Config, World};
