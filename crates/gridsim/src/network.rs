//! The wide-area network model.
//!
//! Condor-G's protocols are exercised by *orderings, delays, losses and
//! partitions*, not by byte-level wire formats. The model therefore provides:
//!
//! * per-pair (or default) one-way latency distributions,
//! * a global plus per-link message loss probability,
//! * named partitions (pairwise unreachability between node groups), and
//! * per-link bandwidth used by the bulk-transfer helpers in the `gass`
//!   crate to compute transfer durations.
//!
//! Control messages (everything sent with `Ctx::send`) are "small": they pay
//! latency and may be lost, but don't consume bandwidth. Bulk data (GASS /
//! GridFTP staging) is modelled explicitly by `gass` on top of
//! [`Network::transfer_duration`].

pub mod flow;

use crate::component::{Addr, AnyMsg, NodeId};
use crate::event::EventQueue;
use crate::hash::{IdMap, IdSet};
use crate::rng::{Dist, SimRng};
use crate::time::{Duration, SimTime};
use flow::{AbortedFlow, FlowDue, FlowNet, LinkId};

/// Static configuration of the network model.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Default one-way latency for node pairs without an override (seconds).
    pub default_latency: Dist,
    /// Latency for messages between components on the same node (seconds).
    pub loopback_latency: Dist,
    /// Global probability that an inter-node message is silently dropped.
    pub loss_rate: f64,
    /// Default link bandwidth in bytes/second (for bulk transfers).
    pub default_bandwidth: f64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            // Wide-area RTT ~60 ms in 2001 => ~30 ms one-way, with jitter.
            default_latency: Dist::Uniform {
                lo: 0.020,
                hi: 0.040,
            },
            loopback_latency: Dist::Constant(0.000_1),
            loss_rate: 0.0,
            // ~10 Mbit/s effective wide-area throughput, a fair match for
            // the paper's era.
            default_bandwidth: 1.25e6,
        }
    }
}

/// Per-directed-link overrides.
#[derive(Clone, Debug)]
struct LinkOverride {
    latency: Option<Dist>,
    loss_rate: Option<f64>,
    bandwidth: Option<f64>,
}

/// The live network state: configuration plus dynamic partitions/loss.
#[derive(Debug)]
pub struct Network {
    config: NetConfig,
    overrides: IdMap<(NodeId, NodeId), LinkOverride>,
    /// Unordered pairs currently partitioned from each other.
    partitioned: IdSet<(NodeId, NodeId)>,
    /// Dynamic loss rate override (set by fault plans); falls back to config.
    dynamic_loss: Option<f64>,
    /// Shared-bandwidth topology + active flows; `Some` iff flow mode is
    /// enabled (by declaring at least one link). See [`flow`].
    flow: Option<FlowNet>,
    /// Messages dropped so far (for reporting).
    pub dropped: u64,
}

fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Network {
    /// Build a network from configuration.
    pub fn new(config: NetConfig) -> Network {
        Network {
            config,
            overrides: IdMap::default(),
            partitioned: IdSet::default(),
            dynamic_loss: None,
            flow: None,
            dropped: 0,
        }
    }

    /// Override the latency distribution for the directed link `from → to`.
    pub fn set_link_latency(&mut self, from: NodeId, to: NodeId, latency: Dist) {
        self.overrides
            .entry((from, to))
            .or_insert(LinkOverride {
                latency: None,
                loss_rate: None,
                bandwidth: None,
            })
            .latency = Some(latency);
    }

    /// Override the loss probability for the directed link `from → to`.
    pub fn set_link_loss(&mut self, from: NodeId, to: NodeId, loss: f64) {
        self.overrides
            .entry((from, to))
            .or_insert(LinkOverride {
                latency: None,
                loss_rate: None,
                bandwidth: None,
            })
            .loss_rate = Some(loss);
    }

    /// Override the bandwidth for the directed link `from → to` (bytes/s).
    pub fn set_link_bandwidth(&mut self, from: NodeId, to: NodeId, bw: f64) {
        self.overrides
            .entry((from, to))
            .or_insert(LinkOverride {
                latency: None,
                loss_rate: None,
                bandwidth: None,
            })
            .bandwidth = Some(bw);
    }

    /// Set (or with `None`, clear) the dynamic global loss rate.
    pub fn set_global_loss(&mut self, rate: Option<f64>) {
        self.dynamic_loss = rate;
    }

    /// Partition every node in `group_a` from every node in `group_b`.
    pub fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                if a != b {
                    self.partitioned.insert(pair_key(a, b));
                }
            }
        }
    }

    /// Heal a previously installed partition.
    pub fn heal(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.partitioned.remove(&pair_key(a, b));
            }
        }
    }

    /// True if `a` and `b` can currently exchange messages.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        a == b || !self.partitioned.contains(&pair_key(a, b))
    }

    /// Decide the fate of a message on `from → to`: `Some(latency)` if it
    /// will be delivered, `None` if dropped (loss or partition).
    ///
    /// Note that a *partitioned* link drops deterministically, modelling an
    /// unreachable route, while *loss* is sampled.
    pub fn route(&mut self, rng: &mut SimRng, from: NodeId, to: NodeId) -> Option<Duration> {
        if from == to {
            return Some(rng.duration(&self.config.loopback_latency));
        }
        if !self.reachable(from, to) {
            self.dropped += 1;
            return None;
        }
        let loss = self.loss_for(from, to);
        if rng.chance(loss) {
            self.dropped += 1;
            return None;
        }
        let dist = self
            .overrides
            .get(&(from, to))
            .and_then(|l| l.latency)
            .unwrap_or(self.config.default_latency);
        Some(rng.duration(&dist))
    }

    /// Effective loss probability on `from → to`. A per-link override and a
    /// fault-plan dynamic loss *combine as the max* — a chaos plan that
    /// raises global loss to 1.0 must black out overridden links too, not
    /// be silently shadowed by them.
    fn loss_for(&self, from: NodeId, to: NodeId) -> f64 {
        let link = self.overrides.get(&(from, to)).and_then(|l| l.loss_rate);
        match (link, self.dynamic_loss) {
            (Some(l), Some(d)) => l.max(d),
            (Some(l), None) => l,
            (None, Some(d)) => d,
            (None, None) => self.config.loss_rate,
        }
    }

    /// Bandwidth of the directed link in bytes/second.
    pub fn bandwidth(&self, from: NodeId, to: NodeId) -> f64 {
        if from == to {
            // Loopback: effectively memory speed; use a large constant.
            return 1e9;
        }
        self.overrides
            .get(&(from, to))
            .and_then(|l| l.bandwidth)
            .unwrap_or(self.config.default_bandwidth)
    }

    /// Time to move `bytes` across `from → to` at the link bandwidth plus
    /// one latency sample. Used by the `gass` bulk-transfer model.
    ///
    /// **Legacy (uncontended) model.** The pipe is private — concurrent
    /// transfers don't slow each other down — and loss is sampled exactly
    /// *once* via [`Network::route`] regardless of size, so a 10 GB
    /// stage-in and a 200-byte control message share a drop probability.
    /// Both simplifications are deliberate (and keep historical traces
    /// byte-identical); scenarios that care opt into flow mode, where
    /// transfers contend on declared links and loss is per-volume
    /// (`Network::flow_start`).
    pub fn transfer_duration(
        &mut self,
        rng: &mut SimRng,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Option<Duration> {
        let latency = self.route(rng, from, to)?;
        let bw = self.bandwidth(from, to);
        Some(latency + Duration::from_secs_f64(bytes as f64 / bw))
    }

    // ---- flow mode (shared-bandwidth topology) ----------------------

    /// True once a topology link has been declared: bulk transfers are
    /// then scheduled by the fair-share flow model instead of
    /// [`Network::transfer_duration`].
    pub fn flow_enabled(&self) -> bool {
        self.flow.is_some()
    }

    /// Number of in-flight flows (0 when flow mode is off).
    pub fn flows_active(&self) -> usize {
        self.flow.as_ref().map_or(0, FlowNet::active)
    }

    /// Declare (or re-declare) a capacitated topology link, enabling flow
    /// mode. `latency_secs` is the link's propagation delay, paid once per
    /// flow on top of the sampled end-to-end latency.
    pub fn add_flow_link(&mut self, name: &str, capacity: f64, latency_secs: f64) -> LinkId {
        self.flow
            .get_or_insert_with(FlowNet::default)
            .add_link(name, capacity, latency_secs)
    }

    /// Route every bulk transfer between `a` and `b` (both directions)
    /// over `links`. Pairs without a route use an empty route: scheduled
    /// as flows (per-pair cap, per-volume loss) but link-unconstrained.
    pub fn set_flow_route(&mut self, a: NodeId, b: NodeId, links: &[LinkId]) {
        self.flow
            .get_or_insert_with(FlowNet::default)
            .set_route(a, b, links);
    }

    /// Mark a link up/down without touching in-flight flows (static setup;
    /// fault-driven changes go through the kernel's `LinkDown`/`LinkUp`
    /// events so crossing flows abort/rescale). False for unknown names.
    pub fn set_flow_link_up(&mut self, name: &str, up: bool) -> bool {
        self.flow.as_mut().is_some_and(|f| f.set_link_up(name, up))
    }

    /// Set (or with `None`, clear) a link's capacity override. False for
    /// unknown names.
    pub fn set_flow_link_capacity(&mut self, name: &str, cap: Option<f64>) -> bool {
        self.flow
            .as_mut()
            .is_some_and(|f| f.set_link_override(name, cap))
    }

    // The methods below change the flow set or the topology and leave
    // rates and deadlines stale: the kernel follows each with one
    // [`Network::flow_refresh`], after it has pushed whatever events the
    // change itself produces, so sequence numbers are reserved in the
    // order the kernel schedules things.

    /// Decide the fate of a bulk transfer in flow mode and, if it goes
    /// through, register the flow. Returns `false` (payload dropped, after
    /// `dropped` is bumped) on partition, a down link on the route, or a
    /// per-volume loss draw.
    ///
    /// Unlike the legacy model, loss here compounds per MB of payload: a
    /// transfer of `n` chunks survives with probability `(1 - p)^n` (still
    /// a single RNG draw, so the draw count per transfer is fixed).
    pub(crate) fn flow_start(
        &mut self,
        rng: &mut SimRng,
        from: Addr,
        to: Addr,
        bytes: u64,
        msg: AnyMsg,
    ) -> bool {
        debug_assert!(from.node != to.node, "loopback stays on the legacy path");
        if !self.reachable(from.node, to.node) {
            self.dropped += 1;
            return false;
        }
        let p = volume_loss(self.loss_for(from.node, to.node), bytes);
        if rng.chance(p) {
            self.dropped += 1;
            return false;
        }
        let dist = self
            .overrides
            .get(&(from.node, to.node))
            .and_then(|l| l.latency)
            .unwrap_or(self.config.default_latency);
        let mut latency = rng.duration(&dist);
        let cap = self.bandwidth(from.node, to.node);
        let flow = self.flow.as_mut().expect("flow_start requires flow mode");
        let route = flow.route_for(from.node, to.node);
        if route.iter().any(|&l| !flow.link_is_up(l)) {
            self.dropped += 1;
            return false;
        }
        for &l in route {
            latency += Duration::from_secs_f64(flow.link_latency(l));
        }
        flow.start(from, to, bytes, latency, cap, msg);
        true
    }

    /// Complete flow `id` if the firing event's `(now, stamp)` matches the
    /// flow's current deadline and stamp (an event armed before the flow
    /// was last rescheduled returns `None`). On success: `(from, to,
    /// payload)`.
    pub(crate) fn flow_complete(
        &mut self,
        id: u64,
        now: SimTime,
        stamp: u64,
    ) -> Option<(Addr, Addr, AnyMsg)> {
        self.flow.as_mut()?.complete(id, now, stamp)
    }

    /// Abort every flow whose endpoints are no longer mutually reachable
    /// (call after installing a partition).
    pub(crate) fn flow_abort_unreachable(&mut self) -> Vec<AbortedFlow> {
        let Some(flow) = self.flow.as_mut() else {
            return Vec::new();
        };
        let partitioned = &self.partitioned;
        flow.abort_where(|a, b, _| a != b && partitioned.contains(&pair_key(a, b)))
    }

    /// Abort every flow with an endpoint on `node` (call on node crash).
    pub(crate) fn flow_abort_node(&mut self, node: NodeId) -> Vec<AbortedFlow> {
        let Some(flow) = self.flow.as_mut() else {
            return Vec::new();
        };
        flow.abort_where(|a, b, _| a == node || b == node)
    }

    /// Take link `name` down and abort the flows crossing it. `None` for
    /// unknown names or flow mode off.
    pub(crate) fn flow_link_down(&mut self, name: &str) -> Option<Vec<AbortedFlow>> {
        let flow = self.flow.as_mut()?;
        let id = flow.link_id(name)?;
        flow.set_link_up(name, false);
        Some(flow.abort_where(|_, _, route| route.contains(&id)))
    }

    /// Settle every flow up to `now`, re-run the fair share, and stamp
    /// each changed completion deadline with a sequence number reserved
    /// from `queue` and with `cause` (see [`flow::FlowNet::refresh`]).
    pub(crate) fn flow_refresh(&mut self, now: SimTime, cause: u64, queue: &mut EventQueue) {
        if let Some(flow) = self.flow.as_mut() {
            flow.refresh(now, cause, queue);
        }
    }

    /// The earliest pending flow completion as of the last
    /// [`Network::flow_refresh`].
    pub(crate) fn flow_next_due(&self) -> Option<FlowDue> {
        self.flow.as_ref()?.next_due()
    }
}

/// Per-volume loss: the probability that a transfer of `bytes` survives
/// compounds per 1 MB chunk, `1 - (1 - p)^ceil(bytes / 1 MB)`.
fn volume_loss(p: f64, bytes: u64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    const CHUNK: u64 = 1_000_000;
    let chunks = (bytes.div_ceil(CHUNK)).max(1).min(i32::MAX as u64);
    if chunks == 1 {
        // Single chunk: exactly the configured rate (matches legacy).
        return p;
    }
    1.0 - (1.0 - p).powi(chunks as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(11)
    }

    #[test]
    fn loopback_is_fast_and_reliable() {
        let mut net = Network::new(NetConfig {
            loss_rate: 1.0,
            ..NetConfig::default()
        });
        let mut r = rng();
        for _ in 0..100 {
            let d = net
                .route(&mut r, NodeId(1), NodeId(1))
                .expect("loopback lost");
            assert!(d <= Duration::from_millis(1));
        }
        assert_eq!(net.dropped, 0);
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.partition(&[NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(net.route(&mut r, NodeId(1), NodeId(2)).is_none());
        assert!(net.route(&mut r, NodeId(2), NodeId(1)).is_none());
        assert!(net.route(&mut r, NodeId(1), NodeId(3)).is_none());
        // Unrelated pair still connected.
        assert!(net.route(&mut r, NodeId(2), NodeId(3)).is_some());
        net.heal(&[NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(net.route(&mut r, NodeId(1), NodeId(2)).is_some());
    }

    #[test]
    fn loss_rate_approximated() {
        let cfg = NetConfig {
            loss_rate: 0.25,
            ..NetConfig::default()
        };
        let mut net = Network::new(cfg);
        let mut r = rng();
        let n = 20_000;
        let delivered = (0..n)
            .filter(|_| net.route(&mut r, NodeId(0), NodeId(1)).is_some())
            .count();
        let rate = 1.0 - delivered as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn link_overrides_beat_defaults() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.set_link_loss(NodeId(0), NodeId(1), 1.0);
        assert!(net.route(&mut r, NodeId(0), NodeId(1)).is_none());
        // Reverse direction unaffected.
        assert!(net.route(&mut r, NodeId(1), NodeId(0)).is_some());
        net.set_link_latency(NodeId(2), NodeId(3), Dist::Constant(5.0));
        let d = net.route(&mut r, NodeId(2), NodeId(3)).unwrap();
        assert_eq!(d, Duration::from_secs(5));
    }

    #[test]
    fn transfer_duration_scales_with_size() {
        let mut net = Network::new(NetConfig {
            default_latency: Dist::Constant(0.0),
            default_bandwidth: 1_000_000.0,
            ..NetConfig::default()
        });
        let mut r = rng();
        let d = net
            .transfer_duration(&mut r, NodeId(0), NodeId(1), 10_000_000)
            .unwrap();
        assert_eq!(d, Duration::from_secs(10));
    }

    #[test]
    fn dynamic_loss_override() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.set_global_loss(Some(1.0));
        assert!(net.route(&mut r, NodeId(0), NodeId(1)).is_none());
        net.set_global_loss(None);
        assert!(net.route(&mut r, NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn dynamic_loss_is_not_shadowed_by_link_override() {
        // Regression: a perfect per-link override used to swallow a
        // fault-plan loss of 1.0 — the two must combine as the max.
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.set_link_loss(NodeId(0), NodeId(1), 0.0);
        net.set_global_loss(Some(1.0));
        assert!(net.route(&mut r, NodeId(0), NodeId(1)).is_none());
        // And the max cuts the other way too: a lossy link stays lossy
        // when the dynamic rate is lower.
        net.set_link_loss(NodeId(2), NodeId(3), 1.0);
        net.set_global_loss(Some(0.0));
        assert!(net.route(&mut r, NodeId(2), NodeId(3)).is_none());
        net.set_global_loss(None);
        assert!(net.route(&mut r, NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn heal_of_never_installed_partition_is_a_noop() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.partition(&[NodeId(1)], &[NodeId(2)]);
        // Healing a pair that was never partitioned must not disturb the
        // real partition or the healthy pairs.
        net.heal(&[NodeId(3)], &[NodeId(4)]);
        assert!(net.route(&mut r, NodeId(3), NodeId(4)).is_some());
        assert!(net.route(&mut r, NodeId(1), NodeId(2)).is_none());
        net.heal(&[NodeId(1)], &[NodeId(2)]);
        net.heal(&[NodeId(1)], &[NodeId(2)]); // double-heal: still a no-op
        assert!(net.route(&mut r, NodeId(1), NodeId(2)).is_some());
    }

    #[test]
    fn volume_loss_compounds_per_chunk() {
        assert_eq!(volume_loss(0.0, u64::MAX), 0.0);
        assert_eq!(volume_loss(1.0, 1), 1.0);
        // One chunk: unchanged.
        assert_eq!(volume_loss(0.1, 200), 0.1);
        // Ten chunks: 1 - 0.9^10.
        let p = volume_loss(0.1, 10_000_000);
        assert!((p - (1.0 - 0.9f64.powi(10))).abs() < 1e-12);
        // Monotone in volume.
        assert!(volume_loss(0.01, 100_000_000) > volume_loss(0.01, 1_000_000));
    }

    #[test]
    fn flow_start_respects_partitions_and_down_links() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        let wan = net.add_flow_link("wan", 1e6, 0.0);
        net.set_flow_route(NodeId(1), NodeId(2), &[wan]);
        let from = Addr {
            node: NodeId(1),
            comp: crate::component::CompId(0),
        };
        let to = Addr {
            node: NodeId(2),
            comp: crate::component::CompId(0),
        };
        net.partition(&[NodeId(1)], &[NodeId(2)]);
        assert!(!net.flow_start(&mut r, from, to, 1_000, Box::new(1u8)));
        net.heal(&[NodeId(1)], &[NodeId(2)]);
        assert!(net.set_flow_link_up("wan", false));
        assert!(!net.flow_start(&mut r, from, to, 1_000, Box::new(1u8)));
        assert_eq!(net.dropped, 2);
        assert!(net.set_flow_link_up("wan", true));
        assert!(net.flow_start(&mut r, from, to, 1_000, Box::new(1u8)));
        assert_eq!(net.flows_active(), 1);
    }
}
