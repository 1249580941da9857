//! The wide-area network model.
//!
//! Condor-G's protocols are exercised by *orderings, delays, losses and
//! partitions*, not by byte-level wire formats. The model therefore provides:
//!
//! * per-pair (or default) one-way latency distributions,
//! * a global plus per-link message loss probability,
//! * named partitions (pairwise unreachability between node groups),
//! * per-pair bandwidth, and
//! * declared capacitated links (see [`flow`]).
//!
//! One fate function, [`Network::route`], decides whether a message or a
//! bulk transfer of a given size arrives and after what latency. Control
//! messages (everything sent with `Ctx::send`) are "small": they pay
//! latency and may be lost, but don't consume bandwidth. A bulk transfer
//! (GASS / GridFTP staging, `Ctx::send_bulk`) is a *flow* exactly when its
//! route crosses a declared link: it then shares that link's capacity with
//! the other flows on it. Otherwise it is a sized message, delivered after
//! the latency plus `bytes / bandwidth` of its pair.

pub mod flow;

use crate::component::NodeId;
use crate::hash::{IdMap, IdSet};
use crate::rng::{Dist, SimRng};
use crate::time::Duration;
use flow::{FlowNet, LinkId, Parcel};

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
    /// Declared links, the routes over them, and the bulk transfers in
    /// flight as flows. See [`flow`].
    pub(crate) flow: FlowNet,
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
            flow: FlowNet::default(),
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

    /// Decide the fate of a message or a bulk transfer of `bytes` (0 for a
    /// message) on `from → to`: `Some(latency)` if it will be delivered,
    /// `None` if dropped (loss or partition).
    ///
    /// Note that a *partitioned* link drops deterministically, modelling an
    /// unreachable route, while *loss* is sampled: one draw, at the pair's
    /// rate compounded per started megabyte (so a message, or a transfer
    /// of up to 1 MB, is lost at exactly the rate), then one latency draw
    /// if it survives, whatever the size.
    pub fn route(
        &mut self,
        rng: &mut SimRng,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Option<Duration> {
        if from == to {
            return Some(rng.duration(&self.config.loopback_latency));
        }
        if !self.reachable(from, to) {
            return None;
        }
        if rng.chance(volume_loss(self.loss_for(from, to), bytes)) {
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

    /// Number of in-flight flows.
    pub fn flows_active(&self) -> usize {
        self.flow.active()
    }

    /// Declare (or re-declare) a capacitated topology link.
    /// `latency_secs` is the link's propagation delay, paid once per flow
    /// on top of the sampled end-to-end latency.
    pub fn add_flow_link(&mut self, name: &str, capacity: f64, latency_secs: f64) -> LinkId {
        self.flow.add_link(name, capacity, latency_secs)
    }

    /// Route every bulk transfer between `a` and `b` (both directions)
    /// over `links`. A transfer whose route crosses no link stays a sized
    /// message.
    pub fn set_flow_route(&mut self, a: NodeId, b: NodeId, links: &[LinkId]) {
        self.flow.set_route(a, b, links);
    }

    // The methods below change the flow set and leave rates and deadlines
    // stale: the kernel follows each with one [`FlowNet::refresh`], after
    // it has pushed whatever events the change itself produces, so
    // sequence numbers are reserved in the order the kernel schedules
    // things.

    /// Register `parcel` as a flow over its route, once [`Network::route`]
    /// has let it through with `latency`. Returns `false` (payload dropped)
    /// if a link on the route is down.
    pub(crate) fn flow_start(&mut self, parcel: Parcel, mut latency: Duration) -> bool {
        let cap = self.bandwidth(parcel.from.node, parcel.to.node);
        let route = self.flow.route_for(parcel.from.node, parcel.to.node);
        if route.iter().any(|&l| !self.flow.link_is_up(l)) {
            return false;
        }
        for &l in route {
            latency += Duration::from_secs_f64(self.flow.link_latency(l));
        }
        self.flow.start(parcel, latency, cap);
        true
    }

    /// Abort every flow whose endpoints are no longer mutually reachable
    /// (call after installing a partition).
    pub(crate) fn flow_abort_unreachable(&mut self) -> Vec<Parcel> {
        let partitioned = &self.partitioned;
        self.flow
            .abort_where(|a, b, _| a != b && partitioned.contains(&pair_key(a, b)))
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
        // Single chunk (every message): exactly the configured rate.
        return p;
    }
    1.0 - (1.0 - p).powi(chunks as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Addr, CompId};

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
                .route(&mut r, NodeId(1), NodeId(1), 0)
                .expect("loopback lost");
            assert!(d <= Duration::from_millis(1));
        }
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.partition(&[NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(net.route(&mut r, NodeId(1), NodeId(2), 0).is_none());
        assert!(net.route(&mut r, NodeId(2), NodeId(1), 0).is_none());
        assert!(net.route(&mut r, NodeId(1), NodeId(3), 0).is_none());
        // Unrelated pair still connected.
        assert!(net.route(&mut r, NodeId(2), NodeId(3), 0).is_some());
        net.heal(&[NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(net.route(&mut r, NodeId(1), NodeId(2), 0).is_some());
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
            .filter(|_| net.route(&mut r, NodeId(0), NodeId(1), 0).is_some())
            .count();
        let rate = 1.0 - delivered as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn link_overrides_beat_defaults() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.set_link_loss(NodeId(0), NodeId(1), 1.0);
        assert!(net.route(&mut r, NodeId(0), NodeId(1), 0).is_none());
        // Reverse direction unaffected.
        assert!(net.route(&mut r, NodeId(1), NodeId(0), 0).is_some());
        net.set_link_latency(NodeId(2), NodeId(3), Dist::Constant(5.0));
        let d = net.route(&mut r, NodeId(2), NodeId(3), 0).unwrap();
        assert_eq!(d, Duration::from_secs(5));
    }

    /// A network at loss `p` with a latency that is a real draw.
    fn lossy(p: f64) -> Network {
        Network::new(NetConfig {
            loss_rate: p,
            ..NetConfig::default()
        })
    }

    #[test]
    fn large_transfers_lose_per_megabyte() {
        // Finding 10 holds for a transfer that crosses no declared link:
        // at loss 0.1 a 10 MB transfer survives at 0.9^10, not 0.9.
        let mut net = lossy(0.1);
        let mut r = rng();
        let n = 20_000;
        let delivered = (0..n)
            .filter(|_| {
                net.route(&mut r, NodeId(0), NodeId(1), 10_000_000)
                    .is_some()
            })
            .count();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.9f64.powi(10)).abs() < 0.02, "survival {rate}");
    }

    #[test]
    fn a_megabyte_or_less_keeps_the_message_rate() {
        // Same seed, same draws: a transfer of up to one chunk meets
        // exactly the fate a message would, every time.
        let mut net = lossy(0.25);
        let (mut msg, mut bulk) = (rng(), rng());
        for _ in 0..2_000 {
            assert_eq!(
                net.route(&mut msg, NodeId(0), NodeId(1), 0),
                net.route(&mut bulk, NodeId(0), NodeId(1), 1_000_000)
            );
        }
    }

    #[test]
    fn a_transfer_draws_what_a_message_draws() {
        // One loss draw, then one latency draw, whatever the size. At a
        // loss this small both get through, with the same latency sample,
        // and leave the generator in the same state.
        let mut net = lossy(1e-12);
        let (mut msg, mut bulk) = (rng(), rng());
        let a = net.route(&mut msg, NodeId(0), NodeId(1), 0);
        let b = net.route(&mut bulk, NodeId(0), NodeId(1), 10_000_000);
        assert!(a.is_some());
        assert_eq!(a, b);
        let mut two = rng();
        two.f64();
        two.f64();
        let next = two.f64();
        assert_eq!((msg.f64(), bulk.f64()), (next, next));
    }

    #[test]
    fn dynamic_loss_override() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.set_global_loss(Some(1.0));
        assert!(net.route(&mut r, NodeId(0), NodeId(1), 0).is_none());
        net.set_global_loss(None);
        assert!(net.route(&mut r, NodeId(0), NodeId(1), 0).is_some());
    }

    #[test]
    fn dynamic_loss_is_not_shadowed_by_link_override() {
        // Regression: a perfect per-link override used to swallow a
        // fault-plan loss of 1.0 — the two must combine as the max.
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.set_link_loss(NodeId(0), NodeId(1), 0.0);
        net.set_global_loss(Some(1.0));
        assert!(net.route(&mut r, NodeId(0), NodeId(1), 0).is_none());
        // And the max cuts the other way too: a lossy link stays lossy
        // when the dynamic rate is lower.
        net.set_link_loss(NodeId(2), NodeId(3), 1.0);
        net.set_global_loss(Some(0.0));
        assert!(net.route(&mut r, NodeId(2), NodeId(3), 0).is_none());
        net.set_global_loss(None);
        assert!(net.route(&mut r, NodeId(0), NodeId(1), 0).is_some());
    }

    #[test]
    fn heal_of_never_installed_partition_is_a_noop() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.partition(&[NodeId(1)], &[NodeId(2)]);
        // Healing a pair that was never partitioned must not disturb the
        // real partition or the healthy pairs.
        net.heal(&[NodeId(3)], &[NodeId(4)]);
        assert!(net.route(&mut r, NodeId(3), NodeId(4), 0).is_some());
        assert!(net.route(&mut r, NodeId(1), NodeId(2), 0).is_none());
        net.heal(&[NodeId(1)], &[NodeId(2)]);
        net.heal(&[NodeId(1)], &[NodeId(2)]); // double-heal: still a no-op
        assert!(net.route(&mut r, NodeId(1), NodeId(2), 0).is_some());
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
        let parcel = || Parcel {
            from: Addr {
                node: NodeId(1),
                comp: CompId(0),
            },
            to: Addr {
                node: NodeId(2),
                comp: CompId(0),
            },
            bytes: 1_000,
            msg: Box::new(1u8),
            started: 0,
        };
        net.partition(&[NodeId(1)], &[NodeId(2)]);
        assert!(net.route(&mut r, NodeId(1), NodeId(2), 1_000).is_none());
        net.heal(&[NodeId(1)], &[NodeId(2)]);
        let latency = net.route(&mut r, NodeId(1), NodeId(2), 1_000).unwrap();
        assert!(net.flow.set_link_up("wan", false));
        assert!(!net.flow_start(parcel(), latency));
        assert!(net.flow.set_link_up("wan", true));
        assert!(net.flow_start(parcel(), latency));
        assert_eq!(net.flows_active(), 1);
    }
}
