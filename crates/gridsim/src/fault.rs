//! Failure injection.
//!
//! A [`FaultPlan`] is a declarative schedule of crashes, restarts,
//! partitions and loss-rate changes. Plans are either scripted (the
//! fault-tolerance experiments crash exactly the machine the paper's §4.2
//! names, at a known instant) or sampled from MTBF/MTTR processes (the
//! week-long QAP campaign runs under "realistic background failures").

use crate::component::NodeId;
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};

/// One scheduled fault action.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Crash a node (all component memory lost).
    Crash(NodeId),
    /// Restart a crashed node (its boot hook runs).
    Restart(NodeId),
    /// Partition two groups of nodes from each other.
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Heal a partition previously installed between the two groups.
    Heal(Vec<NodeId>, Vec<NodeId>),
    /// Set the global message loss rate (`None` restores the configured rate).
    SetLoss(Option<f64>),
    /// Take a named topology link down (crossing flows abort).
    LinkDown(String),
    /// Bring a downed link back up.
    LinkUp(String),
    /// Override a link's capacity in bytes/s (`None` restores the
    /// configured capacity); active flows rescale, an override of `0.0`
    /// stalls them without aborting.
    LinkBandwidth(String, Option<f64>),
}

/// A time-ordered schedule of fault actions.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add an action at an absolute time.
    pub fn at(mut self, time: SimTime, action: FaultAction) -> FaultPlan {
        self.actions.push((time, action));
        self
    }

    /// Crash `node` at `time` and restart it after `downtime`.
    pub fn crash_restart(self, node: NodeId, time: SimTime, downtime: Duration) -> FaultPlan {
        self.at(time, FaultAction::Crash(node))
            .at(time + downtime, FaultAction::Restart(node))
    }

    /// Partition the two groups over `[start, start+length]`.
    pub fn partition_window(
        self,
        group_a: Vec<NodeId>,
        group_b: Vec<NodeId>,
        start: SimTime,
        length: Duration,
    ) -> FaultPlan {
        self.at(
            start,
            FaultAction::Partition(group_a.clone(), group_b.clone()),
        )
        .at(start + length, FaultAction::Heal(group_a, group_b))
    }

    /// Take link `name` down over `[start, start+length]`.
    pub fn link_down_window(self, name: &str, start: SimTime, length: Duration) -> FaultPlan {
        self.at(start, FaultAction::LinkDown(name.to_string()))
            .at(start + length, FaultAction::LinkUp(name.to_string()))
    }

    /// Override link `name`'s capacity to `bytes_per_sec` over
    /// `[start, start+length]`, then restore the configured capacity.
    pub fn link_bandwidth_window(
        self,
        name: &str,
        bytes_per_sec: f64,
        start: SimTime,
        length: Duration,
    ) -> FaultPlan {
        self.at(
            start,
            FaultAction::LinkBandwidth(name.to_string(), Some(bytes_per_sec)),
        )
        .at(
            start + length,
            FaultAction::LinkBandwidth(name.to_string(), None),
        )
    }

    /// Generate exponential crash/repair cycles for each node over
    /// `[0, horizon]`: time-to-failure ~ Exp(`mtbf`), repair ~ Exp(`mttr`).
    pub fn random_crashes(
        rng: &mut SimRng,
        nodes: &[NodeId],
        mtbf: Duration,
        mttr: Duration,
        horizon: SimTime,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &node in nodes {
            let mut t = SimTime::ZERO;
            loop {
                let up_for = Duration::from_secs_f64(rng.exp_f64(mtbf.as_secs_f64()));
                let down_for = Duration::from_secs_f64(rng.exp_f64(mttr.as_secs_f64()));
                let crash_at = t + up_for;
                if crash_at >= horizon {
                    break;
                }
                let restart_at = crash_at + down_for;
                plan = plan.crash_restart(node, crash_at, down_for);
                t = restart_at;
            }
        }
        plan.sorted()
    }

    /// Return the plan with actions sorted by time (stable, so same-time
    /// actions keep insertion order).
    pub fn sorted(mut self) -> FaultPlan {
        self.actions.sort_by_key(|&(t, _)| t);
        self
    }

    /// Iterate the schedule.
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.actions
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_restart_pairs() {
        let plan =
            FaultPlan::new().crash_restart(NodeId(3), SimTime(100), Duration::from_micros(50));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.actions()[0],
            (SimTime(100), FaultAction::Crash(NodeId(3)))
        );
        assert_eq!(
            plan.actions()[1],
            (SimTime(150), FaultAction::Restart(NodeId(3)))
        );
    }

    #[test]
    fn random_plan_alternates_and_sorts() {
        let mut rng = SimRng::new(8);
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let plan = FaultPlan::random_crashes(
            &mut rng,
            &nodes,
            Duration::from_hours(4),
            Duration::from_mins(20),
            SimTime::ZERO + Duration::from_days(2),
        );
        assert!(!plan.is_empty());
        // Sorted by time.
        let times: Vec<_> = plan.actions().iter().map(|&(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        // Per node: strictly alternating crash/restart starting with crash.
        for &node in &nodes {
            let mut expect_crash = true;
            for (_, a) in plan.actions() {
                match a {
                    FaultAction::Crash(n) if *n == node => {
                        assert!(expect_crash, "double crash for {node:?}");
                        expect_crash = false;
                    }
                    FaultAction::Restart(n) if *n == node => {
                        assert!(!expect_crash, "restart before crash for {node:?}");
                        expect_crash = true;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn partition_window_heals() {
        let plan = FaultPlan::new().partition_window(
            vec![NodeId(0)],
            vec![NodeId(1)],
            SimTime(10),
            Duration::from_micros(5),
        );
        assert!(matches!(plan.actions()[0].1, FaultAction::Partition(..)));
        assert!(matches!(plan.actions()[1].1, FaultAction::Heal(..)));
        assert_eq!(plan.actions()[1].0, SimTime(15));
    }
}
