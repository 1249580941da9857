//! Property-based tests for the simulation kernel: codec round-trips,
//! event-queue ordering, time arithmetic, and network invariants.

use gridsim::codec::{from_bytes, to_bytes};
use gridsim::event::{EventKind, EventQueue};
use gridsim::network::{NetConfig, Network};
use gridsim::rng::SimRng;
use gridsim::time::{Duration, SimTime};
use gridsim::{Addr, CompId, NodeId, TimerId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum State {
    Idle,
    Running { site: String, cpus: u32 },
    Held(Option<String>),
    Done(i64, bool),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Stored {
    id: u64,
    state: State,
    notes: Vec<String>,
    env: BTreeMap<String, i32>,
    ratio: f64,
    blob: Vec<u8>,
}

/// One step of the calendar-vs-heap equivalence drive: schedule an event
/// `delta` past the last popped time, reserve a sequence number, schedule
/// an event `delta` past the last popped time under the oldest reserved
/// number, pop from both queues, or pop from both only if the next event is
/// due within `delta` of the last popped time.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Push(u64),
    Reserve,
    PushReserved(u64),
    Pop,
    PopDue(u64),
}

fn arb_state() -> impl Strategy<Value = State> {
    prop_oneof![
        Just(State::Idle),
        ("[a-z]{0,8}", any::<u32>()).prop_map(|(site, cpus)| State::Running { site, cpus }),
        prop::option::of("[a-z ]{0,12}").prop_map(State::Held),
        (any::<i64>(), any::<bool>()).prop_map(|(a, b)| State::Done(a, b)),
    ]
}

fn arb_record() -> impl Strategy<Value = Stored> {
    (
        any::<u64>(),
        arb_state(),
        prop::collection::vec("[a-zA-Z0-9 ]{0,16}", 0..4),
        prop::collection::btree_map("[a-z]{1,6}", any::<i32>(), 0..4),
        any::<f64>(),
        prop::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(id, state, notes, env, ratio, blob)| Stored {
            id,
            state,
            notes,
            env,
            ratio,
            blob,
        })
}

proptest! {
    /// Arbitrary nested structures survive the stable-storage codec.
    #[test]
    fn codec_round_trips_arbitrary_records(r in arb_record()) {
        // NaN breaks PartialEq, not the codec; normalize it.
        let mut r = r;
        if r.ratio.is_nan() {
            r.ratio = 0.0;
        }
        let bytes = to_bytes(&r).unwrap();
        let back: Stored = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, r);
    }

    /// The event queue dequeues in (time, insertion) order regardless of
    /// push order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(
                SimTime(t),
                EventKind::Timer {
                    on: Addr { node: NodeId(0), comp: CompId(0) },
                    id: TimerId(i as u64),
                    tag: i as u64,
                    epoch: 0,
                },
                gridsim::event::NO_CAUSE,
            );
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(e) = q.pop() {
            let tag = match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            };
            if let Some((lt, lseq)) = last {
                prop_assert!(e.time > lt || (e.time == lt && tag > lseq),
                    "order violated: {:?} after {:?}", (e.time, tag), (lt, lseq));
            }
            last = Some((e.time, tag));
        }
    }

    /// The calendar queue pops in exactly the `(time, seq)` order a plain
    /// binary heap produces, under arbitrary interleavings of pushes (near,
    /// mid, far, and beyond-the-horizon deltas) and pops — including pushes
    /// under a sequence number reserved earlier, which may land at the
    /// current instant *below* numbers already handed out (the flow
    /// network's armed completion does exactly that) — and of pops bounded
    /// by a limit, which may fall short of the next event: the calendar's
    /// cursor then moves up to the limit with nothing popped, and the pushes
    /// that follow land behind it. `len()` matches after every step, and a
    /// drive is long enough to hand the same slab slots out many times over.
    /// This is the property the kernel's byte-for-byte determinism rests on.
    #[test]
    fn calendar_queue_matches_binary_heap(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..2_000).prop_map(QueueOp::Push),                // same L0 slot-ish
                (0u64..5_000_000).prop_map(QueueOp::Push),            // within L0 range
                (0u64..2_000_000_000).prop_map(QueueOp::Push),        // L1 buckets
                (0u64..200_000_000_000).prop_map(QueueOp::Push),      // overflow heap
                Just(QueueOp::Reserve),
                Just(QueueOp::PushReserved(0)),                       // time == now
                (0u64..5_000_000).prop_map(QueueOp::PushReserved),
                Just(QueueOp::Pop),
                Just(QueueOp::Pop),                                   // twice: slots get freed and reused
                (0u64..2_000).prop_map(QueueOp::PopDue),              // within a slot or two
                (0u64..5_000_000).prop_map(QueueOp::PopDue),          // across L0 slots
                (0u64..3_000_000_000).prop_map(QueueOp::PopDue),      // across L1 slots
                (0u64..400_000_000_000).prop_map(QueueOp::PopDue),    // past the horizon
            ],
            1..2_000,
        )
    ) {
        let mut q = EventQueue::new();
        let mut reference: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut next_seq = 0u64;
        let mut reserved = std::collections::VecDeque::new();
        // Key of the last popped event: nothing may be scheduled at or
        // before it.
        let mut now = (0u64, None::<u64>);
        let timer = |tag: u64| EventKind::Timer {
            on: Addr { node: NodeId(0), comp: CompId(0) },
            id: TimerId(tag),
            tag,
            epoch: 0,
        };
        let drain = |q: &mut EventQueue,
                         reference: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
                         now: &mut (u64, Option<u64>),
                         limit: u64|
         -> Result<(), TestCaseError> {
            let got = q.pop_due(SimTime(limit)).map(|e| (e.time.0, e.seq));
            let due = reference.peek().is_some_and(|std::cmp::Reverse(k)| k.0 <= limit);
            let want = if due { reference.pop().map(|std::cmp::Reverse(k)| k) } else { None };
            prop_assert_eq!(got, want, "pop order diverged");
            if let Some((t, seq)) = got {
                *now = (t, Some(seq));
            }
            Ok(())
        };
        for op in ops {
            match op {
                QueueOp::Push(delta) => {
                    let t = now.0 + delta;
                    q.push(SimTime(t), timer(next_seq), gridsim::event::NO_CAUSE);
                    reference.push(std::cmp::Reverse((t, next_seq)));
                    next_seq += 1;
                }
                QueueOp::Reserve => {
                    prop_assert_eq!(q.reserve_seq(), next_seq);
                    reserved.push_back(next_seq);
                    next_seq += 1;
                }
                QueueOp::PushReserved(delta) => {
                    let Some(seq) = reserved.pop_front() else { continue };
                    // At the current instant only a number above the last
                    // popped one is still in the future.
                    let late = delta == 0 && now.1.is_some_and(|popped| seq <= popped);
                    let t = now.0 + delta + late as u64;
                    q.push_reserved(SimTime(t), seq, timer(seq), gridsim::event::NO_CAUSE);
                    reference.push(std::cmp::Reverse((t, seq)));
                }
                QueueOp::Pop => drain(&mut q, &mut reference, &mut now, u64::MAX)?,
                QueueOp::PopDue(delta) => {
                    let limit = now.0 + delta;
                    drain(&mut q, &mut reference, &mut now, limit)?;
                }
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        while !reference.is_empty() || !q.is_empty() {
            drain(&mut q, &mut reference, &mut now, u64::MAX)?;
        }
        prop_assert!(q.pop().is_none());
    }

    /// Time arithmetic never panics and preserves ordering.
    #[test]
    fn time_arithmetic_is_total(a in any::<u64>(), b in any::<u64>()) {
        let ta = SimTime(a);
        let d = Duration(b);
        let later = ta + d;
        prop_assert!(later >= ta);
        prop_assert_eq!(SimTime::ZERO - ta, Duration::ZERO);
        let span = later - ta;
        // Saturating add means the span can be clipped, never inflated.
        prop_assert!(span <= d);
    }

    /// Partitions are symmetric and healing restores exactly the cut pairs.
    #[test]
    fn partitions_symmetric_and_healable(
        a in prop::collection::btree_set(0u32..12, 1..5),
        b in prop::collection::btree_set(0u32..12, 1..5),
    ) {
        let group_a: Vec<NodeId> = a.iter().map(|&n| NodeId(n)).collect();
        let group_b: Vec<NodeId> = b.iter().map(|&n| NodeId(n)).collect();
        let mut net = Network::new(NetConfig::default());
        net.partition(&group_a, &group_b);
        for &x in &group_a {
            for &y in &group_b {
                if x != y {
                    prop_assert!(!net.reachable(x, y));
                    prop_assert!(!net.reachable(y, x));
                }
            }
        }
        net.heal(&group_a, &group_b);
        for x in 0..12 {
            for y in 0..12 {
                prop_assert!(net.reachable(NodeId(x), NodeId(y)));
            }
        }
    }

    /// route() at loss p delivers with a frequency near 1-p, and latency
    /// samples stay within the configured distribution's support.
    #[test]
    fn route_respects_loss_and_latency_bounds(p in 0.0f64..0.9) {
        let cfg = NetConfig {
            default_latency: gridsim::rng::Dist::Uniform { lo: 0.010, hi: 0.020 },
            loss_rate: p,
            ..NetConfig::default()
        };
        let mut net = Network::new(cfg);
        let mut rng = SimRng::new(42);
        let n = 4000;
        let mut delivered = 0;
        for _ in 0..n {
            if let Some(lat) = net.route(&mut rng, NodeId(0), NodeId(1)) {
                delivered += 1;
                prop_assert!(lat >= Duration::from_millis(10));
                prop_assert!(lat <= Duration::from_millis(20));
            }
        }
        let rate = delivered as f64 / n as f64;
        prop_assert!((rate - (1.0 - p)).abs() < 0.05,
            "delivery rate {rate}, expected {}", 1.0 - p);
    }
}

/// Determinism at the world level: the exact same setup twice produces the
/// exact same event count, final clock, and trace.
#[test]
fn world_runs_are_reproducible() {
    use gridsim::prelude::*;
    use gridsim::AnyMsg;

    struct Chatter {
        peer: Option<Addr>,
        hops: u32,
    }
    #[derive(Debug)]
    struct M(u32);
    impl Component for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(p) = self.peer {
                ctx.send(p, M(0));
            }
            let jitter = ctx.rng().range_u64(1, 50);
            ctx.set_timer(Duration::from_millis(jitter), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            if self.hops < 40 {
                let jitter = ctx.rng().range_u64(1, 50);
                ctx.set_timer(Duration::from_millis(jitter), 0);
                self.hops += 1;
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            let M(n) = *msg.downcast::<M>().unwrap();
            if n < 200 {
                ctx.send(from, M(n + 1));
            }
        }
    }

    fn run() -> (u64, SimTime, usize) {
        let mut w = gridsim::World::new(
            gridsim::Config::default()
                .seed(99)
                .net(NetConfig {
                    loss_rate: 0.05,
                    ..NetConfig::default()
                })
                .with_trace(),
        );
        let a = w.add_node("a");
        let b = w.add_node("b");
        let pb = w.add_component(
            b,
            "x",
            Chatter {
                peer: None,
                hops: 0,
            },
        );
        w.add_component(
            a,
            "y",
            Chatter {
                peer: Some(pb),
                hops: 0,
            },
        );
        w.run_until_quiescent();
        (w.events_processed(), w.now(), w.trace().events().len())
    }

    assert_eq!(run(), run());
}
