//! The event queue.
//!
//! Events are keyed by `(time, seq)`: `seq` is a monotonically increasing
//! sequence number assigned at push time (or reserved ahead of the push, see
//! [`EventQueue::reserve_seq`]), so simultaneous events fire in the order
//! they were scheduled. That total order is the root of the kernel's
//! determinism guarantee.
//!
//! The implementation is a two-level calendar queue tuned for the timer-dense
//! workloads grid components generate (heartbeats, retries, polling):
//!
//! * an **active heap** holding every event in the current 1024 µs slot,
//! * **L0**: 1024 buckets of 1024 µs each — exactly one L1 slot (~1.05 s),
//!   aligned to the L1 boundary,
//! * **L1**: 1024 buckets of ~1.05 s each (~18 simulated minutes), aligned,
//! * an **overflow heap** for everything beyond the L1 horizon.
//!
//! Pushes and pops are O(1) amortised: most events land directly in an L0/L1
//! bucket and are only heap-ordered once they reach the (small) active heap.
//! Bucket windows are *aligned*, not sliding, so an event can never be filed
//! into a bucket that drains after a later-keyed event — the pop sequence is
//! exactly the `(time, seq)` order a single binary heap would produce, which
//! the determinism tests assert byte-for-byte.
//!
//! Events themselves live in one slab of slots threaded by a free list. A
//! bucket is a `u32` head of a list through that slab and the heaps order
//! 24-byte `(time, seq, slot)` keys, so an event's payload is written once
//! on push and read once on pop, and the queue's memory is the slab — as
//! large as the most events ever pending at once — plus two fixed 4 KB
//! tables. No bucket owns capacity, so a burst that once hit a bucket
//! leaves nothing behind in it.

use crate::component::{Addr, AnyMsg, NodeId, TimerId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver `msg` to `to` (dropped if the target is dead, or if its id
    /// was bound to its current name after `created`).
    Deliver {
        /// Sender.
        from: Addr,
        /// Receiver.
        to: Addr,
        /// Payload.
        msg: AnyMsg,
        /// Queue sequence number the message exists since: the event's own
        /// for a send, its flow's start for a bulk flow's completion.
        created: u64,
    },
    /// Fire timer `id` with `tag` on `on` (dropped if cancelled, dead, or
    /// older than the incarnation now at `on`).
    Timer {
        /// Owning component.
        on: Addr,
        /// Timer handle (for cancellation checks).
        id: TimerId,
        /// Caller-chosen discriminator.
        tag: u64,
    },
    /// Crash a node (scripted by a fault plan or an operator component).
    NodeCrash {
        /// The node.
        node: NodeId,
    },
    /// Restart a crashed node.
    NodeRestart {
        /// The node.
        node: NodeId,
    },
    /// Begin a network partition between the two groups.
    PartitionStart {
        /// One side.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
    },
    /// Heal a network partition.
    PartitionEnd {
        /// One side.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
    },
    /// Change the global message-loss probability.
    SetLossRate {
        /// New rate (NaN restores the configured default).
        rate: f64,
    },
    /// The flow network's one armed completion: the flow with the earliest
    /// `(deadline, stamp)` when it was pushed, filed under that flow's
    /// reserved sequence number ([`EventQueue::reserve_seq`]). Valid only
    /// if the flow still exists and both its current deadline and its
    /// current stamp equal the event's `(time, seq)`; otherwise the flow
    /// was rescheduled since, and the kernel just re-arms.
    FlowDone {
        /// The flow id.
        flow: u64,
    },
    /// Take a flow-mode topology link down (crossing flows abort).
    LinkDown {
        /// The link name.
        link: String,
    },
    /// Bring a downed flow-mode link back up.
    LinkUp {
        /// The link name.
        link: String,
    },
    /// Override a flow-mode link's capacity; active flows rescale.
    LinkBandwidth {
        /// The link name.
        link: String,
        /// New capacity in bytes/s (NaN restores the configured value).
        capacity: f64,
    },
}

/// Causal-provenance sentinel: "no observable cause" (external stimulus,
/// fault-plan injection, or a chain on which nothing was ever traced).
/// Event sequence numbers start at 0, so `u64::MAX` can never collide.
pub const NO_CAUSE: u64 = u64::MAX;

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Push-order tie-breaker.
    pub seq: u64,
    /// Sequence number of the nearest *observable* causal ancestor — the
    /// most recent event on this event's trigger chain during whose
    /// processing a trace record was emitted — or [`NO_CAUSE`]. Captured
    /// automatically by the kernel at scheduling time; components never
    /// see or set it. The trace layer exports `(id, cause)` pairs and
    /// `obs::causality` rebuilds the happens-before DAG from them.
    pub cause: u64,
    /// The action.
    pub kind: EventKind,
}

/// log2 of the L0 bucket width in microseconds (1024 µs ≈ 1 ms).
const B0: u32 = 10;
/// log2 of the L1 bucket width in microseconds (~1.05 s). Must equal
/// `B0 + log2(N0)` so L0 covers exactly one L1 slot.
const B1: u32 = 20;
/// Buckets per level (a power of two, for cheap modular indexing).
const N: usize = 1024;
/// Words in each occupancy bitmap.
const WORDS: usize = N / 64;
/// End of a slot list / empty bucket.
const NIL: u32 = u32::MAX;

/// First set bucket index `>= from`, or `None`.
fn scan(bits: &[u64; WORDS], from: usize) -> Option<usize> {
    if from >= N {
        return None;
    }
    let mut w = from / 64;
    let mut word = bits[w] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        word = bits[w];
    }
}

/// A slot's ordering key and list link. Kept apart from the payload so
/// that refiling a bucket walks 24-byte records, not whole events.
#[derive(Debug, Clone, Copy)]
struct Link {
    time: u64,
    seq: u64,
    /// Next slot in the same bucket (or on the free list), or [`NIL`].
    next: u32,
}

/// What a slot carries besides its key; `kind` is `None` while the slot
/// is on the free list.
#[derive(Debug)]
struct Payload {
    cause: u64,
    kind: Option<EventKind>,
}

/// A heap entry, earliest first: `(time, seq, slot)` — the event's key and
/// the slot that holds the rest (`seq` is unique, so `slot` never decides).
type Key = Reverse<(u64, u64, u32)>;

/// Earliest-first event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue {
    /// Keys and links of every slot ever in use at once; parallel to
    /// `payloads`. A popped slot goes on the free list and is the next one
    /// handed out, so both vectors are as long as the largest number of
    /// events that were ever pending together, whatever buckets they hit.
    links: Vec<Link>,
    payloads: Vec<Payload>,
    /// Head of the free-slot list through `links`.
    free: u32,
    /// Events in L0 slots `<= cur0`, heap-ordered by `(time, seq)`.
    active: BinaryHeap<Key>,
    /// Head of the slot list of each L0 slot of the current L1 slot (index
    /// `slot0 % N`).
    l0: [u32; N],
    l0_bits: [u64; WORDS],
    /// Head of the slot list of each L1 slot of the current horizon (index
    /// `slot1 % N`). Invariant: every event in a list shares the same
    /// absolute slot1, which lies in `(cur1, cur1 + N)`.
    l1: [u32; N],
    l1_bits: [u64; WORDS],
    /// Events beyond the L1 horizon at push time.
    overflow: BinaryHeap<Key>,
    /// The L0 slot currently drained into `active`.
    cur0: u64,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue {
            links: Vec::new(),
            payloads: Vec::new(),
            free: NIL,
            active: BinaryHeap::new(),
            l0: [NIL; N],
            l0_bits: [0; WORDS],
            l1: [NIL; N],
            l1_bits: [0; WORDS],
            overflow: BinaryHeap::new(),
            cur0: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `kind` at `time`, recording `cause` as its causal ancestor
    /// (use [`NO_CAUSE`] for external stimuli).
    pub fn push(&mut self, time: SimTime, kind: EventKind, cause: u64) {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, kind, cause);
    }

    /// Take the next sequence number without scheduling anything: the
    /// caller holds the queue position a `push` right now would get, and
    /// may claim it later with [`push_reserved`](Self::push_reserved).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The sequence number the next `push` will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedule `kind` at `(time, seq)` for a `seq` obtained from
    /// [`reserve_seq`](Self::reserve_seq). The key must lie after every
    /// event already popped; it may lie before events already queued
    /// (same `time`, larger `seq`), and it then pops before them.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind, cause: u64) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.len += 1;
        let time = time.0;
        let payload = Payload {
            cause,
            kind: Some(kind),
        };
        let mut slot = self.free;
        if slot == NIL {
            slot = self.links.len() as u32;
            assert!(self.links.len() < NIL as usize, "2^32 pending events");
            self.links.push(Link {
                time,
                seq,
                next: NIL,
            });
            self.payloads.push(payload);
        } else {
            let link = &mut self.links[slot as usize];
            self.free = link.next;
            (link.time, link.seq) = (time, seq);
            self.payloads[slot as usize] = payload;
        }
        self.file(slot, time, seq);
    }

    /// Put a filled slot where its time belongs relative to the cursor.
    fn file(&mut self, slot: u32, time: u64, seq: u64) {
        let s0 = time >> B0;
        if s0 <= self.cur0 {
            // Current (or already-drained) slot: compete in the heap.
            self.active.push(Reverse((time, seq, slot)));
        } else if s0 >> (B1 - B0) == self.cur0 >> (B1 - B0) {
            // Later slot of the current L1 slot: direct L0 filing.
            self.file_l0(slot, s0);
        } else {
            let s1 = time >> B1;
            let cur1 = self.cur0 >> (B1 - B0);
            if s1 - cur1 < N as u64 {
                // Within the L1 horizon: direct L1 filing.
                let idx = (s1 as usize) & (N - 1);
                self.links[slot as usize].next = self.l1[idx];
                self.l1[idx] = slot;
                self.l1_bits[idx / 64] |= 1 << (idx % 64);
            } else {
                self.overflow.push(Reverse((time, seq, slot)));
            }
        }
    }

    /// Prepend `slot` to the list of L0 slot `s0` (of the current L1 slot).
    fn file_l0(&mut self, slot: u32, s0: u64) {
        let idx = (s0 as usize) & (N - 1);
        self.links[slot as usize].next = self.l0[idx];
        self.l0[idx] = slot;
        self.l0_bits[idx / 64] |= 1 << (idx % 64);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_due(SimTime::MAX)
    }

    /// Remove and return the earliest event if it fires at or before
    /// `limit`. The cursor may move up to `limit`'s slot on the way, so
    /// nothing is inspected twice; an event pushed afterwards into a slot
    /// the cursor has reached competes in the active heap and still pops
    /// in `(time, seq)` order.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<Event> {
        loop {
            if let Some(&Reverse((time, seq, slot))) = self.active.peek() {
                if time > limit.0 {
                    return None;
                }
                self.active.pop();
                self.len -= 1;
                let link = &mut self.links[slot as usize];
                link.next = self.free;
                self.free = slot;
                let payload = &mut self.payloads[slot as usize];
                return Some(Event {
                    time: SimTime(time),
                    seq,
                    cause: payload.cause,
                    kind: payload.kind.take().expect("queued slot holds an event"),
                });
            }
            if self.len == 0 || !self.advance(limit.0) {
                return None;
            }
        }
    }

    /// Move the cursor to the next occupied slot that starts at or before
    /// `limit`, and return whether it moved. Only called when `active` is
    /// empty and at least one event remains.
    fn advance(&mut self, limit: u64) -> bool {
        // Later L0 bucket within the current L1 slot?
        let base0 = self.cur0 & !(N as u64 - 1);
        let lo = (self.cur0 - base0) as usize + 1;
        if let Some(idx) = scan(&self.l0_bits, lo) {
            let s0 = base0 + idx as u64;
            if s0 << B0 > limit {
                return false;
            }
            self.drain_l0(s0);
            return true;
        }
        // Advance to the next occupied L1 slot: the earliest of the first
        // set L1 bucket and the overflow heap's front. Both can hold events
        // for the same slot (filed at different horizons), so drain both.
        let cur1 = self.cur0 >> (B1 - B0);
        let bucket_s1 = {
            let lo1 = ((cur1 as usize) & (N - 1)) + 1;
            // Buckets wrap modulo N: scan above the cursor, then below.
            scan(&self.l1_bits, lo1)
                .map(|idx| base_plus(cur1, lo1, idx))
                .or_else(|| scan(&self.l1_bits, 0).map(|idx| base_plus(cur1, 0, idx)))
        };
        let overflow_s1 = self.overflow.peek().map(|Reverse(k)| k.0 >> B1);
        let target = match (bucket_s1, overflow_s1) {
            (Some(b), Some(o)) => b.min(o),
            (Some(b), None) => b,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 with every level empty"),
        };
        if target << B1 > limit {
            return false;
        }
        // Refile the slot's events by L0 slot; its first L0 slot is current
        // from here on, so what landed there goes straight to the heap.
        self.cur0 = target << (B1 - B0);
        if bucket_s1 == Some(target) {
            let idx = (target as usize) & (N - 1);
            self.l1_bits[idx / 64] &= !(1 << (idx % 64));
            let mut slot = std::mem::replace(&mut self.l1[idx], NIL);
            while slot != NIL {
                let Link { time, next, .. } = self.links[slot as usize];
                self.file_l0(slot, time >> B0);
                slot = next;
            }
        }
        while let Some(&Reverse((time, _, slot))) = self.overflow.peek() {
            if time >> B1 != target {
                break;
            }
            self.overflow.pop();
            self.file_l0(slot, time >> B0);
        }
        self.drain_l0(self.cur0);
        true
    }

    /// Make L0 slot `s0` current: move its list into the heap.
    fn drain_l0(&mut self, s0: u64) {
        self.cur0 = s0;
        let idx = (s0 as usize) & (N - 1);
        self.l0_bits[idx / 64] &= !(1 << (idx % 64));
        let mut slot = std::mem::replace(&mut self.l0[idx], NIL);
        while slot != NIL {
            let Link { time, seq, next } = self.links[slot as usize];
            self.active.push(Reverse((time, seq, slot)));
            slot = next;
        }
    }

    /// Number of pending events across *every* level of the calendar —
    /// the active heap, all L0/L1 buckets, and the overflow heap. The
    /// count is maintained on push/pop (bucket redistribution in `advance`
    /// moves events between levels without touching it), so the profiler's
    /// queue-depth samples always see the true total, not just the active
    /// slot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots in the slab: the largest number of events that were ever
    /// pending at once.
    pub fn slots(&self) -> usize {
        self.links.len()
    }
}

/// Absolute L1 slot for bucket `idx` found scanning from `lo` with the
/// cursor at `cur1`: the smallest slot `> cur1` congruent to `idx` mod N.
fn base_plus(cur1: u64, lo: usize, idx: usize) -> u64 {
    let base = cur1 & !(N as u64 - 1);
    let abs = base + idx as u64;
    debug_assert!(lo == 0 || idx >= lo);
    if abs > cur1 {
        abs
    } else {
        abs + N as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CompId, NodeId};
    use std::cmp::Ordering;

    fn timer_at(q: &mut EventQueue, t: u64, tag: u64) {
        q.push(
            SimTime(t),
            EventKind::Timer {
                on: Addr {
                    node: NodeId(0),
                    comp: CompId(0),
                },
                id: TimerId(tag),
                tag,
            },
            NO_CAUSE,
        );
    }

    fn pop_tag(q: &mut EventQueue) -> (u64, u64) {
        match q.pop().unwrap() {
            Event {
                time,
                kind: EventKind::Timer { tag, .. },
                ..
            } => (time.0, tag),
            other => panic!("unexpected {other:?}"),
        }
    }

    // `BaselineQueue` heap-orders whole events.
    impl PartialEq for Event {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl Eq for Event {}

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we want earliest-first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The original single-binary-heap queue, kept as the reference model
    /// for the calendar queue's pop order.
    #[derive(Default)]
    pub(crate) struct BaselineQueue {
        heap: BinaryHeap<Event>,
        next_seq: u64,
    }

    impl BaselineQueue {
        pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event {
                time,
                seq,
                cause: NO_CAUSE,
                kind,
            });
        }
        pub(crate) fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }
        pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<Event> {
            if self.heap.peek()?.time > limit {
                return None;
            }
            self.heap.pop()
        }
        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 30, 3);
        timer_at(&mut q, 10, 1);
        timer_at(&mut q, 20, 2);
        assert_eq!(pop_tag(&mut q), (10, 1));
        assert_eq!(pop_tag(&mut q), (20, 2));
        assert_eq!(pop_tag(&mut q), (30, 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_push_order() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            timer_at(&mut q, 5, tag);
        }
        for tag in 0..100 {
            assert_eq!(pop_tag(&mut q), (5, tag));
        }
    }

    #[test]
    fn pop_due_stops_at_the_limit() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 42, 0);
        timer_at(&mut q, 7, 1);
        assert!(q.pop_due(SimTime(6)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(SimTime(7)).map(|e| e.time), Some(SimTime(7)));
        assert!(q.pop_due(SimTime(41)).is_none());
        assert_eq!(q.pop_due(SimTime(42)).map(|e| e.time), Some(SimTime(42)));
        assert!(q.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn push_behind_an_advanced_cursor_pops_first() {
        // A limit inside the next occupied slot moves the cursor there
        // without popping; events then pushed at earlier times — in that
        // slot and in slots before it — must still come out in key order.
        for first in [6_000u64, 5_000_000, 2_000_000_000, 86_400_000_000] {
            let mut q = EventQueue::new();
            timer_at(&mut q, first, 0);
            assert!(q.pop_due(SimTime(first - 1)).is_none());
            timer_at(&mut q, first - 1, 1);
            timer_at(&mut q, first, 2);
            timer_at(&mut q, first / 2, 3);
            assert_eq!(q.len(), 4);
            assert!(q.pop_due(SimTime(first / 2 - 1)).is_none());
            assert_eq!(pop_tag(&mut q), (first / 2, 3));
            assert_eq!(pop_tag(&mut q), (first - 1, 1));
            assert_eq!(pop_tag(&mut q), (first, 0));
            assert_eq!(pop_tag(&mut q), (first, 2));
            assert!(q.is_empty());
        }
    }

    /// Bytes the queue holds, tables and spare capacity included.
    fn retained_bytes(q: &EventQueue) -> usize {
        std::mem::size_of::<EventQueue>()
            + q.links.capacity() * std::mem::size_of::<Link>()
            + q.payloads.capacity() * std::mem::size_of::<Payload>()
            + (q.active.capacity() + q.overflow.capacity()) * std::mem::size_of::<Key>()
    }

    /// The memory rule: what the queue holds follows the events pending at
    /// once, not the buckets a past burst went through. 1,024 bursts of 512
    /// timers, each in its own L1 slot and drained before the next, peak at
    /// 512 live events. With a `Vec<Event>` per bucket handed back at its
    /// high-water capacity (the layout before the slab) the same schedule
    /// leaves 1,024 L1 buckets x 512 x 80 B = 42 MB behind.
    #[test]
    fn retained_bytes_follow_live_events_not_past_bursts() {
        const BURSTS: u64 = 1024;
        const BURST: u64 = 512;
        let slot_bytes = std::mem::size_of::<Link>() + std::mem::size_of::<Payload>();
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for _ in 0..BURSTS {
            // The next L1 slot: a fresh bucket index every time.
            let start = (now >> B1) + 1;
            for i in 0..BURST {
                timer_at(&mut q, (start << B1) + i * 2_000, i);
            }
            assert_eq!(q.len() as u64, BURST);
            while let Some(e) = q.pop() {
                now = e.time.0;
            }
        }
        assert_eq!(q.slots() as u64, BURST, "slab is peak live events");
        let fixed = std::mem::size_of::<EventQueue>();
        let bound = 2 * BURST as usize * slot_bytes + fixed;
        let held = retained_bytes(&q);
        assert!(
            held <= bound,
            "{held} bytes held after {BURSTS} drained bursts of {BURST}, bound {bound}"
        );
        assert!(fixed <= 2 * N * 4 + 512, "tables are two arrays of heads");
    }

    #[test]
    fn order_spans_every_level() {
        // One event per region: active slot, later L0 bucket, near L1
        // bucket, far L1 bucket, overflow — pushed out of order.
        let day = 86_400_000_000u64; // far beyond the L1 horizon
        let times = [day, 3, 5_000_000, 900, 2_000_000_000, day + 1, 200_000];
        let mut q = EventQueue::new();
        for (tag, &t) in times.iter().enumerate() {
            timer_at(&mut q, t, tag as u64);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &expect in &sorted {
            assert!(q.pop_due(SimTime(expect - 1)).is_none());
            assert_eq!(q.pop_due(SimTime(expect)).map(|e| e.time.0), Some(expect));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn len_counts_events_parked_in_every_level() {
        // Regression guard for queue-depth sampling: events parked in L0
        // buckets, L1 buckets, and the overflow heap must all be visible
        // through `len()`, not only the active heap's contents.
        let day = 86_400_000_000u64;
        let mut q = EventQueue::new();
        timer_at(&mut q, 3, 0); // active slot
        timer_at(&mut q, 500_000, 1); // later L0 bucket
        timer_at(&mut q, 600_000_000, 2); // L1 bucket
        timer_at(&mut q, day, 3); // overflow heap
        assert_eq!(q.len(), 4, "all levels counted");
        assert!(!q.is_empty());
        let _ = q.pop();
        assert_eq!(q.len(), 3, "pop decrements by exactly one");
        // Redistribution (L1 -> L0 -> active) must not change the count.
        assert_eq!(pop_tag(&mut q), (500_000, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(pop_tag(&mut q), (600_000_000, 2));
        assert_eq!(q.len(), 1);
        assert_eq!(pop_tag(&mut q), (day, 3));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Deterministic pseudo-random schedule with re-pushes after pops,
        // exercising bucket wrap-around and overflow migration.
        let mut q = EventQueue::new();
        let mut r = BaselineQueue::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        let step = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        let mut now = 0u64;
        for round in 0..5_000u64 {
            let n = step(&mut x) % 4;
            for _ in 0..n {
                // Mix of near (same ms), mid (seconds), and far (hours).
                let delta = match step(&mut x) % 5 {
                    0 => step(&mut x) % 1_000,
                    1..=2 => step(&mut x) % 5_000_000,
                    3 => step(&mut x) % 2_000_000_000,
                    _ => step(&mut x) % 100_000_000_000,
                };
                timer_at(&mut q, now + delta, round);
                r.push(
                    SimTime(now + delta),
                    EventKind::Timer {
                        on: Addr {
                            node: NodeId(0),
                            comp: CompId(0),
                        },
                        id: TimerId(round),
                        tag: round,
                    },
                );
            }
            // Pop outright, or only up to a limit that may fall short of
            // the next event — the cursor then moves without a pop, and
            // the next round's near pushes land behind it.
            let limit = match step(&mut x) % 4 {
                0 => None,
                1 => Some(SimTime::MAX),
                2 => Some(SimTime(now + step(&mut x) % 3_000)),
                _ => Some(SimTime(now + step(&mut x) % 3_000_000_000)),
            };
            if let Some(limit) = limit {
                match (q.pop_due(limit), r.pop_due(limit)) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.time, a.seq), (b.time, b.seq), "round {round}");
                        now = a.time.0;
                    }
                    (None, None) => {}
                    (a, b) => panic!("due by {limit:?}: {:?} vs {:?}", a.is_some(), b.is_some()),
                }
            }
            assert_eq!(q.len(), r.len(), "round {round}");
        }
        loop {
            match (q.pop(), r.pop()) {
                (Some(a), Some(b)) => assert_eq!((a.time, a.seq), (b.time, b.seq)),
                (None, None) => break,
                (a, b) => panic!("one queue empty: {:?} vs {:?}", a.is_some(), b.is_some()),
            }
        }
    }
}
