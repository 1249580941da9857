//! Execution tracing.
//!
//! Traces serve three purposes: the determinism tests compare whole traces
//! across runs, the Figure-1/Figure-2 experiments print the protocol
//! "ladder" (who sent what to whom, and which state transitions followed) to
//! show the reproduction walks the same path as the paper's diagrams, and
//! the [`crate::obs`] layer turns them into per-job lifecycle spans and
//! exportable timelines.
//!
//! The sink has two delivery paths:
//!
//! * an in-memory vector (`enabled`) — unbounded, convenient for tests and
//!   short experiments that inspect [`TraceSink::events`] afterwards;
//! * pluggable [`TraceSubscriber`]s — each event is offered to every
//!   subscriber as it is emitted, so a week-long campaign can stream to a
//!   JSONL file or keep only a bounded ring of recent events without the
//!   unbounded vector ever being turned on.
//!
//! [`TraceEvent`] is the only trace record in the workspace: what a
//! component emits, what the flight ring hands back, and what the offline
//! tools decode are the same type. Its two wire formats each live in one
//! module beside it, encoder and decoder together: [`jsonl`] (the
//! text stream a report dir's `trace.jsonl` holds) and [`cgfr`] (the flight recorder's binary
//! dump).

pub mod cgfr;
pub mod jsonl;

use crate::component::Addr;
use crate::time::SimTime;
use std::borrow::Cow;
use std::fmt;

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// The component it is attributed to.
    pub addr: Addr,
    /// Machine-matchable kind, e.g. `"gram.submit"` or `"job.state"`.
    /// Emitters pass a literal (borrowed, no allocation); a record decoded
    /// from a file owns its kind.
    pub kind: Cow<'static, str>,
    /// Human-readable detail.
    pub detail: String,
    /// Kernel event id: the sequence number of the event during whose
    /// processing this record was emitted. Several records can share one
    /// id (one handler, many traces); together with `cause` they form the
    /// happens-before DAG reconstructed by [`crate::obs::causality`].
    pub id: u64,
    /// The id of the nearest *observable* causal ancestor event — the most
    /// recent event on this record's trigger chain that itself emitted a
    /// trace record — or [`NO_CAUSE`](crate::event::NO_CAUSE) for
    /// externally injected stimuli (fault plans, initial posts).
    pub cause: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:>8} {:<24} {}",
            self.time,
            self.addr.to_string(),
            self.kind,
            self.detail
        )
    }
}

/// A consumer of trace events, registered with [`TraceSink::subscribe`].
///
/// Subscribers see every emitted event and run regardless of whether the
/// sink's in-memory vector is enabled — that is what keeps memory bounded
/// on long campaigns.
pub trait TraceSubscriber {
    /// Called once per emitted event, in emission order.
    fn on_event(&mut self, event: &TraceEvent);

    /// Flush any buffered output (e.g. an underlying file). Called by
    /// [`TraceSink::flush`] at end of run; default is a no-op.
    fn flush(&mut self) {}
}

/// Collects trace events and fans them out to subscribers.
///
/// The in-memory vector is disabled by default (tracing a week-long campaign
/// would allocate heavily); experiments that need the full ladder enable it,
/// campaigns attach bounded subscribers instead.
#[derive(Default)]
pub struct TraceSink {
    enabled: bool,
    events: Vec<TraceEvent>,
    subscribers: Vec<Box<dyn TraceSubscriber>>,
    /// Total records emitted (vector + subscribers). The kernel compares
    /// this across a handler to decide whether the event being processed
    /// was *observable* — i.e. whether downstream events should name it as
    /// their `cause` or inherit its own. Never incremented when the sink
    /// is inactive, so causality costs nothing with tracing off.
    emitted: u64,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.enabled)
            .field("events", &self.events.len())
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

impl TraceSink {
    /// A sink in the given state, with no subscribers.
    pub fn new(enabled: bool) -> TraceSink {
        TraceSink {
            enabled,
            events: Vec::new(),
            subscribers: Vec::new(),
            emitted: 0,
        }
    }

    /// Whether an emitted event would go anywhere at all (collected in
    /// memory or streamed to a subscriber). Callers use this to skip
    /// building detail strings entirely — see [`crate::Ctx::trace_with`].
    pub fn is_active(&self) -> bool {
        self.enabled || !self.subscribers.is_empty()
    }

    /// Register a subscriber; it sees every event emitted from now on.
    pub fn subscribe(&mut self, sub: Box<dyn TraceSubscriber>) {
        self.subscribers.push(sub);
    }

    /// Flush all subscribers (call at end of run before reading exports).
    pub fn flush(&mut self) {
        for sub in &mut self.subscribers {
            sub.flush();
        }
    }

    /// Record an event (no-op when disabled and no subscriber is attached).
    /// `id` is the kernel event being processed at emission time and
    /// `cause` its nearest observable ancestor (see [`TraceEvent`]).
    pub fn emit(
        &mut self,
        time: SimTime,
        addr: Addr,
        kind: &'static str,
        detail: String,
        id: u64,
        cause: u64,
    ) {
        if !self.enabled && self.subscribers.is_empty() {
            return;
        }
        self.emitted += 1;
        let event = TraceEvent {
            time,
            addr,
            kind: Cow::Borrowed(kind),
            detail,
            id,
            cause,
        };
        for sub in &mut self.subscribers {
            sub.on_event(&event);
        }
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Total records emitted so far (whether retained in memory or only
    /// streamed to subscribers). Monotone; the kernel samples it around
    /// each handler to detect observable events.
    pub fn emitted_count(&self) -> u64 {
        self.emitted
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of a particular kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Drop all recorded events (subscribers keep what they already saw).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

/// Arbitrary events for the codec proptests. The vendored `proptest` only
/// generates printable-ASCII strings, so hostile text is built here from
/// raw `u32` draws.
#[cfg(test)]
pub(crate) mod arb {
    use super::TraceEvent;
    use crate::component::{Addr, CompId, NodeId};
    use crate::event::NO_CAUSE;
    use crate::time::SimTime;
    use crate::world::EXTERNAL;

    /// One char per word (none for a surrogate): a quarter each from the
    /// characters the encoders must escape or keep whole, ASCII, the BMP,
    /// and every plane.
    pub fn text(words: &[u32]) -> String {
        const NASTY: [char; 12] = [
            '"', '\\', '\n', '\r', '\t', '\0', '\u{1}', '\u{1f}', '/', 'é', '€', '🛰',
        ];
        words
            .iter()
            .filter_map(|&w| match w >> 30 {
                0 => Some(NASTY[w as usize % NASTY.len()]),
                1 => char::from_u32(w % 0x80),
                2 => char::from_u32(w % 0x1_0000),
                _ => char::from_u32(w % 0x11_0000),
            })
            .collect()
    }

    /// An event from raw draws; every fourth `id`, `cause` and address is
    /// the sentinel (`NO_CAUSE`, `EXTERNAL`).
    pub fn event(nums: (u64, u64, u64, u64), kind: &[u32], detail: &[u32]) -> TraceEvent {
        let (time, addr, id, cause) = nums;
        let sentinel = |v: u64| {
            if v.is_multiple_of(4) {
                NO_CAUSE
            } else {
                v >> 2
            }
        };
        TraceEvent {
            time: SimTime(time),
            addr: if addr.is_multiple_of(4) {
                EXTERNAL
            } else {
                Addr {
                    node: NodeId((addr >> 2) as u32),
                    comp: CompId((addr >> 34) as u32),
                }
            },
            kind: text(kind).into(),
            detail: text(detail),
            id: sentinel(id),
            cause: sentinel(cause),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CompId, NodeId};
    use crate::event::NO_CAUSE;

    fn addr() -> Addr {
        Addr {
            node: NodeId(0),
            comp: CompId(1),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = TraceSink::new(false);
        t.emit(SimTime(1), addr(), "x", "y".into(), 0, NO_CAUSE);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let mut t = TraceSink::new(true);
        t.emit(SimTime(1), addr(), "a", "1".into(), 0, NO_CAUSE);
        t.emit(SimTime(2), addr(), "b", "2".into(), 1, 0);
        t.emit(SimTime(3), addr(), "a", "3".into(), 2, 0);
        assert_eq!(t.events().len(), 3);
        let kinds: Vec<_> = t.of_kind("a").map(|e| e.detail.as_str()).collect();
        assert_eq!(kinds, vec!["1", "3"]);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent {
            time: SimTime(1_500_000),
            addr: addr(),
            kind: "k".into(),
            detail: "d".into(),
            id: 7,
            cause: NO_CAUSE,
        };
        let s = format!("{e}");
        assert!(s.contains("1.500s"));
        assert!(s.contains("n0/c1"));
        assert!(s.contains('k'));
    }

    #[test]
    fn subscribers_see_events_even_when_vector_disabled() {
        struct Counter(std::rc::Rc<std::cell::Cell<u32>>);
        impl TraceSubscriber for Counter {
            fn on_event(&mut self, _event: &TraceEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut t = TraceSink::new(false);
        t.subscribe(Box::new(Counter(count.clone())));
        t.emit(SimTime(1), addr(), "a", "1".into(), 0, NO_CAUSE);
        t.emit(SimTime(2), addr(), "b", "2".into(), 1, 0);
        assert!(t.events().is_empty(), "vector stays off");
        assert_eq!(count.get(), 2, "subscriber saw both events");
    }
}
