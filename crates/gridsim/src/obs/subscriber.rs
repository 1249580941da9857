//! Trace subscribers: kind/node filters and a JSONL exporter.
//!
//! Each subscriber plugs into [`crate::trace::TraceSink::subscribe`] and
//! observes every emitted [`TraceEvent`]; composition is by wrapping
//! ([`Filtered`] around any inner subscriber).

use crate::component::NodeId;
use crate::trace::{TraceEvent, TraceSubscriber};
use std::io::Write;

/// A predicate over trace events: which kinds (by prefix) and which nodes to
/// keep. An empty filter matches everything.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    kind_prefixes: Vec<String>,
    nodes: Vec<NodeId>,
}

impl TraceFilter {
    /// A filter matching every event.
    pub fn any() -> TraceFilter {
        TraceFilter::default()
    }

    /// Keep events whose kind starts with `prefix` (e.g. `"gram."` keeps
    /// `gram.submit`, `gram.dedup`, ...). Multiple prefixes OR together.
    pub fn kind_prefix(mut self, prefix: &str) -> TraceFilter {
        self.kind_prefixes.push(prefix.to_string());
        self
    }

    /// Keep only events attributed to components on `node`. Multiple nodes
    /// OR together.
    pub fn node(mut self, node: NodeId) -> TraceFilter {
        self.nodes.push(node);
        self
    }

    /// Whether `event` passes the filter.
    pub fn matches(&self, event: &TraceEvent) -> bool {
        let kind_ok = self.kind_prefixes.is_empty()
            || self
                .kind_prefixes
                .iter()
                .any(|p| event.kind.starts_with(p.as_str()));
        let node_ok = self.nodes.is_empty() || self.nodes.contains(&event.addr.node);
        kind_ok && node_ok
    }
}

/// Wraps another subscriber, forwarding only events that pass a
/// [`TraceFilter`].
pub struct Filtered<S> {
    filter: TraceFilter,
    inner: S,
}

impl<S: TraceSubscriber> Filtered<S> {
    /// Forward events matching `filter` to `inner`.
    pub fn new(filter: TraceFilter, inner: S) -> Filtered<S> {
        Filtered { filter, inner }
    }
}

impl<S: TraceSubscriber> TraceSubscriber for Filtered<S> {
    fn on_event(&mut self, event: &TraceEvent) {
        if self.filter.matches(event) {
            self.inner.on_event(event);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Streams every event as one JSON object per line (JSONL) to a writer.
///
/// The encoding is fully determined by the event stream — same seed, same
/// bytes — which is what the trace-determinism tests assert.
pub struct JsonlWriter<W: Write> {
    writer: W,
    lines: u64,
    errored: bool,
}

impl<W: Write> JsonlWriter<W> {
    /// Export events to `writer`.
    pub fn new(writer: W) -> JsonlWriter<W> {
        JsonlWriter {
            writer,
            lines: 0,
            errored: false,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// True if any write failed (export is best-effort; the simulation
    /// never aborts on trace I/O errors).
    pub fn errored(&self) -> bool {
        self.errored
    }
}

impl JsonlWriter<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and stream to it through a [`BufWriter`]
    /// (one `write(2)` per ~8 KiB instead of per event — a trace-heavy
    /// campaign emits millions of lines). The subscriber's `flush` hook
    /// drains the buffer once when the world finishes.
    ///
    /// [`BufWriter`]: std::io::BufWriter
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(JsonlWriter::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

/// Render `id`/`cause` for JSONL: the [`NO_CAUSE`](crate::event::NO_CAUSE)
/// sentinel becomes `null`, everything else a plain integer.
fn jsonl_event_ref(v: u64) -> String {
    if v == crate::event::NO_CAUSE {
        "null".to_string()
    } else {
        v.to_string()
    }
}

/// Render one event as a single JSONL line (without trailing newline).
/// `id` is the kernel event the record was emitted under and `cause` its
/// nearest observable causal ancestor (`null` for DAG roots); together
/// they let `condor-g-trace` rebuild the happens-before DAG offline.
pub fn jsonl_line(event: &TraceEvent) -> String {
    format!(
        "{{\"t\":{},\"node\":{},\"comp\":{},\"kind\":{},\"detail\":{},\"id\":{},\"cause\":{}}}",
        event.time.micros(),
        event.addr.node.0,
        event.addr.comp.0,
        crate::obs::export::json_string(event.kind),
        crate::obs::export::json_string(&event.detail),
        jsonl_event_ref(event.id),
        jsonl_event_ref(event.cause),
    )
}

impl<W: Write> TraceSubscriber for JsonlWriter<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        if self.errored {
            return;
        }
        let line = jsonl_line(event);
        if writeln!(self.writer, "{line}").is_err() {
            self.errored = true;
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.errored = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Addr, CompId};
    use crate::obs::FlightRecorder;
    use crate::time::SimTime;

    fn ev(t: u64, node: u32, kind: &'static str, detail: &str) -> TraceEvent {
        TraceEvent {
            time: SimTime(t),
            addr: Addr {
                node: NodeId(node),
                comp: CompId(0),
            },
            kind,
            detail: detail.to_string(),
            id: 42,
            cause: crate::event::NO_CAUSE,
        }
    }

    #[test]
    fn filter_by_kind_prefix_and_node() {
        let f = TraceFilter::any().kind_prefix("gram.").node(NodeId(1));
        assert!(f.matches(&ev(0, 1, "gram.submit", "")));
        assert!(!f.matches(&ev(0, 2, "gram.submit", "")), "wrong node");
        assert!(!f.matches(&ev(0, 1, "gass.get", "")), "wrong kind");
        assert!(TraceFilter::any().matches(&ev(0, 9, "anything", "")));
    }

    #[test]
    fn filtered_forwards_matching_only() {
        let ring = FlightRecorder::new(100);
        let handle = ring.clone();
        let mut sub = Filtered::new(TraceFilter::any().kind_prefix("a"), ring);
        sub.on_event(&ev(1, 0, "abc", "yes"));
        sub.on_event(&ev(2, 0, "xyz", "no"));
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.records()[0].detail, "yes");
    }

    #[test]
    fn jsonl_escapes_and_counts_lines() {
        let mut out = Vec::new();
        {
            let mut w = JsonlWriter::new(&mut out);
            w.on_event(&ev(1_500_000, 3, "k", "say \"hi\"\nplease"));
            w.flush();
            assert_eq!(w.lines(), 1);
            assert!(!w.errored());
        }
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"t\":1500000,\"node\":3,\"comp\":0,\"kind\":\"k\",\
             \"detail\":\"say \\\"hi\\\"\\nplease\",\"id\":42,\"cause\":null}\n"
        );
    }
}
