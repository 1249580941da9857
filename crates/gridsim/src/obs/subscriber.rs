//! The streaming JSONL exporter.
//!
//! [`JsonlWriter`] plugs into [`crate::trace::TraceSink::subscribe`] and
//! writes every emitted [`TraceEvent`] as one [`crate::trace::jsonl`] line.

use crate::trace::{jsonl, TraceEvent, TraceSubscriber};
use std::io::Write;

/// Streams every event as one JSON object per line (JSONL) to a writer.
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

impl<W: Write> TraceSubscriber for JsonlWriter<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        if self.errored {
            return;
        }
        let line = jsonl::encode_line(event);
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
    use crate::world::EXTERNAL;

    #[test]
    fn writes_one_line_per_event_and_counts_them() {
        let event = TraceEvent {
            time: crate::time::SimTime(1_500_000),
            addr: EXTERNAL,
            kind: "k".into(),
            detail: "d".into(),
            id: 42,
            cause: crate::event::NO_CAUSE,
        };
        let mut out = Vec::new();
        {
            let mut w = JsonlWriter::new(&mut out);
            w.on_event(&event);
            w.on_event(&event);
            w.flush();
            assert_eq!(w.lines(), 2);
            assert!(!w.errored());
        }
        let line = jsonl::encode_line(&event);
        assert_eq!(String::from_utf8(out).unwrap(), format!("{line}\n{line}\n"));
    }
}
