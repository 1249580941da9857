//! The one JSONL line writer.
//!
//! [`JsonlWriter`] plugs into [`crate::trace::TraceSink::subscribe`] and
//! writes every emitted [`TraceEvent`] as one [`crate::trace::jsonl`] line;
//! the same writer carries a run's heartbeat and anomaly lines
//! ([`crate::obs::telemetry_line`], [`crate::obs::anomaly_line`]) and the
//! flight recorder's dump.

use crate::trace::{jsonl, TraceEvent, TraceSubscriber};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes one line at a time (JSONL) to a writer. A failed write never
/// stops the simulation: the writer stops writing, keeps the error, and
/// [`TraceSubscriber::flush`] hands it back at the end of the run.
pub struct JsonlWriter<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlWriter<W> {
    /// Write lines to `writer`.
    pub fn new(writer: W) -> JsonlWriter<W> {
        JsonlWriter {
            writer,
            error: None,
        }
    }

    /// Write `line` and a newline; nothing once a write has failed.
    pub fn line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }
}

impl JsonlWriter<BufWriter<File>> {
    /// Create (truncate) `path` and write to it through a buffer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> TraceSubscriber for JsonlWriter<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        self.line(&jsonl::encode_line(event));
    }

    fn flush(&mut self) -> io::Result<()> {
        let flushed = self.writer.flush();
        self.error.take().map_or(flushed, Err)
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
            assert!(w.flush().is_ok());
        }
        let line = jsonl::encode_line(&event);
        assert_eq!(String::from_utf8(out).unwrap(), format!("{line}\n{line}\n"));
    }

    #[test]
    fn a_failed_write_stops_the_writer_and_flush_returns_it() {
        let mut out = [0u8; 4];
        let mut w = JsonlWriter::new(&mut out[..]);
        w.line("ab");
        w.line("toolong");
        w.line("c");
        assert_eq!(w.flush().unwrap_err().kind(), io::ErrorKind::WriteZero);
        assert_eq!(&out, b"ab\nt", "nothing after the failed line");
    }
}
