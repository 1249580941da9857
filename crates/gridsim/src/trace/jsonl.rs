//! The JSONL wire format of a trace: what `--trace-out` streams and
//! `condor-g-trace` reads back.
//!
//! Each line is one object with a fixed key set, in this order:
//!
//! ```text
//! {"t":1500000,"node":3,"comp":0,"kind":"gram.submit","detail":"...","id":42,"cause":null}
//! ```
//!
//! `t` is virtual time in microseconds; `node`/`comp` are the emitting
//! component's address; `id` is the kernel event the record was emitted
//! under and `cause` its nearest observable causal ancestor. `null` stands
//! for [`NO_CAUSE`] — a DAG root, or a record emitted during world setup —
//! so the happens-before DAG can be rebuilt from the file alone.
//!
//! The encoding is fully determined by the event — same seed, same bytes —
//! which is what the trace-determinism tests assert. The decoder is
//! hand-rolled because the workspace builds offline with no JSON
//! dependency; it takes the keys in any order and accepts exactly the
//! escapes the encoder produces (`\" \\ \n \r \t \uXXXX`) plus `\/`, `\b`,
//! `\f` for good measure.

use super::TraceEvent;
use crate::component::{Addr, CompId, NodeId};
use crate::event::NO_CAUSE;
use crate::obs::export::json_string;
use crate::time::SimTime;
use std::borrow::Cow;
use std::fmt;

/// Render `id`/`cause`: the [`NO_CAUSE`] sentinel becomes `null`,
/// everything else a plain integer.
fn event_ref(v: u64) -> String {
    if v == NO_CAUSE {
        "null".to_string()
    } else {
        v.to_string()
    }
}

/// Render one event as a single JSONL line (without trailing newline).
pub fn encode_line(event: &TraceEvent) -> String {
    format!(
        "{{\"t\":{},\"node\":{},\"comp\":{},\"kind\":{},\"detail\":{},\"id\":{},\"cause\":{}}}",
        event.time.micros(),
        event.addr.node.0,
        event.addr.comp.0,
        json_string(&event.kind),
        json_string(&event.detail),
        event_ref(event.id),
        event_ref(event.cause),
    )
}

/// A decode failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Decode a whole JSONL document (blank lines are skipped).
pub fn decode(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(decode_line(line).map_err(|msg| ParseError { line: i + 1, msg })?);
    }
    Ok(out)
}

/// Decode one JSONL line.
pub fn decode_line(line: &str) -> Result<TraceEvent, String> {
    let mut s = Scan { s: line, i: 0 };
    s.ws();
    s.eat(b'{')?;
    let (mut t, mut node, mut comp) = (None, None, None);
    let (mut kind, mut detail) = (None, None);
    let (mut id, mut cause) = (None, None);
    loop {
        s.ws();
        if s.peek() == Some(b'}') {
            s.i += 1;
            break;
        }
        let key = s.string()?;
        s.ws();
        s.eat(b':')?;
        s.ws();
        match key.as_str() {
            "t" => t = Some(s.integer()?),
            "node" => node = Some(s.id32()?),
            "comp" => comp = Some(s.id32()?),
            "kind" => kind = Some(s.string()?),
            "detail" => detail = Some(s.string()?),
            "id" => id = Some(s.integer_or_null()?),
            "cause" => cause = Some(s.integer_or_null()?),
            other => return Err(format!("unknown key {other:?}")),
        }
        s.ws();
        match s.peek() {
            Some(b',') => s.i += 1,
            Some(b'}') => {
                s.i += 1;
                break;
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    s.ws();
    if s.i != line.len() {
        return Err("trailing characters after object".into());
    }
    Ok(TraceEvent {
        time: SimTime(t.ok_or("missing \"t\"")?),
        addr: Addr {
            node: NodeId(node.ok_or("missing \"node\"")?),
            comp: CompId(comp.ok_or("missing \"comp\"")?),
        },
        kind: Cow::Owned(kind.ok_or("missing \"kind\"")?),
        detail: detail.ok_or("missing \"detail\"")?,
        id: id.ok_or("missing \"id\"")?,
        cause: cause.ok_or("missing \"cause\"")?,
    })
}

/// Byte scanner over one line.
struct Scan<'a> {
    s: &'a str,
    i: usize,
}

impl Scan<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?}", want as char))
        }
    }

    fn integer(&mut self) -> Result<u64, String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected an integer".into());
        }
        self.s[start..self.i]
            .parse()
            .map_err(|_| "integer out of range".to_string())
    }

    /// A node or component id: an integer that fits the address types.
    fn id32(&mut self) -> Result<u32, String> {
        u32::try_from(self.integer()?).map_err(|_| "integer out of range".to_string())
    }

    fn integer_or_null(&mut self) -> Result<u64, String> {
        if self.s.as_bytes()[self.i..].starts_with(b"null") {
            self.i += 4;
            Ok(NO_CAUSE)
        } else {
            self.integer()
        }
    }

    /// A JSON string, including the quotes, undoing the encoder's escapes.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            // `get` refuses a range that ends inside a
                            // multi-byte character.
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        }
                        c => return Err(format!("unknown escape \\{}", c as char)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched: copy the
                    // whole scalar, not byte by byte.
                    let c = self
                        .s
                        .get(self.i..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::arb;
    use proptest::prelude::*;

    const PLAIN: &str =
        r#"{"t":1500000,"node":3,"comp":0,"kind":"gram.submit","detail":"x","id":42,"cause":null}"#;

    #[test]
    fn decodes_a_plain_line() {
        let e = decode_line(PLAIN).unwrap();
        assert_eq!(e.time, SimTime(1_500_000));
        assert_eq!((e.addr.node, e.addr.comp), (NodeId(3), CompId(0)));
        assert_eq!(e.kind, "gram.submit");
        assert_eq!(e.detail, "x");
        assert_eq!(e.id, 42);
        assert_eq!(e.cause, NO_CAUSE);
        assert_eq!(encode_line(&e), PLAIN);
    }

    #[test]
    fn escapes_quotes_and_newlines() {
        let mut e = decode_line(PLAIN).unwrap();
        e.detail = "say \"hi\"\nplease".into();
        assert!(encode_line(&e).contains(r#""detail":"say \"hi\"\nplease","#));
    }

    #[test]
    fn document_decode_reports_line_numbers_and_skips_blanks() {
        let events = decode(&format!("{PLAIN}\n\n{PLAIN}\n")).unwrap();
        assert_eq!(events.len(), 2);

        let err = decode(&format!("{PLAIN}\nnot json\n")).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "{",
            "{}",
            r#"{"t":1}"#,
            r#"{"t":1,"node":0,"comp":0,"kind":"k","detail":"","id":0,"cause":null} x"#,
            r#"{"t":1,"node":0,"comp":0,"kind":"k","detail":"unterminated,"id":0,"cause":null}"#,
            r#"{"t":1,"node":0,"comp":0,"kind":"k","detail":"","id":0,"cause":null,"extra":1}"#,
            r#"{"t":1,"node":4294967296,"comp":0,"kind":"k","detail":"","id":0,"cause":null}"#,
            r#"{"t":1,"node":0,"comp":0,"kind":"k","detail":"\u12é","id":0,"cause":null}"#,
        ] {
            assert!(decode_line(bad).is_err(), "accepted: {bad}");
        }
    }

    proptest! {
        /// Quotes, backslashes, control bytes, multi-byte UTF-8, the empty
        /// string, `NO_CAUSE` and `EXTERNAL` all survive encode → decode.
        #[test]
        fn decode_inverts_encode(
            nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            kind in proptest::collection::vec(any::<u32>(), 0..6),
            detail in proptest::collection::vec(any::<u32>(), 0..40)
        ) {
            let event = arb::event(nums, &kind, &detail);
            let line = encode_line(&event);
            prop_assert!(!line.contains('\n'), "one event, one line: {line}");
            prop_assert_eq!(decode_line(&line), Ok(event));
        }

        /// Garbage is an `Err`, never a panic: raw bytes, and a valid line
        /// cut short or with one byte overwritten.
        #[test]
        fn decode_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..120),
            detail in proptest::collection::vec(any::<u32>(), 0..12),
            at in any::<usize>()
        ) {
            let _ = decode_line(&String::from_utf8_lossy(&bytes));
            let line = encode_line(&arb::event((1, 2, 3, 4), &[], &detail)).into_bytes();
            let at = at % line.len();
            let _ = decode_line(&String::from_utf8_lossy(&line[..at]));
            let mut hit = line;
            hit[at] = bytes.first().copied().unwrap_or(b'"');
            let _ = decode_line(&String::from_utf8_lossy(&hit));
        }
    }
}
