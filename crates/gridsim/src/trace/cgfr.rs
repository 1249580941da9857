//! CGFR: the binary dump format of the flight recorder
//! ([`crate::obs::FlightRecorder::dump`] writes it, `condor-g-trace flight`
//! reads it back into the same [`TraceEvent`]s every analysis runs on).
//!
//! ```text
//!   magic "CGFR" | version u16 | reason str | anchor str | time u64
//!   | kind count u32 | kinds (str)* | record count u64
//!   | records (time u64, node u32, comp u32, kind u32, id u64, cause u64,
//!              detail str)*
//! ```
//!
//! All integers little-endian; `str` is a u32 byte length + UTF-8 bytes;
//! a record's `kind` indexes the dump-local kind table, which lists kinds
//! in first-appearance order.

use super::TraceEvent;
use crate::component::{Addr, CompId, NodeId};
use crate::time::SimTime;
use std::borrow::Cow;
use std::collections::HashMap;

/// First bytes of every dump.
const MAGIC: [u8; 4] = *b"CGFR";
/// Current format version.
const VERSION: u16 = 1;
/// Fewest bytes a kind-table entry can take (an empty `str`).
const MIN_KIND_BYTES: usize = 4;
/// Fewest bytes a record can take (fixed fields + an empty detail).
const MIN_RECORD_BYTES: usize = 40;

/// Metadata stamped on a dump: why it was taken, around what, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpMeta {
    /// Human-readable trigger reason (detector name + threshold).
    pub reason: String,
    /// The offending job/site the window is anchored on (empty = whole
    /// ring).
    pub anchor: String,
    /// Virtual time of the trigger.
    pub time: SimTime,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode `events` (with `meta`) as one dump.
pub fn encode(meta: &DumpMeta, events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + events.len() * 48);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_str(&mut out, &meta.reason);
    put_str(&mut out, &meta.anchor);
    out.extend_from_slice(&meta.time.micros().to_le_bytes());
    let mut kinds: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    for e in events {
        index.entry(&e.kind).or_insert_with(|| {
            kinds.push(&e.kind);
            (kinds.len() - 1) as u32
        });
    }
    out.extend_from_slice(&(kinds.len() as u32).to_le_bytes());
    for k in &kinds {
        put_str(&mut out, k);
    }
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        out.extend_from_slice(&e.time.micros().to_le_bytes());
        out.extend_from_slice(&e.addr.node.0.to_le_bytes());
        out.extend_from_slice(&e.addr.comp.0.to_le_bytes());
        out.extend_from_slice(&index[&*e.kind].to_le_bytes());
        out.extend_from_slice(&e.id.to_le_bytes());
        out.extend_from_slice(&e.cause.to_le_bytes());
        put_str(&mut out, &e.detail);
    }
    out
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.b.len() - self.i < n {
            return Err(format!(
                "truncated dump: wanted {n} bytes at offset {}, have {}",
                self.i,
                self.b.len() - self.i
            ));
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 in string: {e}"))
    }

    /// An element count, refused unless the bytes that remain can hold
    /// that many elements of at least `min_bytes` each — so no count read
    /// from the file is trusted with an allocation.
    fn count(&self, count: u64, min_bytes: usize, what: &str) -> Result<usize, String> {
        let fit = (self.b.len() - self.i) / min_bytes;
        usize::try_from(count)
            .ok()
            .filter(|&n| n <= fit)
            .ok_or_else(|| format!("truncated dump: {count} {what} declared, room for {fit}"))
    }
}

/// Decode a dump into its metadata and events (order as written). Errors
/// describe the first structural problem encountered.
pub fn decode(bytes: &[u8]) -> Result<(DumpMeta, Vec<TraceEvent>), String> {
    let mut c = Cursor { b: bytes, i: 0 };
    if c.take(4)? != MAGIC {
        return Err("not a flight dump (bad magic; expected CGFR)".to_string());
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(format!(
            "unsupported dump version {version} (this build reads {VERSION})"
        ));
    }
    let reason = c.string()?;
    let anchor = c.string()?;
    let time = SimTime(c.u64()?);
    let kind_count = u64::from(c.u32()?);
    let kind_count = c.count(kind_count, MIN_KIND_BYTES, "kinds")?;
    let mut kinds = Vec::with_capacity(kind_count);
    for _ in 0..kind_count {
        kinds.push(c.string()?);
    }
    let count = c.u64()?;
    let count = c.count(count, MIN_RECORD_BYTES, "records")?;
    let mut events = Vec::with_capacity(count);
    for n in 0..count {
        let time = SimTime(c.u64()?);
        let addr = Addr {
            node: NodeId(c.u32()?),
            comp: CompId(c.u32()?),
        };
        let kind_idx = c.u32()? as usize;
        let kind = kinds
            .get(kind_idx)
            .ok_or_else(|| format!("record {n}: kind index {kind_idx} out of range"))?;
        events.push(TraceEvent {
            time,
            addr,
            kind: Cow::Owned(kind.clone()),
            id: c.u64()?,
            cause: c.u64()?,
            detail: c.string()?,
        });
    }
    if c.i != bytes.len() {
        return Err(format!(
            "trailing garbage: {} bytes past the last record",
            bytes.len() - c.i
        ));
    }
    Ok((
        DumpMeta {
            reason,
            anchor,
            time,
        },
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_CAUSE;
    use crate::trace::arb;
    use proptest::prelude::*;

    fn meta() -> DumpMeta {
        DumpMeta {
            reason: "stuck_job: oldest waited 99s".to_string(),
            anchor: "gj42".to_string(),
            time: SimTime(123_456_789),
        }
    }

    fn one_record() -> Vec<u8> {
        encode(&meta(), &[arb::event((1, 2, 3, NO_CAUSE), &[], &[])])
    }

    #[test]
    fn layout_is_version_1() {
        let bytes = encode(&meta(), &[]);
        assert_eq!(&bytes[..6], b"CGFR\x01\x00");
        // header + two strs + time + empty kind table + zero records
        assert_eq!(bytes.len(), 6 + (4 + 28) + (4 + 4) + 8 + 4 + 8);
        assert_eq!(
            one_record().len(),
            bytes.len() + MIN_KIND_BYTES + MIN_RECORD_BYTES
        );
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        assert!(decode(b"nope").is_err());
        assert!(decode(b"JUNKJUNKJUNK").is_err());
        let mut bytes = one_record();
        // Truncation anywhere inside the record section errors cleanly.
        bytes.truncate(bytes.len() - 3);
        assert!(decode(&bytes).is_err());
        // Version bump is refused.
        let mut versioned = encode(&meta(), &[]);
        versioned[4] = 0xff;
        let err = decode(&versioned).unwrap_err();
        assert!(err.contains("version"), "{err}");
        // 26 bytes declaring four billion kinds: an error, not a 100 GB
        // allocation.
        let mut hostile = b"CGFR\x01\x00".to_vec();
        hostile.extend_from_slice(&[0; 16]);
        hostile.extend_from_slice(&[0xff; 4]);
        let err = decode(&hostile).unwrap_err();
        assert!(err.contains("4294967295 kinds"), "{err}");
        // Same for the record count.
        let mut hostile = encode(&meta(), &[]);
        let at = hostile.len() - 8;
        hostile[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode(&hostile).unwrap_err();
        assert!(err.contains("records declared"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&meta(), &[]);
        bytes.extend_from_slice(b"extra");
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    proptest! {
        /// Everything survives verbatim — details that would need escaping
        /// in JSONL, `NO_CAUSE`, `EXTERNAL`, repeated and empty kinds, the
        /// empty dump.
        #[test]
        fn decode_inverts_encode(
            nums in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..6),
            kinds in proptest::collection::vec(any::<u32>(), 0..6),
            text in proptest::collection::vec(any::<u32>(), 0..40)
        ) {
            let events: Vec<TraceEvent> = nums
                .iter()
                .enumerate()
                // Kinds repeat across records; details differ in length.
                .map(|(i, &n)| arb::event(n, &kinds[..kinds.len().min(i % 3)], &text[i.min(text.len())..]))
                .collect();
            let meta = DumpMeta {
                reason: arb::text(&text),
                anchor: arb::text(&kinds),
                time: SimTime(nums.first().map_or(0, |n| n.0)),
            };
            prop_assert_eq!(decode(&encode(&meta, &events)), Ok((meta, events)));
        }

        /// Garbage is an `Err`, never a panic or an oversized allocation:
        /// raw bytes, raw bytes behind a valid header, and a valid dump
        /// cut short or with one byte overwritten.
        #[test]
        fn decode_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..120),
            at in any::<usize>()
        ) {
            let _ = decode(&bytes);
            let mut headed = b"CGFR\x01\x00".to_vec();
            headed.extend_from_slice(&bytes);
            let _ = decode(&headed);
            let dump = one_record();
            let at = at % dump.len();
            prop_assert!(decode(&dump[..at]).is_err());
            let mut hit = dump;
            hit[at] = bytes.first().copied().unwrap_or(0xff);
            let _ = decode(&hit);
        }
    }
}
