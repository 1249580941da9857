//! Perfetto TrackEvent export: turn a causal JSONL trace into a protobuf
//! trace loadable at ui.perfetto.dev.
//!
//! The proto encoding is hand-rolled (the workspace builds offline, no
//! protobuf dependency): a varint/length-delimited writer emitting the
//! subset of `perfetto.protos.Trace` the UI needs — `TracePacket` with
//! `TrackDescriptor` and `TrackEvent` payloads. The mapping:
//!
//! * **Tracks.** Three roots — `jobs`, `sites`, `components` — with one
//!   child track per grid job (`gj<N>`), per site, and per component
//!   group (the `kind` prefix before the first `.`). Every JSONL record
//!   becomes exactly one `TYPE_INSTANT` event on the most specific track
//!   that claims it: job ([`SpanCollector::job_of`]) wins over site (span
//!   `site=` fields, `lrm.*` site prefixes, `fault.*` node names) wins
//!   over component.
//! * **Spans.** Each attempt's milestones, as the [`SpanCollector`]
//!   stitched them, become `TYPE_SLICE_BEGIN` / `TYPE_SLICE_END` pairs on
//!   the job's track, one per [`phase_between`] boundary (submit → auth →
//!   commit → stage-in → queue → execute → stage-out), so each job reads
//!   as a phase-coloured timeline.
//! * **Flows.** Each happens-before edge `cause → id` becomes a Perfetto
//!   flow: the flow id is the parent event id, carried by the parent's
//!   packet and every child packet, so clicking an event shows its causal
//!   fan-in/fan-out.
//! * **Critical path.** Events on some job's critical path (the
//!   [`chain_to_root`](gridsim::obs::CausalDag::chain_to_root) of its
//!   terminal milestone) carry the `critical` category, so the UI can
//!   highlight exactly the chain that determined each job's end-to-end
//!   time.
//!
//! [`decode`] parses the subset back — the round-trip tests and the
//! `convert` CLI's self-verification both use it.

use gridsim::event::NO_CAUSE;
use gridsim::obs::span::{field, phase_between, SpanCollector};
use gridsim::obs::CausalDag;
use gridsim::trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};

// ---- proto field numbers (perfetto.protos, TrackEvent subset) ----------

/// `Trace.packet`.
const TRACE_PACKET: u32 = 1;
/// `TracePacket.timestamp` (varint, microseconds here).
const PACKET_TIMESTAMP: u32 = 8;
/// `TracePacket.trusted_packet_sequence_id` (varint).
const PACKET_SEQUENCE_ID: u32 = 10;
/// `TracePacket.track_event` (message).
const PACKET_TRACK_EVENT: u32 = 11;
/// `TracePacket.track_descriptor` (message).
const PACKET_TRACK_DESCRIPTOR: u32 = 60;
/// `TrackDescriptor.uuid` (varint).
const DESC_UUID: u32 = 1;
/// `TrackDescriptor.name` (string).
const DESC_NAME: u32 = 2;
/// `TrackDescriptor.parent_uuid` (varint).
const DESC_PARENT: u32 = 5;
/// `TrackEvent.debug_annotations` (repeated message).
const EVENT_ANNOTATION: u32 = 4;
/// `TrackEvent.type` (varint enum).
const EVENT_TYPE: u32 = 9;
/// `TrackEvent.track_uuid` (varint).
const EVENT_TRACK: u32 = 11;
/// `TrackEvent.categories` (repeated string).
const EVENT_CATEGORY: u32 = 22;
/// `TrackEvent.name` (string).
const EVENT_NAME: u32 = 23;
/// `TrackEvent.flow_ids` (repeated fixed64).
const EVENT_FLOW: u32 = 47;
/// `DebugAnnotation.uint_value` (varint).
const ANN_UINT: u32 = 3;
/// `DebugAnnotation.string_value` (string).
const ANN_STRING: u32 = 6;
/// `DebugAnnotation.name` (string).
const ANN_NAME: u32 = 10;

/// `TrackEvent.Type` values.
pub const TYPE_SLICE_BEGIN: u64 = 1;
/// See [`TYPE_SLICE_BEGIN`].
pub const TYPE_SLICE_END: u64 = 2;
/// See [`TYPE_SLICE_BEGIN`].
pub const TYPE_INSTANT: u64 = 3;

/// Track uuids: fixed roots plus banked children, so the assignment is a
/// pure function of the trace content (golden-bytes stability).
const UUID_JOBS_ROOT: u64 = 1;
const UUID_SITES_ROOT: u64 = 2;
const UUID_COMPONENTS_ROOT: u64 = 3;
const UUID_JOB_BASE: u64 = 0x1000;
const UUID_SITE_BASE: u64 = 0x2000;
const UUID_COMPONENT_BASE: u64 = 0x3000;

/// The one trusted packet sequence everything is emitted under.
const SEQUENCE_ID: u64 = 1;

// ---- varint / length-delimited writer ----------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_tag(out: &mut Vec<u8>, field: u32, wire: u32) {
    put_varint(out, ((field as u64) << 3) | wire as u64);
}

fn put_uint(out: &mut Vec<u8>, field: u32, v: u64) {
    put_tag(out, field, 0);
    put_varint(out, v);
}

fn put_bytes(out: &mut Vec<u8>, field: u32, bytes: &[u8]) {
    put_tag(out, field, 2);
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, field: u32, s: &str) {
    put_bytes(out, field, s.as_bytes());
}

fn put_fixed64(out: &mut Vec<u8>, field: u32, v: u64) {
    put_tag(out, field, 1);
    out.extend_from_slice(&v.to_le_bytes());
}

// ---- encoding ----------------------------------------------------------

/// What [`encode`] produced, for reports and CI sanity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Total `TracePacket`s written.
    pub packets: usize,
    /// `TYPE_INSTANT` events — exactly one per JSONL record.
    pub instants: usize,
    /// Phase slices (`TYPE_SLICE_BEGIN`/`END` pairs count as one).
    pub slices: usize,
    /// Job tracks.
    pub job_tracks: usize,
    /// Site tracks.
    pub site_tracks: usize,
    /// Component-group tracks.
    pub component_tracks: usize,
    /// Happens-before edges rendered as flows.
    pub flow_edges: usize,
    /// Instants carrying the `critical` category.
    pub critical_instants: usize,
}

/// The site a record concerns: its own `site=` field, or one of the
/// `known` sites (those some `site=` field in the trace names) that an
/// `lrm.*` detail leads with or a `fault.*` detail's node names contain.
fn site_of(known: &BTreeSet<String>, r: &TraceEvent) -> Option<String> {
    if let Some(site) = field(&r.detail, "site") {
        return Some(site.to_string());
    }
    if r.kind.starts_with("lrm.") {
        let first = r.detail.split_whitespace().next()?;
        if known.contains(first) {
            return Some(first.to_string());
        }
    }
    if r.kind.starts_with("fault.") {
        for site in known {
            if r.detail.contains(&format!("gk.{site}"))
                || r.detail.contains(&format!("cluster.{site}"))
            {
                return Some(site.clone());
            }
        }
    }
    None
}

fn component_of(r: &TraceEvent) -> &str {
    r.kind.split('.').next().unwrap_or(&r.kind)
}

fn descriptor_packet(uuid: u64, name: &str, parent: Option<u64>) -> Vec<u8> {
    let mut desc = Vec::new();
    put_uint(&mut desc, DESC_UUID, uuid);
    put_str(&mut desc, DESC_NAME, name);
    if let Some(p) = parent {
        put_uint(&mut desc, DESC_PARENT, p);
    }
    let mut packet = Vec::new();
    put_uint(&mut packet, PACKET_TIMESTAMP, 0);
    put_uint(&mut packet, PACKET_SEQUENCE_ID, SEQUENCE_ID);
    put_bytes(&mut packet, PACKET_TRACK_DESCRIPTOR, &desc);
    packet
}

fn annotation(name: &str, value: AnnValue<'_>) -> Vec<u8> {
    let mut ann = Vec::new();
    match value {
        AnnValue::Str(s) => put_str(&mut ann, ANN_STRING, s),
        AnnValue::Uint(v) => put_uint(&mut ann, ANN_UINT, v),
    }
    put_str(&mut ann, ANN_NAME, name);
    ann
}

enum AnnValue<'a> {
    Str(&'a str),
    Uint(u64),
}

struct EventPacket<'a> {
    timestamp: u64,
    ty: u64,
    track: u64,
    name: &'a str,
    critical: bool,
    flows: &'a [u64],
    annotations: &'a [Vec<u8>],
}

fn event_packet(ev: &EventPacket<'_>) -> Vec<u8> {
    let mut te = Vec::new();
    for ann in ev.annotations {
        put_bytes(&mut te, EVENT_ANNOTATION, ann);
    }
    put_uint(&mut te, EVENT_TYPE, ev.ty);
    put_uint(&mut te, EVENT_TRACK, ev.track);
    if ev.critical {
        put_str(&mut te, EVENT_CATEGORY, "critical");
    }
    put_str(&mut te, EVENT_NAME, ev.name);
    for &f in ev.flows {
        put_fixed64(&mut te, EVENT_FLOW, f);
    }
    let mut packet = Vec::new();
    put_uint(&mut packet, PACKET_TIMESTAMP, ev.timestamp);
    put_uint(&mut packet, PACKET_SEQUENCE_ID, SEQUENCE_ID);
    put_bytes(&mut packet, PACKET_TRACK_EVENT, &te);
    packet
}

/// Encode a trace as a Perfetto `Trace` protobuf.
pub fn encode(records: &[TraceEvent]) -> (Vec<u8>, Summary) {
    let spans = SpanCollector::from_events(records);
    let dag = CausalDag::from_events(records);
    let known_sites: BTreeSet<String> = records
        .iter()
        .filter_map(|r| field(&r.detail, "site"))
        .map(str::to_string)
        .collect();

    // Event ids on some job's critical path: the trigger chain of its
    // terminal milestone.
    let mut critical: BTreeSet<u64> = BTreeSet::new();
    for span in spans.jobs().values() {
        if let Some(&(_, _, event)) = span.attempts.iter().rev().find_map(|a| a.terminal()) {
            critical.extend(dag.chain_to_root(event).iter().map(|node| node.id));
        }
    }
    // Event ids that cause at least one other record: these open flows.
    let causes: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.cause != NO_CAUSE)
        .map(|r| r.cause)
        .collect();
    let flow_edges = records
        .iter()
        .filter(|r| r.cause != NO_CAUSE && r.id != NO_CAUSE)
        .count();

    // Discover tracks: jobs from the attribution pass, sites and component
    // groups from the records, all in sorted order for stable uuids.
    let mut jobs: BTreeSet<u64> = BTreeSet::new();
    let mut sites: BTreeSet<String> = BTreeSet::new();
    let mut components: BTreeSet<String> = BTreeSet::new();
    let mut placement: Vec<(Option<u64>, Option<String>)> = Vec::with_capacity(records.len());
    for r in records {
        let job = spans.job_of(r);
        let site = if job.is_none() {
            site_of(&known_sites, r)
        } else {
            None
        };
        match (&job, &site) {
            (Some(j), _) => {
                jobs.insert(*j);
            }
            (None, Some(s)) => {
                sites.insert(s.clone());
            }
            (None, None) => {
                components.insert(component_of(r).to_string());
            }
        }
        placement.push((job, site));
    }
    let job_uuid: BTreeMap<u64, u64> = jobs
        .iter()
        .enumerate()
        .map(|(i, &j)| (j, UUID_JOB_BASE + i as u64))
        .collect();
    let site_uuid: BTreeMap<String, u64> = sites
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), UUID_SITE_BASE + i as u64))
        .collect();
    let component_uuid: BTreeMap<String, u64> = components
        .iter()
        .enumerate()
        .map(|(i, c)| (c.clone(), UUID_COMPONENT_BASE + i as u64))
        .collect();

    let mut out = Vec::new();
    let mut packets = 0usize;
    let mut emit = |out: &mut Vec<u8>, packet: Vec<u8>| {
        put_bytes(out, TRACE_PACKET, &packet);
        packets += 1;
    };
    emit(&mut out, descriptor_packet(UUID_JOBS_ROOT, "jobs", None));
    emit(&mut out, descriptor_packet(UUID_SITES_ROOT, "sites", None));
    emit(
        &mut out,
        descriptor_packet(UUID_COMPONENTS_ROOT, "components", None),
    );
    for (&job, &uuid) in &job_uuid {
        emit(
            &mut out,
            descriptor_packet(uuid, &format!("gj{job}"), Some(UUID_JOBS_ROOT)),
        );
    }
    for (site, &uuid) in &site_uuid {
        emit(
            &mut out,
            descriptor_packet(uuid, site, Some(UUID_SITES_ROOT)),
        );
    }
    for (comp, &uuid) in &component_uuid {
        emit(
            &mut out,
            descriptor_packet(uuid, comp, Some(UUID_COMPONENTS_ROOT)),
        );
    }

    // The 1:1 law: every record is exactly one TYPE_INSTANT packet.
    let mut critical_instants = 0usize;
    for (r, (job, site)) in records.iter().zip(&placement) {
        let track = match (job, site) {
            (Some(j), _) => job_uuid[j],
            (None, Some(s)) => site_uuid[s],
            (None, None) => component_uuid[component_of(r)],
        };
        let mut flows = Vec::new();
        if r.cause != NO_CAUSE {
            flows.push(r.cause);
        }
        if r.id != NO_CAUSE && r.id != r.cause && causes.contains(&r.id) {
            flows.push(r.id);
        }
        let is_critical = r.id != NO_CAUSE && critical.contains(&r.id);
        if is_critical {
            critical_instants += 1;
        }
        let mut annotations = vec![annotation("detail", AnnValue::Str(&r.detail))];
        if r.id != NO_CAUSE {
            annotations.push(annotation("event", AnnValue::Uint(r.id)));
        }
        if r.cause != NO_CAUSE {
            annotations.push(annotation("cause", AnnValue::Uint(r.cause)));
        }
        emit(
            &mut out,
            event_packet(&EventPacket {
                timestamp: r.time.micros(),
                ty: TYPE_INSTANT,
                track,
                name: &r.kind,
                critical: is_critical,
                flows: &flows,
                annotations: &annotations,
            }),
        );
    }

    // Phase slices on job tracks, from the span milestone pairs.
    let mut slices = 0usize;
    for span in spans.jobs().values() {
        let Some(&track) = job_uuid.get(&span.job) else {
            continue;
        };
        for a in &span.attempts {
            for pair in a.milestones.windows(2) {
                let Some(phase) = phase_between(&pair[0].0, &pair[1].0) else {
                    continue;
                };
                slices += 1;
                for (ty, ts) in [(TYPE_SLICE_BEGIN, pair[0].1), (TYPE_SLICE_END, pair[1].1)] {
                    emit(
                        &mut out,
                        event_packet(&EventPacket {
                            timestamp: ts.micros(),
                            ty,
                            track,
                            name: phase.name(),
                            critical: false,
                            flows: &[],
                            annotations: &[],
                        }),
                    );
                }
            }
        }
    }

    let summary = Summary {
        packets,
        instants: records.len(),
        slices,
        job_tracks: job_uuid.len(),
        site_tracks: site_uuid.len(),
        component_tracks: component_uuid.len(),
        flow_edges,
        critical_instants,
    };
    (out, summary)
}

// ---- decoding (round-trip verification) --------------------------------

/// A decoded `TrackDescriptor`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackDesc {
    /// Track uuid.
    pub uuid: u64,
    /// Display name.
    pub name: String,
    /// Parent track, if nested.
    pub parent: Option<u64>,
}

/// A decoded `TrackEvent`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackEv {
    /// `TrackEvent.Type` (see [`TYPE_INSTANT`] etc.).
    pub ty: u64,
    /// Track uuid the event is on.
    pub track: u64,
    /// Event name.
    pub name: String,
    /// Categories (only `critical` is emitted).
    pub categories: Vec<String>,
    /// Flow ids.
    pub flows: Vec<u64>,
    /// String debug annotations (`name`, `value`).
    pub notes: Vec<(String, String)>,
    /// Integer debug annotations (`name`, `value`).
    pub nums: Vec<(String, u64)>,
}

/// A decoded `TracePacket`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Packet {
    /// Packet timestamp (microseconds).
    pub timestamp: u64,
    /// Trusted packet sequence id.
    pub sequence: u64,
    /// Descriptor payload, if any.
    pub descriptor: Option<TrackDesc>,
    /// Event payload, if any.
    pub event: Option<TrackEv>,
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn done(&self) -> bool {
        self.i >= self.b.len()
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = self.b.get(self.i).ok_or("truncated varint")?;
            self.i += 1;
            if shift >= 64 {
                return Err("varint overflow".into());
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn fixed64(&mut self) -> Result<u64, String> {
        let bytes = self.b.get(self.i..self.i + 8).ok_or("truncated fixed64")?;
        self.i += 8;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.varint()? as usize;
        let bytes = self
            .b
            .get(self.i..self.i + len)
            .ok_or("truncated length-delimited field")?;
        self.i += len;
        Ok(bytes)
    }

    /// Read one `(field, wire)` tag.
    fn tag(&mut self) -> Result<(u32, u32), String> {
        let t = self.varint()?;
        Ok(((t >> 3) as u32, (t & 7) as u32))
    }

    /// Skip a field of the given wire type.
    fn skip(&mut self, wire: u32) -> Result<(), String> {
        match wire {
            0 => self.varint().map(|_| ()),
            1 => self.fixed64().map(|_| ()),
            2 => self.bytes().map(|_| ()),
            5 => {
                self.i += 4;
                (self.i <= self.b.len())
                    .then_some(())
                    .ok_or_else(|| "truncated fixed32".to_string())
            }
            w => Err(format!("unsupported wire type {w}")),
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8".into())
}

fn decode_descriptor(bytes: &[u8]) -> Result<TrackDesc, String> {
    let mut r = Reader { b: bytes, i: 0 };
    let mut d = TrackDesc::default();
    while !r.done() {
        let (f, w) = r.tag()?;
        match f {
            DESC_UUID => d.uuid = r.varint()?,
            DESC_NAME => d.name = utf8(r.bytes()?)?,
            DESC_PARENT => d.parent = Some(r.varint()?),
            _ => r.skip(w)?,
        }
    }
    Ok(d)
}

fn decode_annotation(bytes: &[u8], ev: &mut TrackEv) -> Result<(), String> {
    let mut r = Reader { b: bytes, i: 0 };
    let (mut name, mut s, mut n) = (String::new(), None, None);
    while !r.done() {
        let (f, w) = r.tag()?;
        match f {
            ANN_NAME => name = utf8(r.bytes()?)?,
            ANN_STRING => s = Some(utf8(r.bytes()?)?),
            ANN_UINT => n = Some(r.varint()?),
            _ => r.skip(w)?,
        }
    }
    if let Some(v) = s {
        ev.notes.push((name.clone(), v));
    }
    if let Some(v) = n {
        ev.nums.push((name, v));
    }
    Ok(())
}

fn decode_event(bytes: &[u8]) -> Result<TrackEv, String> {
    let mut r = Reader { b: bytes, i: 0 };
    let mut e = TrackEv::default();
    while !r.done() {
        let (f, w) = r.tag()?;
        match f {
            EVENT_TYPE => e.ty = r.varint()?,
            EVENT_TRACK => e.track = r.varint()?,
            EVENT_NAME => e.name = utf8(r.bytes()?)?,
            EVENT_CATEGORY => e.categories.push(utf8(r.bytes()?)?),
            EVENT_FLOW => e.flows.push(r.fixed64()?),
            EVENT_ANNOTATION => decode_annotation(r.bytes()?, &mut e)?,
            _ => r.skip(w)?,
        }
    }
    Ok(e)
}

fn decode_packet(bytes: &[u8]) -> Result<Packet, String> {
    let mut r = Reader { b: bytes, i: 0 };
    let mut p = Packet::default();
    while !r.done() {
        let (f, w) = r.tag()?;
        match f {
            PACKET_TIMESTAMP => p.timestamp = r.varint()?,
            PACKET_SEQUENCE_ID => p.sequence = r.varint()?,
            PACKET_TRACK_DESCRIPTOR => p.descriptor = Some(decode_descriptor(r.bytes()?)?),
            PACKET_TRACK_EVENT => p.event = Some(decode_event(r.bytes()?)?),
            _ => r.skip(w)?,
        }
    }
    Ok(p)
}

/// Decode an encoded trace back into its packets.
pub fn decode(bytes: &[u8]) -> Result<Vec<Packet>, String> {
    let mut r = Reader { b: bytes, i: 0 };
    let mut out = Vec::new();
    while !r.done() {
        let (f, w) = r.tag()?;
        if f == TRACE_PACKET && w == 2 {
            out.push(decode_packet(r.bytes()?)?);
        } else {
            r.skip(w)?;
        }
    }
    Ok(out)
}

/// Decode `bytes` and cross-check it against the records it was encoded
/// from: the 1:1 instant law, flow ids matching the `(id, cause)` pairs,
/// every event on a declared track, and the declared track census matching
/// `summary`. The `convert` CLI runs this before reporting success.
pub fn verify(records: &[TraceEvent], bytes: &[u8], summary: &Summary) -> Result<(), String> {
    let packets = decode(bytes)?;
    if packets.len() != summary.packets {
        return Err(format!(
            "packet count {} != summary {}",
            packets.len(),
            summary.packets
        ));
    }
    let tracks: BTreeMap<u64, &TrackDesc> = packets
        .iter()
        .filter_map(|p| p.descriptor.as_ref())
        .map(|d| (d.uuid, d))
        .collect();
    let child_count = |root: u64| tracks.values().filter(|d| d.parent == Some(root)).count();
    if child_count(UUID_JOBS_ROOT) != summary.job_tracks
        || child_count(UUID_SITES_ROOT) != summary.site_tracks
        || child_count(UUID_COMPONENTS_ROOT) != summary.component_tracks
    {
        return Err("track census does not match summary".into());
    }
    let instants: Vec<(&Packet, &TrackEv)> = packets
        .iter()
        .filter_map(|p| p.event.as_ref().map(|e| (p, e)))
        .filter(|(_, e)| e.ty == TYPE_INSTANT)
        .collect();
    if instants.len() != records.len() {
        return Err(format!(
            "{} instant packets for {} records (1:1 law violated)",
            instants.len(),
            records.len()
        ));
    }
    for ((p, e), r) in instants.iter().zip(records) {
        if p.timestamp != r.time.micros() || e.name != r.kind {
            return Err(format!(
                "instant mismatch: packet {}/{} vs record {}/{}",
                p.timestamp,
                e.name,
                r.time.micros(),
                r.kind
            ));
        }
        if !tracks.contains_key(&e.track) {
            return Err(format!("event on undeclared track {}", e.track));
        }
        if r.cause != NO_CAUSE && !e.flows.contains(&r.cause) {
            return Err(format!(
                "record under event {} lost its cause-flow {}",
                r.id, r.cause
            ));
        }
    }
    let critical = instants
        .iter()
        .filter(|(_, e)| e.categories.iter().any(|c| c == "critical"))
        .count();
    if critical != summary.critical_instants {
        return Err("critical-path annotation count does not match summary".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::time::SimTime;

    fn rec(t: u64, kind: &'static str, detail: &str, id: u64, cause: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime(t),
            addr: gridsim::world::EXTERNAL,
            kind: kind.into(),
            detail: detail.to_string(),
            id,
            cause,
        }
    }

    const S: u64 = 1_000_000;

    /// One job through the full pipeline, plus a site-attributed LRM event
    /// and an unattributable tick.
    fn pipeline_trace() -> Vec<TraceEvent> {
        vec![
            rec(0, "span", "job=3 seq=9 phase=submit site=anl", 1, NO_CAUSE),
            rec(2 * S, "span", "seq=9 contact=77 phase=auth", 2, 1),
            rec(3 * S, "span", "contact=77 phase=commit", 3, 2),
            rec(5 * S, "span", "contact=77 phase=stage_in_done", 4, 3),
            rec(6 * S, "lrm.start", "anl job 0 (1 cpus)", 5, 4),
            rec(9 * S, "span", "contact=77 phase=active", 5, 4),
            rec(60 * S, "span", "contact=77 phase=stage_out", 6, 5),
            rec(61 * S, "span", "job=3 phase=done", 7, 6),
            rec(70 * S, "tick", "", 8, NO_CAUSE),
        ]
    }

    #[test]
    fn round_trip_preserves_every_record_and_flow() {
        let records = pipeline_trace();
        let (bytes, summary) = encode(&records);
        assert!(!bytes.is_empty());
        verify(&records, &bytes, &summary).expect("self-consistent");

        assert_eq!(summary.instants, records.len());
        assert_eq!(summary.job_tracks, 1);
        assert_eq!(summary.site_tracks, 1, "lrm.start lands on the anl track");
        // span (transfer-less job spans all go to the job track) + tick.
        assert_eq!(summary.component_tracks, 1);
        assert_eq!(summary.flow_edges, 7);

        let packets = decode(&bytes).unwrap();
        // Every happens-before edge is a shared flow id: the child carries
        // `cause`, and the parent's packet carries its own id.
        let instants: Vec<&TrackEv> = packets
            .iter()
            .filter_map(|p| p.event.as_ref())
            .filter(|e| e.ty == TYPE_INSTANT)
            .collect();
        for (r, e) in records.iter().zip(&instants) {
            if r.cause != NO_CAUSE {
                assert!(e.flows.contains(&r.cause), "{}: cause flow", r.kind);
            }
        }
        // Event 1 causes event 2, so the submit packet opens flow 1.
        assert!(instants[0].flows.contains(&1));
        // The full chain to `done` is the critical path; the tick is not.
        assert_eq!(summary.critical_instants, 8);
        assert!(instants[8].categories.is_empty());
        assert!(instants[0].categories.iter().any(|c| c == "critical"));
    }

    #[test]
    fn phase_slices_cover_the_pipeline() {
        let records = pipeline_trace();
        let (bytes, summary) = encode(&records);
        assert_eq!(summary.slices, 6, "all six phases completed");
        let packets = decode(&bytes).unwrap();
        let begins: Vec<String> = packets
            .iter()
            .filter_map(|p| p.event.as_ref())
            .filter(|e| e.ty == TYPE_SLICE_BEGIN)
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(
            begins,
            [
                "auth",
                "commit",
                "stage_in",
                "queue",
                "execute",
                "stage_out"
            ]
        );
        let ends = packets
            .iter()
            .filter_map(|p| p.event.as_ref())
            .filter(|e| e.ty == TYPE_SLICE_END)
            .count();
        assert_eq!(ends, 6);
    }

    #[test]
    fn gm_records_attach_to_job_tracks() {
        let records = vec![
            rec(0, "span", "job=4 seq=1 phase=submit site=anl", 1, NO_CAUSE),
            rec(S, "gm.attempt_failed", "gj4: gatekeeper unreachable", 2, 1),
            rec(2 * S, "fault.crash", "node=gk.anl", 3, NO_CAUSE),
        ];
        let (bytes, summary) = encode(&records);
        verify(&records, &bytes, &summary).unwrap();
        let packets = decode(&bytes).unwrap();
        let tracks: BTreeMap<u64, TrackDesc> = packets
            .iter()
            .filter_map(|p| p.descriptor.clone())
            .map(|d| (d.uuid, d))
            .collect();
        let events: Vec<&TrackEv> = packets
            .iter()
            .filter_map(|p| p.event.as_ref())
            .filter(|e| e.ty == TYPE_INSTANT)
            .collect();
        assert_eq!(tracks[&events[1].track].name, "gj4");
        assert_eq!(tracks[&events[2].track].name, "anl", "fault lands on site");
    }

    /// Golden bytes for a minimal trace: any change to field numbers, track
    /// uuid assignment, packet ordering, or the varint writer shows up here.
    /// Regenerate by printing the hex of `encode(&records).0`.
    #[test]
    fn golden_bytes_minimal_trace() {
        let records = vec![rec(5, "k", "d", 1, NO_CAUSE)];
        let (bytes, summary) = encode(&records);
        assert_eq!(
            summary.packets, 5,
            "3 roots + 1 component track + 1 instant"
        );
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN, "wire encoding drifted");
    }

    /// Captured from a known-good run (see the test above for how to
    /// regenerate).
    const GOLDEN: &str = "0a0f40005001e20308080112046a6f62730a1040005001e2030908\
02120573697465730a1540005001e2030e0803120a636f6d706f6e656e74730a0f40005001e203\
0808806012016b28030a27400550015a21220b320164520664657461696c220918015205657665\
6e744803588060ba01016b";
}
