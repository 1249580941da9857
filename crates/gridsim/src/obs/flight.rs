//! The black-box flight recorder: always-on, bounded, campaign-cheap.
//!
//! Full JSONL tracing is superb for forensics but prohibitively expensive
//! at campaign scale — a million-job run emits tens of millions of
//! records, and streaming them to disk (or keeping [`TraceEvent`] clones
//! in memory) costs an allocation per event. This module is the
//! alternative an aircraft uses: a bounded ring of compact fixed-size
//! records that is cheap enough to leave on for the whole flight, paired
//! with a low-rate telemetry heartbeat and anomaly detectors that dump the
//! ring's causal window when something breaks.
//!
//! * [`FlightRecorder`] — a [`TraceSubscriber`] writing fixed-size binary
//!   slots into a preallocated ring. Kinds (string literals at every emit
//!   site) are interned into a small table; detail strings are copied into
//!   a circular byte arena. After warm-up the steady state performs **no
//!   per-event heap allocation**; cause ids are preserved so a dumped
//!   window still rebuilds its happens-before DAG. `fault.*`,
//!   `broker.*`, and `gm.attempt_failed` records are *pinned* outside
//!   the ring (bounded separately)
//!   because they are the ground truth every post-mortem needs, however
//!   long ago they happened.
//! * [`TelemetrySample`] / [`TelemetryWriter`] — one JSONL heartbeat line
//!   per sim-time interval: throughput, inflight/pending backpressure,
//!   event-queue depth, per-site weather aggregates, ring occupancy.
//! * [`AnomalyDetector`] — stuck-job horizon, throughput collapse against
//!   a trailing window, quarantine storm, and backpressure stall. Each
//!   detector fires at most once; the driver dumps the causal window
//!   around the offending job/site on the first trigger.
//! * [`FlightRecorder::dump`] — the causal window as a
//!   [`crate::trace::cgfr`] file, which `condor-g-trace flight` decodes
//!   back into the same [`TraceEvent`]s, so critical-path blame, stuck-job
//!   reports and root-cause attribution all work on dumps unchanged.

use crate::component::{Addr, CompId, NodeId};
use crate::metrics::Metrics;
use crate::obs::{span, CausalDag};
use crate::time::{Duration, SimTime};
use crate::trace::cgfr::{self, DumpMeta};
use crate::trace::{TraceEvent, TraceSubscriber};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::Write;
use std::rc::Rc;

/// Default ring capacity (records).
pub const DEFAULT_RING: usize = 65_536;
/// Pinned `fault.*` / `broker.*` / `gm.attempt_failed` records kept
/// outside the ring.
const PIN_CAP: usize = 4_096;

/// One fixed-size ring slot. Details live in the byte arena; `detail_off`
/// is a *monotone* offset (physical position is `off % arena.len()`), so
/// reclaiming evicted slots is a single pointer bump.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    time_us: u64,
    node: u32,
    comp: u32,
    kind: u32,
    id: u64,
    cause: u64,
    detail_off: u64,
    detail_len: u32,
}

struct Inner {
    slots: Box<[Slot]>,
    /// Index of the oldest live slot.
    head: usize,
    len: usize,
    arena: Box<[u8]>,
    /// Total detail bytes ever written (monotone).
    write_off: u64,
    /// Detail bytes reclaimed from evicted slots (monotone).
    release_off: u64,
    kinds: Vec<Cow<'static, str>>,
    kind_index: HashMap<Cow<'static, str>, u32>,
    pinned: VecDeque<TraceEvent>,
    pinned_dropped: u64,
    seen: u64,
    evicted: u64,
    quarantines: u64,
    last_quarantine_site: Option<String>,
}

impl Inner {
    fn evict_oldest(&mut self) {
        debug_assert!(self.len > 0);
        let s = self.slots[self.head];
        self.release_off = s.detail_off + u64::from(s.detail_len);
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        self.evicted += 1;
    }

    /// The table index of `event`'s kind. Cloning a kind is free on the
    /// emit path, where it borrows a literal.
    fn intern(&mut self, event: &TraceEvent) -> u32 {
        if let Some(&idx) = self.kind_index.get(&event.kind) {
            return idx;
        }
        let idx = self.kinds.len() as u32;
        self.kinds.push(event.kind.clone());
        self.kind_index.insert(event.kind.clone(), idx);
        idx
    }

    fn push(&mut self, event: &TraceEvent) {
        self.seen += 1;
        // Faults, broker transitions, and failed submit attempts are the
        // ground truth of every post-mortem; pin them so they survive
        // however far the ring has rotated by the time an anomaly fires.
        // (A busy campaign evicts a 50-minute-old `gm.attempt_failed`
        // long before the detector's next interval.)
        if event.kind.starts_with("fault.")
            || event.kind.starts_with("broker.")
            || event.kind == "gm.attempt_failed"
        {
            if event.kind == "broker.quarantine" {
                self.quarantines += 1;
                self.last_quarantine_site = span::field(&event.detail, "site").map(str::to_string);
            }
            if self.pinned.len() >= PIN_CAP {
                self.pinned.pop_front();
                self.pinned_dropped += 1;
            }
            self.pinned.push_back(event.clone());
            return;
        }
        if self.slots.is_empty() {
            self.evicted += 1;
            return;
        }
        let bytes = event.detail.as_bytes();
        // A detail larger than the whole arena cannot be stored whole;
        // clip at a char boundary (details are short in practice — the
        // default arena is megabytes).
        let mut dlen = bytes.len().min(self.arena.len());
        while !event.detail.is_char_boundary(dlen) {
            dlen -= 1;
        }
        if self.len == self.slots.len() {
            self.evict_oldest();
        }
        while self.write_off - self.release_off + dlen as u64 > self.arena.len() as u64 {
            self.evict_oldest();
        }
        // Copy the detail into the circular arena (possibly wrapping).
        let cap = self.arena.len();
        let off = self.write_off;
        let pos = (off % cap as u64) as usize;
        let first = dlen.min(cap - pos);
        self.arena[pos..pos + first].copy_from_slice(&bytes[..first]);
        self.arena[..dlen - first].copy_from_slice(&bytes[first..dlen]);
        self.write_off += dlen as u64;
        let kind = self.intern(event);
        let tail = (self.head + self.len) % self.slots.len();
        self.slots[tail] = Slot {
            time_us: event.time.micros(),
            node: event.addr.node.0,
            comp: event.addr.comp.0,
            kind,
            id: event.id,
            cause: event.cause,
            detail_off: off,
            detail_len: dlen as u32,
        };
        self.len += 1;
    }

    fn detail_of(&self, s: &Slot) -> String {
        let cap = self.arena.len();
        let dlen = s.detail_len as usize;
        let pos = (s.detail_off % cap as u64) as usize;
        let first = dlen.min(cap - pos);
        let mut bytes = Vec::with_capacity(dlen);
        bytes.extend_from_slice(&self.arena[pos..pos + first]);
        bytes.extend_from_slice(&self.arena[..dlen - first]);
        String::from_utf8(bytes).expect("arena holds whole UTF-8 details")
    }

    fn record_at(&self, i: usize) -> TraceEvent {
        let s = &self.slots[(self.head + i) % self.slots.len()];
        TraceEvent {
            time: SimTime(s.time_us),
            addr: Addr {
                node: NodeId(s.node),
                comp: CompId(s.comp),
            },
            kind: self.kinds[s.kind as usize].clone(),
            detail: self.detail_of(s),
            id: s.id,
            cause: s.cause,
        }
    }
}

/// The flight-recorder subscriber. Cloning yields a handle onto the same
/// ring, so the caller keeps one handle for dumps after boxing the other
/// into the [`crate::trace::TraceSink`]:
///
/// ```
/// use gridsim::obs::FlightRecorder;
/// let rec = FlightRecorder::new(1024);
/// let handle = rec.clone();
/// // world.trace_mut().subscribe(Box::new(rec));
/// // ... on anomaly: handle.dump("stuck job", "", now)
/// # let _ = handle.len();
/// ```
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Inner>>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records, with a detail arena
    /// of 64 bytes per slot.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_arena(capacity, (capacity * 64).max(4096))
    }

    /// A recorder with an explicit detail-arena size in bytes (tests use
    /// tiny arenas to exercise wraparound).
    pub fn with_arena(capacity: usize, arena_bytes: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Rc::new(RefCell::new(Inner {
                slots: vec![Slot::default(); capacity].into_boxed_slice(),
                head: 0,
                len: 0,
                arena: vec![0u8; arena_bytes.max(1)].into_boxed_slice(),
                write_off: 0,
                release_off: 0,
                kinds: Vec::new(),
                kind_index: HashMap::new(),
                pinned: VecDeque::new(),
                pinned_dropped: 0,
                seen: 0,
                evicted: 0,
                quarantines: 0,
                last_quarantine_site: None,
            })),
        }
    }

    /// Records currently in the ring (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.borrow().len
    }

    /// True when the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().len == 0
    }

    /// Total events offered to the recorder.
    pub fn seen(&self) -> u64 {
        self.inner.borrow().seen
    }

    /// Ring records evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.inner.borrow().evicted
    }

    /// Pinned fault/broker records dropped because the pin buffer filled.
    pub fn pinned_dropped(&self) -> u64 {
        self.inner.borrow().pinned_dropped
    }

    /// Distinct kinds interned so far.
    pub fn kind_count(&self) -> usize {
        self.inner.borrow().kinds.len()
    }

    /// `broker.quarantine` records observed (cumulative).
    pub fn quarantines(&self) -> u64 {
        self.inner.borrow().quarantines
    }

    /// Site named by the most recent `broker.quarantine` record.
    pub fn last_quarantine_site(&self) -> Option<String> {
        self.inner.borrow().last_quarantine_site.clone()
    }

    /// Decode the live ring, oldest first (pinned records not included).
    pub fn records(&self) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        (0..inner.len).map(|i| inner.record_at(i)).collect()
    }

    /// The pinned records (faults, broker verdicts, failed attempts),
    /// oldest first.
    pub fn pinned(&self) -> Vec<TraceEvent> {
        self.inner.borrow().pinned.iter().cloned().collect()
    }

    /// The causal window around `anchor`: every ring record whose detail
    /// mentions the anchor, closed over the happens-before relation in
    /// *both* directions (the [`CausalDag`]'s cause links up, its child
    /// links down; all records of a kept event are kept), plus all pinned
    /// fault/broker records — merged in time order. The two-sided cone is
    /// what forensics needs: the stall's ancestors explain *why*, its
    /// descendants (retries, failures, resubmits) show the *blast radius*.
    /// An empty anchor selects the whole ring.
    pub fn causal_window(&self, anchor: &str) -> Vec<TraceEvent> {
        let ring = self.records();
        let mut out = self.pinned();
        if anchor.is_empty() {
            out.extend(ring);
        } else {
            let dag = CausalDag::from_events(&ring);
            let mut keep = vec![false; ring.len()];
            let mut visited: BTreeSet<u64> = BTreeSet::new();
            let mut stack: Vec<u64> = Vec::new();
            for (i, r) in ring.iter().enumerate() {
                if r.detail.contains(anchor) {
                    keep[i] = true;
                    stack.push(r.id);
                }
            }
            while let Some(id) = stack.pop() {
                // Not a node: a setup-time record, or a cause the ring has
                // already evicted.
                let Some(node) = dag.node(id) else {
                    continue;
                };
                if visited.insert(id) {
                    for &i in &node.records {
                        keep[i] = true;
                    }
                    stack.extend(node.cause);
                    stack.extend(&node.children);
                }
            }
            out.extend(
                ring.into_iter()
                    .zip(&keep)
                    .filter(|(_, &k)| k)
                    .map(|(r, _)| r),
            );
        }
        out.sort_by_key(|r| (r.time, r.id));
        out
    }

    /// Encode the causal window around `anchor` as a binary dump.
    pub fn dump(&self, reason: &str, anchor: &str, now: SimTime) -> Vec<u8> {
        let meta = DumpMeta {
            reason: reason.to_string(),
            anchor: anchor.to_string(),
            time: now,
        };
        cgfr::encode(&meta, &self.causal_window(anchor))
    }
}

impl TraceSubscriber for FlightRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        self.inner.borrow_mut().push(event);
    }
}

// ---- streaming telemetry -----------------------------------------------

/// One heartbeat: the campaign's vitals at a sim-time instant. Drivers
/// fill what they know; fields they cannot observe stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySample {
    /// Virtual time, microseconds.
    pub t_us: u64,
    /// Kernel events processed so far.
    pub events: u64,
    /// Event-queue depth at sampling time.
    pub queue_depth: u64,
    /// Jobs finished successfully (cumulative).
    pub done: u64,
    /// Jobs failed/removed (cumulative).
    pub failed: u64,
    /// Jobs submitted so far (cumulative).
    pub dispatched: u64,
    /// Jobs submitted but not yet terminal.
    pub inflight: u64,
    /// Due arrivals buffered behind the in-flight window.
    pub pending: u64,
    /// The in-flight window bound (0 = unbounded/unknown).
    pub window: u64,
    /// Age of the oldest in-flight job, seconds.
    pub oldest_wait_secs: f64,
    /// Sites with weather counters.
    pub sites: u64,
    /// Sum of per-site gatekeeper submits.
    pub site_submits: u64,
    /// Sum of per-site client-side attempt failures.
    pub site_attempt_failures: u64,
    /// `broker.quarantine` transitions observed (cumulative).
    pub quarantines: u64,
    /// Flight-ring occupancy.
    pub ring_len: u64,
    /// Flight-ring records evicted so far.
    pub ring_evicted: u64,
}

/// Sum the per-site weather counters without building full weather rows
/// (no histogram sorting on the heartbeat path).
pub fn site_aggregates(m: &Metrics) -> (u64, u64, u64) {
    let mut sites: BTreeSet<&str> = BTreeSet::new();
    let (mut submits, mut failures) = (0u64, 0u64);
    for (name, v) in m.counters() {
        let Some(rest) = name.strip_prefix("site.") else {
            continue;
        };
        if let Some(site) = rest.strip_suffix(".submits") {
            if !site.is_empty() {
                sites.insert(site);
                submits += v;
            }
        } else if let Some(site) = rest.strip_suffix(".attempt_failures") {
            if !site.is_empty() {
                sites.insert(site);
                failures += v;
            }
        }
    }
    (sites.len() as u64, submits, failures)
}

/// Render one heartbeat as a single JSONL line (no trailing newline).
pub fn telemetry_line(s: &TelemetrySample) -> String {
    format!(
        "{{\"t\":{},\"events\":{},\"queue\":{},\"done\":{},\"failed\":{},\"dispatched\":{},\
         \"inflight\":{},\"pending\":{},\"window\":{},\"oldest_wait_secs\":{:.1},\"sites\":{},\
         \"site_submits\":{},\"site_attempt_failures\":{},\"quarantines\":{},\"ring\":{},\
         \"ring_evicted\":{}}}",
        s.t_us,
        s.events,
        s.queue_depth,
        s.done,
        s.failed,
        s.dispatched,
        s.inflight,
        s.pending,
        s.window,
        s.oldest_wait_secs,
        s.sites,
        s.site_submits,
        s.site_attempt_failures,
        s.quarantines,
        s.ring_len,
        s.ring_evicted,
    )
}

/// Streams heartbeat (and anomaly) lines to a writer, best-effort like the
/// JSONL trace exporter: the simulation never aborts on telemetry I/O.
pub struct TelemetryWriter<W: Write> {
    writer: W,
    lines: u64,
    errored: bool,
}

impl<W: Write> TelemetryWriter<W> {
    /// Stream heartbeats to `writer`.
    pub fn new(writer: W) -> TelemetryWriter<W> {
        TelemetryWriter {
            writer,
            lines: 0,
            errored: false,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// True if any write failed.
    pub fn errored(&self) -> bool {
        self.errored
    }

    fn line(&mut self, line: &str) {
        if self.errored {
            return;
        }
        if writeln!(self.writer, "{line}").is_err() {
            self.errored = true;
            return;
        }
        self.lines += 1;
    }

    /// Write one heartbeat line.
    pub fn emit(&mut self, s: &TelemetrySample) {
        self.line(&telemetry_line(s));
    }

    /// Write one anomaly line (interleaved with heartbeats, distinguished
    /// by the `"anomaly"` key).
    pub fn anomaly(&mut self, t_us: u64, a: &Anomaly) {
        let line = format!(
            "{{\"t\":{},\"anomaly\":{},\"reason\":{},\"anchor\":{}}}",
            t_us,
            crate::obs::export::json_string(a.kind.name()),
            crate::obs::export::json_string(&a.reason),
            crate::obs::export::json_string(a.anchor.as_deref().unwrap_or("")),
        );
        self.line(&line);
    }

    /// Flush buffered output.
    pub fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.errored = true;
        }
    }
}

impl TelemetryWriter<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and stream heartbeats through a buffer.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(TelemetryWriter::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

// ---- anomaly detectors -------------------------------------------------

/// Thresholds for the four detectors. Zeroing a threshold disables its
/// detector (`quarantine_storm: 0` etc.).
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Oldest in-flight job older than this is a stuck-job anomaly.
    pub stuck_horizon: Duration,
    /// Interval completions below this fraction of the trailing mean is a
    /// throughput collapse.
    pub collapse_fraction: f64,
    /// Trailing mean must be at least this many completions/interval
    /// before the collapse detector arms (quiet starts are not collapses).
    pub collapse_min_mean: f64,
    /// Intervals in the trailing window.
    pub trailing_intervals: usize,
    /// New quarantines within one interval that count as a storm.
    pub quarantine_storm: u64,
    /// Consecutive full-window zero-completion intervals that count as a
    /// backpressure stall.
    pub stall_intervals: u32,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            stuck_horizon: Duration::from_hours(4),
            collapse_fraction: 0.2,
            collapse_min_mean: 100.0,
            trailing_intervals: 8,
            quarantine_storm: 3,
            stall_intervals: 3,
        }
    }
}

/// What tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Oldest in-flight job exceeded the horizon.
    StuckJob,
    /// Completions collapsed against the trailing window.
    ThroughputCollapse,
    /// A burst of site quarantines in one interval.
    QuarantineStorm,
    /// In-flight window full with zero completions, repeatedly.
    BackpressureStall,
}

impl AnomalyKind {
    /// Stable snake-case name (telemetry key, dump reason prefix).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::StuckJob => "stuck_job",
            AnomalyKind::ThroughputCollapse => "throughput_collapse",
            AnomalyKind::QuarantineStorm => "quarantine_storm",
            AnomalyKind::BackpressureStall => "backpressure_stall",
        }
    }
}

/// A detector verdict: what tripped, why, and (when known) the job/site
/// the dump window should anchor on.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// Which detector.
    pub kind: AnomalyKind,
    /// Threshold arithmetic, human-readable.
    pub reason: String,
    /// Dump anchor (`None` = dump the whole ring).
    pub anchor: Option<String>,
}

/// Runs the four detectors over successive [`TelemetrySample`]s. Each
/// detector fires at most once per run — a black box records the incident,
/// it does not spam dumps while the incident persists.
#[derive(Debug, Default)]
pub struct AnomalyDetector {
    config: DetectorConfig,
    history: VecDeque<u64>,
    prev_settled: u64,
    prev_quarantines: u64,
    stall_run: u32,
    fired: Vec<AnomalyKind>,
}

impl AnomalyDetector {
    /// A detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> AnomalyDetector {
        AnomalyDetector {
            config,
            ..AnomalyDetector::default()
        }
    }

    fn fire(
        &mut self,
        out: &mut Vec<Anomaly>,
        kind: AnomalyKind,
        reason: String,
        anchor: Option<String>,
    ) {
        if self.fired.contains(&kind) {
            return;
        }
        self.fired.push(kind);
        out.push(Anomaly {
            kind,
            reason,
            anchor,
        });
    }

    /// Feed one heartbeat; `quarantine_site` names the most recently
    /// quarantined site (the storm anchor), if any. Returns newly fired
    /// anomalies.
    pub fn observe(&mut self, s: &TelemetrySample, quarantine_site: Option<&str>) -> Vec<Anomaly> {
        let mut out = Vec::new();
        let settled = s.done + s.failed;
        let delta = settled.saturating_sub(self.prev_settled);
        let new_quarantines = s.quarantines.saturating_sub(self.prev_quarantines);
        self.prev_settled = settled;
        self.prev_quarantines = s.quarantines;

        let horizon = self.config.stuck_horizon.as_secs_f64();
        if horizon > 0.0 && s.inflight > 0 && s.oldest_wait_secs > horizon {
            self.fire(
                &mut out,
                AnomalyKind::StuckJob,
                format!(
                    "oldest in-flight job waited {:.0}s (> {horizon:.0}s horizon)",
                    s.oldest_wait_secs
                ),
                None,
            );
        }
        if self.config.quarantine_storm > 0 && new_quarantines >= self.config.quarantine_storm {
            self.fire(
                &mut out,
                AnomalyKind::QuarantineStorm,
                format!(
                    "{new_quarantines} quarantines in one interval (>= {})",
                    self.config.quarantine_storm
                ),
                quarantine_site.map(str::to_string),
            );
        }
        if self.history.len() == self.config.trailing_intervals
            && self.config.trailing_intervals > 0
        {
            let mean =
                self.history.iter().sum::<u64>() as f64 / self.config.trailing_intervals as f64;
            if mean >= self.config.collapse_min_mean
                && (delta as f64) < self.config.collapse_fraction * mean
            {
                self.fire(
                    &mut out,
                    AnomalyKind::ThroughputCollapse,
                    format!(
                        "{delta} completions this interval vs trailing mean {mean:.0} \
                         (< {:.0}%)",
                        self.config.collapse_fraction * 100.0
                    ),
                    None,
                );
            }
        }
        self.history.push_back(delta);
        while self.history.len() > self.config.trailing_intervals {
            self.history.pop_front();
        }
        if self.config.stall_intervals > 0 {
            if s.window > 0 && s.inflight >= s.window && delta == 0 {
                self.stall_run += 1;
                if self.stall_run >= self.config.stall_intervals {
                    self.fire(
                        &mut out,
                        AnomalyKind::BackpressureStall,
                        format!(
                            "in-flight window full ({}) with 0 completions for {} intervals",
                            s.window, self.stall_run
                        ),
                        None,
                    );
                }
            } else {
                self.stall_run = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_CAUSE;

    fn ev(time_us: u64, kind: &'static str, detail: &str, id: u64, cause: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime(time_us),
            addr: Addr {
                node: NodeId(1),
                comp: CompId(2),
            },
            kind: kind.into(),
            detail: detail.to_string(),
            id,
            cause,
        }
    }

    fn feed(rec: &FlightRecorder, events: &[TraceEvent]) {
        let mut sub = rec.clone();
        for e in events {
            sub.on_event(e);
        }
    }

    #[test]
    fn ring_fills_to_capacity_without_eviction() {
        let rec = FlightRecorder::new(4);
        feed(
            &rec,
            &(0..4)
                .map(|i| ev(i, "k.a", &format!("d{i}"), i, NO_CAUSE))
                .collect::<Vec<_>>(),
        );
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.evicted(), 0);
        let details: Vec<_> = rec.records().into_iter().map(|r| r.detail).collect();
        assert_eq!(details, vec!["d0", "d1", "d2", "d3"]);
    }

    #[test]
    fn ring_wraps_at_capacity_boundary() {
        let rec = FlightRecorder::new(4);
        feed(
            &rec,
            &(0..7)
                .map(|i| ev(i, "k.a", &format!("d{i}"), i, NO_CAUSE))
                .collect::<Vec<_>>(),
        );
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.seen(), 7);
        assert_eq!(rec.evicted(), 3);
        let details: Vec<_> = rec.records().into_iter().map(|r| r.detail).collect();
        assert_eq!(
            details,
            vec!["d3", "d4", "d5", "d6"],
            "oldest evicted first"
        );
        // Exactly one more: boundary eviction stays consistent.
        feed(&rec, &[ev(7, "k.a", "d7", 7, NO_CAUSE)]);
        let details: Vec<_> = rec.records().into_iter().map(|r| r.detail).collect();
        assert_eq!(details, vec!["d4", "d5", "d6", "d7"]);
    }

    #[test]
    fn arena_wraps_and_details_survive() {
        // 10-byte details in a 16-byte arena: at most one fits whole, so
        // the circular byte buffer wraps on nearly every push and eviction
        // is driven by arena pressure, not slot count.
        let rec = FlightRecorder::with_arena(3, 16);
        for i in 0..50u64 {
            feed(
                &rec,
                &[ev(i, "k.a", &format!("detail-{i:03}"), i, NO_CAUSE)],
            );
        }
        let details: Vec<_> = rec.records().into_iter().map(|r| r.detail).collect();
        assert!(!details.is_empty() && details.len() <= 3);
        assert_eq!(details.last().map(String::as_str), Some("detail-049"));
        for (i, d) in details.iter().enumerate() {
            assert_eq!(d, &format!("detail-{:03}", 50 - details.len() + i));
        }
        assert_eq!(rec.seen(), 50);
        assert_eq!(rec.evicted() as usize, 50 - details.len());
    }

    #[test]
    fn capacity_zero_only_counts() {
        let rec = FlightRecorder::new(0);
        feed(&rec, &[ev(0, "k.a", "x", 0, NO_CAUSE)]);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.seen(), 1);
        assert_eq!(rec.evicted(), 1);
        assert!(rec.records().is_empty());
    }

    #[test]
    fn oversized_detail_clips_at_char_boundary() {
        let rec = FlightRecorder::with_arena(2, 8);
        // 3-byte chars: 4 of them = 12 bytes > 8-byte arena; clip must not
        // split the third character.
        feed(&rec, &[ev(0, "k.a", "€€€€", 0, NO_CAUSE)]);
        let r = rec.records();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].detail, "€€");
    }

    #[test]
    fn pinned_records_survive_ring_churn() {
        let rec = FlightRecorder::new(4);
        feed(&rec, &[ev(5, "fault.crash", "node=gk.siteA", 1, NO_CAUSE)]);
        feed(
            &rec,
            &(0..100)
                .map(|i| ev(10 + i, "k.a", &format!("d{i}"), 10 + i, NO_CAUSE))
                .collect::<Vec<_>>(),
        );
        let pinned = rec.pinned();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].kind, "fault.crash");
        assert_eq!(pinned[0].detail, "node=gk.siteA");
        // Pinned records do not occupy ring slots.
        assert_eq!(rec.len(), 4);
        // And every dump window carries them.
        let window = rec.causal_window("d99");
        assert!(window.iter().any(|r| r.kind == "fault.crash"));
    }

    #[test]
    fn quarantine_counter_and_site() {
        let rec = FlightRecorder::new(4);
        feed(
            &rec,
            &[
                ev(
                    1,
                    "broker.quarantine",
                    "site=alpha reason=failures",
                    1,
                    NO_CAUSE,
                ),
                ev(
                    2,
                    "broker.quarantine",
                    "site=beta reason=failures",
                    2,
                    NO_CAUSE,
                ),
            ],
        );
        assert_eq!(rec.quarantines(), 2);
        assert_eq!(rec.last_quarantine_site().as_deref(), Some("beta"));
        assert_eq!(rec.pinned().len(), 2);
    }

    #[test]
    fn causal_window_follows_cause_links_both_ways() {
        let rec = FlightRecorder::new(16);
        feed(
            &rec,
            &[
                ev(1, "k.root", "origin", 1, NO_CAUSE),
                ev(2, "k.mid", "relay", 2, 1),
                ev(3, "k.leaf", "job=42 stuck", 3, 2),
                ev(4, "k.retry", "resubmit after stall", 4, 3),
                ev(5, "k.other", "unrelated", 5, NO_CAUSE),
            ],
        );
        let window = rec.causal_window("job=42");
        let kinds: Vec<_> = window.iter().map(|r| &*r.kind).collect();
        // Ancestors (why) and descendants (blast radius), not bystanders.
        assert_eq!(kinds, vec!["k.root", "k.mid", "k.leaf", "k.retry"]);
        // Empty anchor selects everything.
        assert_eq!(rec.causal_window("").len(), 5);
    }

    #[test]
    fn dump_is_the_causal_window_in_cgfr() {
        let rec = FlightRecorder::new(4);
        feed(
            &rec,
            &[
                ev(1, "k.a", "job=42", 1, NO_CAUSE),
                ev(2, "k.b", "unrelated", 2, NO_CAUSE),
            ],
        );
        let (meta, events) = cgfr::decode(&rec.dump("test", "job=42", SimTime(9))).unwrap();
        assert_eq!(
            (meta.reason.as_str(), meta.anchor.as_str()),
            ("test", "job=42")
        );
        assert_eq!(meta.time, SimTime(9));
        assert_eq!(events, rec.causal_window("job=42"));
        assert_eq!(events, rec.records()[..1]);
    }

    #[test]
    fn site_aggregates_sums_counters() {
        let mut m = Metrics::default();
        m.incr("site.alpha.submits", 10);
        m.incr("site.alpha.attempt_failures", 2);
        m.incr("site.beta.submits", 5);
        m.incr("unrelated.counter", 99);
        let (sites, submits, failures) = site_aggregates(&m);
        assert_eq!(sites, 2);
        assert_eq!(submits, 15);
        assert_eq!(failures, 2);
    }

    #[test]
    fn telemetry_line_is_stable_json() {
        let s = TelemetrySample {
            t_us: 1_000_000,
            events: 10,
            done: 3,
            oldest_wait_secs: 1.25,
            ..TelemetrySample::default()
        };
        let line = telemetry_line(&s);
        assert!(line.starts_with("{\"t\":1000000,"));
        assert!(line.contains("\"done\":3"));
        assert!(line.contains("\"oldest_wait_secs\":1.2"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn telemetry_writer_counts_lines() {
        let mut w = TelemetryWriter::new(Vec::new());
        w.emit(&TelemetrySample::default());
        w.anomaly(
            5,
            &Anomaly {
                kind: AnomalyKind::StuckJob,
                reason: "r".into(),
                anchor: Some("gj1".into()),
            },
        );
        w.flush();
        assert_eq!(w.lines(), 2);
        assert!(!w.errored());
    }

    fn sample(done: u64, inflight: u64, window: u64, oldest: f64, q: u64) -> TelemetrySample {
        TelemetrySample {
            done,
            inflight,
            window,
            oldest_wait_secs: oldest,
            quarantines: q,
            ..TelemetrySample::default()
        }
    }

    #[test]
    fn stuck_job_detector_fires_once() {
        let mut d = AnomalyDetector::new(DetectorConfig::default());
        let horizon = DetectorConfig::default().stuck_horizon.as_secs_f64();
        assert!(d
            .observe(&sample(0, 1, 0, horizon - 1.0, 0), None)
            .is_empty());
        let fired = d.observe(&sample(0, 1, 0, horizon + 1.0, 0), None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::StuckJob);
        // Still stuck next interval: no re-fire.
        assert!(d
            .observe(&sample(0, 1, 0, horizon + 2.0, 0), None)
            .is_empty());
    }

    #[test]
    fn quarantine_storm_detector_anchors_on_site() {
        let mut d = AnomalyDetector::new(DetectorConfig {
            quarantine_storm: 2,
            ..DetectorConfig::default()
        });
        assert!(d
            .observe(&sample(0, 0, 0, 0.0, 1), Some("alpha"))
            .is_empty());
        let fired = d.observe(&sample(0, 0, 0, 0.0, 3), Some("beta"));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::QuarantineStorm);
        assert_eq!(fired[0].anchor.as_deref(), Some("beta"));
    }

    #[test]
    fn throughput_collapse_needs_full_trailing_window() {
        let config = DetectorConfig {
            trailing_intervals: 3,
            collapse_min_mean: 10.0,
            ..DetectorConfig::default()
        };
        let mut d = AnomalyDetector::new(config);
        let mut done = 0;
        for _ in 0..3 {
            done += 100;
            assert!(d.observe(&sample(done, 0, 0, 0.0, 0), None).is_empty());
        }
        // Now the window is full with mean 100; one dead interval collapses.
        let fired = d.observe(&sample(done, 0, 0, 0.0, 0), None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::ThroughputCollapse);
    }

    #[test]
    fn collapse_does_not_arm_on_quiet_start() {
        let mut d = AnomalyDetector::new(DetectorConfig {
            trailing_intervals: 2,
            ..DetectorConfig::default()
        });
        // Mean stays below collapse_min_mean: never fires.
        for _ in 0..10 {
            assert!(d.observe(&sample(0, 0, 0, 0.0, 0), None).is_empty());
        }
    }

    #[test]
    fn backpressure_stall_needs_consecutive_full_window_zeroes() {
        let mut d = AnomalyDetector::new(DetectorConfig {
            stall_intervals: 2,
            ..DetectorConfig::default()
        });
        assert!(d.observe(&sample(0, 8, 8, 0.0, 0), None).is_empty());
        let fired = d.observe(&sample(0, 8, 8, 0.0, 0), None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::BackpressureStall);
        // A completing interval resets the run for other detectors, but
        // this one already fired once and stays quiet.
        assert!(d.observe(&sample(5, 8, 8, 0.0, 0), None).is_empty());
        assert!(d.observe(&sample(5, 8, 8, 0.0, 0), None).is_empty());
    }

    #[test]
    fn kind_interning_is_deduplicated() {
        let rec = FlightRecorder::new(8);
        for i in 0..8u64 {
            let kind = if i % 2 == 0 { "k.even" } else { "k.odd" };
            feed(&rec, &[ev(i, kind, "d", i, NO_CAUSE)]);
        }
        assert_eq!(rec.kind_count(), 2);
    }
}
