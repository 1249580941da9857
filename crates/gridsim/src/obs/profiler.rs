//! Kernel profiler: where does the simulator spend its (real) time?
//!
//! Hooked into [`crate::World`]'s event loop when enabled, it records per
//! event-kind counts, per-component handler counts and wall-clock handler
//! time, and samples the event-queue depth into a [`TimeSeries`] keyed by
//! virtual time. Wall-clock measurements are observational only — they never
//! feed back into the simulation, so determinism is unaffected.

use crate::metrics::TimeSeries;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration as WallDuration, Instant};

/// How often (in events) the queue depth is sampled: cheap enough to leave
/// on for week-long campaigns, fine enough to see backlog build-ups.
const DEPTH_SAMPLE_STRIDE: u64 = 256;

/// Per-component-group profile.
#[derive(Debug, Default, Clone)]
pub struct CompProfile {
    /// Handler invocations (messages + timers + starts/stops).
    pub events: u64,
    /// Total wall-clock time spent inside this group's handlers.
    pub busy: WallDuration,
}

/// The profiler state; obtain via [`crate::World::profiler`].
#[derive(Debug)]
pub struct Profiler {
    started: Instant,
    events_seen: u64,
    handler_busy: WallDuration,
    /// Keyed by component *group*: the registered name with any numeric
    /// instance suffix stripped, so ten thousand `jm-jc…` JobManagers
    /// aggregate into one row.
    per_comp: BTreeMap<String, CompProfile>,
    per_kind: BTreeMap<&'static str, u64>,
    queue_depth: TimeSeries,
    last_depth_sample_at: Option<SimTime>,
    /// Slots in the event queue's slab: what it holds, next to the sampled
    /// depth, which is what is live.
    queue_slots: usize,
    /// Flow-network refreshes, and the flow rows they visited: a refresh
    /// settles and re-rates every active flow.
    flow_refreshes: u64,
    flow_rows: u64,
}

/// Group key for a component name: everything before the first digit, with
/// trailing separators trimmed (`jm-jc8589934593` → `jm-jc`, `site0-gris`
/// → `site`). Keeps the profile table bounded by component *kinds*.
pub fn comp_group(name: &str) -> &str {
    let cut = name
        .find(|c: char| c.is_ascii_digit())
        .unwrap_or(name.len());
    name[..cut].trim_end_matches(['-', '_', '.'])
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler {
            started: Instant::now(),
            events_seen: 0,
            handler_busy: WallDuration::ZERO,
            per_comp: BTreeMap::new(),
            per_kind: BTreeMap::new(),
            queue_depth: TimeSeries::default(),
            last_depth_sample_at: None,
            queue_slots: 0,
            flow_refreshes: 0,
            flow_rows: 0,
        }
    }

    pub(crate) fn note_event(
        &mut self,
        kind: &'static str,
        now: SimTime,
        queue_len: usize,
        queue_slots: usize,
    ) {
        self.events_seen += 1;
        self.queue_slots = queue_slots;
        *self.per_kind.entry(kind).or_insert(0) += 1;
        if self.events_seen % DEPTH_SAMPLE_STRIDE == 1 {
            // TimeSeries requires monotone timestamps; multiple samples can
            // land on one instant, so only the first per instant is kept.
            if self.last_depth_sample_at != Some(now) {
                self.queue_depth.record(now, queue_len as f64);
                self.last_depth_sample_at = Some(now);
            }
        }
    }

    pub(crate) fn note_flow_refresh(&mut self, rows: usize) {
        self.flow_refreshes += 1;
        self.flow_rows += rows as u64;
    }

    pub(crate) fn note_handler(&mut self, comp_name: &str, elapsed: WallDuration) {
        self.handler_busy += elapsed;
        // The group almost always exists: look up by borrowed key first and
        // only allocate the String on a group's first event.
        let group = comp_group(comp_name);
        let entry = if let Some(entry) = self.per_comp.get_mut(group) {
            entry
        } else {
            self.per_comp.entry(group.to_string()).or_default()
        };
        entry.events += 1;
        entry.busy += elapsed;
    }

    /// Kernel events observed while profiling.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Wall-clock time spent inside component handlers.
    pub fn handler_busy(&self) -> WallDuration {
        self.handler_busy
    }

    /// Per-component-group profiles, keyed by group name.
    pub fn components(&self) -> &BTreeMap<String, CompProfile> {
        &self.per_comp
    }

    /// Event counts by kernel event kind (`deliver`, `timer`, ...).
    pub fn event_kinds(&self) -> &BTreeMap<&'static str, u64> {
        &self.per_kind
    }

    /// Event-queue depth sampled over virtual time.
    pub fn queue_depth(&self) -> &TimeSeries {
        &self.queue_depth
    }

    /// Event-queue slab high-water, in slots: the most events ever pending
    /// at once, and what the queue still holds memory for.
    pub fn queue_slots(&self) -> usize {
        self.queue_slots
    }

    /// Flow-network refreshes (one per flow start, completion, abort batch
    /// or link change) observed while profiling.
    pub fn flow_refreshes(&self) -> u64 {
        self.flow_refreshes
    }

    /// Flow rows those refreshes visited: the active flows at each one,
    /// summed. Exact and host-independent, like the event counts.
    pub fn flow_rows(&self) -> u64 {
        self.flow_rows
    }

    /// Human-readable end-of-run summary: totals, events/sec, the event-kind
    /// mix, and the costliest component groups.
    pub fn summary(&self) -> String {
        let elapsed = self.started.elapsed();
        let rate = self.events_seen as f64 / elapsed.as_secs_f64().max(1e-9);
        let mut out = String::new();
        let _ = writeln!(out, "kernel profile:");
        let _ = writeln!(
            out,
            "  {} events in {:.3}s wall ({:.0} events/s), {:.3}s in handlers",
            self.events_seen,
            elapsed.as_secs_f64(),
            rate,
            self.handler_busy.as_secs_f64(),
        );
        let _ = writeln!(
            out,
            "  queue depth: max {:.0}, {} samples; slab high-water {} slots",
            self.queue_depth.max(),
            self.queue_depth.points().len(),
            self.queue_slots,
        );
        let _ = writeln!(
            out,
            "  flow refreshes: {}, {} flow rows visited ({:.0} per refresh)",
            self.flow_refreshes,
            self.flow_rows,
            self.flow_rows as f64 / self.flow_refreshes.max(1) as f64,
        );
        let _ = writeln!(out, "  by event kind:");
        for (kind, count) in &self.per_kind {
            let _ = writeln!(out, "    {kind:<14} {count}");
        }
        let _ = writeln!(out, "  by component group (top 12 by handler time):");
        let mut groups: Vec<(&String, &CompProfile)> = self.per_comp.iter().collect();
        groups.sort_by(|a, b| b.1.busy.cmp(&a.1.busy).then_with(|| a.0.cmp(b.0)));
        for (name, p) in groups.into_iter().take(12) {
            let _ = writeln!(
                out,
                "    {name:<14} {:>9} handlers  {:>9.3}ms",
                p.events,
                p.busy.as_secs_f64() * 1e3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comp_groups_strip_instance_suffixes() {
        assert_eq!(comp_group("jm-jc8589934593"), "jm-jc");
        assert_eq!(comp_group("shadow-5"), "shadow");
        assert_eq!(comp_group("gatekeeper"), "gatekeeper");
        assert_eq!(comp_group("site0-gris"), "site");
        assert_eq!(comp_group(""), "");
    }

    #[test]
    fn profiler_counts_and_samples() {
        let mut p = Profiler::new();
        for i in 0..1000u64 {
            p.note_event("deliver", SimTime(i * 10), i as usize % 7, 7);
        }
        p.note_event("timer", SimTime(10_000), 3, 7);
        assert_eq!(p.events_seen(), 1001);
        assert_eq!(p.event_kinds()["deliver"], 1000);
        assert_eq!(p.event_kinds()["timer"], 1);
        // Stride 256 → samples at events 1, 257, 513, 769 (and 1025 not hit).
        assert_eq!(p.queue_depth().points().len(), 4);
        p.note_flow_refresh(740);
        p.note_flow_refresh(738);
        p.note_handler("jm-jc12", WallDuration::from_micros(50));
        p.note_handler("jm-jc13", WallDuration::from_micros(70));
        let comp = &p.components()["jm-jc"];
        assert_eq!(comp.events, 2);
        assert_eq!(comp.busy, WallDuration::from_micros(120));
        let s = p.summary();
        assert_eq!(p.queue_slots(), 7);
        assert!(s.contains("kernel profile:"));
        assert!(s.contains("slab high-water 7 slots"));
        assert_eq!((p.flow_refreshes(), p.flow_rows()), (2, 1478));
        assert!(s.contains("flow refreshes: 2, 1478 flow rows visited (739 per refresh)"));
        assert!(s.contains("deliver"));
        assert!(s.contains("jm-jc"));
    }

    #[test]
    fn depth_samples_stay_monotone_on_same_instant() {
        let mut p = Profiler::new();
        for _ in 0..600u64 {
            p.note_event("deliver", SimTime(5), 1, 1);
        }
        // Two stride hits at the same instant collapse to one point.
        assert_eq!(p.queue_depth().points().len(), 1);
    }
}
