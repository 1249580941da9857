//! Job-lifecycle spans: stitching trace events into per-job timelines.
//!
//! Protocol components emit *span milestones* — trace events of kind
//! `"span"` whose detail is a space-separated `key=value` list — at each
//! boundary of the Figure-1 pipeline:
//!
//! | milestone       | emitted by          | meaning                                   |
//! |-----------------|---------------------|-------------------------------------------|
//! | `submit`        | `core::GridManager` | two-phase GRAM submit sent (opens attempt)|
//! | `auth`          | `gram::Gatekeeper`  | GSI authentication + authorization passed |
//! | `commit`        | `gram::JobManager`  | commit received, stage-in begins          |
//! | `stage_in_done` | `gram::JobManager`  | executable staged, handed to site LRM     |
//! | `active`        | `gram::JobManager`  | site scheduler started the job            |
//! | `stage_out`     | `gram::JobManager`  | output staging back to the client began   |
//! | `done`/`failed`/`removed` | `core::GridManager` | terminal state reported to user |
//!
//! Identity is threaded the way the protocols thread it: the `submit`
//! milestone carries `job=<id> seq=<n>`, the gatekeeper's `auth` carries
//! `seq=<n> contact=<c>`, and JobManager milestones carry `contact=<c>` —
//! the [`SpanCollector`] joins them back into per-job [`JobSpan`]s with one
//! [`AttemptSpan`] per (re)submission. GASS transfers annotate the span
//! they belong to via the job-stdout path convention.
//!
//! This is the one place those joins are made: the scenario report, the
//! offline forensics and the Perfetto export all read the collector (and
//! its [`field`], [`phase_between`] and [`SpanCollector::job_of`]) rather
//! than re-deriving them.

use crate::metrics::Metrics;
use crate::time::{Duration, SimTime};
use crate::trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The trace-event kind span milestones are emitted under.
pub const SPAN_KIND: &str = "span";

/// Pipeline phases, in order. Each phase is the interval ending at the
/// correspondingly named milestone (e.g. `Auth` spans submit→auth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanPhase {
    /// Submit sent → gatekeeper authenticated (network + GSI handshake).
    Auth,
    /// Authenticated → commit received by the JobManager (two-phase commit).
    Commit,
    /// Commit → executable/stdin staged and job handed to the site LRM.
    StageIn,
    /// Handed to the LRM → the site scheduler started it (queue wait).
    Queue,
    /// Started → finished executing.
    Execute,
    /// Execution done → output staged back to the client.
    StageOut,
}

impl SpanPhase {
    /// Metric-friendly name (`span.phase.<name>` histograms).
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Auth => "auth",
            SpanPhase::Commit => "commit",
            SpanPhase::StageIn => "stage_in",
            SpanPhase::Queue => "queue",
            SpanPhase::Execute => "execute",
            SpanPhase::StageOut => "stage_out",
        }
    }
}

/// All phases in pipeline order.
pub const PHASES: [SpanPhase; 6] = [
    SpanPhase::Auth,
    SpanPhase::Commit,
    SpanPhase::StageIn,
    SpanPhase::Queue,
    SpanPhase::Execute,
    SpanPhase::StageOut,
];

/// The phase spanned by a consecutive milestone pair. `done` after
/// `active` means execution with no output staging, so the pair decides.
pub fn phase_between(prev: &str, next: &str) -> Option<SpanPhase> {
    Some(match (prev, next) {
        ("submit", "auth") => SpanPhase::Auth,
        ("auth", "commit") => SpanPhase::Commit,
        ("commit", "stage_in_done") => SpanPhase::StageIn,
        ("stage_in_done", "active") => SpanPhase::Queue,
        ("active", "stage_out") | ("active", "done") => SpanPhase::Execute,
        ("stage_out", "done") => SpanPhase::StageOut,
        _ => return None,
    })
}

/// One (re)submission attempt of a job.
#[derive(Debug, Clone, Default)]
pub struct AttemptSpan {
    /// GRAM submission sequence number.
    pub seq: Option<u64>,
    /// Site the broker chose.
    pub site: Option<String>,
    /// Job contact assigned by the gatekeeper.
    pub contact: Option<u64>,
    /// Milestones in arrival order: `(name, time, kernel event id)`. The
    /// first is always the `submit` that opened the attempt.
    pub milestones: Vec<(String, SimTime, u64)>,
    /// Bytes of output staged back, from GASS transfer annotations.
    pub staged_out_bytes: u64,
}

impl AttemptSpan {
    /// Time of the named milestone, if reached.
    pub fn at(&self, milestone: &str) -> Option<SimTime> {
        self.milestones
            .iter()
            .find(|(name, ..)| name == milestone)
            .map(|&(_, t, _)| t)
    }

    /// Duration of each completed phase, in pipeline order.
    pub fn phase_durations(&self) -> Vec<(SpanPhase, Duration)> {
        let mut out = Vec::new();
        for pair in self.milestones.windows(2) {
            let (ref prev, start, _) = pair[0];
            let (ref next, end, _) = pair[1];
            if let Some(phase) = phase_between(prev, next) {
                out.push((phase, end - start));
            }
        }
        out
    }

    /// The last terminal milestone (`done`/`failed`/`removed`), if reached.
    pub fn terminal(&self) -> Option<&(String, SimTime, u64)> {
        self.milestones
            .iter()
            .rev()
            .find(|(name, ..)| is_terminal(name))
    }
}

/// A job's full lifecycle: one or more attempts, last one authoritative.
#[derive(Debug, Clone, Default)]
pub struct JobSpan {
    /// The job's queue id.
    pub job: u64,
    /// Submission attempts, in order.
    pub attempts: Vec<AttemptSpan>,
}

impl JobSpan {
    /// The last (authoritative) attempt.
    pub fn last_attempt(&self) -> Option<&AttemptSpan> {
        self.attempts.last()
    }

    /// Whether the full submit → done pipeline completed in some attempt.
    pub fn completed(&self) -> bool {
        self.attempts
            .iter()
            .any(|a| a.terminal().is_some_and(|(name, ..)| name == "done"))
    }
}

/// Joins span milestones back into per-job timelines.
///
/// A milestone goes to its job's *latest* attempt, with one exception:
/// `auth` names a `seq`, so it goes to the attempt that was submitted under
/// that `seq` even when a resubmission has since opened a newer one (a
/// gatekeeper that answers late must not hand its contact to the retry).
/// The contact still resolves to the job from then on.
#[derive(Debug, Default)]
pub struct SpanCollector {
    jobs: BTreeMap<u64, JobSpan>,
    /// seq → job, registered by `submit` milestones.
    seq_to_job: BTreeMap<u64, u64>,
    /// contact → job, registered by `auth` milestones.
    contact_to_job: BTreeMap<u64, u64>,
    /// Span events that could not be attributed (unknown seq/contact).
    pub orphans: u64,
}

/// Look `key` up in a space-separated `key=value` detail; values cannot
/// contain spaces (the emitters guarantee that for identity keys;
/// free-text keys go last).
pub fn field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail.split_whitespace().find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn num(detail: &str, key: &str) -> Option<u64> {
    field(detail, key)?.parse().ok()
}

fn is_terminal(milestone: &str) -> bool {
    matches!(milestone, "done" | "failed" | "removed")
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> SpanCollector {
        SpanCollector::default()
    }

    /// Build a collector from recorded events (offline reconstruction).
    pub fn from_events(events: &[TraceEvent]) -> SpanCollector {
        let mut c = SpanCollector::new();
        for e in events {
            c.ingest(e);
        }
        c
    }

    /// All reconstructed job spans, keyed by job id.
    pub fn jobs(&self) -> &BTreeMap<u64, JobSpan> {
        &self.jobs
    }

    /// The grid job a record belongs to, by the joins learned so far: a
    /// span milestone via its `job=`, `seq=` or `contact=` field (a GASS
    /// transfer via the stdout-path convention `/condor_g/out/gj<job>`;
    /// stage-in and unrelated transfers carry no job id), a `gm.*` record
    /// via the `gj<N>` its detail leads with.
    pub fn job_of(&self, event: &TraceEvent) -> Option<u64> {
        let detail = event.detail.as_str();
        if event.kind == SPAN_KIND {
            if field(detail, "phase") == Some("transfer") {
                return field(detail, "path")?
                    .strip_prefix("/condor_g/out/gj")?
                    .parse()
                    .ok();
            }
            return num(detail, "job")
                .or_else(|| self.seq_to_job.get(&num(detail, "seq")?).copied())
                .or_else(|| self.contact_to_job.get(&num(detail, "contact")?).copied());
        }
        if !event.kind.starts_with("gm.") {
            return None;
        }
        let rest = detail.strip_prefix("gj")?;
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Feed one event; non-span kinds are ignored.
    pub fn ingest(&mut self, event: &TraceEvent) {
        if event.kind != SPAN_KIND {
            return;
        }
        let detail = event.detail.as_str();
        let Some(milestone) = field(detail, "phase") else {
            self.orphans += 1;
            return;
        };
        let job = self.job_of(event);
        if milestone == "transfer" {
            let attempt = job
                .and_then(|job| self.jobs.get_mut(&job))
                .and_then(|span| span.attempts.last_mut());
            if let Some(attempt) = attempt {
                attempt.staged_out_bytes += num(detail, "bytes").unwrap_or(0);
            }
            return;
        }
        let Some(job) = job else {
            self.orphans += 1;
            return;
        };
        let seq = num(detail, "seq");
        let span = self.jobs.entry(job).or_insert_with(|| JobSpan {
            job,
            ..JobSpan::default()
        });
        let reached = (milestone.to_string(), event.time, event.id);
        if milestone == "submit" {
            // A new attempt begins.
            span.attempts.push(AttemptSpan {
                seq,
                site: field(detail, "site").map(str::to_string),
                milestones: vec![reached],
                ..AttemptSpan::default()
            });
            if let Some(seq) = seq {
                self.seq_to_job.insert(seq, job);
            }
            return;
        }
        let attempt = if milestone == "auth" {
            span.attempts.iter_mut().rev().find(|a| a.seq == seq)
        } else {
            span.attempts.last_mut()
        };
        let Some(attempt) = attempt else {
            self.orphans += 1;
            return;
        };
        if milestone == "auth" {
            if let Some(contact) = num(detail, "contact") {
                attempt.contact = Some(contact);
                self.contact_to_job.insert(contact, job);
            }
        }
        attempt.milestones.push(reached);
    }

    /// Record per-phase duration histograms (`span.phase.<name>`, seconds)
    /// and pipeline counters into `metrics`.
    pub fn report_metrics(&self, metrics: &mut Metrics) {
        for span in self.jobs.values() {
            metrics.incr("span.jobs", 1);
            metrics.incr("span.attempts", span.attempts.len() as u64);
            if span.completed() {
                metrics.incr("span.jobs_completed", 1);
            }
            for attempt in &span.attempts {
                for (phase, d) in attempt.phase_durations() {
                    metrics.observe_duration(&format!("span.phase.{}", phase.name()), d);
                }
                // End-to-end: submit to terminal, when both exist.
                if let (Some(&(_, start, _)), Some(&(_, end, _))) =
                    (attempt.milestones.first(), attempt.terminal())
                {
                    metrics.observe_duration("span.end_to_end", end - start);
                }
            }
        }
    }

    /// Render the reconstructed timelines as a ladder, one job per block —
    /// the generalization of the Figure-1/Figure-2 protocol ladder printer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for span in self.jobs.values() {
            let _ = writeln!(
                out,
                "gj{} ({} attempt{})",
                span.job,
                span.attempts.len(),
                if span.attempts.len() == 1 { "" } else { "s" }
            );
            for (i, attempt) in span.attempts.iter().enumerate() {
                let site = attempt.site.as_deref().unwrap_or("?");
                let _ = write!(out, "  attempt {} via {site}", i + 1);
                if let Some(seq) = attempt.seq {
                    let _ = write!(out, " (seq {seq}");
                    if let Some(c) = attempt.contact {
                        let _ = write!(out, ", contact jc{c}");
                    }
                    out.push(')');
                }
                out.push('\n');
                let mut prev: Option<SimTime> = None;
                for (name, t, _) in &attempt.milestones {
                    let _ = write!(out, "    {name:<14} at {t}");
                    if let Some(p) = prev {
                        let _ = write!(out, "  (+{})", *t - p);
                    }
                    out.push('\n');
                    prev = Some(*t);
                }
                if attempt.staged_out_bytes > 0 {
                    let _ = writeln!(out, "    staged out {} bytes", attempt.staged_out_bytes);
                }
            }
        }
        out
    }

    /// A per-phase summary table: `(phase name, samples, mean seconds)`.
    pub fn phase_summary(&self) -> Vec<(&'static str, usize, f64)> {
        let mut acc: BTreeMap<SpanPhase, (usize, f64)> = BTreeMap::new();
        for span in self.jobs.values() {
            for attempt in &span.attempts {
                for (phase, d) in attempt.phase_durations() {
                    let e = acc.entry(phase).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += d.as_secs_f64();
                }
            }
        }
        PHASES
            .iter()
            .filter_map(|p| {
                let &(n, sum) = acc.get(p)?;
                Some((p.name(), n, sum / n as f64))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Addr, CompId, NodeId};

    fn span_ev(t: u64, detail: &str) -> TraceEvent {
        TraceEvent {
            time: SimTime(t),
            addr: Addr {
                node: NodeId(0),
                comp: CompId(0),
            },
            kind: SPAN_KIND.into(),
            detail: detail.to_string(),
            id: t,
            cause: crate::event::NO_CAUSE,
        }
    }

    fn full_pipeline() -> Vec<TraceEvent> {
        vec![
            span_ev(1_000_000, "job=0 seq=5 phase=submit site=anl"),
            span_ev(2_000_000, "seq=5 contact=77 phase=auth"),
            span_ev(3_000_000, "contact=77 phase=commit"),
            span_ev(5_000_000, "contact=77 phase=stage_in_done"),
            span_ev(9_000_000, "contact=77 phase=active"),
            span_ev(20_000_000, "contact=77 phase=stage_out"),
            span_ev(
                21_000_000,
                "phase=transfer op=put path=/condor_g/out/gj0 bytes=250000",
            ),
            span_ev(22_000_000, "job=0 phase=done"),
        ]
    }

    #[test]
    fn reconstructs_full_pipeline() {
        let c = SpanCollector::from_events(&full_pipeline());
        assert_eq!(c.orphans, 0);
        let span = &c.jobs()[&0];
        assert!(span.completed());
        assert_eq!(span.attempts.len(), 1);
        let a = &span.attempts[0];
        assert_eq!(a.seq, Some(5));
        assert_eq!(a.contact, Some(77));
        assert_eq!(a.site.as_deref(), Some("anl"));
        assert_eq!(a.staged_out_bytes, 250_000);
        let phases: Vec<(SpanPhase, Duration)> = a.phase_durations();
        assert_eq!(
            phases,
            vec![
                (SpanPhase::Auth, Duration::from_secs(1)),
                (SpanPhase::Commit, Duration::from_secs(1)),
                (SpanPhase::StageIn, Duration::from_secs(2)),
                (SpanPhase::Queue, Duration::from_secs(4)),
                (SpanPhase::Execute, Duration::from_secs(11)),
                (SpanPhase::StageOut, Duration::from_secs(2)),
            ]
        );
        assert_eq!(
            a.terminal(),
            Some(&("done".to_string(), SimTime(22_000_000), 22_000_000))
        );
    }

    #[test]
    fn resubmission_opens_a_new_attempt() {
        let events = vec![
            span_ev(1_000_000, "job=3 seq=0 phase=submit site=a"),
            span_ev(2_000_000, "seq=0 contact=10 phase=auth"),
            span_ev(60_000_000, "job=3 seq=1 phase=submit site=b"),
            span_ev(61_000_000, "seq=1 contact=11 phase=auth"),
            span_ev(90_000_000, "job=3 phase=done"),
        ];
        let c = SpanCollector::from_events(&events);
        let span = &c.jobs()[&3];
        assert_eq!(span.attempts.len(), 2);
        assert_eq!(span.attempts[0].site.as_deref(), Some("a"));
        assert_eq!(span.attempts[1].site.as_deref(), Some("b"));
        assert_eq!(span.attempts[1].contact, Some(11));
        assert!(span.completed());
    }

    /// The one rule the three former stitchers disagreed on.
    #[test]
    fn late_auth_lands_on_the_attempt_its_seq_names() {
        let events = vec![
            span_ev(1_000_000, "job=3 seq=0 phase=submit site=a"),
            span_ev(60_000_000, "job=3 seq=1 phase=submit site=b"),
            span_ev(61_000_000, "seq=0 contact=10 phase=auth"),
            span_ev(62_000_000, "contact=10 phase=commit"),
        ];
        let c = SpanCollector::from_events(&events);
        assert_eq!(c.orphans, 0);
        let attempts = &c.jobs()[&3].attempts;
        assert_eq!(attempts[0].contact, Some(10));
        assert_eq!(attempts[0].at("auth"), Some(SimTime(61_000_000)));
        assert_eq!(attempts[1].contact, None, "the retry has no contact yet");
        assert_eq!(attempts[1].at("auth"), None);
        // The contact resolves to the job all the same.
        assert_eq!(c.job_of(&events[3]), Some(3));
    }

    #[test]
    fn job_of_reads_spans_transfers_and_gm_records() {
        let c = SpanCollector::from_events(&full_pipeline());
        let of = |kind: &'static str, detail: &str| {
            c.job_of(&TraceEvent {
                kind: kind.into(),
                ..span_ev(0, detail)
            })
        };
        assert_eq!(of(SPAN_KIND, "seq=5 phase=auth"), Some(0));
        assert_eq!(of(SPAN_KIND, "contact=77 phase=active"), Some(0));
        assert_eq!(of(SPAN_KIND, "contact=78 phase=active"), None);
        assert_eq!(
            of(SPAN_KIND, "phase=transfer op=put path=/condor_g/out/gj9"),
            Some(9)
        );
        assert_eq!(of(SPAN_KIND, "phase=transfer op=get path=/home/app"), None);
        assert_eq!(
            of("gm.attempt_failed", "gj12: gatekeeper unreachable"),
            Some(12)
        );
        assert_eq!(of("gm.exit", "all jobs complete"), None);
        assert_eq!(of("lrm.start", "gj12"), None);
    }

    #[test]
    fn unattributable_events_counted_not_crashed() {
        let events = vec![
            span_ev(1, "contact=999 phase=active"),
            span_ev(2, "nonsense"),
        ];
        let c = SpanCollector::from_events(&events);
        assert!(c.jobs().is_empty());
        assert_eq!(c.orphans, 2);
    }

    #[test]
    fn metrics_report_phase_histograms() {
        let mut m = Metrics::new();
        SpanCollector::from_events(&full_pipeline()).report_metrics(&mut m);
        assert_eq!(m.counter("span.jobs"), 1);
        assert_eq!(m.counter("span.jobs_completed"), 1);
        let h = m
            .histogram("span.phase.queue")
            .expect("queue phase observed");
        assert_eq!(h.count(), 1);
        assert!((h.mean() - 4.0).abs() < 1e-9);
        let e2e = m.histogram("span.end_to_end").expect("end-to-end observed");
        assert!((e2e.mean() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn render_shows_ladder() {
        let c = SpanCollector::from_events(&full_pipeline());
        let text = c.render();
        assert!(text.contains("gj0 (1 attempt)"));
        assert!(text.contains("attempt 1 via anl (seq 5, contact jc77)"));
        assert!(text.contains("submit"));
        assert!(text.contains("staged out 250000 bytes"));
        let summary = c.phase_summary();
        assert_eq!(summary.len(), 6, "all six pipeline phases completed");
        assert_eq!(summary[0].0, "auth");
    }
}
