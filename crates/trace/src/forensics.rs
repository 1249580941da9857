//! Critical-path, stuck-job, and root-cause analysis over a decoded trace.
//!
//! The analyzer puts three views side by side:
//!
//! * the happens-before DAG ([`gridsim::obs::CausalDag`]) rebuilt from the
//!   `(id, cause)` pairs on every record — the trigger chain of any event
//!   is [`CausalDag::chain_to_root`], which for a job's terminal milestone
//!   *is* its critical path (at every join the kernel records the
//!   last-arriving input as the cause);
//! * per-job attempt timelines (`submit` → `auth` → `commit` →
//!   `stage_in_done` → `active` → `stage_out` → terminal), stitched from
//!   the `"span"` milestone records by [`gridsim::obs::SpanCollector`] —
//!   the same stitcher the simulator's own report uses;
//! * the `gm.attempt_failed` records the GridManager emits when it gives
//!   up on an attempt, and the `fault.*` records the kernel emits when a
//!   fault plan fires — the ground-truth outage injections.
//!
//! Root-cause attribution prefers a causal-chain hit (a `fault.*` ancestor
//! of the failure record), but most grid failures are detected by
//! *absence* of a reply — probe timeouts have no happens-before edge from
//! the crash that caused them — so the fallback correlates the failed
//! attempt's site and time window against the fault log.

use gridsim::obs::span::{self, AttemptSpan, SpanCollector, SPAN_KIND};
use gridsim::obs::{CausalDag, DagNode};
use gridsim::time::{Duration, SimTime};
use gridsim::trace::TraceEvent;
use std::collections::BTreeMap;

/// Why a job was resubmitted (one per `gm.attempt_failed` record).
#[derive(Debug, Clone)]
pub struct Failure {
    /// When the GridManager gave up on the attempt.
    pub time: SimTime,
    /// Kernel event id of the failure record.
    pub event: u64,
    /// The GridManager's stated reason.
    pub why: String,
}

/// What the analyzer adds to a job's [`gridsim::obs::JobSpan`]. A dump
/// window can show a job's failure or terminal milestone without the
/// submit that opened its attempt, so there may be no span to go with it.
#[derive(Debug, Clone, Default)]
pub struct JobForensics {
    /// Grid job id (the `N` of `gj<N>`).
    pub job: u64,
    /// Attempt failures, in order.
    pub failures: Vec<Failure>,
    /// Terminal milestone `(phase, time, event id)`, if reached.
    pub terminal: Option<(String, SimTime, u64)>,
    /// Time of the job's last milestone of any kind.
    pub last_progress: SimTime,
    /// Phase of that last milestone.
    pub last_phase: String,
}

/// One step of a critical path, blamed on a protocol phase.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Kernel event id.
    pub event: u64,
    /// When it happened.
    pub time: SimTime,
    /// Time since the previous step on the path.
    pub elapsed: Duration,
    /// Blame category (see [`Forensics::BLAME_CATEGORIES`]).
    pub category: &'static str,
    /// `kind: detail` of the step's first record, for display.
    pub label: String,
}

/// A job's critical path with its blame breakdown.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The job.
    pub job: u64,
    /// Terminal phase (`done`, `failed`, `removed`).
    pub outcome: String,
    /// End-to-end time to the terminal milestone.
    pub total: Duration,
    /// The chain, root first.
    pub steps: Vec<PathStep>,
    /// `(category, seconds)` aggregated over the steps, largest first.
    pub blame: Vec<(&'static str, f64)>,
}

/// A job with no terminal milestone and no recent progress.
#[derive(Debug, Clone)]
pub struct StuckJob {
    /// The job.
    pub job: u64,
    /// Its last observed phase.
    pub last_phase: String,
    /// When that phase was entered.
    pub since: SimTime,
    /// Site of the last attempt, if any.
    pub site: Option<String>,
}

/// A root-cause verdict for one attempt failure.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// The job.
    pub job: u64,
    /// When the attempt failed.
    pub time: SimTime,
    /// The GridManager's stated reason.
    pub why: String,
    /// Site of the failed attempt.
    pub site: Option<String>,
    /// The fault record blamed: `(kind, detail, time)`.
    pub cause: Option<(String, String, SimTime)>,
    /// `"causal-chain"` or `"site-correlation"` (empty if unattributed).
    pub via: &'static str,
}

/// The assembled forensic views over one trace.
pub struct Forensics {
    /// The decoded records, as indexed by the DAG's nodes.
    pub records: Vec<TraceEvent>,
    /// Happens-before DAG of observable kernel events.
    pub dag: CausalDag,
    /// Per-job failures and progress, keyed by grid job id; every job
    /// with [`Forensics::attempts`] is here.
    pub jobs: BTreeMap<u64, JobForensics>,
    /// Time of the last record in the trace.
    pub end: SimTime,
    /// Indices of `fault.*` records, in order.
    faults: Vec<usize>,
    /// Per-job attempt timelines.
    spans: SpanCollector,
}

impl Forensics {
    /// The blame categories critical-path time is charged to.
    pub const BLAME_CATEGORIES: &'static [&'static str] = &[
        "fault",
        "execute",
        "lrm-wait",
        "gass-transfer",
        "commit",
        "negotiation",
        "gatekeeper",
        "gridmanager",
        "wan",
        "other",
    ];

    /// Build every view from decoded records.
    pub fn build(records: Vec<TraceEvent>) -> Forensics {
        let dag = CausalDag::from_events(&records);
        let mut spans = SpanCollector::new();
        let mut jobs: BTreeMap<u64, JobForensics> = BTreeMap::new();
        let mut faults = Vec::new();
        let mut end = SimTime::ZERO;
        for (i, r) in records.iter().enumerate() {
            end = end.max(r.time);
            if r.kind.starts_with("fault.") {
                faults.push(i);
            }
            // Stitch as we go, so each record resolves against the joins
            // known when it was emitted (GRAM sequence numbers repeat
            // across users).
            spans.ingest(r);
            let phase = if r.kind == "gm.attempt_failed" {
                Some("attempt_failed")
            } else if r.kind == SPAN_KIND {
                // `transfer` annotations are not progress of the job.
                span::field(&r.detail, "phase").filter(|p| *p != "transfer")
            } else {
                None
            };
            let (Some(phase), Some(job)) = (phase, spans.job_of(r)) else {
                continue;
            };
            let j = jobs.entry(job).or_default();
            j.job = job;
            j.last_progress = r.time;
            j.last_phase = phase.to_string();
            match phase {
                // Detail: `gj<N>: <why>`.
                "attempt_failed" => j.failures.push(Failure {
                    time: r.time,
                    event: r.id,
                    why: r
                        .detail
                        .split_once(':')
                        .map_or("", |(_, why)| why.trim())
                        .to_string(),
                }),
                "done" | "failed" | "removed" => {
                    j.terminal = Some((phase.to_string(), r.time, r.id));
                }
                _ => {}
            }
        }
        Forensics {
            records,
            dag,
            jobs,
            end,
            faults,
            spans,
        }
    }

    /// A job's submission attempts in order; more than one means
    /// resubmission.
    pub fn attempts(&self, job: u64) -> &[AttemptSpan] {
        self.spans.jobs().get(&job).map_or(&[], |s| &s.attempts)
    }

    /// Jobs that were submitted more than once.
    pub fn resubmitted_jobs(&self) -> impl Iterator<Item = &JobForensics> {
        self.jobs
            .values()
            .filter(|j| self.attempts(j.job).len() > 1)
    }

    /// Blame category for one DAG node, from the records emitted under it.
    fn classify(&self, node: &DagNode) -> &'static str {
        // Lower rank wins: a node that both relayed a message and finished
        // a job is blamed on the more specific thing that happened there.
        let rank = |cat: &'static str| {
            Self::BLAME_CATEGORIES
                .iter()
                .position(|c| *c == cat)
                .expect("known category")
        };
        let mut best = "other";
        for &i in &node.records {
            let r = &self.records[i];
            let k = &*r.kind;
            let phase = (k == SPAN_KIND)
                .then(|| span::field(&r.detail, "phase"))
                .flatten();
            let cat = if k.starts_with("fault.") {
                "fault"
            } else if k == "lrm.done" {
                "execute"
            } else if k == "lrm.start" {
                "lrm-wait"
            } else if k.starts_with("gass.") || phase == Some("transfer") {
                "gass-transfer"
            } else if phase == Some("commit") {
                "commit"
            } else if k.starts_with("negotiator.") || k.starts_with("condor.") {
                "negotiation"
            } else if k.starts_with("jm.") || k.starts_with("lrm.") {
                "gatekeeper"
            } else if k.starts_with("gm.") {
                "gridmanager"
            } else if k.starts_with("gram.") || phase == Some("auth") {
                "wan"
            } else {
                "other"
            };
            if rank(cat) < rank(best) {
                best = cat;
            }
        }
        best
    }

    /// The critical path to a job's terminal milestone: the causal trigger
    /// chain of the terminal event, each step blamed on a protocol phase.
    /// `None` when the job never reached a terminal state (see
    /// [`Forensics::stuck_jobs`]) or its terminal event is not in the DAG.
    pub fn critical_path(&self, job: u64) -> Option<CriticalPath> {
        let j = self.jobs.get(&job)?;
        let (outcome, t_end, event) = j.terminal.clone()?;
        let chain = self.dag.chain_to_root(event);
        if chain.is_empty() {
            return None;
        }
        let mut steps = Vec::with_capacity(chain.len());
        let mut prev = SimTime::ZERO;
        for node in &chain {
            let label = node
                .records
                .first()
                .map(|&i| {
                    let r = &self.records[i];
                    format!("{}: {}", r.kind, r.detail)
                })
                .unwrap_or_default();
            steps.push(PathStep {
                event: node.id,
                time: node.time,
                elapsed: node.time - prev,
                category: self.classify(node),
                label,
            });
            prev = node.time;
        }
        let mut by_cat: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &steps {
            *by_cat.entry(s.category).or_insert(0.0) += s.elapsed.as_secs_f64();
        }
        let mut blame: Vec<(&'static str, f64)> = by_cat.into_iter().collect();
        blame.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        Some(CriticalPath {
            job,
            outcome,
            total: t_end - SimTime::ZERO,
            steps,
            blame,
        })
    }

    /// Jobs with no terminal milestone whose last progress is older than
    /// `horizon` before the end of the trace.
    pub fn stuck_jobs(&self, horizon: Duration) -> Vec<StuckJob> {
        self.jobs
            .values()
            .filter(|j| j.terminal.is_none() && j.last_progress + horizon <= self.end)
            .map(|j| StuckJob {
                job: j.job,
                last_phase: j.last_phase.clone(),
                since: j.last_progress,
                site: self.attempts(j.job).last().and_then(|a| a.site.clone()),
            })
            .collect()
    }

    /// Does a fault record plausibly affect `site`? Crash/restart details
    /// name one node (`node=gk.<site>` or `node=cluster.<site>`); partition
    /// details carry comma-joined node lists; loss is global.
    fn fault_touches_site(r: &TraceEvent, site: &str) -> bool {
        r.kind == "fault.loss"
            || r.detail.contains(&format!("gk.{site}"))
            || r.detail.contains(&format!("cluster.{site}"))
    }

    /// Onset faults create outages; their recovery twins end them.
    fn is_onset(kind: &str) -> bool {
        matches!(kind, "fault.crash" | "fault.partition" | "fault.loss")
    }

    /// Root-cause every attempt failure: first try the happens-before
    /// chain of the failure record for a `fault.*` ancestor, then fall
    /// back to correlating the attempt's site and time window against the
    /// fault log (timeout-detected failures have no causal edge from the
    /// fault — the whole point of probing is noticing silence).
    pub fn root_causes(&self) -> Vec<Attribution> {
        let mut out = Vec::new();
        for j in self.jobs.values() {
            for (k, f) in j.failures.iter().enumerate() {
                // The attempt this failure ended. The GridManager runs one
                // attempt at a time and resubmits within the same kernel
                // event that records the failure, so a time comparison
                // cannot tell the dying attempt from its replacement —
                // but failure k always ends attempt k.
                let attempt = self.attempts(j.job).get(k);
                let site = attempt.and_then(|a| a.site.as_deref());
                let mut cause = None;
                let mut via = "";
                // 1. Causal chain.
                for node in self.dag.chain_to_root(f.event).iter().rev() {
                    if let Some(&i) = node
                        .records
                        .iter()
                        .find(|&&i| self.records[i].kind.starts_with("fault."))
                    {
                        let r = &self.records[i];
                        cause = Some((r.kind.to_string(), r.detail.clone(), r.time));
                        via = "causal-chain";
                        break;
                    }
                }
                // 2. Site/time correlation with onset faults.
                if cause.is_none() {
                    if let (Some(a), Some(site)) = (attempt, site) {
                        let submitted = a.at("submit").unwrap_or(SimTime::ZERO);
                        let matching = |strict_window: bool| {
                            self.faults
                                .iter()
                                .map(|&i| &self.records[i])
                                .filter(|r| Self::is_onset(&r.kind) && r.time <= f.time)
                                .filter(|r| !strict_window || r.time >= submitted)
                                .rfind(|r| Self::fault_touches_site(r, site))
                        };
                        // Prefer a fault inside the attempt's own window; an
                        // attempt submitted into an already-broken site falls
                        // back to the latest earlier onset.
                        if let Some(r) = matching(true).or_else(|| matching(false)) {
                            cause = Some((r.kind.to_string(), r.detail.clone(), r.time));
                            via = "site-correlation";
                        }
                    }
                }
                out.push(Attribution {
                    job: j.job,
                    time: f.time,
                    why: f.why.clone(),
                    site: site.map(str::to_string),
                    cause,
                    via,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::event::NO_CAUSE;

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

    const S: u64 = 1_000_000; // one second in micros

    /// One job: submit -> auth -> commit -> active -> done, with causal
    /// links forming a single chain.
    fn happy_trace() -> Vec<TraceEvent> {
        vec![
            rec(0, "span", "job=3 seq=9 phase=submit site=anl", 1, NO_CAUSE),
            rec(2 * S, "span", "seq=9 contact=77 phase=auth", 2, 1),
            rec(3 * S, "span", "contact=77 phase=commit", 3, 2),
            rec(4 * S, "gass.get", "/home/app.exe [0..+100]", 4, 3),
            rec(5 * S, "lrm.start", "anl job 0 (1 cpus)", 5, 4),
            rec(65 * S, "lrm.done", "anl job 0 -> Completed", 6, 5),
            rec(66 * S, "span", "contact=77 phase=active", 6, 5),
            rec(70 * S, "span", "job=3 phase=done", 7, 6),
        ]
    }

    #[test]
    fn critical_path_blames_execution_for_a_compute_bound_job() {
        let f = Forensics::build(happy_trace());
        let cp = f.critical_path(3).expect("terminal reached");
        assert_eq!(cp.outcome, "done");
        assert_eq!(cp.steps.len(), 7);
        assert_eq!(cp.steps.first().unwrap().event, 1);
        assert_eq!(cp.steps.last().unwrap().event, 7);
        // 60 of 70 seconds are the lrm.done step: execute dominates.
        assert_eq!(cp.blame.first().unwrap().0, "execute");
        assert!((cp.blame.first().unwrap().1 - 60.0).abs() < 1e-9);
        let total: f64 = cp.blame.iter().map(|(_, s)| s).sum();
        assert!((total - cp.total.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn stuck_job_detection_respects_the_horizon() {
        let mut t = happy_trace();
        // A second job that stalls after auth at t=100s; trace ends at 4100s.
        t.push(rec(
            99 * S,
            "span",
            "job=8 seq=10 phase=submit site=nrl",
            20,
            NO_CAUSE,
        ));
        t.push(rec(100 * S, "span", "seq=10 contact=90 phase=auth", 21, 20));
        t.push(rec(4100 * S, "gm.exit", "all jobs complete", 30, 21));
        let f = Forensics::build(t);
        let stuck = f.stuck_jobs(Duration::from_secs(3600));
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].job, 8);
        assert_eq!(stuck[0].last_phase, "auth");
        assert_eq!(stuck[0].site.as_deref(), Some("nrl"));
        // A longer horizon clears it.
        assert!(f.stuck_jobs(Duration::from_secs(5000)).is_empty());
    }

    #[test]
    fn root_cause_prefers_causal_chain_then_site_correlation() {
        let t = vec![
            // Job 1 fails with the fault in its causal chain.
            rec(0, "span", "job=1 seq=1 phase=submit site=anl", 1, NO_CAUSE),
            rec(10 * S, "fault.crash", "node=gk.anl", 2, NO_CAUSE),
            rec(20 * S, "gm.attempt_failed", "gj1: jobmanager lost", 3, 2),
            rec(21 * S, "span", "job=1 seq=2 phase=submit site=nrl", 4, 3),
            // Job 2's failure is only detectable by correlation: its chain
            // roots in the GridManager's own timer, not the fault.
            rec(
                5 * S,
                "span",
                "job=2 seq=3 phase=submit site=nrl",
                10,
                NO_CAUSE,
            ),
            rec(30 * S, "fault.crash", "node=gk.nrl", 11, NO_CAUSE),
            rec(
                40 * S,
                "gm.attempt_failed",
                "gj2: gatekeeper unreachable",
                12,
                10,
            ),
            rec(41 * S, "span", "job=2 seq=4 phase=submit site=anl", 13, 12),
        ];
        let f = Forensics::build(t);
        assert_eq!(f.resubmitted_jobs().count(), 2);
        let causes = f.root_causes();
        assert_eq!(causes.len(), 2);
        let j1 = causes.iter().find(|a| a.job == 1).unwrap();
        assert_eq!(j1.via, "causal-chain");
        assert_eq!(j1.cause.as_ref().unwrap().1, "node=gk.anl");
        let j2 = causes.iter().find(|a| a.job == 2).unwrap();
        assert_eq!(j2.via, "site-correlation");
        assert_eq!(j2.cause.as_ref().unwrap().1, "node=gk.nrl");
        assert_eq!(j2.site.as_deref(), Some("nrl"));
    }

    /// The GridManager resubmits inside the same kernel event that logs
    /// `gm.attempt_failed`, so the replacement attempt shares the failure's
    /// timestamp (and event id). Attribution must still blame the *failed*
    /// attempt's site, not the replacement's.
    #[test]
    fn failure_blamed_on_failed_attempt_not_same_instant_resubmit() {
        let t = vec![
            rec(0, "fault.crash", "node=gk.anl", 1, NO_CAUSE),
            rec(S, "span", "job=4 seq=1 phase=submit site=anl", 2, NO_CAUSE),
            // Failure and the failover submit land in the same event.
            rec(
                30 * S,
                "gm.attempt_failed",
                "gj4: gatekeeper unreachable",
                9,
                2,
            ),
            rec(30 * S, "span", "job=4 seq=2 phase=submit site=nrl", 9, 2),
            rec(60 * S, "span", "job=4 phase=done", 12, 9),
        ];
        let f = Forensics::build(t);
        assert_eq!(f.resubmitted_jobs().count(), 1);
        let causes = f.root_causes();
        assert_eq!(causes.len(), 1);
        assert_eq!(
            causes[0].site.as_deref(),
            Some("anl"),
            "failed attempt's site"
        );
        assert_eq!(causes[0].via, "site-correlation");
        assert_eq!(causes[0].cause.as_ref().unwrap().1, "node=gk.anl");
    }

    #[test]
    fn unattributable_failures_stay_unattributed() {
        let t = vec![
            rec(0, "span", "job=5 seq=1 phase=submit site=anl", 1, NO_CAUSE),
            rec(9 * S, "gm.attempt_failed", "gj5: bad rsl", 2, 1),
        ];
        let f = Forensics::build(t);
        let causes = f.root_causes();
        assert_eq!(causes.len(), 1);
        assert!(causes[0].cause.is_none());
        assert_eq!(causes[0].via, "");
    }
}
