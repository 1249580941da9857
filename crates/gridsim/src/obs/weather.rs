//! Per-site "grid weather": the MDS-style resource health summary the
//! paper's users relied on to pick sites.
//!
//! The protocol components declare each site's metrics once, through
//! [`Metrics::site`], and write them as they run — the gatekeeper counts
//! submissions and auth rejections, the JobManager counts two-phase
//! commits and commit timeouts, the LRM tracks queue depth, queue-wait
//! distribution, and a rolling success rate over its most recent job
//! outcomes, and the GridManager charges failed attempts. Everything
//! flows through the ordinary [`Metrics`] sink (so the Prometheus/JSON
//! exporters pick it up unchanged); this module walks the sink's site
//! registry into one row per site for reports and the `condor-g-sim`
//! epilogue.
//!
//! [`SiteHealthTracker`] closes the loop: fed the sink at successive
//! instants, it reads each site's signals through the same handles and
//! runs a per-site quarantine state machine (Healthy → Quarantined →
//! Probation → Healthy) whose transitions the brokers use to steer work
//! away from sick sites and re-probe them later. It builds no rows.

use crate::metrics::{Metrics, SiteMetrics};
use crate::obs::export::json_string;
use crate::time::{Duration, SimTime};

/// One site's current weather.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteWeather {
    /// Site name as registered with the gatekeeper/LRM.
    pub site: String,
    /// GRAM submissions accepted by the gatekeeper.
    pub submits: u64,
    /// Submissions rejected (GSI auth / gridmap failures).
    pub rejected: u64,
    /// Jobs the LRM ran to completion.
    pub completed: u64,
    /// Rolling success rate over the LRM's recent terminal outcomes
    /// (`None` until the first outcome).
    pub success_rate: Option<f64>,
    /// Current LRM queue depth (queued, not yet running).
    pub queue_depth: Option<f64>,
    /// Median LRM queue wait in seconds (`None` until a job started).
    pub median_wait_secs: Option<f64>,
    /// Two-phase commit timeouts per commit attempt (`None` before any
    /// commit attempt).
    pub commit_timeout_rate: Option<f64>,
    /// Submission attempts the GridManager gave up on and rerouted. This
    /// is charged by the *client* side, so a site whose gatekeeper never
    /// answered a single request — zero successful submits — still gets a
    /// weather row (exactly the site an operator needs to see).
    pub attempt_failures: u64,
}

/// One weather row per site with any weather metric written, sorted by
/// site name.
pub fn grid_weather(m: &Metrics) -> Vec<SiteWeather> {
    m.sites()
        .map(|(site, h)| site_weather(m, site, h))
        .collect()
}

/// The weather row of one site, read through its handles.
pub fn site_weather(m: &Metrics, site: &str, h: &SiteMetrics) -> SiteWeather {
    let c = |id| m.value(id).unwrap_or(0);
    SiteWeather {
        site: site.to_string(),
        submits: c(h.submits),
        rejected: c(h.rejected),
        completed: c(h.completed),
        success_rate: last(m, &h.success_rate),
        queue_depth: last(m, &h.queue_depth),
        median_wait_secs: m.histogram(&h.queue_wait).map(|h| median(h.samples())),
        commit_timeout_rate: commit_timeout_rate(m, h),
        attempt_failures: c(h.attempt_failures),
    }
}

/// The latest value of a series, if it was ever recorded.
fn last(m: &Metrics, series: &str) -> Option<f64> {
    m.series(series).map(|s| s.last())
}

/// Commit timeouts per commit, once the site has had a commit.
fn commit_timeout_rate(m: &Metrics, h: &SiteMetrics) -> Option<f64> {
    let commits = m.value(h.commits).unwrap_or(0);
    (commits > 0).then(|| m.value(h.commit_timeouts).unwrap_or(0) as f64 / commits as f64)
}

/// Median without mutating the shared histogram (its lazy-sorting
/// [`quantile`](crate::metrics::Histogram::quantile) needs `&mut`). Never
/// empty: a histogram exists once observed, and keeps samples from then on.
fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[(v.len() - 1) / 2]
}

/// Render the weather rows as the fixed-width table the CLI prints.
pub fn render<'a>(rows: impl IntoIterator<Item = &'a SiteWeather>) -> String {
    let mut out = String::from(
        "site                      submits  reject  done  success  queue  med-wait  commit-to  failed\n",
    );
    let opt = |v: Option<f64>, unit: &str| match v {
        Some(x) => format!("{x:.2}{unit}"),
        None => "-".to_string(),
    };
    for r in rows {
        out.push_str(&format!(
            "{:<25} {:>7} {:>7} {:>5}  {:>7} {:>6}  {:>8}  {:>9}  {:>6}\n",
            r.site,
            r.submits,
            r.rejected,
            r.completed,
            opt(r.success_rate.map(|v| v * 100.0), "%"),
            opt(r.queue_depth, ""),
            opt(r.median_wait_secs, "s"),
            opt(r.commit_timeout_rate.map(|v| v * 100.0), "%"),
            r.attempt_failures,
        ));
    }
    out
}

/// Render at most the `n` busiest sites (by submits + client-side attempt
/// failures, the two counters that make a site worth an operator's
/// glance), with a trailer noting how many rows were elided. On a
/// hundreds-of-sites campaign the full table drowns the epilogue; the
/// complete data is in a report dir's `weather.json`.
pub fn render_top(rows: &[SiteWeather], n: usize) -> String {
    if rows.len() <= n {
        return render(rows);
    }
    let mut busiest: Vec<&SiteWeather> = rows.iter().collect();
    // Busiest first; sites with equal counts order by name so same-seed
    // runs always render the identical table.
    busiest.sort_by(|a, b| {
        let ka = a.submits + a.attempt_failures;
        let kb = b.submits + b.attempt_failures;
        kb.cmp(&ka).then_with(|| a.site.cmp(&b.site))
    });
    busiest.truncate(n);
    let mut out = render(busiest);
    out.push_str(&format!(
        "... {} more sites (full table: weather.json)\n",
        rows.len() - n
    ));
    out
}

/// Serialize the weather rows as a JSON array (one object per site): a
/// report dir's `weather.json`, for sweeps that assert on site health
/// without scraping the CLI epilogue.
pub fn weather_json(rows: &[SiteWeather]) -> String {
    let num = |v: Option<f64>| match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    };
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"site\": {}, \"submits\": {}, \"rejected\": {}, \"completed\": {}, \
             \"attempt_failures\": {}, \"success_rate\": {}, \"queue_depth\": {}, \
             \"median_wait_secs\": {}, \"commit_timeout_rate\": {}}}{}\n",
            json_string(&r.site),
            r.submits,
            r.rejected,
            r.completed,
            r.attempt_failures,
            num(r.success_rate),
            num(r.queue_depth),
            num(r.median_wait_secs),
            num(r.commit_timeout_rate),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

// ---- site health: the quarantine state machine -------------------------

/// New attempt failures in one observation window that quarantine a
/// healthy site.
const STRIKE_FAILURES: u64 = 1;
/// A rolling LRM success rate below this quarantines a healthy site.
const MIN_SUCCESS_RATE: f64 = 0.25;
/// A commit-timeout rate above this quarantines a healthy site.
const MAX_COMMIT_TIMEOUT_RATE: f64 = 0.5;
/// How long a quarantined site is avoided before it is re-probed.
const QUARANTINE_FOR: Duration = Duration::from_mins(20);
/// Completions during probation that restore a site to healthy.
const PROBATION_SUCCESSES: u64 = 1;

/// Why a healthy site looks sick, if it does.
fn sickness(m: &Metrics, h: &SiteMetrics, new_failures: u64) -> Option<String> {
    if new_failures >= STRIKE_FAILURES {
        return Some(format!("{new_failures} new attempt failures"));
    }
    if let Some(rate) = last(m, &h.success_rate) {
        if rate < MIN_SUCCESS_RATE {
            return Some(format!("success rate {:.0}%", rate * 100.0));
        }
    }
    if let Some(rate) = commit_timeout_rate(m, h) {
        if rate > MAX_COMMIT_TIMEOUT_RATE {
            return Some(format!("commit-timeout rate {:.0}%", rate * 100.0));
        }
    }
    None
}

/// Where a site is in the quarantine lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    /// Full participation in brokering.
    Healthy,
    /// Excluded from brokering until the deadline passes.
    Quarantined {
        /// When the quarantine lapses into probation.
        until: SimTime,
    },
    /// Eligible again, but one failure re-quarantines; enough successes
    /// restore full health.
    Probation,
}

/// A state-machine transition, for tracing and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// The site that changed state.
    pub site: String,
    /// What happened.
    pub action: HealthAction,
    /// Why (threshold that tripped, or the lapsed quarantine).
    pub reason: String,
}

/// The three observable transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Healthy/Probation → Quarantined.
    Quarantine,
    /// Quarantined → Probation (site may be tried again).
    Probe,
    /// Probation → Healthy.
    Recover,
}

impl HealthAction {
    /// Trace kind for this transition (`broker.quarantine` etc.).
    pub fn kind(self) -> &'static str {
        match self {
            HealthAction::Quarantine => "broker.quarantine",
            HealthAction::Probe => "broker.probe",
            HealthAction::Recover => "broker.recover",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SiteTrack {
    state: Option<SiteState>,
    /// Counter readings from the previous observation, for windowed deltas.
    seen_failures: u64,
    seen_completed: u64,
    /// Completions accumulated while on probation.
    probation_completed: u64,
}

/// Runs the [`SiteState`] machine over successive readings of the sites'
/// weather metrics.
///
/// Deliberately deterministic: transitions depend only on the metrics
/// and the virtual clock, so adaptive runs replay exactly under a fixed
/// seed.
#[derive(Debug, Clone, Default)]
pub struct SiteHealthTracker {
    /// Every site observed, sorted by name like the registry, so each
    /// tick walks the two in step.
    sites: Vec<(String, SiteTrack)>,
}

impl SiteHealthTracker {
    /// A tracker that has seen no site yet.
    pub fn new() -> SiteHealthTracker {
        SiteHealthTracker::default()
    }

    /// Is the site currently excluded from brokering?
    pub fn is_quarantined(&self, site: &str) -> bool {
        matches!(self.state(site), Some(SiteState::Quarantined { .. }))
    }

    /// Current state of a site, if it has ever been observed.
    pub fn state(&self, site: &str) -> Option<SiteState> {
        let i = self.sites.binary_search_by(|(s, _)| s.as_str().cmp(site));
        self.sites[i.ok()?].1.state
    }

    /// Sites currently quarantined, sorted.
    pub fn quarantined_sites(&self) -> Vec<String> {
        self.sites
            .iter()
            .filter(|(_, t)| matches!(t.state, Some(SiteState::Quarantined { .. })))
            .map(|(s, _)| s.clone())
            .collect()
    }

    /// Read every site's signals from `m` at `now`; returns the
    /// transitions they caused. Reads through the site handles: it formats
    /// no name, builds no row, and allocates only for a site it has not
    /// seen before or a transition.
    pub fn observe(&mut self, m: &Metrics, now: SimTime) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        let mut i = 0;
        for (site, h) in m.sites() {
            // Both lists are sorted by name, so the site is at `i` once
            // any site this reading lacks is stepped over, or it is new.
            while self.sites.get(i).is_some_and(|(s, _)| s.as_str() < site) {
                i += 1;
            }
            if self.sites.get(i).is_none_or(|(s, _)| s != site) {
                self.sites
                    .insert(i, (site.to_string(), SiteTrack::default()));
            }
            let t = &mut self.sites[i].1;
            i += 1;
            let failures = m.value(h.attempt_failures).unwrap_or(0);
            let completed = m.value(h.completed).unwrap_or(0);
            let new_failures = failures.saturating_sub(t.seen_failures);
            let new_completed = completed.saturating_sub(t.seen_completed);
            t.seen_failures = failures;
            t.seen_completed = completed;
            let state = t.state.unwrap_or(SiteState::Healthy);
            let next = match state {
                SiteState::Healthy => sickness(m, h, new_failures).map(|why| {
                    events.push(ev(site, HealthAction::Quarantine, why));
                    SiteState::Quarantined {
                        until: now + QUARANTINE_FOR,
                    }
                }),
                SiteState::Quarantined { until } => (now >= until).then(|| {
                    events.push(ev(site, HealthAction::Probe, "quarantine lapsed".into()));
                    t.probation_completed = 0;
                    SiteState::Probation
                }),
                SiteState::Probation => {
                    if new_failures > 0 {
                        events.push(ev(
                            site,
                            HealthAction::Quarantine,
                            format!("probe failed ({new_failures} new attempt failures)"),
                        ));
                        Some(SiteState::Quarantined {
                            until: now + QUARANTINE_FOR,
                        })
                    } else {
                        t.probation_completed += new_completed;
                        (t.probation_completed >= PROBATION_SUCCESSES).then(|| {
                            events.push(ev(
                                site,
                                HealthAction::Recover,
                                format!("{} completions on probation", t.probation_completed),
                            ));
                            SiteState::Healthy
                        })
                    }
                }
            };
            t.state = Some(next.unwrap_or(state));
        }
        events
    }
}

fn ev(site: &str, action: HealthAction, reason: String) -> HealthEvent {
    HealthEvent {
        site: site.to_string(),
        action,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CounterId;
    use crate::time::SimTime;

    /// Add `by` to the counter `pick` names among `site`'s handles.
    fn bump(m: &mut Metrics, site: &str, pick: fn(&SiteMetrics) -> CounterId, by: u64) {
        let id = pick(&m.site(site));
        m.add(id, by);
    }

    #[test]
    fn site_names_with_dots_survive_discovery() {
        let mut m = Metrics::new();
        bump(&mut m, "cluster.site.edu", |h| h.submits, 2);
        // A site may share its name with a suffix.
        let busy = m.site("busy");
        m.gauge(&busy.busy, SimTime(1), 3.0);
        m.observe(&busy.queue_wait, 4.0);
        // Resolved but never written: no row. Nor does `cpu_seconds`
        // alone make one, as it feeds no column.
        m.site("idle");
        let cpu = m.site("cpu-only").cpu_seconds.clone();
        m.observe(&cpu, 1.0);
        // Grid-wide metrics under the `site.` prefix belong to no site.
        m.incr("site.completed", 1);
        m.observe("site.queue_wait", 3.0);
        m.incr("site.wall_killed", 1);

        let rows = grid_weather(&m);
        let names: Vec<&str> = rows.iter().map(|r| r.site.as_str()).collect();
        assert_eq!(names, ["busy", "cluster.site.edu"]);
        assert_eq!(rows[0].median_wait_secs, Some(4.0));
        assert_eq!(rows[1].submits, 2);
        // The exporters see the declared names, and only written ones.
        assert_eq!(m.counter("site.cluster.site.edu.submits"), 2);
        assert_eq!(m.series("site.busy.busy").map(|s| s.last()), Some(3.0));
        assert!(m.histogram("site.cpu-only.cpu_seconds").is_some());
        let counters: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(
            counters,
            [
                "site.cluster.site.edu.submits",
                "site.completed",
                "site.wall_killed"
            ]
        );
    }

    #[test]
    fn aggregates_one_row_per_site() {
        let mut m = Metrics::new();
        let anl = m.site("anl");
        m.add(anl.submits, 10);
        m.add(anl.rejected, 1);
        m.add(anl.completed, 8);
        m.add(anl.commits, 10);
        m.add(anl.commit_timeouts, 2);
        m.gauge(&anl.queue_depth, SimTime(5), 3.0);
        m.gauge(&anl.success_rate, SimTime(5), 0.75);
        for w in [10.0, 30.0, 20.0] {
            m.observe(&anl.queue_wait, w);
        }
        bump(&mut m, "nrl", |h| h.submits, 4);
        m.incr("unrelated.counter", 9);

        let rows = grid_weather(&m);
        assert_eq!(rows.len(), 2);
        let anl = &rows[0];
        assert_eq!(anl.site, "anl");
        assert_eq!((anl.submits, anl.rejected, anl.completed), (10, 1, 8));
        assert_eq!(anl.success_rate, Some(0.75));
        assert_eq!(anl.queue_depth, Some(3.0));
        assert_eq!(anl.median_wait_secs, Some(20.0));
        assert_eq!(anl.commit_timeout_rate, Some(0.2));
        let nrl = &rows[1];
        assert_eq!(nrl.site, "nrl");
        assert_eq!(nrl.success_rate, None, "no outcomes yet");
        assert_eq!(nrl.commit_timeout_rate, None, "no commits yet");
    }

    #[test]
    fn render_top_caps_at_busiest_sites() {
        let mut m = Metrics::new();
        for i in 0..30u64 {
            // site00 busiest, site29 quietest.
            bump(&mut m, &format!("site{i:02}"), |h| h.submits, 60 - i);
        }
        bump(&mut m, "site29", |h| h.attempt_failures, 100); // failures count as traffic
        let rows = grid_weather(&m);
        let table = render_top(&rows, 5);
        let body: Vec<&str> = table.lines().collect();
        // Header + 5 rows + elision trailer.
        assert_eq!(body.len(), 7);
        assert!(body[1].starts_with("site29"), "failing site floats up");
        assert!(body[2].starts_with("site00"));
        assert!(body[6].contains("25 more sites"));
        // Under the cap, render_top is exactly render.
        assert_eq!(render_top(&rows[..3], 5), render(&rows[..3]));
    }

    #[test]
    fn render_top_breaks_ties_by_site_name() {
        // Every site equally busy: the cut must fall deterministically on
        // lexicographic order, whatever order the rows arrive in.
        let mut m = Metrics::new();
        for name in ["zeta", "alpha", "mu", "beta", "omega", "kappa"] {
            bump(&mut m, name, |h| h.submits, 7);
        }
        let mut rows = grid_weather(&m);
        let table = render_top(&rows, 3);
        rows.reverse();
        assert_eq!(render_top(&rows, 3), table, "row order must not matter");
        let names: Vec<&str> = table
            .lines()
            .skip(1)
            .take(3)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(names, vec!["alpha", "beta", "kappa"]);
    }

    #[test]
    fn renders_a_row_per_site() {
        let mut m = Metrics::new();
        bump(&mut m, "anl", |h| h.submits, 2);
        let text = render(&grid_weather(&m));
        assert!(text.lines().count() == 2, "{text}");
        assert!(text.contains("anl"));
        assert!(text.contains("med-wait"));
        assert!(text.contains("failed"));
    }

    #[test]
    fn a_site_with_only_failures_still_gets_a_row() {
        // An unreachable gatekeeper accepts nothing, so the only signal is
        // the client-side attempt-failure counter. It must be enough.
        let mut m = Metrics::new();
        bump(&mut m, "dead", |h| h.attempt_failures, 3);
        let rows = grid_weather(&m);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].site, "dead");
        assert_eq!(rows[0].attempt_failures, 3);
        assert_eq!(rows[0].submits, 0);
    }

    #[test]
    fn weather_json_is_valid_and_complete() {
        let mut m = Metrics::new();
        bump(&mut m, "anl", |h| h.submits, 10);
        bump(&mut m, "anl", |h| h.completed, 8);
        bump(&mut m, "nrl", |h| h.attempt_failures, 2);
        let text = weather_json(&grid_weather(&m));
        assert!(text.starts_with("[\n") && text.ends_with("]\n"), "{text}");
        assert!(text.contains("\"site\": \"anl\""));
        assert!(text.contains("\"completed\": 8"));
        assert!(text.contains("\"attempt_failures\": 2"));
        assert!(text.contains("\"success_rate\": null"));
        // One object per line, comma-separated except the last.
        let objects: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .collect();
        assert_eq!(objects.len(), 2);
        assert!(objects[0].ends_with(','));
        assert!(objects[1].ends_with('}'));
    }

    /// A sink in which `site` has charged `failures` attempt failures and
    /// completed `completed` jobs.
    fn reading(site: &str, failures: u64, completed: u64) -> Metrics {
        let mut m = Metrics::new();
        bump(&mut m, site, |h| h.attempt_failures, failures);
        bump(&mut m, site, |h| h.completed, completed);
        m
    }

    const MIN: u64 = 60 * 1_000_000;

    #[test]
    fn quarantine_probe_recover_lifecycle() {
        let mut t = SiteHealthTracker::new();
        // Healthy until a failure shows up.
        assert!(t.observe(&reading("anl", 0, 0), SimTime(0)).is_empty());
        assert!(!t.is_quarantined("anl"));
        // One new failure → quarantined for 20 minutes.
        let evs = t.observe(&reading("anl", 1, 0), SimTime(MIN));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].action, HealthAction::Quarantine);
        assert_eq!(evs[0].site, "anl");
        assert!(t.is_quarantined("anl"));
        assert_eq!(t.quarantined_sites(), ["anl"]);
        // Still quarantined halfway through; *no* repeat events.
        assert!(t
            .observe(&reading("anl", 1, 0), SimTime(10 * MIN))
            .is_empty());
        assert!(t.is_quarantined("anl"));
        // Deadline passes → probation (eligible again).
        let evs = t.observe(&reading("anl", 1, 0), SimTime(22 * MIN));
        assert_eq!(evs[0].action, HealthAction::Probe);
        assert!(!t.is_quarantined("anl"));
        assert_eq!(t.state("anl"), Some(SiteState::Probation));
        // A completion on probation restores full health.
        let evs = t.observe(&reading("anl", 1, 1), SimTime(30 * MIN));
        assert_eq!(evs[0].action, HealthAction::Recover);
        assert_eq!(t.state("anl"), Some(SiteState::Healthy));
    }

    #[test]
    fn failed_probe_requarantines() {
        let mut t = SiteHealthTracker::new();
        t.observe(&reading("anl", 1, 0), SimTime(0));
        t.observe(&reading("anl", 1, 0), SimTime(21 * MIN)); // probe
        let evs = t.observe(&reading("anl", 2, 0), SimTime(25 * MIN));
        assert_eq!(evs[0].action, HealthAction::Quarantine);
        assert!(evs[0].reason.contains("probe failed"), "{}", evs[0].reason);
        assert!(t.is_quarantined("anl"));
    }

    #[test]
    fn rate_thresholds_also_quarantine() {
        let mut t = SiteHealthTracker::new();
        let mut bad = reading("lsf", 0, 5);
        let rate = bad.site("lsf").success_rate.clone();
        bad.gauge(&rate, SimTime(0), 0.1);
        let evs = t.observe(&bad, SimTime(0));
        assert_eq!(evs[0].action, HealthAction::Quarantine);
        assert!(evs[0].reason.contains("success rate"), "{}", evs[0].reason);

        let mut t = SiteHealthTracker::new();
        let mut bad = reading("pbs", 0, 5);
        bump(&mut bad, "pbs", |h| h.commits, 5);
        bump(&mut bad, "pbs", |h| h.commit_timeouts, 4);
        // A resolved site with nothing written is not observed at all.
        bad.site("other");
        let evs = t.observe(&bad, SimTime(0));
        assert!(
            evs[0].reason.contains("commit-timeout"),
            "{}",
            evs[0].reason
        );
        assert!(t.state("other").is_none());
    }

    #[test]
    fn transitions_map_to_trace_kinds() {
        assert_eq!(HealthAction::Quarantine.kind(), "broker.quarantine");
        assert_eq!(HealthAction::Probe.kind(), "broker.probe");
        assert_eq!(HealthAction::Recover.kind(), "broker.recover");
    }
}
