//! Metrics collection: counters, time-series gauges, and histograms.
//!
//! The experiment harness reads these to produce the paper's numbers —
//! CPU-hours delivered, concurrent-processor time series, queueing-delay
//! distributions, protocol message counts.
//!
//! Each site's grid-weather metrics are declared, not discovered:
//! [`Metrics::site`] resolves a site's [`SiteMetrics`] handles once, and
//! [`Metrics::sites`] walks the sites that have written any of them. That
//! resolver is the only code that spells the `site.<name>.<suffix>` names
//! the exporters render.
//!
//! A [`TimeSeries`] keeps its points only where someone reads the curve.
//! [`Metrics::gauge`] and [`Metrics::gauge_delta`] write series that keep
//! them (experiment tables and the bench ledger's windowed means read
//! them). [`Metrics::level`] and [`Metrics::level_delta`] write a level,
//! which keeps none: the weather's per-site series, the grid's busy
//! processors and the jobs done are read only as a latest value or its
//! time (the weather report, makespans) and as a mean or integral from
//! zero (the exporters, `exp_qap`), and a running area answers those
//! exactly in O(1) memory.

use crate::time::{Duration, SimTime};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Retained-sample cap for [`Histogram`] and point cap for [`TimeSeries`].
/// Below the cap both containers keep every observation and all statistics
/// are exact (experiments stay well under it); above it they decimate
/// deterministically so a million-job campaign holds O(cap) memory per
/// metric instead of O(jobs).
pub const METRIC_RETAIN_CAP: usize = 16_384;

/// A latency/size histogram. Scalar statistics (count, sum, mean, min, max)
/// are always exact; the explicit sample set backing quantiles is exact up
/// to [`METRIC_RETAIN_CAP`] observations, after which a deterministic
/// stride-doubling reservoir keeps an evenly spaced (by arrival order)
/// subset — quantiles degrade gracefully from exact to approximate.
#[derive(Debug, Clone)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Keep every `stride`-th observation (1 = keep all).
    stride: u64,
    /// Observations skipped since the last retained one.
    skipped: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            samples: Vec::new(),
            sorted: false,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            stride: 1,
            skipped: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if self.stride > 1 {
            self.skipped += 1;
            if self.skipped < self.stride {
                return;
            }
            self.skipped = 0;
        }
        self.samples.push(v);
        self.sorted = false;
        if self.samples.len() >= METRIC_RETAIN_CAP {
            // Halve the reservoir (keep even arrival ranks) and record half
            // as often from here on. Deterministic: no RNG involved.
            let mut keep = 0;
            for i in (0..self.samples.len()).step_by(2) {
                self.samples[keep] = self.samples[i];
                keep += 1;
            }
            self.samples.truncate(keep);
            self.stride *= 2;
            self.skipped = 0;
        }
    }

    /// Number of observations (exact).
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Arithmetic mean (0 when empty; exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of all observations (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest observation (exact). Empty histograms report 0 by convention
    /// ("no data" reads as zero in experiment tables), so an all-negative
    /// sample set is distinguishable from no samples only via
    /// [`Histogram::count`].
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Smallest observation (exact; 0 when empty, same convention as
    /// [`Histogram::max`]).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank over the retained
    /// samples; 0 when empty. Exact until the retain cap is reached.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let idx = ((self.samples.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.samples[idx]
    }

    /// Borrow the retained samples (all of them until the retain cap).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A step-function time series (e.g. "processors in use"), from which
/// time-weighted statistics like the paper's "average of 653 processors
/// active" are computed.
///
/// Every series keeps its latest record, its maximum, its record count
/// and its area — value·seconds from `ZERO` to the latest record's time —
/// exactly. The area is summed on each record, `last_v * (t - last_t)`,
/// which are the additions a walk over the points makes in the order it
/// makes them, so a mean or integral from `ZERO` to at or after the
/// latest record reads the area in O(1) time and gets the walk's result
/// bit for bit.
///
/// A series made with [`TimeSeries::default`] (what [`Metrics::gauge`]
/// and [`Metrics::gauge_delta`] write) also keeps its points, for the
/// readers that want the curve: experiment tables and windowed means.
/// Up to [`METRIC_RETAIN_CAP`] points are kept verbatim
/// (experiments stay under this and see exact statistics); beyond it the
/// series decimates deterministically by doubling its record stride, so a
/// week-long million-job campaign keeps an evenly thinned step function
/// instead of every transition, and its statistics are walked over the
/// thinned points.
///
/// A level, made with [`TimeSeries::level`] (what [`Metrics::level`] and
/// [`Metrics::level_delta`] write: the weather's per-site series, the
/// grid's busy processors and the jobs done), keeps no points at all. Only
/// its latest value, its maximum and its mean or integral from `ZERO` can
/// be read; a windowed query panics.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    /// Exact most-recent sample, even when decimation dropped it.
    last: Option<(SimTime, f64)>,
    /// Exact running maximum.
    max: f64,
    /// Value·seconds from `ZERO` to the most recent sample's time.
    area: f64,
    /// Samples recorded (exact; the points kept may be fewer).
    records: u64,
    /// Whether samples are kept as points; `false` for a level.
    keeps_points: bool,
    /// Keep every `stride`-th point (1 = keep all).
    stride: u64,
    skipped: u64,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries {
            points: Vec::new(),
            last: None,
            max: f64::NEG_INFINITY,
            area: 0.0,
            records: 0,
            keeps_points: true,
            stride: 1,
            skipped: 0,
        }
    }
}

impl TimeSeries {
    /// An empty level: a series that keeps no points.
    pub fn level() -> TimeSeries {
        TimeSeries {
            keeps_points: false,
            ..TimeSeries::default()
        }
    }

    /// Record the series value from `t` onwards.
    pub fn record(&mut self, t: SimTime, v: f64) {
        let (last_t, last_v) = self.last.unwrap_or((SimTime::ZERO, 0.0));
        debug_assert!(last_t <= t, "time series must be appended in order");
        self.area += last_v * (t - last_t).as_secs_f64();
        self.records += 1;
        self.last = Some((t, v));
        if v > self.max {
            self.max = v;
        }
        if !self.keeps_points {
            return;
        }
        if self.stride > 1 {
            self.skipped += 1;
            if self.skipped < self.stride {
                return;
            }
            self.skipped = 0;
        }
        self.points.push((t, v));
        if self.points.len() >= METRIC_RETAIN_CAP {
            let mut keep = 0;
            for i in (0..self.points.len()).step_by(2) {
                self.points[keep] = self.points[i];
                keep += 1;
            }
            self.points.truncate(keep);
            self.stride *= 2;
            self.skipped = 0;
        }
    }

    /// The retained points (all of them until the retain cap; none for a
    /// level).
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Whether the series keeps points (`false` for a level).
    pub fn keeps_points(&self) -> bool {
        self.keeps_points
    }

    /// Samples recorded (exact, whatever was kept).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Latest value (0 when empty; exact even after decimation).
    pub fn last(&self) -> f64 {
        self.last.map_or(0.0, |(_, v)| v)
    }

    /// Time of the latest sample (`None` when empty; exact even after
    /// decimation).
    pub fn last_at(&self) -> Option<SimTime> {
        self.last.map(|(t, _)| t)
    }

    /// Maximum recorded value (exact). Empty series report 0 by convention
    /// (same as [`Histogram::max`]); an all-negative series returns its
    /// true (negative) maximum.
    pub fn max(&self) -> f64 {
        if self.last.is_none() {
            0.0
        } else {
            self.max
        }
    }

    /// Time-weighted average over `[start, end]`, treating the series as a
    /// step function that holds each value until the next point. The true
    /// latest sample participates even if decimation dropped it from the
    /// retained set.
    ///
    /// From `ZERO` to at or after the latest sample, an undecimated series
    /// reads its area in O(1); any other window walks the points.
    ///
    /// # Panics
    ///
    /// On a level, for any window but that one: its points were never kept.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> f64 {
        let Some((last_t, last_v)) = self.last else {
            return 0.0;
        };
        if end <= start {
            return 0.0;
        }
        if start == SimTime::ZERO && end >= last_t && self.stride == 1 {
            let tail = last_v * (end - last_t).as_secs_f64();
            return (self.area + tail) / (end - start).as_secs_f64();
        }
        assert!(
            self.keeps_points,
            "a level keeps no points: its mean over [{start}, {end}] is unknown, \
             only from 0 to at or after its latest sample ({last_t})"
        );
        self.walk_mean(start, end)
    }

    /// The time-weighted mean over `[start, end]` walked over the kept
    /// points and the true latest sample. Needs `end > start`.
    fn walk_mean(&self, start: SimTime, end: SimTime) -> f64 {
        let total = (end - start).as_secs_f64();
        let mut acc = 0.0;
        // Value in effect at `start`: last point at or before it (0 if none).
        let mut cur_t = start;
        let mut cur_v = 0.0;
        let tail = self
            .last
            .filter(|lp| self.points.last().is_none_or(|rp| lp.0 > rp.0));
        for &(t, v) in self.points.iter().chain(tail.iter()) {
            if t <= start {
                cur_v = v;
                continue;
            }
            if t >= end {
                break;
            }
            acc += cur_v * (t - cur_t).as_secs_f64();
            cur_t = t;
            cur_v = v;
        }
        acc += cur_v * (end - cur_t).as_secs_f64();
        acc / total
    }

    /// Integral of the series over `[start, end]` in value·seconds (e.g.
    /// CPU-seconds when the series counts busy CPUs). Reads like
    /// [`time_weighted_mean`](Self::time_weighted_mean), and panics where
    /// it does.
    pub fn integral(&self, start: SimTime, end: SimTime) -> f64 {
        self.time_weighted_mean(start, end) * (end - start).as_secs_f64()
    }
}

/// Handle to one counter, from [`Metrics::counter_id`]: lets a hot path
/// bump it with [`Metrics::add`] without looking its name up again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// One site's grid-weather metrics, from [`Metrics::site`]: handles of
/// its counters, and the names of its series and histograms.
#[derive(Debug)]
pub struct SiteMetrics {
    /// GRAM submissions the site's gatekeeper accepted.
    pub submits: CounterId,
    /// Submissions it rejected (GSI auth / gridmap failures).
    pub rejected: CounterId,
    /// Jobs the site's LRM ran to completion.
    pub completed: CounterId,
    /// Two-phase commits its JobManagers began.
    pub commits: CounterId,
    /// Duplicate commits: the client's commit timer fired before the ack.
    pub commit_timeouts: CounterId,
    /// Attempts at the site the GridManager gave up on.
    pub attempt_failures: CounterId,
    /// Level: processors the LRM has busy.
    pub busy: String,
    /// Level: jobs queued at the LRM, not yet running.
    pub queue_depth: String,
    /// Level: rolling success rate over the LRM's recent outcomes.
    pub success_rate: String,
    /// Histogram: LRM queue wait per job, seconds.
    pub queue_wait: String,
    /// Histogram: CPU-seconds per finished job.
    pub cpu_seconds: String,
}

/// The world-wide metrics sink.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Counter names, sorted, each with its index into `counter_values`.
    counter_ids: BTreeMap<String, CounterId>,
    /// `None` until the counter is first written: resolving a handle does
    /// not make the counter exist for readers and exporters.
    counter_values: Vec<Option<u64>>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
    /// Every site resolved with [`Metrics::site`], sorted by name.
    sites: BTreeMap<String, Rc<SiteMetrics>>,
}

impl Metrics {
    /// Empty sink.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `by` to the named counter.
    pub fn incr(&mut self, name: &str, by: u64) {
        let id = self.counter_id(name);
        self.add(id, by);
    }

    /// The handle of the named counter, for [`add`](Self::add). The counter
    /// stays invisible to readers until something is added to it.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        // The counter almost always exists already, so look up by borrowed
        // name first and only allocate the key on first use.
        if let Some(&id) = self.counter_ids.get(name) {
            return id;
        }
        let id = CounterId(self.counter_values.len() as u32);
        self.counter_values.push(None);
        self.counter_ids.insert(name.to_string(), id);
        id
    }

    /// Add `by` to a counter resolved with [`counter_id`](Self::counter_id)
    /// on this sink.
    #[inline]
    pub fn add(&mut self, id: CounterId, by: u64) {
        let value = &mut self.counter_values[id.0 as usize];
        *value = Some(value.unwrap_or(0) + by);
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .and_then(|&id| self.value(id))
            .unwrap_or(0)
    }

    /// Read a counter by handle: `None` until it is first written.
    #[inline]
    pub fn value(&self, id: CounterId) -> Option<u64> {
        self.counter_values[id.0 as usize]
    }

    /// The weather handles of `site`, resolved on first use. Like
    /// [`counter_id`](Self::counter_id), resolving creates nothing a reader
    /// or exporter sees: the site joins [`sites`](Self::sites) when one of
    /// its metrics (other than `cpu_seconds`) is first written.
    pub fn site(&mut self, site: &str) -> Rc<SiteMetrics> {
        if !self.sites.contains_key(site) {
            let prefix = format!("site.{site}.");
            let name = |suffix: &str| [&prefix, suffix].concat();
            let handles = SiteMetrics {
                submits: self.counter_id(&name("submits")),
                rejected: self.counter_id(&name("rejected")),
                completed: self.counter_id(&name("completed")),
                commits: self.counter_id(&name("commits")),
                commit_timeouts: self.counter_id(&name("commit_timeouts")),
                attempt_failures: self.counter_id(&name("attempt_failures")),
                busy: name("busy"),
                queue_depth: name("queue_depth"),
                success_rate: name("success_rate"),
                queue_wait: name("queue_wait"),
                cpu_seconds: name("cpu_seconds"),
            };
            self.sites.insert(site.to_string(), Rc::new(handles));
        }
        self.sites[site].clone()
    }

    /// The sites with a weather row, sorted by name.
    pub fn sites(&self) -> impl Iterator<Item = (&str, &SiteMetrics)> {
        self.sites
            .iter()
            .filter_map(|(site, h)| self.has_row(h).then_some((site.as_str(), &**h)))
    }

    /// Has any of the site's row metrics been written? (`cpu_seconds`
    /// feeds no weather column, so it alone makes no row.)
    fn has_row(&self, h: &SiteMetrics) -> bool {
        let written = |id| self.value(id).is_some();
        let series = |name: &String| self.series.contains_key(name);
        written(h.submits)
            || written(h.rejected)
            || written(h.completed)
            || written(h.commits)
            || written(h.commit_timeouts)
            || written(h.attempt_failures)
            || series(&h.busy)
            || series(&h.queue_depth)
            || series(&h.success_rate)
            || self.histograms.contains_key(&h.queue_wait)
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .record(v);
        }
    }

    /// Record a duration observation in seconds.
    pub fn observe_duration(&mut self, name: &str, d: Duration) {
        self.observe(name, d.as_secs_f64());
    }

    /// Access a histogram (if any observation was made).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Record a time-series point.
    pub fn gauge(&mut self, name: &str, t: SimTime, v: f64) {
        self.record(name, t, |_| v, TimeSeries::default);
    }

    /// Record a level: a series that keeps no points, read only through
    /// its latest value, its maximum and its mean or integral from `ZERO`
    /// (see [`TimeSeries::level`]). Each record costs O(1) memory.
    pub fn level(&mut self, name: &str, t: SimTime, v: f64) {
        self.record(name, t, |_| v, TimeSeries::level);
    }

    /// Record, from `t`, the value `v` computes from the named series'
    /// latest one (0 for a new series, made by `new` on first use).
    fn record(
        &mut self,
        name: &str,
        t: SimTime,
        v: impl FnOnce(f64) -> f64,
        new: fn() -> TimeSeries,
    ) {
        let s = if let Some(s) = self.series.get_mut(name) {
            s
        } else {
            self.series.entry(name.to_string()).or_insert_with(new)
        };
        s.record(t, v(s.last()));
    }

    /// Adjust a time-series by a delta relative to its last value — handy
    /// for "currently running jobs" style gauges.
    pub fn gauge_delta(&mut self, name: &str, t: SimTime, delta: f64) {
        self.record(name, t, |last| last + delta, TimeSeries::default);
    }

    /// Adjust a level by a delta relative to its last value: a
    /// [`gauge_delta`](Self::gauge_delta) that keeps no points.
    pub fn level_delta(&mut self, name: &str, t: SimTime, delta: f64) {
        self.record(name, t, |last| last + delta, TimeSeries::level);
    }

    /// Access a time series.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All counters with values, sorted by name (for exporters).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ids
            .iter()
            .filter_map(|(name, id)| Some((name.as_str(), self.counter_values[id.0 as usize]?)))
    }

    /// All histograms, sorted by name (for exporters).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All time series, sorted by name (for exporters).
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::export::{json_snapshot, prometheus_snapshot};
    use proptest::prelude::*;

    #[test]
    fn counters() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn counters_by_handle_share_the_name_and_hide_until_written() {
        let mut m = Metrics::new();
        let sent = m.counter_id("net.sent");
        let lost = m.counter_id("net.lost");
        assert_eq!(m.counter_id("net.sent"), sent);
        assert_eq!(m.counters().count(), 0, "resolved is not written");
        m.add(sent, 2);
        m.incr("net.sent", 3);
        m.incr("a.zero", 0);
        assert_eq!(m.counter("net.sent"), 5);
        assert_eq!(m.counter("net.lost"), 0);
        let all: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(all, [("a.zero", 0), ("net.sent", 5)]);
        m.add(lost, 0);
        let names: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(names, ["a.zero", "net.lost", "net.sent"]);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn all_negative_histogram_max_is_not_clamped_to_zero() {
        let mut h = Histogram::default();
        for v in [-5.0, -1.0, -3.0] {
            h.record(v);
        }
        assert_eq!(h.max(), -1.0);
        assert_eq!(h.min(), -5.0);
    }

    #[test]
    fn all_negative_series_max_is_not_clamped_to_zero() {
        let mut s = TimeSeries::default();
        s.record(SimTime(1), -4.0);
        s.record(SimTime(2), -2.0);
        s.record(SimTime(3), -9.0);
        assert_eq!(s.max(), -2.0);
        assert_eq!(TimeSeries::default().max(), 0.0);
    }

    #[test]
    fn exporter_iterators_are_sorted() {
        let mut m = Metrics::new();
        m.incr("b", 2);
        m.incr("a", 1);
        m.observe("lat", 1.5);
        m.gauge("busy", SimTime(1), 3.0);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(m.histograms().count(), 1);
        assert_eq!(m.all_series().count(), 1);
    }

    #[test]
    fn time_weighted_mean_step_function() {
        let mut s = TimeSeries::default();
        // 0 CPUs until t=10s, then 4 CPUs until t=30s, then 2.
        s.record(SimTime(10_000_000), 4.0);
        s.record(SimTime(30_000_000), 2.0);
        let mean = s.time_weighted_mean(SimTime::ZERO, SimTime(40_000_000));
        // (0*10 + 4*20 + 2*10) / 40 = 100/40 = 2.5
        assert!((mean - 2.5).abs() < 1e-9, "{mean}");
        let integral = s.integral(SimTime::ZERO, SimTime(40_000_000));
        assert!((integral - 100.0).abs() < 1e-6, "{integral}");
    }

    #[test]
    fn time_weighted_mean_window_inside_series() {
        let mut s = TimeSeries::default();
        s.record(SimTime(0), 10.0);
        s.record(SimTime(100_000_000), 0.0);
        // Window entirely inside the value-10 regime.
        let mean = s.time_weighted_mean(SimTime(10_000_000), SimTime(20_000_000));
        assert!((mean - 10.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_decimates_but_scalars_stay_exact() {
        let mut h = Histogram::default();
        let n = (METRIC_RETAIN_CAP * 5) as u64;
        for i in 0..n {
            h.record(i as f64);
        }
        assert_eq!(h.count() as u64, n, "count is exact");
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), (n - 1) as f64);
        let exact_mean = (n - 1) as f64 / 2.0;
        assert!((h.mean() - exact_mean).abs() < 1e-9, "mean is exact");
        assert!(
            h.samples().len() < METRIC_RETAIN_CAP,
            "reservoir bounded: {}",
            h.samples().len()
        );
        // Quantiles are approximate but must stay in the right ballpark.
        let med = h.quantile(0.5);
        assert!(
            (med - exact_mean).abs() < n as f64 * 0.01,
            "median {med} far from {exact_mean}"
        );
    }

    #[test]
    fn series_decimates_but_last_and_max_stay_exact() {
        let mut s = TimeSeries::default();
        let n = (METRIC_RETAIN_CAP * 3) as u64;
        for i in 0..n {
            // One point per simulated second, sawtooth values.
            s.record(SimTime(i * 1_000_000), (i % 100) as f64);
        }
        assert!(s.points().len() < METRIC_RETAIN_CAP, "points bounded");
        assert_eq!(s.last(), ((n - 1) % 100) as f64, "last is exact");
        assert_eq!(s.max(), 99.0, "max is exact");
        // The sawtooth's time-weighted mean is ~49.5 whatever the thinning.
        let mean = s.time_weighted_mean(SimTime::ZERO, SimTime(n * 1_000_000));
        assert!((mean - 49.5).abs() < 2.0, "{mean}");
    }

    proptest! {
        /// A level reads as a series that keeps its points does, bit for
        /// bit: latest value, maximum, the walk's mean and integral from 0
        /// to any end at or after the latest sample, and the exported
        /// point count (below the cap, every record is a kept point).
        #[test]
        fn a_level_reads_bit_for_bit_as_its_history(
            steps in proptest::collection::vec((any::<bool>(), 0u64..5_000_000, -1e3f64..1e3), 1..200),
            ends in proptest::collection::vec(0u64..5_000_000, 1..4),
        ) {
            let (mut history, mut level) = (Metrics::new(), Metrics::new());
            let mut t = SimTime::ZERO;
            for (same_time, dt, v) in steps {
                if !same_time {
                    t += Duration::from_micros(dt);
                }
                history.gauge("s", t, v);
                level.level("s", t, v);
            }
            let (h, l) = (&history.series["s"], &level.series["s"]);
            prop_assert!(l.points().is_empty());
            prop_assert_eq!(l.last().to_bits(), h.last().to_bits());
            prop_assert_eq!(l.max().to_bits(), h.max().to_bits());
            for end in std::iter::once(0).chain(ends).map(|dt| t + Duration::from_micros(dt)) {
                if end == SimTime::ZERO {
                    continue;
                }
                let walked = h.walk_mean(SimTime::ZERO, end);
                let secs = (end - SimTime::ZERO).as_secs_f64();
                for s in [h, l] {
                    prop_assert_eq!(s.time_weighted_mean(SimTime::ZERO, end).to_bits(), walked.to_bits());
                    prop_assert_eq!(s.integral(SimTime::ZERO, end).to_bits(), (walked * secs).to_bits());
                }
                prop_assert_eq!(json_snapshot(&level, end), json_snapshot(&history, end));
                prop_assert_eq!(prometheus_snapshot(&level, end), prometheus_snapshot(&history, end));
            }
        }
    }

    #[test]
    fn a_level_keeps_no_points_however_often_it_is_written() {
        let mut m = Metrics::new();
        for i in 0..100_000u64 {
            // One sample per simulated second, sawtooth values.
            m.level("busy", SimTime(i * 1_000_000), (i % 100) as f64);
        }
        let s = m.series("busy").unwrap();
        assert!(s.points().is_empty());
        assert_eq!(s.points.capacity(), 0, "the point vector never allocated");
        assert_eq!(s.records(), 100_000);
        assert_eq!((s.last(), s.max()), (99.0, 99.0));
        // 1,000 whole teeth of mean 49.5, summed exactly.
        let end = SimTime(100_000 * 1_000_000);
        assert_eq!(s.time_weighted_mean(SimTime::ZERO, end), 49.5);
        assert!(json_snapshot(&m, end).contains("\"points\": 100000,"));
    }

    #[test]
    fn a_delta_level_reads_as_the_delta_gauge_it_replaces() {
        let (mut m, mut t) = (Metrics::new(), SimTime::ZERO);
        for i in 1..1_000u64 {
            // Up two, down one, level; steps of one to two and a half seconds.
            let delta = [2.0, -1.0, 0.0][(i % 3) as usize];
            t += Duration::from_millis(1_000 + (i % 7) * 250);
            m.gauge_delta("gauge", t, delta);
            m.level_delta("level", t, delta);
        }
        let (g, l) = (m.series("gauge").unwrap(), m.series("level").unwrap());
        assert!(l.points().is_empty());
        assert_eq!(l.records(), g.records());
        assert_eq!(
            (l.last(), l.max(), l.last_at()),
            (g.last(), g.max(), g.last_at())
        );
        let end = SimTime(2_000 * 1_000_000);
        let mean = |s: &TimeSeries| s.time_weighted_mean(SimTime::ZERO, end).to_bits();
        assert_eq!(mean(l), mean(g));
    }

    #[test]
    #[should_panic(expected = "a level keeps no points")]
    fn a_windowed_mean_of_a_level_panics() {
        let mut s = TimeSeries::level();
        s.record(SimTime(1_000_000), 2.0);
        s.record(SimTime(3_000_000), 4.0);
        s.time_weighted_mean(SimTime(2_000_000), SimTime(4_000_000));
    }

    #[test]
    fn last_at_is_exact_after_decimation() {
        let mut s = TimeSeries::default();
        assert_eq!(s.last_at(), None);
        let n = (METRIC_RETAIN_CAP * 2 + 1) as u64;
        for i in 0..n {
            s.record(SimTime(i), 1.0);
        }
        assert_ne!(s.points().last().map(|p| p.0), s.last_at(), "dropped");
        assert_eq!(s.last_at(), Some(SimTime(n - 1)));
    }

    #[test]
    fn gauge_delta_accumulates() {
        let mut m = Metrics::new();
        m.gauge_delta("busy", SimTime(1), 1.0);
        m.gauge_delta("busy", SimTime(2), 1.0);
        m.gauge_delta("busy", SimTime(3), -1.0);
        let s = m.series("busy").unwrap();
        assert_eq!(s.last(), 1.0);
        assert_eq!(s.max(), 2.0);
    }
}
