//! Metrics export: Prometheus-style text snapshots and JSON snapshots.
//!
//! Both formats are pure functions of the [`Metrics`] sink plus the clock,
//! so same-seed runs export byte-identical snapshots. Counters export as
//! Prometheus counters; histograms as summaries (quantiles, sum, count);
//! time series as gauges (last value) plus their time integral over
//! `[0, now]` — the paper's "CPU-hours delivered" style numbers. A JSON
//! series' `"points"` counts the points it keeps, or, for a level (which
//! keeps none), the samples recorded.

use crate::metrics::Metrics;
use crate::time::SimTime;
use std::fmt::Write as _;

/// Quantiles exported for every histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Sanitize a metric name for Prometheus: `[a-zA-Z0-9_:]` only.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` for export: finite values as shortest round-trip
/// decimal, non-finite as Prometheus/JSON-friendly spellings.
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

/// JSON has no NaN/Inf literals; map them to null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A Prometheus text-format snapshot of every counter, histogram and time
/// series in `metrics`, taken at virtual time `now`.
pub fn prometheus_snapshot(metrics: &Metrics, now: SimTime) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Condor-G simulation metrics snapshot at t={}us",
        now.micros()
    );
    for (name, value) in metrics.counters() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, hist) in metrics.histograms() {
        let n = prom_name(name);
        // Quantiles need a sorted copy; the export must not mutate state.
        let mut sorted = hist.clone();
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, label) in QUANTILES {
            let _ = writeln!(
                out,
                "{n}{{quantile=\"{label}\"}} {}",
                num(sorted.quantile(q))
            );
        }
        let _ = writeln!(out, "{n}_sum {}", num(hist.sum()));
        let _ = writeln!(out, "{n}_count {}", hist.count());
        let _ = writeln!(out, "{n}_min {}", num(hist.min()));
        let _ = writeln!(out, "{n}_max {}", num(hist.max()));
    }
    for (name, series) in metrics.all_series() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", num(series.last()));
        let _ = writeln!(out, "{n}_max {}", num(series.max()));
        // The time-weighted mean is the load signal heartbeat scrapers
        // want: `last` is an instant, `avg` is the interval's truth.
        let _ = writeln!(
            out,
            "{n}_avg {}",
            num(series.time_weighted_mean(SimTime::ZERO, now))
        );
        let _ = writeln!(
            out,
            "{n}_integral {}",
            num(series.integral(SimTime::ZERO, now))
        );
    }
    out
}

/// A JSON snapshot of every counter, histogram and time series, taken at
/// virtual time `now`. Keys are sorted (the sink stores them in BTreeMaps),
/// so the output is stable across runs.
pub fn json_snapshot(metrics: &Metrics, now: SimTime) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"sim_time_us\": {},", now.micros());

    out.push_str("  \"counters\": {");
    let mut first = true;
    for (name, value) in metrics.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    {}: {value}", json_string(name));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"histograms\": {");
    first = true;
    for (name, hist) in metrics.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        let mut sorted = hist.clone();
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \
             \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            json_string(name),
            hist.count(),
            json_num(hist.sum()),
            json_num(hist.mean()),
            json_num(hist.min()),
            json_num(hist.max()),
            json_num(sorted.quantile(0.5)),
            json_num(sorted.quantile(0.9)),
            json_num(sorted.quantile(0.99)),
        );
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"series\": {");
    first = true;
    for (name, series) in metrics.all_series() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {}: {{\"points\": {}, \"last\": {}, \"max\": {}, \
             \"time_weighted_mean\": {}, \"integral\": {}}}",
            json_string(name),
            if series.keeps_points() {
                series.points().len() as u64
            } else {
                series.records()
            },
            json_num(series.last()),
            json_num(series.max()),
            json_num(series.time_weighted_mean(SimTime::ZERO, now)),
            json_num(series.integral(SimTime::ZERO, now)),
        );
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new();
        m.incr("gram.submits", 3);
        m.incr("net.sent", 120);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.observe("gm.submit latency", v);
        }
        m.gauge("site.busy_cpus", SimTime(0), 0.0);
        m.gauge("site.busy_cpus", SimTime(10_000_000), 4.0);
        m
    }

    #[test]
    fn prometheus_snapshot_golden() {
        let m = sample_metrics();
        let snap = prometheus_snapshot(&m, SimTime(20_000_000));
        let expected = "\
# Condor-G simulation metrics snapshot at t=20000000us
# TYPE gram_submits counter
gram_submits 3
# TYPE net_sent counter
net_sent 120
# TYPE gm_submit_latency summary
gm_submit_latency{quantile=\"0.5\"} 3
gm_submit_latency{quantile=\"0.9\"} 4
gm_submit_latency{quantile=\"0.99\"} 4
gm_submit_latency_sum 10
gm_submit_latency_count 4
gm_submit_latency_min 1
gm_submit_latency_max 4
# TYPE site_busy_cpus gauge
site_busy_cpus 4
site_busy_cpus_max 4
site_busy_cpus_avg 2
site_busy_cpus_integral 40
";
        assert_eq!(snap, expected);
    }

    #[test]
    fn json_snapshot_golden() {
        let m = sample_metrics();
        let snap = json_snapshot(&m, SimTime(20_000_000));
        let expected = "\
{
  \"sim_time_us\": 20000000,
  \"counters\": {
    \"gram.submits\": 3,
    \"net.sent\": 120
  },
  \"histograms\": {
    \"gm.submit latency\": {\"count\": 4, \"sum\": 10, \"mean\": 2.5, \"min\": 1, \
\"max\": 4, \"p50\": 3, \"p90\": 4, \"p99\": 4}
  },
  \"series\": {
    \"site.busy_cpus\": {\"points\": 2, \"last\": 4, \"max\": 4, \
\"time_weighted_mean\": 2, \"integral\": 40}
  }
}
";
        assert_eq!(snap, expected);
    }

    #[test]
    fn empty_metrics_export_cleanly() {
        let m = Metrics::new();
        let prom = prometheus_snapshot(&m, SimTime(0));
        assert!(prom.starts_with("# Condor-G"));
        let json = json_snapshot(&m, SimTime(0));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prom_name("gm.submit latency"), "gm_submit_latency");
        assert_eq!(prom_name("9lives"), "_9lives");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
