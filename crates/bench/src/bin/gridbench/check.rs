//! `gridbench check A.json B.json`: is B worse than A by more than the
//! bounds allow? One line per workload and metric.

use crate::bench::{EndToEnd, END_TO_END};
use crate::json::Json;
use crate::ledger::LAYER_METRICS;
use crate::stats::Summary;
use std::fmt::Write as _;

/// Set-up is milliseconds; below this many seconds a worsening is not one.
const SETUP_FLOOR_SECS: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn summary(workload: &Json, metric: &str) -> Option<Summary> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Summary {
        median: m.get("median")?.num()?,
        q1: m.get("q1")?.num()?,
        q3: m.get("q3")?.num()?,
        n: m.get("n")?.num()? as usize,
    })
}

/// Judge one metric: `a` is the baseline, `b` the candidate. Returns the
/// verdict and how much worse `b`'s median is, in the metric's unit.
pub fn judge(e: &EndToEnd, a: Summary, b: Summary) -> (Verdict, f64) {
    let sign = if e.better == "lower" { 1.0 } else { -1.0 };
    let worse = sign * (b.median - a.median);
    let floor = if e.name == "setup_s" {
        SETUP_FLOOR_SECS
    } else {
        0.0
    };
    let allowed = (e.bound * a.median.abs()).max(floor);
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1);
    let verdict = if worse > allowed.max(spread) {
        Verdict::Regressed
    } else if spread > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// What must be equal between two runs of one seed when only the
/// simulator's speed changed: digest, counts, sim metrics and every
/// per-layer metric that is a count.
fn sim_differences(wa: &Json, wb: &Json) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = ["digest", "jobs", "events"]
        .into_iter()
        .filter(|k| wa.get(k) != wb.get(k))
        .collect();
    let median = |w: &Json, name: &str| summary(w, name).map(|s| s.median);
    out.extend(
        END_TO_END
            .iter()
            .filter(|e| e.sim && median(wa, e.name) != median(wb, e.name))
            .map(|e| e.name),
    );
    let layer = |w: &Json, name: &str| w.get("per_layer")?.get(name)?.get("value")?.num();
    out.extend(
        LAYER_METRICS
            .iter()
            .filter(|l| l.exact() && layer(wa, l.name) != layer(wb, l.name))
            .map(|l| l.name),
    );
    out
}

/// Compare two `results.json` documents. Returns the report and whether
/// anything regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    if a.get("seed").is_none() || a.get("seed") != b.get("seed") {
        return Err("the two result sets are not of one seed: sim metrics cannot compare".into());
    }
    fn workloads<'a>(doc: &'a Json, which: &str) -> Result<&'a [(String, Json)], String> {
        doc.get("workloads")
            .map(Json::fields)
            .ok_or(format!("{which} has no \"workloads\""))
    }
    let (was, wbs) = (workloads(a, "A")?, workloads(b, "B")?);
    let names = |ws: &[(String, Json)]| ws.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(was) != names(wbs) {
        return Err(format!(
            "workloads differ: A has {:?}, B has {:?}",
            names(was),
            names(wbs)
        ));
    }
    let mut out = String::new();
    let mut regressed = false;
    for ((name, wa), (_, wb)) in was.iter().zip(wbs) {
        let differences = sim_differences(wa, wb);
        let _ = writeln!(out, "{name}: sim_identical: {}", differences.is_empty());
        for d in differences {
            let _ = writeln!(out, "  {d} differs");
        }
        for e in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary(wa, e.name), summary(wb, e.name)) else {
                return Err(format!("{name}: metric {} missing", e.name));
            };
            let (verdict, worse) = judge(e, sa, sb);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<22} {:>14.6} -> {:>14.6} {:<5} {:+7.2}% worse  {}",
                e.name,
                sa.median,
                sb.median,
                e.unit,
                100.0 * worse / sa.median.abs().max(f64::MIN_POSITIVE),
                verdict.word()
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|e| e.name == name).unwrap()
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
            n: 5,
        }
    }

    fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 5,
        }
    }

    #[test]
    fn verdicts_on_hand_made_summaries() {
        let jobs = metric("jobs_per_s");
        let base = tight(1000.0);
        let lost = |share: f64| tight(1000.0 * (1.0 - share));
        let verdict = |b| judge(jobs, base, b).0;
        assert_eq!(verdict(lost(0.05)), Verdict::Ok);
        assert_eq!(verdict(lost(0.12)), Verdict::Regressed);
        // Faster is never a regression for a higher-is-better metric.
        assert_eq!(verdict(tight(2000.0)), Verdict::Ok);
        // Quartiles wider apart than the bound: the data cannot say.
        let noisy = Summary {
            median: 1000.0,
            q1: 900.0,
            q3: 1100.0,
            n: 5,
        };
        let verdict = |b| judge(jobs, noisy, b).0;
        assert_eq!(verdict(lost(0.12)), Verdict::Unresolved);
        assert_eq!(verdict(tight(1000.0)), Verdict::Unresolved);
        // A loss far beyond the spread is a regression even on noisy data.
        assert_eq!(verdict(lost(0.30)), Verdict::Regressed);

        // Sim metrics are exact for a seed: 2% is a model change, 0.5% is not.
        let p99 = metric("turnaround_p99_sim_s");
        assert_eq!(
            judge(p99, exact(1000.0), exact(1020.0)).0,
            Verdict::Regressed
        );
        assert_eq!(judge(p99, exact(1000.0), exact(1005.0)).0, Verdict::Ok);
        assert_eq!(judge(p99, exact(1000.0), exact(900.0)).0, Verdict::Ok);

        // Any increase of failed_share regresses, also from 0.
        let failed = metric("failed_share");
        assert_eq!(judge(failed, exact(0.0), exact(0.0)).0, Verdict::Ok);
        assert_eq!(
            judge(failed, exact(0.0), exact(0.0001)).0,
            Verdict::Regressed
        );
        assert_eq!(judge(failed, exact(0.001), exact(0.0)).0, Verdict::Ok);

        // Set-up twice as slow but still a few milliseconds: not a finding.
        let setup = metric("setup_s");
        let verdict = |a, b| judge(setup, tight(a), tight(b)).0;
        assert_eq!(verdict(0.002, 0.004), Verdict::Ok);
        assert_eq!(verdict(0.2, 0.4), Verdict::Regressed);
    }

    fn doc(seed: f64, workload: &str, jobs_per_s: f64, digest: &str, retries: f64) -> Json {
        let e2e = Json::obj(END_TO_END.iter().map(|e| {
            let v = if e.name == "jobs_per_s" {
                jobs_per_s
            } else {
                100.0
            };
            (
                e.name,
                Json::obj([
                    ("unit", Json::str(e.unit)),
                    ("median", Json::Num(v)),
                    ("q1", Json::Num(v)),
                    ("q3", Json::Num(v)),
                    ("n", Json::Num(5.0)),
                ]),
            )
        }));
        let per_layer = Json::obj([
            (
                "gram.stage_retries",
                Json::obj([("unit", Json::str("count")), ("value", Json::Num(retries))]),
            ),
            (
                // Host-timed: free to differ.
                "core.handler_ns_per_job",
                Json::obj([("unit", Json::str("ns")), ("value", Json::Num(jobs_per_s))]),
            ),
        ]);
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj([(
                    workload,
                    Json::obj([
                        ("digest", Json::str(digest)),
                        ("jobs", Json::Num(10.0)),
                        ("events", Json::Num(99.0)),
                        ("end_to_end", e2e),
                        ("per_layer", per_layer),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_reports_identity_and_exit_status() {
        let base = doc(42.0, "grid_stream", 1000.0, "aa", 7.0);
        let (report, regressed) =
            compare(&base, &doc(42.0, "grid_stream", 990.0, "aa", 7.0)).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("sim_identical: true"));

        let (report, regressed) =
            compare(&base, &doc(42.0, "grid_stream", 700.0, "bb", 7.0)).unwrap();
        assert!(regressed);
        assert!(report.contains("sim_identical: false"));
        assert!(report.contains("digest differs"));
        assert!(report.contains("regressed"));

        // A ledger count that moved is a model change, not a regression.
        let (report, regressed) =
            compare(&base, &doc(42.0, "grid_stream", 1000.0, "aa", 8.0)).unwrap();
        assert!(!regressed);
        assert!(report.contains("sim_identical: false"));
        assert!(report.contains("gram.stage_retries differs"));
    }

    #[test]
    fn compare_refuses_other_seeds_and_other_workload_sets() {
        let base = doc(42.0, "grid_stream", 1000.0, "aa", 7.0);
        assert!(compare(&base, &doc(43.0, "grid_stream", 1000.0, "aa", 7.0)).is_err());
        // A workload only one side has, whichever side.
        let other = doc(42.0, "stagein_flow", 1000.0, "aa", 7.0);
        assert!(compare(&base, &other).is_err());
        assert!(compare(&other, &base).is_err());
        assert!(compare(&base, &Json::obj::<String>([])).is_err());
    }
}
