//! E2 — Experience 2: the CMS simulation/reconstruction pipeline.
//!
//! "100 simulation jobs... Each of these jobs generates 500 events... all
//! events produced are transferred via GridFTP to a data repository...
//! Once all simulation jobs terminate and all data is shipped... a
//! subsequent reconstruction job... resources at three sites were used to
//! simulate and reconstruct 50,000 high-energy physics events, consuming
//! 1200 CPU hours in less than a day and a half."

use bench::report;
use condor_g_suite::condor_g::DagMan;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::cms::{cms_pipeline, CmsParams};
use workloads::stats::Table;

fn main() {
    let mut tb = build(TestbedConfig {
        seed: 500,
        sites: vec![
            SiteSpec::pbs("caltech", 8).with_arch("INTEL"), // the agent's home side jobs
            SiteSpec::pbs("wisc", 120).with_arch("INTEL"),
            SiteSpec::pbs("ncsa", 32).with_arch("IA64"),
        ],
        with_mds: true,
        mds_broker: true,
        proxy_lifetime: Duration::from_days(7),
        ..TestbedConfig::default()
    });
    let params = CmsParams::default();
    let dag = cms_pipeline(
        &params,
        Some("TARGET.Name == \"wisc\""),
        Some("TARGET.Name == \"ncsa\""),
    );
    let node = tb.submit;
    let scheduler = tb.scheduler;
    tb.world
        .add_component(node, "dagman", DagMan::new(dag, scheduler));
    tb.world.run_until(SimTime::ZERO + Duration::from_days(3));

    let m = tb.world.metrics();
    let done: u64 = tb.world.store().get(node, "dag/done_nodes").unwrap_or(0);
    let success: bool = tb.world.store().get(node, "dag/success").unwrap_or(false);
    let makespan = m
        .series("condor_g.done_over_time")
        .and_then(|ts| ts.last_at())
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    let cpu_hours: f64 = ["wisc", "ncsa"]
        .iter()
        .filter_map(|s| m.histogram(&format!("site.{s}.cpu_seconds")))
        .map(|h| h.sum() / 3600.0)
        .sum();
    let wisc_jobs = m
        .histogram("site.wisc.cpu_seconds")
        .map(|h| h.count())
        .unwrap_or(0);
    let ncsa_jobs = m
        .histogram("site.ncsa.cpu_seconds")
        .map(|h| h.count())
        .unwrap_or(0);

    let mut t = Table::new(&["metric", "measured", "paper"]);
    t.row(&["DAG completed".into(), format!("{success}"), "yes".into()]);
    t.row(&["nodes done".into(), format!("{done}/101"), "101".into()]);
    t.row(&[
        "events produced".into(),
        format!("{}", params.total_events()),
        "50,000".into(),
    ]);
    t.row(&[
        "event data shipped (GB)".into(),
        format!("{:.1}", m.counter("net.bulk_bytes") as f64 / 1e9),
        format!("~{:.0}", params.total_bytes() as f64 / 1e9),
    ]);
    t.row(&[
        "CPU-hours".into(),
        format!("{cpu_hours:.0}"),
        "~1200".into(),
    ]);
    t.row(&[
        "makespan (hours)".into(),
        format!("{makespan:.1}"),
        "<36".into(),
    ]);
    t.row(&[
        "simulations at wisc".into(),
        format!("{wisc_jobs}"),
        "100".into(),
    ]);
    t.row(&[
        "reconstructions at ncsa".into(),
        format!("{ncsa_jobs}"),
        "1".into(),
    ]);
    report(
        "E2: the CMS pipeline (100 sims x 500 events -> GridFTP -> reconstruction)",
        "50,000 events, ~1200 CPU-hours, done in under a day and a half, with strict ordering",
        &t,
    );
    assert!(success, "pipeline failed");
    assert_eq!(wisc_jobs, 100);
    assert_eq!(ncsa_jobs, 1);
}
