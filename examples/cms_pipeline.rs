//! The CMS high-energy-physics pipeline (Experience 2, paper §6): 100
//! simulation jobs generating 500 events each at "Wisconsin", events
//! shipped to the repository, then a reconstruction job at "NCSA" — all
//! driven by a DAG with a disk-buffer throttle.
//!
//! ```text
//! cargo run --release --example cms_pipeline
//! ```

use condor_g_suite::condor_g::DagMan;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::cms::{cms_pipeline, CmsParams};
use condor_g_suite::workloads::stats::Table;

fn main() {
    let mut tb = build(TestbedConfig {
        seed: 500,
        sites: vec![
            // The Wisconsin pool runs the simulations...
            SiteSpec::pbs("wisc", 120).with_arch("INTEL"),
            // ...the NCSA cluster runs the reconstruction.
            SiteSpec::pbs("ncsa", 32).with_arch("IA64"),
        ],
        with_mds: true,
        mds_broker: true,
        // A multi-day campaign needs a long-lived proxy (the agent would
        // otherwise hold everything when the default 24h proxy expires —
        // see the credentials experiment for that behaviour).
        proxy_lifetime: Duration::from_days(7),
        ..TestbedConfig::default()
    });

    let params = CmsParams::default();
    let dag = cms_pipeline(
        &params,
        Some("TARGET.Name == \"wisc\""),
        Some("TARGET.Name == \"ncsa\""),
    );
    println!(
        "pipeline: {} simulation jobs x {} events, then reconstruction ({} nodes, throttle {})",
        params.sim_jobs,
        params.events_per_job,
        dag.nodes.len(),
        params.max_active
    );

    let node = tb.submit;
    let scheduler = tb.scheduler;
    tb.world
        .add_component(node, "dagman", DagMan::new(dag, scheduler));
    tb.world.run_until(SimTime::ZERO + Duration::from_days(3));

    let m = tb.world.metrics();
    let _end = tb.world.now();
    let done: u64 = tb.world.store().get(node, "dag/done_nodes").unwrap_or(0);
    let success: bool = tb.world.store().get(node, "dag/success").unwrap_or(false);
    // Makespan: when the last DAG node finished (busy gauge back to zero).
    let makespan = m
        .series("grid.busy_cpus")
        .and_then(|s| s.last_at())
        .map_or(0.0, |t| t.as_hours_f64());
    let cpu_hours: f64 = ["wisc", "ncsa"]
        .iter()
        .filter_map(|s| m.histogram(&format!("site.{s}.cpu_seconds")))
        .map(|h| h.sum() / 3600.0)
        .sum();

    println!(
        "\nresults (cf. paper: 50,000 events, ~1200 CPU-hours, < 1.5 days... at 2.5x the CPUs):"
    );
    let mut t = Table::new(&["metric", "value", "paper"]);
    t.row(&["DAG completed".into(), format!("{success}"), "yes".into()]);
    t.row(&[
        "nodes done".into(),
        format!("{done}"),
        format!("{}", params.sim_jobs + 1),
    ]);
    t.row(&[
        "events produced".into(),
        format!("{}", params.total_events()),
        "50,000".into(),
    ]);
    t.row(&[
        "event data shipped (GB)".into(),
        format!("{:.1}", m.counter("net.bulk_bytes") as f64 / 1e9),
        format!("{:.1}", params.total_bytes() as f64 / 1e9),
    ]);
    t.row(&[
        "CPU-hours".into(),
        format!("{cpu_hours:.0}"),
        "~1200".into(),
    ]);
    t.row(&[
        "makespan (hours)".into(),
        format!("{makespan:.1}"),
        "< 36".into(),
    ]);
    println!("{}", t.render());

    // Ordering guarantee: reconstruction started only after every transfer.
    let wisc_jobs = m
        .histogram("site.wisc.cpu_seconds")
        .map(|h| h.count())
        .unwrap_or(0);
    let ncsa_jobs = m
        .histogram("site.ncsa.cpu_seconds")
        .map(|h| h.count())
        .unwrap_or(0);
    println!("site job counts: wisc={wisc_jobs} (simulations), ncsa={ncsa_jobs} (reconstruction)");
}
