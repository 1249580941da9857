//! A1 — ablation: the checkpoint interval (design decision behind §5's
//! mobile sandboxing).
//!
//! "It periodically checkpoints the job to another location... and
//! migrates the job to another location if requested to do so."
//!
//! On a heavily churning desktop pool, sweeping the checkpoint interval
//! trades repeated work (everything since the last checkpoint is lost on
//! revocation) against checkpoint traffic. No checkpointing at all makes
//! long jobs nearly unfinishable — the reason the mechanism exists.

use bench::report;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use workloads::stats::Table;

const JOBS: usize = 8;
const JOB_HOURS: u64 = 6;

struct Outcome {
    done: u64,
    vacates: u64,
    ckpts: u64,
    ckpt_gb: f64,
    busy_cpu_h: f64,
    makespan_h: f64,
}

fn run(interval: Option<Duration>) -> Outcome {
    // A genuinely stormy pool: on average half the machines are owner-
    // occupied, re-rolled every ~20 minutes.
    let stormy = SiteSpec {
        kind: condor_g_suite::harness::SiteKind::CondorPool {
            churn_mean_secs: 1200.0,
            reclaimed_mean: 8.0,
        },
        ..SiteSpec::pbs("stormy-pool", 16)
    };
    let mut tb = build(TestbedConfig {
        seed: 1313,
        sites: vec![stormy],
        with_personal_pool: true,
        proxy_lifetime: Duration::from_days(10),
        ..TestbedConfig::default()
    });
    // One glidein wave with the swept checkpoint interval.
    let collector = tb.collector.expect("pool");
    let sites = vec![condor_g_suite::condor_g::glidein::GlideinSite {
        site: "stormy-pool".into(),
        gatekeeper: tb.sites[0].gatekeeper,
        cluster_node: tb.sites[0].cluster,
        target: 12,
        lease: Duration::from_hours(24),
        machine_ad: condor_g_suite::classads::ClassAd::new()
            .with("Arch", "INTEL")
            .with("OpSys", "LINUX"),
    }];
    let factory =
        condor_g_suite::condor_g::GlideinFactory::new(sites, collector, tb.proxy.clone(), tb.gass)
            .with_ckpt_interval(interval);
    tb.world
        .add_component(tb.submit, "glidein-factory", factory);

    let spec = GridJobSpec::pool(
        "long-task",
        "/home/jane/worker.exe",
        Duration::from_hours(JOB_HOURS),
    );
    let console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(6));
    let end = tb.world.now();
    let m = tb.world.metrics();
    Outcome {
        done: m.counter("condor_g.jobs_done"),
        vacates: m.counter("condor.vacated") + m.counter("shadow.watchdog_vacates"),
        ckpts: m.counter("condor.checkpoints"),
        ckpt_gb: m.counter("condor.checkpoints") as f64 * 8e6 / 1e9,
        busy_cpu_h: m
            .series("condor.busy_startds")
            .map(|s| s.integral(SimTime::ZERO, end) / 3600.0)
            .unwrap_or(0.0),
        makespan_h: m
            .series("condor_g.done_over_time")
            .and_then(|ts| ts.last_at())
            .map(|t| t.as_hours_f64())
            .unwrap_or(f64::NAN),
    }
}

fn main() {
    let mut t = Table::new(&[
        "ckpt interval",
        "done",
        "vacates",
        "checkpoints",
        "ckpt GB",
        "CPU-h burned",
        "ideal CPU-h",
        "last done (h)",
    ]);
    let ideal = (JOBS as u64 * JOB_HOURS) as f64;
    for (name, interval) in [
        ("none", None),
        ("5 min", Some(Duration::from_mins(5))),
        ("10 min", Some(Duration::from_mins(10))),
        ("30 min", Some(Duration::from_mins(30))),
        ("120 min", Some(Duration::from_mins(120))),
    ] {
        let o = run(interval);
        t.row(&[
            name.into(),
            format!("{}/{JOBS}", o.done),
            format!("{}", o.vacates),
            format!("{}", o.ckpts),
            format!("{:.1}", o.ckpt_gb),
            format!("{:.0}", o.busy_cpu_h),
            format!("{ideal:.0}"),
            format!("{:.1}", o.makespan_h),
        ]);
    }
    report(
        "A1 (ablation): checkpoint interval on a churning desktop pool \
         (8 six-hour jobs, 16 CPUs with aggressive owner reclamation)",
        "periodic checkpointing bounds the work lost to revocation; \
         without it, long jobs restart from zero on every preemption",
        &t,
    );
}
