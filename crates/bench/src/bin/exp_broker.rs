//! X5 — §4.4's resource brokering.
//!
//! "A simple approach... is to employ a user-supplied list of GRAM
//! servers... A more sophisticated approach is to construct a personal
//! resource broker... combin\[ing\] information about user authorization,
//! application requirements and resource status (obtained from MDS)."
//!
//! Heterogeneous sites — different architectures, sizes, and pre-existing
//! load — and a mixed job stream with per-job requirements. The static
//! list round-robins blindly (failing on wrong-arch sites and queueing at
//! busy ones); the MDS matchmaking broker reads ads and steers.

use bench::report;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use condor_g_suite::site::{JobSpec, LrmRequest};
use workloads::stats::{summarize, Table};

const JOBS: usize = 30;

struct BackgroundLoad {
    lrm: Addr,
    jobs: u32,
    each: Duration,
}

impl Component for BackgroundLoad {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.jobs {
            ctx.send(
                self.lrm,
                LrmRequest::Submit {
                    client_job: i as u64,
                    spec: JobSpec::simple(self.each, "locals"),
                },
            );
        }
    }
}

struct Outcome {
    done: u64,
    failed_attempts: u64,
    mean_wait_min: f64,
    p90_wait_min: f64,
    makespan_h: f64,
}

fn run(mds: bool) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed: 555,
        sites: vec![
            SiteSpec::pbs("intel-big", 32).with_arch("INTEL"),
            SiteSpec::pbs("intel-busy", 16).with_arch("INTEL"),
            SiteSpec::pbs("sparc", 48).with_arch("SUN4u"),
        ],
        with_mds: true, // GRIS/GIIS always exist; only the broker differs
        mds_broker: mds,
        ..TestbedConfig::default()
    });
    // Pre-load the busy INTEL site with 8 hours of backlog per CPU.
    let lrm = tb.sites[1].lrm;
    let cluster = tb.sites[1].cluster;
    tb.world.add_component(
        cluster,
        "background",
        BackgroundLoad {
            lrm,
            jobs: 32,
            each: Duration::from_hours(4),
        },
    );
    // The jobs demand INTEL (the paper's "application requirements").
    let spec = GridJobSpec::grid("intel-task", "/home/jane/app.exe", Duration::from_mins(45))
        .with_arch("INTEL") // the binary truly only runs on INTEL
        .with_requirements("TARGET.Arch == \"INTEL\" && TARGET.FreeCpus > 0")
        .with_rank("TARGET.FreeCpus");
    let console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(2));

    let m = tb.world.metrics();
    let waits = m
        .histogram("condor_g.active_wait")
        .map(|h| h.samples().to_vec())
        .unwrap_or_default();
    let s = summarize(&waits);
    Outcome {
        done: m.counter("condor_g.jobs_done"),
        failed_attempts: m.counter("gm.attempt_failures"),
        mean_wait_min: s.mean / 60.0,
        p90_wait_min: s.p90 / 60.0,
        makespan_h: m
            .series("condor_g.done_over_time")
            .and_then(|ts| ts.last_at())
            .map(|t| t.as_hours_f64())
            .unwrap_or(f64::NAN),
    }
}

fn main() {
    let mut t = Table::new(&[
        "broker",
        "done",
        "failed attempts",
        "mean wait (min)",
        "p90 wait (min)",
        "last done (h)",
    ]);
    for mds in [false, true] {
        let o = run(mds);
        t.row(&[
            if mds {
                "MDS matchmaking".into()
            } else {
                "static list (round-robin)".into()
            },
            format!("{}/{JOBS}", o.done),
            format!("{}", o.failed_attempts),
            format!("{:.1}", o.mean_wait_min),
            format!("{:.1}", o.p90_wait_min),
            format!("{:.1}", o.makespan_h),
        ]);
    }
    report(
        "X5: resource brokering — user-supplied list vs MDS matchmaking \
         (two INTEL sites, one busy; one SPARC site the jobs cannot use)",
        "the personal broker combines application requirements and MDS resource status to pick sites",
        &t,
    );
}
