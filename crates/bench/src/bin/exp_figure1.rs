//! F1 — Figure 1: "Remote execution by Condor-G on Globus-managed
//! resources".
//!
//! Reproduces the figure as a protocol ladder: every arrow in the diagram
//! (user request → Scheduler → GridManager → GateKeeper → JobManager →
//! site scheduler, GASS staging back and forth, persistent-queue writes)
//! appears as a traced event, in order, for one job.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};

fn main() {
    let mut tb = build(TestbedConfig {
        seed: 1,
        trace: true,
        sites: vec![SiteSpec::pbs("site.edu", 4)],
        ..TestbedConfig::default()
    });
    let spec = GridJobSpec::grid("figure1-job", "/home/jane/app.exe", Duration::from_mins(30))
        .with_stdout(250_000);
    let console = UserConsole::new(tb.scheduler).submit_many(1, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(2));

    println!("== F1: the Figure-1 execution path, as traced ==");
    println!("(Job Submission Machine = n0, Job Execution Site = n1 gatekeeper / n2 cluster)\n");
    for e in tb.world.trace().events() {
        // The ladder: agent-side log lines, GRAM protocol, JobManager state
        // machine, site scheduler, GASS movement.
        if matches!(
            &*e.kind,
            "condor_g.log"
                | "gm.submit"
                | "gram.submit"
                | "jm.state"
                | "lrm.submit"
                | "lrm.start"
                | "lrm.done"
                | "gass.get"
                | "gass.write_at"
        ) {
            println!("  {e}");
        }
    }
    let h = UserConsole::history_of(&tb.world, node, 0);
    println!("\nuser-visible history: {}", h.join(" -> "));
    let m = tb.world.metrics();
    println!("\nFigure-1 checklist:");
    let checks = [
        (
            "user submit accepted by Scheduler",
            m.counter("condor_g.submitted") == 1,
        ),
        (
            "GridManager created, job submitted via 2-phase GRAM",
            m.counter("gram.submits") == 1,
        ),
        (
            "commit sent and acknowledged",
            m.counter("gram.commits") == 1,
        ),
        (
            "JobManager staged executable via GASS",
            m.counter("gass.gets") >= 1,
        ),
        (
            "job queued + run by site scheduler",
            m.counter("site.completed") == 1,
        ),
        (
            "stdout streamed back to submit-side GASS",
            m.counter("gass.write_ats") >= 1,
        ),
        (
            "persistent queue written",
            !tb.world
                .store()
                .keys_with_prefix(node, "condor_g/")
                .is_empty()
                && !tb.world.store().keys_with_prefix(node, "gm/").is_empty(),
        ),
        ("job Done at the user", m.counter("condor_g.jobs_done") == 1),
    ];
    let mut ok = true;
    for (what, passed) in checks {
        println!("  [{}] {what}", if passed { "x" } else { " " });
        ok &= passed;
    }
    assert!(ok, "Figure-1 path incomplete");
    println!("\nFigure 1 reproduced: every box and arrow exercised.");
}
