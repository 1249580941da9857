//! F2 — Figure 2: "Remote job execution via GlideIn".
//!
//! The glidein path end-to-end: GRAM launches Condor daemons at the site;
//! they advertise to the *personal* Collector on the submit machine; the
//! Negotiator matches the user's queued jobs to them; a Shadow per job
//! serves redirected system calls and receives checkpoints.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};

fn main() {
    let mut tb = build(TestbedConfig {
        seed: 2,
        trace: true,
        sites: vec![SiteSpec::pbs("siteA", 8), SiteSpec::pbs("siteB", 8)],
        with_personal_pool: true,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(3, Duration::from_hours(6));
    let spec = GridJobSpec::pool(
        "figure2-job",
        "/home/jane/worker.exe",
        Duration::from_hours(1),
    )
    .with_remote_io(120.0, 32 * 1024);
    let console = UserConsole::new(tb.scheduler).submit_many(4, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));

    println!("== F2: the Figure-2 GlideIn path, as traced ==\n");
    for e in tb.world.trace().events().iter().take(400) {
        if matches!(
            &*e.kind,
            "glidein.submit"
                | "gram.submit"
                | "jm.state"
                | "lrm.start"
                | "startd.done"
                | "startd.vacate"
                | "startd.exit"
                | "negotiator.match"
                | "condor_g.log"
        ) {
            println!("  {e}");
        }
    }

    let m = tb.world.metrics();
    println!("\nFigure-2 checklist:");
    let checks = [
        (
            "GlideIns submitted through GRAM",
            m.counter("glidein.submitted") >= 6,
        ),
        (
            "glidein daemons came up at both sites",
            m.counter("glidein.started") >= 6,
        ),
        (
            "daemons advertised to the personal Collector",
            m.counter("collector.advertisements") > 0,
        ),
        (
            "matchmaking bound jobs to glideins",
            m.counter("negotiator.matches") >= 4,
        ),
        ("claims activated", m.counter("condor.claims") >= 4),
        (
            "redirected system calls served by shadows",
            m.counter("condor.syscall_batches") > 0 && m.counter("shadow.io_bytes") > 0,
        ),
        ("checkpoints shipped", m.counter("condor.checkpoints") > 0),
        ("all user jobs Done", m.counter("condor_g.jobs_done") == 4),
        (
            "idle daemons shut down gracefully afterwards",
            m.counter("condor.startd_exits") > 0,
        ),
    ];
    let mut ok = true;
    for (what, passed) in checks {
        println!("  [{}] {what}", if passed { "x" } else { " " });
        ok &= passed;
    }
    assert!(ok, "Figure-2 path incomplete");
    println!("\nFigure 2 reproduced: grid protocols built a personal Condor pool.");
}
