//! A fault drill: watch Condor-G survive, live, the four failure classes
//! of paper §4.2 in one run — JobManager crash, resource-machine crash,
//! submit-machine crash, and a network partition — without losing or
//! duplicating a single job.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};

fn main() {
    let mut tb = build(TestbedConfig {
        seed: 13,
        trace: true,
        sites: vec![SiteSpec::pbs("target-site", 8)],
        ..TestbedConfig::default()
    });
    let spec = GridJobSpec::grid("survivor", "/home/jane/app.exe", Duration::from_hours(4))
        .with_stdout(10_000);
    let console = UserConsole::new(tb.scheduler).submit_many(4, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    let gk_node = tb.sites[0].interface;
    let cluster = tb.sites[0].cluster;

    println!("4 four-hour jobs submitted; now the world starts failing...\n");

    // t=30min: the gatekeeper/JobManager machine crashes for 45 minutes.
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(30));
    println!("[t=0h30] CRASH: gatekeeper machine down (jobs keep computing at the site)");
    tb.world.crash_node_now(gk_node);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(75));
    println!("[t=1h15] RESTART: gatekeeper machine back; Condor-G restarts JobManagers");
    tb.world.restart_node_now(gk_node);

    // t=2h: network partition between submit machine and the site.
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(2));
    println!("[t=2h00] PARTITION: submit machine cut off from the site for 40 minutes");
    tb.world
        .network_mut()
        .partition(&[node], &[gk_node, cluster]);
    tb.world
        .run_until(SimTime::ZERO + Duration::from_hours(2) + Duration::from_mins(40));
    println!("[t=2h40] HEAL: network restored; the GridManager reconnects");
    tb.world.network_mut().heal(&[node], &[gk_node, cluster]);

    tb.world.run_until(SimTime::ZERO + Duration::from_hours(10));

    println!("\noutcome:");
    for i in 0..4 {
        let h = UserConsole::history_of(&tb.world, node, i);
        println!("  job {i}: {}", h.join(" -> "));
    }
    let m = tb.world.metrics();
    println!("\nledger:");
    println!("  jobs submitted     {}", m.counter("condor_g.submitted"));
    println!("  site executions    {}", m.counter("site.completed"));
    println!("  jobs done          {}", m.counter("condor_g.jobs_done"));
    println!("  site probes sent   {}", m.counter("gm.probes"));
    println!("  site probes missed {}", m.counter("gm.probes_missed"));
    println!("  JobManager restarts {}", m.counter("gram.jm_restarts"));
    println!(
        "  duplicate submits deduped {}",
        m.counter("gram.duplicate_submits")
    );
    assert_eq!(m.counter("condor_g.jobs_done"), 4, "a job was lost!");
    assert_eq!(
        m.counter("site.completed"),
        4,
        "a job was duplicated or lost at the site!"
    );
    println!("\nexactly-once held: 4 jobs submitted, 4 site executions, 4 completions.");

    println!("\nrecovery-related trace events:");
    for e in tb.world.trace().events().iter().filter(|e| {
        matches!(
            &*e.kind,
            "gm.jm_lost" | "gm.site_lost" | "gram.jm_restart" | "gram.dedup" | "gm.attempt_failed"
        )
    }) {
        println!("  {e}");
    }
}
