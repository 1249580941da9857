//! End-to-end tests of the shared-bandwidth flow network: contention
//! measurably slows stage-in, in-flight transfers cut by a partition or a
//! link outage are resent on the waiting side's timer, and flows keep the kernel's determinism guarantee
//! (same seed, same trace).

use condor_g_suite::classads::ClassAd;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::condor_g::gridmanager::GmConfig;
use condor_g_suite::condor_g::scheduler::SchedulerConfig;
use condor_g_suite::condor_g::{GatekeeperInfo, Scheduler, StaticListBroker};
use condor_g_suite::gram::jobmanager::JmLog;
use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{
    build, SiteSpec, Testbed, TestbedConfig, UserConsole, WanLinkSpec, WanTopology,
};
use support::{metric, scenario, sim_text};

mod support;

/// The report `condor-g-sim` prints for scenario `text`.
fn report_of(text: &str) -> String {
    sim_text(text, &[]).ok().stdout
}

/// The shipped stage-in storm scenario's text.
fn storm_text() -> String {
    std::fs::read_to_string(scenario("stagein_storm.scn")).expect("scenario file")
}

/// Mean seconds of a named phase from the phase-summary table.
fn phase_mean(report: &str, phase: &str) -> f64 {
    report
        .lines()
        .find(|l| l.split_whitespace().next() == Some(phase))
        .unwrap_or_else(|| panic!("no phase {phase:?} in:\n{report}"))
        .split_whitespace()
        .last()
        .and_then(|w| w.strip_suffix('s'))
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("unparseable mean for {phase:?}"))
}

/// The `WAN bulk GB` row: gigabytes moved by bulk transfers.
fn wan_gb(report: &str) -> f64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix("WAN bulk GB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no WAN bulk GB row in:\n{report}"))
}

#[test]
fn contended_stage_in_is_slower_than_uncontended() {
    let storm = storm_text();
    let contended = report_of(&storm);
    assert_eq!(metric(&contended, "jobs done"), 24, "{contended}");
    assert_eq!(metric(&contended, "jobs failed"), 0);
    // Each image and each output crosses the link once: a stage-in whose
    // flow is still arriving is waited for, not retried (retrying took 96
    // flows and 1.18 GB).
    assert_eq!(metric(&contended, "contended flows"), 48, "{contended}");
    let gb = wan_gb(&contended);
    assert!((0.40..0.42).contains(&gb), "{gb} GB moved:\n{contended}");

    // Same workload with the link/route/linkbw directives stripped: every
    // transfer is a sized message on its pair's private bandwidth.
    let solo_text: String = storm
        .lines()
        .filter(|l| {
            let d = l.split_whitespace().next().unwrap_or("");
            !matches!(d, "link" | "route" | "linkbw" | "linkdown")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    let solo = report_of(&solo_text);
    assert_eq!(metric(&solo, "jobs done"), 24, "{solo}");

    let contended_mean = phase_mean(&contended, "stage_in");
    let solo_mean = phase_mean(&solo, "stage_in");
    assert!(
        contended_mean > solo_mean * 3.0,
        "24 stage-ins sharing one 2.5 MB/s link should be far slower than \
         private links: contended {contended_mean}s vs solo {solo_mean}s"
    );
}

#[test]
fn storm_is_same_seed_deterministic() {
    let storm = storm_text();
    let trace = || {
        sim_text(&storm, &["--report-dir", "r"])
            .ok()
            .read("r/trace.jsonl")
    };
    let (a, b) = (trace(), trace());
    assert!(!a.is_empty(), "trace written");
    assert_eq!(a, b, "same seed, same trace");
}

#[test]
fn partition_mid_transfer_aborts_flows_and_jobs_still_finish() {
    let mut tb = build(TestbedConfig {
        seed: 29,
        trace: true,
        sites: vec![SiteSpec::pbs("far", 8)],
        exe_size: 16_000_000,
        wan: Some(WanTopology {
            links: vec![WanLinkSpec {
                name: "wan".into(),
                capacity: 2_500_000.0,
                latency: 0.030,
            }],
            site_routes: vec![(0, vec!["wan".into()])],
        }),
        ..TestbedConfig::default()
    });
    let mut console = UserConsole::new(tb.scheduler);
    for _ in 0..4 {
        console = console.submit_after(
            Duration::ZERO,
            GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(10)),
        );
    }
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    // Four 16 MB stage-ins share 2.5 MB/s, so they are all still in flight
    // at t=10s when the submit machine is cut off for five minutes.
    let others: Vec<NodeId> = tb
        .sites
        .iter()
        .flat_map(|s| [s.interface, s.cluster])
        .collect();
    let plan = FaultPlan::new()
        .partition_window(
            vec![tb.submit],
            others,
            SimTime::ZERO + Duration::from_secs(10),
            Duration::from_mins(5),
        )
        .sorted();
    tb.world.apply_fault_plan(&plan);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));

    let m = tb.world.metrics();
    assert!(
        m.counter("net.flows_aborted") >= 1,
        "partition must cut transfers in flight (aborted = {})",
        m.counter("net.flows_aborted")
    );
    assert_eq!(m.counter("condor_g.jobs_done"), 4, "all jobs recover");
    assert_eq!(m.counter("condor_g.jobs_failed"), 0);
    assert_eq!(UserConsole::terminal_count(&tb.world, node), 4);
}

#[test]
fn link_outage_mid_transfer_recovers_via_retry() {
    // Same shape as the partition test but through the scenario language:
    // the WAN link itself dies while stage-ins are crossing it.
    let text = "seed 17\n\
                site pbs far 8\n\
                image 16M\n\
                link wan 2.5M 30ms\n\
                route site 0 via wan\n\
                job grid app.exe 10m x4 stdout=1M\n\
                linkdown wan at 10s for 5m\n\
                run 4h\n";
    let report = report_of(text);
    assert_eq!(metric(&report, "jobs done"), 4, "{report}");
    assert_eq!(metric(&report, "jobs failed"), 0);
    assert!(metric(&report, "flows aborted") >= 1, "{report}");
}

#[test]
fn bandwidth_override_to_zero_stalls_then_resumes() {
    // A capacity-0 window stalls every flow (no completion events at all)
    // until the restore rescales them back to a finite rate.
    let text = "seed 5\n\
                site pbs far 8\n\
                image 16M\n\
                link wan 2.5M 30ms\n\
                route site 0 via wan\n\
                job grid app.exe 10m x2 stdout=1M\n\
                linkbw wan 0 at 5s for 10m\n\
                run 4h\n";
    let report = report_of(text);
    assert_eq!(metric(&report, "jobs done"), 2, "{report}");
    assert_eq!(metric(&report, "jobs failed"), 0);
    assert_eq!(metric(&report, "link rescales"), 2, "{report}");
    // The stall window adds its full length to the stage-in phase: flows
    // froze rather than completing on the pre-override schedule.
    assert!(
        phase_mean(&report, "stage_in") > 500.0,
        "stage-in should absorb the 10-minute stall:\n{report}"
    );
}

#[test]
fn slow_staging_is_waited_for_not_retried() {
    // A 64 MB image and a 64 MB output over a 100 KB/s link take 640 s
    // each, longer than either staging timeout (572 s). Both flows are
    // still moving when their timers fire, so the JobManager waits
    // another period instead of putting a second copy on the link it is
    // already short of: two flows, one copy of each file. Retrying on the
    // timer took 9 flows and 0.58 GB.
    let text = "seed 5\n\
                site pbs far 8\n\
                image 64M\n\
                link wan 100K 30ms\n\
                route site 0 via wan\n\
                job grid app.exe 10m x1 stdout=64M\n\
                run 12h\n";
    let report = report_of(text);
    assert_eq!(metric(&report, "jobs done"), 1, "{report}");
    assert_eq!(metric(&report, "contended flows"), 2, "{report}");
    assert!(wan_gb(&report) < 0.14, "one copy of each file:\n{report}");
    for phase in ["stage_in", "stage_out"] {
        let mean = phase_mean(&report, phase);
        assert!(
            (640.0..660.0).contains(&mean),
            "{phase}: one transfer at the link's rate, about 640 s:\n{report}"
        );
    }
}

/// One job whose 256 MB stdout crosses a 100 KB/s link (about 43
/// minutes), run until that flow is a few minutes under way.
fn mid_stage_out() -> Testbed {
    let mut tb = build(TestbedConfig {
        seed: 31,
        sites: vec![SiteSpec::pbs("far", 8)],
        exe_size: 1_000_000,
        wan: Some(WanTopology {
            links: vec![WanLinkSpec {
                name: "wan".into(),
                capacity: 100_000.0,
                latency: 0.030,
            }],
            site_routes: vec![(0, vec!["wan".into()])],
        }),
        ..TestbedConfig::default()
    });
    let job = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(10))
        .with_stdout(256_000_000);
    let console = UserConsole::new(tb.scheduler).submit_after(Duration::ZERO, job);
    tb.world.add_component(tb.submit, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(15));
    let m = tb.world.metrics();
    assert_eq!(m.counter("gram.jobs_completed"), 1, "the job has run");
    assert_eq!(m.counter("net.flows_started"), 2, "stage-in, then stdout");
    assert_eq!(m.counter("net.flows_done"), 1, "the stdout is leaving");
    tb
}

/// Run `tb` to the end, check it restarted `restarts` JobManagers, and
/// return how many flows it started.
fn flows_to_finish(mut tb: Testbed, restarts: u64) -> u64 {
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(6));
    let m = tb.world.metrics();
    assert_eq!(m.counter("gram.jm_restarts"), restarts);
    assert_eq!(m.counter("condor_g.jobs_done"), 1);
    assert_eq!(m.counter("condor_g.jobs_failed"), 0);
    assert_eq!(m.counter("site.completed"), 1, "the job ran once");
    m.counter("net.flows_started")
}

#[test]
fn a_stdout_cut_in_flight_is_resent_by_the_stage_out_timer() {
    // The link dies for five minutes under the leaving stdout flow. The
    // kernel drops the cut flow and tells nobody; the JobManager's
    // stage-out timer finds no flow leaving and resends the stdout, a
    // third flow over the link that is back up. Without that re-drive
    // the job never leaves stage-out.
    let mut tb = mid_stage_out();
    let down = SimTime::ZERO + Duration::from_mins(16);
    let plan = FaultPlan::new().link_down_window("wan", down, Duration::from_mins(5));
    tb.world.apply_fault_plan(&plan);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(6));
    let m = tb.world.metrics();
    assert_eq!(m.counter("net.flows_aborted"), 1, "the first stdout");
    assert_eq!(m.counter("gram.stage_retries"), 1);
    assert_eq!(m.counter("gram.jm_restarts"), 0);
    assert_eq!(
        m.counter("net.flows_started"),
        3,
        "stage-in and two stdouts"
    );
    assert_eq!(m.counter("net.flows_done"), 2);
    assert_eq!(m.counter("condor_g.jobs_done"), 1);
    assert_eq!(m.counter("condor_g.jobs_failed"), 0);
    assert_eq!(m.counter("site.completed"), 1, "the job ran once");
}

#[test]
fn restarted_jobmanager_adopts_the_stdout_flow_still_leaving() {
    // The JobManager dies mid stage-out (a `kill -9` of its process), and
    // its 256 MB stdout flow keeps crossing the link. The GridManager's
    // probes go unanswered, so it has the gatekeeper start a new
    // JobManager from the job's log, which takes back the dead one's
    // address, and then re-points it at its GASS server. Both times the
    // new JobManager finds the flow still leaving from its address and
    // awaits that one's reply: no second copy. Resending on restart, on
    // the re-point and on the timer took 7 flows.
    let mut tb = mid_stage_out();
    let site = tb.sites[0].interface;
    let logs = tb.world.store().keys_with_prefix(site, JmLog::KEY_PREFIX);
    let [log] = logs.as_slice() else {
        panic!("one JobManager log, not {logs:?}");
    };
    let name = format!("jm-{}", &log[JmLog::KEY_PREFIX.len()..]);
    let jm = tb
        .world
        .lookup(site, &name)
        .expect("the JobManager is live");
    tb.world.kill_component_now(jm);
    assert_eq!(flows_to_finish(tb, 1), 2, "stage-in and one stdout copy");
}

#[test]
fn restarted_gridmanager_moves_no_second_stdout_copy_on_update_gass() {
    // The GridManager and its scheduler die mid stage-out and come back
    // from stable storage. The site answers the recovered GridManager's
    // first probe with the JobManager, still alive, so the GridManager
    // reconnects to it rather than restarting it, and re-points it at
    // its GASS server (`UpdateGass`) while its stdout flow is leaving: the
    // JobManager awaits that flow instead of resending. Restarting the
    // live JobManager instead left its flow an orphan and sent a third;
    // resending on `UpdateGass` and on the timer took 8 flows.
    let mut tb = mid_stage_out();
    let gm = tb.world.lookup(tb.submit, "gridmanager").expect("live");
    tb.world.kill_component_now(gm);
    tb.world.kill_component_now(tb.scheduler);
    let broker = StaticListBroker::new(
        tb.sites
            .iter()
            .map(|s| GatekeeperInfo {
                site: s.name.clone(),
                addr: s.gatekeeper,
                ad: ClassAd::new(),
            })
            .collect(),
    );
    let config = SchedulerConfig {
        user: "jane".into(),
        credential: tb.proxy.clone(),
        gass: tb.gass,
        pool_schedd: None,
        mailer: Some(tb.mailer),
        gm: GmConfig {
            user: "jane".into(),
            mailer: Some(tb.mailer),
            ..GmConfig::default()
        },
        email_on_termination: false,
    };
    let scheduler = Scheduler::recover(config, Box::new(broker), tb.world.store(), tb.submit);
    let back = tb.world.add_component(tb.submit, "scheduler", scheduler);
    assert_eq!(back, tb.scheduler, "a restart keeps its address");
    assert_eq!(flows_to_finish(tb, 0), 2, "no copy from UpdateGass");
}
