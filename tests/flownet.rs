//! End-to-end tests of the shared-bandwidth flow network: contention
//! measurably slows stage-in, in-flight transfers survive partitions via
//! abort-and-retry, and flow mode keeps the kernel's determinism
//! guarantee (same seed, same trace).

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{
    build, SiteSpec, TestbedConfig, UserConsole, WanLinkSpec, WanTopology,
};
use std::process::Command;

/// Run the compiled binary on scenario text, with extra CLI args.
fn run_text(text: &str, tag: &str, args: &[&str]) -> String {
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let dir = std::env::temp_dir().join("condor-g-flownet-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.scn"));
    std::fs::write(&path, text).unwrap();
    let out = Command::new(exe)
        .args(args)
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{tag} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

/// The shipped stage-in storm scenario's text.
fn storm_text() -> String {
    std::fs::read_to_string(format!(
        "{}/scenarios/stagein_storm.scn",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("scenario file")
}

/// Extract the numeric value of a `metric  value` report row.
fn metric(report: &str, name: &str) -> u64 {
    report
        .lines()
        .find(|l| l.contains(name))
        .unwrap_or_else(|| panic!("no row {name:?} in:\n{report}"))
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .next_back()
        .unwrap_or_else(|| panic!("no number in row {name:?}"))
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

#[test]
fn contended_stage_in_is_slower_than_uncontended() {
    let storm = storm_text();
    let contended = run_text(&storm, "storm", &[]);
    assert_eq!(metric(&contended, "jobs done"), 24, "{contended}");
    assert_eq!(metric(&contended, "jobs failed"), 0);
    assert!(metric(&contended, "contended flows") > 0, "{contended}");

    // Same workload with the link/route/linkbw directives stripped: every
    // transfer gets private legacy bandwidth.
    let solo_text: String = storm
        .lines()
        .filter(|l| {
            let d = l.split_whitespace().next().unwrap_or("");
            !matches!(d, "link" | "route" | "linkbw" | "linkdown")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    let solo = run_text(&solo_text, "storm-solo", &[]);
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
    let dir = std::env::temp_dir().join("condor-g-flownet-test");
    std::fs::create_dir_all(&dir).unwrap();
    let t1 = dir.join("storm-a.jsonl");
    let t2 = dir.join("storm-b.jsonl");
    run_text(&storm, "storm-det", &["--trace-out", t1.to_str().unwrap()]);
    run_text(&storm, "storm-det", &["--trace-out", t2.to_str().unwrap()]);
    let a = std::fs::read(&t1).unwrap();
    let b = std::fs::read(&t2).unwrap();
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
    let report = run_text(text, "linkdown", &[]);
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
    let report = run_text(text, "stall", &[]);
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
