//! End-to-end flight recorder: when a gatekeeper silently dies, a
//! campaign flying with the black box on auto-produces a causal dump that
//! the offline forensics attributes to the injected site. A dump is a
//! trace: it decodes, and exports to Perfetto, like `trace.jsonl`. That
//! the recorder changes no outcome is a relation in `relations.rs`.

use condor_g_suite::campaign::CampaignRun;
use condor_g_suite::gridsim::obs::FlightRecorder;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::jsonl;
use condor_g_suite::report::ReportDir;
use condor_g_suite::workloads::campaign::CampaignSpec;
use condor_g_trace::{perfetto, Forensics};
use support::cells::settle;
use support::{assert_golden, fnv1a, Scratch};

mod support;

/// A campaign whose site000 gatekeeper host dies 30 minutes in and never
/// returns, with the quarantine-storm detector armed.
fn dead_gatekeeper() -> CampaignRun {
    CampaignRun {
        adaptive: true,
        dead_site: Some(0),
        quarantine_storm: 1,
        ..CampaignRun::new(CampaignSpec {
            seed: 7,
            sites: 4,
            users: 50,
            jobs: 400,
            duration: Duration::from_hours(2),
            ..CampaignSpec::default()
        })
    }
}

/// The acceptance scenario, through the loop `condor-g-campaign` runs:
/// one dead gatekeeper, the quarantine-storm detector dumps the flight
/// recorder's causal window into the report dir, and chain-to-root
/// forensics on the dump decoded from disk blames the injected site. The
/// bundle's weather table and heartbeats are pinned by FNV.
#[test]
fn dead_gatekeeper_campaign_auto_produces_attributing_dump() {
    let dir = Scratch::new();
    let report = ReportDir::create(dir.path()).expect("temp report dir");
    dead_gatekeeper()
        .run("dead-gatekeeper", Some(&report))
        .expect("report written");
    let dump = std::fs::read_to_string(report.file("flight.jsonl"))
        .expect("dead gatekeeper must trigger an anomaly and a dump");
    let telemetry = std::fs::read(report.file("telemetry.jsonl")).expect("telemetry written");
    let weather = std::fs::read(report.file("weather.json")).expect("weather written");
    assert!(!telemetry.is_empty(), "no heartbeats");
    assert_golden("flight.dead_gatekeeper.weather.json", fnv1a(&weather));
    assert_golden("flight.dead_gatekeeper.telemetry.jsonl", fnv1a(&telemetry));

    // The first anomaly is the dump's reason: the storm anchors the dead
    // site...
    let first_anomaly = std::str::from_utf8(&telemetry)
        .expect("utf8 telemetry")
        .lines()
        .find(|l| l.contains("\"anomaly\":"))
        .expect("an anomaly line");
    assert!(
        first_anomaly.contains(r#""anomaly":"quarantine_storm""#),
        "{first_anomaly}"
    );
    assert!(
        first_anomaly.contains(r#""anchor":"site000""#),
        "storm anchors the dead site: {first_anomaly}"
    );
    // ...the dump decodes back into trace records...
    let records = jsonl::decode(&dump).expect("dump decodes cleanly");
    assert!(!records.is_empty());
    // ...with the injected fault pinned into the window...
    assert!(
        records
            .iter()
            .any(|r| r.kind == "fault.crash" && r.detail.contains("gk.site000")),
        "pinned fault.crash record must survive into the dump"
    );
    // ...it exports to Perfetto like any trace...
    let (pb, summary) = perfetto::encode(&records);
    perfetto::verify(&records, &pb, &summary).expect("the dump's Perfetto export self-verifies");
    // ...and forensics attributes the stall to the injected site.
    let f = Forensics::build(records);
    let causes = f.root_causes();
    assert!(
        !causes.is_empty(),
        "dump window carries the failed attempts"
    );
    assert!(
        causes.iter().any(|a| matches!(
            &a.cause,
            Some((kind, detail, _)) if kind == "fault.crash" && detail.contains("gk.site000")
        )),
        "chain_to_root must blame the injected gatekeeper: {causes:?}"
    );
}

/// The ring keeps only the most recent window at campaign scale, and the
/// whole-ring dump round-trips through the trace encoder and decoder.
#[test]
fn ring_bounds_memory_and_whole_ring_dump_round_trips() {
    let spec = CampaignSpec {
        seed: 3,
        sites: 3,
        users: 20,
        jobs: 300,
        duration: Duration::from_hours(2),
        ..CampaignSpec::default()
    };
    let recorder = FlightRecorder::new(256);
    let mut tb = CampaignRun::new(spec.clone()).testbed(Some(&recorder));
    settle(&mut tb, spec.jobs);
    assert!(recorder.len() <= 256, "ring never exceeds capacity");
    assert!(
        recorder.evicted() > 0,
        "a 300-job campaign overflows 256 slots"
    );
    assert_eq!(
        recorder.seen() - recorder.evicted(),
        recorder.len() as u64 + recorder.pinned().len() as u64
    );
    let window = recorder.causal_window("");
    let text: String = window
        .iter()
        .map(|e| jsonl::encode_line(e) + "\n")
        .collect();
    let records = jsonl::decode(&text).expect("decodes");
    assert_eq!(records, window);
    assert_eq!(records.len(), recorder.len() + recorder.pinned().len());
    // Dumps are time-ordered.
    assert!(records.windows(2).all(|w| w[0].time <= w[1].time));
}

/// A dump that cannot be written ends the run with an error naming it.
#[test]
#[cfg(target_os = "linux")]
fn a_dump_that_cannot_be_written_fails_the_run() {
    let dir = Scratch::new();
    let report = ReportDir::create(dir.path()).expect("temp report dir");
    std::os::unix::fs::symlink("/dev/full", report.file("flight.jsonl")).expect("symlink");
    let err = dead_gatekeeper()
        .run("dead-gatekeeper", Some(&report))
        .expect_err("every write to /dev/full fails");
    assert!(err.to_string().contains("flight.jsonl"), "{err}");
}
