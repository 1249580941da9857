//! End-to-end flight recorder: a campaign flying with the black box on
//! must (a) behave byte-identically to an uninstrumented run, and (b)
//! when a gatekeeper silently dies, auto-produce a causal dump that the
//! offline forensics decoder attributes to the injected site.

use condor_g_suite::campaign::CampaignRun;
use condor_g_suite::gridsim::obs::FlightRecorder;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::cgfr;
use condor_g_suite::report::ReportDir;
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec};
use condor_g_trace::Forensics;

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The acceptance scenario, through the loop `condor-g-campaign` runs:
/// one dead gatekeeper, the quarantine-storm detector dumps the flight
/// recorder's causal window into the report dir, and chain-to-root
/// forensics on the dump decoded from disk blames the injected site. The
/// bundle's weather table and heartbeats are pinned by FNV.
#[test]
fn dead_gatekeeper_campaign_auto_produces_attributing_dump() {
    let dir = std::env::temp_dir().join(format!("flight-dump-{}", std::process::id()));
    let report = ReportDir::create(&dir).expect("temp report dir");
    // site000's gatekeeper host dies 30 minutes in and never returns.
    let run = CampaignRun {
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
    };
    run.run("dead-gatekeeper", Some(&report))
        .expect("report written");
    let bytes = std::fs::read(dir.join("flight.cgfr"));
    let telemetry = std::fs::read(dir.join("telemetry.jsonl"));
    let weather = std::fs::read(dir.join("weather.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let bytes = bytes.expect("dead gatekeeper must trigger an anomaly and a dump");
    let telemetry = telemetry.expect("telemetry written");
    assert!(!telemetry.is_empty(), "no heartbeats");
    assert_eq!(
        (fnv1a(&weather.expect("weather written")), fnv1a(&telemetry)),
        (0xcdae_2899_8f87_98dd, 0x8fb0_6125_a924_b732),
        "weather.json, telemetry.jsonl"
    );

    // The dump decodes back into trace records: the storm anchors the
    // dead site...
    let (meta, records) = cgfr::decode(&bytes).expect("dump decodes cleanly");
    assert!(
        meta.reason.starts_with("quarantine_storm"),
        "{}",
        meta.reason
    );
    assert_eq!(meta.anchor, "site000", "storm anchors the dead site");
    assert!(!records.is_empty());
    // ...with the injected fault pinned into the window...
    assert!(
        records
            .iter()
            .any(|r| r.kind == "fault.crash" && r.detail.contains("gk.site000")),
        "pinned fault.crash record must survive into the dump"
    );
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

/// The black box is observation-only: subscribing it must not perturb the
/// simulation. Same seed, same outcomes, recorder on or off.
#[test]
fn flight_recorder_does_not_change_campaign_outcomes() {
    let spec = CampaignSpec {
        seed: 11,
        sites: 3,
        users: 20,
        jobs: 300,
        duration: Duration::from_hours(2),
        ..CampaignSpec::default()
    };
    let run = |with_flight: bool| {
        let recorder = with_flight.then(|| FlightRecorder::new(4_096));
        let mut tb = CampaignRun::new(spec.clone()).testbed(recorder.as_ref());
        let horizon = SimTime::ZERO + Duration::from_days(10);
        loop {
            tb.world.run_until(tb.world.now() + Duration::from_hours(6));
            let settled = CampaignDriver::done(&tb.world, tb.submit)
                + CampaignDriver::failed(&tb.world, tb.submit);
            if settled >= spec.jobs || tb.world.now() >= horizon {
                break;
            }
        }
        if let Some(rec) = &recorder {
            assert!(rec.seen() > 0, "recorder saw traffic");
            assert!(!rec.is_empty());
        }
        (
            CampaignDriver::done(&tb.world, tb.submit),
            CampaignDriver::failed(&tb.world, tb.submit),
            CampaignDriver::digest(&tb.world, tb.submit),
            tb.world.events_processed(),
        )
    };
    let plain = run(false);
    let flown = run(true);
    assert_eq!(plain, flown, "flight recorder perturbed the simulation");
    assert_eq!(plain.0 + plain.1, spec.jobs, "campaign settled");
}

/// The ring keeps only the most recent window at campaign scale, and the
/// whole-ring dump round-trips through the offline decoder.
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
    let horizon = SimTime::ZERO + Duration::from_days(10);
    loop {
        tb.world.run_until(tb.world.now() + Duration::from_hours(6));
        let settled = CampaignDriver::done(&tb.world, tb.submit)
            + CampaignDriver::failed(&tb.world, tb.submit);
        if settled >= spec.jobs || tb.world.now() >= horizon {
            break;
        }
    }
    assert!(recorder.len() <= 256, "ring never exceeds capacity");
    assert!(
        recorder.evicted() > 0,
        "a 300-job campaign overflows 256 slots"
    );
    assert_eq!(
        recorder.seen() - recorder.evicted(),
        recorder.len() as u64 + recorder.pinned().len() as u64
    );
    let bytes = recorder.dump("test: whole ring", "", tb.world.now());
    let (meta, records) = cgfr::decode(&bytes).expect("decodes");
    assert_eq!(meta.anchor, "");
    assert_eq!(records.len(), recorder.len() + recorder.pinned().len());
    // Dumps are time-ordered.
    assert!(records.windows(2).all(|w| w[0].time <= w[1].time));
}
