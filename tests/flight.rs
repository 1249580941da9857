//! End-to-end flight recorder: a campaign flying with the black box on
//! must (a) behave byte-identically to an uninstrumented run, and (b)
//! when a gatekeeper silently dies, auto-produce a causal dump that the
//! offline forensics decoder attributes to the injected site.

use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::obs::{
    site_aggregates, AnomalyDetector, AnomalyKind, DetectorConfig, FlightRecorder, TelemetrySample,
};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::cgfr;
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use condor_g_trace::Forensics;

const MAX_INFLIGHT: u32 = 512;

fn campaign_testbed(spec: &CampaignSpec, adaptive: bool) -> Testbed {
    let sites = spec
        .grid()
        .iter()
        .map(|s| SiteSpec::pbs(&s.name, s.cpus))
        .collect();
    let mut tb = build(TestbedConfig {
        seed: spec.seed,
        sites,
        lean: true,
        adaptive,
        proxy_lifetime: Duration::from_days(30),
        ..TestbedConfig::default()
    });
    let driver = CampaignDriver::new(
        tb.scheduler,
        spec,
        DriverConfig {
            max_inflight: MAX_INFLIGHT,
            ..DriverConfig::default()
        },
    );
    tb.world.add_component(tb.submit, "campaign", driver);
    tb
}

fn sample(tb: &Testbed, recorder: &FlightRecorder) -> TelemetrySample {
    let now = tb.world.now();
    let oldest_wait_secs = CampaignDriver::oldest_inflight_at(&tb.world, tb.submit)
        .map_or(0.0, |t| (now - t).as_secs_f64());
    let (sites, site_submits, site_attempt_failures) = site_aggregates(tb.world.metrics());
    TelemetrySample {
        t_us: now.micros(),
        events: tb.world.events_processed(),
        queue_depth: tb.world.queue_len() as u64,
        done: CampaignDriver::done(&tb.world, tb.submit),
        failed: CampaignDriver::failed(&tb.world, tb.submit),
        dispatched: CampaignDriver::dispatched(&tb.world, tb.submit),
        inflight: CampaignDriver::inflight(&tb.world, tb.submit),
        pending: CampaignDriver::pending(&tb.world, tb.submit),
        window: u64::from(MAX_INFLIGHT),
        oldest_wait_secs,
        sites,
        site_submits,
        site_attempt_failures,
        quarantines: recorder.quarantines(),
        ring_len: recorder.len() as u64,
        ring_evicted: recorder.evicted(),
    }
}

/// The acceptance scenario: one dead gatekeeper, flight recorder on, the
/// quarantine-storm detector dumps the causal window, and chain-to-root
/// forensics on the decoded dump blames the injected site.
#[test]
fn dead_gatekeeper_campaign_auto_produces_attributing_dump() {
    let spec = CampaignSpec {
        seed: 7,
        sites: 4,
        users: 50,
        jobs: 400,
        duration: Duration::from_hours(2),
        ..CampaignSpec::default()
    };
    let mut tb = campaign_testbed(&spec, true);
    let recorder = FlightRecorder::new(65_536);
    tb.world.trace_mut().subscribe(Box::new(recorder.clone()));
    // site000's gatekeeper host dies 30 minutes in and never returns.
    let plan = FaultPlan::new().crash_restart(
        tb.sites[0].interface,
        SimTime::ZERO + Duration::from_mins(30),
        Duration::from_days(365),
    );
    tb.world.apply_fault_plan(&plan.sorted());

    let mut detector = AnomalyDetector::new(DetectorConfig {
        quarantine_storm: 1,
        ..DetectorConfig::default()
    });
    let mut dump: Option<(Vec<u8>, AnomalyKind, Option<String>)> = None;
    let horizon = SimTime::ZERO + Duration::from_hours(12);
    while tb.world.now() < horizon && dump.is_none() {
        tb.world.run_until(tb.world.now() + Duration::from_mins(10));
        let s = sample(&tb, &recorder);
        let site = recorder.last_quarantine_site();
        if let Some(anomaly) = detector.observe(&s, site.as_deref()).into_iter().next() {
            let anchor = anomaly.anchor.clone().unwrap_or_default();
            let reason = format!("{}: {}", anomaly.kind.name(), anomaly.reason);
            dump = Some((
                recorder.dump(&reason, &anchor, tb.world.now()),
                anomaly.kind,
                anomaly.anchor,
            ));
        }
    }

    let (bytes, kind, anchor) = dump.expect("dead gatekeeper must trigger an anomaly");
    assert_eq!(kind, AnomalyKind::QuarantineStorm);
    assert_eq!(
        anchor.as_deref(),
        Some("site000"),
        "storm anchors the dead site"
    );

    // The dump decodes back into trace records...
    let (meta, records) = cgfr::decode(&bytes).expect("dump decodes cleanly");
    assert!(meta.reason.starts_with("quarantine_storm"));
    assert_eq!(meta.anchor, "site000");
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
        let mut tb = campaign_testbed(&spec, false);
        let recorder = if with_flight {
            let rec = FlightRecorder::new(4_096);
            tb.world.trace_mut().subscribe(Box::new(rec.clone()));
            Some(rec)
        } else {
            None
        };
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
    let mut tb = campaign_testbed(&spec, false);
    let recorder = FlightRecorder::new(256);
    tb.world.trace_mut().subscribe(Box::new(recorder.clone()));
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
