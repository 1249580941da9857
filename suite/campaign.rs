//! Campaign runs: a [`CampaignDriver`] streaming a [`CampaignSpec`] through
//! the lean testbed, advanced one [`HEARTBEAT`] at a time until every job
//! settles. `condor-g-campaign` runs this loop for a single campaign and
//! for every cell of a sweep.

use crate::harness::{build, SiteSpec, Testbed, TestbedConfig};
use crate::report::{ReportDir, HEARTBEAT};
use gridsim::obs::flight::DEFAULT_RING;
use gridsim::obs::{
    anomaly_line, site_aggregates, telemetry_line, AnomalyDetector, FlightRecorder, TelemetrySample,
};
use gridsim::prelude::*;
use gridsim::trace::{jsonl, TraceSubscriber};
use std::io;
use std::time::Instant;
use workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use workloads::farm::CellResult;

/// One campaign and the grid it runs on.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// The workload.
    pub spec: CampaignSpec,
    /// Bound on jobs submitted but not yet terminal.
    pub max_inflight: u32,
    /// Weather-driven site quarantine ([`TestbedConfig::adaptive`]).
    pub adaptive: bool,
    /// Crash this site's gatekeeper host 30 minutes in and never restart it.
    pub dead_site: Option<usize>,
    /// New quarantines within one heartbeat that count as a storm
    /// ([`AnomalyDetector::new`]; 0 never).
    pub quarantine_storm: u64,
}

impl CampaignRun {
    /// `spec` on a healthy grid, with the driver's default window.
    pub fn new(spec: CampaignSpec) -> CampaignRun {
        CampaignRun {
            spec,
            max_inflight: DriverConfig::default().max_inflight,
            adaptive: false,
            dead_site: None,
            quarantine_storm: 3,
        }
    }

    /// Build the lean testbed with the driver on the submit machine, the
    /// dead site's crash scheduled, and `recorder` subscribed before any
    /// component of the campaign starts.
    pub fn testbed(&self, recorder: Option<&FlightRecorder>) -> Testbed {
        let spec = &self.spec;
        let sites = spec
            .grid()
            .iter()
            .map(|s| SiteSpec::pbs(&s.name, s.cpus))
            .collect();
        // The campaign outlives the default 24h proxy; credential churn is
        // exercised elsewhere, so mint one that covers the whole horizon.
        let mut tb = build(TestbedConfig {
            seed: spec.seed,
            sites,
            lean: true,
            adaptive: self.adaptive,
            proxy_lifetime: spec.duration * 20.0 + Duration::from_days(60),
            ..TestbedConfig::default()
        });
        // Subscribing turns tracing on, so every protocol component starts
        // materializing its records; the ring bounds the memory.
        if let Some(rec) = recorder {
            tb.world.trace_mut().subscribe(Box::new(rec.clone()));
        }
        if let Some(idx) = self.dead_site {
            let plan = FaultPlan::new().crash_restart(
                tb.sites[idx].interface,
                SimTime::ZERO + Duration::from_mins(30),
                Duration::from_days(3650),
            );
            tb.world.apply_fault_plan(&plan.sorted());
        }
        let driver = CampaignDriver::new(
            tb.scheduler,
            spec,
            DriverConfig {
                max_inflight: self.max_inflight,
            },
        );
        tb.world.add_component(tb.submit, "campaign", driver);
        tb
    }

    /// The campaign's vitals as one telemetry heartbeat.
    fn sample(&self, tb: &Testbed, recorder: &FlightRecorder) -> TelemetrySample {
        let (world, node) = (&tb.world, tb.submit);
        let now = world.now();
        let oldest_wait_secs = CampaignDriver::oldest_inflight_at(world, node)
            .map_or(0.0, |t| (now - t).as_secs_f64());
        let (sites, site_submits, site_attempt_failures) = site_aggregates(world.metrics());
        TelemetrySample {
            t_us: now.micros(),
            events: world.events_processed(),
            queue_depth: world.queue_len() as u64,
            done: CampaignDriver::done(world, node),
            failed: CampaignDriver::failed(world, node),
            dispatched: CampaignDriver::dispatched(world, node),
            inflight: CampaignDriver::inflight(world, node),
            pending: CampaignDriver::pending(world, node),
            window: u64::from(self.max_inflight),
            oldest_wait_secs,
            sites,
            site_submits,
            site_attempt_failures,
            quarantines: recorder.quarantines(),
            ring_len: recorder.len() as u64,
            ring_evicted: recorder.evicted(),
        }
    }

    /// Run the campaign until every job settles or a horizon far past its
    /// arrival window. With a report dir the flight recorder flies
    /// ([`DEFAULT_RING`] records), every heartbeat goes to
    /// `telemetry.jsonl` and through the anomaly detectors, the first
    /// anomaly dumps the recorder's causal window to `flight.jsonl` (trace
    /// lines; that anomaly's line in `telemetry.jsonl` says why), and the
    /// metrics and weather snapshots are written at the end. A file that
    /// cannot be written ends the run with an error naming it.
    pub fn run(&self, label: &str, report: Option<&ReportDir>) -> io::Result<CellResult> {
        let started = Instant::now();
        let mut flight = match report {
            Some(dir) => Some((
                dir,
                FlightRecorder::new(DEFAULT_RING),
                dir.jsonl("telemetry.jsonl")?,
            )),
            None => None,
        };
        let mut tb = self.testbed(flight.as_ref().map(|(_, rec, _)| rec));
        let mut detector = AnomalyDetector::new(self.quarantine_storm);
        let mut dumped = false;
        let horizon = SimTime::ZERO + self.spec.duration * 20.0 + Duration::from_days(30);
        loop {
            let next = tb.world.now() + HEARTBEAT;
            tb.world.run_until(next);
            if let Some((dir, recorder, telemetry)) = flight.as_mut() {
                let sample = self.sample(&tb, recorder);
                telemetry.line(&telemetry_line(&sample));
                let site = recorder.last_quarantine_site();
                let now = tb.world.now();
                for anomaly in detector.observe(&sample, site.as_deref()) {
                    eprintln!(
                        "anomaly at {now}: {} — {}",
                        anomaly.kind.name(),
                        anomaly.reason
                    );
                    telemetry.line(&anomaly_line(now.micros(), &anomaly));
                    // First anomaly wins: one incident, one dump.
                    if dumped {
                        continue;
                    }
                    let anchor = anomaly.anchor.as_deref().unwrap_or("");
                    let window = recorder.causal_window(anchor);
                    let mut dump = dir.jsonl("flight.jsonl")?;
                    for event in &window {
                        dump.line(&jsonl::encode_line(event));
                    }
                    dir.check("flight.jsonl", dump.flush())?;
                    dumped = true;
                    println!(
                        "flight dump written to {} ({} records, anchor {anchor:?})",
                        dir.file("flight.jsonl").display(),
                        window.len()
                    );
                }
            }
            let settled = CampaignDriver::done(&tb.world, tb.submit)
                + CampaignDriver::failed(&tb.world, tb.submit);
            if settled >= self.spec.jobs || tb.world.now() >= horizon {
                break;
            }
        }
        if let Some((dir, _, telemetry)) = flight.as_mut() {
            dir.check("telemetry.jsonl", telemetry.flush())?;
            dir.write_snapshots(&tb.world)?;
        }
        Ok(CellResult {
            label: label.to_string(),
            seed: self.spec.seed,
            jobs_done: CampaignDriver::done(&tb.world, tb.submit),
            jobs_failed: CampaignDriver::failed(&tb.world, tb.submit),
            sim_secs: (tb.world.now() - SimTime::ZERO).as_secs_f64(),
            wall_secs: started.elapsed().as_secs_f64(),
            digest: CampaignDriver::digest(&tb.world, tb.submit),
        })
    }
}
