//! `condor-g-campaign` — run a deterministic large-scale campaign (or a
//! parallel sweep of campaigns) through the lean testbed and report
//! throughput plus peak memory.
//!
//! ```text
//! cargo run --release --bin condor-g-campaign -- --jobs 100000 --sites 50
//! cargo run --release --bin condor-g-campaign -- --jobs 1000000 --sites 200
//! cargo run --release --bin condor-g-campaign -- --sweep 8 --threads 4 --jobs 5000
//! ```
//!
//! The last stdout line is machine-readable:
//!
//! ```text
//! RESULT jobs=… done=… failed=… sim_secs=… wall_secs=… jobs_per_sec=… peak_rss_kb=… digest=…
//! ```
//!
//! (In sweep mode the totals are the merged farm statistics and
//! `wall_secs` is the whole sweep's wall clock; `speedup=` compares it to
//! the sum of per-cell costs.)

use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::obs::{
    site_aggregates, AnomalyDetector, DetectorConfig, FlightRecorder, TelemetrySample,
    TelemetryWriter,
};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use condor_g_suite::workloads::farm::{run_cells, Cell, CellResult, FarmStats};
use std::time::Instant;

/// Peak resident set (VmHWM) of this process, in KiB.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Flight-recorder / telemetry / fault-injection options (single-campaign
/// mode only; sweep cells fly without instrumentation).
#[derive(Clone)]
struct ObsArgs {
    telemetry_out: Option<String>,
    telemetry_interval: Duration,
    flight: bool,
    flight_ring: usize,
    flight_out: String,
    adaptive: bool,
    dead_site: Option<usize>,
    stuck_horizon: Duration,
    quarantine_storm: u64,
}

impl Default for ObsArgs {
    fn default() -> ObsArgs {
        ObsArgs {
            telemetry_out: None,
            telemetry_interval: Duration::from_mins(10),
            flight: false,
            flight_ring: condor_g_suite::gridsim::obs::flight::DEFAULT_RING,
            flight_out: "campaign.flight".to_string(),
            adaptive: false,
            dead_site: None,
            stuck_horizon: DetectorConfig::default().stuck_horizon,
            quarantine_storm: DetectorConfig::default().quarantine_storm,
        }
    }
}

struct Args {
    spec: CampaignSpec,
    max_inflight: u32,
    sweep: u32,
    threads: usize,
    quiet: bool,
    obs: ObsArgs,
}

fn usage() -> ! {
    eprintln!(
        "usage: condor-g-campaign [--jobs N] [--sites N] [--users N] [--seed N]\n\
         \x20                        [--duration-hours H] [--mean-runtime-secs S]\n\
         \x20                        [--max-inflight N] [--sweep CELLS] [--threads N] [--quiet]\n\
         \x20                        [--telemetry-out FILE] [--telemetry-interval-mins M]\n\
         \x20                        [--flight] [--flight-ring N] [--flight-out FILE]\n\
         \x20                        [--adaptive] [--dead-site IDX]\n\
         \x20                        [--stuck-horizon-hours H] [--quarantine-storm N]\n\
         --flight keeps a bounded black-box ring of trace records; anomaly detectors\n\
         (stuck job, throughput collapse, quarantine storm, backpressure stall) dump\n\
         its causal window to --flight-out on first trigger (decode with\n\
         `condor-g-trace flight`). --dead-site IDX crashes that site's gatekeeper 30\n\
         minutes in and never restarts it. Flight/telemetry apply to single-campaign\n\
         mode only (ignored under --sweep)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: CampaignSpec {
            sites: 50,
            users: 500,
            jobs: 100_000,
            ..CampaignSpec::default()
        },
        max_inflight: 4_096,
        sweep: 0,
        threads: 1,
        quiet: false,
        obs: ObsArgs::default(),
    };
    let mut argv = std::env::args().skip(1);
    fn num<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>) -> T {
        argv.next()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| usage())
    }
    fn word(argv: &mut impl Iterator<Item = String>) -> String {
        argv.next().unwrap_or_else(|| usage())
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--jobs" => args.spec.jobs = num(&mut argv),
            "--sites" => args.spec.sites = num(&mut argv),
            "--users" => args.spec.users = num(&mut argv),
            "--seed" => args.spec.seed = num(&mut argv),
            "--duration-hours" => args.spec.duration = Duration::from_hours(num(&mut argv)),
            "--mean-runtime-secs" => args.spec.mean_runtime_secs = num(&mut argv),
            "--max-inflight" => args.max_inflight = num(&mut argv),
            "--sweep" => args.sweep = num(&mut argv),
            "--threads" => args.threads = num(&mut argv),
            "--quiet" => args.quiet = true,
            "--telemetry-out" => args.obs.telemetry_out = Some(word(&mut argv)),
            "--telemetry-interval-mins" => {
                args.obs.telemetry_interval = Duration::from_mins(num(&mut argv));
            }
            "--flight" => args.obs.flight = true,
            "--flight-ring" => {
                args.obs.flight = true;
                args.obs.flight_ring = num(&mut argv);
            }
            "--flight-out" => {
                args.obs.flight = true;
                args.obs.flight_out = word(&mut argv);
            }
            "--adaptive" => args.obs.adaptive = true,
            "--dead-site" => args.obs.dead_site = Some(num(&mut argv)),
            "--stuck-horizon-hours" => {
                args.obs.stuck_horizon = Duration::from_hours(num(&mut argv));
            }
            "--quarantine-storm" => args.obs.quarantine_storm = num(&mut argv),
            _ => usage(),
        }
    }
    args
}

/// Snapshot the campaign's vitals into one telemetry heartbeat.
fn sample_campaign(
    tb: &condor_g_suite::harness::Testbed,
    max_inflight: u32,
    recorder: Option<&FlightRecorder>,
) -> TelemetrySample {
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
        window: u64::from(max_inflight),
        oldest_wait_secs,
        sites,
        site_submits,
        site_attempt_failures,
        quarantines: recorder.map_or(0, |r| r.quarantines()),
        ring_len: recorder.map_or(0, |r| r.len() as u64),
        ring_evicted: recorder.map_or(0, |r| r.evicted()),
    }
}

/// Run one campaign cell to completion; deterministic in `spec`.
fn run_campaign(spec: &CampaignSpec, max_inflight: u32, label: &str, obs: &ObsArgs) -> CellResult {
    let started = Instant::now();
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
        adaptive: obs.adaptive,
        proxy_lifetime: spec.duration * 20.0 + Duration::from_days(60),
        ..TestbedConfig::default()
    });
    // The black box: subscribing it to the trace sink turns tracing on,
    // so every protocol component starts materializing its records — that
    // is the overhead the bench measures, and the ring bounds the memory.
    let recorder = if obs.flight {
        let rec = FlightRecorder::new(obs.flight_ring);
        tb.world.trace_mut().subscribe(Box::new(rec.clone()));
        Some(rec)
    } else {
        None
    };
    if let Some(idx) = obs.dead_site {
        // Kill the site's gatekeeper host 30 minutes in and never bring it
        // back: the outage every flight-recorder dump should explain.
        let site = &tb.sites[idx % tb.sites.len()];
        let plan = FaultPlan::new().crash_restart(
            site.interface,
            SimTime::ZERO + Duration::from_mins(30),
            Duration::from_days(3650),
        );
        tb.world.apply_fault_plan(&plan.sorted());
    }
    let driver = CampaignDriver::new(
        tb.scheduler,
        spec,
        DriverConfig {
            max_inflight,
            ..DriverConfig::default()
        },
    );
    tb.world.add_component(tb.submit, "campaign", driver);

    let mut telemetry = obs.telemetry_out.as_deref().and_then(|path| {
        TelemetryWriter::create(path)
            .map_err(|e| eprintln!("condor-g-campaign: {path}: {e}"))
            .ok()
    });
    let mut detector = AnomalyDetector::new(DetectorConfig {
        stuck_horizon: obs.stuck_horizon,
        quarantine_storm: obs.quarantine_storm,
        ..DetectorConfig::default()
    });
    let instrumented = telemetry.is_some() || recorder.is_some();
    let mut dumped = false;

    // Run in chunks until every job reached a terminal state (with a hard
    // horizon so a wedged campaign still terminates and reports). With
    // instrumentation on, the chunk is the heartbeat interval.
    let chunk = if instrumented {
        obs.telemetry_interval.max(Duration::from_mins(1))
    } else {
        Duration::from_hours(6)
    };
    let horizon = SimTime::ZERO + spec.duration * 20.0 + Duration::from_days(30);
    loop {
        let next = tb.world.now() + chunk;
        tb.world.run_until(next);
        let settled = CampaignDriver::done(&tb.world, tb.submit)
            + CampaignDriver::failed(&tb.world, tb.submit);
        if instrumented {
            let sample = sample_campaign(&tb, max_inflight, recorder.as_ref());
            if let Some(w) = telemetry.as_mut() {
                w.emit(&sample);
            }
            let site = recorder.as_ref().and_then(|r| r.last_quarantine_site());
            for anomaly in detector.observe(&sample, site.as_deref()) {
                eprintln!(
                    "anomaly at {}: {} — {}",
                    tb.world.now(),
                    anomaly.kind.name(),
                    anomaly.reason
                );
                if let Some(w) = telemetry.as_mut() {
                    w.anomaly(tb.world.now().micros(), &anomaly);
                }
                // First anomaly wins: one incident, one dump.
                if let (false, Some(rec)) = (dumped, recorder.as_ref()) {
                    let anchor = anomaly.anchor.as_deref().unwrap_or("");
                    let reason = format!("{}: {}", anomaly.kind.name(), anomaly.reason);
                    let bytes = rec.dump(&reason, anchor, tb.world.now());
                    match std::fs::write(&obs.flight_out, &bytes) {
                        Ok(()) => {
                            dumped = true;
                            println!(
                                "flight dump written to {} ({} bytes, anchor {:?})",
                                obs.flight_out,
                                bytes.len(),
                                anchor
                            );
                        }
                        Err(e) => eprintln!("condor-g-campaign: {}: {e}", obs.flight_out),
                    }
                }
            }
        }
        if settled >= spec.jobs || tb.world.now() >= horizon {
            break;
        }
    }
    if let Some(w) = telemetry.as_mut() {
        w.flush();
    }
    CellResult {
        label: label.to_string(),
        seed: spec.seed,
        jobs_done: CampaignDriver::done(&tb.world, tb.submit),
        jobs_failed: CampaignDriver::failed(&tb.world, tb.submit),
        sim_secs: (tb.world.now() - SimTime::ZERO).as_secs_f64(),
        wall_secs: started.elapsed().as_secs_f64(),
        digest: CampaignDriver::digest(&tb.world, tb.submit),
    }
}

fn main() {
    let args = parse_args();
    let wall = Instant::now();
    if args.sweep > 0 {
        // Sweep mode: independent (scenario, seed) cells across threads.
        let cells: Vec<Cell> = (0..args.sweep)
            .map(|i| Cell {
                label: format!("jobs={};cell={i}", args.spec.jobs),
                seed: args.spec.seed + u64::from(i),
            })
            .collect();
        let spec = args.spec.clone();
        // Cells fly uninstrumented: flight/telemetry flags apply to
        // single-campaign mode only (they would race on the output files).
        let results = run_cells(&cells, args.threads, move |cell| {
            let cell_spec = CampaignSpec {
                seed: cell.seed,
                ..spec.clone()
            };
            run_campaign(
                &cell_spec,
                args.max_inflight,
                &cell.label,
                &ObsArgs::default(),
            )
        });
        let stats = FarmStats::of(&results);
        let wall_secs = wall.elapsed().as_secs_f64();
        if !args.quiet {
            for r in &results {
                println!(
                    "cell {} seed={} done={} failed={} wall={:.2}s digest={:016x}",
                    r.label, r.seed, r.jobs_done, r.jobs_failed, r.wall_secs, r.digest
                );
            }
            println!(
                "sweep: {} cells on {} threads, {:.2}s wall ({:.2}s serial-equivalent, {:.2}x speedup)",
                stats.cells,
                args.threads,
                wall_secs,
                stats.cell_wall_secs,
                stats.cell_wall_secs / wall_secs.max(1e-9),
            );
        }
        println!(
            "RESULT jobs={} done={} failed={} sim_secs={:.0} wall_secs={:.3} jobs_per_sec={:.1} peak_rss_kb={} digest={:016x} speedup={:.3}",
            stats.jobs_done + stats.jobs_failed,
            stats.jobs_done,
            stats.jobs_failed,
            stats.sim_secs,
            wall_secs,
            (stats.jobs_done + stats.jobs_failed) as f64 / wall_secs.max(1e-9),
            peak_rss_kb(),
            stats.digest,
            stats.cell_wall_secs / wall_secs.max(1e-9),
        );
        return;
    }

    let r = run_campaign(&args.spec, args.max_inflight, "campaign", &args.obs);
    if !args.quiet {
        println!(
            "campaign: {} jobs over {} sites / {} users (seed {})",
            args.spec.jobs, args.spec.sites, args.spec.users, args.spec.seed
        );
        println!(
            "  done={} failed={} sim={:.1}h wall={:.2}s",
            r.jobs_done,
            r.jobs_failed,
            r.sim_secs / 3600.0,
            r.wall_secs
        );
    }
    println!(
        "RESULT jobs={} done={} failed={} sim_secs={:.0} wall_secs={:.3} jobs_per_sec={:.1} peak_rss_kb={} digest={:016x}",
        args.spec.jobs,
        r.jobs_done,
        r.jobs_failed,
        r.sim_secs,
        r.wall_secs,
        (r.jobs_done + r.jobs_failed) as f64 / r.wall_secs.max(1e-9),
        peak_rss_kb(),
        r.digest,
    );
}
