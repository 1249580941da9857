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
//! the sum of per-cell costs.) If `done + failed` falls short of the
//! jobs asked for, RESULT is still printed and the binary exits 1.
//!
//! `--report-dir DIR` writes the run's bundle (`condor_g_suite::report`)
//! and flies the flight recorder; the loop itself is
//! `condor_g_suite::campaign::CampaignRun::run`.

use condor_g_suite::campaign::CampaignRun;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::report::ReportDir;
use condor_g_suite::workloads::campaign::CampaignSpec;
use condor_g_suite::workloads::farm::{run_cells, Cell, FarmStats};
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

struct Args {
    campaign: CampaignRun,
    sweep: u32,
    threads: usize,
    quiet: bool,
    report_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: condor-g-campaign [--jobs N] [--sites N] [--users N] [--seed N]\n\
         \x20                        [--duration-hours H] [--max-inflight N]\n\
         \x20                        [--sweep CELLS] [--threads N] [--quiet]\n\
         \x20                        [--adaptive] [--dead-site IDX] [--quarantine-storm N]\n\
         \x20                        [--report-dir DIR]\n\
         --dead-site IDX (below --sites) crashes that site's gatekeeper 30 minutes in\n\
         and never restarts it. --report-dir flies a flight recorder and writes\n\
         telemetry.jsonl, metrics.json, metrics.prom and weather.json into DIR.\n\
         Anomaly detectors (stuck job, throughput collapse, a storm of N quarantines\n\
         in one heartbeat, backpressure stall) dump the recorder's causal window to\n\
         DIR/flight.jsonl on first trigger, as trace lines `condor-g-trace` reads.\n\
         --report-dir is for a single campaign: it is refused with --sweep."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        campaign: CampaignRun::new(CampaignSpec {
            sites: 50,
            users: 500,
            jobs: 100_000,
            ..CampaignSpec::default()
        }),
        sweep: 0,
        threads: 1,
        quiet: false,
        report_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    fn num<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>) -> T {
        argv.next()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| usage())
    }
    let spec = &mut args.campaign.spec;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--jobs" => spec.jobs = num(&mut argv),
            "--sites" => spec.sites = num(&mut argv),
            "--users" => spec.users = num(&mut argv),
            "--seed" => spec.seed = num(&mut argv),
            "--duration-hours" => spec.duration = Duration::from_hours(num(&mut argv)),
            "--max-inflight" => args.campaign.max_inflight = num(&mut argv),
            "--sweep" => args.sweep = num(&mut argv),
            "--threads" => args.threads = num(&mut argv),
            "--quiet" => args.quiet = true,
            "--adaptive" => args.campaign.adaptive = true,
            "--dead-site" => args.campaign.dead_site = Some(num(&mut argv)),
            "--quarantine-storm" => args.campaign.quarantine_storm = num(&mut argv),
            "--report-dir" => args.report_dir = Some(argv.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let sites = args.campaign.spec.sites as usize;
    if sites == 0 || args.campaign.dead_site.is_some_and(|idx| idx >= sites) {
        usage();
    }
    if args.sweep > 0 && args.report_dir.is_some() {
        usage();
    }
    args
}

/// Exit 1 after the RESULT line when some job never reached a terminal
/// state: a number from an unsettled campaign is not a result.
fn require_settled(settled: u64, jobs: u64) {
    if settled != jobs {
        eprintln!("condor-g-campaign: {settled} of {jobs} jobs settled");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let spec = &args.campaign.spec;
    let report = args.report_dir.as_deref().map(|dir| {
        ReportDir::create(dir).unwrap_or_else(|e| {
            eprintln!("condor-g-campaign: cannot create {dir}: {e}");
            usage()
        })
    });
    let wall = Instant::now();
    if args.sweep > 0 {
        // Sweep mode: independent (scenario, seed) cells across threads.
        let cells: Vec<Cell> = (0..args.sweep)
            .map(|i| Cell {
                label: format!("jobs={};cell={i}", spec.jobs),
                seed: spec.seed + u64::from(i),
            })
            .collect();
        let results = run_cells(&cells, args.threads, |cell| {
            let campaign = CampaignRun {
                spec: CampaignSpec {
                    seed: cell.seed,
                    ..spec.clone()
                },
                ..args.campaign.clone()
            };
            campaign
                .run(&cell.label, None)
                .expect("a run without a report dir writes no file")
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
        require_settled(
            stats.jobs_done + stats.jobs_failed,
            spec.jobs * u64::from(args.sweep),
        );
        return;
    }

    let r = args
        .campaign
        .run("campaign", report.as_ref())
        .unwrap_or_else(|e| {
            eprintln!("condor-g-campaign: {e}");
            std::process::exit(2);
        });
    if !args.quiet {
        println!(
            "campaign: {} jobs over {} sites / {} users (seed {})",
            spec.jobs, spec.sites, spec.users, spec.seed
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
        spec.jobs,
        r.jobs_done,
        r.jobs_failed,
        r.sim_secs,
        r.wall_secs,
        (r.jobs_done + r.jobs_failed) as f64 / r.wall_secs.max(1e-9),
        peak_rss_kb(),
        r.digest,
    );
    require_settled(r.jobs_done + r.jobs_failed, spec.jobs);
}
