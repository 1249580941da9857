//! `condor-g-sim` — run a Condor-G grid scenario from a description file.
//!
//! ```text
//! cargo run --release --bin condor-g-sim scenarios/demo.scn
//! ```
//!
//! The scenario language (one directive per line, `#` comments):
//!
//! ```text
//! seed 42
//! site pbs  anl-cluster   64          # kinds: pbs lsf loadleveler nqe pool
//! site pool wisc-campus   128
//! mds on                              # build GIIS + per-site GRIS
//! broker mds                          # "static" (default) or "mds"
//! personal-pool on                    # collector/negotiator/schedd/ckpt
//! glideins 16 12h                     # per-site count + lease
//! proxy 48h
//! job grid app.exe 2h x10 stdout=1M   # 10 grid-universe jobs
//! job pool worker.exe 30m x20 io=300s/64K
//! adaptive on                         # weather-driven site quarantine
//! crash site 0 at 1h for 30m          # crash a site's gatekeeper machine
//! partition at 2h for 20m             # submit machine vs everything
//! image 16M                           # staged executable size
//! link wan 2.5M 30ms                  # shared WAN link: capacity, latency
//! route site 0 via wan                # site 0's transfers traverse "wan"
//! linkdown wan at 2h for 10m          # cut the link; aborts in-flight flows
//! linkbw wan 1M at 4h for 1h          # temporary capacity override
//! run 24h
//! ```
//!
//! A bulk transfer whose route crosses a declared `link` is a flow in the
//! shared-bandwidth model: concurrent stage-ins routed over the same link
//! divide its capacity max-min fairly, and `linkdown`/`partition` windows
//! abort transfers in flight (the JobManager retries them with backed-off
//! timers). Every other transfer is a sized message on its pair's
//! dedicated bandwidth.
//!
//! `--report-dir DIR` writes the run's bundle (`condor_g_suite::report`):
//! the trace, heartbeats, metrics and weather snapshots, and the kernel
//! profile.

use condor_g_suite::condor_g::api::{GridJobSpec, Universe};
use condor_g_suite::gridsim::obs::{
    grid_weather, render_top, site_aggregates, telemetry_line, SpanCollector, TelemetrySample,
};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::TraceSubscriber;
use condor_g_suite::harness::{
    build, SiteSpec, Testbed, TestbedConfig, UserConsole, WanLinkSpec, WanTopology,
};
use condor_g_suite::report::{ReportDir, HEARTBEAT};
use condor_g_suite::workloads::stats::Table;
use std::fmt;

/// A parsed scenario.
#[derive(Debug, Default)]
pub struct Scenario {
    seed: u64,
    sites: Vec<SiteSpec>,
    mds: bool,
    mds_broker: bool,
    personal_pool: bool,
    adaptive: bool,
    glideins: Option<(u32, Duration)>,
    proxy: Option<Duration>,
    jobs: Vec<GridJobSpec>,
    crashes: Vec<(usize, Duration, Duration)>,
    partition: Option<(Duration, Duration)>,
    image: u64,
    links: Vec<WanLinkSpec>,
    routes: Vec<(usize, Vec<String>)>,
    linkdowns: Vec<(String, Duration, Duration)>,
    linkbws: Vec<(String, u64, Duration, Duration)>,
    run_for: Duration,
}

/// Scenario parse failure with line number.
#[derive(Debug)]
pub struct ScnError(usize, String);

impl fmt::Display for ScnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.0, self.1)
    }
}

/// Parse `64K` / `1M` / `2.5M` / `2G` / plain bytes.
fn parse_size(s: &str) -> Option<u64> {
    if let Ok(n) = s.parse() {
        return Some(n);
    }
    let (num, mult) = [("K", 1e3), ("M", 1e6), ("G", 1e9)]
        .iter()
        .find_map(|&(unit, mult)| Some((s.strip_suffix(unit)?, mult)))?;
    let n: f64 = num.parse().ok()?;
    if !n.is_finite() || n < 0.0 {
        return None;
    }
    Some((n * mult) as u64)
}

/// Parse a scenario file's text.
pub fn parse_scenario(text: &str) -> Result<Scenario, ScnError> {
    let mut scn = Scenario {
        seed: 42,
        run_for: Duration::from_days(1),
        ..Default::default()
    };
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let err = |m: String| ScnError(lineno, m);
        match words[0] {
            "seed" => {
                scn.seed = words
                    .get(1)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("seed needs a number".into()))?;
            }
            "site" => {
                let [_, kind, name, cpus] = words[..] else {
                    return Err(err("site <kind> <name> <cpus>".into()));
                };
                let cpus: u32 = cpus.parse().map_err(|_| err("bad cpu count".into()))?;
                let spec = match kind {
                    "pbs" => SiteSpec::pbs(name, cpus),
                    "lsf" => SiteSpec::lsf(name, cpus),
                    "loadleveler" => SiteSpec::loadleveler(name, cpus),
                    "nqe" => SiteSpec::nqe(name, cpus),
                    "pool" => SiteSpec::condor_pool(name, cpus),
                    other => return Err(err(format!("unknown site kind {other}"))),
                };
                scn.sites.push(spec);
            }
            "mds" => scn.mds = words.get(1) == Some(&"on"),
            "broker" => scn.mds_broker = words.get(1) == Some(&"mds"),
            "personal-pool" => scn.personal_pool = words.get(1) == Some(&"on"),
            "adaptive" => scn.adaptive = words.get(1) == Some(&"on"),
            "glideins" => {
                let n: u32 = words
                    .get(1)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("glideins <n> <lease>".into()))?;
                let lease = words
                    .get(2)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("bad lease".into()))?;
                scn.glideins = Some((n, lease));
            }
            "proxy" => {
                scn.proxy = Some(
                    words
                        .get(1)
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad proxy lifetime".into()))?,
                );
            }
            "job" => {
                // job <grid|pool> <exe> <runtime> [xN] [stdout=SZ] [io=T/SZ] [arch=A]
                let universe = match words.get(1) {
                    Some(&"grid") => Universe::Grid,
                    Some(&"pool") => Universe::Pool,
                    _ => return Err(err("job <grid|pool> ...".into())),
                };
                let exe = words
                    .get(2)
                    .ok_or_else(|| err("job needs an executable".into()))?;
                let runtime = words
                    .get(3)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("bad runtime".into()))?;
                let mut count = 1usize;
                let mut spec = match universe {
                    Universe::Grid => GridJobSpec::grid(exe, &format!("/home/jane/{exe}"), runtime),
                    Universe::Pool => GridJobSpec::pool(exe, &format!("/home/jane/{exe}"), runtime),
                };
                for opt in &words[4..] {
                    if let Some(n) = opt.strip_prefix('x') {
                        count = n.parse().map_err(|_| err("bad xN".into()))?;
                    } else if let Some(v) = opt.strip_prefix("stdout=") {
                        spec.stdout_size =
                            parse_size(v).ok_or_else(|| err("bad stdout size".into()))?;
                    } else if let Some(v) = opt.strip_prefix("io=") {
                        let (t, sz) = v
                            .split_once('/')
                            .ok_or_else(|| err("io=<interval>/<bytes>".into()))?;
                        let t: Duration = t.parse().map_err(|_| err("bad io interval".into()))?;
                        let sz = parse_size(sz).ok_or_else(|| err("bad io size".into()))?;
                        spec = spec.with_remote_io(t.as_secs_f64(), sz);
                    } else if let Some(a) = opt.strip_prefix("arch=") {
                        spec = spec.with_arch(a);
                    } else {
                        return Err(err(format!("unknown job option {opt}")));
                    }
                }
                for _ in 0..count {
                    scn.jobs.push(spec.clone());
                }
            }
            "crash" => {
                // crash site <idx> at <t> for <d>
                let [_, "site", idx, "at", t, "for", d] = words[..] else {
                    return Err(err("crash site <idx> at <t> for <d>".into()));
                };
                let idx: usize = idx.parse().map_err(|_| err("bad site index".into()))?;
                let at = t.parse().map_err(|_| err("bad time".into()))?;
                let dur = d.parse().map_err(|_| err("bad duration".into()))?;
                scn.crashes.push((idx, at, dur));
            }
            "partition" => {
                let [_, "at", t, "for", d] = words[..] else {
                    return Err(err("partition at <t> for <d>".into()));
                };
                let at = t.parse().map_err(|_| err("bad time".into()))?;
                let dur = d.parse().map_err(|_| err("bad duration".into()))?;
                scn.partition = Some((at, dur));
            }
            "image" => {
                scn.image = words
                    .get(1)
                    .and_then(|w| parse_size(w))
                    .ok_or_else(|| err("image <size>".into()))?;
            }
            "link" => {
                // link <name> <bytes/sec> [<latency>]
                let name = *words
                    .get(1)
                    .ok_or_else(|| err("link <name> <bytes/sec> [<latency>]".into()))?;
                let capacity = words
                    .get(2)
                    .and_then(|w| parse_size(w))
                    .ok_or_else(|| err("bad link capacity".into()))?;
                let latency = match words.get(3) {
                    Some(w) => w.parse().map_err(|_| err("bad link latency".into()))?,
                    None => Duration::ZERO,
                };
                scn.links.push(WanLinkSpec {
                    name: name.to_string(),
                    capacity: capacity as f64,
                    latency: latency.as_secs_f64(),
                });
            }
            "route" => {
                // route site <idx> via <link> [<link>...]
                if words.get(1) != Some(&"site") || words.get(3) != Some(&"via") || words.len() < 5
                {
                    return Err(err("route site <idx> via <link>...".into()));
                }
                let idx: usize = words[2].parse().map_err(|_| err("bad site index".into()))?;
                scn.routes
                    .push((idx, words[4..].iter().map(|w| w.to_string()).collect()));
            }
            "linkdown" => {
                let [_, name, "at", t, "for", d] = words[..] else {
                    return Err(err("linkdown <name> at <t> for <d>".into()));
                };
                let at = t.parse().map_err(|_| err("bad time".into()))?;
                let dur = d.parse().map_err(|_| err("bad duration".into()))?;
                scn.linkdowns.push((name.to_string(), at, dur));
            }
            "linkbw" => {
                let [_, name, cap, "at", t, "for", d] = words[..] else {
                    return Err(err("linkbw <name> <bytes/sec> at <t> for <d>".into()));
                };
                let cap = parse_size(cap).ok_or_else(|| err("bad link capacity".into()))?;
                let at = t.parse().map_err(|_| err("bad time".into()))?;
                let dur = d.parse().map_err(|_| err("bad duration".into()))?;
                scn.linkbws.push((name.to_string(), cap, at, dur));
            }
            "run" => {
                scn.run_for = words
                    .get(1)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("bad run duration".into()))?;
            }
            other => return Err(err(format!("unknown directive {other}"))),
        }
    }
    if scn.sites.is_empty() {
        return Err(ScnError(0, "scenario declares no sites".into()));
    }
    // Cross-references: routes and link fault windows must name declared
    // links, routes and crashes must name declared sites.
    for (idx, ..) in &scn.crashes {
        if *idx >= scn.sites.len() {
            return Err(ScnError(0, format!("crash site {idx} out of range")));
        }
    }
    let declared: std::collections::HashSet<&str> =
        scn.links.iter().map(|l| l.name.as_str()).collect();
    for (idx, names) in &scn.routes {
        if *idx >= scn.sites.len() {
            return Err(ScnError(0, format!("route site {idx} out of range")));
        }
        for n in names {
            if !declared.contains(n.as_str()) {
                return Err(ScnError(0, format!("route references undeclared link {n}")));
            }
        }
    }
    for name in scn
        .linkdowns
        .iter()
        .map(|(n, ..)| n)
        .chain(scn.linkbws.iter().map(|(n, ..)| n))
    {
        if !declared.contains(name.as_str()) {
            return Err(ScnError(
                0,
                format!("fault window references undeclared link {name}"),
            ));
        }
    }
    Ok(scn)
}

/// Exit 2 on an error that names the file that could not be written.
fn fail<T>(e: std::io::Error) -> T {
    eprintln!("cannot write {e}");
    std::process::exit(2);
}

/// Build and run a parsed scenario; prints the report, and writes the
/// run's bundle into `report` when there is one.
pub fn run_scenario(scn: Scenario, report: Option<&ReportDir>) {
    let mut tb: Testbed = build(TestbedConfig {
        seed: scn.seed,
        sites: scn.sites.clone(),
        with_mds: scn.mds,
        mds_broker: scn.mds_broker,
        with_personal_pool: scn.personal_pool,
        adaptive: scn.adaptive,
        proxy_lifetime: scn.proxy.unwrap_or(Duration::from_hours(24)),
        exe_size: scn.image,
        wan: if scn.links.is_empty() {
            None
        } else {
            Some(WanTopology {
                links: scn.links.clone(),
                site_routes: scn.routes.clone(),
            })
        },
        // The span reconstructor and JSONL exporter both read the trace
        // stream, so scenario runs always collect it.
        trace: true,
        ..TestbedConfig::default()
    });
    let mut telemetry = None;
    if let Some(dir) = report {
        let trace = dir.jsonl("trace.jsonl").unwrap_or_else(fail);
        tb.world.trace_mut().subscribe(Box::new(trace));
        tb.world.enable_profiler();
        telemetry = Some(dir.jsonl("telemetry.jsonl").unwrap_or_else(fail));
    }
    // Stage every referenced executable on the submit-side GASS server is
    // handled by the harness preloads; unknown paths still stage as the
    // default app image.
    if let Some((n, lease)) = scn.glideins {
        if scn.personal_pool {
            tb.add_glidein_factory(n, lease);
        } else {
            eprintln!("warning: glideins need `personal-pool on`; ignoring");
        }
    }
    let total_jobs = scn.jobs.len();
    let mut console = UserConsole::new(tb.scheduler);
    for mut job in scn.jobs {
        // Scenario executables resolve against the preloaded app image so
        // staging always succeeds.
        job.executable = "/home/jane/app.exe".into();
        console = console.submit_after(Duration::ZERO, job);
    }
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    // Fault schedule.
    let mut plan = gridsim::fault::FaultPlan::new();
    for (idx, at, dur) in &scn.crashes {
        let site = &tb.sites[*idx];
        plan = plan.crash_restart(site.interface, SimTime::ZERO + *at, *dur);
    }
    if let Some((at, dur)) = scn.partition {
        let others: Vec<NodeId> = tb
            .sites
            .iter()
            .flat_map(|s| [s.interface, s.cluster])
            .collect();
        plan = plan.partition_window(vec![tb.submit], others, SimTime::ZERO + at, dur);
    }
    for (name, at, dur) in &scn.linkdowns {
        plan = plan.link_down_window(name, SimTime::ZERO + *at, *dur);
    }
    for (name, cap, at, dur) in &scn.linkbws {
        plan = plan.link_bandwidth_window(name, *cap as f64, SimTime::ZERO + *at, *dur);
    }
    let plan = plan.sorted();
    tb.world.apply_fault_plan(&plan);

    println!(
        "running: {} sites, {total_jobs} jobs, {} fault actions, horizon {}",
        tb.sites.len(),
        plan.len(),
        scn.run_for
    );
    // Heartbeat by heartbeat (scenario runs have no campaign driver, so
    // the backpressure fields derive from the job counters).
    let end = SimTime::ZERO + scn.run_for;
    let mut next = tb.world.now();
    loop {
        next = (next + HEARTBEAT).min(end);
        tb.world.run_until(next);
        if let Some(w) = telemetry.as_mut() {
            let m = tb.world.metrics();
            let (done, failed, submitted) = (
                m.counter("condor_g.jobs_done"),
                m.counter("condor_g.jobs_failed"),
                m.counter("condor_g.submitted"),
            );
            let (sites, site_submits, site_attempt_failures) = site_aggregates(m);
            w.line(&telemetry_line(&TelemetrySample {
                t_us: tb.world.now().micros(),
                events: tb.world.events_processed(),
                queue_depth: tb.world.queue_len() as u64,
                done,
                failed,
                dispatched: submitted,
                inflight: submitted.saturating_sub(done + failed),
                sites,
                site_submits,
                site_attempt_failures,
                ..TelemetrySample::default()
            }));
        }
        if next >= end {
            break;
        }
    }

    let m = tb.world.metrics();
    let mut t = Table::new(&["metric", "value"]);
    t.row(&[
        "jobs submitted".into(),
        format!("{}", m.counter("condor_g.submitted")),
    ]);
    t.row(&[
        "jobs done".into(),
        format!("{}", m.counter("condor_g.jobs_done")),
    ]);
    t.row(&[
        "jobs failed".into(),
        format!("{}", m.counter("condor_g.jobs_failed")),
    ]);
    t.row(&[
        "site executions".into(),
        format!(
            "{}",
            m.counter("site.completed") + m.counter("condor.jobs_finished")
        ),
    ]);
    t.row(&[
        "GRAM submits".into(),
        format!("{}", m.counter("gram.submits")),
    ]);
    t.row(&[
        "JobManager restarts".into(),
        format!("{}", m.counter("gram.jm_restarts")),
    ]);
    t.row(&[
        "glideins started".into(),
        format!("{}", m.counter("glidein.started")),
    ]);
    t.row(&[
        "preemptions".into(),
        format!(
            "{}",
            m.counter("condor.vacated") + m.counter("site.vacated")
        ),
    ]);
    t.row(&[
        "checkpoints".into(),
        format!("{}", m.counter("condor.checkpoints")),
    ]);
    t.row(&[
        "WAN bulk GB".into(),
        format!("{:.2}", m.counter("net.bulk_bytes") as f64 / 1e9),
    ]);
    if !scn.links.is_empty() {
        t.row(&[
            "contended flows".into(),
            format!("{}", m.counter("net.flows_started")),
        ]);
        t.row(&[
            "flows aborted".into(),
            format!("{}", m.counter("net.flows_aborted")),
        ]);
        t.row(&[
            "link rescales".into(),
            format!("{}", m.counter("net.link_rescales")),
        ]);
    }
    t.row(&[
        "events simulated".into(),
        format!("{}", tb.world.events_processed()),
    ]);
    println!("\n{}", t.render());
    println!("per-job outcomes:");
    for i in 0..total_jobs as u64 {
        let h = UserConsole::history_of(&tb.world, node, i);
        println!("  job {i}: {}", h.join(" -> "));
    }

    // Observability epilogue: flush exporters, reconstruct job spans, report
    // per-phase durations into the metrics sink, then snapshot it.
    // The trace writer is the sink's one subscriber that writes a file.
    let trace_flushed = tb.world.trace_mut().flush();
    let spans = SpanCollector::from_events(tb.world.trace().events());
    spans.report_metrics(tb.world.metrics_mut());
    println!(
        "\njob spans: {} jobs, {} unattributed span events",
        spans.jobs().len(),
        spans.orphans
    );
    let summary = spans.phase_summary();
    if !summary.is_empty() {
        let mut pt = Table::new(&["phase", "intervals", "mean"]);
        for (phase, n, mean_secs) in summary {
            pt.row(&[phase.into(), format!("{n}"), format!("{mean_secs:.1}s")]);
        }
        println!("{}", pt.render());
    }
    // Per-site grid weather: the MDS-style health summary read from the
    // sites the protocol components declared in the metrics. Capped at
    // the busiest sites so a hundreds-of-sites campaign stays readable;
    // the bundle's weather.json carries every row.
    const WEATHER_TOP: usize = 20;
    let weather = grid_weather(tb.world.metrics());
    if !weather.is_empty() {
        println!("\ngrid weather:\n{}", render_top(&weather, WEATHER_TOP));
    }
    if let (Some(dir), Some(mut telemetry)) = (report, telemetry) {
        dir.check("trace.jsonl", trace_flushed)
            .and_then(|()| dir.check("telemetry.jsonl", telemetry.flush()))
            .unwrap_or_else(fail);
        dir.write_snapshots(&tb.world).unwrap_or_else(fail);
        if let Some(p) = tb.world.profiler() {
            dir.write("profile.txt", p.summary()).unwrap_or_else(fail);
        }
        println!("report written to {}", dir.dir().display());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: condor-g-sim [--report-dir DIR] <scenario-file>\n\
         --report-dir writes trace.jsonl, telemetry.jsonl, metrics.json, metrics.prom,\n\
         weather.json and profile.txt into DIR."
    );
    std::process::exit(2);
}

fn main() {
    let mut report_dir: Option<String> = None;
    let mut path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--report-dir" => report_dir = Some(argv.next().unwrap_or_else(|| usage())),
            _ if arg.starts_with("--") => usage(),
            _ if path.is_none() => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let scn = parse_scenario(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let report = report_dir.map(|dir| {
        ReportDir::create(&dir).unwrap_or_else(|e| {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        })
    });
    run_scenario(scn, report.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_and_sizes() {
        assert_eq!("100ms".parse(), Ok(Duration::from_millis(100)));
        assert_eq!("1d".parse(), Ok(Duration::from_days(1)));
        assert!("xx".parse::<Duration>().is_err());
        assert_eq!(parse_size("64K"), Some(64_000));
        assert_eq!(parse_size("1M"), Some(1_000_000));
        assert_eq!(parse_size("2.5M"), Some(2_500_000));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("xM"), None);
        assert_eq!(parse_size("5é"), None);
    }

    #[test]
    fn full_scenario_parses() {
        let scn = parse_scenario(
            "# demo\n\
             seed 7\n\
             site pbs anl 64\n\
             site pool wisc 128\n\
             mds on\n\
             broker mds\n\
             personal-pool on\n\
             glideins 16 12h\n\
             proxy 48h\n\
             adaptive on\n\
             job grid app.exe 2h x10 stdout=1M\n\
             job pool worker.exe 30m x20 io=300s/64K\n\
             crash site 0 at 1h for 30m\n\
             partition at 2h for 20m\n\
             run 24h\n",
        )
        .unwrap();
        assert_eq!(scn.seed, 7);
        assert_eq!(scn.sites.len(), 2);
        assert!(scn.mds && scn.mds_broker && scn.personal_pool && scn.adaptive);
        assert_eq!(scn.glideins, Some((16, Duration::from_hours(12))));
        assert_eq!(scn.jobs.len(), 30);
        assert_eq!(scn.jobs[0].stdout_size, 1_000_000);
        assert_eq!(scn.jobs[10].io_bytes, 64_000);
        assert_eq!(
            scn.crashes,
            vec![(0, Duration::from_hours(1), Duration::from_mins(30))]
        );
        assert_eq!(scn.run_for, Duration::from_hours(24));
    }

    #[test]
    fn wan_directives_parse() {
        let scn = parse_scenario(
            "seed 13\n\
             site pbs east 16\n\
             site lsf west 16\n\
             image 16M\n\
             link wan 2.5M 30ms\n\
             route site 0 via wan\n\
             route site 1 via wan\n\
             job grid app.exe 20m x4 stdout=1M\n\
             linkdown wan at 2h for 10m\n\
             linkbw wan 1M at 20m for 20m\n\
             run 12h\n",
        )
        .unwrap();
        assert_eq!(scn.image, 16_000_000);
        assert_eq!(scn.links.len(), 1);
        assert_eq!(scn.links[0].name, "wan");
        assert_eq!(scn.links[0].capacity, 2_500_000.0);
        assert!((scn.links[0].latency - 0.030).abs() < 1e-12);
        assert_eq!(
            scn.routes,
            vec![(0, vec!["wan".to_string()]), (1, vec!["wan".to_string()])]
        );
        assert_eq!(
            scn.linkdowns,
            vec![(
                "wan".to_string(),
                Duration::from_hours(2),
                Duration::from_mins(10)
            )]
        );
        assert_eq!(
            scn.linkbws,
            vec![(
                "wan".to_string(),
                1_000_000,
                Duration::from_mins(20),
                Duration::from_mins(20)
            )]
        );
    }

    #[test]
    fn wan_cross_references_are_checked() {
        assert!(
            parse_scenario("site pbs a 4\nroute site 0 via wan\n").is_err(),
            "undeclared link in route"
        );
        assert!(
            parse_scenario("site pbs a 4\nlink wan 1M\nroute site 5 via wan\n").is_err(),
            "site index out of range"
        );
        assert!(
            parse_scenario("site pbs a 4\ncrash site 3 at 1h for 5m\n").is_err(),
            "crash site index out of range"
        );
        assert!(
            parse_scenario("site pbs a 4\nlinkdown wan at 1h for 5m\n").is_err(),
            "undeclared link in fault window"
        );
    }

    proptest::proptest! {
        /// Garbage is a `ScnError`, never a panic: raw bytes as the whole
        /// text, and as the arguments a directive still expects.
        #[test]
        fn parse_scenario_never_panics(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            pick in proptest::prelude::any::<usize>()
        ) {
            const DIRECTIVES: [&str; 18] = [
                "seed", "site", "site pbs a", "mds", "broker", "personal-pool", "adaptive",
                "glideins", "glideins 4", "proxy", "job grid a.exe", "job pool a.exe 1h",
                "job grid a.exe 1h io=", "crash site 0 at", "partition at 1h for", "image",
                "link wan", "run",
            ];
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_scenario(&text);
            let directive = DIRECTIVES[pick % DIRECTIVES.len()];
            let _ = parse_scenario(&format!("site pbs a 4\n{directive} {text}\n"));
            for word in text.split_whitespace() {
                let _ = parse_scenario(&format!("site pbs a 4\n{directive} {word}\n"));
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_scenario("seed 1\nfrobnicate\n").unwrap_err();
        assert_eq!(e.0, 2);
        let e = parse_scenario("site pbs x notanumber\n").unwrap_err();
        assert_eq!(e.0, 1);
        assert!(parse_scenario("seed 1\n").is_err(), "no sites");
    }
}
