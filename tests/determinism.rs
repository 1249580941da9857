//! Full-stack determinism: the same seed must reproduce a whole campaign
//! event for event — the property that makes every experiment in
//! EXPERIMENTS.md exactly re-runnable.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::jsonl;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use condor_g_trace::perfetto;
use support::{assert_golden, fnv1a, metric, sim, Run};

mod support;

/// The bundle files `bundle.<scenario>.<file>` pins for every shipped
/// scenario: all but the wall-clock `profile.txt`. The traces are pinned
/// (or checked for replay) below; these pin what the exporters, the
/// weather table and the heartbeat derive from the same runs.
const BUNDLE_FILES: [&str; 4] = [
    "metrics.json",
    "metrics.prom",
    "weather.json",
    "telemetry.jsonl",
];

fn campaign(seed: u64) -> (u64, u64, u64, u64, String) {
    let mut tb = build(TestbedConfig {
        seed,
        sites: vec![
            SiteSpec::pbs("pbs", 8),
            SiteSpec::lsf("lsf", 8),
            SiteSpec::condor_pool("pool", 8),
        ],
        with_personal_pool: true,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(4, Duration::from_hours(6));
    let grid =
        GridJobSpec::grid("g", "/home/jane/app.exe", Duration::from_mins(45)).with_stdout(10_000);
    let pool = GridJobSpec::pool("p", "/home/jane/worker.exe", Duration::from_mins(30))
        .with_remote_io(300.0, 8192);
    let console = UserConsole::new(tb.scheduler)
        .submit_many(6, grid)
        .submit_many(6, pool);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(12));
    let m = tb.world.metrics();
    let histories: String = (0..12)
        .map(|i| UserConsole::history_of(&tb.world, node, i).join(","))
        .collect::<Vec<_>>()
        .join(";");
    (
        tb.world.events_processed(),
        m.counter("condor_g.jobs_done"),
        m.counter("net.sent"),
        m.counter("condor.checkpoints"),
        histories,
    )
}

/// Run `condor-g-sim --report-dir r` on a shipped scenario.
fn bundle(name: &str) -> Run {
    let scenario = support::scenario(&format!("{name}.scn"));
    sim(["--report-dir", "r", &scenario]).ok()
}

fn line_count(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The demo scenario's event trace is a *golden* artifact: byte-identical
/// across runs, machines, and — the real point — across kernel/matchmaker
/// optimizations. Any change to event ordering, trace rendering, or match
/// outcomes shows up here as a hash mismatch. If a change is *supposed* to
/// alter behaviour, rerun `condor-g-sim --report-dir r scenarios/demo.scn`
/// and edit the `trace.demo.*` rows of `tests/goldens.txt` from
/// `r/trace.jsonl`, and nothing else (DESIGN.md section 6).
#[test]
fn demo_scenario_trace_is_golden() {
    let run = bundle("demo");
    // The demo declares no link, so its site crash aborts no flow and
    // costs no flow refresh either.
    let profile = String::from_utf8(run.read("r/profile.txt")).expect("utf8 profile");
    assert!(profile.contains("flow refreshes: 0,"), "{profile}");
    let bytes = run.read("r/trace.jsonl");
    assert_golden("trace.demo.lines", line_count(&bytes));
    assert_golden("trace.demo.fnv", fnv1a(&bytes));
}

/// The same for flows: the stage-in storm's trace (event ids and
/// causes included) pins the order in which flow completions interleave
/// with everything else, and the event count pins that a moved deadline
/// costs no event of its own — with one `flow_done` per changed deadline
/// this run took 4,961 events.
#[test]
fn stagein_storm_trace_is_golden_and_cheap() {
    let run = bundle("stagein_storm");
    let bytes = run.read("r/trace.jsonl");
    assert_golden("trace.stagein_storm.lines", line_count(&bytes));
    assert_golden("trace.stagein_storm.fnv", fnv1a(&bytes));
    let events = metric(&run.stdout, "events simulated");
    assert!(events <= 2_000, "{events} events simulated");
}

/// The glidein campaign is the only shipped scenario that walks startd →
/// collector → negotiator → schedd → shadow, so its trace pins the pool
/// path: which machine each job matches in which cycle, and every claim,
/// vacate and lease expiry after it. The event count pins the traffic
/// (adverts, keepalives, polls): each WAN send draws a latency from the
/// one kernel RNG, so a message added, skipped or merged re-keys the
/// whole run.
#[test]
fn glidein_campaign_trace_is_golden() {
    let run = bundle("glidein_campaign");
    let bytes = run.read("r/trace.jsonl");
    assert_golden("trace.glidein_campaign.lines", line_count(&bytes));
    assert_golden("trace.glidein_campaign.fnv", fnv1a(&bytes));
    assert_golden(
        "trace.glidein_campaign.events",
        metric(&run.stdout, "events simulated"),
    );
}

/// The adaptive scenario (weather-driven quarantine on) is just as
/// replayable as the vanilla one: two runs of `adaptive.scn` must produce
/// byte-identical traces, and their Perfetto exports must self-verify (the
/// packet census agrees with the JSONL records) and match byte for byte.
#[test]
fn adaptive_scenario_trace_is_reproducible() {
    let mut hashes = Vec::new();
    for run in 0..2 {
        let bytes = bundle("adaptive").read("r/trace.jsonl");
        let text = String::from_utf8(bytes).expect("utf8 trace");
        // The adaptive machinery actually ran: its decisions are on the record.
        assert!(
            text.contains("broker.quarantine"),
            "run {run}: no quarantine in adaptive scenario trace"
        );
        let records = jsonl::decode(&text).expect("trace decodes");
        let (pb, summary) = perfetto::encode(&records);
        perfetto::verify(&records, &pb, &summary).expect("perfetto export self-verifies");
        assert!(!pb.is_empty(), "empty perfetto export");
        hashes.push((text.len(), fnv1a(text.as_bytes()), pb.len(), fnv1a(&pb)));
    }
    assert_eq!(
        hashes[0], hashes[1],
        "adaptive scenario diverged across runs"
    );
}

#[test]
fn scenario_bundles_are_golden() {
    for scenario in [
        "adaptive",
        "demo",
        "glidein_campaign",
        "heterogeneous",
        "outage",
        "stagein_storm",
    ] {
        let run = bundle(scenario);
        for name in BUNDLE_FILES {
            let bytes = run.read(&format!("r/{name}"));
            assert_golden(&format!("bundle.{scenario}.{name}"), fnv1a(&bytes));
        }
    }
}

#[test]
fn identical_seeds_identical_campaigns() {
    let a = campaign(2024);
    let b = campaign(2024);
    assert_eq!(a, b, "same seed diverged");
    // And everything actually happened (this is not a trivially-empty run).
    // The run takes 8,036 events; the floor sits about 40% below that, so
    // it catches an empty run, not a cheaper one.
    assert_eq!(a.1, 12, "jobs done");
    assert!(a.0 > 5_000, "suspiciously few events: {}", a.0);
}

#[test]
fn different_seeds_differ() {
    let a = campaign(1);
    let b = campaign(2);
    // Jobs still complete under both seeds...
    assert_eq!(a.1, 12);
    assert_eq!(b.1, 12);
    // ...but the executions are genuinely different runs.
    assert_ne!(
        (a.0, a.2),
        (b.0, b.2),
        "different seeds produced identical event/message counts"
    );
}
