//! Full-stack determinism: the same seed must reproduce a whole campaign
//! event for event — the property that makes every experiment in
//! EXPERIMENTS.md exactly re-runnable.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};

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

/// FNV-1a 64 over a byte stream — tiny, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `condor-g-sim --trace-out` on a shipped scenario; returns the trace
/// bytes and the report printed on stdout.
fn run_traced(scenario: &str) -> (Vec<u8>, String) {
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let dir = std::env::temp_dir().join(format!("golden-{scenario}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let out = std::process::Command::new(exe)
        .arg("--trace-out")
        .arg(&trace)
        .arg(format!(
            "{}/scenarios/{scenario}.scn",
            env!("CARGO_MANIFEST_DIR")
        ))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&trace).expect("trace written");
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, String::from_utf8(out.stdout).expect("utf8 report"))
}

fn line_count(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The report's `events simulated` row.
fn events_simulated(report: &str) -> u64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix("events simulated"))
        .and_then(|v| v.trim().parse().ok())
        .expect("an `events simulated` row")
}

/// The demo scenario's event trace is a *golden* artifact: byte-identical
/// across runs, machines, and — the real point — across kernel/matchmaker
/// optimizations. Any change to event ordering, trace rendering, or match
/// outcomes shows up here as a hash mismatch. If a change is *supposed* to
/// alter behaviour, regenerate with:
/// `condor-g-sim --trace-out /tmp/t.jsonl scenarios/demo.scn` and update
/// the constant.
#[test]
fn demo_scenario_trace_is_golden() {
    let (bytes, _) = run_traced("demo");
    assert_eq!(line_count(&bytes), 1002, "trace line count changed");
    assert_eq!(
        fnv1a(&bytes),
        0x8236_2c72_acb4_9633,
        "demo.scn trace diverged from the golden run"
    );
}

/// The same for flow mode: the stage-in storm's trace (event ids and
/// causes included) pins the order in which flow completions interleave
/// with everything else, and the event count pins that a moved deadline
/// costs no event of its own — with one `flow_done` per changed deadline
/// this run took 4,961 events.
#[test]
fn stagein_storm_trace_is_golden_and_cheap() {
    let (bytes, report) = run_traced("stagein_storm");
    assert_eq!(line_count(&bytes), 771, "trace line count changed");
    assert_eq!(
        fnv1a(&bytes),
        0x4094_7f0b_f9d9_464f,
        "stagein_storm.scn trace diverged from the golden run"
    );
    let events = events_simulated(&report);
    assert!(events <= 2_000, "{events} events simulated");
}

/// The glidein campaign is the only shipped scenario that walks startd →
/// collector → negotiator → schedd → shadow, so its trace pins the pool
/// path: which machine each job matches in which cycle, and every claim,
/// vacate and lease expiry after it. The event count pins that no advert,
/// keepalive or poll was elided or merged — each WAN send draws a latency
/// from the one kernel RNG, so a skipped message re-keys the whole run.
#[test]
fn glidein_campaign_trace_is_golden() {
    let (bytes, report) = run_traced("glidein_campaign");
    assert_eq!(line_count(&bytes), 864, "trace line count changed");
    assert_eq!(
        fnv1a(&bytes),
        0x8988_6975_f7f1_2a6b,
        "glidein_campaign.scn trace diverged from the golden run"
    );
    assert_eq!(events_simulated(&report), 40_568);
}

/// The adaptive scenario (weather-driven quarantine on) is just as
/// replayable as the vanilla one: two runs of `adaptive.scn` must produce
/// byte-identical traces, and the Perfetto export must self-verify (the
/// binary exits non-zero if the packet census diverges from the JSONL).
#[test]
fn adaptive_scenario_trace_is_reproducible() {
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let dir = std::env::temp_dir().join(format!("adaptive-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut hashes = Vec::new();
    for run in 0..2 {
        let trace = dir.join(format!("trace-{run}.jsonl"));
        let perfetto = dir.join(format!("trace-{run}.pb"));
        let out = std::process::Command::new(exe)
            .arg("--trace-out")
            .arg(&trace)
            .arg("--perfetto-out")
            .arg(&perfetto)
            .arg(format!(
                "{}/scenarios/adaptive.scn",
                env!("CARGO_MANIFEST_DIR")
            ))
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "run {run} exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&trace).expect("trace written");
        let pb = std::fs::read(&perfetto).expect("perfetto written");
        assert!(!pb.is_empty(), "empty perfetto export");
        // The adaptive machinery actually ran: its decisions are on the record.
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.contains("broker.quarantine"),
            "run {run}: no quarantine in adaptive scenario trace"
        );
        hashes.push((bytes.len(), fnv1a(&bytes), pb.len(), fnv1a(&pb)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        hashes[0], hashes[1],
        "adaptive scenario diverged across runs"
    );
}

#[test]
fn identical_seeds_identical_campaigns() {
    let a = campaign(2024);
    let b = campaign(2024);
    assert_eq!(a, b, "same seed diverged");
    // And everything actually happened (this is not a trivially-empty run).
    assert_eq!(a.1, 12, "jobs done");
    assert!(a.0 > 10_000, "suspiciously few events: {}", a.0);
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
