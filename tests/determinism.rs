//! Full-stack determinism: the same seed must reproduce a whole campaign
//! event for event — the property that makes every experiment in
//! EXPERIMENTS.md exactly re-runnable.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::jsonl;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use condor_g_trace::perfetto;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The bundle files [`BUNDLE_GOLDENS`] pins, in its column order.
const BUNDLE_FILES: [&str; 4] = [
    "metrics.json",
    "metrics.prom",
    "weather.json",
    "telemetry.jsonl",
];

/// FNV-1a of each shipped scenario's [`BUNDLE_FILES`]. The traces are
/// pinned (or checked for replay) below; these pin what the exporters,
/// the weather table and the heartbeat derive from the same runs.
const BUNDLE_GOLDENS: [(&str, [u64; 4]); 6] = [
    (
        "adaptive",
        [
            0x1519_c646_2168_657b,
            0xa845_e48e_1335_09b9,
            0xa318_cb3b_ed03_b1c4,
            0x6ee0_6aed_ccfb_1ea5,
        ],
    ),
    (
        "demo",
        [
            0x47cf_113f_6fbe_46e0,
            0x7cd7_a95b_8889_dca0,
            0xb5aa_7114_7647_cf7e,
            0x1241_a60a_bb32_8ced,
        ],
    ),
    (
        "glidein_campaign",
        [
            0xd812_4e1c_72f3_d6f7,
            0x87ef_1002_c4cd_f4b6,
            0x7a97_99bb_36f3_18bb,
            0x7997_38f9_0aff_6e9a,
        ],
    ),
    (
        "heterogeneous",
        [
            0x1075_ce3a_e91c_f039,
            0xa177_677e_11ef_4ee6,
            0xf1f9_794d_40a6_8db2,
            0xbaaf_0965_2d6c_d576,
        ],
    ),
    (
        "outage",
        [
            0x4525_faf6_b6c9_7d26,
            0xa143_9e21_28ba_b257,
            0x37ab_3f48_24d6_25e1,
            0xbf1a_05f3_4479_8618,
        ],
    ),
    (
        "stagein_storm",
        [
            0xfeb6_3db9_c66f_7dcd,
            0x2ba0_7e3d_b19c_35bc,
            0x9986_d7cb_d066_4d05,
            0xeca4_db7c_f70d_8eae,
        ],
    ),
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

/// FNV-1a 64 over a byte stream — tiny, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `condor-g-sim --report-dir` on a shipped scenario; returns the
/// bundle's files (every one but the wall-clock `profile.txt`), by name,
/// and the report printed on stdout.
fn run_bundle(scenario: &str) -> (BTreeMap<&'static str, Vec<u8>>, String) {
    // Tests run in parallel and may run the same scenario: one dir per run.
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let dir = std::env::temp_dir().join(format!(
        "golden-{scenario}-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let out = std::process::Command::new(exe)
        .arg("--report-dir")
        .arg(&dir)
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
    let files = ["trace.jsonl"]
        .into_iter()
        .chain(BUNDLE_FILES)
        .map(|name| {
            (
                name,
                std::fs::read(dir.join(name)).expect("bundle file written"),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (files, String::from_utf8(out.stdout).expect("utf8 report"))
}

/// The bundle's trace bytes and the report printed on stdout.
fn run_traced(scenario: &str) -> (Vec<u8>, String) {
    let (mut files, report) = run_bundle(scenario);
    (files.remove("trace.jsonl").expect("trace read"), report)
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
/// `condor-g-sim --report-dir /tmp/r scenarios/demo.scn` and update the
/// constant from `/tmp/r/trace.jsonl`.
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
/// byte-identical traces, and their Perfetto exports must self-verify (the
/// packet census agrees with the JSONL records) and match byte for byte.
#[test]
fn adaptive_scenario_trace_is_reproducible() {
    let mut hashes = Vec::new();
    for run in 0..2 {
        let (bytes, _) = run_traced("adaptive");
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
    let mut got = Vec::new();
    for (scenario, _) in BUNDLE_GOLDENS {
        let (files, _) = run_bundle(scenario);
        got.push((scenario, BUNDLE_FILES.map(|name| fnv1a(&files[name]))));
    }
    assert_eq!(got, BUNDLE_GOLDENS, "columns: {BUNDLE_FILES:?}");
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
