//! End-to-end tests for the observability layer: JSONL export determinism,
//! bounded-memory tracing via the flight ring, and span reconstruction on a
//! live campaign.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::obs::{
    json_snapshot, prometheus_snapshot, FlightRecorder, JsonlWriter, SpanCollector,
};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig, UserConsole};
use std::cell::RefCell;
use std::rc::Rc;

/// An `io::Write` backed by a shared byte vector, so a boxed [`JsonlWriter`]
/// handed to the trace sink can still be read afterwards.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A small grid campaign: two GRAM sites, grid-universe jobs with output
/// staging, enough protocol traffic to exercise every span phase.
fn testbed(seed: u64, trace: bool) -> Testbed {
    build(TestbedConfig {
        seed,
        trace,
        sites: vec![SiteSpec::pbs("anl", 8), SiteSpec::lsf("nrl", 8)],
        ..TestbedConfig::default()
    })
}

fn submit_jobs(tb: &mut Testbed, n: usize) {
    let spec =
        GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30)).with_stdout(50_000);
    let console = UserConsole::new(tb.scheduler).submit_many(n, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
}

#[test]
fn jsonl_export_is_byte_identical_across_same_seed_runs() {
    fn run(seed: u64) -> Vec<u8> {
        let buf = SharedBuf::default();
        let mut tb = testbed(seed, false);
        tb.world
            .trace_mut()
            .subscribe(Box::new(JsonlWriter::new(buf.clone())));
        submit_jobs(&mut tb, 4);
        tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));
        tb.world.trace_mut().flush();
        let bytes = buf.0.borrow().clone();
        bytes
    }
    let a = run(99);
    let b = run(99);
    assert!(!a.is_empty(), "trace export produced no lines");
    assert_eq!(a, b, "same seed must export byte-identical JSONL");
    assert_ne!(run(100), a, "different seeds must differ");
}

#[test]
fn ring_buffer_bounds_memory_with_vector_disabled() {
    let ring = FlightRecorder::new(64);
    // In-memory vector off: the ring is the only retention.
    let mut tb = testbed(7, false);
    tb.world.trace_mut().subscribe(Box::new(ring.clone()));
    submit_jobs(&mut tb, 6);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(6));
    assert!(tb.world.trace().events().is_empty(), "vector must stay off");
    assert_eq!(ring.len(), 64, "ring holds exactly its capacity");
    assert!(
        ring.evicted() > 0,
        "campaign emits more than the ring holds"
    );
    assert!(ring.seen() >= 64 + ring.evicted(), "every record counted");
    // The retained window is the most recent events, in order.
    let snap = ring.records();
    assert!(snap.windows(2).all(|w| w[0].time <= w[1].time));
}

#[test]
fn spans_reconstruct_the_pipeline_on_a_live_campaign() {
    let mut tb = testbed(13, true);
    submit_jobs(&mut tb, 5);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(6));

    let spans = SpanCollector::from_events(tb.world.trace().events());
    assert_eq!(spans.jobs().len(), 5, "one span per grid job");
    assert_eq!(spans.orphans, 0, "every span event attributes to a job");
    for (job, span) in spans.jobs() {
        assert!(span.completed(), "job {job} did not complete");
        let attempt = span.last_attempt().expect("at least one attempt");
        assert!(attempt.seq.is_some() && attempt.contact.is_some() && attempt.site.is_some());
        for milestone in [
            "submit",
            "auth",
            "commit",
            "stage_in_done",
            "active",
            "done",
        ] {
            assert!(
                attempt.at(milestone).is_some(),
                "job {job} missing milestone {milestone}"
            );
        }
        assert_eq!(
            attempt.staged_out_bytes, 50_000,
            "job {job} stdout staging not attributed"
        );
        assert!(!attempt.phase_durations().is_empty());
    }

    // Per-phase durations land in the metrics sink.
    spans.report_metrics(tb.world.metrics_mut());
    let m = tb.world.metrics();
    assert_eq!(m.counter("span.jobs"), 5);
    assert_eq!(m.counter("span.jobs_completed"), 5);
    for phase in ["auth", "commit", "stage_in", "queue", "execute"] {
        let h = m
            .histogram(&format!("span.phase.{phase}"))
            .unwrap_or_else(|| panic!("no span.phase.{phase} histogram"));
        assert_eq!(h.count(), 5, "span.phase.{phase} count");
    }
    assert!(m.histogram("span.end_to_end").is_some());

    // And the ladder renders something useful.
    let ladder = spans.render();
    assert!(ladder.contains("gj0") && ladder.contains("active"));
}

#[test]
fn metrics_snapshots_are_deterministic_and_parseable() {
    fn snapshots(seed: u64) -> (String, String) {
        let mut tb = testbed(seed, false);
        submit_jobs(&mut tb, 3);
        tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));
        let now = tb.world.now();
        (
            prometheus_snapshot(tb.world.metrics(), now),
            json_snapshot(tb.world.metrics(), now),
        )
    }
    let (prom_a, json_a) = snapshots(21);
    let (prom_b, json_b) = snapshots(21);
    assert_eq!(prom_a, prom_b, "Prometheus snapshot must be deterministic");
    assert_eq!(json_a, json_b, "JSON snapshot must be deterministic");
    // Prometheus text: every non-comment line is `name value`.
    for line in prom_a
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("metric name");
        let value = parts.next().expect("metric value");
        assert!(parts.next().is_none(), "extra tokens: {line}");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric()
                || c == '_'
                || c == '{'
                || c == '}'
                || c == '"'
                || c == '='
                || c == '.'),
            "bad metric name: {name}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "bad value in: {line}"
        );
    }
    assert!(prom_a.contains("net_sent"), "counters exported");
    // JSON snapshot has the top-level sections.
    for key in [
        "\"sim_time_us\"",
        "\"counters\"",
        "\"histograms\"",
        "\"series\"",
    ] {
        assert!(json_a.contains(key), "missing {key}");
    }
}

#[test]
fn profiler_accounts_for_a_real_run() {
    let mut tb = testbed(5, false);
    tb.world.enable_profiler();
    submit_jobs(&mut tb, 4);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));
    let events = tb.world.events_processed();
    let p = tb.world.profiler().expect("profiler enabled");
    assert_eq!(p.events_seen(), events, "profiler sees every kernel event");
    let by_kind: u64 = p.event_kinds().values().sum();
    assert_eq!(by_kind, events, "kind breakdown is complete");
    assert!(p.event_kinds()["deliver"] > 0 && p.event_kinds()["timer"] > 0);
    assert!(!p.queue_depth().points().is_empty(), "queue depth sampled");
    assert!(
        p.components().contains_key("gatekeeper"),
        "per-component rows"
    );
    let summary = p.summary();
    assert!(summary.contains("events/s") && summary.contains("gatekeeper"));
}
