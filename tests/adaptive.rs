//! Weather-driven adaptive brokering, end to end: with one site's
//! gatekeeper dead through the submission window, the adaptive broker
//! must quarantine it after the first observed failure and drain the
//! rest of the campaign to the healthy sites — measurably fewer wasted
//! submit attempts than the non-adaptive round-robin, which walks every
//! third job into the dead gatekeeper's 40-retransmit submit budget.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::condor_g::gridmanager::GmConfig;
use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::trace::jsonl;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};

const JOBS: usize = 24;
/// Pool-universe tasks added when the run has a personal pool.
const POOL_JOBS: usize = 6;

struct Outcome {
    done: u64,
    /// Wasted submit attempts charged to the dead site.
    dead_site_failures: u64,
    health_transitions: u64,
    /// Transitions the negotiator's own tracker decided (pooled runs only).
    negotiator_transitions: u64,
    /// Trace kinds observed, in order (quarantine / probe / recover / ...).
    broker_events: Vec<(String, String)>,
    events_processed: u64,
    histories: String,
    /// FNV-1a over the run's trace, one JSONL line per record.
    trace_fnv: u64,
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// With `pool`, the testbed also runs a personal pool whose negotiator
/// follows the weather, a glidein factory feeding it, and [`POOL_JOBS`]
/// pool-universe tasks beside the grid ones.
fn degraded_site_run(seed: u64, adaptive: bool, pool: bool) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed,
        trace: true,
        adaptive,
        with_personal_pool: pool,
        sites: vec![
            SiteSpec::pbs("alpha", 8),
            SiteSpec::pbs("beta", 8),
            SiteSpec::pbs("gamma", 8),
        ],
        proxy_lifetime: Duration::from_days(7),
        gm: GmConfig {
            // Shrink the per-attempt retransmit budget so a dead
            // gatekeeper costs 40 x 5s = 200s per wasted attempt instead
            // of 20 minutes — keeps the scenario short while preserving
            // the failure shape.
            submit_retry: Duration::from_secs(5),
            ..GmConfig::default()
        },
        ..TestbedConfig::default()
    });
    // alpha's interface machine is down from the start, through the whole
    // staggered submission window.
    let plan = FaultPlan::new().crash_restart(
        tb.sites[0].interface,
        SimTime::ZERO + Duration::from_secs(1),
        Duration::from_hours(2),
    );
    tb.world.apply_fault_plan(&plan.sorted());
    if pool {
        tb.add_glidein_factory(2, Duration::from_hours(6));
    }

    let spec = GridJobSpec::grid("task", "/home/jane/app.exe", Duration::from_mins(45))
        .with_stdout(10_000);
    // Staggered arrivals (one every 4 minutes): later jobs only benefit
    // from the quarantine if the broker actually learns.
    let mut console = UserConsole::new(tb.scheduler);
    for i in 0..JOBS {
        console = console.submit_after(Duration::from_mins(4 * i as u64), spec.clone());
    }
    let pool_jobs = if pool { POOL_JOBS } else { 0 };
    let pool_spec = GridJobSpec::pool(
        "pool-task",
        "/home/jane/worker.exe",
        Duration::from_mins(30),
    );
    for i in 0..pool_jobs {
        console = console.submit_after(Duration::from_mins(10 * i as u64), pool_spec.clone());
    }
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(10));

    let broker_events = tb
        .world
        .trace()
        .events()
        .iter()
        .filter(|e| e.kind.starts_with("broker."))
        .map(|e| (e.kind.to_string(), e.detail.clone()))
        .collect();
    let m = tb.world.metrics();
    let trace: String = tb
        .world
        .trace()
        .events()
        .iter()
        .map(|e| jsonl::encode_line(e) + "\n")
        .collect();
    let histories = (0..(JOBS + pool_jobs) as u64)
        .map(|i| UserConsole::history_of(&tb.world, node, i).join(","))
        .collect::<Vec<_>>()
        .join(";");
    Outcome {
        done: m.counter("condor_g.jobs_done"),
        dead_site_failures: m.counter("site.alpha.attempt_failures"),
        health_transitions: m.counter("broker.health_transitions"),
        negotiator_transitions: m.counter("negotiator.health_transitions"),
        broker_events,
        events_processed: tb.world.events_processed(),
        histories,
        trace_fnv: fnv1a(trace.as_bytes()),
    }
}

#[test]
fn adaptive_broker_drains_work_away_from_degraded_site() {
    let baseline = degraded_site_run(77, false, false);
    let adaptive = degraded_site_run(77, true, false);

    // Both modes still deliver every job exactly once.
    assert_eq!(baseline.done, JOBS as u64, "baseline lost jobs");
    assert_eq!(adaptive.done, JOBS as u64, "adaptive lost jobs");

    // The round-robin baseline keeps walking into the dead gatekeeper;
    // the adaptive broker eats the first failure or two, quarantines
    // alpha, and sends everything else to beta/gamma.
    assert!(
        baseline.dead_site_failures >= 4,
        "baseline scenario too tame: only {} wasted attempts at alpha",
        baseline.dead_site_failures
    );
    assert!(
        adaptive.dead_site_failures < baseline.dead_site_failures,
        "adaptive broker did not reduce wasted attempts: {} adaptive vs {} baseline",
        adaptive.dead_site_failures,
        baseline.dead_site_failures
    );

    // The routing decisions are visible in the trace: alpha is
    // quarantined, then re-probed when its sentence lapses.
    assert!(adaptive.health_transitions >= 2, "no health transitions");
    let kinds: Vec<&str> = adaptive
        .broker_events
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(
        kinds.contains(&"broker.quarantine"),
        "no quarantine traced: {kinds:?}"
    );
    assert!(
        kinds.contains(&"broker.probe"),
        "no probation probe traced: {kinds:?}"
    );
    assert!(
        adaptive
            .broker_events
            .iter()
            .any(|(k, d)| k == "broker.quarantine" && d.contains("site=alpha")),
        "quarantine not attributed to alpha: {:?}",
        adaptive.broker_events
    );

    // The baseline broker never makes health decisions.
    assert_eq!(baseline.health_transitions, 0);
    assert!(baseline.broker_events.is_empty());
}

#[test]
fn adaptive_runs_are_seed_deterministic() {
    let a = degraded_site_run(91, true, false);
    let b = degraded_site_run(91, true, false);
    assert_eq!(
        a.events_processed, b.events_processed,
        "event count diverged"
    );
    assert_eq!(a.histories, b.histories, "job histories diverged");
    assert_eq!(
        a.broker_events, b.broker_events,
        "health decisions diverged"
    );
    assert_eq!(a.dead_site_failures, b.dead_site_failures);
    assert_eq!(a.done, JOBS as u64);
}

/// The negotiator's half of the loop: with a personal pool and glideins
/// beside the same dead gatekeeper, the negotiator's own tracker must
/// quarantine a site too (its ads are annotated with, and its machines
/// skipped by, the grid weather), and every grid and pool task must still
/// finish. The trace pins the whole run.
#[test]
fn negotiator_follows_the_weather_with_a_glidein_pool() {
    let run = degraded_site_run(77, true, true);
    assert_eq!(run.done, (JOBS + POOL_JOBS) as u64, "tasks lost");
    assert!(
        run.negotiator_transitions > 0,
        "the negotiator made no health decision"
    );
    assert_eq!(
        run.trace_fnv, 0x6c9e_e88a_69d6_82b0,
        "pooled adaptive trace diverged"
    );
}
