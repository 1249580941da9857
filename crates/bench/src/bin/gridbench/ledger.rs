//! The per-layer ledger: every number comes from the world's public
//! counters and profiler after a traced run, attributed to the crate
//! (layer) that did the work.

use crate::load::Outcome;
use crate::stats::{percentile, sorted};
use condor_g_suite::gridsim::obs::FlightRecorder;
use condor_g_suite::gridsim::prelude::*;
use std::collections::BTreeMap;

/// Layers that own component handlers, in report order.
pub const HANDLER_LAYERS: [&str; 6] = ["core", "gram", "site", "gass", "condor", "mds"];

/// The layer (crate) that owns a profiler component group. `None` means the
/// map does not know the group, which fails the run: a new component must
/// be given a layer here before its time can fall out of the ledger.
pub fn layer_of(group: &str) -> Option<&'static str> {
    Some(match group {
        "scheduler" | "gridmanager" | "glidein-factory" | "mailer" => "core",
        "gatekeeper" | "jm-jc" => "gram",
        "lrm" => "site",
        "gass" => "gass",
        "collector" | "negotiator" | "schedd" | "shadow-job" | "ckpt-server" => "condor",
        "gris" | "giis" => "mds",
        "myproxy" => "gsi",
        "bench-driver" => "bench",
        // The startds the glidein factory spawns are named after their site.
        g if g.starts_with("glidein-") => "condor",
        _ => return None,
    })
}

/// One per-layer metric: its name, unit, which way is better, and the
/// end-to-end metric and workload it should move (the interaction list).
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

impl LayerMetric {
    /// Counted or measured in sim time, so exact for a fixed seed and
    /// commit; the others are host time.
    pub fn exact(&self) -> bool {
        !matches!(self.unit, "ns" | "%" | "1/s")
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const GRID_THROUGHPUT: &str = "jobs_per_s on grid_stream and chaos_forensic";
const POOL_THROUGHPUT: &str = "jobs_per_s on glidein_mw";
const CHAOS_TAIL: &str = "turnaround_p99_sim_s and failed_share on chaos_forensic";
const POOL_MAKESPAN: &str = "makespan_sim_s on glidein_mw";
const HONESTY: &str = "nothing in the product: it says how far to trust the load";

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
#[rustfmt::skip]
pub const LAYER_METRICS: [LayerMetric; 39] = [
    m("gridsim.events_per_job", "count", "lower", "jobs_per_s on grid_stream, glidein_mw and chaos_forensic"),
    m("gridsim.timer_event_share", "ratio", "lower", "jobs_per_s on grid_stream, glidein_mw and chaos_forensic"),
    m("gridsim.queue_depth_max", "count", "lower", "jobs_per_s on grid_stream, glidein_mw and chaos_forensic; peak_rss_mb on stagein_flow"),
    m("gridsim.kernel_ns_per_event", "ns", "lower", "jobs_per_s on stagein_flow most, on chaos_forensic least"),
    m("gridsim.network.flow_done_per_flow", "count", "lower", "jobs_per_s and peak_rss_mb on stagein_flow only"),
    m("gridsim.network.flows_done", "count", "lower", "jobs_per_s on stagein_flow only (each retry is a flow); 0 elsewhere"),
    m("gridsim.obs.records_per_job", "count", "lower", "jobs_per_s on chaos_forensic only; 0 where tracing is off"),
    m("gridsim.obs.ring_evicted", "count", "lower", "jobs_per_s on chaos_forensic only"),
    m("core.events_per_job", "count", "lower", GRID_THROUGHPUT),
    m("core.handler_ns_per_job", "ns", "lower", GRID_THROUGHPUT),
    m("gram.events_per_job", "count", "lower", GRID_THROUGHPUT),
    m("gram.handler_ns_per_job", "ns", "lower", GRID_THROUGHPUT),
    m("site.events_per_job", "count", "lower", GRID_THROUGHPUT),
    m("site.handler_ns_per_job", "ns", "lower", GRID_THROUGHPUT),
    m("gass.events_per_job", "count", "lower", "jobs_per_s on stagein_flow"),
    m("gass.handler_ns_per_job", "ns", "lower", "jobs_per_s on stagein_flow"),
    m("condor.events_per_job", "count", "lower", POOL_THROUGHPUT),
    m("condor.handler_ns_per_job", "ns", "lower", POOL_THROUGHPUT),
    m("mds.events_per_job", "count", "lower", POOL_THROUGHPUT),
    m("mds.handler_ns_per_job", "ns", "lower", POOL_THROUGHPUT),
    m("core.attempt_failures_per_job", "count", "lower", CHAOS_TAIL),
    m("core.submit_retransmits", "count", "lower", CHAOS_TAIL),
    m("gram.stage_retries", "count", "lower", "turnaround_p99_sim_s and failed_share on chaos_forensic; turnaround on stagein_flow"),
    m("gram.duplicate_submits", "count", "lower", CHAOS_TAIL),
    m("site.executions_per_job", "count", "lower", "reported beside the retry counters; 1.0 is exactly once"),
    m("gass.aborted_transfers", "count", "lower", "reported beside the retry counters; 0 where no bulk data crosses a shared link"),
    m("condor.vacates_per_job", "count", "lower", POOL_MAKESPAN),
    m("condor.matches_per_cycle", "count", "higher", POOL_MAKESPAN),
    m("condor.busy_cpus_avg", "count", "higher", POOL_MAKESPAN),
    m("gsi.myproxy_refreshes", "count", "lower", CHAOS_TAIL),
    m("gsi.credential_holds", "count", "lower", CHAOS_TAIL),
    m("bench.driver_handler_ns_per_job", "ns", "lower", HONESTY),
    m("bench.arrival_delay_p99_sim_s", "s", "lower", HONESTY),
    m("bench.trace_overhead_pct", "%", "lower", HONESTY),
    m("gridsim.probe_timer_events_per_s", "1/s", "higher", "jobs_per_s on every workload (kernel timer path)"),
    m("gridsim.probe_ring_events_per_s", "1/s", "higher", "jobs_per_s on every workload (kernel delivery path)"),
    m("classads.probe_match_ads_per_s", "1/s", "higher", "jobs_per_s on glidein_mw (matchmaking)"),
    m("gsi.probe_chain_verify_ns", "ns", "lower", "jobs_per_s on grid_stream and chaos_forensic (each GRAM submit)"),
    m("gram.probe_rsl_roundtrip_ns", "ns", "lower", "jobs_per_s on grid_stream and chaos_forensic (each GRAM submit)"),
];

/// The ledger of one traced batch: metric name → value, plus the handler
/// time per layer for the separation checks.
pub struct Ledger {
    pub values: BTreeMap<String, f64>,
    pub handler_secs: BTreeMap<&'static str, f64>,
    pub handler_total_secs: f64,
    /// Component groups `layer_of` does not know.
    pub unknown_groups: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Read the ledger off a world that ran with the profiler on.
/// `run_wall_secs` is the wall-clock of the timed region alone.
pub fn read(
    world: &World,
    outcome: &Outcome,
    recorder: Option<&FlightRecorder>,
    run_wall_secs: f64,
) -> Ledger {
    let profiler = world
        .profiler()
        .expect("traced runs enable the profiler before running");
    let metrics = world.metrics();
    let jobs = outcome.submitted as f64;
    let events = world.events_processed() as f64;
    let counter = |name: &str| metrics.counter(name) as f64;
    let kind = |name: &str| profiler.event_kinds().get(name).copied().unwrap_or(0) as f64;

    let mut layer_events: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut handler_secs: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unknown_groups = Vec::new();
    for (group, profile) in profiler.components() {
        match layer_of(group) {
            Some(layer) => {
                *layer_events.entry(layer).or_default() += profile.events as f64;
                *handler_secs.entry(layer).or_default() += profile.busy.as_secs_f64();
            }
            None => unknown_groups.push(group.clone()),
        }
    }
    let handler_total_secs = profiler.handler_busy().as_secs_f64();

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut v = |name: &str, value: f64| values.insert(name.to_string(), value);
    v("gridsim.events_per_job", ratio(events, jobs));
    v("gridsim.timer_event_share", ratio(kind("timer"), events));
    v("gridsim.queue_depth_max", profiler.queue_depth().max());
    v(
        "gridsim.kernel_ns_per_event",
        ratio((run_wall_secs - handler_total_secs).max(0.0) * 1e9, events),
    );
    let flows = counter("net.flows_done");
    v(
        "gridsim.network.flow_done_per_flow",
        ratio(kind("flow_done"), flows),
    );
    v("gridsim.network.flows_done", flows);
    v(
        "gridsim.obs.records_per_job",
        ratio(recorder.map_or(0, FlightRecorder::seen) as f64, jobs),
    );
    v(
        "gridsim.obs.ring_evicted",
        recorder.map_or(0, FlightRecorder::evicted) as f64,
    );
    for layer in HANDLER_LAYERS {
        let ev = layer_events.get(layer).copied().unwrap_or(0.0);
        let secs = handler_secs.get(layer).copied().unwrap_or(0.0);
        v(&format!("{layer}.events_per_job"), ratio(ev, jobs));
        v(
            &format!("{layer}.handler_ns_per_job"),
            ratio(secs * 1e9, jobs),
        );
    }
    v(
        "core.attempt_failures_per_job",
        ratio(counter("gm.attempt_failures"), jobs),
    );
    v("core.submit_retransmits", counter("gm.submit_retransmits"));
    v("gram.stage_retries", counter("gram.stage_retries"));
    v("gram.duplicate_submits", counter("gram.duplicate_submits"));
    v(
        "site.executions_per_job",
        ratio(counter("site.completed"), jobs),
    );
    v("gass.aborted_transfers", counter("gass.aborted_transfers"));
    v(
        "condor.vacates_per_job",
        ratio(counter("condor.vacated"), jobs),
    );
    v(
        "condor.matches_per_cycle",
        ratio(counter("negotiator.matches"), counter("negotiator.cycles")),
    );
    v(
        "condor.busy_cpus_avg",
        metrics.series("condor.busy_startds").map_or(0.0, |s| {
            s.time_weighted_mean(SimTime::ZERO, outcome.last_settle)
        }),
    );
    v("gsi.myproxy_refreshes", counter("gm.myproxy_refreshes"));
    v("gsi.credential_holds", counter("gm.credential_holds"));
    v(
        "bench.driver_handler_ns_per_job",
        ratio(
            handler_secs.get("bench").copied().unwrap_or(0.0) * 1e9,
            jobs,
        ),
    );
    let delays = sorted(outcome.arrival_delay_secs.clone());
    v(
        "bench.arrival_delay_p99_sim_s",
        if delays.is_empty() {
            0.0
        } else {
            percentile(&delays, 0.99)
        },
    );

    Ledger {
        values,
        handler_secs,
        handler_total_secs,
        unknown_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_group_has_a_layer_and_strangers_have_none() {
        for (group, layer) in [
            ("scheduler", "core"),
            ("gridmanager", "core"),
            ("glidein-factory", "core"),
            ("mailer", "core"),
            ("gatekeeper", "gram"),
            ("jm-jc", "gram"),
            ("lrm", "site"),
            ("gass", "gass"),
            ("collector", "condor"),
            ("negotiator", "condor"),
            ("schedd", "condor"),
            ("shadow-job", "condor"),
            ("ckpt-server", "condor"),
            ("glidein-wisc-pool", "condor"),
            ("glidein-anl-pbs", "condor"),
            ("gris", "mds"),
            ("giis", "mds"),
            ("myproxy", "gsi"),
            ("bench-driver", "bench"),
        ] {
            assert_eq!(layer_of(group), Some(layer), "{group}");
        }
        assert_eq!(layer_of("replica-catalog"), None);
        assert_eq!(layer_of(""), None);
    }

    #[test]
    fn metric_names_are_unique_and_handler_layers_are_listed() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for layer in HANDLER_LAYERS {
            for suffix in ["events_per_job", "handler_ns_per_job"] {
                let name = format!("{layer}.{suffix}");
                assert!(names.contains(&name.as_str()), "{name} missing");
            }
        }
    }
}
