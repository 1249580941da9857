//! One batch of one workload in this process: set up, run to the last
//! settled job, verify, and describe the result as one JSON object. The
//! `bench` and `all` commands run batches as fresh child processes so that
//! peak memory and allocator state belong to one batch alone.

use crate::json::Json;
use crate::ledger;
use crate::stats::{percentile, sorted};
use crate::workloads::Workload;
use condor_g_suite::gridsim::obs::Profiler;
use condor_g_suite::gridsim::prelude::*;
use std::time::Instant;

/// A benchmark-side span: what the benchmark itself was doing, timed around
/// its calls into the product. Kept in memory and written out at exit.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Kernel events processed inside the span, where that means something.
    events: Option<u64>,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            events: None,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize, events: Option<u64>) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].events = events;
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        (
                            "events",
                            s.events.map_or(Json::Null, |e| Json::Num(e as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a traced batch leaves on disk: the benchmark's spans and the
/// profiler's table of component groups, each with the layer it counts to.
fn trace_document(workload: &Workload, seed: u64, profiler: &Profiler, spans: &Spans) -> Json {
    Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("spans", spans.to_json()),
        (
            "components",
            Json::Arr(
                profiler
                    .components()
                    .iter()
                    .map(|(group, p)| {
                        Json::obj([
                            ("group", Json::str(group.as_str())),
                            (
                                "layer",
                                ledger::layer_of(group).map_or(Json::Null, Json::str),
                            ),
                            ("events", Json::Num(p.events as f64)),
                            ("busy_ns", Json::Num(p.busy.as_nanos() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "event_kinds",
            Json::obj(
                profiler
                    .event_kinds()
                    .iter()
                    .map(|(k, n)| (*k, Json::Num(*n as f64))),
            ),
        ),
    ])
}

/// One chunk of the run per this much sim time, each its own span.
const CHUNK: Duration = Duration::from_hours(6);

/// A batch that has not settled by this sim time is wedged.
const HORIZON: Duration = Duration::from_days(30);

/// Run one batch. `process_start` is taken at the top of `main`, so set-up
/// time covers everything before the timed region. With `traced`, the
/// kernel profiler is on and the result carries the per-layer ledger; the
/// spans and the profiler's component table go to `trace_path`.
pub fn run(
    workload: &Workload,
    seed: u64,
    quick: bool,
    traced: bool,
    process_start: Instant,
    trace_path: Option<&std::path::Path>,
) -> Json {
    let mut spans = Spans {
        origin: process_start,
        spans: Vec::new(),
    };

    let setup = spans.open("setup", None);
    let mut prepared = workload.prepare(seed, quick);
    if traced {
        prepared.tb.world.enable_profiler();
    }
    spans.close(setup, None);
    let setup_s = spans.secs(setup);

    let world = &mut prepared.tb.world;
    let run = spans.open("run", None);
    let horizon = SimTime::ZERO + HORIZON;
    while !world.halted() && world.now() < horizon {
        let chunk = spans.open("run_chunk", Some(run));
        let before = world.events_processed();
        world.run_until(world.now() + CHUNK);
        spans.close(chunk, Some(world.events_processed() - before));
    }
    spans.close(run, Some(world.events_processed()));
    let run_wall_s = spans.secs(run);

    let verify = spans.open("verify", None);
    let outcome = prepared.outcome.borrow();
    let metrics = world.metrics();
    let jobs = prepared.jobs;
    let mut violations: Vec<String> = Vec::new();
    if outcome.submitted != jobs || outcome.settled() != jobs {
        violations.push(format!(
            "{jobs} jobs generated, {} submitted, {} done + {} failed",
            outcome.submitted, outcome.done, outcome.failed
        ));
    }
    if outcome.extra_terminals > 0 || outcome.unknown_jobs > 0 {
        violations.push(format!(
            "{} repeated terminal statuses, {} statuses for unknown jobs",
            outcome.extra_terminals, outcome.unknown_jobs
        ));
    }
    let executions_per_job = metrics.counter("site.completed") as f64 / jobs.max(1) as f64;
    if workload.exactly_once && executions_per_job > 1.02 {
        violations.push(format!(
            "{executions_per_job:.4} LRM executions per job: exactly-once broke"
        ));
    }
    let flows_done = metrics.counter("net.flows_done");
    if (flows_done > 0) != workload.moves_data {
        violations.push(format!(
            "net.flows_done = {flows_done}, but moves_data is {}",
            workload.moves_data
        ));
    }

    let turnaround = sorted(outcome.turnaround_secs.clone());
    let (p50, p99) = if turnaround.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&turnaround, 0.50), percentile(&turnaround, 0.99))
    };
    let mut fields = vec![
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("traced", Json::Bool(traced)),
        ("jobs", Json::Num(jobs as f64)),
        ("done", Json::Num(outcome.done as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("digest", Json::str(format!("{:016x}", outcome.digest))),
        ("events", Json::Num(world.events_processed() as f64)),
        ("setup_s", Json::Num(setup_s)),
        ("run_wall_s", Json::Num(run_wall_s)),
        (
            "jobs_per_s",
            Json::Num(outcome.settled() as f64 / run_wall_s),
        ),
        (
            "failed_share",
            Json::Num(outcome.failed as f64 / jobs.max(1) as f64),
        ),
        ("turnaround_p50_sim_s", Json::Num(p50)),
        ("turnaround_p99_sim_s", Json::Num(p99)),
        (
            "makespan_sim_s",
            Json::Num(outcome.last_settle.as_secs_f64()),
        ),
    ];

    if traced {
        let ledger = ledger::read(world, &outcome, prepared.recorder.as_ref(), run_wall_s);
        for group in &ledger.unknown_groups {
            violations.push(format!(
                "component group {group:?} has no layer in ledger::layer_of"
            ));
        }
        let records = ledger.values["gridsim.obs.records_per_job"];
        if (records > 0.0) != workload.records_trace {
            violations.push(format!(
                "{records:.1} trace records per job, but records_trace is {}",
                workload.records_trace
            ));
        }
        let handler_share = |layer: &str| {
            ledger.handler_secs.get(layer).copied().unwrap_or(0.0)
                / ledger.handler_total_secs.max(1e-12)
        };
        fields.push((
            "ledger",
            Json::obj(
                ledger
                    .values
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::Num(*v))),
            ),
        ));
        fields.push((
            "handler_share",
            Json::obj(
                ledger::HANDLER_LAYERS
                    .into_iter()
                    .chain(["gsi", "bench"])
                    .map(|layer| (layer, Json::Num(handler_share(layer)))),
            ),
        ));
        fields.push((
            "kernel_share_of_run",
            Json::Num(1.0 - ledger.handler_total_secs / run_wall_s),
        ));
    }
    drop(outcome);
    spans.close(verify, None);

    if let (Some(profiler), Some(path)) = (world.profiler(), trace_path) {
        let doc = trace_document(workload, seed, profiler, &spans);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, doc.pretty()));
        if let Err(e) = written {
            violations.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    fields.push(("peak_rss_mb", Json::Num(peak_rss_mb())));
    fields.push((
        "violations",
        Json::Arr(violations.into_iter().map(Json::Str).collect()),
    ));
    Json::obj(fields)
}
