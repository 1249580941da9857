//! Measuring a workload: repeat its batch in fresh child processes for the
//! asked number of seconds, check the outputs, and summarise.

use crate::json::Json;
use crate::ledger::{LayerMetric, LAYER_METRICS};
use crate::probes;
use crate::stats::Summary;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// An end-to-end metric: what a user of the agent (or of the simulator)
/// sees, and how far it may worsen between two result sets of one seed
/// before `check` calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline's median; 0 means any worsening regresses.
    pub bound: f64,
    /// Measured in sim time or counted: exact for a fixed seed and commit.
    pub sim: bool,
    /// Listed in `BENCHMARK.json`, whose driver compares runs of different
    /// seeds under bounds of at most 25%. `failed_share` is 0 on a healthy
    /// run and the contract wants metrics that are never 0 (it travels as
    /// `failed`/`attempted`); `turnaround_p99_sim_s` moves by a fifth from
    /// seed to seed on `chaos_forensic`, where sweep bursts put the tail's
    /// 400 samples into some 25 clumps. Both stay in `results.json`, where
    /// runs of one seed compare exactly.
    pub contract: bool,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    sim: bool,
    contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        sim,
        contract,
    }
}

/// ISSUE 13's seven metrics with its bounds.
pub const END_TO_END: [EndToEnd; 7] = [
    e("jobs_per_s", "1/s", "higher", 0.10, false, true),
    e("peak_rss_mb", "MB", "lower", 0.05, false, true),
    e("setup_s", "s", "lower", 0.10, false, true),
    e("failed_share", "ratio", "lower", 0.0, true, false),
    e("turnaround_p50_sim_s", "s", "lower", 0.01, true, true),
    e("turnaround_p99_sim_s", "s", "lower", 0.01, true, false),
    e("makespan_sim_s", "s", "lower", 0.01, true, true),
];

/// When a measurement has enough batches.
#[derive(Clone, Copy)]
pub enum Stop {
    /// `all`: this many untraced batches and one traced.
    Reps(usize),
    /// `bench`: batches until this many seconds have passed, at least one
    /// of each kind asked for.
    Seconds(f64),
}

/// Where result and trace files go: beside the build products.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("gridbench")
}

/// Everything one measurement of one workload produced.
pub struct Measured {
    pub workload: &'static Workload,
    pub seed: u64,
    pub untraced: Vec<Json>,
    pub traced: Vec<Json>,
    pub probes: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty means correct.
    pub violations: Vec<String>,
}

fn field(batch: &Json, name: &str) -> f64 {
    batch.get(name).and_then(Json::num).unwrap_or(f64::NAN)
}

/// `gridbench run` in a fresh single-threaded child; its result parsed.
fn spawn_run(workload: &Workload, seed: u64, flags: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload.name, "--seed"])
        .arg(seed.to_string())
        .args(flags)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn batch: {e}"))?;
    // A batch whose checks failed exits 1 but still prints its result, and
    // the violations in it are reported upward; anything else is fatal.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    match Json::parse(line) {
        Ok(result) if out.status.success() || out.status.code() == Some(1) => Ok(result),
        _ => Err(format!(
            "{} batch exited with {} and no result",
            workload.name, out.status
        )),
    }
}

/// Measure `workload`: one discarded `--quick` warm-up, then full batches
/// until `stop` says enough. Untraced batches give the end-to-end metrics.
/// With `trace`, traced batches give the per-layer ledger (one for `all`;
/// alternating with untraced ones for `bench`, so that the tracing overhead
/// is measured in the same minute) and the layer probes run at the end.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    stop: Stop,
    trace: bool,
) -> Result<Measured, String> {
    let mut m = Measured {
        workload,
        seed,
        untraced: Vec::new(),
        traced: Vec::new(),
        probes: Vec::new(),
        violations: Vec::new(),
    };
    // The first child pays for cold caches.
    spawn_run(workload, seed, &["--quick"])?;
    let started = Instant::now();
    loop {
        // Alternate, untraced first; `all` wants only one traced batch.
        let traced_next = trace
            && m.traced.len() < m.untraced.len()
            && (m.traced.is_empty() || matches!(stop, Stop::Seconds(_)));
        if traced_next {
            m.traced.push(spawn_run(workload, seed, &["--traced"])?);
        } else {
            m.untraced.push(spawn_run(workload, seed, &[])?);
        }
        let enough = match stop {
            Stop::Reps(n) => m.untraced.len() >= n,
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if enough && (!trace || !m.traced.is_empty()) {
            break;
        }
    }
    if trace {
        m.probes = probes::run_all();
    }

    let all = || m.untraced.iter().chain(&m.traced);
    let mut violations = Vec::new();
    for batch in all() {
        for v in batch.get("violations").map_or(&[][..], Json::items) {
            violations.push(v.as_str().unwrap_or("?").to_string());
        }
    }
    // Same seed, same outcome; and tracing only observes, so traced and
    // untraced batches must agree too.
    let first = &m.untraced[0];
    for name in ["digest", "jobs", "done", "failed", "events"]
        .into_iter()
        .chain(END_TO_END.iter().filter(|e| e.sim).map(|e| e.name))
    {
        if all().any(|b| b.get(name) != first.get(name)) {
            violations.push(format!("{name} differs between batches of one seed"));
        }
    }
    violations.sort();
    violations.dedup();
    m.violations = violations;
    Ok(m)
}

impl Measured {
    pub fn jobs(&self) -> u64 {
        field(&self.untraced[0], "jobs") as u64
    }

    pub fn failed_jobs(&self) -> u64 {
        field(&self.untraced[0], "failed") as u64
    }

    pub fn digest(&self) -> &str {
        self.untraced[0]
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or("")
    }

    /// Jobs attempted and jobs failed over every batch of the measurement.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let batches = (self.untraced.len() + self.traced.len()) as u64;
        (self.jobs() * batches, self.failed_jobs() * batches)
    }

    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Summary)> {
        END_TO_END
            .iter()
            .map(|e| {
                let samples: Vec<f64> = self.untraced.iter().map(|b| field(b, e.name)).collect();
                (e, Summary::of(&samples))
            })
            .collect()
    }

    fn median_of(batches: &[Json], read: impl Fn(&Json) -> f64) -> f64 {
        Summary::of(&batches.iter().map(read).collect::<Vec<_>>()).median
    }

    /// Median over the traced batches of a value each of them reports.
    pub fn traced_median(&self, path: &[&str]) -> f64 {
        Self::median_of(&self.traced, |b| {
            path.iter()
                .try_fold(b, |v, key| v.get(key))
                .and_then(Json::num)
                .unwrap_or(f64::NAN)
        })
    }

    /// Every per-layer metric. Needs a measurement made with `trace`.
    pub fn per_layer(&self) -> Vec<(&'static LayerMetric, f64)> {
        let wall = |batches: &[Json]| Self::median_of(batches, |b| field(b, "run_wall_s"));
        LAYER_METRICS
            .iter()
            .map(|metric| {
                let value = if metric.name == "bench.trace_overhead_pct" {
                    (wall(&self.traced) / wall(&self.untraced) - 1.0) * 100.0
                } else if let Some((_, v)) = self.probes.iter().find(|(n, _)| *n == metric.name) {
                    *v
                } else {
                    self.traced_median(&["ledger", metric.name])
                };
                (metric, value)
            })
            .collect()
    }

    /// The one-line result the `BENCHMARK.json` contract asks for.
    pub fn contract_line(&self, trace: bool) -> String {
        let metric = |name: &str, unit: &str, value: f64| {
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if trace {
            self.per_layer()
                .into_iter()
                .map(|(l, v)| metric(l.name, l.unit, v))
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .filter(|(e, _)| e.contract)
                .map(|(e, s)| metric(e.name, e.unit, s.median))
                .collect()
        };
        let (attempted, failed) = self.attempted_failed();
        Json::obj([
            ("correct", Json::Bool(self.violations.is_empty())),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}
