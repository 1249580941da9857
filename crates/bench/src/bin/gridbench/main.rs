//! `gridbench` — the repository's benchmark: four campaign workloads, the
//! end-to-end metrics a user of the agent would see, and a per-layer ledger
//! measured from outside the product. See README.md beside this file.
//!
//! ```text
//! gridbench all [--seed N]
//!     every workload, every metric by name and unit, output checks,
//!     results.json under $CARGO_TARGET_DIR/gridbench (default target/)
//! gridbench run --workload W [--seed N] [--quick] [--traced]
//!     one batch in this process; the last stdout line is its JSON result
//! gridbench check A.json B.json
//!     compare two results.json under the bounds; exit 1 on `regressed`
//! gridbench bench --workload W --seed N --seconds S --trace 0|1
//!     the BENCHMARK.json contract: one workload, one JSON line
//! ```

mod batch;
mod bench;
mod check;
mod json;
mod ledger;
mod load;
mod probes;
mod rng;
mod stats;
mod workloads;

use bench::{Measured, Stop};
use json::Json;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

/// Seconds of batches `bench` measures for when `--seconds` is not given;
/// the same as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

/// Untraced repetitions per workload in `all`.
const REPS: usize = 5;

struct Args {
    words: Vec<String>,
}

impl Args {
    /// Remove `--name` and return whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.words.len();
        self.words.retain(|w| w != name);
        self.words.len() != before
    }

    /// Remove `--name VALUE` and return the parsed value.
    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.words.iter().position(|w| w == name) else {
            return Ok(None);
        };
        if at + 1 >= self.words.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.words.remove(at + 1);
        self.words.remove(at);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read {raw:?}"))
    }

    fn workload(&mut self) -> Result<&'static Workload, String> {
        let name: String = self.value("--workload")?.ok_or("--workload is required")?;
        workloads::find(&name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }

    fn finish(self) -> Result<(), String> {
        match self.words.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

const USAGE: &str = "usage: gridbench all [--seed N]
       gridbench run --workload W [--seed N] [--quick] [--traced]
       gridbench check A.json B.json
       gridbench bench --workload W --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    if words.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = words.remove(0);
    let args = Args { words };
    let outcome = match command.as_str() {
        "run" => cmd_run(args, process_start),
        "bench" => cmd_bench(args),
        "all" => cmd_all(args),
        "check" => cmd_check(args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gridbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(mut args: Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed = args.value("--seed")?.unwrap_or(42);
    let quick = args.flag("--quick");
    let traced = args.flag("--traced");
    args.finish()?;
    let trace_path = bench::out_dir().join(format!("{}.trace.json", workload.name));
    let result = batch::run(
        workload,
        seed,
        quick,
        traced,
        process_start,
        traced.then_some(trace_path.as_path()),
    );
    println!("{}", result.render());
    let clean = result
        .get("violations")
        .is_some_and(|v| v.items().is_empty());
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_bench(mut args: Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed = args.value("--seed")?.unwrap_or(42);
    let seconds = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    args.finish()?;
    let m = bench::measure(workload, seed, Stop::Seconds(seconds), trace)?;
    for v in &m.violations {
        eprintln!("gridbench: {}: {v}", workload.name);
    }
    println!("{}", m.contract_line(trace));
    Ok(if m.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The separation the workloads were built for, read off the traced runs.
fn separation(m: &Measured) -> Vec<(&'static str, f64)> {
    vec![
        (
            "condor_share_of_handler_time",
            m.traced_median(&["handler_share", "condor"]),
        ),
        (
            "kernel_share_of_run_wall",
            m.traced_median(&["kernel_share_of_run"]),
        ),
    ]
}

fn workload_json(m: &Measured) -> Json {
    let jobs = m.jobs();
    Json::obj([
        ("why", Json::str(m.workload.why)),
        ("jobs", Json::Num(jobs as f64)),
        ("batches", Json::Num(m.untraced.len() as f64)),
        ("digest", Json::str(m.digest())),
        (
            "events",
            m.untraced[0].get("events").cloned().unwrap_or(Json::Null),
        ),
        (
            "end_to_end",
            Json::obj(m.end_to_end().into_iter().map(|(e, s)| {
                (
                    e.name,
                    Json::obj([
                        ("unit", Json::str(e.unit)),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            Json::obj(m.per_layer().into_iter().map(|(l, v)| {
                (
                    l.name,
                    Json::obj([("unit", Json::str(l.unit)), ("value", Json::Num(v))]),
                )
            })),
        ),
        (
            "separation",
            Json::obj(separation(m).into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "violations",
            Json::Arr(m.violations.iter().map(|v| Json::str(v.as_str())).collect()),
        ),
    ])
}

fn print_workload(m: &Measured) {
    let w = m.workload;
    println!("\n== {} — {}", w.name, w.why);
    println!(
        "   {} jobs per batch, seed {}, digest {}, {} failed",
        m.jobs(),
        m.seed,
        m.digest(),
        m.failed_jobs()
    );
    println!("   end to end ({} batches, tracing off):", m.untraced.len());
    for (e, s) in m.end_to_end() {
        println!(
            "     {:<24} {:>16.6} {:<5} q1 {:.6}  q3 {:.6}  n={}  ({} is better, check bound {:.0}%)",
            e.name,
            s.median,
            e.unit,
            s.q1,
            s.q3,
            s.n,
            e.better,
            e.bound * 100.0
        );
    }
    println!("   per layer ({} traced batches):", m.traced.len());
    for (l, v) in m.per_layer() {
        println!(
            "     {:<38} {:>16.4} {:<5} ({} is better; moves {})",
            l.name, v, l.unit, l.better, l.moves
        );
    }
    for (name, v) in separation(m) {
        println!("     {name:<38} {v:>16.4}");
    }
    for v in &m.violations {
        println!("   CHECK FAILED: {v}");
    }
}

/// `BENCHMARK.json` and this program must name the same workloads and
/// metrics with the same units; checked when the file is in reach.
fn contract_mismatches(contract: &Json) -> Vec<String> {
    fn text<'a>(m: &'a Json, k: &str) -> &'a str {
        m.get(k).and_then(Json::as_str).unwrap_or("")
    }
    let mut out = Vec::new();
    let mut section = |key: &str, field: &str, ours: Vec<(&str, &str)>| {
        let listed: Vec<(&str, &str)> = contract
            .get(key)
            .map_or(&[][..], Json::items)
            .iter()
            .map(|m| (text(m, "name"), text(m, field)))
            .collect();
        if listed != ours {
            out.push(format!("BENCHMARK.json \"{key}\" does not match gridbench"));
        }
    };
    section(
        "workloads",
        "why",
        WORKLOADS.iter().map(|w| (w.name, w.why)).collect(),
    );
    section(
        "end_to_end",
        "unit",
        bench::END_TO_END
            .iter()
            .filter(|e| e.contract)
            .map(|e| (e.name, e.unit))
            .collect(),
    );
    section(
        "per_layer",
        "unit",
        ledger::LAYER_METRICS
            .iter()
            .map(|l| (l.name, l.unit))
            .collect(),
    );
    out
}

fn cmd_all(mut args: Args) -> Result<ExitCode, String> {
    let seed: u64 = args.value("--seed")?.unwrap_or(42);
    args.finish()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "gridbench: seed {seed}, {REPS} untraced batches and one traced per workload, \
         {nproc} cores, one batch at a time"
    );

    let mut failed_checks = 0;
    let mut entries = Vec::new();
    for workload in &WORKLOADS {
        let m = bench::measure(workload, seed, Stop::Reps(REPS), true)?;
        print_workload(&m);
        failed_checks += m.violations.len();
        entries.push((workload.name, workload_json(&m)));
    }
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let mismatches = contract_mismatches(&Json::parse(&text)?);
        for m in &mismatches {
            println!("CHECK FAILED: {m}");
        }
        failed_checks += mismatches.len();
    }

    let doc = Json::obj([
        ("schema", Json::str("gridbench/v1")),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::obj(entries)),
    ]);
    let path = bench::out_dir().join("results.json");
    std::fs::create_dir_all(bench::out_dir())
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if failed_checks > 0 {
        println!("{failed_checks} output checks failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("all output checks passed");
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: Args) -> Result<ExitCode, String> {
    let [a, b] = args.words.as_slice() else {
        return Err(format!("check takes two files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed) = check::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
