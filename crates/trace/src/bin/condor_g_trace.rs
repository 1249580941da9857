//! `condor-g-trace`: offline forensics over the JSONL trace of a report dir
//! (`condor-g-sim --report-dir DIR` writes `DIR/trace.jsonl`) or a
//! flight-recorder dump, which is a trace too (`condor-g-campaign
//! --report-dir DIR` writes `DIR/flight.jsonl` on its first anomaly).
//!
//! ```text
//! condor-g-trace run.jsonl                    # summary + all reports
//! condor-g-trace run.jsonl --critical-path    # per-job blame breakdown
//! condor-g-trace run.jsonl --critical-path 3  # one job, with full steps
//! condor-g-trace run.jsonl --stuck --horizon 30m
//! condor-g-trace run.jsonl --root-cause
//! condor-g-trace convert run.jsonl --perfetto-out run.perfetto
//! condor-g-trace flight.jsonl --root-cause    # a flight dump, the same way
//! ```
//!
//! Exit status: 0 on success, 1 on parse errors, an empty causal DAG
//! (a trace with no provenance is useless for forensics, and usually means
//! the file is not a simulator trace), a Perfetto self-verification
//! failure, or a failed write to stdout, 2 on usage errors. A reader that
//! closes stdout early (`| head`) ends the reports quietly, exit 0.

use condor_g_trace::{perfetto, Forensics};
use gridsim::time::Duration;
use gridsim::trace::{jsonl, TraceEvent};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

struct Options {
    path: String,
    critical_path: bool,
    job: Option<u64>,
    stuck: bool,
    root_cause: bool,
    horizon: Duration,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: condor-g-trace <trace.jsonl> [--critical-path [JOB]] [--stuck] \
         [--horizon DUR] [--root-cause]\n\
         \u{20}      condor-g-trace convert <trace.jsonl> --perfetto-out <file>\n\
         DUR accepts 90s / 30m / 2h / 1d (default horizon: 1h).\n\
         With no report flag, all reports are printed. A flight dump\n\
         (flight.jsonl) is a trace and is read the same way.\n\
         `convert` writes a Perfetto TrackEvent trace (open at ui.perfetto.dev)."
    );
    ExitCode::from(2)
}

/// Decode the trace (or flight dump) at `path`: exit 2 if it cannot be
/// read, 1 if it does not parse.
fn read(path: &str) -> Result<Vec<TraceEvent>, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("condor-g-trace: {path}: {e}");
        ExitCode::from(2)
    })?;
    jsonl::decode(&text).map_err(|e| {
        eprintln!("condor-g-trace: {path}: {e}");
        ExitCode::from(1)
    })
}

/// `convert <trace> --perfetto-out <file>`: encode, self-verify by decoding,
/// report the track/flow census. Exit 1 if the round-trip check fails.
fn convert(args: &[String]) -> ExitCode {
    let (mut path, mut out) = (None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--perfetto-out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage(),
            },
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            _ => return usage(),
        }
    }
    let (Some(path), Some(out)) = (path, out) else {
        return usage();
    };
    let records = match read(&path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let (bytes, summary) = perfetto::encode(&records);
    if let Err(e) = perfetto::verify(&records, &bytes, &summary) {
        eprintln!("condor-g-trace: {path}: perfetto self-verification failed: {e}");
        return ExitCode::from(1);
    }
    if let Err(e) = std::fs::write(&out, &bytes) {
        eprintln!("condor-g-trace: {out}: {e}");
        return ExitCode::from(2);
    }
    emit(|w| {
        writeln!(
            w,
            "{out}: {} bytes, {} packets ({} events, {} phase slices) | tracks: {} jobs, \
             {} sites, {} components | {} flow edges, {} critical-path events",
            bytes.len(),
            summary.packets,
            summary.instants,
            summary.slices,
            summary.job_tracks,
            summary.site_tracks,
            summary.component_tracks,
            summary.flow_edges,
            summary.critical_instants,
        )
    })
}

/// Write a report to stdout, locked and buffered. A closed stdout (the
/// reader is gone, as with `| head`) is an ordinary end: exit 0, nothing
/// printed; any other write error exits 1 naming stdout.
fn emit(
    report: impl FnOnce(&mut BufWriter<io::StdoutLock<'static>>) -> io::Result<()>,
) -> ExitCode {
    let mut w = BufWriter::new(io::stdout().lock());
    match report(&mut w).and_then(|()| w.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("condor-g-trace: stdout: {e}");
            ExitCode::from(1)
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, ()> {
    let mut opts = Options {
        path: String::new(),
        critical_path: false,
        job: None,
        stuck: false,
        root_cause: false,
        horizon: Duration::from_hours(1),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--critical-path" => {
                opts.critical_path = true;
                if let Some(j) = it.peek().and_then(|n| n.parse().ok()) {
                    opts.job = Some(j);
                    it.next();
                }
            }
            "--stuck" => opts.stuck = true,
            "--root-cause" => opts.root_cause = true,
            "--horizon" => {
                let v = it.next().ok_or(())?;
                // A bare number is seconds.
                opts.horizon = v
                    .parse()
                    .or_else(|_| format!("{v}s").parse())
                    .map_err(|_| ())?;
            }
            p if !p.starts_with('-') && opts.path.is_empty() => opts.path = p.to_string(),
            _ => return Err(()),
        }
    }
    if opts.path.is_empty() {
        return Err(());
    }
    Ok(opts)
}

fn print_critical_paths(w: &mut impl Write, f: &Forensics, only: Option<u64>) -> io::Result<()> {
    writeln!(w, "== critical paths ==")?;
    for job in f.jobs.keys().copied().collect::<Vec<_>>() {
        if only.is_some_and(|j| j != job) {
            continue;
        }
        let Some(cp) = f.critical_path(job) else {
            continue;
        };
        let blame: Vec<String> = cp
            .blame
            .iter()
            .map(|(cat, secs)| {
                format!(
                    "{cat} {secs:.1}s ({:.0}%)",
                    100.0 * secs / cp.total.as_secs_f64().max(f64::MIN_POSITIVE)
                )
            })
            .collect();
        writeln!(
            w,
            "gj{job}: {} in {:.1}s over {} steps | {}",
            cp.outcome,
            cp.total.as_secs_f64(),
            cp.steps.len(),
            blame.join(", ")
        )?;
        // Full step listing only for a single selected job.
        if only.is_some() {
            for s in &cp.steps {
                writeln!(
                    w,
                    "  [{:>12}] +{:>9.3}s {:<13} {}",
                    s.time,
                    s.elapsed.as_secs_f64(),
                    s.category,
                    s.label
                )?;
            }
        }
    }
    Ok(())
}

fn print_stuck(w: &mut impl Write, f: &Forensics, horizon: Duration) -> io::Result<()> {
    writeln!(
        w,
        "== stuck jobs (horizon {:.0}s) ==",
        horizon.as_secs_f64()
    )?;
    let stuck = f.stuck_jobs(horizon);
    if stuck.is_empty() {
        return writeln!(w, "none");
    }
    for s in stuck {
        writeln!(
            w,
            "gj{}: stuck in {} since {} (site {})",
            s.job,
            s.last_phase,
            s.since,
            s.site.as_deref().unwrap_or("-")
        )?;
    }
    Ok(())
}

fn print_root_causes(w: &mut impl Write, f: &Forensics) -> io::Result<()> {
    writeln!(w, "== failure attribution ==")?;
    let causes = f.root_causes();
    if causes.is_empty() {
        return writeln!(w, "no attempt failures");
    }
    for a in causes {
        let verdict = match &a.cause {
            Some((kind, detail, t)) => format!("{kind} {detail} at {t} [{}]", a.via),
            None => "unattributed".to_string(),
        };
        writeln!(
            w,
            "gj{} failed at {} ({}, site {}): {}",
            a.job,
            a.time,
            a.why,
            a.site.as_deref().unwrap_or("-"),
            verdict
        )?;
    }
    Ok(())
}

fn print_summary(w: &mut impl Write, f: &Forensics, path: &str) -> io::Result<()> {
    writeln!(
        w,
        "{}: {} records, {} observable events, {} roots, {} jobs ({} terminal, {} resubmitted)",
        path,
        f.records.len(),
        f.dag.len(),
        f.dag.roots().count(),
        f.jobs.len(),
        f.jobs.values().filter(|j| j.terminal.is_some()).count(),
        f.resubmitted_jobs().count(),
    )
}

fn run_reports(w: &mut impl Write, f: &Forensics, opts: &Options) -> io::Result<()> {
    print_summary(w, f, &opts.path)?;
    let all = !opts.critical_path && !opts.stuck && !opts.root_cause;
    if opts.critical_path || all {
        print_critical_paths(w, f, opts.job)?;
    }
    if opts.stuck || all {
        print_stuck(w, f, opts.horizon)?;
    }
    if opts.root_cause || all {
        print_root_causes(w, f)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("convert") {
        return convert(&args[1..]);
    }
    let Ok(opts) = parse_args(&args) else {
        return usage();
    };
    let records = match read(&opts.path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let f = Forensics::build(records);
    if f.dag.is_empty() {
        eprintln!(
            "condor-g-trace: {}: no causal provenance in trace (empty DAG)",
            opts.path
        );
        return ExitCode::from(1);
    }
    emit(|w| run_reports(w, &f, &opts))
}
