//! The `condor-g-trace` binary at its edge: what happens when stdout
//! cannot take the reports.

use gridsim::event::NO_CAUSE;
use gridsim::time::SimTime;
use gridsim::trace::{jsonl, TraceEvent};
use gridsim::world::EXTERNAL;
use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_condor-g-trace");

/// A trace of `jobs` finished jobs, one two-record causal chain each,
/// written to a file of its own; the caller removes it.
fn trace_file(name: &str, jobs: u64) -> PathBuf {
    let mut text = String::new();
    for job in 0..jobs {
        let id = 2 * job + 1;
        let records = [
            (
                0,
                format!("job={job} seq={job} phase=submit site=anl"),
                id,
                NO_CAUSE,
            ),
            (60, format!("job={job} phase=done"), id + 1, id),
        ];
        for (secs, detail, id, cause) in records {
            let event = TraceEvent {
                time: SimTime((job + secs) * 1_000_000),
                addr: EXTERNAL,
                kind: "span".into(),
                detail,
                id,
                cause,
            };
            text.push_str(&jsonl::encode_line(&event));
            text.push('\n');
        }
    }
    let path = std::env::temp_dir().join(format!("{name}-{}.jsonl", std::process::id()));
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

/// Run the analyzer over a fresh trace with `stdout` as its stdout.
fn reports_into(name: &str, stdout: impl Into<Stdio>) -> Output {
    let path = trace_file(name, 2_000);
    let out = Command::new(BIN)
        .arg(&path)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("condor-g-trace runs");
    std::fs::remove_file(&path).expect("trace file removed");
    out
}

#[test]
fn a_closed_stdout_ends_the_reports_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    // The reader is gone before the first line is written (`| head -0`).
    drop(reader);
    let out = reports_into("condor-g-trace-closed", writer);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr, "");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn any_other_stdout_failure_exits_1_naming_stdout() {
    let full = File::options()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full");
    let out = reports_into("condor-g-trace-full", full);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.starts_with("condor-g-trace: stdout: "), "{stderr}");
    assert_eq!(out.status.code(), Some(1));
}
