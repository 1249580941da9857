//! End-to-end tests of the `condor-g-sim` binary: every shipped scenario
//! file runs to completion and delivers all of its jobs.

use std::process::Command;

/// Run the compiled binary on a scenario and return its stdout.
fn run(scenario: &str) -> String {
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let out = Command::new(exe)
        .arg(format!(
            "{}/scenarios/{scenario}",
            env!("CARGO_MANIFEST_DIR")
        ))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{scenario} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

/// Extract the numeric value of a `| metric | value |`-style report row.
fn metric(report: &str, name: &str) -> u64 {
    report
        .lines()
        .find(|l| l.contains(name))
        .unwrap_or_else(|| panic!("no row {name:?} in:\n{report}"))
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .next_back()
        .unwrap_or_else(|| panic!("no number in row {name:?}"))
}

#[test]
fn demo_scenario_completes_every_job() {
    let report = run("demo.scn");
    assert_eq!(metric(&report, "jobs submitted"), 24);
    assert_eq!(metric(&report, "jobs done"), 24, "{report}");
    assert_eq!(metric(&report, "jobs failed"), 0);
    // The scripted gatekeeper crash exercised recovery.
    assert!(
        report.contains("job 0:"),
        "per-job outcomes missing:\n{report}"
    );
}

#[test]
fn outage_scenario_is_exactly_once_despite_crashes_and_partition() {
    let report = run("outage.scn");
    assert_eq!(metric(&report, "jobs submitted"), 12);
    assert_eq!(metric(&report, "jobs done"), 12, "{report}");
    assert_eq!(metric(&report, "jobs failed"), 0);
}

#[test]
fn glidein_campaign_runs_everything_through_the_personal_pool() {
    let report = run("glidein_campaign.scn");
    assert_eq!(metric(&report, "jobs done"), 40, "{report}");
    assert!(metric(&report, "glideins started") >= 10, "{report}");
}

#[test]
fn heterogeneous_grid_spreads_work_across_all_schedulers() {
    let report = run("heterogeneous.scn");
    assert_eq!(metric(&report, "jobs done"), 30, "{report}");
    assert_eq!(metric(&report, "jobs failed"), 0);
}

#[test]
fn bad_scenario_reports_the_offending_line() {
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let dir = std::env::temp_dir().join("condor-g-scn-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.scn");
    // An unknown directive, and a duration whose last byte is not a char
    // boundary (once a panic in the suffix split).
    for bad in ["frobnicate the grid", "run 5é"] {
        std::fs::write(&path, format!("seed 1\nsite pbs a 4\n{bad}\n")).unwrap();
        let out = Command::new(exe).arg(&path).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("scenario line 3: "), "{bad}: {err}");
    }
}

#[test]
fn removed_flags_are_usage_errors() {
    // The kernel partition flag, and the output flags `--report-dir`
    // replaced.
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    for flag in [
        "--shards",
        "--trace-out",
        "--metrics-out",
        "--perfetto-out",
        "--weather-out",
        "--telemetry-out",
        "--telemetry-interval",
        "--profile",
    ] {
        let out = Command::new(exe)
            .args([flag, "2"])
            .arg(format!("{}/scenarios/demo.scn", env!("CARGO_MANIFEST_DIR")))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage: condor-g-sim"), "{flag}: {err}");
        assert!(!err.contains(flag), "{err}");
    }
}

#[test]
fn missing_file_is_a_usage_error() {
    // A scenario that does not exist, and a report dir under a regular
    // file: both exit 2 before anything is simulated.
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let root = env!("CARGO_MANIFEST_DIR");
    for args in [
        vec!["/nonexistent/path.scn".to_string()],
        vec![
            "--report-dir".to_string(),
            format!("{root}/Cargo.toml/x"),
            format!("{root}/scenarios/demo.scn"),
        ],
    ] {
        let out = Command::new(exe).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} simulated");
    }
}
