//! End-to-end forensics: run the simulator with `--trace-out`, feed the
//! trace to the `condor-g-trace` analyzer, and check both that the trace
//! is a deterministic artifact and that the analyzer reaches the right
//! verdicts about the injected faults.

use condor_g_suite::gridsim::trace::jsonl;
use condor_g_trace::Forensics;
use std::path::PathBuf;
use std::process::Command;

/// Run `condor-g-sim --trace-out <out> scenarios/<scenario>`.
fn run_with_trace(scenario: &str, out: &PathBuf) {
    let exe = env!("CARGO_BIN_EXE_condor-g-sim");
    let res = Command::new(exe)
        .arg("--trace-out")
        .arg(out)
        .arg(format!(
            "{}/scenarios/{scenario}",
            env!("CARGO_MANIFEST_DIR")
        ))
        .output()
        .expect("binary runs");
    assert!(
        res.status.success(),
        "{scenario} exited {:?}: {}",
        res.status.code(),
        String::from_utf8_lossy(&res.stderr)
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forensics-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Same seed, same scenario => byte-identical trace. This is stronger than
/// the metric-level determinism checks: every record, every causal edge,
/// every fault injection must replay in the same order with the same ids.
#[test]
fn outage_trace_is_byte_identical_across_runs() {
    let dir = temp_dir("determinism");
    let a = dir.join("run-a.jsonl");
    let b = dir.join("run-b.jsonl");
    run_with_trace("outage.scn", &a);
    run_with_trace("outage.scn", &b);
    let bytes_a = std::fs::read(&a).expect("trace a");
    let bytes_b = std::fs::read(&b).expect("trace b");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!bytes_a.is_empty(), "trace is empty");
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed outage runs produced different traces"
    );
}

/// The two halves of the JSONL codec agree on a real trace: every line the
/// simulator wrote decodes, and encodes back to the same bytes.
#[test]
fn every_outage_trace_line_round_trips() {
    let dir = temp_dir("round-trip");
    let path = dir.join("outage.jsonl");
    run_with_trace("outage.scn", &path);
    let text = std::fs::read_to_string(&path).expect("trace read");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(text.lines().count(), 379);
    for line in text.lines() {
        let event = jsonl::decode_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(jsonl::encode_line(&event), line);
    }
}

/// The outage scenario takes east-cluster's gatekeeper down across the
/// submission window, so every job routed there exhausts its submit
/// retransmits and fails over. The analyzer must (a) see those
/// resubmissions, and (b) attribute every one of them to the injected
/// gatekeeper crash.
#[test]
fn analyzer_attributes_outage_resubmissions_to_the_injected_crash() {
    let dir = temp_dir("attribution");
    let path = dir.join("outage.jsonl");
    run_with_trace("outage.scn", &path);
    let text = std::fs::read_to_string(&path).expect("trace read");
    let _ = std::fs::remove_dir_all(&dir);

    let records = jsonl::decode(&text).expect("trace decodes");
    let f = Forensics::build(records);
    assert!(!f.dag.is_empty(), "trace has no causal provenance");

    // Every job reached a terminal milestone (nothing stuck)...
    assert_eq!(f.jobs.len(), 12, "expected 12 jobs in the trace");
    assert!(
        f.jobs.values().all(|j| j.terminal.is_some()),
        "a job never reached a terminal state"
    );
    // ...and the submission-window outage really forced failovers.
    let resubmitted: Vec<u64> = f.resubmitted_jobs().map(|j| j.job).collect();
    assert!(
        !resubmitted.is_empty(),
        "outage.scn produced no resubmissions — the forensics assertion \
         below would be vacuous"
    );

    let causes = f.root_causes();
    for job in &resubmitted {
        let a = causes
            .iter()
            .find(|a| a.job == *job)
            .unwrap_or_else(|| panic!("gj{job} resubmitted but has no attribution"));
        let (kind, detail, _) = a
            .cause
            .as_ref()
            .unwrap_or_else(|| panic!("gj{job} failure unattributed: {a:?}"));
        assert!(
            kind.starts_with("fault."),
            "gj{job} blamed on a non-fault record: {kind} {detail}"
        );
        assert!(
            detail.contains("gk.east-cluster"),
            "gj{job} blamed on the wrong fault: {kind} {detail}"
        );
        assert_eq!(
            a.site.as_deref(),
            Some("east-cluster"),
            "gj{job}'s failed attempt should be against east-cluster"
        );
    }

    // Critical paths exist for every job, and their blame sums to the
    // job's end-to-end time.
    for job in f.jobs.keys().copied() {
        let cp = f
            .critical_path(job)
            .unwrap_or_else(|| panic!("gj{job} has no critical path"));
        let blamed: f64 = cp.blame.iter().map(|(_, s)| s).sum();
        assert!(
            (blamed - cp.total.as_secs_f64()).abs() < 1e-6,
            "gj{job}: blame {blamed}s != total {}s",
            cp.total.as_secs_f64()
        );
    }
}
