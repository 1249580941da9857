//! End-to-end forensics: run the simulator with `--report-dir`, feed the
//! bundle's trace to the `condor-g-trace` analyzer, and check both that the trace
//! is a deterministic artifact and that the analyzer reaches the right
//! verdicts about the injected faults.

use condor_g_suite::gridsim::trace::jsonl;
use condor_g_trace::Forensics;
use support::{assert_golden, scenario, sim};

mod support;

/// The trace `condor-g-sim --report-dir` writes for `outage.scn`.
fn outage_trace() -> String {
    let run = sim(["--report-dir", "r", &scenario("outage.scn")]).ok();
    String::from_utf8(run.read("r/trace.jsonl")).expect("utf8 trace")
}

/// Same seed, same scenario => byte-identical trace. This is stronger than
/// the metric-level determinism checks: every record, every causal edge,
/// every fault injection must replay in the same order with the same ids.
#[test]
fn outage_trace_is_byte_identical_across_runs() {
    let (a, b) = (outage_trace(), outage_trace());
    assert!(!a.is_empty(), "trace is empty");
    assert_eq!(a, b, "same-seed outage runs produced different traces");
}

/// The two halves of the JSONL codec agree on a real trace: every line the
/// simulator wrote decodes, and encodes back to the same bytes.
#[test]
fn every_outage_trace_line_round_trips() {
    let text = outage_trace();
    assert_golden("trace.outage.lines", text.lines().count());
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
    let text = outage_trace();
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
