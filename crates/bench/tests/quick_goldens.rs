//! Each gridbench workload's `--quick --traced` batch at seed 42 settles
//! every job and reproduces every `gridbench.<w>.quick.*` row of
//! `tests/goldens.txt`. The counts are exact and host-independent: one
//! message or timer coalesced, skipped or re-timed moves the event count
//! and (every WAN send draws a latency from the one kernel RNG) the digest;
//! the ledger rows pin queue growth, flow completions and the trace records
//! a job costs.

#[allow(dead_code)]
#[path = "../../../tests/support/golden.rs"]
mod golden;

use golden::{assert_golden, goldens, Scratch};
use std::process::Command;

/// The raw value of `"name":` in a one-line JSON object, quotes stripped.
fn field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn quick_batches_are_golden() {
    for workload in [
        "grid_stream",
        "glidein_mw",
        "stagein_flow",
        "chaos_forensic",
    ] {
        // `--traced` writes target/gridbench/ under the cwd.
        let dir = Scratch::new();
        let out = Command::new(env!("CARGO_BIN_EXE_gridbench"))
            .args(["run", "--workload", workload, "--quick", "--seed", "42"])
            .arg("--traced")
            .current_dir(dir.path())
            .output()
            .expect("gridbench runs");
        let json = String::from_utf8(out.stdout).expect("utf8 JSON line");
        assert!(out.status.success(), "{workload}: {json}");
        assert_eq!(field(&json, "failed"), Some("0"), "{json}");
        let prefix = format!("gridbench.{workload}.quick.");
        let mut names = Vec::new();
        for (key, _) in goldens() {
            if let Some(name) = key.strip_prefix(&prefix) {
                let got = field(&json, name).unwrap_or_else(|| panic!("{key}: not in {json}"));
                assert_golden(key, got);
                names.push(name);
            }
        }
        assert!(
            names.contains(&"digest") && names.contains(&"events"),
            "tests/goldens.txt pins no digest and event count under {prefix}"
        );
    }
}
