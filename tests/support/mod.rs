//! Shared by the root integration tests (`mod support;`): the goldens
//! table, and one way to run this package's binaries, each in a scratch
//! dir of its own.
// Each test binary uses a different part of this module.
#![allow(dead_code)]

mod golden;

pub use golden::*;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::Command;

/// One finished run, and the scratch dir that was its cwd (so a relative
/// `--report-dir r` lands there), removed when the `Run` is dropped.
pub struct Run {
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    dir: Scratch,
}

impl Run {
    /// The run, once it has exited 0.
    #[track_caller]
    pub fn ok(self) -> Run {
        assert_eq!(self.code, Some(0), "stderr: {}", self.stderr);
        self
    }

    /// `rel`, relative to the run's dir.
    pub fn path(&self, rel: &str) -> PathBuf {
        self.dir.path().join(rel)
    }

    #[track_caller]
    pub fn read(&self, rel: &str) -> Vec<u8> {
        std::fs::read(self.path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    }
}

const SIM: &str = env!("CARGO_BIN_EXE_condor-g-sim");
const CAMPAIGN: &str = env!("CARGO_BIN_EXE_condor-g-campaign");

/// Run `condor-g-sim` with `args`.
pub fn sim<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> Run {
    run(SIM, args, None)
}

/// Run `condor-g-sim` with `args` on scenario `text`.
pub fn sim_text(text: &str, args: &[&str]) -> Run {
    run(SIM, args.iter().chain(&["scenario.scn"]), Some(text))
}

/// Run `condor-g-campaign` with whitespace-separated `args`.
pub fn campaign(args: &str) -> Run {
    run(CAMPAIGN, args.split_whitespace(), None)
}

/// The path of the shipped scenario file `name` (`demo.scn`, …).
pub fn scenario(name: &str) -> String {
    format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The last number on the first row of a printed report that mentions
/// `name`.
pub fn metric(report: &str, name: &str) -> u64 {
    report
        .lines()
        .find(|l| l.contains(name))
        .unwrap_or_else(|| panic!("no row {name:?} in:\n{report}"))
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .next_back()
        .unwrap_or_else(|| panic!("no number in row {name:?}"))
}

/// Run `exe` in a fresh scratch dir, after writing `scenario` to
/// `scenario.scn` there.
fn run<S: AsRef<OsStr>>(
    exe: &str,
    args: impl IntoIterator<Item = S>,
    scenario: Option<&str>,
) -> Run {
    let dir = Scratch::new();
    if let Some(text) = scenario {
        std::fs::write(dir.path().join("scenario.scn"), text).expect("scenario written");
    }
    let out = Command::new(exe)
        .args(args)
        .current_dir(dir.path())
        .output()
        .expect("binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        dir,
    }
}
