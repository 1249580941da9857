//! Every experiment binary but `exp_qap` prints, byte for byte, the table
//! recorded as its `exp.<bin>.stdout` row of `tests/goldens.txt`. The runs
//! are deterministic and take about two seconds together in a release
//! build (about six in a debug one, side by side), so a change that
//! moves any experiment's table shows here. `exp_qap` takes about half a
//! minute and is checked by CI against the same table.

#[allow(dead_code)]
#[path = "../../../tests/support/golden.rs"]
mod golden;

use golden::{assert_golden, fnv1a, Scratch};
use std::process::{Command, Stdio};

/// `(name, executable)` of each listed experiment binary.
macro_rules! bins {
    ($($bin:literal),* $(,)?) => {
        [$(($bin, env!(concat!("CARGO_BIN_EXE_", $bin)))),*]
    };
}

#[test]
fn experiment_tables_are_golden() {
    let bins = bins![
        "exp_broker",
        "exp_ckpt_interval",
        "exp_cms",
        "exp_credentials",
        "exp_fault_tolerance",
        "exp_figure1",
        "exp_figure2",
        "exp_flocking",
        "exp_gcat",
        "exp_glidein",
        "exp_migration",
        "exp_two_phase",
    ];
    // All at once, each in its own cwd, then checked in order.
    let runs = bins.map(|(bin, exe)| {
        let dir = Scratch::new();
        let child = Command::new(exe)
            .current_dir(dir.path())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("{bin}: {e}"));
        (bin, child, dir)
    });
    for (bin, child, _dir) in runs {
        let out = child.wait_with_output().expect("child runs");
        assert!(out.status.success(), "{bin}: {}", out.status);
        assert_golden(&format!("exp.{bin}.stdout"), fnv1a(&out.stdout));
    }
}
