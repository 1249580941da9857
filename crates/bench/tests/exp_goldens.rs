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
        match bin {
            "exp_fault_tolerance" => assert_x2_shape(&String::from_utf8_lossy(&out.stdout)),
            "exp_glidein" => assert_x4_shape(&String::from_utf8_lossy(&out.stdout)),
            _ => {}
        }
        assert_golden(&format!("exp.{bin}.stdout"), fnv1a(&out.stdout));
    }
}

/// The cells of a table's row: its columns are two or more spaces apart.
fn cells(line: &str) -> Vec<&str> {
    line.split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect()
}

/// X2's verdict, whatever the exact table. With recovery on, the control
/// and each of §4.2's four failure classes run all 8 jobs exactly once;
/// with it off, each class strands all 8. A JobManager that died (its own
/// crash or its machine's) is restarted, and one that only lost touch
/// with the agent (the submit machine crashed, or the network split) is
/// reconnected, not restarted.
fn assert_x2_shape(stdout: &str) {
    let mut lines = stdout
        .lines()
        .skip_while(|l| !l.starts_with("failure class"));
    let header = cells(lines.next().expect("X2 prints a table"));
    let rows: Vec<Vec<&str>> = lines
        .map(cells)
        .filter(|row| row.len() == header.len())
        .collect();
    let cell = |class: &str, recovery: &str, column: &str| -> &str {
        let row = rows
            .iter()
            .find(|r| r[0] == class && r[1] == recovery)
            .unwrap_or_else(|| panic!("X2 has no row {class} {recovery}:\n{stdout}"));
        let at = header
            .iter()
            .position(|h| *h == column)
            .unwrap_or_else(|| panic!("X2 has no column {column}:\n{stdout}"));
        row[at]
    };
    let control = "no failure (control)";
    assert_eq!(cell(control, "on", "jobs done"), "8/8", "X2 control");
    assert_eq!(cell(control, "on", "JM restarts"), "0", "X2 control");
    for (class, restarts, reconnects) in [
        ("JobManager crash", "8", "0"),
        ("resource machine crash", "8", "0"),
        ("submit machine crash", "0", "8"),
        ("network partition", "0", "8"),
    ] {
        assert_eq!(cell(class, "on", "jobs done"), "8/8", "X2 {class}");
        assert_eq!(cell(class, "on", "site executions"), "8", "X2 {class}");
        assert_eq!(cell(class, "OFF", "jobs done"), "0/8", "X2 {class} off");
        assert_eq!(cell(class, "OFF", "verdict"), "JOBS STRANDED", "X2 {class}");
        assert_eq!(cell(class, "on", "JM restarts"), restarts, "X2 {class}");
        assert_eq!(cell(class, "on", "JM reconnects"), reconnects, "X2 {class}");
    }
}

/// X4's verdict, whatever the exact table: behind a backlog, a GlideIn
/// job waits the same at every backlog and less than direct GRAM's, and
/// the 90th percentile waits at least a job length (30 minutes), because
/// 24 jobs share the idle site's 16 CPUs and 8 of them must wait for one.
fn assert_x4_shape(stdout: &str) {
    // `(backlog, strategy) -> (mean, p90)` wait in minutes.
    let rows: Vec<(u64, &str, f64, f64)> = stdout
        .lines()
        .filter_map(|line| {
            let cols = cells(line);
            match cols[..] {
                [backlog, strategy, _done, mean, p90, _last] => Some((
                    backlog.parse().ok()?,
                    strategy,
                    mean.parse().ok()?,
                    p90.parse().ok()?,
                )),
                _ => None,
            }
        })
        .collect();
    let wait = |backlog: u64, strategy: &str| {
        rows.iter()
            .find(|r| r.0 == backlog && r.1 == strategy)
            .map(|r| (r.2, r.3))
            .unwrap_or_else(|| panic!("X4 has no row {backlog} {strategy}:\n{stdout}"))
    };
    let glidein = "GlideIn (late binding)";
    let (mean4, _) = wait(4, glidein);
    for backlog in [4, 8, 16] {
        let (mean, p90) = wait(backlog, glidein);
        let (direct, _) = wait(backlog, "direct GRAM");
        assert_eq!(mean, mean4, "X4 GlideIn mean wait at backlog {backlog}");
        assert!(
            mean < direct,
            "X4 backlog {backlog}: GlideIn {mean} min, direct {direct} min"
        );
        assert!(
            p90 >= 30.0,
            "X4 backlog {backlog}: GlideIn p90 {p90} min < one job length"
        );
    }
}
