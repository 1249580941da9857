//! Relations: two ways of running the same thing must give the same
//! result. Each pair differs in one thing that only observes or only
//! schedules the run (a report directory, the flight recorder, the
//! number of sweep workers), never in what the run does.

use condor_g_suite::campaign::CampaignRun;
use condor_g_suite::gridsim::obs::FlightRecorder;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec};
use condor_g_suite::workloads::farm::{run_cells, Cell, FarmStats};
use support::cells::{run_cell, settle};
use support::{campaign, scenario, sim};

mod support;

/// The scenarios `scenarios/` ships.
const SCENARIOS: [&str; 6] = [
    "adaptive.scn",
    "demo.scn",
    "glidein_campaign.scn",
    "heterogeneous.scn",
    "outage.scn",
    "stagein_storm.scn",
];

/// The lines of `stdout` but the `report written to` line that only a
/// run with `--report-dir` prints, last.
fn without_report_line(stdout: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    if lines
        .last()
        .is_some_and(|l| l.starts_with("report written to"))
    {
        lines.pop();
    }
    lines
}

#[test]
fn a_report_dir_changes_no_scenario_output() {
    for name in SCENARIOS {
        let path = scenario(name);
        let plain = sim([path.as_str()]).ok();
        let reported = sim(["--report-dir", "r", path.as_str()]).ok();
        assert!(
            reported.stdout.trim_end().ends_with("report written to r"),
            "{name}: {}",
            reported.stdout
        );
        assert_eq!(
            without_report_line(&plain.stdout),
            without_report_line(&reported.stdout),
            "{name}"
        );
    }
}

/// The fields of a campaign's `RESULT` line that a run decides (not its
/// wall clock or memory).
fn outcome(stdout: &str) -> Vec<String> {
    let result = stdout
        .lines()
        .find(|l| l.starts_with("RESULT "))
        .unwrap_or_else(|| panic!("no RESULT line in {stdout}"));
    ["done=", "failed=", "sim_secs=", "digest="]
        .iter()
        .map(|key| {
            let field = result.split_whitespace().find(|f| f.starts_with(key));
            field
                .unwrap_or_else(|| panic!("no {key} in {result}"))
                .to_string()
        })
        .collect()
}

#[test]
fn a_report_dir_changes_no_campaign_outcome() {
    // A healthy grid, and one whose first site dies with the adaptive
    // loop and the flight recorder's storm detector armed (that run
    // leaves 3 of 2,000 jobs unsettled and exits 1).
    for args in [
        "--jobs 2000 --sites 10 --users 50 --quiet",
        "--jobs 2000 --sites 10 --users 50 --quiet --adaptive --dead-site 0 --quarantine-storm 1",
    ] {
        let plain = campaign(args);
        let reported = campaign(&format!("{args} --report-dir r"));
        assert_eq!(plain.code, reported.code, "{args}");
        assert_eq!(outcome(&plain.stdout), outcome(&reported.stdout), "{args}");
        assert!(reported.path("r/telemetry.jsonl").exists(), "{args}");
    }
}

/// The black box is observation-only: subscribing it must not perturb the
/// simulation. Same seed, same outcomes, recorder on or off.
#[test]
fn flight_recorder_does_not_change_campaign_outcomes() {
    let spec = CampaignSpec {
        seed: 11,
        sites: 3,
        users: 20,
        jobs: 300,
        duration: Duration::from_hours(2),
        ..CampaignSpec::default()
    };
    let run = |with_flight: bool| {
        let recorder = with_flight.then(|| FlightRecorder::new(4_096));
        let mut tb = CampaignRun::new(spec.clone()).testbed(recorder.as_ref());
        settle(&mut tb, spec.jobs);
        if let Some(rec) = &recorder {
            assert!(rec.seen() > 0, "recorder saw traffic");
            assert!(!rec.is_empty());
        }
        (
            CampaignDriver::done(&tb.world, tb.submit),
            CampaignDriver::failed(&tb.world, tb.submit),
            CampaignDriver::digest(&tb.world, tb.submit),
            tb.world.events_processed(),
        )
    };
    let plain = run(false);
    let flown = run(true);
    assert_eq!(plain, flown, "flight recorder perturbed the simulation");
    assert_eq!(plain.0 + plain.1, spec.jobs, "campaign settled");
}

#[test]
fn sweep_farm_parallel_merges_identically_to_serial() {
    let cells: Vec<Cell> = (0..4)
        .map(|i| Cell {
            label: format!("cell{i}"),
            seed: 100 + i,
        })
        .collect();
    let serial = run_cells(&cells, 1, |c| run_cell(c.seed, 200));
    let parallel = run_cells(&cells, 4, |c| run_cell(c.seed, 200));
    assert_eq!(serial, parallel, "parallel cells diverged from serial");
    assert_eq!(
        FarmStats::of(&serial),
        FarmStats::of(&parallel),
        "merged statistics diverged"
    );
    let total: u64 = serial.iter().map(|r| r.jobs_done + r.jobs_failed).sum();
    assert_eq!(total, 800, "not every cell settled");
}
