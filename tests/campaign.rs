//! Campaign-scale tests: the streaming generator's determinism, the lean
//! testbed's bounded memory bookkeeping, and the sweep farm's
//! serial/parallel equivalence.

use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use condor_g_suite::workloads::farm::{run_cells, Cell, CellResult, FarmStats};
use std::process::{Command, Output};

/// Run the compiled `condor-g-campaign` binary.
fn campaign_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_condor-g-campaign"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Run one small campaign cell end to end through the lean stack and
/// return its merged outcome. Deterministic in `seed`.
fn run_cell(seed: u64, jobs: u64) -> CellResult {
    let spec = CampaignSpec {
        seed,
        jobs,
        sites: 4,
        users: 20,
        duration: Duration::from_hours(2),
        mean_runtime_secs: 600.0,
        ..CampaignSpec::default()
    };
    let sites = spec
        .grid()
        .iter()
        .map(|s| SiteSpec::pbs(&s.name, s.cpus))
        .collect();
    let mut tb = build(TestbedConfig {
        seed: spec.seed,
        sites,
        lean: true,
        proxy_lifetime: Duration::from_days(30),
        ..TestbedConfig::default()
    });
    let driver = CampaignDriver::new(tb.scheduler, &spec, DriverConfig::default());
    tb.world.add_component(tb.submit, "campaign", driver);
    let horizon = SimTime::ZERO + Duration::from_days(20);
    loop {
        let next = tb.world.now() + Duration::from_hours(6);
        tb.world.run_until(next);
        let settled = CampaignDriver::done(&tb.world, tb.submit)
            + CampaignDriver::failed(&tb.world, tb.submit);
        if settled >= spec.jobs || tb.world.now() >= horizon {
            break;
        }
    }
    CellResult {
        label: format!("seed={seed}"),
        seed,
        jobs_done: CampaignDriver::done(&tb.world, tb.submit),
        jobs_failed: CampaignDriver::failed(&tb.world, tb.submit),
        sim_secs: (tb.world.now() - SimTime::ZERO).as_secs_f64(),
        wall_secs: 0.0, // fixed so results compare exactly across runs
        digest: CampaignDriver::digest(&tb.world, tb.submit),
    }
}

#[test]
fn same_seed_campaigns_are_byte_identical_scenarios() {
    // The generator is the scenario: two streams from one spec must match
    // byte for byte, across any mix of arrivals, sweeps and users.
    let spec = CampaignSpec {
        seed: 7,
        jobs: 50_000,
        sites: 30,
        users: 300,
        ..CampaignSpec::default()
    };
    let mut a = Vec::new();
    for j in spec.stream() {
        j.encode(&mut a);
    }
    let mut b = Vec::new();
    for j in spec.stream() {
        j.encode(&mut b);
    }
    assert_eq!(a, b, "same-seed streams diverged");
    assert_eq!(spec.grid(), spec.grid(), "same-seed grids diverged");
}

#[test]
fn lean_campaign_completes_and_reclaims_state() {
    let r = run_cell(11, 400);
    assert_eq!(r.jobs_done + r.jobs_failed, 400, "campaign did not settle");
    assert!(r.jobs_done >= 390, "unexpected failure rate: {r:?}");
    assert_ne!(r.digest, 0xcbf2_9ce4_8422_2325, "digest never advanced");
}

#[test]
fn campaign_binary_reproduces_the_recorded_digest() {
    // Recorded at PR 13 (143,806 kernel events). A kernel or protocol
    // change that moves it must say why and re-record it.
    let out = campaign_bin(&[
        "--jobs", "2000", "--sites", "10", "--users", "50", "--quiet",
    ]);
    assert!(out.status.success(), "exited {:?}", out.status.code());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or_default();
    assert!(
        result.starts_with("RESULT jobs=2000 done=2000 failed=0 "),
        "{result}"
    );
    assert!(result.ends_with(" digest=001d7918bf8e369a"), "{result}");
}

#[test]
fn removed_kernel_partition_flag_is_a_usage_error() {
    let flag = "--shards";
    let out = campaign_bin(&[flag, "4", "--jobs", "10"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: condor-g-campaign"), "{err}");
    assert!(!err.contains(flag), "{err}");
}

#[test]
fn campaign_runs_are_reproducible() {
    let a = run_cell(23, 300);
    let b = run_cell(23, 300);
    assert_eq!(a, b, "same seed, different outcome");
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
