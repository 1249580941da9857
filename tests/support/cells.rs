//! Small campaign cells run in-process through the lean testbed.

use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig, WanTopology};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use condor_g_suite::workloads::farm::CellResult;

/// Run a campaign testbed in 6-hour steps until `jobs` settle or ten days
/// have passed.
pub fn settle(tb: &mut Testbed, jobs: u64) {
    let settled = |tb: &Testbed| {
        CampaignDriver::done(&tb.world, tb.submit) + CampaignDriver::failed(&tb.world, tb.submit)
    };
    while settled(tb) < jobs && tb.world.now() < SimTime::ZERO + Duration::from_days(10) {
        tb.world.run_until(tb.world.now() + Duration::from_hours(6));
    }
}

/// Run one small campaign cell end to end through the lean stack and
/// return its merged outcome. Deterministic in `seed`.
pub fn run_cell(seed: u64, jobs: u64) -> CellResult {
    run_campaign(seed, jobs, true, None).0
}

/// [`run_cell`] at either retention and over an optional WAN topology, also
/// handing back the settled testbed.
pub fn run_campaign(
    seed: u64,
    jobs: u64,
    lean: bool,
    wan: Option<WanTopology>,
) -> (CellResult, Testbed) {
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
        lean,
        wan,
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
    let result = CellResult {
        label: format!("seed={seed}"),
        seed,
        jobs_done: CampaignDriver::done(&tb.world, tb.submit),
        jobs_failed: CampaignDriver::failed(&tb.world, tb.submit),
        sim_secs: (tb.world.now() - SimTime::ZERO).as_secs_f64(),
        wall_secs: 0.0, // fixed so results compare exactly across runs
        digest: CampaignDriver::digest(&tb.world, tb.submit),
    };
    (result, tb)
}
