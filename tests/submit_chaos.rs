//! Chaos on the submit machine itself — the paper's headline §4.2 claim:
//! "if the machine crashes, Condor-G can restart and reconnect to the
//! GRAM server... obtain the current job status". Random crash/repair
//! schedules on the agent's own machine must never lose a job and must
//! not re-execute work the sites already did (recovery reattaches via
//! probes instead of resubmitting).

use condor_g_suite::classads::ClassAd;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::condor_g::gridmanager::GmConfig;
use condor_g_suite::condor_g::scheduler::SchedulerConfig;
use condor_g_suite::condor_g::{GatekeeperInfo, Mailer, Scheduler, StaticListBroker};
use condor_g_suite::gass::GassServer;
use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::rng::SimRng;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};

const JOBS: usize = 24;

fn chaos_run(seed: u64) -> (u64, u64, u64) {
    let mut tb = build(TestbedConfig {
        seed,
        sites: vec![SiteSpec::pbs("alpha", 8), SiteSpec::lsf("beta", 8)],
        proxy_lifetime: Duration::from_days(7),
        ..TestbedConfig::default()
    });
    let node = tb.submit;

    // Boot hook: recover GASS disk, mailer, and the scheduler (which
    // re-creates the GridManager from its logs).
    {
        let sites: Vec<_> = tb
            .sites
            .iter()
            .map(|s| (s.name.clone(), s.gatekeeper))
            .collect();
        let proxy = tb.proxy.clone();
        let gass = tb.gass;
        let mailer = tb.mailer;
        let trust = tb.trust.clone();
        tb.world.set_boot(node, move |b| {
            b.add_component(
                "gass",
                GassServer::recover(trust.clone(), b.store(), b.node()),
            );
            b.add_component("mailer", Mailer::new());
            let broker = Box::new(StaticListBroker::new(
                sites
                    .iter()
                    .map(|(name, addr)| GatekeeperInfo {
                        site: name.clone(),
                        addr: *addr,
                        ad: ClassAd::new(),
                    })
                    .collect(),
            ));
            let config = SchedulerConfig {
                user: "jane".into(),
                credential: proxy.clone(),
                gass,
                pool_schedd: None,
                mailer: Some(mailer),
                user_addr: None,
                gm: GmConfig {
                    user: "jane".into(),
                    ..GmConfig::default()
                },
                email_on_termination: false,
            };
            b.add_component(
                "scheduler",
                Scheduler::recover(config, broker, b.store(), b.node()),
            );
        });
    }

    // Random submit-machine crashes: mean 6h up, 30min down, for 2 days.
    let mut chaos_rng = SimRng::new(seed ^ 0x5AB);
    let plan = FaultPlan::random_crashes(
        &mut chaos_rng,
        &[node],
        Duration::from_hours(6),
        Duration::from_mins(30),
        SimTime::ZERO + Duration::from_days(2),
    );
    tb.world.apply_fault_plan(&plan);

    let spec = GridJobSpec::grid("task", "/home/jane/app.exe", Duration::from_mins(90))
        .with_stdout(20_000);
    let console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(3));

    let m = tb.world.metrics();
    (
        m.counter("condor_g.jobs_done"),
        m.counter("site.completed"),
        m.counter("node.crashes"),
    )
}

#[test]
fn campaigns_survive_random_submit_machine_chaos() {
    for seed in [11, 22, 33] {
        let (done, executions, crashes) = chaos_run(seed);
        assert!(
            crashes >= 2,
            "seed {seed}: chaos too tame ({crashes} crashes)"
        );
        assert_eq!(
            done, JOBS as u64,
            "seed {seed}: jobs lost to submit crashes (crashes={crashes}, executions={executions})"
        );
        // Recovery must reattach to running jobs, not resubmit them: work
        // is only ever redone when a crash caught a job before its GRAM
        // submission committed.
        assert!(
            executions <= (JOBS as u64) + 4,
            "seed {seed}: recovery duplicated work ({executions} executions for {JOBS} jobs)"
        );
    }
}

#[test]
fn outputs_survive_a_submit_crash_during_staging() {
    // Large outputs whose stage-out straddles the submit-machine outage:
    // the recovered GASS disk plus positioned writes must still deliver
    // every byte exactly once.
    let mut tb = build(TestbedConfig {
        seed: 99,
        sites: vec![SiteSpec::pbs("alpha", 8)],
        proxy_lifetime: Duration::from_days(7),
        ..TestbedConfig::default()
    });
    let node = tb.submit;
    {
        let sites: Vec<_> = tb
            .sites
            .iter()
            .map(|s| (s.name.clone(), s.gatekeeper))
            .collect();
        let proxy = tb.proxy.clone();
        let gass = tb.gass;
        let mailer = tb.mailer;
        let trust = tb.trust.clone();
        tb.world.set_boot(node, move |b| {
            b.add_component(
                "gass",
                GassServer::recover(trust.clone(), b.store(), b.node()),
            );
            b.add_component("mailer", Mailer::new());
            let broker = Box::new(StaticListBroker::new(
                sites
                    .iter()
                    .map(|(name, addr)| GatekeeperInfo {
                        site: name.clone(),
                        addr: *addr,
                        ad: ClassAd::new(),
                    })
                    .collect(),
            ));
            let config = SchedulerConfig {
                user: "jane".into(),
                credential: proxy.clone(),
                gass,
                pool_schedd: None,
                mailer: Some(mailer),
                user_addr: None,
                gm: GmConfig {
                    user: "jane".into(),
                    ..GmConfig::default()
                },
                email_on_termination: false,
            };
            b.add_component(
                "scheduler",
                Scheduler::recover(config, broker, b.store(), b.node()),
            );
        });
    }
    // 30-minute jobs with 50 MB of stdout (~40 s of WAN transfer each):
    // the crash at t=35min lands while early finishers are staging out.
    let spec = GridJobSpec::grid("big-out", "/home/jane/app.exe", Duration::from_mins(30))
        .with_stdout(50_000_000);
    let console = UserConsole::new(tb.scheduler).submit_many(8, spec);
    tb.world.add_component(node, "console", console);
    tb.world.apply_fault_plan(&FaultPlan::new().crash_restart(
        node,
        SimTime::ZERO + Duration::from_mins(35),
        Duration::from_mins(20),
    ));
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(12));
    let m = tb.world.metrics();
    assert_eq!(m.counter("condor_g.jobs_done"), 8);
    // Every output file arrived complete on the (recovered) GASS disk:
    // the agent stages job i's stdout to /condor_g/out/<i>.
    for i in 0..8u64 {
        let size = tb
            .world
            .store()
            .get::<u64>(node, &format!("gass/size/condor_g/out/gj{i}"));
        assert_eq!(
            size,
            Some(50_000_000),
            "job gj{i} output incomplete after crash"
        );
    }
    assert_eq!(
        m.counter("site.completed"),
        8,
        "staging crash duplicated execution"
    );
}
