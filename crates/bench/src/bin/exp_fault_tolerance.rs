//! X2 — §4.2's fault-tolerance matrix.
//!
//! "Condor-G is built to tolerate four types of failure: crash of the
//! Globus JobManager, crash of the machine that manages the remote
//! resource, crash of the machine on which the GridManager is executing,
//! and failures in the network connecting the two machines."
//!
//! Each failure class is injected mid-campaign, with the agent's recovery
//! machinery on and off. With recovery on, every job must finish exactly
//! once; with it off, jobs strand.

use bench::report;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::condor_g::gridmanager::GmConfig;
use condor_g_suite::gram::proto::JobContact;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig, UserConsole};
use workloads::stats::Table;

const JOBS: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Failure {
    None,
    JobManagerCrash,
    ResourceMachineCrash,
    SubmitMachineCrash,
    NetworkPartition,
}

impl Failure {
    fn name(self) -> &'static str {
        match self {
            Failure::None => "no failure (control)",
            Failure::JobManagerCrash => "JobManager crash",
            Failure::ResourceMachineCrash => "resource machine crash",
            Failure::SubmitMachineCrash => "submit machine crash",
            Failure::NetworkPartition => "network partition",
        }
    }
}

struct Outcome {
    done: u64,
    executions: u64,
    restarts: u64,
    reconnects: u64,
    recoveries: u64,
}

/// Kill individual JobManager components (failure class 1) without taking
/// the whole machine down.
fn kill_jobmanagers(tb: &mut Testbed) {
    // JobManagers register under "jm-<contact>" names on the interface
    // node; contacts embed the site hash, so scan a window of ids.
    let node = tb.sites[0].interface;
    let base = (condor_g_suite::gsi::keys::digest("solo".as_bytes()) & 0xFFFF_FFFF) << 32;
    for off in 0..64 {
        let name = format!("jm-{}", JobContact(base + off));
        if let Some(addr) = tb.world.lookup(node, &name) {
            tb.world.kill_component_now(addr);
        }
    }
}

fn run(failure: Failure, recovery: bool, seed: u64) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed,
        sites: vec![SiteSpec::pbs("solo", JOBS as u32)],
        gm: GmConfig {
            user: "jane".into(),
            recovery,
            ..GmConfig::default()
        },
        ..TestbedConfig::default()
    });
    // 30-minute jobs: they *complete at the site during the outage*, so
    // every failure class actually threatens the result. No stdout — the
    // termination callback itself is the thing at risk (output staging has
    // its own retransmission and would mask the loss).
    let spec = GridJobSpec::grid("work", "/home/jane/app.exe", Duration::from_mins(30));
    let console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);

    // Submit-machine boot hook (class 3 needs it).
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
                condor_g_suite::gass::GassServer::recover(trust.clone(), b.store(), b.node()),
            );
            b.add_component("mailer", condor_g_suite::condor_g::Mailer::new());
            let broker = Box::new(condor_g_suite::condor_g::StaticListBroker::new(
                sites
                    .iter()
                    .map(|(name, addr)| condor_g_suite::condor_g::GatekeeperInfo {
                        site: name.clone(),
                        addr: *addr,
                        ad: condor_g_suite::classads::ClassAd::new(),
                    })
                    .collect(),
            ));
            let config = condor_g_suite::condor_g::scheduler::SchedulerConfig {
                user: "jane".into(),
                credential: proxy.clone(),
                gass,
                pool_schedd: None,
                mailer: Some(mailer),
                gm: GmConfig {
                    user: "jane".into(),
                    recovery,
                    ..GmConfig::default()
                },
                email_on_termination: false,
            };
            if recovery {
                b.add_component(
                    "scheduler",
                    condor_g_suite::condor_g::Scheduler::recover(
                        config,
                        broker,
                        b.store(),
                        b.node(),
                    ),
                );
            } else {
                // The ablated agent has no persistent queue: a reboot
                // comes back empty-handed (the pre-Condor-G world).
                b.add_component(
                    "scheduler",
                    condor_g_suite::condor_g::Scheduler::new(config, broker),
                );
            }
        });
    }

    // Let the jobs start, then break something for 40 minutes.
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(20));
    let gk_node = tb.sites[0].interface;
    let cluster = tb.sites[0].cluster;
    match failure {
        Failure::None => {}
        Failure::JobManagerCrash => kill_jobmanagers(&mut tb),
        Failure::ResourceMachineCrash => {
            tb.world.crash_node_now(gk_node);
        }
        Failure::SubmitMachineCrash => {
            tb.world.crash_node_now(node);
        }
        Failure::NetworkPartition => {
            tb.world
                .network_mut()
                .partition(&[node], &[gk_node, cluster]);
        }
    }
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(60));
    match failure {
        Failure::ResourceMachineCrash => tb.world.restart_node_now(gk_node),
        Failure::SubmitMachineCrash => tb.world.restart_node_now(node),
        Failure::NetworkPartition => {
            tb.world.network_mut().heal(&[node], &[gk_node, cluster]);
        }
        _ => {}
    }
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(12));
    let m = tb.world.metrics();
    Outcome {
        done: m.counter("condor_g.jobs_done"),
        executions: m.counter("site.completed"),
        restarts: m.counter("gram.jm_restarts"),
        reconnects: m.counter("gm.jm_reconnects"),
        recoveries: m.counter("gm.job_recoveries") + m.counter("condor_g.recoveries"),
    }
}

fn main() {
    let mut table = Table::new(&[
        "failure class",
        "recovery",
        "jobs done",
        "site executions",
        "JM restarts",
        "JM reconnects",
        "recoveries",
        "verdict",
    ]);
    for failure in [
        Failure::None,
        Failure::JobManagerCrash,
        Failure::ResourceMachineCrash,
        Failure::SubmitMachineCrash,
        Failure::NetworkPartition,
    ] {
        for recovery in [true, false] {
            if matches!(failure, Failure::None) && !recovery {
                continue;
            }
            let o = run(failure, recovery, 4242);
            let verdict = if o.done == JOBS as u64 && o.executions == JOBS as u64 {
                "all jobs exactly once"
            } else if o.done < JOBS as u64 {
                "JOBS STRANDED"
            } else {
                "DUPLICATION"
            };
            table.row(&[
                failure.name().into(),
                if recovery { "on".into() } else { "OFF".into() },
                format!("{}/{JOBS}", o.done),
                format!("{}", o.executions),
                format!("{}", o.restarts),
                format!("{}", o.reconnects),
                format!("{}", o.recoveries),
                verdict.into(),
            ]);
        }
    }
    report(
        "X2: the four failure classes of paper 4.2 (8 thirty-minute jobs; 40-minute outage from t=20min overlaps their completion)",
        "Condor-G tolerates JobManager crashes, resource-machine crashes, submit-machine crashes, and network failure",
        &table,
    );
}
