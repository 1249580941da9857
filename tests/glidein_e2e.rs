//! GlideIn tests (paper §5, Figure 2): GRAM-launched startds join the
//! personal pool; matchmaking dispatches jobs onto them; remote I/O flows
//! through shadows; checkpointing survives revocation; daemons respect
//! leases and idle timeouts.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::condor_g::{GridJobId, JobStatus, UserCmd, UserEvent};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::{Addr, AnyMsg};
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig, UserConsole};

fn pool_job(secs: u64) -> GridJobSpec {
    GridJobSpec::pool("worker", "/home/jane/worker.exe", Duration::from_secs(secs))
        .with_remote_io(120.0, 64 * 1024)
}

#[test]
fn figure2_glidein_path_runs_pool_jobs() {
    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("siteA", 8), SiteSpec::pbs("siteB", 8)],
        with_personal_pool: true,
        trace: true,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(4, Duration::from_hours(8));
    let console = UserConsole::new(tb.scheduler).submit_many(16, pool_job(1800));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(8));

    let m = tb.world.metrics();
    // Glideins came up at both sites through plain GRAM.
    assert!(
        m.counter("glidein.started") >= 8,
        "only {} glideins",
        m.counter("glidein.started")
    );
    assert!(m.counter("gram.submits") >= 8);
    // All pool jobs ran to completion on glidein machines.
    assert_eq!(m.counter("condor_g.jobs_done"), 16);
    assert_eq!(m.counter("schedd.completed"), 16);
    // Remote system calls flowed back to the shadows (Figure 2's
    // "Redirected System Call Data").
    assert!(
        m.counter("condor.syscall_batches") > 0,
        "no remote I/O happened"
    );
    assert!(m.counter("shadow.io_bytes") > 0);
    for i in 0..16 {
        let h = UserConsole::history_of(&tb.world, node, i);
        assert_eq!(h.last().map(String::as_str), Some("Done"), "job {i}: {h:?}");
    }
    // A finished pool-universe job has left the scheduler's memory and its
    // pool-id maps; its stored record still answers a query.
    assert_eq!(query(&mut tb, GridJobId(0)), JobStatus::Done);
}

/// Ask the testbed's scheduler for `job`'s status, from a component added
/// for the purpose, and return the answer.
fn query(tb: &mut Testbed, job: GridJobId) -> JobStatus {
    struct Asker {
        scheduler: Addr,
        job: GridJobId,
    }
    impl Component for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.scheduler, UserCmd::Query { job: self.job });
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(UserEvent::Status { status, .. }) = msg.downcast_ref::<UserEvent>() {
                let node = ctx.node();
                ctx.store().put(node, "asker/status", status);
            }
        }
    }
    let asker = Asker {
        scheduler: tb.scheduler,
        job,
    };
    tb.world.add_component(tb.submit, "asker", asker);
    let later = tb.world.now() + Duration::from_mins(1);
    tb.world.run_until(later);
    tb.world
        .store()
        .get(tb.submit, "asker/status")
        .expect("Query answered")
}

#[test]
fn glideins_respect_lease_and_idle_timeout() {
    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("siteA", 8)],
        with_personal_pool: true,
        ..TestbedConfig::default()
    });
    // Short 1-hour leases, 30-minute idle timeout, nothing to run.
    let factory = tb.add_glidein_factory(3, Duration::from_hours(1));
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(45));
    // Idle glideins shut themselves down before their lease would end.
    let m = tb.world.metrics();
    assert!(m.counter("glidein.started") >= 3);
    assert!(
        m.counter("condor.startd_exits") >= 3,
        "idle daemons never exited: {}",
        m.counter("condor.startd_exits")
    );
    let _ = factory;
}

#[test]
fn checkpointing_survives_allocation_loss() {
    // Glideins at a churning Condor-pool site: allocations get revoked
    // under running jobs; checkpoint+migrate still finishes everything.
    let mut tb = build(TestbedConfig {
        seed: 77,
        sites: vec![SiteSpec::condor_pool("pool", 12)],
        with_personal_pool: true,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(6, Duration::from_hours(6));
    // 4-hour jobs: longer than the mean time between revocations.
    let console = UserConsole::new(tb.scheduler).submit_many(6, pool_job(4 * 3600));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(4));

    let m = tb.world.metrics();
    assert_eq!(
        m.counter("condor_g.jobs_done"),
        6,
        "vacated={} checkpoints={} glideins={} watchdog={}",
        m.counter("schedd.vacated"),
        m.counter("condor.checkpoints"),
        m.counter("glidein.started"),
        m.counter("shadow.watchdog_vacates"),
    );
    assert!(m.counter("condor.checkpoints") > 0, "never checkpointed");
    let _ = node;
}
