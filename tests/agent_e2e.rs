//! End-to-end agent tests: the full Condor-G stack (Scheduler →
//! GridManager → GRAM → site scheduler → GASS) across simulated sites.

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig, UserConsole};

fn quick_jobs(n: usize, secs: u64, stdout: u64) -> GridJobSpec {
    let _ = n;
    GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_secs(secs)).with_stdout(stdout)
}

fn run_console(tb: &mut Testbed, console: UserConsole, until: Duration) -> NodeId {
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + until);
    node
}

#[test]
fn jobs_complete_across_two_sites() {
    let mut tb = build(TestbedConfig::default());
    let console = UserConsole::new(tb.scheduler).submit_many(10, quick_jobs(10, 1800, 4096));
    let node = run_console(&mut tb, console, Duration::from_hours(4));
    assert_eq!(UserConsole::terminal_count(&tb.world, node), 10);
    for i in 0..10 {
        let h = UserConsole::history_of(&tb.world, node, i);
        assert_eq!(h.last().map(String::as_str), Some("Done"), "job {i}: {h:?}");
        assert!(
            h.contains(&"Active".to_string()),
            "job {i} never ran: {h:?}"
        );
    }
    // stdout of every job staged back to the submit machine's GASS server.
    for i in 0..10 {
        let size = tb
            .world
            .store()
            .get::<u64>(tb.submit, &format!("gass/size/condor_g/out/gj{i}"));
        assert_eq!(size, Some(4096), "job {i} stdout missing");
    }
    // Static broker round-robins over both sites.
    let m = tb.world.metrics();
    assert_eq!(m.counter("condor_g.jobs_done"), 10);
    assert_eq!(m.counter("gram.submits"), 10);
}

#[test]
fn user_log_and_query_work() {
    use condor_g_suite::condor_g::{UserCmd, UserEvent};
    use condor_g_suite::gridsim::{Addr, AnyMsg};

    struct LogReader {
        scheduler: Addr,
    }
    impl Component for LogReader {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_hours(3), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            ctx.send(self.scheduler, UserCmd::GetLog);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(UserEvent::Log { entries }) = msg.downcast_ref::<UserEvent>() {
                let node = ctx.node();
                let count = entries.len() as u64;
                ctx.store().put(node, "log_len", &count);
                let texts: Vec<String> =
                    entries.iter().map(|(_, j, m)| format!("{j} {m}")).collect();
                ctx.store().put(node, "log_texts", &texts);
            }
        }
    }

    let mut tb = build(TestbedConfig::default());
    let console = UserConsole::new(tb.scheduler).submit_many(2, quick_jobs(2, 600, 0));
    tb.world.add_component(tb.submit, "console", console);
    tb.world.add_component(
        tb.submit,
        "logreader",
        LogReader {
            scheduler: tb.scheduler,
        },
    );
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));
    let len: u64 = tb.world.store().get(tb.submit, "log_len").unwrap();
    assert!(len >= 6, "log too short: {len}");
    let texts: Vec<String> = tb.world.store().get(tb.submit, "log_texts").unwrap();
    assert!(texts.iter().any(|t| t.contains("submitted")));
    assert!(texts.iter().any(|t| t.contains("Done")));
}

#[test]
fn cancel_mid_run() {
    let mut tb = build(TestbedConfig::default());
    let mut console = UserConsole::new(tb.scheduler).submit_many(1, quick_jobs(1, 36_000, 0));
    console.cancel_at = Some((Duration::from_mins(30), 0));
    let node = run_console(&mut tb, console, Duration::from_hours(2));
    let h = UserConsole::history_of(&tb.world, node, 0);
    assert_eq!(h.last().map(String::as_str), Some("Removed"), "{h:?}");
    assert_eq!(tb.world.metrics().counter("condor_g.jobs_removed"), 1);
    // The 10-hour job never completed anywhere.
    assert_eq!(tb.world.metrics().counter("site.completed"), 0);
}

#[test]
fn gatekeeper_machine_crash_is_survived() {
    // Failure type 2 (§4.2): "crash of the machine that manages the remote
    // resource". The job keeps running in the site scheduler; Condor-G
    // probes, waits, reconnects, restarts the JobManager, job completes.
    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("solo", 4)],
        ..TestbedConfig::default()
    });
    let console = UserConsole::new(tb.scheduler).submit_many(3, quick_jobs(3, 5400, 1024));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    // Let jobs start, then crash the interface machine for 40 minutes.
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(10));
    let gk_node = tb.sites[0].interface;
    tb.world.crash_node_now(gk_node);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(50));
    tb.world.restart_node_now(gk_node);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(6));
    assert_eq!(UserConsole::terminal_count(&tb.world, node), 3);
    for i in 0..3 {
        let h = UserConsole::history_of(&tb.world, node, i);
        assert_eq!(h.last().map(String::as_str), Some("Done"), "job {i}: {h:?}");
    }
    let m = tb.world.metrics();
    assert!(
        m.counter("gm.jm_restarts_requested") >= 1,
        "no restart was needed?"
    );
    assert_eq!(m.counter("condor_g.jobs_done"), 3);
    // No duplicate executions despite all the retries.
    assert_eq!(m.counter("site.completed"), 3);
}

#[test]
fn network_partition_is_survived() {
    // Failure type 4 (§4.2): the GridManager cannot distinguish a dead
    // resource machine from a partition; it waits and reconnects.
    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("solo", 4)],
        ..TestbedConfig::default()
    });
    let console = UserConsole::new(tb.scheduler).submit_many(2, quick_jobs(2, 5400, 0));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(10));
    // Partition the submit machine from the whole site for 1 hour.
    let site_nodes = vec![tb.sites[0].interface, tb.sites[0].cluster];
    tb.world.network_mut().partition(&[tb.submit], &site_nodes);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(70));
    tb.world.network_mut().heal(&[tb.submit], &site_nodes);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(6));
    assert_eq!(UserConsole::terminal_count(&tb.world, node), 2);
    for i in 0..2 {
        let h = UserConsole::history_of(&tb.world, node, i);
        assert_eq!(h.last().map(String::as_str), Some("Done"), "job {i}: {h:?}");
    }
    // Jobs ran exactly once each: the partition did not duplicate work.
    assert_eq!(tb.world.metrics().counter("site.completed"), 2);
}

/// Boot hook for the submit machine: recover the GASS server, the mailer
/// and the Scheduler (which re-creates the GridManager) from stable storage.
fn recover_submit_machine_on_boot(tb: &mut Testbed) {
    let node = tb.submit;
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
            user_addr: None,
            gm: condor_g_suite::condor_g::gridmanager::GmConfig {
                user: "jane".into(),
                mailer: Some(mailer),
                ..Default::default()
            },
            email_on_termination: false,
        };
        b.add_component(
            "scheduler",
            condor_g_suite::condor_g::Scheduler::recover(config, broker, b.store(), b.node()),
        );
    });
}

#[test]
fn submit_machine_crash_recovers_from_persistent_queue() {
    // Failure type 3 (§4.2): "crash of the machine on which the
    // GridManager is executing". Everything on the submit node dies; the
    // persistent job queue brings it back.
    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("solo", 4)],
        ..TestbedConfig::default()
    });
    let console = UserConsole::new(tb.scheduler).submit_many(3, quick_jobs(3, 7200, 2048));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);

    recover_submit_machine_on_boot(&mut tb);

    // Jobs start, submit machine dies for 30 minutes (jobs keep computing
    // at the site), comes back, reconnects, jobs complete.
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(15));
    tb.world.crash_node_now(node);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(45));
    tb.world.restart_node_now(node);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(8));

    let m = tb.world.metrics();
    assert_eq!(
        m.counter("condor_g.recoveries"),
        1,
        "scheduler never recovered"
    );
    assert_eq!(
        m.counter("condor_g.jobs_done"),
        3,
        "jobs lost across the crash"
    );
    // Each job ran exactly once: recovery reattached rather than resubmit.
    assert_eq!(m.counter("site.completed"), 3);
    assert!(m.counter("gm.job_recoveries") >= 1);
}

#[test]
fn user_log_survives_a_crash_chunk_by_chunk() {
    use condor_g_suite::condor_g::{GridJobId, UserCmd, UserEvent};
    use condor_g_suite::gridsim::{codec, Addr, AnyMsg};
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Vec<(SimTime, GridJobId, String)>;

    /// Lives off the submit machine, so it outlives the crash: asks for the
    /// user log whenever the test pokes it and hands each answer out.
    struct LogReader {
        scheduler: Addr,
        logs: Rc<RefCell<Vec<Log>>>,
    }
    #[derive(Debug)]
    struct Poke;
    impl Component for LogReader {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if msg.is::<Poke>() {
                ctx.send(self.scheduler, UserCmd::GetLog);
            } else if let Some(UserEvent::Log { entries }) = msg.downcast_ref::<UserEvent>() {
                self.logs.borrow_mut().push(entries.clone());
            }
        }
    }

    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("solo", 16)],
        ..TestbedConfig::default()
    });
    // Forty short jobs fill two log chunks and some of a third before the
    // crash; two long ones are still running across it.
    let console = UserConsole::new(tb.scheduler)
        .submit_many(40, quick_jobs(40, 300, 0))
        .submit_many(2, quick_jobs(2, 3 * 3600, 0));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    recover_submit_machine_on_boot(&mut tb);
    let desk = tb.world.add_node("desk");
    let logs = Rc::new(RefCell::new(Vec::new()));
    let reader = tb.world.add_component(
        desk,
        "logreader",
        LogReader {
            scheduler: tb.scheduler,
            logs: Rc::clone(&logs),
        },
    );
    let read_log_at = |tb: &mut Testbed, at: Duration| -> Log {
        tb.world.run_until(SimTime::ZERO + at);
        tb.world.post(reader, Poke);
        tb.world
            .run_until(SimTime::ZERO + at + Duration::from_mins(1));
        logs.borrow_mut().pop().expect("GetLog answered")
    };

    let before = read_log_at(&mut tb, Duration::from_mins(60));
    assert!(before.len() >= 130, "only {} entries", before.len());
    assert_eq!(tb.world.metrics().counter("condor_g.jobs_done"), 40);
    tb.world.crash_node_now(node);
    tb.world.run_until(SimTime::ZERO + Duration::from_mins(90));
    tb.world.restart_node_now(node);

    // Every entry written before the crash is read back, in order, and
    // recovery's own entries follow them.
    let recovered = read_log_at(&mut tb, Duration::from_mins(91));
    assert_eq!(tb.world.metrics().counter("condor_g.recoveries"), 1);
    assert_eq!(recovered[..before.len()], before[..]);
    let appended = &recovered[before.len()..];
    assert_eq!(appended.len(), 2, "{appended:?}");
    assert!(appended.iter().all(|(_, _, m)| m.contains("recovered")));

    // The long jobs' later status changes extend the same log...
    let last = read_log_at(&mut tb, Duration::from_hours(8));
    assert_eq!(tb.world.metrics().counter("condor_g.jobs_done"), 42);
    assert_eq!(last[..recovered.len()], recovered[..]);
    assert!(last[recovered.len()..]
        .iter()
        .any(|(_, _, m)| m.contains("Done")));

    // ...and on disk each landed in its chunk: what the store holds is the
    // whole-chunk encoding of the log, sixty-four entries a key.
    let chunks: Vec<_> = last.chunks(64).collect();
    assert!(chunks.len() >= 3);
    assert_eq!(
        tb.world
            .store()
            .keys_with_prefix(node, "condor_g/jane/log/")
            .len(),
        chunks.len()
    );
    for (i, chunk) in chunks.iter().enumerate() {
        let owned: Vec<(u64, u64, String)> = chunk
            .iter()
            .map(|(t, j, m)| (t.micros(), j.0, m.clone()))
            .collect();
        assert_eq!(
            tb.world
                .store()
                .get_bytes(node, &format!("condor_g/jane/log/{i}")),
            Some(codec::to_bytes(&owned).as_slice()),
            "chunk {i}"
        );
    }
}

#[test]
fn termination_emails_are_sent_when_enabled() {
    use condor_g_suite::condor_g::Mailer;
    let mut tb = build(TestbedConfig::default());
    // Rebuild the scheduler with e-mail notifications on (the harness
    // default keeps test inboxes quiet).
    let config = condor_g_suite::condor_g::scheduler::SchedulerConfig {
        user: "jane".into(),
        credential: tb.proxy.clone(),
        gass: tb.gass,
        pool_schedd: None,
        mailer: Some(tb.mailer),
        user_addr: None,
        gm: condor_g_suite::condor_g::gridmanager::GmConfig {
            user: "jane".into(),
            ..Default::default()
        },
        email_on_termination: true,
    };
    let broker = Box::new(condor_g_suite::condor_g::StaticListBroker::new(
        tb.sites
            .iter()
            .map(|s| condor_g_suite::condor_g::GatekeeperInfo {
                site: s.name.clone(),
                addr: s.gatekeeper,
                ad: condor_g_suite::classads::ClassAd::new(),
            })
            .collect(),
    ));
    let node = tb.submit;
    let scheduler = tb.world.add_component(
        node,
        "scheduler2",
        condor_g_suite::condor_g::Scheduler::new(config, broker),
    );
    let console = UserConsole::new(scheduler).submit_many(3, quick_jobs(3, 600, 0));
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(2));
    let inbox: Vec<(String, String)> = tb
        .world
        .store()
        .get(tb.mail_node, &Mailer::inbox_key("jane"))
        .unwrap_or_default();
    assert_eq!(inbox.len(), 3, "one termination email per job: {inbox:?}");
    assert!(inbox.iter().all(|(s, _)| s.contains("Done")));
}

#[test]
fn queued_jobs_migrate_to_free_sites() {
    // §4.4: "Monitoring of actual queuing and execution times allows for
    // the tuning of where to submit subsequent jobs and to migrate queued
    // jobs." One site is saturated for 10 hours; jobs landed there by the
    // static round-robin must migrate to the idle site instead of waiting.
    use condor_g_suite::gridsim::Addr;
    use condor_g_suite::gridsim::AnyMsg;
    use condor_g_suite::site::{JobSpec, LrmRequest};

    struct Filler {
        lrm: Addr,
    }
    impl Component for Filler {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..16 {
                ctx.send(
                    self.lrm,
                    LrmRequest::Submit {
                        client_job: i,
                        spec: JobSpec::simple(Duration::from_hours(10), "locals"),
                    },
                );
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {}
    }

    let mut tb = build(TestbedConfig {
        sites: vec![SiteSpec::pbs("jammed", 8), SiteSpec::pbs("idle", 8)],
        gm: condor_g_suite::condor_g::gridmanager::GmConfig {
            user: "jane".into(),
            migrate_pending_after: Some(Duration::from_mins(20)),
            ..Default::default()
        },
        ..TestbedConfig::default()
    });
    let filler_lrm = tb.sites[0].lrm;
    let filler_node = tb.sites[0].cluster;
    tb.world
        .add_component(filler_node, "filler", Filler { lrm: filler_lrm });
    // 8 half-hour jobs: round-robin parks 4 behind the 10-hour backlog.
    let console = UserConsole::new(tb.scheduler).submit_many(8, quick_jobs(8, 1800, 0));
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));

    let m = tb.world.metrics();
    assert!(
        m.counter("gm.migrations") >= 4,
        "no migrations: {}",
        m.counter("gm.migrations")
    );
    assert_eq!(
        m.counter("condor_g.jobs_done"),
        8,
        "jobs stranded in the jam"
    );
    // Everything finished hours before the jammed site would have freed up.
    let idle_jobs = m
        .histogram("site.idle.cpu_seconds")
        .map(|h| h.count())
        .unwrap_or(0);
    assert_eq!(
        idle_jobs, 8,
        "all user jobs should have ended up at the idle site"
    );
}
