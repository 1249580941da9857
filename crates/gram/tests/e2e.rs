//! End-to-end GRAM tests: client ↔ gatekeeper ↔ jobmanager ↔ site
//! scheduler ↔ GASS, including the exactly-once and crash-recovery
//! behaviours the paper's §3.2 and §4.2 claim.

use gass::{FileData, GassServer, GassUrl};
use gram::proto::{GramReply, GramRequest, JmMsg, JobContact};
use gram::{Gatekeeper, RslSpec, SubmitSession};
use gridsim::fault::FaultPlan;
use gridsim::prelude::*;
use gridsim::rng::Dist;
use gridsim::{AnyMsg, Config, World};
use gsi::{CertificateAuthority, GridMap, ProxyCredential};
use site::policy::Fifo;
use site::{Lrm, LrmRequest};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A scripted GRAM client: submits `jobs` with retransmission, commits on
/// reply, records every callback, optionally asks for a JobManager restart
/// at a scripted time (crash-recovery tests).
struct TestClient {
    gatekeeper: Addr,
    gass_url: GassUrl,
    credential: ProxyCredential,
    jobs: Vec<RslSpec>,
    sessions: BTreeMap<u64, SubmitSession>,
    /// seq -> callbacks seen.
    callbacks: BTreeMap<u64, Vec<String>>,
    /// contact -> seq.
    contacts: BTreeMap<u64, u64>,
    retransmit: Option<Duration>,
    /// (when, contact_seq) — send RestartJobManager for that job.
    restart_at: Option<Duration>,
    cancel_at: Option<(Duration, u64)>,
    /// When to retransmit job 0's submit once more, answered or not.
    resubmit_at: Option<Duration>,
    jobmanagers: BTreeMap<u64, Addr>,
}

impl TestClient {
    fn new(gatekeeper: Addr, gass_url: GassUrl, credential: ProxyCredential) -> TestClient {
        TestClient {
            gatekeeper,
            gass_url,
            credential,
            jobs: Vec::new(),
            sessions: BTreeMap::new(),
            callbacks: BTreeMap::new(),
            contacts: BTreeMap::new(),
            retransmit: Some(Duration::from_secs(10)),
            restart_at: None,
            cancel_at: None,
            resubmit_at: None,
            jobmanagers: BTreeMap::new(),
        }
    }

    fn persist(&self, ctx: &mut Ctx<'_>) {
        let node = ctx.node();
        let flat: Vec<(u64, Vec<String>)> = self
            .callbacks
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        ctx.store().put(node, "callbacks", &flat);
    }
}

const RETRY_BASE: u64 = 1_000_000;
const RESTART_TAG: u64 = 9_000_000;
const CANCEL_TAG: u64 = 9_000_001;
const RESUBMIT_TAG: u64 = 9_000_002;

impl Component for TestClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, rsl) in self.jobs.drain(..).enumerate() {
            let seq = i as u64;
            let mut session = SubmitSession::new(
                seq,
                rsl.to_string(),
                self.credential.clone(),
                ctx.self_addr(),
                self.gass_url.clone(),
            );
            ctx.send(self.gatekeeper, session.request());
            if let Some(rt) = self.retransmit {
                ctx.set_timer(rt, RETRY_BASE + seq);
            }
            self.sessions.insert(seq, session);
        }
        if let Some(at) = self.restart_at {
            ctx.set_timer(at, RESTART_TAG);
        }
        if let Some((at, _)) = self.cancel_at {
            ctx.set_timer(at, CANCEL_TAG);
        }
        if let Some(at) = self.resubmit_at {
            ctx.set_timer(at, RESUBMIT_TAG);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if (RETRY_BASE..RESTART_TAG).contains(&tag) {
            let seq = tag - RETRY_BASE;
            if let Some(s) = self.sessions.get_mut(&seq) {
                if s.awaiting_reply() && s.attempts < 50 {
                    ctx.send(self.gatekeeper, s.request());
                    if let Some(rt) = self.retransmit {
                        ctx.set_timer(rt, tag);
                    }
                }
            }
        } else if tag == RESTART_TAG {
            // Ask the gatekeeper to restart the JobManager for job 0.
            if let Some((&contact, &seq)) = self.contacts.iter().next() {
                let _ = seq;
                ctx.send(
                    self.gatekeeper,
                    GramRequest::RestartJobManager {
                        contact: JobContact(contact),
                        credential: self.credential.clone(),
                        callback: ctx.self_addr(),
                        gass: self.gass_url.clone(),
                        stdout_have: 0,
                        capability: None,
                    },
                );
            }
        } else if tag == RESUBMIT_TAG {
            if let Some(s) = self.sessions.get_mut(&0) {
                ctx.send(self.gatekeeper, s.request());
            }
        } else if tag == CANCEL_TAG {
            if let Some((_, seq)) = self.cancel_at {
                if let Some(&jm) = self.jobmanagers.get(&seq) {
                    ctx.send(jm, JmMsg::Cancel);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(reply) = msg.downcast_ref::<GramReply>() {
            match reply {
                GramReply::Submitted {
                    seq,
                    contact,
                    jobmanager,
                } => {
                    self.contacts.insert(contact.0, *seq);
                    self.jobmanagers.insert(*seq, *jobmanager);
                    // The latest answer, for tests to read back.
                    let node = ctx.node();
                    ctx.store()
                        .put(node, &format!("submitted/{seq}"), &(contact.0, *jobmanager));
                    if let Some(s) = self.sessions.get_mut(seq) {
                        use gram::client::SubmitAction;
                        if let SubmitAction::SendCommit { jobmanager, .. } = s.on_reply(reply) {
                            ctx.send(jobmanager, JmMsg::Commit);
                        }
                    }
                }
                GramReply::SubmitFailed { seq, error } => {
                    self.callbacks
                        .entry(*seq)
                        .or_default()
                        .push(format!("SubmitFailed:{error}"));
                    self.persist(ctx);
                }
                GramReply::Restarted {
                    contact,
                    jobmanager,
                    ..
                } => {
                    if let Some(&seq) = self.contacts.get(&contact.0) {
                        self.jobmanagers.insert(seq, *jobmanager);
                        // Re-forward credential and GASS location, as the
                        // GridManager does after reconnecting.
                        ctx.send(
                            *jobmanager,
                            JmMsg::RefreshCredential {
                                credential: self.credential.clone(),
                            },
                        );
                    }
                }
                _ => {}
            }
            return;
        }
        if let Some(JmMsg::Callback { contact, state, .. }) = msg.downcast_ref::<JmMsg>() {
            let seq = self.contacts.get(&contact.0).copied().unwrap_or(u64::MAX);
            self.callbacks
                .entry(seq)
                .or_default()
                .push(format!("{state:?}"));
            self.persist(ctx);
            if state.is_terminal() {
                ctx.send(from, JmMsg::DoneAck);
            }
        }
    }
}

/// Every `LrmRequest::Status` that reached the site scheduler: the job's
/// local id and the arrival time.
type Polls = Rc<RefCell<Vec<(u64, SimTime)>>>;

/// The site scheduler, noting each status poll that reaches it.
struct PollTap {
    lrm: Lrm,
    polls: Polls,
}

impl Component for PollTap {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.lrm.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(LrmRequest::Status { local_id }) = msg.downcast_ref::<LrmRequest>() {
            self.polls.borrow_mut().push((*local_id, ctx.now()));
        }
        self.lrm.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId, tag: u64) {
        self.lrm.on_timer(ctx, timer, tag);
    }
}

struct Rig {
    world: World,
    client_node: NodeId,
    gk_node: NodeId,
    cluster_node: NodeId,
    client: Addr,
    gatekeeper: Addr,
    polls: Polls,
}

/// Build a standard rig: submit machine (client + GASS server) and an
/// execution site (gatekeeper + LRM on separate nodes).
fn rig(seed: u64, jobs: Vec<RslSpec>, configure: impl FnOnce(&mut TestClient, &mut World)) -> Rig {
    let mut ca = CertificateAuthority::new("/CN=Globus CA", 1);
    let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
    let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(24));
    let mut gridmap = GridMap::new();
    gridmap.add("/CN=jane", "jane");

    let mut w = World::new(Config::default().seed(seed).with_trace());
    let submit = w.add_node("submit.wisc.edu");
    let interface = w.add_node("gatekeeper.site.edu");
    let cluster = w.add_node("cluster.site.edu");

    let gass = w.add_component(
        submit,
        "gass",
        GassServer::new(ca.trust_root()).preload("/home/jane/sim.exe", FileData::inline("ELF")),
    );
    let polls = Polls::default();
    let tap = PollTap {
        lrm: Lrm::new("pbs", 4, Fifo),
        polls: polls.clone(),
    };
    let lrm = w.add_component(cluster, "lrm", tap);
    let gk = w.add_component(
        interface,
        "gatekeeper",
        Gatekeeper::new("site", ca.trust_root(), gridmap.clone(), lrm),
    );
    // Boot hook so the interface machine can be crash-restarted in tests.
    {
        let trust = ca.trust_root();
        let gm = gridmap.clone();
        w.set_boot(interface, move |b| {
            b.add_component(
                "gatekeeper",
                Gatekeeper::new("site", trust.clone(), gm.clone(), lrm)
                    .recover(b.store(), b.node()),
            );
        });
    }

    let gass_url = GassUrl::gass(gass, "");
    let mut client = TestClient::new(gk, gass_url, cred);
    client.jobs = jobs;
    configure(&mut client, &mut w);
    let client_addr = w.add_component(submit, "client", client);
    Rig {
        world: w,
        client_node: submit,
        gk_node: interface,
        cluster_node: cluster,
        client: client_addr,
        gatekeeper: gk,
        polls,
    }
}

/// The minutes between successive status polls for `local_id`, rounded.
fn poll_gaps(polls: &Polls, local_id: u64) -> Vec<u64> {
    let times: Vec<SimTime> = polls
        .borrow()
        .iter()
        .filter(|(id, _)| *id == local_id)
        .map(|(_, at)| *at)
        .collect();
    times
        .windows(2)
        .map(|w| (w[1].since(w[0]).as_secs_f64() / 60.0).round() as u64)
        .collect()
}

/// When the first trace record of `kind` whose detail ends in `suffix`
/// was written.
fn traced_at(w: &World, kind: &str, suffix: &str) -> SimTime {
    w.trace()
        .of_kind(kind)
        .find(|e| e.detail.ends_with(suffix))
        .unwrap_or_else(|| panic!("no {kind} record ending {suffix:?}"))
        .time
}

fn job_rsl(gass: &GassUrl, runtime_secs: u64, stdout_size: u64) -> RslSpec {
    let exe = GassUrl::gass(gass.server, "/home/jane/sim.exe");
    let out = GassUrl::gass(gass.server, "/home/jane/out.dat");
    let mut spec = RslSpec::job(&exe.to_string(), Duration::from_secs(runtime_secs));
    if stdout_size > 0 {
        spec = spec.with_stdout(&out.to_string(), stdout_size);
    }
    spec
}

fn callbacks_of(w: &World, node: NodeId, seq: u64) -> Vec<String> {
    let flat: Vec<(u64, Vec<String>)> = w.store().get(node, "callbacks").unwrap_or_default();
    flat.into_iter()
        .find(|(k, _)| *k == seq)
        .map(|(_, v)| v)
        .unwrap_or_default()
}

#[test]
fn figure1_happy_path() {
    // The Figure-1 ladder: submit -> stage-in -> pending -> active ->
    // stage-out -> done, with stdout landing back on the submit machine.
    let placeholder = GassUrl::gass(
        Addr {
            node: NodeId(0),
            comp: CompId(0),
        },
        "",
    );
    let _ = placeholder;
    let r = rig(7, vec![], |client, _| {
        let jobs = vec![job_rsl(&client.gass_url, 600, 4096)];
        client.jobs = jobs;
    });
    let mut w = r.world;
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(
        cbs,
        vec!["StageIn", "Pending", "Active", "StageOut", "Done"],
        "callback ladder mismatch: {cbs:?}"
    );
    // stdout visible on the submit machine's GASS server.
    assert_eq!(
        w.store()
            .get::<u64>(r.client_node, "gass/size/home/jane/out.dat"),
        Some(4096)
    );
    assert_eq!(w.metrics().counter("gram.submits"), 1);
    assert_eq!(w.metrics().counter("site.completed"), 1);
    // The trace captured the whole protocol ladder for the F1 experiment.
    assert!(w.trace().of_kind("gram.submit").count() == 1);
    assert!(w.trace().of_kind("lrm.start").count() == 1);
}

#[test]
fn many_jobs_all_complete() {
    let r = rig(8, vec![], |client, _| {
        let jobs = (0..10)
            .map(|_| job_rsl(&client.gass_url, 1200, 1024))
            .collect();
        client.jobs = jobs;
    });
    let mut w = r.world;
    w.run_until_quiescent();
    for seq in 0..10 {
        let cbs = callbacks_of(&w, r.client_node, seq);
        assert_eq!(
            cbs.last().map(String::as_str),
            Some("Done"),
            "job {seq}: {cbs:?}"
        );
    }
    // 10 jobs on 4 CPUs: three serial waves.
    assert_eq!(w.metrics().counter("site.completed"), 10);
    assert!(w.now() >= SimTime::ZERO + Duration::from_secs(3 * 1200));
}

#[test]
fn two_phase_is_exactly_once_under_reply_loss() {
    // Drop every gatekeeper->client message for the first 45 s: the client
    // keeps retransmitting; the server must not duplicate the job.
    let r = rig(9, vec![], |client, w| {
        client.jobs = vec![job_rsl(&client.gass_url, 60, 0)];
        let gk_node = NodeId(1);
        let submit = NodeId(0);
        w.network_mut().set_link_loss(gk_node, submit, 1.0);
    });
    let mut w = r.world;
    w.run_until(SimTime::ZERO + Duration::from_secs(45));
    w.network_mut().set_link_loss(r.gk_node, r.client_node, 0.0);
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    // Several submits arrived, but only one job ever existed.
    assert!(w.metrics().counter("gram.duplicate_submits") >= 1);
    assert_eq!(w.metrics().counter("gram.submits"), 1);
    assert_eq!(w.metrics().counter("site.completed"), 1);
}

#[test]
fn one_phase_duplicates_under_reply_loss() {
    // Same scenario against a one-phase gatekeeper: every retransmission
    // becomes a fresh job. This is the X1 baseline.
    let mut ca = CertificateAuthority::new("/CN=Globus CA", 1);
    let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
    let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(24));
    let mut gridmap = GridMap::new();
    gridmap.add("/CN=jane", "jane");
    let mut w = World::new(Config::default().seed(10));
    let submit = w.add_node("submit");
    let interface = w.add_node("gk");
    let cluster = w.add_node("cluster");
    let gass = w.add_component(
        submit,
        "gass",
        GassServer::new(ca.trust_root()).preload("/home/jane/sim.exe", FileData::inline("ELF")),
    );
    let lrm = w.add_component(cluster, "lrm", Lrm::new("pbs", 8, Fifo));
    let gk = w.add_component(
        interface,
        "gatekeeper",
        Gatekeeper::new("site", ca.trust_root(), gridmap, lrm).one_phase(),
    );
    let gass_url = GassUrl::gass(gass, "");
    let mut client = TestClient::new(gk, gass_url.clone(), cred);
    // Site-local executable: no staging, so the duplicated JobManagers all
    // reach the scheduler even while the link back to the client is down.
    client.jobs = vec![RslSpec::job("/site/bin/sim", Duration::from_secs(60))];
    w.network_mut().set_link_loss(interface, submit, 1.0);
    w.add_component(submit, "client", client);
    w.run_until(SimTime::ZERO + Duration::from_secs(45));
    w.network_mut().set_link_loss(interface, submit, 0.0);
    w.run_until_quiescent();
    // ~5 retransmissions in 45 s at a 10 s retry interval -> ~5 jobs ran.
    let ran = w.metrics().counter("site.completed");
    assert!(ran > 1, "expected duplicated execution, saw {ran}");
    assert_eq!(w.metrics().counter("gram.submits"), ran);
}

#[test]
fn exactly_once_when_retransmits_cross_a_gatekeeper_crash() {
    // The hardest exactly-once case: the Submitted reply is lost AND the
    // gatekeeper machine crashes before any retransmission gets through.
    // The recovered gatekeeper must answer retransmissions from its
    // persisted (DN, seq) table — same contact, one job, no loss.
    let r = rig(21, vec![], |client, w| {
        client.jobs = vec![job_rsl(&client.gass_url, 60, 0)];
        w.network_mut().set_link_loss(NodeId(1), NodeId(0), 1.0);
    });
    let mut w = r.world;
    // First submit processed, reply lost; client is retransmitting.
    w.run_until(SimTime::ZERO + Duration::from_secs(12));
    w.crash_node_now(r.gk_node);
    w.run_until(SimTime::ZERO + Duration::from_secs(30));
    w.restart_node_now(r.gk_node);
    // Retransmissions now reach the recovered incarnation, replies still
    // dropped until t=60s.
    w.run_until(SimTime::ZERO + Duration::from_secs(60));
    w.network_mut().set_link_loss(r.gk_node, r.client_node, 0.0);
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    assert_eq!(
        w.metrics().counter("gram.submits"),
        1,
        "dedup table lost in crash"
    );
    assert!(w.metrics().counter("gram.duplicate_submits") >= 1);
    assert_eq!(w.metrics().counter("site.completed"), 1);
    let _ = (r.client, r.gatekeeper);
}

#[test]
fn a_retransmitted_submit_whose_jobmanager_died_respawns_it() {
    let r = rig(12, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 600, 0)];
        client.resubmit_at = Some(Duration::from_secs(180));
    });
    let mut w = r.world;
    w.run_until(SimTime::ZERO + Duration::from_secs(120));
    let (contact, first): (u64, Addr) = w.store().get(r.client_node, "submitted/0").unwrap();
    let name = format!("jm-{}", JobContact(contact));
    assert_eq!(w.lookup(r.gk_node, &name), Some(first));
    // Its JobManager dies mid-run; then the same (DN, seq) comes again.
    w.kill_component_now(first);
    assert_eq!(w.lookup(r.gk_node, &name), None);
    w.run_until(SimTime::ZERO + Duration::from_secs(240));
    assert_eq!(w.metrics().counter("gram.duplicate_submits"), 1);
    let (again, jobmanager): (u64, Addr) = w.store().get(r.client_node, "submitted/0").unwrap();
    assert_eq!(again, contact);
    assert_eq!(w.lookup(r.gk_node, &name), Some(jobmanager));
    // The respawned JobManager sees the job through, once.
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    assert_eq!(w.metrics().counter("gram.submits"), 1);
    assert_eq!(w.metrics().counter("site.completed"), 1);
}

#[test]
fn gatekeeper_crash_recovery_resumes_the_job() {
    // Crash the interface machine while the job runs; the cluster keeps
    // computing. After restart, a RestartJobManager request reattaches and
    // the client still sees Done.
    let r = rig(11, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 1800, 2048)];
        client.restart_at = Some(Duration::from_mins(40));
        client.retransmit = Some(Duration::from_secs(10));
    });
    let mut w = r.world;
    // Let the job get submitted and start.
    w.run_until(SimTime::ZERO + Duration::from_mins(5));
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert!(
        cbs.contains(&"Active".to_string()),
        "job not started yet: {cbs:?}"
    );
    // Interface machine crashes for 30 min (job finishes at t=30min while
    // the gatekeeper is down).
    w.crash_node_now(r.gk_node);
    w.run_until(SimTime::ZERO + Duration::from_mins(35));
    w.restart_node_now(r.gk_node);
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    assert_eq!(w.metrics().counter("gram.jm_restarts"), 1);
    // stdout staged despite the crash.
    assert_eq!(
        w.store()
            .get::<u64>(r.client_node, "gass/size/home/jane/out.dat"),
        Some(2048)
    );
    let _ = (r.client, r.gatekeeper);
}

#[test]
fn a_completion_learned_by_poll_counts_once() {
    // The interface machine loses the cluster from minute 8 to 12, so the
    // LRM's Completed event (minute 10) is lost and a status poll learns
    // of it: the job is counted and staged out as if the event had come.
    let r = rig(17, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 600, 2048)];
    });
    let mut w = r.world;
    w.apply_fault_plan(&FaultPlan::new().partition_window(
        vec![r.gk_node],
        vec![r.cluster_node],
        SimTime::ZERO + Duration::from_mins(8),
        Duration::from_mins(4),
    ));
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(
        cbs,
        vec!["StageIn", "Pending", "Active", "StageOut", "Done"]
    );
    let m = w.metrics();
    assert!(m.counter("net.lost") > 0, "the partition dropped nothing");
    assert_eq!(m.counter("site.completed"), 1);
    assert_eq!(m.counter("gram.jobs_started"), 1);
    assert_eq!(m.counter("gram.jobs_completed"), 1);
    assert_eq!(m.counter("gram.staged_out"), 1);
}

#[test]
fn a_quiet_job_is_polled_ever_more_rarely() {
    // Nothing happens at the site for the three hours the job runs, so
    // each poll waits twice as long as the one before, up to 40 minutes:
    // 6 polls instead of one every 5 minutes (36).
    let r = rig(18, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 3 * 3600, 0)];
    });
    let mut w = r.world;
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    assert_eq!(r.polls.borrow().len(), 6, "{:?}", r.polls);
    let first = r.polls.borrow()[0].1.since(SimTime::ZERO).as_secs_f64();
    assert!((300.0..306.0).contains(&first), "first poll at {first} s");
    assert_eq!(poll_gaps(&r.polls, 0), [10, 20, 40, 40, 40]);
}

#[test]
fn a_lost_completion_is_noticed_within_the_longest_poll_gap() {
    // The job ends at minute 156, just after its minute-155 poll, and the
    // interface machine loses the cluster over that minute, so the LRM's
    // Completed event is lost. The 40-minute poll that follows learns of
    // it: the job is staged out no later than 40 minutes and a round trip
    // after it ended.
    let r = rig(19, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 156 * 60, 2048)];
    });
    let mut w = r.world;
    w.apply_fault_plan(&FaultPlan::new().partition_window(
        vec![r.gk_node],
        vec![r.cluster_node],
        SimTime::ZERO + Duration::from_secs(155 * 60 + 30),
        Duration::from_mins(2),
    ));
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(
        cbs,
        vec!["StageIn", "Pending", "Active", "StageOut", "Done"]
    );
    assert!(
        w.metrics().counter("net.lost") > 0,
        "the partition dropped nothing"
    );
    let ended = traced_at(&w, "lrm.done", "");
    let done = traced_at(&w, "jm.state", "-> Done");
    let late = done.since(ended);
    assert!(
        late <= Duration::from_mins(40) + Duration::from_secs(1),
        "Done {late:?} after the job ended"
    );
    assert_eq!(w.metrics().counter("gram.jobs_completed"), 1);
}

#[test]
fn an_lrm_event_starts_the_poll_backoff_over() {
    // Two four-CPU jobs on four CPUs: the second waits three hours in the
    // queue, its polls backing off to 40 minutes. Its Running event puts
    // the gap back to 5 minutes, so the poll after the one already armed
    // comes 10 minutes later and the doubling starts over.
    let r = rig(20, vec![], |client, _| {
        let job = job_rsl(&client.gass_url, 3 * 3600, 0).with_count(4);
        client.jobs = vec![job.clone(), job];
    });
    let mut w = r.world;
    w.run_until_quiescent();
    for seq in 0..2 {
        let cbs = callbacks_of(&w, r.client_node, seq);
        assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    }
    let waited = w
        .trace()
        .of_kind("lrm.start")
        .last()
        .map(|e| e.detail.clone())
        .expect("two starts");
    let local_id: u64 = waited
        .split(' ')
        .nth(2)
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no job id in {waited:?}"));
    // Queued: 5, 15, 35, 75, 115, 155, 195 minutes. Running from minute
    // 180: 205, 225, 265, 305, 345; done at 360.
    assert_eq!(
        poll_gaps(&r.polls, local_id),
        [10, 20, 40, 40, 40, 40, 10, 20, 40, 40, 40]
    );
}

#[test]
fn a_cancel_during_the_lrm_submit_removes_the_site_job() {
    // A minute each way between the interface machine and the cluster,
    // so the Cancel reaches the JobManager 30 s in, while its LRM Submit
    // is still in flight. The JobManager holds it until the Submitted
    // reply names the job, cancels that, and announces Removed when the
    // LRM has the job out; announcing at once would leave the site
    // running a job the client saw removed.
    let r = rig(12, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 600, 0)];
        client.cancel_at = Some((Duration::from_secs(30), 0));
    });
    let mut w = r.world;
    for (from, to) in [(r.gk_node, r.cluster_node), (r.cluster_node, r.gk_node)] {
        w.network_mut()
            .set_link_latency(from, to, Dist::Constant(60.0));
    }
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Removed"), "{cbs:?}");
    assert_eq!(w.metrics().counter("site.cancelled"), 1);
    assert_eq!(w.metrics().counter("site.completed"), 0);
}

#[test]
fn split_stage_in_waits_for_the_file_still_arriving() {
    // The executable and stdin come from two GASS servers, each behind
    // its own 100 KB/s link. Link `a` dies while both 64 MB files are
    // crossing: the executable's flow is cut and its payload dropped,
    // and nobody is told. The stdin is still arriving over `b`. A re-drive fetches every file, so the
    // JobManager's retry timer does not re-drive while the stdin
    // arrives, which would put a second copy of it on `b`; it re-drives
    // once nothing is arriving. Re-driving on every timer regardless of
    // the flows took 20 flows and 11 retries.
    let r = rig(13, vec![], |client, w| {
        let site = client.gatekeeper.node;
        let trust = CertificateAuthority::new("/CN=Globus CA", 1).trust_root();
        let urls: Vec<String> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let node = w.add_node(&format!("{name}.data.edu"));
                let link = w.network_mut().add_flow_link(name, 100_000.0, 0.030);
                w.network_mut().set_flow_route(node, site, &[link]);
                let file = FileData::bulk(64_000_000, 7);
                let server = GassServer::new(trust.clone()).preload("/big", file);
                let gass = w.add_component(node, "gass", server);
                GassUrl::gass(gass, "/big").to_string()
            })
            .collect();
        let spec = RslSpec::job(&urls[0], Duration::from_mins(10)).with_stdin(&urls[1]);
        client.jobs = vec![spec];
    });
    let mut w = r.world;
    let down = SimTime::ZERO + Duration::from_mins(1);
    w.apply_fault_plan(&FaultPlan::new().link_down_window("a", down, Duration::from_mins(5)));
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    let m = w.metrics();
    assert_eq!(m.counter("net.flows_aborted"), 1, "the executable's");
    assert_eq!(m.counter("net.lost"), 0);
    // The two first flows, then one re-drive of both files.
    assert_eq!(m.counter("gram.stage_retries"), 1);
    assert_eq!(m.counter("net.flows_started"), 4);
    assert_eq!(m.counter("site.completed"), 1);
}

#[test]
fn cancel_removes_job() {
    let r = rig(12, vec![], |client, _| {
        client.jobs = vec![job_rsl(&client.gass_url, 7200, 0)];
        client.cancel_at = Some((Duration::from_mins(10), 0));
    });
    let mut w = r.world;
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Removed"), "{cbs:?}");
    assert_eq!(w.metrics().counter("site.completed"), 0);
    assert_eq!(w.metrics().counter("site.cancelled"), 1);
}

#[test]
fn unauthorized_user_rejected() {
    // A user with a valid certificate but no gridmap entry must be turned
    // away with AuthorizationFailed.
    let mut ca = CertificateAuthority::new("/CN=Globus CA", 1);
    let mallory = ca.issue_identity("/CN=mallory", Duration::from_days(30));
    let cred = mallory.new_proxy(SimTime::ZERO, Duration::from_hours(24));
    let gridmap = GridMap::new(); // empty: nobody authorized
    let mut w = World::new(Config::default().seed(13));
    let submit = w.add_node("submit");
    let interface = w.add_node("gk");
    let cluster = w.add_node("cluster");
    let gass = w.add_component(submit, "gass", GassServer::new(ca.trust_root()));
    let lrm = w.add_component(cluster, "lrm", Lrm::new("pbs", 4, Fifo));
    let gk = w.add_component(
        interface,
        "gatekeeper",
        Gatekeeper::new("site", ca.trust_root(), gridmap, lrm),
    );
    let gass_url = GassUrl::gass(gass, "");
    let mut client = TestClient::new(gk, gass_url.clone(), cred);
    client.jobs = vec![RslSpec::job("/bin/true", Duration::from_secs(1))];
    client.retransmit = None;
    let cn = submit;
    w.add_component(submit, "client", client);
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, cn, 0);
    assert_eq!(cbs.len(), 1);
    assert!(
        cbs[0].contains("no gridmap entry for /CN=mallory"),
        "{cbs:?}"
    );
    assert_eq!(w.metrics().counter("gram.rejected"), 1);
}

#[test]
fn capability_grants_access_without_gridmap_entry() {
    // §3.2 work-in-progress: "authorization decisions to be made on the
    // basis of capabilities supplied with the request". A visitor with no
    // gridmap entry runs a job by presenting a site-signed capability;
    // without one (or with a forged one) they are refused.
    use gridsim::time::SimTime;
    use gsi::CapabilityIssuer;

    let mut ca = CertificateAuthority::new("/CN=Globus CA", 1);
    let visitor = ca.issue_identity("/CN=visiting scientist", Duration::from_days(30));
    let cred = visitor.new_proxy(SimTime::ZERO, Duration::from_hours(24));
    let issuer = CapabilityIssuer::new("site", 9);
    let rogue = CapabilityIssuer::new("site", 10);

    let run = |capability: Option<gsi::Capability>| -> (u64, String) {
        let mut w = World::new(Config::default().seed(50));
        let submit = w.add_node("submit");
        let interface = w.add_node("gk");
        let cluster = w.add_node("cluster");
        let gass = w.add_component(
            submit,
            "gass",
            GassServer::new(ca.trust_root()).preload("/exe", FileData::inline("ELF")),
        );
        let lrm = w.add_component(cluster, "lrm", Lrm::new("site", 4, Fifo));
        // Empty gridmap: only capabilities can authorize.
        let gk = w.add_component(
            interface,
            "gatekeeper",
            Gatekeeper::new("site", ca.trust_root(), GridMap::new(), lrm)
                .with_capability_key(issuer.public()),
        );
        struct CapClient {
            gatekeeper: Addr,
            credential: ProxyCredential,
            gass: GassUrl,
            capability: Option<gsi::Capability>,
        }
        impl Component for CapClient {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let mut s = SubmitSession::new(
                    0,
                    RslSpec::job("/site/task", Duration::from_mins(5)).to_string(),
                    self.credential.clone(),
                    ctx.self_addr(),
                    self.gass.clone(),
                );
                if let Some(cap) = self.capability.clone() {
                    s = s.with_capability(cap);
                }
                ctx.send(self.gatekeeper, s.request());
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let node = ctx.node();
                if let Some(GramReply::Submitted { jobmanager, .. }) =
                    msg.downcast_ref::<GramReply>()
                {
                    ctx.send(*jobmanager, JmMsg::Commit);
                } else if let Some(GramReply::SubmitFailed { error, .. }) =
                    msg.downcast_ref::<GramReply>()
                {
                    ctx.store().put(node, "refusal", &error.to_string());
                }
            }
        }
        w.add_component(
            submit,
            "client",
            CapClient {
                gatekeeper: gk,
                credential: cred.clone(),
                gass: GassUrl::gass(gass, ""),
                capability,
            },
        );
        w.run_until_quiescent();
        let refusal: String = w.store().get(submit, "refusal").unwrap_or_default();
        (w.metrics().counter("site.completed"), refusal)
    };

    // No capability: refused.
    let (done, refusal) = run(None);
    assert_eq!(done, 0);
    assert!(refusal.contains("no gridmap entry"), "{refusal}");
    // Valid capability: the job runs under the granted local account.
    let cap = issuer.grant(
        "/CN=visiting scientist",
        "guest07",
        SimTime::ZERO + Duration::from_days(2),
    );
    let (done, _) = run(Some(cap));
    assert_eq!(done, 1, "capability holder should run");
    // Forged capability (wrong authority): refused.
    let forged = rogue.grant(
        "/CN=visiting scientist",
        "root",
        SimTime::ZERO + Duration::from_days(2),
    );
    let (done, refusal) = run(Some(forged));
    assert_eq!(done, 0);
    assert!(refusal.contains("no gridmap entry"), "{refusal}");
}

#[test]
fn a_cancel_during_stage_in_submits_nothing() {
    // A minute each way between the client and the interface machine, so
    // a Cancel sent 100-180 s in reaches the JobManager while its GET is
    // out. The JobManager announces Removed at once; the GASS Data that
    // follows must not reach the site scheduler.
    for cancel_secs in (100..=180).step_by(20) {
        let r = rig(12, vec![], |client, _| {
            client.jobs = vec![job_rsl(&client.gass_url, 600, 0)];
            client.cancel_at = Some((Duration::from_secs(cancel_secs), 0));
        });
        let mut w = r.world;
        for (from, to) in [(r.client_node, r.gk_node), (r.gk_node, r.client_node)] {
            w.network_mut()
                .set_link_latency(from, to, Dist::Constant(60.0));
        }
        w.run_until_quiescent();
        let cbs = callbacks_of(&w, r.client_node, 0);
        assert_eq!(cbs, ["StageIn", "Removed"], "cancel at {cancel_secs} s");
        assert_eq!(
            w.metrics().counter("site.completed"),
            0,
            "cancel at {cancel_secs} s"
        );
    }
}

#[test]
fn a_stage_in_cut_by_a_dead_link_has_one_retry_chain() {
    // A 64 MB executable behind its own 100 KB/s link, which dies a
    // minute into the transfer and stays down for two hours. The cut
    // flow is dropped, and nobody is told. A down link refuses messages
    // as it refuses flows, at send: every GET re-driven while the link is
    // down is dropped and counted lost, and none reaches the server. Only the retry
    // timer re-drives, once per period, and each period doubles (68 s
    // for an RSL that declares no image size, x2 per retry, capped at
    // x16). A re-drive that left the timer it found armed would run a
    // second chain beside it.
    let r = rig(14, vec![], |client, w| {
        let site = client.gatekeeper.node;
        let trust = CertificateAuthority::new("/CN=Globus CA", 1).trust_root();
        let node = w.add_node("a.data.edu");
        let link = w.network_mut().add_flow_link("a", 100_000.0, 0.030);
        w.network_mut().set_flow_route(node, site, &[link]);
        let file = FileData::bulk(64_000_000, 7);
        let server = GassServer::new(trust).preload("/big", file);
        let gass = w.add_component(node, "gass", server);
        let exe = GassUrl::gass(gass, "/big").to_string();
        client.jobs = vec![RslSpec::job(&exe, Duration::from_mins(10))];
    });
    let mut w = r.world;
    let down = SimTime::ZERO + Duration::from_mins(1);
    w.apply_fault_plan(&FaultPlan::new().link_down_window("a", down, Duration::from_hours(2)));
    w.run_until_quiescent();
    let cbs = callbacks_of(&w, r.client_node, 0);
    assert_eq!(cbs.last().map(String::as_str), Some("Done"), "{cbs:?}");
    // The server sees the first GET and the tenth re-drive, the first
    // after the link came back: one chain of 68 + 136 + 272 + 544 + 6 x
    // 1,088 s. Nothing while the link was down.
    let gets: Vec<u64> = w
        .trace()
        .of_kind("gass.get")
        .map(|e| e.time.since(SimTime::ZERO).as_secs_f64().round() as u64)
        .collect();
    assert!(
        gets.iter().all(|t| !(60..=7260).contains(t)),
        "a GET crossed the dead link: {gets:?}"
    );
    assert_eq!(gets, [0, 7548]);
    assert_eq!(w.metrics().counter("gram.stage_retries"), 10);
    // The nine GETs re-driven while the link was down.
    assert_eq!(w.metrics().counter("net.lost"), 9);
    assert_eq!(w.metrics().counter("site.completed"), 1);
}
