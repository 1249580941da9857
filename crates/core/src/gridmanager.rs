//! The GridManager daemon (paper §4.2–§4.3).
//!
//! One GridManager serves all of one user's grid-universe jobs. For each
//! job it drives the revised GRAM protocol — two-phase submit with
//! retransmission, commit, status callbacks — and implements the paper's
//! fault-tolerance algorithm verbatim:
//!
//! > "The GridManager detects remote failures by periodically probing the
//! > JobManagers of all the jobs it manages. If a JobManager fails to
//! > respond, the GridManager then probes the GateKeeper for that machine.
//! > If the GateKeeper responds, then the GridManager knows that the
//! > individual JobManager crashed... the GridManager attempts to start a
//! > new JobManager to resume watching the job. Otherwise, the GridManager
//! > waits until it can reestablish contact with the remote machine."
//!
//! It asks both questions once per site, not once per job: every probe
//! interval it sends each gatekeeper holding its jobs one `SiteProbe`
//! listing them, and the gatekeeper answers for its JobManagers with the
//! jobs whose JobManager is gone or whose state moved. An answer shows the
//! machine is up. A site silent for two rounds, or any site after the
//! agent's own restart, has its jobs wait to reattach; the next answer
//! reconnects each JobManager that survived and restarts each one that
//! is gone.
//!
//! It also owns credential management (§4.3): periodic proxy analysis,
//! alarms, hold-and-email on expiry, automatic MyProxy refresh, and
//! re-forwarding refreshed proxies to remote JobManagers.

use crate::api::{GridJobId, GridJobSpec, JobStatus};
use crate::broker::Broker;
use crate::email::Email;
use gass::GassUrl;
use gram::proto::{GramJobState, GramReply, GramRequest, JmMsg, JobContact};
use gram::{RslSpec, SubmitSession};
use gridsim::hash::{IdMap, IdTable};
use gridsim::prelude::*;
use gridsim::store::KeyBuf;
use gridsim::AnyMsg;
use gsi::{MyProxyReply, MyProxyRequest, ProxyCredential};
use mds::{attr_to_addr, GripQuery, GripReply};
use std::collections::BTreeMap;
use std::fmt;

/// MyProxy auto-refresh settings (§4.3's proposed enhancement).
#[derive(Clone, Debug)]
pub struct MyProxySettings {
    /// The MyProxy server.
    pub server: Addr,
    /// Account name at the server.
    pub account: String,
    /// Retrieval passphrase.
    pub passphrase: u64,
    /// Lifetime to request for each short-lived proxy.
    pub lifetime: Duration,
    /// Refresh when less than this much life remains.
    pub refresh_before: Duration,
}

/// GridManager tuning.
#[derive(Clone, Debug)]
pub struct GmConfig {
    /// The user served.
    pub user: String,
    /// MDS index for the matchmaking broker (None = static broker only).
    pub giis: Option<Addr>,
    /// MyProxy auto-refresh (None = hold-and-email on expiry).
    pub myproxy: Option<MyProxySettings>,
    /// Mail spool for alarms and hold notices.
    pub mailer: Option<Addr>,
    /// Submit retransmission period.
    pub submit_retry: Duration,
    /// E-mail an alarm when less than this much proxy life remains.
    pub warn_before: Duration,
    /// Hold jobs when less than this much proxy life remains.
    pub hold_before: Duration,
    /// §4.4: migrate a job that has been *queued* at a site this long to
    /// another candidate site ("Monitoring of actual queuing and execution
    /// times allows... to migrate queued jobs"). `None` disables.
    pub migrate_pending_after: Option<Duration>,
    /// The §4.2 failure-detection machinery (site probes and JobManager
    /// restarts). Disable for the fault-tolerance ablation.
    pub recovery: bool,
}

impl Default for GmConfig {
    fn default() -> GmConfig {
        GmConfig {
            user: "user".into(),
            giis: None,
            myproxy: None,
            mailer: None,
            submit_retry: Duration::from_secs(30),
            warn_before: Duration::from_hours(2),
            hold_before: Duration::from_mins(15),
            migrate_pending_after: None,
            recovery: true,
        }
    }
}

/// Scheduler → GridManager commands (same-node).
#[derive(Debug)]
pub enum GmCmd {
    /// Take responsibility for a new job.
    Manage {
        /// Queue id.
        job: GridJobId,
        /// The job.
        spec: GridJobSpec,
    },
    /// Re-attach to a job from persistent state after a restart.
    Recover {
        /// Queue id.
        job: GridJobId,
        /// The job.
        spec: GridJobSpec,
    },
    /// Cancel a job.
    Cancel {
        /// Queue id.
        job: GridJobId,
    },
    /// The user refreshed their proxy.
    RefreshProxy {
        /// The fresh credential.
        credential: ProxyCredential,
    },
}

/// GridManager → Scheduler status update.
#[derive(Debug)]
pub struct GmUpdate {
    /// The job.
    pub job: GridJobId,
    /// New user-visible status.
    pub status: JobStatus,
}

/// GridManager → Scheduler: all jobs terminal; the daemon exits and hands
/// the broker back.
pub struct GmExiting {
    /// The broker, returned for reuse by a future GridManager.
    pub broker: Box<dyn Broker>,
}

impl fmt::Debug for GmExiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GmExiting")
    }
}

/// Persisted per-job protocol state.
#[derive(Clone, Debug)]
struct GmJobDisk {
    spec: GridJobSpec,
    attempts: u32,
    seq: Option<u64>,
    site: Option<String>,
    gatekeeper: Option<Addr>,
    contact: Option<u64>,
    excluded: Vec<String>,
    terminal: bool,
}

gridsim::codec! {
    struct GmJobDisk {
        spec,
        attempts,
        seq,
        site,
        gatekeeper,
        contact,
        excluded,
        terminal,
    }
}

enum Phase {
    /// Waiting for the broker to name a site.
    NeedSite,
    /// Two-phase submit in flight (boxed: the session dwarfs the other
    /// variants).
    Submitting {
        session: Box<SubmitSession>,
        last_send: SimTime,
    },
    /// JobManager known and believed alive.
    Live {
        jm: Addr,
        gram_state: GramJobState,
        /// The commit has been acknowledged (stop retransmitting it).
        commit_acked: bool,
        /// When the job entered the site queue (for migration decisions).
        pending_since: Option<SimTime>,
    },
    /// The site's next answer reconnects its JobManager, or restarts it
    /// if it is gone: the site missed two probes, the agent itself
    /// restarted, or a restart is under way.
    Reattach,
    /// Nothing more to do.
    Terminal,
}

impl Phase {
    /// A JobManager learned of at `now`: a new one awaiting the commit, or
    /// (`committed`) one reattached to a job past it, taken to be queued
    /// until it says otherwise.
    fn live(jm: Addr, now: SimTime, committed: bool) -> Phase {
        Phase::Live {
            jm,
            gram_state: if committed {
                GramJobState::Pending
            } else {
                GramJobState::PendingCommit
            },
            commit_acked: committed,
            pending_since: Some(now),
        }
    }
}

struct GmJob {
    spec: GridJobSpec,
    attempts: u32,
    seq: Option<u64>,
    site: Option<String>,
    gatekeeper: Option<Addr>,
    contact: Option<JobContact>,
    excluded: Vec<String>,
    phase: Phase,
    reported: JobStatus,
    /// A cancel is in flight because the job is being moved to a better
    /// site; the Removed callback resubmits instead of finishing.
    migrating: bool,
}

impl GmJob {
    /// A job the GridManager has just been handed.
    fn new(spec: GridJobSpec) -> GmJob {
        GmJob {
            spec,
            attempts: 0,
            seq: None,
            site: None,
            gatekeeper: None,
            contact: None,
            excluded: Vec::new(),
            phase: Phase::NeedSite,
            reported: JobStatus::Unsubmitted,
            migrating: false,
        }
    }

    /// Whether [`GridManager::tick_job`] may have work for this job in its
    /// current phase (`migrate`: queued jobs may move). It may say yes to a
    /// job whose time has not come, never no to one with work.
    fn ticks(&self, migrate: bool) -> bool {
        match &self.phase {
            // Asks the broker again on every tick.
            Phase::NeedSite => true,
            Phase::Submitting { session, .. } => session.awaiting_reply(),
            // The commit is retransmitted on every tick until acknowledged.
            Phase::Live {
                commit_acked: false,
                ..
            } => true,
            Phase::Live { gram_state, .. } => {
                migrate
                    && !self.migrating
                    && matches!(
                        gram_state,
                        GramJobState::Pending | GramJobState::PendingCommit
                    )
            }
            // The site probe round looks after the restarts.
            Phase::Reattach | Phase::Terminal => false,
        }
    }

    /// The record `persist_job` writes for a live job: [`GmJobDisk`] field
    /// for field, borrowed (the codec is positional and tuples carry no
    /// framing, so the tuple's bytes are the struct's).
    fn disk_view(&self) -> impl gridsim::codec::Encode + '_ {
        (
            &self.spec,
            self.attempts,
            self.seq,
            self.site.as_deref(),
            self.gatekeeper,
            self.contact.map(|c| c.0),
            &self.excluded,
            false,
        )
    }
}

const TAG_TICK: u64 = 1;
/// The GridManager's bookkeeping period: every job's due work, the
/// credential check and the weather are looked at this often.
const TICK: Duration = Duration::from_secs(30);
/// §4.2's probe period: each site holding jobs gets one `SiteProbe` this
/// often, and a site that leaves two unanswered has its jobs reattach.
const PROBE_INTERVAL: Duration = Duration::from_mins(5);
/// Resubmissions per job before it fails for good.
const MAX_RETRIES: u32 = 5;
/// How often the MDS index is asked for candidate sites.
const MDS_POLL: Duration = Duration::from_mins(5);

/// The GridManager component.
pub struct GridManager {
    config: GmConfig,
    credential: ProxyCredential,
    scheduler: Addr,
    gass: Addr,
    broker: Option<Box<dyn Broker>>,
    /// Live jobs, by slot. It iterates in slot order, so a loop that sends
    /// or reports goes over `sorted_ids`.
    jobs: IdTable<GridJobId, GmJob>,
    /// Secondary indexes over `jobs` — protocol replies arrive keyed by
    /// submit sequence number or job contact, and a campaign-sized queue
    /// cannot afford a linear scan per reply.
    by_seq: IdMap<u64, GridJobId>,
    by_contact: IdMap<JobContact, GridJobId>,
    /// Store keys: `gm/<user>/job/<id>` built in place, `gm/<user>/next_seq`.
    job_key: KeyBuf,
    seq_key: String,
    /// Jobs that reached a terminal state and were evicted from `jobs`
    /// (their persisted record shrinks to a tombstone). Keeps the hot map
    /// proportional to *live* jobs, not campaign size.
    retired: u64,
    next_seq: u64,
    held: bool,
    warned: bool,
    myproxy_req: u64,
    mds_asked_at: Option<SimTime>,
    mds_req: u64,
    /// Correlation ids for lean-mode GASS cache cleanup requests.
    gass_req: u64,
    recovering: bool,
    /// The site probe channel, by gatekeeper: how many `SiteProbe`s went
    /// out since its last answer. Sites drop out once they hold none of
    /// our jobs.
    sites: BTreeMap<Addr, u32>,
    /// When the next probe round is due.
    next_round: SimTime,
}

impl GridManager {
    /// A GridManager for `config.user`, reporting to `scheduler`, staging
    /// through the GASS server at `gass`.
    pub fn new(
        config: GmConfig,
        credential: ProxyCredential,
        scheduler: Addr,
        gass: Addr,
        broker: Box<dyn Broker>,
        recovering: bool,
    ) -> GridManager {
        GridManager {
            job_key: KeyBuf::new(format!("gm/{}/job/", config.user)),
            seq_key: format!("gm/{}/next_seq", config.user),
            config,
            credential,
            scheduler,
            gass,
            broker: Some(broker),
            jobs: IdTable::default(),
            by_seq: IdMap::default(),
            by_contact: IdMap::default(),
            retired: 0,
            next_seq: 0,
            held: false,
            warned: false,
            myproxy_req: 0,
            mds_asked_at: None,
            mds_req: 0,
            gass_req: 0,
            recovering,
            sites: BTreeMap::new(),
            next_round: SimTime::ZERO,
        }
    }

    fn persist_job(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let Some(j) = self.jobs.get(&job) else { return };
        let key = self.job_key.key(job.0);
        let node = ctx.node();
        if matches!(j.phase, Phase::Terminal) {
            // Terminal records shrink to a tombstone: recovery only reads
            // the `terminal` flag for finished jobs (the spec is re-supplied
            // by the scheduler's Recover command), so the strings need not
            // survive.
            let tombstone = GmJobDisk {
                spec: GridJobSpec::grid("", "", Duration::from_secs(0)),
                attempts: j.attempts,
                seq: None,
                site: None,
                gatekeeper: None,
                contact: None,
                excluded: Vec::new(),
                terminal: true,
            };
            ctx.store().put(node, key, &tombstone);
        } else {
            ctx.store().put(node, key, &j.disk_view());
        }
    }

    /// Evict a terminal job from the hot map (its tombstone is already on
    /// disk). Must run *after* the final `report`, which needs the record.
    fn retire(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        if !self
            .jobs
            .get(&job)
            .is_some_and(|j| matches!(j.phase, Phase::Terminal))
        {
            return;
        }
        let j = self.jobs.remove(&job).expect("a terminal job");
        if let Some(seq) = j.seq {
            self.by_seq.remove(&seq);
        }
        if let Some(contact) = j.contact {
            self.by_contact.remove(&contact);
        }
        self.retired += 1;
        if ctx.lean() {
            // Lean retention: no tombstone either, so the store footprint
            // also tracks live jobs (at the cost of recover-after-finish
            // detection).
            let node = ctx.node();
            ctx.store().remove(node, self.job_key.key(job.0));
            // Collect-and-discard the staged output: the user agent has
            // seen the terminal status, so the GASS cache entry is dead
            // weight (a million-job campaign would otherwise keep a
            // million stdout files). Fire-and-forget — deletion is
            // idempotent and losing one costs only memory.
            if j.spec.stdout_size > 0 {
                self.gass_req += 1;
                ctx.send(
                    self.gass,
                    gass::GassRequest::Delete {
                        request_id: self.gass_req,
                        credential: self.credential.clone(),
                        path: out_path(job),
                    },
                );
            }
        }
    }

    fn persist_seq(&self, ctx: &mut Ctx<'_>) {
        let node = ctx.node();
        ctx.store().put(node, &self.seq_key, &self.next_seq);
    }

    fn report(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, status: JobStatus) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        // A terminal status is the last word the Scheduler hears of a job.
        assert!(
            !j.reported.is_terminal(),
            "GridManager: {job} reported {status:?} after its terminal {:?}",
            j.reported
        );
        if j.reported == status {
            return;
        }
        j.reported = status.clone();
        // Span milestone for terminal states; intermediate statuses are
        // covered by the jobmanager-side milestones.
        let terminal = match &status {
            JobStatus::Done => Some("done"),
            JobStatus::Failed(_) => Some("failed"),
            JobStatus::Removed => Some("removed"),
            _ => None,
        };
        if let Some(milestone) = terminal {
            ctx.trace_with("span", || format!("job={} phase={milestone}", job.0));
        }
        ctx.send_local(self.scheduler, GmUpdate { job, status });
    }

    fn rsl_for(&self, job: GridJobId, spec: &GridJobSpec) -> RslSpec {
        let exe_url = GassUrl::gass(self.gass, &spec.executable);
        let mut rsl = RslSpec::job(&exe_url.to_string(), spec.runtime).with_count(spec.count);
        rsl.arguments = spec.arguments.clone();
        if spec.stdout_size > 0 {
            let out_url = GassUrl::gass(self.gass, &out_path(job));
            rsl = rsl.with_stdout(&out_url.to_string(), spec.stdout_size);
        }
        if let Some(mins) = spec.wall_minutes {
            rsl = rsl.with_max_wall_minutes(mins);
        }
        if let Some(arch) = &spec.required_arch {
            rsl.extra.insert("arch".into(), vec![arch.clone()]);
        }
        rsl
    }

    /// Start (or restart) the two-phase submission of a job.
    fn begin_submit(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        if self.held {
            return;
        }
        let Some(j) = self.jobs.get(&job) else { return };
        let Some(broker) = self.broker.as_mut() else {
            return;
        };
        let Some(target) = broker.select(&j.spec, &j.excluded) else {
            // No resource available yet (e.g. MDS cache still empty).
            return;
        };
        broker.note_submission(&target.site);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.persist_seq(ctx);
        let rsl = self.rsl_for(job, &j.spec);
        let me = ctx.self_addr();
        let mut session = SubmitSession::new(
            seq,
            rsl.render(),
            self.credential.clone(),
            me,
            GassUrl::gass(self.gass, ""),
        );
        ctx.metrics().incr("gm.submissions", 1);
        ctx.trace_with("gm.submit", || {
            format!("{job} -> {} (seq {seq})", target.site)
        });
        ctx.trace_with("span", || {
            format!("job={} seq={seq} phase=submit site={}", job.0, target.site)
        });
        ctx.send(target.addr, session.request());
        self.by_seq.insert(seq, job);
        let j = self.jobs.get_mut(&job).expect("job exists");
        j.seq = Some(seq);
        j.site = Some(target.site);
        j.gatekeeper = Some(target.addr);
        j.phase = Phase::Submitting {
            session: Box::new(session),
            last_send: ctx.now(),
        };
        self.persist_job(ctx, job);
        self.report(ctx, job, JobStatus::Pending);
    }

    /// Hand the run's metrics to the broker and trace whatever
    /// quarantine/probe/recover transitions it decides on, so rerouting is
    /// visible in the same causal timeline as the jobs it moves. Only an
    /// adaptive broker aggregates them into grid weather; the others
    /// return nothing.
    fn observe_weather(&mut self, ctx: &mut Ctx<'_>) {
        let Some(broker) = self.broker.as_mut() else {
            return;
        };
        let now = ctx.now();
        for ev in broker.observe_weather(ctx.metrics(), now) {
            ctx.metrics().incr("broker.health_transitions", 1);
            ctx.trace_with(ev.action.kind(), || {
                format!("site={} reason={}", ev.site, ev.reason)
            });
        }
    }

    /// A remote attempt failed: exclude the site and resubmit elsewhere,
    /// or give up after the retry budget.
    fn attempt_failed(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, why: &str) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if matches!(j.phase, Phase::Terminal) {
            return;
        }
        ctx.metrics().incr("gm.attempt_failures", 1);
        ctx.trace_with("gm.attempt_failed", || format!("{job}: {why}"));
        j.attempts += 1;
        // Charge the failure to the site's weather before dropping it, so
        // a gatekeeper that never accepted anything still shows up in the
        // per-site table (and trips the adaptive quarantine).
        if let Some(site) = &j.site {
            let failures = ctx.metrics().site(site).attempt_failures;
            ctx.metrics().add(failures, 1);
        }
        if j.attempts > MAX_RETRIES {
            let reason = format!("{why} (after {} attempts)", j.attempts);
            self.finish(ctx, job, JobStatus::Failed(reason));
        } else {
            self.resubmit_elsewhere(ctx, job);
        }
    }

    /// Leave `job`'s current site for good: exclude it, drop the attempt's
    /// seq and contact, and submit elsewhere.
    fn resubmit_elsewhere(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if let Some(site) = j.site.take() {
            if !j.excluded.contains(&site) {
                j.excluded.push(site);
            }
        }
        j.gatekeeper = None;
        let (old_seq, old_contact) = (j.seq.take(), j.contact.take());
        j.phase = Phase::NeedSite;
        self.unindex(old_seq, old_contact);
        self.persist_job(ctx, job);
        self.begin_submit(ctx, job);
    }

    /// `job` is over: tombstone it, report `status` and evict it.
    fn finish(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, status: JobStatus) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        j.phase = Phase::Terminal;
        self.persist_job(ctx, job);
        self.report(ctx, job, status);
        self.retire(ctx, job);
    }

    /// Drop a job's seq/contact index entries (site abandoned or job moved).
    fn unindex(&mut self, seq: Option<u64>, contact: Option<JobContact>) {
        if let Some(seq) = seq {
            self.by_seq.remove(&seq);
        }
        if let Some(contact) = contact {
            self.by_contact.remove(&contact);
        }
    }

    /// Bytes of this job's stdout already present on the local GASS server
    /// (used to resume output staging after a restart, §3.2).
    fn stdout_have(&self, ctx: &mut Ctx<'_>, job: GridJobId) -> u64 {
        let key = format!("gass/size{}", out_path(job));
        ctx.store().get::<u64>(self.gass.node, &key).unwrap_or(0)
    }

    // ---- credential management (§4.3) ---------------------------------

    fn check_credentials(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let remaining = self.credential.time_remaining(now);
        // MyProxy auto-refresh path.
        if let Some(mp) = self.config.myproxy.clone() {
            if remaining < mp.refresh_before {
                self.myproxy_req += 1;
                ctx.metrics().incr("gm.myproxy_refresh_requests", 1);
                ctx.send(
                    mp.server,
                    MyProxyRequest::Retrieve {
                        user: mp.account.clone(),
                        passphrase: mp.passphrase,
                        lifetime: mp.lifetime,
                        request_id: self.myproxy_req,
                    },
                );
            }
        }
        // Alarm (§4.3: "it can be configured to e-mail a reminder when less
        // than a specified time remains").
        if remaining < self.config.warn_before && !self.warned && !remaining.is_zero() {
            self.warned = true;
            self.send_mail(
                ctx,
                "proxy credential expiring soon",
                &format!("proxy expires in {remaining}; run grid-proxy-init"),
            );
        }
        // Hold path.
        if remaining < self.config.hold_before && !self.held {
            self.held = true;
            ctx.metrics().incr("gm.credential_holds", 1);
            self.send_mail(
                ctx,
                "jobs held: credentials expired",
                "your proxy has (nearly) expired; jobs cannot run again until \
                 you refresh it with grid-proxy-init",
            );
            let jobs = self
                .jobs
                .sorted_ids(|j| !matches!(j.phase, Phase::Terminal));
            for job in jobs {
                self.report(ctx, job, JobStatus::Held("credentials expired".into()));
            }
        }
    }

    fn adopt_credential(&mut self, ctx: &mut Ctx<'_>, credential: ProxyCredential) {
        self.credential = credential;
        self.warned = false;
        ctx.metrics().incr("gm.credentials_adopted", 1);
        // Re-forward to every live JobManager (§4.3: "it also needs to
        // re-forward the refreshed proxy to the remote GRAM server").
        for job in self
            .jobs
            .sorted_ids(|j| matches!(j.phase, Phase::Live { .. }))
        {
            if let Phase::Live { jm, .. } = self.jobs[&job].phase {
                ctx.send(
                    jm,
                    JmMsg::RefreshCredential {
                        credential: self.credential.clone(),
                    },
                );
            }
        }
        if self.held {
            self.held = false;
            // Un-hold: restore live statuses and resume queued submissions.
            let jobs = self.jobs.sorted_ids(|_| true);
            for job in jobs {
                match self.jobs[&job].phase {
                    Phase::NeedSite => {
                        self.report(ctx, job, JobStatus::Unsubmitted);
                        self.begin_submit(ctx, job);
                    }
                    Phase::Live { gram_state, .. } => {
                        let status = gram_state_to_status(gram_state);
                        self.report(ctx, job, status);
                    }
                    Phase::Submitting { .. } | Phase::Reattach => {
                        self.report(ctx, job, JobStatus::Pending);
                    }
                    Phase::Terminal => {}
                }
            }
        }
    }

    fn send_mail(&self, ctx: &mut Ctx<'_>, subject: &str, body: &str) {
        if let Some(mailer) = self.config.mailer {
            ctx.send(
                mailer,
                Email {
                    to: self.config.user.clone(),
                    subject: format!("[condor-g] {subject}"),
                    body: body.to_string(),
                },
            );
        }
    }

    // ---- failure detection & recovery (§4.2) ---------------------------

    /// Whatever is due for `job`.
    fn tick_job(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let now = ctx.now();
        let submit_retry = self.config.submit_retry;
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        match &mut j.phase {
            Phase::NeedSite => {
                if !self.held {
                    self.begin_submit(ctx, job);
                }
            }
            Phase::Submitting { session, last_send } => {
                if session.awaiting_reply() && now - *last_send >= submit_retry {
                    if session.attempts >= 40 {
                        // The gatekeeper machine looks dead: try elsewhere.
                        self.attempt_failed(ctx, job, "gatekeeper unreachable");
                        return;
                    }
                    ctx.metrics().incr("gm.submit_retransmits", 1);
                    let req = session.request();
                    *last_send = now;
                    let gk = j.gatekeeper.expect("submitting has a gatekeeper");
                    ctx.send(gk, req);
                }
            }
            Phase::Live {
                jm,
                commit_acked,
                gram_state,
                pending_since,
            } => {
                // Retransmit the commit until the JobManager confirms it.
                if !*commit_acked {
                    ctx.send(*jm, JmMsg::Commit);
                }
                // §4.4 migration: a job stuck in a site queue moves if the
                // broker can name an alternative.
                if let Some(patience) = self.config.migrate_pending_after {
                    let queued_long = matches!(
                        gram_state,
                        GramJobState::Pending | GramJobState::PendingCommit
                    ) && pending_since.is_some_and(|t| now - t >= patience);
                    if queued_long && !j.migrating {
                        // Is there anywhere else to go?
                        let mut avoid = j.excluded.clone();
                        if let Some(site) = &j.site {
                            avoid.push(site.clone());
                        }
                        let alternative = self
                            .broker
                            .as_mut()
                            .and_then(|b| b.select(&j.spec, &avoid))
                            .is_some();
                        if alternative {
                            ctx.metrics().incr("gm.migrations", 1);
                            ctx.trace_with("gm.migrate", || {
                                format!("{job} stuck queued at {:?}", j.site)
                            });
                            j.migrating = true;
                            ctx.send(*jm, JmMsg::Cancel);
                        }
                    }
                }
            }
            Phase::Reattach | Phase::Terminal => {}
        }
    }

    /// The probe round, once per [`PROBE_INTERVAL`]: one `SiteProbe` to
    /// each gatekeeper holding jobs, listing them in ascending id order,
    /// a live job with the state it is believed in and a job waiting to
    /// reattach with `None` ("answer regardless"). A site whose previous
    /// probe is still unanswered misses a round; at two its live jobs wait
    /// to reattach: "the GridManager waits until it can reestablish
    /// contact with the remote machine". Without `recovery` only jobs
    /// waiting to reattach are asked about.
    fn probe_round(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now < self.next_round {
            return;
        }
        self.next_round = now + PROBE_INTERVAL;
        let mut silent = Vec::new();
        for (&gk, &unanswered) in &self.sites {
            if unanswered > 0 {
                ctx.metrics().incr("gm.probes_missed", 1);
                if unanswered == 2 {
                    ctx.trace_with("gm.site_lost", || format!("gatekeeper={gk}"));
                    silent.push(gk);
                }
            }
        }
        let recovery = self.config.recovery;
        let listed = self.jobs.sorted_ids(|j| match j.phase {
            Phase::Live { .. } => recovery,
            Phase::Reattach => true,
            _ => false,
        });
        let mut probes: BTreeMap<Addr, Vec<(JobContact, Option<GramJobState>)>> = BTreeMap::new();
        for job in listed {
            let j = self.jobs.get_mut(&job).expect("listed job");
            let (Some(gk), Some(contact)) = (j.gatekeeper, j.contact) else {
                continue;
            };
            let believed = match j.phase {
                Phase::Live { .. } if silent.contains(&gk) => {
                    j.phase = Phase::Reattach;
                    None
                }
                Phase::Live { gram_state, .. } => Some(gram_state),
                _ => None,
            };
            probes.entry(gk).or_default().push((contact, believed));
        }
        self.sites.retain(|gk, _| probes.contains_key(gk));
        for (gk, jobs) in probes {
            *self.sites.entry(gk).or_default() += 1;
            ctx.metrics().incr("gm.probes", 1);
            ctx.send(gk, GramRequest::SiteProbe { jobs });
        }
    }

    /// `gk` answered its probe: `changed` lists the jobs whose JobManager
    /// is gone (`None`) or in a state other than the believed one, and
    /// every job that was asked about with `None`, each live one with its
    /// JobManager's address.
    fn on_site_status(
        &mut self,
        ctx: &mut Ctx<'_>,
        gk: Addr,
        changed: &[(JobContact, Option<(Addr, GramJobState)>)],
    ) {
        if let Some(unanswered) = self.sites.get_mut(&gk) {
            *unanswered = 0;
        }
        for &(contact, live) in changed {
            let Some(&job) = self.by_contact.get(&contact) else {
                continue;
            };
            match (&self.jobs[&job].phase, live) {
                (Phase::Live { .. }, Some((_, state))) => self.observe_jm(ctx, job, state),
                // "The GridManager waits until it can reestablish contact
                // with the remote machine", and then the JobManager is
                // still there.
                (Phase::Reattach, Some((jm, state))) => {
                    ctx.metrics().incr("gm.jm_reconnects", 1);
                    self.reconnect(ctx, job, jm, state);
                }
                // "If the GateKeeper responds, then the GridManager knows
                // that the individual JobManager crashed... attempts to
                // start a new JobManager to resume watching the job."
                (Phase::Live { .. }, None) => {
                    ctx.trace_with("gm.jm_lost", || format!("{job}"));
                    self.restart_jobmanager(ctx, job);
                }
                (Phase::Reattach, None) => self.restart_jobmanager(ctx, job),
                _ => {}
            }
        }
    }

    /// Pick `job` up again through `jm`, a JobManager that survived or was
    /// just restarted, which says the job is in `state`: re-point it at our
    /// (possibly new) GASS server, re-forward the current credential, and
    /// take the state as news, a terminal one included.
    fn reconnect(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, jm: Addr, state: GramJobState) {
        let have = self.stdout_have(ctx, job);
        ctx.send(
            jm,
            JmMsg::UpdateGass {
                gass: GassUrl::gass(self.gass, ""),
                stdout_have: have,
            },
        );
        ctx.send(
            jm,
            JmMsg::RefreshCredential {
                credential: self.credential.clone(),
            },
        );
        let j = self.jobs.get_mut(&job).expect("job exists");
        j.phase = Phase::live(jm, ctx.now(), state != GramJobState::PendingCommit);
        self.persist_job(ctx, job);
        self.observe_jm(ctx, job, state);
    }

    /// Ask `job`'s gatekeeper for a fresh JobManager. The job waits in
    /// `Reattach`, so if the request or its answer is lost the site's next
    /// answer reconnects or restarts it.
    fn restart_jobmanager(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let j = &self.jobs[&job];
        let (Some(contact), Some(gk)) = (j.contact, j.gatekeeper) else {
            return;
        };
        let me = ctx.self_addr();
        let have = self.stdout_have(ctx, job);
        ctx.metrics().incr("gm.jm_restarts_requested", 1);
        ctx.send(
            gk,
            GramRequest::RestartJobManager {
                contact,
                credential: self.credential.clone(),
                callback: me,
                gass: GassUrl::gass(self.gass, ""),
                stdout_have: have,
                capability: None,
            },
        );
        self.jobs.get_mut(&job).expect("job exists").phase = Phase::Reattach;
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: GmCmd) {
        match cmd {
            GmCmd::Manage { job, spec } => {
                self.jobs.insert(job, GmJob::new(spec));
                self.persist_job(ctx, job);
                self.begin_submit(ctx, job);
            }
            GmCmd::Recover { job, spec } => {
                let node = ctx.node();
                let disk = ctx.store().get::<GmJobDisk>(node, self.job_key.key(job.0));
                let mut rec = GmJob::new(spec);
                if let Some(d) = disk {
                    if d.terminal {
                        // Already finished in a previous life: count it
                        // toward exit without resurrecting the record.
                        self.retired += 1;
                        return;
                    }
                    rec.attempts = d.attempts;
                    rec.seq = d.seq;
                    rec.site = d.site;
                    rec.gatekeeper = d.gatekeeper;
                    rec.contact = d.contact.map(JobContact);
                    rec.excluded = d.excluded;
                }
                // Re-establish contact: if we know the job's contact, its
                // JobManager is reconnected, or restarted if gone, once the
                // gatekeeper answers the next probe round, which is due
                // now; else the submission never stuck, so submit afresh.
                if let Some(seq) = rec.seq {
                    self.by_seq.insert(seq, job);
                }
                if let Some(contact) = rec.contact {
                    self.by_contact.insert(contact, job);
                }
                match (rec.contact, rec.gatekeeper) {
                    (Some(_), Some(_)) => {
                        ctx.metrics().incr("gm.job_recoveries", 1);
                        rec.phase = Phase::Reattach;
                        self.next_round = ctx.now();
                        self.jobs.insert(job, rec);
                    }
                    _ => {
                        self.jobs.insert(job, rec);
                        self.begin_submit(ctx, job);
                    }
                }
            }
            GmCmd::Cancel { job } => {
                let Some(j) = self.jobs.get_mut(&job) else {
                    return;
                };
                match &j.phase {
                    Phase::Live { jm, .. } => {
                        ctx.send(*jm, JmMsg::Cancel);
                    }
                    Phase::Terminal => {}
                    _ => self.finish(ctx, job, JobStatus::Removed),
                }
            }
            GmCmd::RefreshProxy { credential } => self.adopt_credential(ctx, credential),
        }
    }

    /// A gatekeeper's answer about `job` (which is in the map).
    fn on_gram_reply(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, reply: &GramReply) {
        match reply {
            GramReply::Submitted { contact, .. } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                let Phase::Submitting { session, .. } = &mut j.phase else {
                    return;
                };
                use gram::client::SubmitAction;
                match session.on_reply(reply) {
                    SubmitAction::SendCommit { jobmanager, .. } => {
                        ctx.send(jobmanager, JmMsg::Commit);
                        j.contact = Some(*contact);
                        j.phase = Phase::live(jobmanager, ctx.now(), false);
                        self.by_contact.insert(*contact, job);
                        self.persist_job(ctx, job);
                    }
                    SubmitAction::GiveUp(_) | SubmitAction::Ignore => {}
                }
            }
            GramReply::SubmitFailed { error, .. } => {
                self.attempt_failed(ctx, job, &format!("submit failed: {error}"));
            }
            GramReply::Restarted {
                jobmanager, state, ..
            } => {
                ctx.metrics().incr("gm.jm_restarted", 1);
                self.reconnect(ctx, job, *jobmanager, *state);
            }
            GramReply::RestartFailed { error, .. } => {
                self.attempt_failed(ctx, job, &format!("restart failed: {error}"));
            }
            // Answered per site, by `on_site_status`.
            GramReply::SiteStatus { .. } => {}
        }
    }

    /// The word of `from`, `job`'s JobManager, about `job` (which is in
    /// the map).
    fn on_jm_msg(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, from: Addr, jm_msg: &JmMsg) {
        match jm_msg {
            // A JobManager waiting to be reattached has called back first:
            // it survived, so it is reconnected as the site's answer would.
            JmMsg::Callback { state, .. } if matches!(self.jobs[&job].phase, Phase::Reattach) => {
                ctx.metrics().incr("gm.jm_reconnects", 1);
                self.reconnect(ctx, job, from, *state);
            }
            JmMsg::Callback { state, .. } => self.observe_jm(ctx, job, *state),
            JmMsg::CommitAck { .. } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                if let Phase::Live { commit_acked, .. } = &mut j.phase {
                    *commit_acked = true;
                }
            }
            _ => {}
        }
    }

    /// The JobManager says `job` (which is in the map) is in `state`,
    /// pushed (`Callback`), polled (a `SiteStatus` entry, whose state is
    /// what a lost callback carried) or learned on reconnecting (a live
    /// JobManager's `SiteStatus` entry or first `Callback`, or a restarted
    /// one's log in `Restarted`): all take this one path to the protocol's
    /// actions.
    fn observe_jm(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, state: GramJobState) {
        let now = ctx.now();
        let j = self.jobs.get_mut(&job).expect("job exists");
        if let Phase::Live {
            jm,
            gram_state,
            commit_acked,
            pending_since,
            ..
        } = &mut j.phase
        {
            if state.is_terminal() {
                // The outcome is the GridManager's now: the JobManager may go.
                ctx.send(*jm, JmMsg::DoneAck);
            }
            // Progress implies the commit landed.
            *commit_acked |= state != GramJobState::PendingCommit;
            // Track time-in-queue for migration decisions.
            let queued = |s| matches!(s, GramJobState::Pending | GramJobState::PendingCommit);
            if !queued(state) {
                *pending_since = None;
            } else if !queued(*gram_state) {
                *pending_since = Some(now);
            }
            *gram_state = state;
        }
        match state {
            GramJobState::Done => {
                ctx.metrics().incr("gm.jobs_done", 1);
                self.finish(ctx, job, JobStatus::Done);
            }
            GramJobState::Failed => self.attempt_failed(ctx, job, "remote execution failed"),
            GramJobState::Removed if j.migrating => {
                // The cancel was ours: move the job.
                j.migrating = false;
                self.resubmit_elsewhere(ctx, job);
            }
            GramJobState::Removed => self.finish(ctx, job, JobStatus::Removed),
            _ if self.held => {}
            _ => self.report(ctx, job, gram_state_to_status(state)),
        }
    }

    fn poll_mds(&mut self, ctx: &mut Ctx<'_>) {
        let Some(giis) = self.config.giis else { return };
        let due = self.mds_asked_at.is_none_or(|t| ctx.now() - t >= MDS_POLL);
        if !due {
            return;
        }
        self.mds_asked_at = Some(ctx.now());
        self.mds_req += 1;
        ctx.send(
            giis,
            GripQuery {
                request_id: self.mds_req,
                credential: self.credential.clone(),
                filter: "TotalCpus > 0".into(),
            },
        );
    }

    fn maybe_exit(&mut self, ctx: &mut Ctx<'_>) {
        // Terminal jobs are evicted from `jobs` as they finish, so "all
        // jobs terminal" becomes "no live jobs left, and we had some".
        if self.retired == 0 || !self.jobs.is_empty() {
            return;
        }
        if let Some(broker) = self.broker.take() {
            ctx.send_local(self.scheduler, GmExiting { broker });
        }
        ctx.trace_with("gm.exit", || "all jobs complete".to_string());
        ctx.kill(ctx.self_addr());
    }
}

/// The path on the GridManager's GASS server that `job`'s stdout is
/// staged to.
fn out_path(job: GridJobId) -> String {
    format!("/condor_g/out/{job}")
}

fn gram_state_to_status(state: GramJobState) -> JobStatus {
    match state {
        GramJobState::PendingCommit | GramJobState::Pending => JobStatus::Pending,
        GramJobState::StageIn | GramJobState::StageOut => JobStatus::Staging,
        GramJobState::Active => JobStatus::Active,
        GramJobState::Done => JobStatus::Done,
        GramJobState::Failed => JobStatus::Failed("remote failure".into()),
        GramJobState::Removed => JobStatus::Removed,
    }
}

impl Component for GridManager {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(TICK, TAG_TICK);
        if self.recovering {
            let node = ctx.node();
            if let Some(seq) = ctx.store().get::<u64>(node, &self.seq_key) {
                self.next_seq = seq;
            }
        }
        self.poll_mds(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag != TAG_TICK {
            return;
        }
        self.check_credentials(ctx);
        if !self.held {
            self.observe_weather(ctx);
            self.poll_mds(ctx);
            let migrate = self.config.migrate_pending_after.is_some();
            for job in self.jobs.sorted_ids(|j| j.ticks(migrate)) {
                self.tick_job(ctx, job);
            }
            self.probe_round(ctx);
        }
        self.maybe_exit(ctx);
        ctx.set_timer(TICK, TAG_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        // Commands hand their payload over: take the message by value.
        let msg = match msg.downcast::<GmCmd>() {
            Ok(cmd) => {
                self.on_command(ctx, *cmd);
                return;
            }
            Err(other) => other,
        };
        if let Some(reply) = msg.downcast_ref::<GramReply>() {
            let job = match reply {
                GramReply::Submitted { seq, .. } | GramReply::SubmitFailed { seq, .. } => {
                    self.by_seq.get(seq).copied()
                }
                GramReply::SiteStatus { changed } => {
                    self.on_site_status(ctx, from, changed);
                    return;
                }
                GramReply::Restarted { contact, .. } | GramReply::RestartFailed { contact, .. } => {
                    self.by_contact.get(contact).copied()
                }
            };
            if let Some(job) = job {
                self.on_gram_reply(ctx, job, reply);
            }
            return;
        }
        if let Some(jm_msg) = msg.downcast_ref::<JmMsg>() {
            let (JmMsg::Callback { contact, .. } | JmMsg::CommitAck { contact }) = jm_msg else {
                return;
            };
            if let Some(&job) = self.by_contact.get(contact) {
                self.on_jm_msg(ctx, job, from, jm_msg);
            }
            return;
        }
        if let Some(reply) = msg.downcast_ref::<MyProxyReply>() {
            if let MyProxyReply::Proxy { credential, .. } = reply {
                ctx.metrics().incr("gm.myproxy_refreshes", 1);
                self.adopt_credential(ctx, credential.clone());
            }
            return;
        }
        if msg.is::<GripReply>() {
            let Ok(reply) = msg.downcast::<GripReply>() else {
                return;
            };
            if let GripReply::Ads { ads, .. } = *reply {
                let parsed: Vec<(Addr, classads::ClassAd)> = ads
                    .into_iter()
                    .filter_map(|ad| {
                        let gk = ad.get_str("Gatekeeper")?;
                        Some((attr_to_addr(&gk)?, ad))
                    })
                    .collect();
                if let Some(broker) = self.broker.as_mut() {
                    broker.update_ads(parsed);
                }
                // Jobs stuck waiting for a site can move now.
                let waiting = self.jobs.sorted_ids(|j| matches!(j.phase, Phase::NeedSite));
                for job in waiting {
                    self.begin_submit(ctx, job);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{GatekeeperInfo, StaticListBroker};
    use gridsim::codec::{encode_into, from_bytes, to_bytes};
    use gridsim::{Config, World};
    use gsi::CertificateAuthority;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What the sinks were sent, one line a message.
    type Log = Rc<RefCell<Vec<String>>>;

    /// How a [`Sink`] standing for a gatekeeper answers a `SiteProbe`.
    #[derive(Clone, Copy, Debug)]
    enum Answer {
        /// Every JobManager asked about is alive in the state believed, and
        /// `Active` where none was believed.
        Alive,
        /// Every JobManager asked about is gone.
        Dead,
        /// Not at all, for this many more probes; then as `Alive`.
        SilentFor(u32),
        /// Every JobManager asked about is gone until it is restarted, and
        /// then as `Alive`; the answer to each restart is lost.
        RestartsSilently,
    }

    /// Stands where the Scheduler, the gatekeepers and the JobManagers
    /// would: writes down everything it is sent and answers what a
    /// gatekeeper answers (so jobs change phase on replies as well as on
    /// ticks), a live JobManager being the sink itself; as a JobManager it
    /// stays silent, and a restarted one resumes `Active`.
    struct Sink {
        log: Log,
        answer: Answer,
        /// The jobs whose JobManager it restarted.
        restarted: Vec<JobContact>,
    }

    impl Sink {
        fn new(log: &Log, answer: Answer) -> Sink {
            Sink {
                log: log.clone(),
                answer,
                restarted: Vec::new(),
            }
        }
    }

    impl Component for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            let me = ctx.self_addr();
            self.log
                .borrow_mut()
                .push(format!("{} {from:?} -> {me:?} {msg:?}", ctx.now()));
            match msg.downcast_ref::<GramRequest>() {
                Some(GramRequest::Submit { seq, .. }) => ctx.send(
                    from,
                    GramReply::Submitted {
                        seq: *seq,
                        contact: JobContact(5000 + seq),
                        jobmanager: me,
                    },
                ),
                Some(GramRequest::SiteProbe { jobs }) => {
                    let alive = |(c, believed): &(JobContact, Option<GramJobState>)| {
                        believed
                            .is_none()
                            .then_some((*c, Some((me, GramJobState::Active))))
                    };
                    let changed = match &mut self.answer {
                        Answer::SilentFor(n) if *n > 0 => {
                            *n -= 1;
                            return;
                        }
                        Answer::Dead => jobs.iter().map(|&(c, _)| (c, None)).collect(),
                        Answer::RestartsSilently => jobs
                            .iter()
                            .filter_map(|job| {
                                if self.restarted.contains(&job.0) {
                                    alive(job)
                                } else {
                                    Some((job.0, None))
                                }
                            })
                            .collect(),
                        Answer::Alive | Answer::SilentFor(_) => {
                            jobs.iter().filter_map(alive).collect()
                        }
                    };
                    ctx.send(from, GramReply::SiteStatus { changed });
                }
                Some(GramRequest::RestartJobManager { contact, .. }) => {
                    self.restarted.push(*contact);
                    if !matches!(self.answer, Answer::RestartsSilently) {
                        ctx.send(
                            from,
                            GramReply::Restarted {
                                contact: *contact,
                                jobmanager: me,
                                state: GramJobState::Active,
                            },
                        );
                    }
                }
                None => {}
            }
        }
    }

    /// A GridManager whose tick either visits the jobs [`GmJob::ticks`]
    /// picks (the real `on_timer`) or calls `tick_job` on every job it
    /// holds.
    struct Ticker {
        gm: GridManager,
        every_job: bool,
    }

    impl Component for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.gm.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            self.gm.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
            if !self.every_job {
                return self.gm.on_timer(ctx, id, tag);
            }
            // `GridManager::on_timer`, but for the choice of jobs to tick.
            self.gm.check_credentials(ctx);
            if !self.gm.held {
                self.gm.observe_weather(ctx);
                self.gm.poll_mds(ctx);
                for job in self.gm.jobs.sorted_ids(|_| true) {
                    self.gm.tick_job(ctx, job);
                }
                self.gm.probe_round(ctx);
            }
            self.gm.maybe_exit(ctx);
            ctx.set_timer(TICK, TAG_TICK);
        }
    }

    fn live(jm: Addr) -> Phase {
        Phase::Live {
            jm,
            gram_state: GramJobState::Active,
            commit_acked: true,
            pending_since: None,
        }
    }

    fn proxy(life: Duration) -> ProxyCredential {
        let mut ca = CertificateAuthority::new("/CN=CA", 5);
        ca.issue_identity("/CN=jane", Duration::from_days(30))
            .new_proxy(SimTime::ZERO, life)
    }

    /// Hand `gm` a job at `gk` under `contact`, in `phase`.
    fn place(gm: &mut GridManager, job: GridJobId, gk: Addr, contact: u64, phase: Phase) {
        let spec = GridJobSpec::grid("t", "/bin/t", Duration::from_hours(1));
        let mut rec = GmJob::new(spec);
        rec.site = Some("east".into());
        rec.gatekeeper = Some(gk);
        rec.contact = Some(JobContact(contact));
        rec.phase = phase;
        gm.by_contact.insert(JobContact(contact), job);
        gm.jobs.insert(job, rec);
    }

    /// A GridManager holding a job in every phase, and in every state of
    /// a phase that `tick_job` tells apart.
    fn seeded(
        config: GmConfig,
        proxy: &ProxyCredential,
        scheduler: Addr,
        peer: Addr,
    ) -> GridManager {
        let sites = ["east", "west"].map(|site| GatekeeperInfo {
            site: site.into(),
            addr: peer,
            ad: classads::ClassAd::new(),
        });
        let broker = StaticListBroker::new(sites.to_vec());
        let mut gm = GridManager::new(
            config,
            proxy.clone(),
            scheduler,
            peer,
            Box::new(broker),
            false,
        );
        let session = |seq| {
            SubmitSession::new(
                seq,
                "&(executable=x)".into(),
                proxy.clone(),
                peer,
                GassUrl::gass(peer, ""),
            )
        };
        let mut phases: Vec<(Phase, &[&str], bool)> = vec![
            // Nowhere to go: asks the broker on every tick, for nothing.
            (Phase::NeedSite, &["east", "west"], false),
            // Submits on the first tick.
            (Phase::NeedSite, &[], false),
            // Two retransmits from giving the gatekeeper up.
            (
                Phase::Submitting {
                    session: Box::new({
                        let mut s = session(900);
                        s.attempts = 38;
                        s
                    }),
                    last_send: SimTime::ZERO,
                },
                &[],
                false,
            ),
            // Answered already: nothing left to retransmit.
            (
                Phase::Submitting {
                    session: Box::new(SubmitSession::acknowledged(
                        901,
                        JobContact(71),
                        proxy.clone(),
                        peer,
                        GassUrl::gass(peer, ""),
                    )),
                    last_send: SimTime::ZERO,
                },
                &[],
                false,
            ),
            (live(peer), &[], false),
            (Phase::Reattach, &[], false),
            (Phase::Terminal, &[], false),
        ];
        // The commit never acknowledged; queued long enough to move, and
        // the same mid-move.
        for (unacked, queued, migrating) in [
            (true, false, false),
            (false, true, false),
            (false, true, true),
        ] {
            let mut phase = live(peer);
            if let Phase::Live {
                gram_state,
                commit_acked,
                pending_since,
                ..
            } = &mut phase
            {
                *commit_acked = !unacked;
                if queued {
                    (*gram_state, *pending_since) = (GramJobState::Pending, Some(SimTime::ZERO));
                }
            }
            phases.push((phase, &["west"], migrating));
        }
        for (i, (phase, excluded, migrating)) in phases.into_iter().enumerate() {
            let job = GridJobId(100 - i as u64);
            if matches!(phase, Phase::NeedSite) {
                let spec = GridJobSpec::grid("t", "/bin/t", Duration::from_hours(1));
                let mut rec = GmJob::new(spec);
                rec.excluded = excluded.iter().map(|s| s.to_string()).collect();
                gm.jobs.insert(job, rec);
                continue;
            }
            place(&mut gm, job, peer, 70 + i as u64, phase);
            let j = gm.jobs.get_mut(&job).expect("placed");
            j.seq = Some(900 + i as u64);
            gm.by_seq.insert(900 + i as u64, job);
            j.excluded = excluded.iter().map(|s| s.to_string()).collect();
            j.migrating = migrating;
        }
        gm.next_seq = 1000;
        gm
    }

    /// Forty ticks of `seeded`, its gatekeeper answering probes as
    /// `answer`, as seen from outside: every message sent, every record
    /// left in the store, and how many events it took.
    fn forty_ticks(
        config: &GmConfig,
        proxy_life: Duration,
        answer: Answer,
        every_job: bool,
    ) -> Vec<String> {
        let proxy = proxy(proxy_life);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut w = World::new(Config::default().seed(9));
        let (home, away) = (w.add_node("submit"), w.add_node("site"));
        let peer = w.add_component(away, "peer", Sink::new(&log, answer));
        let scheduler = w.add_component(home, "scheduler", Sink::new(&log, Answer::Alive));
        let gm = seeded(config.clone(), &proxy, scheduler, peer);
        w.add_component(home, "gm", Ticker { gm, every_job });
        w.run_until(SimTime::ZERO + TICK * 40 + Duration::from_secs(1));
        let mut seen = log.borrow().clone();
        for key in w.store().keys_with_prefix(home, "") {
            seen.push(format!("{key} = {:?}", w.store().get_bytes(home, &key)));
        }
        seen.push(format!("{} events", w.events_processed()));
        seen
    }

    /// The filtered tick against a tick of every job: the same messages,
    /// store records and event count under each configuration.
    #[test]
    fn a_job_the_tick_skips_had_nothing_to_do() {
        let day = Duration::from_days(1);
        let configs = [
            (GmConfig::default(), day, Answer::Alive),
            // Every JobManager found dead, every round.
            (GmConfig::default(), day, Answer::Dead),
            // The site goes silent for two rounds and is declared lost.
            (GmConfig::default(), day, Answer::SilentFor(2)),
            // Restarts that are never answered, then reconnects.
            (GmConfig::default(), day, Answer::RestartsSilently),
            (
                GmConfig {
                    recovery: false,
                    ..GmConfig::default()
                },
                day,
                Answer::Dead,
            ),
            (
                GmConfig {
                    migrate_pending_after: Some(Duration::from_mins(7)),
                    ..GmConfig::default()
                },
                day,
                Answer::Alive,
            ),
            // A retransmit period of four ticks, so a job awaiting a submit
            // answer is visited on ticks with nothing yet due (the commit
            // goes out every tick).
            (
                GmConfig {
                    submit_retry: Duration::from_mins(2),
                    ..GmConfig::default()
                },
                day,
                Answer::Alive,
            ),
            // The proxy runs down to `hold_before` mid-run: jobs are held
            // and the ticks stop.
            (GmConfig::default(), Duration::from_mins(25), Answer::Alive),
        ];
        for (config, proxy_life, answer) in configs {
            let filtered = forty_ticks(&config, proxy_life, answer, false);
            let every_job = forty_ticks(&config, proxy_life, answer, true);
            assert!(filtered.len() > 60, "{} lines: too quiet", filtered.len());
            for (i, (a, b)) in filtered.iter().zip(&every_job).enumerate() {
                assert_eq!(a, b, "line {i} under {config:?}, {answer:?}");
            }
            assert_eq!(filtered.len(), every_job.len());
        }
    }

    /// A GridManager a test can look into after the world has run.
    struct Shared(Rc<RefCell<GridManager>>);

    impl Component for Shared {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.borrow_mut().on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            self.0.borrow_mut().on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
            self.0.borrow_mut().on_timer(ctx, id, tag);
        }
    }

    /// A GridManager with `counts[i]` live `Active` jobs at gatekeeper
    /// `i`, job ids and contacts counting up from 1 and 501 across the
    /// sites; each gatekeeper is a [`Sink`] answering as `answer`. Returns
    /// the world, not yet run, what the sinks are sent, the gatekeepers
    /// and the GridManager.
    fn per_site(
        counts: &[u64],
        answer: Answer,
    ) -> (World, Log, Vec<Addr>, Rc<RefCell<GridManager>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut w = World::new(Config::default().seed(9));
        let home = w.add_node("submit");
        let scheduler = w.add_component(home, "scheduler", Sink::new(&log, Answer::Alive));
        let gks: Vec<Addr> = (0..counts.len())
            .map(|i| {
                let node = w.add_node(&format!("site{i}"));
                w.add_component(node, "gk", Sink::new(&log, answer))
            })
            .collect();
        let broker = StaticListBroker::new(Vec::new());
        let mut gm = GridManager::new(
            GmConfig::default(),
            proxy(Duration::from_days(1)),
            scheduler,
            scheduler,
            Box::new(broker),
            false,
        );
        let mut id = 0;
        for (&gk, &n) in gks.iter().zip(counts) {
            for _ in 0..n {
                id += 1;
                place(&mut gm, GridJobId(id), gk, 500 + id, live(gk));
            }
        }
        let gm = Rc::new(RefCell::new(gm));
        w.add_component(home, "gm", Shared(gm.clone()));
        (w, log, gks, gm)
    }

    /// The lines of `log` holding a `kind` message sent to `to`.
    fn sent(log: &Log, to: Addr, kind: &str) -> Vec<String> {
        let to = format!("-> {to:?} {kind}");
        log.borrow()
            .iter()
            .filter(|l| l.contains(&to))
            .cloned()
            .collect()
    }

    #[test]
    fn one_site_probe_per_gatekeeper_per_interval() {
        let (mut w, log, gks, _) = per_site(&[1, 40], Answer::Alive);
        // Rounds at 30 s, 5 min 30 s and 10 min 30 s.
        w.run_until(SimTime::ZERO + Duration::from_mins(12));
        for (gk, contacts) in gks.iter().zip([501..502, 502..542]) {
            let probes = sent(&log, *gk, "SiteProbe");
            assert_eq!(probes.len(), 3, "{probes:#?}");
            // Every job at the site, in id order, with its believed state.
            let jobs = contacts
                .map(|c| (JobContact(c), Some(GramJobState::Active)))
                .collect();
            let listed = format!("{:?}", GramRequest::SiteProbe { jobs });
            assert!(probes.iter().all(|p| p.ends_with(&listed)), "{probes:#?}");
            assert!(sent(&log, *gk, "RestartJobManager").is_empty());
        }
        assert_eq!(w.metrics().counter("gm.probes"), 6);
        assert_eq!(w.metrics().counter("gm.probes_missed"), 0);
    }

    #[test]
    fn a_none_answer_restarts_the_jobmanager() {
        let (mut w, log, gks, gm) = per_site(&[2], Answer::Dead);
        // One round, at 30 s: both JobManagers are found gone.
        w.run_until(SimTime::ZERO + Duration::from_mins(1));
        let restarts = sent(&log, gks[0], "RestartJobManager");
        assert_eq!(restarts.len(), 2, "{restarts:#?}");
        for (restart, contact) in restarts.iter().zip([501, 502]) {
            assert!(restart.contains(&format!("contact: JobContact({contact})")));
        }
        assert_eq!(w.metrics().counter("gm.jm_restarted"), 2);
        let gm = gm.borrow();
        for job in [GridJobId(1), GridJobId(2)] {
            assert!(matches!(gm.jobs[&job].phase, Phase::Live { .. }));
        }
    }

    #[test]
    fn two_silent_rounds_put_the_site_in_reattach_and_the_next_answer_restarts_none_and_reconnects_each(
    ) {
        let (mut w, log, gks, gm) = per_site(&[3], Answer::SilentFor(2));
        // Rounds at 30 s and 5 min 30 s go unanswered; the one at 10 min
        // 30 s finds the second still so.
        w.run_until(SimTime::ZERO + Duration::from_secs(630));
        assert_eq!(w.metrics().counter("gm.probes_missed"), 2);
        for job in 1..=3 {
            assert!(matches!(
                gm.borrow().jobs[&GridJobId(job)].phase,
                Phase::Reattach
            ));
        }
        // The site answers that round, which asked after each job
        // regardless, with each JobManager alive: each is reconnected, so
        // re-pointed at the GASS server and handed the credential once,
        // and none is restarted.
        w.run_until(SimTime::ZERO + Duration::from_mins(15));
        let probes = sent(&log, gks[0], "SiteProbe");
        let jobs = (501..504).map(|c| (JobContact(c), None)).collect();
        let listed = format!("{:?}", GramRequest::SiteProbe { jobs });
        assert!(probes[2].ends_with(&listed), "{probes:#?}");
        assert!(sent(&log, gks[0], "RestartJobManager").is_empty());
        assert_eq!(sent(&log, gks[0], "UpdateGass").len(), 3);
        assert_eq!(sent(&log, gks[0], "RefreshCredential").len(), 3);
        assert_eq!(w.metrics().counter("gm.jm_reconnects"), 3);
        assert_eq!(w.metrics().counter("gm.probes_missed"), 2);
        for job in 1..=3 {
            assert!(matches!(
                gm.borrow().jobs[&GridJobId(job)].phase,
                Phase::Live { jm, .. } if jm == gks[0]
            ));
        }
    }

    #[test]
    fn a_reattaching_job_found_gone_is_restarted_and_a_lost_restart_answer_reconnects_it() {
        let (mut w, log, gks, gm) = per_site(&[1], Answer::RestartsSilently);
        {
            let mut gm = gm.borrow_mut();
            gm.jobs.get_mut(&GridJobId(1)).expect("placed").phase = Phase::Reattach;
        }
        // The round at 30 s finds the JobManager gone and restarts it; the
        // answer to the restart is lost, so the job still waits.
        w.run_until(SimTime::ZERO + Duration::from_mins(1));
        assert_eq!(sent(&log, gks[0], "RestartJobManager").len(), 1);
        assert!(matches!(
            gm.borrow().jobs[&GridJobId(1)].phase,
            Phase::Reattach
        ));
        // The round at 5 min 30 s asks again and finds the new JobManager
        // alive: it is reconnected, not restarted a second time.
        w.run_until(SimTime::ZERO + Duration::from_mins(6));
        assert_eq!(sent(&log, gks[0], "RestartJobManager").len(), 1);
        assert_eq!(sent(&log, gks[0], "UpdateGass").len(), 1);
        assert_eq!(sent(&log, gks[0], "RefreshCredential").len(), 1);
        let m = w.metrics();
        assert_eq!(m.counter("gm.jm_restarts_requested"), 1);
        assert_eq!(m.counter("gm.jm_restarted"), 0);
        assert_eq!(m.counter("gm.jm_reconnects"), 1);
        assert!(matches!(
            gm.borrow().jobs[&GridJobId(1)].phase,
            Phase::Live {
                gram_state: GramJobState::Active,
                ..
            }
        ));
    }

    /// `seeded`'s GridManager, with `msg` posted to it and one second run:
    /// what the sinks were sent, and the GridManager. Job 92 (contact 78)
    /// is queued at east since time zero and 91 (contact 79) is the same
    /// mid-move; both have west back on offer. The sink never calls back,
    /// so a state learned here stands in for a lost callback.
    fn after_post(msg: GramReply) -> (Vec<String>, Rc<RefCell<GridManager>>) {
        let proxy = proxy(Duration::from_days(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut w = World::new(Config::default().seed(9));
        let (home, away) = (w.add_node("submit"), w.add_node("site"));
        let peer = w.add_component(away, "peer", Sink::new(&log, Answer::Alive));
        let scheduler = w.add_component(home, "scheduler", Sink::new(&log, Answer::Alive));
        let mut gm = seeded(GmConfig::default(), &proxy, scheduler, peer);
        for job in [91, 92] {
            gm.jobs
                .get_mut(&GridJobId(job))
                .expect("seeded")
                .excluded
                .clear();
        }
        let gm = Rc::new(RefCell::new(gm));
        let at = w.add_component(home, "gm", Shared(gm.clone()));
        w.post(at, msg);
        w.run_until(SimTime::ZERO + Duration::from_secs(1));
        let seen = log.borrow().clone();
        (seen, gm)
    }

    fn site_says(contact: u64, state: GramJobState) -> GramReply {
        let jm = Addr {
            node: gridsim::NodeId(1),
            comp: gridsim::CompId(0),
        };
        GramReply::SiteStatus {
            changed: vec![(JobContact(contact), Some((jm, state)))],
        }
    }

    #[test]
    fn a_probe_learned_removed_moves_a_migrating_job() {
        // Contact 79 is mid-move: the site's Removed is the GridManager's
        // own cancel, so the job goes to west instead of ending removed.
        let (seen, gm) = after_post(site_says(79, GramJobState::Removed));
        assert!(seen.iter().any(|l| l.ends_with("DoneAck")), "{seen:#?}");
        assert!(!seen.iter().any(|l| l.contains("Removed")), "{seen:#?}");
        let gm = gm.borrow();
        let j = &gm.jobs[&GridJobId(91)];
        // The sink answers the new submission (seq 1000) as contact 6000.
        assert_eq!(j.contact, Some(JobContact(6000)));
        assert_eq!(j.site.as_deref(), Some("west"));
        assert_eq!(j.excluded, ["east"]);
        assert!(!j.migrating);
        assert!(!gm.by_contact.contains_key(&JobContact(79)));
    }

    /// The job's reports to the Scheduler, and its phase's state and
    /// queue clock.
    fn reported(
        seen: &[String],
        gm: &Rc<RefCell<GridManager>>,
        job: u64,
    ) -> (Vec<String>, GramJobState, Option<SimTime>) {
        let updates = seen.iter().filter(|l| l.contains("GmUpdate")).cloned();
        let Phase::Live {
            gram_state,
            pending_since,
            ..
        } = gm.borrow().jobs[&GridJobId(job)].phase
        else {
            panic!("the job is not Live");
        };
        (updates.collect(), gram_state, pending_since)
    }

    #[test]
    fn a_probe_learned_active_is_reported_and_ends_the_queue_wait() {
        let (seen, gm) = after_post(site_says(78, GramJobState::Active));
        let (updates, state, pending_since) = reported(&seen, &gm, 92);
        assert_eq!(updates.len(), 1, "{seen:#?}");
        assert!(updates[0].ends_with("status: Active }"), "{seen:#?}");
        assert_eq!(state, GramJobState::Active);
        assert_eq!(pending_since, None);
    }

    #[test]
    fn a_restarted_jobmanager_resumes_in_its_logged_state() {
        // Job 95 (contact 75) waits to reattach; the log says Active.
        let restarted = |state| GramReply::Restarted {
            contact: JobContact(75),
            jobmanager: Addr {
                node: gridsim::NodeId(1),
                comp: gridsim::CompId(0),
            },
            state,
        };
        let (seen, gm) = after_post(restarted(GramJobState::Active));
        let (updates, state, pending_since) = reported(&seen, &gm, 95);
        assert_eq!(updates.len(), 1, "{seen:#?}");
        assert!(updates[0].ends_with("status: Active }"), "{seen:#?}");
        assert_eq!(state, GramJobState::Active);
        assert_eq!(pending_since, None);
        // A terminal state is news too: the JobManager gets its DoneAck at
        // once and the job is done.
        let (seen, gm) = after_post(restarted(GramJobState::Done));
        assert!(seen.iter().any(|l| l.ends_with("DoneAck")), "{seen:#?}");
        let updates: Vec<_> = seen.iter().filter(|l| l.contains("GmUpdate")).collect();
        assert_eq!(updates.len(), 1, "{seen:#?}");
        assert!(updates[0].ends_with("status: Done }"), "{seen:#?}");
        assert!(!gm.borrow().jobs.contains_key(&GridJobId(95)));
    }

    #[test]
    fn a_job_reconnected_before_its_commit_landed_is_committed() {
        let (mut w, log, gks, gm) = per_site(&[1], Answer::Alive);
        {
            let mut gm = gm.borrow_mut();
            gm.jobs.get_mut(&GridJobId(1)).expect("placed").phase = Phase::Reattach;
        }
        // The site answers that the job's JobManager is alive and still
        // waiting for the commit.
        let at = w.lookup(NodeId(0), "gm").expect("the GridManager");
        w.post(
            at,
            GramReply::SiteStatus {
                changed: vec![(JobContact(501), Some((gks[0], GramJobState::PendingCommit)))],
            },
        );
        // So the commit is owed: it goes out on every tick, 30 s apart,
        // until the JobManager acknowledges it.
        w.run_until(SimTime::ZERO + Duration::from_secs(100));
        assert_eq!(w.metrics().counter("gm.jm_reconnects"), 1);
        assert_eq!(sent(&log, gks[0], "Commit").len(), 3);
        w.post(
            at,
            JmMsg::CommitAck {
                contact: JobContact(501),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_mins(4));
        assert_eq!(sent(&log, gks[0], "Commit").len(), 3);
        assert!(sent(&log, gks[0], "RestartJobManager").is_empty());
        assert!(matches!(
            gm.borrow().jobs[&GridJobId(1)].phase,
            Phase::Live {
                gram_state: GramJobState::PendingCommit,
                commit_acked: true,
                ..
            }
        ));
    }

    /// A JobManager that calls its GridManager back once, in `state`, as
    /// it starts, and is otherwise a [`Sink`].
    struct CallsBack {
        sink: Sink,
        gm: Addr,
        contact: JobContact,
        state: GramJobState,
    }

    impl Component for CallsBack {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let callback = JmMsg::Callback {
                contact: self.contact,
                state: self.state,
                at: ctx.now(),
            };
            ctx.send(self.gm, callback);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            self.sink.on_message(ctx, from, msg);
        }
    }

    #[test]
    fn a_reattaching_job_whose_jobmanager_calls_back_done_acknowledges_it() {
        let (mut w, log, gks, gm) = per_site(&[1], Answer::Alive);
        gm.borrow_mut()
            .jobs
            .get_mut(&GridJobId(1))
            .expect("placed")
            .phase = Phase::Reattach;
        let at = w.lookup(NodeId(0), "gm").expect("the GridManager");
        let callback = CallsBack {
            sink: Sink::new(&log, Answer::Alive),
            gm: at,
            contact: JobContact(501),
            state: GramJobState::Done,
        };
        let jm = w.add_component(gks[0].node, "jm", callback);
        // The callback beats the first probe round, at 30 s: the JobManager
        // is reconnected and its terminal state acknowledged, so it may go.
        w.run_until(SimTime::ZERO + Duration::from_secs(10));
        assert_eq!(sent(&log, jm, "DoneAck").len(), 1);
        assert_eq!(sent(&log, jm, "UpdateGass").len(), 1);
        assert_eq!(w.metrics().counter("gm.jm_reconnects"), 1);
        assert!(!gm.borrow().jobs.contains_key(&GridJobId(1)));
    }

    #[test]
    #[should_panic(expected = "GridManager: gj1 reported Staging after its terminal Done")]
    fn a_job_reported_terminal_is_never_reported_again() {
        let (mut w, _, _, gm) = per_site(&[1], Answer::Alive);
        gm.borrow_mut()
            .jobs
            .get_mut(&GridJobId(1))
            .expect("placed")
            .reported = JobStatus::Done;
        let at = w.lookup(NodeId(0), "gm").expect("the GridManager");
        w.post(at, site_says(501, GramJobState::StageOut));
        w.run_until(SimTime::ZERO + Duration::from_secs(10));
    }

    #[test]
    fn borrowed_disk_view_encodes_as_the_owned_record() {
        let peer = Addr {
            node: gridsim::NodeId(2),
            comp: gridsim::CompId(5),
        };
        let spec = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30))
            .with_stdout(4096)
            .with_args(&["--events", "500"]);
        let mut j = GmJob::new(spec);
        for placed in [false, true] {
            if placed {
                j.attempts = 2;
                j.seq = Some(41);
                j.site = Some("east".into());
                j.gatekeeper = Some(peer);
                j.contact = Some(JobContact(0xbeef_0000_0001));
                j.excluded = vec!["west".into(), "north".into()];
            }
            let owned = GmJobDisk {
                spec: j.spec.clone(),
                attempts: j.attempts,
                seq: j.seq,
                site: j.site.clone(),
                gatekeeper: j.gatekeeper,
                contact: j.contact.map(|c| c.0),
                excluded: j.excluded.clone(),
                terminal: false,
            };
            assert_eq!(to_bytes(&j.disk_view()), to_bytes(&owned));
            let mut scratch = vec![0xAA; 5];
            encode_into(&mut scratch, &j.disk_view());
            assert_eq!(scratch[5..], to_bytes(&owned)[..]);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The GridManager's per-job record and its borrowed view, byte for
    /// byte in the varint layout.
    #[test]
    fn gm_record_bytes_are_pinned() {
        let spec = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30))
            .with_stdout(4096)
            .with_args(&["--events", "500"]);
        let mut j = GmJob::new(spec);
        j.attempts = 2;
        j.seq = Some(41);
        j.site = Some("east".into());
        j.gatekeeper = Some(Addr {
            node: gridsim::NodeId(2),
            comp: gridsim::CompId(5),
        });
        j.contact = Some(JobContact(0xbeef_0000_0001));
        j.excluded = vec!["west".into(), "north".into()];
        let owned = GmJobDisk {
            spec: j.spec.clone(),
            attempts: j.attempts,
            seq: j.seq,
            site: j.site.clone(),
            gatekeeper: j.gatekeeper,
            contact: j.contact.map(|c| c.0),
            excluded: j.excluded.clone(),
            terminal: false,
        };
        let pinned = "03617070122f686f6d652f6a616e652f6170702e65786502082d2d6576656e7473033530300080a4a7da060180200000000000000201290104656173740102050181808080f0dd2f020477657374056e6f72746800";
        assert_eq!(hex(&to_bytes(&owned)), pinned);
        assert_eq!(hex(&to_bytes(&j.disk_view())), pinned);
        let back = from_bytes::<GmJobDisk>(&to_bytes(&owned)).unwrap();
        assert_eq!(to_bytes(&back), to_bytes(&owned));
    }

    proptest! {
        /// Whatever is on the disk, `Recover` gets a record or a refusal.
        #[test]
        fn stored_gm_records_decode_or_are_refused(
            noise in proptest::collection::vec(any::<u8>(), 0..200),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            cut in any::<usize>(),
        ) {
            let _ = from_bytes::<GmJobDisk>(&noise);
            let spec = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30));
            let mut j = GmJob::new(spec);
            j.site = Some("east".into());
            j.excluded = vec!["west".into()];
            let mut bytes = to_bytes(&j.disk_view());
            prop_assert!(from_bytes::<GmJobDisk>(&bytes).is_ok());
            for (at, mask) in flips {
                let n = bytes.len();
                bytes[at % n] ^= mask;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = from_bytes::<GmJobDisk>(&bytes);
        }
    }
}
