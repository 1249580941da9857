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
//! It also owns credential management (§4.3): periodic proxy analysis,
//! alarms, hold-and-email on expiry, automatic MyProxy refresh, and
//! re-forwarding refreshed proxies to remote JobManagers.

use crate::api::{GridJobId, GridJobSpec, JobStatus};
use crate::broker::Broker;
use crate::email::Email;
use gass::GassUrl;
use gram::proto::{GramJobState, GramReply, GramRequest, JmMsg, JobContact};
use gram::{RslSpec, SubmitSession};
use gridsim::hash::IdMap;
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
    /// JobManager probe period.
    pub probe_interval: Duration,
    /// Internal bookkeeping tick.
    pub tick: Duration,
    /// Submit retransmission period.
    pub submit_retry: Duration,
    /// Resubmission budget per job before it fails for good.
    pub max_retries: u32,
    /// E-mail an alarm when less than this much proxy life remains.
    pub warn_before: Duration,
    /// Hold jobs when less than this much proxy life remains.
    pub hold_before: Duration,
    /// MDS poll period.
    pub mds_poll: Duration,
    /// §4.4: migrate a job that has been *queued* at a site this long to
    /// another candidate site ("Monitoring of actual queuing and execution
    /// times allows... to migrate queued jobs"). `None` disables.
    pub migrate_pending_after: Option<Duration>,
    /// The §4.2 failure-detection machinery (probing, gatekeeper pings,
    /// JobManager restarts). Disable for the fault-tolerance ablation.
    pub recovery: bool,
}

impl Default for GmConfig {
    fn default() -> GmConfig {
        GmConfig {
            user: "user".into(),
            giis: None,
            myproxy: None,
            mailer: None,
            probe_interval: Duration::from_mins(5),
            tick: Duration::from_secs(30),
            submit_retry: Duration::from_secs(30),
            max_retries: 5,
            warn_before: Duration::from_hours(2),
            hold_before: Duration::from_mins(15),
            mds_poll: Duration::from_mins(5),
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
    stdout_path: String,
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
        stdout_path,
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
        probe_sent: Option<SimTime>,
        last_contact: SimTime,
        missed: u32,
        gram_state: GramJobState,
        /// The commit has been acknowledged (stop retransmitting it).
        commit_acked: bool,
        /// When the job entered the site queue (for migration decisions).
        pending_since: Option<SimTime>,
    },
    /// JobManager unresponsive: pinging the gatekeeper.
    PingingGk { last_ping: SimTime },
    /// Restart request sent; waiting for the new JobManager.
    AwaitRestart { since: SimTime },
    /// Nothing more to do.
    Terminal,
}

struct GmJob {
    spec: GridJobSpec,
    attempts: u32,
    seq: Option<u64>,
    site: Option<String>,
    gatekeeper: Option<Addr>,
    contact: Option<JobContact>,
    stdout_path: String,
    excluded: Vec<String>,
    phase: Phase,
    reported: JobStatus,
    /// This job's entry in `GridManager::due`.
    slot: usize,
    /// A cancel is in flight because the job is being moved to a better
    /// site; the Removed callback resubmits instead of finishing.
    migrating: bool,
}

impl GmJob {
    /// A job the GridManager has just been handed.
    fn new(job: GridJobId, spec: GridJobSpec) -> GmJob {
        GmJob {
            spec,
            attempts: 0,
            seq: None,
            site: None,
            gatekeeper: None,
            contact: None,
            stdout_path: format!("/condor_g/out/{job}"),
            excluded: Vec::new(),
            phase: Phase::NeedSite,
            reported: JobStatus::Unsubmitted,
            slot: usize::MAX,
            migrating: false,
        }
    }

    /// The earliest instant at which [`GridManager::tick_job`] does
    /// anything for this job, as of its current phase: `ZERO` means every
    /// tick, `MAX` never.
    fn due(&self, config: &GmConfig) -> SimTime {
        match &self.phase {
            // Asks the broker again on every tick.
            Phase::NeedSite => SimTime::ZERO,
            Phase::Submitting { session, last_send } if session.awaiting_reply() => {
                *last_send + config.submit_retry
            }
            Phase::Submitting { .. } | Phase::Terminal => SimTime::MAX,
            // The commit is retransmitted on every tick until acknowledged.
            Phase::Live {
                commit_acked: false,
                ..
            } => SimTime::ZERO,
            Phase::Live {
                probe_sent,
                last_contact,
                gram_state,
                pending_since,
                ..
            } => {
                let queued = matches!(
                    gram_state,
                    GramJobState::Pending | GramJobState::PendingCommit
                );
                let migrate = match (config.migrate_pending_after, pending_since) {
                    (Some(patience), Some(since)) if queued && !self.migrating => *since + patience,
                    _ => SimTime::MAX,
                };
                let probe = if config.recovery {
                    probe_sent.unwrap_or(*last_contact) + config.probe_interval
                } else {
                    SimTime::MAX
                };
                migrate.min(probe)
            }
            Phase::PingingGk { last_ping } => *last_ping + config.probe_interval,
            Phase::AwaitRestart { since } => *since + config.probe_interval * 2,
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
            self.stdout_path.as_str(),
            &self.excluded,
            false,
        )
    }
}

const TAG_TICK: u64 = 1;

/// The GridManager component.
pub struct GridManager {
    config: GmConfig,
    credential: ProxyCredential,
    scheduler: Addr,
    gass: Addr,
    broker: Option<Box<dyn Broker>>,
    jobs: BTreeMap<GridJobId, GmJob>,
    /// Secondary indexes over `jobs` — protocol replies arrive keyed by
    /// submit sequence number or job contact, and a campaign-sized queue
    /// cannot afford a linear scan per reply.
    by_seq: IdMap<u64, GridJobId>,
    by_contact: IdMap<JobContact, GridJobId>,
    /// Store keys: `gm/<user>/job/<id>` built in place, `gm/<user>/next_seq`.
    job_key: KeyBuf,
    seq_key: String,
    /// The tick's side table: `due[j.slot]` is the earliest instant at which
    /// `tick_job` does anything for the job in that slot ([`GmJob::due`]),
    /// refreshed after every handler that touched the job — so it may be
    /// early, never late — and `SimTime::MAX` in a free slot. Sixteen bytes
    /// a job, scanned once per tick instead of the job map.
    due: Vec<(SimTime, GridJobId)>,
    free_slots: Vec<usize>,
    /// The ids a tick found due, reused from tick to tick.
    due_now: Vec<GridJobId>,
    /// Jobs that reached a terminal state and were evicted from `jobs`
    /// (their persisted record shrinks to a tombstone). Keeps the hot map
    /// proportional to *live* jobs, not campaign size.
    retired: u64,
    next_seq: u64,
    held: bool,
    warned: bool,
    myproxy_req: u64,
    last_mds_poll: Option<SimTime>,
    mds_req: u64,
    /// Correlation ids for lean-mode GASS cache cleanup requests.
    gass_req: u64,
    recovering: bool,
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
            due: Vec::new(),
            free_slots: Vec::new(),
            due_now: Vec::new(),
            config,
            credential,
            scheduler,
            gass,
            broker: Some(broker),
            jobs: BTreeMap::new(),
            by_seq: IdMap::default(),
            by_contact: IdMap::default(),
            retired: 0,
            next_seq: 0,
            held: false,
            warned: false,
            myproxy_req: 0,
            last_mds_poll: None,
            mds_req: 0,
            gass_req: 0,
            recovering,
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
                stdout_path: String::new(),
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
        let Some(j) = self.jobs.get(&job) else { return };
        if !matches!(j.phase, Phase::Terminal) {
            return;
        }
        if let Some(seq) = j.seq {
            self.by_seq.remove(&seq);
        }
        if let Some(contact) = j.contact {
            self.by_contact.remove(&contact);
        }
        let staged_out =
            (j.spec.stdout_size > 0 && !j.stdout_path.is_empty()).then(|| j.stdout_path.clone());
        self.due[j.slot].0 = SimTime::MAX;
        self.free_slots.push(j.slot);
        self.jobs.remove(&job);
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
            if let Some(path) = staged_out {
                self.gass_req += 1;
                ctx.send(
                    self.gass,
                    gass::GassRequest::Delete {
                        request_id: self.gass_req,
                        credential: self.credential.clone(),
                        path,
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
        let stdout_path = format!("/condor_g/out/{job}");
        let mut rsl = RslSpec::job(&exe_url.to_string(), spec.runtime).with_count(spec.count);
        rsl.arguments = spec.arguments.clone();
        if spec.stdout_size > 0 {
            let out_url = GassUrl::gass(self.gass, &stdout_path);
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
        j.stdout_path = format!("/condor_g/out/{job}");
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
        let max_retries = self.config.max_retries;
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
            let name = format!("site.{site}.attempt_failures");
            ctx.metrics().incr(&name, 1);
        }
        if let Some(site) = j.site.take() {
            if !j.excluded.contains(&site) {
                j.excluded.push(site);
            }
        }
        j.gatekeeper = None;
        let (old_seq, old_contact) = (j.seq.take(), j.contact.take());
        if j.attempts > max_retries {
            j.phase = Phase::Terminal;
            let reason = format!("{why} (after {} attempts)", j.attempts);
            self.unindex(old_seq, old_contact);
            self.persist_job(ctx, job);
            self.report(ctx, job, JobStatus::Failed(reason));
            self.retire(ctx, job);
        } else {
            j.phase = Phase::NeedSite;
            self.unindex(old_seq, old_contact);
            self.persist_job(ctx, job);
            self.begin_submit(ctx, job);
        }
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
        let Some(j) = self.jobs.get(&job) else {
            return 0;
        };
        let key = format!("gass/size{}", j.stdout_path);
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
            let jobs: Vec<GridJobId> = self
                .jobs
                .iter()
                .filter(|(_, j)| !matches!(j.phase, Phase::Terminal))
                .map(|(id, _)| *id)
                .collect();
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
        let targets: Vec<(GridJobId, Addr)> = self
            .jobs
            .iter()
            .filter_map(|(id, j)| match &j.phase {
                Phase::Live { jm, .. } => Some((*id, *jm)),
                _ => None,
            })
            .collect();
        for (_, jm) in &targets {
            ctx.send(
                *jm,
                JmMsg::RefreshCredential {
                    credential: self.credential.clone(),
                },
            );
        }
        if self.held {
            self.held = false;
            // Un-hold: restore live statuses and resume queued submissions.
            let jobs: Vec<GridJobId> = self.jobs.keys().copied().collect();
            for job in jobs {
                match self.jobs[&job].phase {
                    Phase::NeedSite => {
                        self.report(ctx, job, JobStatus::Unsubmitted);
                        self.begin_submit(ctx, job);
                    }
                    Phase::Live { gram_state, .. } => {
                        let status = gram_state_to_status(gram_state, true);
                        self.report(ctx, job, status);
                    }
                    Phase::Submitting { .. }
                    | Phase::PingingGk { .. }
                    | Phase::AwaitRestart { .. } => {
                        self.report(ctx, job, JobStatus::Pending);
                    }
                    Phase::Terminal => {}
                }
            }
            self.refresh_all_due();
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

    fn tick_job(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let now = ctx.now();
        let probe_interval = self.config.probe_interval;
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
                probe_sent,
                last_contact,
                missed,
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
                if !self.config.recovery {
                    return; // ablation: no probing, no failure detection
                }
                match probe_sent {
                    Some(sent) if now - *sent >= probe_interval => {
                        // Probe timed out unanswered.
                        *missed += 1;
                        *probe_sent = None;
                        ctx.metrics().incr("gm.probes_missed", 1);
                        if *missed >= 2 {
                            // "the GridManager then probes the GateKeeper"
                            ctx.trace_with("gm.jm_lost", || format!("{job}"));
                            let gk = j.gatekeeper.expect("live job has a gatekeeper");
                            ctx.send(gk, GramRequest::Ping { nonce: job.0 });
                            j.phase = Phase::PingingGk { last_ping: now };
                        }
                    }
                    None if now - *last_contact >= probe_interval => {
                        let nonce = now.micros();
                        ctx.metrics().incr("gm.probes", 1);
                        ctx.send(*jm, JmMsg::Probe { nonce });
                        *probe_sent = Some(now);
                    }
                    _ => {}
                }
            }
            Phase::PingingGk { last_ping } => {
                if now - *last_ping >= probe_interval {
                    // "the GridManager waits until it can reestablish
                    // contact with the remote machine" — keep pinging.
                    let gk = j.gatekeeper.expect("pinging job has a gatekeeper");
                    ctx.send(gk, GramRequest::Ping { nonce: job.0 });
                    *last_ping = now;
                }
            }
            Phase::AwaitRestart { since } => {
                if now - *since >= probe_interval * 2 {
                    // The restart request was lost: ping again.
                    let gk = j.gatekeeper.expect("job has a gatekeeper");
                    ctx.send(gk, GramRequest::Ping { nonce: job.0 });
                    j.phase = Phase::PingingGk { last_ping: now };
                }
            }
            Phase::Terminal => {}
        }
    }

    /// Take responsibility for `rec`: into the map, with a slot in `due`.
    fn adopt(&mut self, job: GridJobId, mut rec: GmJob) {
        rec.slot = self.free_slots.pop().unwrap_or_else(|| {
            self.due.push((SimTime::MAX, job));
            self.due.len() - 1
        });
        self.due[rec.slot] = (rec.due(&self.config), job);
        self.jobs.insert(job, rec);
    }

    /// Bring `job`'s `due` entry up to date with its phase. Every handler
    /// that may have touched a job ends with this.
    fn refresh_due(&mut self, job: GridJobId) {
        if let Some(j) = self.jobs.get(&job) {
            self.due[j.slot].0 = j.due(&self.config);
        }
    }

    /// The same for every job, after an event that concerns them all.
    fn refresh_all_due(&mut self) {
        for j in self.jobs.values() {
            self.due[j.slot].0 = j.due(&self.config);
        }
    }

    /// One scan of the `due` table picks out the jobs with something due;
    /// only those re-enter `tick_job`, in ascending id order, so their sends
    /// and RNG draws keep the order a tick of every job would give them.
    /// No `tick_job` touches another job, so the pick holds for the tick.
    fn tick_due_jobs(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut due_now = std::mem::take(&mut self.due_now);
        due_now.clear();
        due_now.extend(
            self.due
                .iter()
                .filter(|(at, _)| *at <= now)
                .map(|(_, job)| *job),
        );
        due_now.sort_unstable();
        for &job in &due_now {
            self.tick_job(ctx, job);
            self.refresh_due(job);
        }
        self.due_now = due_now;
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: GmCmd) {
        match cmd {
            GmCmd::Manage { job, spec } => {
                self.adopt(job, GmJob::new(job, spec));
                self.persist_job(ctx, job);
                self.begin_submit(ctx, job);
                self.refresh_due(job);
            }
            GmCmd::Recover { job, spec } => {
                let node = ctx.node();
                let disk = ctx.store().get::<GmJobDisk>(node, self.job_key.key(job.0));
                let mut rec = GmJob::new(job, spec);
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
                    rec.stdout_path = d.stdout_path;
                    rec.excluded = d.excluded;
                }
                // Re-establish contact: if we know the job's contact,
                // ping the gatekeeper and restart its JobManager; else
                // the submission never stuck, so submit afresh.
                if let Some(seq) = rec.seq {
                    self.by_seq.insert(seq, job);
                }
                if let Some(contact) = rec.contact {
                    self.by_contact.insert(contact, job);
                }
                match (rec.contact, rec.gatekeeper) {
                    (Some(_), Some(gk)) => {
                        ctx.metrics().incr("gm.job_recoveries", 1);
                        ctx.send(gk, GramRequest::Ping { nonce: job.0 });
                        rec.phase = Phase::PingingGk {
                            last_ping: ctx.now(),
                        };
                        self.adopt(job, rec);
                    }
                    _ => {
                        self.adopt(job, rec);
                        self.begin_submit(ctx, job);
                        self.refresh_due(job);
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
                    _ => {
                        j.phase = Phase::Terminal;
                        self.persist_job(ctx, job);
                        self.report(ctx, job, JobStatus::Removed);
                        self.retire(ctx, job);
                    }
                }
                self.refresh_due(job);
            }
            GmCmd::RefreshProxy { credential } => self.adopt_credential(ctx, credential),
        }
    }

    /// A gatekeeper's answer about `job` (which is in the map).
    fn on_gram_reply(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, reply: &GramReply) {
        match reply {
            GramReply::Submitted {
                contact,
                jobmanager,
                ..
            } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                if let Phase::Submitting { session, .. } = &mut j.phase {
                    use gram::client::SubmitAction;
                    match session.on_reply(reply) {
                        SubmitAction::SendCommit { jobmanager, .. } => {
                            ctx.send(jobmanager, JmMsg::Commit);
                            j.contact = Some(*contact);
                            j.phase = Phase::Live {
                                jm: jobmanager,
                                probe_sent: None,
                                last_contact: ctx.now(),
                                missed: 0,
                                gram_state: GramJobState::PendingCommit,
                                commit_acked: false,
                                pending_since: Some(ctx.now()),
                            };
                            self.persist_job(ctx, job);
                        }
                        SubmitAction::GiveUp(_) | SubmitAction::Ignore => {}
                    }
                } else if matches!(
                    j.phase,
                    Phase::PingingGk { .. } | Phase::AwaitRestart { .. }
                ) {
                    // A duplicate submit answer can double as recovery.
                    j.contact = Some(*contact);
                    j.phase = Phase::Live {
                        jm: *jobmanager,
                        probe_sent: None,
                        last_contact: ctx.now(),
                        missed: 0,
                        gram_state: GramJobState::Pending,
                        commit_acked: true,
                        pending_since: Some(ctx.now()),
                    };
                    self.persist_job(ctx, job);
                }
                // Either branch may have learned the contact just now.
                if self
                    .jobs
                    .get(&job)
                    .is_some_and(|j| j.contact == Some(*contact))
                {
                    self.by_contact.insert(*contact, job);
                }
            }
            GramReply::SubmitFailed { error, .. } => {
                self.attempt_failed(ctx, job, &format!("submit failed: {error}"));
            }
            GramReply::Pong { .. } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                if let Phase::PingingGk { .. } = j.phase {
                    // "If the GateKeeper responds... attempts to start a
                    // new JobManager to resume watching the job."
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
                    let j = self.jobs.get_mut(&job).expect("job exists");
                    j.phase = Phase::AwaitRestart { since: ctx.now() };
                }
            }
            GramReply::Restarted { jobmanager, .. } => {
                let have = self.stdout_have(ctx, job);
                // Re-point the JobManager at our (possibly new) GASS
                // server and re-forward the current credential.
                ctx.send(
                    *jobmanager,
                    JmMsg::UpdateGass {
                        gass: GassUrl::gass(self.gass, ""),
                        stdout_have: have,
                    },
                );
                ctx.send(
                    *jobmanager,
                    JmMsg::RefreshCredential {
                        credential: self.credential.clone(),
                    },
                );
                ctx.metrics().incr("gm.jm_restarted", 1);
                let j = self.jobs.get_mut(&job).expect("job exists");
                j.phase = Phase::Live {
                    jm: *jobmanager,
                    probe_sent: None,
                    last_contact: ctx.now(),
                    missed: 0,
                    gram_state: GramJobState::Pending,
                    commit_acked: true,
                    pending_since: Some(ctx.now()),
                };
                self.persist_job(ctx, job);
            }
            GramReply::RestartFailed { error, .. } => {
                self.attempt_failed(ctx, job, &format!("restart failed: {error}"));
            }
        }
    }

    /// A JobManager's word about `job` (which is in the map).
    fn on_jm_msg(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, jm_msg: &JmMsg) {
        match jm_msg {
            JmMsg::Callback { state, exit_ok, .. } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                if let Phase::Live {
                    last_contact,
                    gram_state,
                    commit_acked,
                    pending_since,
                    ..
                } = &mut j.phase
                {
                    *last_contact = ctx.now();
                    *commit_acked = true; // progress implies the commit landed
                                          // Track time-in-queue for migration decisions.
                    let was_queued = matches!(
                        gram_state,
                        GramJobState::Pending | GramJobState::PendingCommit
                    );
                    let is_queued =
                        matches!(state, GramJobState::Pending | GramJobState::PendingCommit);
                    if is_queued && !was_queued {
                        *pending_since = Some(ctx.now());
                    } else if !is_queued {
                        *pending_since = None;
                    }
                    *gram_state = *state;
                }
                match state {
                    GramJobState::Done if *exit_ok => {
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        j.phase = Phase::Terminal;
                        self.persist_job(ctx, job);
                        ctx.metrics().incr("gm.jobs_done", 1);
                        self.report(ctx, job, JobStatus::Done);
                        self.retire(ctx, job);
                    }
                    GramJobState::Done | GramJobState::Failed => {
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        self.attempt_failed(ctx, job, "remote execution failed");
                    }
                    GramJobState::Removed if j.migrating => {
                        // The cancel was ours: move the job.
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        j.migrating = false;
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
                    GramJobState::Removed => {
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        j.phase = Phase::Terminal;
                        self.persist_job(ctx, job);
                        self.report(ctx, job, JobStatus::Removed);
                        self.retire(ctx, job);
                    }
                    state => {
                        if !self.held {
                            let status = gram_state_to_status(*state, false);
                            self.report(ctx, job, status);
                        }
                    }
                }
            }
            JmMsg::CommitAck { .. } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                if let Phase::Live {
                    commit_acked,
                    last_contact,
                    ..
                } = &mut j.phase
                {
                    *commit_acked = true;
                    *last_contact = ctx.now();
                }
            }
            JmMsg::ProbeReply { state, .. } => {
                let j = self.jobs.get_mut(&job).expect("job exists");
                if let Phase::Live {
                    probe_sent,
                    last_contact,
                    missed,
                    gram_state,
                    ..
                } = &mut j.phase
                {
                    *probe_sent = None;
                    *missed = 0;
                    *last_contact = ctx.now();
                    *gram_state = *state;
                }
                // A terminal state learned via probe means the actual
                // callback was lost (e.g. to a partition): act on it.
                match state {
                    GramJobState::Done => {
                        // The JobManager's Done state implies a clean
                        // exit (failures end in Failed).
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        j.phase = Phase::Terminal;
                        self.persist_job(ctx, job);
                        ctx.metrics().incr("gm.jobs_done", 1);
                        self.report(ctx, job, JobStatus::Done);
                        self.retire(ctx, job);
                    }
                    GramJobState::Failed => {
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        self.attempt_failed(ctx, job, "remote execution failed");
                    }
                    GramJobState::Removed => {
                        if let Phase::Live { jm, .. } = j.phase {
                            ctx.send(jm, JmMsg::DoneAck);
                        }
                        j.phase = Phase::Terminal;
                        self.persist_job(ctx, job);
                        self.report(ctx, job, JobStatus::Removed);
                        self.retire(ctx, job);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn poll_mds(&mut self, ctx: &mut Ctx<'_>) {
        let Some(giis) = self.config.giis else { return };
        let due = self
            .last_mds_poll
            .is_none_or(|t| ctx.now() - t >= self.config.mds_poll);
        if !due {
            return;
        }
        self.last_mds_poll = Some(ctx.now());
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

fn gram_state_to_status(state: GramJobState, exit_ok: bool) -> JobStatus {
    match state {
        GramJobState::PendingCommit | GramJobState::Pending => JobStatus::Pending,
        GramJobState::StageIn | GramJobState::StageOut => JobStatus::Staging,
        GramJobState::Active => JobStatus::Active,
        GramJobState::Done => {
            if exit_ok {
                JobStatus::Done
            } else {
                JobStatus::Failed("job exited abnormally".into())
            }
        }
        GramJobState::Failed => JobStatus::Failed("remote failure".into()),
        GramJobState::Removed => JobStatus::Removed,
    }
}

impl Component for GridManager {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.config.tick, TAG_TICK);
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
            self.tick_due_jobs(ctx);
        }
        self.maybe_exit(ctx);
        ctx.set_timer(self.config.tick, TAG_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
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
                GramReply::Pong { nonce } => {
                    Some(GridJobId(*nonce)).filter(|job| self.jobs.contains_key(job))
                }
                GramReply::Restarted { contact, .. } | GramReply::RestartFailed { contact, .. } => {
                    self.by_contact.get(contact).copied()
                }
            };
            if let Some(job) = job {
                self.on_gram_reply(ctx, job, reply);
                self.refresh_due(job);
            }
            return;
        }
        if let Some(jm_msg) = msg.downcast_ref::<JmMsg>() {
            let (JmMsg::Callback { contact, .. }
            | JmMsg::CommitAck { contact }
            | JmMsg::ProbeReply { contact, .. }) = jm_msg
            else {
                return;
            };
            if let Some(&job) = self.by_contact.get(contact) {
                self.on_jm_msg(ctx, job, jm_msg);
                self.refresh_due(job);
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
                    broker.update_ads(parsed, ctx.now());
                }
                // Jobs stuck waiting for a site can move now.
                let waiting: Vec<GridJobId> = self
                    .jobs
                    .iter()
                    .filter(|(_, j)| matches!(j.phase, Phase::NeedSite))
                    .map(|(id, _)| *id)
                    .collect();
                for job in waiting {
                    self.begin_submit(ctx, job);
                }
                self.refresh_all_due();
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

    /// Stands where the Scheduler, the gatekeepers and the JobManagers
    /// would: writes down everything it is sent, answers what a gatekeeper
    /// answers (so jobs change phase on replies as well as on ticks), and
    /// as a JobManager stays silent (so probes time out).
    struct Sink {
        log: Rc<RefCell<Vec<String>>>,
    }

    impl Component for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            self.log
                .borrow_mut()
                .push(format!("{} {from:?} {msg:?}", ctx.now()));
            let jobmanager = ctx.self_addr();
            match msg.downcast_ref::<GramRequest>() {
                Some(GramRequest::Submit { seq, .. }) => ctx.send(
                    from,
                    GramReply::Submitted {
                        seq: *seq,
                        contact: JobContact(5000 + seq),
                        jobmanager,
                    },
                ),
                Some(GramRequest::Ping { nonce }) => {
                    ctx.send(from, GramReply::Pong { nonce: *nonce })
                }
                Some(GramRequest::RestartJobManager { contact, .. }) => ctx.send(
                    from,
                    GramReply::Restarted {
                        contact: *contact,
                        jobmanager,
                    },
                ),
                None => {}
            }
        }
    }

    /// A GridManager whose tick either reads the `due` table (the real
    /// `on_timer`) or calls `tick_job` on every job it holds.
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
                let jobs: Vec<GridJobId> = self.gm.jobs.keys().copied().collect();
                for job in jobs {
                    self.gm.tick_job(ctx, job);
                    self.gm.refresh_due(job);
                }
            }
            self.gm.maybe_exit(ctx);
            ctx.set_timer(self.gm.config.tick, TAG_TICK);
        }
    }

    fn live(jm: Addr) -> Phase {
        Phase::Live {
            jm,
            probe_sent: None,
            last_contact: SimTime::ZERO,
            missed: 0,
            gram_state: GramJobState::Active,
            commit_acked: true,
            pending_since: None,
        }
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
            (
                Phase::PingingGk {
                    last_ping: SimTime::ZERO,
                },
                &[],
                false,
            ),
            (
                Phase::AwaitRestart {
                    since: SimTime::ZERO,
                },
                &[],
                false,
            ),
            (Phase::Terminal, &[], false),
        ];
        // The commit never acknowledged; a probe in flight that already
        // missed once; queued long enough to move, and the same mid-move.
        for (unacked, probing, queued, migrating) in [
            (true, false, false, false),
            (false, true, false, false),
            (false, false, true, false),
            (false, false, true, true),
        ] {
            let mut phase = live(peer);
            if let Phase::Live {
                probe_sent,
                missed,
                gram_state,
                commit_acked,
                pending_since,
                ..
            } = &mut phase
            {
                *commit_acked = !unacked;
                if probing {
                    (*probe_sent, *missed) = (Some(SimTime::ZERO), 1);
                }
                if queued {
                    (*gram_state, *pending_since) = (GramJobState::Pending, Some(SimTime::ZERO));
                }
            }
            phases.push((phase, &["west"], migrating));
        }
        for (i, (phase, excluded, migrating)) in phases.into_iter().enumerate() {
            let job = GridJobId(100 - i as u64);
            let spec = GridJobSpec::grid("t", "/bin/t", Duration::from_hours(1));
            let mut rec = GmJob::new(job, spec);
            if !matches!(phase, Phase::NeedSite) {
                rec.site = Some("east".into());
                rec.gatekeeper = Some(peer);
                rec.seq = Some(900 + i as u64);
                rec.contact = Some(JobContact(70 + i as u64));
                gm.by_seq.insert(900 + i as u64, job);
                gm.by_contact.insert(JobContact(70 + i as u64), job);
            }
            rec.phase = phase;
            rec.excluded = excluded.iter().map(|s| s.to_string()).collect();
            rec.migrating = migrating;
            gm.adopt(job, rec);
        }
        gm.next_seq = 1000;
        gm
    }

    /// Forty ticks of `seeded`, as seen from outside: every message sent,
    /// every record left in the store, and how many events it took.
    fn forty_ticks(config: &GmConfig, proxy_life: Duration, every_job: bool) -> Vec<String> {
        let mut ca = CertificateAuthority::new("/CN=CA", 5);
        let proxy = ca
            .issue_identity("/CN=jane", Duration::from_days(30))
            .new_proxy(SimTime::ZERO, proxy_life);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut w = World::new(Config::default().seed(9));
        let (home, away) = (w.add_node("submit"), w.add_node("site"));
        let peer = w.add_component(away, "peer", Sink { log: log.clone() });
        let scheduler = w.add_component(home, "scheduler", Sink { log: log.clone() });
        let gm = seeded(config.clone(), &proxy, scheduler, peer);
        w.add_component(home, "gm", Ticker { gm, every_job });
        w.run_until(SimTime::ZERO + config.tick * 40 + Duration::from_secs(1));
        let mut seen = log.borrow().clone();
        for key in w.store().keys_with_prefix(home, "") {
            seen.push(format!("{key} = {:?}", w.store().get_bytes(home, &key)));
        }
        seen.push(format!("{} events", w.events_processed()));
        seen
    }

    #[test]
    fn a_job_the_due_table_skips_had_nothing_to_do() {
        let day = Duration::from_days(1);
        let configs = [
            (GmConfig::default(), day),
            (
                GmConfig {
                    recovery: false,
                    ..GmConfig::default()
                },
                day,
            ),
            (
                GmConfig {
                    migrate_pending_after: Some(Duration::from_mins(7)),
                    ..GmConfig::default()
                },
                day,
            ),
            // A reply that makes a job due sooner than its table entry said
            // (the commit goes out every tick, the retransmit every fourth).
            (
                GmConfig {
                    submit_retry: Duration::from_mins(2),
                    ..GmConfig::default()
                },
                day,
            ),
            // The proxy runs down to `hold_before` mid-run: jobs are held
            // and the ticks stop.
            (GmConfig::default(), Duration::from_mins(25)),
        ];
        for (config, proxy_life) in configs {
            let by_table = forty_ticks(&config, proxy_life, false);
            let every_job = forty_ticks(&config, proxy_life, true);
            assert!(by_table.len() > 60, "{} lines: too quiet", by_table.len());
            for (i, (a, b)) in by_table.iter().zip(&every_job).enumerate() {
                assert_eq!(a, b, "line {i} under {config:?}");
            }
            assert_eq!(by_table.len(), every_job.len());
        }
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
        let mut j = GmJob::new(GridJobId(7), spec);
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
                stdout_path: j.stdout_path.clone(),
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
    /// byte as `e025d0e` wrote them.
    #[test]
    fn gm_record_bytes_are_pinned() {
        let spec = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30))
            .with_stdout(4096)
            .with_args(&["--events", "500"]);
        let mut j = GmJob::new(GridJobId(7), spec);
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
            stdout_path: j.stdout_path.clone(),
            excluded: j.excluded.clone(),
            terminal: false,
        };
        let pinned = "030000000000000061707012000000000000002f686f6d652f6a616e652f6170702e657865020000000000000008000000000000002d2d6576656e747303000000000000003530300000000000d2496b000000000100000000100000000000000000000000000000000000000002000000012900000000000000010400000000000000656173740102000000050000000101000000efbe000011000000000000002f636f6e646f725f672f6f75742f676a37020000000000000004000000000000007765737405000000000000006e6f72746800";
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
            let mut j = GmJob::new(GridJobId(7), spec);
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
