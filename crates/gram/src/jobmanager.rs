//! The Globus JobManager (Figure 1).
//!
//! One JobManager daemon per job: it connects back to the client's GASS
//! server to stage the executable and standard input, submits the job to
//! the site scheduler, relays status updates as callbacks, stages standard
//! output back when the job finishes, and logs everything to stable
//! storage so a crash of the interface machine never loses a job (§3.2,
//! §4.2).

use crate::proto::{GramJobState, JmMsg, JobContact};
use crate::rsl::RslSpec;
use gass::{FileData, GassReply, GassRequest, GassUrl};
use gridsim::metrics::SiteMetrics;
use gridsim::prelude::*;
use gridsim::AnyMsg;
use gsi::ProxyCredential;
use site::{JobSpec, LrmEvent, LrmJobState, LrmReply, LrmRequest};
use std::cell::Cell;
use std::rc::{Rc, Weak};

/// What the JobManager persists (and what a restarted JobManager resumes
/// from).
#[derive(Clone, Debug)]
pub struct JmLog {
    /// The job.
    pub contact: JobContact,
    /// RSL, re-parsed on recovery.
    pub rsl: String,
    /// Site-local account.
    pub local_user: String,
    /// Site scheduler id, once submitted.
    pub local_id: Option<u64>,
    /// Last externally visible state.
    pub state: GramJobState,
    /// Bytes of stdout already pushed to the client.
    pub stdout_sent: u64,
}

gridsim::codec! {
    struct JmLog { contact, rsl, local_user, local_id, state, stdout_sent }
}

impl JmLog {
    /// What every job-log key starts with.
    pub const KEY_PREFIX: &'static str = "gram/jm/";

    /// Stable-storage key for a job's log.
    pub fn key(contact: JobContact) -> String {
        format!("{}{contact}", JmLog::KEY_PREFIX)
    }
}

/// The executable and stdin, where they are GASS URLs: those come from the
/// client's server (anything else is site-local and needs no staging).
fn stage_in_urls(rsl: &RslSpec) -> [Option<GassUrl>; 2] {
    [Some(&rsl.executable), rsl.stdin.as_ref()].map(|source| source?.parse().ok())
}

/// Stage-in progress.
#[derive(Debug, PartialEq, Eq)]
enum Staging {
    NotStarted,
    Fetching { outstanding: u32 },
    Done,
}

/// The JobManager component.
pub struct JobManager {
    contact: JobContact,
    rsl: RslSpec,
    /// `rsl` rendered, `JmLog::key(contact)`, and the RSL's staging URLs
    /// parsed: none of them changes over the JobManager's life, so each is
    /// derived once here rather than on every log write and transfer.
    rsl_text: String,
    log_key: String,
    stage_in: [Option<GassUrl>; 2],
    stdout_url: Option<GassUrl>,
    credential: ProxyCredential,
    client: Addr,
    gass: GassUrl,
    lrm: Addr,
    local_user: String,
    /// The last announced state, shared with the gatekeeper that spawned
    /// this JobManager: it holds the cell weakly and answers a site probe
    /// from it, and a cell that no longer upgrades is a JobManager gone.
    state: Rc<Cell<GramJobState>>,
    local_id: Option<u64>,
    stdout_sent: u64,
    auto_commit: bool,
    /// Recovery mode: query the scheduler instead of submitting anew.
    recovering: bool,
    staging: Staging,
    next_req: u64,
    /// Outstanding stdout write: the last request id sent, or `next_req`
    /// for a predecessor's write this JobManager adopted on restart.
    stdout_req: Option<u64>,
    /// Set once execution has commenced; duplicate Commits are then inert.
    committed: bool,
    /// A `Cancel` came while the LRM `Submit` was in flight: it goes on to
    /// the LRM once the `Submitted` reply names the job.
    cancel_held: bool,
    /// The site's weather handles, shared by its gatekeeper.
    weather: Rc<SiteMetrics>,
    /// Lean (campaign) mode: tell this gatekeeper we are exiting after the
    /// client's done-ack so it can reclaim the job's records.
    notify_exit: Option<Addr>,
    /// Consecutive staging retries in the current phase; each one doubles
    /// the retry timeout (capped), so a congested shared link sees
    /// progressively gentler retransmission instead of a retry storm.
    /// Reset when a staging phase starts or completes.
    stage_backoff: u32,
    /// The armed staging retry timer (stage-in's or stage-out's): a
    /// re-drive replaces it, and the end of its phase cancels it.
    stage_timer: Option<TimerId>,
    /// The armed status poll, cancelled once the job is terminal.
    poll_timer: Option<TimerId>,
    /// The gap the armed poll waits. Each poll doubles it for the next,
    /// up to `STATUS_POLL_MAX`; an `LrmEvent` for the job puts it back to
    /// `STATUS_POLL`, so the doubling starts over.
    poll_every: Duration,
}

/// Retry timer tags.
const TAG_STAGE_IN: u64 = 1;
const TAG_STAGE_OUT: u64 = 2;
/// Conservative floor bandwidth (bytes/s) for sizing staging-retry
/// timeouts: a transfer slower than this is presumed lost.
const RETRY_FLOOR_BW: u64 = 125_000;
/// Scheduler-status poll: pushed LRM events can be lost to the network or
/// to a JobManager restart, so the JobManager also polls. While the LRM is
/// quiet the gap doubles from `STATUS_POLL` to `STATUS_POLL_MAX`, so a lost
/// event or a lost LRM job is noticed within `STATUS_POLL_MAX`.
const TAG_STATUS_POLL: u64 = 3;
const STATUS_POLL: Duration = Duration::from_mins(5);
const STATUS_POLL_MAX: Duration = Duration::from_mins(40);
/// How long to wait for a staging reply before retransmitting.
const STAGE_RETRY: Duration = Duration::from_secs(60);

impl JobManager {
    /// A fresh JobManager for a newly submitted job.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        contact: JobContact,
        rsl: RslSpec,
        credential: ProxyCredential,
        client: Addr,
        gass: GassUrl,
        lrm: Addr,
        local_user: &str,
        auto_commit: bool,
        weather: Rc<SiteMetrics>,
    ) -> JobManager {
        JobManager {
            contact,
            rsl_text: rsl.render(),
            log_key: JmLog::key(contact),
            stage_in: stage_in_urls(&rsl),
            stdout_url: rsl.stdout.as_ref().and_then(|u| u.parse().ok()),
            rsl,
            credential,
            client,
            gass,
            lrm,
            local_user: local_user.to_string(),
            state: Rc::new(Cell::new(GramJobState::PendingCommit)),
            local_id: None,
            stdout_sent: 0,
            auto_commit,
            recovering: false,
            staging: Staging::NotStarted,
            next_req: 0,
            stdout_req: None,
            committed: false,
            cancel_held: false,
            weather,
            notify_exit: None,
            stage_backoff: 0,
            stage_timer: None,
            poll_timer: None,
            poll_every: STATUS_POLL,
        }
    }

    /// Builder: lean mode — notify `gatekeeper` on exit so it reclaims the
    /// job's per-site records.
    pub fn with_exit_notify(mut self, gatekeeper: Addr) -> JobManager {
        self.notify_exit = Some(gatekeeper);
        self
    }

    /// A JobManager reattaching to an existing job from its log.
    pub fn recover(
        log: JmLog,
        lrm: Addr,
        client: Addr,
        gass: GassUrl,
        credential: ProxyCredential,
        stdout_have: u64,
        weather: Rc<SiteMetrics>,
    ) -> JobManager {
        let rsl = crate::rsl::parse(&log.rsl).expect("logged RSL re-parses");
        let (contact, user) = (log.contact, &log.local_user);
        JobManager {
            state: Rc::new(Cell::new(log.state)),
            local_id: log.local_id,
            stdout_sent: stdout_have.min(log.stdout_sent),
            recovering: true,
            staging: Staging::Done,
            committed: true,
            ..JobManager::new(
                contact, rsl, credential, client, gass, lrm, user, false, weather,
            )
        }
    }

    /// The last announced state.
    fn state(&self) -> GramJobState {
        self.state.get()
    }

    /// The gatekeeper's handle on [`Self::state`]: it reads the state while
    /// this JobManager lives and fails to upgrade once it is dropped.
    pub(crate) fn state_handle(&self) -> Weak<Cell<GramJobState>> {
        Rc::downgrade(&self.state)
    }

    /// The [`JmLog`] this JobManager would write now, field for field,
    /// borrowing its strings (the codec is positional, so the tuple's
    /// bytes are the struct's).
    fn log_view(&self) -> impl gridsim::codec::Encode + '_ {
        (
            self.contact,
            self.rsl_text.as_str(),
            self.local_user.as_str(),
            self.local_id,
            self.state(),
            self.stdout_sent,
        )
    }

    fn arm_poll(&mut self, ctx: &mut Ctx<'_>) {
        self.poll_timer = Some(ctx.set_timer(self.poll_every, TAG_STATUS_POLL));
    }

    /// Arm the staging retry timer, replacing the one armed before: a
    /// phase has one retry chain however often it is re-driven.
    fn arm_stage(&mut self, ctx: &mut Ctx<'_>, after: Duration, tag: u64) {
        if let Some(old) = self.stage_timer.replace(ctx.set_timer(after, tag)) {
            ctx.cancel_timer(old);
        }
    }

    /// The staging phase is over: its retry timer goes.
    fn end_stage(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(timer) = self.stage_timer.take() {
            ctx.cancel_timer(timer);
        }
    }

    fn persist(&self, ctx: &mut Ctx<'_>) {
        let node = ctx.node();
        ctx.store().put(node, &self.log_key, &self.log_view());
    }

    /// Enter `state` and announce it. A terminal state is the last one a
    /// JobManager announces; a restarted one may only repeat it.
    fn callback(&mut self, ctx: &mut Ctx<'_>, state: GramJobState) {
        assert!(
            !self.state().is_terminal() || self.state() == state,
            "{}: announced {state:?} after terminal {:?}",
            self.contact,
            self.state()
        );
        self.state.set(state);
        if state.is_terminal() {
            // A terminal job neither polls nor stages any more.
            if let Some(poll) = self.poll_timer.take() {
                ctx.cancel_timer(poll);
            }
            self.end_stage(ctx);
        }
        self.persist(ctx);
        ctx.trace_with("jm.state", || format!("{} -> {state:?}", self.contact));
        ctx.send(
            self.client,
            JmMsg::Callback {
                contact: self.contact,
                state,
                at: ctx.now(),
            },
        );
    }

    /// Issue (or re-issue) the stage-in GETs; arms the retry timer.
    fn send_stage_requests(&mut self, ctx: &mut Ctx<'_>) -> u32 {
        assert!(
            !self.stage_in_arriving(ctx),
            "{}: stage_in GET issued while its flow is still arriving",
            self.contact
        );
        let mut outstanding = 0;
        for url in self.stage_in.iter().flatten() {
            self.next_req += 1;
            outstanding += 1;
            ctx.send(
                url.server,
                GassRequest::Get {
                    request_id: self.next_req,
                    credential: self.credential.clone(),
                    path: url.path.clone(),
                    offset: 0,
                    limit: u64::MAX,
                },
            );
        }
        if outstanding > 0 {
            self.staging = Staging::Fetching { outstanding };
            self.arm_stage(ctx, self.stage_in_timeout(), TAG_STAGE_IN);
        }
        outstanding
    }

    /// How long to wait for the stage-in payload before retrying: generous
    /// time for the image itself (shared links under a stage-in storm
    /// legitimately run far below the floor bandwidth — hammering them
    /// makes it worse).
    fn stage_in_timeout(&self) -> Duration {
        self.stage_timeout(self.rsl.image_size.max(1_000_000))
    }

    /// How long to wait for the stdout still to send before resending it.
    fn stage_out_timeout(&self) -> Duration {
        self.stage_timeout(self.rsl.stdout_size.saturating_sub(self.stdout_sent))
    }

    /// The retry timeout for a staging transfer of `payload` bytes: the
    /// payload at the floor bandwidth, doubled per consecutive retry.
    fn stage_timeout(&self, payload: u64) -> Duration {
        (STAGE_RETRY + Duration::from_secs(payload / RETRY_FLOOR_BW)) * (1u64 << self.stage_backoff)
    }

    /// Whether a stage-in flow from one of the staging servers is still
    /// arriving here: evidence that the transfer is slow, not lost.
    fn stage_in_arriving(&self, ctx: &Ctx<'_>) -> bool {
        let me = ctx.self_addr();
        self.stage_in
            .iter()
            .flatten()
            .any(|url| ctx.flow_live(url.server, me))
    }

    /// Whether the stdout `WriteAt` flow is still leaving for its server.
    fn stage_out_leaving(&self, ctx: &Ctx<'_>) -> bool {
        let me = ctx.self_addr();
        self.stdout_url
            .as_ref()
            .is_some_and(|url| ctx.flow_live(me, url.server))
    }

    /// Re-drive stage-in, unless a flow from a staging server is still
    /// arriving: a transfer whose flow is moving is slow, not lost, and a
    /// second copy would only crowd the link it is already short of.
    /// Returns whether it re-drove; if not, the `TAG_STAGE_IN` timer is
    /// re-armed to look again.
    fn retry_stage_in(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.stage_in_arriving(ctx) {
            return false;
        }
        ctx.metrics().incr("gram.stage_retries", 1);
        self.bump_backoff();
        self.send_stage_requests(ctx);
        true
    }

    /// Resend the stdout, unless its `WriteAt` flow is still leaving (the
    /// same rule as [`JobManager::retry_stage_in`]).
    fn retry_stage_out(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.stage_out_leaving(ctx) {
            return false;
        }
        ctx.metrics().incr("gram.stage_retries", 1);
        self.bump_backoff();
        self.send_stdout_chunk(ctx);
        true
    }

    /// Bump the staging-retry backoff (doubles the timeout, capped at 16x).
    fn bump_backoff(&mut self) {
        self.stage_backoff = (self.stage_backoff + 1).min(4);
    }

    fn begin_stage_in(&mut self, ctx: &mut Ctx<'_>) {
        self.committed = true;
        self.stage_backoff = 0;
        ctx.trace_with("span", || {
            format!("contact={} phase=commit", self.contact.0)
        });
        if self.send_stage_requests(ctx) == 0 {
            // Everything is site-local: no staging needed.
            self.staging = Staging::Done;
            self.submit_to_lrm(ctx);
        } else {
            self.callback(ctx, GramJobState::StageIn);
        }
    }

    fn submit_to_lrm(&mut self, ctx: &mut Ctx<'_>) {
        let estimate = self.rsl.max_wall_time.unwrap_or(self.rsl.sim_runtime);
        let required_arch = self.rsl.extra.get("arch").and_then(|v| v.first()).cloned();
        let spec = JobSpec {
            cpus: self.rsl.count,
            runtime: self.rsl.sim_runtime,
            estimate,
            owner: self.local_user.clone(),
            required_arch,
        };
        self.stage_backoff = 0;
        ctx.trace_with("span", || {
            format!("contact={} phase=stage_in_done", self.contact.0)
        });
        ctx.send(
            self.lrm,
            LrmRequest::Submit {
                client_job: self.contact.0,
                spec,
            },
        );
    }

    fn begin_stage_out(&mut self, ctx: &mut Ctx<'_>) {
        self.stage_backoff = 0;
        let remaining = self.rsl.stdout_size.saturating_sub(self.stdout_sent);
        if self.rsl.stdout.is_none() || remaining == 0 {
            // No output (left) to stage: straight to Done.
            self.callback(ctx, GramJobState::Done);
            return;
        }
        ctx.trace_with("span", || {
            format!("contact={} phase=stage_out", self.contact.0)
        });
        self.callback(ctx, GramJobState::StageOut);
        match self.stdout_url {
            // A `WriteAt` is already leaving: this JobManager's own, when
            // the client re-points it mid-transfer, or its predecessor's
            // at this address, after a restart. Await that one's reply.
            Some(_) if self.stage_out_leaving(ctx) => {
                if self.stdout_req.is_none() {
                    self.stdout_req = Some(self.next_req);
                    self.arm_stage(ctx, self.stage_out_timeout(), TAG_STAGE_OUT);
                }
            }
            Some(_) => self.send_stdout_chunk(ctx),
            None => {
                // Site-local stdout: nothing to ship.
                self.stdout_sent = self.rsl.stdout_size;
                self.callback(ctx, GramJobState::Done);
            }
        }
    }

    /// Send (or re-send) the remaining stdout bytes as an idempotent
    /// positioned write; arms the retry timer.
    fn send_stdout_chunk(&mut self, ctx: &mut Ctx<'_>) {
        let Some(url) = &self.stdout_url else {
            return;
        };
        let (server, path) = (url.server, url.path.clone());
        let remaining = self.rsl.stdout_size.saturating_sub(self.stdout_sent);
        if remaining == 0 {
            return;
        }
        assert!(
            !self.stage_out_leaving(ctx),
            "{}: stage_out WriteAt issued while its flow is still leaving",
            self.contact
        );
        self.next_req += 1;
        self.stdout_req = Some(self.next_req);
        let chunk = FileData::bulk(remaining, self.contact.0 ^ self.stdout_sent);
        ctx.send_bulk(
            server,
            remaining,
            GassRequest::WriteAt {
                request_id: self.next_req,
                credential: self.credential.clone(),
                path,
                offset: self.stdout_sent,
                data: chunk,
            },
        );
        // The retry timeout must cover the transfer itself, or large
        // outputs would be retransmitted while still in flight; consecutive
        // retries back off exponentially (see `stage_backoff`).
        self.arm_stage(ctx, self.stage_out_timeout(), TAG_STAGE_OUT);
    }

    /// What the site scheduler says of the job, pushed (`LrmEvent`) or
    /// polled (`StatusIs`, `None` when it does not know the job), mapped to
    /// GRAM states. Only news acts, and nothing once the job is terminal,
    /// so each transition is announced and counted once however it was
    /// learned.
    fn observe_lrm(&mut self, ctx: &mut Ctx<'_>, state: Option<LrmJobState>) {
        if self.state().is_terminal() {
            return;
        }
        match state {
            Some(LrmJobState::Running) if self.state() != GramJobState::Active => {
                ctx.metrics().incr("gram.jobs_started", 1);
                ctx.trace_with("span", || {
                    format!("contact={} phase=active", self.contact.0)
                });
                self.callback(ctx, GramJobState::Active);
            }
            // Submitted, or vacated and requeued by the site.
            Some(LrmJobState::Queued) if self.state() != GramJobState::Pending => {
                self.callback(ctx, GramJobState::Pending);
            }
            Some(LrmJobState::Completed) if self.state() != GramJobState::StageOut => {
                ctx.metrics().incr("gram.jobs_completed", 1);
                self.begin_stage_out(ctx);
            }
            // `None`: the scheduler lost the job (its machine lost state),
            // so report failure and let the client resubmit.
            Some(LrmJobState::WallTimeExceeded | LrmJobState::Vacated) | None => {
                ctx.metrics().incr("gram.jobs_failed", 1);
                self.callback(ctx, GramJobState::Failed);
            }
            Some(LrmJobState::Removed) => self.callback(ctx, GramJobState::Removed),
            Some(_) => {}
        }
    }
}

impl Component for JobManager {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.persist(ctx);
        self.arm_poll(ctx);
        if self.recovering {
            match (self.state(), self.local_id) {
                // Terminal already: re-announce it so the client learns.
                (s, _) if s.is_terminal() => {
                    let state = self.state();
                    self.callback(ctx, state);
                }
                // Mid-stage-out: resume shipping stdout.
                (GramJobState::StageOut, _) => self.begin_stage_out(ctx),
                // Submitted: ask the scheduler where things stand.
                (_, Some(local_id)) => {
                    ctx.send(self.lrm, LrmRequest::Status { local_id });
                }
                // Never reached the scheduler: restart the submission.
                (_, None) => self.submit_to_lrm(ctx),
            }
            return;
        }
        if self.auto_commit {
            self.begin_stage_in(ctx);
        }
        // Otherwise wait for the client's Commit (two-phase).
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        match tag {
            // Only the armed staging timer fires: a re-drive replaced any
            // other, and the end of its phase cancelled it. A transfer
            // still moving gets another period, with the same timeout and
            // backoff.
            TAG_STAGE_IN | TAG_STAGE_OUT => {
                let armed = self.stage_timer.take();
                assert_eq!(
                    armed,
                    Some(id),
                    "{}: a staging timer fired that is not the armed one",
                    self.contact
                );
                let (redriven, wait) = if tag == TAG_STAGE_IN {
                    (self.retry_stage_in(ctx), self.stage_in_timeout())
                } else {
                    (self.retry_stage_out(ctx), self.stage_out_timeout())
                };
                if !redriven {
                    self.arm_stage(ctx, wait, tag);
                }
            }
            TAG_STATUS_POLL => {
                if let Some(local_id) = self.local_id {
                    ctx.send(self.lrm, LrmRequest::Status { local_id });
                }
                self.poll_every = (self.poll_every * 2).min(STATUS_POLL_MAX);
                self.arm_poll(ctx);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        // Client-side protocol.
        if let Some(jm) = msg.downcast_ref::<JmMsg>() {
            match jm {
                JmMsg::Commit => {
                    ctx.send(
                        from,
                        JmMsg::CommitAck {
                            contact: self.contact,
                        },
                    );
                    if self.state() == GramJobState::PendingCommit && !self.committed {
                        ctx.metrics().incr("gram.commits", 1);
                        ctx.metrics().add(self.weather.commits, 1);
                        self.begin_stage_in(ctx);
                    } else {
                        // A duplicate Commit means the client's commit timer
                        // expired before our ack arrived and it retransmitted
                        // — the per-site commit-timeout signal in the
                        // grid-weather report.
                        ctx.metrics().add(self.weather.commit_timeouts, 1);
                    }
                }
                // Too late: the client learns the outcome from its callback
                // or its next site probe.
                JmMsg::Cancel if self.state().is_terminal() => {}
                // Once the LRM `Submit` is sent, the LRM's own `Removed`
                // event announces the cancel; while the `Submit` is in
                // flight there is no job to cancel yet, so the cancel waits
                // for the `Submitted` reply.
                JmMsg::Cancel => match self.local_id {
                    Some(local_id) => ctx.send(self.lrm, LrmRequest::Cancel { local_id }),
                    None if self.staging == Staging::Done => self.cancel_held = true,
                    None => self.callback(ctx, GramJobState::Removed),
                },
                JmMsg::UpdateGass { gass, stdout_have } => {
                    self.gass = gass.clone();
                    self.stdout_sent = *stdout_have;
                    self.client = from;
                    self.persist(ctx);
                    if self.state() == GramJobState::StageOut {
                        self.begin_stage_out(ctx);
                    }
                }
                JmMsg::RefreshCredential { credential } => {
                    ctx.metrics().incr("gram.credential_refreshes", 1);
                    self.credential = credential.clone();
                }
                JmMsg::DoneAck => {
                    // Lean mode: the gatekeeper reclaims this job's records
                    // (same-node message, so it never traverses the WAN
                    // model). Safe because the client persisted the
                    // terminal outcome before acking.
                    if let Some(gk) = self.notify_exit {
                        ctx.send_local(
                            gk,
                            JmMsg::Exited {
                                contact: self.contact,
                            },
                        );
                    }
                    // A finished JobManager never respawns under this name,
                    // so die without retiring the address.
                    ctx.kill_transient(ctx.self_addr());
                }
                JmMsg::Exited { .. } | JmMsg::Callback { .. } | JmMsg::CommitAck { .. } => {}
            }
            return;
        }
        // Scheduler replies and events.
        if let Some(reply) = msg.downcast_ref::<LrmReply>() {
            match reply {
                // The scheduler holds the job now, queued.
                LrmReply::Submitted { local_id, .. } => {
                    let local_id = *local_id;
                    self.local_id = Some(local_id);
                    if self.cancel_held {
                        ctx.send(self.lrm, LrmRequest::Cancel { local_id });
                    }
                    self.observe_lrm(ctx, Some(LrmJobState::Queued));
                }
                // Recovery and periodic-poll path.
                LrmReply::StatusIs { state, .. } => self.observe_lrm(ctx, *state),
                LrmReply::Info(_) => {}
            }
            return;
        }
        // Control messages arrive in send order per node pair, so an event
        // never overtakes its job's Submitted reply: one for another
        // local id (or before any) is stale. The LRM is not quiet, so the
        // poll gap starts over.
        if let Some(ev) = msg.downcast_ref::<LrmEvent>() {
            if Some(ev.local_id) == self.local_id {
                self.poll_every = STATUS_POLL;
                self.observe_lrm(ctx, Some(ev.state));
            }
            return;
        }
        // GASS staging replies.
        if let Ok(reply) = msg.downcast::<GassReply>() {
            match *reply {
                // A job removed or failed during stage-in submits nothing.
                GassReply::Data { .. } if !self.state().is_terminal() => {
                    if let Staging::Fetching { outstanding } = &mut self.staging {
                        *outstanding -= 1;
                        if *outstanding == 0 {
                            self.staging = Staging::Done;
                            self.end_stage(ctx);
                            ctx.metrics().incr("gram.staged_in", 1);
                            self.submit_to_lrm(ctx);
                        }
                    }
                }
                GassReply::Data { .. } => {}
                GassReply::Ok { new_size, .. } => {
                    // Positioned writes are idempotent, so an Ok from *any*
                    // (possibly retransmitted) stdout write that shows the
                    // full output present confirms stage-out — matching
                    // only the newest request id would livelock when the
                    // transfer time exceeds the retry period.
                    if self.stdout_req.is_some() && new_size >= self.rsl.stdout_size {
                        self.stdout_req = None;
                        self.stdout_sent = self.rsl.stdout_size;
                        ctx.metrics().incr("gram.staged_out", 1);
                        self.callback(ctx, GramJobState::Done);
                    }
                }
                GassReply::Failed { ref error, .. } => {
                    ctx.metrics().incr("gram.staging_failures", 1);
                    ctx.trace_with("jm.staging_failed", || error.to_string());
                    self.callback(ctx, GramJobState::Failed);
                }
                GassReply::Size { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::codec::{encode_into, from_bytes, to_bytes};
    use gridsim::{CompId, NodeId};
    use gsi::CertificateAuthority;
    use proptest::prelude::*;

    /// A JobManager for a four-CPU job with a 4 KB stdout, and its RSL.
    fn fixture() -> (JobManager, RslSpec) {
        let addr = Addr {
            node: NodeId(3),
            comp: CompId(9),
        };
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let proxy = ca
            .issue_identity("/CN=jane", Duration::from_days(1))
            .new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let rsl = RslSpec::job("gass://n3.c9/home/jane/app.exe", Duration::from_mins(30))
            .with_stdout("gass://n3.c9/condor_g/out/gj7", 4096)
            .with_count(4);
        let jm = JobManager::new(
            JobContact(0xbeef_0000_0007),
            rsl.clone(),
            proxy,
            addr,
            GassUrl::gass(addr, ""),
            addr,
            "jane",
            false,
            gridsim::metrics::Metrics::new().site("wisc"),
        );
        (jm, rsl)
    }

    #[test]
    fn borrowed_log_view_encodes_as_the_owned_log() {
        let (mut jm, rsl) = fixture();
        for (local_id, state) in [
            (None, GramJobState::PendingCommit),
            (Some(12), GramJobState::StageOut),
        ] {
            jm.local_id = local_id;
            jm.state.set(state);
            jm.stdout_sent = 17;
            let owned = JmLog {
                contact: jm.contact,
                rsl: rsl.to_string(),
                local_user: "jane".into(),
                local_id,
                state,
                stdout_sent: 17,
            };
            assert_eq!(to_bytes(&jm.log_view()), to_bytes(&owned));
        }
        assert_eq!(jm.stage_in.iter().flatten().count(), 1);
        assert_eq!(jm.stdout_url.as_ref().unwrap().path, "/condor_g/out/gj7");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// GRAM's client-side job log and its borrowed view, byte for byte in
    /// the varint layout.
    #[test]
    fn job_log_bytes_are_pinned() {
        let (mut jm, rsl) = fixture();
        jm.local_id = Some(12);
        jm.state.set(GramJobState::StageOut);
        jm.stdout_sent = 17;
        let owned = JmLog {
            contact: jm.contact,
            rsl: rsl.to_string(),
            local_user: "jane".into(),
            local_id: Some(12),
            state: GramJobState::StageOut,
            stdout_sent: 17,
        };
        let pinned = "87808080f0dd2f7d262865786563757461626c653d676173733a2f2f6e332e63392f686f6d652f6a616e652f6170702e6578652928636f756e743d3429287374646f75743d676173733a2f2f6e332e63392f636f6e646f725f672f6f75742f676a37292873696d72756e74696d653d3138303029287374646f757473697a653d3430393629046a616e65010c0411";
        assert_eq!(hex(&to_bytes(&owned)), pinned);
        assert_eq!(hex(&to_bytes(&jm.log_view())), pinned);
        let back = from_bytes::<JmLog>(&to_bytes(&owned)).unwrap();
        assert_eq!(to_bytes(&back), to_bytes(&owned));
    }

    proptest! {
        /// Whatever is on the disk, the gatekeeper's restart path gets a
        /// job log (or dedup record) or a refusal.
        #[test]
        fn stored_gram_records_decode_or_are_refused(
            noise in proptest::collection::vec(any::<u8>(), 0..200),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            cut in any::<usize>(),
            dn in "[ -~]{0,30}",
        ) {
            type DedupRecord = (String, u64, u64);
            let _ = from_bytes::<JmLog>(&noise);
            let _ = from_bytes::<DedupRecord>(&noise);
            let log = JmLog {
                contact: JobContact(9),
                rsl: format!("&(executable={dn})"),
                local_user: dn.clone(),
                local_id: Some(3),
                state: GramJobState::Active,
                stdout_sent: 0,
            };
            // The gatekeeper writes its record from a borrowed DN.
            let entry = to_bytes(&(dn.as_str(), 4u64, 9u64));
            prop_assert_eq!(&entry, &to_bytes(&(dn.clone(), 4u64, 9u64)));
            let mut scratch = noise.clone();
            encode_into(&mut scratch, &log);
            prop_assert_eq!(&scratch[noise.len()..], &to_bytes(&log)[..]);
            for mut bytes in [to_bytes(&log), entry] {
                for &(at, mask) in &flips {
                    let n = bytes.len();
                    bytes[at % n] ^= mask;
                }
                bytes.truncate(cut % (bytes.len() + 1));
                let _ = from_bytes::<JmLog>(&bytes);
                let _ = from_bytes::<DedupRecord>(&bytes);
            }
        }
    }
}
