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
use std::rc::Rc;

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
    /// Exit status once Done.
    pub exit_ok: bool,
}

gridsim::codec! {
    struct JmLog { contact, rsl, local_user, local_id, state, stdout_sent, exit_ok }
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
    state: GramJobState,
    local_id: Option<u64>,
    stdout_sent: u64,
    exit_ok: bool,
    auto_commit: bool,
    /// Recovery mode: query the scheduler instead of submitting anew.
    recovering: bool,
    staging: Staging,
    next_req: u64,
    /// Outstanding stdout write request id.
    stdout_req: Option<u64>,
    /// LRM events that raced ahead of the Submitted reply.
    pending_events: Vec<LrmEvent>,
    /// Set once execution has commenced; duplicate Commits are then inert.
    committed: bool,
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
}

/// Retry timer tags.
const TAG_STAGE_IN: u64 = 1;
const TAG_STAGE_OUT: u64 = 2;
/// Conservative floor bandwidth (bytes/s) for sizing staging-retry
/// timeouts: a transfer slower than this is presumed lost.
const RETRY_FLOOR_BW: u64 = 125_000;
/// Periodic scheduler-status poll: pushed LRM events can be lost to the
/// network or to a JobManager restart, so the JobManager also polls.
const TAG_STATUS_POLL: u64 = 3;
const STATUS_POLL: Duration = Duration::from_mins(5);
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
            state: GramJobState::PendingCommit,
            local_id: None,
            stdout_sent: 0,
            exit_ok: false,
            auto_commit,
            recovering: false,
            staging: Staging::NotStarted,
            next_req: 0,
            stdout_req: None,
            pending_events: Vec::new(),
            committed: false,
            weather,
            notify_exit: None,
            stage_backoff: 0,
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
        JobManager {
            contact: log.contact,
            rsl_text: rsl.render(),
            log_key: JmLog::key(log.contact),
            stage_in: stage_in_urls(&rsl),
            stdout_url: rsl.stdout.as_ref().and_then(|u| u.parse().ok()),
            rsl,
            credential,
            client,
            gass,
            lrm,
            local_user: log.local_user,
            state: log.state,
            local_id: log.local_id,
            stdout_sent: stdout_have.min(log.stdout_sent),
            exit_ok: log.exit_ok,
            auto_commit: false,
            recovering: true,
            staging: Staging::Done,
            next_req: 0,
            stdout_req: None,
            pending_events: Vec::new(),
            committed: true,
            weather,
            notify_exit: None,
            stage_backoff: 0,
        }
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
            self.state,
            self.stdout_sent,
            self.exit_ok,
        )
    }

    fn persist(&self, ctx: &mut Ctx<'_>) {
        let node = ctx.node();
        ctx.store().put(node, &self.log_key, &self.log_view());
    }

    fn callback(&mut self, ctx: &mut Ctx<'_>, state: GramJobState) {
        self.state = state;
        self.persist(ctx);
        ctx.trace_with("jm.state", || format!("{} -> {state:?}", self.contact));
        ctx.send(
            self.client,
            JmMsg::Callback {
                contact: self.contact,
                state,
                exit_ok: self.exit_ok,
                at: ctx.now(),
            },
        );
    }

    /// Issue (or re-issue) the stage-in GETs; arms the retry timer.
    fn send_stage_requests(&mut self, ctx: &mut Ctx<'_>) -> u32 {
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
            // Allow generous time for the payload itself before retrying,
            // doubling per consecutive retry (shared links under a
            // stage-in storm legitimately run far below the floor
            // bandwidth — hammering them makes it worse).
            let payload = self.rsl.image_size.max(1_000_000);
            let timeout = (STAGE_RETRY + Duration::from_secs(payload / RETRY_FLOOR_BW))
                * (1u64 << self.stage_backoff);
            ctx.set_timer(timeout, TAG_STAGE_IN);
        }
        outstanding
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
        if self.rsl.stdout.is_none() {
            // No output to stage: straight to Done.
            self.exit_ok = true;
            self.callback(ctx, GramJobState::Done);
            return;
        }
        let remaining = self.rsl.stdout_size.saturating_sub(self.stdout_sent);
        if remaining == 0 {
            self.exit_ok = true;
            self.callback(ctx, GramJobState::Done);
            return;
        }
        ctx.trace_with("span", || {
            format!("contact={} phase=stage_out", self.contact.0)
        });
        self.callback(ctx, GramJobState::StageOut);
        match self.stdout_url {
            Some(_) => self.send_stdout_chunk(ctx),
            None => {
                // Site-local stdout: nothing to ship.
                self.stdout_sent = self.rsl.stdout_size;
                self.exit_ok = true;
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
        let timeout = (STAGE_RETRY + Duration::from_secs(remaining / RETRY_FLOOR_BW))
            * (1u64 << self.stage_backoff);
        ctx.set_timer(timeout, TAG_STAGE_OUT);
    }

    fn on_lrm_event(&mut self, ctx: &mut Ctx<'_>, ev: &LrmEvent) {
        if Some(ev.local_id) != self.local_id {
            return;
        }
        match ev.state {
            LrmJobState::Running => {
                ctx.metrics().incr("gram.jobs_started", 1);
                ctx.trace_with("span", || {
                    format!("contact={} phase=active", self.contact.0)
                });
                self.callback(ctx, GramJobState::Active);
            }
            LrmJobState::Queued => {
                // Vacated-and-requeued by the site: back to Pending.
                self.callback(ctx, GramJobState::Pending);
            }
            LrmJobState::Completed => {
                ctx.metrics().incr("gram.jobs_completed", 1);
                self.begin_stage_out(ctx);
            }
            LrmJobState::WallTimeExceeded | LrmJobState::Vacated => {
                ctx.metrics().incr("gram.jobs_failed", 1);
                self.exit_ok = false;
                self.callback(ctx, GramJobState::Failed);
            }
            LrmJobState::Removed => {
                self.callback(ctx, GramJobState::Removed);
            }
        }
    }
}

impl Component for JobManager {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.persist(ctx);
        ctx.set_timer(STATUS_POLL, TAG_STATUS_POLL);
        if self.recovering {
            match (self.state, self.local_id) {
                // Terminal already: re-announce it so the client learns.
                (s, _) if s.is_terminal() => {
                    let state = self.state;
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        match tag {
            TAG_STAGE_IN => {
                if matches!(self.staging, Staging::Fetching { .. }) {
                    ctx.metrics().incr("gram.stage_retries", 1);
                    self.bump_backoff();
                    self.send_stage_requests(ctx);
                }
            }
            TAG_STAGE_OUT if self.stdout_req.is_some() => {
                ctx.metrics().incr("gram.stage_retries", 1);
                self.bump_backoff();
                self.send_stdout_chunk(ctx);
            }
            TAG_STATUS_POLL if !self.state.is_terminal() => {
                if let Some(local_id) = self.local_id {
                    ctx.send(self.lrm, LrmRequest::Status { local_id });
                }
                ctx.set_timer(STATUS_POLL, TAG_STATUS_POLL);
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
                    if self.state == GramJobState::PendingCommit && !self.committed {
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
                JmMsg::Probe { nonce } => {
                    ctx.send(
                        from,
                        JmMsg::ProbeReply {
                            nonce: *nonce,
                            contact: self.contact,
                            state: self.state,
                        },
                    );
                }
                JmMsg::Cancel => {
                    if let Some(local_id) = self.local_id {
                        if !self.state.is_terminal() {
                            ctx.send(self.lrm, LrmRequest::Cancel { local_id });
                        }
                    } else {
                        self.callback(ctx, GramJobState::Removed);
                    }
                }
                JmMsg::UpdateGass { gass, stdout_have } => {
                    self.gass = gass.clone();
                    self.stdout_sent = *stdout_have;
                    self.client = from;
                    self.persist(ctx);
                    if self.state == GramJobState::StageOut {
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
                JmMsg::Exited { .. }
                | JmMsg::Callback { .. }
                | JmMsg::ProbeReply { .. }
                | JmMsg::CommitAck { .. } => {}
            }
            return;
        }
        // Scheduler replies and events.
        if let Some(reply) = msg.downcast_ref::<LrmReply>() {
            match reply {
                LrmReply::Submitted { local_id, .. } => {
                    self.local_id = Some(*local_id);
                    self.callback(ctx, GramJobState::Pending);
                    // Replay any events that raced ahead of this reply.
                    for ev in std::mem::take(&mut self.pending_events) {
                        self.on_lrm_event(ctx, &ev);
                    }
                }
                LrmReply::StatusIs { state, .. } => {
                    // Recovery and periodic-poll path: translate the
                    // scheduler's view, announcing only actual changes.
                    if self.state.is_terminal() {
                        return;
                    }
                    match state {
                        Some(LrmJobState::Running) => {
                            if self.state != GramJobState::Active {
                                self.callback(ctx, GramJobState::Active);
                            }
                        }
                        Some(LrmJobState::Queued) => {
                            if self.state != GramJobState::Pending {
                                self.callback(ctx, GramJobState::Pending);
                            }
                        }
                        Some(LrmJobState::Completed) => {
                            if self.state != GramJobState::StageOut || self.stdout_req.is_none() {
                                self.begin_stage_out(ctx);
                            }
                        }
                        Some(LrmJobState::WallTimeExceeded) | Some(LrmJobState::Vacated) => {
                            self.exit_ok = false;
                            self.callback(ctx, GramJobState::Failed);
                        }
                        Some(LrmJobState::Removed) => self.callback(ctx, GramJobState::Removed),
                        None => {
                            // The scheduler does not know the job (its
                            // machine lost state): report failure so the
                            // client can resubmit.
                            self.exit_ok = false;
                            self.callback(ctx, GramJobState::Failed);
                        }
                    }
                }
                LrmReply::Info(_) => {}
            }
            return;
        }
        if let Some(ev) = msg.downcast_ref::<LrmEvent>() {
            if self.local_id.is_none() {
                // The LRM's first event can overtake its Submitted reply
                // (independent network latencies); hold it until then.
                self.pending_events.push(ev.clone());
            } else {
                self.on_lrm_event(ctx, ev);
            }
            return;
        }
        // Our own bulk send (the stdout WriteAt), a flow over a declared
        // link, was cut in flight. Resend immediately — the positioned
        // write is idempotent — with the armed retry timer as the backstop
        // if the route is still dead (the immediate resend is then dropped
        // at send).
        if let Some(aborted) = msg.downcast_ref::<BulkAborted>() {
            if self.stdout_req.is_some() {
                ctx.metrics().incr("gram.stage_retries", 1);
                let bytes = aborted.bytes;
                ctx.trace_with("jm.stage_out_aborted", || format!("bytes={bytes}"));
                self.bump_backoff();
                self.send_stdout_chunk(ctx);
            }
            return;
        }
        // GASS staging replies.
        if let Ok(reply) = msg.downcast::<GassReply>() {
            match *reply {
                GassReply::Data { .. } => {
                    if let Staging::Fetching { outstanding } = &mut self.staging {
                        *outstanding -= 1;
                        if *outstanding == 0 {
                            self.staging = Staging::Done;
                            ctx.metrics().incr("gram.staged_in", 1);
                            self.submit_to_lrm(ctx);
                        }
                    }
                }
                GassReply::Ok { new_size, .. } => {
                    // Positioned writes are idempotent, so an Ok from *any*
                    // (possibly retransmitted) stdout write that shows the
                    // full output present confirms stage-out — matching
                    // only the newest request id would livelock when the
                    // transfer time exceeds the retry period.
                    if self.stdout_req.is_some() && new_size >= self.rsl.stdout_size {
                        self.stdout_req = None;
                        self.stdout_sent = self.rsl.stdout_size;
                        self.exit_ok = true;
                        ctx.metrics().incr("gram.staged_out", 1);
                        self.callback(ctx, GramJobState::Done);
                    }
                }
                GassReply::Failed { ref error, .. } if error.is_retryable() => {
                    // An in-flight transfer was cut (partition, link
                    // failure): the job is fine, the route died. Re-drive
                    // whichever staging phase is active instead of failing
                    // the job — if the network is still down the resent
                    // requests are lost and the (backed-off) retry timer
                    // takes over.
                    ctx.metrics().incr("gram.staging_aborts", 1);
                    ctx.trace_with("jm.staging_aborted", || error.to_string());
                    if matches!(self.staging, Staging::Fetching { .. }) {
                        ctx.metrics().incr("gram.stage_retries", 1);
                        self.bump_backoff();
                        self.send_stage_requests(ctx);
                    } else if self.stdout_req.is_some() {
                        ctx.metrics().incr("gram.stage_retries", 1);
                        self.bump_backoff();
                        self.send_stdout_chunk(ctx);
                    }
                }
                GassReply::Failed { ref error, .. } => {
                    ctx.metrics().incr("gram.staging_failures", 1);
                    ctx.trace_with("jm.staging_failed", || error.to_string());
                    self.exit_ok = false;
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

    #[test]
    fn borrowed_log_view_encodes_as_the_owned_log() {
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
        let mut jm = JobManager::new(
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
        for (local_id, state) in [
            (None, GramJobState::PendingCommit),
            (Some(12), GramJobState::StageOut),
        ] {
            jm.local_id = local_id;
            jm.state = state;
            jm.stdout_sent = 17;
            let owned = JmLog {
                contact: jm.contact,
                rsl: rsl.to_string(),
                local_user: "jane".into(),
                local_id,
                state,
                stdout_sent: 17,
                exit_ok: false,
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
        let mut jm = JobManager::new(
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
        jm.local_id = Some(12);
        jm.state = GramJobState::StageOut;
        jm.stdout_sent = 17;
        jm.exit_ok = true;
        let owned = JmLog {
            contact: jm.contact,
            rsl: rsl.to_string(),
            local_user: "jane".into(),
            local_id: Some(12),
            state: GramJobState::StageOut,
            stdout_sent: 17,
            exit_ok: true,
        };
        let pinned = "87808080f0dd2f7d262865786563757461626c653d676173733a2f2f6e332e63392f686f6d652f6a616e652f6170702e6578652928636f756e743d3429287374646f75743d676173733a2f2f6e332e63392f636f6e646f725f672f6f75742f676a37292873696d72756e74696d653d3138303029287374646f757473697a653d3430393629046a616e65010c041101";
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
                exit_ok: false,
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
