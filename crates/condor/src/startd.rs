//! The Startd: a machine's execution agent.
//!
//! Advertises the machine to a collector, accepts claims, runs one job at a
//! time with work-progress accounting, redirects the job's I/O to its
//! shadow, checkpoints periodically, and vacates (with the last checkpoint)
//! when the machine's owner returns or its allocation lease expires. With a
//! lease and an idle timeout this is exactly the daemon a GlideIn starts on
//! a grid node (paper §5: daemons "shut down gracefully when their local
//! allocation expires or when they do not receive any jobs to execute
//! after a (configurable) amount of time").

use crate::proto::{
    ActivateClaim, AdKind, Advertise, Checkpoint, ClaimReply, Invalidate, JobExited, JobId,
    RequestClaim, StartdKeepalive, SyscallBatch, SyscallReply, VacateNotice,
};
use classads::{symmetric_match, ClassAd};
use gridsim::prelude::*;
use gridsim::rng::Dist;
use gridsim::AnyMsg;
use std::rc::Rc;

/// Desktop-owner activity model: the machine alternates between available
/// and owner-occupied, sampled from the two distributions (seconds).
#[derive(Clone, Debug)]
pub struct OwnerModel {
    /// How long the machine stays available.
    pub available_for: Dist,
    /// How long the owner keeps it once back.
    pub occupied_for: Dist,
}

/// Shadow → startd: release an unclaimed-again machine.
#[derive(Debug)]
pub struct ReleaseClaim;

/// Internal state machine.
enum State {
    /// Owner is using the machine.
    Owner,
    /// Available for claims.
    Unclaimed,
    /// Claimed by a shadow, not yet (or no longer) running.
    Claimed { shadow: Addr },
    /// Running a job.
    Busy(Box<Running>),
}

struct Running {
    shadow: Addr,
    job: JobId,
    global_id: String,
    /// Work completed before this activation (from checkpoints).
    prior_work: Duration,
    /// Work persisted by the last checkpoint this activation.
    ckpt_work: Duration,
    started: SimTime,
    end_timer: TimerId,
    ckpt_timer: Option<TimerId>,
    io_timer: Option<TimerId>,
    io_seq: u64,
    io_interval: Option<Duration>,
    io_bytes: u64,
}

const TAG_ADVERTISE: u64 = 1;
const TAG_OWNER: u64 = 2;
const TAG_END: u64 = 3;
const TAG_CKPT: u64 = 4;
const TAG_IO: u64 = 5;
const TAG_LEASE: u64 = 6;
const TAG_IDLE: u64 = 7;
const TAG_KEEPALIVE: u64 = 8;
/// Busy startds ping their shadow this often.
const KEEPALIVE: Duration = Duration::from_mins(10);
/// Claim-lease timers encode the claim sequence number above this base.
const TAG_CLAIM_LEASE_BASE: u64 = 1_000;
/// An idle (not yet / no longer activated) claim expires after this long
/// without shadow activity — the shadow machine crashed (§4.2's "crash of
/// the machine on which the GridManager is executing" reaches the pool as
/// orphaned claims).
const CLAIM_LEASE: Duration = Duration::from_mins(20);

/// The startd component.
pub struct Startd {
    /// Machine name (advertised).
    name: String,
    /// Static machine attributes (+ machine Requirements/Rank if any).
    base_ad: ClassAd,
    collector: Addr,
    /// Optional checkpoint server; checkpoints also always reach the shadow.
    ckpt_server: Option<Addr>,
    advertise_period: Duration,
    ckpt_interval: Option<Duration>,
    owner_model: Option<OwnerModel>,
    /// Remaining allocation (glideins); at expiry the daemon exits.
    lease: Option<Duration>,
    /// Exit if unclaimed this long (glideins).
    idle_timeout: Option<Duration>,
    state: State,
    idle_since: SimTime,
    /// Bumped on every claim-state change; guards stale lease timers.
    claim_seq: u64,
    /// The ad last sent to the collector and the state name in it. Every
    /// period re-sends this handle; only a state change builds a new ad.
    advertised: Option<(&'static str, Rc<ClassAd>)>,
}

impl Startd {
    /// A pool machine named `name` advertising to `collector`.
    pub fn new(name: &str, base_ad: ClassAd, collector: Addr) -> Startd {
        Startd {
            name: name.to_string(),
            base_ad,
            collector,
            ckpt_server: None,
            advertise_period: Duration::from_mins(2),
            ckpt_interval: Some(Duration::from_mins(10)),
            owner_model: None,
            lease: None,
            idle_timeout: None,
            state: State::Unclaimed,
            idle_since: SimTime::ZERO,
            claim_seq: 0,
            advertised: None,
        }
    }

    /// Checkpoint to a checkpoint server as well as the shadow.
    pub fn with_ckpt_server(mut self, server: Addr) -> Startd {
        self.ckpt_server = Some(server);
        self
    }

    /// Set the periodic checkpoint interval (`None` disables checkpoints —
    /// vacated jobs then restart from their pre-activation progress).
    pub fn with_ckpt_interval(mut self, interval: Option<Duration>) -> Startd {
        self.ckpt_interval = interval;
        self
    }

    /// Enable the desktop-owner preemption model.
    pub fn with_owner_model(mut self, model: OwnerModel) -> Startd {
        self.owner_model = Some(model);
        self
    }

    /// Glidein mode: exit when the allocation lease ends.
    pub fn with_lease(mut self, lease: Duration) -> Startd {
        self.lease = Some(lease);
        self
    }

    /// Glidein mode: exit if unclaimed for this long.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Startd {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Enter the Claimed state and arm a lease that releases the claim if
    /// the shadow goes silent before activating (or re-activating) it.
    fn enter_claimed(&mut self, ctx: &mut Ctx<'_>, shadow: Addr) {
        self.state = State::Claimed { shadow };
        self.claim_seq += 1;
        ctx.set_timer(CLAIM_LEASE, TAG_CLAIM_LEASE_BASE + self.claim_seq);
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            State::Owner => "Owner",
            State::Unclaimed => "Unclaimed",
            State::Claimed { .. } => "Claimed",
            State::Busy(_) => "Busy",
        }
    }

    fn advertise(&mut self, ctx: &mut Ctx<'_>) {
        let state = self.state_name();
        let ad = match &self.advertised {
            Some((advertised, ad)) if *advertised == state => Rc::clone(ad),
            _ => {
                let mut ad = self.machine_ad();
                ad.set("State", state);
                let ad = Rc::new(ad);
                self.advertised = Some((state, Rc::clone(&ad)));
                ad
            }
        };
        let me = ctx.self_addr();
        ctx.send(
            self.collector,
            Advertise {
                kind: AdKind::Machine,
                name: self.name.clone(),
                ad,
                ttl: self.advertise_period * 3,
                contact: me,
            },
        );
    }

    fn machine_ad(&self) -> ClassAd {
        let mut ad = self.base_ad.clone();
        ad.set("Name", self.name.as_str());
        ad
    }

    /// Work completed so far in the current activation (wall time == CPU
    /// time for a dedicated claim).
    fn progress(run: &Running, now: SimTime) -> Duration {
        run.prior_work + (now - run.started)
    }

    fn do_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let State::Busy(run) = &mut self.state else {
            return;
        };
        let done = Startd::progress(run, now);
        run.ckpt_work = done;
        let image_bytes = 8_000_000; // a paper-era checkpoint image
        let ckpt = Checkpoint {
            job: run.job,
            global_id: run.global_id.clone(),
            done_work: done,
            image_bytes,
        };
        ctx.metrics().incr("condor.checkpoints", 1);
        let shadow = run.shadow;
        let next = self
            .ckpt_interval
            .map(|every| ctx.set_timer(every, TAG_CKPT));
        ctx.send_bulk(shadow, image_bytes, ckpt.clone());
        if let Some(server) = self.ckpt_server {
            ctx.send_bulk(server, image_bytes, ckpt);
        }
        if let State::Busy(run) = &mut self.state {
            run.ckpt_timer = next;
        }
    }

    /// Vacate a running job (owner return / lease expiry): notify the
    /// shadow with the last checkpointed progress.
    fn vacate(&mut self, ctx: &mut Ctx<'_>, next: State) {
        let now = ctx.now();
        if let State::Busy(run) = std::mem::replace(&mut self.state, next) {
            ctx.metrics().gauge_delta("condor.busy_startds", now, -1.0);
            ctx.metrics().incr("condor.vacated", 1);
            ctx.trace_with("startd.vacate", || {
                format!("{} {} at {}", self.name, run.job, now)
            });
            ctx.cancel_timer(run.end_timer);
            if let Some(t) = run.ckpt_timer {
                ctx.cancel_timer(t);
            }
            if let Some(t) = run.io_timer {
                ctx.cancel_timer(t);
            }
            ctx.send(
                run.shadow,
                VacateNotice {
                    job: run.job,
                    checkpointed_work: run.ckpt_work,
                },
            );
        }
        self.idle_since = now;
    }

    fn shutdown(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        ctx.trace_with("startd.exit", || format!("{} ({why})", self.name));
        ctx.metrics().incr("condor.startd_exits", 1);
        self.vacate(ctx, State::Owner);
        ctx.send(
            self.collector,
            Invalidate {
                kind: AdKind::Machine,
                name: self.name.clone(),
            },
        );
        ctx.kill(ctx.self_addr());
    }
}

impl Component for Startd {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.idle_since = ctx.now();
        self.advertise(ctx);
        ctx.set_timer(self.advertise_period, TAG_ADVERTISE);
        if let Some(model) = &self.owner_model {
            let first = ctx.rng().duration(&model.available_for);
            ctx.set_timer(first, TAG_OWNER);
        }
        if let Some(lease) = self.lease {
            ctx.set_timer(lease, TAG_LEASE);
        }
        if let Some(idle) = self.idle_timeout {
            ctx.set_timer(idle, TAG_IDLE);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        match tag {
            TAG_ADVERTISE => {
                self.advertise(ctx);
                ctx.set_timer(self.advertise_period, TAG_ADVERTISE);
            }
            TAG_OWNER => {
                let Some(model) = self.owner_model.clone() else {
                    return;
                };
                match self.state {
                    State::Owner => {
                        // Owner leaves: machine available again.
                        self.state = State::Unclaimed;
                        self.idle_since = ctx.now();
                        let next = ctx.rng().duration(&model.available_for);
                        ctx.set_timer(next, TAG_OWNER);
                    }
                    _ => {
                        // Owner returns: preempt whatever is here.
                        self.vacate(ctx, State::Owner);
                        let next = ctx.rng().duration(&model.occupied_for);
                        ctx.set_timer(next, TAG_OWNER);
                    }
                }
                self.advertise(ctx);
            }
            TAG_END => {
                let now = ctx.now();
                if let State::Busy(run) = std::mem::replace(&mut self.state, State::Unclaimed) {
                    let cpu_time = now - run.started;
                    ctx.metrics().incr("condor.jobs_finished", 1);
                    ctx.metrics()
                        .observe("condor.job_cpu_seconds", cpu_time.as_secs_f64());
                    ctx.trace_with("startd.done", || format!("{} {}", self.name, run.job));
                    if let Some(t) = run.ckpt_timer {
                        ctx.cancel_timer(t);
                    }
                    if let Some(t) = run.io_timer {
                        ctx.cancel_timer(t);
                    }
                    self.enter_claimed(ctx, run.shadow);
                    ctx.send(
                        run.shadow,
                        JobExited {
                            job: run.job,
                            ok: true,
                            cpu_time,
                        },
                    );
                    ctx.metrics().gauge_delta("condor.busy_startds", now, -1.0);
                }
            }
            TAG_CKPT => {
                if matches!(self.state, State::Busy(_)) {
                    self.do_checkpoint(ctx);
                }
            }
            TAG_IO => {
                let State::Busy(run) = &mut self.state else {
                    return;
                };
                run.io_seq += 1;
                let batch = SyscallBatch {
                    bytes: run.io_bytes,
                    seq: run.io_seq,
                };
                ctx.metrics().incr("condor.syscall_batches", 1);
                ctx.metrics().incr("condor.syscall_bytes", run.io_bytes);
                let (shadow, bytes, interval) = (run.shadow, run.io_bytes, run.io_interval);
                let next = interval.map(|every| ctx.set_timer(every, TAG_IO));
                ctx.send_bulk(shadow, bytes, batch);
                if let State::Busy(run) = &mut self.state {
                    run.io_timer = next;
                }
            }
            TAG_KEEPALIVE => {
                if let State::Busy(run) = &self.state {
                    ctx.send(run.shadow, StartdKeepalive);
                    ctx.set_timer(KEEPALIVE, TAG_KEEPALIVE);
                }
            }
            TAG_LEASE => self.shutdown(ctx, "allocation lease expired"),
            t if t > TAG_CLAIM_LEASE_BASE
                // Idle-claim lease expired: if the claim is still the same
                // one and never activated, release the machine.
                && t - TAG_CLAIM_LEASE_BASE == self.claim_seq
                    && matches!(self.state, State::Claimed { .. }) =>
            {
                ctx.metrics().incr("condor.claim_leases_expired", 1);
                self.state = State::Unclaimed;
                self.idle_since = ctx.now();
                self.advertise(ctx);
            }
            TAG_IDLE => {
                let should_exit = matches!(self.state, State::Unclaimed)
                    && self
                        .idle_timeout
                        .is_some_and(|t| ctx.now() - self.idle_since >= t);
                if should_exit {
                    self.shutdown(ctx, "idle timeout");
                } else if let Some(t) = self.idle_timeout {
                    ctx.set_timer(t, TAG_IDLE);
                }
            }
            _ => {}
        }
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        // Graceful teardown (glidein allocation revoked): vacate the job
        // with its last checkpoint and withdraw the ad.
        self.vacate(ctx, State::Owner);
        ctx.send(
            self.collector,
            Invalidate {
                kind: AdKind::Machine,
                name: self.name.clone(),
            },
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(req) = msg.downcast_ref::<RequestClaim>() {
            let accept = matches!(self.state, State::Unclaimed)
                && symmetric_match(&self.machine_ad(), &req.job_ad);
            if accept {
                self.enter_claimed(ctx, from);
                ctx.metrics().incr("condor.claims", 1);
                ctx.send(from, ClaimReply::Accepted);
            } else {
                ctx.metrics().incr("condor.claims_rejected", 1);
                ctx.send(
                    from,
                    ClaimReply::Rejected {
                        reason: format!("machine is {}", self.state_name()),
                    },
                );
            }
            return;
        }
        if let Some(act) = msg.downcast_ref::<ActivateClaim>() {
            match self.state {
                State::Claimed { shadow } if shadow == from => {
                    let now = ctx.now();
                    self.claim_seq += 1; // activation voids the idle lease
                    let remaining = act.total_work.saturating_sub(act.done_work);
                    let end_timer = ctx.set_timer(remaining, TAG_END);
                    let ckpt_timer = self
                        .ckpt_interval
                        .map(|every| ctx.set_timer(every, TAG_CKPT));
                    let io_timer = act.io_interval.map(|every| ctx.set_timer(every, TAG_IO));
                    ctx.set_timer(KEEPALIVE, TAG_KEEPALIVE);
                    self.state = State::Busy(Box::new(Running {
                        shadow,
                        job: act.job,
                        global_id: act.global_id.clone(),
                        prior_work: act.done_work,
                        ckpt_work: act.done_work,
                        started: now,
                        end_timer,
                        ckpt_timer,
                        io_timer,
                        io_seq: 0,
                        io_interval: act.io_interval,
                        io_bytes: act.io_bytes,
                    }));
                    ctx.metrics().gauge_delta("condor.busy_startds", now, 1.0);
                }
                _ => {
                    // Claim evaporated (owner returned between claim and
                    // activate): bounce the job back with no progress made.
                    ctx.send(
                        from,
                        VacateNotice {
                            job: act.job,
                            checkpointed_work: act.done_work,
                        },
                    );
                }
            }
            return;
        }
        if msg.is::<ReleaseClaim>() {
            if let State::Claimed { shadow } = self.state {
                if shadow == from {
                    self.state = State::Unclaimed;
                    self.idle_since = ctx.now();
                    if let Some(t) = self.idle_timeout {
                        ctx.set_timer(t, TAG_IDLE);
                    }
                }
            }
            return;
        }
        if msg.is::<SyscallReply>() {
            // Flow control would live here; the model treats replies as
            // fire-and-forget acknowledgements.
        }
    }
}
