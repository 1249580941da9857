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
use std::ops::RangeInclusive;
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

/// Internal state machine. Each state holds the timers it armed; leaving
/// it cancels them ([`Startd::enter`]), and a timer takes its id back out
/// when it fires, so a state-owned timer only ever fires in its own state.
enum State {
    /// Owner is using the machine.
    Owner,
    /// Available for claims; exits after the idle timeout, if one is set.
    Unclaimed { idle: Option<TimerId> },
    /// Claimed by a shadow, not yet (or no longer) running. An idle claim
    /// expires after `CLAIM_LEASE` without shadow activity — the shadow
    /// machine crashed (§4.2's "crash of the machine on which the
    /// GridManager is executing" reaches the pool as orphaned claims).
    Claimed {
        shadow: Addr,
        lease: Option<TimerId>,
    },
    /// Running a job.
    Busy(Box<Running>),
}

struct Running {
    shadow: Addr,
    job: JobId,
    global_id: String,
    total_work: Duration,
    /// Work completed before this activation (from checkpoints).
    prior_work: Duration,
    /// Work persisted by the last checkpoint this activation.
    ckpt_work: Duration,
    started: SimTime,
    end: Option<TimerId>,
    ckpt: Option<TimerId>,
    io: Option<TimerId>,
    keepalive: Option<TimerId>,
    io_seq: u64,
    io_interval: Option<Duration>,
    io_bytes: u64,
}

impl State {
    /// Where this state keeps its timer of `tag`, if it holds one.
    fn slot(&mut self, tag: u64) -> Option<&mut Option<TimerId>> {
        match (self, tag) {
            (State::Unclaimed { idle }, TAG_IDLE) => Some(idle),
            (State::Claimed { lease, .. }, TAG_CLAIM_LEASE) => Some(lease),
            (State::Busy(run), TAG_END) => Some(&mut run.end),
            (State::Busy(run), TAG_CKPT) => Some(&mut run.ckpt),
            (State::Busy(run), TAG_IO) => Some(&mut run.io),
            (State::Busy(run), TAG_KEEPALIVE) => Some(&mut run.keepalive),
            _ => None,
        }
    }
}

const TAG_ADVERTISE: u64 = 1;
const TAG_OWNER: u64 = 2;
const TAG_LEASE: u64 = 3;
const TAG_END: u64 = 4;
const TAG_CKPT: u64 = 5;
const TAG_IO: u64 = 6;
const TAG_KEEPALIVE: u64 = 7;
const TAG_IDLE: u64 = 8;
const TAG_CLAIM_LEASE: u64 = 9;
/// The timers a state owns, and their names.
const STATE_TIMERS: RangeInclusive<u64> = TAG_END..=TAG_CLAIM_LEASE;
const STATE_TIMER_NAMES: [&str; 6] = ["end", "ckpt", "io", "keepalive", "idle", "claim lease"];
/// Busy startds ping their shadow this often.
const KEEPALIVE: Duration = Duration::from_mins(10);
const CLAIM_LEASE: Duration = Duration::from_mins(20);
/// A startd or schedd re-sends its ad this often as a heartbeat (Condor's
/// `UPDATE_INTERVAL`); a startd also advertises each change of state at
/// once.
pub(crate) const UPDATE_INTERVAL: Duration = Duration::from_mins(5);
/// The collector keeps an ad this long past its last refresh (Condor's
/// `CLASSAD_LIFETIME`): three missed heartbeats.
pub(crate) const AD_LIFETIME: Duration = Duration::from_mins(15);

/// The startd component.
pub struct Startd {
    /// Machine name (advertised).
    name: String,
    /// Static machine attributes (+ machine Requirements/Rank if any).
    base_ad: ClassAd,
    collector: Addr,
    /// Optional checkpoint server; checkpoints also always reach the shadow.
    ckpt_server: Option<Addr>,
    ckpt_interval: Option<Duration>,
    owner_model: Option<OwnerModel>,
    /// Remaining allocation (glideins); at expiry the daemon exits.
    lease: Option<Duration>,
    /// Exit if unclaimed this long (glideins).
    idle_timeout: Option<Duration>,
    state: State,
    /// The ad last sent to the collector and the state name in it. Every
    /// heartbeat re-sends this handle; only a state change builds a new ad.
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
            ckpt_interval: Some(Duration::from_mins(10)),
            owner_model: None,
            lease: None,
            idle_timeout: None,
            state: State::Unclaimed { idle: None },
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

    /// Leave the current state for `next`: arm `next`'s entry timers,
    /// cancel whatever the old state still holds, advertise if the kind of
    /// state changed, and hand the old state back. Every state change goes
    /// through here.
    fn enter(&mut self, ctx: &mut Ctx<'_>, mut next: State) -> State {
        match &mut next {
            State::Owner => {}
            State::Unclaimed { idle } => {
                *idle = self.idle_timeout.map(|t| ctx.set_timer(t, TAG_IDLE));
            }
            State::Claimed { lease, .. } => {
                *lease = Some(ctx.set_timer(CLAIM_LEASE, TAG_CLAIM_LEASE))
            }
            State::Busy(run) => {
                let remaining = run.total_work.saturating_sub(run.prior_work);
                run.end = Some(ctx.set_timer(remaining, TAG_END));
                run.ckpt = self
                    .ckpt_interval
                    .map(|every| ctx.set_timer(every, TAG_CKPT));
                run.io = run.io_interval.map(|every| ctx.set_timer(every, TAG_IO));
                run.keepalive = Some(ctx.set_timer(KEEPALIVE, TAG_KEEPALIVE));
            }
        }
        let mut old = std::mem::replace(&mut self.state, next);
        for tag in STATE_TIMERS {
            if let Some(id) = old.slot(tag).and_then(Option::take) {
                ctx.cancel_timer(id);
            }
        }
        if std::mem::discriminant(&old) != std::mem::discriminant(&self.state) {
            self.advertise(ctx);
        }
        old
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            State::Owner => "Owner",
            State::Unclaimed { .. } => "Unclaimed",
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
                ttl: AD_LIFETIME,
                contact: me,
            },
        );
    }

    fn machine_ad(&self) -> ClassAd {
        let mut ad = self.base_ad.clone();
        ad.set("Name", self.name.as_str());
        ad
    }

    /// Give the machine up to its owner (owner return, lease expiry,
    /// exit): a running job is vacated, and its shadow told the last
    /// checkpointed progress.
    fn vacate(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if let State::Busy(run) = self.enter(ctx, State::Owner) {
            ctx.metrics().gauge_delta("condor.busy_startds", now, -1.0);
            ctx.metrics().incr("condor.vacated", 1);
            ctx.trace_with("startd.vacate", || {
                format!("{} {} at {}", self.name, run.job, now)
            });
            ctx.send(
                run.shadow,
                VacateNotice {
                    job: run.job,
                    checkpointed_work: run.ckpt_work,
                },
            );
        }
    }

    fn shutdown(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        ctx.trace_with("startd.exit", || format!("{} ({why})", self.name));
        ctx.metrics().incr("condor.startd_exits", 1);
        self.vacate(ctx);
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
        self.advertise(ctx);
        ctx.set_timer(UPDATE_INTERVAL, TAG_ADVERTISE);
        if let Some(model) = &self.owner_model {
            let first = ctx.rng().duration(&model.available_for);
            ctx.set_timer(first, TAG_OWNER);
        }
        if let Some(lease) = self.lease {
            ctx.set_timer(lease, TAG_LEASE);
        }
        self.enter(ctx, State::Unclaimed { idle: None });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        // A state-owned timer takes its id out of its state as it fires.
        // One that its state does not hold is one a transition failed to
        // cancel: stop the run, release builds too.
        if STATE_TIMERS.contains(&tag) {
            let held = self.state.slot(tag).and_then(Option::take);
            assert!(
                held == Some(id),
                "startd {}: {} timer fired as {id:?} in state {}, which holds {held:?}",
                self.name,
                STATE_TIMER_NAMES[(tag - TAG_END) as usize],
                self.state_name()
            );
        }
        match (tag, &mut self.state) {
            (TAG_ADVERTISE, _) => {
                self.advertise(ctx);
                ctx.set_timer(UPDATE_INTERVAL, TAG_ADVERTISE);
            }
            (TAG_OWNER, _) => {
                let Some(model) = self.owner_model.clone() else {
                    return;
                };
                let next = if matches!(self.state, State::Owner) {
                    // Owner leaves: machine available again.
                    self.enter(ctx, State::Unclaimed { idle: None });
                    &model.available_for
                } else {
                    // Owner returns: preempt whatever is here.
                    self.vacate(ctx);
                    &model.occupied_for
                };
                let next = ctx.rng().duration(next);
                ctx.set_timer(next, TAG_OWNER);
            }
            (TAG_END, State::Busy(run)) => {
                let now = ctx.now();
                let (shadow, job, cpu_time) = (run.shadow, run.job, now - run.started);
                ctx.metrics().incr("condor.jobs_finished", 1);
                ctx.metrics()
                    .observe("condor.job_cpu_seconds", cpu_time.as_secs_f64());
                ctx.trace_with("startd.done", || format!("{} {job}", self.name));
                self.enter(
                    ctx,
                    State::Claimed {
                        shadow,
                        lease: None,
                    },
                );
                ctx.send(
                    shadow,
                    JobExited {
                        job,
                        ok: true,
                        cpu_time,
                    },
                );
                ctx.metrics().gauge_delta("condor.busy_startds", now, -1.0);
            }
            (TAG_CKPT, State::Busy(run)) => {
                // Work done so far (wall time == CPU time on a dedicated claim).
                let done = run.prior_work + (ctx.now() - run.started);
                run.ckpt_work = done;
                let image_bytes = 8_000_000; // a paper-era checkpoint image
                let ckpt = Checkpoint {
                    job: run.job,
                    global_id: run.global_id.clone(),
                    done_work: done,
                    image_bytes,
                };
                ctx.metrics().incr("condor.checkpoints", 1);
                run.ckpt = self
                    .ckpt_interval
                    .map(|every| ctx.set_timer(every, TAG_CKPT));
                ctx.send_bulk(run.shadow, image_bytes, ckpt.clone());
                if let Some(server) = self.ckpt_server {
                    ctx.send_bulk(server, image_bytes, ckpt);
                }
            }
            (TAG_IO, State::Busy(run)) => {
                run.io_seq += 1;
                let batch = SyscallBatch {
                    bytes: run.io_bytes,
                    seq: run.io_seq,
                };
                ctx.metrics().incr("condor.syscall_batches", 1);
                ctx.metrics().incr("condor.syscall_bytes", run.io_bytes);
                run.io = run.io_interval.map(|every| ctx.set_timer(every, TAG_IO));
                ctx.send_bulk(run.shadow, run.io_bytes, batch);
            }
            (TAG_KEEPALIVE, State::Busy(run)) => {
                ctx.send(run.shadow, StartdKeepalive);
                run.keepalive = Some(ctx.set_timer(KEEPALIVE, TAG_KEEPALIVE));
            }
            (TAG_LEASE, _) => self.shutdown(ctx, "allocation lease expired"),
            (TAG_CLAIM_LEASE, _) => {
                // The shadow went silent on an idle claim: release it.
                ctx.metrics().incr("condor.claim_leases_expired", 1);
                self.enter(ctx, State::Unclaimed { idle: None });
            }
            (TAG_IDLE, _) => self.shutdown(ctx, "idle timeout"),
            _ => {}
        }
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        // Graceful teardown (glidein allocation revoked): vacate the job
        // with its last checkpoint and withdraw the ad.
        self.vacate(ctx);
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
            let accept = matches!(self.state, State::Unclaimed { .. })
                && symmetric_match(&self.machine_ad(), &req.job_ad);
            if accept {
                self.enter(
                    ctx,
                    State::Claimed {
                        shadow: from,
                        lease: None,
                    },
                );
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
                State::Claimed { shadow, .. } if shadow == from => {
                    let now = ctx.now();
                    let run = Running {
                        shadow,
                        job: act.job,
                        global_id: act.global_id.clone(),
                        total_work: act.total_work,
                        prior_work: act.done_work,
                        ckpt_work: act.done_work,
                        started: now,
                        end: None,
                        ckpt: None,
                        io: None,
                        keepalive: None,
                        io_seq: 0,
                        io_interval: act.io_interval,
                        io_bytes: act.io_bytes,
                    };
                    self.enter(ctx, State::Busy(Box::new(run)));
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
            if matches!(self.state, State::Claimed { shadow, .. } if shadow == from) {
                self.enter(ctx, State::Unclaimed { idle: None });
            }
            return;
        }
        if msg.is::<SyscallReply>() {
            // Flow control would live here; the model treats replies as
            // fire-and-forget acknowledgements.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{Config, World};
    use std::cell::RefCell;

    /// A message between two components of one node takes the default
    /// loopback latency.
    const HOP: Duration = Duration::from_micros(100);
    const IDLE: Duration = Duration::from_mins(30);

    /// What the shadow saw: keepalives per activation, and when it sent
    /// its `ReleaseClaim`; and what the collector saw: each advert's
    /// arrival, `State` and TTL.
    #[derive(Default)]
    struct Seen {
        keepalives: Vec<u32>,
        exits: u32,
        released: Option<SimTime>,
        adverts: Vec<(SimTime, String, Duration)>,
    }

    /// A shadow that claims the startd once and runs `jobs` on the claim
    /// one after another, activating each `think` after the claim is
    /// accepted or the job before it exits, then releases the claim.
    /// With no jobs it claims and falls silent.
    struct Shadow {
        startd: Addr,
        jobs: Vec<Duration>,
        think: Duration,
        seen: Rc<RefCell<Seen>>,
    }

    impl Shadow {
        fn next_job(&mut self, ctx: &mut Ctx<'_>) {
            if !self.jobs.is_empty() {
                ctx.set_timer(self.think, 0);
            } else if !self.seen.borrow().keepalives.is_empty() {
                ctx.send(self.startd, ReleaseClaim);
                self.seen.borrow_mut().released = Some(ctx.now());
            }
        }
    }

    impl Component for Shadow {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let job_ad = Rc::new(ClassAd::new());
            ctx.send(
                self.startd,
                RequestClaim {
                    job_ad,
                    job: JobId(0),
                },
            );
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            let mut seen = self.seen.borrow_mut();
            let job = JobId(seen.keepalives.len() as u64);
            seen.keepalives.push(0);
            ctx.send(
                self.startd,
                ActivateClaim {
                    job,
                    global_id: job.to_string(),
                    total_work: self.jobs.remove(0),
                    done_work: Duration::ZERO,
                    io_interval: None,
                    io_bytes: 0,
                },
            );
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if msg.is::<StartdKeepalive>() {
                *self.seen.borrow_mut().keepalives.last_mut().unwrap() += 1;
            } else if msg.is::<JobExited>() {
                self.seen.borrow_mut().exits += 1;
                self.next_job(ctx);
            } else if matches!(msg.downcast_ref(), Some(ClaimReply::Accepted)) {
                self.next_job(ctx);
            }
        }
    }

    /// Records the startd's adverts.
    struct Collector(Rc<RefCell<Seen>>);
    impl Component for Collector {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(ad) = msg.downcast_ref::<Advertise>() {
                let state = ad.ad.get_str("State").expect("a machine ad has a State");
                self.0.borrow_mut().adverts.push((ctx.now(), state, ad.ttl));
            }
        }
    }

    /// A glidein startd (idle timeout `IDLE`) and one shadow, run for a
    /// day: the trace and what the shadow saw.
    fn run(jobs: Vec<Duration>, think: Duration) -> (World, Seen) {
        let mut w = World::new(Config::default().seed(5).with_trace());
        let node = w.add_node("glidein");
        let seen = Rc::new(RefCell::new(Seen::default()));
        let collector = w.add_component(node, "collector", Collector(Rc::clone(&seen)));
        let startd = Startd::new("glidein", ClassAd::new(), collector)
            .with_lease(Duration::from_days(2))
            .with_idle_timeout(IDLE);
        let startd = w.add_component(node, "startd", startd);
        let shadow = Shadow {
            startd,
            jobs,
            think,
            seen: Rc::clone(&seen),
        };
        w.add_component(node, "shadow", shadow);
        w.run_until(SimTime::ZERO + Duration::from_days(1));
        (w, seen.take())
    }

    fn exited_at(w: &World) -> SimTime {
        let exits: Vec<_> = w.trace().of_kind("startd.exit").collect();
        assert_eq!(exits.len(), 1, "the startd exits once");
        exits[0].time
    }

    #[test]
    fn back_to_back_jobs_get_one_keepalive_chain_each() {
        // 35 minutes each: keepalives at 10, 20 and 30 minutes into every
        // activation. Before each activation cancelled its own chain at
        // the end, the first job's chain went on into the second job
        // (gap 0 < 10 minutes), and the second's into the third.
        let (w, seen) = run(vec![Duration::from_mins(35); 3], Duration::ZERO);
        assert_eq!(seen.exits, 3);
        assert_eq!(seen.keepalives, [3, 3, 3]);
        assert_eq!(w.metrics().counter("condor.startd_exits"), 1);
    }

    #[test]
    fn a_startd_advertises_each_change_and_heartbeats_between() {
        // One 35-minute job. The claim reaches the startd at HOP, the
        // activation at 3 HOP (reply, then a zero think time), the end at
        // 3 HOP + 35 min and the release a round trip later. A heartbeat
        // leaves every UPDATE_INTERVAL from boot; the glidein exits idle
        // IDLE after the release and is Owner for its last instant.
        // Times are when each advert leaves the startd.
        let (w, seen) = run(vec![Duration::from_mins(35)], Duration::ZERO);
        let t0 = SimTime::ZERO;
        let end = t0 + HOP * 3 + Duration::from_mins(35);
        let released = seen.released.expect("released") + HOP;
        assert_eq!(released, end + HOP * 2);
        let exit = exited_at(&w);
        assert_eq!(exit, released + IDLE);
        let mut want = vec![
            (t0, "Unclaimed"),
            (t0 + HOP, "Claimed"),
            (t0 + HOP * 3, "Busy"),
            (end, "Claimed"),
            (released, "Unclaimed"),
            (exit, "Owner"),
        ];
        let mut beat = t0 + UPDATE_INTERVAL;
        while beat < exit {
            let state = match beat {
                t if t < t0 + HOP * 3 => "Claimed",
                t if t < end => "Busy",
                t if t < released => "Claimed",
                _ => "Unclaimed",
            };
            want.push((beat, state));
            beat += UPDATE_INTERVAL;
        }
        want.sort();
        // Each advert reaches the collector a hop after it leaves.
        let want: Vec<_> = want.into_iter().map(|(t, s)| (t + HOP, s)).collect();
        let got: Vec<_> = seen
            .adverts
            .iter()
            .map(|(t, s, _)| (*t, s.as_str()))
            .collect();
        assert_eq!(got, want);
        assert!(seen.adverts.iter().all(|&(_, _, ttl)| ttl == AD_LIFETIME));
    }

    #[test]
    fn a_glidein_exits_idle_timeout_after_its_last_release() {
        let (w, seen) = run(vec![Duration::from_mins(15); 2], Duration::from_mins(3));
        assert_eq!(seen.exits, 2);
        let released = seen.released.expect("released") + HOP;
        assert_eq!(exited_at(&w), released + IDLE);
    }

    #[test]
    fn a_glidein_exits_idle_timeout_after_a_claim_lease_expiry() {
        // Claimed at HOP and never activated: the claim lease gives the
        // machine back 20 minutes later, and the idle clock starts there,
        // not at boot.
        let (w, seen) = run(Vec::new(), Duration::ZERO);
        assert!(seen.keepalives.is_empty());
        assert_eq!(w.metrics().counter("condor.claim_leases_expired"), 1);
        assert_eq!(exited_at(&w), SimTime::ZERO + HOP + CLAIM_LEASE + IDLE);
    }

    #[test]
    fn a_claim_activated_inside_its_lease_is_not_released_by_it() {
        // Each activation comes 19 minutes into a 20-minute claim lease:
        // after the claim is accepted, and after each job leaves the
        // claim idle again.
        let (w, seen) = run(vec![Duration::from_mins(45); 3], Duration::from_mins(19));
        assert_eq!(w.metrics().counter("condor.claim_leases_expired"), 0);
        assert_eq!(seen.exits, 3);
        assert_eq!(seen.keepalives, [4, 4, 4]);
        let released = seen.released.expect("released") + HOP;
        assert_eq!(exited_at(&w), released + IDLE);
    }
}
