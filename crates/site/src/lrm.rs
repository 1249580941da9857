//! The local resource manager component.

use crate::job::{JobSpec, LrmJobState};
use crate::policy::{QueueView, RunningView, SchedPolicy};
use crate::proto::{LrmEvent, LrmReply, LrmRequest, SiteInfo};
use gridsim::hash::IdMap;
use gridsim::metrics::SiteMetrics;
use gridsim::prelude::*;
use gridsim::rng::Dist;
use gridsim::AnyMsg;
use std::rc::Rc;

/// Opportunistic capacity churn: models desktop owners reclaiming their
/// machines in a Condor pool (or maintenance windows on a cluster).
///
/// Every `interval` the number of reclaimed processors is resampled from
/// `reclaimed` (clamped to the site size). If the new value exceeds the
/// processors currently idle, the youngest running jobs are vacated to make
/// up the difference — exactly the revocation that GlideIn checkpointing
/// (paper §5) exists to survive.
#[derive(Clone, Debug)]
pub struct ChurnModel {
    /// Time between owner-activity changes (seconds).
    pub interval: Dist,
    /// Distribution of how many processors are owner-occupied.
    pub reclaimed: Dist,
    /// Diurnal swing: the reclaimed sample is scaled by
    /// `1 + amplitude · sin(2π·t/24h − π/2)`, so owner occupancy peaks in
    /// the working day and bottoms out at night — the classic Condor
    /// desktop-pool availability curve. `0.0` disables it.
    pub diurnal_amplitude: f64,
}

impl ChurnModel {
    /// Steady churn with no diurnal component.
    pub fn steady(interval: Dist, reclaimed: Dist) -> ChurnModel {
        ChurnModel {
            interval,
            reclaimed,
            diurnal_amplitude: 0.0,
        }
    }
}

/// What a queued job carries beyond the policy's [`QueueView`] of it (the
/// two together are its [`JobSpec`], with nothing stored twice).
struct Queued {
    runtime: Duration,
    required_arch: Option<String>,
    submitter: Addr,
}

struct Running {
    spec: JobSpec,
    submitter: Addr,
    started: SimTime,
    timer: TimerId,
    /// Where this job's [`RunningView`] sits in `Lrm::running_view`.
    view: usize,
}

const CHURN_TAG: u64 = u64::MAX;

/// A site batch scheduler: queue, policy, wall limits, optional churn.
pub struct Lrm {
    site: String,
    /// Machine architecture; wrong-arch binaries fail at start.
    arch: String,
    total_cpus: u32,
    reclaimed: u32,
    policy: Box<dyn SchedPolicy>,
    max_wall: Option<Duration>,
    churn: Option<ChurnModel>,
    /// The queue, in order, as the policy sees it: kept current on every
    /// enqueue and start rather than rebuilt for each scheduling pass.
    queue: Vec<QueueView>,
    /// The rest of each queued job, by id — which also makes "is this id
    /// queued?" a lookup instead of a scan.
    queued: IdMap<u64, Queued>,
    running: IdMap<u64, Running>,
    /// The running jobs as the policy sees them, kept beside `running`
    /// (in no particular order). `running_ids[i]` names the job behind
    /// `running_view[i]`, so removal is a `swap_remove` plus one fix-up.
    running_view: Vec<RunningView>,
    running_ids: Vec<u64>,
    /// Processors held by `running`, maintained incrementally so busy
    /// accounting stays O(1) with ten thousand concurrent jobs.
    used: u32,
    /// Terminal outcomes kept for late `Status` polls. Bounded: entries are
    /// evicted FIFO past [`TERMINAL_RETAIN`], since a poll for a job that
    /// finished tens of thousands of completions ago no longer has a
    /// JobManager waiting on it — and a campaign would otherwise grow this
    /// map with every job that ever ran here. Values carry an insertion
    /// generation so a re-inserted id is not evicted by its stale entry in
    /// the order queue.
    terminal: IdMap<u64, (LrmJobState, u64)>,
    terminal_order: std::collections::VecDeque<(u64, u64)>,
    terminal_gen: u64,
    next_local: u64,
    last_busy: f64,
    /// This site's weather handles, resolved on first use.
    weather: Option<Rc<SiteMetrics>>,
    /// Rolling window of recent terminal outcomes (`true` = completed),
    /// feeding the per-site success-rate gauge in the grid-weather report.
    outcomes: std::collections::VecDeque<bool>,
}

/// Terminal outcomes in the rolling success-rate window.
const OUTCOME_WINDOW: usize = 32;

/// Terminal-state entries retained for late status polls.
const TERMINAL_RETAIN: usize = 16_384;

impl Lrm {
    /// A scheduler for `total_cpus` processors under `policy`.
    pub fn new(site: &str, total_cpus: u32, policy: impl SchedPolicy) -> Lrm {
        Lrm {
            site: site.to_string(),
            arch: "INTEL".to_string(),
            total_cpus,
            reclaimed: 0,
            policy: Box::new(policy),
            max_wall: None,
            churn: None,
            queue: Vec::new(),
            queued: IdMap::default(),
            running: IdMap::default(),
            running_view: Vec::new(),
            running_ids: Vec::new(),
            used: 0,
            terminal: IdMap::default(),
            terminal_order: std::collections::VecDeque::new(),
            terminal_gen: 0,
            next_local: 0,
            last_busy: 0.0,
            weather: None,
            outcomes: std::collections::VecDeque::with_capacity(OUTCOME_WINDOW),
        }
    }

    /// Set the machine architecture (default `INTEL`).
    pub fn with_arch(mut self, arch: &str) -> Lrm {
        self.arch = arch.to_string();
        self
    }

    /// Impose a site wall-clock limit (jobs running longer are killed).
    pub fn with_wall_limit(mut self, limit: Duration) -> Lrm {
        self.max_wall = Some(limit);
        self
    }

    /// Enable opportunistic churn.
    pub fn with_churn(mut self, churn: ChurnModel) -> Lrm {
        self.churn = Some(churn);
        self
    }

    /// This site's weather handles.
    fn weather(&mut self, ctx: &mut Ctx<'_>) -> Rc<SiteMetrics> {
        let site = &self.site;
        let weather = self.weather.get_or_insert_with(|| ctx.metrics().site(site));
        weather.clone()
    }

    fn used_cpus(&self) -> u32 {
        debug_assert_eq!(
            self.used,
            self.running.values().map(|r| r.spec.cpus).sum::<u32>(),
            "incremental CPU accounting out of sync"
        );
        self.used
    }

    /// Record a terminal outcome, evicting the oldest entries past the cap.
    fn note_terminal(&mut self, local_id: u64, state: LrmJobState) {
        self.terminal_gen += 1;
        let gen = self.terminal_gen;
        self.terminal.insert(local_id, (state, gen));
        self.terminal_order.push_back((local_id, gen));
        while self.terminal_order.len() > TERMINAL_RETAIN {
            let Some((old_id, old_gen)) = self.terminal_order.pop_front() else {
                break;
            };
            // Only drop the map entry if it is the one this queue slot
            // registered (not a newer re-insertion under the same id).
            if self
                .terminal
                .get(&old_id)
                .is_some_and(|&(_, g)| g == old_gen)
            {
                self.terminal.remove(&old_id);
            }
        }
    }

    fn take_terminal(&mut self, local_id: u64) -> Option<LrmJobState> {
        self.terminal.remove(&local_id).map(|(s, _)| s)
    }

    fn get_terminal(&self, local_id: u64) -> Option<LrmJobState> {
        self.terminal.get(&local_id).map(|&(s, _)| s)
    }

    fn free_cpus(&self) -> u32 {
        self.total_cpus
            .saturating_sub(self.reclaimed)
            .saturating_sub(self.used_cpus())
    }

    fn info(&self) -> SiteInfo {
        SiteInfo {
            total_cpus: self.total_cpus,
            free_cpus: self.free_cpus(),
            queued: self.queue.len() as u32,
            running: self.running.len() as u32,
        }
    }

    fn record_busy(&mut self, ctx: &mut Ctx<'_>) {
        let t = ctx.now();
        let used = self.used_cpus() as f64;
        let weather = self.weather(ctx);
        ctx.metrics().gauge(&weather.busy, t, used);
        // A grid-wide busy-CPU series: every site contributes deltas, so
        // the sum is exact across sites (used by the E1 concurrency plot).
        let delta = used - self.last_busy;
        self.last_busy = used;
        if delta != 0.0 {
            ctx.metrics().gauge_delta("grid.busy_cpus", t, delta);
        }
    }

    /// Publish the current queue depth (jobs queued, not running) — one of
    /// the per-site grid-weather series.
    fn record_queue_depth(&mut self, ctx: &mut Ctx<'_>) {
        let (t, weather) = (ctx.now(), self.weather(ctx));
        ctx.metrics()
            .gauge(&weather.queue_depth, t, self.queue.len() as f64);
    }

    /// Record one terminal outcome in the rolling window and republish the
    /// per-site success-rate gauge.
    fn note_outcome(&mut self, ctx: &mut Ctx<'_>, ok: bool) {
        if self.outcomes.len() == OUTCOME_WINDOW {
            self.outcomes.pop_front();
        }
        self.outcomes.push_back(ok);
        let rate = self.outcomes.iter().filter(|&&b| b).count() as f64 / self.outcomes.len() as f64;
        let (t, weather) = (ctx.now(), self.weather(ctx));
        ctx.metrics().gauge(&weather.success_rate, t, rate);
    }

    /// Put a job in the queue: at the back, or at the front for a vacated
    /// job that keeps its place ahead of later arrivals.
    fn enqueue(
        &mut self,
        local_id: u64,
        spec: JobSpec,
        submitter: Addr,
        now: SimTime,
        front: bool,
    ) {
        let view = QueueView {
            local_id,
            cpus: spec.cpus,
            estimate: spec.estimate,
            owner: spec.owner,
            submitted: now,
        };
        if front {
            self.queue.insert(0, view);
        } else {
            self.queue.push(view);
        }
        self.queued.insert(
            local_id,
            Queued {
                runtime: spec.runtime,
                required_arch: spec.required_arch,
                submitter,
            },
        );
    }

    /// Take a job out of `running`, and its view out of `running_view`.
    fn remove_running(&mut self, local_id: u64) -> Option<Running> {
        let run = self.running.remove(&local_id)?;
        self.used -= run.spec.cpus;
        self.running_view.swap_remove(run.view);
        self.running_ids.swap_remove(run.view);
        if let Some(moved) = self.running_ids.get(run.view) {
            self.running
                .get_mut(moved)
                .expect("viewed job is running")
                .view = run.view;
        }
        Some(run)
    }

    /// What a `Status` poll for `local_id` answers.
    fn status_of(&self, local_id: u64) -> Option<LrmJobState> {
        if self.running.contains_key(&local_id) {
            Some(LrmJobState::Running)
        } else if self.queued.contains_key(&local_id) {
            Some(LrmJobState::Queued)
        } else {
            self.get_terminal(local_id)
        }
    }

    fn schedule(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let free = self.free_cpus();
            if free == 0 || self.queue.is_empty() {
                break;
            }
            let picks = self
                .policy
                .select(ctx.now(), &self.queue, &self.running_view, free);
            if picks.is_empty() || !self.start_picked(ctx, &picks, free) {
                break;
            }
        }
    }

    /// The queue position of each pick; `usize::MAX` for an id that is not
    /// queued or that an earlier pick already named.
    fn locate(&self, picks: &[u64]) -> Vec<usize> {
        // The cheapest case, and the usual one: the picks are the head of
        // the queue, in order.
        let head = picks.len() <= self.queue.len()
            && picks
                .iter()
                .zip(&self.queue)
                .all(|(id, v)| *id == v.local_id);
        if head {
            return (0..picks.len()).collect();
        }
        let mut by_id: Vec<(u64, usize)> = picks.iter().copied().zip(0..).collect();
        by_id.sort_unstable();
        by_id.dedup_by_key(|&mut (id, _)| id);
        let mut at = vec![usize::MAX; picks.len()];
        for (pos, view) in self.queue.iter().enumerate() {
            if let Ok(i) = by_id.binary_search_by_key(&view.local_id, |&(id, _)| id) {
                at[by_id[i].1] = pos;
            }
        }
        at
    }

    /// Start the picked jobs in pick order — a pick that no longer fits
    /// the shrinking budget stays queued — then close the gaps they leave
    /// in one pass over the queue. Returns whether anything started.
    fn start_picked(&mut self, ctx: &mut Ctx<'_>, picks: &[u64], free: u32) -> bool {
        let mut budget = free;
        let mut started = Vec::new();
        for pos in self.locate(picks) {
            let Some(view) = self.queue.get_mut(pos).filter(|v| v.cpus <= budget) else {
                continue;
            };
            budget -= view.cpus;
            let job = QueueView {
                local_id: view.local_id,
                cpus: view.cpus,
                estimate: view.estimate,
                owner: std::mem::take(&mut view.owner),
                submitted: view.submitted,
            };
            started.push(pos);
            self.start_job(ctx, job);
        }
        started.sort_unstable();
        let (mut pos, mut gone) = (0, started.iter().peekable());
        self.queue.retain(|_| {
            let here = pos;
            pos += 1;
            gone.next_if_eq(&&here).is_none()
        });
        !started.is_empty()
    }

    fn start_job(&mut self, ctx: &mut Ctx<'_>, job: QueueView) {
        let rest = self
            .queued
            .remove(&job.local_id)
            .expect("a queue entry has its other half");
        let spec = JobSpec {
            cpus: job.cpus,
            runtime: rest.runtime,
            estimate: job.estimate,
            owner: job.owner,
            required_arch: rest.required_arch,
        };
        let now = ctx.now();
        let wait = now - job.submitted;
        let weather = self.weather(ctx);
        ctx.metrics().observe_duration("site.queue_wait", wait);
        ctx.metrics().observe_duration(&weather.queue_wait, wait);
        // True occupancy: min(actual runtime, wall limit).
        let (span, exceeded) = match self.max_wall {
            Some(limit) if spec.runtime > limit => (limit, true),
            _ => (spec.runtime, false),
        };
        let timer = ctx.set_timer(span, job.local_id);
        // The *policy-visible* end uses the estimate (clamped the same way).
        let est_span = match self.max_wall {
            Some(limit) => spec.estimate.min(limit),
            None => spec.estimate,
        };
        ctx.trace_with("lrm.start", || {
            format!("{} job {} ({} cpus)", self.site, job.local_id, spec.cpus)
        });
        ctx.send(
            rest.submitter,
            LrmEvent {
                local_id: job.local_id,
                state: LrmJobState::Running,
                at: now,
            },
        );
        self.used += spec.cpus;
        self.running_view.push(RunningView {
            cpus: spec.cpus,
            expected_end: now + est_span,
        });
        self.running_ids.push(job.local_id);
        self.running.insert(
            job.local_id,
            Running {
                spec,
                submitter: rest.submitter,
                started: now,
                timer,
                view: self.running_view.len() - 1,
            },
        );
        // Remember whether this run will exceed the wall limit.
        if exceeded {
            self.note_terminal(job.local_id, LrmJobState::WallTimeExceeded);
        }
        self.record_busy(ctx);
    }

    fn finish_job(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let Some(run) = self.remove_running(local_id) else {
            return;
        };
        let now = ctx.now();
        // Was this completion actually a wall-limit kill?
        let state = match self.take_terminal(local_id) {
            Some(LrmJobState::WallTimeExceeded) => LrmJobState::WallTimeExceeded,
            _ => LrmJobState::Completed,
        };
        let elapsed = now - run.started;
        self.policy
            .charge(&run.spec.owner, elapsed * u64::from(run.spec.cpus));
        let weather = self.weather(ctx);
        ctx.metrics()
            .incr("site.completed", (state == LrmJobState::Completed) as u64);
        ctx.metrics()
            .add(weather.completed, (state == LrmJobState::Completed) as u64);
        ctx.metrics().incr(
            "site.wall_killed",
            (state == LrmJobState::WallTimeExceeded) as u64,
        );
        self.note_outcome(ctx, state == LrmJobState::Completed);
        ctx.metrics().observe(
            &weather.cpu_seconds,
            elapsed.as_secs_f64() * f64::from(run.spec.cpus),
        );
        ctx.trace_with("lrm.done", || {
            format!("{} job {local_id} -> {state:?}", self.site)
        });
        self.note_terminal(local_id, state);
        ctx.send(
            run.submitter,
            LrmEvent {
                local_id,
                state,
                at: now,
            },
        );
        self.record_busy(ctx);
        self.schedule(ctx);
        self.record_queue_depth(ctx);
    }

    fn apply_churn(&mut self, ctx: &mut Ctx<'_>) {
        let Some(churn) = self.churn.clone() else {
            return;
        };
        let mut target = ctx.rng().sample(&churn.reclaimed).max(0.0);
        if churn.diurnal_amplitude > 0.0 {
            // Phase: minimum occupancy at midnight, maximum mid-afternoon.
            let day_frac = (ctx.now().as_secs_f64() / 86_400.0).fract();
            let swing = (std::f64::consts::TAU * day_frac - std::f64::consts::FRAC_PI_2).sin();
            target *= 1.0 + churn.diurnal_amplitude * swing;
        }
        self.reclaimed = (target.round().max(0.0) as u32).min(self.total_cpus);
        self.vacate_over_capacity(ctx);
        self.record_busy(ctx);
        let next = ctx.rng().duration(&churn.interval);
        ctx.set_timer(next, CHURN_TAG);
        self.schedule(ctx);
        self.record_queue_depth(ctx);
    }

    /// Vacate youngest running jobs until used + reclaimed <= total.
    fn vacate_over_capacity(&mut self, ctx: &mut Ctx<'_>) {
        while self.used_cpus() + self.reclaimed > self.total_cpus {
            // Youngest = latest start.
            let Some((&victim, _)) = self.running.iter().max_by_key(|(id, r)| (r.started, **id))
            else {
                break;
            };
            let run = self.remove_running(victim).expect("victim exists");
            ctx.cancel_timer(run.timer);
            ctx.metrics().incr("site.vacated", 1);
            ctx.trace_with("lrm.vacate", || format!("{} job {victim}", self.site));
            let now = ctx.now();
            // Partial usage still gets charged.
            self.policy.charge(
                &run.spec.owner,
                (now - run.started) * u64::from(run.spec.cpus),
            );
            self.take_terminal(victim);
            ctx.send(
                run.submitter,
                LrmEvent {
                    local_id: victim,
                    state: LrmJobState::Queued,
                    at: now,
                },
            );
            self.enqueue(victim, run.spec, run.submitter, now, true);
        }
    }
}

impl Component for Lrm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(churn) = &self.churn {
            let first = ctx.rng().duration(&churn.interval);
            ctx.set_timer(first, CHURN_TAG);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == CHURN_TAG {
            self.apply_churn(ctx);
        } else {
            self.finish_job(ctx, tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        let Ok(req) = msg.downcast::<LrmRequest>() else {
            return;
        };
        match *req {
            LrmRequest::Submit { client_job, spec } => {
                let local_id = self.next_local;
                self.next_local += 1;
                ctx.metrics().incr("site.submitted", 1);
                // A binary built for another architecture dies on exec.
                if let Some(arch) = &spec.required_arch {
                    if !arch.eq_ignore_ascii_case(&self.arch) {
                        ctx.metrics().incr("site.arch_mismatch", 1);
                        ctx.trace_with("lrm.exec_failed", || {
                            format!(
                                "{} job {local_id}: binary is {arch}, site is {}",
                                self.site, self.arch
                            )
                        });
                        self.note_terminal(local_id, LrmJobState::Vacated);
                        self.note_outcome(ctx, false);
                        ctx.send(
                            from,
                            LrmReply::Submitted {
                                client_job,
                                local_id,
                            },
                        );
                        ctx.send(
                            from,
                            LrmEvent {
                                local_id,
                                state: LrmJobState::Vacated,
                                at: ctx.now(),
                            },
                        );
                        return;
                    }
                }
                ctx.trace_with("lrm.submit", || {
                    format!(
                        "{} job {local_id} ({} cpus, owner {})",
                        self.site, spec.cpus, spec.owner
                    )
                });
                self.enqueue(local_id, spec, from, ctx.now(), false);
                ctx.send(
                    from,
                    LrmReply::Submitted {
                        client_job,
                        local_id,
                    },
                );
                self.schedule(ctx);
                self.record_queue_depth(ctx);
            }
            LrmRequest::Cancel { local_id } => {
                let now = ctx.now();
                if let Some(job) = self.queued.remove(&local_id) {
                    self.queue.retain(|v| v.local_id != local_id);
                    self.note_terminal(local_id, LrmJobState::Removed);
                    ctx.send(
                        job.submitter,
                        LrmEvent {
                            local_id,
                            state: LrmJobState::Removed,
                            at: now,
                        },
                    );
                } else if let Some(run) = self.remove_running(local_id) {
                    ctx.cancel_timer(run.timer);
                    self.note_terminal(local_id, LrmJobState::Removed);
                    ctx.send(
                        run.submitter,
                        LrmEvent {
                            local_id,
                            state: LrmJobState::Removed,
                            at: now,
                        },
                    );
                    self.record_busy(ctx);
                    self.schedule(ctx);
                }
                ctx.metrics().incr("site.cancelled", 1);
                self.record_queue_depth(ctx);
            }
            LrmRequest::Status { local_id } => {
                let state = self.status_of(local_id);
                ctx.send(from, LrmReply::StatusIs { local_id, state });
            }
            LrmRequest::QueryInfo => {
                ctx.send(from, LrmReply::Info(self.info()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fifo;
    use gridsim::{Config, World};
    use std::collections::BTreeMap;

    /// Test submitter that records every event and reply to stable storage.
    struct Submitter {
        lrm: Addr,
        jobs: Vec<JobSpec>,
        cancel_after: Option<(Duration, u64)>,
        events: BTreeMap<u64, Vec<String>>,
    }

    impl Submitter {
        fn persist(&self, ctx: &mut Ctx<'_>) {
            let node = ctx.node();
            let flat: Vec<(u64, Vec<String>)> =
                self.events.iter().map(|(k, v)| (*k, v.clone())).collect();
            ctx.store().put(node, "events", &flat);
        }
    }

    impl Component for Submitter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, spec) in self.jobs.drain(..).enumerate() {
                ctx.send(
                    self.lrm,
                    LrmRequest::Submit {
                        client_job: i as u64,
                        spec,
                    },
                );
            }
            if let Some((after, _)) = self.cancel_after {
                ctx.set_timer(after, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            if let Some((_, local)) = self.cancel_after {
                ctx.send(self.lrm, LrmRequest::Cancel { local_id: local });
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(ev) = msg.downcast_ref::<LrmEvent>() {
                self.events.entry(ev.local_id).or_default().push(format!(
                    "{:?}@{}",
                    ev.state,
                    ev.at.micros() / 1_000_000
                ));
                self.persist(ctx);
            } else if let Some(LrmReply::Submitted { local_id, .. }) =
                msg.downcast_ref::<LrmReply>()
            {
                self.events
                    .entry(*local_id)
                    .or_default()
                    .push("Submitted".into());
                self.persist(ctx);
            }
        }
    }

    fn events_of(w: &World, node: gridsim::NodeId, local: u64) -> Vec<String> {
        let flat: Vec<(u64, Vec<String>)> = w.store().get(node, "events").unwrap_or_default();
        flat.into_iter()
            .find(|(k, _)| *k == local)
            .map(|(_, v)| v)
            .unwrap_or_default()
    }

    fn run_world(
        cpus: u32,
        jobs: Vec<JobSpec>,
        build: impl FnOnce(Lrm) -> Lrm,
    ) -> (World, gridsim::NodeId) {
        let mut w = World::new(Config::default().seed(4));
        let site = w.add_node("site");
        let sub = w.add_node("submit");
        let lrm = w.add_component(site, "lrm", build(Lrm::new("pbs", cpus, Fifo)));
        w.add_component(
            sub,
            "submitter",
            Submitter {
                lrm,
                jobs,
                cancel_after: None,
                events: BTreeMap::new(),
            },
        );
        w.run_until_quiescent();
        (w, sub)
    }

    #[test]
    fn jobs_queue_run_and_complete_in_order() {
        let jobs = vec![
            JobSpec::simple(Duration::from_mins(10), "a"),
            JobSpec::simple(Duration::from_mins(10), "a"),
            JobSpec::simple(Duration::from_mins(10), "a"),
        ];
        // 1 CPU: jobs run serially.
        let (w, sub) = run_world(1, jobs, |l| l);
        for id in 0..3 {
            let evs = events_of(&w, sub, id);
            assert!(
                evs.iter().any(|e| e.starts_with("Running")),
                "job {id}: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| e.starts_with("Completed")),
                "job {id}: {evs:?}"
            );
        }
        // Serial: total makespan ~30 min.
        assert!(w.now() >= SimTime::ZERO + Duration::from_mins(30));
        assert_eq!(w.metrics().counter("site.completed"), 3);
        // Queue waits: 0, 10, 20 minutes.
        let h = w.metrics().histogram("site.queue_wait").unwrap();
        assert_eq!(h.count(), 3);
        assert!((h.max() - 1200.0).abs() < 5.0, "max wait {}", h.max());
    }

    #[test]
    fn parallel_when_cpus_available() {
        let jobs = (0..4)
            .map(|_| JobSpec::simple(Duration::from_mins(10), "a"))
            .collect();
        let (w, _) = run_world(4, jobs, |l| l);
        // All four in parallel: makespan ~10 min.
        assert!(w.now() < SimTime::ZERO + Duration::from_mins(11));
    }

    #[test]
    fn wall_limit_kills_long_jobs() {
        let jobs = vec![
            JobSpec::simple(Duration::from_hours(10), "a"),
            JobSpec::simple(Duration::from_mins(5), "a"),
        ];
        let (w, sub) = run_world(2, jobs, |l| l.with_wall_limit(Duration::from_hours(1)));
        let evs = events_of(&w, sub, 0);
        assert!(
            evs.iter().any(|e| e.starts_with("WallTimeExceeded")),
            "{evs:?}"
        );
        let evs1 = events_of(&w, sub, 1);
        assert!(evs1.iter().any(|e| e.starts_with("Completed")), "{evs1:?}");
        // The kill happens at the 1-hour mark, not at 10 hours.
        assert!(w.now() < SimTime::ZERO + Duration::from_hours(2));
    }

    #[test]
    fn cancel_queued_job() {
        let mut w = World::new(Config::default().seed(4));
        let site = w.add_node("site");
        let subn = w.add_node("submit");
        let lrm = w.add_component(site, "lrm", Lrm::new("pbs", 1, Fifo));
        w.add_component(
            subn,
            "submitter",
            Submitter {
                lrm,
                jobs: vec![
                    JobSpec::simple(Duration::from_hours(5), "a"),
                    JobSpec::simple(Duration::from_hours(5), "a"),
                ],
                // Job 1 is still queued at t=1min; cancel it.
                cancel_after: Some((Duration::from_mins(1), 1)),
                events: BTreeMap::new(),
            },
        );
        w.run_until_quiescent();
        let evs = events_of(&w, subn, 1);
        assert!(evs.iter().any(|e| e.starts_with("Removed")), "{evs:?}");
        // Only job 0 completed.
        assert_eq!(w.metrics().counter("site.completed"), 1);
    }

    #[test]
    fn churn_vacates_and_requeues() {
        let mut w = World::new(Config::default().seed(11));
        let site = w.add_node("site");
        let subn = w.add_node("submit");
        // 4 CPUs with aggressive churn reclaiming 0..=4.
        let lrm = w.add_component(
            site,
            "lrm",
            Lrm::new("pool", 4, Fifo).with_churn(ChurnModel::steady(
                Dist::Exp { mean: 600.0 },
                Dist::Uniform { lo: 0.0, hi: 5.0 },
            )),
        );
        w.add_component(
            subn,
            "submitter",
            Submitter {
                lrm,
                jobs: (0..8)
                    .map(|_| JobSpec::simple(Duration::from_hours(1), "a"))
                    .collect(),
                cancel_after: None,
                events: BTreeMap::new(),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_days(3));
        // Despite vacations, every job eventually completes (requeue).
        assert_eq!(w.metrics().counter("site.completed"), 8);
        assert!(
            w.metrics().counter("site.vacated") > 0,
            "churn never vacated anything"
        );
    }

    #[test]
    fn status_and_info_queries() {
        struct Query {
            lrm: Addr,
        }
        impl Component for Query {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(
                    self.lrm,
                    LrmRequest::Submit {
                        client_job: 0,
                        spec: JobSpec::simple(Duration::from_hours(1), "a"),
                    },
                );
                ctx.set_timer(Duration::from_mins(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.send(self.lrm, LrmRequest::Status { local_id: 0 });
                ctx.send(self.lrm, LrmRequest::QueryInfo);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let node = ctx.node();
                if let Some(LrmReply::StatusIs { state, .. }) = msg.downcast_ref::<LrmReply>() {
                    ctx.store().put(node, "status", &format!("{state:?}"));
                } else if let Some(LrmReply::Info(info)) = msg.downcast_ref::<LrmReply>() {
                    ctx.store().put(
                        node,
                        "info",
                        &format!(
                            "total={} free={} queued={} running={}",
                            info.total_cpus, info.free_cpus, info.queued, info.running
                        ),
                    );
                }
            }
        }
        let mut w = World::new(Config::default().seed(4));
        let site = w.add_node("site");
        let subn = w.add_node("submit");
        let lrm = w.add_component(site, "lrm", Lrm::new("pbs", 4, Fifo));
        w.add_component(subn, "q", Query { lrm });
        w.run_until(SimTime::ZERO + Duration::from_mins(5));
        assert_eq!(
            w.store().get::<String>(subn, "status").unwrap(),
            "Some(Running)"
        );
        assert_eq!(
            w.store().get::<String>(subn, "info").unwrap(),
            "total=4 free=3 queued=0 running=1"
        );
    }
}

/// The scheduling pass against the algorithm it replaced: random
/// interleavings of submit / finish / cancel / vacate-with-requeue / status
/// must start the same jobs in the same order, leave the same queue and
/// answer every status poll the same as [`OldLrm`], a copy of the
/// rebuild-everything pass (owner clones, per-pass hash index, drain into
/// `Vec<Option<_>>` and collect back) kept here as the reference.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::policy::{EasyBackfill, FairShare, Fifo};
    use gridsim::{Config, World};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashMap};
    use std::rc::Rc;

    #[derive(Clone, Debug)]
    enum Op {
        Submit {
            cpus: u32,
            owner: u8,
            est_mins: u64,
        },
        /// Finish the k-th running job (by id, modulo how many run).
        Finish(usize),
        /// Cancel an id in `0..next_local + 2` (queued, running, gone or never issued).
        Cancel(u64),
        /// Owners reclaim this many processors: youngest jobs are vacated
        /// and requeued at the front.
        Reclaim(u32),
        Status(u64),
    }

    /// What one operation left behind, on either side.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        started: Vec<u64>,
        queue: Vec<u64>,
        running: Vec<u64>,
        status: Option<Option<LrmJobState>>,
    }

    /// A policy that answers like `inner`, then sometimes spoils the answer
    /// with repeated, stale or over-budget ids — which the LRM must shrug off.
    struct Sloppy {
        inner: Box<dyn SchedPolicy>,
        salt: u64,
        calls: u64,
    }

    impl SchedPolicy for Sloppy {
        fn select(
            &mut self,
            now: SimTime,
            queue: &[QueueView],
            running: &[RunningView],
            free: u32,
        ) -> Vec<u64> {
            let mut picks = self.inner.select(now, queue, running, free);
            self.calls += 1;
            let roll = (self.salt ^ self.calls).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            match roll % 6 {
                0 => picks.extend(picks.first().copied()),
                1 => picks.insert(0, u64::MAX - 7),
                2 => {
                    let widest = queue.iter().max_by_key(|v| (v.cpus, v.local_id));
                    picks.insert(0, widest.expect("select sees a non-empty queue").local_id);
                }
                3 => picks.reverse(),
                4 => picks.extend(queue.iter().map(|v| v.local_id)),
                _ => {}
            }
            picks
        }
        fn charge(&mut self, owner: &str, cpu_time: Duration) {
            self.inner.charge(owner, cpu_time);
        }
        fn name(&self) -> &'static str {
            "sloppy"
        }
    }

    fn policy(kind: u8, salt: u64) -> Sloppy {
        let inner: Box<dyn SchedPolicy> = match kind {
            0 => Box::new(Fifo),
            1 => Box::new(EasyBackfill),
            _ => Box::new(FairShare::default()),
        };
        Sloppy {
            inner,
            salt,
            calls: 0,
        }
    }

    fn spec(cpus: u32, owner: u8, est_mins: u64) -> JobSpec {
        // Runs far longer than any script: jobs end only when told to.
        JobSpec::simple(Duration::from_days(30), &format!("user{owner}"))
            .with_estimate(Duration::from_mins(est_mins))
            .with_cpus(cpus)
    }

    struct OldQueued {
        local_id: u64,
        spec: JobSpec,
        submitted: SimTime,
    }

    struct OldRunning {
        spec: JobSpec,
        started: SimTime,
        expected_end: SimTime,
    }

    /// The LRM's bookkeeping as it was, without the messaging.
    struct OldLrm {
        total_cpus: u32,
        reclaimed: u32,
        policy: Sloppy,
        queue: Vec<OldQueued>,
        running: BTreeMap<u64, OldRunning>,
        terminal: HashMap<u64, LrmJobState>,
        next_local: u64,
        started: Vec<u64>,
    }

    impl OldLrm {
        fn free_cpus(&self) -> u32 {
            let used: u32 = self.running.values().map(|r| r.spec.cpus).sum();
            self.total_cpus
                .saturating_sub(self.reclaimed)
                .saturating_sub(used)
        }

        fn schedule(&mut self, now: SimTime) {
            loop {
                let free = self.free_cpus();
                if free == 0 || self.queue.is_empty() {
                    break;
                }
                let queue_view: Vec<QueueView> = self
                    .queue
                    .iter()
                    .map(|j| QueueView {
                        local_id: j.local_id,
                        cpus: j.spec.cpus,
                        estimate: j.spec.estimate,
                        owner: j.spec.owner.clone(),
                        submitted: j.submitted,
                    })
                    .collect();
                let running_view: Vec<RunningView> = self
                    .running
                    .values()
                    .map(|r| RunningView {
                        cpus: r.spec.cpus,
                        expected_end: r.expected_end,
                    })
                    .collect();
                let picks = self.policy.select(now, &queue_view, &running_view, free);
                if picks.is_empty() {
                    break;
                }
                let mut index: HashMap<u64, usize> = HashMap::with_capacity(self.queue.len());
                for (pos, job) in self.queue.iter().enumerate() {
                    index.insert(job.local_id, pos);
                }
                let mut slots: Vec<Option<OldQueued>> = self.queue.drain(..).map(Some).collect();
                let mut started_any = false;
                let mut budget = free;
                for id in picks {
                    let Some(&pos) = index.get(&id) else {
                        continue;
                    };
                    let Some(job) = slots[pos].take_if(|j| j.spec.cpus <= budget) else {
                        continue;
                    };
                    budget -= job.spec.cpus;
                    started_any = true;
                    self.started.push(job.local_id);
                    self.running.insert(
                        job.local_id,
                        OldRunning {
                            expected_end: now + job.spec.estimate,
                            spec: job.spec,
                            started: now,
                        },
                    );
                }
                self.queue = slots.into_iter().flatten().collect();
                if !started_any {
                    break;
                }
            }
        }

        fn apply(&mut self, op: &Op, now: SimTime) -> Outcome {
            self.started.clear();
            let mut status = None;
            match *op {
                Op::Submit {
                    cpus,
                    owner,
                    est_mins,
                } => {
                    self.queue.push(OldQueued {
                        local_id: self.next_local,
                        spec: spec(cpus, owner, est_mins),
                        submitted: now,
                    });
                    self.next_local += 1;
                    self.schedule(now);
                }
                Op::Finish(k) => {
                    if let Some(&id) = self.running.keys().nth(k % self.running.len().max(1)) {
                        let run = self.running.remove(&id).expect("listed");
                        self.policy.charge(
                            &run.spec.owner,
                            (now - run.started) * u64::from(run.spec.cpus),
                        );
                        self.terminal.insert(id, LrmJobState::Completed);
                        self.schedule(now);
                    }
                }
                Op::Cancel(pick) => {
                    let id = pick % (self.next_local + 2);
                    if let Some(pos) = self.queue.iter().position(|j| j.local_id == id) {
                        self.queue.remove(pos);
                        self.terminal.insert(id, LrmJobState::Removed);
                    } else if self.running.remove(&id).is_some() {
                        self.terminal.insert(id, LrmJobState::Removed);
                        self.schedule(now);
                    }
                }
                Op::Reclaim(n) => {
                    self.reclaimed = n.min(self.total_cpus);
                    while self.running.values().map(|r| r.spec.cpus).sum::<u32>() + self.reclaimed
                        > self.total_cpus
                    {
                        let (&victim, _) = self
                            .running
                            .iter()
                            .max_by_key(|(id, r)| (r.started, **id))
                            .expect("over capacity means something runs");
                        let run = self.running.remove(&victim).expect("victim exists");
                        self.policy.charge(
                            &run.spec.owner,
                            (now - run.started) * u64::from(run.spec.cpus),
                        );
                        self.terminal.remove(&victim);
                        self.queue.insert(
                            0,
                            OldQueued {
                                local_id: victim,
                                spec: run.spec,
                                submitted: now,
                            },
                        );
                    }
                    self.schedule(now);
                }
                Op::Status(pick) => {
                    let id = pick % (self.next_local + 2);
                    status = Some(if self.running.contains_key(&id) {
                        Some(LrmJobState::Running)
                    } else if self.queue.iter().any(|j| j.local_id == id) {
                        Some(LrmJobState::Queued)
                    } else {
                        self.terminal.get(&id).copied()
                    });
                }
            }
            Outcome {
                started: self.started.clone(),
                queue: self.queue.iter().map(|j| j.local_id).collect(),
                running: self.running.keys().copied().collect(),
                status,
            }
        }
    }

    const STEP: u64 = u64::MAX - 1;

    /// Drives a real [`Lrm`] through the script, one operation a second.
    struct Driver {
        lrm: Lrm,
        ops: Vec<Op>,
        next: usize,
        outcomes: Rc<RefCell<Vec<Outcome>>>,
    }

    impl Driver {
        fn apply(&mut self, ctx: &mut Ctx<'_>, op: &Op) -> Outcome {
            let (me, now) = (ctx.self_addr(), ctx.now());
            let mut status = None;
            match *op {
                Op::Submit {
                    cpus,
                    owner,
                    est_mins,
                } => {
                    let req = LrmRequest::Submit {
                        client_job: 0,
                        spec: spec(cpus, owner, est_mins),
                    };
                    self.lrm.on_message(ctx, me, Box::new(req));
                }
                Op::Finish(k) => {
                    let mut ids: Vec<u64> = self.lrm.running.keys().copied().collect();
                    ids.sort_unstable();
                    if let Some(&id) = ids.get(k % ids.len().max(1)) {
                        self.lrm.finish_job(ctx, id);
                    }
                }
                Op::Cancel(pick) => {
                    let local_id = pick % (self.lrm.next_local + 2);
                    self.lrm
                        .on_message(ctx, me, Box::new(LrmRequest::Cancel { local_id }));
                }
                Op::Reclaim(n) => {
                    self.lrm.reclaimed = n.min(self.lrm.total_cpus);
                    self.lrm.vacate_over_capacity(ctx);
                    self.lrm.schedule(ctx);
                }
                Op::Status(pick) => {
                    status = Some(self.lrm.status_of(pick % (self.lrm.next_local + 2)));
                }
            }
            // Timer ids are handed out in order, so they give the order in
            // which this operation's starts happened.
            let mut started: Vec<(TimerId, u64)> = self
                .lrm
                .running
                .iter()
                .filter(|(_, r)| r.started == now)
                .map(|(id, r)| (r.timer, *id))
                .collect();
            started.sort_unstable();
            let mut running: Vec<u64> = self.lrm.running.keys().copied().collect();
            running.sort_unstable();
            assert_eq!(self.lrm.queue.len(), self.lrm.queued.len());
            assert_eq!(self.lrm.running_view.len(), running.len());
            Outcome {
                started: started.into_iter().map(|(_, id)| id).collect(),
                queue: self.lrm.queue.iter().map(|v| v.local_id).collect(),
                running,
                status,
            }
        }
    }

    impl Component for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_secs(1), STEP);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
            if tag != STEP || self.next == self.ops.len() {
                return;
            }
            let op = self.ops[self.next].clone();
            self.next += 1;
            let outcome = self.apply(ctx, &op);
            self.outcomes.borrow_mut().push(outcome);
            ctx.set_timer(Duration::from_secs(1), STEP);
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u32..=8, 0u8..4, 1u64..600).prop_map(|(cpus, owner, est_mins)| Op::Submit {
                cpus,
                owner,
                est_mins
            }),
            (1u32..=8, 0u8..4, 1u64..600).prop_map(|(cpus, owner, est_mins)| Op::Submit {
                cpus,
                owner,
                est_mins
            }),
            (0usize..64).prop_map(Op::Finish),
            (0u64..1000).prop_map(Op::Cancel),
            (0u32..=16).prop_map(Op::Reclaim),
            (0u64..1000).prop_map(Op::Status),
        ]
    }

    proptest! {
        #[test]
        fn schedule_matches_the_rebuild_everything_pass(
            ops in proptest::collection::vec(arb_op(), 1..80),
            total_cpus in 4u32..=16,
            owners in 2u8..=4,
            kind in 0u8..3,
            salt in any::<u64>(),
        ) {
            let ops: Vec<Op> = ops
                .into_iter()
                .map(|op| match op {
                    Op::Submit { cpus, owner, est_mins } => Op::Submit {
                        cpus,
                        owner: owner % owners,
                        est_mins,
                    },
                    other => other,
                })
                .collect();
            let mut old = OldLrm {
                total_cpus,
                reclaimed: 0,
                policy: policy(kind, salt),
                queue: Vec::new(),
                running: BTreeMap::new(),
                terminal: HashMap::new(),
                next_local: 0,
                started: Vec::new(),
            };
            let expected: Vec<Outcome> = ops
                .iter()
                .enumerate()
                .map(|(i, op)| old.apply(op, SimTime::ZERO + Duration::from_secs(i as u64 + 1)))
                .collect();

            let outcomes = Rc::new(RefCell::new(Vec::new()));
            let mut w = World::new(Config::default().seed(1));
            let node = w.add_node("site");
            w.add_component(
                node,
                "driver",
                Driver {
                    lrm: Lrm::new("pbs", total_cpus, policy(kind, salt)),
                    ops: ops.clone(),
                    next: 0,
                    outcomes: outcomes.clone(),
                },
            );
            w.run_until(SimTime::ZERO + Duration::from_secs(ops.len() as u64 + 2));
            let got = outcomes.borrow();
            for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(got, want, "after op {} of {:?}", i, ops);
            }
            prop_assert_eq!(got.len(), expected.len());
        }
    }
}
