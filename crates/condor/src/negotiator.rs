//! The Negotiator: the pool's matchmaker.
//!
//! On a fixed cycle it queries the collector for unclaimed machines and
//! registered submitters, asks each schedd for its idle jobs, and pairs
//! jobs with machines using the ClassAd symmetric match, ordering
//! candidates by the job's `Rank` (Raman et al.'s matchmaking framework,
//! the paper's \[25\]).
//!
//! With [`Negotiator::with_weather`], each cycle also publishes the
//! current grid weather onto glidein machine ads (`SiteSuccessRate`,
//! `SiteQueueWaitSecs`, `SiteCommitTimeoutRate`) so job `Requirements`
//! and `Rank` expressions can steer on site health, and machines at
//! quarantined sites sit the cycle out entirely — the matchmaking half of
//! the adaptive-brokering loop.

use crate::proto::{
    AdKind, CollectorAds, CollectorQuery, IdleJobs, MatchNotify, NegotiationRequest,
};
use classads::{half_match_expr, rank_expr, ClassAd, Expr, LiteralAttrs, RequirementsPrefilter};
use gridsim::obs::{grid_weather, HealthPolicy, SiteHealthTracker, SiteWeather};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::collections::HashMap;
use std::rc::Rc;

const TAG_CYCLE: u64 = 1;

/// A machine prepared for matchmaking: its `Requirements` pre-extracted and
/// its literal attributes indexed for job-side pre-filters. Built once per
/// ad and reused across cycles while the collector keeps serving the same
/// handle, which it does until the startd's state changes (a periodic
/// re-advertisement re-sends the handle; a new ad is a new handle, which
/// invalidates the cache entry via pointer identity).
struct MachineInfo {
    ad: Rc<ClassAd>,
    /// The machine's own `Requirements` (cloned out of the ad so the struct
    /// isn't self-referential).
    requirements: Option<Expr>,
    literals: LiteralAttrs,
}

impl MachineInfo {
    fn prepare(ad: Rc<ClassAd>) -> MachineInfo {
        #[cfg(test)]
        tests::PREPARES.with(|n| n.set(n.get() + 1));
        let requirements = ad.get("Requirements").cloned();
        let literals = LiteralAttrs::of(&ad);
        MachineInfo {
            ad,
            requirements,
            literals,
        }
    }
}

/// Where a cycle stands.
enum Phase {
    Idle,
    /// Waiting for the two collector answers.
    Collecting {
        machines: Option<Vec<(String, Addr, Rc<ClassAd>)>>,
        submitters: Option<Vec<(String, Addr, Rc<ClassAd>)>>,
    },
    /// Waiting for schedds' idle-job lists.
    Negotiating {
        machines: Vec<(String, Addr, Rc<ClassAd>)>,
        outstanding: usize,
        jobs: Vec<(Addr, crate::proto::JobId, Rc<ClassAd>)>,
    },
}

/// The negotiator component.
pub struct Negotiator {
    collector: Addr,
    period: Duration,
    cycle: u64,
    phase: Phase,
    /// Prepared machines from the previous cycle, keyed by name.
    machine_cache: HashMap<String, MachineInfo>,
    /// Weather-driven adaptation, if enabled (see
    /// [`Negotiator::with_weather`]).
    weather: Option<SiteHealthTracker>,
}

const REQ_MACHINES: u64 = 1;
const REQ_SUBMITTERS: u64 = 2;

impl Negotiator {
    /// A matchmaker for the pool rooted at `collector`, cycling every
    /// `period`.
    pub fn new(collector: Addr, period: Duration) -> Negotiator {
        Negotiator {
            collector,
            period,
            cycle: 0,
            phase: Phase::Idle,
            machine_cache: HashMap::new(),
            weather: None,
        }
    }

    /// Enable weather-driven adaptation: each cycle, glidein machine ads
    /// are annotated with their site's current weather, machines at
    /// quarantined sites are skipped, and health transitions are traced
    /// as `broker.*` events. Off by default — the vanilla negotiator's
    /// matches (and its trace) stay byte-identical.
    pub fn with_weather(mut self, policy: HealthPolicy) -> Negotiator {
        self.weather = Some(SiteHealthTracker::new(policy));
        self
    }

    /// The weather row for a machine, via its `GlideinSite` attribute.
    fn site_row<'a>(rows: &'a [SiteWeather], ad: &ClassAd) -> Option<&'a SiteWeather> {
        let site = ad.get_str("GlideinSite")?;
        rows.iter().find(|r| r.site == site)
    }

    /// Clone-and-annotate a machine ad with its site's weather so job
    /// `Requirements`/`Rank` expressions can evaluate against it.
    fn annotate(ad: &ClassAd, row: &SiteWeather) -> ClassAd {
        let mut out = ad.clone();
        if let Some(rate) = row.success_rate {
            out.set("SiteSuccessRate", rate);
        }
        if let Some(wait) = row.median_wait_secs {
            out.set("SiteQueueWaitSecs", wait);
        }
        if let Some(rate) = row.commit_timeout_rate {
            out.set("SiteCommitTimeoutRate", rate);
        }
        out
    }

    fn start_cycle(&mut self, ctx: &mut Ctx<'_>) {
        self.cycle += 1;
        ctx.metrics().incr("negotiator.cycles", 1);
        self.phase = Phase::Collecting {
            machines: None,
            submitters: None,
        };
        ctx.send(
            self.collector,
            CollectorQuery {
                request_id: REQ_MACHINES,
                kind: AdKind::Machine,
                constraint: "State == \"Unclaimed\"".into(),
            },
        );
        ctx.send(
            self.collector,
            CollectorQuery {
                request_id: REQ_SUBMITTERS,
                kind: AdKind::Submitter,
                constraint: "TRUE".into(),
            },
        );
        ctx.set_timer(self.period, TAG_CYCLE);
    }

    fn maybe_negotiate(&mut self, ctx: &mut Ctx<'_>) {
        let Phase::Collecting {
            machines,
            submitters,
        } = &mut self.phase
        else {
            return;
        };
        let (Some(_), Some(_)) = (machines.as_ref(), submitters.as_ref()) else {
            return;
        };
        let machines = machines.take().unwrap();
        let submitters = submitters.take().unwrap();
        if machines.is_empty() || submitters.is_empty() {
            self.phase = Phase::Idle;
            return;
        }
        let outstanding = submitters.len();
        for (_, schedd, _) in &submitters {
            ctx.send(*schedd, NegotiationRequest { cycle: self.cycle });
        }
        self.phase = Phase::Negotiating {
            machines,
            outstanding,
            jobs: Vec::new(),
        };
    }

    fn finish_cycle(&mut self, ctx: &mut Ctx<'_>) {
        let Phase::Negotiating { machines, jobs, .. } =
            std::mem::replace(&mut self.phase, Phase::Idle)
        else {
            return;
        };
        // Adaptive mode: refresh the site-health view before matching and
        // trace the transitions it decides on.
        let weather_rows = self.weather.as_mut().map(|tracker| {
            let rows = grid_weather(ctx.metrics());
            let now = ctx.now();
            for ev in tracker.observe(&rows, now) {
                ctx.metrics().incr("negotiator.health_transitions", 1);
                ctx.trace_with(ev.action.kind(), || {
                    format!("site={} reason={}", ev.site, ev.reason)
                });
            }
            rows
        });
        // Prepare machines, reusing last cycle's work whenever the
        // collector handed back the same ad (pointer identity on the shared
        // handle — a machine whose state changed advertises a fresh handle
        // and gets a fresh entry). Anything left in the cache afterwards
        // vanished from the pool, so it is dropped. Weather annotations
        // rewrite the ads, so adaptive cycles skip the cache and prepare
        // fresh.
        let mut free: Vec<(String, Addr, MachineInfo)> = machines
            .into_iter()
            .filter_map(|(name, startd, ad)| {
                let info = match (&weather_rows, &self.weather) {
                    (Some(rows), Some(tracker)) => {
                        if let Some(row) = Negotiator::site_row(rows, &ad) {
                            if tracker.is_quarantined(&row.site) {
                                ctx.trace_with("negotiator.skip_quarantined", || {
                                    format!("{name} site={}", row.site)
                                });
                                return None;
                            }
                            MachineInfo::prepare(Rc::new(Negotiator::annotate(&ad, row)))
                        } else {
                            MachineInfo::prepare(ad)
                        }
                    }
                    _ => match self.machine_cache.remove(&name) {
                        Some(info) if Rc::ptr_eq(&info.ad, &ad) => info,
                        _ => MachineInfo::prepare(ad),
                    },
                };
                Some((name, startd, info))
            })
            .collect();
        self.machine_cache.clear();
        // Greedy: jobs in arrival order, each taking its best-ranked
        // compatible machine.
        let mut matched = 0u64;
        for (schedd, job, job_ad) in jobs {
            // Pull the job's Requirements and Rank once, not per machine,
            // and compile the Requirements into a literal pre-filter.
            let req = job_ad.get("Requirements");
            let rank = job_ad.get("Rank");
            let prefilter = RequirementsPrefilter::for_requirements(req, &job_ad);
            let mut best: Option<(usize, f64)> = None;
            for (i, (_, _, m)) in free.iter().enumerate() {
                // The pre-filter only rejects machines whose full evaluation
                // could not return true, so the match outcome (and therefore
                // the trace) is exactly the unfiltered one.
                if prefilter.rejects(&m.literals) {
                    continue;
                }
                if half_match_expr(req, &job_ad, &m.ad)
                    && half_match_expr(m.requirements.as_ref(), &m.ad, &job_ad)
                {
                    let r = rank_expr(rank, &job_ad, &m.ad);
                    if best.is_none_or(|(_, br)| r > br) {
                        best = Some((i, r));
                    }
                }
            }
            if let Some((i, _)) = best {
                let (name, startd, info) = free.remove(i);
                matched += 1;
                ctx.trace_with("negotiator.match", || format!("{job} -> {name}"));
                ctx.send(
                    schedd,
                    MatchNotify {
                        job,
                        startd,
                        machine_ad: info.ad,
                    },
                );
            }
        }
        // Unmatched machines carry their prepared state into the next cycle.
        for (name, _, info) in free {
            self.machine_cache.insert(name, info);
        }
        ctx.metrics().incr("negotiator.matches", matched);
    }
}

impl Component for Negotiator {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start_cycle(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_CYCLE {
            // If the previous cycle is still mid-negotiation (a schedd
            // never answered — crashed or partitioned), close it out first.
            if matches!(self.phase, Phase::Negotiating { .. }) {
                self.finish_cycle(ctx);
            }
            self.start_cycle(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if msg.is::<CollectorAds>() {
            let ads = msg.downcast::<CollectorAds>().expect("checked");
            if let Phase::Collecting {
                machines,
                submitters,
            } = &mut self.phase
            {
                match ads.request_id {
                    REQ_MACHINES => *machines = Some(ads.ads),
                    REQ_SUBMITTERS => *submitters = Some(ads.ads),
                    _ => {}
                }
                self.maybe_negotiate(ctx);
            }
            return;
        }
        if let Ok(idle) = msg.downcast::<IdleJobs>() {
            if idle.cycle != self.cycle {
                return; // stale answer from a previous cycle
            }
            if let Phase::Negotiating {
                outstanding, jobs, ..
            } = &mut self.phase
            {
                for (id, ad) in idle.jobs {
                    jobs.push((from, id, ad));
                }
                *outstanding -= 1;
                if *outstanding == 0 {
                    self.finish_cycle(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::proto::PoolSubmit;
    use crate::schedd::Schedd;
    use crate::startd::Startd;
    use gridsim::{Config, World};
    use std::cell::Cell;

    thread_local! {
        /// `MachineInfo::prepare` calls made on this thread.
        pub(super) static PREPARES: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn unchanged_machine_is_prepared_once_per_state_change() {
        PREPARES.with(|n| n.set(0));
        let mut w = World::new(Config::default().seed(7));
        let central = w.add_node("central");
        let collector = w.add_component(central, "collector", Collector::new());
        w.add_component(
            central,
            "negotiator",
            Negotiator::new(collector, Duration::from_mins(1)),
        );
        let exec = w.add_node("exec0");
        let machine = ClassAd::new().with("Arch", "INTEL");
        w.add_component(exec, "startd", Startd::new("exec0", machine, collector));
        let submit = w.add_node("submit");
        let schedd = w.add_component(submit, "schedd", Schedd::new("schedd1", vec![collector]));

        // Twenty cycles over ten re-advertisements of one unclaimed machine.
        w.run_until(SimTime::ZERO + Duration::from_mins(20));
        assert!(w.metrics().counter("negotiator.cycles") >= 20);
        assert!(w.metrics().counter("collector.advertisements") >= 10);
        assert_eq!(PREPARES.with(Cell::get), 1);

        // Unclaimed -> Claimed -> Busy -> Claimed -> Unclaimed. The match
        // consumes the cached entry; the machine's return is a new ad and
        // one more `prepare`. (A cycle that falls between the match and the
        // startd's next advertisement still sees the old Unclaimed ad and
        // prepares it again, so the round trip costs one or two.)
        w.post(
            schedd,
            PoolSubmit {
                client_id: 0,
                ad: ClassAd::new().with("TotalWork", 600i64),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_mins(60));
        assert_eq!(w.metrics().counter("negotiator.matches"), 1);
        assert_eq!(w.metrics().counter("schedd.completed"), 1);
        let after_round_trip = PREPARES.with(Cell::get);
        assert!((2..=3).contains(&after_round_trip), "{after_round_trip}");

        // Back to steady state: twenty more cycles, no more work.
        w.run_until(SimTime::ZERO + Duration::from_mins(80));
        assert_eq!(PREPARES.with(Cell::get), after_round_trip);
    }
}
