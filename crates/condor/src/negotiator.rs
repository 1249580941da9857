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
//!
//! Every pair is decided by the one ClassAd evaluator. A cycle takes the
//! collector's shared ad handles as they come (annotated first in weather
//! mode), looks each free machine's `Requirements` up once and each job's
//! `Requirements` and `Rank` once, and evaluates every remaining pair in
//! full; nothing is cached from one cycle to the next.

use crate::proto::{
    AdKind, CollectorAds, CollectorQuery, IdleJobs, MatchNotify, NegotiationRequest,
};
use classads::{half_match_expr, rank_expr, ClassAd};
use gridsim::obs::{site_weather, SiteHealthTracker, SiteWeather};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::rc::Rc;

const TAG_CYCLE: u64 = 1;
/// The negotiation cycle: one round of matchmaking a minute.
const CYCLE: Duration = Duration::from_mins(1);

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
    cycle: u64,
    phase: Phase,
    /// Weather-driven adaptation, if enabled (see
    /// [`Negotiator::with_weather`]).
    weather: Option<SiteHealthTracker>,
}

const REQ_MACHINES: u64 = 1;
const REQ_SUBMITTERS: u64 = 2;

impl Negotiator {
    /// A matchmaker for the pool rooted at `collector`, cycling every
    /// minute.
    pub fn new(collector: Addr) -> Negotiator {
        Negotiator {
            collector,
            cycle: 0,
            phase: Phase::Idle,
            weather: None,
        }
    }

    /// Enable weather-driven adaptation: each cycle, glidein machine ads
    /// are annotated with their site's current weather, machines at
    /// quarantined sites are skipped, and health transitions are traced
    /// as `broker.*` events. Off by default — the vanilla negotiator's
    /// matches (and its trace) stay byte-identical.
    pub fn with_weather(mut self) -> Negotiator {
        self.weather = Some(SiteHealthTracker::new());
        self
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
        ctx.set_timer(CYCLE, TAG_CYCLE);
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
        if let Some(tracker) = self.weather.as_mut() {
            let now = ctx.now();
            for ev in tracker.observe(ctx.metrics(), now) {
                ctx.metrics().incr("negotiator.health_transitions", 1);
                ctx.trace_with(ev.action.kind(), || {
                    format!("site={} reason={}", ev.site, ev.reason)
                });
            }
        }
        // The collector's handles as they come. In adaptive mode a glidein's
        // ad is first annotated with its site's weather, or sits the cycle
        // out while that site is quarantined.
        let machines: Vec<(String, Addr, Rc<ClassAd>)> = machines
            .into_iter()
            .filter_map(|(name, startd, ad)| {
                let Some(tracker) = &self.weather else {
                    return Some((name, startd, ad));
                };
                let ad = match ad.get_str("GlideinSite") {
                    Some(site) if tracker.is_quarantined(&site) => {
                        ctx.trace_with("negotiator.skip_quarantined", || {
                            format!("{name} site={site}")
                        });
                        return None;
                    }
                    Some(site) => {
                        let handles = ctx.metrics().site(&site);
                        let row = site_weather(ctx.metrics(), &site, &handles);
                        Rc::new(Negotiator::annotate(&ad, &row))
                    }
                    None => ad,
                };
                Some((name, startd, ad))
            })
            .collect();
        // Each free machine's own Requirements, looked up once per cycle.
        let mut free: Vec<_> = machines
            .iter()
            .map(|(name, startd, ad)| (name, *startd, ad, ad.get("Requirements")))
            .collect();
        // Greedy: jobs in arrival order, each taking its best-ranked
        // compatible machine.
        let mut matched = 0u64;
        for (schedd, job, job_ad) in jobs {
            // Pull the job's Requirements and Rank once, not per machine.
            let req = job_ad.get("Requirements");
            let rank = job_ad.get("Rank");
            let mut best: Option<(usize, f64)> = None;
            for (i, (_, _, ad, machine_req)) in free.iter().enumerate() {
                if half_match_expr(req, &job_ad, ad) && half_match_expr(*machine_req, ad, &job_ad) {
                    let r = rank_expr(rank, &job_ad, ad);
                    if best.is_none_or(|(_, br)| r > br) {
                        best = Some((i, r));
                    }
                }
            }
            if let Some((i, _)) = best {
                let (name, startd, ad, _) = free.remove(i);
                matched += 1;
                ctx.trace_with("negotiator.match", || format!("{job} -> {name}"));
                ctx.send(
                    schedd,
                    MatchNotify {
                        job,
                        startd,
                        machine_ad: Rc::clone(ad),
                    },
                );
            }
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

    /// Six unclaimed startds of which two can run the job, two identical
    /// jobs, one hour; returns the `negotiator.match` details in order.
    fn mixed_pool_matches(weather: bool) -> Vec<String> {
        let mut w = World::new(Config::default().seed(7).with_trace());
        let central = w.add_node("central");
        let collector = w.add_component(central, "collector", Collector::new());
        let mut negotiator = Negotiator::new(collector);
        if weather {
            negotiator = negotiator.with_weather();
        }
        w.add_component(central, "negotiator", negotiator);
        let intel = || ClassAd::new().with("Arch", "INTEL");
        let machines = [
            (
                "sparc",
                ClassAd::new().with("Arch", "SPARC").with("Memory", 512i64),
            ),
            ("no_memory", intel()),
            ("small", intel().with("Memory", 32i64)),
            (
                "computed",
                intel()
                    .with("Base", 32i64)
                    .with_parsed("Memory", "Base * 4"),
            ),
            ("medium", intel().with("Memory", 96i64)),
            (
                "picky",
                intel()
                    .with("Memory", 1024i64)
                    .with_parsed("Requirements", "TARGET.Owner == \"root\""),
            ),
        ];
        for (name, ad) in machines {
            let node = w.add_node(name);
            w.add_component(node, "startd", Startd::new(name, ad, collector));
        }
        let submit = w.add_node("submit");
        let schedd = w.add_component(submit, "schedd", Schedd::new("schedd1", vec![collector]));
        for client_id in 0..2 {
            let ad = ClassAd::new()
                .with("TotalWork", 600i64)
                .with("Owner", "jane")
                .with_parsed(
                    "Requirements",
                    "TARGET.Arch == \"INTEL\" && TARGET.Memory >= 64",
                )
                .with_parsed("Rank", "TARGET.Memory");
            w.post(schedd, PoolSubmit { client_id, ad });
        }
        w.run_until(SimTime::ZERO + Duration::from_mins(60));
        assert_eq!(w.metrics().counter("negotiator.matches"), 2);
        assert_eq!(w.metrics().counter("schedd.completed"), 2);
        w.trace()
            .events()
            .iter()
            .filter(|e| e.kind == "negotiator.match")
            .map(|e| e.detail.clone())
            .collect()
    }

    #[test]
    fn mixed_pool_gives_each_job_its_best_compatible_machine() {
        // The SPARC machine, the one with no Memory, the 32 MB one and the
        // large one whose own Requirements refuse the job never match; the
        // computed Memory (128) outranks 96. Weather cycles, which annotate
        // and filter the collector's ads, pick the same machines.
        let expected = ["job0 -> computed", "job1 -> medium"];
        assert_eq!(mixed_pool_matches(false), expected);
        assert_eq!(mixed_pool_matches(true), expected);
    }
}
