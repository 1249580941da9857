//! The Schedd: the persistent job queue.
//!
//! "To protect against local failure, all relevant state for each submitted
//! job is stored persistently in the scheduler's job queue" (paper §4.2).
//! The schedd owns pool jobs end to end: it advertises itself to one *or
//! more* collectors (more than one = Condor flocking, the §7 baseline),
//! hands idle jobs to negotiators, spawns a [`crate::Shadow`] per match,
//! and folds shadow reports back into the queue — including vacated jobs,
//! which return to Idle carrying their checkpointed progress so migration
//! never loses completed work.

use crate::proto::{
    AdKind, Advertise, IdleJobs, JobId, MatchNotify, NegotiationRequest, PoolJobEvent,
    PoolJobState, PoolRemove, PoolSubmit, PoolSubmitted, ShadowReport,
};
use crate::shadow::Shadow;
use crate::startd::{AD_LIFETIME, UPDATE_INTERVAL};
use classads::ClassAd;
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::collections::BTreeMap;
use std::rc::Rc;

const TAG_ADVERTISE: u64 = 1;

struct JobRec {
    /// Shared: negotiation snapshots and shadows hold handles to the same
    /// ad rather than deep copies (ads are immutable once queued).
    ad: Rc<ClassAd>,
    /// `ad` unparsed, as it persists: written once when the job is queued
    /// and re-used by every later persist.
    ad_text: String,
    state: PoolJobState,
    done_work: Duration,
    submitter: Addr,
    attempts: u32,
}

impl JobRec {
    fn queued(ad: ClassAd, submitter: Addr) -> JobRec {
        JobRec {
            ad_text: ad.to_string(),
            ad: Rc::new(ad),
            state: PoolJobState::Idle,
            done_work: Duration::ZERO,
            submitter,
            attempts: 0,
        }
    }

    /// What [`Schedd::persist_job`] writes: [`JobRecDisk`]'s fields in
    /// order, borrowed (the codec is positional, so the bytes are those of
    /// the owned struct).
    fn disk_view(&self, job: JobId) -> (u64, &str, PoolJobState, u64, Addr, u32) {
        (
            job.0,
            &self.ad_text,
            self.state,
            self.done_work.micros(),
            self.submitter,
            self.attempts,
        )
    }
}

/// Stored form of a queue entry (ClassAds persist as their text form).
struct JobRecDisk {
    id: u64,
    ad: String,
    state: PoolJobState,
    done_work_us: u64,
    submitter: Addr,
    attempts: u32,
}

gridsim::codec! { struct JobRecDisk { id, ad, state, done_work_us, submitter, attempts } }

/// The schedd component.
pub struct Schedd {
    name: String,
    collectors: Vec<Addr>,
    jobs: BTreeMap<JobId, JobRec>,
    next_id: u64,
    /// Jobs vacated more than this many times go on Hold.
    max_attempts: u32,
}

impl Schedd {
    /// A schedd advertising to the given collectors (several = flocking).
    pub fn new(name: &str, collectors: Vec<Addr>) -> Schedd {
        Schedd {
            name: name.to_string(),
            collectors,
            jobs: BTreeMap::new(),
            next_id: 0,
            max_attempts: 50,
        }
    }

    /// Rebuild a schedd from its persistent queue after a crash. Jobs that
    /// were Running return to Idle (their shadows died with the machine)
    /// but keep their checkpointed progress. Terminal jobs stay on disk as
    /// history and are not reloaded into the live queue.
    pub fn recover(
        name: &str,
        collectors: Vec<Addr>,
        store: &gridsim::store::StableStore,
        node: NodeId,
    ) -> Schedd {
        let mut schedd = Schedd::new(name, collectors);
        let prefix = schedd.job_key_prefix();
        for key in store.keys_with_prefix(node, &prefix) {
            let Some(rec) = store.get::<JobRecDisk>(node, &key) else {
                continue;
            };
            schedd.next_id = schedd.next_id.max(rec.id + 1);
            let state = match rec.state {
                PoolJobState::Running => PoolJobState::Idle,
                s => s,
            };
            if matches!(state, PoolJobState::Completed | PoolJobState::Removed) {
                continue;
            }
            schedd.jobs.insert(
                JobId(rec.id),
                JobRec {
                    ad: Rc::new(rec.ad.parse().expect("persisted ad re-parses")),
                    ad_text: rec.ad,
                    state,
                    done_work: Duration::from_micros(rec.done_work_us),
                    submitter: rec.submitter,
                    attempts: rec.attempts,
                },
            );
        }
        schedd
    }

    fn job_key_prefix(&self) -> String {
        format!("schedd/{}/job/", self.name)
    }

    /// Persist one job (per-key writes keep persistence O(1) per event —
    /// a whole-queue rewrite would be quadratic over a long campaign).
    fn persist_job(&self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(r) = self.jobs.get(&job) else { return };
        let key = format!("{}{}", self.job_key_prefix(), job.0);
        let node = ctx.node();
        ctx.store().put(node, &key, &r.disk_view(job));
    }

    /// Drop a terminal job from the live queue (its last persisted record
    /// remains as history).
    fn retire_job(&mut self, job: JobId) {
        self.jobs.remove(&job);
    }

    fn notify(&self, ctx: &mut Ctx<'_>, job: JobId) {
        let rec = &self.jobs[&job];
        ctx.send(
            rec.submitter,
            PoolJobEvent {
                job,
                state: rec.state,
                at: ctx.now(),
            },
        );
    }

    fn advertise(&self, ctx: &mut Ctx<'_>) {
        let idle = self
            .jobs
            .values()
            .filter(|r| r.state == PoolJobState::Idle)
            .count() as i64;
        let running = self
            .jobs
            .values()
            .filter(|r| r.state == PoolJobState::Running)
            .count() as i64;
        // One handle for every collector flocked to.
        let ad = Rc::new(
            ClassAd::new()
                .with("Name", self.name.as_str())
                .with("IdleJobs", idle)
                .with("RunningJobs", running),
        );
        let me = ctx.self_addr();
        for &collector in &self.collectors {
            ctx.send(
                collector,
                Advertise {
                    kind: AdKind::Submitter,
                    name: self.name.clone(),
                    ad: Rc::clone(&ad),
                    ttl: AD_LIFETIME,
                    contact: me,
                },
            );
        }
    }
}

impl Component for Schedd {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.advertise(ctx);
        ctx.set_timer(UPDATE_INTERVAL, TAG_ADVERTISE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_ADVERTISE {
            self.advertise(ctx);
            ctx.set_timer(UPDATE_INTERVAL, TAG_ADVERTISE);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(submit) = msg.downcast_ref::<PoolSubmit>() {
            let job = JobId(self.next_id);
            self.next_id += 1;
            ctx.metrics().incr("schedd.submitted", 1);
            self.jobs
                .insert(job, JobRec::queued(submit.ad.clone(), from));
            self.persist_job(ctx, job);
            ctx.send(
                from,
                PoolSubmitted {
                    client_id: submit.client_id,
                    job,
                },
            );
            self.notify(ctx, job);
            return;
        }
        if let Some(req) = msg.downcast_ref::<NegotiationRequest>() {
            let jobs: Vec<(JobId, Rc<ClassAd>)> = self
                .jobs
                .iter()
                .filter(|(_, r)| r.state == PoolJobState::Idle)
                .map(|(id, r)| (*id, Rc::clone(&r.ad)))
                .collect();
            ctx.send(
                from,
                IdleJobs {
                    cycle: req.cycle,
                    jobs,
                },
            );
            return;
        }
        if let Some(m) = msg.downcast_ref::<MatchNotify>() {
            let name = self.name.clone();
            let me = ctx.self_addr();
            let Some(rec) = self.jobs.get_mut(&m.job) else {
                return;
            };
            if rec.state != PoolJobState::Idle {
                return; // raced with another pool's negotiator (flocking)
            }
            // Running to the negotiator from here on; to the submitter,
            // and toward `max_attempts`, only once the claim activates.
            rec.state = PoolJobState::Running;
            let shadow = Shadow::new(
                me,
                &name,
                m.job,
                Rc::clone(&rec.ad),
                rec.done_work,
                m.startd,
            );
            let node = ctx.node();
            ctx.spawn(node, &format!("shadow-{}", m.job), shadow);
            ctx.metrics().incr("schedd.matches", 1);
            return;
        }
        if let Some(report) = msg.downcast_ref::<ShadowReport>() {
            match report {
                ShadowReport::Activated { job } => {
                    if let Some(rec) = self.jobs.get_mut(job) {
                        rec.attempts += 1;
                        self.persist_job(ctx, *job);
                        self.notify(ctx, *job);
                    }
                }
                ShadowReport::Done { job, ok, cpu_time } => {
                    if let Some(rec) = self.jobs.get_mut(job) {
                        rec.state = if *ok {
                            PoolJobState::Completed
                        } else {
                            PoolJobState::Held
                        };
                        rec.done_work = rec.done_work.max(*cpu_time);
                        ctx.metrics().incr("schedd.completed", 1);
                        ctx.metrics()
                            .observe("schedd.cpu_seconds", cpu_time.as_secs_f64());
                        self.persist_job(ctx, *job);
                        self.notify(ctx, *job);
                        if self.jobs[job].state == PoolJobState::Completed {
                            self.retire_job(*job);
                        }
                    }
                }
                ShadowReport::Vacated { job, done_work } => {
                    if let Some(rec) = self.jobs.get_mut(job) {
                        ctx.metrics().incr("schedd.vacated", 1);
                        rec.done_work = (*done_work).max(rec.done_work);
                        rec.state = if rec.attempts >= self.max_attempts {
                            PoolJobState::Held
                        } else {
                            PoolJobState::Idle
                        };
                        self.persist_job(ctx, *job);
                        self.notify(ctx, *job);
                    }
                }
                ShadowReport::MatchFailed { job } => {
                    // Nothing was persisted or announced at the match.
                    if let Some(rec) = self.jobs.get_mut(job) {
                        if rec.state == PoolJobState::Running {
                            rec.state = PoolJobState::Idle;
                        }
                    }
                }
            }
            return;
        }
        if let Some(rm) = msg.downcast_ref::<PoolRemove>() {
            if let Some(rec) = self.jobs.get_mut(&rm.job) {
                // A running job's shadow will eventually report; the
                // Removed state wins either way.
                rec.state = PoolJobState::Removed;
                self.persist_job(ctx, rm.job);
                self.notify(ctx, rm.job);
                self.retire_job(rm.job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::negotiator::Negotiator;
    use crate::startd::{OwnerModel, Startd};
    use gridsim::rng::Dist;
    use gridsim::{Config, World};
    use std::collections::BTreeMap as Map;

    /// Submits N pool jobs and records their event streams.
    struct User {
        schedd: Addr,
        jobs: Vec<ClassAd>,
        events: Map<u64, Vec<String>>,
        ids: Map<u64, u64>, // JobId -> client id
    }

    impl Component for User {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, ad) in self.jobs.drain(..).enumerate() {
                ctx.send(
                    self.schedd,
                    PoolSubmit {
                        client_id: i as u64,
                        ad,
                    },
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(sub) = msg.downcast_ref::<PoolSubmitted>() {
                self.ids.insert(sub.job.0, sub.client_id);
            } else if let Some(ev) = msg.downcast_ref::<PoolJobEvent>() {
                let client = self.ids.get(&ev.job.0).copied().unwrap_or(u64::MAX);
                self.events
                    .entry(client)
                    .or_default()
                    .push(format!("{:?}", ev.state));
                let node = ctx.node();
                let flat: Vec<(u64, Vec<String>)> =
                    self.events.iter().map(|(k, v)| (*k, v.clone())).collect();
                ctx.store().put(node, "pool_events", &flat);
            }
        }
    }

    fn job_ad(work_secs: u64) -> ClassAd {
        ClassAd::new()
            .with("TotalWork", work_secs as i64)
            .with("Owner", "jane")
            .with_parsed("Requirements", "TARGET.Arch == \"INTEL\"")
    }

    fn machine_ad() -> ClassAd {
        ClassAd::new().with("Arch", "INTEL").with("Memory", 256i64)
    }

    fn pool(w: &mut World, machines: u32, owner_model: Option<OwnerModel>) -> (Addr, Addr) {
        let central = w.add_node("central");
        let collector = w.add_component(central, "collector", Collector::new());
        let negotiator = w.add_component(central, "negotiator", Negotiator::new(collector));
        for i in 0..machines {
            let n = w.add_node(&format!("exec{i}"));
            let mut startd = Startd::new(&format!("exec{i}"), machine_ad(), collector);
            if let Some(m) = &owner_model {
                startd = startd
                    .with_owner_model(m.clone())
                    .with_ckpt_interval(Some(Duration::from_mins(5)));
            }
            w.add_component(n, "startd", startd);
        }
        (collector, negotiator)
    }

    fn events_for(w: &World, node: NodeId, client: u64) -> Vec<String> {
        let flat: Vec<(u64, Vec<String>)> = w.store().get(node, "pool_events").unwrap_or_default();
        flat.into_iter()
            .find(|(k, _)| *k == client)
            .map(|(_, v)| v)
            .unwrap_or_default()
    }

    #[test]
    fn borrowed_disk_view_encodes_as_job_rec_disk() {
        use gridsim::codec::to_bytes;
        let submitter = Addr {
            node: NodeId(3),
            comp: CompId(9),
        };
        let mut rec = JobRec::queued(job_ad(1800), submitter);
        rec.state = PoolJobState::Running;
        rec.done_work = Duration::from_secs(77);
        rec.attempts = 2;
        let owned = JobRecDisk {
            id: 5,
            ad: rec.ad.to_string(),
            state: rec.state,
            done_work_us: rec.done_work.micros(),
            submitter,
            attempts: rec.attempts,
        };
        assert_eq!(to_bytes(&rec.disk_view(JobId(5))), to_bytes(&owned));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The schedd's queue entry and its borrowed view, byte for byte in
    /// the varint layout.
    #[test]
    fn job_rec_disk_bytes_are_pinned() {
        use gridsim::codec::{from_bytes, to_bytes};
        let submitter = Addr {
            node: NodeId(3),
            comp: CompId(9),
        };
        let mut rec = JobRec::queued(job_ad(1800), submitter);
        rec.state = PoolJobState::Held;
        rec.done_work = Duration::from_secs(77);
        rec.attempts = 2;
        let owned = JobRecDisk {
            id: 5,
            ad: rec.ad_text.clone(),
            state: rec.state,
            done_work_us: rec.done_work.micros(),
            submitter,
            attempts: rec.attempts,
        };
        let pinned = "05585b0a20202020546f74616c576f726b203d20313830303b0a202020204f776e6572203d20226a616e65223b0a20202020526571756972656d656e7473203d205441524745542e41726368203d3d2022494e54454c223b0a5d04c0dadb24030902";
        assert_eq!(hex(&to_bytes(&owned)), pinned);
        assert_eq!(hex(&to_bytes(&rec.disk_view(JobId(5)))), pinned);
        let back = from_bytes::<JobRecDisk>(&to_bytes(&owned)).unwrap();
        assert_eq!(
            (
                back.id,
                back.ad,
                back.state,
                back.done_work_us,
                back.submitter,
                back.attempts
            ),
            (5, rec.ad_text, PoolJobState::Held, 77_000_000, submitter, 2)
        );
    }

    #[test]
    fn pool_runs_jobs_to_completion() {
        let mut w = World::new(Config::default().seed(21));
        let (collector, _) = pool(&mut w, 3, None);
        let ns = w.add_node("submit");
        let schedd = w.add_component(ns, "schedd", Schedd::new("schedd1", vec![collector]));
        w.add_component(
            ns,
            "user",
            User {
                schedd,
                jobs: (0..6).map(|_| job_ad(1800)).collect(),
                events: Map::new(),
                ids: Map::new(),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_hours(6));
        for c in 0..6 {
            let evs = events_for(&w, ns, c);
            assert_eq!(
                evs.last().map(String::as_str),
                Some("Completed"),
                "job {c}: {evs:?}"
            );
        }
        assert_eq!(w.metrics().counter("schedd.completed"), 6);
        // 6 jobs × 30 min on 3 machines ≥ 1 hour; matches took ≥2 cycles.
        assert!(w.metrics().counter("negotiator.matches") >= 6);
    }

    /// A pool with a node `exec0` for its one startd, which the caller
    /// adds, and one user submitting `jobs`: `(exec0, collector, submit)`.
    fn one_machine_pool(w: &mut World, jobs: Vec<ClassAd>) -> (NodeId, Addr, NodeId) {
        let (collector, _) = pool(w, 0, None);
        let exec = w.add_node("exec0");
        let ns = w.add_node("submit");
        let schedd = w.add_component(ns, "schedd", Schedd::new("schedd1", vec![collector]));
        w.add_component(
            ns,
            "user",
            User {
                schedd,
                jobs,
                events: Map::new(),
                ids: Map::new(),
            },
        );
        (exec, collector, ns)
    }

    #[test]
    fn a_job_is_running_to_its_submitter_only_once_a_claim_activates() {
        // The startd advertises at boot and dies without an Invalidate
        // before any claim can reach it (a claim arrives six WAN hops of
        // at least 20 ms after a cycle opens): its ad lingers, the
        // negotiator matches the job to it, and each such claim times out.
        // Only the live startd added at 30 minutes activates the job.
        let mut w = World::new(Config::default().seed(26));
        let (exec, collector, ns) = one_machine_pool(&mut w, vec![job_ad(600)]);
        let dead = w.add_component(
            exec,
            "startd",
            Startd::new("exec0", machine_ad(), collector),
        );
        w.run_until(SimTime::ZERO + Duration::from_millis(50));
        w.kill_component_now(dead);
        w.run_until(SimTime::ZERO + Duration::from_mins(30));
        assert!(w.metrics().counter("shadow.claim_timeouts") >= 1);
        assert_eq!(events_for(&w, ns, 0), ["Idle"]);
        w.add_component(
            exec,
            "startd2",
            Startd::new("exec0", machine_ad(), collector),
        );
        w.run_until(SimTime::ZERO + Duration::from_hours(2));
        assert_eq!(events_for(&w, ns, 0), ["Idle", "Running", "Completed"]);
    }

    #[test]
    fn a_released_machine_is_matched_again_without_a_rejected_claim() {
        // Two 10-minute jobs on one machine. The first claim takes the
        // machine out of the negotiator's view at once, so the second job
        // is never matched to it while it is busy, and is matched within a
        // cycle of the release: the release (two hops after the job ends),
        // the advert (one), then at most one cycle and its four hops.
        let mut w = World::new(Config::default().seed(27).with_trace());
        let (exec, collector, _) = one_machine_pool(&mut w, vec![job_ad(600), job_ad(600)]);
        w.add_component(
            exec,
            "startd",
            Startd::new("exec0", machine_ad(), collector),
        );
        w.run_until(SimTime::ZERO + Duration::from_hours(2));
        assert_eq!(w.metrics().counter("schedd.completed"), 2);
        assert_eq!(w.metrics().counter("condor.claims_rejected"), 0);
        let first_done = w.trace().of_kind("startd.done").next().expect("done").time;
        let matches: Vec<_> = w
            .trace()
            .of_kind("negotiator.match")
            .map(|e| e.time)
            .collect();
        assert_eq!(matches.len(), 2);
        let wan_hop = Duration::from_millis(40);
        assert!(matches[1] > first_done);
        assert!(
            matches[1] - first_done <= Duration::from_mins(1) + wan_hop * 7,
            "second match {:?} after the first job ended",
            matches[1] - first_done
        );
    }

    #[test]
    fn preemption_checkpoints_and_migrates() {
        let mut w = World::new(Config::default().seed(22));
        // Owners come back often; 4-hour jobs must survive via checkpoints.
        let (collector, _) = pool(
            &mut w,
            4,
            Some(OwnerModel {
                available_for: Dist::Exp { mean: 3600.0 },
                occupied_for: Dist::Exp { mean: 1800.0 },
            }),
        );
        let ns = w.add_node("submit");
        let schedd = w.add_component(ns, "schedd", Schedd::new("schedd1", vec![collector]));
        w.add_component(
            ns,
            "user",
            User {
                schedd,
                jobs: (0..4).map(|_| job_ad(4 * 3600)).collect(),
                events: Map::new(),
                ids: Map::new(),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_days(10));
        assert_eq!(
            w.metrics().counter("schedd.completed"),
            4,
            "jobs: vacated={} checkpoints={}",
            w.metrics().counter("schedd.vacated"),
            w.metrics().counter("condor.checkpoints"),
        );
        assert!(
            w.metrics().counter("condor.vacated") > 0,
            "no preemption happened"
        );
        assert!(w.metrics().counter("condor.checkpoints") > 0);
        // Conservation: total machine-busy time across every attempt must
        // cover the total work at least once (re-done work after a vacate
        // is bounded by the checkpoint interval, so the overshoot is
        // limited too).
        let total_work = 4.0 * 4.0 * 3600.0;
        let busy = w
            .metrics()
            .series("condor.busy_startds")
            .expect("busy gauge")
            .integral(SimTime::ZERO, w.now());
        let vacates = w.metrics().counter("condor.vacated") as f64;
        assert!(
            busy >= total_work * 0.999,
            "busy {busy} < work {total_work}"
        );
        let max_waste = vacates * (5.0 * 60.0) + 1.0;
        assert!(
            busy <= total_work + max_waste,
            "busy {busy} exceeds work {total_work} + ckpt-bounded waste {max_waste}"
        );
    }

    #[test]
    fn schedd_crash_recovery_keeps_queue() {
        let mut w = World::new(Config::default().seed(23));
        let (collector, _) = pool(&mut w, 2, None);
        let ns = w.add_node("submit");
        let schedd = w.add_component(ns, "schedd", Schedd::new("schedd1", vec![collector]));
        w.set_boot(ns, move |b| {
            b.add_component(
                "schedd",
                Schedd::recover("schedd1", vec![collector], b.store(), b.node()),
            );
        });
        w.add_component(
            ns,
            "user",
            User {
                schedd,
                jobs: (0..4).map(|_| job_ad(7200)).collect(),
                events: Map::new(),
                ids: Map::new(),
            },
        );
        // Let two jobs start, then crash the submit machine for 20 min.
        w.run_until(SimTime::ZERO + Duration::from_mins(10));
        w.crash_node_now(ns);
        w.run_until(SimTime::ZERO + Duration::from_mins(30));
        w.restart_node_now(ns);
        w.run_until(SimTime::ZERO + Duration::from_days(2));
        // All four jobs eventually complete (recovered queue re-matched).
        assert_eq!(w.metrics().counter("schedd.completed"), 4);
    }

    #[test]
    fn remove_terminates_job() {
        let mut w = World::new(Config::default().seed(24));
        let (collector, _) = pool(&mut w, 1, None);
        let ns = w.add_node("submit");
        let schedd = w.add_component(ns, "schedd", Schedd::new("schedd1", vec![collector]));
        struct Remover {
            schedd: Addr,
        }
        impl Component for Remover {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(
                    self.schedd,
                    PoolSubmit {
                        client_id: 0,
                        ad: super::tests::job_ad(100_000),
                    },
                );
                ctx.set_timer(Duration::from_mins(30), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.send(self.schedd, PoolRemove { job: JobId(0) });
            }
        }
        w.add_component(ns, "remover", Remover { schedd });
        w.run_until(SimTime::ZERO + Duration::from_hours(2));
        assert_eq!(w.metrics().counter("schedd.completed"), 0);
    }

    #[test]
    fn flocking_uses_machines_from_both_pools() {
        let mut w = World::new(Config::default().seed(25));
        // Pool A: 1 machine. Pool B: 3 machines. Schedd flocks to both.
        let (collector_a, _) = pool(&mut w, 1, None);
        let central_b = w.add_node("centralB");
        let collector_b = w.add_component(central_b, "collectorB", Collector::new());
        w.add_component(central_b, "negotiatorB", Negotiator::new(collector_b));
        for i in 0..3 {
            let n = w.add_node(&format!("poolB-exec{i}"));
            w.add_component(
                n,
                "startd",
                Startd::new(&format!("poolB-exec{i}"), machine_ad(), collector_b),
            );
        }
        let ns = w.add_node("submit");
        let schedd = w.add_component(
            ns,
            "schedd",
            Schedd::new("schedd1", vec![collector_a, collector_b]),
        );
        w.add_component(
            ns,
            "user",
            User {
                schedd,
                jobs: (0..8).map(|_| job_ad(3600)).collect(),
                events: Map::new(),
                ids: Map::new(),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_hours(4));
        // With only pool A it would take 8 hours; flocking to B's three
        // machines gets everything done within ~2-3 hours.
        assert_eq!(w.metrics().counter("schedd.completed"), 8);
    }
}
