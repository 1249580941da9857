//! The Scheduler daemon: the user's single access point (Figure 1).
//!
//! It owns the persistent job queue, answers the user API, routes grid-
//! universe jobs to the per-user [`crate::GridManager`] ("The Scheduler
//! responds to a user request to submit jobs destined to run on Grid
//! resources by creating a new GridManager daemon") and pool-universe jobs
//! to the personal Condor schedd (the GlideIn path), writes the user log,
//! and sends termination e-mails.

use crate::api::{GridJobId, GridJobSpec, JobStatus, Universe, UserCmd, UserEvent};
use crate::broker::Broker;
use crate::email::Email;
use crate::gridmanager::{GmCmd, GmConfig, GmUpdate, GridManager};
use classads::ClassAd;
use condor::{PoolJobEvent, PoolJobState, PoolRemove, PoolSubmit, PoolSubmitted};
use gridsim::hash::IdTable;
use gridsim::prelude::*;
use gridsim::store::KeyBuf;
use gridsim::AnyMsg;
use gsi::ProxyCredential;
use std::collections::BTreeMap;

/// Static configuration of a Scheduler.
pub struct SchedulerConfig {
    /// The user this agent serves.
    pub user: String,
    /// The user's proxy credential.
    pub credential: ProxyCredential,
    /// The submit machine's GASS server (stages executables/stdio).
    pub gass: Addr,
    /// Personal Condor schedd for pool-universe jobs (GlideIn path).
    pub pool_schedd: Option<Addr>,
    /// Mail spool for notifications.
    pub mailer: Option<Addr>,
    /// GridManager tuning.
    pub gm: GmConfig,
    /// Send an e-mail on every terminal job state.
    pub email_on_termination: bool,
}

#[derive(Clone, Debug)]
struct JobRec {
    spec: GridJobSpec,
    status: JobStatus,
    submitted_at: SimTime,
    seen_active: bool,
}

gridsim::codec! { struct JobRec { spec, status, submitted_at, seen_active } }

/// One persisted user-log chunk: `(micros, job, message)` triples.
type LogChunk = Vec<(u64, u64, String)>;

/// A user-log entry as the user API hands it out.
type LogEntry = (SimTime, GridJobId, String);

/// The Scheduler component.
///
/// Memory holds live jobs only, at either retention: a job leaves `jobs`
/// and the pool maps when it reaches a terminal state. Full retention
/// keeps the finished job's record and the whole user log in the stable
/// store, and `Query`/`GetLog` read them back from there.
pub struct Scheduler {
    config: SchedulerConfig,
    broker: Option<Box<dyn Broker>>,
    /// Non-terminal jobs, by slot (it iterates in slot order).
    jobs: IdTable<GridJobId, JobRec>,
    /// pool JobId -> grid job id (pool-universe correlation).
    pool_map: BTreeMap<u64, GridJobId>,
    /// The way back, in memory only (rebuilt from `pool_map` on recovery):
    /// retiring or cancelling a pool job names its pool id by lookup.
    pool_id_of: BTreeMap<GridJobId, u64>,
    /// Store keys under `condor_g/<user>/`, each built in place:
    /// `job/<id, 12 digits>`, `pm/<pool id>`, `log/<chunk>`, and `next_id`.
    job_key: KeyBuf,
    pm_key: KeyBuf,
    log_key: KeyBuf,
    next_id_key: String,
    /// The id the next `Submit` gets, stored under `next_id_key` whenever
    /// one is issued: lean retention deletes finished jobs' records, so
    /// the records alone cannot say which ids were used.
    next_id: u64,
    /// Entries in the stored user log (full retention): the next one
    /// lands in chunk `log_len / LOG_CHUNK`.
    log_len: u64,
    /// Lean retention's bounded window of recent entries, the only user
    /// log held in memory.
    recent_log: Vec<LogEntry>,
    gridmanager: Option<Addr>,
    /// Where to push user events: the console that sent the first
    /// `Submit`.
    user_addr: Option<Addr>,
    /// True when this instance was rebuilt from stable storage.
    recovered: bool,
}

impl Scheduler {
    /// A fresh Scheduler. `broker` decides where grid-universe jobs go.
    pub fn new(config: SchedulerConfig, broker: Box<dyn Broker>) -> Scheduler {
        Scheduler {
            job_key: KeyBuf::new(format!("condor_g/{}/job/", config.user)),
            pm_key: KeyBuf::new(format!("condor_g/{}/pm/", config.user)),
            log_key: KeyBuf::new(format!("condor_g/{}/log/", config.user)),
            next_id_key: format!("condor_g/{}/next_id", config.user),
            config,
            broker: Some(broker),
            jobs: IdTable::default(),
            pool_map: BTreeMap::new(),
            pool_id_of: BTreeMap::new(),
            next_id: 0,
            log_len: 0,
            recent_log: Vec::new(),
            gridmanager: None,
            user_addr: None,
            recovered: false,
        }
    }

    /// Rebuild from the persistent queue after a submit-machine crash
    /// (§4.2: "When restarted, the GridManager reads the information and
    /// reconnects...").
    pub fn recover(
        config: SchedulerConfig,
        broker: Box<dyn Broker>,
        store: &gridsim::store::StableStore,
        node: NodeId,
    ) -> Scheduler {
        let mut s = Scheduler::new(config, broker);
        s.recovered = true;
        s.next_id = store.get::<u64>(node, &s.next_id_key).unwrap_or(0);
        for key in store.keys_with_prefix(node, s.job_key.prefix()) {
            let Some((id, rec)) = store.get::<(u64, JobRec)>(node, &key) else {
                continue;
            };
            s.next_id = s.next_id.max(id + 1);
            // Finished jobs stay in the store, where `Query` reads them.
            if !rec.status.is_terminal() {
                s.jobs.insert(GridJobId(id), rec);
            }
        }
        // Every chunk but the last is full, so the last alone says how
        // long the log is.
        let log_prefix = s.log_key.prefix();
        let last_chunk = store
            .keys_with_prefix(node, log_prefix)
            .iter()
            .filter_map(|key| key[log_prefix.len()..].parse::<u64>().ok())
            .max();
        if let Some(last) = last_chunk {
            let tail = Self::read_log_chunk(store, node, &mut s.log_key, last);
            s.log_len = last * Self::LOG_CHUNK + tail.len() as u64;
        }
        let pm_prefix = s.pm_key.prefix().len();
        for key in store.keys_with_prefix(node, s.pm_key.prefix()) {
            if let (Ok(pool_id), Some(grid)) = (
                key[pm_prefix..].parse::<u64>(),
                store.get::<u64>(node, &key),
            ) {
                if s.jobs.contains_key(&GridJobId(grid)) {
                    s.map_pool_job(pool_id, GridJobId(grid));
                }
            }
        }
        s
    }

    /// Chunk `idx` of the user log stored under `log_key` (empty if
    /// absent). The log is persisted in fixed-size chunks: appending to
    /// one big value would make every event O(total log).
    fn read_log_chunk(
        store: &gridsim::store::StableStore,
        node: NodeId,
        log_key: &mut KeyBuf,
        idx: u64,
    ) -> Vec<LogEntry> {
        store
            .get::<LogChunk>(node, log_key.key(idx))
            .unwrap_or_default()
            .into_iter()
            .map(|(t, j, m)| (SimTime(t), GridJobId(j), m))
            .collect()
    }

    /// Correlate a pool job with its grid job, both ways. Should one grid
    /// job ever hold several pool ids, the way back names the smallest —
    /// the entry a scan of `pool_map` finds first.
    fn map_pool_job(&mut self, pool_id: u64, grid: GridJobId) {
        self.pool_map.insert(pool_id, grid);
        self.pool_id_of
            .entry(grid)
            .and_modify(|known| *known = (*known).min(pool_id))
            .or_insert(pool_id);
    }

    /// The store key of `job`'s queue record.
    fn record_key(job_key: &mut KeyBuf, job: GridJobId) -> &str {
        job_key.key(format_args!("{:012}", job.0))
    }

    /// Persist one job record (O(1) per event).
    fn persist_job(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let Some(rec) = self.jobs.get(&job) else {
            return;
        };
        let key = Self::record_key(&mut self.job_key, job);
        let node = ctx.node();
        ctx.store().put(node, key, &(job.0, rec));
    }

    fn persist_pool_entry(&mut self, ctx: &mut Ctx<'_>, pool_id: u64, grid: GridJobId) {
        let node = ctx.node();
        ctx.store().put(node, self.pm_key.key(pool_id), &grid.0);
    }

    /// Entries per persisted log chunk.
    const LOG_CHUNK: u64 = 64;

    fn log_event(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, message: String) {
        ctx.trace_with("condor_g.log", || format!("{job}: {message}"));
        if ctx.lean() {
            // Campaign mode: the durable user log is the trace stream; keep
            // only a bounded recent window in memory for GetLog, and skip
            // the per-event chunk rewrite entirely.
            let chunk = Self::LOG_CHUNK as usize;
            self.recent_log.push((ctx.now(), job, message));
            if self.recent_log.len() >= 2 * chunk {
                self.recent_log.drain(..chunk);
            }
            return;
        }
        // Append to the current (last, partial) chunk.
        let key = self.log_key.key(self.log_len / Self::LOG_CHUNK);
        let (node, now) = (ctx.node(), ctx.now());
        ctx.store()
            .append(node, key, &(now.micros(), job.0, message.as_str()));
        self.log_len += 1;
    }

    fn push_status(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let Some(rec) = self.jobs.get(&job) else {
            return;
        };
        let status = &rec.status;
        if let Some(user) = self.user_addr {
            ctx.send(
                user,
                UserEvent::Status {
                    job,
                    status: status.clone(),
                    at: ctx.now(),
                },
            );
        }
        if status.is_terminal() && self.config.email_on_termination {
            if let Some(mailer) = self.config.mailer {
                let name = &rec.spec.name;
                ctx.send(
                    mailer,
                    Email {
                        to: self.config.user.clone(),
                        subject: format!("[condor-g] {name} ({job}) {status:?}"),
                        body: format!("job {job} reached {status:?}"),
                    },
                );
            }
        }
    }

    fn ensure_gridmanager(&mut self, ctx: &mut Ctx<'_>) -> Addr {
        if let Some(gm) = self.gridmanager {
            return gm;
        }
        // "creating a new GridManager daemon... One GridManager process
        // handles all jobs for a single user."
        let broker = self
            .broker
            .take()
            .expect("broker available for a new GridManager");
        let gm = GridManager::new(
            self.config.gm.clone(),
            self.config.credential.clone(),
            ctx.self_addr(),
            self.config.gass,
            broker,
            self.recovered,
        );
        let node = ctx.node();
        let addr = ctx.spawn(node, "gridmanager", gm);
        ctx.metrics().incr("condor_g.gridmanagers_spawned", 1);
        self.gridmanager = Some(addr);
        addr
    }

    fn route_submit(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        match self.jobs[&job].spec.universe {
            Universe::Grid => {
                let gm = self.ensure_gridmanager(ctx);
                // The GridManager owns its copy of the spec from here on.
                let spec = self.jobs[&job].spec.clone();
                ctx.send_local(gm, GmCmd::Manage { job, spec });
            }
            Universe::Pool => {
                let rec = &self.jobs[&job];
                let Some(schedd) = self.config.pool_schedd else {
                    self.jobs.get_mut(&job).unwrap().status =
                        JobStatus::Failed("no personal pool configured".into());
                    self.log_event(ctx, job, "no pool schedd; job failed".into());
                    self.persist_job(ctx, job);
                    self.push_status(ctx, job);
                    self.retire(ctx, job);
                    return;
                };
                let mut ad = ClassAd::new()
                    .with("Owner", self.config.user.as_str())
                    .with("Cmd", rec.spec.executable.as_str())
                    .with("TotalWork", rec.spec.runtime.as_secs_f64())
                    .with("IoBytes", rec.spec.io_bytes as i64);
                if let Some(io) = rec.spec.io_interval_secs {
                    ad.set("IoIntervalSecs", io);
                }
                if let Some(req) = &rec.spec.requirements {
                    ad.set_parsed("Requirements", req).ok();
                } else if let Some(arch) = &rec.spec.required_arch {
                    // A binary's architecture constrains matchmaking even
                    // when the user wrote no explicit Requirements.
                    ad.set_parsed("Requirements", &format!("TARGET.Arch == \"{arch}\""))
                        .ok();
                }
                if let Some(rank) = &rec.spec.rank {
                    ad.set_parsed("Rank", rank).ok();
                }
                ctx.send_local(
                    schedd,
                    PoolSubmit {
                        client_id: job.0,
                        ad,
                    },
                );
            }
        }
    }

    fn set_status(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, status: JobStatus) {
        let now = ctx.now();
        let Some(rec) = self.jobs.get_mut(&job) else {
            // An issued job is held until its terminal status retires it,
            // so news of a retired one means it left that status.
            assert!(
                job.0 >= self.next_id,
                "{}: {job} got {status:?} after it was retired",
                self.config.user
            );
            return;
        };
        if rec.status == status {
            return;
        }
        rec.status = status.clone();
        // Queueing-delay accounting: first time the job actually executes.
        if status == JobStatus::Active && !rec.seen_active {
            rec.seen_active = true;
            let wait = now - rec.submitted_at;
            ctx.metrics().observe_duration("condor_g.active_wait", wait);
        }
        if status == JobStatus::Done {
            ctx.metrics()
                .level_delta("condor_g.done_over_time", now, 1.0);
        }
        self.log_event(ctx, job, format!("status -> {status:?}"));
        self.persist_job(ctx, job);
        self.push_status(ctx, job);
        if status.is_terminal() {
            ctx.metrics().incr(
                match status {
                    JobStatus::Done => "condor_g.jobs_done",
                    JobStatus::Removed => "condor_g.jobs_removed",
                    _ => "condor_g.jobs_failed",
                },
                1,
            );
            self.retire(ctx, job);
        }
    }

    /// Drop a terminal job from memory, with its pool-universe correlation
    /// entries, so memory tracks *live* jobs rather than total submitted.
    /// Full retention keeps the job's records in the store, where `Query`
    /// reads them back; lean retention reclaims those too, trading away
    /// `Query` history for finished jobs.
    fn retire(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        if self.jobs.remove(&job).is_none() {
            return;
        }
        let pool_id = self.pool_id_of.remove(&job);
        if let Some(pool_id) = pool_id {
            self.pool_map.remove(&pool_id);
        }
        if !ctx.lean() {
            return;
        }
        let node = ctx.node();
        let key = Self::record_key(&mut self.job_key, job);
        ctx.store().remove(node, key);
        if let Some(pool_id) = pool_id {
            ctx.store().remove(node, self.pm_key.key(pool_id));
        }
    }
}

impl Component for Scheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.recovered {
            // Re-manage every recovered (non-terminal) grid job; resubmit
            // pool jobs (the pool schedd has its own persistent queue and
            // recovery — here we only re-establish our notification mapping).
            let pending = self.jobs.sorted_ids(|_| true);
            ctx.metrics().incr("condor_g.recoveries", 1);
            for job in pending {
                self.log_event(ctx, job, "recovered from persistent queue".into());
                if self.jobs[&job].spec.universe == Universe::Grid {
                    let gm = self.ensure_gridmanager(ctx);
                    let spec = self.jobs[&job].spec.clone();
                    ctx.send_local(gm, GmCmd::Recover { job, spec });
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        // Commands hand their payload over: take the message by value.
        let msg = match msg.downcast::<UserCmd>() {
            Ok(cmd) => {
                self.on_user_cmd(ctx, from, *cmd);
                return;
            }
            Err(other) => other,
        };
        self.on_daemon_msg(ctx, msg);
    }
}

impl Scheduler {
    fn on_user_cmd(&mut self, ctx: &mut Ctx<'_>, from: Addr, cmd: UserCmd) {
        match cmd {
            UserCmd::Submit { id, spec } => {
                let job = GridJobId(self.next_id);
                let node = ctx.node();
                // An id is never handed out twice: not to a live job, and
                // not over a finished job's stored record. (Lean retention
                // deletes finished records, so there the stored `next_id`
                // is what keeps an id from coming back.)
                let key = Self::record_key(&mut self.job_key, job);
                assert!(
                    !self.jobs.contains_key(&job) && ctx.store().get_bytes(node, key).is_none(),
                    "scheduler of {} would hand out {job} a second time",
                    self.config.user
                );
                self.next_id += 1;
                ctx.store().put(node, &self.next_id_key, &self.next_id);
                // Remember the user's console for callbacks.
                if self.user_addr.is_none() {
                    self.user_addr = Some(from);
                }
                ctx.metrics().incr("condor_g.submitted", 1);
                let message = format!("submitted ({})", spec.name);
                self.jobs.insert(
                    job,
                    JobRec {
                        spec,
                        status: JobStatus::Unsubmitted,
                        submitted_at: ctx.now(),
                        seen_active: false,
                    },
                );
                self.log_event(ctx, job, message);
                self.persist_job(ctx, job);
                ctx.send(from, UserEvent::Submitted { id, job });
                self.route_submit(ctx, job);
            }
            UserCmd::Query { job } => {
                let status = match self.jobs.get(&job) {
                    Some(rec) => Some(rec.status.clone()),
                    // A finished job: its record, if the store kept it.
                    None => {
                        let node = ctx.node();
                        let key = Self::record_key(&mut self.job_key, job);
                        ctx.store()
                            .get::<(u64, JobRec)>(node, key)
                            .map(|(_, rec)| rec.status)
                    }
                }
                .unwrap_or_else(|| JobStatus::Failed("unknown job".into()));
                ctx.send(
                    from,
                    UserEvent::Status {
                        job,
                        status,
                        at: ctx.now(),
                    },
                );
            }
            UserCmd::Cancel { job } => {
                let Some(rec) = self.jobs.get(&job) else {
                    return;
                };
                match rec.spec.universe {
                    Universe::Grid => {
                        if let Some(gm) = self.gridmanager {
                            ctx.send_local(gm, GmCmd::Cancel { job });
                        } else {
                            self.set_status(ctx, job, JobStatus::Removed);
                        }
                    }
                    Universe::Pool => {
                        if let Some(schedd) = self.config.pool_schedd {
                            if let Some(&pool_id) = self.pool_id_of.get(&job) {
                                ctx.send_local(
                                    schedd,
                                    PoolRemove {
                                        job: condor::JobId(pool_id),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            UserCmd::GetLog => {
                let entries = if ctx.lean() {
                    self.recent_log.clone()
                } else {
                    let node = ctx.node();
                    let store = &*ctx.store();
                    (0..self.log_len.div_ceil(Self::LOG_CHUNK))
                        .flat_map(|idx| Self::read_log_chunk(store, node, &mut self.log_key, idx))
                        .collect()
                };
                ctx.send(from, UserEvent::Log { entries });
            }
            UserCmd::RefreshProxy { credential } => {
                self.config.credential = credential.clone();
                ctx.metrics().incr("condor_g.proxy_refreshes", 1);
                if let Some(gm) = self.gridmanager {
                    ctx.send_local(gm, GmCmd::RefreshProxy { credential });
                }
            }
        }
    }

    /// Everything that is not a user command: the GridManager's updates and
    /// exit notice, and the pool schedd's plumbing.
    fn on_daemon_msg(&mut self, ctx: &mut Ctx<'_>, msg: Box<dyn std::any::Any>) {
        let msg = match msg.downcast::<GmUpdate>() {
            Ok(update) => {
                self.set_status(ctx, update.job, update.status);
                return;
            }
            Err(other) => other,
        };
        if msg.is::<crate::gridmanager::GmExiting>() {
            // "terminates once all jobs are complete" — the broker comes
            // home so a future GridManager can inherit it.
            if let Ok(exiting) = msg.downcast::<crate::gridmanager::GmExiting>() {
                self.broker = Some(exiting.broker);
            }
            self.gridmanager = None;
            return;
        }
        // Pool-universe plumbing.
        if let Some(sub) = msg.downcast_ref::<PoolSubmitted>() {
            let grid_job = GridJobId(sub.client_id);
            self.map_pool_job(sub.job.0, grid_job);
            self.persist_pool_entry(ctx, sub.job.0, grid_job);
            return;
        }
        if let Some(ev) = msg.downcast_ref::<PoolJobEvent>() {
            let Some(&job) = self.pool_map.get(&ev.job.0) else {
                return;
            };
            let status = match ev.state {
                PoolJobState::Idle => JobStatus::Pending,
                PoolJobState::Running => JobStatus::Active,
                PoolJobState::Completed => JobStatus::Done,
                PoolJobState::Removed => JobStatus::Removed,
                PoolJobState::Held => JobStatus::Held("held by pool schedd".into()),
            };
            self.set_status(ctx, job, status);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::codec::{encode_into, from_bytes, to_bytes};
    use proptest::prelude::*;

    #[test]
    fn borrowed_job_record_encodes_as_the_owned_pair() {
        let rec = JobRec {
            spec: GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30))
                .with_stdout(4096),
            status: JobStatus::Held("proxy expired".into()),
            submitted_at: SimTime(17),
            seen_active: true,
        };
        assert_eq!(to_bytes(&(7u64, &rec)), to_bytes(&(7u64, rec.clone())));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The persistent queue's record, byte for byte in the varint layout.
    #[test]
    fn job_record_bytes_are_pinned() {
        let rec = JobRec {
            spec: GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30))
                .with_stdout(4096)
                .with_args(&["--events", "500"])
                .with_requirements("FreeCpus > 0")
                .with_rank("FreeCpus")
                .with_wall_minutes(45)
                .with_remote_io(60.5, 512)
                .with_arch("INTEL"),
            status: JobStatus::Held("proxy expired".into()),
            submitted_at: SimTime(17),
            seen_active: true,
        };
        let pinned = "0703617070122f686f6d652f6a616e652f6170702e65786502082d2d6576656e7473033530300080a4a7da06018020012d010c4672656543707573203e203001084672656543707573010000000000404e4080040105494e54454c040d70726f787920657870697265641101";
        let bytes = to_bytes(&(7u64, &rec));
        assert_eq!(hex(&bytes), pinned);
        let (id, back) = from_bytes::<(u64, JobRec)>(&bytes).unwrap();
        assert_eq!((id, &back.spec, &back.status), (7, &rec.spec, &rec.status));
        assert_eq!(to_bytes(&(id, &back)), bytes);
    }

    /// Puts job 0's queue record on its node's disk, then submits a job.
    struct Squatter {
        scheduler: Addr,
    }

    impl Component for Squatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let spec = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30));
            let rec = JobRec {
                spec: spec.clone(),
                status: JobStatus::Done,
                submitted_at: SimTime::ZERO,
                seen_active: true,
            };
            let node = ctx.node();
            ctx.store()
                .put(node, "condor_g/jane/job/000000000000", &(0u64, &rec));
            ctx.send(self.scheduler, UserCmd::Submit { id: 1, spec });
        }
    }

    /// A fresh scheduler (`next_id` 0) on a disk that already holds job
    /// 0's record refuses to issue id 0 again. At full retention that
    /// record is what a finished job leaves; lean retention deletes it, so
    /// there the stored `next_id` guards the id, not this check.
    #[test]
    #[should_panic(expected = "would hand out gj0 a second time")]
    fn a_stored_record_keeps_its_id_from_being_issued_again() {
        let mut ca = gsi::CertificateAuthority::new("/CN=CA", 5);
        let proxy = ca
            .issue_identity("/CN=jane", Duration::from_days(30))
            .new_proxy(SimTime::ZERO, Duration::from_days(1));
        let mut w = gridsim::World::new(gridsim::Config::default().seed(3));
        let home = w.add_node("submit");
        let config = SchedulerConfig {
            user: "jane".into(),
            credential: proxy,
            gass: gridsim::world::EXTERNAL,
            pool_schedd: None,
            mailer: None,
            gm: GmConfig::default(),
            email_on_termination: false,
        };
        let broker = Box::new(crate::broker::StaticListBroker::new(Vec::new()));
        let scheduler = w.add_component(home, "scheduler", Scheduler::new(config, broker));
        w.add_component(home, "squatter", Squatter { scheduler });
        w.run_until(SimTime::ZERO + Duration::from_mins(1));
    }

    /// Submits a job, then a minute later reports it done and, after
    /// that, running again.
    struct Reviver {
        scheduler: Addr,
    }

    impl Component for Reviver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let spec = GridJobSpec::grid("app", "/home/jane/app.exe", Duration::from_mins(30));
            ctx.send(self.scheduler, UserCmd::Submit { id: 1, spec });
            ctx.set_timer(Duration::from_mins(1), 0);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            for status in [JobStatus::Done, JobStatus::Active] {
                let job = GridJobId(0);
                ctx.send_local(self.scheduler, GmUpdate { job, status });
            }
        }
    }

    /// A terminal status retires its job, and the job never leaves it: a
    /// later status for it stops the run, naming the user, the job and
    /// the status.
    #[test]
    #[should_panic(expected = "jane: gj0 got Active after it was retired")]
    fn a_retired_job_that_leaves_its_terminal_status_stops_the_run() {
        let mut ca = gsi::CertificateAuthority::new("/CN=CA", 5);
        let proxy = ca
            .issue_identity("/CN=jane", Duration::from_days(30))
            .new_proxy(SimTime::ZERO, Duration::from_days(1));
        let mut w = gridsim::World::new(gridsim::Config::default().seed(3));
        let home = w.add_node("submit");
        let config = SchedulerConfig {
            user: "jane".into(),
            credential: proxy,
            gass: gridsim::world::EXTERNAL,
            pool_schedd: None,
            mailer: None,
            gm: GmConfig::default(),
            email_on_termination: false,
        };
        let broker = Box::new(crate::broker::StaticListBroker::new(Vec::new()));
        let scheduler = w.add_component(home, "scheduler", Scheduler::new(config, broker));
        w.add_component(home, "reviver", Reviver { scheduler });
        w.run_until(SimTime::ZERO + Duration::from_mins(2));
    }

    proptest! {
        /// Whatever is on the disk, `recover` gets a record or a refusal.
        #[test]
        fn stored_job_records_decode_or_are_refused(
            noise in proptest::collection::vec(any::<u8>(), 0..200),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            cut in any::<usize>(),
            name in "[ -~]{0,30}",
        ) {
            let _ = from_bytes::<(u64, JobRec)>(&noise);
            let rec = JobRec {
                spec: GridJobSpec::grid(&name, "/home/jane/app.exe", Duration::from_mins(30))
                    .with_args(&["--events", &name]),
                status: JobStatus::Failed(name.clone()),
                submitted_at: SimTime(17),
                seen_active: false,
            };
            let mut bytes = to_bytes(&(7u64, &rec));
            let mut scratch = noise.clone();
            encode_into(&mut scratch, &(7u64, &rec));
            prop_assert_eq!(&scratch[noise.len()..], &bytes[..]);
            prop_assert_eq!(from_bytes::<(u64, JobRec)>(&bytes).unwrap().1.spec, rec.spec);
            for (at, mask) in flips {
                let n = bytes.len();
                bytes[at % n] ^= mask;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = from_bytes::<(u64, JobRec)>(&bytes);
        }
    }
}
