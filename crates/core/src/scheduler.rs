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
    /// Where to push user events (the user's console component).
    pub user_addr: Option<Addr>,
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

/// The Scheduler component.
pub struct Scheduler {
    config: SchedulerConfig,
    broker: Option<Box<dyn Broker>>,
    jobs: BTreeMap<GridJobId, JobRec>,
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
    next_id: u64,
    log: Vec<(SimTime, GridJobId, String)>,
    gridmanager: Option<Addr>,
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
            jobs: BTreeMap::new(),
            pool_map: BTreeMap::new(),
            pool_id_of: BTreeMap::new(),
            next_id: 0,
            log: Vec::new(),
            gridmanager: None,
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
        for key in store.keys_with_prefix(node, s.job_key.prefix()) {
            let Some((id, rec)) = store.get::<(u64, JobRec)>(node, &key) else {
                continue;
            };
            s.next_id = s.next_id.max(id + 1);
            s.jobs.insert(GridJobId(id), rec);
        }
        // The log is persisted in fixed-size chunks (appending to one big
        // value would make every event O(total log)).
        type LogChunk = Vec<(u64, u64, String)>;
        let log_prefix = s.log_key.prefix();
        let mut chunks: Vec<(u64, LogChunk)> = store
            .keys_with_prefix(node, log_prefix)
            .into_iter()
            .filter_map(|key| {
                let idx: u64 = key[log_prefix.len()..].parse().ok()?;
                Some((idx, store.get(node, &key)?))
            })
            .collect();
        chunks.sort_by_key(|&(i, _)| i);
        for (_, chunk) in chunks {
            s.log.extend(
                chunk
                    .into_iter()
                    .map(|(t, j, m)| (SimTime(t), GridJobId(j), m)),
            );
        }
        let pm_prefix = s.pm_key.prefix().len();
        for key in store.keys_with_prefix(node, s.pm_key.prefix()) {
            if let (Ok(pool_id), Some(grid)) = (
                key[pm_prefix..].parse::<u64>(),
                store.get::<u64>(node, &key),
            ) {
                s.map_pool_job(pool_id, GridJobId(grid));
            }
        }
        s
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

    /// Persist one job record (O(1) per event).
    fn persist_job(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let Some(rec) = self.jobs.get(&job) else {
            return;
        };
        let key = self.job_key.key(format_args!("{:012}", job.0));
        let node = ctx.node();
        ctx.store().put(node, key, &(job.0, rec));
        ctx.store().put(node, &self.next_id_key, &self.next_id);
    }

    fn persist_pool_entry(&mut self, ctx: &mut Ctx<'_>, pool_id: u64, grid: GridJobId) {
        let node = ctx.node();
        ctx.store().put(node, self.pm_key.key(pool_id), &grid.0);
    }

    /// Entries per persisted log chunk.
    const LOG_CHUNK: usize = 64;

    fn log_event(&mut self, ctx: &mut Ctx<'_>, job: GridJobId, message: String) {
        ctx.trace_with("condor_g.log", || format!("{job}: {message}"));
        if ctx.lean() {
            // Campaign mode: the durable user log is the trace stream; keep
            // only a bounded recent window in memory for GetLog, and skip
            // the per-event chunk rewrite entirely.
            self.log.push((ctx.now(), job, message));
            if self.log.len() >= 2 * Self::LOG_CHUNK {
                self.log.drain(..Self::LOG_CHUNK);
            }
            return;
        }
        // Append to the current (last, partial) chunk.
        let chunk_idx = self.log.len() / Self::LOG_CHUNK;
        let key = self.log_key.key(chunk_idx);
        let (node, now) = (ctx.node(), ctx.now());
        ctx.store()
            .append(node, key, &(now.micros(), job.0, message.as_str()));
        self.log.push((now, job, message));
    }

    fn push_status(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        let Some(rec) = self.jobs.get(&job) else {
            return;
        };
        let status = &rec.status;
        if let Some(user) = self.config.user_addr {
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
                .gauge_delta("condor_g.done_over_time", now, 1.0);
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
            if ctx.lean() {
                self.retire(ctx, job);
            }
        }
    }

    /// Lean retention: drop a terminal job from the queue and reclaim its
    /// persistent record, so memory tracks *live* jobs rather than total
    /// submitted. Trades away `Query`/`GetLog` history for finished jobs.
    fn retire(&mut self, ctx: &mut Ctx<'_>, job: GridJobId) {
        if self.jobs.remove(&job).is_none() {
            return;
        }
        let node = ctx.node();
        let key = self.job_key.key(format_args!("{:012}", job.0));
        ctx.store().remove(node, key);
        // Pool-universe correlation entries die with the job too.
        if let Some(pool_id) = self.pool_id_of.remove(&job) {
            self.pool_map.remove(&pool_id);
            ctx.store().remove(node, self.pm_key.key(pool_id));
        }
    }
}

impl Component for Scheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.recovered {
            // Re-manage every non-terminal grid job; resubmit pool jobs
            // (the pool schedd has its own persistent queue and recovery —
            // here we only re-establish our notification mapping).
            let pending: Vec<GridJobId> = self
                .jobs
                .iter()
                .filter(|(_, r)| !r.status.is_terminal())
                .map(|(id, _)| *id)
                .collect();
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
                self.next_id += 1;
                // Remember the user's console for callbacks.
                if self.config.user_addr.is_none() {
                    self.config.user_addr = Some(from);
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
                let status = self
                    .jobs
                    .get(&job)
                    .map(|r| r.status.clone())
                    .unwrap_or(JobStatus::Failed("unknown job".into()));
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
                ctx.send(
                    from,
                    UserEvent::Log {
                        entries: self.log.clone(),
                    },
                );
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

    /// The persistent queue's record, byte for byte as `e025d0e` wrote it.
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
        let pinned = "0700000000000000030000000000000061707012000000000000002f686f6d652f6a616e652f6170702e657865020000000000000008000000000000002d2d6576656e747303000000000000003530300000000000d2496b00000000010000000010000000000000012d00000000000000010c000000000000004672656543707573203e20300108000000000000004672656543707573010000000000404e400002000000000000010500000000000000494e54454c040000000d0000000000000070726f78792065787069726564110000000000000001";
        let bytes = to_bytes(&(7u64, &rec));
        assert_eq!(hex(&bytes), pinned);
        let (id, back) = from_bytes::<(u64, JobRec)>(&bytes).unwrap();
        assert_eq!((id, &back.spec, &back.status), (7, &rec.spec, &rec.status));
        assert_eq!(to_bytes(&(id, &back)), bytes);
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
