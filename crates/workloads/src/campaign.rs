//! Deterministic million-job campaign generator and streaming driver.
//!
//! The paper's production runs (§6) were campaigns: hundreds of sites,
//! many users, and job counts far beyond what any single snapshot of the
//! queue should ever hold in memory. This module synthesizes such
//! campaigns reproducibly:
//!
//! * [`CampaignSpec`] describes the campaign (seed, grid shape, job count,
//!   arrival process, workload mix).
//! * [`CampaignStream`] materializes the job stream *lazily* — each
//!   [`CampaignJob`] is a fixed-size record computed on demand from the
//!   seed, so a 10⁶-job campaign costs a few dozen bytes of generator
//!   state, not gigabytes of queued specs.
//! * [`CampaignDriver`] pumps the stream through the Condor-G user API
//!   with a bounded in-flight window and a bounded arrival buffer, so the
//!   submit side exerts backpressure instead of ballooning.
//!
//! Everything is seed-deterministic: the same `CampaignSpec` yields a
//! byte-identical job stream on every run, on every thread, which is what
//! makes the parallel sweep farm ([`crate::farm`]) mergeable and
//! verifiable against serial runs.

use condor_g::api::{GridJobSpec, JobStatus};
use condor_g::{UserCmd, UserEvent};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::collections::{HashMap, VecDeque};

/// A campaign description. All fields feed the deterministic generator;
/// two equal specs produce byte-identical streams.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Master seed.
    pub seed: u64,
    /// Number of sites in the synthesized grid.
    pub sites: u32,
    /// Number of distinct submitting users (labels the job mix).
    pub users: u32,
    /// Total jobs in the campaign.
    pub jobs: u64,
    /// Nominal arrival window (arrivals thin out after it, but exactly
    /// `jobs` jobs are always emitted).
    pub duration: Duration,
    /// Mean service time of a single task (seconds).
    pub mean_runtime_secs: f64,
    /// Fraction of arrivals that open a parameter-sweep burst instead of a
    /// singleton job (the DAG/sweep mix).
    pub sweep_fraction: f64,
    /// Largest sweep burst (members arrive back-to-back).
    pub max_sweep: u32,
    /// Diurnal swing of the arrival rate, 0.0 (flat) to 1.0 (arrivals all
    /// but stop at night).
    pub diurnal_amplitude: f64,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            seed: 42,
            sites: 16,
            users: 100,
            jobs: 10_000,
            duration: Duration::from_hours(24),
            mean_runtime_secs: 1_800.0,
            sweep_fraction: 0.25,
            max_sweep: 32,
            diurnal_amplitude: 0.6,
        }
    }
}

/// One synthesized site of the campaign grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSite {
    /// Site name (`site000`, `site001`, ...).
    pub name: String,
    /// Processor count.
    pub cpus: u32,
}

/// What kind of arrival produced a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Independent singleton submission.
    Single,
    /// Member of a parameter-sweep burst.
    Sweep,
}

/// One job of the campaign: fixed-size, no heap. The driver expands it to
/// a [`GridJobSpec`] only at submission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignJob {
    /// Arrival offset from campaign start, in microseconds.
    pub at_micros: u64,
    /// Submitting user (0-based).
    pub user: u32,
    /// Service demand in seconds.
    pub runtime_secs: u32,
    /// stdout staged back on completion, in KiB.
    pub stdout_kb: u16,
    /// Sweep-burst id (0 for singletons).
    pub batch: u32,
    /// Arrival kind.
    pub kind: JobKind,
}

impl CampaignJob {
    /// Canonical byte encoding (little-endian, fixed 23 bytes). Two
    /// streams are identical iff their encodings are.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at_micros.to_le_bytes());
        out.extend_from_slice(&self.user.to_le_bytes());
        out.extend_from_slice(&self.runtime_secs.to_le_bytes());
        out.extend_from_slice(&self.stdout_kb.to_le_bytes());
        out.extend_from_slice(&self.batch.to_le_bytes());
        out.push(match self.kind {
            JobKind::Single => 0,
            JobKind::Sweep => 1,
        });
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1).
fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl CampaignSpec {
    /// The synthesized grid: site sizes follow a heavy-ish tail (a few
    /// large centers, many small departmental clusters), deterministic in
    /// the seed.
    pub fn grid(&self) -> Vec<CampaignSite> {
        let mut rng = self.seed ^ 0x0051_74e5;
        (0..self.sites)
            .map(|i| {
                // 16..=512 cpus, log-uniform.
                let cpus = (16.0 * 32f64.powf(u01(&mut rng))) as u32;
                CampaignSite {
                    name: format!("site{i:03}"),
                    cpus,
                }
            })
            .collect()
    }

    /// The lazy job stream.
    pub fn stream(&self) -> CampaignStream {
        CampaignStream {
            spec: self.clone(),
            rng: self.seed ^ 0x0b5,
            t_secs: 0.0,
            emitted: 0,
            burst_left: 0,
            burst_user: 0,
            burst_runtime: 0,
            next_batch: 0,
        }
    }
}

/// Lazy iterator over a campaign's jobs, in arrival order. State is a few
/// dozen bytes; jobs never exist before they are pulled.
pub struct CampaignStream {
    spec: CampaignSpec,
    rng: u64,
    t_secs: f64,
    emitted: u64,
    burst_left: u32,
    burst_user: u32,
    burst_runtime: u32,
    next_batch: u32,
}

impl CampaignStream {
    /// Arrival-rate multiplier at `t`: a diurnal ramp bottoming out at
    /// midnight and peaking mid-afternoon.
    fn diurnal(&self, t_secs: f64) -> f64 {
        if self.spec.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let day_frac = (t_secs / 86_400.0).fract();
        let swing = (std::f64::consts::TAU * day_frac - std::f64::consts::FRAC_PI_2).sin();
        (1.0 + self.spec.diurnal_amplitude * swing).max(0.05)
    }

    fn sample_runtime(&mut self) -> u32 {
        // Exponential service times, floored so no job is instantaneous.
        let u = u01(&mut self.rng).max(1e-12);
        (self.spec.mean_runtime_secs * -u.ln()).clamp(10.0, 172_800.0) as u32
    }
}

impl Iterator for CampaignStream {
    type Item = CampaignJob;

    fn next(&mut self) -> Option<CampaignJob> {
        if self.emitted >= self.spec.jobs {
            return None;
        }
        self.emitted += 1;
        if self.burst_left > 0 {
            // Sweep member: same user, back-to-back arrival, runtime near
            // the burst's base (parameter sweeps are homogeneous-ish).
            self.burst_left -= 1;
            self.t_secs += u01(&mut self.rng) * 2.0;
            let jitter = 0.8 + 0.4 * u01(&mut self.rng);
            return Some(CampaignJob {
                at_micros: (self.t_secs * 1e6) as u64,
                user: self.burst_user,
                runtime_secs: ((self.burst_runtime as f64 * jitter) as u32).max(10),
                stdout_kb: 4,
                batch: self.next_batch,
                kind: JobKind::Sweep,
            });
        }
        // Poisson gap, thinned by the diurnal ramp.
        let base_rate = self.spec.jobs as f64 / self.spec.duration.as_secs_f64().max(1.0);
        let rate = base_rate * self.diurnal(self.t_secs);
        let u = u01(&mut self.rng).max(1e-12);
        self.t_secs += -u.ln() / rate;
        let user = (splitmix64(&mut self.rng) % u64::from(self.spec.users.max(1))) as u32;
        let runtime = self.sample_runtime();
        if u01(&mut self.rng) < self.spec.sweep_fraction && self.spec.max_sweep > 1 {
            // Open a sweep burst: this job is its first member.
            self.next_batch += 1;
            let size = 2 + (splitmix64(&mut self.rng) % u64::from(self.spec.max_sweep - 1)) as u32;
            self.burst_left = size - 1;
            self.burst_user = user;
            self.burst_runtime = runtime;
            return Some(CampaignJob {
                at_micros: (self.t_secs * 1e6) as u64,
                user,
                runtime_secs: runtime,
                stdout_kb: 4,
                batch: self.next_batch,
                kind: JobKind::Sweep,
            });
        }
        Some(CampaignJob {
            at_micros: (self.t_secs * 1e6) as u64,
            user,
            runtime_secs: runtime,
            stdout_kb: 0,
            batch: 0,
            kind: JobKind::Single,
        })
    }
}

/// Driver tuning.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Hard bound on jobs submitted but not yet terminal.
    pub max_inflight: u32,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            max_inflight: 4_096,
        }
    }
}

const TAG_ARRIVAL: u64 = 1;

/// Bound on arrivals buffered while the in-flight window is full; the
/// stream is not pulled past this (backpressure).
const MAX_PENDING: usize = 1_024;

/// FNV-1a, the same digest the golden-trace oracle uses.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Streams a campaign through the Condor-G scheduler. Memory is bounded
/// by `max_inflight + MAX_PENDING` jobs regardless of campaign size; the
/// generator state is the only representation of the jobs still to come.
pub struct CampaignDriver {
    scheduler: Addr,
    config: DriverConfig,
    stream: CampaignStream,
    /// The arrival pulled off the stream but not yet due or submittable.
    head: Option<CampaignJob>,
    /// Due arrivals waiting for in-flight headroom (bounded).
    pending: VecDeque<CampaignJob>,
    /// Submitted command id -> submit time (bounded by `max_inflight`).
    inflight: HashMap<u64, SimTime>,
    /// Lower bound on the oldest in-flight command id. Command ids are
    /// assigned monotonically, so the oldest in-flight submission is the
    /// smallest live id; this pointer only ever advances (amortized O(1)
    /// per command over the whole campaign), making "how long has the
    /// oldest job been in flight" cheap enough for every heartbeat.
    oldest_cmd: u64,
    /// Grid job id -> command id (bounded by `max_inflight`).
    jobs: HashMap<u64, u64>,
    dispatched: u64,
    done: u64,
    failed: u64,
    /// FNV-1a over (cmd id, outcome) in completion order — the per-cell
    /// determinism digest the sweep farm compares across serial/parallel.
    digest: u64,
    /// When the pending arrival timer fires (arm at most one at a time:
    /// arrivals are ordered, so the armed wakeup is never too late, and
    /// re-arming on every pump would flood the event queue).
    armed: Option<SimTime>,
}

impl CampaignDriver {
    /// A driver feeding `scheduler` from `spec`'s stream.
    pub fn new(scheduler: Addr, spec: &CampaignSpec, config: DriverConfig) -> CampaignDriver {
        CampaignDriver {
            scheduler,
            config,
            stream: spec.stream(),
            head: None,
            pending: VecDeque::new(),
            inflight: HashMap::new(),
            oldest_cmd: 1,
            jobs: HashMap::new(),
            dispatched: 0,
            done: 0,
            failed: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            armed: None,
        }
    }

    /// Completed-job count recorded to stable storage.
    pub fn done(world: &gridsim::World, node: NodeId) -> u64 {
        world.store().get(node, "campaign/done").unwrap_or(0)
    }

    /// Failed-job count recorded to stable storage.
    pub fn failed(world: &gridsim::World, node: NodeId) -> u64 {
        world.store().get(node, "campaign/failed").unwrap_or(0)
    }

    /// Outcome digest recorded to stable storage.
    pub fn digest(world: &gridsim::World, node: NodeId) -> u64 {
        world.store().get(node, "campaign/digest").unwrap_or(0)
    }

    /// Jobs submitted so far, recorded to stable storage.
    pub fn dispatched(world: &gridsim::World, node: NodeId) -> u64 {
        world.store().get(node, "campaign/dispatched").unwrap_or(0)
    }

    /// Jobs submitted but not yet terminal, recorded to stable storage.
    pub fn inflight(world: &gridsim::World, node: NodeId) -> u64 {
        world.store().get(node, "campaign/inflight").unwrap_or(0)
    }

    /// Due arrivals buffered behind the in-flight window, recorded to
    /// stable storage.
    pub fn pending(world: &gridsim::World, node: NodeId) -> u64 {
        world.store().get(node, "campaign/pending").unwrap_or(0)
    }

    /// Submit time (microseconds) of the oldest job still in flight, or
    /// `None` when nothing is in flight. Telemetry heartbeats turn this
    /// into the stuck-job signal.
    pub fn oldest_inflight_at(world: &gridsim::World, node: NodeId) -> Option<SimTime> {
        if Self::inflight(world, node) == 0 {
            return None;
        }
        world
            .store()
            .get(node, "campaign/oldest_at_us")
            .map(SimTime)
    }

    fn spec_for(&self, job: &CampaignJob, id: u64) -> GridJobSpec {
        // One shared executable; the name stays short and the stdout small
        // so per-job strings do not dominate campaign memory.
        let runtime = Duration::from_secs(u64::from(job.runtime_secs));
        GridJobSpec::grid(&format!("c{id}"), "/home/jane/app.exe", runtime)
            .with_stdout(u64::from(job.stdout_kb) * 1024)
    }

    /// Submit every due arrival the in-flight window has room for, then
    /// arm the timer for the next future arrival.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        loop {
            if self.inflight.len() as u32 >= self.config.max_inflight {
                break;
            }
            // Prefer buffered arrivals (they are older than the stream head).
            let job = if let Some(j) = self.pending.pop_front() {
                j
            } else {
                if self.head.is_none() {
                    self.head = self.stream.next();
                }
                match self.head {
                    Some(j) if SimTime::ZERO + Duration::from_micros(j.at_micros) <= now => {
                        self.head = None;
                        j
                    }
                    _ => break,
                }
            };
            self.dispatched += 1;
            let id = self.dispatched;
            let spec = self.spec_for(&job, id);
            self.inflight.insert(id, now);
            ctx.send(self.scheduler, UserCmd::Submit { id, spec });
        }
        // While the window is full, buffer due arrivals — but never more
        // than `MAX_PENDING`: past that the stream simply is not pulled.
        while self.pending.len() < MAX_PENDING {
            if self.head.is_none() {
                self.head = self.stream.next();
            }
            match self.head {
                Some(j) if SimTime::ZERO + Duration::from_micros(j.at_micros) <= now => {
                    self.head = None;
                    self.pending.push_back(j);
                }
                _ => break,
            }
        }
        // Wake at the next arrival still in the future — but only if no
        // earlier wakeup is already armed. Arrivals are ordered, so an
        // armed timer is always at or before the current head's arrival.
        if let Some(j) = self.head {
            let at = SimTime::ZERO + Duration::from_micros(j.at_micros);
            if at > now && self.armed.is_none_or(|t| t <= now) {
                self.armed = Some(at);
                ctx.set_timer(at - now, TAG_ARRIVAL);
            }
        }
        self.persist(ctx);
    }

    fn persist(&mut self, ctx: &mut Ctx<'_>) {
        // Advance the oldest-in-flight pointer past completed ids.
        while self.oldest_cmd <= self.dispatched && !self.inflight.contains_key(&self.oldest_cmd) {
            self.oldest_cmd += 1;
        }
        let oldest_at_us = self
            .inflight
            .get(&self.oldest_cmd)
            .map_or(0, |t| t.micros());
        let node = ctx.node();
        ctx.store().put(node, "campaign/done", &self.done);
        ctx.store().put(node, "campaign/failed", &self.failed);
        ctx.store()
            .put(node, "campaign/dispatched", &self.dispatched);
        ctx.store().put(node, "campaign/digest", &self.digest);
        ctx.store()
            .put(node, "campaign/inflight", &(self.inflight.len() as u64));
        ctx.store()
            .put(node, "campaign/pending", &(self.pending.len() as u64));
        ctx.store()
            .put(node, "campaign/oldest_at_us", &oldest_at_us);
    }
}

impl Component for CampaignDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_ARRIVAL {
            self.armed = None;
            self.pump(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        let Some(event) = msg.downcast_ref::<UserEvent>() else {
            return;
        };
        match event {
            UserEvent::Submitted { id, job } => {
                self.jobs.insert(job.0, *id);
            }
            UserEvent::Status { job, status, .. } => {
                if !status.is_terminal() {
                    return;
                }
                let Some(cmd) = self.jobs.remove(&job.0) else {
                    return;
                };
                if self.inflight.remove(&cmd).is_none() {
                    return;
                }
                let outcome: u8 = match status {
                    JobStatus::Done => 0,
                    JobStatus::Removed => 2,
                    _ => 1,
                };
                if outcome == 0 {
                    self.done += 1;
                    ctx.metrics().incr("campaign.jobs_done", 1);
                } else {
                    self.failed += 1;
                    ctx.metrics().incr("campaign.jobs_failed", 1);
                }
                fnv1a(&mut self.digest, &cmd.to_le_bytes());
                fnv1a(&mut self.digest, &[outcome]);
                self.pump(ctx);
            }
            UserEvent::Log { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_streams_are_byte_identical() {
        let spec = CampaignSpec {
            jobs: 5_000,
            ..CampaignSpec::default()
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        for j in spec.stream() {
            j.encode(&mut a);
        }
        for j in spec.stream() {
            j.encode(&mut b);
        }
        assert_eq!(a, b);
        let other = CampaignSpec { seed: 43, ..spec };
        let mut c = Vec::new();
        for j in other.stream() {
            j.encode(&mut c);
        }
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_lazy_ordered_and_exact() {
        let spec = CampaignSpec {
            jobs: 20_000,
            ..CampaignSpec::default()
        };
        let mut last = 0u64;
        let mut count = 0u64;
        let mut sweeps = 0u64;
        for j in spec.stream() {
            assert!(j.at_micros >= last, "arrivals out of order");
            last = j.at_micros;
            count += 1;
            if j.kind == JobKind::Sweep {
                sweeps += 1;
            }
            assert!(j.runtime_secs >= 10);
            assert!(j.user < spec.users);
        }
        assert_eq!(count, spec.jobs);
        assert!(sweeps > 0, "no sweep bursts in the mix");
        assert!(sweeps < count, "everything became a sweep");
    }

    #[test]
    fn grid_is_deterministic_and_sized() {
        let spec = CampaignSpec {
            sites: 200,
            ..CampaignSpec::default()
        };
        let g1 = spec.grid();
        let g2 = spec.grid();
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), 200);
        assert!(g1.iter().all(|s| (16..=512).contains(&s.cpus)));
    }
}
