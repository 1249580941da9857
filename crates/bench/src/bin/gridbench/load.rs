//! The benchmark's load: seeded job streams and the driver component that
//! plays them into the Scheduler. The driver speaks only
//! `condor_g::api::{UserCmd, UserEvent, GridJobSpec}`, like a user would.

use crate::rng::SplitMix64;
use condor_g_suite::condor_g::api::{GridJobSpec, JobStatus, UserCmd, UserEvent};
use condor_g_suite::gridsim::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One generated job: when it is due, and what it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Due arrival, microseconds of sim time.
    pub due_us: u64,
    pub runtime_secs: u32,
    /// stdout staged back on completion.
    pub stdout_kb: u16,
}

/// Shape of an open-loop arrival stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    pub jobs: u64,
    /// All arrivals fall inside this window of sim time.
    pub arrival_secs: f64,
    pub mean_runtime_secs: f64,
    /// Swing of the arrival rate, 0 (flat) to 1. The window is one day of
    /// the cycle, so a re-sized stream keeps its shape.
    pub diurnal: f64,
    /// Share of arrivals that open a parameter-sweep burst.
    pub sweep_fraction: f64,
    /// Largest burst; members arrive back to back.
    pub max_sweep: u64,
}

impl StreamShape {
    /// Jobs per arrival on average: a burst has 2..=max_sweep members.
    fn jobs_per_arrival(&self) -> f64 {
        if self.max_sweep < 2 {
            return 1.0;
        }
        let mean_burst = (2 + self.max_sweep) as f64 / 2.0;
        1.0 - self.sweep_fraction + self.sweep_fraction * mean_burst
    }
}

/// Arrival-rate multiplier: one night-to-afternoon-to-night cycle per
/// `period`, averaging 1 over it.
fn diurnal_rate(t_secs: f64, period: f64, amplitude: f64) -> f64 {
    let day = (t_secs / period).fract();
    let swing = (std::f64::consts::TAU * day - std::f64::consts::FRAC_PI_2).sin();
    (1.0 + amplitude * swing).max(0.05)
}

/// Shortest job: none is instantaneous.
const MIN_RUNTIME_SECS: f64 = 10.0;

/// Poisson arrivals thinned by a diurnal ramp, exponential runtimes, and
/// sweep bursts of homogeneous members. Exactly `shape.jobs` jobs, in due
/// order, the last one due as the window closes, so the offered load per
/// sim-hour does not depend on the seed.
pub fn open_stream(seed: u64, shape: &StreamShape) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x6f70_656e);
    let window = shape.arrival_secs.max(1.0);
    let rate = shape.jobs as f64 / shape.jobs_per_arrival() / window;
    let mut arrivals: Vec<(f64, Job)> = Vec::with_capacity(shape.jobs as usize);
    let mut t = 0.0f64;
    while (arrivals.len() as u64) < shape.jobs {
        t += rng.exp(1.0 / (rate * diurnal_rate(t, window, shape.diurnal)));
        let burst = if shape.max_sweep >= 2 && rng.unit() <= shape.sweep_fraction {
            2 + ((1.0 - rng.unit()) * (shape.max_sweep - 1) as f64) as u64
        } else {
            1
        };
        let base = rng.exp(shape.mean_runtime_secs).max(MIN_RUNTIME_SECS) as u32;
        let mut at = t;
        for member in 0..burst {
            if arrivals.len() as u64 == shape.jobs {
                break;
            }
            let runtime_secs = if member == 0 {
                base
            } else {
                at += rng.unit() * 2.0;
                (f64::from(base) * (0.8 + 0.4 * rng.unit())).max(MIN_RUNTIME_SECS) as u32
            };
            let job = Job {
                due_us: 0,
                runtime_secs,
                stdout_kb: if burst > 1 { 4 } else { 0 },
            };
            arrivals.push((at, job));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let stretch = window / arrivals.last().map_or(1.0, |a| a.0);
    arrivals
        .into_iter()
        .map(|(at, job)| Job {
            due_us: (at * stretch * 1e6) as u64,
            ..job
        })
        .collect()
}

/// A closed-loop task pool: every task is due at once and the driver's
/// window is the number kept outstanding. Log-normal service times.
pub fn task_pool(seed: u64, tasks: u64, median_secs: f64, sigma: f64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x7461_736b);
    (0..tasks)
        .map(|_| Job {
            due_us: 0,
            runtime_secs: rng.log_normal(median_secs, sigma).max(60.0) as u32,
            stdout_kb: 0,
        })
        .collect()
}

/// What the driver submits for each job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Grid universe: GRAM submission of the shared executable.
    Grid,
    /// Pool universe: a master–worker task on the personal pool, with
    /// remote I/O back to the submit machine every 1800 s.
    PoolTask,
}

/// Everything the driver observed, shared with the benchmark through an
/// `Rc` because the world owns the component.
#[derive(Debug)]
pub struct Outcome {
    pub submitted: u64,
    pub done: u64,
    /// Jobs that ended Failed or Removed.
    pub failed: u64,
    /// Terminal statuses beyond the first for a job: must stay 0.
    pub extra_terminals: u64,
    /// Statuses for a job id the driver never saw submitted: must stay 0.
    pub unknown_jobs: u64,
    /// FNV-1a over (command id, outcome) in completion order.
    pub digest: u64,
    /// Sim seconds from due arrival (closed loop: from submission) to the
    /// terminal status, one per settled job.
    pub turnaround_secs: Vec<f64>,
    /// Sim seconds each submission ran behind its due time.
    pub arrival_delay_secs: Vec<f64>,
    /// When the last job settled.
    pub last_settle: SimTime,
}

impl Outcome {
    fn new(jobs: usize) -> Outcome {
        Outcome {
            submitted: 0,
            done: 0,
            failed: 0,
            extra_terminals: 0,
            unknown_jobs: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            turnaround_secs: Vec::with_capacity(jobs),
            arrival_delay_secs: Vec::with_capacity(jobs),
            last_settle: SimTime::ZERO,
        }
    }

    pub fn settled(&self) -> u64 {
        self.done + self.failed
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const TAG_ARRIVAL: u64 = 1;

/// Plays a job list into the Scheduler behind a bounded in-flight window:
/// due arrivals beyond the window wait, and their turnaround still counts
/// from when they were due. Halts the world when the last job settles.
pub struct LoadDriver {
    scheduler: Addr,
    kind: JobKind,
    jobs: Vec<Job>,
    window: usize,
    /// Closed loop: a job's clock starts when it is submitted.
    closed_loop: bool,
    next: usize,
    inflight: usize,
    /// Clock start per command id (index = command id - 1).
    started: Vec<SimTime>,
    settled: Vec<bool>,
    /// Grid job id -> command id, kept for the whole run so a second
    /// terminal status for a job is seen and counted.
    cmd_of: HashMap<u64, usize>,
    /// At most one arrival timer is armed: arrivals are ordered, so the
    /// armed wake-up is never too late.
    armed: Option<SimTime>,
    out: Rc<RefCell<Outcome>>,
}

impl LoadDriver {
    pub fn new(
        scheduler: Addr,
        kind: JobKind,
        jobs: Vec<Job>,
        window: usize,
        closed_loop: bool,
    ) -> (LoadDriver, Rc<RefCell<Outcome>>) {
        let out = Rc::new(RefCell::new(Outcome::new(jobs.len())));
        let driver = LoadDriver {
            scheduler,
            kind,
            started: Vec::with_capacity(jobs.len()),
            settled: vec![false; jobs.len()],
            cmd_of: HashMap::with_capacity(jobs.len()),
            jobs,
            window,
            closed_loop,
            next: 0,
            inflight: 0,
            armed: None,
            out: Rc::clone(&out),
        };
        (driver, out)
    }

    fn spec(&self, job: &Job, id: u64) -> GridJobSpec {
        let runtime = Duration::from_secs(u64::from(job.runtime_secs));
        match self.kind {
            JobKind::Grid => GridJobSpec::grid(&format!("g{id}"), "/home/jane/app.exe", runtime)
                .with_stdout(u64::from(job.stdout_kb) * 1024),
            JobKind::PoolTask => {
                GridJobSpec::pool(&format!("w{id}"), "/home/jane/worker.exe", runtime)
                    .with_remote_io(1800.0, 64 * 1024)
            }
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while self.inflight < self.window && self.next < self.jobs.len() {
            let job = self.jobs[self.next];
            let due = SimTime::ZERO + Duration::from_micros(job.due_us);
            if due > now {
                if self.armed.is_none_or(|t| t <= now) {
                    self.armed = Some(due);
                    ctx.set_timer(due - now, TAG_ARRIVAL);
                }
                break;
            }
            self.next += 1;
            self.inflight += 1;
            let id = self.next as u64;
            let started = if self.closed_loop { now } else { due };
            let mut out = self.out.borrow_mut();
            out.submitted += 1;
            out.arrival_delay_secs.push((now - started).as_secs_f64());
            drop(out);
            self.started.push(started);
            let spec = self.spec(&job, id);
            ctx.send(self.scheduler, UserCmd::Submit { id, spec });
        }
    }
}

impl Component for LoadDriver {
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
        match msg.downcast_ref::<UserEvent>() {
            Some(UserEvent::Submitted { id, job }) => {
                self.cmd_of.insert(job.0, *id as usize);
            }
            Some(UserEvent::Status { job, status, at }) if status.is_terminal() => {
                let mut out = self.out.borrow_mut();
                let Some(&cmd) = self.cmd_of.get(&job.0) else {
                    out.unknown_jobs += 1;
                    return;
                };
                if std::mem::replace(&mut self.settled[cmd - 1], true) {
                    out.extra_terminals += 1;
                    return;
                }
                let outcome: u8 = match status {
                    JobStatus::Done => 0,
                    JobStatus::Removed => 2,
                    _ => 1,
                };
                if outcome == 0 {
                    out.done += 1;
                } else {
                    out.failed += 1;
                }
                fnv1a(&mut out.digest, &(cmd as u64).to_le_bytes());
                fnv1a(&mut out.digest, &[outcome]);
                out.turnaround_secs
                    .push((*at - self.started[cmd - 1]).as_secs_f64());
                out.last_settle = ctx.now();
                let all_settled = out.settled() == self.jobs.len() as u64;
                drop(out);
                self.inflight -= 1;
                if all_settled {
                    ctx.halt();
                } else {
                    self.pump(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: StreamShape = StreamShape {
        jobs: 5_000,
        arrival_secs: 6.0 * 3600.0,
        mean_runtime_secs: 1_800.0,
        diurnal: 0.6,
        sweep_fraction: 0.25,
        max_sweep: 32,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = open_stream(42, &SHAPE);
        assert_eq!(a, open_stream(42, &SHAPE));
        assert_ne!(a, open_stream(43, &SHAPE));
        assert_eq!(
            task_pool(42, 100, 3600.0, 0.7),
            task_pool(42, 100, 3600.0, 0.7)
        );
        assert_ne!(
            task_pool(42, 100, 3600.0, 0.7),
            task_pool(43, 100, 3600.0, 0.7)
        );
    }

    #[test]
    fn stream_is_exact_ordered_and_inside_its_window() {
        let jobs = open_stream(7, &SHAPE);
        assert_eq!(jobs.len() as u64, SHAPE.jobs);
        assert!(jobs.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(jobs
            .iter()
            .all(|j| (j.due_us as f64) <= SHAPE.arrival_secs * 1e6 && j.runtime_secs >= 10));
        let last = jobs.last().unwrap().due_us as f64;
        assert!(
            (last - SHAPE.arrival_secs * 1e6).abs() < 2.0,
            "last due {last}"
        );
        let sweeps = jobs.iter().filter(|j| j.stdout_kb > 0).count();
        assert!(sweeps > 0 && sweeps < jobs.len(), "sweep mix {sweeps}");
        let mean = jobs.iter().map(|j| f64::from(j.runtime_secs)).sum::<f64>() / jobs.len() as f64;
        assert!((1_400.0..2_000.0).contains(&mean), "mean runtime {mean}");
    }
}
