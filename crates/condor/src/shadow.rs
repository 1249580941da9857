//! The Shadow: a running job's home-side agent (Figure 2's "Condor Shadow
//! Process for Job X").
//!
//! One shadow per executing job, living on the submit machine. It drives
//! the claim protocol against the matched startd, serves the job's
//! redirected system calls, records checkpoints, and translates whatever
//! ends the execution (exit, vacate, silence) into a report the schedd can
//! act on. A watchdog turns a startd that stops talking — crashed glidein,
//! partitioned site — into a vacate at the last checkpoint, so jobs never
//! hang on dead machines.

use crate::proto::{
    ActivateClaim, Checkpoint, ClaimReply, JobExited, JobId, RequestClaim, ShadowReport,
    SyscallBatch, SyscallReply, VacateNotice,
};
use crate::startd::ReleaseClaim;
use classads::ClassAd;
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::rc::Rc;

const TAG_CLAIM_TIMEOUT: u64 = 1;
const TAG_WATCHDOG: u64 = 2;

enum Phase {
    Claiming,
    Running,
    Finished,
}

/// The shadow component.
pub struct Shadow {
    schedd: Addr,
    job: JobId,
    global_id: String,
    job_ad: Rc<ClassAd>,
    total_work: Duration,
    done_work: Duration,
    startd: Addr,
    phase: Phase,
    /// Expect some sign of life from the startd this often.
    watchdog: Duration,
    last_heard: SimTime,
    /// Remote-I/O accounting (bytes served back to the job).
    pub io_bytes_served: u64,
}

impl Shadow {
    /// A shadow for `job`, matched to `startd`.
    pub fn new(
        schedd: Addr,
        schedd_name: &str,
        job: JobId,
        job_ad: Rc<ClassAd>,
        done_work: Duration,
        startd: Addr,
    ) -> Shadow {
        let total_work = Duration::from_secs_f64(job_ad.get_real("TotalWork").unwrap_or(1.0));
        Shadow {
            schedd,
            job,
            global_id: format!("{schedd_name}#{job}"),
            job_ad,
            total_work,
            done_work,
            startd,
            phase: Phase::Claiming,
            watchdog: Duration::from_mins(30),
            last_heard: SimTime::ZERO,
            io_bytes_served: 0,
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, report: ShadowReport) {
        self.phase = Phase::Finished;
        ctx.send(self.schedd, report);
        ctx.kill(ctx.self_addr());
    }
}

impl Component for Shadow {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.last_heard = ctx.now();
        ctx.send(
            self.startd,
            RequestClaim {
                job_ad: Rc::clone(&self.job_ad),
                job: self.job,
            },
        );
        ctx.set_timer(Duration::from_mins(5), TAG_CLAIM_TIMEOUT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        match tag {
            TAG_CLAIM_TIMEOUT => {
                if matches!(self.phase, Phase::Claiming) {
                    // Startd never answered: stale ad or dead glidein.
                    ctx.metrics().incr("shadow.claim_timeouts", 1);
                    self.finish(ctx, ShadowReport::MatchFailed { job: self.job });
                }
            }
            TAG_WATCHDOG => {
                if matches!(self.phase, Phase::Running) {
                    if ctx.now() - self.last_heard >= self.watchdog {
                        // The machine went silent: treat as vacated at the
                        // last checkpoint we hold.
                        ctx.metrics().incr("shadow.watchdog_vacates", 1);
                        ctx.trace_with("shadow.lost_machine", || self.job.to_string());
                        let done_work = self.done_work;
                        self.finish(
                            ctx,
                            ShadowReport::Vacated {
                                job: self.job,
                                done_work,
                            },
                        );
                    } else {
                        ctx.set_timer(self.watchdog, TAG_WATCHDOG);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if from == self.startd {
            self.last_heard = ctx.now();
        }
        if let Some(reply) = msg.downcast_ref::<ClaimReply>() {
            match reply {
                ClaimReply::Accepted => {
                    self.phase = Phase::Running;
                    let io_interval = self
                        .job_ad
                        .get_real("IoIntervalSecs")
                        .map(Duration::from_secs_f64);
                    let io_bytes = self.job_ad.get_int("IoBytes").unwrap_or(0) as u64;
                    ctx.send(
                        self.startd,
                        ActivateClaim {
                            job: self.job,
                            global_id: self.global_id.clone(),
                            total_work: self.total_work,
                            done_work: self.done_work,
                            io_interval,
                            io_bytes,
                        },
                    );
                    ctx.set_timer(self.watchdog, TAG_WATCHDOG);
                }
                ClaimReply::Rejected { reason } => {
                    ctx.trace_with("shadow.claim_rejected", || reason.clone());
                    self.finish(ctx, ShadowReport::MatchFailed { job: self.job });
                }
            }
            return;
        }
        if let Some(batch) = msg.downcast_ref::<SyscallBatch>() {
            // Serve the redirected I/O back to the execution site.
            self.io_bytes_served += batch.bytes;
            ctx.metrics().incr("shadow.io_bytes", batch.bytes);
            ctx.send(from, SyscallReply { seq: batch.seq });
            return;
        }
        if let Some(ckpt) = msg.downcast_ref::<Checkpoint>() {
            if ckpt.job == self.job && ckpt.done_work > self.done_work {
                self.done_work = ckpt.done_work;
            }
            return;
        }
        if let Some(exit) = msg.downcast_ref::<JobExited>() {
            if exit.job == self.job {
                ctx.send(self.startd, ReleaseClaim);
                let (job, ok, cpu_time) = (self.job, exit.ok, exit.cpu_time);
                self.finish(ctx, ShadowReport::Done { job, ok, cpu_time });
            }
            return;
        }
        if let Some(vac) = msg.downcast_ref::<VacateNotice>() {
            if vac.job == self.job {
                let done_work = vac.checkpointed_work.max(self.done_work);
                let job = self.job;
                self.finish(ctx, ShadowReport::Vacated { job, done_work });
            }
        }
    }
}
