//! Scheduling policies.
//!
//! A policy decides, given the queue and the currently free processors,
//! which queued jobs to start *now*. Policies see the user-supplied
//! estimate, never the true runtime.

use gridsim::time::{Duration, SimTime};

/// A queued job, as the policy sees it.
#[derive(Debug, Clone)]
pub struct QueueView {
    /// LRM id.
    pub local_id: u64,
    /// Processors requested.
    pub cpus: u32,
    /// User estimate of runtime.
    pub estimate: Duration,
    /// Owner account.
    pub owner: String,
    /// When it was submitted.
    pub submitted: SimTime,
}

/// A running job, as the policy sees it (needed for backfill reservations).
#[derive(Debug, Clone)]
pub struct RunningView {
    /// Processors held.
    pub cpus: u32,
    /// When, per the *estimate*, it will release them (clamped by wall
    /// limits). Backfill plans against this.
    pub expected_end: SimTime,
}

/// A batch scheduling policy.
pub trait SchedPolicy: Send + 'static {
    /// Pick queued jobs (by `local_id`) to start now. `free` processors are
    /// available. Jobs are started in the returned order; the caller
    /// guarantees each selected job fits before starting it.
    fn select(
        &mut self,
        now: SimTime,
        queue: &[QueueView],
        running: &[RunningView],
        free: u32,
    ) -> Vec<u64>;

    /// Tell the policy a job by `owner` consumed `cpu_time` (for usage
    /// accounting policies). Default: ignore.
    fn charge(&mut self, _owner: &str, _cpu_time: Duration) {}

    /// Human-readable name for traces and site ads.
    fn name(&self) -> &'static str;
}

/// Strict arrival order: the head blocks everyone behind it (NQE-style).
#[derive(Debug, Default)]
pub struct Fifo;

impl SchedPolicy for Fifo {
    fn select(
        &mut self,
        _now: SimTime,
        queue: &[QueueView],
        _running: &[RunningView],
        mut free: u32,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for job in queue {
            if job.cpus > free {
                break; // strict: never skip the head
            }
            free -= job.cpus;
            out.push(job.local_id);
        }
        out
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// EASY backfill: start the head whenever possible; give it a reservation
/// otherwise, and let later jobs jump ahead only if (per their estimates)
/// they cannot delay that reservation (PBS+Maui/LoadLeveler-style).
#[derive(Debug, Default)]
pub struct EasyBackfill;

impl SchedPolicy for EasyBackfill {
    fn select(
        &mut self,
        now: SimTime,
        queue: &[QueueView],
        running: &[RunningView],
        mut free: u32,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        // Start from the head while it fits.
        let mut blocked = 0;
        while let Some(head) = queue.get(blocked).filter(|head| head.cpus <= free) {
            free -= head.cpus;
            out.push(head.local_id);
            blocked += 1;
        }
        let Some(head) = queue.get(blocked) else {
            return out;
        };
        // Compute the head's reservation: the earliest time enough
        // processors free up, assuming running jobs end at their estimates.
        let mut releases: Vec<(SimTime, u32)> =
            running.iter().map(|r| (r.expected_end, r.cpus)).collect();
        releases.sort();
        let mut avail = free;
        let mut reservation = SimTime::MAX;
        let mut reserved_free_at_start = 0; // processors free at reservation start
        for (t, cpus) in &releases {
            avail += cpus;
            if avail >= head.cpus {
                reservation = *t;
                reserved_free_at_start = avail - head.cpus;
                break;
            }
        }
        // Backfill: any later job that fits in `free` now and either ends
        // before the reservation or fits in the leftover processors at it.
        for job in &queue[blocked + 1..] {
            if job.cpus > free {
                continue;
            }
            let ends = now + job.estimate;
            let safe = ends <= reservation || job.cpus <= reserved_free_at_start;
            if safe {
                free -= job.cpus;
                if job.cpus <= reserved_free_at_start {
                    reserved_free_at_start -= job.cpus.min(reserved_free_at_start);
                }
                out.push(job.local_id);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "easy-backfill"
    }
}

/// Fair share: among queued jobs, prefer owners with the least accumulated
/// (decayed) usage; FIFO within an owner (LSF-style fairshare).
#[derive(Debug, Default)]
pub struct FairShare {
    usage: std::collections::HashMap<String, f64>,
}

impl FairShare {
    /// Accumulated usage for an owner (seconds of CPU, decayed on charge).
    pub fn usage_of(&self, owner: &str) -> f64 {
        self.usage.get(owner).copied().unwrap_or(0.0)
    }
}

impl SchedPolicy for FairShare {
    fn select(
        &mut self,
        _now: SimTime,
        queue: &[QueueView],
        _running: &[RunningView],
        mut free: u32,
    ) -> Vec<u64> {
        // Sort candidates by (owner usage, arrival) — stable and cheap at
        // the queue sizes the experiments use.
        let mut candidates: Vec<&QueueView> = queue.iter().collect();
        candidates.sort_by(|a, b| {
            let ua = self.usage_of(&a.owner);
            let ub = self.usage_of(&b.owner);
            ua.partial_cmp(&ub)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.submitted.cmp(&b.submitted))
                .then(a.local_id.cmp(&b.local_id))
        });
        let mut out = Vec::new();
        for job in candidates {
            if job.cpus <= free {
                free -= job.cpus;
                out.push(job.local_id);
            }
        }
        out
    }

    fn charge(&mut self, owner: &str, cpu_time: Duration) {
        // Exponential-ish decay applied on write: halve everyone when any
        // usage would exceed a large bound, keeping numbers well-scaled.
        let e = self.usage.entry(owner.to_string()).or_insert(0.0);
        *e += cpu_time.as_secs_f64();
        if *e > 1e9 {
            for v in self.usage.values_mut() {
                *v *= 0.5;
            }
        }
    }

    fn name(&self) -> &'static str {
        "fair-share"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, cpus: u32, est_secs: u64, owner: &str, at: u64) -> QueueView {
        QueueView {
            local_id: id,
            cpus,
            estimate: Duration::from_secs(est_secs),
            owner: owner.to_string(),
            submitted: SimTime(at),
        }
    }

    fn r(cpus: u32, end_secs: u64) -> RunningView {
        RunningView {
            cpus,
            expected_end: SimTime::ZERO + Duration::from_secs(end_secs),
        }
    }

    #[test]
    fn fifo_respects_order_and_blocks_at_head() {
        let mut p = Fifo;
        let queue = vec![
            q(1, 4, 10, "a", 0),
            q(2, 1, 10, "a", 1),
            q(3, 1, 10, "a", 2),
        ];
        // Only 2 CPUs free: head needs 4, so *nothing* starts.
        assert!(p.select(SimTime::ZERO, &queue, &[], 2).is_empty());
        // 6 free: all three start in order.
        assert_eq!(p.select(SimTime::ZERO, &queue, &[], 6), vec![1, 2, 3]);
    }

    #[test]
    fn backfill_jumps_short_jobs_without_delaying_head() {
        let mut p = EasyBackfill;
        // 2 CPUs total; both busy until t=100 (est). Head wants 2 CPUs.
        let running = vec![r(1, 100), r(1, 100)];
        let queue = vec![
            q(1, 2, 1000, "a", 0), // head: needs both CPUs at t=100
            q(2, 1, 50, "b", 1), // would finish at t=50 < 100: safe? needs a free CPU *now* — none free.
        ];
        assert!(p.select(SimTime::ZERO, &queue, &running, 0).is_empty());
        // Now one CPU free, one busy until 100; head (2 cpus) reserves t=100.
        let running = vec![r(1, 100)];
        let queue = vec![
            q(1, 2, 1000, "a", 0),
            q(2, 1, 50, "b", 1),  // ends at 50 <= 100: backfills
            q(3, 1, 500, "c", 2), // ends at 500 > 100 and no leftover: blocked
        ];
        assert_eq!(p.select(SimTime::ZERO, &queue, &running, 1), vec![2]);
    }

    #[test]
    fn backfill_starts_head_first_when_possible() {
        let mut p = EasyBackfill;
        let queue = vec![q(1, 1, 10, "a", 0), q(2, 1, 10, "b", 1)];
        assert_eq!(p.select(SimTime::ZERO, &queue, &[], 2), vec![1, 2]);
    }

    #[test]
    fn backfill_uses_leftover_processors_at_reservation() {
        let mut p = EasyBackfill;
        // 4 CPUs: 3 busy until t=100, 1 free. Head wants 2.
        // Reservation at t=100 frees 3+1=4, head takes 2, leftover 2.
        // A long 1-cpu job can still backfill into the leftover.
        let running = vec![r(3, 100)];
        let queue = vec![q(1, 2, 1000, "a", 0), q(2, 1, 100_000, "b", 1)];
        assert_eq!(p.select(SimTime::ZERO, &queue, &running, 1), vec![2]);
    }

    #[test]
    fn fair_share_prefers_light_users() {
        let mut p = FairShare::default();
        p.charge("heavy", Duration::from_hours(100));
        let queue = vec![q(1, 1, 10, "heavy", 0), q(2, 1, 10, "light", 5)];
        // light user's job jumps ahead despite arriving later.
        assert_eq!(p.select(SimTime::ZERO, &queue, &[], 1), vec![2]);
        // With 2 slots both run, light first.
        assert_eq!(p.select(SimTime::ZERO, &queue, &[], 2), vec![2, 1]);
    }

    #[test]
    fn fair_share_fifo_within_owner() {
        let mut p = FairShare::default();
        let queue = vec![q(5, 1, 10, "a", 10), q(3, 1, 10, "a", 1)];
        assert_eq!(p.select(SimTime::ZERO, &queue, &[], 2), vec![3, 5]);
    }

    #[test]
    fn fair_share_decay_keeps_bounded() {
        let mut p = FairShare::default();
        for _ in 0..100 {
            p.charge("x", Duration::from_hours(10_000));
        }
        assert!(p.usage_of("x") <= 2e9);
    }
}
