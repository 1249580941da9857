//! Job descriptions and states as the local scheduler sees them.

use gridsim::time::Duration;

/// What a submitter hands the local resource manager.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Processors requested (the paper's workloads are single-CPU workers;
    /// reconstruction-style jobs may ask for more).
    pub cpus: u32,
    /// True service demand — consumed by the simulation, *never* shown to
    /// the scheduling policy (schedulers only see the estimate).
    pub runtime: Duration,
    /// User-supplied runtime estimate (backfill trusts this).
    pub estimate: Duration,
    /// Owner (the site-local account the gridmap resolved to).
    pub owner: String,
    /// Architecture the executable was built for (`None` = portable).
    /// Submitting a binary to a site with a different architecture fails
    /// at execution time, exactly like a real wrong-arch binary.
    pub required_arch: Option<String>,
}

impl JobSpec {
    /// A single-CPU job whose estimate equals its true runtime.
    pub fn simple(runtime: Duration, owner: &str) -> JobSpec {
        JobSpec {
            cpus: 1,
            runtime,
            estimate: runtime,
            owner: owner.to_string(),
            required_arch: None,
        }
    }

    /// Same, with an explicit (possibly wrong) estimate.
    pub fn with_estimate(mut self, estimate: Duration) -> JobSpec {
        self.estimate = estimate;
        self
    }

    /// Same, with a CPU count.
    pub fn with_cpus(mut self, cpus: u32) -> JobSpec {
        self.cpus = cpus;
        self
    }

    /// Same, demanding an architecture.
    pub fn with_arch(mut self, arch: &str) -> JobSpec {
        self.required_arch = Some(arch.to_string());
        self
    }
}

/// Lifecycle of a job inside the local scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LrmJobState {
    /// Waiting in the queue.
    Queued,
    /// Holding processors.
    Running,
    /// Finished normally.
    Completed,
    /// Killed for exceeding the site wall-clock limit.
    WallTimeExceeded,
    /// Preempted by the churn model (owner reclaimed the machine) and not
    /// requeued.
    Vacated,
    /// Cancelled by the submitter.
    Removed,
}

impl LrmJobState {
    /// True for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            LrmJobState::Completed
                | LrmJobState::WallTimeExceeded
                | LrmJobState::Vacated
                | LrmJobState::Removed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let j = JobSpec::simple(Duration::from_mins(30), "jane")
            .with_estimate(Duration::from_hours(1))
            .with_cpus(4);
        assert_eq!(j.cpus, 4);
        assert_eq!(j.runtime, Duration::from_mins(30));
        assert_eq!(j.estimate, Duration::from_hours(1));
    }

    #[test]
    fn terminal_states() {
        assert!(!LrmJobState::Queued.is_terminal());
        assert!(!LrmJobState::Running.is_terminal());
        assert!(LrmJobState::Completed.is_terminal());
        assert!(LrmJobState::WallTimeExceeded.is_terminal());
        assert!(LrmJobState::Vacated.is_terminal());
        assert!(LrmJobState::Removed.is_terminal());
    }
}
