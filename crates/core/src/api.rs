//! The user-facing API (paper §4.1).
//!
//! "The agent allows the user to treat the Grid as an entirely local
//! resource, with an API and command line tools that allow the user to:
//! submit jobs...; query a job's status, or cancel the job; be informed of
//! job termination or problems, via callbacks or asynchronous mechanisms
//! such as e-mail; obtain access to detailed logs."

use gridsim::time::{Duration, SimTime};
use gsi::ProxyCredential;
use std::fmt;

/// A job's identity in the Condor-G queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridJobId(pub u64);

impl fmt::Display for GridJobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gj{}", self.0)
    }
}

/// Which execution path a job takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Universe {
    /// Direct GRAM submission to a remote site ("globus universe").
    Grid,
    /// Matchmade onto the personal (GlideIn) pool ("standard universe"
    /// semantics: remote I/O + checkpointing).
    Pool,
}

gridsim::codec! { enum Universe { 0 => Grid, 1 => Pool } }

/// A user job description.
///
/// ```
/// use condor_g::api::{GridJobSpec, Universe};
/// use gridsim::time::Duration;
///
/// let job = GridJobSpec::grid("sim", "/home/jane/sim.exe", Duration::from_hours(2))
///     .with_stdout(1_000_000)
///     .with_requirements("TARGET.Arch == \"INTEL\" && TARGET.FreeCpus > 0")
///     .with_rank("TARGET.FreeCpus");
/// assert_eq!(job.universe, Universe::Grid);
/// assert_eq!(job.stdout_size, 1_000_000);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GridJobSpec {
    /// Human-readable name (appears in logs and emails).
    pub name: String,
    /// Path of the executable on the submit machine.
    pub executable: String,
    /// Command-line arguments.
    pub arguments: Vec<String>,
    /// Execution path.
    pub universe: Universe,
    /// True service demand (simulation stand-in for running the binary).
    pub runtime: Duration,
    /// Processors.
    pub count: u32,
    /// Bytes of stdout the job will produce (staged back on completion).
    pub stdout_size: u64,
    /// Declared wall-time request in minutes (what the site scheduler sees).
    pub wall_minutes: Option<u64>,
    /// Brokering constraint over site ads, e.g. `FreeCpus > 0 &&
    /// Arch == "INTEL"` (None = any site).
    pub requirements: Option<String>,
    /// Brokering preference over site ads (higher = better).
    pub rank: Option<String>,
    /// Pool universe: remote-I/O call interval (seconds) and bytes/batch.
    pub io_interval_secs: Option<f64>,
    /// Pool universe: bytes per remote-I/O batch.
    pub io_bytes: u64,
    /// Architecture the executable is built for (`None` = portable).
    pub required_arch: Option<String>,
}

gridsim::codec! {
    struct GridJobSpec {
        name,
        executable,
        arguments,
        universe,
        runtime,
        count,
        stdout_size,
        wall_minutes,
        requirements,
        rank,
        io_interval_secs,
        io_bytes,
        required_arch,
    }
}

impl GridJobSpec {
    /// A single-CPU grid-universe job.
    pub fn grid(name: &str, executable: &str, runtime: Duration) -> GridJobSpec {
        GridJobSpec {
            name: name.to_string(),
            executable: executable.to_string(),
            arguments: Vec::new(),
            universe: Universe::Grid,
            runtime,
            count: 1,
            stdout_size: 0,
            wall_minutes: None,
            requirements: None,
            rank: None,
            io_interval_secs: None,
            io_bytes: 0,
            required_arch: None,
        }
    }

    /// A pool-universe (GlideIn) job.
    pub fn pool(name: &str, executable: &str, runtime: Duration) -> GridJobSpec {
        GridJobSpec {
            universe: Universe::Pool,
            ..GridJobSpec::grid(name, executable, runtime)
        }
    }

    /// Builder: stdout size.
    pub fn with_stdout(mut self, bytes: u64) -> GridJobSpec {
        self.stdout_size = bytes;
        self
    }

    /// Builder: arguments.
    pub fn with_args(mut self, args: &[&str]) -> GridJobSpec {
        self.arguments = args.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder: brokering requirements.
    pub fn with_requirements(mut self, req: &str) -> GridJobSpec {
        self.requirements = Some(req.to_string());
        self
    }

    /// Builder: brokering rank.
    pub fn with_rank(mut self, rank: &str) -> GridJobSpec {
        self.rank = Some(rank.to_string());
        self
    }

    /// Builder: wall-time declaration (minutes).
    pub fn with_wall_minutes(mut self, mins: u64) -> GridJobSpec {
        self.wall_minutes = Some(mins);
        self
    }

    /// Builder: remote I/O behaviour (pool universe).
    pub fn with_remote_io(mut self, interval_secs: f64, bytes: u64) -> GridJobSpec {
        self.io_interval_secs = Some(interval_secs);
        self.io_bytes = bytes;
        self
    }

    /// Builder: processor count.
    pub fn with_count(mut self, count: u32) -> GridJobSpec {
        self.count = count;
        self
    }

    /// Builder: the executable's architecture (wrong-arch sites fail it).
    pub fn with_arch(mut self, arch: &str) -> GridJobSpec {
        self.required_arch = Some(arch.to_string());
        self
    }
}

/// Job status as reported to the user.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// In the queue, not yet sent anywhere.
    Unsubmitted,
    /// Submitted to a remote site / pool; waiting to run.
    Pending,
    /// Staging files to the execution site.
    Staging,
    /// Executing.
    Active,
    /// Held with a reason (credential expired, too many failures...).
    Held(String),
    /// Finished successfully.
    Done,
    /// Failed with a reason, no more retries.
    Failed(String),
    /// Cancelled by the user.
    Removed,
}

gridsim::codec! {
    enum JobStatus {
        0 => Unsubmitted,
        1 => Pending,
        2 => Staging,
        3 => Active,
        4 => Held(reason),
        5 => Done,
        6 => Failed(reason),
        7 => Removed,
    }
}

impl JobStatus {
    /// True for states a job never leaves.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed(_) | JobStatus::Removed
        )
    }
}

/// Commands a user (or a tool acting for them, like DAGMan) sends to the
/// Scheduler.
#[derive(Debug)]
pub enum UserCmd {
    /// Queue a job.
    Submit {
        /// Caller correlation id.
        id: u64,
        /// The job.
        spec: GridJobSpec,
    },
    /// Ask for a job's current status. A live job is answered from
    /// memory; a finished one from its stored record at full retention,
    /// while lean retention has deleted that record and answers
    /// `Failed("unknown job")`, as for an id never issued.
    Query {
        /// The job.
        job: GridJobId,
    },
    /// Cancel a job.
    Cancel {
        /// The job.
        job: GridJobId,
    },
    /// Fetch the user log: at full retention the complete log, read back
    /// from the stable store; at lean retention the recent window held in
    /// memory (the trace stream is the durable log there).
    GetLog,
    /// Provide a refreshed proxy (the user ran `grid-proxy-init` after the
    /// expiry email).
    RefreshProxy {
        /// The fresh credential.
        credential: ProxyCredential,
    },
}

/// Events and replies the Scheduler sends back to the user.
#[derive(Debug)]
pub enum UserEvent {
    /// Submission accepted.
    Submitted {
        /// Caller correlation id.
        id: u64,
        /// Queue id assigned.
        job: GridJobId,
    },
    /// Answer to `Query`, and pushed on every state change (callbacks).
    Status {
        /// The job.
        job: GridJobId,
        /// Its state.
        status: JobStatus,
        /// When this was true.
        at: SimTime,
    },
    /// The user log, answering `GetLog`: every entry at full retention,
    /// the recent window at lean retention.
    Log {
        /// `(time, job, message)` triples in order.
        entries: Vec<(SimTime, GridJobId, String)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let s = GridJobSpec::grid("sim", "/home/j/sim.exe", Duration::from_hours(2))
            .with_stdout(1024)
            .with_args(&["--fast"])
            .with_requirements("Arch == \"INTEL\"")
            .with_rank("FreeCpus")
            .with_wall_minutes(150)
            .with_count(2);
        assert_eq!(s.universe, Universe::Grid);
        assert_eq!(s.count, 2);
        assert_eq!(s.stdout_size, 1024);
        assert_eq!(s.requirements.as_deref(), Some("Arch == \"INTEL\""));
        let p = GridJobSpec::pool("w", "/w", Duration::from_mins(5)).with_remote_io(60.0, 4096);
        assert_eq!(p.universe, Universe::Pool);
        assert_eq!(p.io_bytes, 4096);
    }

    #[test]
    fn terminal_statuses() {
        assert!(JobStatus::Done.is_terminal());
        assert!(JobStatus::Failed("x".into()).is_terminal());
        assert!(JobStatus::Removed.is_terminal());
        assert!(!JobStatus::Active.is_terminal());
        assert!(!JobStatus::Held("y".into()).is_terminal());
    }

    /// Every status and universe, byte for byte in the varint layout.
    #[test]
    fn status_and_universe_bytes_are_pinned() {
        use gridsim::codec::{from_bytes, to_bytes};
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let statuses = vec![
            JobStatus::Unsubmitted,
            JobStatus::Pending,
            JobStatus::Staging,
            JobStatus::Active,
            JobStatus::Held("proxy expired".into()),
            JobStatus::Done,
            JobStatus::Failed("wrong arch".into()),
            JobStatus::Removed,
        ];
        let bytes = to_bytes(&statuses);
        assert_eq!(
            hex(&bytes),
            "0800010203040d70726f7879206578706972656405060a77726f6e67206172636807"
        );
        assert_eq!(from_bytes::<Vec<JobStatus>>(&bytes).unwrap(), statuses);
        let universes = vec![Universe::Grid, Universe::Pool];
        let bytes = to_bytes(&universes);
        assert_eq!(hex(&bytes), "020001");
        assert_eq!(from_bytes::<Vec<Universe>>(&bytes).unwrap(), universes);
    }

    #[test]
    fn unknown_status_and_universe_indices_are_refused() {
        use gridsim::codec::{from_bytes, to_bytes};
        for index in [8u32, u32::MAX] {
            assert!(from_bytes::<JobStatus>(&to_bytes(&index)).is_err());
        }
        for index in [2u32, u32::MAX] {
            assert!(from_bytes::<Universe>(&to_bytes(&index)).is_err());
        }
    }
}
