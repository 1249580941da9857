//! Messages between the Condor daemons.

use classads::ClassAd;
use gridsim::time::{Duration, SimTime};
use gridsim::Addr;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::rc::Rc;

/// A job's identity within one schedd (cluster.proc in real Condor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Lifecycle of a pool job at the schedd.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolJobState {
    /// Waiting for a match.
    Idle,
    /// Matched and executing under a shadow.
    Running,
    /// Finished.
    Completed,
    /// Removed by the user.
    Removed,
    /// Held (e.g. repeated failures).
    Held,
}

// ---- collector traffic ----------------------------------------------------

/// Advertise (or refresh) an ad. Machines use `kind = Machine`; schedds use
/// `kind = Submitter`.
#[derive(Debug)]
pub struct Advertise {
    /// What kind of ad.
    pub kind: AdKind,
    /// Unique name within the kind (machine name, schedd name).
    pub name: String,
    /// The ad itself, by handle: an advertiser re-sends the same handle
    /// until its ad changes, and handle identity is how the collector (and
    /// through it the negotiator) knows a refresh from a new ad.
    pub ad: Rc<ClassAd>,
    /// Freshness window.
    pub ttl: Duration,
    /// Where the advertiser can be reached.
    pub contact: Addr,
}

/// Ad categories in the collector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AdKind {
    /// An execution machine (startd).
    Machine,
    /// A job queue (schedd).
    Submitter,
}

/// Query the collector for ads of `kind` matching `constraint`.
#[derive(Debug)]
pub struct CollectorQuery {
    /// Correlation id.
    pub request_id: u64,
    /// Which table.
    pub kind: AdKind,
    /// ClassAd boolean expression over candidate ads (`"TRUE"` for all).
    pub constraint: String,
}

/// Collector answer: `(name, contact, ad)` per match. Ads are shared
/// handles into the collector's tables — queries and the negotiation
/// pipeline they feed never deep-copy an ad.
#[derive(Debug)]
pub struct CollectorAds {
    /// Correlation id.
    pub request_id: u64,
    /// The matching ads.
    pub ads: Vec<(String, Addr, Rc<ClassAd>)>,
}

/// Remove an ad eagerly (graceful daemon shutdown).
#[derive(Debug)]
pub struct Invalidate {
    /// Which table.
    pub kind: AdKind,
    /// The ad's name.
    pub name: String,
}

// ---- negotiation ------------------------------------------------------------

/// Negotiator → schedd: send me your idle jobs.
#[derive(Debug)]
pub struct NegotiationRequest {
    /// Correlation id (cycle number).
    pub cycle: u64,
}

/// Schedd → negotiator: idle jobs needing machines.
#[derive(Debug)]
pub struct IdleJobs {
    /// Correlation id (cycle number).
    pub cycle: u64,
    /// `(id, ad)` for each idle job (shared handles into the queue).
    pub jobs: Vec<(JobId, Rc<ClassAd>)>,
}

/// Negotiator → schedd: a match was found.
#[derive(Debug)]
pub struct MatchNotify {
    /// The matched job.
    pub job: JobId,
    /// The machine's startd.
    pub startd: Addr,
    /// The machine ad at match time (for the shadow's records).
    pub machine_ad: Rc<ClassAd>,
}

// ---- claiming & execution -----------------------------------------------------

/// Shadow → startd: claim this machine for a job.
#[derive(Debug)]
pub struct RequestClaim {
    /// The job ad (Requirements are re-checked at claim time).
    pub job_ad: Rc<ClassAd>,
    /// The job's identity (for logging).
    pub job: JobId,
}

/// Startd → shadow: claim outcome.
#[derive(Debug)]
pub enum ClaimReply {
    /// Machine is yours; activate when ready.
    Accepted,
    /// Machine no longer available (owner returned, someone else claimed,
    /// requirements failed).
    Rejected {
        /// Why.
        reason: String,
    },
}

/// Shadow → startd: start executing.
#[derive(Debug)]
pub struct ActivateClaim {
    /// The job occupying the claim.
    pub job: JobId,
    /// Globally unique id (schedd name + job id) for checkpoint storage.
    pub global_id: String,
    /// Total work the job needs (CPU-seconds).
    pub total_work: Duration,
    /// Work already completed (from a checkpoint, on migration).
    pub done_work: Duration,
    /// Remote I/O: the running job issues a batch of redirected system
    /// calls every this often (None = job does no remote I/O).
    pub io_interval: Option<Duration>,
    /// Bytes moved per remote I/O batch.
    pub io_bytes: u64,
}

/// Startd → shadow: redirected system call batch (paper §5: system call
/// trapping redirects I/O "back to the originating system").
#[derive(Debug)]
pub struct SyscallBatch {
    /// Bytes transferred in this batch.
    pub bytes: u64,
    /// Batch sequence number.
    pub seq: u64,
}

/// Shadow → startd: syscall batch served.
#[derive(Debug)]
pub struct SyscallReply {
    /// Echo of the batch number.
    pub seq: u64,
}

/// Startd → shadow (or checkpoint server): periodic checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The job.
    pub job: JobId,
    /// Globally unique name for checkpoint-server storage.
    pub global_id: String,
    /// Total work completed as of this checkpoint.
    pub done_work: Duration,
    /// Checkpoint image size (bytes) — pays transfer cost.
    pub image_bytes: u64,
}

/// Startd → shadow: periodic liveness keepalive while a job runs (the
/// shadow's watchdog would otherwise misfire on quiet jobs that neither
/// checkpoint nor do remote I/O for long stretches).
#[derive(Debug)]
pub struct StartdKeepalive;

/// Startd → shadow: the job finished.
#[derive(Debug)]
pub struct JobExited {
    /// The job.
    pub job: JobId,
    /// Clean exit?
    pub ok: bool,
    /// Total CPU time consumed on this machine.
    pub cpu_time: Duration,
}

/// Startd → shadow: the machine was reclaimed; here is the last checkpoint.
#[derive(Debug)]
pub struct VacateNotice {
    /// The job.
    pub job: JobId,
    /// Work completed per the last checkpoint (work since then is lost).
    pub checkpointed_work: Duration,
}

/// Shadow → schedd: terminal outcomes.
#[derive(Debug)]
pub enum ShadowReport {
    /// Job finished.
    Done {
        /// The job.
        job: JobId,
        /// Clean exit?
        ok: bool,
        /// CPU time billed on the final machine.
        cpu_time: Duration,
    },
    /// Job was vacated; reschedule it with this much work done.
    Vacated {
        /// The job.
        job: JobId,
        /// Checkpointed progress to resume from.
        done_work: Duration,
    },
    /// The claim never activated (rejected); job back to idle.
    MatchFailed {
        /// The job.
        job: JobId,
    },
}

// ---- user-facing schedd API ------------------------------------------------

/// Submit a pool job to a schedd. The ad must carry `TotalWork` (seconds);
/// optional: `Requirements`, `Rank`, `IoIntervalSecs`, `IoBytes`,
/// `CkptImageBytes`.
#[derive(Debug)]
pub struct PoolSubmit {
    /// Submitter correlation id.
    pub client_id: u64,
    /// The job ad.
    pub ad: ClassAd,
}

/// Schedd reply to a submit.
#[derive(Debug)]
pub struct PoolSubmitted {
    /// Echo of the submitter id.
    pub client_id: u64,
    /// The queue id assigned.
    pub job: JobId,
}

/// Unsolicited job state notification to the submitter.
#[derive(Debug)]
pub struct PoolJobEvent {
    /// The job.
    pub job: JobId,
    /// State entered.
    pub state: PoolJobState,
    /// When.
    pub at: SimTime,
}

/// Remove a job.
#[derive(Debug)]
pub struct PoolRemove {
    /// The job.
    pub job: JobId,
}
