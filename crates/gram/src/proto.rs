//! GRAM protocol messages.

use gass::GassUrl;
use gridsim::time::SimTime;
use gridsim::Addr;
use gsi::ProxyCredential;
use std::fmt;

/// A job contact: the id by which a submitted job is known at one
/// gatekeeper (the analogue of GRAM's `https://host:port/pid/ts` string).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobContact(pub u64);

gridsim::codec! { struct JobContact { 0 } }

impl fmt::Display for JobContact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jc{}", self.0)
    }
}

/// GRAM-level job states, as reported by callbacks (the paper-era GRAM
/// state machine plus the revised protocol's commit phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GramJobState {
    /// Accepted, waiting for the client's commit (two-phase).
    PendingCommit,
    /// Pulling executable/stdin from the client's GASS server.
    StageIn,
    /// Queued in the site scheduler.
    Pending,
    /// Holding processors.
    Active,
    /// Pushing stdout back to the client's GASS server.
    StageOut,
    /// Finished cleanly, its stdout staged out (every failure ends in
    /// `Failed`).
    Done,
    /// Failed (stage-in error, wall-time kill, vacated without requeue...).
    Failed,
    /// Cancelled by the client.
    Removed,
}

gridsim::codec! {
    enum GramJobState {
        0 => PendingCommit,
        1 => StageIn,
        2 => Pending,
        3 => Active,
        4 => StageOut,
        5 => Done,
        6 => Failed,
        7 => Removed,
    }
}

impl GramJobState {
    /// True for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            GramJobState::Done | GramJobState::Failed | GramJobState::Removed
        )
    }
}

/// Failure detail carried by replies/callbacks.
#[derive(Clone, Debug, PartialEq)]
pub enum GramError {
    /// Credential rejected.
    AuthenticationFailed(String),
    /// Authenticated, but no gridmap entry.
    AuthorizationFailed(String),
    /// Malformed RSL.
    BadRsl(String),
    /// Stage-in/out failure.
    StagingFailed(String),
    /// The job id is unknown at this gatekeeper (e.g. log lost).
    UnknownJob,
}

impl fmt::Display for GramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GramError::AuthenticationFailed(e) => write!(f, "authentication failed: {e}"),
            GramError::AuthorizationFailed(dn) => write!(f, "no gridmap entry for {dn}"),
            GramError::BadRsl(e) => write!(f, "bad RSL: {e}"),
            GramError::StagingFailed(e) => write!(f, "staging failed: {e}"),
            GramError::UnknownJob => write!(f, "unknown job"),
        }
    }
}

/// Client → Gatekeeper requests.
#[derive(Debug)]
pub enum GramRequest {
    /// Submit a job (phase one of two-phase commit). `seq` is the client's
    /// sequence number: the gatekeeper deduplicates on `(DN, seq)`, so
    /// retransmissions are safe.
    Submit {
        /// Client sequence number.
        seq: u64,
        /// Requester credential (forwarded proxy).
        credential: ProxyCredential,
        /// The job, as an RSL string.
        rsl: String,
        /// Where status callbacks go (the GridManager).
        callback: Addr,
        /// The client's GASS server (executable/stdin source, stdout sink).
        gass: GassUrl,
        /// Optional capability replacing the gridmap lookup (§3.2's
        /// work-in-progress authorization mode).
        capability: Option<gsi::Capability>,
    },
    /// One client's status poll of this site, once per probe interval:
    /// each of its jobs here with the state the client believes it in, or
    /// `None` to have it answered regardless. It doubles as §4.2's
    /// gatekeeper probe: any answer shows the gatekeeper is up.
    SiteProbe {
        /// The jobs asked about.
        jobs: Vec<(JobContact, Option<GramJobState>)>,
    },
    /// Ask the gatekeeper to start a fresh JobManager for a job whose
    /// JobManager died (recovery path, §4.2).
    RestartJobManager {
        /// The job to reattach to.
        contact: JobContact,
        /// Requester credential.
        credential: ProxyCredential,
        /// New callback address (the GridManager may have moved).
        callback: Addr,
        /// New GASS server URL (may have changed across a client restart).
        gass: GassUrl,
        /// Bytes of stdout the client already holds (resume point).
        stdout_have: u64,
        /// Optional capability (as on `Submit`).
        capability: Option<gsi::Capability>,
    },
}

/// Gatekeeper → client replies.
#[derive(Debug)]
pub enum GramReply {
    /// Phase-one answer: the job was created (or found, on a duplicate
    /// request) and is waiting for commit.
    Submitted {
        /// Echo of the client's sequence number.
        seq: u64,
        /// The job's contact id.
        contact: JobContact,
        /// Address of the JobManager daemon handling it.
        jobmanager: Addr,
    },
    /// Phase-one refusal.
    SubmitFailed {
        /// Echo of the client's sequence number.
        seq: u64,
        /// Why.
        error: GramError,
    },
    /// `SiteProbe` answer: only the asked-about jobs whose JobManager is
    /// gone (`None`) or whose state is not the believed one (or was not
    /// given), so a quiet site answers with an empty list.
    SiteStatus {
        /// The jobs with news, and their live JobManager's address and
        /// state.
        changed: Vec<(JobContact, Option<(Addr, GramJobState)>)>,
    },
    /// RestartJobManager answer: new JobManager address.
    Restarted {
        /// The job.
        contact: JobContact,
        /// The fresh JobManager.
        jobmanager: Addr,
        /// The state it resumes in, from the job's log.
        state: GramJobState,
    },
    /// RestartJobManager refusal.
    RestartFailed {
        /// The job.
        contact: JobContact,
        /// Why.
        error: GramError,
    },
}

/// Client ↔ JobManager messages.
#[derive(Debug)]
pub enum JmMsg {
    /// Phase two of two-phase commit: begin execution.
    Commit,
    /// JobManager's acknowledgement of `Commit` (idempotent; clients
    /// retransmit `Commit` until they see it — a lost commit would
    /// otherwise leave the job parked in `PendingCommit` forever).
    CommitAck {
        /// The job.
        contact: JobContact,
    },
    /// Cancel the job.
    Cancel,
    /// Status callback (JobManager → client).
    Callback {
        /// The job.
        contact: JobContact,
        /// State entered.
        state: GramJobState,
        /// When the transition happened.
        at: SimTime,
    },
    /// Client → JobManager after a client-side restart: here is my new
    /// GASS URL and how much stdout I already have ("the GridManager
    /// requests the JobManager to update the file with the new address").
    UpdateGass {
        /// New GASS server URL.
        gass: GassUrl,
        /// Bytes of stdout already received by the client.
        stdout_have: u64,
    },
    /// Client acknowledges the final callback; the JobManager may exit.
    DoneAck,
    /// JobManager → its gatekeeper, sent just before exiting in lean
    /// (campaign) mode: the job reached a terminal state and the client has
    /// acknowledged it, so every per-job record at this site (dedup entry,
    /// JobManager registration, persisted log) may be reclaimed.
    Exited {
        /// The finished job.
        contact: JobContact,
    },
    /// Re-forward a refreshed proxy (§4.3: "it also needs to re-forward
    /// the refreshed proxy to the remote GRAM server").
    RefreshCredential {
        /// The refreshed delegation.
        credential: ProxyCredential,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::codec::{from_bytes, to_bytes};

    /// Every GRAM state, byte for byte in the varint layout.
    #[test]
    fn gram_state_bytes_are_pinned() {
        use GramJobState::*;
        let states = [
            PendingCommit,
            StageIn,
            Pending,
            Active,
            StageOut,
            Done,
            Failed,
            Removed,
        ];
        let bytes = to_bytes(&states.to_vec());
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "080001020304050607");
        assert_eq!(from_bytes::<Vec<GramJobState>>(&bytes).unwrap(), states);
    }

    #[test]
    fn unknown_gram_state_indices_are_refused() {
        for index in [8u32, u32::MAX] {
            assert!(from_bytes::<GramJobState>(&to_bytes(&index)).is_err());
        }
    }
}
