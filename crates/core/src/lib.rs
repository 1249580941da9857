#![warn(missing_docs)]
//! `condor-g` — the computation management agent (the paper's primary
//! contribution, §4–§5).
//!
//! Condor-G gives one user a *personal* single access point to every grid
//! resource they are authorized to use: submit, query, cancel, logs and
//! notifications all behave like a local batch system, while behind the
//! scenes the agent speaks GRAM/GASS/GSI/MDS to remote sites, survives
//! every failure mode the paper enumerates, and manages credential
//! lifetimes. The pieces:
//!
//! * [`api`] — the user-facing job language and status model ("There is
//!   nothing new or special about the semantics of these capabilities...
//!   one of the main objectives is to preserve the look and feel of a
//!   local resource manager").
//! * [`scheduler`] — the Scheduler daemon: the persistent job queue
//!   (Figure 1's "Persistent Job Queue"), the user command endpoint, and
//!   the supervisor that creates one [`gridmanager::GridManager`] per user.
//! * [`gridmanager`] — submits and manages jobs through the revised
//!   two-phase-commit GRAM protocol, probes JobManagers, distinguishes
//!   the paper's four failure classes and recovers from each, resubmits
//!   failed jobs, and manages credential lifetimes (§4.3): periodic proxy
//!   analysis, alarms, hold-and-email on expiry, the MyProxy auto-refresh
//!   enhancement, and re-forwarding refreshed credentials.
//! * [`broker`] — §4.4 resource discovery and scheduling: the initial
//!   user-supplied list strategy and the MDS + matchmaking personal
//!   resource broker. The GridManager also implements §4.4's queued-job
//!   migration on top of whichever broker is active.
//! * [`glidein`] — §5: the mobile-sandboxing GlideIn factory that turns
//!   raw GRAM allocations into a personal Condor pool.
//! * [`dagman`] — inter-job dependencies (the CMS pipeline of §6 is "a
//!   two-node DAG" whose fan-out is itself DAG-controlled).
//! * [`email`] — the asynchronous user-notification channel the paper
//!   leans on for credential expiry and job termination.

pub mod api;
pub mod broker;
pub mod dagman;
pub mod email;
pub mod glidein;
pub mod gridmanager;
pub mod scheduler;

pub use api::{GridJobId, GridJobSpec, JobStatus, UserCmd, UserEvent};
pub use broker::{AdaptiveBroker, Broker, GatekeeperInfo, MdsBroker, StaticListBroker};
pub use dagman::{DagMan, DagSpec};
pub use email::Mailer;
pub use glidein::GlideinFactory;
pub use gridmanager::GridManager;
pub use scheduler::Scheduler;
