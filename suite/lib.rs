#![warn(missing_docs)]
//! Umbrella crate for the Condor-G reproduction suite.
//!
//! Re-exports every workspace crate and provides [`harness`], the shared
//! testbed builder used by the integration tests, the runnable examples,
//! and the experiment binaries: it assembles a complete simulated grid —
//! CA, user, submit machine (Scheduler + GASS + mailer + optional personal
//! pool), execution sites (gatekeeper + batch scheduler + GRIS), MDS index,
//! MyProxy — from a declarative description. [`campaign`] is the run loop
//! of `condor-g-campaign`, and [`report`] the bundle both binaries write
//! under `--report-dir`.

pub use classads;
pub use condor;
pub use condor_g;
pub use gass;
pub use gram;
pub use gridsim;
pub use gsi;
pub use mds;
pub use site;
pub use workloads;

pub mod campaign;
pub mod harness;
pub mod report;
