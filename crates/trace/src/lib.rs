//! Offline analyses over recorded traces.
//!
//! Every trace record carries the `(id, cause)` provenance pair the kernel
//! stamps on it. This crate takes such records — [`gridsim::trace::TraceEvent`]s
//! decoded by [`gridsim::trace::jsonl`] from a `--trace-out` file, or by
//! [`gridsim::trace::cgfr`] from a flight-recorder dump; it has no record
//! type or file format of its own — and answers the questions an operator
//! of the real Condor-G would ask after a bad week:
//!
//! * [`forensics`] — puts the happens-before DAG
//!   ([`gridsim::obs::CausalDag`]) and the per-job attempt timelines
//!   ([`gridsim::obs::SpanCollector`]) side by side and derives per-job
//!   critical paths with blame breakdowns, stuck-job reports, and
//!   root-cause attribution of resubmissions back to injected faults.
//! * [`perfetto`] — converts a trace into a Perfetto TrackEvent protobuf
//!   (hand-rolled wire format, no proto dependency): per-job/site/component
//!   tracks, phase slices, cause→effect flows, and critical-path
//!   annotations, loadable at ui.perfetto.dev.
//!
//! The `condor-g-trace` binary is a thin CLI over these modules.

pub mod forensics;
pub mod perfetto;

pub use forensics::{Attribution, CriticalPath, Forensics, JobForensics, StuckJob};
pub use perfetto::{decode as perfetto_decode, encode as perfetto_encode, Summary};
