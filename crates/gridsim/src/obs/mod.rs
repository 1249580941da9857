//! Observability: trace subscribers, job-lifecycle spans, metrics export,
//! and the kernel profiler.
//!
//! The paper's results are observations — protocol ladders (Figures 1–2),
//! CPU-hour integrals, failure/retry counts from week-long campaigns. This
//! module family turns the kernel's raw trace and metrics sinks into those
//! artifacts:
//!
//! * [`subscriber`] — the streaming [`JsonlWriter`], a
//!   [`crate::trace::TraceSubscriber`] writing [`crate::trace::jsonl`]
//!   lines, and the one writer of every JSONL file a run leaves; with the
//!   bounded [`FlightRecorder`] ring ([`flight`]), tracing stays on for
//!   long campaigns with bounded memory. Everything here consumes and
//!   produces the one record type, [`crate::trace::TraceEvent`].
//! * [`span`] — the [`SpanCollector`] stitches `"span"` milestone events
//!   into per-job submit → auth → commit → stage-in → queue → execute →
//!   stage-out → terminal timelines, renders the generalized Figure-1
//!   ladder, and reports per-phase duration histograms into
//!   [`crate::metrics::Metrics`]. It is the only stitcher: the flight
//!   recorder, the offline forensics and the Perfetto export read it (and
//!   [`span::field`], [`span::phase_between`]) instead of re-deriving
//!   the joins.
//! * [`export`] — Prometheus-text and JSON snapshots of the metrics sink.
//! * [`profiler`] — per-component event counts and handler wall time,
//!   event-queue depth as a time series, events/sec summary.
//! * [`causality`] — rebuilds the happens-before DAG from the `(id,
//!   cause)` pairs the kernel stamps on every trace record; the offline
//!   `condor-g-trace` forensics analyzer runs the same reconstruction on
//!   exported JSONL.
//! * [`weather`] — walks the sites the protocol components declared with
//!   [`crate::metrics::Metrics::site`] into a per-site grid-weather table
//!   (success rate, queue depth, median LRM wait, commit-timeout rate),
//!   and runs the [`SiteHealthTracker`] quarantine state machine brokers
//!   consult to steer work away from sick sites; the tracker reads the
//!   same handles and builds no table.

pub mod causality;
pub mod export;
pub mod flight;
pub mod profiler;
pub mod span;
pub mod subscriber;
pub mod weather;

pub use causality::{CausalDag, DagNode};
pub use export::{json_snapshot, json_string, prometheus_snapshot};
pub use flight::{
    anomaly_line, site_aggregates, telemetry_line, Anomaly, AnomalyDetector, AnomalyKind,
    FlightRecorder, TelemetrySample,
};
pub use profiler::{CompProfile, Profiler};
pub use span::{AttemptSpan, JobSpan, SpanCollector, SpanPhase, PHASES, SPAN_KIND};
pub use subscriber::JsonlWriter;
pub use weather::{
    grid_weather, render_top, site_weather, weather_json, HealthAction, HealthEvent,
    SiteHealthTracker, SiteState, SiteWeather,
};
