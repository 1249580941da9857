//! Run bundles: what `--report-dir DIR` writes.
//!
//! Both binaries have this one output option and write a fixed set of
//! files under fixed names, so a run's artifacts are found the same way
//! every time:
//!
//! | file | `condor-g-sim` | `condor-g-campaign` |
//! |---|---|---|
//! | `trace.jsonl` | every trace record ([`gridsim::trace::jsonl`]) | — |
//! | `telemetry.jsonl` | one heartbeat per [`HEARTBEAT`] | heartbeats and anomalies |
//! | `metrics.json`, `metrics.prom` | end-of-run metrics snapshot | the same |
//! | `weather.json` | every site's final weather row | the same |
//! | `profile.txt` | kernel profiler summary | — |
//! | `flight.jsonl` | — | flight dump, on the first anomaly |
//!
//! Every `.jsonl` file is written by one [`JsonlWriter`]. `flight.jsonl`
//! holds trace lines, like `trace.jsonl`; its reason, anchor and time are
//! the first `"anomaly"` line of `telemetry.jsonl`. A Perfetto view of
//! either is `condor-g-trace convert DIR/trace.jsonl --perfetto-out FILE`
//! (or `DIR/flight.jsonl`). A bundle file that cannot be written fails
//! the run.

use gridsim::obs::{grid_weather, json_snapshot, prometheus_snapshot, weather_json, JsonlWriter};
use gridsim::prelude::*;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// Sim time between two telemetry heartbeats, and the step both binaries
/// advance a run by.
pub const HEARTBEAT: Duration = Duration::from_mins(10);

/// A report directory that exists.
#[derive(Debug)]
pub struct ReportDir {
    dir: PathBuf,
}

impl ReportDir {
    /// Create `dir` and any missing parents.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<ReportDir> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ReportDir { dir })
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of bundle file `name`.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Create (truncate) bundle file `name` as a line stream.
    pub fn jsonl(&self, name: &str) -> io::Result<JsonlWriter<BufWriter<File>>> {
        JsonlWriter::create(self.file(name)).map_err(|e| self.named(name, e))
    }

    /// `flushed`, the flush of bundle file `name`'s stream, with an error
    /// that names the file.
    pub fn check(&self, name: &str, flushed: io::Result<()>) -> io::Result<()> {
        flushed.map_err(|e| self.named(name, e))
    }

    fn named(&self, name: &str, e: io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("{}: {e}", self.file(name).display()))
    }

    /// Write bundle file `name` whole.
    pub fn write(&self, name: &str, contents: String) -> io::Result<()> {
        std::fs::write(self.file(name), contents).map_err(|e| self.named(name, e))
    }

    /// Write `metrics.json`, `metrics.prom` and `weather.json` from the
    /// world's metrics sink at the current sim time.
    pub fn write_snapshots(&self, world: &World) -> io::Result<()> {
        let (metrics, now) = (world.metrics(), world.now());
        self.write("metrics.json", json_snapshot(metrics, now))?;
        self.write("metrics.prom", prometheus_snapshot(metrics, now))?;
        self.write("weather.json", weather_json(&grid_weather(metrics)))
    }
}
