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
//! | `flight.cgfr` | — | flight dump, on the first anomaly |
//!
//! A Perfetto view of a simulator run is
//! `condor-g-trace convert DIR/trace.jsonl --perfetto-out FILE`.

use gridsim::obs::{grid_weather, json_snapshot, prometheus_snapshot, weather_json};
use gridsim::prelude::*;
use std::io;
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

    /// Write `metrics.json`, `metrics.prom` and `weather.json` from the
    /// world's metrics sink at the current sim time.
    pub fn write_snapshots(&self, world: &World) -> io::Result<()> {
        let (metrics, now) = (world.metrics(), world.now());
        std::fs::write(self.file("metrics.json"), json_snapshot(metrics, now))?;
        std::fs::write(self.file("metrics.prom"), prometheus_snapshot(metrics, now))?;
        std::fs::write(
            self.file("weather.json"),
            weather_json(&grid_weather(metrics)),
        )
    }
}
