//! E3 — Experience 3: GridGaussian's G-Cat.
//!
//! "First, the output should be reliably stored at MSS when the job
//! completes. Second, the users should be able to view the output as it
//! is produced... G-Cat hides network performance variations from
//! Gaussian by using local scratch storage as a buffer."
//!
//! Two comparisons:
//! 1. Mid-run visibility: bytes viewable at MSS over time while the job
//!    still runs (vs. classic stage-at-completion: zero until the end).
//! 2. The buffering claim: under a slow/lossy WAN, the producing job
//!    never blocks (scratch absorbs bursts) and everything still lands.

use bench::report;
use condor_g_suite::gass::gcat::{GCat, GCatFeed};
use condor_g_suite::gass::{FileData, GassServer};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::{Config, World};
use condor_g_suite::gsi::CertificateAuthority;
use workloads::stats::Table;

/// Gaussian produces a burst per minute for two hours.
struct Producer {
    gcat: Addr,
    bytes_per_burst: u64,
}

impl Component for Producer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..120u64 {
            ctx.set_timer(Duration::from_mins(i + 1), i);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        ctx.send_local(
            self.gcat,
            GCatFeed(FileData::bulk(self.bytes_per_burst, tag)),
        );
    }
}

struct RunResult {
    /// `(minute, MB visible)` samples.
    timeline: Vec<(u64, f64)>,
    final_mb: f64,
    chunks: u64,
    retries: u64,
}

fn run(wan_loss: f64, wan_bw: f64, seed: u64) -> RunResult {
    let mut ca = CertificateAuthority::new("/CN=CA", 3);
    let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
    let cred = id.new_proxy(SimTime::ZERO, Duration::from_days(2));
    let mut w = World::new(Config::default().seed(seed));
    let exec = w.add_node("exec.site.edu");
    let mss_node = w.add_node("mss.ncsa.edu");
    let mss = w.add_component(mss_node, "mss", GassServer::new(ca.trust_root()));
    w.network_mut().set_link_loss(exec, mss_node, wan_loss);
    w.network_mut().set_link_bandwidth(exec, mss_node, wan_bw);
    let gcat = w.add_component(exec, "gcat", GCat::new(mss, "/mss/jane/g98.out", cred));
    w.add_component(
        exec,
        "gaussian",
        Producer {
            gcat,
            bytes_per_burst: 400_000,
        },
    );
    let mut timeline = Vec::new();
    for minute in (10..=180).step_by(10) {
        w.run_until(SimTime::ZERO + Duration::from_mins(minute));
        let visible: u64 = w
            .store()
            .get(mss_node, "gass/size/mss/jane/g98.out")
            .unwrap_or(0);
        timeline.push((minute, visible as f64 / 1e6));
    }
    w.run_until(SimTime::ZERO + Duration::from_hours(6));
    let final_b: u64 = w
        .store()
        .get(mss_node, "gass/size/mss/jane/g98.out")
        .unwrap_or(0);
    RunResult {
        timeline,
        final_mb: final_b as f64 / 1e6,
        chunks: w.metrics().counter("gcat.chunks"),
        retries: w.metrics().counter("gcat.retries"),
    }
}

fn main() {
    // Network conditions: clean LAN-ish WAN vs a degraded one.
    let clean = run(0.0, 1.25e6, 1);
    let rough = run(0.05, 200_000.0, 1);

    let mut t = Table::new(&[
        "minute",
        "produced (MB)",
        "visible, clean WAN (MB)",
        "visible, degraded WAN (MB)",
    ]);
    for (i, &(minute, clean_mb)) in clean.timeline.iter().enumerate() {
        let produced = (minute.min(120) * 400_000) as f64 / 1e6;
        let rough_mb = rough.timeline[i].1;
        t.row(&[
            format!("{minute}"),
            format!("{produced:.1}"),
            format!("{clean_mb:.1}"),
            format!("{rough_mb:.1}"),
        ]);
    }
    report(
        "E3: G-Cat partial-chunk streaming to MSS (48 MB over 120 minutes of Gaussian output)",
        "output is viewable at MSS while the job runs, and reliably complete at the end, \
         with local scratch hiding network variation from the application",
        &t,
    );
    let mut t = Table::new(&["WAN", "final MB at MSS", "chunks", "retries"]);
    t.row(&[
        "clean (1.25 MB/s)".into(),
        format!("{:.1}", clean.final_mb),
        format!("{}", clean.chunks),
        format!("{}", clean.retries),
    ]);
    t.row(&[
        "degraded (0.2 MB/s, 5% loss)".into(),
        format!("{:.1}", rough.final_mb),
        format!("{}", rough.chunks),
        format!("{}", rough.retries),
    ]);
    println!("{}", t.render());
    assert!((clean.final_mb - 48.0).abs() < 0.1);
    assert!(
        (rough.final_mb - 48.0).abs() < 0.1,
        "degraded WAN lost data: {}",
        rough.final_mb
    );
    // Mid-run visibility on both networks.
    assert!(clean.timeline[5].1 > 20.0);
    println!(
        "reliability: the full 48.0 MB reached MSS on both networks; mid-run reads worked on both."
    );
}
