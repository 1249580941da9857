//! The GridGaussian portal (Experience 3, paper §6): Gaussian-style jobs
//! run on GlideIn resources while G-Cat streams their growing output to a
//! Mass Storage System as partial chunks — so the user can view results
//! *while the job still runs*, buffered through local scratch so network
//! hiccups never stall the application.
//!
//! ```text
//! cargo run --release --example grid_gaussian
//! ```

use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gass::gcat::{GCat, GCatFeed};
use condor_g_suite::gass::{FileData, GassServer};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::AnyMsg;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use condor_g_suite::workloads::stats::Table;

/// A "Gaussian98" process: produces output bursts into G-Cat's scratch
/// buffer for `bursts` minutes.
struct Gaussian {
    gcat: Addr,
    bursts: u64,
    bytes_per_burst: u64,
}

impl Component for Gaussian {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.bursts {
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

/// Polls the MSS for how much of the output a portal user could read.
struct PortalViewer {
    mss_node: NodeId,
    samples: Vec<(u64, u64)>, // (minute, visible bytes)
}

impl Component for PortalViewer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_mins(10), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
        let visible: u64 = ctx
            .store()
            .get(self.mss_node, "gass/size/mss/jane/g98.out")
            .unwrap_or(0);
        let minute = ctx.now().micros() / 60_000_000;
        self.samples.push((minute, visible));
        let node = ctx.node();
        let samples = self.samples.clone();
        ctx.store().put(node, "viewer/samples", &samples);
        if minute < 180 {
            ctx.set_timer(Duration::from_mins(10), 0);
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {}
}

fn main() {
    let mut tb = build(TestbedConfig {
        seed: 98,
        sites: vec![SiteSpec::pbs("compute", 16)],
        with_personal_pool: true,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(4, Duration::from_hours(8));

    // The MSS is its own storage site.
    let mss_node = tb.world.add_node("mss.ncsa.edu");
    let trust = {
        // Rebuild the trust root the harness used (same CA seed recipe).
        let mut ca = condor_g_suite::gsi::CertificateAuthority::new("/CN=Globus CA", 98 ^ 0xCA);
        let _ = ca.issue_identity("/CN=jane", Duration::from_days(3650));
        ca.trust_root()
    };
    let mss = tb
        .world
        .add_component(mss_node, "mss", GassServer::new(trust));

    // A 2-hour Gaussian job runs on a glidein; its stdout goes through
    // G-Cat on the execution site to the MSS.
    let exec_node = tb.sites[0].cluster;
    let gcat = tb.world.add_component(
        exec_node,
        "gcat",
        GCat::new(mss, "/mss/jane/g98.out", tb.proxy.clone()),
    );
    tb.world.add_component(
        exec_node,
        "gaussian",
        Gaussian {
            gcat,
            bursts: 120,
            bytes_per_burst: 400_000,
        },
    );
    // The pool job that "is" the Gaussian run, for the agent's accounting.
    let spec = GridJobSpec::pool("g98", "/home/jane/worker.exe", Duration::from_hours(2));
    let console = UserConsole::new(tb.scheduler).submit_many(1, spec);
    tb.world.add_component(tb.submit, "console", console);
    let viewer_node = tb.world.add_node("portal.ncsa.edu");
    tb.world.add_component(
        viewer_node,
        "viewer",
        PortalViewer {
            mss_node,
            samples: Vec::new(),
        },
    );

    println!("running Gaussian with G-Cat streaming to MSS...\n");
    tb.world.run_until(SimTime::ZERO + Duration::from_hours(4));

    let samples: Vec<(u64, u64)> = tb
        .world
        .store()
        .get(viewer_node, "viewer/samples")
        .unwrap_or_default();
    println!("output visible at MSS while the job runs (total output 48.0 MB over 120 min):");
    let mut t = Table::new(&["minute", "MB visible at MSS", "produced so far (MB)"]);
    for (minute, bytes) in &samples {
        let produced = (minute.min(&120) * 400_000) as f64 / 1e6;
        t.row(&[
            format!("{minute}"),
            format!("{:.1}", *bytes as f64 / 1e6),
            format!("{produced:.1}"),
        ]);
    }
    println!("{}", t.render());
    let m = tb.world.metrics();
    println!(
        "G-Cat: {} chunks shipped, {} bytes buffered through local scratch, {} retries",
        m.counter("gcat.chunks"),
        m.counter("gcat.fed_bytes"),
        m.counter("gcat.retries"),
    );
    let mid = samples
        .iter()
        .find(|(min, _)| *min >= 60)
        .map(|&(_, b)| b)
        .unwrap_or(0);
    assert!(
        mid > 10_000_000,
        "mid-run visibility failed: {mid} bytes at t=60min"
    );
    println!(
        "\nmid-run check: {:.1} MB already viewable at t=60min — the paper's requirement holds",
        mid as f64 / 1e6
    );
}
