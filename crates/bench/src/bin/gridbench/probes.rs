//! Layer probes: the layers that are libraries, not components, never show
//! up in the kernel profiler, so each is timed from outside for about
//! a second. The kernel probes mirror `bench_baseline`'s timer storm and
//! 8-pair ping-pong (copied, not imported, so that file can change freely).

use crate::stats::Summary;
use condor_g_suite::classads::{rank, symmetric_match, ClassAd};
use condor_g_suite::gram::{rsl, RslSpec};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gsi::CertificateAuthority;
use std::hint::black_box;
use std::time::Instant;

/// Wall-clock budget per probe.
const PROBE_SECS: f64 = 1.0;

/// Repeat `chunk` (which does `units` units of work) until the budget is
/// spent; return the median seconds per unit over the chunks.
fn secs_per_unit(units: u64, mut chunk: impl FnMut()) -> f64 {
    chunk();
    let started = Instant::now();
    let mut samples = Vec::new();
    while started.elapsed().as_secs_f64() < PROBE_SECS || samples.len() < 3 {
        let t0 = Instant::now();
        chunk();
        samples.push(t0.elapsed().as_secs_f64() / units as f64);
    }
    Summary::of(&samples).median
}

struct TimerStorm {
    fanout: u32,
}

impl Component for TimerStorm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for tag in 0..self.fanout {
            ctx.set_timer(Duration::from_millis(1 + u64::from(tag)), u64::from(tag));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        ctx.set_timer(Duration::from_millis(1 + (tag % 16)), tag);
    }
}

struct Echo {
    peer: Option<Addr>,
}

#[derive(Debug)]
struct Token;

impl Component for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, Token);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, _msg: AnyMsg) {
        ctx.send(from, Token);
    }
}

fn timer_storm(events: u64) {
    let mut w = World::new(Config::default().seed(1).max_events(events));
    let n = w.add_node("n");
    w.add_component(n, "storm", TimerStorm { fanout: 64 });
    w.run_until_quiescent();
    assert_eq!(w.events_processed(), events);
}

fn ping_pong_ring(events: u64) {
    let mut w = World::new(Config::default().seed(2).max_events(events));
    for i in 0..8 {
        let na = w.add_node(&format!("a{i}"));
        let nb = w.add_node(&format!("b{i}"));
        let pong = w.add_component(nb, "pong", Echo { peer: None });
        w.add_component(na, "ping", Echo { peer: Some(pong) });
    }
    w.run_until_quiescent();
    assert_eq!(w.events_processed(), events);
}

fn machine_ad(i: usize) -> ClassAd {
    ClassAd::new()
        .with("Name", format!("vm{i}.cs.wisc.edu").as_str())
        .with(
            "Arch",
            if i.is_multiple_of(3) {
                "INTEL"
            } else {
                "SUN4u"
            },
        )
        .with("OpSys", "LINUX")
        .with("Memory", (64 + (i % 8) * 32) as i64)
        .with("Mips", (200 + i % 500) as i64)
        .with("State", "Unclaimed")
        .with_parsed("Requirements", "TARGET.ImageSize <= MY.Memory * 1024")
        .with_parsed("Rank", "TARGET.Owner == \"jane\" ? 10 : 0")
}

fn job_ad() -> ClassAd {
    ClassAd::new()
        .with("Owner", "jane")
        .with("ImageSize", 48_000i64)
        .with_parsed(
            "Requirements",
            "TARGET.Arch == \"INTEL\" && TARGET.OpSys == \"LINUX\" && TARGET.Memory >= 64",
        )
        .with_parsed("Rank", "TARGET.Mips")
}

/// All five probes, as `(per-layer metric name, value)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    const KERNEL_EVENTS: u64 = 200_000;
    let timers = 1.0 / secs_per_unit(KERNEL_EVENTS, || timer_storm(KERNEL_EVENTS));
    let ring = 1.0 / secs_per_unit(KERNEL_EVENTS, || ping_pong_ring(KERNEL_EVENTS));

    let job = job_ad();
    let machines: Vec<ClassAd> = (0..1000).map(machine_ad).collect();
    let ads = 1.0
        / secs_per_unit(machines.len() as u64, || {
            let mut best = f64::NEG_INFINITY;
            for machine in &machines {
                if symmetric_match(&job, machine) {
                    best = best.max(rank(&job, machine));
                }
            }
            black_box(best);
        });

    let mut ca = CertificateAuthority::new("/CN=Probe CA", 1);
    let trust = ca.trust_root();
    let identity = ca.issue_identity("/CN=jane", Duration::from_days(30));
    let now = SimTime::ZERO + Duration::from_hours(1);
    // Depth 3: the user's proxy, delegated to the agent, delegated to a
    // JobManager.
    let chain = identity
        .new_proxy(SimTime::ZERO, Duration::from_days(1))
        .delegate(SimTime::ZERO, Duration::from_hours(12))
        .delegate(SimTime::ZERO, Duration::from_hours(6));
    assert_eq!(chain.verify(now, &trust).as_deref(), Ok("/CN=jane"));
    const VERIFIES: u64 = 2_000;
    let verify_ns = 1e9
        * secs_per_unit(VERIFIES, || {
            for _ in 0..VERIFIES {
                black_box(black_box(&chain).verify(now, &trust).is_ok());
            }
        });

    let spec = RslSpec::job("gass://submit/home/jane/app.exe", Duration::from_secs(1800))
        .with_count(4)
        .with_stdout("gass://submit/out/job.stdout", 4096)
        .with_max_wall_minutes(45)
        .with_env("SWEEP_POINT", "17");
    assert_eq!(rsl::parse(&spec.to_string()).as_ref(), Ok(&spec));
    const ROUNDTRIPS: u64 = 2_000;
    let rsl_ns = 1e9
        * secs_per_unit(ROUNDTRIPS, || {
            for _ in 0..ROUNDTRIPS {
                black_box(rsl::parse(&black_box(&spec).to_string()).is_ok());
            }
        });

    vec![
        ("gridsim.probe_timer_events_per_s", timers),
        ("gridsim.probe_ring_events_per_s", ring),
        ("classads.probe_match_ads_per_s", ads),
        ("gsi.probe_chain_verify_ns", verify_ns),
        ("gram.probe_rsl_roundtrip_ns", rsl_ns),
    ]
}
