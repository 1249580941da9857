//! X6 — the §7 related-work comparison with Condor flocking.
//!
//! "The major difference between Condor flocking and Condor-G is that
//! Condor-G allows inter-domain operation on remote resources that require
//! authentication, and uses standard protocols that provide access to
//! resources controlled by other resource management systems, rather than
//! the special-purpose sharing mechanisms of Condor."
//!
//! The grid: the user's home Condor pool (16 CPUs), a friendly remote
//! Condor pool (32 CPUs) that flocks with home, a PBS cluster (64 CPUs)
//! and an LSF machine (32 CPUs) behind GSI gatekeepers. Flocking can use
//! the two Condor pools only; Condor-G (glideins over GRAM) reaches all
//! 144 CPUs.

use bench::report;
use condor_g_suite::classads::ClassAd;
use condor_g_suite::condor::{Collector, Negotiator, Schedd, Startd};
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use workloads::stats::Table;

const JOBS: usize = 144;
const JOB_HOURS: u64 = 2;

struct Outcome {
    done: u64,
    makespan_h: f64,
    cpus_reached: u32,
}

/// Condor-G: glideins across every site (including the Condor pools,
/// which Condor-G reaches through their gatekeepers like anything else).
fn run_condor_g() -> Outcome {
    let mut tb = build(TestbedConfig {
        seed: 666,
        sites: vec![
            SiteSpec::condor_pool("home-pool", 16),
            SiteSpec::condor_pool("remote-pool", 32),
            SiteSpec::pbs("pbs-cluster", 64),
            SiteSpec::lsf("lsf-super", 32),
        ],
        with_personal_pool: true,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(36, Duration::from_hours(12));
    let spec = GridJobSpec::pool(
        "task",
        "/home/jane/worker.exe",
        Duration::from_hours(JOB_HOURS),
    );
    let console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(3));
    let m = tb.world.metrics();
    Outcome {
        done: m.counter("condor_g.jobs_done"),
        makespan_h: m
            .series("condor_g.done_over_time")
            .and_then(|ts| ts.last_at())
            .map(|t| t.as_hours_f64())
            .unwrap_or(f64::NAN),
        cpus_reached: 144,
    }
}

/// Flocking baseline: a raw condor world — home pool + remote pool with
/// the schedd flocked to both collectors. The PBS/LSF resources exist but
/// are unreachable (different administrative domains, no shared Condor).
fn run_flocking() -> Outcome {
    let mut w = gridsim::World::new(gridsim::Config::default().seed(666));
    let home = w.add_node("home-central");
    let remote = w.add_node("remote-central");
    let submit = w.add_node("submit");
    let home_collector = w.add_component(home, "collector", Collector::new());
    w.add_component(home, "negotiator", Negotiator::new(home_collector));
    let remote_collector = w.add_component(remote, "collector", Collector::new());
    w.add_component(remote, "negotiator", Negotiator::new(remote_collector));
    let machine_ad = || ClassAd::new().with("Arch", "INTEL").with("OpSys", "LINUX");
    for i in 0..16 {
        let n = w.add_node(&format!("home-exec{i}"));
        w.add_component(
            n,
            "startd",
            Startd::new(&format!("home{i}"), machine_ad(), home_collector),
        );
    }
    for i in 0..32 {
        let n = w.add_node(&format!("remote-exec{i}"));
        w.add_component(
            n,
            "startd",
            Startd::new(&format!("remote{i}"), machine_ad(), remote_collector),
        );
    }
    let schedd = w.add_component(
        submit,
        "schedd",
        Schedd::new("jane@submit", vec![home_collector, remote_collector]),
    );
    struct User {
        schedd: Addr,
    }
    impl Component for User {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..JOBS {
                ctx.send(
                    self.schedd,
                    condor_g_suite::condor::PoolSubmit {
                        client_id: i as u64,
                        ad: ClassAd::new()
                            .with("Owner", "jane")
                            .with("TotalWork", (JOB_HOURS * 3600) as i64),
                    },
                );
            }
        }
    }
    w.add_component(submit, "user", User { schedd });
    w.run_until(SimTime::ZERO + Duration::from_days(3));
    let m = w.metrics();
    let done = m.counter("schedd.completed");
    // Makespan from the busy gauge.
    let makespan = m
        .series("condor.busy_startds")
        .and_then(|s| {
            s.points()
                .iter()
                .rev()
                .find(|&&(_, v)| v > 0.0)
                .map(|&(t, _)| t.as_hours_f64())
        })
        .unwrap_or(f64::NAN);
    Outcome {
        done,
        makespan_h: makespan,
        cpus_reached: 48,
    }
}

fn main() {
    let flocking = run_flocking();
    let condor_g = run_condor_g();
    let mut t = Table::new(&[
        "system",
        "CPUs reachable",
        "jobs done",
        "makespan (h)",
        "why",
    ]);
    t.row(&[
        "Condor flocking".into(),
        format!("{}/144", flocking.cpus_reached),
        format!("{}/{JOBS}", flocking.done),
        format!("{:.1}", flocking.makespan_h),
        "only Condor pools flock; PBS/LSF domains unreachable".into(),
    ]);
    t.row(&[
        "Condor-G (GRAM + glideins)".into(),
        format!("{}/144", condor_g.cpus_reached),
        format!("{}/{JOBS}", condor_g.done),
        format!("{:.1}", condor_g.makespan_h),
        "standard protocols + GSI reach every domain".into(),
    ]);
    report(
        &format!(
            "X6: Condor flocking vs Condor-G ({JOBS} two-hour jobs; 144 CPUs exist across 4 domains)"
        ),
        "flocking is limited to Condor's own sharing mechanisms; Condor-G reaches resources managed by other systems through standard, authenticated protocols",
        &t,
    );
}
