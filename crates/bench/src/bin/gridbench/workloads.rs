//! The four campaign workloads: what each builds, at what size, and why.
//!
//! Sizes and regimes are ISSUE 13's. The grid (site count and sizes, links,
//! fault rates) is part of a workload's stated size and does not depend on
//! the seed; the job stream, the fault schedule and the kernel's own
//! randomness do.

use crate::load::{self, JobKind, LoadDriver, Outcome, StreamShape};
use condor_g_suite::condor_g::gridmanager::{GmConfig, MyProxySettings};
use condor_g_suite::gridsim::obs::FlightRecorder;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gsi::MyProxyRequest;
use condor_g_suite::harness::{
    build, paper_sites, SiteSpec, Testbed, TestbedConfig, WanLinkSpec, WanTopology,
};
use std::cell::RefCell;
use std::rc::Rc;

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it loads and what it is there to catch.
    pub why: &'static str,
    /// Jobs in one batch at full size.
    pub jobs: u64,
    /// Tracing and full retention are on (the forensic path).
    pub records_trace: bool,
    /// The only workload on which bulk data crosses shared links.
    pub moves_data: bool,
    /// Every job runs through GRAM exactly once, so LRM completions per
    /// job must stay at 1 (pilot jobs and fault recovery break the ratio).
    pub exactly_once: bool,
    /// Builds the testbed and installs the driver for `(seed, jobs)`.
    build: fn(u64, u64) -> Prepared,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "grid_stream",
        why: "steady open-loop GRAM stream, lean and untraced: core, gram and site handlers do the work",
        jobs: 100_000,
        records_trace: false,
        moves_data: false,
        exactly_once: true,
        build: grid_stream,
    },
    Workload {
        name: "glidein_mw",
        why: "closed-loop master-worker over glideins: condor matchmaking, startds and leases do the work",
        jobs: 25_000,
        records_trace: false,
        moves_data: false,
        exactly_once: false,
        build: glidein_mw,
    },
    Workload {
        name: "stagein_flow",
        why: "64 MB stage-ins over a saturated uplink: the flow network does the work, handlers almost none",
        jobs: 6_000,
        records_trace: false,
        moves_data: true,
        exactly_once: true,
        build: stagein_flow,
    },
    Workload {
        name: "chaos_forensic",
        why: "grid_stream's layers with gatekeeper crashes, partitions, full retention and the flight recorder on",
        jobs: 40_000,
        records_trace: true,
        moves_data: false,
        exactly_once: false,
        build: chaos_forensic,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--quick` divides every job count by this.
pub const QUICK_DIVISOR: u64 = 20;

/// Flight-recorder ring size on `chaos_forensic`.
const FLIGHT_RING: usize = 65_536;

/// A built testbed with the driver installed, ready to run.
pub struct Prepared {
    pub tb: Testbed,
    pub outcome: Rc<RefCell<Outcome>>,
    pub recorder: Option<FlightRecorder>,
    pub jobs: u64,
}

/// `n` PBS sites on a fixed log-uniform ladder from 16 to 512 CPUs: a few
/// large centres, many departmental clusters. The static broker deals jobs
/// round-robin, so at 100,000 half-hour jobs a day every site is offered
/// about 42 CPUs' worth of work and the bottom quarter of the ladder is
/// overloaded all day: jobs queue there for hours while the GridManager
/// polls them, which is ROADMAP item 1's events-per-job case.
fn pbs_ladder(n: usize) -> Vec<SiteSpec> {
    (0..n)
        .map(|i| {
            let frac = i as f64 / (n - 1).max(1) as f64;
            SiteSpec::pbs(&format!("site{i:03}"), (16.0 * 32f64.powf(frac)) as u32)
        })
        .collect()
}

/// Long enough that no workload but `chaos_forensic` meets a proxy expiry.
const LONG_PROXY: Duration = Duration::from_days(60);

fn install(
    mut tb: Testbed,
    kind: JobKind,
    jobs: Vec<load::Job>,
    window: usize,
    closed_loop: bool,
    recorder: Option<FlightRecorder>,
) -> Prepared {
    let count = jobs.len() as u64;
    let (driver, outcome) = LoadDriver::new(tb.scheduler, kind, jobs, window, closed_loop);
    tb.world.add_component(tb.submit, "bench-driver", driver);
    Prepared {
        tb,
        outcome,
        recorder,
        jobs: count,
    }
}

/// The paper's steady state, shared by `grid_stream` (100,000 jobs a day)
/// and `chaos_forensic` (40,000): one diurnal cycle of arrivals at
/// `secs_per_job` whatever the batch size, half-hour jobs, a quarter of the
/// arrivals opening sweep bursts.
fn campaign_shape(jobs: u64, secs_per_job: f64) -> StreamShape {
    StreamShape {
        jobs,
        arrival_secs: jobs as f64 * secs_per_job,
        mean_runtime_secs: 1_800.0,
        diurnal: 0.6,
        sweep_fraction: 0.25,
        max_sweep: 32,
    }
}

fn grid_stream(seed: u64, jobs: u64) -> Prepared {
    let tb = build(TestbedConfig {
        seed,
        sites: pbs_ladder(50),
        lean: true,
        proxy_lifetime: LONG_PROXY,
        ..TestbedConfig::default()
    });
    let stream = load::open_stream(seed, &campaign_shape(jobs, 0.864));
    install(tb, JobKind::Grid, stream, 4_096, false, None)
}

fn glidein_mw(seed: u64, tasks: u64) -> Prepared {
    let mut tb = build(TestbedConfig {
        seed,
        sites: paper_sites(),
        with_mds: true,
        mds_broker: true,
        with_personal_pool: true,
        proxy_lifetime: LONG_PROXY,
        ..TestbedConfig::default()
    });
    tb.add_glidein_factory(105, Duration::from_hours(12));
    let pool = load::task_pool(seed, tasks, 3_600.0, 0.7);
    // As many tasks outstanding as glideins asked for (10 sites x 105).
    install(tb, JobKind::PoolTask, pool, 1_050, true, None)
}

fn stagein_flow(seed: u64, jobs: u64) -> Prepared {
    let sites = 40;
    let mut links = vec![WanLinkSpec {
        name: "uplink".into(),
        capacity: 60e6,
        latency: 0.020,
    }];
    let mut site_routes = Vec::new();
    for region in 0..sites / 4 {
        let name = format!("region{region}");
        links.push(WanLinkSpec {
            name: name.clone(),
            capacity: 8e6,
            latency: 0.010,
        });
        for site in region * 4..region * 4 + 4 {
            site_routes.push((site, vec!["uplink".to_string(), name.clone()]));
        }
    }
    let tb = build(TestbedConfig {
        seed,
        sites: (0..sites)
            .map(|i| SiteSpec::pbs(&format!("site{i:03}"), 64))
            .collect(),
        lean: true,
        proxy_lifetime: LONG_PROXY,
        wan: Some(WanTopology { links, site_routes }),
        exe_size: 64_000_000,
        ..TestbedConfig::default()
    });
    // 64 MB per job against 60 MB/s carries 0.94 jobs/s. Arrivals at 1.67
    // jobs/s (6,000 in an hour) keep the window of 256 full, so some 200
    // flows share the uplink at any time and every start or finish rescales
    // all of them. Spread over ISSUE 13's two hours (0.83 jobs/s) the uplink
    // is not saturated: 1.5 flow_done events per flow instead of 1,300.
    let stream = load::open_stream(
        seed,
        &StreamShape {
            jobs,
            arrival_secs: jobs as f64 * 0.6,
            mean_runtime_secs: 300.0,
            diurnal: 0.0,
            sweep_fraction: 0.0,
            max_sweep: 0,
        },
    );
    install(tb, JobKind::Grid, stream, 256, false, None)
}

fn chaos_forensic(seed: u64, jobs: u64) -> Prepared {
    let config = |gm: GmConfig| TestbedConfig {
        seed,
        sites: pbs_ladder(50),
        lean: false,
        adaptive: true,
        with_myproxy: true,
        proxy_lifetime: Duration::from_hours(6),
        gm,
        ..TestbedConfig::default()
    };
    // The GridManager needs the MyProxy server's address before the
    // testbed that contains the server exists, so build twice, as
    // `exp_credentials` does.
    let server = build(config(GmConfig::default()))
        .myproxy
        .expect("testbed built with a MyProxy server");
    let mut tb = build(config(GmConfig {
        myproxy: Some(MyProxySettings {
            server,
            account: "jane".into(),
            passphrase: 99,
            lifetime: Duration::from_hours(6),
            refresh_before: Duration::from_mins(30),
        }),
        ..GmConfig::default()
    }));
    assert_eq!(tb.myproxy, Some(server), "testbed layout is deterministic");
    tb.world.post(
        server,
        MyProxyRequest::Store {
            user: "jane".into(),
            passphrase: 99,
            credential: tb.identity.new_proxy(SimTime::ZERO, LONG_PROXY),
        },
    );

    let recorder = FlightRecorder::new(FLIGHT_RING);
    tb.world.trace_mut().subscribe(Box::new(recorder.clone()));

    let shape = campaign_shape(jobs, 2.16);
    let arrival = Duration::from_secs_f64(shape.arrival_secs);
    let gatekeepers: Vec<NodeId> = tb.sites.iter().map(|s| s.interface).collect();
    let mut fault_rng = SimRng::new(seed ^ 0x6368_616f);
    let mut plan = FaultPlan::random_crashes(
        &mut fault_rng,
        &gatekeepers,
        Duration::from_hours(8),
        Duration::from_mins(20),
        SimTime::ZERO + arrival * 1.25,
    );
    let half: Vec<NodeId> = tb.sites[..tb.sites.len() / 2]
        .iter()
        .flat_map(|s| [s.interface, s.cluster])
        .collect();
    for quarter in [1.0, 2.0] {
        plan = plan.partition_window(
            vec![tb.submit],
            half.clone(),
            SimTime::ZERO + arrival * (quarter / 4.0),
            Duration::from_mins(15),
        );
    }
    tb.world.apply_fault_plan(&plan.sorted());

    let stream = load::open_stream(seed, &shape);
    install(tb, JobKind::Grid, stream, 4_096, false, Some(recorder))
}

impl Workload {
    /// Build the testbed, generate the job stream from `seed` and install
    /// the driver. Everything here is set-up; the timed region is the run
    /// that follows.
    pub fn prepare(&self, seed: u64, quick: bool) -> Prepared {
        let jobs = if quick {
            self.jobs / QUICK_DIVISOR
        } else {
            self.jobs
        };
        (self.build)(seed, jobs)
    }
}
