//! The shared testbed: builds complete simulated grids.

use classads::ClassAd;
use condor::{Collector, Negotiator, Schedd};
use condor_g::api::{GridJobId, GridJobSpec, JobStatus};
use condor_g::glidein::GlideinSite;
use condor_g::gridmanager::GmConfig;
use condor_g::scheduler::SchedulerConfig;
use condor_g::{
    AdaptiveBroker, Broker, GatekeeperInfo, GlideinFactory, Mailer, MdsBroker, Scheduler,
    StaticListBroker, UserCmd, UserEvent,
};
use gass::GassServer;
use gram::Gatekeeper;
use gridsim::obs::{HealthPolicy, SiteHealthTracker};
use gridsim::prelude::*;
use gridsim::rng::Dist;
use gridsim::world::BootCtx;
use gridsim::AnyMsg;
use gsi::{CertificateAuthority, GridMap, Identity, MyProxyServer, ProxyCredential};
use mds::{addr_to_attr, Giis, Gris};
use site::lrm::ChurnModel;
use site::policy::{EasyBackfill, FairShare, Fifo, SchedPolicy};
use site::Lrm;
use std::collections::BTreeMap;

/// Which batch system a site runs (paper: "PBS, Condor, LSF, LoadLeveler,
/// NQE, etc.").
#[derive(Clone, Debug, PartialEq)]
pub enum SiteKind {
    /// PBS-like: EASY backfill.
    Pbs,
    /// LSF-like: fair share.
    Lsf,
    /// LoadLeveler-like: backfill (IBM's scheduler behaved like EASY for
    /// our purposes).
    LoadLeveler,
    /// NQE-like: strict FIFO.
    Nqe,
    /// A Condor pool shared with desktop owners: FIFO + churn.
    CondorPool {
        /// Mean seconds between owner-activity changes.
        churn_mean_secs: f64,
        /// Mean processors owner-occupied at any time.
        reclaimed_mean: f64,
    },
}

/// Description of one execution site.
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// Site name.
    pub name: String,
    /// Processors.
    pub cpus: u32,
    /// Scheduler flavour.
    pub kind: SiteKind,
    /// Site wall-clock limit for jobs.
    pub wall_limit: Option<Duration>,
    /// Machine architecture advertised via MDS/glideins.
    pub arch: String,
}

impl SiteSpec {
    /// A PBS-like site.
    pub fn pbs(name: &str, cpus: u32) -> SiteSpec {
        SiteSpec {
            name: name.to_string(),
            cpus,
            kind: SiteKind::Pbs,
            wall_limit: None,
            arch: "INTEL".into(),
        }
    }

    /// An LSF-like site.
    pub fn lsf(name: &str, cpus: u32) -> SiteSpec {
        SiteSpec {
            kind: SiteKind::Lsf,
            ..SiteSpec::pbs(name, cpus)
        }
    }

    /// A LoadLeveler-like site.
    pub fn loadleveler(name: &str, cpus: u32) -> SiteSpec {
        SiteSpec {
            kind: SiteKind::LoadLeveler,
            ..SiteSpec::pbs(name, cpus)
        }
    }

    /// An NQE-like site (strict FIFO).
    pub fn nqe(name: &str, cpus: u32) -> SiteSpec {
        SiteSpec {
            kind: SiteKind::Nqe,
            ..SiteSpec::pbs(name, cpus)
        }
    }

    /// A Condor-pool site with owner churn.
    pub fn condor_pool(name: &str, cpus: u32) -> SiteSpec {
        SiteSpec {
            kind: SiteKind::CondorPool {
                churn_mean_secs: 3600.0,
                reclaimed_mean: cpus as f64 * 0.55,
            },
            ..SiteSpec::pbs(name, cpus)
        }
    }

    /// Builder: wall limit.
    pub fn with_wall_limit(mut self, limit: Duration) -> SiteSpec {
        self.wall_limit = Some(limit);
        self
    }

    /// Builder: architecture.
    pub fn with_arch(mut self, arch: &str) -> SiteSpec {
        self.arch = arch.to_string();
        self
    }
}

/// The ten-site resource mix of the paper's Experience 1: "eight Condor
/// pools, one Cluster managed by PBS, and one supercomputer managed by
/// LSF", more than 2,500 CPUs in total.
pub fn paper_sites() -> Vec<SiteSpec> {
    vec![
        SiteSpec::condor_pool("wisc-pool", 700),
        SiteSpec::condor_pool("gatech-pool", 400),
        SiteSpec::condor_pool("ucsd-pool", 300),
        SiteSpec::condor_pool("iowa-pool", 250),
        SiteSpec::condor_pool("nwu-pool", 200),
        SiteSpec::condor_pool("unm-pool", 150),
        SiteSpec::condor_pool("columbia-pool", 120),
        SiteSpec::condor_pool("infn-pool", 100),
        SiteSpec::pbs("anl-pbs", 256),
        SiteSpec::lsf("nrl-lsf", 128),
    ]
}

/// Handles to one built site.
#[derive(Clone, Debug)]
pub struct SiteHandles {
    /// The spec it was built from.
    pub name: String,
    /// Interface (gatekeeper) node.
    pub interface: NodeId,
    /// Cluster node (LRM + where glideins materialize).
    pub cluster: NodeId,
    /// The gatekeeper component.
    pub gatekeeper: Addr,
    /// The batch scheduler component.
    pub lrm: Addr,
    /// Architecture.
    pub arch: String,
}

/// One shared WAN link in a [`WanTopology`].
#[derive(Clone, Debug, PartialEq)]
pub struct WanLinkSpec {
    /// Link name (referenced by routes and fault windows).
    pub name: String,
    /// Capacity in bytes/sec, shared max-min fairly by concurrent flows.
    pub capacity: f64,
    /// One-way propagation latency in seconds.
    pub latency: f64,
}

/// A shared-bandwidth WAN between the submit machine and the sites.
///
/// Transfers between the submit machine and a routed site cross the
/// site's links, so they are flows in the fair-share model
/// (`gridsim::network::flow`): concurrent stage-ins crossing the same link
/// slow each other down, and link failures abort in-flight transfers.
/// Every other transfer, to a site without a route included, crosses no
/// link and is a sized message on its pair's dedicated bandwidth.
#[derive(Clone, Debug, Default)]
pub struct WanTopology {
    /// The shared links.
    pub links: Vec<WanLinkSpec>,
    /// `(site index, link names)`: transfers between the submit machine
    /// and that site's gatekeeper/cluster nodes traverse the named links.
    pub site_routes: Vec<(usize, Vec<String>)>,
}

/// Options for building the testbed.
pub struct TestbedConfig {
    /// RNG seed.
    pub seed: u64,
    /// Collect traces.
    pub trace: bool,
    /// Sites to build.
    pub sites: Vec<SiteSpec>,
    /// Build an MDS index + per-site GRIS.
    pub with_mds: bool,
    /// Build a personal Condor pool (collector/negotiator/schedd) on the
    /// submit machine.
    pub with_personal_pool: bool,
    /// Build a MyProxy server node.
    pub with_myproxy: bool,
    /// Proxy lifetime at t=0.
    pub proxy_lifetime: Duration,
    /// GridManager tuning overrides.
    pub gm: GmConfig,
    /// Use the MDS matchmaking broker instead of the static list.
    pub mds_broker: bool,
    /// Weather-driven adaptive brokering: wrap the broker in an
    /// [`AdaptiveBroker`], feed it grid weather each GridManager tick, and
    /// (with a personal pool) run the negotiator with weather annotation.
    pub adaptive: bool,
    /// Stop the whole simulation at this virtual time (safety net).
    pub max_time: Option<Duration>,
    /// Retention, forwarded to the world as `gridsim::Config::lean`: every
    /// layer reads it there and reclaims per-job state as jobs settle —
    /// the scheduler deletes terminal jobs' records (it drops the jobs
    /// from memory at either retention) and keeps no stored user log, the
    /// GridManager deletes job tombstones and staged output, gatekeepers
    /// reap dedup/log entries when JobManagers exit, and the kernel
    /// recycles component ids. Memory then tracks *in-flight* jobs, so
    /// million-job campaigns run in flat RSS. Off by default (trace output
    /// is not byte-identical to non-lean runs: component ids differ).
    pub lean: bool,
    /// Shared-bandwidth WAN topology. `None` declares no link, so every
    /// bulk transfer is a sized message on its pair's dedicated bandwidth.
    pub wan: Option<WanTopology>,
    /// Size in bytes of the staged executable images (`app.exe` and
    /// `worker.exe`) preloaded on the submit GASS server. `0` keeps the
    /// legacy tiny inline images.
    pub exe_size: u64,
}

impl Default for TestbedConfig {
    fn default() -> TestbedConfig {
        TestbedConfig {
            seed: 42,
            trace: false,
            sites: vec![SiteSpec::pbs("siteA", 8), SiteSpec::pbs("siteB", 8)],
            with_mds: false,
            with_personal_pool: false,
            with_myproxy: false,
            proxy_lifetime: Duration::from_hours(24),
            gm: GmConfig::default(),
            mds_broker: false,
            adaptive: false,
            max_time: None,
            lean: false,
            wan: None,
            exe_size: 0,
        }
    }
}

/// A fully built grid plus the handles experiments need.
pub struct Testbed {
    /// The world; run it.
    pub world: World,
    /// The user identity (to mint fresh proxies).
    pub identity: Identity,
    /// The proxy minted at t=0.
    pub proxy: ProxyCredential,
    /// The CA trust root every service in this grid uses (boot hooks that
    /// rebuild services after a crash must reuse it).
    pub trust: gsi::TrustRoot,
    /// Submit machine node.
    pub submit: NodeId,
    /// The Scheduler (post [`UserCmd`]s here).
    pub scheduler: Addr,
    /// The submit machine's GASS server.
    pub gass: Addr,
    /// The mail spool.
    pub mailer: Addr,
    /// Mail node (same as submit unless changed).
    pub mail_node: NodeId,
    /// Per-site handles, in spec order.
    pub sites: Vec<SiteHandles>,
    /// The GIIS (if `with_mds`).
    pub giis: Option<Addr>,
    /// MyProxy server (if `with_myproxy`).
    pub myproxy: Option<Addr>,
    /// Personal pool pieces (if `with_personal_pool`).
    pub collector: Option<Addr>,
    /// Personal pool schedd.
    pub pool_schedd: Option<Addr>,
    /// Personal pool checkpoint server.
    pub ckpt_server: Option<Addr>,
}

fn policy_for(kind: &SiteKind) -> Box<dyn SchedPolicy> {
    match kind {
        SiteKind::Pbs | SiteKind::LoadLeveler => Box::new(EasyBackfill),
        SiteKind::Lsf => Box::new(FairShare::default()),
        SiteKind::Nqe | SiteKind::CondorPool { .. } => Box::new(Fifo),
    }
}

struct BoxedPolicy(Box<dyn SchedPolicy>);

impl SchedPolicy for BoxedPolicy {
    fn select(
        &mut self,
        now: SimTime,
        queue: &[site::policy::QueueView],
        running: &[site::policy::RunningView],
        free: u32,
    ) -> Vec<u64> {
        self.0.select(now, queue, running, free)
    }
    fn charge(&mut self, owner: &str, cpu_time: Duration) {
        self.0.charge(owner, cpu_time)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Build a complete testbed from `config`.
pub fn build(config: TestbedConfig) -> Testbed {
    let mut ca = CertificateAuthority::new("/CN=Globus CA", config.seed ^ 0xCA);
    let identity = ca.issue_identity("/CN=jane", Duration::from_days(3650));
    let proxy = identity.new_proxy(SimTime::ZERO, config.proxy_lifetime);
    let trust = ca.trust_root();
    let mut gridmap = GridMap::new();
    gridmap.add("/CN=jane", "jane");

    let mut wconf = Config::default().seed(config.seed);
    if config.trace {
        wconf = wconf.with_trace();
    }
    if config.lean {
        wconf = wconf.lean();
    }
    if let Some(mt) = config.max_time {
        wconf = wconf.max_time(SimTime::ZERO + mt);
    }
    let mut world = World::new(wconf);

    // Submit machine.
    let submit = world.add_node("submit.wisc.edu");
    let (app_image, worker_image) = if config.exe_size > 0 {
        (
            gass::FileData::bulk(config.exe_size, 1),
            gass::FileData::bulk(config.exe_size, 2),
        )
    } else {
        (
            gass::FileData::inline("ELF app"),
            gass::FileData::inline("ELF worker"),
        )
    };
    let gass = world.add_component(
        submit,
        "gass",
        GassServer::new(trust.clone())
            .preload("/home/jane/app.exe", app_image)
            .preload("/home/jane/worker.exe", worker_image),
    );
    let mailer = world.add_component(submit, "mailer", Mailer::new());

    // MDS index.
    let giis = if config.with_mds {
        let n = world.add_node("giis.grid.org");
        Some(world.add_component(n, "giis", Giis::new(trust.clone())))
    } else {
        None
    };

    // MyProxy.
    let myproxy = if config.with_myproxy {
        let n = world.add_node("myproxy.ncsa.edu");
        Some(world.add_component(n, "myproxy", MyProxyServer::new()))
    } else {
        None
    };

    // Sites.
    let mut sites = Vec::new();
    for spec in &config.sites {
        let interface = world.add_node(&format!("gk.{}", spec.name));
        let cluster = world.add_node(&format!("cluster.{}", spec.name));
        let mut lrm = Lrm::new(&spec.name, spec.cpus, BoxedPolicy(policy_for(&spec.kind)))
            .with_arch(&spec.arch);
        if let Some(limit) = spec.wall_limit {
            lrm = lrm.with_wall_limit(limit);
        }
        if let SiteKind::CondorPool {
            churn_mean_secs,
            reclaimed_mean,
        } = spec.kind
        {
            lrm = lrm.with_churn(ChurnModel {
                interval: Dist::Exp {
                    mean: churn_mean_secs,
                },
                reclaimed: Dist::Exp {
                    mean: reclaimed_mean,
                },
                // Desktop pools breathe with the working day.
                diurnal_amplitude: 0.7,
            });
        }
        let lrm = world.add_component(cluster, "lrm", lrm);
        let gk = Gatekeeper::new(&spec.name, trust.clone(), gridmap.clone(), lrm);
        let gatekeeper = world.add_component(interface, "gatekeeper", gk);
        // Boot hook so gatekeeper machines can crash-restart in experiments.
        {
            let trust = trust.clone();
            let gm = gridmap.clone();
            let site_name = spec.name.clone();
            world.set_boot(interface, move |b: &mut BootCtx<'_>| {
                let gk = Gatekeeper::new(&site_name, trust.clone(), gm.clone(), lrm);
                b.add_component("gatekeeper", gk.recover(b.store(), b.node()));
            });
        }
        // GRIS: advertise the site (with its gatekeeper contact) to MDS.
        if let Some(giis) = giis {
            let ad = ClassAd::new()
                .with("Arch", spec.arch.as_str())
                .with("OpSys", "LINUX")
                .with("Gatekeeper", addr_to_attr(gatekeeper));
            world.add_component(
                cluster,
                "gris",
                Gris::new(&spec.name, ad, lrm, giis, Duration::from_mins(2)),
            );
        }
        sites.push(SiteHandles {
            name: spec.name.clone(),
            interface,
            cluster,
            gatekeeper,
            lrm,
            arch: spec.arch.clone(),
        });
    }

    // Shared-bandwidth WAN: declare the links, then route each listed
    // site's submit↔gatekeeper and submit↔cluster paths over them so
    // staging traffic to that site contends for the shared capacity.
    if let Some(wan) = &config.wan {
        let net = world.network_mut();
        let mut ids: BTreeMap<&str, LinkId> = BTreeMap::new();
        for link in &wan.links {
            ids.insert(
                link.name.as_str(),
                net.add_flow_link(&link.name, link.capacity, link.latency),
            );
        }
        for (site_idx, names) in &wan.site_routes {
            let site = sites
                .get(*site_idx)
                .unwrap_or_else(|| panic!("wan route for unknown site index {site_idx}"));
            let route: Vec<LinkId> = names
                .iter()
                .map(|n| {
                    *ids.get(n.as_str())
                        .unwrap_or_else(|| panic!("wan route references undeclared link {n}"))
                })
                .collect();
            net.set_flow_route(submit, site.interface, &route);
            net.set_flow_route(submit, site.cluster, &route);
        }
    }

    // Personal pool (with a checkpoint server, per §5: jobs checkpoint to
    // "the originating location or a local checkpoint server").
    let (collector, pool_schedd, ckpt_server) = if config.with_personal_pool {
        let collector = world.add_component(submit, "collector", Collector::new());
        let mut negotiator = Negotiator::new(collector, Duration::from_mins(1));
        if config.adaptive {
            negotiator = negotiator.with_weather(HealthPolicy::default());
        }
        world.add_component(submit, "negotiator", negotiator);
        let schedd = world.add_component(
            submit,
            "schedd",
            Schedd::new("jane@submit", vec![collector]),
        );
        let ckpt = world.add_component(submit, "ckpt-server", condor::CkptServer::new());
        (Some(collector), Some(schedd), Some(ckpt))
    } else {
        (None, None, None)
    };

    // The agent.
    let mut gm = config.gm.clone();
    gm.user = "jane".into();
    gm.mailer = Some(mailer);
    if config.mds_broker {
        gm.giis = giis;
    }
    let mut broker: Box<dyn Broker> = if config.mds_broker {
        Box::new(MdsBroker::new(Duration::from_mins(30)))
    } else {
        Box::new(StaticListBroker::new(
            sites
                .iter()
                .map(|s| GatekeeperInfo {
                    site: s.name.clone(),
                    addr: s.gatekeeper,
                    ad: ClassAd::new(),
                })
                .collect(),
        ))
    };
    if config.adaptive {
        broker = Box::new(AdaptiveBroker::new(
            broker,
            SiteHealthTracker::new(HealthPolicy::default()),
        ));
    }
    let sched_config = SchedulerConfig {
        user: "jane".into(),
        credential: proxy.clone(),
        gass,
        pool_schedd,
        mailer: Some(mailer),
        user_addr: None,
        gm,
        email_on_termination: false,
    };
    let scheduler = world.add_component(submit, "scheduler", Scheduler::new(sched_config, broker));

    Testbed {
        world,
        identity,
        proxy,
        trust,
        submit,
        scheduler,
        gass,
        mailer,
        mail_node: submit,
        sites,
        giis,
        myproxy,
        collector,
        pool_schedd,
        ckpt_server,
    }
}

impl Testbed {
    /// Build a glidein factory targeting every site, `per_site` daemons
    /// each, and add it to the submit machine. Requires a personal pool.
    pub fn add_glidein_factory(&mut self, per_site: u32, lease: Duration) -> Addr {
        let collector = self.collector.expect("glideins need a personal pool");
        let sites = self
            .sites
            .iter()
            .map(|s| GlideinSite {
                site: s.name.clone(),
                gatekeeper: s.gatekeeper,
                cluster_node: s.cluster,
                target: per_site,
                lease,
                machine_ad: ClassAd::new()
                    .with("Arch", s.arch.as_str())
                    .with("OpSys", "LINUX"),
            })
            .collect();
        let mut factory = GlideinFactory::new(sites, collector, self.proxy.clone(), self.gass);
        if let Some(ckpt) = self.ckpt_server {
            factory = factory.with_ckpt_server(ckpt);
        }
        self.world
            .add_component(self.submit, "glidein-factory", factory)
    }
}

/// A scripted user console: submits specs, records every event, answers
/// nothing. Results land in stable storage on its node:
/// `console/status/<n>` per job and `console/terminal_count`.
pub struct UserConsole {
    scheduler: Addr,
    /// `(delay, spec)` submissions.
    pub submissions: Vec<(Duration, GridJobSpec)>,
    /// Send `UserCmd::RefreshProxy` at this time with this credential.
    pub refresh_at: Option<(Duration, ProxyCredential)>,
    /// Cancel the nth submission at this time.
    pub cancel_at: Option<(Duration, u64)>,
    ids: BTreeMap<u64, GridJobId>,
    history: BTreeMap<u64, Vec<String>>,
    terminal: u64,
}

const TAG_SUBMIT_BASE: u64 = 10_000;
const TAG_REFRESH: u64 = 1;
const TAG_CANCEL: u64 = 2;

impl UserConsole {
    /// A console driving `scheduler`.
    pub fn new(scheduler: Addr) -> UserConsole {
        UserConsole {
            scheduler,
            submissions: Vec::new(),
            refresh_at: None,
            cancel_at: None,
            ids: BTreeMap::new(),
            history: BTreeMap::new(),
            terminal: 0,
        }
    }

    /// Queue `spec` for submission after `delay`.
    pub fn submit_after(mut self, delay: Duration, spec: GridJobSpec) -> UserConsole {
        self.submissions.push((delay, spec));
        self
    }

    /// Queue many identical jobs at t=0.
    pub fn submit_many(mut self, n: usize, spec: GridJobSpec) -> UserConsole {
        for _ in 0..n {
            self.submissions.push((Duration::ZERO, spec.clone()));
        }
        self
    }

    fn persist(&self, ctx: &mut Ctx<'_>) {
        let node = ctx.node();
        let flat: Vec<(u64, Vec<String>)> =
            self.history.iter().map(|(k, v)| (*k, v.clone())).collect();
        ctx.store().put(node, "console/history", &flat);
        let term = self.terminal;
        ctx.store().put(node, "console/terminal_count", &term);
    }

    /// Read the recorded history for submission `n` from the store.
    pub fn history_of(world: &World, node: NodeId, n: u64) -> Vec<String> {
        let flat: Vec<(u64, Vec<String>)> = world
            .store()
            .get(node, "console/history")
            .unwrap_or_default();
        flat.into_iter()
            .find(|(k, _)| *k == n)
            .map(|(_, v)| v)
            .unwrap_or_default()
    }

    /// How many submissions reached a terminal state.
    pub fn terminal_count(world: &World, node: NodeId) -> u64 {
        world
            .store()
            .get(node, "console/terminal_count")
            .unwrap_or(0)
    }
}

impl Component for UserConsole {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (delay, _)) in self.submissions.iter().enumerate() {
            ctx.set_timer(*delay, TAG_SUBMIT_BASE + i as u64);
        }
        if let Some((at, _)) = &self.refresh_at {
            ctx.set_timer(*at, TAG_REFRESH);
        }
        if let Some((at, _)) = self.cancel_at {
            ctx.set_timer(at, TAG_CANCEL);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag >= TAG_SUBMIT_BASE {
            let i = (tag - TAG_SUBMIT_BASE) as usize;
            let spec = self.submissions[i].1.clone();
            ctx.send(self.scheduler, UserCmd::Submit { id: i as u64, spec });
        } else if tag == TAG_REFRESH {
            if let Some((_, credential)) = self.refresh_at.take() {
                ctx.send(self.scheduler, UserCmd::RefreshProxy { credential });
            }
        } else if tag == TAG_CANCEL {
            if let Some((_, n)) = self.cancel_at {
                if let Some(&job) = self.ids.get(&n) {
                    ctx.send(self.scheduler, UserCmd::Cancel { job });
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        let Some(event) = msg.downcast_ref::<UserEvent>() else {
            return;
        };
        match event {
            UserEvent::Submitted { id, job } => {
                self.ids.insert(*id, *job);
                self.history
                    .entry(*id)
                    .or_default()
                    .push("Submitted".into());
                self.persist(ctx);
            }
            UserEvent::Status { job, status, .. } => {
                let Some((&id, _)) = self.ids.iter().find(|(_, j)| **j == *job) else {
                    return;
                };
                let entry = self.history.entry(id).or_default();
                let text = match status {
                    JobStatus::Held(r) => format!("Held({r})"),
                    JobStatus::Failed(r) => format!("Failed({r})"),
                    s => format!("{s:?}"),
                };
                // Terminal counting: only the first terminal event per job.
                if status.is_terminal()
                    && !entry.iter().any(|e| {
                        e.starts_with("Done") || e.starts_with("Failed") || e.starts_with("Removed")
                    })
                {
                    self.terminal += 1;
                }
                self.history.entry(id).or_default().push(text);
                self.persist(ctx);
            }
            UserEvent::Log { .. } => {}
        }
    }
}
