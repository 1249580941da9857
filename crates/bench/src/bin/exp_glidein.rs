//! X4 — §5's late-binding claim.
//!
//! "By submitting GlideIns to all remote resources capable of serving a
//! job, Condor-G can guarantee optimal queuing times to its users...
//! the agent minimizes queuing delays by preventing a job from waiting at
//! one remote resource while another resource capable of serving the job
//! is available."
//!
//! Two sites, one artificially congested with background load. The direct
//! strategy commits each job to a queue at submit time (round-robin, like
//! the user-supplied-list broker); the GlideIn strategy floods both sites
//! with glideins and binds jobs when an allocation actually arrives. We
//! sweep the load imbalance and compare wait-until-execution.

use bench::report;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gass::GassUrl;
use condor_g_suite::gram::proto::{GramReply, JmMsg};
use condor_g_suite::gram::{RslSpec, SubmitSession};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::{Addr as GAddr, AnyMsg};
use condor_g_suite::gsi::ProxyCredential;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use condor_g_suite::site::{JobSpec, LrmRequest};
use std::collections::BTreeMap;
use workloads::stats::{summarize, Table};

const JOBS: usize = 24;

/// Fill a site with background jobs so grid jobs queue behind them.
struct BackgroundLoad {
    lrm: Addr,
    jobs: u32,
    each: Duration,
}

impl Component for BackgroundLoad {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.jobs {
            ctx.send(
                self.lrm,
                LrmRequest::Submit {
                    client_job: i as u64,
                    spec: JobSpec::simple(self.each, "locals"),
                },
            );
        }
    }
}

struct Outcome {
    mean_wait_mins: f64,
    p90_wait_mins: f64,
    makespan_hours: f64,
    done: u64,
}

/// `congestion_hours`: how much backlog (per CPU) the busy site carries.
fn run(glidein: bool, congestion_hours: u64, seed: u64) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed,
        sites: vec![SiteSpec::pbs("busy", 16), SiteSpec::pbs("idle", 16)],
        with_personal_pool: glidein,
        ..TestbedConfig::default()
    });
    // Backlog at the busy site: 2 waves of 16 jobs, each congestion_hours/2.
    let lrm = tb.sites[0].lrm;
    let bg = BackgroundLoad {
        lrm,
        jobs: 32,
        each: Duration::from_hours(congestion_hours) / 2,
    };
    let bg_node = tb.sites[0].cluster;
    tb.world.add_component(bg_node, "background", bg);

    let spec = if glidein {
        GridJobSpec::pool("task", "/home/jane/worker.exe", Duration::from_mins(30))
    } else {
        GridJobSpec::grid("task", "/home/jane/app.exe", Duration::from_mins(30))
    };
    if glidein {
        tb.add_glidein_factory(JOBS as u32, Duration::from_hours(8));
    }
    let console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(2));

    // Wait = submission to first Active, as the agent records it per job
    // (condor_g.active_wait covers both universes identically).
    let m = tb.world.metrics();
    let done = m.counter("condor_g.jobs_done");
    let _ = node;
    let waits = m
        .histogram("condor_g.active_wait")
        .map(|h| h.samples().to_vec())
        .unwrap_or_default();
    let s = summarize(&waits);
    // Makespan: last Done.
    let makespan = m
        .series("condor_g.done_over_time")
        .map(|ts| ts.last_at().map_or(0.0, |t| t.as_hours_f64()))
        .unwrap_or(tb.world.now().as_hours_f64());
    Outcome {
        mean_wait_mins: s.mean / 60.0,
        p90_wait_mins: s.p90 / 60.0,
        makespan_hours: makespan,
        done,
    }
}

/// §4.4's other technique: "a simple but effective technique is to flood
/// candidate resources with requests to execute jobs. These can be the
/// actual jobs submitted by the user or Condor GlideIns". This client
/// submits each job to *every* site, commits all copies, and cancels the
/// losers the moment one starts executing.
struct FloodClient {
    gatekeepers: Vec<GAddr>,
    credential: ProxyCredential,
    gass: GassUrl,
    jobs: usize,
    runtime: Duration,
    /// seq -> (job index, session).
    sessions: BTreeMap<u64, (usize, SubmitSession)>,
    /// contact -> (job index, jobmanager).
    contacts: BTreeMap<u64, (usize, GAddr)>,
    /// job index -> winning contact.
    winner: BTreeMap<usize, u64>,
    submitted_at: SimTime,
}

impl Component for FloodClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.submitted_at = ctx.now();
        let mut seq = 0u64;
        for job in 0..self.jobs {
            for &gk in &self.gatekeepers {
                let mut s = SubmitSession::new(
                    seq,
                    RslSpec::job("/site/bin/task", self.runtime).to_string(),
                    self.credential.clone(),
                    ctx.self_addr(),
                    self.gass.clone(),
                );
                ctx.send(gk, s.request());
                self.sessions.insert(seq, (job, s));
                seq += 1;
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: GAddr, msg: AnyMsg) {
        if let Some(reply) = msg.downcast_ref::<GramReply>() {
            if let GramReply::Submitted {
                seq,
                contact,
                jobmanager,
            } = reply
            {
                if let Some((job, s)) = self.sessions.get_mut(seq) {
                    use condor_g_suite::gram::client::SubmitAction;
                    if let SubmitAction::SendCommit { jobmanager, .. } = s.on_reply(reply) {
                        ctx.send(jobmanager, JmMsg::Commit);
                        self.contacts.insert(contact.0, (*job, jobmanager));
                    }
                }
                let _ = jobmanager;
            }
            return;
        }
        if let Some(JmMsg::Callback { contact, state, .. }) = msg.downcast_ref::<JmMsg>() {
            let Some(&(job, _)) = self.contacts.get(&contact.0) else {
                return;
            };
            match state {
                condor_g_suite::gram::proto::GramJobState::Active => {
                    if self.winner.contains_key(&job) {
                        // A second copy started before our cancel landed:
                        // kill it too (late binding by brute force).
                        if let Some(&(_, jm)) = self.contacts.get(&contact.0) {
                            ctx.send(jm, JmMsg::Cancel);
                        }
                        return;
                    }
                    self.winner.insert(job, contact.0);
                    let wait = ctx.now() - self.submitted_at;
                    ctx.metrics().observe_duration("flood.active_wait", wait);
                    // Cancel every other copy of this job.
                    for (&c, &(j, jm)) in &self.contacts {
                        if j == job && c != contact.0 {
                            ctx.send(jm, JmMsg::Cancel);
                        }
                    }
                }
                s if s.is_terminal() => {
                    if let Some(&(_, jm)) = self.contacts.get(&contact.0) {
                        ctx.send(jm, JmMsg::DoneAck);
                    }
                    if *state == condor_g_suite::gram::proto::GramJobState::Done {
                        ctx.metrics().incr("flood.jobs_done", 1);
                    }
                }
                _ => {}
            }
        }
    }
}

fn run_flood(congestion_hours: u64, seed: u64) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed,
        sites: vec![SiteSpec::pbs("busy", 16), SiteSpec::pbs("idle", 16)],
        ..TestbedConfig::default()
    });
    let lrm = tb.sites[0].lrm;
    let bg_node = tb.sites[0].cluster;
    tb.world.add_component(
        bg_node,
        "background",
        BackgroundLoad {
            lrm,
            jobs: 32,
            each: Duration::from_hours(congestion_hours) / 2,
        },
    );
    let gatekeepers = tb.sites.iter().map(|s| s.gatekeeper).collect();
    let node = tb.submit;
    let client = FloodClient {
        gatekeepers,
        credential: tb.proxy.clone(),
        gass: GassUrl::gass(tb.gass, ""),
        jobs: JOBS,
        runtime: Duration::from_mins(30),
        sessions: BTreeMap::new(),
        contacts: BTreeMap::new(),
        winner: BTreeMap::new(),
        submitted_at: SimTime::ZERO,
    };
    tb.world.add_component(node, "flood", client);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(2));
    let m = tb.world.metrics();
    let waits = m
        .histogram("flood.active_wait")
        .map(|h| h.samples().to_vec())
        .unwrap_or_default();
    let s = summarize(&waits);
    Outcome {
        done: m.counter("flood.jobs_done"),
        mean_wait_mins: s.mean / 60.0,
        p90_wait_mins: s.p90 / 60.0,
        makespan_hours: f64::NAN,
    }
}

fn main() {
    let mut table = Table::new(&[
        "backlog (h/cpu)",
        "strategy",
        "jobs done",
        "mean wait (min)",
        "p90 wait (min)",
        "last job done (h)",
    ]);
    for congestion in [0u64, 4, 8, 16] {
        for strategy in 0..3 {
            let (name, o): (&str, Outcome) = match strategy {
                0 => ("direct GRAM", run(false, congestion, 777)),
                1 => ("flood jobs + cancel", run_flood(congestion, 777)),
                _ => ("GlideIn (late binding)", run(true, congestion, 777)),
            };
            table.row(&[
                format!("{congestion}"),
                name.into(),
                format!("{}/{JOBS}", o.done),
                format!("{:.1}", o.mean_wait_mins),
                format!("{:.1}", o.p90_wait_mins),
                if o.makespan_hours.is_nan() {
                    "-".into()
                } else {
                    format!("{:.1}", o.makespan_hours)
                },
            ]);
        }
    }
    report(
        "X4: late binding vs direct queue commitment (one congested site, one idle)",
        "flooding resources with requests — actual jobs or GlideIns — prevents a job \
         from waiting at one resource while another capable resource is available",
        &table,
    );
}
