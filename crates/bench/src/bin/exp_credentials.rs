//! X3 — §4.3's credential management.
//!
//! "If a user's credentials have expired or are about to expire, the agent
//! places the job in a hold state in its queue and sends the user an
//! e-mail... MyProxy lets a user store a long-lived proxy credential on a
//! secure server [so Condor-G] could use these short-lived proxies... and
//! refresh them automatically."
//!
//! A 3-day workload against 12-hour proxies under three policies:
//! no management (the ablation), hold + manual refresh, MyProxy
//! auto-refresh. Reported: completions, held time, e-mails, refreshes.

use bench::report;
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::condor_g::gridmanager::{GmConfig, MyProxySettings};
use condor_g_suite::condor_g::Mailer;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gsi::MyProxyRequest;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig, UserConsole};
use workloads::stats::Table;

const JOBS: usize = 12;

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    /// Thresholds zeroed: the agent never looks at the proxy.
    NoManagement,
    /// Paper default: hold + email; the user refreshes 2h after expiry.
    HoldAndEmail,
    /// The MyProxy enhancement.
    MyProxy,
}

impl Policy {
    fn name(self) -> &'static str {
        match self {
            Policy::NoManagement => "no management (ablation)",
            Policy::HoldAndEmail => "hold + email + manual refresh",
            Policy::MyProxy => "MyProxy auto-refresh",
        }
    }
}

struct Outcome {
    done: u64,
    failed: u64,
    holds: u64,
    emails: u64,
    refreshes: u64,
    makespan_h: f64,
}

fn run(policy: Policy) -> Outcome {
    let mut gm = GmConfig::default();
    if policy == Policy::NoManagement {
        gm.warn_before = Duration::ZERO;
        gm.hold_before = Duration::ZERO;
    }
    let mut tb = build(TestbedConfig {
        seed: 333,
        sites: vec![SiteSpec::pbs("solo", 16)],
        proxy_lifetime: Duration::from_hours(12),
        with_myproxy: policy == Policy::MyProxy,
        gm,
        ..TestbedConfig::default()
    });
    if policy == Policy::MyProxy {
        // This testbed was built without the MyProxy GmConfig (we needed
        // the server address first); rebuild with it wired in.
        let server = tb.myproxy.expect("myproxy node");
        let gm = GmConfig {
            myproxy: Some(MyProxySettings {
                server,
                account: "jane".into(),
                passphrase: 99,
                lifetime: Duration::from_hours(12),
                refresh_before: Duration::from_hours(2),
            }),
            ..GmConfig::default()
        };
        tb = build(TestbedConfig {
            seed: 333,
            sites: vec![SiteSpec::pbs("solo", 16)],
            proxy_lifetime: Duration::from_hours(12),
            with_myproxy: true,
            gm,
            ..TestbedConfig::default()
        });
        let server = tb.myproxy.expect("myproxy node");
        let long = tb.identity.new_proxy(SimTime::ZERO, Duration::from_days(7));
        tb.world.post(
            server,
            MyProxyRequest::Store {
                user: "jane".into(),
                passphrase: 99,
                credential: long,
            },
        );
    }
    // Jobs are 20h: they outlive the 12h proxy, so mid-run staging and the
    // second wave both depend on credential management.
    let spec = GridJobSpec::grid("long", "/home/jane/app.exe", Duration::from_hours(20))
        .with_stdout(100_000);
    let mut console = UserConsole::new(tb.scheduler).submit_many(JOBS, spec);
    if policy == Policy::HoldAndEmail {
        // The user reads the email and refreshes ~2h after the hold.
        let fresh = tb.identity.new_proxy(
            SimTime::ZERO + Duration::from_hours(14),
            Duration::from_hours(48),
        );
        console.refresh_at = Some((Duration::from_hours(14), fresh));
    }
    let node = tb.submit;
    tb.world.add_component(node, "console", console);
    tb.world.run_until(SimTime::ZERO + Duration::from_days(3));

    let m = tb.world.metrics();
    let inbox: Vec<(String, String)> = tb
        .world
        .store()
        .get(tb.mail_node, &Mailer::inbox_key("jane"))
        .unwrap_or_default();
    let makespan = m
        .series("condor_g.done_over_time")
        .and_then(|ts| ts.last_at())
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    Outcome {
        done: m.counter("condor_g.jobs_done"),
        failed: m.counter("condor_g.jobs_failed"),
        holds: m.counter("gm.credential_holds"),
        emails: inbox.len() as u64,
        refreshes: m.counter("gm.myproxy_refreshes") + m.counter("condor_g.proxy_refreshes"),
        makespan_h: makespan,
    }
}

fn main() {
    let mut t = Table::new(&[
        "policy",
        "done",
        "failed",
        "holds",
        "emails",
        "refreshes",
        "last done (h)",
    ]);
    for policy in [Policy::NoManagement, Policy::HoldAndEmail, Policy::MyProxy] {
        let o = run(policy);
        t.row(&[
            policy.name().into(),
            format!("{}/{JOBS}", o.done),
            format!("{}", o.failed),
            format!("{}", o.holds),
            format!("{}", o.emails),
            format!("{}", o.refreshes),
            format!("{:.1}", o.makespan_h),
        ]);
    }
    report(
        "X3: credential lifetime management (12h proxies, 20h jobs, 3-day window)",
        "expiry triggers hold+email; refresh resumes and re-forwards; MyProxy removes the hold window entirely",
        &t,
    );
}
