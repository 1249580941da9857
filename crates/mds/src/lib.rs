#![warn(missing_docs)]
//! `mds` — the Metacomputing Directory Service, MDS-2 (paper §3.3).
//!
//! "A resource uses the Grid Resource Registration Protocol (GRRP) to
//! notify other entities that it is part of the Grid. Those entities can
//! then use the Grid Resource Information Protocol (GRIP) to obtain
//! information about resource status."
//!
//! Two components:
//!
//! * [`Gris`] — the per-resource information provider. It polls its site's
//!   scheduler for load, merges that into a static ClassAd describing the
//!   resource (architecture, OS, processor count, gatekeeper contact), and
//!   re-registers with the index via GRRP at a fixed interval. Registration
//!   carries a TTL: a resource that stops refreshing (crashed, partitioned)
//!   ages out of the directory, which is how discovery avoids advertising
//!   dead sites.
//! * [`Giis`] — the index server. It stores the most recent ad per
//!   resource, expires stale ones lazily, and answers GRIP queries whose
//!   filter is a ClassAd expression evaluated against each ad (GSI
//!   authentication guards queries, per the paper).
//!
//! Ads use the `classads` crate, which is also what makes the Condor-G
//! matchmaking broker (paper §4.4, citing Vazhkudai et al.) a natural fit:
//! the broker combines these ads with job requirements via
//! `classads::symmetric_match`.

use classads::{ClassAd, EvalCtx, Value};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use gsi::{ProxyCredential, TrustRoot};
use site::{LrmReply, LrmRequest};
use std::collections::BTreeMap;

/// Encode a component address into an ad attribute value (`"n3.c7"`).
pub fn addr_to_attr(addr: Addr) -> String {
    format!("n{}.c{}", addr.node.0, addr.comp.0)
}

/// Decode an address encoded by [`addr_to_attr`].
pub fn attr_to_addr(s: &str) -> Option<Addr> {
    let (n, c) = s.split_once('.')?;
    Some(Addr {
        node: gridsim::NodeId(n.strip_prefix('n')?.parse().ok()?),
        comp: gridsim::CompId(c.strip_prefix('c')?.parse().ok()?),
    })
}

/// GRRP registration: a resource's current ad, valid for `ttl`.
#[derive(Debug)]
pub struct GrrpRegister {
    /// Unique resource name (the ad is replaced on re-registration).
    pub resource: String,
    /// The resource description.
    pub ad: ClassAd,
    /// How long the registration stays fresh.
    pub ttl: Duration,
}

/// GRIP query: return ads matching `filter` (a ClassAd boolean expression
/// evaluated with the candidate ad as MY).
#[derive(Debug)]
pub struct GripQuery {
    /// Correlation id.
    pub request_id: u64,
    /// Requester credential (GSI-authenticated access control).
    pub credential: ProxyCredential,
    /// Filter source, e.g. `FreeCpus > 0 && Arch == "INTEL"`.
    pub filter: String,
}

/// GRIP answer.
#[derive(Debug)]
pub enum GripReply {
    /// Matching ads.
    Ads {
        /// Correlation id.
        request_id: u64,
        /// The matches, most recently registered first.
        ads: Vec<ClassAd>,
    },
    /// Query refused (authentication or filter error).
    Denied {
        /// Correlation id.
        request_id: u64,
        /// Why.
        reason: String,
    },
}

/// The index server (GIIS).
pub struct Giis {
    trust: TrustRoot,
    entries: BTreeMap<String, (ClassAd, SimTime)>, // resource -> (ad, expires)
}

impl Giis {
    /// An index trusting `trust` for query authentication.
    pub fn new(trust: TrustRoot) -> Giis {
        Giis {
            trust,
            entries: BTreeMap::new(),
        }
    }
}

impl Component for Giis {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(reg) = msg.downcast_ref::<GrrpRegister>() {
            ctx.metrics().incr("mds.registrations", 1);
            self.entries
                .insert(reg.resource.clone(), (reg.ad.clone(), ctx.now() + reg.ttl));
            return;
        }
        let Ok(query) = msg.downcast::<GripQuery>() else {
            return;
        };
        let GripQuery {
            request_id,
            credential,
            filter,
        } = *query;
        if let Err(e) = credential.verify(ctx.now(), &self.trust) {
            ctx.metrics().incr("mds.denied", 1);
            ctx.send(
                from,
                GripReply::Denied {
                    request_id,
                    reason: e.to_string(),
                },
            );
            return;
        }
        let expr = match classads::parse_expr(&filter) {
            Ok(e) => e,
            Err(e) => {
                ctx.send(
                    from,
                    GripReply::Denied {
                        request_id,
                        reason: e.to_string(),
                    },
                );
                return;
            }
        };
        // Lazy expiry: drop stale registrations as we scan.
        let now = ctx.now();
        self.entries.retain(|_, (_, expires)| *expires > now);
        let ads: Vec<ClassAd> = self
            .entries
            .values()
            .filter(|(ad, _)| EvalCtx::solo(ad).eval(&expr) == Value::Bool(true))
            .map(|(ad, _)| ad.clone())
            .collect();
        ctx.metrics().incr("mds.queries", 1);
        ctx.trace_with("mds.query", || {
            format!("filter `{filter}` -> {} ads", ads.len())
        });
        ctx.send(from, GripReply::Ads { request_id, ads });
    }
}

/// The per-resource information provider (GRIS).
pub struct Gris {
    /// Unique resource name.
    resource: String,
    /// Static attributes (arch, opsys, gatekeeper contact, ...).
    base_ad: ClassAd,
    /// The local scheduler to poll for load.
    lrm: Addr,
    /// The index to register with.
    giis: Addr,
}

const POLL_TAG: u64 = 1;
/// How often a GRIS polls its LRM and re-registers.
const REGISTER_PERIOD: Duration = Duration::from_mins(2);
/// TTL stamped on registrations: three periods, so one lost
/// re-registration does not drop the site from the index.
const REGISTER_TTL: Duration = Duration::from_mins(6);

impl Gris {
    /// A provider registering `base_ad` (plus live load) as `resource`.
    pub fn new(resource: &str, base_ad: ClassAd, lrm: Addr, giis: Addr) -> Gris {
        Gris {
            resource: resource.to_string(),
            base_ad,
            lrm,
            giis,
        }
    }

    fn poll(&self, ctx: &mut Ctx<'_>) {
        ctx.send(self.lrm, LrmRequest::QueryInfo);
        ctx.set_timer(REGISTER_PERIOD, POLL_TAG);
    }
}

impl Component for Gris {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.poll(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == POLL_TAG {
            self.poll(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        let Some(LrmReply::Info(info)) = msg.downcast_ref::<LrmReply>() else {
            return;
        };
        let mut ad = self.base_ad.clone();
        ad.set("Name", self.resource.as_str());
        ad.set("TotalCpus", i64::from(info.total_cpus));
        ad.set("FreeCpus", i64::from(info.free_cpus));
        ad.set("QueuedJobs", i64::from(info.queued));
        ad.set("RunningJobs", i64::from(info.running));
        ctx.send(
            self.giis,
            GrrpRegister {
                resource: self.resource.clone(),
                ad,
                ttl: REGISTER_TTL,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{Config, World};
    use gsi::CertificateAuthority;
    use site::policy::Fifo;
    use site::{JobSpec, Lrm};

    fn addr(n: u32, c: u32) -> Addr {
        Addr {
            node: gridsim::NodeId(n),
            comp: gridsim::CompId(c),
        }
    }

    #[test]
    fn addr_attr_round_trip() {
        let a = addr(5, 19);
        assert_eq!(attr_to_addr(&addr_to_attr(a)), Some(a));
        assert_eq!(attr_to_addr("garbage"), None);
        assert_eq!(attr_to_addr("n1.cx"), None);
    }

    /// A query client that stores the matched resource names.
    struct Query {
        giis: Addr,
        credential: ProxyCredential,
        filter: String,
        at: Duration,
    }

    impl Component for Query {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.at, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            ctx.send(
                self.giis,
                GripQuery {
                    request_id: 1,
                    credential: self.credential.clone(),
                    filter: self.filter.clone(),
                },
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            let node = ctx.node();
            if let Ok(reply) = msg.downcast::<GripReply>() {
                match *reply {
                    GripReply::Ads { ads, .. } => {
                        let names: Vec<String> =
                            ads.iter().filter_map(|a| a.get_str("Name")).collect();
                        ctx.store().put(node, "matches", &names);
                    }
                    GripReply::Denied { reason, .. } => {
                        ctx.store().put(node, "denied", &reason);
                    }
                }
            }
        }
    }

    struct Rig {
        world: World,
        client_node: NodeId,
    }

    fn rig(filter: &str, query_at: Duration, busy_site_jobs: u32) -> Rig {
        let mut ca = CertificateAuthority::new("/CN=CA", 2);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(10));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_days(2));
        let mut w = World::new(Config::default().seed(5));
        let n_giis = w.add_node("giis");
        let n_a = w.add_node("siteA");
        let n_b = w.add_node("siteB");
        let n_c = w.add_node("client");
        let giis = w.add_component(n_giis, "giis", Giis::new(ca.trust_root()));
        let lrm_a = w.add_component(n_a, "lrm", Lrm::new("siteA", 16, Fifo));
        let lrm_b = w.add_component(n_b, "lrm", Lrm::new("siteB", 4, Fifo));
        let ad_a = ClassAd::new().with("Arch", "INTEL").with("OpSys", "LINUX");
        let ad_b = ClassAd::new()
            .with("Arch", "SUN4u")
            .with("OpSys", "SOLARIS");
        w.add_component(n_a, "gris", Gris::new("siteA", ad_a, lrm_a, giis));
        w.add_component(n_b, "gris", Gris::new("siteB", ad_b, lrm_b, giis));
        // Optionally occupy siteB fully.
        if busy_site_jobs > 0 {
            struct Filler {
                lrm: Addr,
                n: u32,
            }
            impl Component for Filler {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    for i in 0..self.n {
                        ctx.send(
                            self.lrm,
                            LrmRequest::Submit {
                                client_job: i as u64,
                                spec: JobSpec::simple(Duration::from_days(5), "filler"),
                            },
                        );
                    }
                }
            }
            w.add_component(
                n_c,
                "filler",
                Filler {
                    lrm: lrm_b,
                    n: busy_site_jobs,
                },
            );
        }
        w.add_component(
            n_c,
            "query",
            Query {
                giis,
                credential: cred,
                filter: filter.to_string(),
                at: query_at,
            },
        );
        Rig {
            world: w,
            client_node: n_c,
        }
    }

    #[test]
    fn discovery_finds_matching_resources() {
        let mut r = rig("FreeCpus > 0", Duration::from_mins(10), 0);
        r.world.run_until(SimTime::ZERO + Duration::from_mins(11));
        let names: Vec<String> = r.world.store().get(r.client_node, "matches").unwrap();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"siteA".to_string()));
        assert!(names.contains(&"siteB".to_string()));
    }

    #[test]
    fn filters_select_by_static_attributes() {
        let mut r = rig("Arch == \"INTEL\"", Duration::from_mins(10), 0);
        r.world.run_until(SimTime::ZERO + Duration::from_mins(11));
        let names: Vec<String> = r.world.store().get(r.client_node, "matches").unwrap();
        assert_eq!(names, vec!["siteA"]);
    }

    #[test]
    fn load_is_reflected_in_ads() {
        // siteB (4 cpus) fully occupied by 4 eternal jobs: FreeCpus == 0.
        let mut r = rig("FreeCpus > 0", Duration::from_mins(10), 4);
        r.world.run_until(SimTime::ZERO + Duration::from_mins(11));
        let names: Vec<String> = r.world.store().get(r.client_node, "matches").unwrap();
        assert_eq!(names, vec!["siteA"]);
    }

    #[test]
    fn dead_resources_age_out() {
        // Crash siteA at t=5min; query at t=20min: its TTL (3×2min) lapsed.
        let mut r = rig("TotalCpus > 0", Duration::from_mins(20), 0);
        r.world.run_until(SimTime::ZERO + Duration::from_mins(5));
        r.world.crash_node_now(gridsim::NodeId(1));
        r.world.run_until(SimTime::ZERO + Duration::from_mins(21));
        let names: Vec<String> = r.world.store().get(r.client_node, "matches").unwrap();
        assert_eq!(names, vec!["siteB"], "crashed site still advertised");
    }

    #[test]
    fn bad_filter_denied() {
        let mut r = rig("FreeCpus >", Duration::from_mins(10), 0);
        r.world.run_until(SimTime::ZERO + Duration::from_mins(11));
        let denied: String = r.world.store().get(r.client_node, "denied").unwrap();
        assert!(denied.contains("parse error"), "{denied}");
    }

    #[test]
    fn unauthenticated_query_denied() {
        // Credential from an untrusted CA.
        let mut other = CertificateAuthority::new("/CN=Rogue", 9);
        let id = other.issue_identity("/CN=spy", Duration::from_days(1));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_days(1));
        let mut ca = CertificateAuthority::new("/CN=CA", 2);
        let _ = ca.issue_identity("/CN=jane", Duration::from_days(1));
        let mut w = World::new(Config::default().seed(6));
        let n_giis = w.add_node("giis");
        let n_c = w.add_node("client");
        let giis = w.add_component(n_giis, "giis", Giis::new(ca.trust_root()));
        w.add_component(
            n_c,
            "query",
            Query {
                giis,
                credential: cred,
                filter: "TRUE".into(),
                at: Duration::from_secs(1),
            },
        );
        w.run_until_quiescent();
        let denied: String = w.store().get(n_c, "denied").unwrap();
        assert!(denied.contains("untrusted issuer"), "{denied}");
        assert_eq!(w.metrics().counter("mds.denied"), 1);
    }
}
