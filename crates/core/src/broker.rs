//! Resource discovery and scheduling strategies (paper §4.4).
//!
//! "A simple approach, which we used in the initial implementation, is to
//! employ a user-supplied list of GRAM servers... A more sophisticated
//! approach is to construct a personal resource broker that runs as part
//! of the Condor-G agent and combines information about user authorization,
//! application requirements and resource status (obtained from MDS)...
//! One promising approach... is to use the Condor Matchmaking framework."
//!
//! [`StaticListBroker`] is the former; [`MdsBroker`] is the latter — it
//! keeps a cache of GIIS ads (refreshed by the GridManager's periodic
//! queries) and picks targets by ClassAd matchmaking and rank, following
//! the Vazhkudai et al. pattern the paper cites.
//!
//! [`AdaptiveBroker`] wraps either one with the grid-weather quarantine
//! loop: sites the [`SiteHealthTracker`] currently quarantines are added
//! to the exclusion list, so work drains to healthy sites and the sick
//! one is only re-tried once its probation opens.

use crate::api::GridJobSpec;
use classads::{rank, symmetric_match, ClassAd};
use gridsim::metrics::Metrics;
use gridsim::obs::{HealthEvent, SiteHealthTracker};
use gridsim::{Addr, SimTime};

/// A known gatekeeper: its contact address plus a site description ad.
#[derive(Clone, Debug)]
pub struct GatekeeperInfo {
    /// Site name (for logs).
    pub site: String,
    /// The gatekeeper component.
    pub addr: Addr,
    /// Description used for matchmaking (may be empty for static lists).
    pub ad: ClassAd,
}

/// Chooses where the next submission (or resubmission) of a job goes.
pub trait Broker: Send + 'static {
    /// Pick a gatekeeper for `spec`, avoiding the sites in `exclude`
    /// (recent failures there). `None` = nothing suitable right now.
    fn select(&mut self, spec: &GridJobSpec, exclude: &[String]) -> Option<GatekeeperInfo>;

    /// Feed a fresh batch of resource ads (from an MDS query), which
    /// replaces the last. Static brokers ignore this.
    fn update_ads(&mut self, _ads: Vec<(Addr, ClassAd)>) {}

    /// Record submission feedback so load spreads (a site just received a
    /// job / just failed one).
    fn note_submission(&mut self, _site: &str) {}

    /// Feed the run's metrics, from which an adaptive broker reads each
    /// site's weather; returns any health transitions it triggered (so the
    /// caller can trace them). Non-adaptive brokers read nothing and
    /// report none.
    fn observe_weather(&mut self, _metrics: &Metrics, _now: SimTime) -> Vec<HealthEvent> {
        Vec::new()
    }
}

/// Round-robin over a user-supplied list of GRAM servers, skipping
/// excluded sites.
pub struct StaticListBroker {
    servers: Vec<GatekeeperInfo>,
    cursor: usize,
}

impl StaticListBroker {
    /// A broker over the given servers (order = initial preference).
    pub fn new(servers: Vec<GatekeeperInfo>) -> StaticListBroker {
        StaticListBroker { servers, cursor: 0 }
    }
}

impl Broker for StaticListBroker {
    fn select(&mut self, spec: &GridJobSpec, exclude: &[String]) -> Option<GatekeeperInfo> {
        let _ = spec;
        if self.servers.is_empty() {
            return None;
        }
        for i in 0..self.servers.len() {
            let idx = (self.cursor + i) % self.servers.len();
            let candidate = &self.servers[idx];
            if !exclude.contains(&candidate.site) {
                self.cursor = idx + 1;
                return Some(candidate.clone());
            }
        }
        // Everything is excluded: fall back to plain round-robin rather
        // than refusing to run the job anywhere.
        let idx = self.cursor % self.servers.len();
        self.cursor += 1;
        Some(self.servers[idx].clone())
    }
}

/// The personal resource broker: matchmaking over cached MDS ads.
///
/// Site ads must carry a `Gatekeeper` attribute (encoded with
/// [`mds::addr_to_attr`]) naming the site's gatekeeper. Job requirements
/// and rank come from the spec. The ads are those of the last MDS
/// answer: a site the directory stopped listing is gone at once.
#[derive(Default)]
pub struct MdsBroker {
    ads: Vec<(Addr, ClassAd)>,
    /// Jobs steered to each site since the last ad refresh (keeps a burst
    /// of submissions from all landing on the site that looked best at the
    /// last poll).
    recent: std::collections::HashMap<String, u32>,
}

impl MdsBroker {
    /// A broker with no ads yet.
    pub fn new() -> MdsBroker {
        MdsBroker::default()
    }

    fn job_ad(spec: &GridJobSpec) -> ClassAd {
        let mut ad = ClassAd::new()
            .with("Cpus", i64::from(spec.count))
            .with("RuntimeEstimate", spec.runtime.as_secs_f64());
        if let Some(req) = &spec.requirements {
            ad.set_parsed("Requirements", req).ok();
        }
        if let Some(r) = &spec.rank {
            ad.set_parsed("Rank", r).ok();
        }
        ad
    }
}

impl Broker for MdsBroker {
    fn select(&mut self, spec: &GridJobSpec, exclude: &[String]) -> Option<GatekeeperInfo> {
        let job_ad = MdsBroker::job_ad(spec);
        let mut best: Option<(f64, f64, GatekeeperInfo)> = None;
        for (gk, ad) in &self.ads {
            let site = ad.get_str("Name").unwrap_or_default();
            if exclude.contains(&site) {
                continue;
            }
            if !symmetric_match(&job_ad, ad) {
                continue;
            }
            let r = rank(&job_ad, ad);
            // Tiebreak rank by remaining headroom after recent steering.
            let free = ad.get_int("FreeCpus").unwrap_or(0) as f64;
            let pressure = *self.recent.get(&site).unwrap_or(&0) as f64;
            let headroom = free - pressure;
            let better = match &best {
                None => true,
                Some((br, bh, _)) => r > *br || (r == *br && headroom > *bh),
            };
            if better {
                best = Some((
                    r,
                    headroom,
                    GatekeeperInfo {
                        site,
                        addr: *gk,
                        ad: ad.clone(),
                    },
                ));
            }
        }
        best.map(|(_, _, info)| info)
    }

    fn update_ads(&mut self, ads: Vec<(Addr, ClassAd)>) {
        self.ads = ads;
        self.recent.clear();
    }

    fn note_submission(&mut self, site: &str) {
        *self.recent.entry(site.to_string()).or_insert(0) += 1;
    }
}

/// Weather-driven wrapper around any inner broker.
///
/// Selection extends the caller's exclusion list with every currently
/// quarantined site; if that leaves nothing (e.g. all sites sick), it
/// falls back to the inner broker with the original exclusions — a wrong
/// pick beats stranding the job forever.
pub struct AdaptiveBroker {
    inner: Box<dyn Broker>,
    tracker: SiteHealthTracker,
}

impl AdaptiveBroker {
    /// Wrap `inner` with a health tracker that has seen no site yet.
    pub fn new(inner: Box<dyn Broker>) -> AdaptiveBroker {
        AdaptiveBroker {
            inner,
            tracker: SiteHealthTracker::new(),
        }
    }

    /// The health tracker's view (for reports/tests).
    pub fn tracker(&self) -> &SiteHealthTracker {
        &self.tracker
    }
}

impl Broker for AdaptiveBroker {
    fn select(&mut self, spec: &GridJobSpec, exclude: &[String]) -> Option<GatekeeperInfo> {
        let quarantined = self.tracker.quarantined_sites();
        if quarantined.is_empty() {
            return self.inner.select(spec, exclude);
        }
        let mut extended = exclude.to_vec();
        extended.extend(quarantined);
        match self.inner.select(spec, &extended) {
            // The static broker's all-excluded fallback can still hand back
            // a quarantined site; treat that as "nothing healthy" too.
            Some(pick) if !self.tracker.is_quarantined(&pick.site) => Some(pick),
            _ => self.inner.select(spec, exclude),
        }
    }

    fn update_ads(&mut self, ads: Vec<(Addr, ClassAd)>) {
        self.inner.update_ads(ads);
    }

    fn note_submission(&mut self, site: &str) {
        self.inner.note_submission(site);
    }

    fn observe_weather(&mut self, metrics: &Metrics, now: SimTime) -> Vec<HealthEvent> {
        self.tracker.observe(metrics, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::time::Duration;
    use gridsim::{CompId, NodeId};

    fn addr(n: u32) -> Addr {
        Addr {
            node: NodeId(n),
            comp: CompId(n),
        }
    }

    fn spec() -> GridJobSpec {
        GridJobSpec::grid("j", "/x", Duration::from_mins(10))
    }

    fn info(site: &str, n: u32) -> GatekeeperInfo {
        GatekeeperInfo {
            site: site.into(),
            addr: addr(n),
            ad: ClassAd::new(),
        }
    }

    #[test]
    fn static_list_round_robins() {
        let mut b = StaticListBroker::new(vec![info("a", 1), info("b", 2), info("c", 3)]);
        let picks: Vec<String> = (0..6)
            .map(|_| b.select(&spec(), &[]).unwrap().site)
            .collect();
        assert_eq!(picks, ["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn static_list_skips_excluded() {
        let mut b = StaticListBroker::new(vec![info("a", 1), info("b", 2)]);
        let pick = b.select(&spec(), &["a".to_string()]).unwrap();
        assert_eq!(pick.site, "b");
        // All excluded: still yields something (round-robin fallback).
        let pick = b
            .select(&spec(), &["a".to_string(), "b".to_string()])
            .unwrap();
        assert!(["a", "b"].contains(&pick.site.as_str()));
    }

    #[test]
    fn empty_static_list_yields_none() {
        let mut b = StaticListBroker::new(vec![]);
        assert!(b.select(&spec(), &[]).is_none());
    }

    fn site_ad(name: &str, free: i64, arch: &str) -> ClassAd {
        ClassAd::new()
            .with("Name", name)
            .with("FreeCpus", free)
            .with("TotalCpus", 64i64)
            .with("Arch", arch)
    }

    #[test]
    fn mds_broker_matches_requirements_and_ranks() {
        let mut b = MdsBroker::new();
        b.update_ads(vec![
            (addr(1), site_ad("intel-small", 2, "INTEL")),
            (addr(2), site_ad("intel-big", 40, "INTEL")),
            (addr(3), site_ad("sparc", 100, "SUN4u")),
        ]);
        let spec = spec()
            .with_requirements("TARGET.Arch == \"INTEL\" && TARGET.FreeCpus > 0")
            .with_rank("TARGET.FreeCpus");
        let pick = b.select(&spec, &[]).unwrap();
        assert_eq!(pick.site, "intel-big");
        // Exclusion forces second best.
        let pick = b.select(&spec, &["intel-big".to_string()]).unwrap();
        assert_eq!(pick.site, "intel-small");
        // Nothing matches when requirements rule all out.
        let impossible = super::super::api::GridJobSpec::grid("j", "/x", Duration::from_mins(1))
            .with_requirements("TARGET.Arch == \"ALPHA\"");
        assert!(b.select(&impossible, &[]).is_none());
    }

    #[test]
    fn mds_broker_spreads_load_between_refreshes() {
        let mut b = MdsBroker::new();
        b.update_ads(vec![
            (addr(1), site_ad("a", 3, "INTEL")),
            (addr(2), site_ad("b", 2, "INTEL")),
        ]);
        let spec = spec(); // no rank: headroom decides
        let mut picks = Vec::new();
        for _ in 0..5 {
            let p = b.select(&spec, &[]).unwrap();
            b.note_submission(&p.site);
            picks.push(p.site);
        }
        // 3 to a, 2 to b — proportional to free CPUs.
        assert_eq!(picks.iter().filter(|s| *s == "a").count(), 3);
        assert_eq!(picks.iter().filter(|s| *s == "b").count(), 2);
    }

    #[test]
    fn mds_broker_with_no_ads_yields_none() {
        let mut b = MdsBroker::new();
        assert!(b.select(&spec(), &[]).is_none());
    }

    /// Metrics in which each `(site, n)` has charged `n` attempt failures.
    fn weather(failures: &[(&str, u64)]) -> Metrics {
        let mut m = Metrics::new();
        for (site, n) in failures {
            let id = m.site(site).attempt_failures;
            m.add(id, *n);
        }
        m
    }

    #[test]
    fn adaptive_broker_routes_around_quarantined_sites() {
        let inner = StaticListBroker::new(vec![info("a", 1), info("b", 2), info("c", 3)]);
        let mut b = AdaptiveBroker::new(Box::new(inner));
        // Site `a` fails: weather shows an attempt failure → quarantine.
        let evs = b.observe_weather(&weather(&[("a", 1), ("b", 0), ("c", 0)]), SimTime::ZERO);
        assert_eq!(evs.len(), 1);
        assert!(b.tracker().is_quarantined("a"));
        // Selection never lands on `a` while it is quarantined.
        let picks: Vec<String> = (0..4)
            .map(|_| b.select(&spec(), &[]).unwrap().site)
            .collect();
        assert!(picks.iter().all(|s| s != "a"), "{picks:?}");
    }

    #[test]
    fn adaptive_broker_falls_back_when_everything_is_sick() {
        let inner = StaticListBroker::new(vec![info("a", 1)]);
        let mut b = AdaptiveBroker::new(Box::new(inner));
        b.observe_weather(&weather(&[("a", 2)]), SimTime::ZERO);
        assert!(b.tracker().is_quarantined("a"));
        // The only site is quarantined: still pick it rather than strand
        // the job.
        assert_eq!(b.select(&spec(), &[]).unwrap().site, "a");
    }

    #[test]
    fn non_adaptive_brokers_ignore_weather() {
        let mut b = StaticListBroker::new(vec![info("a", 1)]);
        assert!(b
            .observe_weather(&weather(&[("a", 5)]), SimTime::ZERO)
            .is_empty());
        assert_eq!(b.select(&spec(), &[]).unwrap().site, "a");
    }
}
