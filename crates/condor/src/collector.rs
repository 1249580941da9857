//! The Collector: the pool's ad repository.

use crate::proto::{AdKind, Advertise, CollectorAds, CollectorQuery, Invalidate};
use classads::{ClassAd, EvalCtx, Expr, Value};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

struct Entry {
    contact: Addr,
    /// The advertiser's own handle: query answers hand it on, and a
    /// re-advertisement carrying the same handle is a refresh, not a new ad.
    ad: Rc<ClassAd>,
    expires: SimTime,
    /// `verdicts[slot]`: does the constraint in that slot of
    /// [`Collector::constraints`] hold on `ad`? `None` until first asked.
    /// A constraint is a pure function of the ad (`classads::funcs` has no
    /// time or random builtin) and the ad is immutable behind its handle,
    /// so a verdict stands until the handle is replaced.
    verdicts: Vec<Option<bool>>,
}

impl Entry {
    fn holds(&mut self, slot: usize, constraint: &Expr) -> bool {
        if self.verdicts.len() <= slot {
            self.verdicts.resize(slot + 1, None);
        }
        *self.verdicts[slot].get_or_insert_with(|| {
            #[cfg(test)]
            tests::EVALUATIONS.with(|n| n.set(n.get() + 1));
            EvalCtx::solo(&self.ad).eval(constraint) == Value::Bool(true)
        })
    }
}

/// The pool collector. Machines (startds) and submitters (schedds)
/// advertise here; the negotiator and the Condor-G scheduler query it.
/// GlideIn startds advertise to the *user's personal* collector, which is
/// the whole trick of §5.
#[derive(Default)]
pub struct Collector {
    tables: BTreeMap<(AdKind, String), Entry>,
    /// Every constraint string ever asked, with its verdict slot and its
    /// parse (`None` caches a parse failure): the negotiator asks the same
    /// one or two strings every cycle, so parsing is once ever and
    /// evaluation once per ad handle, not once per query.
    constraints: HashMap<String, (usize, Option<Rc<Expr>>)>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }
}

impl Component for Collector {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        let msg = match msg.downcast::<Advertise>() {
            Ok(ad) => {
                ctx.metrics().incr("collector.advertisements", 1);
                let Advertise {
                    kind,
                    name,
                    ad,
                    ttl,
                    contact,
                } = *ad;
                let expires = ctx.now() + ttl;
                let key = (kind, name);
                match self.tables.get_mut(&key) {
                    Some(e) if Rc::ptr_eq(&e.ad, &ad) => {
                        e.contact = contact;
                        e.expires = expires;
                    }
                    _ => {
                        self.tables.insert(
                            key,
                            Entry {
                                contact,
                                ad,
                                expires,
                                verdicts: Vec::new(),
                            },
                        );
                    }
                }
                return;
            }
            Err(msg) => msg,
        };
        if let Some(inv) = msg.downcast_ref::<Invalidate>() {
            self.tables.remove(&(inv.kind, inv.name.clone()));
            return;
        }
        let Ok(query) = msg.downcast::<CollectorQuery>() else {
            return;
        };
        let CollectorQuery {
            request_id,
            kind,
            constraint,
        } = *query;
        let now = ctx.now();
        self.tables.retain(|_, e| e.expires > now);
        let next_slot = self.constraints.len();
        let (slot, expr) = self
            .constraints
            .entry(constraint)
            .or_insert_with_key(|c| (next_slot, classads::parse_expr(c).ok().map(Rc::new)))
            .clone();
        let Some(expr) = expr else {
            ctx.send(
                from,
                CollectorAds {
                    request_id,
                    ads: Vec::new(),
                },
            );
            return;
        };
        let ads: Vec<(String, Addr, Rc<ClassAd>)> = self
            .tables
            .iter_mut()
            .filter_map(|((k, name), e)| {
                (*k == kind && e.holds(slot, &expr))
                    .then(|| (name.clone(), e.contact, Rc::clone(&e.ad)))
            })
            .collect();
        ctx.metrics().incr("collector.queries", 1);
        ctx.send(from, CollectorAds { request_id, ads });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{Config, World};
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Constraint evaluations made by this thread's collectors.
        pub(super) static EVALUATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn evaluations() -> u64 {
        EVALUATIONS.with(Cell::get)
    }

    const UNCLAIMED: &str = "State == \"Unclaimed\"";
    const TTL: Duration = Duration::from_mins(5);

    type Answers = Rc<RefCell<Vec<(Addr, Vec<String>)>>>;

    /// Stands between the test and the collectors: relays what the test
    /// posts to every collector (as a flocking schedd would) and records
    /// each answer with the collector it came from.
    struct Client {
        collectors: Vec<Addr>,
        answers: Answers,
    }

    impl Component for Client {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            let msg = match msg.downcast::<CollectorAds>() {
                Ok(ads) => {
                    let names = ads.ads.iter().map(|(n, _, _)| n.clone()).collect();
                    self.answers.borrow_mut().push((from, names));
                    return;
                }
                Err(msg) => msg,
            };
            let me = ctx.self_addr();
            for &collector in &self.collectors {
                if let Some(ad) = msg.downcast_ref::<Advertise>() {
                    ctx.send(
                        collector,
                        Advertise {
                            kind: ad.kind,
                            name: ad.name.clone(),
                            ad: Rc::clone(&ad.ad),
                            ttl: ad.ttl,
                            contact: me,
                        },
                    );
                } else if let Some(q) = msg.downcast_ref::<CollectorQuery>() {
                    ctx.send(
                        collector,
                        CollectorQuery {
                            request_id: q.request_id,
                            kind: q.kind,
                            constraint: q.constraint.clone(),
                        },
                    );
                }
            }
        }
    }

    struct Pool {
        w: World,
        client: Addr,
        collectors: Vec<Addr>,
        answers: Answers,
    }

    fn pool(collectors: usize) -> Pool {
        EVALUATIONS.with(|n| n.set(0));
        let mut w = World::new(Config::default().seed(1));
        let node = w.add_node("central");
        let collectors: Vec<Addr> = (0..collectors)
            .map(|i| w.add_component(node, &format!("collector{i}"), Collector::new()))
            .collect();
        let answers = Answers::default();
        let client = w.add_component(
            node,
            "client",
            Client {
                collectors: collectors.clone(),
                answers: Rc::clone(&answers),
            },
        );
        Pool {
            w,
            client,
            collectors,
            answers,
        }
    }

    fn machine(state: &str, memory: i64) -> Rc<ClassAd> {
        Rc::new(ClassAd::new().with("State", state).with("Memory", memory))
    }

    impl Pool {
        fn advertise(&mut self, kind: AdKind, name: &str, ad: &Rc<ClassAd>) {
            self.w.post(
                self.client,
                Advertise {
                    kind,
                    name: name.into(),
                    ad: Rc::clone(ad),
                    ttl: TTL,
                    contact: self.client,
                },
            );
            self.w.run_until_quiescent();
        }

        /// Wait `after`, then ask every collector; one answer per collector.
        fn query(&mut self, after: Duration, constraint: &str) -> Vec<(Addr, Vec<String>)> {
            let at = self.w.now() + after;
            self.w.run_until(at);
            self.w.post(
                self.client,
                CollectorQuery {
                    request_id: 1,
                    kind: AdKind::Machine,
                    constraint: constraint.into(),
                },
            );
            self.w.run_until_quiescent();
            std::mem::take(&mut *self.answers.borrow_mut())
        }

        fn query_one(&mut self, after: Duration, constraint: &str) -> Vec<String> {
            let mut answers = self.query(after, constraint);
            assert_eq!(answers.len(), 1, "one collector, one answer");
            answers.remove(0).1
        }
    }

    #[test]
    fn constraint_queries_by_kind() {
        let mut p = pool(1);
        p.advertise(AdKind::Machine, "m1", &machine("Unclaimed", 64));
        p.advertise(AdKind::Machine, "m2", &machine("Claimed", 128));
        let submitter = Rc::new(ClassAd::new().with("IdleJobs", 3i64));
        p.advertise(AdKind::Submitter, "schedd1", &submitter);
        assert_eq!(p.query_one(Duration::from_secs(1), UNCLAIMED), ["m1"]);
    }

    #[test]
    fn ads_expire() {
        let mut p = pool(1);
        p.advertise(AdKind::Machine, "m1", &machine("Unclaimed", 64));
        // Query only after the TTL has lapsed.
        let names = p.query_one(Duration::from_mins(10), UNCLAIMED);
        assert!(names.is_empty(), "stale ads served: {names:?}");
    }

    #[test]
    fn same_handle_refresh_extends_the_ttl_without_re_evaluating() {
        let mut p = pool(1);
        let ad = machine("Unclaimed", 64);
        p.advertise(AdKind::Machine, "m1", &ad);
        assert_eq!(p.query_one(Duration::from_mins(4), UNCLAIMED), ["m1"]);
        let evaluated = evaluations();
        assert_eq!(evaluated, 1);
        p.advertise(AdKind::Machine, "m1", &ad);
        // Minute 8: past the first advert's expiry, inside the refresh's.
        assert_eq!(p.query_one(Duration::from_mins(4), UNCLAIMED), ["m1"]);
        assert_eq!(evaluations(), evaluated, "a refresh re-evaluated");
        // Minute 10: the refresh (minute 4 + 5) has lapsed too.
        let names = p.query_one(Duration::from_mins(2), UNCLAIMED);
        assert!(names.is_empty(), "stale ad served: {names:?}");
    }

    #[test]
    fn new_handle_replaces_the_verdict_at_once() {
        let mut p = pool(1);
        p.advertise(AdKind::Machine, "m1", &machine("Unclaimed", 64));
        assert_eq!(p.query_one(Duration::from_secs(1), UNCLAIMED), ["m1"]);
        p.advertise(AdKind::Machine, "m1", &machine("Claimed", 64));
        let names = p.query_one(Duration::ZERO, UNCLAIMED);
        assert!(names.is_empty(), "claimed machine served: {names:?}");
        p.advertise(AdKind::Machine, "m1", &machine("Unclaimed", 64));
        assert_eq!(p.query_one(Duration::ZERO, UNCLAIMED), ["m1"]);
    }

    #[test]
    fn constraints_keep_independent_verdicts() {
        let mut p = pool(1);
        p.advertise(AdKind::Machine, "m1", &machine("Unclaimed", 64));
        p.advertise(AdKind::Machine, "m2", &machine("Claimed", 128));
        let big = "Memory >= 100";
        for _ in 0..2 {
            assert_eq!(p.query_one(Duration::from_secs(1), UNCLAIMED), ["m1"]);
            assert_eq!(p.query_one(Duration::from_secs(1), big), ["m2"]);
            assert_eq!(p.query_one(Duration::from_secs(1), "TRUE"), ["m1", "m2"]);
            assert!(p.query_one(Duration::from_secs(1), "State ==").is_empty());
        }
        // Two ads under three parsable constraints, each evaluated once.
        assert_eq!(evaluations(), 6);
    }

    #[test]
    fn one_handle_in_two_collectors_stays_consistent() {
        let mut p = pool(2);
        let ad = machine("Unclaimed", 64);
        p.advertise(AdKind::Machine, "m1", &ad);
        let both = |names: &[&str]| -> Vec<(Addr, Vec<String>)> {
            p.collectors
                .iter()
                .map(|&c| (c, names.iter().map(|n| n.to_string()).collect()))
                .collect()
        };
        let (unclaimed, nothing) = (both(&["m1"]), both(&[]));
        assert_eq!(p.query(Duration::from_mins(4), UNCLAIMED), unclaimed);
        p.advertise(AdKind::Machine, "m1", &ad);
        assert_eq!(p.query(Duration::from_mins(4), UNCLAIMED), unclaimed);
        assert_eq!(evaluations(), 2, "once per collector");
        p.advertise(AdKind::Machine, "m1", &machine("Claimed", 64));
        assert_eq!(p.query(Duration::ZERO, UNCLAIMED), nothing);
        assert_eq!(Rc::strong_count(&ad), 1, "a replaced handle was retained");
    }
}
