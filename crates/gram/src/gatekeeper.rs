//! The Globus GateKeeper (Figure 1).
//!
//! One gatekeeper fronts each site. It authenticates every request with
//! GSI, authorizes through the site gridmap, deduplicates submissions by
//! `(DN, sequence number)` for exactly-once semantics, and spawns one
//! JobManager daemon per job. It also answers each client's site probe
//! with the jobs whose JobManager died or whose state moved: an answer
//! tells the GridManager the machine is up, and names the JobManagers that
//! crashed (§4.2).

use crate::jobmanager::{JmLog, JobManager};
use crate::proto::{GramError, GramJobState, GramReply, GramRequest, JmMsg, JobContact};
use gass::GassUrl;
use gridsim::hash::IdMap;
use gridsim::metrics::SiteMetrics;
use gridsim::prelude::*;
use gridsim::store::KeyBuf;
use gridsim::AnyMsg;
use gsi::{Capability, GridMap, ProxyCredential, PublicKey, TrustRoot};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

/// One dedup record persisted to stable storage so exactly-once survives
/// gatekeeper machine restarts. Each record lives under its own key
/// (suffixed by the job contact, which is unique per accepted submit), so
/// persisting a submit is O(1) instead of rewriting the whole table.
type DedupRecord = (String, u64, u64); // (DN, seq, contact)

/// The gatekeeper component.
pub struct Gatekeeper {
    site: String,
    trust: TrustRoot,
    gridmap: GridMap,
    lrm: Addr,
    /// Exactly-once machinery on (paper behaviour) or off (the naive
    /// one-phase baseline for the X1 ablation).
    two_phase: bool,
    /// Verification key for capability-based authorization (§3.2's
    /// work-in-progress mode); `None` = gridmap only.
    capability_key: Option<PublicKey>,
    /// `(DN, seq)` -> contact, one inner map per DN so a lookup borrows
    /// the DN it was handed instead of building an owned key.
    dedup: HashMap<Rc<str>, IdMap<u64, JobContact>>,
    /// Each JobManager this gatekeeper forked: its address and a weak
    /// handle on its announced state, which fails to upgrade once the
    /// JobManager is gone (killed, lost with its machine, or exited).
    jobmanagers: IdMap<JobContact, (Addr, Weak<Cell<GramJobState>>)>,
    next_contact: u64,
    /// Store keys: `gram/gk/<site>/dedup/<contact>`, `…/next_contact`, and
    /// a scratch for the `gram/jm/<contact>` log keys this gatekeeper reads
    /// and reclaims.
    dedup_key: KeyBuf,
    contact_key: String,
    jm_key: KeyBuf,
    /// The site's weather handles, resolved on first use and shared with
    /// every JobManager this gatekeeper spawns.
    weather: Option<Rc<SiteMetrics>>,
}

impl Gatekeeper {
    /// A gatekeeper for `site`, fronting the scheduler at `lrm`.
    pub fn new(site: &str, trust: TrustRoot, gridmap: GridMap, lrm: Addr) -> Gatekeeper {
        Gatekeeper {
            site: site.to_string(),
            trust,
            gridmap,
            lrm,
            two_phase: true,
            capability_key: None,
            dedup: HashMap::new(),
            jobmanagers: IdMap::default(),
            // Real job contacts are URLs naming the gatekeeper host; ours
            // embed a site fingerprint so contacts are globally unique.
            next_contact: (gsi::keys::digest(site.as_bytes()) & 0xFFFF_FFFF) << 32,
            dedup_key: KeyBuf::new(format!("gram/gk/{site}/dedup/")),
            contact_key: format!("gram/gk/{site}/next_contact"),
            jm_key: KeyBuf::new(JmLog::KEY_PREFIX),
            weather: None,
        }
    }

    /// The site's weather handles.
    fn weather(&mut self, ctx: &mut Ctx<'_>) -> Rc<SiteMetrics> {
        let site = &self.site;
        let weather = self.weather.get_or_insert_with(|| ctx.metrics().site(site));
        weather.clone()
    }

    /// Disable two-phase commit and dedup (the pre-revision GRAM baseline).
    pub fn one_phase(mut self) -> Gatekeeper {
        self.two_phase = false;
        self
    }

    /// Accept capabilities signed by this site authority as an alternative
    /// to the gridmap.
    pub fn with_capability_key(mut self, key: PublicKey) -> Gatekeeper {
        self.capability_key = Some(key);
        self
    }

    /// Remember `(dn, seq) -> contact`.
    fn remember(&mut self, dn: &str, seq: u64, contact: JobContact) {
        let dn: Rc<str> = match self.dedup.get_key_value(dn) {
            Some((known, _)) => known.clone(),
            None => dn.into(),
        };
        self.dedup.entry(dn).or_default().insert(seq, contact);
    }

    /// Persist one accepted submit: its dedup record (a [`DedupRecord`],
    /// encoded from the borrowed DN) plus the contact counter. Constant
    /// work per job — the table is never rewritten.
    fn persist_entry(&mut self, ctx: &mut Ctx<'_>, dn: &str, seq: u64, contact: JobContact) {
        let node = ctx.node();
        let key = self.dedup_key.key(format_args!("{:016x}", contact.0));
        ctx.store().put(node, key, &(dn, seq, contact.0));
        ctx.store().put(node, &self.contact_key, &self.next_contact);
    }

    /// Recover dedup state after a machine restart (used from boot hooks).
    pub fn recover(mut self, store: &gridsim::store::StableStore, node: NodeId) -> Gatekeeper {
        for key in store.keys_with_prefix(node, self.dedup_key.prefix()) {
            let (dn, seq, contact): DedupRecord =
                store.get(node, &key).expect("listed key present");
            self.remember(&dn, seq, JobContact(contact));
        }
        if let Some(next) = store.get::<u64>(node, &self.contact_key) {
            self.next_contact = next;
        }
        self
    }

    fn authenticate(
        &self,
        ctx: &mut Ctx<'_>,
        credential: &gsi::ProxyCredential,
        capability: Option<&Capability>,
    ) -> Result<(String, String), GramError> {
        let dn = credential
            .verify(ctx.now(), &self.trust)
            .map_err(|e| GramError::AuthenticationFailed(e.to_string()))?;
        // Local policy first (the gridmap), then capabilities.
        if let Some(local) = self.gridmap.authorize(&dn) {
            return Ok((dn, local.to_string()));
        }
        if let (Some(key), Some(cap)) = (self.capability_key, capability) {
            if cap.verify(key, &dn, &self.site, ctx.now()) {
                ctx.metrics().incr("gram.capability_grants", 1);
                return Ok((dn, cap.local_user.clone()));
            }
        }
        Err(GramError::AuthorizationFailed(dn))
    }

    /// Spawn a JobManager. In a lean run it notifies us on exit, once the
    /// client has acknowledged its terminal callback, so [`Self::reclaim`]
    /// can drop the job's records: exactly-once still holds for every live
    /// job, and a done-acked job can only be "resubmitted" by a client that
    /// lost its own stable store, which the Condor-G scheduler never does
    /// (it persists the terminal state *before* acking).
    fn spawn_jobmanager(&mut self, ctx: &mut Ctx<'_>, contact: JobContact, jm: JobManager) -> Addr {
        let jm = if ctx.lean() {
            jm.with_exit_notify(ctx.self_addr())
        } else {
            jm
        };
        let state = jm.state_handle();
        let addr = ctx.spawn(ctx.node(), &format!("jm-{contact}"), jm);
        self.jobmanagers.insert(contact, (addr, state));
        addr
    }

    /// The answer to a site probe of `jobs`: each job whose JobManager is
    /// gone (`None`) or in a state other than the believed one, and each
    /// job believed in no state, with its JobManager's address and state.
    fn site_status(
        &self,
        jobs: Vec<(JobContact, Option<GramJobState>)>,
    ) -> Vec<(JobContact, Option<(Addr, GramJobState)>)> {
        jobs.into_iter()
            .filter_map(|(contact, believed)| {
                let live = self
                    .jobmanagers
                    .get(&contact)
                    .and_then(|(jm, state)| Some((*jm, state.upgrade()?.get())));
                let state = live.map(|(_, state)| state);
                (believed.is_none() || state != believed).then_some((contact, live))
            })
            .collect()
    }

    /// Rebuild the JobManager for `contact` from its stable log, as
    /// forking a fresh jobmanager process would, and return its address
    /// and the state it resumes in; `None` if the site holds no log for
    /// it. Both a retransmitted submit whose JobManager is gone and a
    /// `RestartJobManager` come here.
    fn respawn(
        &mut self,
        ctx: &mut Ctx<'_>,
        contact: JobContact,
        callback: Addr,
        gass: GassUrl,
        credential: ProxyCredential,
        stdout_have: u64,
    ) -> Option<(Addr, GramJobState)> {
        let node = ctx.node();
        let log = ctx.store().get::<JmLog>(node, self.jm_key.key(contact))?;
        let state = log.state;
        let weather = self.weather(ctx);
        let jm = JobManager::recover(
            log,
            self.lrm,
            callback,
            gass,
            credential,
            stdout_have,
            weather,
        );
        Some((self.spawn_jobmanager(ctx, contact, jm), state))
    }

    /// Reclamation on a JobManager's exit notice: every per-job record this
    /// site holds goes away — registration, persisted JobManager log, and
    /// the dedup entry, found through the dedup record it is stored with.
    fn reclaim(&mut self, ctx: &mut Ctx<'_>, contact: JobContact) {
        self.jobmanagers.remove(&contact);
        let node = ctx.node();
        ctx.store().remove(node, self.jm_key.key(contact));
        let dedup_key = self.dedup_key.key(format_args!("{:016x}", contact.0));
        if let Some((dn, seq, _)) = ctx.store().get::<DedupRecord>(node, dedup_key) {
            if let Some(seqs) = self.dedup.get_mut(dn.as_str()) {
                seqs.remove(&seq);
            }
            ctx.store().remove(node, dedup_key);
        }
    }
}

impl Component for Gatekeeper {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(JmMsg::Exited { contact }) = msg.downcast_ref::<JmMsg>() {
            self.reclaim(ctx, *contact);
            return;
        }
        let Ok(req) = msg.downcast::<GramRequest>() else {
            return;
        };
        match *req {
            GramRequest::SiteProbe { jobs } => {
                let changed = self.site_status(jobs);
                ctx.send(from, GramReply::SiteStatus { changed });
            }
            GramRequest::Submit {
                seq,
                credential,
                rsl,
                callback,
                gass,
                capability,
            } => {
                let (dn, local_user) =
                    match self.authenticate(ctx, &credential, capability.as_ref()) {
                        Ok(v) => v,
                        Err(error) => {
                            ctx.metrics().incr("gram.rejected", 1);
                            let rejected = self.weather(ctx).rejected;
                            ctx.metrics().add(rejected, 1);
                            ctx.send(from, GramReply::SubmitFailed { seq, error });
                            return;
                        }
                    };
                // Exactly-once: a duplicate (DN, seq) gets the original
                // answer, never a second job.
                if self.two_phase {
                    let known = self.dedup.get(dn.as_str()).and_then(|seqs| seqs.get(&seq));
                    if let Some(&contact) = known {
                        ctx.metrics().incr("gram.duplicate_submits", 1);
                        ctx.trace_with("gram.dedup", || format!("dn={dn} seq={seq} -> {contact}"));
                        // A JobManager that is gone (killed, or its machine
                        // restarted) is restarted from its log.
                        let live = self.jobmanagers.get(&contact);
                        let jm = match live.filter(|(_, state)| state.strong_count() > 0) {
                            Some(&(jm, _)) => Some(jm),
                            None => self
                                .respawn(ctx, contact, callback, gass, credential, 0)
                                .map(|(jm, _)| jm),
                        };
                        let reply = match jm {
                            Some(jobmanager) => GramReply::Submitted {
                                seq,
                                contact,
                                jobmanager,
                            },
                            None => GramReply::SubmitFailed {
                                seq,
                                error: GramError::UnknownJob,
                            },
                        };
                        ctx.send(from, reply);
                        return;
                    }
                }
                let spec = match crate::rsl::parse(&rsl) {
                    Ok(s) => s,
                    Err(e) => {
                        ctx.send(
                            from,
                            GramReply::SubmitFailed {
                                seq,
                                error: GramError::BadRsl(e.to_string()),
                            },
                        );
                        return;
                    }
                };
                let contact = JobContact(self.next_contact);
                self.next_contact += 1;
                ctx.metrics().incr("gram.submits", 1);
                let weather = self.weather(ctx);
                ctx.metrics().add(weather.submits, 1);
                ctx.trace_with("gram.submit", || {
                    format!("{} dn={dn} seq={seq} -> {contact}", self.site)
                });
                ctx.trace_with("span", || {
                    format!("seq={seq} contact={} phase=auth", contact.0)
                });
                let jm = JobManager::new(
                    contact,
                    spec,
                    credential,
                    callback,
                    gass,
                    self.lrm,
                    &local_user,
                    // One-phase servers start executing immediately.
                    !self.two_phase,
                    weather,
                );
                let jm_addr = self.spawn_jobmanager(ctx, contact, jm);
                if self.two_phase {
                    self.persist_entry(ctx, &dn, seq, contact);
                    self.remember(&dn, seq, contact);
                }
                ctx.send(
                    from,
                    GramReply::Submitted {
                        seq,
                        contact,
                        jobmanager: jm_addr,
                    },
                );
            }
            GramRequest::RestartJobManager {
                contact,
                credential,
                callback,
                gass,
                stdout_have,
                capability,
            } => {
                if let Err(error) = self.authenticate(ctx, &credential, capability.as_ref()) {
                    ctx.send(from, GramReply::RestartFailed { contact, error });
                    return;
                }
                // Tear down any existing JobManager for this contact (it
                // may be a zombie the client can no longer reach) and start
                // a fresh one from the stable log — like forking a new
                // jobmanager process.
                if let Some((jm, _)) = self.jobmanagers.remove(&contact) {
                    ctx.kill(jm);
                }
                let reply =
                    match self.respawn(ctx, contact, callback, gass, credential, stdout_have) {
                        Some((jobmanager, state)) => {
                            ctx.metrics().incr("gram.jm_restarts", 1);
                            ctx.trace_with("gram.jm_restart", || format!("{contact}"));
                            GramReply::Restarted {
                                contact,
                                jobmanager,
                                state,
                            }
                        }
                        None => GramReply::RestartFailed {
                            contact,
                            error: GramError::UnknownJob,
                        },
                    };
                ctx.send(from, reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::codec::{from_bytes, to_bytes};
    use gridsim::{CompId, NodeId};
    use GramJobState::{Active, Pending, StageOut};

    #[test]
    fn a_site_probe_is_answered_with_the_jobs_that_have_news() {
        let addr = |comp| Addr {
            node: NodeId(1),
            comp: CompId(comp),
        };
        let mut gk = Gatekeeper::new("wisc", TrustRoot::new(), GridMap::new(), addr(0));
        let cells: Vec<_> = [Active, Pending, StageOut, Active, Active]
            .into_iter()
            .map(|state| Rc::new(Cell::new(state)))
            .collect();
        // The JobManager of contact `i` lives at component `10 + i`.
        for (i, cell) in cells.iter().enumerate() {
            let handle = Rc::downgrade(cell);
            gk.jobmanagers
                .insert(JobContact(i as u64), (addr(10 + i as u32), handle));
        }
        // The JobManager of contact 3 is killed: its cell is dropped.
        let mut cells = cells;
        cells.remove(3);
        let asked = vec![
            // Alive in the believed state: omitted.
            (JobContact(0), Some(Active)),
            // Alive in another state: listed with its address and state.
            (JobContact(1), Some(Active)),
            // Believed nothing: listed, whatever its state, gone or not.
            (JobContact(2), None),
            (JobContact(8), None),
            // Killed: listed as gone.
            (JobContact(3), Some(Active)),
            // Never forked here (a gatekeeper that lost its table): gone.
            (JobContact(9), Some(Active)),
            (JobContact(4), Some(Active)),
        ];
        assert_eq!(
            gk.site_status(asked),
            [
                (JobContact(1), Some((addr(11), Pending))),
                (JobContact(2), Some((addr(12), StageOut))),
                (JobContact(8), None),
                (JobContact(3), None),
                (JobContact(9), None),
            ]
        );
        // A state moves the moment its JobManager announces it.
        cells[0].set(StageOut);
        let asked = vec![(JobContact(0), Some(Active))];
        assert_eq!(
            gk.site_status(asked),
            [(JobContact(0), Some((addr(10), StageOut)))]
        );
    }

    /// The dedup record, written from a borrowed DN, byte for byte in
    /// the varint layout.
    #[test]
    fn dedup_record_bytes_are_pinned() {
        let pinned = "0f2f4f3d477269642f434e3d6a616e650489808080f0dd2f";
        let bytes = to_bytes(&("/O=Grid/CN=jane", 4u64, 0xbeef_0000_0009u64));
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, pinned);
        let back: DedupRecord = from_bytes(&bytes).unwrap();
        assert_eq!(back, ("/O=Grid/CN=jane".to_string(), 4, 0xbeef_0000_0009));
    }
}
