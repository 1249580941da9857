//! The Globus GateKeeper (Figure 1).
//!
//! One gatekeeper fronts each site. It authenticates every request with
//! GSI, authorizes through the site gridmap, deduplicates submissions by
//! `(DN, sequence number)` for exactly-once semantics, and spawns one
//! JobManager daemon per job. It also answers liveness pings — the probe
//! the GridManager uses to distinguish "JobManager crashed" from "whole
//! machine or network down" (§4.2).

use crate::jobmanager::{JmLog, JobManager, SiteCounters};
use crate::proto::{GramError, GramReply, GramRequest, JmMsg, JobContact};
use gridsim::hash::IdMap;
use gridsim::prelude::*;
use gridsim::store::KeyBuf;
use gridsim::AnyMsg;
use gsi::{Capability, GridMap, PublicKey, TrustRoot};
use std::collections::HashMap;
use std::rc::Rc;

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
    jobmanagers: IdMap<JobContact, Addr>,
    next_contact: u64,
    /// Store keys: `gram/gk/<site>/dedup/<contact>`, `…/next_contact`, and
    /// a scratch for the `gram/jm/<contact>` log keys this gatekeeper reads
    /// and reclaims.
    dedup_key: KeyBuf,
    contact_key: String,
    jm_key: KeyBuf,
    /// Site-scoped grid-weather counters, precomputed once.
    metric_submits: String,
    metric_rejected: String,
    jm_counters: Rc<SiteCounters>,
    /// Lean (campaign) mode: JobManagers notify us on exit and we reclaim
    /// every per-job record, keeping gatekeeper memory bounded by the
    /// *in-flight* job count rather than the lifetime total.
    lean: bool,
    /// Reverse dedup index, maintained only in lean mode so `Exited` can
    /// drop the `(DN, seq)` entry in O(1).
    dedup_rev: IdMap<JobContact, (Rc<str>, u64)>,
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
            metric_submits: format!("site.{site}.submits"),
            metric_rejected: format!("site.{site}.rejected"),
            jm_counters: SiteCounters::new(site),
            lean: false,
            dedup_rev: IdMap::default(),
        }
    }

    /// Disable two-phase commit and dedup (the pre-revision GRAM baseline).
    pub fn one_phase(mut self) -> Gatekeeper {
        self.two_phase = false;
        self
    }

    /// Lean (campaign) mode: reclaim all per-job state — dedup entry,
    /// JobManager registration, persisted JobManager log and dedup record —
    /// once the client acknowledges a job's terminal callback. Exactly-once
    /// still holds for every live job; a done-acked job can only be
    /// "resubmitted" by a client that lost its own stable store, which the
    /// Condor-G scheduler never does (it persists the terminal state
    /// *before* acking). Off by default: audit-trail runs keep every record.
    pub fn lean(mut self) -> Gatekeeper {
        self.lean = true;
        self
    }

    /// Accept capabilities signed by this site authority as an alternative
    /// to the gridmap.
    pub fn with_capability_key(mut self, key: PublicKey) -> Gatekeeper {
        self.capability_key = Some(key);
        self
    }

    /// Remember `(dn, seq) -> contact` (and, in lean mode, the way back).
    fn remember(&mut self, dn: &str, seq: u64, contact: JobContact) {
        let dn: Rc<str> = match self.dedup.get_key_value(dn) {
            Some((known, _)) => known.clone(),
            None => dn.into(),
        };
        if self.lean {
            self.dedup_rev.insert(contact, (dn.clone(), seq));
        }
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

    fn spawn_jobmanager(&mut self, ctx: &mut Ctx<'_>, contact: JobContact, jm: JobManager) -> Addr {
        let jm = if self.lean {
            jm.with_exit_notify(ctx.self_addr())
        } else {
            jm
        };
        let addr = ctx.spawn(ctx.node(), &format!("jm-{contact}"), jm);
        self.jobmanagers.insert(contact, addr);
        addr
    }

    /// Lean-mode reclamation on a JobManager's exit notice: every per-job
    /// record this site holds goes away.
    fn reclaim(&mut self, ctx: &mut Ctx<'_>, contact: JobContact) {
        self.jobmanagers.remove(&contact);
        let node = ctx.node();
        ctx.store().remove(node, self.jm_key.key(contact));
        if let Some((dn, seq)) = self.dedup_rev.remove(&contact) {
            if let Some(seqs) = self.dedup.get_mut(&dn) {
                seqs.remove(&seq);
            }
        }
        let dedup_key = self.dedup_key.key(format_args!("{:016x}", contact.0));
        ctx.store().remove(node, dedup_key);
    }
}

impl Component for Gatekeeper {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(JmMsg::Exited { contact }) = msg.downcast_ref::<JmMsg>() {
            if self.lean {
                self.reclaim(ctx, *contact);
            }
            return;
        }
        let Ok(req) = msg.downcast::<GramRequest>() else {
            return;
        };
        match *req {
            GramRequest::Ping { nonce } => {
                ctx.send(from, GramReply::Pong { nonce });
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
                            ctx.metrics().incr(&self.metric_rejected, 1);
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
                        if let Some(&jm) = self.jobmanagers.get(&contact) {
                            ctx.send(
                                from,
                                GramReply::Submitted {
                                    seq,
                                    contact,
                                    jobmanager: jm,
                                },
                            );
                        } else {
                            // JobManager gone (e.g. machine restarted):
                            // restart it from its log.
                            let node = ctx.node();
                            match ctx.store().get::<JmLog>(node, self.jm_key.key(contact)) {
                                Some(log) => {
                                    let jm = self.spawn_jobmanager(
                                        ctx,
                                        contact,
                                        JobManager::recover(
                                            log,
                                            self.lrm,
                                            callback,
                                            gass,
                                            credential.clone(),
                                            0,
                                            self.jm_counters.clone(),
                                        ),
                                    );
                                    ctx.send(
                                        from,
                                        GramReply::Submitted {
                                            seq,
                                            contact,
                                            jobmanager: jm,
                                        },
                                    );
                                }
                                None => {
                                    ctx.send(
                                        from,
                                        GramReply::SubmitFailed {
                                            seq,
                                            error: GramError::UnknownJob,
                                        },
                                    );
                                }
                            }
                        }
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
                ctx.metrics().incr(&self.metric_submits, 1);
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
                    self.jm_counters.clone(),
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
                if let Some(jm) = self.jobmanagers.remove(&contact) {
                    ctx.kill(jm);
                }
                let node = ctx.node();
                match ctx.store().get::<JmLog>(node, self.jm_key.key(contact)) {
                    Some(log) => {
                        ctx.metrics().incr("gram.jm_restarts", 1);
                        ctx.trace_with("gram.jm_restart", || format!("{contact}"));
                        let jm = self.spawn_jobmanager(
                            ctx,
                            contact,
                            JobManager::recover(
                                log,
                                self.lrm,
                                callback,
                                gass,
                                credential,
                                stdout_have,
                                self.jm_counters.clone(),
                            ),
                        );
                        ctx.send(
                            from,
                            GramReply::Restarted {
                                contact,
                                jobmanager: jm,
                            },
                        );
                    }
                    None => {
                        ctx.send(
                            from,
                            GramReply::RestartFailed {
                                contact,
                                error: GramError::UnknownJob,
                            },
                        );
                    }
                }
            }
        }
    }
}
