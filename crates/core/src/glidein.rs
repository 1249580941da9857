//! The GlideIn mechanism (paper §5).
//!
//! "The GlideIn mechanism uses Grid protocols to dynamically create a
//! personal Condor pool out of Grid resources by gliding-in Condor daemons
//! to the remote resource." The factory below submits, through plain GRAM,
//! jobs whose payload is a Condor startd; when a glidein job starts
//! executing, a [`condor::Startd`] appears at the site, configured with
//! the allocation's lease and an idle timeout ("thus guarding against
//! runaway daemons") and advertising to the *user's personal collector*.
//! From then on, ordinary matchmaking binds user jobs to glideins at the
//! moment resources actually become available — the late binding that
//! "minimizes queuing delays by preventing a job from waiting at one
//! remote resource while another resource capable of serving the job is
//! available".
//!
//! Modelling note (see DESIGN.md): the real glidein bootstrap is a shell
//! script that GridFTPs Condor binaries from a central repository. Here
//! the factory spawns the `Startd` component onto the site's cluster node
//! when GRAM reports the glidein job Active, and tears it down when the
//! allocation ends; the binary-fetch cost is charged as the glidein job's
//! stage-in (`imagesize`).

use classads::ClassAd;
use condor::Startd;
use gass::GassUrl;
use gram::proto::{GramJobState, GramReply, JmMsg, JobContact};
use gram::{RslSpec, SubmitSession};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use gsi::ProxyCredential;

/// A site the factory keeps glideins at.
#[derive(Clone, Debug)]
pub struct GlideinSite {
    /// Site name (for ads and logs).
    pub site: String,
    /// The site's gatekeeper.
    pub gatekeeper: Addr,
    /// The node glidein startds materialize on (the site's cluster).
    pub cluster_node: NodeId,
    /// How many glideins to keep alive here.
    pub target: u32,
    /// Allocation length requested per glidein.
    pub lease: Duration,
    /// Machine attributes glideins advertise (Arch, OpSys, ...).
    pub machine_ad: ClassAd,
}

enum SlotPhase {
    Submitting(SubmitSession, SimTime),
    /// Committed; waiting for the allocation to start. Keeps the session
    /// so an unacknowledged commit can be retransmitted.
    Waiting(JobContact, SubmitSession),
    Running {
        contact: JobContact,
        startd: Addr,
    },
}

struct Slot {
    site_idx: usize,
    phase: SlotPhase,
    seq: u64,
}

const TAG_TICK: u64 = 1;
/// How often the factory tops each site up to its target.
const TICK: Duration = Duration::from_mins(1);
/// Glidein daemons exit if unclaimed this long.
const IDLE_TIMEOUT: Duration = Duration::from_mins(20);

/// Keeps `target` glideins alive at each configured site.
pub struct GlideinFactory {
    sites: Vec<GlideinSite>,
    /// The user's personal collector.
    collector: Addr,
    credential: ProxyCredential,
    /// The submit machine's GASS server (glidein stdout sink, unused here
    /// but part of the GRAM request).
    gass: Addr,
    /// Checkpoint interval for jobs running on glideins.
    ckpt_interval: Option<Duration>,
    /// Checkpoint server copies (in addition to the shadow).
    ckpt_server: Option<Addr>,
    slots: Vec<Slot>,
    next_seq: u64,
    next_glidein: u64,
}

impl GlideinFactory {
    /// A factory for `sites`, populating the personal pool at `collector`.
    pub fn new(
        sites: Vec<GlideinSite>,
        collector: Addr,
        credential: ProxyCredential,
        gass: Addr,
    ) -> GlideinFactory {
        GlideinFactory {
            sites,
            collector,
            credential,
            gass,
            ckpt_interval: Some(Duration::from_mins(10)),
            ckpt_server: None,
            slots: Vec::new(),
            next_seq: 0,
            next_glidein: 0,
        }
    }

    /// Set the checkpoint interval for glidein startds.
    pub fn with_ckpt_interval(mut self, t: Option<Duration>) -> GlideinFactory {
        self.ckpt_interval = t;
        self
    }

    /// Also ship checkpoints to a checkpoint server (paper §5).
    pub fn with_ckpt_server(mut self, server: Addr) -> GlideinFactory {
        self.ckpt_server = Some(server);
        self
    }

    fn live_at(&self, site_idx: usize) -> u32 {
        self.slots.iter().filter(|s| s.site_idx == site_idx).count() as u32
    }

    fn submit_glidein(&mut self, ctx: &mut Ctx<'_>, site_idx: usize) {
        let site = self.sites[site_idx].clone();
        let seq = self.next_seq;
        self.next_seq += 1;
        // "Our implementation of this GlideIn capability submits an initial
        // GlideIn executable (a portable shell script)": a plain site-local
        // path, so no GASS staging is needed; the lease is the requested
        // wall time.
        let rsl = RslSpec::job("/glidein/glidein_startup.sh", site.lease)
            .with_max_wall_minutes(site.lease.micros() / 60_000_000 + 1);
        let me = ctx.self_addr();
        let mut session = SubmitSession::new(
            seq,
            rsl.to_string(),
            self.credential.clone(),
            me,
            GassUrl::gass(self.gass, ""),
        );
        ctx.metrics().incr("glidein.submitted", 1);
        ctx.trace_with("glidein.submit", || format!("-> {}", site.site));
        ctx.send(site.gatekeeper, session.request());
        self.slots.push(Slot {
            site_idx,
            phase: SlotPhase::Submitting(session, ctx.now()),
            seq,
        });
    }

    fn spawn_startd(&mut self, ctx: &mut Ctx<'_>, slot_idx: usize) {
        let site = self.sites[self.slots[slot_idx].site_idx].clone();
        self.next_glidein += 1;
        let name = format!("glidein-{}-{}", site.site, self.next_glidein);
        let mut ad = site.machine_ad.clone();
        ad.set("Glidein", true);
        ad.set("GlideinSite", site.site.as_str());
        let mut startd = Startd::new(&name, ad, self.collector)
            .with_lease(site.lease)
            .with_idle_timeout(IDLE_TIMEOUT)
            .with_ckpt_interval(self.ckpt_interval);
        if let Some(server) = self.ckpt_server {
            startd = startd.with_ckpt_server(server);
        }
        let addr = ctx.spawn(site.cluster_node, &name, startd);
        ctx.metrics().incr("glidein.started", 1);
        let now = ctx.now();
        ctx.metrics().gauge_delta("glidein.active", now, 1.0);
        let slot = &mut self.slots[slot_idx];
        let contact = match &slot.phase {
            SlotPhase::Waiting(c, _) => *c,
            SlotPhase::Running { contact: c, .. } => *c,
            _ => JobContact(u64::MAX),
        };
        slot.phase = SlotPhase::Running {
            contact,
            startd: addr,
        };
    }

    /// The slot's glidein is over: its daemon goes and the slot with it.
    /// `remove` keeps the live slots in order, so every scan still visits
    /// them, and sends, in the order they were submitted; a late reply for
    /// the slot's `seq` or contact finds nothing and does nothing.
    fn slot_dead(&mut self, ctx: &mut Ctx<'_>, slot_idx: usize) {
        let slot = self.slots.remove(slot_idx);
        if let SlotPhase::Running { startd, .. } = slot.phase {
            // The daemon usually exits on its own at lease end; kill covers
            // early revocation (startd::on_stop vacates gracefully).
            ctx.kill(startd);
            let now = ctx.now();
            ctx.metrics().gauge_delta("glidein.active", now, -1.0);
        }
        ctx.metrics().incr("glidein.ended", 1);
    }
}

impl Component for GlideinFactory {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.sites.len() {
            for _ in 0..self.sites[i].target {
                self.submit_glidein(ctx, i);
            }
        }
        ctx.set_timer(TICK, TAG_TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag != TAG_TICK {
            return;
        }
        let now = ctx.now();
        // Retransmit stuck submissions and unacknowledged commits.
        for i in 0..self.slots.len() {
            match &mut self.slots[i].phase {
                SlotPhase::Submitting(session, last)
                    if session.awaiting_reply() && now - *last >= Duration::from_secs(30) =>
                {
                    let req = session.request();
                    *last = now;
                    let gk = self.sites[self.slots[i].site_idx].gatekeeper;
                    ctx.send(gk, req);
                }
                SlotPhase::Waiting(_, session) => {
                    if let Some((jm, msg)) = session.commit_retry() {
                        ctx.send(jm, msg);
                    }
                }
                _ => {}
            }
        }
        // Top up each site to its target.
        for i in 0..self.sites.len() {
            let missing = self.sites[i].target.saturating_sub(self.live_at(i));
            for _ in 0..missing {
                self.submit_glidein(ctx, i);
            }
        }
        ctx.set_timer(TICK, TAG_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        if let Some(reply) = msg.downcast_ref::<GramReply>() {
            match reply {
                GramReply::Submitted {
                    seq,
                    contact,
                    jobmanager,
                } => {
                    let Some(idx) = self.slots.iter().position(|s| s.seq == *seq) else {
                        return;
                    };
                    if let SlotPhase::Submitting(session, _) = &mut self.slots[idx].phase {
                        use gram::client::SubmitAction;
                        if let SubmitAction::SendCommit { jobmanager, .. } = session.on_reply(reply)
                        {
                            ctx.send(jobmanager, JmMsg::Commit);
                            let session = session.clone();
                            self.slots[idx].phase = SlotPhase::Waiting(*contact, session);
                        }
                    }
                    let _ = jobmanager;
                }
                GramReply::SubmitFailed { seq, .. } => {
                    if let Some(idx) = self.slots.iter().position(|s| s.seq == *seq) {
                        self.slot_dead(ctx, idx);
                    }
                }
                _ => {}
            }
            return;
        }
        if let Some(JmMsg::CommitAck { contact }) = msg.downcast_ref::<JmMsg>() {
            for slot in &mut self.slots {
                if let SlotPhase::Waiting(c, session) = &mut slot.phase {
                    if c == contact {
                        session.on_commit_ack();
                    }
                }
            }
            return;
        }
        if let Some(JmMsg::Callback { contact, state, .. }) = msg.downcast_ref::<JmMsg>() {
            let Some(idx) = self.slots.iter().position(|s| match &s.phase {
                SlotPhase::Waiting(c, _) => c == contact,
                SlotPhase::Running { contact: c, .. } => c == contact,
                _ => false,
            }) else {
                return;
            };
            match state {
                GramJobState::Active => {
                    if matches!(self.slots[idx].phase, SlotPhase::Waiting(..)) {
                        // The allocation arrived: the daemon comes up.
                        self.spawn_startd(ctx, idx);
                    }
                }
                GramJobState::Pending => {
                    // The site vacated-and-requeued the allocation: the
                    // daemon died with it; wait for the next Active.
                    if let SlotPhase::Running { contact, startd } = self.slots[idx].phase {
                        ctx.kill(startd);
                        let now = ctx.now();
                        ctx.metrics().gauge_delta("glidein.active", now, -1.0);
                        ctx.metrics().incr("glidein.revoked", 1);
                        // Already committed long ago: keep an inert,
                        // acknowledged session so nothing retransmits.
                        let session = SubmitSession::acknowledged(
                            self.slots[idx].seq,
                            contact,
                            self.credential.clone(),
                            ctx.self_addr(),
                            GassUrl::gass(self.gass, ""),
                        );
                        self.slots[idx].phase = SlotPhase::Waiting(contact, session);
                    }
                }
                s if s.is_terminal() => {
                    // Allocation over (lease ran out, vacated, failed):
                    // tear the slot down; the next tick tops the site up.
                    self.slot_dead(ctx, idx);
                }
                _ => {}
            }
        }
    }
}
