//! G-Cat (paper §6, GridGaussian): stream a growing output file to mass
//! storage as partial chunks.
//!
//! "G-Cat monitors the output file and sends updates to MSS as partial
//! file chunks. G-Cat hides network performance variations from Gaussian
//! by using local scratch storage as a buffer for Gaussian's output,
//! rather than sending the output directly over the network."
//!
//! The component polls a local scratch [`crate::FileStore`]-backed file (fed by
//! the running job through [`GCatFeed`] messages), and whenever new bytes
//! appear, appends them to the remote MSS file over the GASS protocol. One
//! chunk is in flight at a time, preserving order; back-pressure is
//! absorbed by the scratch buffer, exactly the paper's design.

use crate::file::FileData;
use crate::proto::{GassReply, GassRequest};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use gsi::ProxyCredential;

/// Message from the producing job: more output bytes landed in scratch.
#[derive(Debug)]
pub struct GCatFeed(pub FileData);

/// Message a viewer can send to ask how many bytes are visible at MSS.
#[derive(Debug)]
pub struct GCatQuery {
    /// Correlation id echoed in [`GCatVisible`].
    pub request_id: u64,
}

/// Reply to [`GCatQuery`].
#[derive(Debug)]
pub struct GCatVisible {
    /// Correlation id.
    pub request_id: u64,
    /// Bytes of output durably stored (and viewable) at MSS.
    pub bytes: u64,
}

/// The G-Cat streaming agent.
pub struct GCat {
    /// MSS server address.
    mss: Addr,
    /// Remote path at MSS.
    remote_path: String,
    /// Credential used for MSS appends.
    credential: ProxyCredential,
    /// Poll interval for the scratch file.
    poll: Duration,
    /// Scratch buffer: bytes produced but not yet shipped.
    buffered: Vec<FileData>,
    buffered_bytes: u64,
    /// Bytes acknowledged by MSS.
    shipped: u64,
    /// Chunk currently in flight, kept for retransmission.
    in_flight: Option<FileData>,
    /// When to give up waiting for the in-flight ack and resend.
    in_flight_deadline: SimTime,
    next_request: u64,
}

const POLL_TAG: u64 = 1;
/// Assumed floor bandwidth for sizing the retransmit deadline.
const RETRY_FLOOR_BW: u64 = 50_000;

impl GCat {
    /// Create a streamer shipping to `remote_path` on `mss`.
    pub fn new(mss: Addr, remote_path: &str, credential: ProxyCredential, poll: Duration) -> GCat {
        GCat {
            mss,
            remote_path: remote_path.to_string(),
            credential,
            poll,
            buffered: Vec::new(),
            buffered_bytes: 0,
            shipped: 0,
            in_flight: None,
            in_flight_deadline: SimTime::ZERO,
            next_request: 0,
        }
    }

    fn ship_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_flight.is_some() || self.buffered.is_empty() {
            return;
        }
        // Coalesce everything buffered into one chunk (the paper's partial
        // file chunk).
        let mut chunk = self.buffered.remove(0);
        for more in self.buffered.drain(..) {
            chunk = chunk.concat(&more);
        }
        self.buffered_bytes = 0;
        ctx.metrics().incr("gcat.chunks", 1);
        ctx.trace_with("gcat.ship", || {
            format!("{} bytes -> {}", chunk.len(), self.remote_path)
        });
        self.in_flight = Some(chunk);
        self.transmit(ctx);
    }

    /// (Re)send the in-flight chunk as an idempotent positioned write.
    fn transmit(&mut self, ctx: &mut Ctx<'_>) {
        let Some(chunk) = self.in_flight.clone() else {
            return;
        };
        let bytes = chunk.len();
        self.next_request += 1;
        self.in_flight_deadline = ctx.now() + Duration::from_secs(30 + bytes / RETRY_FLOOR_BW);
        ctx.send_bulk(
            self.mss,
            bytes,
            GassRequest::WriteAt {
                request_id: self.next_request,
                credential: self.credential.clone(),
                path: self.remote_path.clone(),
                offset: self.shipped,
                data: chunk,
            },
        );
    }

    fn persist(&self, ctx: &mut Ctx<'_>) {
        let node = ctx.node();
        ctx.store().put(node, "gcat/shipped", &self.shipped);
        ctx.store().put(node, "gcat/buffered", &self.buffered_bytes);
    }
}

impl Component for GCat {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.poll, POLL_TAG);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == POLL_TAG {
            if self.in_flight.is_some() && ctx.now() >= self.in_flight_deadline {
                // The write or its ack was lost: resend (WriteAt at a fixed
                // offset is idempotent, so duplicates are harmless).
                ctx.metrics().incr("gcat.retries", 1);
                self.transmit(ctx);
            }
            self.ship_next(ctx);
            ctx.set_timer(self.poll, POLL_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        if let Some(feed) = msg.downcast_ref::<GCatFeed>() {
            // New output landed in local scratch: cheap, local, lossless.
            self.buffered_bytes += feed.0.len();
            ctx.metrics().incr("gcat.fed_bytes", feed.0.len());
            self.buffered.push(feed.0.clone());
            self.persist(ctx);
            return;
        }
        if let Some(q) = msg.downcast_ref::<GCatQuery>() {
            ctx.send(
                from,
                GCatVisible {
                    request_id: q.request_id,
                    bytes: self.shipped,
                },
            );
            return;
        }
        if let Some(aborted) = msg.downcast_ref::<BulkAborted>() {
            // Our in-flight chunk, a flow over a declared link, was cut
            // mid-transfer by a partition or link failure. Resend
            // immediately — WriteAt at a fixed offset is idempotent — and
            // keep the deadline timer as the backstop if the route is
            // still dead.
            if self.in_flight.is_some() {
                ctx.metrics().incr("gcat.retries", 1);
                let bytes = aborted.bytes;
                ctx.trace_with("gcat.retry", || {
                    format!("aborted in flight ({bytes} bytes)")
                });
                self.transmit(ctx);
            }
            return;
        }
        if let Ok(reply) = msg.downcast::<GassReply>() {
            match *reply {
                GassReply::Ok { new_size, .. } => {
                    // Only GCat writes this file, so any acknowledgement
                    // showing the chunk's end is a confirmation (duplicate
                    // acks from retransmissions are harmless).
                    if let Some(chunk) = &self.in_flight {
                        if new_size >= self.shipped + chunk.len() {
                            let bytes = chunk.len();
                            self.in_flight = None;
                            self.shipped += bytes;
                            ctx.metrics().incr("gcat.shipped_bytes", bytes);
                            self.persist(ctx);
                            // Immediately ship anything that queued meanwhile.
                            self.ship_next(ctx);
                        }
                    }
                }
                GassReply::Failed { ref error, .. } => {
                    // MSS refusal (e.g. credential hiccup): keep the chunk
                    // in flight and let the deadline-driven retry handle it.
                    ctx.metrics().incr("gcat.retries", 1);
                    ctx.trace_with("gcat.retry", || error.to_string());
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GassServer;
    use gridsim::{Config, World};
    use gsi::CertificateAuthority;

    /// A fake Gaussian job that produces output in bursts.
    struct Producer {
        gcat: Addr,
        bursts: Vec<(Duration, u64)>,
    }

    impl Component for Producer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (after, _)) in self.bursts.iter().enumerate() {
                ctx.set_timer(*after, i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
            let (_, bytes) = self.bursts[tag as usize];
            ctx.send_local(self.gcat, GCatFeed(FileData::bulk(bytes, tag)));
        }
    }

    #[test]
    fn chunks_reach_mss_in_order_and_fully() {
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(48));
        let mut w = World::new(Config::default().seed(3));
        let n_mss = w.add_node("mss.ncsa.edu");
        let n_exec = w.add_node("exec");
        let mss = w.add_component(n_mss, "mss", GassServer::new(ca.trust_root()));
        let gcat = w.add_component(
            n_exec,
            "gcat",
            GCat::new(mss, "/mss/jane/g98.out", cred, Duration::from_secs(30)),
        );
        w.add_component(
            n_exec,
            "gaussian",
            Producer {
                gcat,
                bursts: vec![
                    (Duration::from_mins(1), 500_000),
                    (Duration::from_mins(2), 1_500_000),
                    (Duration::from_mins(3), 250_000),
                ],
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_mins(20));
        // Everything shipped, nothing stuck in scratch.
        assert_eq!(
            w.store().get::<u64>(n_exec, "gcat/shipped"),
            Some(2_250_000)
        );
        assert_eq!(w.store().get::<u64>(n_exec, "gcat/buffered"), Some(0));
        // MSS sees the full file (mirrored size key from the server).
        assert_eq!(
            w.store().get::<u64>(n_mss, "gass/size/mss/jane/g98.out"),
            Some(2_250_000)
        );
    }

    #[test]
    fn output_visible_mid_run() {
        // The whole point of G-Cat: users can view output *while the job
        // runs*. Verify bytes are visible at MSS before production ends.
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(48));
        let mut w = World::new(Config::default().seed(3));
        let n_mss = w.add_node("mss");
        let n_exec = w.add_node("exec");
        let mss = w.add_component(n_mss, "mss", GassServer::new(ca.trust_root()));
        let gcat = w.add_component(
            n_exec,
            "gcat",
            GCat::new(mss, "/out", cred, Duration::from_secs(10)),
        );
        w.add_component(
            n_exec,
            "job",
            Producer {
                gcat,
                bursts: (0..60).map(|i| (Duration::from_mins(i), 100_000)).collect(),
            },
        );
        // Stop mid-run (job produces until t=59 min).
        w.run_until(SimTime::ZERO + Duration::from_mins(30));
        let visible = w.store().get::<u64>(n_mss, "gass/size/out").unwrap_or(0);
        assert!(
            visible >= 2_000_000,
            "only {visible} bytes visible at MSS mid-run"
        );
        assert!(visible <= 3_100_000);
    }
}
