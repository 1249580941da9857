//! The GASS server component.

use crate::file::{FileData, FileDisk, FileStore};
use crate::proto::{GassReply, GassRequest, TransferError};
use gridsim::prelude::*;
use gridsim::store::KeyBuf;
use gridsim::AnyMsg;
use gsi::TrustRoot;

/// A GASS/GridFTP server: serves a [`FileStore`] over the request protocol
/// with GSI authentication and bandwidth-modelled replies.
///
/// The GridManager embeds one on the submit machine; execution sites run
/// one per job sandbox; the CMS repository and the GridGaussian MSS are
/// plain `GassServer`s too.
pub struct GassServer {
    files: FileStore,
    trust: TrustRoot,
    /// When false, skip credential verification (an open HTTP-style server).
    authenticate: bool,
    /// Stable-storage keys, built in place: `gassfs<path>` holds a file's
    /// contents (the server's "disk"), `gass/size<path>` mirrors its size so
    /// tests and experiments can observe server state from outside.
    file_key: KeyBuf,
    size_key: KeyBuf,
}

impl GassServer {
    /// An authenticated server trusting `trust`.
    pub fn new(trust: TrustRoot) -> GassServer {
        GassServer {
            files: FileStore::new(),
            trust,
            authenticate: true,
            file_key: KeyBuf::new(FILE_KEY),
            size_key: KeyBuf::new("gass/size"),
        }
    }

    /// An unauthenticated server (used as plain HTTP/FTP in §3.4).
    pub fn open() -> GassServer {
        GassServer {
            authenticate: false,
            ..GassServer::new(TrustRoot::new())
        }
    }

    /// Pre-load a file before the simulation starts. (Preloads are also
    /// written through to stable storage on `on_start`, so they survive a
    /// machine crash like anything else on the server's disk.)
    pub fn preload(mut self, path: &str, data: FileData) -> GassServer {
        self.files.write(path, data, SimTime::ZERO);
        self
    }

    /// Rebuild a server from its persisted "disk" after a machine restart
    /// (for node boot hooks).
    pub fn recover(
        trust: TrustRoot,
        store: &gridsim::store::StableStore,
        node: gridsim::NodeId,
    ) -> GassServer {
        let mut server = GassServer::new(trust);
        for key in store.keys_with_prefix(node, FILE_KEY) {
            let Some(disk) = store.get::<FileDisk>(node, &key) else {
                continue;
            };
            let path = &key[FILE_KEY.len()..];
            server
                .files
                .write(path, FileData::from_disk(disk), SimTime::ZERO);
        }
        server
    }

    /// Write a file and persist it (write-through, like a disk write).
    fn write_through(&mut self, ctx: &mut Ctx<'_>, path: &str, op: FsOp) {
        let now = ctx.now();
        match op {
            FsOp::Put(data) => self.files.write(path, data, now),
            FsOp::Append(data) => self.files.append(path, data, now),
            FsOp::WriteAt(offset, data) => self.files.write_at(path, offset, data, now),
        }
        let node = ctx.node();
        if let Some(f) = self.files.read(path) {
            let disk = f.data.to_disk();
            ctx.store().put(node, self.file_key.key(path), &disk);
        }
        let new_size = self.files.size(path).unwrap_or(0);
        ctx.store().put(node, self.size_key.key(path), &new_size);
    }

    /// Direct access to the store (for test assertions and experiment
    /// post-processing through `World` lookups this isn't reachable; the
    /// store is also mirrored to stable storage keys on writes — see
    /// `on_message`).
    pub fn files(&self) -> &FileStore {
        &self.files
    }
}

/// What every file-contents key starts with.
const FILE_KEY: &str = "gassfs";

/// A filesystem mutation, for the write-through path.
enum FsOp {
    Put(FileData),
    Append(FileData),
    WriteAt(u64, FileData),
}

impl Component for GassServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Persist preloaded files so they survive crashes too.
        let node = ctx.node();
        let preloaded: Vec<(String, FileDisk, u64)> = self
            .files
            .list("")
            .into_iter()
            .filter_map(|p| {
                let f = self.files.read(&p)?;
                Some((p.clone(), f.data.to_disk(), f.data.len()))
            })
            .collect();
        for (path, disk, size) in preloaded {
            ctx.store().put(node, self.file_key.key(&path), &disk);
            ctx.store().put(node, self.size_key.key(&path), &size);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        // A bulk reply we sent, a flow over a declared link, was cut
        // mid-flight (partition, crash, link failure). Surface a
        // *retryable* failure to the requester as a small control message
        // — the file is fine, the route died.
        let msg = match msg.downcast::<BulkAborted>() {
            Ok(aborted) => {
                ctx.metrics().incr("gass.aborted_transfers", 1);
                if let Some(GassReply::Data { request_id, .. }) =
                    aborted.msg.downcast_ref::<GassReply>()
                {
                    let request_id = *request_id;
                    ctx.trace_with("gass.transfer_aborted", || {
                        format!("request_id={request_id} bytes={}", aborted.bytes)
                    });
                    ctx.send(
                        aborted.to,
                        GassReply::Failed {
                            request_id,
                            error: TransferError::Aborted("transfer cut in flight".into()),
                        },
                    );
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(req) = msg.downcast::<GassRequest>() else {
            return;
        };
        let now = ctx.now();
        let request_id = req.request_id();
        // Authenticate first — every GASS operation is GSI-authenticated.
        if self.authenticate {
            let credential = match &*req {
                GassRequest::Get { credential, .. }
                | GassRequest::Put { credential, .. }
                | GassRequest::Append { credential, .. }
                | GassRequest::WriteAt { credential, .. }
                | GassRequest::Stat { credential, .. }
                | GassRequest::Delete { credential, .. } => credential,
            };
            if let Err(e) = credential.verify(now, &self.trust) {
                ctx.metrics().incr("gass.auth_failures", 1);
                ctx.send(
                    from,
                    GassReply::Failed {
                        request_id,
                        error: TransferError::AuthFailed(e.to_string()),
                    },
                );
                return;
            }
        }
        match *req {
            GassRequest::Get {
                request_id,
                path,
                offset,
                limit,
                ..
            } => {
                match self.files.read(&path) {
                    None => {
                        ctx.metrics().incr("gass.not_found", 1);
                        ctx.send(
                            from,
                            GassReply::Failed {
                                request_id,
                                error: TransferError::NotFound(path),
                            },
                        );
                    }
                    Some(f) => {
                        let total_size = f.data.len();
                        let data = f.data.slice(offset, limit);
                        ctx.metrics().incr("gass.gets", 1);
                        ctx.trace_with("gass.get", || {
                            format!("{path} [{offset}..+{}]", data.len())
                        });
                        ctx.trace_with("span", || {
                            format!("phase=transfer op=get path={path} bytes={}", data.len())
                        });
                        // The reply pays for the bytes it carries.
                        let bytes = data.len();
                        ctx.send_bulk(
                            from,
                            bytes,
                            GassReply::Data {
                                request_id,
                                data,
                                total_size,
                            },
                        );
                    }
                }
            }
            GassRequest::Put {
                request_id,
                path,
                data,
                ..
            } => {
                ctx.metrics().incr("gass.puts", 1);
                ctx.trace_with("gass.put", || format!("{path} ({} bytes)", data.len()));
                ctx.trace_with("span", || {
                    format!("phase=transfer op=put path={path} bytes={}", data.len())
                });
                self.write_through(ctx, &path, FsOp::Put(data));
                let new_size = self.files.size(&path).unwrap_or(0);
                ctx.send(
                    from,
                    GassReply::Ok {
                        request_id,
                        new_size,
                    },
                );
            }
            GassRequest::Append {
                request_id,
                path,
                data,
                ..
            } => {
                ctx.metrics().incr("gass.appends", 1);
                self.write_through(ctx, &path, FsOp::Append(data));
                let new_size = self.files.size(&path).unwrap_or(0);
                ctx.trace_with("gass.append", || format!("{path} -> {new_size} bytes"));
                ctx.send(
                    from,
                    GassReply::Ok {
                        request_id,
                        new_size,
                    },
                );
            }
            GassRequest::WriteAt {
                request_id,
                path,
                offset,
                data,
                ..
            } => {
                ctx.metrics().incr("gass.write_ats", 1);
                ctx.trace_with("span", || {
                    format!(
                        "phase=transfer op=write_at path={path} bytes={}",
                        data.len()
                    )
                });
                self.write_through(ctx, &path, FsOp::WriteAt(offset, data));
                let new_size = self.files.size(&path).unwrap_or(0);
                ctx.trace_with("gass.write_at", || {
                    format!("{path} @{offset} -> {new_size} bytes")
                });
                ctx.send(
                    from,
                    GassReply::Ok {
                        request_id,
                        new_size,
                    },
                );
            }
            GassRequest::Stat {
                request_id, path, ..
            } => match self.files.size(&path) {
                Some(size) => ctx.send(from, GassReply::Size { request_id, size }),
                None => ctx.send(
                    from,
                    GassReply::Failed {
                        request_id,
                        error: TransferError::NotFound(path),
                    },
                ),
            },
            GassRequest::Delete {
                request_id, path, ..
            } => {
                // Reclaim memory and "disk" alike; acknowledge even when
                // the file is already gone (idempotent cleanup).
                self.files.delete(&path);
                let node = ctx.node();
                ctx.store().remove(node, self.file_key.key(&path));
                ctx.store().remove(node, self.size_key.key(&path));
                ctx.metrics().incr("gass.deletes", 1);
                ctx.trace_with("gass.delete", || path.clone());
                ctx.send(
                    from,
                    GassReply::Ok {
                        request_id,
                        new_size: 0,
                    },
                );
            }
        }
    }
}

/// Helper for components that act as GASS *clients*: allocates correlation
/// ids and remembers what each outstanding id was for.
#[derive(Debug, Default)]
pub struct RequestIds {
    next: u64,
}

impl RequestIds {
    /// Fresh allocator.
    pub fn new() -> RequestIds {
        RequestIds::default()
    }

    /// Allocate the next id.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{Config, World};
    use gsi::CertificateAuthority;

    struct Client {
        server: Addr,
        script: Vec<GassRequest>,
    }

    impl Component for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for req in self.script.drain(..) {
                ctx.send(self.server, req);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            let Ok(reply) = msg.downcast::<GassReply>() else {
                return;
            };
            let node = ctx.node();
            match *reply {
                GassReply::Data {
                    request_id,
                    data,
                    total_size,
                } => {
                    ctx.store().put(
                        node,
                        &format!("reply/{request_id}"),
                        &format!("data len={} total={total_size}", data.len()),
                    );
                }
                GassReply::Ok {
                    request_id,
                    new_size,
                } => {
                    ctx.store().put(
                        node,
                        &format!("reply/{request_id}"),
                        &format!("ok size={new_size}"),
                    );
                }
                GassReply::Size { request_id, size } => {
                    ctx.store().put(
                        node,
                        &format!("reply/{request_id}"),
                        &format!("size={size}"),
                    );
                }
                GassReply::Failed { request_id, error } => {
                    ctx.store().put(
                        node,
                        &format!("reply/{request_id}"),
                        &format!("err {error}"),
                    );
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {}
    }

    fn setup() -> (
        World,
        Addr,
        gridsim::NodeId,
        gsi::ProxyCredential,
        TrustRoot,
    ) {
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let trust = ca.trust_root();
        let mut w = World::new(Config::default().seed(2).with_trace());
        let ns = w.add_node("server");
        let nc = w.add_node("client");
        let server = w.add_component(
            ns,
            "gass",
            GassServer::new(trust.clone()).preload("/repo/exe", FileData::inline("ELF binary")),
        );
        (w, server, nc, cred, trust)
    }

    #[test]
    fn get_put_append_stat() {
        let (mut w, server, nc, cred, _trust) = setup();
        w.add_component(
            nc,
            "client",
            Client {
                server,
                script: vec![
                    GassRequest::Get {
                        request_id: 1,
                        credential: cred.clone(),
                        path: "/repo/exe".into(),
                        offset: 0,
                        limit: u64::MAX,
                    },
                    GassRequest::Put {
                        request_id: 2,
                        credential: cred.clone(),
                        path: "/out".into(),
                        data: FileData::inline("chunk1 "),
                    },
                    GassRequest::Append {
                        request_id: 3,
                        credential: cred.clone(),
                        path: "/out".into(),
                        data: FileData::inline("chunk2"),
                    },
                    GassRequest::Stat {
                        request_id: 4,
                        credential: cred.clone(),
                        path: "/out".into(),
                    },
                    GassRequest::Get {
                        request_id: 5,
                        credential: cred,
                        path: "/missing".into(),
                        offset: 0,
                        limit: u64::MAX,
                    },
                ],
            },
        );
        w.run_until_quiescent();
        let read = |id: u64| w.store().get::<String>(nc, &format!("reply/{id}")).unwrap();
        assert_eq!(read(1), "data len=10 total=10");
        assert_eq!(read(2), "ok size=7");
        assert_eq!(read(3), "ok size=13");
        assert_eq!(read(4), "size=13");
        assert!(read(5).starts_with("err no such file"));
    }

    #[test]
    fn ranged_get_for_resume() {
        let (mut w, server, nc, cred, _) = setup();
        w.add_component(
            nc,
            "client",
            Client {
                server,
                script: vec![GassRequest::Get {
                    request_id: 1,
                    credential: cred,
                    path: "/repo/exe".into(),
                    offset: 4,
                    limit: 3,
                }],
            },
        );
        w.run_until_quiescent();
        assert_eq!(
            w.store().get::<String>(nc, "reply/1").unwrap(),
            "data len=3 total=10"
        );
    }

    #[test]
    fn expired_credential_rejected() {
        let (mut w, server, nc, cred, _) = setup();
        // Run past expiry before the client fires.
        struct LateClient {
            server: Addr,
            cred: gsi::ProxyCredential,
        }
        impl Component for LateClient {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_hours(13), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.send(
                    self.server,
                    GassRequest::Stat {
                        request_id: 1,
                        credential: self.cred.clone(),
                        path: "/repo/exe".into(),
                    },
                );
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                if let Some(GassReply::Failed { error, .. }) = msg.downcast_ref::<GassReply>() {
                    let node = ctx.node();
                    ctx.store().put(node, "err", &error.to_string());
                }
            }
        }
        w.add_component(nc, "late", LateClient { server, cred });
        w.run_until_quiescent();
        let err = w.store().get::<String>(nc, "err").unwrap();
        assert!(err.contains("authentication failed"), "{err}");
        assert_eq!(w.metrics().counter("gass.auth_failures"), 1);
    }

    #[test]
    fn files_survive_server_machine_crash() {
        // Preloaded and client-written files are on "disk": after a crash
        // and a boot-hook recovery the server serves them all again.
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_days(7));
        let trust = ca.trust_root();
        let mut w = World::new(Config::default().seed(7));
        let ns = w.add_node("server");
        let nc = w.add_node("client");
        let server = w.add_component(
            ns,
            "gass",
            GassServer::new(trust.clone()).preload("/repo/exe", FileData::inline("ELF binary")),
        );
        {
            let trust = trust.clone();
            w.set_boot(ns, move |b| {
                b.add_component(
                    "gass",
                    GassServer::recover(trust.clone(), b.store(), b.node()),
                );
            });
        }
        // Phase 1: write a file, then crash the server for 10 minutes.
        w.add_component(
            nc,
            "client",
            Client {
                server,
                script: vec![GassRequest::Put {
                    request_id: 1,
                    credential: cred.clone(),
                    path: "/home/jane/job.out".into(),
                    data: FileData::inline("results"),
                }],
            },
        );
        w.apply_fault_plan(&gridsim::fault::FaultPlan::new().crash_restart(
            ns,
            SimTime::ZERO + Duration::from_mins(5),
            Duration::from_mins(10),
        ));
        w.run_until(SimTime::ZERO + Duration::from_mins(20));
        // Phase 2: read both files back from the recovered incarnation.
        struct LateReader {
            server: Addr,
            cred: gsi::ProxyCredential,
        }
        impl Component for LateReader {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for (id, path) in [(10u64, "/repo/exe"), (11, "/home/jane/job.out")] {
                    ctx.send(
                        self.server,
                        GassRequest::Get {
                            request_id: id,
                            credential: self.cred.clone(),
                            path: path.into(),
                            offset: 0,
                            limit: u64::MAX,
                        },
                    );
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                if let Some(GassReply::Data {
                    request_id,
                    total_size,
                    ..
                }) = msg.downcast_ref::<GassReply>()
                {
                    let node = ctx.node();
                    ctx.store()
                        .put(node, &format!("got/{request_id}"), total_size);
                }
            }
        }
        w.add_component(nc, "reader", LateReader { server, cred });
        w.run_until_quiescent();
        assert_eq!(
            w.store().get::<u64>(nc, "got/10"),
            Some(10),
            "preload lost in crash"
        );
        assert_eq!(
            w.store().get::<u64>(nc, "got/11"),
            Some(7),
            "written file lost in crash"
        );
    }

    #[test]
    fn bulk_reply_pays_for_bytes() {
        // 10 MB at default 1.25 MB/s should take ~8 s.
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
        let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let mut w = World::new(Config::default().seed(2));
        let ns = w.add_node("server");
        let nc = w.add_node("client");
        let server = w.add_component(
            ns,
            "gass",
            GassServer::new(ca.trust_root()).preload("/events", FileData::bulk(10_000_000, 1)),
        );
        w.add_component(
            nc,
            "client",
            Client {
                server,
                script: vec![GassRequest::Get {
                    request_id: 1,
                    credential: cred,
                    path: "/events".into(),
                    offset: 0,
                    limit: u64::MAX,
                }],
            },
        );
        w.run_until_quiescent();
        assert!(w.store().get::<String>(nc, "reply/1").is_some());
        let took = w.now().as_secs_f64();
        assert!((7.5..9.5).contains(&took), "transfer took {took}s");
        assert_eq!(w.metrics().counter("net.bulk_bytes"), 10_000_000);
    }

    #[test]
    fn bulk_transfer_is_one_event_regardless_of_size() {
        // The network model charges bulk bytes as simulated *time*, never
        // as extra events: a 100 MB stage-in is a single delivery, so the
        // kernel cost of a transfer is independent of its size. This pins
        // that model — a chunked rewrite would multiply event counts (and
        // wall-clock cost) by file size.
        let events_for = |bytes: u64| {
            let mut ca = CertificateAuthority::new("/CN=CA", 1);
            let id = ca.issue_identity("/CN=jane", Duration::from_days(30));
            let cred = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
            let mut w = World::new(Config::default().seed(2));
            let ns = w.add_node("server");
            let nc = w.add_node("client");
            let server = w.add_component(
                ns,
                "gass",
                GassServer::new(ca.trust_root()).preload("/big", FileData::bulk(bytes, 1)),
            );
            w.add_component(
                nc,
                "client",
                Client {
                    server,
                    script: vec![GassRequest::Get {
                        request_id: 1,
                        credential: cred,
                        path: "/big".into(),
                        offset: 0,
                        limit: u64::MAX,
                    }],
                },
            );
            w.run_until_quiescent();
            assert!(w.store().get::<String>(nc, "reply/1").is_some());
            w.events_processed()
        };
        assert_eq!(events_for(1024), events_for(100_000_000));
    }
}
