//! MyProxy — an online credential repository (paper §4.3, citing \[23\]).
//!
//! "MyProxy lets a user store a long-lived proxy credential (e.g. a week)
//! on a secure server. Remote services acting on behalf of the user can
//! then obtain short-lived proxies (e.g. 12 hours) from the server."
//!
//! The server is a gridsim [`Component`]: the Condor-G credential monitor
//! sends it [`MyProxyRequest::Retrieve`] messages over the simulated
//! network and receives fresh short-lived delegations back.

use crate::proxy::ProxyCredential;
use gridsim::prelude::*;
use gridsim::AnyMsg;
use std::collections::HashMap;

/// Requests understood by the MyProxy server.
#[derive(Debug)]
pub enum MyProxyRequest {
    /// Store a long-lived credential under `(user, passphrase)`.
    Store {
        /// Account name on the MyProxy server.
        user: String,
        /// Shared secret for retrieval.
        passphrase: u64,
        /// The long-lived proxy to deposit.
        credential: ProxyCredential,
    },
    /// Retrieve a fresh short-lived proxy.
    Retrieve {
        /// Account name.
        user: String,
        /// Shared secret.
        passphrase: u64,
        /// Requested lifetime of the derived proxy.
        lifetime: Duration,
        /// Correlation id echoed in the reply.
        request_id: u64,
    },
}

/// Replies from the MyProxy server.
#[derive(Debug)]
pub enum MyProxyReply {
    /// Store succeeded.
    Stored {
        /// The account stored under.
        user: String,
    },
    /// A fresh short-lived proxy.
    Proxy {
        /// Correlation id from the request.
        request_id: u64,
        /// The derived credential.
        credential: ProxyCredential,
    },
    /// Retrieval failed.
    Denied {
        /// Correlation id from the request.
        request_id: u64,
        /// Why (bad passphrase, unknown user, stored credential expired).
        reason: String,
    },
}

/// The MyProxy server component.
#[derive(Default)]
pub struct MyProxyServer {
    vault: HashMap<String, (u64, ProxyCredential)>,
}

impl MyProxyServer {
    /// An empty vault.
    pub fn new() -> MyProxyServer {
        MyProxyServer::default()
    }
}

impl Component for MyProxyServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        let Ok(req) = msg.downcast::<MyProxyRequest>() else {
            return;
        };
        match *req {
            MyProxyRequest::Store {
                user,
                passphrase,
                credential,
            } => {
                ctx.trace_with("myproxy.store", || format!("user={user}"));
                ctx.metrics().incr("myproxy.stored", 1);
                self.vault.insert(user.clone(), (passphrase, credential));
                ctx.send(from, MyProxyReply::Stored { user });
            }
            MyProxyRequest::Retrieve {
                user,
                passphrase,
                lifetime,
                request_id,
            } => {
                let now = ctx.now();
                let reply = match self.vault.get(&user) {
                    None => MyProxyReply::Denied {
                        request_id,
                        reason: format!("no credential stored for {user}"),
                    },
                    Some((stored_pass, _)) if *stored_pass != passphrase => MyProxyReply::Denied {
                        request_id,
                        reason: "bad passphrase".into(),
                    },
                    Some((_, cred)) if cred.is_expired(now) => MyProxyReply::Denied {
                        request_id,
                        reason: "stored credential has expired".into(),
                    },
                    Some((_, cred)) => {
                        ctx.metrics().incr("myproxy.retrievals", 1);
                        MyProxyReply::Proxy {
                            request_id,
                            credential: cred.delegate(now, lifetime),
                        }
                    }
                };
                if matches!(reply, MyProxyReply::Denied { .. }) {
                    ctx.metrics().incr("myproxy.denied", 1);
                }
                ctx.trace_with("myproxy.retrieve", || format!("user={user}"));
                ctx.send(from, reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use gridsim::{Config, World};

    /// A test client that stores then retrieves.
    struct Client {
        server: Addr,
        long_proxy: Option<ProxyCredential>,
        lifetime: Duration,
        retrieve_at: Duration,
    }

    impl Component for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(
                self.server,
                MyProxyRequest::Store {
                    user: "jane".into(),
                    passphrase: 7777,
                    credential: self.long_proxy.take().unwrap(),
                },
            );
            ctx.set_timer(self.retrieve_at, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            ctx.send(
                self.server,
                MyProxyRequest::Retrieve {
                    user: "jane".into(),
                    passphrase: 7777,
                    lifetime: self.lifetime,
                    request_id: 1,
                },
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(MyProxyReply::Proxy { credential, .. }) = msg.downcast_ref::<MyProxyReply>()
            {
                let node = ctx.node();
                let expiry = credential.expires_at().micros();
                ctx.store().put(node, "got_proxy_expiry", &expiry);
            } else if let Some(MyProxyReply::Denied { reason, .. }) =
                msg.downcast_ref::<MyProxyReply>()
            {
                let node = ctx.node();
                ctx.store().put(node, "denied", &reason.clone());
            }
        }
    }

    fn long_proxy() -> (CertificateAuthority, ProxyCredential) {
        let mut ca = CertificateAuthority::new("/CN=CA", 3);
        let id = ca.issue_identity("/CN=jane", Duration::from_days(365));
        let p = id.new_proxy(SimTime::ZERO, Duration::from_days(7));
        (ca, p)
    }

    #[test]
    fn store_then_retrieve_short_proxy() {
        let (ca, long) = long_proxy();
        let mut w = World::new(Config::default().seed(5));
        let ns = w.add_node("myproxy.ncsa.edu");
        let nc = w.add_node("submit.wisc.edu");
        let server = w.add_component(ns, "myproxy", MyProxyServer::new());
        w.add_component(
            nc,
            "client",
            Client {
                server,
                long_proxy: Some(long),
                lifetime: Duration::from_hours(12),
                retrieve_at: Duration::from_hours(1),
            },
        );
        w.run_until_quiescent();
        let expiry = w
            .store()
            .get::<u64>(nc, "got_proxy_expiry")
            .expect("retrieved");
        // Short proxy expires ~12h after the retrieve, far before the 7-day parent.
        let got = SimTime(expiry);
        assert!(got > SimTime::ZERO + Duration::from_hours(12));
        assert!(got <= SimTime::ZERO + Duration::from_hours(14));
        // And the derived proxy authenticates as jane.
        let _ = ca;
        assert_eq!(w.metrics().counter("myproxy.retrievals"), 1);
    }

    #[test]
    fn bad_passphrase_denied() {
        let (_ca, long) = long_proxy();
        let mut w = World::new(Config::default().seed(5));
        let ns = w.add_node("s");
        let nc = w.add_node("c");
        let server = w.add_component(ns, "myproxy", MyProxyServer::new());
        struct BadClient {
            server: Addr,
            long_proxy: Option<ProxyCredential>,
        }
        impl Component for BadClient {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(
                    self.server,
                    MyProxyRequest::Store {
                        user: "jane".into(),
                        passphrase: 1,
                        credential: self.long_proxy.take().unwrap(),
                    },
                );
                ctx.set_timer(Duration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.send(
                    self.server,
                    MyProxyRequest::Retrieve {
                        user: "jane".into(),
                        passphrase: 2,
                        lifetime: Duration::from_hours(12),
                        request_id: 9,
                    },
                );
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                if let Some(MyProxyReply::Denied { .. }) = msg.downcast_ref::<MyProxyReply>() {
                    let node = ctx.node();
                    ctx.store().put(node, "denied", &true);
                }
            }
        }
        w.add_component(
            nc,
            "client",
            BadClient {
                server,
                long_proxy: Some(long),
            },
        );
        w.run_until_quiescent();
        assert_eq!(w.store().get::<bool>(nc, "denied"), Some(true));
        assert_eq!(w.metrics().counter("myproxy.denied"), 1);
    }
}
