//! Simulated e-mail: the asynchronous notification channel of §4.1/§4.3
//! ("sends the user an e-mail message explaining that their job cannot run
//! again until their credentials are refreshed").

use gridsim::prelude::*;
use gridsim::AnyMsg;

/// An e-mail message.
#[derive(Clone, Debug, PartialEq)]
pub struct Email {
    /// Recipient (user name).
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body.
    pub body: String,
}

/// The mail spool component: collects messages into stable storage so tests
/// and experiments can read a user's inbox (`mail/<user>`).
#[derive(Default)]
pub struct Mailer {
    delivered: u64,
}

impl Mailer {
    /// An empty spool.
    pub fn new() -> Mailer {
        Mailer::default()
    }

    /// Stable-storage key of a user's inbox on the mailer's node.
    pub fn inbox_key(user: &str) -> String {
        format!("mail/{user}")
    }
}

impl Component for Mailer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        let Ok(mail) = msg.downcast::<Email>() else {
            return;
        };
        self.delivered += 1;
        ctx.metrics().incr("mail.delivered", 1);
        ctx.trace_with("mail", || {
            format!("to={} subject={}", mail.to, mail.subject)
        });
        let key = Mailer::inbox_key(&mail.to);
        let node = ctx.node();
        let mut inbox: Vec<(String, String)> = ctx.store().get(node, &key).unwrap_or_default();
        inbox.push((mail.subject.clone(), mail.body.clone()));
        ctx.store().put(node, &key, &inbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{Config, World};

    struct Sender {
        mailer: Addr,
    }

    impl Component for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(
                self.mailer,
                Email {
                    to: "jane".into(),
                    subject: "job gj1 held".into(),
                    body: "credentials expired; run grid-proxy-init".into(),
                },
            );
            ctx.send(
                self.mailer,
                Email {
                    to: "jane".into(),
                    subject: "jobs complete".into(),
                    body: "done".into(),
                },
            );
        }
    }

    #[test]
    fn inbox_accumulates() {
        let mut w = World::new(Config::default().seed(1));
        let nm = w.add_node("mail");
        let ns = w.add_node("submit");
        let mailer = w.add_component(nm, "mailer", Mailer::new());
        w.add_component(ns, "sender", Sender { mailer });
        w.run_until_quiescent();
        let inbox: Vec<(String, String)> = w.store().get(nm, &Mailer::inbox_key("jane")).unwrap();
        assert_eq!(inbox.len(), 2);
        assert!(inbox[0].0.contains("held"));
        assert_eq!(w.metrics().counter("mail.delivered"), 2);
    }
}
