//! Capability-based authorization — the paper's §3.2 work-in-progress:
//! "Work in progress will also allow authorization decisions to be made on
//! the basis of capabilities supplied with the request."
//!
//! A capability is a site-signed statement: *the holder of DN `subject`
//! may run jobs here as local user `local_user` until `not_after`* — so a
//! site can grant access to a collaborator without editing its gridmap.
//! The gatekeeper still authenticates the requester with GSI; the
//! capability only replaces the gridmap lookup.

use crate::keys::{KeyPair, PublicKey, Signature};
use gridsim::time::SimTime;

/// A signed access grant for one user at one site.
#[derive(Clone, Debug, PartialEq)]
pub struct Capability {
    /// The Grid identity being granted access.
    pub subject: String,
    /// The site this capability is valid at.
    pub site: String,
    /// The local account jobs run under.
    pub local_user: String,
    /// Expiry.
    pub not_after: SimTime,
    /// The site authority's signature over the fields above.
    pub signature: Signature,
}

impl Capability {
    fn to_be_signed(subject: &str, site: &str, local_user: &str, not_after: SimTime) -> Vec<u8> {
        let mut data = Vec::with_capacity(subject.len() + site.len() + local_user.len() + 16);
        data.extend_from_slice(subject.as_bytes());
        data.push(0);
        data.extend_from_slice(site.as_bytes());
        data.push(0);
        data.extend_from_slice(local_user.as_bytes());
        data.push(0);
        data.extend_from_slice(&not_after.micros().to_le_bytes());
        data
    }

    /// Verify this capability against the site authority's key, for
    /// `authenticated_dn` at `site`, at time `now`.
    pub fn verify(
        &self,
        authority: PublicKey,
        authenticated_dn: &str,
        site: &str,
        now: SimTime,
    ) -> bool {
        self.subject == authenticated_dn
            && self.site == site
            && now < self.not_after
            && authority.verify(
                &Capability::to_be_signed(
                    &self.subject,
                    &self.site,
                    &self.local_user,
                    self.not_after,
                ),
                &self.signature,
            )
    }
}

/// A site's capability-issuing authority.
pub struct CapabilityIssuer {
    site: String,
    key: KeyPair,
}

impl CapabilityIssuer {
    /// An authority for `site`, keyed by `seed`.
    pub fn new(site: &str, seed: u64) -> CapabilityIssuer {
        CapabilityIssuer {
            site: site.to_string(),
            key: KeyPair::from_seed(seed ^ 0xCAFE),
        }
    }

    /// The verification key gatekeepers should be configured with.
    pub fn public(&self) -> PublicKey {
        self.key.public()
    }

    /// Grant `subject` access as `local_user` until `not_after`.
    pub fn grant(&self, subject: &str, local_user: &str, not_after: SimTime) -> Capability {
        let signature = self.key.sign(&Capability::to_be_signed(
            subject, &self.site, local_user, not_after,
        ));
        Capability {
            subject: subject.to_string(),
            site: self.site.clone(),
            local_user: local_user.to_string(),
            not_after,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::time::Duration;

    fn t(h: u64) -> SimTime {
        SimTime::ZERO + Duration::from_hours(h)
    }

    #[test]
    fn grant_verifies_for_the_right_holder_site_and_time() {
        let issuer = CapabilityIssuer::new("anl", 7);
        let cap = issuer.grant("/CN=visitor", "guest03", t(48));
        assert!(cap.verify(issuer.public(), "/CN=visitor", "anl", t(1)));
        // Wrong holder.
        assert!(!cap.verify(issuer.public(), "/CN=someone-else", "anl", t(1)));
        // Wrong site.
        assert!(!cap.verify(issuer.public(), "/CN=visitor", "ncsa", t(1)));
        // Expired.
        assert!(!cap.verify(issuer.public(), "/CN=visitor", "anl", t(49)));
    }

    #[test]
    fn forged_or_tampered_capabilities_fail() {
        let issuer = CapabilityIssuer::new("anl", 7);
        let rogue = CapabilityIssuer::new("anl", 8);
        let cap = rogue.grant("/CN=visitor", "root", t(48));
        assert!(!cap.verify(issuer.public(), "/CN=visitor", "anl", t(1)));
        // Privilege-escalation tamper: change the local user.
        let mut cap = issuer.grant("/CN=visitor", "guest03", t(48));
        cap.local_user = "root".into();
        assert!(!cap.verify(issuer.public(), "/CN=visitor", "anl", t(1)));
        // Lifetime-extension tamper.
        let mut cap = issuer.grant("/CN=visitor", "guest03", t(48));
        cap.not_after = t(4800);
        assert!(!cap.verify(issuer.public(), "/CN=visitor", "anl", t(100)));
    }
}
