//! Proxy credentials and delegation chains (paper §3.1, §4.3).
//!
//! A proxy credential is a chain: `[user cert (CA-signed), proxy cert
//! (user-signed), delegated proxy (proxy-signed), ...]` plus the private
//! key of the *last* element. Verification walks the chain from the trust
//! root, checking signatures and validity windows. Effective expiry is the
//! *minimum* `not_after` along the chain — which is why refreshing only the
//! local proxy isn't enough and Condor-G must re-forward refreshed proxies
//! to remote GRAM servers (§4.3).

use crate::cert::{AuthError, Certificate, TrustRoot};
use crate::keys::{digest, KeyPair};
use gridsim::time::{Duration, SimTime};
use std::rc::Rc;

/// A proxy credential: certificate chain + the leaf private key.
///
/// A credential rides in every GRAM and GASS request and is never edited
/// once assembled (delegation builds a new, longer chain), so the chain is
/// shared: cloning a credential into a request is a reference count, not a
/// copy of every certificate's DN strings.
#[derive(Clone, Debug)]
pub struct ProxyCredential {
    chain: Rc<[Certificate]>,
    leaf_key: KeyPair,
}

impl ProxyCredential {
    /// Assemble a credential from a chain and the leaf key. The chain must
    /// start with the CA-signed identity certificate.
    pub fn new(chain: Vec<Certificate>, leaf_key: KeyPair) -> ProxyCredential {
        ProxyCredential {
            chain: chain.into(),
            leaf_key,
        }
    }

    /// The user's identity DN (the chain's first subject).
    pub fn subject(&self) -> &str {
        self.chain.first().map(|c| c.subject.as_str()).unwrap_or("")
    }

    /// The leaf certificate (the credential actually presented).
    pub fn leaf(&self) -> &Certificate {
        self.chain.last().expect("non-empty chain")
    }

    /// Number of delegation steps (1 = plain user proxy).
    pub fn delegation_depth(&self) -> usize {
        self.chain.len().saturating_sub(1)
    }

    /// Effective expiry: the earliest `not_after` in the chain.
    pub fn expires_at(&self) -> SimTime {
        self.chain
            .iter()
            .map(|c| c.not_after)
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Time remaining before effective expiry (zero if already expired).
    pub fn time_remaining(&self, now: SimTime) -> Duration {
        self.expires_at().since(now)
    }

    /// True if the credential is unusable at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.time_remaining(now).is_zero()
    }

    /// Full verification at `now` against `trust`: returns the
    /// authenticated subject DN on success.
    ///
    /// Walks: the root CA signs `chain[0]`; each `chain[i]` signs
    /// `chain[i+1]` and must name it as issuer; every element must be
    /// within its validity window. A success past the effective expiry is
    /// a broken invariant, not a verdict: it panics, in release builds too.
    pub fn verify(&self, now: SimTime, trust: &TrustRoot) -> Result<String, AuthError> {
        let first = self.chain.first().ok_or(AuthError::EmptyChain)?;
        let ca_key = trust
            .key_for(&first.issuer)
            .ok_or_else(|| AuthError::UntrustedIssuer {
                issuer: first.issuer.clone(),
            })?;
        if !first.signature_valid(ca_key) {
            return Err(AuthError::BadSignature {
                subject: first.subject.clone(),
            });
        }
        if !first.valid_at(now) {
            return Err(AuthError::Expired {
                subject: first.subject.clone(),
                not_after: first.not_after,
            });
        }
        for window in self.chain.windows(2) {
            let (parent, child) = (&window[0], &window[1]);
            if child.issuer != parent.subject {
                return Err(AuthError::BrokenChain {
                    subject: child.subject.clone(),
                });
            }
            if !child.signature_valid(parent.public_key) {
                return Err(AuthError::BadSignature {
                    subject: child.subject.clone(),
                });
            }
            if !child.valid_at(now) {
                return Err(AuthError::Expired {
                    subject: child.subject.clone(),
                    not_after: child.not_after,
                });
            }
        }
        assert!(
            now < self.expires_at(),
            "proxy of {} verified at {now}, past its expiry {}",
            self.subject(),
            self.expires_at()
        );
        Ok(first.subject.clone())
    }

    /// Delegate: create a further restricted proxy for a remote service
    /// (what happens when the GridManager forwards the user's proxy to a
    /// GRAM server). Lifetime is clamped to the parent's remaining life.
    pub fn delegate(&self, now: SimTime, lifetime: Duration) -> ProxyCredential {
        let leaf = self.leaf();
        let sub_key = KeyPair::from_seed(
            digest(leaf.subject.as_bytes()) ^ now.micros().wrapping_mul(0x9E3779B97F4A7C15),
        );
        let not_after = (now + lifetime).min(self.expires_at());
        let sub_subject = format!("{}/CN=proxy", leaf.subject);
        let cert = Certificate::issue(
            &self.leaf_key,
            &leaf.subject,
            &sub_subject,
            sub_key.public(),
            now,
            not_after,
        );
        let mut chain = self.chain.to_vec();
        chain.push(cert);
        ProxyCredential::new(chain, sub_key)
    }

    /// Sign request data with the leaf key (used by GRAM/GASS requests).
    pub fn sign(&self, data: &[u8]) -> crate::keys::Signature {
        self.leaf_key.sign(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    fn setup() -> (CertificateAuthority, crate::cert::Identity) {
        let mut ca = CertificateAuthority::new("/CN=CA", 9);
        let id = ca.issue_identity("/CN=alice", Duration::from_days(365));
        (ca, id)
    }

    #[test]
    fn proxy_verifies_and_names_the_user() {
        let (ca, id) = setup();
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let dn = proxy.verify(SimTime::ZERO + Duration::from_hours(1), &ca.trust_root());
        assert_eq!(dn.unwrap(), "/CN=alice");
        assert_eq!(proxy.delegation_depth(), 1);
    }

    #[test]
    fn proxy_expires() {
        let (ca, id) = setup();
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let late = SimTime::ZERO + Duration::from_hours(13);
        assert!(proxy.is_expired(late));
        assert!(matches!(
            proxy.verify(late, &ca.trust_root()),
            Err(AuthError::Expired { .. })
        ));
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        let (ca, id) = setup();
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let expiry = proxy.expires_at();
        assert_eq!(expiry, SimTime::ZERO + Duration::from_hours(12));
        assert!(proxy.is_expired(expiry));
        assert!(matches!(
            proxy.verify(expiry, &ca.trust_root()),
            Err(AuthError::Expired { .. })
        ));
        let just_before = SimTime::ZERO + (Duration::from_hours(12) - Duration::from_micros(1));
        assert!(!proxy.is_expired(just_before));
        assert!(proxy.verify(just_before, &ca.trust_root()).is_ok());
    }

    #[test]
    fn delegation_chains_verify_and_clamp_lifetime() {
        let (ca, id) = setup();
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        // Remote delegation asks for 24h but can't outlive the parent.
        let remote = proxy.delegate(
            SimTime::ZERO + Duration::from_hours(1),
            Duration::from_hours(24),
        );
        assert_eq!(remote.delegation_depth(), 2);
        assert_eq!(
            remote.expires_at(),
            SimTime::ZERO + Duration::from_hours(12)
        );
        assert!(remote
            .verify(SimTime::ZERO + Duration::from_hours(2), &ca.trust_root())
            .is_ok());
    }

    #[test]
    fn chain_expiry_is_the_minimum() {
        let (_ca, id) = setup();
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let sub = proxy.delegate(SimTime::ZERO, Duration::from_hours(2));
        assert_eq!(sub.expires_at(), SimTime::ZERO + Duration::from_hours(2));
        // Refreshing only the *local* proxy wouldn't help `sub`: this is the
        // §4.3 re-forwarding requirement in miniature.
        assert!(sub.is_expired(SimTime::ZERO + Duration::from_hours(3)));
        assert!(!proxy.is_expired(SimTime::ZERO + Duration::from_hours(3)));
    }

    #[test]
    fn untrusted_ca_rejected() {
        let (_ca, id) = setup();
        let other_ca = CertificateAuthority::new("/CN=OtherCA", 10);
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        assert!(matches!(
            proxy.verify(SimTime::ZERO, &other_ca.trust_root()),
            Err(AuthError::UntrustedIssuer { .. })
        ));
    }

    #[test]
    fn broken_chain_rejected() {
        let (ca, id) = setup();
        let mut ca2 = CertificateAuthority::new("/CN=CA2", 11);
        let mallory = ca2.issue_identity("/CN=mallory", Duration::from_days(1));
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        // Graft mallory's cert onto alice's chain.
        let mut chain: Vec<Certificate> = vec![proxy.leaf().clone(), mallory.cert.clone()];
        chain[0] = id.cert.clone();
        let forged = ProxyCredential::new(chain, KeyPair::from_seed(0));
        assert!(matches!(
            forged.verify(SimTime::ZERO, &ca.trust_root()),
            Err(AuthError::BrokenChain { .. }) | Err(AuthError::BadSignature { .. })
        ));
    }

    #[test]
    fn request_signing_with_leaf_key() {
        let (_ca, id) = setup();
        let proxy = id.new_proxy(SimTime::ZERO, Duration::from_hours(12));
        let sig = proxy.sign(b"gram submit job 1");
        assert!(proxy.leaf().public_key.verify(b"gram submit job 1", &sig));
        assert!(!proxy.leaf().public_key.verify(b"gram submit job 2", &sig));
    }
}
