//! Certificates, the certificate authority, and identity credentials.

use crate::keys::{digest, KeyPair, PublicKey, Signature};
use crate::proxy::ProxyCredential;
use gridsim::time::{Duration, SimTime};
use std::fmt;

/// Why verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthError {
    /// A certificate in the chain has a bad signature.
    BadSignature {
        /// Whose certificate.
        subject: String,
    },
    /// A certificate is not yet valid or has expired.
    Expired {
        /// Whose certificate.
        subject: String,
        /// When it stopped being valid.
        not_after: SimTime,
    },
    /// The chain does not terminate at a trusted root.
    UntrustedIssuer {
        /// The untrusted issuer's DN.
        issuer: String,
    },
    /// A proxy certificate's issuer is not the preceding chain element.
    BrokenChain {
        /// Where the chain broke.
        subject: String,
    },
    /// The chain is empty.
    EmptyChain,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::BadSignature { subject } => {
                write!(f, "bad signature on certificate for {subject}")
            }
            AuthError::Expired { subject, not_after } => {
                write!(f, "certificate for {subject} expired at {not_after}")
            }
            AuthError::UntrustedIssuer { issuer } => write!(f, "untrusted issuer {issuer}"),
            AuthError::BrokenChain { subject } => {
                write!(f, "broken delegation chain at {subject}")
            }
            AuthError::EmptyChain => write!(f, "empty credential chain"),
        }
    }
}

impl std::error::Error for AuthError {}

/// A (simulated) X.509-style certificate binding a subject DN to a key.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// Distinguished name of the holder.
    pub subject: String,
    /// Distinguished name of the signer.
    pub issuer: String,
    /// The holder's public key.
    pub public_key: PublicKey,
    /// Start of validity.
    pub not_before: SimTime,
    /// End of validity.
    pub not_after: SimTime,
    /// Issuer's signature over the other fields.
    pub signature: Signature,
}

impl Certificate {
    /// The byte string the issuer signs.
    fn to_be_signed(
        subject: &str,
        issuer: &str,
        public_key: PublicKey,
        not_before: SimTime,
        not_after: SimTime,
    ) -> Vec<u8> {
        let mut data = Vec::with_capacity(subject.len() + issuer.len() + 32);
        data.extend_from_slice(subject.as_bytes());
        data.push(0);
        data.extend_from_slice(issuer.as_bytes());
        data.push(0);
        data.extend_from_slice(&public_key.0.to_le_bytes());
        data.extend_from_slice(&not_before.micros().to_le_bytes());
        data.extend_from_slice(&not_after.micros().to_le_bytes());
        data
    }

    /// Create and sign a certificate with the issuer's key.
    pub fn issue(
        issuer_key: &KeyPair,
        issuer_dn: &str,
        subject: &str,
        subject_key: PublicKey,
        not_before: SimTime,
        not_after: SimTime,
    ) -> Certificate {
        let tbs = Certificate::to_be_signed(subject, issuer_dn, subject_key, not_before, not_after);
        Certificate {
            subject: subject.to_string(),
            issuer: issuer_dn.to_string(),
            public_key: subject_key,
            not_before,
            not_after,
            signature: issuer_key.sign(&tbs),
        }
    }

    /// Check this certificate's signature against the claimed issuer key.
    pub fn signature_valid(&self, issuer_key: PublicKey) -> bool {
        let tbs = Certificate::to_be_signed(
            &self.subject,
            &self.issuer,
            self.public_key,
            self.not_before,
            self.not_after,
        );
        issuer_key.verify(&tbs, &self.signature)
    }

    /// Check temporal validity at `now`.
    pub fn valid_at(&self, now: SimTime) -> bool {
        self.not_before <= now && now < self.not_after
    }
}

/// The set of CA certificates a verifier trusts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrustRoot {
    roots: Vec<(String, PublicKey)>,
}

impl TrustRoot {
    /// Empty trust store.
    pub fn new() -> TrustRoot {
        TrustRoot::default()
    }

    /// Trust a CA by DN and public key.
    pub fn add(&mut self, dn: &str, key: PublicKey) {
        self.roots.push((dn.to_string(), key));
    }

    /// Look up a trusted CA key by DN.
    pub fn key_for(&self, dn: &str) -> Option<PublicKey> {
        self.roots.iter().find(|(d, _)| d == dn).map(|&(_, k)| k)
    }
}

/// A certificate authority: issues user identity certificates.
pub struct CertificateAuthority {
    dn: String,
    key: KeyPair,
    issued: u64,
}

impl CertificateAuthority {
    /// Create a CA with the given distinguished name and key seed.
    pub fn new(dn: &str, seed: u64) -> CertificateAuthority {
        CertificateAuthority {
            dn: dn.to_string(),
            key: KeyPair::from_seed(seed),
            issued: 0,
        }
    }

    /// The CA's distinguished name.
    pub fn dn(&self) -> &str {
        &self.dn
    }

    /// A one-entry trust store containing this CA.
    pub fn trust_root(&self) -> TrustRoot {
        let mut t = TrustRoot::new();
        t.add(&self.dn, self.key.public());
        t
    }

    /// Issue a long-lived identity credential (user certificate + key).
    pub fn issue_identity(&mut self, subject: &str, lifetime: Duration) -> Identity {
        self.issued += 1;
        let user_key = KeyPair::from_seed(digest(subject.as_bytes()) ^ self.issued);
        let cert = Certificate::issue(
            &self.key,
            &self.dn,
            subject,
            user_key.public(),
            SimTime::ZERO,
            SimTime::ZERO + lifetime,
        );
        Identity {
            cert,
            key: user_key,
        }
    }
}

/// A user's long-lived identity: certificate plus private key. In real GSI
/// this is the passphrase-protected key the user never hands to agents.
#[derive(Clone, Debug)]
pub struct Identity {
    /// The CA-signed user certificate.
    pub cert: Certificate,
    key: KeyPair,
}

impl Identity {
    /// The subject distinguished name.
    pub fn subject(&self) -> &str {
        &self.cert.subject
    }

    /// Create a proxy credential valid for `lifetime` from `now` (§3.1:
    /// "GSI employs the user's private key to create a proxy credential").
    /// The proxy's lifetime is clamped to the identity certificate's own.
    pub fn new_proxy(&self, now: SimTime, lifetime: Duration) -> ProxyCredential {
        let proxy_key = KeyPair::from_seed(
            digest(self.cert.subject.as_bytes()) ^ now.micros() ^ 0x50_52_4F_58_59, // "PROXY"
        );
        let not_after = (now + lifetime).min(self.cert.not_after);
        let proxy_subject = format!("{}/CN=proxy", self.cert.subject);
        let proxy_cert = Certificate::issue(
            &self.key,
            &self.cert.subject,
            &proxy_subject,
            proxy_key.public(),
            now,
            not_after,
        );
        ProxyCredential::new(vec![self.cert.clone(), proxy_cert], proxy_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour() -> Duration {
        Duration::from_hours(1)
    }

    #[test]
    fn ca_issues_verifiable_certs() {
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=alice", Duration::from_days(365));
        let root = ca.trust_root();
        let ca_key = root.key_for("/CN=CA").unwrap();
        assert!(id.cert.signature_valid(ca_key));
        assert!(id.cert.valid_at(SimTime::ZERO + hour()));
        assert!(!id.cert.valid_at(SimTime::ZERO + Duration::from_days(366)));
    }

    #[test]
    fn forged_cert_fails() {
        let ca = CertificateAuthority::new("/CN=CA", 1);
        let mut ca2 = CertificateAuthority::new("/CN=CA", 2); // same DN, other key
        let id = ca2.issue_identity("/CN=mallory", Duration::from_days(1));
        let ca_key = ca.trust_root().key_for("/CN=CA").unwrap();
        assert!(!id.cert.signature_valid(ca_key));
    }

    #[test]
    fn tampered_validity_fails() {
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let id = ca.issue_identity("/CN=alice", Duration::from_days(1));
        let ca_key = ca.trust_root().key_for("/CN=CA").unwrap();
        let mut extended = id.cert.clone();
        extended.not_after = SimTime::ZERO + Duration::from_days(1000);
        assert!(
            !extended.signature_valid(ca_key),
            "extending lifetime breaks the signature"
        );
    }

    #[test]
    fn identities_have_distinct_keys() {
        let mut ca = CertificateAuthority::new("/CN=CA", 1);
        let a = ca.issue_identity("/CN=alice", hour());
        let b = ca.issue_identity("/CN=bob", hour());
        assert_ne!(a.cert.public_key, b.cert.public_key);
    }
}
