//! Simulated public-key primitives.
//!
//! See the crate docs: this is a behavioural stand-in, not cryptography.
//! The capability boundary is Rust ownership — only code holding a
//! [`KeyPair`] (which contains the secret) can produce signatures that
//! verify against its [`PublicKey`].

/// A public key (derived deterministically from the secret).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PublicKey(pub u64);

/// A signature over a byte string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature(pub u64);

/// A key pair. The secret never leaves this struct.
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: u64,
    public: PublicKey,
}

/// 64-bit mix (splitmix64 finalizer) — good avalanche, fully deterministic.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a byte string to 64 bits (FNV-1a then mixed).
pub fn digest(data: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

impl KeyPair {
    /// Derive a key pair from seed material (deterministic).
    pub fn from_seed(seed: u64) -> KeyPair {
        let secret = mix(seed ^ 0xA5A5_A5A5_5A5A_5A5A);
        KeyPair {
            secret,
            public: PublicKey(mix(secret)),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a byte string. Only a holder of the pair can do this.
    pub fn sign(&self, data: &[u8]) -> Signature {
        // The "signature" binds the secret-derived public key and the data.
        Signature(mix(self.secret ^ digest(data)))
    }
}

impl PublicKey {
    /// Verify `sig` over `data`.
    ///
    /// Simulated check: recompute what the owner of this public key would
    /// have produced. (The secret is recoverable here only because `mix` is
    /// invertible *in principle*; within the simulation no component
    /// attempts that, and the type system keeps secrets in `KeyPair`.)
    pub fn verify(&self, data: &[u8], sig: &Signature) -> bool {
        // We cannot recompute from the public key without the secret in a
        // real scheme; the simulation instead checks a congruence that only
        // the matching secret satisfies: sig == mix(secret ^ digest(data))
        // and public == mix(secret). We verify by searching nothing —
        // instead we exploit that mix is a bijection: secret = unmix(public)
        // is well-defined, so verification is exact.
        let secret = unmix(self.0);
        sig.0 == mix(secret ^ digest(data))
    }
}

/// Inverse of the splitmix64 finalizer (it is a bijection on u64).
fn unmix(mut x: u64) -> u64 {
    // Invert x ^= x >> 31 (applied as last step of mix).
    x ^= x >> 31; // bits 33..64 correct; one more round fixes the rest
    x ^= x >> 62;
    x = x.wrapping_mul(0x3196_42B2_D24D_8EC3); // inverse of 0x94D0_49BB_1331_11EB
    x ^= (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96DE_1B17_3F11_9089); // inverse of 0xBF58_476D_1CE4_E5B9
    x ^= (x >> 30) ^ (x >> 60);
    x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmix_inverts_mix() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let m = mix(seed);
            assert_eq!(unmix(m), seed, "seed {seed:#x}");
        }
        // And across a spread of values.
        let mut x = 7u64;
        for _ in 0..1000 {
            x = mix(x);
            assert_eq!(mix(unmix(x)), x);
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"run program P");
        assert!(kp.public().verify(b"run program P", &sig));
    }

    #[test]
    fn tampered_data_fails() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"run program P");
        assert!(!kp.public().verify(b"run program Q", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = KeyPair::from_seed(7);
        let kp2 = KeyPair::from_seed(8);
        let sig = kp1.sign(b"data");
        assert!(!kp2.public().verify(b"data", &sig));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = KeyPair::from_seed(1);
        let b = KeyPair::from_seed(2);
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn digest_is_stable_and_spread() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
