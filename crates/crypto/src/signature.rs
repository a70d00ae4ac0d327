//! Signature-scheme abstraction.
//!
//! The blockchain layer signs and verifies through this trait so that
//! large-scale simulations can swap the real RSA signer for a cheap
//! hash-based mock when cryptographic cost is not the quantity under test
//! (the paper's Fig. 6 measures real signing; Figs. 4/5/7/8 do not depend
//! on it).

use crate::rsa::{RsaKeyPair, RsaSignature};
use crate::sha256::{Digest, Sha256};
use std::collections::HashMap;
use std::sync::Mutex;

/// A detached-signature scheme over 32-byte digests.
pub trait SignatureScheme: Send + Sync {
    /// Signs a digest, returning the signature bytes.
    fn sign(&self, digest: &Digest) -> Vec<u8>;

    /// Verifies signature bytes over a digest.
    fn verify(&self, digest: &Digest, signature: &[u8]) -> bool;

    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;
}

/// The real RSA scheme (PKCS#1 v1.5 style with SHA-256).
#[derive(Debug, Clone)]
pub struct RsaScheme {
    key: RsaKeyPair,
}

impl RsaScheme {
    /// Wraps a key pair.
    pub fn new(key: RsaKeyPair) -> Self {
        RsaScheme { key }
    }

    /// The underlying key pair.
    pub fn key(&self) -> &RsaKeyPair {
        &self.key
    }
}

impl SignatureScheme for RsaScheme {
    fn sign(&self, digest: &Digest) -> Vec<u8> {
        self.key.sign_digest(digest).as_bytes().to_vec()
    }

    fn verify(&self, digest: &Digest, signature: &[u8]) -> bool {
        self.key
            .public_key()
            .verify_digest(digest, &RsaSignature::from_bytes(signature.to_vec()))
    }

    fn name(&self) -> &'static str {
        "rsa-pkcs1-sha256"
    }
}

/// A deterministic keyed-hash mock: `sig = SHA-256(key ‖ digest)`.
///
/// Unforgeable only against parties that do not know `key`; in the
/// simulator the attacker model controls which parties hold the key, so
/// the mock preserves the *detectability* semantics (a party without the
/// key cannot fabricate a block that verifies) at a tiny fraction of RSA's
/// cost. **Never** use outside simulation.
#[derive(Debug, Clone)]
pub struct MockScheme {
    key: [u8; 32],
}

impl MockScheme {
    /// Creates a mock scheme from a 32-byte key.
    pub fn new(key: [u8; 32]) -> Self {
        MockScheme { key }
    }

    /// Creates a mock scheme from a seed integer (testing convenience).
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_be_bytes());
        MockScheme { key }
    }
}

impl SignatureScheme for MockScheme {
    fn sign(&self, digest: &Digest) -> Vec<u8> {
        Sha256::new()
            .chain(&self.key)
            .chain(digest.as_bytes())
            .finalize()
            .as_bytes()
            .to_vec()
    }

    fn verify(&self, digest: &Digest, signature: &[u8]) -> bool {
        self.sign(digest) == signature
    }

    fn name(&self) -> &'static str {
        "mock-keyed-hash"
    }
}

/// A digest-keyed verification cache around any [`SignatureScheme`].
///
/// The manager broadcasts each block to every vehicle and each vehicle
/// verifies it — N identical public-key operations over the same
/// `(digest, signature)` pair per window. Parties that share one
/// verifier handle (all honest vehicles check the same manager key) pay
/// the modexp once; every later check is a table lookup. Verification
/// of a fixed pair is deterministic, so caching negative verdicts is
/// sound too.
///
/// Signing is delegated uncached. The cache is bounded: when full it is
/// cleared wholesale — hits cluster around the most recent blocks, so a
/// periodic cold restart costs a handful of re-verifications.
pub struct CachingVerifier<S> {
    inner: S,
    capacity: usize,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<(Digest, Vec<u8>), bool>,
    hits: u64,
    misses: u64,
}

impl<S: SignatureScheme> CachingVerifier<S> {
    /// Wraps a scheme with the default cache bound.
    pub fn new(inner: S) -> Self {
        CachingVerifier::with_capacity(inner, 1024)
    }

    /// Wraps a scheme, keeping at most `capacity` cached verdicts.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(inner: S, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CachingVerifier {
            inner,
            capacity,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// `(hits, misses)` so far — for perf diagnostics and tests.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.state.lock().expect("verifier cache lock");
        (s.hits, s.misses)
    }
}

impl<S: SignatureScheme> SignatureScheme for CachingVerifier<S> {
    fn sign(&self, digest: &Digest) -> Vec<u8> {
        self.inner.sign(digest)
    }

    fn verify(&self, digest: &Digest, signature: &[u8]) -> bool {
        let key = (*digest, signature.to_vec());
        {
            let mut s = self.state.lock().expect("verifier cache lock");
            if let Some(&verdict) = s.map.get(&key) {
                s.hits += 1;
                return verdict;
            }
        }
        // Verify outside the lock: a 2048-bit modexp must not serialize
        // concurrent verifiers of different blocks.
        let verdict = self.inner.verify(digest, signature);
        let mut s = self.state.lock().expect("verifier cache lock");
        s.misses += 1;
        if s.map.len() >= self.capacity {
            s.map.clear();
        }
        s.map.insert(key, verdict);
        verdict
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mock_round_trip() {
        let scheme = MockScheme::from_seed(42);
        let d = sha256(b"block");
        let sig = scheme.sign(&d);
        assert!(scheme.verify(&d, &sig));
        assert!(!scheme.verify(&sha256(b"other"), &sig));
        assert_eq!(scheme.name(), "mock-keyed-hash");
    }

    #[test]
    fn mock_with_different_keys_disagree() {
        let a = MockScheme::from_seed(1);
        let b = MockScheme::from_seed(2);
        let d = sha256(b"block");
        assert!(!b.verify(&d, &a.sign(&d)));
    }

    #[test]
    fn rsa_scheme_through_trait() {
        let key = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(99));
        let scheme = RsaScheme::new(key);
        let d = sha256(b"block");
        let sig = scheme.sign(&d);
        assert!(scheme.verify(&d, &sig));
        let mut bad = sig.clone();
        bad[0] ^= 1;
        assert!(!scheme.verify(&d, &bad));
        assert_eq!(scheme.name(), "rsa-pkcs1-sha256");
    }

    #[test]
    fn caching_verifier_caches_both_verdicts() {
        let scheme = CachingVerifier::new(MockScheme::from_seed(3));
        let d = sha256(b"block");
        let sig = scheme.sign(&d);
        let mut bad = sig.clone();
        bad[0] ^= 1;
        for _ in 0..3 {
            assert!(scheme.verify(&d, &sig));
            assert!(!scheme.verify(&d, &bad));
        }
        let (hits, misses) = scheme.stats();
        assert_eq!(misses, 2, "one modexp per distinct (digest, sig)");
        assert_eq!(hits, 4);
        assert_eq!(scheme.name(), "mock-keyed-hash");
    }

    #[test]
    fn caching_verifier_bounded_cache_restarts_cold() {
        let scheme = CachingVerifier::with_capacity(MockScheme::from_seed(4), 2);
        for i in 0u64..5 {
            let d = sha256(&i.to_be_bytes());
            let sig = scheme.sign(&d);
            assert!(scheme.verify(&d, &sig));
        }
        let (hits, misses) = scheme.stats();
        assert_eq!(misses, 5, "distinct digests never hit");
        assert_eq!(hits, 0);
        // Earlier entries were evicted wholesale; re-verifying one is a
        // miss again but still correct.
        let d = sha256(&0u64.to_be_bytes());
        let sig = scheme.sign(&d);
        assert!(scheme.verify(&d, &sig));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn caching_verifier_zero_capacity_panics() {
        let _ = CachingVerifier::with_capacity(MockScheme::from_seed(0), 0);
    }

    #[test]
    fn trait_objects_are_usable() {
        let schemes: Vec<Box<dyn SignatureScheme>> = vec![
            Box::new(MockScheme::from_seed(7)),
            Box::new(RsaScheme::new(RsaKeyPair::generate(
                512,
                &mut StdRng::seed_from_u64(7),
            ))),
        ];
        let d = sha256(b"payload");
        for s in &schemes {
            let sig = s.sign(&d);
            assert!(s.verify(&d, &sig), "{} failed round trip", s.name());
        }
    }
}
