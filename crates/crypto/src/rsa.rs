//! RSA signatures in the PKCS#1 v1.5 style, with CRT-accelerated signing.
//!
//! The paper states the intersection manager signs blocks with a 2048-bit
//! private key and hashes with SHA-256 (§VI-A). [`RsaKeyPair::generate`]
//! produces keys of any even size ≥ 128 bits; tests use small keys for
//! speed while the benchmark harness measures the full 2048-bit regime.

use crate::modular::{mod_inverse, modpow, Montgomery};
use crate::prime::gen_prime;
use crate::sha256::{sha256, Digest};
use crate::BigUint;
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

/// ASN.1 DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// The public half of an RSA key: modulus and public exponent.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Montgomery context for `n`, built on the first verification and
    /// reused for every later one. The setup (limb inverse, R² mod n)
    /// costs several multiplications per call when rebuilt each time —
    /// pure overhead for a verifier checking many signatures under one
    /// manager key.
    ctx: OnceLock<Montgomery>,
}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RsaPublicKey({} bits)", self.modulus_bits())
    }
}

/// Key identity is the (n, e) pair; the lazily built Montgomery context
/// is derived state and never participates in comparisons.
impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

/// An RSA signature (big-endian, exactly the modulus width).
#[derive(Clone, PartialEq, Eq)]
pub struct RsaSignature(Vec<u8>);

impl RsaSignature {
    /// The raw signature bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Wraps raw bytes as a signature (for deserialization).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        RsaSignature(bytes)
    }
}

impl fmt::Debug for RsaSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RsaSignature({} bytes)", self.0.len())
    }
}

impl RsaPublicKey {
    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Verifies `signature` over `message` (hashed with SHA-256).
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        self.verify_digest(&sha256(message), signature)
    }

    /// Verifies a signature over a precomputed digest.
    pub fn verify_digest(&self, digest: &Digest, signature: &RsaSignature) -> bool {
        if signature.0.len() != self.modulus_len() {
            return false;
        }
        let s = BigUint::from_bytes_be(&signature.0);
        if s >= self.n {
            return false;
        }
        // RSA moduli are odd (products of odd primes); the even branch
        // only guards hand-built test keys.
        let em = if self.n.is_even() {
            modpow(&s, &self.e, &self.n)
        } else {
            self.ctx
                .get_or_init(|| Montgomery::new(&self.n))
                .modpow(&s, &self.e)
        };
        em.to_bytes_be_padded(self.modulus_len()) == encode_em(digest, self.modulus_len())
    }
}

/// A full RSA key pair with CRT parameters.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
    /// Montgomery contexts for p and q, precomputed at generation so
    /// every CRT signature skips the per-prime modexp setup.
    mont_p: Montgomery,
    mont_q: Montgomery,
}

impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print private material.
        write!(f, "RsaKeyPair({} bits)", self.public.modulus_bits())
    }
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of exactly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is odd or below 128.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(
            bits >= 128 && bits.is_multiple_of(2),
            "key size must be even and >= 128"
        );
        let e = BigUint::from_u64(65_537);
        let rounds = 16;
        loop {
            let p = gen_prime(bits / 2, rounds, rng);
            let q = gen_prime(bits / 2, rounds, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = &(&p - &one) * &(&q - &one);
            let Some(d) = mod_inverse(&e, &phi) else {
                continue;
            };
            let d_p = d.rem(&(&p - &one));
            let d_q = d.rem(&(&q - &one));
            let q_inv = mod_inverse(&q, &p).expect("p, q distinct primes");
            let mont_p = Montgomery::new(&p);
            let mont_q = Montgomery::new(&q);
            return RsaKeyPair {
                public: RsaPublicKey {
                    n,
                    e,
                    ctx: OnceLock::new(),
                },
                d,
                p,
                q,
                d_p,
                d_q,
                q_inv,
                mont_p,
                mont_q,
            };
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs `message` (hashed with SHA-256).
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        self.sign_digest(&sha256(message))
    }

    /// Signs a precomputed digest using the CRT.
    pub fn sign_digest(&self, digest: &Digest) -> RsaSignature {
        let k = self.public.modulus_len();
        let em = BigUint::from_bytes_be(&encode_em(digest, k));
        // CRT: m1 = em^dP mod p, m2 = em^dQ mod q,
        //      h = qInv (m1 − m2) mod p, s = m2 + q h.
        let m1 = self.mont_p.modpow(&em, &self.d_p);
        let m2 = self.mont_q.modpow(&em, &self.d_q);
        let diff = if m1 >= m2.rem(&self.p) {
            (&m1 - &m2.rem(&self.p)).rem(&self.p)
        } else {
            (&(&m1 + &self.p) - &m2.rem(&self.p)).rem(&self.p)
        };
        let h = (&self.q_inv * &diff).rem(&self.p);
        let s = &m2 + &(&self.q * &h);
        RsaSignature(s.to_bytes_be_padded(k))
    }

    /// Signs without the CRT (reference implementation used in tests and
    /// the ablation bench to quantify the CRT speed-up).
    pub fn sign_digest_plain(&self, digest: &Digest) -> RsaSignature {
        let k = self.public.modulus_len();
        let em = BigUint::from_bytes_be(&encode_em(digest, k));
        let s = modpow(&em, &self.d, &self.public.n);
        RsaSignature(s.to_bytes_be_padded(k))
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `k` bytes.
///
/// # Panics
///
/// Panics if `k` is too small to hold the padding and digest (k < 62).
fn encode_em(digest: &Digest, k: usize) -> Vec<u8> {
    let t_len = SHA256_PREFIX.len() + 32;
    assert!(k >= t_len + 11, "modulus too small for PKCS#1 v1.5 SHA-256");
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_PREFIX);
    em.extend_from_slice(digest.as_bytes());
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// A 512-bit key generated once and shared across tests: big enough to
    /// exercise multi-limb arithmetic, small enough for debug-build speed.
    fn test_key() -> &'static RsaKeyPair {
        static KEY: OnceLock<RsaKeyPair> = OnceLock::new();
        KEY.get_or_init(|| RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(7)))
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = test_key();
        let sig = key.sign(b"travel plan batch 42");
        assert!(key.public_key().verify(b"travel plan batch 42", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key();
        let sig = key.sign(b"original");
        assert!(!key.public_key().verify(b"tampered", &sig));
    }

    #[test]
    fn verify_rejects_corrupted_signature() {
        let key = test_key();
        let sig = key.sign(b"message");
        let mut bytes = sig.as_bytes().to_vec();
        bytes[10] ^= 0x01;
        assert!(!key
            .public_key()
            .verify(b"message", &RsaSignature::from_bytes(bytes)));
    }

    #[test]
    fn verify_rejects_wrong_length_signature() {
        let key = test_key();
        let sig = key.sign(b"message");
        let short = RsaSignature::from_bytes(sig.as_bytes()[1..].to_vec());
        assert!(!key.public_key().verify(b"message", &short));
    }

    #[test]
    fn verify_rejects_signature_from_other_key() {
        let key = test_key();
        let other = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(8));
        let sig = other.sign(b"message");
        assert!(!key.public_key().verify(b"message", &sig));
        assert!(other.public_key().verify(b"message", &sig));
    }

    #[test]
    fn crt_matches_plain_signing() {
        let key = test_key();
        let d = sha256(b"same digest both ways");
        assert_eq!(
            key.sign_digest(&d).as_bytes(),
            key.sign_digest_plain(&d).as_bytes()
        );
    }

    #[test]
    fn signature_width_equals_modulus() {
        let key = test_key();
        assert_eq!(
            key.sign(b"x").as_bytes().len(),
            key.public_key().modulus_len()
        );
        assert_eq!(key.public_key().modulus_bits(), 512);
    }

    #[test]
    fn generate_produces_distinct_keys() {
        let a = RsaKeyPair::generate(256, &mut StdRng::seed_from_u64(1));
        let b = RsaKeyPair::generate(256, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn small_keys_work_end_to_end() {
        let key = RsaKeyPair::generate(640, &mut StdRng::seed_from_u64(3));
        let sig = key.sign(b"block");
        assert!(key.public_key().verify(b"block", &sig));
    }

    #[test]
    fn debug_hides_private_material() {
        let key = test_key();
        let s = format!("{key:?}");
        assert_eq!(s, "RsaKeyPair(512 bits)");
    }

    #[test]
    fn cached_montgomery_context_is_stable_across_verifies() {
        let key = test_key();
        let public = key.public_key().clone();
        let sig = key.sign(b"repeat");
        // Repeated verifies share one lazily built context.
        for _ in 0..3 {
            assert!(public.verify(b"repeat", &sig));
        }
        assert!(!public.verify(b"other", &sig));
        // The context is derived state: clones and equality ignore it
        // (`public` has verified, the original key may not have).
        assert_eq!(&public, key.public_key());
        assert_eq!(public.clone(), public);
    }

    #[test]
    #[should_panic(expected = "even and >= 128")]
    fn tiny_key_request_panics() {
        let _ = RsaKeyPair::generate(64, &mut StdRng::seed_from_u64(0));
    }

    /// Known answer at the paper's key size: the SHA-256 of the modulus
    /// and of one CRT signature from a seeded generator, recorded with
    /// the 32-bit bit-at-a-time kernel. Key generation must draw the
    /// same candidates and reach the same verdicts.
    #[test]
    fn seeded_2048_bit_key_is_pinned() {
        let key = RsaKeyPair::generate(2048, &mut StdRng::seed_from_u64(1));
        let digest = sha256(b"known answer");
        let sig = key.sign_digest(&digest);
        assert_eq!(
            sha256(&key.public.n.to_bytes_be()).to_hex(),
            "58937d7cd8e8385203114e910cb6ae2a2f8207eb48509e7d33fed73f93d8317e"
        );
        assert_eq!(
            sha256(sig.as_bytes()).to_hex(),
            "fc281e143600aff44c04f7344166c0fc81830adb9ee8349337b5bbc90e847869"
        );
        assert!(key.public_key().verify_digest(&digest, &sig));
    }

    #[test]
    fn em_encoding_structure() {
        let d = sha256(b"x");
        let em = encode_em(&d, 128);
        assert_eq!(em.len(), 128);
        assert_eq!(&em[..2], &[0x00, 0x01]);
        // Padding then 0x00 separator then DigestInfo.
        let sep = em.iter().skip(2).position(|&b| b == 0x00).unwrap() + 2;
        assert!(em[2..sep].iter().all(|&b| b == 0xff));
        assert_eq!(&em[sep + 1..sep + 1 + 19], &SHA256_PREFIX);
        assert_eq!(&em[em.len() - 32..], d.as_bytes());
    }
}
