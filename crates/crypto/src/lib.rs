//! From-scratch cryptographic substrate for the NWADE reproduction.
//!
//! The paper's travel-plan blockchain uses SHA-256 block hashes and a
//! 2048-bit signing key held by the intersection manager (§VI-A). No
//! third-party cryptography crates are on this workspace's sanctioned
//! dependency list, so this crate implements everything needed from first
//! principles:
//!
//! * [`sha256`](mod@sha256) — the FIPS 180-4 SHA-256 compression function,
//! * [`bigint`] — arbitrary-precision unsigned integers (32-bit limbs),
//! * [`modular`] — division, plain and Montgomery modular exponentiation
//!   (64-bit limbs, 4-bit exponent window),
//! * [`prime`] — Miller–Rabin probabilistic primality and prime generation,
//! * [`rsa`] — RSA key generation, PKCS#1 v1.5-style signing/verification
//!   with CRT acceleration,
//! * [`merkle`] — the hash tree whose root `R_i` anchors each block's
//!   travel plans (Eq. 1), with inclusion proofs,
//! * [`signature`] — a scheme abstraction so simulations can swap the real
//!   RSA signer for a cheap mock when crypto cost is not under test.
//!
//! This code is written for clarity and testability, **not** for
//! production security use: it is not constant-time and has seen no
//! side-channel hardening. It exists to reproduce the paper's measured
//! behaviour faithfully.

#![forbid(unsafe_code)]

pub mod bigint;
pub mod merkle;
pub mod modular;
pub mod prime;
pub mod rsa;
pub mod sha256;
pub mod signature;

pub use bigint::BigUint;
pub use merkle::{MerkleProof, MerkleTree};
pub use rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
pub use sha256::{sha256, Digest, Sha256};
pub use signature::{CachingVerifier, MockScheme, RsaScheme, SignatureScheme};
