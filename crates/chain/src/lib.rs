//! The travel-plan blockchain (§IV-B1 of the paper).
//!
//! Every processing window δ the intersection manager packages the batch
//! of newly generated travel plans into a block
//!
//! ```text
//! B_i = ⟨ s_i, h_{i−1}, τ_i, R_i ⟩          (Eq. 1)
//! ```
//!
//! where `s_i` is the manager's signature over the rest of the block,
//! `h_{i−1}` the SHA-256 hash of the previous block, `τ_i` the timestamp
//! and `R_i` the Merkle root of the window's travel plans (Fig. 3).
//!
//! * [`Block`] — the block structure with its hashing rules, and
//!   [`BlockTable`], its plans' reservation table, shared by every copy,
//! * [`BlockPackager`] — the manager-side packaging state machine,
//! * [`verify`] — the cryptographic checks of Algorithm 1 (signature,
//!   root, linkage); the *semantic* conflict check lives in the NWADE
//!   core crate,
//! * [`ChainCache`] — the bounded per-vehicle chain cache (a vehicle
//!   stores at most τ/δ blocks: crossing time over window length),
//! * [`tamper`] — block corruptions used by attack injection.

#![forbid(unsafe_code)]

pub mod block;
pub mod cache;
pub mod package;
pub mod tamper;
pub mod verify;

pub use block::{Block, BlockTable, ShardAnchor};
pub use cache::ChainCache;
pub use package::BlockPackager;
pub use verify::{verify_block, verify_link, BlockError};
