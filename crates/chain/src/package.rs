//! Manager-side block packaging.

use crate::block::{Block, ShardAnchor};
use nwade_aim::TravelPlan;
use nwade_crypto::{Digest, SignatureScheme};
use std::sync::Arc;

/// Packages travel-plan batches into a growing blockchain.
///
/// One packager instance lives inside the intersection manager; its state
/// is the previous block hash and the next index. Each processing window
/// hands over all of its plans at once, and the packager seals them into
/// one signed block (§IV-B1, Eq. 1).
#[derive(Clone)]
pub struct BlockPackager {
    signer: Arc<dyn SignatureScheme>,
    prev_hash: Digest,
    next_index: u64,
}

impl std::fmt::Debug for BlockPackager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockPackager")
            .field("scheme", &self.signer.name())
            .field("next_index", &self.next_index)
            .finish()
    }
}

impl BlockPackager {
    /// Creates a packager; the first block will carry
    /// `prev_hash = Digest::ZERO`.
    pub fn new(signer: Arc<dyn SignatureScheme>) -> Self {
        BlockPackager {
            signer,
            prev_hash: Digest::ZERO,
            next_index: 0,
        }
    }

    /// Index the next packaged block will carry.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Hash the next block will point at.
    pub fn prev_hash(&self) -> Digest {
        self.prev_hash
    }

    /// Restores the chain tip from durable state (warm recovery): the
    /// next packaged block carries `prev_hash` and `next_index` exactly
    /// as the pre-crash packager would have produced.
    pub fn restore_tip(&mut self, prev_hash: Digest, next_index: u64) {
        self.prev_hash = prev_hash;
        self.next_index = next_index;
    }

    /// Packages one processing window's plans into a signed block and
    /// advances the chain state.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch; the caller skips windows with no new
    /// plans (the chain only grows when there is something to publish).
    pub fn package(&mut self, plans: Vec<TravelPlan>, timestamp: f64) -> Block {
        assert!(!plans.is_empty(), "cannot package an empty window");
        let root = Block::root_of(&plans);
        self.package_rooted_anchored(plans, root, timestamp, Vec::new())
    }

    /// Like [`BlockPackager::package`] but with the Merkle root already
    /// computed by the caller and embedding cross-shard anchors —
    /// neighbour chain tips the signature and hash will cover. `root`
    /// **must** equal `Block::root_of(&plans)` or the block will fail
    /// verification.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, like [`BlockPackager::package`].
    pub fn package_rooted_anchored(
        &mut self,
        plans: Vec<TravelPlan>,
        root: Digest,
        timestamp: f64,
        anchors: Vec<ShardAnchor>,
    ) -> Block {
        assert!(!plans.is_empty(), "cannot package an empty window");
        debug_assert_eq!(root, Block::root_of(&plans), "root must match plans");
        let digest = Block::signing_digest_anchored(
            self.next_index,
            &self.prev_hash,
            timestamp,
            &root,
            &anchors,
        );
        let signature = self.signer.sign(&digest);
        let block = Block::from_parts_anchored(
            self.next_index,
            signature,
            self.prev_hash,
            timestamp,
            root,
            plans,
            anchors,
        );
        self.prev_hash = block.hash();
        self.next_index += 1;
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_block, verify_link};
    use nwade_crypto::MockScheme;

    fn packager() -> BlockPackager {
        BlockPackager::new(Arc::new(MockScheme::from_seed(1)))
    }

    #[test]
    fn first_block_is_genesis() {
        let mut p = packager();
        let b = p.package(crate::block::tests::plans(3), 1.0);
        assert_eq!(b.index(), 0);
        assert_eq!(b.prev_hash(), Digest::ZERO);
        assert_eq!(p.next_index(), 1);
        assert_eq!(p.prev_hash(), b.hash());
    }

    #[test]
    fn chain_links_forward() {
        let mut p = packager();
        let b0 = p.package(crate::block::tests::plans(2), 1.0);
        let b1 = p.package(crate::block::tests::plans(3), 2.0);
        let b2 = p.package(crate::block::tests::plans(1), 3.0);
        assert_eq!(b1.prev_hash(), b0.hash());
        assert_eq!(b2.prev_hash(), b1.hash());
        assert!(verify_link(&b0, &b1).is_ok());
        assert!(verify_link(&b1, &b2).is_ok());
        assert!(verify_link(&b0, &b2).is_err());
    }

    #[test]
    fn packaged_blocks_verify() {
        let scheme = Arc::new(MockScheme::from_seed(2));
        let mut p = BlockPackager::new(scheme.clone());
        for i in 0..4 {
            let b = p.package(crate::block::tests::plans(2 + i), i as f64);
            verify_block(&b, scheme.as_ref()).expect("honest block verifies");
        }
    }

    #[test]
    fn anchored_blocks_verify_and_chain() {
        let scheme = Arc::new(MockScheme::from_seed(6));
        let mut p = BlockPackager::new(scheme.clone());
        let anchors = vec![ShardAnchor {
            shard: 3,
            tip: nwade_crypto::sha256(b"neighbour-tip"),
        }];
        let plans = crate::block::tests::plans(2);
        let root = Block::root_of(&plans);
        let b0 = p.package_rooted_anchored(plans, root, 1.0, anchors.clone());
        assert_eq!(b0.anchors(), anchors.as_slice());
        verify_block(&b0, scheme.as_ref()).expect("anchored block verifies");
        let b1 = p.package(crate::block::tests::plans(1), 2.0);
        assert!(b1.anchors().is_empty());
        assert!(verify_link(&b0, &b1).is_ok());
        // Stripping the anchors after signing breaks verification.
        let stripped = Block::from_parts(
            b0.index(),
            b0.signature().to_vec(),
            b0.prev_hash(),
            b0.timestamp(),
            b0.merkle_root(),
            b0.plans().to_vec(),
        );
        assert!(verify_block(&stripped, scheme.as_ref()).is_err());
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_panics() {
        let mut p = packager();
        let _ = p.package(Vec::new(), 0.0);
    }

    #[test]
    fn debug_shows_scheme() {
        let p = packager();
        assert!(format!("{p:?}").contains("mock-keyed-hash"));
    }

    #[test]
    fn restored_tip_continues_the_chain() {
        let mut live = packager();
        let b0 = live.package(crate::block::tests::plans(2), 1.0);
        let b1 = live.package(crate::block::tests::plans(3), 2.0);

        // A fresh packager restored to the tip signs the same next block.
        let mut recovered = packager();
        recovered.restore_tip(live.prev_hash(), live.next_index());
        let plans = crate::block::tests::plans(2);
        let expect = live.package(plans.clone(), 3.0);
        let got = recovered.package(plans, 3.0);
        assert_eq!(got.hash(), expect.hash());
        assert!(verify_link(&b1, &got).is_ok());
        assert_eq!(got.prev_hash(), b1.hash());
        let _ = b0;
    }
}
