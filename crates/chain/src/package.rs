//! Manager-side block packaging.

use crate::block::{Block, ShardAnchor};
use nwade_aim::TravelPlan;
use nwade_crypto::merkle::leaf_hash;
use nwade_crypto::{Digest, MerkleTree, SignatureScheme};
use std::sync::Arc;

/// Packages travel-plan batches into a growing blockchain.
///
/// One packager instance lives inside the intersection manager; its state
/// is the previous block hash and the next index. Plans can be handed
/// over all at once ([`BlockPackager::package`]) or staged one at a time
/// as they are scheduled during a processing window
/// ([`BlockPackager::stage`] / [`BlockPackager::package_staged`]), which
/// keeps the Merkle tree incremental — O(log n) hashing per plan instead
/// of an O(n) rebuild at window close.
#[derive(Clone)]
pub struct BlockPackager {
    signer: Arc<dyn SignatureScheme>,
    prev_hash: Digest,
    next_index: u64,
    staged: Vec<TravelPlan>,
    staged_tree: Option<MerkleTree>,
}

impl std::fmt::Debug for BlockPackager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockPackager")
            .field("scheme", &self.signer.name())
            .field("next_index", &self.next_index)
            .field("staged", &self.staged.len())
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
            staged: Vec::new(),
            staged_tree: None,
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
    /// as the pre-crash packager would have produced. Any half-staged
    /// window is discarded — staged plans that never reached a WAL
    /// commit are re-scheduled by replay, not resumed.
    pub fn restore_tip(&mut self, prev_hash: Digest, next_index: u64) {
        self.prev_hash = prev_hash;
        self.next_index = next_index;
        self.staged.clear();
        self.staged_tree = None;
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
        self.package_rooted(plans, root, timestamp)
    }

    /// Like [`BlockPackager::package`] but with the Merkle root already
    /// computed by the caller. `root` **must** equal
    /// `Block::root_of(&plans)` or the block will fail verification.
    pub fn package_rooted(
        &mut self,
        plans: Vec<TravelPlan>,
        root: Digest,
        timestamp: f64,
    ) -> Block {
        self.package_rooted_anchored(plans, root, timestamp, Vec::new())
    }

    /// Like [`BlockPackager::package_rooted`] but embedding cross-shard
    /// anchors — neighbour chain tips the signature and hash will cover.
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

    /// Stages one plan for the block under construction, extending the
    /// incremental Merkle tree by its leaf.
    pub fn stage(&mut self, plan: TravelPlan) {
        let leaf = leaf_hash(&plan.encode());
        match &mut self.staged_tree {
            Some(tree) => tree.push_leaf(leaf),
            None => self.staged_tree = Some(MerkleTree::from_leaf_hashes(vec![leaf])),
        }
        self.staged.push(plan);
    }

    /// Number of plans staged so far.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Running Merkle root over the staged plans, `None` when nothing is
    /// staged.
    pub fn staged_root(&self) -> Option<Digest> {
        self.staged_tree.as_ref().map(MerkleTree::root)
    }

    /// Packages the staged plans into a signed block — identical to
    /// calling [`BlockPackager::package`] with the same plans in staging
    /// order, but reusing the incrementally built Merkle tree.
    ///
    /// # Panics
    ///
    /// Panics when nothing is staged.
    pub fn package_staged(&mut self, timestamp: f64) -> Block {
        assert!(!self.staged.is_empty(), "cannot package an empty window");
        let tree = self.staged_tree.take().expect("tree tracks staged plans");
        let plans = std::mem::take(&mut self.staged);
        let root = tree.root();
        let digest = Block::signing_digest(self.next_index, &self.prev_hash, timestamp, &root);
        let signature = self.signer.sign(&digest);
        let block = Block::from_parts(
            self.next_index,
            signature,
            self.prev_hash,
            timestamp,
            root,
            plans,
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
    fn package_rooted_matches_package() {
        let mut a = packager();
        let mut b = packager();
        for (i, n) in [3u64, 1, 4].iter().enumerate() {
            let plans = crate::block::tests::plans(*n);
            let expect = a.package(plans.clone(), i as f64);
            let root = Block::root_of(&plans);
            let got = b.package_rooted(plans, root, i as f64);
            assert_eq!(got.hash(), expect.hash(), "block {i} diverged");
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
    fn staged_packaging_matches_batch_packaging() {
        let mut batch = packager();
        let mut staged = packager();
        for (i, n) in [3u64, 1, 5].iter().enumerate() {
            let plans = crate::block::tests::plans(*n);
            let expected = batch.package(plans.clone(), i as f64);
            for plan in plans {
                staged.stage(plan);
            }
            assert_eq!(staged.staged_root(), Some(expected.merkle_root()));
            let got = staged.package_staged(i as f64);
            assert_eq!(got.hash(), expected.hash(), "block {i} diverged");
            assert_eq!(got.signature(), expected.signature());
            assert_eq!(staged.staged_len(), 0, "staging area drained");
        }
        let scheme = MockScheme::from_seed(1);
        verify_block(&batch.package(crate::block::tests::plans(2), 9.0), &scheme)
            .expect("chain state stays consistent");
    }

    #[test]
    fn staged_blocks_verify_and_chain() {
        let scheme = Arc::new(MockScheme::from_seed(4));
        let mut p = BlockPackager::new(scheme.clone());
        let mut prev: Option<Block> = None;
        for i in 0..3 {
            for plan in crate::block::tests::plans(2 + i) {
                p.stage(plan);
            }
            let b = p.package_staged(i as f64);
            verify_block(&b, scheme.as_ref()).expect("staged block verifies");
            if let Some(prev) = &prev {
                verify_link(prev, &b).expect("staged block chains");
            }
            prev = Some(b);
        }
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_staged_window_panics() {
        let mut p = packager();
        let _ = p.package_staged(0.0);
    }

    #[test]
    fn restored_tip_continues_the_chain() {
        let mut live = packager();
        let b0 = live.package(crate::block::tests::plans(2), 1.0);
        let b1 = live.package(crate::block::tests::plans(3), 2.0);

        // A fresh packager restored to the tip signs the same next block.
        let mut recovered = packager();
        recovered.stage(crate::block::tests::plans(1).remove(0)); // stale staging
        recovered.restore_tip(live.prev_hash(), live.next_index());
        assert_eq!(recovered.staged_len(), 0, "stale staging discarded");
        let plans = crate::block::tests::plans(2);
        let expect = live.package(plans.clone(), 3.0);
        let got = recovered.package(plans, 3.0);
        assert_eq!(got.hash(), expect.hash());
        assert!(verify_link(&b1, &got).is_ok());
        assert_eq!(got.prev_hash(), b1.hash());
        let _ = b0;
    }
}
