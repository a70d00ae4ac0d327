//! Merkle hash trees over travel plans.
//!
//! Each block of the travel-plan blockchain carries the root `R_i` of a
//! hash tree whose leaves are the travel plans generated in one processing
//! window (Eq. 1 / Fig. 3 of the paper). The tree lets a vehicle hand a
//! single plan plus an inclusion proof to a peer without shipping the
//! whole batch.
//!
//! Leaf and interior hashes are domain-separated (`0x00` / `0x01`
//! prefixes) so an interior node can never be confused with a leaf.

use crate::sha256::{Digest, Sha256};

/// Hashes a leaf payload with the leaf domain tag.
pub fn leaf_hash(data: &[u8]) -> Digest {
    Sha256::new().chain(&[0x00]).chain(data).finalize()
}

/// Hashes two child digests with the interior domain tag.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    Sha256::new()
        .chain(&[0x01])
        .chain(left.as_bytes())
        .chain(right.as_bytes())
        .finalize()
}

/// A Merkle tree retaining all levels for proof extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf row; the last level has exactly one node.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling hashes from leaf to root with the side each
/// sibling sits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// `(sibling, sibling_is_left)` pairs from the leaf level upward.
    pub siblings: Vec<(Digest, bool)>,
}

impl MerkleTree {
    /// Builds a tree over pre-hashed leaves.
    ///
    /// # Panics
    ///
    /// Panics when `leaves` is empty: a block always contains at least one
    /// travel plan.
    pub fn from_leaf_hashes(leaves: Vec<Digest>) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                // Odd node is paired with itself.
                let right = pair.get(1).unwrap_or(left);
                next.push(node_hash(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Builds a tree over raw leaf payloads (hashing each with
    /// [`leaf_hash`]).
    pub fn from_leaves<T: AsRef<[u8]>>(payloads: &[T]) -> Self {
        MerkleTree::from_leaf_hashes(payloads.iter().map(|p| leaf_hash(p.as_ref())).collect())
    }

    /// The tree root.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The leaf hashes.
    pub fn leaves(&self) -> &[Digest] {
        &self.levels[0]
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut siblings = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = i ^ 1;
            // Odd tail nodes are their own sibling.
            let sibling = level.get(sibling_idx).copied().unwrap_or(level[i]);
            let sibling_is_left = sibling_idx < i;
            siblings.push((sibling, sibling_is_left));
            i /= 2;
        }
        MerkleProof {
            leaf_index: index,
            siblings,
        }
    }
}

impl MerkleProof {
    /// Verifies that `leaf` hashes up to `root` through this proof.
    pub fn verify(&self, leaf: &Digest, root: &Digest) -> bool {
        let mut acc = *leaf;
        for (sibling, sibling_is_left) in &self.siblings {
            acc = if *sibling_is_left {
                node_hash(sibling, &acc)
            } else {
                node_hash(&acc, sibling)
            };
        }
        acc == *root
    }

    /// Verifies a raw payload rather than a precomputed leaf hash.
    pub fn verify_payload(&self, payload: &[u8], root: &Digest) -> bool {
        self.verify(&leaf_hash(payload), root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("plan-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let t = MerkleTree::from_leaves(&payloads(1));
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.root(), leaf_hash(b"plan-0"));
        let proof = t.prove(0);
        assert!(proof.siblings.is_empty());
        assert!(proof.verify_payload(b"plan-0", &t.root()));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100] {
            let ps = payloads(n);
            let t = MerkleTree::from_leaves(&ps);
            for (i, p) in ps.iter().enumerate() {
                let proof = t.prove(i);
                assert!(
                    proof.verify_payload(p, &t.root()),
                    "proof failed for leaf {i}/{n}"
                );
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_payload() {
        let ps = payloads(8);
        let t = MerkleTree::from_leaves(&ps);
        let proof = t.prove(3);
        assert!(!proof.verify_payload(b"plan-4", &t.root()));
        assert!(!proof.verify_payload(b"forged", &t.root()));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let t1 = MerkleTree::from_leaves(&payloads(8));
        let t2 = MerkleTree::from_leaves(&payloads(9));
        let proof = t1.prove(0);
        assert!(!proof.verify_payload(b"plan-0", &t2.root()));
    }

    #[test]
    fn proof_for_wrong_position_fails() {
        let ps = payloads(8);
        let t = MerkleTree::from_leaves(&ps);
        let proof = t.prove(2);
        // Leaf 3's payload with leaf 2's proof must not verify.
        assert!(!proof.verify_payload(b"plan-3", &t.root()));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = MerkleTree::from_leaves(&payloads(10));
        for i in 0..10 {
            let mut ps = payloads(10);
            ps[i] = b"mutated".to_vec();
            let mutated = MerkleTree::from_leaves(&ps);
            assert_ne!(base.root(), mutated.root(), "leaf {i} mutation undetected");
        }
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf whose payload equals the concatenation of two digests must
        // not collide with their interior node.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_ne!(leaf_hash(&concat), node_hash(&a, &b));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        let _ = MerkleTree::from_leaves::<Vec<u8>>(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prove_out_of_range_panics() {
        let t = MerkleTree::from_leaves(&payloads(3));
        let _ = t.prove(3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every leaf of every tree proves against the root; mutated
        /// payloads never do.
        #[test]
        fn proofs_sound_and_complete(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..40),
            mutate_byte in any::<u8>(),
        ) {
            let t = MerkleTree::from_leaves(&payloads);
            for (i, p) in payloads.iter().enumerate() {
                let proof = t.prove(i);
                prop_assert!(proof.verify_payload(p, &t.root()));
                let mut bad = p.clone();
                bad.push(mutate_byte);
                prop_assert!(!proof.verify_payload(&bad, &t.root()));
            }
        }
    }
}
