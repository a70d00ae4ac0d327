//! The bounded per-vehicle chain cache.
//!
//! "The maximum length of the chain that a vehicle needs to cache and
//! verify equals τ/δ — the time a vehicle needs to cross the intersection
//! divided by the processing-window length" (§IV-B1). A vehicle keeps
//! only that many recent blocks and deletes everything once it has passed
//! the intersection.

use crate::block::{Block, BlockTable};
use crate::verify::{verify_block, verify_link, BlockError};
use nwade_aim::{Occupancy, TravelPlan};
use nwade_crypto::{Digest, SignatureScheme};
use nwade_intersection::Topology;
use nwade_traffic::VehicleId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Upper bound on remembered signature verdicts; cleared wholesale when
/// reached. Re-broadcasts cluster around recent blocks, so a periodic
/// cold restart costs a handful of re-verifications at most.
const VERIFIED_SIGNATURES_BOUND: usize = 256;

/// A bounded, linkage-checked window of recent blocks.
///
/// Cached block indices are contiguous. Each vehicle's *current* plan —
/// its first plan in the newest cached block that carries one — is
/// indexed by vehicle, and a flag records whether the current plans are
/// known to be pairwise conflict-free ([`ChainCache::conflict_free`]),
/// which lets Algorithm 1 check a new block against them incrementally.
/// The cache also holds the reservation table of the block it checked
/// last ([`ChainCache::table_of`]), which keeps that table shared with
/// every other cache checking a copy of the block.
#[derive(Debug, Clone, Default)]
pub struct ChainCache {
    blocks: VecDeque<Block>,
    capacity: usize,
    /// Signing digests whose signatures this cache has already accepted,
    /// keyed by digest with the accepted signature bytes as value.
    verified: HashMap<Digest, Vec<u8>>,
    /// Each vehicle's current plan: (block index, position in its plans).
    current: HashMap<VehicleId, (u64, usize)>,
    /// See [`ChainCache::conflict_free`].
    conflict_free: bool,
    /// The block last passed to [`ChainCache::vouch`], until the next
    /// append consumes it or a back-fill voids it.
    vouched: Option<Block>,
    /// See [`ChainCache::table_of`].
    checked: Option<Arc<BlockTable>>,
}

impl ChainCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ChainCache {
            blocks: VecDeque::with_capacity(capacity),
            capacity,
            verified: HashMap::new(),
            current: HashMap::new(),
            conflict_free: true,
            vouched: None,
            checked: None,
        }
    }

    /// Cryptographically verifies `block` (the first half of Algorithm 1)
    /// with a digest-keyed memo of previously accepted signatures: when a
    /// block is re-delivered — rebroadcasts, retries, history back-fill —
    /// the public-key operation is skipped. The Merkle-root and
    /// non-emptiness checks still run on every call, because the signing
    /// digest covers only the root, not the carried plans: a replayed
    /// header with swapped plans must still be rejected. Verdicts are
    /// identical to [`verify_block`] in all cases.
    ///
    /// # Errors
    ///
    /// Returns the first failed check, exactly as [`verify_block`] would.
    pub fn verify_block_cached(
        &mut self,
        block: &Block,
        verifier: &dyn SignatureScheme,
    ) -> Result<(), BlockError> {
        let digest = block.own_signing_digest();
        if self
            .verified
            .get(&digest)
            .is_some_and(|sig| sig == block.signature())
        {
            if block.plans().is_empty() {
                return Err(BlockError::Empty);
            }
            if block.computed_root() != block.merkle_root() {
                return Err(BlockError::BadMerkleRoot);
            }
            return Ok(());
        }
        verify_block(block, verifier)?;
        if self.verified.len() >= VERIFIED_SIGNATURES_BOUND {
            self.verified.clear();
        }
        self.verified.insert(digest, block.signature().to_vec());
        Ok(())
    }

    /// The capacity τ/δ.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The most recent block.
    pub fn tip(&self) -> Option<&Block> {
        self.blocks.back()
    }

    /// Iterates cached blocks oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Appends a block after checking its linkage against the current tip
    /// (Algorithm 1, lines 6–8). The first accepted block needs no
    /// predecessor: a vehicle that just arrived starts its window
    /// mid-chain. Evicts the oldest block beyond capacity.
    ///
    /// The current plans stay conflict-free only when `block` is the one
    /// last [vouched](ChainCache::vouch) for and carries at most one plan
    /// per vehicle (of two, only the first becomes current, and the
    /// cross-block check saw the last).
    ///
    /// # Errors
    ///
    /// Returns the linkage error; the cache is unchanged on error.
    pub fn append(&mut self, block: Block) -> Result<(), BlockError> {
        if let Some(tip) = self.blocks.back() {
            verify_link(tip, &block)?;
        }
        let vouched = self.vouched.take().is_some_and(|v| v.shares_body(&block));
        let mut repeats_a_vehicle = false;
        for (position, plan) in block.plans().iter().enumerate() {
            match self.current.entry(plan.id()) {
                Entry::Occupied(entry) if entry.get().0 == block.index() => {
                    repeats_a_vehicle = true;
                }
                Entry::Occupied(mut entry) => {
                    entry.insert((block.index(), position));
                }
                Entry::Vacant(entry) => {
                    entry.insert((block.index(), position));
                }
            }
        }
        self.conflict_free = vouched && !repeats_a_vehicle;
        self.blocks.push_back(block);
        if self.blocks.len() > self.capacity {
            let evicted = self.blocks.pop_front().expect("over capacity");
            for (position, plan) in evicted.plans().iter().enumerate() {
                if self.current.get(&plan.id()) == Some(&(evicted.index(), position)) {
                    self.current.remove(&plan.id());
                }
            }
        }
        Ok(())
    }

    /// Prepends a predecessor block (history back-fill): it must be the
    /// immediate predecessor of the current earliest block, hash-linked
    /// to it. No-op when the cache is at capacity (old history is not
    /// worth evicting fresh blocks for). A back-filled plan for a vehicle
    /// with no newer one becomes current without any conflict check, so
    /// it clears [`ChainCache::conflict_free`].
    ///
    /// # Errors
    ///
    /// Returns the linkage error; the cache is unchanged on error.
    pub fn prepend(&mut self, block: Block) -> Result<(), BlockError> {
        if let Some(earliest) = self.blocks.front() {
            verify_link(&block, earliest)?;
            if self.blocks.len() >= self.capacity {
                return Ok(());
            }
        }
        for (position, plan) in block.plans().iter().enumerate() {
            if let Entry::Vacant(entry) = self.current.entry(plan.id()) {
                entry.insert((block.index(), position));
                self.conflict_free = false;
                self.vouched = None;
            }
        }
        self.blocks.push_front(block);
        Ok(())
    }

    /// The block with the given index, if cached.
    pub fn block_at(&self, index: u64) -> Option<&Block> {
        let offset = index.checked_sub(self.blocks.front()?.index())?;
        let block = self.blocks.get(usize::try_from(offset).ok()?)?;
        debug_assert_eq!(block.index(), index, "cached indices are contiguous");
        Some(block)
    }

    /// The most recent plan for `vehicle` across cached blocks (a vehicle
    /// may be re-planned; later blocks win).
    pub fn plan_for(&self, vehicle: VehicleId) -> Option<&TravelPlan> {
        let &(index, position) = self.current.get(&vehicle)?;
        self.block_at(index).map(|block| &block.plans()[position])
    }

    /// All plans visible in the cache, most recent block first, first
    /// plan per vehicle only (i.e. each vehicle's current plan).
    pub fn current_plans(&self) -> Vec<&TravelPlan> {
        self.blocks
            .iter()
            .rev()
            .flat_map(|block| self.current_in(block).map(|(_, plan)| plan))
            .collect()
    }

    /// Calls `visit` with each vehicle's current plan and its zone
    /// occupancy on `topology`, memoised per block
    /// ([`Block::occupancies`]), most recent block first.
    pub fn visit_current(
        &self,
        topology: &Topology,
        mut visit: impl FnMut(&TravelPlan, &Occupancy),
    ) {
        for block in self.blocks.iter().rev() {
            let occupancies = block.occupancies(topology);
            for (position, plan) in self.current_in(block) {
                visit(plan, &occupancies[position]);
            }
        }
    }

    /// The current plans `block` carries, with their positions.
    fn current_in<'a>(
        &'a self,
        block: &'a Block,
    ) -> impl Iterator<Item = (usize, &'a TravelPlan)> + 'a {
        block
            .plans()
            .iter()
            .enumerate()
            .filter(move |(position, plan)| {
                self.current.get(&plan.id()) == Some(&(block.index(), *position))
            })
    }

    /// `true` while the current plans, minus any vehicle the verifier
    /// treats as a known threat, are known to be pairwise conflict-free,
    /// so a new block needs checking only against them (Algorithm 1,
    /// line 9), not them against each other.
    ///
    /// An empty cache is conflict-free. Appending a block passed to
    /// [`ChainCache::vouch`] keeps or restores the flag (see
    /// [`ChainCache::append`]); evictions keep it, because they only
    /// remove current plans, and so does a verifier whose threat set only
    /// grows. Appending any other block clears it, and so does a
    /// back-fill that adds a current plan.
    pub fn conflict_free(&self) -> bool {
        self.conflict_free
    }

    /// Records that `block`'s plans conflict neither with each other nor
    /// with this cache's current plans outside the verifier's known
    /// threats (Algorithm 1, lines 4 and 9) — the checks under which
    /// appending `block` next keeps the current plans conflict-free.
    pub fn vouch(&mut self, block: &Block) {
        self.vouched = Some(block.clone());
    }

    /// `block`'s reservation table on `topology` under `gap`
    /// ([`Block::table`]), held by this cache until it asks for another
    /// block's table or is cleared. A table thus lives while some cache
    /// still has its block as the newest one checked, and every other
    /// cache checking a copy of the block in that time reuses it.
    pub fn table_of(&mut self, block: &Block, topology: &Topology, gap: f64) -> Arc<BlockTable> {
        let table = block.table(topology, gap);
        self.checked = Some(Arc::clone(&table));
        table
    }

    /// Clears the cache (vehicle has left the intersection), including
    /// remembered signature verdicts and the held block table.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.verified.clear();
        self.current.clear();
        self.conflict_free = true;
        self.vouched = None;
        self.checked = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::BlockPackager;
    use crate::tamper;
    use nwade_crypto::MockScheme;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn blocks(n: usize) -> Vec<Block> {
        let mut p = BlockPackager::new(Arc::new(MockScheme::from_seed(5)));
        (0..n)
            .map(|i| p.package(crate::block::tests::plans(3), i as f64))
            .collect()
    }

    /// Wraps the mock scheme counting `verify` invocations, so tests can
    /// assert how many public-key operations the cache actually spent.
    struct CountingScheme {
        inner: MockScheme,
        verifies: AtomicU64,
    }

    impl CountingScheme {
        fn new(seed: u64) -> Self {
            CountingScheme {
                inner: MockScheme::from_seed(seed),
                verifies: AtomicU64::new(0),
            }
        }

        fn verify_count(&self) -> u64 {
            self.verifies.load(Ordering::SeqCst)
        }
    }

    impl SignatureScheme for CountingScheme {
        fn sign(&self, digest: &Digest) -> Vec<u8> {
            self.inner.sign(digest)
        }

        fn verify(&self, digest: &Digest, signature: &[u8]) -> bool {
            self.verifies.fetch_add(1, Ordering::SeqCst);
            self.inner.verify(digest, signature)
        }

        fn name(&self) -> &'static str {
            "counting-mock"
        }
    }

    #[test]
    fn append_and_evict() {
        let bs = blocks(5);
        let mut cache = ChainCache::new(3);
        for b in bs {
            cache.append(b).expect("chained block accepted");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.tip().expect("non-empty").index(), 4);
        assert!(cache.block_at(0).is_none(), "oldest evicted");
        assert!(cache.block_at(2).is_some());
    }

    #[test]
    fn broken_link_rejected_and_cache_unchanged() {
        let bs = blocks(3);
        let mut cache = ChainCache::new(10);
        cache.append(bs[0].clone()).expect("first block");
        let err = cache.append(bs[2].clone()).expect_err("skipped block");
        assert_eq!(err, BlockError::BadIndex);
        assert_eq!(cache.len(), 1);
        cache.append(bs[1].clone()).expect("correct successor");
        cache.append(bs[2].clone()).expect("now chains");
    }

    #[test]
    fn mid_chain_start_is_allowed() {
        let bs = blocks(4);
        let mut cache = ChainCache::new(10);
        // A vehicle arriving late starts at block 2.
        cache.append(bs[2].clone()).expect("mid-chain start");
        cache.append(bs[3].clone()).expect("continues");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn plan_lookup_prefers_recent_blocks() {
        let bs = blocks(3);
        let mut cache = ChainCache::new(10);
        for b in &bs {
            cache.append(b.clone()).expect("chained");
        }
        // Vehicle 0 appears in multiple blocks (test plan generator reuses
        // ids per block); the lookup must return the latest.
        let vid = bs[2].plans()[0].id();
        let found = cache.plan_for(vid).expect("plan present");
        assert_eq!(
            found.encode(),
            bs[2].plan_for(vid).expect("in tip").encode()
        );
    }

    #[test]
    fn current_plans_dedupes_vehicles() {
        let bs = blocks(3);
        let mut cache = ChainCache::new(10);
        for b in &bs {
            cache.append(b.clone()).expect("chained");
        }
        let plans = cache.current_plans();
        let ids: std::collections::HashSet<_> = plans.iter().map(|p| p.id()).collect();
        assert_eq!(ids.len(), plans.len(), "one plan per vehicle");
    }

    #[test]
    fn clear_empties() {
        let bs = blocks(2);
        let mut cache = ChainCache::new(10);
        for b in bs {
            cache.append(b).expect("chained");
        }
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.tip().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ChainCache::new(0);
    }

    #[test]
    fn prepend_backfills_history() {
        let bs = blocks(4);
        let mut cache = ChainCache::new(10);
        cache.append(bs[2].clone()).expect("mid-chain start");
        cache.append(bs[3].clone()).expect("tip");
        cache.prepend(bs[1].clone()).expect("immediate predecessor");
        cache.prepend(bs[0].clone()).expect("further back");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.iter().next().expect("earliest").index(), 0);
        // Non-adjacent prepend is rejected.
        let mut cache2 = ChainCache::new(10);
        cache2.append(bs[3].clone()).expect("start");
        assert!(cache2.prepend(bs[0].clone()).is_err());
    }

    #[test]
    fn cached_verification_skips_repeat_signature_checks() {
        let scheme = Arc::new(CountingScheme::new(6));
        let mut p = BlockPackager::new(scheme.clone());
        let b = p.package(crate::block::tests::plans(3), 0.0);
        let mut cache = ChainCache::new(4);
        for _ in 0..5 {
            cache
                .verify_block_cached(&b, scheme.as_ref())
                .expect("honest block verifies");
        }
        assert_eq!(
            scheme.verify_count(),
            1,
            "one signature check per distinct block"
        );
    }

    #[test]
    fn cached_path_still_rejects_swapped_plans() {
        let scheme = Arc::new(CountingScheme::new(7));
        let mut p = BlockPackager::new(scheme.clone());
        let b0 = p.package(crate::block::tests::plans(2), 0.0);
        let b1 = p.package(crate::block::tests::plans(3), 1.0);
        let mut cache = ChainCache::new(4);
        cache
            .verify_block_cached(&b0, scheme.as_ref())
            .expect("honest block verifies");
        // Replay b0's verified header with b1's plans: the signature memo
        // hits, but the Merkle-root recheck must still fire.
        let tampered = tamper::swap_plans(&b0, &b1);
        assert_eq!(
            cache.verify_block_cached(&tampered, scheme.as_ref()),
            Err(BlockError::BadMerkleRoot)
        );
        assert_eq!(scheme.verify_count(), 1, "no second signature check");
    }

    #[test]
    fn forged_signature_never_enters_the_memo() {
        let scheme = Arc::new(CountingScheme::new(8));
        let mut p = BlockPackager::new(scheme.clone());
        let b = p.package(crate::block::tests::plans(2), 0.0);
        let forged = tamper::forge_signature(&b);
        let mut cache = ChainCache::new(4);
        for _ in 0..2 {
            assert_eq!(
                cache.verify_block_cached(&forged, scheme.as_ref()),
                Err(BlockError::BadSignature)
            );
        }
        assert_eq!(scheme.verify_count(), 2, "rejections are not memoised");
        // The honest block still verifies afterwards.
        cache
            .verify_block_cached(&b, scheme.as_ref())
            .expect("honest block verifies");
    }

    #[test]
    fn clear_forgets_verified_signatures() {
        let scheme = Arc::new(CountingScheme::new(9));
        let mut p = BlockPackager::new(scheme.clone());
        let b = p.package(crate::block::tests::plans(2), 0.0);
        let mut cache = ChainCache::new(4);
        cache
            .verify_block_cached(&b, scheme.as_ref())
            .expect("verifies");
        cache.clear();
        cache
            .verify_block_cached(&b, scheme.as_ref())
            .expect("verifies again");
        assert_eq!(scheme.verify_count(), 2, "clear drops the memo");
    }

    #[test]
    fn prepend_respects_capacity() {
        let bs = blocks(4);
        let mut cache = ChainCache::new(2);
        cache.append(bs[2].clone()).expect("start");
        cache.append(bs[3].clone()).expect("tip");
        // At capacity: prepend is a linkage-checked no-op.
        cache.prepend(bs[1].clone()).expect("link ok");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.iter().next().expect("earliest").index(), 2);
    }

    /// A linked chain whose block `i` carries one plan per entry of
    /// `ids[i]`, in order (an id may repeat within a block).
    fn chain_of(ids: &[Vec<u64>]) -> Vec<Block> {
        let template = crate::block::tests::plans(1).remove(0);
        let mut p = BlockPackager::new(Arc::new(MockScheme::from_seed(5)));
        ids.iter()
            .enumerate()
            .map(|(i, block_ids)| {
                let plans = block_ids
                    .iter()
                    .map(|&id| {
                        TravelPlan::new(
                            VehicleId::new(id),
                            template.descriptor().clone(),
                            *template.status(),
                            template.movement(),
                            template.profile().clone(),
                        )
                    })
                    .collect();
                p.package(plans, i as f64)
            })
            .collect()
    }

    /// The current plans by linear scan: newest block first, first plan
    /// per vehicle (as [`Block::plan_for`] picks within a block).
    fn linear_current(cache: &ChainCache) -> Vec<&TravelPlan> {
        let mut seen = HashSet::new();
        let blocks: Vec<&Block> = cache.iter().collect();
        blocks
            .into_iter()
            .rev()
            .flat_map(Block::plans)
            .filter(|p| seen.insert(p.id()))
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Append,
        Prepend,
        Restart(usize),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0usize..16).prop_map(|(kind, at)| match kind {
            0..=3 => Op::Append,
            4 | 5 => Op::Prepend,
            6 => Op::Restart(at),
            _ => Op::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The id-indexed lookups equal the linear newest-block-first
        /// scan under any interleaving of appends (with evictions at
        /// capacity), back-fills, clears and mid-chain restarts.
        #[test]
        fn indexed_lookups_equal_the_linear_scan(
            ids in proptest::collection::vec(proptest::collection::vec(0u64..6, 1..5), 4..12),
            capacity in 2usize..=4,
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let chain = chain_of(&ids);
            let mut cache = ChainCache::new(capacity);
            // The cached window, as chain positions [lo, hi).
            let mut window: Option<(usize, usize)> = None;
            for op in ops {
                match (op, window) {
                    (Op::Append, Some((lo, hi))) if hi < chain.len() => {
                        cache.append(chain[hi].clone()).expect("successor links");
                        window = Some((lo + usize::from(hi + 1 - lo > capacity), hi + 1));
                    }
                    (Op::Prepend, Some((lo, hi))) if lo > 0 => {
                        cache.prepend(chain[lo - 1].clone()).expect("predecessor links");
                        if hi - lo < capacity {
                            window = Some((lo - 1, hi));
                        }
                    }
                    (Op::Restart(at), _) => {
                        let at = at % chain.len();
                        cache.clear();
                        cache.append(chain[at].clone()).expect("empty cache");
                        window = Some((at, at + 1));
                    }
                    (Op::Clear, _) => {
                        cache.clear();
                        window = None;
                    }
                    _ => {}
                }
                let cached: Vec<u64> = cache.iter().map(Block::index).collect();
                let (lo, hi) = window.unwrap_or((0, 0));
                prop_assert_eq!(cached, (lo as u64..hi as u64).collect::<Vec<_>>());
                let linear = linear_current(&cache);
                let indexed = cache.current_plans();
                prop_assert_eq!(indexed.len(), linear.len());
                for (a, b) in indexed.iter().zip(&linear) {
                    prop_assert!(std::ptr::eq(*a, *b), "current plans differ");
                }
                for id in 0..6 {
                    let vehicle = VehicleId::new(id);
                    let scan = cache.iter().collect::<Vec<_>>().into_iter().rev().find_map(|b| b.plan_for(vehicle));
                    let found = cache.plan_for(vehicle);
                    prop_assert_eq!(found.is_some(), scan.is_some());
                    if let (Some(a), Some(b)) = (found, scan) {
                        prop_assert!(std::ptr::eq(a, b), "plan_for differs for {}", id);
                    }
                }
            }
        }
    }

    #[test]
    fn conflict_free_flag_follows_vouching_backfill_and_repeats() {
        let bs = chain_of(&[vec![0, 1], vec![0, 1], vec![2], vec![3, 3], vec![4]]);
        let mut cache = ChainCache::new(5);
        assert!(cache.conflict_free(), "an empty cache");
        cache.append(bs[1].clone()).expect("start");
        assert!(!cache.conflict_free(), "an unvouched block");
        cache.clear();
        assert!(cache.conflict_free(), "cleared");

        cache.vouch(&bs[1]);
        cache.append(bs[1].clone()).expect("start");
        assert!(cache.conflict_free(), "the vouched block");
        cache.prepend(bs[0].clone()).expect("links");
        assert!(
            cache.conflict_free(),
            "a back-fill of superseded plans only"
        );
        cache.vouch(&bs[2]);
        cache.append(bs[2].clone()).expect("links");
        assert!(cache.conflict_free());
        cache.vouch(&bs[3]);
        cache.append(bs[3].clone()).expect("links");
        assert!(!cache.conflict_free(), "two plans for vehicle 3");
        cache.vouch(&bs[4]);
        cache.append(bs[4].clone()).expect("links");
        assert!(cache.conflict_free(), "restored by the next vouched block");

        cache.clear();
        cache.vouch(&bs[2]);
        cache.append(bs[2].clone()).expect("start");
        cache.prepend(bs[1].clone()).expect("links");
        assert!(!cache.conflict_free(), "back-filled plans for 0 and 1");
        cache.clear();
        cache.vouch(&bs[1]);
        cache.append(bs[2].clone()).expect("start");
        assert!(!cache.conflict_free(), "vouching is for one block only");
    }
}
