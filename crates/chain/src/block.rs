//! The block structure `B_i = ⟨s_i, h_{i−1}, τ_i, R_i⟩`.

use bytes::{Buf, BufMut, BytesMut};
use nwade_aim::{occupancy_of, reserve_checked, Occupancy, ReservationTable, TravelPlan};
use nwade_crypto::merkle::leaf_hash;
use nwade_crypto::{sha256, Digest, MerkleTree};
use nwade_intersection::Topology;
use nwade_traffic::VehicleId;
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// A neighbour intersection's chain tip, embedded into a block for
/// cross-shard anchoring: once block `B_i` of shard A carries shard B's
/// tip, rewriting B's history up to that tip also requires forging A's
/// chain (and transitively the whole city's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardAnchor {
    /// The neighbour shard's identifier.
    pub shard: u32,
    /// That shard's chain-tip hash at observation time.
    pub tip: Digest,
}

/// One block of the travel-plan blockchain.
///
/// The block carries the plans themselves alongside the Merkle root so
/// that receivers can recompute `R_i` and serve individual plans (with
/// inclusion proofs) to neighbours. Multi-intersection deployments add
/// an `anchors` section — neighbour chain tips covered by the signature
/// and the block hash; single-intersection blocks carry none.
///
/// The signature and plans sit in a shared body, so the copies a
/// broadcast makes (one per receiver, one per cache) cost a reference
/// count, and the body memoises the plans' zone occupancies
/// ([`Block::occupancies`]) and reservation table ([`Block::table`])
/// for every copy at once.
#[derive(Clone, PartialEq)]
pub struct Block {
    index: u64,
    prev_hash: Digest,
    timestamp: f64,
    merkle_root: Digest,
    anchors: Vec<ShardAnchor>,
    body: Arc<Body>,
}

/// The shared part of a [`Block`].
struct Body {
    signature: Vec<u8>,
    plans: Vec<TravelPlan>,
    /// Each plan's zone occupancy, with the [`Topology::instance`] it was
    /// computed on. Derived data: left out of equality and encoding.
    occupancies: OnceLock<(u64, Vec<Occupancy>)>,
    /// The last [`BlockTable`] built on the memoised topology, while
    /// some holder keeps it alive. Derived data, like `occupancies`.
    table: Mutex<Weak<BlockTable>>,
}

/// A block's plans booked into one reservation table, on one topology
/// under one conflict gap, with the pairs of them that conflict
/// (Algorithm 1, line 4): [`reserve_checked`] over
/// [`Block::occupancies`]. Shared by every copy of the block through
/// [`Block::table`].
pub struct BlockTable {
    instance: u64,
    gap_bits: u64,
    reservations: ReservationTable,
    conflicts: Vec<(VehicleId, VehicleId)>,
}

impl BlockTable {
    /// Every plan of the block, booked in plan order.
    pub fn reservations(&self) -> &ReservationTable {
        &self.reservations
    }

    /// The block's conflicting plan pairs, ordered and deduped exactly as
    /// [`nwade_aim::find_conflicts`] returns them; empty when the plans
    /// are mutually conflict-free.
    pub fn conflicts(&self) -> &[(VehicleId, VehicleId)] {
        &self.conflicts
    }
}

impl fmt::Debug for BlockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockTable")
            .field("bookings", &self.reservations.len())
            .field("conflicts", &self.conflicts.len())
            .finish_non_exhaustive()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.signature == other.signature && self.plans == other.plans
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("index", &self.index)
            .field("signature", &self.body.signature)
            .field("prev_hash", &self.prev_hash)
            .field("timestamp", &self.timestamp)
            .field("merkle_root", &self.merkle_root)
            .field("plans", &self.body.plans)
            .field("anchors", &self.anchors)
            .finish()
    }
}

impl Block {
    /// Assembles an anchor-free block from parts (used by the packager
    /// and by tamper helpers; verification treats every field as
    /// untrusted).
    pub fn from_parts(
        index: u64,
        signature: Vec<u8>,
        prev_hash: Digest,
        timestamp: f64,
        merkle_root: Digest,
        plans: Vec<TravelPlan>,
    ) -> Self {
        Block::from_parts_anchored(
            index,
            signature,
            prev_hash,
            timestamp,
            merkle_root,
            plans,
            Vec::new(),
        )
    }

    /// Assembles a block carrying cross-shard anchors.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_anchored(
        index: u64,
        signature: Vec<u8>,
        prev_hash: Digest,
        timestamp: f64,
        merkle_root: Digest,
        plans: Vec<TravelPlan>,
        anchors: Vec<ShardAnchor>,
    ) -> Self {
        Block {
            index,
            prev_hash,
            timestamp,
            merkle_root,
            anchors,
            body: Arc::new(Body {
                signature,
                plans,
                occupancies: OnceLock::new(),
                table: Mutex::new(Weak::new()),
            }),
        }
    }

    /// Position of the block in the chain (0 = genesis window).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The manager's signature `s_i`.
    pub fn signature(&self) -> &[u8] {
        &self.body.signature
    }

    /// Hash of the previous block `h_{i−1}` ([`Digest::ZERO`] for the
    /// first block).
    pub fn prev_hash(&self) -> Digest {
        self.prev_hash
    }

    /// Block timestamp `τ_i` in simulation seconds.
    pub fn timestamp(&self) -> f64 {
        self.timestamp
    }

    /// Merkle root `R_i` over the plans.
    pub fn merkle_root(&self) -> Digest {
        self.merkle_root
    }

    /// The travel plans packaged in this window.
    pub fn plans(&self) -> &[TravelPlan] {
        &self.body.plans
    }

    /// The plan for `vehicle`, if present in this block.
    pub fn plan_for(&self, vehicle: VehicleId) -> Option<&TravelPlan> {
        self.plans().iter().find(|p| p.id() == vehicle)
    }

    /// The zone occupancy of each carried plan on `topology`, in plan
    /// order — what the conflict checks of Algorithm 1 book and probe.
    ///
    /// The first topology asked about has its occupancies memoised on
    /// the shared body, so every copy of a broadcast block computes them
    /// once; a different topology gets a fresh, unmemoised computation.
    ///
    /// # Panics
    ///
    /// Panics when a plan names a movement `topology` does not have.
    pub fn occupancies(&self, topology: &Topology) -> Cow<'_, [Occupancy]> {
        let compute = || -> Vec<Occupancy> {
            self.plans()
                .iter()
                .map(|p| occupancy_of(topology.movement(p.movement()), p.profile()))
                .collect()
        };
        let (instance, memo) = self
            .body
            .occupancies
            .get_or_init(|| (topology.instance(), compute()));
        if *instance == topology.instance() {
            Cow::Borrowed(memo)
        } else {
            Cow::Owned(compute())
        }
    }

    /// The block's plans booked into a reservation table on `topology`
    /// under `gap`, with their internal conflicts — the line-4 check of
    /// Algorithm 1, whose table line 9 then probes.
    ///
    /// The body keeps a weak reference to the table last built on the
    /// memoised topology of [`Block::occupancies`]. While anyone holds
    /// the returned `Arc` (a [`crate::ChainCache`] holds the table of the
    /// block it checked last), every copy of the block gets that same
    /// table; once the last holder lets go, the table is freed and the
    /// next call builds it again. Another topology, or another gap while
    /// the memoised table lives, gets a fresh table that is not memoised.
    ///
    /// # Panics
    ///
    /// Panics when a plan names a movement `topology` does not have.
    pub fn table(&self, topology: &Topology, gap: f64) -> Arc<BlockTable> {
        let occupancies = self.occupancies(topology);
        let build = || {
            let mut reservations = ReservationTable::new();
            let conflicts = reserve_checked(&mut reservations, self.plans(), &occupancies, gap);
            Arc::new(BlockTable {
                instance: topology.instance(),
                gap_bits: gap.to_bits(),
                reservations,
                conflicts,
            })
        };
        if matches!(occupancies, Cow::Owned(_)) {
            return build();
        }
        // The memo is one `Weak`, replaced whole, so a panic elsewhere
        // while the lock was held cannot have left it half-written.
        let mut memo = self
            .body
            .table
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match memo.upgrade() {
            Some(table)
                if table.instance == topology.instance() && table.gap_bits == gap.to_bits() =>
            {
                table
            }
            Some(_) => build(),
            None => {
                let table = build();
                *memo = Arc::downgrade(&table);
                table
            }
        }
    }

    /// `true` when both blocks share one body (one is a copy of the
    /// other), hence the same signature and plans.
    pub(crate) fn shares_body(&self, other: &Block) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Neighbour chain tips anchored into this block (empty for
    /// single-intersection chains).
    pub fn anchors(&self) -> &[ShardAnchor] {
        &self.anchors
    }

    /// Appends the anchor section in its canonical layout:
    /// `[u16 count][(u32 shard)(32B tip)]…`.
    fn put_anchors(buf: &mut BytesMut, anchors: &[ShardAnchor]) {
        buf.put_u16(anchors.len() as u16);
        for a in anchors {
            buf.put_u32(a.shard);
            buf.put_slice(a.tip.as_bytes());
        }
    }

    /// The digest the manager signs for an anchor-free block:
    /// `SHA-256(index ‖ h_{i−1} ‖ τ_i ‖ R_i ‖ anchors)`.
    pub fn signing_digest(index: u64, prev_hash: &Digest, timestamp: f64, root: &Digest) -> Digest {
        Block::signing_digest_anchored(index, prev_hash, timestamp, root, &[])
    }

    /// The digest the manager signs, covering the anchored neighbour
    /// tips alongside the header fields.
    pub fn signing_digest_anchored(
        index: u64,
        prev_hash: &Digest,
        timestamp: f64,
        root: &Digest,
        anchors: &[ShardAnchor],
    ) -> Digest {
        let mut buf = BytesMut::with_capacity(82 + anchors.len() * 36);
        buf.put_u64(index);
        buf.put_slice(prev_hash.as_bytes());
        buf.put_f64(timestamp);
        buf.put_slice(root.as_bytes());
        Block::put_anchors(&mut buf, anchors);
        sha256(&buf)
    }

    /// This block's signing digest (over its own header fields).
    pub fn own_signing_digest(&self) -> Digest {
        Block::signing_digest_anchored(
            self.index,
            &self.prev_hash,
            self.timestamp,
            &self.merkle_root,
            &self.anchors,
        )
    }

    /// The block hash `hash(B_i)` that the next block's `h_i` must match:
    /// `SHA-256(s_i ‖ index ‖ h_{i−1} ‖ τ_i ‖ R_i ‖ anchors)`.
    pub fn hash(&self) -> Digest {
        let mut buf =
            BytesMut::with_capacity(self.signature().len() + 82 + self.anchors.len() * 36);
        buf.put_slice(self.signature());
        buf.put_u64(self.index);
        buf.put_slice(self.prev_hash.as_bytes());
        buf.put_f64(self.timestamp);
        buf.put_slice(self.merkle_root.as_bytes());
        Block::put_anchors(&mut buf, &self.anchors);
        sha256(&buf)
    }

    /// Recomputes the Merkle root from the carried plans.
    pub fn computed_root(&self) -> Digest {
        Block::root_of(self.plans())
    }

    /// The Merkle root of a plan batch (Fig. 3 leaf ordering).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch — the manager never emits empty blocks.
    pub fn root_of(plans: &[TravelPlan]) -> Digest {
        MerkleTree::from_leaf_hashes(plans.iter().map(|p| leaf_hash(&p.encode())).collect()).root()
    }

    /// Builds the Merkle tree over the carried plans, for proof
    /// extraction.
    pub fn merkle_tree(&self) -> MerkleTree {
        MerkleTree::from_leaf_hashes(
            self.plans()
                .iter()
                .map(|p| leaf_hash(&p.encode()))
                .collect(),
        )
    }

    /// Canonical byte encoding of the whole block (header + carried
    /// plans + anchors), used by the WAL and shareable with future
    /// networking:
    /// `[u64 index][u16 sig len][sig][32B prev][f64 τ][32B root]
    /// [u16 plan count][plan…][u16 anchor count][(u32 shard)(32B tip)…]`
    /// with each plan in its [`TravelPlan::encode`] layout.
    pub fn encode(&self) -> Vec<u8> {
        let (signature, plans) = (self.signature(), self.plans());
        let mut buf = BytesMut::with_capacity(128 + plans.len() * 160);
        buf.put_u64(self.index);
        buf.put_u16(signature.len() as u16);
        buf.put_slice(signature);
        buf.put_slice(self.prev_hash.as_bytes());
        buf.put_f64(self.timestamp);
        buf.put_slice(self.merkle_root.as_bytes());
        buf.put_u16(plans.len() as u16);
        for plan in plans {
            buf.put_slice(&plan.encode());
        }
        Block::put_anchors(&mut buf, &self.anchors);
        buf.to_vec()
    }

    /// Decodes one block from the front of `cursor`, advancing it past
    /// the consumed bytes. Returns `None` on truncated or malformed
    /// input; never panics. The decoded block's fields are carried
    /// verbatim — like [`Block::from_parts`], nothing is trusted until
    /// verification checks the signature, root and chain link.
    pub fn decode_from(cursor: &mut &[u8]) -> Option<Self> {
        let index = cursor.try_get_u64().ok()?;
        let sig_len = cursor.try_get_u16().ok()? as usize;
        if cursor.remaining() < sig_len {
            return None;
        }
        let signature = cursor[..sig_len].to_vec();
        *cursor = &cursor[sig_len..];
        let mut prev = [0u8; 32];
        cursor.try_copy_to_slice(&mut prev).ok()?;
        let timestamp = cursor.try_get_f64().ok()?;
        let mut root = [0u8; 32];
        cursor.try_copy_to_slice(&mut root).ok()?;
        let n_plans = cursor.try_get_u16().ok()? as usize;
        let mut plans = Vec::with_capacity(n_plans.min(256));
        for _ in 0..n_plans {
            plans.push(TravelPlan::decode_from(cursor)?);
        }
        let n_anchors = cursor.try_get_u16().ok()? as usize;
        let mut anchors = Vec::with_capacity(n_anchors.min(256));
        for _ in 0..n_anchors {
            let shard = cursor.try_get_u32().ok()?;
            let mut tip = [0u8; 32];
            cursor.try_copy_to_slice(&mut tip).ok()?;
            anchors.push(ShardAnchor {
                shard,
                tip: Digest(tip),
            });
        }
        Some(Block::from_parts_anchored(
            index,
            signature,
            Digest(prev),
            timestamp,
            Digest(root),
            plans,
            anchors,
        ))
    }

    /// Decodes an encoding produced by [`Block::encode`], rejecting
    /// trailing bytes: `decode(encode(b)) == Some(b)` for any block,
    /// and any strict prefix decodes to `None`.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut cursor = bytes;
        let block = Block::decode_from(&mut cursor)?;
        cursor.is_empty().then_some(block)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nwade_aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig};
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    pub(crate) fn plans(n: u64) -> Vec<TravelPlan> {
        let topo = Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ));
        let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        (0..n)
            .flat_map(|i| {
                s.schedule(
                    &[PlanRequest {
                        id: VehicleId::new(i),
                        descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(i)),
                        movement: MovementId::new((i % 16) as u16),
                        position_s: 0.0,
                        speed: 15.0,
                    }],
                    i as f64 * 4.0,
                )
            })
            .collect()
    }

    fn block() -> Block {
        let ps = plans(4);
        let root = Block::root_of(&ps);
        Block::from_parts(3, vec![1, 2, 3], Digest::ZERO, 12.5, root, ps)
    }

    fn with_signature(b: &Block, signature: Vec<u8>) -> Block {
        Block::from_parts(
            b.index(),
            signature,
            b.prev_hash(),
            b.timestamp(),
            b.merkle_root(),
            b.plans().to_vec(),
        )
    }

    #[test]
    fn accessors() {
        let b = block();
        assert_eq!(b.index(), 3);
        assert_eq!(b.signature(), &[1, 2, 3]);
        assert_eq!(b.prev_hash(), Digest::ZERO);
        assert_eq!(b.timestamp(), 12.5);
        assert_eq!(b.plans().len(), 4);
        assert!(b.plan_for(VehicleId::new(2)).is_some());
        assert!(b.plan_for(VehicleId::new(99)).is_none());
    }

    #[test]
    fn root_matches_computed() {
        let b = block();
        assert_eq!(b.merkle_root(), b.computed_root());
        assert_eq!(b.merkle_tree().root(), b.merkle_root());
    }

    #[test]
    fn hash_depends_on_every_header_field() {
        let b = block();
        let base = b.hash();
        let mut c = b.clone();
        c.index = 4;
        assert_ne!(c.hash(), base);
        let mut c = b.clone();
        c.timestamp = 12.6;
        assert_ne!(c.hash(), base);
        let c = with_signature(&b, vec![9]);
        assert_ne!(c.hash(), base);
        let mut c = b.clone();
        c.prev_hash = sha256(b"x");
        assert_ne!(c.hash(), base);
    }

    #[test]
    fn signing_digest_excludes_signature() {
        let b = block();
        let c = with_signature(&b, vec![9, 9, 9]);
        assert_eq!(b.own_signing_digest(), c.own_signing_digest());
        assert_ne!(b.hash(), c.hash());
    }

    #[test]
    fn root_changes_with_any_plan() {
        let ps = plans(4);
        let base = Block::root_of(&ps);
        let mut fewer = ps.clone();
        fewer.pop();
        assert_ne!(Block::root_of(&fewer), base);
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_root_panics() {
        let _ = Block::root_of(&[]);
    }

    #[test]
    fn block_decode_round_trips_and_rejects_prefixes() {
        let b = block();
        let bytes = b.encode();
        assert_eq!(Block::decode(&bytes), Some(b));
        for cut in 0..bytes.len() {
            assert_eq!(Block::decode(&bytes[..cut]), None, "prefix {cut}");
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(Block::decode(&trailing), None);
    }

    #[test]
    fn decoded_block_preserves_hash_and_root() {
        let b = block();
        let d = Block::decode(&b.encode()).expect("decodes");
        assert_eq!(d.hash(), b.hash());
        assert_eq!(d.computed_root(), b.merkle_root());
        assert_eq!(d.own_signing_digest(), b.own_signing_digest());
    }

    #[test]
    fn occupancy_memo_is_keyed_by_topology() {
        let b = block();
        let fine = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
        let coarse_cell = GeometryConfig {
            zone_cell: GeometryConfig::default().zone_cell * 0.75,
            ..GeometryConfig::default()
        };
        let coarse = build(IntersectionKind::FourWayCross, &coarse_cell);
        let expected = |topo: &Topology| -> Vec<Occupancy> {
            b.plans()
                .iter()
                .map(|p| occupancy_of(topo.movement(p.movement()), p.profile()))
                .collect()
        };
        assert_ne!(expected(&fine), expected(&coarse), "grids differ");

        // The first topology asked about is memoised on the shared body:
        // a copy of the block, and a clone of the topology, hit it.
        let copy = b.clone();
        assert_eq!(*b.occupancies(&fine), expected(&fine)[..]);
        assert!(matches!(copy.occupancies(&fine), Cow::Borrowed(_)));
        assert!(matches!(copy.occupancies(&fine.clone()), Cow::Borrowed(_)));
        // Another topology gets its own occupancies, never the memo's.
        let other = copy.occupancies(&coarse);
        assert!(matches!(other, Cow::Owned(_)));
        assert_eq!(*other, expected(&coarse)[..]);
        assert_eq!(*b.occupancies(&fine), expected(&fine)[..]);

        // The memo is invisible to equality and encoding.
        let cold = Block::decode(&b.encode()).expect("decodes");
        assert_eq!(cold, b);
        assert_eq!(cold.encode(), b.encode());
    }

    #[test]
    fn table_memo_is_shared_by_copies_and_keyed_by_topology_and_gap() {
        let b = block();
        let fine = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
        let coarse_cell = GeometryConfig {
            zone_cell: GeometryConfig::default().zone_cell * 0.75,
            ..GeometryConfig::default()
        };
        let coarse = build(IntersectionKind::FourWayCross, &coarse_cell);

        // Every copy of the block, and a clone of the topology, get the
        // same table while it lives.
        let copy = b.clone();
        let table = b.table(&fine, 0.5);
        assert!(Arc::ptr_eq(&table, &copy.table(&fine, 0.5)));
        assert!(Arc::ptr_eq(&table, &copy.table(&fine.clone(), 0.5)));
        assert_eq!(
            table.conflicts(),
            nwade_aim::find_conflicts(b.plans(), &fine, 0.5)
        );
        let bookings: usize = b.occupancies(&fine).iter().map(Vec::len).sum();
        assert_eq!(table.reservations().len(), bookings);

        // Another gap or another topology gets a table of its own, built
        // afresh on every call.
        let other_gap = copy.table(&fine, 1.0);
        assert!(!Arc::ptr_eq(&other_gap, &table));
        assert!(!Arc::ptr_eq(&other_gap, &copy.table(&fine, 1.0)));
        let other_topology = copy.table(&coarse, 0.5);
        assert!(!Arc::ptr_eq(&other_topology, &copy.table(&coarse, 0.5)));

        // The body holds the table weakly: once the last holder lets go
        // it is freed, and the next call memoises a new one.
        let weak = Arc::downgrade(&table);
        drop(table);
        assert!(weak.upgrade().is_none());
        let rebuilt = copy.table(&fine, 1.0);
        assert!(Arc::ptr_eq(&rebuilt, &b.table(&fine, 1.0)));
        assert_eq!(rebuilt.conflicts(), other_gap.conflicts());
    }

    fn anchors() -> Vec<ShardAnchor> {
        vec![
            ShardAnchor {
                shard: 1,
                tip: sha256(b"east"),
            },
            ShardAnchor {
                shard: 7,
                tip: sha256(b"west"),
            },
        ]
    }

    fn anchored_block() -> Block {
        let ps = plans(3);
        let root = Block::root_of(&ps);
        Block::from_parts_anchored(5, vec![4, 5, 6], Digest::ZERO, 20.0, root, ps, anchors())
    }

    #[test]
    fn anchors_cover_hash_and_signing_digest() {
        let b = anchored_block();
        let bare = Block::from_parts(
            b.index(),
            b.signature().to_vec(),
            b.prev_hash(),
            b.timestamp(),
            b.merkle_root(),
            b.plans().to_vec(),
        );
        assert_eq!(b.anchors().len(), 2);
        assert!(bare.anchors().is_empty());
        assert_ne!(b.hash(), bare.hash());
        assert_ne!(b.own_signing_digest(), bare.own_signing_digest());

        // Tampering with any anchor field changes both digests.
        let mut swapped = anchors();
        swapped[0].shard = 2;
        let tampered = Block::from_parts_anchored(
            b.index(),
            b.signature().to_vec(),
            b.prev_hash(),
            b.timestamp(),
            b.merkle_root(),
            b.plans().to_vec(),
            swapped,
        );
        assert_ne!(tampered.hash(), b.hash());
        assert_ne!(tampered.own_signing_digest(), b.own_signing_digest());
    }

    #[test]
    fn anchored_block_round_trips_and_rejects_prefixes() {
        let b = anchored_block();
        let bytes = b.encode();
        assert_eq!(Block::decode(&bytes), Some(b.clone()));
        for cut in 0..bytes.len() {
            assert_eq!(Block::decode(&bytes[..cut]), None, "prefix {cut}");
        }
        let d = Block::decode(&bytes).expect("decodes");
        assert_eq!(d.anchors(), b.anchors());
        assert_eq!(d.hash(), b.hash());
        assert_eq!(d.own_signing_digest(), b.own_signing_digest());
    }

    #[test]
    fn empty_anchor_digest_matches_plain_helpers() {
        // The 4-arg helpers and the anchored ones with an empty slice
        // are the same function, so unanchored blocks verify either way.
        let b = block();
        assert_eq!(
            Block::signing_digest(b.index(), &b.prev_hash(), b.timestamp(), &b.merkle_root()),
            Block::signing_digest_anchored(
                b.index(),
                &b.prev_hash(),
                b.timestamp(),
                &b.merkle_root(),
                &[]
            )
        );
    }
}
