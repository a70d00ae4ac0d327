//! Algorithm 1: full block verification on the vehicle side.
//!
//! Combines the cryptographic checks from `nwade-chain` (signature,
//! Merkle root, linkage) with the semantic checks: plans inside the
//! block must not conflict with each other, nor with the current plans
//! from previously received blocks (lines 4 and 9 of Algorithm 1).

use nwade_aim::{find_conflicts, TravelPlan};
use nwade_chain::{verify_link, Block, BlockError, ChainCache};
use nwade_crypto::SignatureScheme;
use nwade_intersection::Topology;
use nwade_traffic::VehicleId;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Why an incoming block was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockFailure {
    /// Signature / Merkle-root failure (Algorithm 1, line 2).
    Crypto(BlockError),
    /// The block does not chain onto the cached tip (line 7).
    Chain(BlockError),
    /// Plans within the block collide (line 4).
    InternalConflict(Vec<(VehicleId, VehicleId)>),
    /// Plans collide with current plans from earlier blocks (line 9).
    CrossBlockConflict(Vec<(VehicleId, VehicleId)>),
}

impl fmt::Display for BlockFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockFailure::Crypto(e) => write!(f, "cryptographic check failed: {e}"),
            BlockFailure::Chain(e) => write!(f, "chain linkage failed: {e}"),
            BlockFailure::InternalConflict(pairs) => {
                write!(f, "block contains {} conflicting plan pair(s)", pairs.len())
            }
            BlockFailure::CrossBlockConflict(pairs) => write!(
                f,
                "block conflicts with {} earlier plan pair(s)",
                pairs.len()
            ),
        }
    }
}

impl Error for BlockFailure {}

/// Runs Algorithm 1 on an incoming block against the vehicle's chain
/// cache. On success the caller appends the block to its cache.
///
/// The cache is taken mutably so the signature check can go through its
/// digest-keyed memo ([`ChainCache::verify_block_cached`]): a block
/// re-delivered to the same vehicle costs no second public-key
/// operation. Every *semantic* check — internal conflicts, linkage,
/// cross-block conflicts — still gives its verdict on every call, so the
/// Algorithm 1 verdict is unchanged.
///
/// The internal check reads its verdict from the block's reservation
/// table ([`ChainCache::table_of`]), which every copy of a broadcast
/// block shares: the first guard to check the block books its plans, and
/// the others in range reuse the bookings and the verdict.
///
/// The cross-block check is incremental. While the cache's current plans
/// are known to be pairwise conflict-free ([`ChainCache::conflict_free`]),
/// only pairs involving the new block can conflict, so each current plan
/// the block does not re-plan probes the block's table.
/// Otherwise — after a back-fill that added a current plan, after a block
/// with two plans for one vehicle, and for such a block itself — the
/// check runs from scratch over the merged plan set, and acceptance
/// restores the invariant ([`ChainCache::vouch`]). Either way the verdict
/// is that of the from-scratch check.
///
/// `known_threats` are vehicles this verifier knows to be off-plan —
/// confirmed malicious vehicles and peers that announced self-evacuation.
/// Their cached plans are stale by definition (that is *why* they are
/// threats), so the manager legitimately schedules across those plans'
/// reservations once the vehicles are gone; enforcing them would reject
/// honest post-evacuation blocks. The set must only grow across calls on
/// one cache, as a guard's does: a vehicle dropped from it would bring
/// back a plan the incremental check no longer looks at.
///
/// # Errors
///
/// Returns the first failed check, in the paper's order: signature →
/// internal conflicts → linkage → cross-block conflicts. Conflict pairs
/// name each conflicting plan with one conflicting holder; which holder
/// may differ between the incremental and the from-scratch check.
pub fn verify_incoming_block(
    block: &Block,
    cache: &mut ChainCache,
    verifier: &dyn SignatureScheme,
    topology: &Topology,
    conflict_gap: f64,
    known_threats: &HashSet<VehicleId>,
) -> Result<(), BlockFailure> {
    // (i) Signature and Merkle root, memoised per (digest, signature).
    cache
        .verify_block_cached(block, verifier)
        .map_err(BlockFailure::Crypto)?;

    // (ii) Plans within the block must be mutually conflict-free. The
    // verdict and the bookings come from the block's shared table, which
    // (iv) probes.
    let table = cache.table_of(block, topology, conflict_gap);
    if !table.conflicts().is_empty() {
        return Err(BlockFailure::InternalConflict(table.conflicts().to_vec()));
    }

    // (iii) The block must chain onto the cached tip.
    if let Some(tip) = cache.tip() {
        verify_link(tip, block).map_err(BlockFailure::Chain)?;
    }

    // (iv) Plans must not conflict with current plans from earlier
    // blocks. A vehicle re-planned in the new block supersedes its older
    // plan.
    let replanned: HashSet<VehicleId> = block.plans().iter().map(TravelPlan::id).collect();
    let cross = if cache.conflict_free() && replanned.len() == block.plans().len() {
        let mut cross = Vec::new();
        cache.visit_current(topology, |plan, occupancy| {
            if replanned.contains(&plan.id()) || known_threats.contains(&plan.id()) {
                return;
            }
            if let Some((_, holder)) =
                table
                    .reservations()
                    .first_conflict(occupancy, conflict_gap, None)
            {
                cross.push((holder.min(plan.id()), holder.max(plan.id())));
            }
        });
        cross.sort_unstable();
        cross.dedup();
        cross
    } else {
        merged_conflicts(
            block,
            cache.current_plans(),
            topology,
            conflict_gap,
            known_threats,
        )
    };
    if !cross.is_empty() {
        return Err(BlockFailure::CrossBlockConflict(cross));
    }
    cache.vouch(block);
    Ok(())
}

/// The cross-block check from scratch: merges `current` (minus known
/// threats) with the block's plans by vehicle id, the block winning, and
/// looks for conflicts anywhere in the merged set. The fallback of
/// [`verify_incoming_block`] while the cache is not known to be
/// conflict-free, and the oracle its incremental probe is tested against.
fn merged_conflicts<'a>(
    block: &'a Block,
    current: impl IntoIterator<Item = &'a TravelPlan>,
    topology: &Topology,
    conflict_gap: f64,
    known_threats: &HashSet<VehicleId>,
) -> Vec<(VehicleId, VehicleId)> {
    let mut merged: HashMap<VehicleId, &TravelPlan> = HashMap::new();
    for plan in current {
        if known_threats.contains(&plan.id()) {
            continue; // stale by definition
        }
        merged.insert(plan.id(), plan);
    }
    for plan in block.plans() {
        merged.insert(plan.id(), plan);
    }
    let merged_plans: Vec<TravelPlan> = merged.into_values().cloned().collect();
    find_conflicts(&merged_plans, topology, conflict_gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade_aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig};
    use nwade_chain::{tamper, BlockPackager};
    use nwade_crypto::{Digest, MockScheme};
    use nwade_geometry::MotionProfile;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    struct Fixture {
        topo: Arc<Topology>,
        scheme: Arc<MockScheme>,
        scheduler: ReservationScheduler,
        packager: BlockPackager,
        next_id: u64,
    }

    impl Fixture {
        fn new() -> Self {
            let topo = Arc::new(build(
                IntersectionKind::FourWayCross,
                &GeometryConfig::default(),
            ));
            let scheme = Arc::new(MockScheme::from_seed(11));
            Fixture {
                scheduler: ReservationScheduler::new(topo.clone(), SchedulerConfig::default()),
                packager: BlockPackager::new(scheme.clone()),
                topo,
                scheme,
                next_id: 0,
            }
        }

        fn honest_block(&mut self, n: usize, now: f64) -> Block {
            let plans: Vec<TravelPlan> = (0..n)
                .flat_map(|i| {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.scheduler.schedule(
                        &[PlanRequest {
                            id: VehicleId::new(id),
                            descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
                            movement: MovementId::new(((id as usize * 7) % 16) as u16),
                            position_s: 0.0,
                            speed: 15.0,
                        }],
                        now + i as f64 * 4.0,
                    )
                })
                .collect();
            self.packager.package(plans, now)
        }
    }

    #[test]
    fn honest_blocks_verify_and_chain() {
        let mut fx = Fixture::new();
        let mut cache = ChainCache::new(10);
        for i in 0..3 {
            let block = fx.honest_block(3, i as f64 * 20.0);
            verify_incoming_block(
                &block,
                &mut cache,
                fx.scheme.as_ref(),
                &fx.topo,
                0.5,
                &Default::default(),
            )
            .expect("honest block accepted");
            cache.append(block).expect("chains");
        }
    }

    #[test]
    fn forged_signature_rejected() {
        let mut fx = Fixture::new();
        let mut cache = ChainCache::new(10);
        let block = tamper::forge_signature(&fx.honest_block(2, 0.0));
        let err = verify_incoming_block(
            &block,
            &mut cache,
            fx.scheme.as_ref(),
            &fx.topo,
            0.5,
            &Default::default(),
        )
        .expect_err("forgery detected");
        assert!(matches!(
            err,
            BlockFailure::Crypto(BlockError::BadSignature)
        ));
    }

    #[test]
    fn conflicting_plans_rejected_even_with_valid_signature() {
        let mut fx = Fixture::new();
        let mut cache = ChainCache::new(10);
        let honest = fx.honest_block(8, 0.0);
        let corrupted_plans = nwade_aim::corrupt::make_conflicting(honest.plans(), &fx.topo, 0.0)
            .expect("crossing traffic");
        // The compromised manager re-signs properly: crypto passes, the
        // conflict check must catch it.
        let evil = tamper::resign_with_plans(&honest, corrupted_plans, fx.scheme.as_ref());
        let err = verify_incoming_block(
            &evil,
            &mut cache,
            fx.scheme.as_ref(),
            &fx.topo,
            0.5,
            &Default::default(),
        )
        .expect_err("conflict detected");
        assert!(matches!(err, BlockFailure::InternalConflict(_)));
    }

    #[test]
    fn broken_chain_rejected() {
        let mut fx = Fixture::new();
        let mut cache = ChainCache::new(10);
        let b0 = fx.honest_block(2, 0.0);
        let b1 = fx.honest_block(2, 20.0);
        cache.append(b0).expect("first");
        let rehung = tamper::relink(&b1, nwade_crypto::Digest::ZERO);
        // Re-sign so only the linkage is wrong.
        let rehung =
            tamper::resign_with_plans(&rehung, rehung.plans().to_vec(), fx.scheme.as_ref());
        let err = verify_incoming_block(
            &rehung,
            &mut cache,
            fx.scheme.as_ref(),
            &fx.topo,
            0.5,
            &Default::default(),
        )
        .expect_err("link break detected");
        assert!(matches!(err, BlockFailure::Chain(BlockError::BrokenLink)));
    }

    #[test]
    fn cross_block_conflict_rejected() {
        let mut fx = Fixture::new();
        let mut cache = ChainCache::new(10);
        let b0 = fx.honest_block(4, 0.0);
        cache.append(b0.clone()).expect("first");
        // Second block: a fresh vehicle whose plan collides with a plan
        // from the first block (the manager equivocating across windows).
        let victim = &b0.plans()[0];
        let movement = fx.topo.movement(victim.movement());
        let same_profile = victim.profile().clone();
        let intruder = TravelPlan::new(
            VehicleId::new(999),
            VehicleDescriptor::random(&mut StdRng::seed_from_u64(999)),
            *victim.status(),
            victim.movement(),
            same_profile,
        );
        let _ = movement;
        let evil = tamper::resign_with_plans(
            &fx.honest_block(1, 20.0),
            vec![intruder],
            fx.scheme.as_ref(),
        );
        let err = verify_incoming_block(
            &evil,
            &mut cache,
            fx.scheme.as_ref(),
            &fx.topo,
            0.5,
            &Default::default(),
        )
        .expect_err("cross-block conflict detected");
        assert!(matches!(err, BlockFailure::CrossBlockConflict(_)));
    }

    #[test]
    fn replanned_vehicle_supersedes_its_old_plan() {
        let mut fx = Fixture::new();
        let mut cache = ChainCache::new(10);
        let b0 = fx.honest_block(3, 0.0);
        cache.append(b0.clone()).expect("first");
        // Re-plan vehicle 0 onto a profile that would conflict with its
        // OWN old plan (same cells, same-ish times). Because the new plan
        // supersedes the old one, verification must pass.
        let old = b0.plans()[0].clone();
        let shifted = nwade_geometry::MotionProfile::new(
            old.profile().start_time() + 0.3,
            old.profile().start_position(),
            old.profile().start_speed(),
            old.profile().segments().to_vec(),
        );
        let replanned = TravelPlan::new(
            old.id(),
            old.descriptor().clone(),
            *old.status(),
            old.movement(),
            shifted,
        );
        let block1 = fx.honest_block(1, 20.0);
        let mut plans = block1.plans().to_vec();
        plans.push(replanned);
        let resigned = tamper::resign_with_plans(&block1, plans, fx.scheme.as_ref());
        verify_incoming_block(
            &resigned,
            &mut cache,
            fx.scheme.as_ref(),
            &fx.topo,
            0.5,
            &Default::default(),
        )
        .expect("replanning accepted");
    }

    /// Guards in range share one table per block; once the last of them
    /// has moved on it is freed, and a late guard rebuilds it to the same
    /// verdict.
    #[test]
    fn late_guard_rebuilds_a_freed_table_to_the_same_verdict() {
        let mut fx = Fixture::new();
        let honest = fx.honest_block(8, 0.0);
        let corrupted_plans = nwade_aim::corrupt::make_conflicting(honest.plans(), &fx.topo, 0.0)
            .expect("crossing traffic");
        let evil = tamper::resign_with_plans(&honest, corrupted_plans, fx.scheme.as_ref());
        let newer = fx.honest_block(2, 20.0);
        let check = |block: &Block, cache: &mut ChainCache| {
            verify_incoming_block(
                block,
                cache,
                fx.scheme.as_ref(),
                &fx.topo,
                0.5,
                &Default::default(),
            )
        };
        let (mut first, mut second) = (ChainCache::new(4), ChainCache::new(4));
        let verdict = check(&evil, &mut first);
        assert!(matches!(verdict, Err(BlockFailure::InternalConflict(_))));
        assert_eq!(check(&evil.clone(), &mut second), verdict);
        let weak = Arc::downgrade(&evil.table(&fx.topo, 0.5));
        first.clear();
        assert!(weak.upgrade().is_some(), "the second guard holds it");
        let _ = check(&newer, &mut second);
        assert!(weak.upgrade().is_none(), "freed once both moved on");
        assert_eq!(check(&evil, &mut ChainCache::new(4)), verdict);
    }

    #[test]
    fn failure_display_messages() {
        let f = BlockFailure::InternalConflict(vec![(VehicleId::new(1), VehicleId::new(2))]);
        assert!(f.to_string().contains("1 conflicting"));
        let f = BlockFailure::Crypto(BlockError::BadSignature);
        assert!(f.to_string().contains("signature"));
    }

    /// Algorithm 1 entirely from scratch: the current plans by linear
    /// scan (newest block first, first plan per vehicle) and the merged
    /// check over all of them. The oracle of the incremental check.
    fn verify_from_scratch(
        block: &Block,
        cache: &mut ChainCache,
        verifier: &dyn SignatureScheme,
        topology: &Topology,
        conflict_gap: f64,
        known_threats: &HashSet<VehicleId>,
    ) -> Result<(), BlockFailure> {
        cache
            .verify_block_cached(block, verifier)
            .map_err(BlockFailure::Crypto)?;
        let internal = find_conflicts(block.plans(), topology, conflict_gap);
        if !internal.is_empty() {
            return Err(BlockFailure::InternalConflict(internal));
        }
        if let Some(tip) = cache.tip() {
            verify_link(tip, block).map_err(BlockFailure::Chain)?;
        }
        let mut seen = HashSet::new();
        let blocks: Vec<&Block> = cache.iter().collect();
        let current = blocks
            .into_iter()
            .rev()
            .flat_map(Block::plans)
            .filter(|p| seen.insert(p.id()));
        let cross = merged_conflicts(block, current, topology, conflict_gap, known_threats);
        if !cross.is_empty() {
            return Err(BlockFailure::CrossBlockConflict(cross));
        }
        Ok(())
    }

    /// A verdict with the cross-block pairs erased: which holder each
    /// check names depends on its probe order (the oracle's on `HashMap`
    /// order), the verdict does not.
    fn verdict(result: &Result<(), BlockFailure>) -> Result<(), BlockFailure> {
        match result {
            Err(BlockFailure::CrossBlockConflict(_)) => {
                Err(BlockFailure::CrossBlockConflict(Vec::new()))
            }
            other => other.clone(),
        }
    }

    /// One event in a guard's life.
    #[derive(Debug, Clone)]
    enum Step {
        /// An honest block of fresh vehicles.
        Honest(usize),
        /// An honest block re-signed after `corrupt::make_conflicting`.
        Corrupt,
        /// A fresh vehicle on a current plan's profile.
        Intruder(usize),
        /// A current vehicle re-planned 0.3 s later, colliding only with
        /// its own old plan.
        Replan(usize),
        /// Two plans for one vehicle, one of them intruding on a current
        /// plan; `true` puts the intruding one first.
        Twice(usize, bool),
        /// An honest block with a forged signature or a broken link.
        Tampered(bool),
        /// A current vehicle becomes a known threat.
        Threat(usize),
        /// The predecessor of the earliest cached block is back-filled.
        Backfill,
        /// The cache is cleared.
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..16, 0usize..64, any::<bool>()).prop_map(|(kind, pick, flag)| match kind {
            0..=4 => Step::Honest(1 + pick % 3),
            5 => Step::Corrupt,
            6 | 7 => Step::Intruder(pick),
            8 | 9 => Step::Replan(pick),
            10 | 11 => Step::Twice(pick, flag),
            12 => Step::Tampered(flag),
            13 => Step::Threat(pick),
            14 => Step::Backfill,
            _ => Step::Clear,
        })
    }

    /// `plan`'s vehicle, movement and profile under another id.
    fn posing_as(plan: &TravelPlan, id: VehicleId) -> TravelPlan {
        TravelPlan::new(
            id,
            plan.descriptor().clone(),
            *plan.status(),
            plan.movement(),
            plan.profile().clone(),
        )
    }

    impl Fixture {
        /// The next block after `last` (the genesis block without one):
        /// honest plans, then the step's own plans, which copy or re-plan
        /// one of `victims`.
        fn block_after(
            &mut self,
            last: Option<&Block>,
            step: &Step,
            victims: &[TravelPlan],
        ) -> Block {
            let (prev, index) = last.map_or((Digest::ZERO, 0), |b| (b.hash(), b.index() + 1));
            self.packager.restore_tip(prev, index);
            let now = index as f64 * 2.0;
            let pick = |k: usize| victims.get(k % victims.len().max(1));
            match step {
                Step::Honest(n) => self.honest_block(*n, now),
                Step::Corrupt => {
                    let honest = self.honest_block(6, now);
                    match nwade_aim::corrupt::make_conflicting(honest.plans(), &self.topo, now) {
                        Some(plans) => {
                            tamper::resign_with_plans(&honest, plans, self.scheme.as_ref())
                        }
                        None => honest,
                    }
                }
                Step::Intruder(k) | Step::Replan(k) | Step::Twice(k, _) => {
                    let honest = self.honest_block(1, now);
                    let Some(victim) = pick(*k) else {
                        return honest;
                    };
                    let mut plans = honest.plans().to_vec();
                    match step {
                        Step::Intruder(_) => {
                            self.next_id += 1;
                            plans.push(posing_as(victim, VehicleId::new(self.next_id)));
                        }
                        Step::Replan(_) => {
                            let old = victim.profile();
                            let shifted = MotionProfile::new(
                                old.start_time() + 0.3,
                                old.start_position(),
                                old.start_speed(),
                                old.segments().to_vec(),
                            );
                            plans.push(TravelPlan::new(
                                victim.id(),
                                victim.descriptor().clone(),
                                *victim.status(),
                                victim.movement(),
                                shifted,
                            ));
                        }
                        _ => {
                            let clean = plans[0].clone();
                            let intruding = posing_as(victim, clean.id());
                            if matches!(step, Step::Twice(_, true)) {
                                plans.insert(0, intruding);
                            } else {
                                plans.push(intruding);
                            }
                        }
                    }
                    tamper::resign_with_plans(&honest, plans, self.scheme.as_ref())
                }
                Step::Tampered(forge) => {
                    let honest = self.honest_block(1, now);
                    if *forge {
                        tamper::forge_signature(&honest)
                    } else {
                        let rehung = tamper::relink(&honest, Digest::ZERO);
                        let plans = rehung.plans().to_vec();
                        tamper::resign_with_plans(&rehung, plans, self.scheme.as_ref())
                    }
                }
                Step::Threat(_) | Step::Backfill | Step::Clear => {
                    unreachable!("not a delivery")
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The incremental cross-block check — and the from-scratch
        /// fallback it takes while the cache is not known conflict-free —
        /// gives the from-scratch verdict at every step of a guard's
        /// life: honest, corrupted, intruding, self-colliding and
        /// repeated-vehicle blocks, forgeries and broken links, threats
        /// noted mid-chain, back-fills, evictions and clears. A second
        /// guard, with one more block of capacity, checks a copy of every
        /// block too, alternately before and after the first, so each of
        /// them both builds a block's shared table and reuses it.
        #[test]
        fn incremental_verdicts_equal_from_scratch(
            capacity in 2usize..=4,
            steps in proptest::collection::vec(step(), 1..30),
        ) {
            let mut fx = Fixture::new();
            let topo = fx.topo.clone();
            let scheme = fx.scheme.clone();
            let mut cache = ChainCache::new(capacity);
            let mut second = ChainCache::new(capacity + 1);
            let mut threats = HashSet::new();
            let mut accepted: BTreeMap<u64, Block> = BTreeMap::new();
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Threat(k) => {
                        let current = cache.current_plans();
                        if let Some(plan) = current.get(k % current.len().max(1)) {
                            threats.insert(plan.id());
                        }
                        continue;
                    }
                    Step::Backfill => {
                        let before = cache.iter().next().map(Block::index);
                        let prev = before
                            .and_then(|index| index.checked_sub(1))
                            .and_then(|index| accepted.get(&index));
                        if let Some(prev) = prev {
                            if cache.verify_block_cached(prev, scheme.as_ref()).is_ok() {
                                cache.prepend(prev.clone()).expect("accepted history links");
                            }
                        }
                        continue;
                    }
                    Step::Clear => {
                        cache.clear();
                        second.clear();
                        continue;
                    }
                    _ => {}
                }
                // Victims come from recent history, cached or not: after a
                // clear, a block may then conflict with plans a back-fill
                // brings back.
                let victims: Vec<TravelPlan> = accepted
                    .values()
                    .rev()
                    .take(3)
                    .flat_map(|b| b.plans().to_vec())
                    .collect();
                let last = accepted.values().next_back().cloned();
                let block = fx.block_after(last.as_ref(), step, &victims);
                let second_expected = verify_from_scratch(
                    &block,
                    &mut second.clone(),
                    scheme.as_ref(),
                    &topo,
                    0.5,
                    &threats,
                );
                let copy = block.clone();
                let second_check = |second: &mut ChainCache| {
                    verify_incoming_block(&copy, second, scheme.as_ref(), &topo, 0.5, &threats)
                };
                let second_got = if i % 2 == 0 { Some(second_check(&mut second)) } else { None };
                let mut oracle = cache.clone();
                let expected =
                    verify_from_scratch(&block, &mut oracle, scheme.as_ref(), &topo, 0.5, &threats);
                let incremental = cache.conflict_free();
                let got =
                    verify_incoming_block(&block, &mut cache, scheme.as_ref(), &topo, 0.5, &threats);
                prop_assert_eq!(
                    verdict(&got),
                    verdict(&expected),
                    "step {} {:?}, incremental path {}",
                    i,
                    step,
                    incremental
                );
                let second_got = second_got.unwrap_or_else(|| second_check(&mut second));
                prop_assert_eq!(
                    verdict(&second_got),
                    verdict(&second_expected),
                    "step {} {:?}, second guard",
                    i,
                    step
                );
                if second_got.is_ok() {
                    second.append(copy).expect("verified link");
                }
                if got.is_ok() {
                    cache.append(block.clone()).expect("verified link");
                    accepted.insert(block.index(), block);
                }
            }
        }
    }
}
