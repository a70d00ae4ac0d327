//! Cross-crate integration: real RSA keys driving the travel-plan
//! blockchain end to end — keygen → schedule → package → verify →
//! tamper → reject.

use nwade_repro::aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig};
use nwade_repro::chain::{tamper, Block, BlockPackager, ChainCache};
use nwade_repro::crypto::{CachingVerifier, RsaKeyPair, RsaScheme, SignatureScheme};
use nwade_repro::intersection::{build, GeometryConfig, IntersectionKind, MovementId};
use nwade_repro::nwade::verify::block::{verify_incoming_block, BlockFailure};
use nwade_repro::nwade::{NwadeConfig, VehicleGuard};
use nwade_repro::traffic::{VehicleDescriptor, VehicleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn scheduled(
    scheduler: &mut ReservationScheduler,
    n: u64,
    offset: u64,
    t0: f64,
) -> Vec<nwade_repro::aim::TravelPlan> {
    (0..n)
        .flat_map(|i| {
            scheduler.schedule(
                &[PlanRequest {
                    id: VehicleId::new(offset + i),
                    descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(offset + i)),
                    movement: MovementId::new((((offset + i) * 7) % 16) as u16),
                    position_s: 0.0,
                    speed: 15.0,
                }],
                t0 + i as f64 * 4.0,
            )
        })
        .collect()
}

#[test]
fn rsa_backed_chain_end_to_end() {
    // 512-bit keys keep the debug-build test fast; the Fig. 6 harness
    // measures the full 2048-bit regime.
    let key = Arc::new(RsaScheme::new(RsaKeyPair::generate(
        512,
        &mut StdRng::seed_from_u64(99),
    )));
    let topo = Arc::new(build(
        IntersectionKind::FourWayCross,
        &GeometryConfig::default(),
    ));
    let mut packager = BlockPackager::new(key.clone());
    let mut cache = ChainCache::new(10);
    let mut scheduler = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());

    for round in 0..3u64 {
        let plans = scheduled(&mut scheduler, 3, round * 100, round as f64 * 15.0);
        let block = packager.package(plans, round as f64 * 15.0);
        verify_incoming_block(
            &block,
            &mut cache,
            key.as_ref(),
            &topo,
            0.5,
            &Default::default(),
        )
        .expect("honest RSA-signed block verifies");
        cache.append(block).expect("chains onto the tip");
    }
    assert_eq!(cache.len(), 3);

    // A forged signature is caught by the RSA verification.
    let plans = scheduled(&mut scheduler, 2, 900, 60.0);
    let block = packager.package(plans, 60.0);
    let forged = tamper::forge_signature(&block);
    let err = verify_incoming_block(
        &forged,
        &mut cache,
        key.as_ref(),
        &topo,
        0.5,
        &Default::default(),
    )
    .expect_err("forged signature rejected");
    assert!(matches!(err, BlockFailure::Crypto(_)));

    // An equivocated block (real key, conflicting plans) passes crypto but
    // fails the semantic check.
    let conflicting = nwade_repro::aim::corrupt::make_conflicting(
        &scheduled(&mut scheduler, 8, 500, 200.0),
        &topo,
        200.0,
    )
    .expect("crossing traffic available");
    let evil = tamper::resign_with_plans(&block, conflicting, key.as_ref());
    let err = verify_incoming_block(
        &evil,
        &mut cache,
        key.as_ref(),
        &topo,
        0.5,
        &Default::default(),
    )
    .expect_err("conflicting plans rejected");
    assert!(matches!(err, BlockFailure::InternalConflict(_)));
}

/// `block` re-assembled with `signature` in place of its own.
fn with_signature(block: &Block, signature: &[u8]) -> Block {
    Block::from_parts(
        block.index(),
        signature.to_vec(),
        block.prev_hash(),
        block.timestamp(),
        block.merkle_root(),
        block.plans().to_vec(),
    )
}

#[test]
fn swapped_signatures_in_a_backfill_are_not_accepted() {
    // One verifier shared by every guard, as the simulator shares it.
    let scheme = Arc::new(CachingVerifier::new(RsaScheme::new(RsaKeyPair::generate(
        512,
        &mut StdRng::seed_from_u64(7),
    ))));
    let topo = Arc::new(build(
        IntersectionKind::FourWayCross,
        &GeometryConfig::default(),
    ));
    let mut scheduler = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
    let mut packager = BlockPackager::new(scheme.clone());
    let blocks: Vec<Block> = (0..4u64)
        .map(|i| {
            let plans = scheduled(&mut scheduler, 2, i * 100, i as f64 * 15.0);
            packager.package(plans, i as f64 * 15.0)
        })
        .collect();

    // Two valid blocks with their signatures swapped: each signature is
    // the manager's, but over the other block's digest.
    let swapped_0 = with_signature(&blocks[0], blocks[1].signature());
    let swapped_1 = with_signature(&blocks[1], blocks[0].signature());
    let pairs = [
        (
            swapped_0.own_signing_digest(),
            swapped_0.signature().to_vec(),
        ),
        (
            swapped_1.own_signing_digest(),
            swapped_1.signature().to_vec(),
        ),
    ];
    for (digest, signature) in &pairs {
        assert!(!scheme.inner().verify(digest, signature));
    }

    // Guard A holds blocks 2 and 3 and is served the swapped pair as
    // history.
    let mut guard_a = VehicleGuard::new(
        VehicleId::new(9000),
        topo.clone(),
        scheme.clone(),
        NwadeConfig::default(),
    );
    guard_a.on_block(&blocks[2], 30.0);
    guard_a.on_block(&blocks[3], 45.0);
    assert_eq!(guard_a.cache().tip().map(Block::index), Some(3));
    guard_a.on_block_response(&[swapped_0, swapped_1.clone()], 45.1);
    assert_eq!(
        guard_a.cache().iter().next().map(Block::index),
        Some(2),
        "no swapped block is back-filled"
    );

    // Guard B, sharing the verifier, holds block 0 and then hears the
    // swapped block 1 broadcast.
    let mut guard_b = VehicleGuard::new(
        VehicleId::new(9001),
        topo.clone(),
        scheme.clone(),
        NwadeConfig::default(),
    );
    guard_b.on_block(&blocks[0], 0.0);
    guard_b.on_block(&swapped_1, 15.0);
    assert_eq!(
        guard_b.cache().tip().map(Block::index),
        Some(0),
        "the swapped block is rejected"
    );
    for (digest, signature) in &pairs {
        assert!(
            !scheme.verify(digest, signature),
            "the shared verifier never memoises a swapped pair as valid"
        );
    }

    // The genuine chain still extends guard B.
    guard_b.on_block(&blocks[1], 15.1);
    guard_b.on_block(&blocks[2], 30.0);
    assert_eq!(guard_b.cache().tip().map(Block::index), Some(2));
}
