//! The entry-search differential, pinned across commits.
//!
//! These scenarios once ran with the linear probe loop and with the
//! slot-seeking search, and both had to produce the same report. The
//! linear loop is now a test-only oracle in `nwade_aim::seek`, where a
//! proptest holds `seek` equal to it on random reservation tables. End
//! to end, each test below folds the Merkle root of every published
//! block into one digest. A root commits to every plan in its block,
//! motion profile included, so the digest changes if any request lands
//! in another slot: in a window, in the park fallback or in an
//! evacuation. The pinned values are the ones both searches produced at
//! the last commit that had the switch.
//!
//! The constants are x86_64-linux values; `integration_behaviour_pins`
//! says why and when one may change.

mod common;

use common::{assert_pinned, attack_v2, chaos_outage, plain_traffic, ticks, StreamDigest};
use nwade_repro::sim::{SimConfig, Simulation};

/// Digest of the Merkle roots of every block the manager publishes, in
/// chain order.
fn plan_digest(config: SimConfig) -> u64 {
    config.validate().expect("scenario config valid");
    let ticks = ticks(&config);
    let mut sim = Simulation::new(config);
    let mut digest = StreamDigest::new();
    let mut next = 0;
    for _ in 0..ticks {
        sim.tick_once();
        for block in sim.blocks_from(next) {
            assert_eq!(block.index(), next, "blocks are read in chain order");
            digest.push_bytes(&block.merkle_root().0);
            next += 1;
        }
    }
    assert!(next > 0, "the run published blocks");
    digest.0
}

#[test]
fn plain_traffic_identical_across_searches() {
    assert_pinned("plain", plan_digest(plain_traffic()), 0xee6b_8960_5281_4004);
}

#[test]
fn attack_scenario_identical_across_searches() {
    assert_pinned("attack-v2", plan_digest(attack_v2()), 0x1bed_71fd_a5b2_1f1d);
}

#[test]
fn chaos_outage_scenario_identical_across_searches() {
    assert_pinned("chaos", plan_digest(chaos_outage()), 0xe321_6ee0_06d8_a2a0);
}
