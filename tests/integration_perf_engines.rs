//! The tick-engine differential, pinned across commits.
//!
//! These scenarios once ran under four tick engines: serial or threaded
//! per-vehicle phases, over the grid index or all-pairs scans. Every
//! engine had to produce the same report. The choice is gone, and every
//! run now takes serial phases over the grid index. At the last commit
//! that had the choice, all four engines produced the per-tick
//! `state_hash` streams whose digests are pinned below, so the one
//! engine left must reproduce them tick for tick. The grid scans stay
//! checked against their all-pairs oracles by proptests inside
//! `nwade-sim`.
//!
//! The constants are x86_64-linux values; `integration_behaviour_pins`
//! says why and when one may change.

mod common;

use common::{assert_pinned, attack_v2, chaos_outage, plain_traffic, sim_digest};

#[test]
fn plain_traffic_identical_across_engines() {
    assert_pinned("plain", sim_digest(plain_traffic()), 0x3d42_5da1_7abd_d619);
}

#[test]
fn attack_scenario_identical_across_engines() {
    assert_pinned("attack-v2", sim_digest(attack_v2()), 0x714a_b948_f8a1_5207);
}

#[test]
fn chaos_outage_scenario_identical_across_engines() {
    assert_pinned("chaos", sim_digest(chaos_outage()), 0xb99f_b299_3206_42f1);
}
