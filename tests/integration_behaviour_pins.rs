//! Cross-commit behaviour pins.
//!
//! Each test runs one fixed scenario tick by tick, folds the per-tick
//! `state_hash` stream into a single FNV-1a digest, and asserts that it
//! equals a constant recorded from an earlier run of the same code. The
//! state hash covers vehicle kinematics, the chain tip, in-flight
//! messages and the metric counters, so an equal digest means every tick
//! of the run was bit-identical. Where a differential test compares two
//! execution strategies inside one build, these pins compare one build
//! against the last: a refactor that keeps behaviour leaves every digest
//! unchanged. The three scenarios of the retired tick-engine and
//! entry-search differentials are pinned under those suites' own names,
//! in `integration_perf_engines` and `integration_scheduler_diff`.
//!
//! The constants are x86_64-linux values: the simulator calls libm
//! `sin`/`cos`/`atan2`/`ln`, whose last-bit results may differ on other
//! platforms. A constant changes only in a change that alters behaviour
//! on purpose and says why.

mod common;

use common::{assert_pinned, attack, config, sim_digest, ticks, StreamDigest};
use nwade_repro::aim::AdmissionPolicy;
use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
use nwade_repro::sim::{CityConfig, CityGrid, ImOutage, SchedulerChoice, SimConfig, Simulation};

/// Digest of a `shards`-shard ring city run for `base.duration`.
fn city_digest(shards: usize, base: SimConfig) -> u64 {
    let ticks = ticks(&base);
    let mut city = CityGrid::new(CityConfig::ring(shards, base));
    let mut digest = StreamDigest::new();
    for _ in 0..ticks {
        city.tick();
        digest.push(city.state_hash());
    }
    city.check_conservation().expect("vehicles conserved");
    digest.0
}

#[test]
fn dense_plain_traffic_is_pinned() {
    assert_pinned(
        "dense-plain",
        sim_digest(config(120.0, 80.0, 2024)),
        0x1fc0_b435_f4c0_aad2,
    );
}

#[test]
fn dense_attack_v2_is_pinned() {
    let mut c = config(150.0, 80.0, 77);
    c.attack = attack(AttackSetting::V2, ViolationKind::LaneDeviation, 60.0);
    assert_pinned("dense-attack-v2", sim_digest(c), 0xea16_2570_afc0_ebad);
}

/// A malicious manager rewrites blocks after sealing.
#[test]
fn corrupted_im_is_pinned() {
    let mut c = config(150.0, 80.0, 13);
    c.attack = attack(AttackSetting::Im, ViolationKind::SuddenStop, 60.0);
    assert_pinned("attack-im", sim_digest(c), 0xab7e_d2e9_3824_4339);
}

/// A short outage moves the chain tip underneath the window path.
#[test]
fn short_outage_is_pinned() {
    let mut c = config(150.0, 80.0, 41);
    c.attack = attack(AttackSetting::V1, ViolationKind::SuddenStop, 60.0);
    c.im_outage = Some(ImOutage {
        start: 45.0,
        duration: 6.0,
    });
    assert_pinned("chaos-outage", sim_digest(c), 0x85b9_0d60_fa9c_9950);
}

/// A binding admission cap: deferred requests age across windows.
#[test]
fn bounded_admission_is_pinned() {
    let mut c = config(120.0, 120.0, 9);
    c.admission = AdmissionPolicy::bounded(8);
    assert_pinned("bounded-admission", sim_digest(c), 0x48b2_2659_20c6_d7fc);
}

#[test]
fn fcfs_scheduler_is_pinned() {
    let mut c = config(90.0, 70.0, 2024);
    c.scheduler = SchedulerChoice::Fcfs;
    assert_pinned("fcfs", sim_digest(c), 0x599b_f88c_bb2a_d0b2);
}

#[test]
fn one_shard_city_is_pinned() {
    assert_pinned(
        "city-1",
        city_digest(1, config(60.0, 60.0, 7)),
        0x0e15_51c5_7371_4c68,
    );
}

#[test]
fn four_shard_city_is_pinned() {
    assert_pinned(
        "city-4",
        city_digest(4, config(60.0, 60.0, 7)),
        0xe3ec_03cb_8609_4f52,
    );
}

/// A 1000-vehicle prespawned fleet, re-offered to the manager every
/// window: the only pin where every window schedules a full fleet.
#[test]
fn saturated_fleet_is_pinned() {
    let mut c = config(20.0, 0.001, 1);
    c.geometry.approach_len = 2100.0;
    let mut sim = Simulation::new(c);
    assert_eq!(sim.prespawn_fleet(1000), 1000, "fleet fits the approaches");
    let mut digest = StreamDigest::new();
    let mut offered_mark = usize::MAX;
    for _ in 0..20 {
        let offered = sim.metrics_so_far().admission_offered;
        if offered != offered_mark {
            sim.enqueue_plan_requests(usize::MAX);
            offered_mark = offered;
        }
        sim.tick_once();
        digest.push(sim.state_hash());
    }
    assert_pinned("saturated", digest.0, 0x86d2_84c5_0927_1653);
}
