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
//! unchanged. The IM-lifecycle pins (crashes, standby promotions, a
//! zombie primary, an outage restart) also fold the final recovery
//! counters, which `state_hash` does not cover. The three scenarios of
//! the retired tick-engine and entry-search differentials are pinned
//! under those suites' own names, in `integration_perf_engines` and
//! `integration_scheduler_diff`.
//!
//! The constants are x86_64-linux values: the simulator calls libm
//! `sin`/`cos`/`atan2`/`ln`, whose last-bit results may differ on other
//! platforms. A constant changes only in a change that alters behaviour
//! on purpose and says why.

mod common;

use common::{assert_pinned, attack, config, sim_digest, ticks, StreamDigest};
use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
use nwade_repro::nwade::CrashPoint;
use nwade_repro::sim::{
    CityConfig, CityGrid, CrashPlan, ImOutage, SchedulerChoice, SignatureChoice, SimConfig,
    Simulation,
};

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

// ----- IM lifecycle: crashes, promotions, zombies, outages --------------

/// Digest of an IM-lifecycle run: the per-tick `state_hash` stream, then
/// the final recovery counters `state_hash` does not cover, all from one
/// `run_with` pass.
fn lifecycle_digest(config: SimConfig) -> u64 {
    config.validate().expect("scenario config valid");
    let mut digest = StreamDigest::new();
    let report = Simulation::new(config).run_with(|sim| digest.push(sim.state_hash()));
    let m = &report.metrics;
    for count in [
        m.im_crashes,
        m.warm_recoveries,
        m.cold_recoveries,
        m.standby_promotions,
        m.imu_outage_drops,
        m.im_timeout_evacuations,
    ] {
        digest.push(count as u64);
    }
    for count in [
        m.standby_windows_applied,
        m.standby_max_lag_records,
        m.wal_truncated_bytes,
        m.fencing_rejections,
    ] {
        digest.push(count);
    }
    for latency in [m.standby_promotion_latency, m.im_recovery_latency] {
        digest.push(latency.map_or(u64::MAX, f64::to_bits));
    }
    digest.0
}

/// About 100 simulated seconds of dense traffic. The sudden-stop attack
/// starts after the crash at 50 s: the recovered manager logs its
/// evacuation block, and on the cold path the attack's reporters time out
/// in the dark.
fn lifecycle_base() -> SimConfig {
    let mut c = config(100.0, 80.0, 41);
    c.attack = attack(AttackSetting::V1, ViolationKind::SuddenStop, 60.0);
    c
}

fn crash_at(point: CrashPoint) -> SimConfig {
    let mut c = lifecycle_base();
    c.im_crash = Some(CrashPlan {
        at: 50.0,
        point,
        cold_downtime: 15.0,
    });
    c
}

fn process_loss_with_standby() -> SimConfig {
    let mut c = crash_at(CrashPoint::ProcessLoss);
    c.standby.enabled = true;
    c.standby.heartbeat_interval = 0.02;
    c.standby.miss_bound = 3;
    c
}

/// `AfterStage` and `AfterCommit` re-create the same block on warm
/// recovery, so their digests agree.
#[test]
fn crash_after_stage_is_pinned() {
    assert_pinned(
        "crash-after-stage",
        lifecycle_digest(crash_at(CrashPoint::AfterStage)),
        0xa3d9_9099_1b1a_236c,
    );
}

#[test]
fn crash_before_commit_is_pinned() {
    assert_pinned(
        "crash-before-commit",
        lifecycle_digest(crash_at(CrashPoint::BeforeCommit)),
        0x3e95_2e24_0847_567a,
    );
}

#[test]
fn crash_after_commit_is_pinned() {
    assert_pinned(
        "crash-after-commit",
        lifecycle_digest(crash_at(CrashPoint::AfterCommit)),
        0xa3d9_9099_1b1a_236c,
    );
}

/// With the store off the crash takes the cold path, the same path as
/// a process loss with no standby: their digests agree.
#[test]
fn cold_crash_is_pinned() {
    let mut c = crash_at(CrashPoint::BeforeCommit);
    c.store.enabled = false;
    assert_pinned("crash-cold", lifecycle_digest(c), 0x4fe8_34e5_c087_d466);
}

#[test]
fn process_loss_without_standby_is_pinned() {
    assert_pinned(
        "process-loss",
        lifecycle_digest(crash_at(CrashPoint::ProcessLoss)),
        0x4fe8_34e5_c087_d466,
    );
}

#[test]
fn standby_promotion_is_pinned() {
    assert_pinned(
        "standby-promotion",
        lifecycle_digest(process_loss_with_standby()),
        0x594f_7504_32a9_7322,
    );
}

/// The crashed primary wakes after the promotion and broadcasts one
/// stale-epoch block.
#[test]
fn zombie_primary_is_pinned() {
    let mut c = process_loss_with_standby();
    c.standby.zombie_delay = Some(0.5);
    assert_pinned("zombie", lifecycle_digest(c), 0xbc3b_be64_e6f5_2db1);
}

/// The standby promotion with blocks signed by a real 512-bit RSA key,
/// the only pin that signs with RSA. Key generation draws from the RNG
/// the run shares with demand generation, so every later draw, and every
/// signature in the chain tips, depends on the RSA code.
#[test]
fn rsa_signed_promotion_is_pinned() {
    let mut c = process_loss_with_standby();
    c.signature = SignatureChoice::Rsa { bits: 512 };
    c.store.enabled = true;
    assert_pinned("rsa-promotion", lifecycle_digest(c), 0x7854_1132_145c_508f);
}

/// The attack starts before the crash. Confirming the violator changes
/// the manager's durable state without a WAL record, so the standby's
/// replay disagrees with the next snapshot, the promotion is refused and
/// the crash resolves on the cold path.
#[test]
fn diverged_standby_is_pinned() {
    let mut c = process_loss_with_standby();
    c.attack = attack(AttackSetting::V1, ViolationKind::SuddenStop, 40.0);
    assert_pinned(
        "diverged-standby",
        lifecycle_digest(c),
        0xd0c7_03ae_5f15_5f22,
    );
}

/// A scheduled outage whose end restarts the manager warm from the
/// store.
#[test]
fn outage_warm_restart_is_pinned() {
    let mut c = lifecycle_base();
    c.im_outage = Some(ImOutage {
        start: 50.0,
        duration: 6.0,
    });
    assert_pinned(
        "outage-warm-restart",
        lifecycle_digest(c),
        0x22d0_b3df_2229_de7b,
    );
}
