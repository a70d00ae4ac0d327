//! Differential crash-recovery tests: a run that crashes the manager at
//! any injection point and recovers warm from the durable store must be
//! observationally identical to a run that never crashed — same blocks,
//! same schedule, same chain tip, zero evacuations.

use nwade_repro::nwade::CrashPoint;
use nwade_repro::sim::{CrashPlan, SimConfig, Simulation};

fn base_config() -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = 120.0;
    config.seed = 77;
    config
}

struct Observed {
    blocks_broadcast: usize,
    plans_scheduled: usize,
    block_sizes: Vec<usize>,
    exited: usize,
    accidents: usize,
    chain_next_index: u64,
    chain_tip: nwade_repro::crypto::Digest,
    warm_recoveries: usize,
    cold_recoveries: usize,
    im_crashes: usize,
    imu_outage_drops: usize,
    im_timeout_evacuations: usize,
    readmitted_after_outage: usize,
    invariants_clean: bool,
}

fn observe(config: SimConfig) -> Observed {
    let mut chain_next_index = 0;
    let mut chain_tip = nwade_repro::crypto::Digest([0u8; 32]);
    let report = Simulation::new(config).run_with(|sim| {
        chain_next_index = sim.chain_next_index();
        chain_tip = sim.chain_tip();
    });
    Observed {
        blocks_broadcast: report.metrics.blocks_broadcast,
        plans_scheduled: report.metrics.plans_scheduled,
        block_sizes: report.metrics.block_sizes.clone(),
        exited: report.metrics.exited,
        accidents: report.metrics.accidents,
        chain_next_index,
        chain_tip,
        warm_recoveries: report.metrics.warm_recoveries,
        cold_recoveries: report.metrics.cold_recoveries,
        im_crashes: report.metrics.im_crashes,
        imu_outage_drops: report.metrics.imu_outage_drops,
        im_timeout_evacuations: report.metrics.im_timeout_evacuations,
        readmitted_after_outage: report.metrics.readmitted_after_outage,
        invariants_clean: report.metrics.invariants.is_clean(),
    }
}

/// Crash at every injection point; each recovered run must match the
/// crash-free baseline block for block.
#[test]
fn recovery_is_observationally_identical_at_every_crash_point() {
    let baseline = observe(base_config());
    assert!(baseline.invariants_clean, "baseline invariants clean");
    assert!(baseline.blocks_broadcast > 0, "baseline broadcast blocks");

    for point in [
        CrashPoint::AfterStage,
        CrashPoint::BeforeCommit,
        CrashPoint::AfterCommit,
    ] {
        let mut config = base_config();
        config.im_crash = Some(CrashPlan {
            at: 55.0,
            point,
            cold_downtime: 20.0,
        });
        let crashed = observe(config);

        assert_eq!(
            crashed.warm_recoveries, 1,
            "{point}: crash recovered warm from the store"
        );
        assert_eq!(
            crashed.blocks_broadcast, baseline.blocks_broadcast,
            "{point}: same number of blocks broadcast"
        );
        assert_eq!(
            crashed.block_sizes, baseline.block_sizes,
            "{point}: block-by-block identical plan counts"
        );
        assert_eq!(
            crashed.plans_scheduled, baseline.plans_scheduled,
            "{point}: same schedule"
        );
        assert_eq!(
            crashed.chain_next_index, baseline.chain_next_index,
            "{point}: chain height matches the crash-free run"
        );
        assert_eq!(
            crashed.chain_tip, baseline.chain_tip,
            "{point}: chain tip hash matches the crash-free run"
        );
        assert_eq!(
            crashed.exited, baseline.exited,
            "{point}: same vehicles made it through"
        );
        assert_eq!(crashed.accidents, 0, "{point}: no collisions");
        assert_eq!(
            crashed.im_timeout_evacuations, 0,
            "{point}: no vehicle noticed the crash"
        );
        assert_eq!(
            crashed.readmitted_after_outage, 0,
            "{point}: warm recovery never evacuates, so never readmits"
        );
        assert!(
            crashed.invariants_clean,
            "{point}: safety invariants held through crash and recovery"
        );
    }
}

/// Outright process death with a hot standby: after the handover window
/// the promoted replica must continue the baseline's block stream
/// semantically — same plan counts block for block, same schedule, same
/// chain height, same traffic — while every post-promotion hash differs
/// (the fencing epoch rides in each block's anchor section).
#[test]
fn process_loss_with_standby_matches_the_baseline_stream() {
    let baseline = observe(base_config());

    let mut config = base_config();
    config.standby.enabled = true;
    config.standby.heartbeat_interval = 0.02;
    config.standby.miss_bound = 3;
    config.im_crash = Some(CrashPlan {
        at: 55.0,
        point: CrashPoint::ProcessLoss,
        cold_downtime: 20.0,
    });
    let crashed = observe(config);

    assert_eq!(crashed.im_crashes, 1, "the crash fired");
    assert_eq!(crashed.warm_recoveries, 0, "promotion is not a restart");
    assert_eq!(crashed.cold_recoveries, 0, "no cold fallback");
    assert_eq!(
        crashed.blocks_broadcast, baseline.blocks_broadcast,
        "same number of blocks broadcast"
    );
    assert_eq!(
        crashed.block_sizes, baseline.block_sizes,
        "block-by-block identical plan counts"
    );
    assert_eq!(
        crashed.plans_scheduled, baseline.plans_scheduled,
        "same schedule"
    );
    assert_eq!(
        crashed.chain_next_index, baseline.chain_next_index,
        "same chain height"
    );
    assert_ne!(
        crashed.chain_tip, baseline.chain_tip,
        "post-promotion blocks are re-sealed under the fencing epoch"
    );
    assert_eq!(
        crashed.exited, baseline.exited,
        "same vehicles made it through"
    );
    assert_eq!(crashed.accidents, 0, "no collisions");
    assert_eq!(
        crashed.im_timeout_evacuations, 0,
        "no vehicle noticed the dead process"
    );
    assert!(crashed.invariants_clean, "safety invariants held");
}

/// The same crash with the store disabled must take the visible path:
/// darkness while reporters wait, timeout self-evacuations, cold
/// restart. This is the cost the WAL exists to avoid. The attack is
/// what puts reporters into the waiting state the silence then times
/// out.
#[test]
fn cold_crash_is_visible_to_the_fleet() {
    use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
    use nwade_repro::sim::AttackPlan;

    let mut config = base_config();
    config.duration = 150.0;
    config.seed = 41;
    config.store.enabled = false;
    config.attack = Some(AttackPlan {
        setting: AttackSetting::V1,
        violation: ViolationKind::SuddenStop,
        start: 50.0,
    });
    // Crash on the same window the attack starts, so the incident
    // reports fall into the dark window — the same shape as the
    // scheduled-outage chaos test.
    config.im_crash = Some(CrashPlan {
        at: 50.0,
        point: CrashPoint::BeforeCommit,
        cold_downtime: 20.0,
    });
    let crashed = observe(config);

    eprintln!(
        "cold: warm={} timeout_evac={} readmitted={} blocks={} exited={} crashes={} cold_rec={} drops={}",
        crashed.warm_recoveries,
        crashed.im_timeout_evacuations,
        crashed.readmitted_after_outage,
        crashed.blocks_broadcast,
        crashed.exited,
        crashed.im_crashes,
        crashed.cold_recoveries,
        crashed.imu_outage_drops,
    );
    assert_eq!(crashed.warm_recoveries, 0, "no store, no warm recovery");
    assert!(
        crashed.im_timeout_evacuations > 0,
        "the fleet noticed the dark manager and self-evacuated"
    );
    assert!(crashed.invariants_clean, "cold path still violates nothing");
}
