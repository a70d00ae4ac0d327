//! Hot-standby failover tests: killing the manager process outright
//! must hand over to the WAL-tailing standby within the heartbeat
//! budget — near-zero dark time, no timeout self-evacuations — and a
//! zombie ex-primary that wakes up after the promotion must be fenced
//! off: its late-sealed block rejected and counted, never committed.

use nwade_repro::nwade::CrashPoint;
use nwade_repro::sim::{CrashPlan, SimConfig, Simulation};

fn standby_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = 120.0;
    config.seed = seed;
    config.standby.enabled = true;
    // A tight heartbeat keeps the handover window under one tick, so
    // the fleet never notices the primary died.
    config.standby.heartbeat_interval = 0.02;
    config.standby.miss_bound = 3;
    config.im_crash = Some(CrashPlan {
        at: 55.0,
        point: CrashPoint::ProcessLoss,
        cold_downtime: 20.0,
    });
    config
}

/// Outright process death with a standby: promotion inside the
/// heartbeat budget, no cold darkness, nobody self-evacuates.
#[test]
fn process_loss_promotes_the_standby_with_near_zero_dark_time() {
    let report = Simulation::new(standby_config(77)).run();
    let m = &report.metrics;
    eprintln!(
        "standby: promotions={} latency={:?} recovery={:?} windows={} lag={} timeout_evac={} cold={} warm={}",
        m.standby_promotions,
        m.standby_promotion_latency,
        m.im_recovery_latency,
        m.standby_windows_applied,
        m.standby_max_lag_records,
        m.im_timeout_evacuations,
        m.cold_recoveries,
        m.warm_recoveries,
    );
    assert_eq!(m.im_crashes, 1, "the crash injection fired");
    assert_eq!(m.standby_promotions, 1, "the standby took over");
    let latency = m
        .standby_promotion_latency
        .expect("promotion latency recorded");
    assert!(
        latency < 1.0,
        "promotion inside the heartbeat budget, got {latency}"
    );
    let recovery = m.im_recovery_latency.expect("recovery latency recorded");
    assert!(
        recovery < 1.0,
        "first post-crash broadcast within a second, got {recovery}"
    );
    assert!(
        m.standby_windows_applied > 0,
        "the replica replayed the primary's windows before takeover"
    );
    assert_eq!(
        m.im_timeout_evacuations, 0,
        "the fleet never noticed the dead primary"
    );
    assert_eq!(m.cold_recoveries, 0, "no cold fallback");
    assert_eq!(m.warm_recoveries, 0, "promotion is not a restart");
    assert_eq!(m.accidents, 0, "no collisions through the handover");
    assert!(m.invariants.is_clean(), "safety invariants held");
}

/// Split-brain: the "dead" primary was only slow. After the standby's
/// promotion it seals one more block from its stale state and puts it
/// on the air. Vehicle guards must reject it by fencing epoch — counted,
/// never committed — and the promoted chain keeps growing untouched.
#[test]
fn zombie_primary_is_fenced_after_promotion() {
    let mut config = standby_config(77);
    // Wake the zombie after the fenced tip has reached the fleet but
    // before the next window seals, so its stale-epoch block lands at
    // exactly the index the guards would otherwise accept.
    config.standby.zombie_delay = Some(0.5);
    let report = Simulation::new(config).run();
    let m = &report.metrics;
    eprintln!(
        "zombie: promotions={} fencing_rejections={} blocks={} timeout_evac={}",
        m.standby_promotions, m.fencing_rejections, m.blocks_broadcast, m.im_timeout_evacuations,
    );
    assert_eq!(m.standby_promotions, 1, "the standby took over first");
    assert!(
        m.fencing_rejections > 0,
        "guards fenced off the zombie's stale-epoch block"
    );
    assert_eq!(
        m.im_timeout_evacuations, 0,
        "the double-sign attempt disrupted nobody"
    );
    assert_eq!(m.accidents, 0, "no collisions");
    assert!(
        m.invariants.is_clean(),
        "one chain, one history: the zombie block never entered it"
    );
}

/// Without the crash the standby just replicates: no promotion, no
/// behavioural difference against a run with the standby disabled.
#[test]
fn idle_standby_never_promotes_and_changes_nothing() {
    let mut with = standby_config(41);
    with.im_crash = None;
    let mut without = with.clone();
    without.standby.enabled = false;
    let a = Simulation::new(with).run();
    let b = Simulation::new(without).run();
    assert_eq!(a.metrics.standby_promotions, 0, "healthy primary");
    assert_eq!(a.metrics.fencing_rejections, 0, "nothing to fence");
    assert_eq!(
        a.metrics.blocks_broadcast, b.metrics.blocks_broadcast,
        "replication is invisible to the fleet"
    );
    assert_eq!(a.metrics.block_sizes, b.metrics.block_sizes);
    assert_eq!(a.metrics.exited, b.metrics.exited);
}
