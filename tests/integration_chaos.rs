//! Chaos-harness integration tests: IM outage/restart recovery and
//! composable fault injection, exercised through the public facade.

use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
use nwade_repro::sim::{AttackPlan, ImOutage, SimConfig, Simulation};
use nwade_repro::vanet::FaultModel;

fn attacked(seed: u64) -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.seed = seed;
    config.attack = Some(AttackPlan {
        setting: AttackSetting::V1,
        violation: ViolationKind::SuddenStop,
        start: 50.0,
    });
    config
}

/// The acceptance scenario: the manager goes dark right as an attack
/// unfolds. Incident reports die on the wire, reporters exhaust the
/// report-submission retrier and self-evacuate on `ImTimeout`; after the
/// restart the manager rebuilds from its chain, the next block broadcast
/// re-admits the fleet, and no vehicle is left publicly flagged as
/// evacuating.
///
/// The durable store is disabled here on purpose: this pins the *cold*
/// recovery path (evacuate, then readmit) that warm recovery is measured
/// against.
#[test]
fn im_outage_evacuation_and_recovery() {
    let mut config = attacked(41);
    config.store.enabled = false;
    config.im_outage = Some(ImOutage {
        start: 50.0,
        duration: 20.0,
    });

    let mut final_lingering = usize::MAX;
    let report = Simulation::new(config).run_with(|sim| {
        final_lingering = sim.lingering_announcements();
    });

    eprintln!(
        "outage_drops={} im_timeout_evac={} readmitted={} lingering={} detected={} exited={} accidents={} invariants={}",
        report.metrics.imu_outage_drops,
        report.metrics.im_timeout_evacuations,
        report.metrics.readmitted_after_outage,
        final_lingering,
        report.violation_detected(),
        report.metrics.exited,
        report.metrics.accidents,
        report.metrics.invariants.total(),
    );

    assert!(
        report.metrics.imu_outage_drops > 0,
        "the outage window actually silenced the manager"
    );
    assert!(
        report.metrics.im_timeout_evacuations > 0,
        "reporters hit the ImTimeout edge while the manager was dark"
    );
    assert!(
        report.metrics.readmitted_after_outage > 0,
        "a fresh block after the restart re-admitted evacuees"
    );
    assert_eq!(
        final_lingering, 0,
        "no vehicle is left publicly marked evacuating after recovery"
    );
    assert!(
        report.metrics.invariants.is_clean(),
        "safety invariants held across outage and restart: {}",
        report.metrics.invariants
    );
    assert_eq!(
        report.metrics.cold_recoveries, 1,
        "with the store disabled the restart takes the cold path"
    );
    assert_eq!(
        report.metrics.warm_recoveries, 0,
        "no warm recovery without a durable store"
    );
}

/// Warm-recovery acceptance: the manager process is killed mid-window
/// (before the staged block's commit record hits the durability
/// barrier), leaving a torn tail in the log. Recovery must truncate the
/// tail, replay the window, rebroadcast the re-created block in the
/// same tick — so nobody ever notices the manager died: no timeout
/// self-evacuations, no readmissions, traffic keeps flowing.
#[test]
fn im_crash_recovers_warm_without_evacuation() {
    use nwade_repro::nwade::CrashPoint;
    use nwade_repro::sim::CrashPlan;

    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.seed = 44;
    config.im_crash = Some(CrashPlan {
        at: 60.0,
        point: CrashPoint::BeforeCommit,
        cold_downtime: 20.0,
    });

    let report = Simulation::new(config).run();

    eprintln!(
        "crashes={} warm={} cold={} truncated={} timeout_evac={} readmitted={} exited={} invariants={}",
        report.metrics.im_crashes,
        report.metrics.warm_recoveries,
        report.metrics.cold_recoveries,
        report.metrics.wal_truncated_bytes,
        report.metrics.im_timeout_evacuations,
        report.metrics.readmitted_after_outage,
        report.metrics.exited,
        report.metrics.invariants.total(),
    );

    assert_eq!(report.metrics.im_crashes, 1, "the crash injection fired");
    assert_eq!(
        report.metrics.warm_recoveries, 1,
        "the store brought the manager back warm"
    );
    assert_eq!(report.metrics.cold_recoveries, 0, "no cold fallback");
    assert_eq!(
        report.metrics.im_timeout_evacuations, 0,
        "warm recovery is invisible to the fleet: no timeout evacuations"
    );
    assert_eq!(
        report.metrics.readmitted_after_outage, 0,
        "nobody evacuated, so nobody needed readmission"
    );
    assert!(report.metrics.exited > 10, "traffic kept flowing");
    assert_eq!(report.metrics.accidents, 0, "no collisions");
    assert!(
        report.metrics.invariants.is_clean(),
        "safety invariants held across the crash: {}",
        report.metrics.invariants
    );
}

/// A full composable-fault run at moderate intensity: duplication,
/// reordering jitter, corruption (exercising the signature-reject path),
/// and bursty loss all at once. With no attacker on the road the honest
/// fleet must come through with zero accidents, traffic still flowing,
/// and every tick-time invariant intact.
#[test]
fn composable_faults_preserve_safety_invariants() {
    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.seed = 43;
    config.medium.faults = FaultModel::at_intensity(0.2);

    let report = Simulation::new(config).run();

    eprintln!(
        "corrupted_drops={} net={:?} exited={} accidents={} invariants={}",
        report.metrics.corrupted_drops,
        report.metrics.network,
        report.metrics.exited,
        report.metrics.accidents,
        report.metrics.invariants.total(),
    );

    assert!(
        report.metrics.invariants.is_clean(),
        "invariants stay clean under composed faults: {}",
        report.metrics.invariants
    );
    assert_eq!(
        report.metrics.accidents, 0,
        "no collisions among the honest fleet"
    );
    assert!(
        report.metrics.exited > 10,
        "traffic still flows under chaos"
    );
    assert!(
        report.metrics.corrupted_drops > 0,
        "the corruption fault was live on non-block traffic"
    );
}

/// Fault-free control: the invariant checker itself must be quiet on a
/// clean attacked run (no false positives from the checker).
#[test]
fn invariant_checker_quiet_on_clean_run() {
    let report = Simulation::new(attacked(42)).run();
    assert!(
        report.metrics.invariants.is_clean(),
        "checker is silent without injected faults: {}",
        report.metrics.invariants
    );
    assert!(report.violation_detected());
}
