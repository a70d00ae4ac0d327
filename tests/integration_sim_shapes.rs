//! End-to-end shape assertions: the qualitative results the paper's
//! evaluation reports must hold in this reproduction.
//!
//! These use short runs and single rounds so the suite stays fast in
//! debug builds; the `expgen` harness runs the full protocol.

use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
use nwade_repro::sim::{AttackPlan, SimConfig, Simulation};

fn attacked(setting: AttackSetting, seed: u64) -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.seed = seed;
    config.attack = Some(AttackPlan {
        setting,
        violation: ViolationKind::SuddenStop,
        start: 60.0,
    });
    config
}

#[test]
fn benign_runs_have_no_alarms_and_no_accidents() {
    let mut config = SimConfig::default();
    config.duration = 120.0;
    config.seed = 21;
    let r = Simulation::new(config).run();
    assert_eq!(r.metrics.accidents, 0);
    assert_eq!(r.metrics.benign_self_evacuations, 0);
    assert!(
        r.metrics.exited > 30,
        "traffic flowed: {}",
        r.metrics.exited
    );
    assert!(r.metrics.blocks_broadcast > 30);
}

#[test]
fn violation_detected_with_benign_manager() {
    let r = Simulation::new(attacked(AttackSetting::V1, 31)).run();
    assert!(r.violation_detected(), "V1 detection (Fig. 4 shape)");
    let latency = r.detection_latency().expect("latency recorded");
    assert!(
        latency < 10.0,
        "detection within seconds of the deviation, got {latency:.1}s"
    );
}

#[test]
fn violation_detected_with_malicious_manager() {
    let r = Simulation::new(attacked(AttackSetting::ImV2, 32)).run();
    assert!(
        r.violation_detected(),
        "IM_V2: benign vehicles must escalate globally"
    );
    assert!(
        r.metrics.benign_self_evacuations > 0,
        "shielded attacker forces self-evacuations"
    );
}

#[test]
fn corrupted_block_always_caught() {
    let r = Simulation::new(attacked(AttackSetting::Im, 33)).run();
    assert!(
        r.metrics.corrupted_block_detected.is_some(),
        "Table II type B (real): blockchain verification catches it"
    );
}

#[test]
fn type_b_false_claims_rebutted_never_triggering() {
    let r = Simulation::new(attacked(AttackSetting::V3, 34)).run();
    assert!(r.false_alarm_b_detected(), "claims rebutted (Table II)");
    assert!(
        !r.false_alarm_b_triggered(),
        "false conflicting-plan claims never trigger evacuations"
    );
}

#[test]
fn type_a_false_claims_dismissed_with_benign_manager() {
    let r = Simulation::new(attacked(AttackSetting::V2, 35)).run();
    assert!(
        r.false_alarm_a_detected(),
        "the two-group vote dismisses the framed vehicle"
    );
    assert!(!r.false_alarm_a_triggered());
}

#[test]
fn nwade_throughput_overhead_is_negligible() {
    // Fig. 8's shape: ±10% at matched seeds.
    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.seed = 36;
    config.density = 60.0;
    let with = Simulation::new(config.clone())
        .run()
        .metrics
        .throughput_per_minute();
    config.nwade_enabled = false;
    let without = Simulation::new(config)
        .run()
        .metrics
        .throughput_per_minute();
    let overhead = (without - with).abs() / without.max(1.0);
    assert!(
        overhead < 0.10,
        "NWADE overhead {:.1}% (with {with:.1}, without {without:.1})",
        overhead * 100.0
    );
}

#[test]
fn all_five_intersections_simulate_cleanly() {
    for kind in nwade_repro::intersection::IntersectionKind::ALL {
        let mut config = SimConfig::default();
        config.kind = kind;
        config.duration = 90.0;
        config.density = 40.0;
        config.seed = 38;
        let r = Simulation::new(config).run();
        assert!(r.metrics.exited > 0, "{kind}: traffic flowed");
        assert_eq!(r.metrics.accidents, 0, "{kind}: no accidents unattacked");
        assert_eq!(
            r.metrics.benign_self_evacuations, 0,
            "{kind}: no false alarms"
        );
    }
}
