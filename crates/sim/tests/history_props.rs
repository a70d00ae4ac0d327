//! Property test for the forensics contract: for *any* scenario — random
//! demand, attack, adversary policy, manager outage, and
//! crash-point injection — recording a run through [`WorldHistory`] and
//! resimulating from any retained snapshot reproduces the original
//! tick-stream hashes bit-identically.
//!
//! This is the generative companion of the hand-picked differential
//! scenarios in `tests/integration_replay_forensics.rs` at the workspace
//! root: proptest explores fault-model corners (crash inside an outage,
//! adversary plus violator, Sybil flood during recovery…) that no fixed
//! scenario list would cover.

use nwade::attack::{AttackSetting, ViolationKind};
use nwade::CrashPoint;
use nwade_sim::{
    AdaptivePlan, AttackPlan, AttackPolicy, CliquePlan, CrashPlan, ImOutage, SimConfig, Simulation,
    SybilPlan, WorldHistory,
};
use proptest::prelude::*;

/// An adversary choice with its start expressed as a fraction of the
/// run, resolved against the drawn duration when the config is built.
#[derive(Debug, Clone, Copy)]
enum AdversaryDraw {
    Adaptive {
        frac: f64,
        probe: f64,
        amp: f64,
    },
    Clique {
        frac: f64,
        fraction: f64,
    },
    Sybil {
        frac: f64,
        count: usize,
        interval: f64,
    },
}

/// `Some((setting, violation, start fraction))` half the time.
fn attack_strategy() -> impl Strategy<Value = Option<(AttackSetting, ViolationKind, f64)>> {
    let setting = prop_oneof![
        Just(AttackSetting::V1),
        Just(AttackSetting::V2),
        Just(AttackSetting::V3),
        Just(AttackSetting::Im),
    ];
    let violation = prop_oneof![
        Just(ViolationKind::SuddenStop),
        Just(ViolationKind::SpeedUp),
        Just(ViolationKind::LaneDeviation),
    ];
    prop_oneof![
        Just(None::<(AttackSetting, ViolationKind, f64)>),
        (setting, violation, 0.3..0.6f64).prop_map(Some),
    ]
}

fn adversary_strategy() -> impl Strategy<Value = Option<AdversaryDraw>> {
    prop_oneof![
        Just(None::<AdversaryDraw>),
        (0.25..0.55f64, 2.0..5.0f64, 4.0..10.0f64)
            .prop_map(|(frac, probe, amp)| Some(AdversaryDraw::Adaptive { frac, probe, amp })),
        (0.25..0.55f64, 0.1..0.5f64)
            .prop_map(|(frac, fraction)| Some(AdversaryDraw::Clique { frac, fraction })),
        (0.25..0.55f64, 1usize..4, 1.0..4.0f64).prop_map(|(frac, count, interval)| {
            Some(AdversaryDraw::Sybil {
                frac,
                count,
                interval,
            })
        }),
    ]
}

/// `Some((start fraction, outage length))` half the time.
fn outage_strategy() -> impl Strategy<Value = Option<(f64, f64)>> {
    prop_oneof![
        Just(None::<(f64, f64)>),
        (0.3..0.6f64, 4.0..12.0f64).prop_map(Some),
    ]
}

/// `Some((crash-time fraction, crash point, cold downtime))` half the time.
fn crash_strategy() -> impl Strategy<Value = Option<(f64, CrashPoint, f64)>> {
    let point = prop_oneof![
        Just(CrashPoint::AfterStage),
        Just(CrashPoint::BeforeCommit),
        Just(CrashPoint::AfterCommit),
    ];
    prop_oneof![
        Just(None::<(f64, CrashPoint, f64)>),
        (0.3..0.6f64, point, 2.0..8.0f64).prop_map(Some),
    ]
}

#[allow(clippy::type_complexity)]
fn build_config(
    base: (f64, f64, u64),
    attack: Option<(AttackSetting, ViolationKind, f64)>,
    adversary: Option<AdversaryDraw>,
    outage: Option<(f64, f64)>,
    crash: Option<(f64, CrashPoint, f64)>,
) -> SimConfig {
    let (duration, density, seed) = base;
    let mut config = SimConfig::default();
    config.duration = duration;
    config.density = density;
    config.seed = seed;
    config.attack = attack.map(|(setting, violation, frac)| AttackPlan {
        setting,
        violation,
        start: duration * frac,
    });
    config.adversary = adversary.map(|draw| match draw {
        AdversaryDraw::Adaptive { frac, probe, amp } => AttackPolicy::Adaptive(AdaptivePlan {
            start: duration * frac,
            probe_period: probe,
            max_amplitude: amp,
        }),
        AdversaryDraw::Clique { frac, fraction } => AttackPolicy::Clique(CliquePlan {
            start: duration * frac,
            fraction,
        }),
        AdversaryDraw::Sybil {
            frac,
            count,
            interval,
        } => AttackPolicy::Sybil(SybilPlan {
            start: duration * frac,
            count,
            report_interval: interval,
        }),
    });
    config.im_outage = outage.map(|(frac, len)| ImOutage {
        start: duration * frac,
        duration: len,
    });
    config.im_crash = crash.map(|(frac, point, down)| CrashPlan {
        at: duration * frac,
        point,
        cold_downtime: down,
    });
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the scenario throws at the world — attacks, adaptive
    /// adversaries, outages, mid-window crashes — every retained rewind
    /// point replays to the end of the recording with every tick's hash
    /// matching the original, and the final states are bit-identical.
    #[test]
    fn any_rewind_point_replays_bit_identically(
        base in (18.0..32.0f64, 15.0..45.0f64, any::<u64>()),
        attack in attack_strategy(),
        adversary in adversary_strategy(),
        faults in (outage_strategy(), crash_strategy()),
        knobs in (5u64..40, 2usize..6, 0.0..1.0f64),
    ) {
        let (cadence, capacity, rewind_fraction) = knobs;
        let config = build_config(base, attack, adversary, faults.0, faults.1);
        config.validate().expect("generated scenario is valid");
        let ticks = (config.duration / config.dt).round() as u64;

        let mut sim = Simulation::new(config);
        let mut history = WorldHistory::new(cadence, capacity);
        for _ in 0..ticks {
            sim.tick_once();
            history.observe(&sim);
        }
        let last = history.last_tick().expect("run recorded");
        prop_assert_eq!(last, ticks);
        let final_hash = history.hash_at(last).expect("final hash");
        prop_assert_eq!(final_hash, sim.state_hash());

        let snapshots = history.snapshot_ticks();
        prop_assert!(!snapshots.is_empty());

        // Replay from the earliest retained snapshot and from one picked
        // by the generated fraction — both must reproduce the recorded
        // hash stream and land on the identical final state.
        let pick = snapshots[((snapshots.len() - 1) as f64 * rewind_fraction) as usize];
        let mut starts = vec![snapshots[0], pick];
        starts.dedup();
        for start in starts {
            let report = history
                .resimulate(start..last + 1, |_| {})
                .map_err(|e| TestCaseError::Fail(format!("replay from {start}: {e}")))?;
            prop_assert_eq!(report.started_from, start);
            prop_assert_eq!(report.hashes_compared as u64, report.ticks_replayed);
            prop_assert_eq!(report.world.state_hash(), final_hash);
        }

        // Incident pins must rewind to a retained snapshot at or before
        // the incident.
        for incident in history.incidents() {
            prop_assert!(incident.rewind_tick <= incident.tick);
            prop_assert!(history.rewind(incident.rewind_tick).is_some());
        }
    }
}
