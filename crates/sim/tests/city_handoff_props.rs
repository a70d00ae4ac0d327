//! Property tests for boundary handoffs.
//!
//! Whatever the grid topology, link latencies, and traffic routes, a
//! boundary crossing never loses, duplicates, or teleports a vehicle:
//! every vehicle the city has ever spawned is exactly one of exited,
//! active in some shard, riding a link, or queued for re-admission —
//! and the handoff books themselves balance. A handed-off false
//! reporter's ledger standing follows it into the receiving manager.

use nwade::attack::{AttackSetting, ViolationKind};
use nwade_intersection::LegId;
use nwade_sim::vehicle::Role;
use nwade_sim::{AttackPlan, CityConfig, CityGrid, Handoff, InvariantKind, SimConfig, Simulation};
use nwade_traffic::{VehicleDescriptor, VehicleId};
use proptest::prelude::*;

fn base_config(seed: u64) -> SimConfig {
    let mut base = SimConfig::default();
    base.duration = 40.0;
    base.density = 80.0;
    base.seed = seed;
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random grids: a ring for guaranteed flow plus arbitrary extra
    /// chords, random latencies, random seeds. Conservation must hold
    /// at every sampled tick and at the end.
    #[test]
    fn random_grids_conserve_vehicles(
        shards in 1usize..=4,
        seed in 0u64..1000,
        chords in proptest::collection::vec(
            // (from, to-offset, from_leg, to_leg, latency)
            (0usize..4, 1usize..4, 0u8..3, 0u8..3, 0.0..12.0f64),
            0..4,
        ),
        ring_latency in 0.0..12.0f64,
    ) {
        let mut cfg = CityConfig::ring(shards, base_config(seed));
        for link in &mut cfg.links {
            link.latency = ring_latency;
        }
        for (from, offset, from_leg, to_leg, latency) in chords {
            let from = from % shards;
            let to = (from + offset) % shards;
            if from == to {
                continue;
            }
            cfg.links.push(nwade_sim::LinkSpec {
                from,
                from_leg,
                to,
                to_leg,
                latency,
            });
        }
        cfg.validate().expect("generated grid is valid");
        let mut city = CityGrid::new(cfg);
        for tick in 0..500 {
            city.tick();
            if tick % 20 == 19 {
                city.check_conservation()
                    .map_err(|e| TestCaseError::Fail(format!("tick {tick}: {e}")))?;
            }
        }
        city.check_conservation()
            .map_err(|e| TestCaseError::Fail(format!("final: {e}")))?;
        prop_assert_eq!(city.anchor_mismatches(), 0);
    }
}

/// A handed-off false reporter arrives with its tally: the receiving
/// manager starts it at the departing manager's count, so three strikes
/// anywhere in the city still squelch it here.
#[test]
fn ledger_standing_follows_handoff() {
    let mut cfg = SimConfig::default();
    cfg.duration = 60.0;
    cfg.density = 0.001; // keep the shard empty so admission is instant
    cfg.seed = 3;
    let mut sim = Simulation::new(cfg);
    let offender = VehicleId::new(424242);
    sim.queue_inbound_handoff(
        LegId::new(1),
        Handoff {
            id: offender,
            speed: 12.0,
            descriptor: VehicleDescriptor {
                brand: "test".into(),
                model: "handoff".into(),
                color: "red".into(),
            },
            role: Role::FalseReporter,
            false_reports: 3,
            exit_leg: LegId::new(0),
        },
    );
    let mut admitted = false;
    for _ in 0..50 {
        sim.tick_once();
        if sim.metrics_so_far().handoffs_in == 1 {
            admitted = true;
            break;
        }
    }
    assert!(admitted, "empty lane admits the handoff promptly");
    assert_eq!(
        sim.false_report_count(offender),
        3,
        "ledger standing crossed the boundary with the vehicle"
    );
    assert_eq!(
        sim.false_report_count(VehicleId::new(1)),
        0,
        "other vehicles are unaffected"
    );
}

/// A vehicle that reaches its path end while emergency-braking leaves
/// exactly once. On this seed a V3 sudden stop makes vehicles brake
/// across their path end; finalizing one of them twice would count a
/// second exit or handoff and reset its guard while it is still live.
#[test]
fn braked_exit_is_finalized_once() {
    let mut base = SimConfig::default();
    base.duration = 60.0;
    base.seed = 5;
    base.attack = Some(AttackPlan {
        setting: AttackSetting::V3,
        violation: ViolationKind::SuddenStop,
        start: 20.0,
    });
    let ticks = (base.duration / base.dt).ceil() as u64;
    let mut city = CityGrid::new(CityConfig::ring(4, base));
    for _ in 0..ticks {
        city.tick();
    }
    city.check_conservation().expect("vehicles conserved");
    let fsm: usize = city
        .shards()
        .iter()
        .filter_map(|s| {
            s.invariants_so_far()
                .counts
                .get(&InvariantKind::FsmConsistency)
        })
        .sum();
    assert_eq!(fsm, 0, "no FSM-consistency violations");
}
