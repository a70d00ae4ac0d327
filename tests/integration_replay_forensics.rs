//! Differential test for time-travel forensics: recording a run through
//! [`WorldHistory`] and resimulating from any captured rewind point must
//! reproduce the original run bit-identically — across the plain,
//! attack, and chaos scenarios.
//!
//! The replay engine verifies each re-executed tick's state hash against
//! the recorded stream, so any nondeterminism (in the tick, the RNG
//! capture, the durable-store fork, or the snapshot deep-clone) surfaces
//! as a pinpointed [`ReplayError::Divergence`] rather than a silently
//! wrong forensic conclusion.

use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
use nwade_repro::sim::{AttackPlan, ImOutage, IncidentKind, SimConfig, Simulation, WorldHistory};

/// Snapshot cadence for the recordings: every 5 s of simulated time.
const CADENCE: u64 = 50;
/// Ring capacity: the newest 8 unpinned snapshots stay rewindable.
const CAPACITY: usize = 8;

fn record(config: SimConfig) -> WorldHistory {
    let mut history = WorldHistory::new(CADENCE, CAPACITY);
    let _ = Simulation::new(config).run_with(|sim| history.observe(sim));
    history
}

/// Replays the recording from its rewind points and asserts the
/// bit-identical guarantee:
///
/// * full replays (to the end of the recording) from the earliest and
///   latest retained snapshots, checking the final state hash,
/// * a windowed replay from every other snapshot,
/// * a replay through each incident from its pinned rewind point.
fn check_replays(label: &str, history: &WorldHistory) {
    let last = history.last_tick().expect("recorded run is non-empty");
    let final_hash = history.hash_at(last).expect("final hash recorded");
    let snapshots = history.snapshot_ticks();
    assert!(!snapshots.is_empty(), "{label}: no snapshots retained");

    for (i, &start) in snapshots.iter().enumerate() {
        let full = i == 0 || i == snapshots.len() - 1;
        let end = if full {
            last + 1
        } else {
            (start + 150).min(last + 1)
        };
        let mut instrumented = 0u64;
        let report = history
            .resimulate(start..end, |_| instrumented += 1)
            .unwrap_or_else(|e| panic!("{label}: replay from tick {start} failed: {e}"));
        assert_eq!(report.started_from, start, "{label}: wrong rewind point");
        assert_eq!(
            report.ticks_replayed,
            end - 1 - start,
            "{label}: replay tick count from {start}"
        );
        assert_eq!(
            report.hashes_compared as u64, report.ticks_replayed,
            "{label}: every replayed tick must be verified"
        );
        assert_eq!(
            instrumented, report.ticks_replayed,
            "{label}: instrumentation must see every in-range tick"
        );
        if full {
            assert_eq!(
                report.world.state_hash(),
                final_hash,
                "{label}: replayed final state differs from the original"
            );
        }
    }

    // Each incident must replay through its own tick from the pinned
    // snapshot. Dedup on the rewind point: repeated incidents (e.g. a
    // wave of timeout evacuations) pin the same snapshot.
    let mut targets: Vec<(u64, u64)> = Vec::new();
    for incident in history.incidents() {
        assert!(
            incident.rewind_tick <= incident.tick,
            "{label}: rewind point after the incident"
        );
        match targets.iter_mut().find(|(r, _)| *r == incident.rewind_tick) {
            Some((_, end)) => *end = (*end).max(incident.tick + 1),
            None => targets.push((incident.rewind_tick, incident.tick + 1)),
        }
    }
    for (rewind, end) in targets {
        let end = end.min(last + 1);
        let report = history
            .resimulate(rewind..end, |_| {})
            .unwrap_or_else(|e| panic!("{label}: incident replay from tick {rewind} failed: {e}"));
        assert_eq!(report.started_from, rewind, "{label}: incident rewind");
        assert_eq!(
            report.hashes_compared as u64, report.ticks_replayed,
            "{label}: incident replay must verify every tick"
        );
    }
}

/// Records the scenario and checks replays of it.
fn check_scenario(label: &str, config: SimConfig) -> WorldHistory {
    let history = record(config);
    check_replays(label, &history);
    history
}

#[test]
fn plain_traffic_replays_bit_identically() {
    let mut config = SimConfig::default();
    config.duration = 90.0;
    config.density = 70.0;
    config.seed = 2024;
    check_scenario("plain", config);
}

#[test]
fn attack_scenario_replays_bit_identically() {
    let mut config = SimConfig::default();
    config.duration = 120.0;
    config.density = 60.0;
    config.seed = 77;
    config.attack = Some(AttackPlan {
        setting: AttackSetting::V2,
        violation: ViolationKind::LaneDeviation,
        start: 50.0,
    });
    let history = check_scenario("attack", config);
    // The detection path itself must be a captured rewind point.
    assert!(
        history
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::ViolationConfirmed),
        "attack: expected a ViolationConfirmed incident pin"
    );
}

#[test]
fn chaos_outage_scenario_replays_bit_identically() {
    let mut config = SimConfig::default();
    config.duration = 130.0;
    config.density = 60.0;
    config.seed = 41;
    config.attack = Some(AttackPlan {
        setting: AttackSetting::V1,
        violation: ViolationKind::SuddenStop,
        start: 50.0,
    });
    config.im_outage = Some(ImOutage {
        start: 50.0,
        duration: 20.0,
    });
    let history = check_scenario("chaos", config);
    // The outage forces reporters to time out and self-evacuate; each
    // wave is an auto-captured incident.
    assert!(
        history
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::BenignSelfEvacuation),
        "chaos: expected a BenignSelfEvacuation incident pin"
    );
}
