//! Time-travel forensics: a snapshot ring buffer over the simulation
//! world with deterministic rewind and bit-identical resimulation.
//!
//! Chaos-seed triage used to be log archaeology: when an invariant
//! tripped or a false report slipped through, the only recourse was
//! re-running the whole scenario from tick zero. [`WorldHistory`]
//! instead snapshots the **full world** (vehicles with their protocol
//! guards, the manager stack scheduler-and-chain included, in-flight
//! VANET messages, the RNG stream, and — with the `store` feature — the
//! forked durable device) every K ticks into a bounded ring, records a
//! compact per-tick state hash for the whole run, and auto-pins a
//! rewind point whenever an incident fires (invariant violation,
//! benign self-evacuation, false-report acceptance, violation
//! confirmation).
//!
//! Replay is bit-identical **by construction**: a snapshot is a deep
//! [`Simulation::clone`] and the engine is a deterministic fixed-timestep
//! loop whose only entropy source is the captured RNG.
//! [`WorldHistory::resimulate`] still *verifies* the
//! construction — every replayed tick's [`Simulation::state_hash`] is
//! compared against the recorded original — so any determinism
//! regression surfaces as a pinpointed divergence tick instead of a
//! silently wrong forensic conclusion.

use crate::world::Simulation;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Default snapshot cadence, ticks (2 s of simulated time at the
/// default 100 ms timestep).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 20;

/// Default ring capacity (snapshots retained before eviction).
pub const DEFAULT_CAPACITY: usize = 16;

/// Why a rewind point was auto-captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A safety invariant tripped (collision, overlap, chain break…).
    InvariantViolation,
    /// A benign vehicle gave up on the manager and self-evacuated.
    BenignSelfEvacuation,
    /// The manager confirmed an accusation against an innocent vehicle
    /// — a false report was *accepted*.
    FalseReportAccepted,
    /// The manager confirmed the true violator (useful for replaying
    /// the detection path itself).
    ViolationConfirmed,
}

/// An auto-captured rewind point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// Tick at which the incident was first observed.
    pub tick: u64,
    /// Simulated time of that tick, seconds.
    pub at: f64,
    /// What happened.
    pub kind: IncidentKind,
    /// Tick of the pinned snapshot replay should start from — the
    /// latest snapshot at or before the incident.
    pub rewind_tick: u64,
}

/// How a [`WorldHistory::resimulate`] call went.
#[derive(Debug)]
pub struct ReplayReport {
    /// Tick of the snapshot the replay started from.
    pub started_from: u64,
    /// Ticks re-executed (fast-forward plus instrumented range).
    pub ticks_replayed: u64,
    /// Per-tick hash comparisons that ran against the recorded run.
    pub hashes_compared: usize,
    /// The replayed world as of the end of the range (for further
    /// inspection or continued stepping).
    pub world: Simulation,
}

/// Replay failures — all of them addressing problems, except
/// [`ReplayError::Divergence`] which means determinism itself broke.
#[derive(Debug)]
pub enum ReplayError {
    /// No retained snapshot at or before the requested tick (evicted
    /// from the ring, or the tick predates observation).
    NoSnapshot {
        /// The requested tick.
        requested: u64,
    },
    /// The requested range ends past the last observed tick.
    BeyondRecording {
        /// The requested end tick.
        requested: u64,
        /// The last tick the history observed.
        recorded: u64,
    },
    /// A replayed tick's state hash differs from the original run's —
    /// the bit-identical guarantee is broken at this tick.
    Divergence {
        /// First tick whose hash mismatched.
        tick: u64,
        /// The original run's hash at that tick.
        expected: u64,
        /// The replayed hash.
        got: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::NoSnapshot { requested } => {
                write!(f, "no retained snapshot at or before tick {requested}")
            }
            ReplayError::BeyondRecording {
                requested,
                recorded,
            } => write!(
                f,
                "range end {requested} is past the last recorded tick {recorded}"
            ),
            ReplayError::Divergence {
                tick,
                expected,
                got,
            } => write!(
                f,
                "replay diverged at tick {tick}: expected {expected:#018x}, got {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Snapshot ring buffer + per-tick hash recorder + incident pins.
///
/// Drive it as a [`Simulation::run_with`] observer (or call
/// [`WorldHistory::observe`] by hand between `tick_once` calls). The
/// first observation — typically the freshly built world at tick 0 —
/// is always captured, so the whole run stays rewindable until the
/// ring wraps.
pub struct WorldHistory {
    every: u64,
    capacity: usize,
    ring: VecDeque<(u64, Simulation)>,
    /// Snapshots protected from ring eviction because an incident
    /// rewinds to them.
    pinned: BTreeMap<u64, Simulation>,
    /// `hashes[i]` is the state hash at tick `first_tick + i`.
    hashes: Vec<u64>,
    first_tick: Option<u64>,
    incidents: Vec<Incident>,
    // Incident-edge baselines (previous observation's counters).
    seen_invariants: usize,
    seen_evacuations: usize,
    seen_false_accepted: bool,
    seen_confirmed: bool,
}

impl WorldHistory {
    /// A history snapshotting every `every` ticks, retaining up to
    /// `capacity` unpinned snapshots.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero or `capacity` is zero.
    pub fn new(every: u64, capacity: usize) -> Self {
        assert!(every > 0, "snapshot cadence must be at least one tick");
        assert!(capacity > 0, "ring capacity must be at least one");
        WorldHistory {
            every,
            capacity,
            ring: VecDeque::new(),
            pinned: BTreeMap::new(),
            hashes: Vec::new(),
            first_tick: None,
            incidents: Vec::new(),
            seen_invariants: 0,
            seen_evacuations: 0,
            seen_false_accepted: false,
            seen_confirmed: false,
        }
    }

    /// Defaults: every 20 ticks, 16 snapshots.
    pub fn with_defaults() -> Self {
        WorldHistory::new(DEFAULT_SNAPSHOT_EVERY, DEFAULT_CAPACITY)
    }

    /// Records the world at its current tick: hashes it, snapshots it
    /// when the tick lands on the cadence, and pins a rewind point when
    /// an incident edge fires. Call once per tick, in tick order.
    pub fn observe(&mut self, sim: &Simulation) {
        let tick = sim.ticks_elapsed();
        let first_observation = self.first_tick.is_none();
        match self.first_tick {
            None => self.first_tick = Some(tick),
            Some(first) => {
                debug_assert_eq!(
                    first + self.hashes.len() as u64,
                    tick,
                    "observe must be called once per tick, in order"
                );
            }
        }
        self.hashes.push(sim.state_hash());

        // The first observation always snapshots — `run_with` observers
        // first see tick 1, which never lands on the cadence, and
        // without this anchor nothing before the first cadence tick
        // would be rewindable.
        if first_observation || tick.is_multiple_of(self.every) {
            self.ring.push_back((tick, sim.clone()));
            while self.ring.len() > self.capacity {
                self.ring.pop_front();
            }
        }

        self.detect_incidents(sim, tick);
    }

    /// Compares this observation's counters to the previous one and
    /// pins a rewind point per newly fired incident class.
    fn detect_incidents(&mut self, sim: &Simulation, tick: u64) {
        let metrics = sim.metrics_so_far();
        let invariants = sim.invariants_so_far().total();
        let evacuations = metrics.benign_self_evacuations;
        let false_accepted = metrics.false_accusation_confirmed.is_some();
        let confirmed = metrics.violation_confirmed.is_some();

        let mut fired = Vec::new();
        if invariants > self.seen_invariants {
            fired.push(IncidentKind::InvariantViolation);
        }
        if evacuations > self.seen_evacuations {
            fired.push(IncidentKind::BenignSelfEvacuation);
        }
        if false_accepted && !self.seen_false_accepted {
            fired.push(IncidentKind::FalseReportAccepted);
        }
        if confirmed && !self.seen_confirmed {
            fired.push(IncidentKind::ViolationConfirmed);
        }
        self.seen_invariants = invariants;
        self.seen_evacuations = evacuations;
        self.seen_false_accepted = false_accepted;
        self.seen_confirmed = confirmed;

        for kind in fired {
            if let Some(rewind_tick) = self.pin_latest_at_or_before(tick) {
                self.incidents.push(Incident {
                    tick,
                    at: sim.now(),
                    kind,
                    rewind_tick,
                });
            }
        }
    }

    /// Moves the latest snapshot at or before `tick` into the pinned
    /// set (immune to ring eviction) and returns its tick.
    fn pin_latest_at_or_before(&mut self, tick: u64) -> Option<u64> {
        if let Some((&t, _)) = self.pinned.range(..=tick).next_back() {
            let newer_in_ring = self
                .ring
                .iter()
                .rev()
                .find(|(rt, _)| *rt <= tick)
                .is_some_and(|(rt, _)| *rt > t);
            if !newer_in_ring {
                return Some(t);
            }
        }
        let (rt, snap) = self.ring.iter().rev().find(|(rt, _)| *rt <= tick)?;
        let rt = *rt;
        self.pinned.entry(rt).or_insert_with(|| snap.clone());
        Some(rt)
    }

    /// Incidents recorded so far, in observation order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Ticks of the currently rewindable snapshots (pinned + ring),
    /// ascending and deduplicated.
    pub fn snapshot_ticks(&self) -> Vec<u64> {
        let mut ticks: Vec<u64> = self
            .pinned
            .keys()
            .copied()
            .chain(self.ring.iter().map(|(t, _)| *t))
            .collect();
        ticks.sort_unstable();
        ticks.dedup();
        ticks
    }

    /// The last tick this history observed, if any.
    pub fn last_tick(&self) -> Option<u64> {
        let first = self.first_tick?;
        Some(first + self.hashes.len() as u64 - 1)
    }

    /// The recorded state hash at `tick`, if observed.
    pub fn hash_at(&self, tick: u64) -> Option<u64> {
        let first = self.first_tick?;
        let offset = tick.checked_sub(first)? as usize;
        self.hashes.get(offset).copied()
    }

    /// An independent world positioned at the latest snapshot at or
    /// before `tick` — `None` when that part of history was evicted.
    /// Stepping the returned world re-executes the original run
    /// bit-identically (pinned by [`WorldHistory::resimulate`]).
    pub fn rewind(&self, tick: u64) -> Option<Simulation> {
        let ring_hit = self.ring.iter().rev().find(|(t, _)| *t <= tick);
        let pin_hit = self.pinned.range(..=tick).next_back();
        match (ring_hit, pin_hit) {
            (Some((rt, snap)), Some((pt, pin))) => {
                Some(if rt >= pt { snap.clone() } else { pin.clone() })
            }
            (Some((_, snap)), None) => Some(snap.clone()),
            (None, Some((_, pin))) => Some(pin.clone()),
            (None, None) => None,
        }
    }

    /// Re-executes `range` (tick numbers, half-open) from the nearest
    /// snapshot, calling `instrumentation` after every tick inside the
    /// range, and verifying every replayed tick — fast-forward included
    /// — against the recorded hash stream.
    ///
    /// # Errors
    ///
    /// [`ReplayError::NoSnapshot`] / [`ReplayError::BeyondRecording`]
    /// when the range is outside retained history;
    /// [`ReplayError::Divergence`] when a replayed tick's hash differs
    /// from the original run's (a determinism bug, never expected).
    pub fn resimulate(
        &self,
        range: Range<u64>,
        mut instrumentation: impl FnMut(&Simulation),
    ) -> Result<ReplayReport, ReplayError> {
        let last = self.last_tick().ok_or(ReplayError::NoSnapshot {
            requested: range.start,
        })?;
        let end = range.end.max(range.start);
        if end.saturating_sub(1) > last {
            return Err(ReplayError::BeyondRecording {
                requested: end,
                recorded: last,
            });
        }
        let mut world = self.rewind(range.start).ok_or(ReplayError::NoSnapshot {
            requested: range.start,
        })?;
        let started_from = world.ticks_elapsed();
        let mut ticks_replayed = 0u64;
        let mut hashes_compared = 0usize;
        while world.ticks_elapsed() + 1 < end {
            world.tick_once();
            ticks_replayed += 1;
            let tick = world.ticks_elapsed();
            if let Some(expected) = self.hash_at(tick) {
                let got = world.state_hash();
                hashes_compared += 1;
                if got != expected {
                    return Err(ReplayError::Divergence {
                        tick,
                        expected,
                        got,
                    });
                }
            }
            if range.contains(&tick) {
                instrumentation(&world);
            }
        }
        Ok(ReplayReport {
            started_from,
            ticks_replayed,
            hashes_compared,
            world,
        })
    }
}

impl std::fmt::Debug for WorldHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldHistory")
            .field("every", &self.every)
            .field("capacity", &self.capacity)
            .field("snapshots", &self.ring.len())
            .field("pinned", &self.pinned.len())
            .field("hashes", &self.hashes.len())
            .field("incidents", &self.incidents.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn tiny_config() -> SimConfig {
        let mut config = SimConfig::default();
        config.duration = 20.0;
        config.density = 30.0;
        config.seed = 11;
        config
    }

    /// Runs `ticks` ticks, observing each, and returns the history plus
    /// the finished world.
    fn record(ticks: u64) -> (WorldHistory, Simulation) {
        let mut sim = Simulation::new(tiny_config());
        let mut history = WorldHistory::new(10, 4);
        for _ in 0..ticks {
            sim.tick_once();
            history.observe(&sim);
        }
        (history, sim)
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_cadence_rejected() {
        let _ = WorldHistory::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = WorldHistory::new(10, 0);
    }

    #[test]
    fn first_observation_is_always_rewindable() {
        let (history, _) = record(5);
        // Tick 1 is off-cadence but anchored as the first observation.
        assert_eq!(history.snapshot_ticks(), vec![1]);
        let world = history.rewind(3).expect("anchor snapshot");
        assert_eq!(world.ticks_elapsed(), 1);
    }

    #[test]
    fn ring_keeps_cadence_and_evicts_oldest() {
        let (history, _) = record(80);
        // Cadence snapshots at 10, 20, ..., 80 plus the tick-1 anchor;
        // capacity 4 keeps only the newest four.
        assert_eq!(history.snapshot_ticks(), vec![50, 60, 70, 80]);
        assert!(history.rewind(45).is_none(), "evicted history is gone");
        assert_eq!(history.last_tick(), Some(80));
    }

    #[test]
    fn hash_stream_is_recorded_per_tick() {
        let (history, sim) = record(25);
        assert_eq!(history.hash_at(25), Some(sim.state_hash()));
        assert!(history.hash_at(0).is_none(), "tick 0 was never observed");
        assert!(history.hash_at(26).is_none());
    }

    #[test]
    fn resimulate_reproduces_recorded_run() {
        let (history, sim) = record(60);
        let mut instrumented = Vec::new();
        let report = history
            .resimulate(40..61, |w| instrumented.push(w.ticks_elapsed()))
            .expect("replay clean");
        assert_eq!(report.started_from, 40);
        assert_eq!(report.ticks_replayed, 20);
        assert_eq!(report.hashes_compared, 20);
        assert_eq!(instrumented, (41..=60).collect::<Vec<_>>());
        assert_eq!(report.world.state_hash(), sim.state_hash());
    }

    #[test]
    fn resimulate_rejects_out_of_range() {
        let (history, _) = record(30);
        assert!(matches!(
            history.resimulate(25..99, |_| {}),
            Err(ReplayError::BeyondRecording {
                requested: 99,
                recorded: 30
            })
        ));
        let empty = WorldHistory::with_defaults();
        assert!(matches!(
            empty.resimulate(0..1, |_| {}),
            Err(ReplayError::NoSnapshot { .. })
        ));
    }

    #[test]
    fn replay_errors_render() {
        let err = ReplayError::Divergence {
            tick: 7,
            expected: 1,
            got: 2,
        };
        assert!(err.to_string().contains("diverged at tick 7"));
        assert!(ReplayError::NoSnapshot { requested: 3 }
            .to_string()
            .contains("tick 3"));
    }
}
