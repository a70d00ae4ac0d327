//! Tick-time safety-invariant checking.
//!
//! The chaos experiments deliberately batter the system with faults; the
//! point of the exercise is that however degraded the *performance*
//! gets, the *safety* story must hold. The [`InvariantChecker`] encodes
//! that story as machine-checked predicates evaluated while the
//! simulation runs:
//!
//! * **Chain integrity** — the manager's recent chain is hash-linked
//!   with consecutive indices and intact Merkle roots,
//! * **Vehicle overlap** — no two non-crashed active vehicles occupy the
//!   same space (ground truth, independent of what any agent believes),
//! * **FSM consistency** — every benign vehicle's protocol state, guard
//!   flags and drive mode agree with each other,
//! * **Delivery order** — each receiver observes its messages in
//!   non-decreasing delivery-time order (the medium's reordering happens
//!   *before* delivery, never after).
//!
//! Violations accumulate into a structured [`InvariantReport`] instead
//! of panicking: a chaos sweep wants the full casualty list of a run,
//! not the first corpse.

use nwade_chain::Block;
use nwade_geometry::{GridIndex, Vec2};
use nwade_traffic::VehicleId;
use nwade_vanet::NodeId;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Which invariant was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// The manager's chain broke a hash link, skipped an index, or
    /// carries a block whose Merkle root does not match its plans.
    ChainIntegrity,
    /// Two active, non-crashed vehicles overlap in space.
    VehicleOverlap,
    /// A vehicle's FSM state, guard flags and drive mode disagree.
    FsmConsistency,
    /// A receiver saw a message with a delivery timestamp earlier than a
    /// previously delivered one.
    DeliveryOrder,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One recorded violation.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Simulation time of detection.
    pub time: f64,
    /// Violated invariant.
    pub kind: InvariantKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// How many violations are kept verbatim; beyond this only counters
/// grow (a broken invariant usually repeats every tick).
const KEPT_VIOLATIONS: usize = 64;

/// The structured outcome of a run's invariant checking.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// The first `KEPT_VIOLATIONS` violations, in detection order.
    pub violations: Vec<InvariantViolation>,
    /// Total count per kind (including dropped ones).
    pub counts: HashMap<InvariantKind, usize>,
}

impl InvariantReport {
    /// Total violations across all kinds.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// `true` when no invariant was ever violated.
    pub fn is_clean(&self) -> bool {
        self.counts.is_empty()
    }

    fn record(&mut self, time: f64, kind: InvariantKind, detail: String) {
        *self.counts.entry(kind).or_insert(0) += 1;
        if self.violations.len() < KEPT_VIOLATIONS {
            self.violations
                .push(InvariantViolation { time, kind, detail });
        }
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "all invariants held");
        }
        let mut kinds: Vec<_> = self.counts.iter().collect();
        kinds.sort_by_key(|(k, _)| format!("{k}"));
        for (i, (kind, count)) in kinds.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kind}: {count}")?;
        }
        Ok(())
    }
}

/// Snapshot of one vehicle handed to the checker each tick.
#[derive(Debug, Clone)]
pub struct VehicleSnapshot {
    /// Vehicle id.
    pub id: VehicleId,
    /// World position.
    pub position: Vec2,
    /// `true` while inside the modeled area.
    pub active: bool,
    /// `true` for attack participants (their deviations are the *point*,
    /// not a bug).
    pub malicious: bool,
    /// Guard's `is_evacuating()`.
    pub evacuating: bool,
    /// FSM state is `SelfEvacuation`.
    pub state_self_evacuation: bool,
    /// Drive mode is `SelfEvacuate`.
    pub mode_self_evacuate: bool,
}

/// Accumulates invariant violations over a run.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    report: InvariantReport,
    last_delivery: HashMap<NodeId, f64>,
    /// Overlapping pairs already reported (avoid one physical event
    /// flooding the report every tick).
    reported_overlaps: HashSet<(u64, u64)>,
    chain_broken: bool,
}

impl InvariantChecker {
    /// Fresh checker.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// The report so far (consume with [`InvariantChecker::finish`]).
    pub fn report(&self) -> &InvariantReport {
        &self.report
    }

    /// Takes the final report.
    pub fn finish(self) -> InvariantReport {
        self.report
    }

    /// Checks one delivered message's timestamp against the receiver's
    /// last one.
    pub fn note_delivery(&mut self, to: NodeId, at: f64, now: f64) {
        if let Some(prev) = self.last_delivery.get(&to) {
            if at < *prev - 1e-9 {
                self.report.record(
                    now,
                    InvariantKind::DeliveryOrder,
                    format!("{to} received a message stamped {at:.3} after one stamped {prev:.3}"),
                );
            }
        }
        let slot = self.last_delivery.entry(to).or_insert(at);
        if at > *slot {
            *slot = at;
        }
    }

    /// Verifies the manager-side chain: consecutive indices, intact hash
    /// links, and Merkle roots matching the carried plans. Reports once
    /// per run (a broken chain stays broken).
    pub fn check_chain(&mut self, blocks: &[Block], now: f64) {
        if self.chain_broken {
            return;
        }
        for b in blocks {
            if b.merkle_root() != b.computed_root() {
                self.chain_broken = true;
                self.report.record(
                    now,
                    InvariantKind::ChainIntegrity,
                    format!("block {} merkle root does not cover its plans", b.index()),
                );
                return;
            }
        }
        for pair in blocks.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if b.index() != a.index() + 1 {
                self.chain_broken = true;
                self.report.record(
                    now,
                    InvariantKind::ChainIntegrity,
                    format!("chain skips from index {} to {}", a.index(), b.index()),
                );
                return;
            }
            if b.prev_hash() != a.hash() {
                self.chain_broken = true;
                self.report.record(
                    now,
                    InvariantKind::ChainIntegrity,
                    format!("block {} does not link to block {}", b.index(), a.index()),
                );
                return;
            }
        }
    }

    /// Checks ground-truth vehicle separation and per-vehicle FSM
    /// consistency. `collided` holds pairs the physics layer already
    /// counted as accidents — those are known casualties, not fresh
    /// violations; `min_gap` is the center-to-center distance below
    /// which two vehicles count as overlapping.
    ///
    /// `grid` must index `vehicles` by position in slice order. Its
    /// candidates come back in ascending index order and pass through
    /// the same strict `< min_gap` predicate, so the pairs found — and
    /// the order they are recorded in — match the all-pairs sweep.
    pub fn check_vehicles(
        &mut self,
        vehicles: &[VehicleSnapshot],
        grid: &GridIndex,
        collided: &HashSet<(u64, u64)>,
        min_gap: f64,
        now: f64,
    ) {
        self.check_fsm(vehicles, now);
        for (i, a) in vehicles.iter().enumerate() {
            if !a.active {
                continue;
            }
            // Query returns ascending indices; keeping only j > i walks
            // the same (i, j) pairs the nested loop would.
            for j in grid.query(a.position, min_gap) {
                if j > i {
                    self.check_overlap(a, &vehicles[j], collided, min_gap, now);
                }
            }
        }
    }

    /// All-pairs oracle of [`InvariantChecker::check_vehicles`].
    #[cfg(test)]
    fn check_vehicles_all_pairs(
        &mut self,
        vehicles: &[VehicleSnapshot],
        collided: &HashSet<(u64, u64)>,
        min_gap: f64,
        now: f64,
    ) {
        self.check_fsm(vehicles, now);
        for (i, a) in vehicles.iter().enumerate() {
            if !a.active {
                continue;
            }
            for b in &vehicles[i + 1..] {
                self.check_overlap(a, b, collided, min_gap, now);
            }
        }
    }

    fn check_fsm(&mut self, vehicles: &[VehicleSnapshot], now: f64) {
        for v in vehicles {
            if v.malicious || !v.active {
                continue;
            }
            if v.evacuating != v.state_self_evacuation {
                self.report.record(
                    now,
                    InvariantKind::FsmConsistency,
                    format!(
                        "vehicle {}: guard evacuating={} but FSM self-evacuation={}",
                        v.id.raw(),
                        v.evacuating,
                        v.state_self_evacuation
                    ),
                );
            }
            if v.mode_self_evacuate && !v.evacuating {
                self.report.record(
                    now,
                    InvariantKind::FsmConsistency,
                    format!(
                        "vehicle {}: drives in self-evacuation without an evacuating guard",
                        v.id.raw()
                    ),
                );
            }
        }
    }

    fn check_overlap(
        &mut self,
        a: &VehicleSnapshot,
        b: &VehicleSnapshot,
        collided: &HashSet<(u64, u64)>,
        min_gap: f64,
        now: f64,
    ) {
        if !b.active {
            return;
        }
        let key = (a.id.raw().min(b.id.raw()), a.id.raw().max(b.id.raw()));
        if collided.contains(&key) || self.reported_overlaps.contains(&key) {
            return;
        }
        if a.position.distance(b.position) < min_gap {
            self.reported_overlaps.insert(key);
            self.report.record(
                now,
                InvariantKind::VehicleOverlap,
                format!(
                    "vehicles {} and {} overlap (gap < {min_gap:.2} m)",
                    key.0, key.1
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(vs: &[VehicleSnapshot]) -> GridIndex {
        let points: Vec<Vec2> = vs.iter().map(|v| v.position).collect();
        GridIndex::build(2.0, &points)
    }

    fn snapshot(id: u64, x: f64) -> VehicleSnapshot {
        VehicleSnapshot {
            id: VehicleId::new(id),
            position: Vec2::new(x, 0.0),
            active: true,
            malicious: false,
            evacuating: false,
            state_self_evacuation: false,
            mode_self_evacuate: false,
        }
    }

    #[test]
    fn delivery_order_violation_detected() {
        let mut c = InvariantChecker::new();
        c.note_delivery(NodeId::Vehicle(1), 1.0, 1.0);
        c.note_delivery(NodeId::Vehicle(1), 2.0, 2.0);
        assert!(c.report().is_clean());
        c.note_delivery(NodeId::Vehicle(1), 1.5, 2.5);
        assert_eq!(
            c.report().counts.get(&InvariantKind::DeliveryOrder),
            Some(&1)
        );
        // Distinct receivers have independent clocks.
        c.note_delivery(NodeId::Vehicle(2), 0.5, 2.6);
        assert_eq!(c.report().total(), 1);
    }

    #[test]
    fn overlap_reported_once_and_collisions_excluded() {
        let mut c = InvariantChecker::new();
        let vs = vec![snapshot(1, 0.0), snapshot(2, 0.5), snapshot(3, 100.0)];
        let collided = HashSet::new();
        c.check_vehicles(&vs, &grid(&vs), &collided, 2.0, 1.0);
        c.check_vehicles(&vs, &grid(&vs), &collided, 2.0, 1.1);
        assert_eq!(
            c.report().counts.get(&InvariantKind::VehicleOverlap),
            Some(&1),
            "same pair reported once"
        );
        // A pair the physics layer already counted as an accident is not
        // an invariant violation.
        let mut c = InvariantChecker::new();
        let collided: HashSet<_> = [(1, 2)].into_iter().collect();
        c.check_vehicles(&vs, &grid(&vs), &collided, 2.0, 1.0);
        assert!(c.report().is_clean());
    }

    #[test]
    fn fsm_inconsistency_detected() {
        let mut c = InvariantChecker::new();
        let mut v = snapshot(7, 0.0);
        v.mode_self_evacuate = true; // but guard not evacuating
        let vs = [v];
        c.check_vehicles(&vs, &grid(&vs), &HashSet::new(), 2.0, 3.0);
        assert_eq!(
            c.report().counts.get(&InvariantKind::FsmConsistency),
            Some(&1)
        );
        // Malicious vehicles are exempt: their deviation is the attack.
        let mut c = InvariantChecker::new();
        let mut v = snapshot(8, 0.0);
        v.mode_self_evacuate = true;
        v.malicious = true;
        let vs = [v];
        c.check_vehicles(&vs, &grid(&vs), &HashSet::new(), 2.0, 3.0);
        assert!(c.report().is_clean());
    }

    #[test]
    fn report_is_bounded_but_counts_everything() {
        let mut c = InvariantChecker::new();
        for i in 0..200 {
            c.note_delivery(NodeId::Vehicle(9), 100.0, 100.0);
            c.note_delivery(NodeId::Vehicle(9), (200 - i) as f64, 100.0);
        }
        let r = c.finish();
        assert!(r.violations.len() <= 64);
        assert!(r.total() >= 100);
        assert!(!format!("{r}").is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The gridded overlap sweep records the same violations, in the
        /// same order, as the all-pairs sweep: random layouts with
        /// inactive and malicious vehicles, known collisions, FSM
        /// mismatches, and a second pass that must not re-report.
        #[test]
        fn gridded_overlap_sweep_matches_all_pairs(
            layout in proptest::collection::vec(
                (-20.0..20.0f64, -20.0..20.0f64, any::<u8>()), 0..80),
            min_gap in 0.5..4.0f64,
            cell in 0.5..8.0f64,
            collided_every in 1usize..6,
        ) {
            let vs: Vec<VehicleSnapshot> = layout
                .iter()
                .enumerate()
                .map(|(i, &(x, y, flags))| VehicleSnapshot {
                    id: VehicleId::new(i as u64),
                    position: Vec2::new(x, y),
                    active: flags & 0x07 != 0,
                    malicious: flags & 0x38 == 0,
                    evacuating: flags & 0x40 != 0,
                    state_self_evacuation: flags & 0x40 != 0,
                    mode_self_evacuate: flags & 0x80 != 0,
                })
                .collect();
            let collided: HashSet<(u64, u64)> = (0..vs.len() as u64)
                .step_by(collided_every)
                .map(|i| (i, i + 1))
                .collect();
            let points: Vec<Vec2> = vs.iter().map(|v| v.position).collect();
            let grid = GridIndex::build(cell, &points);
            let mut gridded = InvariantChecker::new();
            let mut brute = InvariantChecker::new();
            for now in [1.0, 2.0] {
                gridded.check_vehicles(&vs, &grid, &collided, min_gap, now);
                brute.check_vehicles_all_pairs(&vs, &collided, min_gap, now);
            }
            let details = |c: &InvariantChecker| {
                c.report()
                    .violations
                    .iter()
                    .map(|v| v.detail.clone())
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(gridded.report().total(), brute.report().total());
            prop_assert_eq!(details(&gridded), details(&brute));
        }
    }
}
