//! The assembled intersection topology.

use crate::config::GeometryConfig;
use crate::ids::{LegId, MovementId, TurnKind, ZoneId};
use crate::movement::{Movement, ZoneInterval};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Topology::instance`] identities.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// One approach road of the intersection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Leg {
    id: LegId,
    /// Angle of the leg's outward direction from the intersection center.
    angle: f64,
    lanes_in: usize,
    lanes_out: usize,
}

impl Leg {
    /// Creates a leg.
    pub fn new(id: LegId, angle: f64, lanes_in: usize, lanes_out: usize) -> Self {
        Leg {
            id,
            angle,
            lanes_in,
            lanes_out,
        }
    }

    /// Leg id.
    pub fn id(&self) -> LegId {
        self.id
    }

    /// Outward angle in radians.
    pub fn angle(&self) -> f64 {
        self.angle
    }

    /// Number of incoming lanes.
    pub fn lanes_in(&self) -> usize {
        self.lanes_in
    }

    /// Number of outgoing lanes.
    pub fn lanes_out(&self) -> usize {
        self.lanes_out
    }
}

/// A complete intersection: legs, movements, and the conflict-zone grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    legs: Vec<Leg>,
    movements: Vec<Movement>,
    zone_cell: f64,
    /// Movements indexed by origin leg.
    #[serde(skip)]
    by_leg: HashMap<usize, Vec<MovementId>>,
    /// Process-unique identity of this assembly; see
    /// [`Topology::instance`].
    #[serde(skip, default = "next_instance")]
    instance: u64,
}

impl Topology {
    /// Assembles a topology, rasterizing every movement into zone
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if movement ids do not match their indices.
    pub fn assemble(
        name: impl Into<String>,
        legs: Vec<Leg>,
        mut movements: Vec<Movement>,
        config: &GeometryConfig,
    ) -> Self {
        for (i, m) in movements.iter().enumerate() {
            assert_eq!(m.id().index(), i, "movement ids must be dense indices");
        }
        for m in &mut movements {
            let zones = rasterize(m, config.zone_cell, config.zone_sample_step);
            m.set_zones(zones);
        }
        let mut by_leg: HashMap<usize, Vec<MovementId>> = HashMap::new();
        for m in &movements {
            by_leg.entry(m.from_leg().index()).or_default().push(m.id());
        }
        Topology {
            name: name.into(),
            legs,
            movements,
            zone_cell: config.zone_cell,
            by_leg,
            instance: next_instance(),
        }
    }

    /// Process-unique identity of this topology, shared by its clones (a
    /// topology never changes once assembled). Memos of per-topology
    /// results, such as a block's plan occupancies, key on it: two live
    /// topologies never share an instance, even at the same address.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The legs.
    pub fn legs(&self) -> &[Leg] {
        &self.legs
    }

    /// All movements.
    pub fn movements(&self) -> &[Movement] {
        &self.movements
    }

    /// A movement by id.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn movement(&self, id: MovementId) -> &Movement {
        &self.movements[id.index()]
    }

    /// Side length of the conflict-zone grid cells.
    pub fn zone_cell(&self) -> f64 {
        self.zone_cell
    }

    /// Movements originating from `leg`.
    pub fn movements_from(&self, leg: LegId) -> Vec<&Movement> {
        self.by_leg
            .get(&leg.index())
            .map(|ids| ids.iter().map(|id| self.movement(*id)).collect())
            .unwrap_or_default()
    }

    /// Movements terminating at `leg` — the flows a connected road link
    /// drains from this intersection toward a neighbour.
    pub fn movements_to(&self, leg: LegId) -> Vec<&Movement> {
        self.movements
            .iter()
            .filter(|m| m.to_leg() == leg)
            .collect()
    }

    /// Movements from `leg` with the given turn kind.
    pub fn movements_with_turn(&self, leg: LegId, turn: TurnKind) -> Vec<&Movement> {
        self.movements_from(leg)
            .into_iter()
            .filter(|m| m.turn() == turn)
            .collect()
    }

    /// Pairs of distinct movements that share at least one zone cell
    /// (and therefore can conflict in time).
    pub fn conflicting_pairs(&self) -> Vec<(MovementId, MovementId)> {
        let mut zone_users: HashMap<ZoneId, Vec<MovementId>> = HashMap::new();
        for m in &self.movements {
            let mut seen = HashSet::new();
            for z in m.zones() {
                if seen.insert(z.zone) {
                    zone_users.entry(z.zone).or_default().push(m.id());
                }
            }
        }
        let mut pairs = HashSet::new();
        for users in zone_users.values() {
            for i in 0..users.len() {
                for j in i + 1..users.len() {
                    let (a, b) = (users[i].min(users[j]), users[i].max(users[j]));
                    if a != b {
                        pairs.insert((a, b));
                    }
                }
            }
        }
        let mut v: Vec<_> = pairs.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.legs.is_empty() {
            return Err("topology has no legs".into());
        }
        if self.movements.is_empty() {
            return Err("topology has no movements".into());
        }
        for leg in &self.legs {
            if self.movements_from(leg.id()).is_empty() {
                return Err(format!("{} has no outgoing movements", leg.id()));
            }
        }
        for m in &self.movements {
            if m.zones().is_empty() {
                return Err(format!("{} has no zone intervals", m.id()));
            }
            if m.path().length() <= 0.0 {
                return Err(format!("{} has an empty path", m.id()));
            }
            if m.from_leg() == m.to_leg() {
                return Err(format!("{} is a U-turn, which is not modeled", m.id()));
            }
            // Zone intervals must cover the box portion of the path.
            let first = m.zones().first().expect("non-empty");
            let last = m.zones().last().expect("non-empty");
            if first.enter > m.box_entry() + self.zone_cell
                || last.exit < m.box_exit() - self.zone_cell
            {
                return Err(format!(
                    "{} zones [{:.1}, {:.1}] do not cover box [{:.1}, {:.1}]",
                    m.id(),
                    first.enter,
                    last.exit,
                    m.box_entry(),
                    m.box_exit()
                ));
            }
        }
        // Crossing movements from different legs must share a zone
        // somewhere, otherwise the scheduler would not serialize them.
        if self.conflicting_pairs().is_empty() {
            return Err("no two movements conflict; geometry is degenerate".into());
        }
        Ok(())
    }
}

/// Rasterizes a movement path into grid-cell intervals.
fn rasterize(movement: &Movement, cell: f64, step: f64) -> Vec<ZoneInterval> {
    let path = movement.path();
    let len = path.length();
    let mut out: Vec<ZoneInterval> = Vec::new();
    let mut current: Option<(ZoneId, f64)> = None;
    let mut s: f64 = 0.0;
    loop {
        let clamped = s.min(len);
        let p = path.point_at(clamped);
        let zone = ZoneId {
            col: (p.x / cell).floor() as i32,
            row: (p.y / cell).floor() as i32,
        };
        match current {
            Some((z, _)) if z == zone => {}
            Some((z, enter)) => {
                out.push(ZoneInterval {
                    zone: z,
                    enter,
                    exit: clamped,
                });
                current = Some((zone, clamped));
            }
            None => current = Some((zone, clamped)),
        }
        if s >= len {
            break;
        }
        s += step;
    }
    if let Some((z, enter)) = current {
        out.push(ZoneInterval {
            zone: z,
            enter,
            exit: len,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade_geometry::{Path, Vec2};

    fn simple_topology() -> Topology {
        let cfg = GeometryConfig::default();
        let legs = vec![
            Leg::new(LegId::new(0), 0.0, 1, 1),
            Leg::new(LegId::new(1), std::f64::consts::FRAC_PI_2, 1, 1),
        ];
        // Two crossing straight movements through the origin.
        let m0 = Movement::new(
            MovementId::new(0),
            LegId::new(0),
            0,
            LegId::new(1),
            TurnKind::Straight,
            Path::line(Vec2::new(-100.0, 0.0), Vec2::new(100.0, 0.0)),
            80.0,
            120.0,
        );
        let m1 = Movement::new(
            MovementId::new(1),
            LegId::new(1),
            0,
            LegId::new(0),
            TurnKind::Straight,
            Path::line(Vec2::new(0.0, -100.0), Vec2::new(0.0, 100.0)),
            80.0,
            120.0,
        );
        Topology::assemble("test-cross", legs, vec![m0, m1], &cfg)
    }

    #[test]
    fn assemble_rasterizes_zones() {
        let t = simple_topology();
        assert_eq!(t.name(), "test-cross");
        for m in t.movements() {
            assert!(!m.zones().is_empty());
            // Intervals tile the path: consecutive entries touch.
            for w in m.zones().windows(2) {
                assert!((w[0].exit - w[1].enter).abs() < 1e-9);
            }
            assert_eq!(m.zones().first().unwrap().enter, 0.0);
            assert!((m.zones().last().unwrap().exit - m.path().length()).abs() < 1e-9);
        }
    }

    #[test]
    fn crossing_movements_conflict() {
        let t = simple_topology();
        let pairs = t.conflicting_pairs();
        assert_eq!(pairs, vec![(MovementId::new(0), MovementId::new(1))]);
    }

    #[test]
    fn validate_accepts_simple_topology() {
        simple_topology().validate().expect("valid");
    }

    #[test]
    fn movements_from_and_turn_queries() {
        let t = simple_topology();
        assert_eq!(t.movements_from(LegId::new(0)).len(), 1);
        assert_eq!(t.movements_to(LegId::new(1)).len(), 1);
        assert_eq!(
            t.movements_to(LegId::new(1))[0].id(),
            MovementId::new(0),
            "movement 0 ends at leg 1"
        );
        assert!(t.movements_to(LegId::new(9)).is_empty());
        assert_eq!(
            t.movements_with_turn(LegId::new(0), TurnKind::Straight)
                .len(),
            1
        );
        assert!(t
            .movements_with_turn(LegId::new(0), TurnKind::Left)
            .is_empty());
        assert!(t.movements_from(LegId::new(9)).is_empty());
    }

    #[test]
    fn zone_count_scales_with_path_length() {
        let t = simple_topology();
        let m = t.movement(MovementId::new(0));
        // 200 m path with 3 m cells: roughly 67 zones.
        let n = m.zones().len();
        assert!((60..=75).contains(&n), "unexpected zone count {n}");
    }

    #[test]
    #[should_panic(expected = "dense indices")]
    fn wrong_ids_panic() {
        let cfg = GeometryConfig::default();
        let m = Movement::new(
            MovementId::new(5),
            LegId::new(0),
            0,
            LegId::new(1),
            TurnKind::Straight,
            Path::line(Vec2::ZERO, Vec2::new(10.0, 0.0)),
            0.0,
            10.0,
        );
        let _ = Topology::assemble("bad", vec![], vec![m], &cfg);
    }
}
