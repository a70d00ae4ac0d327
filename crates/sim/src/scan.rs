//! Neighbourhood scans of the tick phases: whom a vehicle senses, who
//! makes it brake, and which pairs collide.
//!
//! Each scan runs over a [`GridIndex`] built from the same positions, in
//! the same order, as the slice it reads. A grid query returns, in
//! ascending index order, every point within a radius that bounds what
//! the scan's predicate can accept, and the scan filters them through
//! the predicate the all-pairs sweep applied, so the result (set *and*
//! order) is the all-pairs result. Those sweeps stay beside each scan
//! as test oracles.

use crate::vehicle::MAX_LATERAL;
use nwade_geometry::{GridIndex, Vec2};
use nwade_intersection::{LegId, MovementId};

/// Indices into `snapshot` a vehicle at `me` observes: everything within
/// `radius`, excluding itself, in ascending snapshot index (which is
/// ascending vehicle id). `grid` indexes the snapshot's positions.
pub(crate) fn observed_neighbors(
    snapshot: &[(u64, Vec2, f64)],
    grid: &GridIndex,
    self_id: u64,
    me: Vec2,
    radius: f64,
) -> Vec<usize> {
    let r_sq = radius * radius;
    grid.query(me, radius)
        .into_iter()
        .filter(|&i| snapshot[i].0 != self_id && snapshot[i].1.distance_sq(me) <= r_sq)
        .collect()
}

/// All-pairs oracle of [`observed_neighbors`].
#[cfg(test)]
fn observed_neighbors_all_pairs(
    snapshot: &[(u64, Vec2, f64)],
    self_id: u64,
    me: Vec2,
    radius: f64,
) -> Vec<usize> {
    let r_sq = radius * radius;
    snapshot
        .iter()
        .enumerate()
        .filter(|(_, (id, p, _))| *id != self_id && p.distance_sq(me) <= r_sq)
        .map(|(i, _)| i)
        .collect()
}

/// What the brake scan reads about one active vehicle.
#[derive(Debug, Clone)]
pub(crate) struct BrakeState {
    pub id: u64,
    pub pos: Vec2,
    pub heading: Vec2,
    pub speed: f64,
    pub s: f64,
    pub movement: MovementId,
    pub lane: (LegId, usize),
    pub in_approach: bool,
    pub malicious: bool,
    pub on_plan: bool,
    /// Farthest arclength the current plan ever reaches (parked plans
    /// stop short; everything else is unbounded).
    pub plan_cap: f64,
}

/// Whether obstacle `u` makes `v` brake. Every rule is distance-bounded
/// by [`brake_radius`].
fn obstructs(v: &BrakeState, u: &BrakeState, d_max: f64) -> bool {
    if u.id == v.id {
        return false;
    }
    let envelope = v.speed * v.speed / (2.0 * d_max) + 6.0;
    let cone = 3.0 + v.speed * 1.2; // one-plus time headway
                                    // A (near-)stopped obstacle on the own path or the shared approach
                                    // of the own lane, within braking range. Plans are conflict-free, so
                                    // moving plan-followers never need this; it fires for crash sites
                                    // and freshly stopped attackers the plans have not caught up with.
    let comparable =
        u.movement == v.movement || (u.lane == v.lane && u.in_approach && v.in_approach);
    // A follower whose own plan already stops short of the obstacle
    // needs no physical intervention.
    if comparable && u.s > v.s && v.plan_cap > u.s - 2.0 {
        // Off-plan leaders (evacuating, braking, attacking) may keep
        // slowing arbitrarily: keep the full relative stopping distance
        // to them. On-plan leaders are covered by the scheduler's zone
        // gaps unless they are (nearly) stopped.
        if !u.on_plan && u.speed < v.speed {
            let rel_stop = (v.speed * v.speed - u.speed * u.speed) / (2.0 * d_max) + 4.0;
            if u.s - v.s < rel_stop {
                return true;
            }
        }
        if u.speed < 3.0 && u.s - v.s < envelope {
            return true;
        }
    }
    // The world-space rules below exist for uncoordinated (off-plan)
    // traffic; two plan-followers are deconflicted by the scheduler, and
    // straight-line extrapolation would misfire at lane merges.
    if u.on_plan && v.on_plan {
        return false;
    }
    // Anything directly ahead inside the headway cone — this is what
    // keeps uncoordinated (self-evacuating) traffic from driving through
    // each other.
    let rel = u.pos - v.pos;
    let ahead = rel.dot(v.heading);
    if ahead > 0.0 && ahead < cone && rel.cross(v.heading).abs() < 2.2 {
        return true;
    }
    // Anticipated collision course: if straight-line motion brings the
    // two within 3.5 m in the next 2 s, brake — but never for traffic
    // *behind* (a leader braking for its follower freezes the closure
    // speed and guarantees the rear-end it was trying to avoid).
    if ahead > 0.0 && rel.norm() < 40.0 {
        let dv = u.heading * u.speed - v.heading * v.speed;
        let dv_sq = dv.norm_sq();
        let t_star = if dv_sq < 1e-9 {
            0.0
        } else {
            (-rel.dot(dv) / dv_sq).clamp(0.0, 2.0)
        };
        if (rel + dv * t_star).norm() < 3.5 {
            return true;
        }
    }
    false
}

/// Whether `v` runs the safety layer at all: attackers do not, and
/// stopped vehicles creep back up and re-check as soon as they move.
fn checks_brakes(v: &BrakeState) -> bool {
    v.speed >= 0.5 && !v.malicious
}

/// Conservative interaction radius of [`obstructs`] for a fleet whose
/// fastest vehicle drives at `max_speed`. The arclength rules reach at
/// most the braking envelope (paths are arclength-parameterized, so
/// world distance never exceeds the arclength gap plus both lateral
/// offsets); the headway cone reaches `cone`; the anticipation rule
/// reaches 40 m. Anything outside the radius cannot satisfy any rule,
/// so scanning only grid candidates is exact.
fn brake_radius(max_speed: f64, d_max: f64) -> f64 {
    (max_speed * max_speed / (2.0 * d_max) + 6.0)
        .max(3.0 + max_speed * 1.2)
        .max(40.0)
        + 2.0 * MAX_LATERAL
        + 4.0
}

/// Ids of the vehicles that must emergency-brake, in `states` order.
/// `grid` indexes the states' positions.
pub(crate) fn braking_ids(states: &[BrakeState], grid: &GridIndex, d_max: f64) -> Vec<u64> {
    let max_speed = states.iter().fold(0.0_f64, |m, s| m.max(s.speed));
    let radius = brake_radius(max_speed, d_max);
    states
        .iter()
        .filter(|v| {
            checks_brakes(v)
                && grid
                    .query(v.pos, radius)
                    .into_iter()
                    .any(|j| obstructs(v, &states[j], d_max))
        })
        .map(|v| v.id)
        .collect()
}

/// All-pairs oracle of [`braking_ids`].
#[cfg(test)]
fn braking_ids_all_pairs(states: &[BrakeState], d_max: f64) -> Vec<u64> {
    states
        .iter()
        .filter(|v| checks_brakes(v) && states.iter().any(|u| obstructs(v, u, d_max)))
        .map(|v| v.id)
        .collect()
}

/// Id pairs of `positions` closer than `distance`, in the order of the
/// nested loop `for i { for j in i+1.. }`. `grid` indexes the positions;
/// its ascending candidates with `j > i` walk exactly those pairs.
pub(crate) fn collision_pairs(
    positions: &[(u64, Vec2)],
    grid: &GridIndex,
    distance: f64,
) -> Vec<(u64, u64)> {
    let r_sq = distance * distance;
    let mut pairs = Vec::new();
    for (i, &(a, pa)) in positions.iter().enumerate() {
        for j in grid.query(pa, distance) {
            if j > i && pa.distance_sq(positions[j].1) < r_sq {
                pairs.push((a, positions[j].0));
            }
        }
    }
    pairs
}

/// All-pairs oracle of [`collision_pairs`].
#[cfg(test)]
fn collision_pairs_all_pairs(positions: &[(u64, Vec2)], distance: f64) -> Vec<(u64, u64)> {
    let r_sq = distance * distance;
    let mut pairs = Vec::new();
    for (i, &(a, pa)) in positions.iter().enumerate() {
        for &(b, pb) in &positions[i + 1..] {
            if pa.distance_sq(pb) < r_sq {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_neighbors_excludes_self_and_far() {
        let snapshot = vec![
            (10u64, Vec2::new(0.0, 0.0), 1.0),
            (20u64, Vec2::new(3.0, 0.0), 2.0),
            (30u64, Vec2::new(100.0, 0.0), 3.0),
        ];
        let grid = GridIndex::build(
            5.0,
            &[Vec2::ZERO, Vec2::new(3.0, 0.0), Vec2::new(100.0, 0.0)],
        );
        assert_eq!(
            observed_neighbors(&snapshot, &grid, 10, Vec2::ZERO, 5.0),
            vec![1]
        );
    }

    /// A vehicle on the +y axis at arclength `s`, `lateral` metres off
    /// its path.
    fn on_path(id: u64, s: f64, lateral: f64, speed: f64) -> BrakeState {
        BrakeState {
            id,
            pos: Vec2::new(lateral, s),
            heading: Vec2::new(0.0, 1.0),
            speed,
            s,
            movement: MovementId::new(0),
            lane: (LegId::new(0), 0),
            in_approach: true,
            malicious: false,
            on_plan: true,
            plan_cap: f64::INFINITY,
        }
    }

    fn brakes(states: &[BrakeState], d_max: f64) -> Vec<u64> {
        let points: Vec<Vec2> = states.iter().map(|s| s.pos).collect();
        let grid = GridIndex::build(60.0, &points);
        let braking = braking_ids(states, &grid, d_max);
        assert_eq!(braking, braking_ids_all_pairs(states, d_max));
        braking
    }

    #[test]
    fn stopped_leader_on_the_own_path_brakes_the_follower() {
        let states = vec![
            on_path(1, 0.0, 0.0, 15.0),
            on_path(2, 20.0, 0.0, 0.0),
            on_path(3, 300.0, 0.0, 15.0),
        ];
        assert_eq!(brakes(&states, 6.0), vec![1]);
    }

    /// The arclength rule fires at a gap just inside the envelope
    /// (22 m/s at 3 m/s² → 86.7 m), but opposite lateral offsets put the
    /// pair farther apart in the world than that: the radius must add
    /// both offsets.
    #[test]
    fn lateral_offsets_stay_inside_the_brake_radius() {
        let states = vec![
            on_path(1, 0.0, -MAX_LATERAL, 22.0),
            on_path(2, 86.0, MAX_LATERAL, 0.0),
        ];
        let envelope = 22.0 * 22.0 / (2.0 * 3.0) + 6.0;
        assert!(states[0].pos.distance(states[1].pos) > envelope);
        assert_eq!(brakes(&states, 3.0), vec![1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn grid_over(cell: f64, points: impl Iterator<Item = Vec2>) -> GridIndex {
        GridIndex::build(cell, &points.collect::<Vec<_>>())
    }

    proptest! {
        /// Grid sensing yields the all-pairs observation set, in the same
        /// order, for random layouts and sensing radii.
        #[test]
        fn grid_sensing_equals_brute_force(
            layout in proptest::collection::vec(
                (0u64..200, -400.0..400.0f64, -400.0..400.0f64, 0.0..30.0f64), 0..80),
            observer in 0usize..80,
            radius in 1.0..500.0f64,
        ) {
            let snapshot: Vec<(u64, Vec2, f64)> = layout
                .iter()
                .map(|(id, x, y, v)| (*id, Vec2::new(*x, *y), *v))
                .collect();
            // Cell size = sensing radius, as the sense pass builds it.
            let grid = grid_over(radius, snapshot.iter().map(|(_, p, _)| *p));
            let (self_id, me) = if snapshot.is_empty() {
                (0, Vec2::ZERO)
            } else {
                let o = &snapshot[observer % snapshot.len()];
                (o.0, o.1)
            };
            prop_assert_eq!(
                observed_neighbors(&snapshot, &grid, self_id, me, radius),
                observed_neighbors_all_pairs(&snapshot, self_id, me, radius)
            );
        }

        /// The grid brake scan brakes exactly the vehicles the all-pairs
        /// scan brakes, in the same order, for random fleets on a
        /// three-leg junction: six movements, two per approach lane, each
        /// a straight approach into the centre and a straight exit, with
        /// random arclengths, lateral offsets, speeds and plan states.
        /// Paths are arclength-parameterized, as the radius requires.
        #[test]
        fn grid_brake_scan_equals_all_pairs(
            layout in proptest::collection::vec(
                (0u16..6, 0.0..120.0f64, -1.0..1.0f64, 0.0..22.0f64,
                 (any::<u8>(), 0.0..150.0f64)),
                0..60),
            d_max in 3.0..8.0f64,
            cell in 10.0..80.0f64,
        ) {
            const BOX_ENTRY: f64 = 50.0;
            let states: Vec<BrakeState> = layout
                .iter()
                .enumerate()
                .map(|(i, &(movement, s, lateral, speed, (flags, cap)))| {
                    let lane = movement / 2;
                    let approach = Vec2::from_angle(f64::from(lane) * 2.1);
                    let turn = if movement % 2 == 0 { 0.8 } else { -0.8 };
                    let exit = Vec2::from_angle(f64::from(lane) * 2.1 + turn);
                    let heading = if s < BOX_ENTRY { approach } else { exit };
                    BrakeState {
                        id: i as u64,
                        pos: heading * (s - BOX_ENTRY) + heading.perp() * (lateral * MAX_LATERAL),
                        heading,
                        speed,
                        s,
                        movement: MovementId::new(movement),
                        lane: (LegId::new(lane as u8), 0),
                        in_approach: s < BOX_ENTRY,
                        malicious: flags & 0x1c == 0,
                        on_plan: flags & 0x20 != 0,
                        plan_cap: if flags & 0x40 != 0 { cap } else { f64::INFINITY },
                    }
                })
                .collect();
            let grid = grid_over(cell, states.iter().map(|s| s.pos));
            prop_assert_eq!(
                braking_ids(&states, &grid, d_max),
                braking_ids_all_pairs(&states, d_max)
            );
        }

        /// The grid collision scan finds the all-pairs collision list, in
        /// the nested loop's order.
        #[test]
        fn grid_collision_pairs_equal_all_pairs(
            layout in proptest::collection::vec((-30.0..30.0f64, -30.0..30.0f64), 0..120),
            distance in 0.5..6.0f64,
            cell in 1.0..12.0f64,
        ) {
            let positions: Vec<(u64, Vec2)> = layout
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (1000 + i as u64, Vec2::new(x, y)))
                .collect();
            let grid = grid_over(cell, positions.iter().map(|(_, p)| *p));
            prop_assert_eq!(
                collision_pairs(&positions, &grid, distance),
                collision_pairs_all_pairs(&positions, distance)
            );
        }
    }
}
