//! The conflict check a vehicle runs on a batch of travel plans.
//!
//! Algorithm 1 (step ii) has each vehicle "calculate the travel plans in
//! the block to see if the plans contain any conflict (i.e., car
//! collision)". The check here uses the same zone-occupancy semantics as
//! the scheduler, so an honest scheduler's output always passes and any
//! tampered or equivocating plan set is caught deterministically.

use crate::plan::TravelPlan;
use crate::reservation::{occupancy_of, Occupancy, ReservationTable};
use nwade_intersection::Topology;
use nwade_traffic::VehicleId;

/// Returns every pair of plans that would occupy the same conflict-zone
/// cell with less than `gap` seconds of separation, ordered and deduped.
///
/// An empty result means the plan set is collision-free under the
/// scheduler's own safety criterion.
pub fn find_conflicts(
    plans: &[TravelPlan],
    topology: &Topology,
    gap: f64,
) -> Vec<(VehicleId, VehicleId)> {
    let occupancies: Vec<Occupancy> = plans
        .iter()
        .map(|plan| occupancy_of(topology.movement(plan.movement()), plan.profile()))
        .collect();
    reserve_checked(&mut ReservationTable::new(), plans, &occupancies, gap)
}

/// [`find_conflicts`] over occupancies the caller already holds
/// (`occupancies[i]` belongs to `plans[i]`), booking every plan into
/// `table` on the way: each plan is checked against the bookings before
/// it (other vehicles' only) and then booked, and the result pairs each
/// conflicting plan with the first holder found, ordered and deduped.
/// The filled table is left for further probes.
///
/// # Panics
///
/// Panics when the two slices differ in length.
pub fn reserve_checked(
    table: &mut ReservationTable,
    plans: &[TravelPlan],
    occupancies: &[Occupancy],
    gap: f64,
) -> Vec<(VehicleId, VehicleId)> {
    assert_eq!(plans.len(), occupancies.len(), "one occupancy per plan");
    let mut conflicts = Vec::new();
    for (plan, occupancy) in plans.iter().zip(occupancies) {
        if let Some((_, holder)) = table.first_conflict(occupancy, gap, Some(plan.id())) {
            let pair = (holder.min(plan.id()), holder.max(plan.id()));
            conflicts.push(pair);
        }
        table.reserve(plan.id(), occupancy);
    }
    conflicts.sort_unstable();
    conflicts.dedup();
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::VehicleStatus;
    use nwade_geometry::MotionProfile;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo() -> Topology {
        build(IntersectionKind::FourWayCross, &GeometryConfig::default())
    }

    fn plan(topo: &Topology, id: u64, movement: MovementId, start_time: f64) -> TravelPlan {
        let path = topo.movement(movement).path();
        TravelPlan::new(
            VehicleId::new(id),
            VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
            VehicleStatus {
                position: path.point_at(0.0),
                speed: 15.0,
                heading: path.heading_at(0.0),
            },
            movement,
            MotionProfile::cruise(start_time, 15.0, path.length()),
        )
    }

    #[test]
    fn simultaneous_crossing_plans_conflict() {
        let topo = topo();
        let (a, b) = topo.conflicting_pairs()[0];
        let pa = plan(&topo, 0, a, 0.0);
        let pb = plan(&topo, 1, b, 0.0);
        let conflicts = find_conflicts(&[pa, pb], &topo, 1.0);
        assert_eq!(conflicts, vec![(VehicleId::new(0), VehicleId::new(1))]);
    }

    #[test]
    fn staggered_crossing_plans_are_clean() {
        let topo = topo();
        let (a, b) = topo.conflicting_pairs()[0];
        let pa = plan(&topo, 0, a, 0.0);
        // 60 s later: all shared cells long vacated.
        let pb = plan(&topo, 1, b, 60.0);
        assert!(find_conflicts(&[pa, pb], &topo, 1.0).is_empty());
    }

    #[test]
    fn conflict_reported_once_per_pair() {
        let topo = topo();
        let (a, b) = topo.conflicting_pairs()[0];
        // Crossing paths share many cells; the pair must appear once.
        let plans = vec![plan(&topo, 0, a, 0.0), plan(&topo, 1, b, 0.0)];
        assert_eq!(find_conflicts(&plans, &topo, 1.0).len(), 1);
    }

    #[test]
    fn empty_and_singleton_sets_are_clean() {
        let topo = topo();
        assert!(find_conflicts(&[], &topo, 1.0).is_empty());
        let p = plan(&topo, 0, MovementId::new(0), 0.0);
        assert!(find_conflicts(&[p], &topo, 1.0).is_empty());
    }

    #[test]
    fn tailgating_same_lane_conflicts() {
        let topo = topo();
        let m = MovementId::new(0);
        // Two vehicles on the same movement 0.2 s apart: same cells,
        // overlapping occupancy.
        let plans = vec![plan(&topo, 0, m, 0.0), plan(&topo, 1, m, 0.2)];
        assert_eq!(find_conflicts(&plans, &topo, 1.0).len(), 1);
    }
}
