//! Baseline: first-come-first-served full-intersection lock.
//!
//! The classic conservative policy — only one vehicle may be inside the
//! intersection box at a time. Used as the throughput baseline the
//! reservation scheduler is compared against.

use crate::plan::{PlanRequest, TravelPlan, VehicleStatus};
use crate::reservation::{occupancy_of, ReservationTable};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::seek::{EntrySeeker, SeekScratch};
use nwade_geometry::MotionProfile;
use nwade_intersection::Topology;
use std::sync::Arc;

/// The FCFS full-lock scheduler.
#[derive(Debug, Clone)]
pub struct FcfsScheduler {
    topology: Arc<Topology>,
    config: SchedulerConfig,
    table: ReservationTable,
    box_free_at: f64,
    scratch: SeekScratch,
}

impl FcfsScheduler {
    /// Creates the baseline scheduler.
    pub fn new(topology: Arc<Topology>, config: SchedulerConfig) -> Self {
        FcfsScheduler {
            topology,
            config,
            table: ReservationTable::new(),
            box_free_at: f64::NEG_INFINITY,
            scratch: SeekScratch::new(),
        }
    }

    fn plan_one(&mut self, req: &PlanRequest, now: f64) -> TravelPlan {
        let movement = self.topology.movement(req.movement);
        let path = movement.path();
        let lim = self.config.limits;
        let d_box = movement.box_entry() - req.position_s;
        let in_approach = d_box > 1.0;
        let d_plan = if in_approach {
            d_box
        } else {
            (path.length() - req.position_s).max(0.0)
        };
        let earliest =
            now + MotionProfile::earliest_arrival(req.speed, lim.v_max, lim.a_max, d_plan);
        // The global box lock only gates vehicles still approaching it.
        let target = if in_approach {
            earliest.max(self.box_free_at + self.config.zone_gap)
        } else {
            earliest
        };

        let seeker = EntrySeeker {
            movement,
            table: &self.table,
            gap: self.config.zone_gap,
            ignore: req.id,
            now,
            v0: req.speed,
            v_max: lim.v_max,
            a_max: lim.a_max,
            d_max: lim.d_max,
            d_plan,
            position_s: req.position_s,
            start: target,
            step: self.config.search_step,
            deadline: target + self.config.max_delay,
        };
        let (profile, occupancy) = seeker.seek(&mut self.scratch).unwrap_or_else(|| {
            crate::reservation::park_fallback(
                movement,
                req.position_s,
                req.speed.min(lim.v_max),
                now,
                &self.table,
                self.config.zone_gap,
                req.id,
                lim.d_max,
            )
        });

        // Hold the global box lock until this vehicle leaves the box.
        if let Some(exit) = profile.time_at_position(movement.box_exit()) {
            self.box_free_at = self.box_free_at.max(exit);
        }
        self.table.release(req.id);
        self.table.reserve(req.id, &occupancy);
        TravelPlan::new(
            req.id,
            req.descriptor.clone(),
            VehicleStatus {
                position: path.point_at(req.position_s),
                speed: req.speed,
                heading: path.heading_at(req.position_s),
            },
            req.movement,
            profile,
        )
    }
}

impl Scheduler for FcfsScheduler {
    fn schedule(&mut self, requests: &[PlanRequest], now: f64) -> Vec<TravelPlan> {
        crate::scheduler::batch_order(requests, &self.topology)
            .into_iter()
            .map(|r| self.plan_one(r, now))
            .collect()
    }

    fn collect_garbage(&mut self, t: f64) {
        self.table.release_before(t);
    }

    fn release(&mut self, vehicle: nwade_traffic::VehicleId) {
        self.table.release(vehicle);
    }

    fn book(&mut self, plan: &TravelPlan) {
        self.table.release(plan.id());
        let occupancy = occupancy_of(self.topology.movement(plan.movement()), plan.profile());
        self.table.reserve(plan.id(), &occupancy);
    }

    fn name(&self) -> &'static str {
        "fcfs-lock"
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn export_state(&self) -> crate::scheduler::SchedulerState {
        // The box-free horizon is durable state too: restoring only the
        // table would let a recovered IM re-admit a vehicle into the
        // box before the previous crossing finishes.
        crate::scheduler::SchedulerState {
            table: self.table.encode(),
            aux: self.box_free_at.to_be_bytes().to_vec(),
        }
    }

    fn import_state(&mut self, state: &crate::scheduler::SchedulerState) -> bool {
        let Some(table) = ReservationTable::decode(&state.table) else {
            return false;
        };
        let Ok(aux): Result<[u8; 8], _> = state.aux.as_slice().try_into() else {
            return false;
        };
        self.table = table;
        self.box_free_at = f64::from_be_bytes(aux);
        true
    }

    fn clone_box(&self) -> Box<dyn crate::scheduler::Scheduler + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::find_conflicts;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::{VehicleDescriptor, VehicleId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo() -> Arc<Topology> {
        Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ))
    }

    fn request(id: u64, movement: usize) -> PlanRequest {
        PlanRequest {
            id: VehicleId::new(id),
            descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
            movement: MovementId::new(movement as u16),
            position_s: 0.0,
            speed: 15.0,
        }
    }

    /// One request per batch, 4 s apart — matches how the simulator gates
    /// spawns so vehicles never materialize on top of each other.
    fn schedule_staggered<S: Scheduler>(s: &mut S, reqs: &[PlanRequest]) -> Vec<TravelPlan> {
        reqs.iter()
            .enumerate()
            .flat_map(|(i, r)| s.schedule(std::slice::from_ref(r), i as f64 * 4.0))
            .collect()
    }

    #[test]
    fn box_crossings_are_serialized() {
        let topo = topo();
        let mut s = FcfsScheduler::new(topo.clone(), SchedulerConfig::default());
        let plans = schedule_staggered(&mut s, &[request(0, 0), request(1, 5), request(2, 9)]);
        // Every pair of (box-entry, box-exit) windows must be disjoint.
        let mut windows: Vec<(f64, f64)> = plans
            .iter()
            .map(|p| {
                let m = topo.movement(p.movement());
                (
                    p.profile().time_at_position(m.box_entry()).expect("enters"),
                    p.profile().time_at_position(m.box_exit()).expect("exits"),
                )
            })
            .collect();
        windows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in windows.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "box windows overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        assert!(find_conflicts(&plans, &topo, 0.5).is_empty());
    }

    /// Denser stream (1.5 s apart) so the single-vehicle box lock binds.
    fn schedule_dense<S: Scheduler>(s: &mut S, reqs: &[PlanRequest]) -> Vec<TravelPlan> {
        reqs.iter()
            .enumerate()
            .flat_map(|(i, r)| s.schedule(std::slice::from_ref(r), i as f64 * 1.5))
            .collect()
    }

    #[test]
    fn fcfs_is_slower_than_reservation() {
        use crate::scheduler::ReservationScheduler;
        let topo = topo();
        let n = topo.movements().len();
        let reqs: Vec<PlanRequest> = (0..20).map(|i| request(i, (i as usize * 7) % n)).collect();
        let exit_sum = |plans: &[TravelPlan]| -> f64 {
            plans
                .iter()
                .map(|p| p.exit_time(&topo).unwrap_or(f64::INFINITY))
                .sum()
        };
        let mut fcfs = FcfsScheduler::new(topo.clone(), SchedulerConfig::default());
        let mut resv = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        let fcfs_total = exit_sum(&schedule_dense(&mut fcfs, &reqs));
        let resv_total = exit_sum(&schedule_dense(&mut resv, &reqs));
        assert!(
            resv_total < fcfs_total,
            "reservation ({resv_total:.0}) should beat FCFS ({fcfs_total:.0})"
        );
    }

    #[test]
    fn name_and_topology() {
        let topo = topo();
        let s = FcfsScheduler::new(topo.clone(), SchedulerConfig::default());
        assert_eq!(s.name(), "fcfs-lock");
        assert_eq!(s.topology().name(), "4-way cross");
    }
}
