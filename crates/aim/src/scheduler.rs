//! The reservation-based scheduler (DASH stand-in) and the
//! [`Scheduler`] trait the manager drives it through (tests substitute
//! fakes behind the same trait).

use crate::plan::{PlanRequest, TravelPlan, VehicleStatus};
use crate::reservation::{occupancy_of, ReservationTable};
use crate::seek::{EntrySeeker, SeekScratch};
use nwade_geometry::MotionProfile;
use nwade_intersection::{Movement, Topology};
use nwade_traffic::KinematicLimits;
use std::sync::Arc;

/// Scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Vehicle kinematic limits.
    pub limits: KinematicLimits,
    /// Required temporal gap between two reservations of one cell,
    /// seconds.
    pub zone_gap: f64,
    /// Entry-time search step, seconds.
    pub search_step: f64,
    /// Maximum extra delay the search will consider before giving up and
    /// holding the vehicle at the stop line, seconds.
    pub max_delay: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            limits: KinematicLimits::default(),
            zone_gap: 1.2,
            search_step: 0.5,
            max_delay: 240.0,
        }
    }
}

/// Planning distance and earliest kinematically possible arrival for a
/// request: plan to the box entry while approaching; a vehicle already
/// past it (recovery replan mid-crossing) is planned to the path end so
/// it actually drives out instead of freezing in place.
fn approach(movement: &Movement, req: &PlanRequest, lim: &KinematicLimits, now: f64) -> (f64, f64) {
    let d_box = movement.box_entry() - req.position_s;
    let d_plan = if d_box > 1.0 {
        d_box
    } else {
        (movement.path().length() - req.position_s).max(0.0)
    };
    let earliest = now + MotionProfile::earliest_arrival(req.speed, lim.v_max, lim.a_max, d_plan);
    (d_plan, earliest)
}

/// An intersection scheduler: turns plan requests into travel plans.
///
/// Implementations must be deterministic — the same request sequence must
/// yield the same plans, because the blockchain layer hashes plans and
/// vehicles recompute expectations from them.
pub trait Scheduler {
    /// Schedules a batch of requests at absolute time `now`.
    ///
    /// Returned plans are conflict-free among themselves and against all
    /// previously issued plans (checked by [`crate::find_conflicts`]).
    /// Every request gets exactly one plan, and each plan is booked as
    /// [`Scheduler::book`] would book it: a request no slot fits is
    /// parked ([`crate::reservation::park_fallback`]), never skipped.
    /// WAL replay relies on both. It books a committed block's plans and
    /// takes each request the block has no plan for as one the publish
    /// filter dropped.
    fn schedule(&mut self, requests: &[PlanRequest], now: f64) -> Vec<TravelPlan>;

    /// Forgets reservations that ended before `t`.
    fn collect_garbage(&mut self, t: f64);

    /// Releases the reservations of a vehicle that left or was re-planned.
    fn release(&mut self, vehicle: nwade_traffic::VehicleId);

    /// Books an externally computed plan (e.g. an evacuation plan) into
    /// the reservation state so subsequent scheduling respects it. Any
    /// prior reservations of the same vehicle are replaced.
    fn book(&mut self, plan: &TravelPlan);

    /// Captures the scheduler's durable state for an IM snapshot: the
    /// [`ReservationTable::encode`] bytes of its bookings. Importing them
    /// into a freshly built scheduler yields one that behaves identically
    /// to this one under every subsequent call.
    fn export_state(&self) -> Vec<u8>;

    /// Restores a [`Scheduler::export_state`] snapshot. Returns `false`
    /// (leaving the scheduler untouched) when the bytes are malformed —
    /// recovery then falls back to a cold restart.
    fn import_state(&mut self, state: &[u8]) -> bool;

    /// Deep copy behind the trait object. Forensic world snapshots clone
    /// the whole intersection manager, scheduler included; the copy must
    /// behave identically to the original under every subsequent call.
    fn clone_box(&self) -> Box<dyn Scheduler + Send>;
}

impl Clone for Box<dyn Scheduler + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The DASH stand-in: greedy earliest-feasible-entry reservation
/// scheduling over conflict-zone cells.
///
/// For each request the scheduler computes the earliest kinematically
/// possible arrival at the intersection box, then finds the first target
/// entry time on the [`SchedulerConfig::search_step`] grid whose whole
/// zone occupancy is bookable — by slot-seeking jumps over the table's
/// sorted interval lanes (see [`EntrySeeker::seek`]). The profile shape
/// comes from [`MotionProfile::arrive_at`]: adjust speed once, then
/// hold — gentle on passengers and easy for watchers to verify.
#[derive(Debug, Clone)]
pub struct ReservationScheduler {
    topology: Arc<Topology>,
    config: SchedulerConfig,
    table: ReservationTable,
    scratch: SeekScratch,
}

impl ReservationScheduler {
    /// Creates a scheduler for `topology`.
    pub fn new(topology: Arc<Topology>, config: SchedulerConfig) -> Self {
        ReservationScheduler {
            topology,
            config,
            table: ReservationTable::new(),
            scratch: SeekScratch::new(),
        }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Current number of booked intervals (for tests and load metrics).
    pub fn reservation_count(&self) -> usize {
        self.table.len()
    }

    /// Builds the plan for one request against the current table.
    fn plan_one(&mut self, req: &PlanRequest, now: f64) -> TravelPlan {
        let movement = self.topology.movement(req.movement);
        let path = movement.path();
        let lim = self.config.limits;
        let (d_plan, earliest) = approach(movement, req, &lim, now);

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
            start: earliest,
            step: self.config.search_step,
            deadline: earliest + self.config.max_delay,
        };
        let (profile, occupancy) = seeker.seek(&mut self.scratch).unwrap_or_else(|| {
            // Saturated intersection: park without intruding on anyone —
            // traffic jam semantics.
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

        self.table.release(req.id);
        self.table.reserve(req.id, &occupancy);
        let status = VehicleStatus {
            position: path.point_at(req.position_s),
            speed: req.speed,
            heading: path.heading_at(req.position_s),
        };
        TravelPlan::new(
            req.id,
            req.descriptor.clone(),
            status,
            req.movement,
            profile,
        )
    }
}

/// Orders a batch so vehicles closest to the intersection box are planned
/// first — a trailing vehicle must respect the reservations of the
/// vehicle physically ahead of it, never the other way around.
fn batch_order<'a>(requests: &'a [PlanRequest], topology: &Topology) -> Vec<&'a PlanRequest> {
    let mut order: Vec<&PlanRequest> = requests.iter().collect();
    order.sort_by(|a, b| {
        let da = topology.movement(a.movement).box_entry() - a.position_s;
        let db = topology.movement(b.movement).box_entry() - b.position_s;
        da.partial_cmp(&db)
            .expect("finite distances")
            .then(a.id.cmp(&b.id))
    });
    order
}

impl Scheduler for ReservationScheduler {
    fn schedule(&mut self, requests: &[PlanRequest], now: f64) -> Vec<TravelPlan> {
        batch_order(requests, &self.topology)
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

    fn export_state(&self) -> Vec<u8> {
        self.table.encode()
    }

    fn import_state(&mut self, state: &[u8]) -> bool {
        match ReservationTable::decode(state) {
            Some(table) => {
                self.table = table;
                true
            }
            None => false,
        }
    }

    fn clone_box(&self) -> Box<dyn Scheduler + Send> {
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

    fn request(id: u64, movement: usize, speed: f64) -> PlanRequest {
        PlanRequest {
            id: VehicleId::new(id),
            descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
            movement: MovementId::new(movement as u16),
            position_s: 0.0,
            speed,
        }
    }

    fn crossing_movements(topo: &Topology) -> (usize, usize) {
        // Two movements from *different legs* that share a zone (same-leg
        // pairs share the approach, which is a following constraint, not
        // a crossing).
        topo.conflicting_pairs()
            .iter()
            .map(|(a, b)| (a.index(), b.index()))
            .find(|(a, b)| topo.movements()[*a].from_leg() != topo.movements()[*b].from_leg())
            .expect("crossing pair exists")
    }

    /// Schedules each request in its own batch, 4 s apart — vehicles
    /// cannot physically spawn on top of each other, and the simulator
    /// gates spawns the same way.
    fn schedule_staggered<S: Scheduler>(s: &mut S, reqs: &[PlanRequest]) -> Vec<TravelPlan> {
        reqs.iter()
            .enumerate()
            .flat_map(|(i, r)| s.schedule(std::slice::from_ref(r), i as f64 * 4.0))
            .collect()
    }

    #[test]
    fn single_vehicle_gets_earliest_plan() {
        let topo = topo();
        let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        let req = request(0, 0, 15.0);
        let plans = s.schedule(std::slice::from_ref(&req), 100.0);
        assert_eq!(plans.len(), 1);
        let m = topo.movement(req.movement);
        let lim = SchedulerConfig::default().limits;
        let earliest =
            100.0 + MotionProfile::earliest_arrival(15.0, lim.v_max, lim.a_max, m.box_entry());
        let t_entry = plans[0]
            .profile()
            .time_at_position(m.box_entry())
            .expect("reaches box");
        assert!(
            (t_entry - earliest).abs() < 0.01,
            "entry {t_entry}, earliest {earliest}"
        );
    }

    #[test]
    fn conflicting_requests_are_serialized() {
        let topo = topo();
        let (ma, mb) = crossing_movements(&topo);
        let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        let plans = s.schedule(&[request(0, ma, 15.0), request(1, mb, 15.0)], 0.0);
        assert_eq!(plans.len(), 2);
        assert!(
            find_conflicts(&plans, &topo, 0.5).is_empty(),
            "scheduler produced conflicting plans"
        );
    }

    #[test]
    fn stream_of_many_requests_is_conflict_free() {
        let topo = topo();
        let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        let n_movements = topo.movements().len();
        let requests: Vec<PlanRequest> = (0..40)
            .map(|i| request(i, (i as usize * 7) % n_movements, 12.0))
            .collect();
        let plans = schedule_staggered(&mut s, &requests);
        assert_eq!(plans.len(), 40);
        assert!(
            find_conflicts(&plans, &topo, 0.5).is_empty(),
            "conflicts in a 40-vehicle stream"
        );
    }

    #[test]
    fn sequential_batches_respect_earlier_reservations() {
        let topo = topo();
        let (ma, mb) = crossing_movements(&topo);
        let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        let first = s.schedule(&[request(0, ma, 15.0)], 0.0);
        let second = s.schedule(&[request(1, mb, 15.0)], 2.0);
        let mut all = first;
        all.extend(second);
        assert!(find_conflicts(&all, &topo, 0.5).is_empty());
    }

    #[test]
    fn same_lane_followers_keep_spacing() {
        let topo = topo();
        let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
        // Three vehicles entering the same lane 4 s apart.
        let plans = schedule_staggered(
            &mut s,
            &[
                request(0, 0, 15.0),
                request(1, 0, 15.0),
                request(2, 0, 15.0),
            ],
        );
        assert!(find_conflicts(&plans, &topo, 0.5).is_empty());
        // Box-entry times are strictly increasing.
        let m = topo.movement(MovementId::new(0));
        let entries: Vec<f64> = plans
            .iter()
            .map(|p| {
                p.profile()
                    .time_at_position(m.box_entry())
                    .expect("arrives")
            })
            .collect();
        assert!(entries.windows(2).all(|w| w[1] > w[0] + 0.5));
    }

    #[test]
    fn garbage_collection_shrinks_table() {
        let topo = topo();
        let mut s = ReservationScheduler::new(topo, SchedulerConfig::default());
        s.schedule(&[request(0, 0, 15.0)], 0.0);
        let before = s.reservation_count();
        assert!(before > 0);
        s.collect_garbage(1e9);
        assert_eq!(s.reservation_count(), 0);
    }

    #[test]
    fn release_frees_a_vehicle() {
        let topo = topo();
        let mut s = ReservationScheduler::new(topo, SchedulerConfig::default());
        s.schedule(&[request(0, 0, 15.0)], 0.0);
        s.release(VehicleId::new(0));
        assert_eq!(s.reservation_count(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = topo();
        let run = || {
            let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
            let reqs: Vec<PlanRequest> =
                (0..10).map(|i| request(i, i as usize % 4, 12.0)).collect();
            s.schedule(&reqs, 0.0)
                .iter()
                .map(|p| p.encode())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn works_on_every_intersection_kind() {
        for kind in IntersectionKind::ALL {
            let topo = Arc::new(build(kind, &GeometryConfig::default()));
            let mut s = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
            let n = topo.movements().len();
            let reqs: Vec<PlanRequest> = (0..20)
                .map(|i| request(i, (i as usize * 3) % n, 12.0))
                .collect();
            let plans = schedule_staggered(&mut s, &reqs);
            assert!(
                find_conflicts(&plans, &topo, 0.5).is_empty(),
                "{kind}: conflicting plans"
            );
        }
    }
}
