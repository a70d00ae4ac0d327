//! Slot-seeking entry-time search shared by the planners.
//!
//! Every scheduler used to walk the probe grid `{earliest + k·step}`
//! linearly: build the [`MotionProfile::arrive_at`] profile for the
//! target, compute its occupancy, test the table, step by
//! `search_step`, up to `max_delay / search_step` (≈ 480) probes per
//! request. [`EntrySeeker::seek`] answers the same question — the first
//! *grid point* whose occupancy books cleanly — by jumping: when a probe
//! conflicts, [`crate::ReservationTable::first_blocking`] reports how
//! long the conflicting zone stays provably blocked for an interval of
//! that shape, and a binary search over the remaining grid finds the
//! first target whose zone-entry time clears that bound (≈ log₂ 480 ≈ 9
//! profile builds per blocking episode).
//!
//! ## Why the result is bit-identical to the linear loop
//!
//! `arrive_at` ramps from the current speed to a hold speed `v` found by
//! bisection; a later target means a lower `v`, hence a pointwise slower
//! profile, hence, for every zone: a non-decreasing entry time, a
//! non-decreasing exit time, a non-decreasing crossing duration, and —
//! once the hold speed falls below the resolvable minimum — monotone
//! *absence* (the profile parks short of the zone). A placement
//! conflicts with a booking `B` iff `start ≤ B.end + gap` (and the
//! symmetric condition, which slower profiles keep satisfied), so
//! "clears the blocked range" is a monotone predicate of the grid index
//! and binary search skips exactly the grid points that still conflict.
//! The linear loop would have rejected every one of them, so both
//! searches land on the same grid point — and the grid itself is built
//! by the same accumulated `target += step` floats the linear loop
//! produces. The linear loop survives as the test oracle
//! `EntrySeeker::linear`, and a proptest over random tables and
//! request kinematics pins the two equal.

use crate::reservation::{occupancy_into, Occupancy, ReservationTable};
use nwade_geometry::MotionProfile;
use nwade_intersection::{Movement, ZoneId};
use nwade_traffic::VehicleId;

/// Reusable buffers for one scheduler: probing many candidate entry
/// times reuses these allocations instead of building fresh vectors per
/// probe.
#[derive(Debug, Clone, Default)]
pub struct SeekScratch {
    /// Occupancy at the current committed grid point.
    occupancy: Occupancy,
    /// Occupancy buffer for binary-search evaluations.
    probe: Occupancy,
    /// The probe grid (accumulated, see [`EntrySeeker::seek`]).
    targets: Vec<f64>,
}

impl SeekScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        SeekScratch::default()
    }
}

/// One entry-time search over the probe grid
/// `{start, start + step, …} ∩ [start, deadline]`.
#[derive(Debug)]
pub struct EntrySeeker<'a> {
    /// The movement being planned.
    pub movement: &'a Movement,
    /// The reservation table to book against.
    pub table: &'a ReservationTable,
    /// Temporal gap between same-cell reservations, seconds.
    pub gap: f64,
    /// The requesting vehicle (its own bookings are ignored).
    pub ignore: VehicleId,
    /// Absolute time the plan starts.
    pub now: f64,
    /// Current speed (clamped to `v_max` by `arrive_at`).
    pub v0: f64,
    /// Speed limit for the profile.
    pub v_max: f64,
    /// Acceleration limit.
    pub a_max: f64,
    /// Deceleration limit.
    pub d_max: f64,
    /// Distance the profile must cover.
    pub d_plan: f64,
    /// Arclength position the profile starts at.
    pub position_s: f64,
    /// First grid point (the earliest feasible arrival, possibly pushed
    /// back by scheduler-specific locks).
    pub start: f64,
    /// Grid spacing (`search_step`).
    pub step: f64,
    /// Last admissible target; grid points beyond it are not probed.
    pub deadline: f64,
}

impl EntrySeeker<'_> {
    /// The arrival profile targeting `target`, rebased to the request's
    /// arclength.
    pub fn profile_at(&self, target: f64) -> MotionProfile {
        MotionProfile::arrive_at(
            self.now,
            self.v0,
            self.v_max,
            self.a_max,
            self.d_max,
            self.d_plan,
            target - self.now,
        )
        .with_start_position(self.position_s)
    }

    /// The linear probe loop: the search [`EntrySeeker::seek`] replaced,
    /// kept as its test oracle.
    #[cfg(test)]
    fn linear(&self, scratch: &mut SeekScratch) -> Option<(MotionProfile, Occupancy)> {
        let mut target = self.start;
        loop {
            let profile = self.profile_at(target);
            occupancy_into(self.movement, &profile, &mut scratch.occupancy);
            if self
                .table
                .is_free(&scratch.occupancy, self.gap, Some(self.ignore))
            {
                return Some((profile, scratch.occupancy.clone()));
            }
            target += self.step;
            if target > self.deadline {
                return None;
            }
        }
    }

    /// Slot-seeking search: the first grid point whose occupancy books
    /// cleanly, in O(blocking episodes × log grid) probes instead of the
    /// linear loop's O(grid).
    pub fn seek(&self, scratch: &mut SeekScratch) -> Option<(MotionProfile, Occupancy)> {
        // Build the grid by the same accumulation the linear loop runs
        // (`target += step`), so grid point k is bit-for-bit the float
        // the linear search would probe.
        scratch.targets.clear();
        let mut t = self.start;
        loop {
            scratch.targets.push(t);
            t += self.step;
            if t > self.deadline {
                break;
            }
        }
        let kmax = scratch.targets.len() - 1;

        let mut k = 0usize;
        let mut profile = self.profile_at(scratch.targets[0]);
        occupancy_into(self.movement, &profile, &mut scratch.occupancy);
        loop {
            let Some(blocking) =
                self.table
                    .first_blocking(&scratch.occupancy, self.gap, Some(self.ignore))
            else {
                return Some((profile, scratch.occupancy.clone()));
            };
            if k == kmax {
                return None; // the linear loop would step past the deadline
            }
            // Clear-predicate: the zone's entry time moves past the
            // blocked range — or, when an open-ended booking blocks
            // forever, the profile parks short of the zone entirely
            // (entry = ∞). Monotone in k (see module docs).
            let until = blocking.blocked_until;
            let clears = |entry: f64| {
                if until.is_infinite() {
                    entry.is_infinite()
                } else {
                    entry > until
                }
            };
            if !clears(self.zone_entry(scratch.targets[kmax], blocking.zone, &mut scratch.probe)) {
                // Even the last grid point still conflicts with this
                // chain — so does everything between (monotonicity).
                return None;
            }
            let (mut lo, mut hi) = (k, kmax);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if clears(self.zone_entry(scratch.targets[mid], blocking.zone, &mut scratch.probe))
                {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            k = hi;
            profile = self.profile_at(scratch.targets[k]);
            occupancy_into(self.movement, &profile, &mut scratch.occupancy);
        }
    }

    /// Entry time of `zone` for the profile targeting `target`, or `∞`
    /// when that profile never reaches the zone (slower profiles park
    /// short of it).
    fn zone_entry(&self, target: f64, zone: ZoneId, buf: &mut Occupancy) -> f64 {
        let p = self.profile_at(target);
        occupancy_into(self.movement, &p, buf);
        buf.iter()
            .find(|(z, _)| *z == zone)
            .map_or(f64::INFINITY, |(_, iv)| iv.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanRequest;
    use nwade_geometry::TimeInterval;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology};
    use nwade_traffic::{KinematicLimits, VehicleDescriptor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

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

    fn seeker<'a>(
        topo: &'a Topology,
        table: &'a ReservationTable,
        req: &PlanRequest,
        now: f64,
    ) -> EntrySeeker<'a> {
        let lim = KinematicLimits::default();
        let movement = topo.movement(req.movement);
        let d_plan = movement.box_entry() - req.position_s;
        let earliest =
            now + MotionProfile::earliest_arrival(req.speed, lim.v_max, lim.a_max, d_plan);
        EntrySeeker {
            movement,
            table,
            gap: 1.2,
            ignore: req.id,
            now,
            v0: req.speed,
            v_max: lim.v_max,
            a_max: lim.a_max,
            d_max: lim.d_max,
            d_plan,
            position_s: req.position_s,
            start: earliest,
            step: 0.5,
            deadline: earliest + 240.0,
        }
    }

    /// Seek and the retained linear loop agree — empty table, contended
    /// table, and a table blocked forever by an open-ended booking.
    #[test]
    fn seek_matches_linear() {
        let topo = topo();
        let mut table = ReservationTable::new();
        let mut scratch = SeekScratch::new();
        let req = request(1, 0, 15.0);

        // Empty table: both take the earliest grid point.
        let s = seeker(&topo, &table, &req, 0.0);
        let a = s.linear(&mut scratch);
        let b = s.seek(&mut scratch);
        assert_eq!(a, b);

        // Book a same-lane leader and a crossing stream (staggered 4 s
        // apart — vehicles cannot spawn on top of each other), then
        // re-plan against the populated table.
        let (_, lead_occ) = a.expect("books on an empty table");
        table.reserve(VehicleId::new(0), &lead_occ);
        for i in 0..6 {
            let other = request(100 + i, 5, 13.0);
            let so = seeker(&topo, &table, &other, 4.0 * i as f64);
            let got = so.seek(&mut scratch);
            assert_eq!(got, so.linear(&mut scratch), "request {i}");
            let got = got.expect("schedules");
            table.reserve(other.id, &got.1);
        }
        let follow = request(2, 0, 15.0);
        let sf = seeker(&topo, &table, &follow, 4.0);
        assert_eq!(sf.seek(&mut scratch), sf.linear(&mut scratch));

        // A zone blocked forever: both paths must give up identically.
        let (z, _) = lead_occ.first().expect("lead occupies at least one zone");
        let mut forever = ReservationTable::new();
        forever.reserve(
            VehicleId::new(9),
            &vec![(*z, TimeInterval::new(0.0, f64::INFINITY))],
        );
        let s = seeker(&topo, &forever, &req, 0.0);
        assert_eq!(s.seek(&mut scratch), s.linear(&mut scratch));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reservation::occupancy_of;
    use nwade_geometry::TimeInterval;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::KinematicLimits;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `seek` returns exactly what the linear loop returns, over
        /// random tables (the box-and-beyond zones of random movements'
        /// arrival profiles, delayed at random, one in 128 holding its
        /// first zone forever) and random
        /// request kinematics: speed, speed cap (evacuation lowers it),
        /// start position, planning to the box or to the path end, and a
        /// first grid point pushed past the earliest arrival (no planner
        /// does that today; the search must not depend on it).
        #[test]
        fn seek_equals_linear(
            bookings in proptest::collection::vec(
                (0usize..16, 0.0..20.0f64, 3.0..22.0f64, 0.0..20.0f64, 0u8..128), 0..60),
            request in (0usize..16, 0.0..22.0f64, 0.0..1.0f64, any::<bool>()),
            timing in (0.0..20.0f64, 0.0..12.0f64, 0.3..1.0f64),
            step in 0.25..1.0f64,
        ) {
            let topo = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
            let lim = KinematicLimits::default();
            let mut table = ReservationTable::new();
            for (i, &(movement, at, speed, delay, open)) in bookings.iter().enumerate() {
                let movement = topo.movement(MovementId::new(movement as u16));
                let d = movement.box_entry();
                let earliest = MotionProfile::earliest_arrival(speed, lim.v_max, lim.a_max, d);
                let profile = MotionProfile::arrive_at(
                    at, speed, lim.v_max, lim.a_max, lim.d_max, d, earliest + delay,
                );
                // Only the box and beyond: a booking on the request's own
                // approach lane would block its first metres at every target.
                let entry = profile.time_at_position(d).unwrap_or(f64::INFINITY);
                let mut occupancy = occupancy_of(movement, &profile);
                occupancy.retain(|(_, iv)| iv.start >= entry);
                if open == 0 {
                    if let Some((_, iv)) = occupancy.first_mut() {
                        *iv = TimeInterval::new(iv.start, f64::INFINITY);
                    }
                }
                table.reserve(VehicleId::new(i as u64 + 1), &occupancy);
            }

            let (movement, speed, along, to_end) = request;
            let (now, push, cap) = timing;
            let movement = topo.movement(MovementId::new(movement as u16));
            let v_max = lim.v_max * cap;
            let v0 = speed.min(v_max);
            let (position_s, d_plan) = if to_end {
                let s = along * movement.path().length();
                (s, movement.path().length() - s)
            } else {
                let s = along * movement.box_entry();
                (s, movement.box_entry() - s)
            };
            let start = now
                + MotionProfile::earliest_arrival(v0, v_max, lim.a_max, d_plan)
                + push;
            let seeker = EntrySeeker {
                movement,
                table: &table,
                gap: 1.2,
                ignore: VehicleId::new(0),
                now,
                v0,
                v_max,
                a_max: lim.a_max,
                d_max: lim.d_max,
                d_plan,
                position_s,
                start,
                step,
                deadline: start + 240.0,
            };
            let mut scratch = SeekScratch::new();
            prop_assert_eq!(seeker.seek(&mut scratch), seeker.linear(&mut scratch));
        }
    }
}
