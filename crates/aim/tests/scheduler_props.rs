//! Property tests over the scheduler's public API: every plan it emits
//! must be physically lawful and mutually safe, for arbitrary request
//! streams — plus a differential property pinning the sorted
//! reservation table to a brute-force reference. The slot-seeking
//! search is pinned to the linear probe loop in `seek.rs`.

use nwade_aim::{
    find_conflicts, occupancy_of, PlanRequest, ReservationScheduler, ReservationTable, Scheduler,
    SchedulerConfig,
};
use nwade_geometry::TimeInterval;
use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology, ZoneId};
use nwade_traffic::{VehicleDescriptor, VehicleId};
use proptest::prelude::*;
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

fn check_scheduler(mut s: impl Scheduler, topo: &Topology, stream: Vec<(usize, f64, f64)>) {
    let v_max = SchedulerConfig::default().limits.v_max;
    let mut all = Vec::new();
    let mut clock: f64 = 0.0;
    for (i, (movement, speed, gap)) in stream.into_iter().enumerate() {
        clock += gap;
        let plans = s.schedule(&[request(i as u64, movement % 16, speed)], clock);
        all.extend(plans);
    }
    // 1. No two emitted plans conflict.
    assert!(
        find_conflicts(&all, topo, 0.5).is_empty(),
        "scheduler emitted conflicting plans"
    );
    for plan in &all {
        // 2. Speed stays within the limit at all times.
        for i in 0..400 {
            let v = plan.profile().speed_at(i as f64 * 0.5);
            assert!(v <= v_max + 1e-6, "{}: speed {v}", plan.id());
        }
        // 3. Occupancy intervals are ordered by entry time.
        let occ = occupancy_of(topo.movement(plan.movement()), plan.profile());
        for w in occ.windows(2) {
            assert!(w[0].1.start <= w[1].1.start + 1e-9);
        }
    }
}

/// Brute-force reference for [`ReservationTable`]: a flat list of
/// bookings, every query a full linear scan.
#[derive(Default)]
struct RefTable {
    entries: Vec<(ZoneId, TimeInterval, VehicleId)>,
}

impl RefTable {
    fn reserve(&mut self, vehicle: VehicleId, occ: &[(ZoneId, TimeInterval)]) {
        for (zone, iv) in occ {
            self.entries.push((*zone, *iv, vehicle));
        }
    }

    fn release(&mut self, vehicle: VehicleId) {
        self.entries.retain(|(_, _, v)| *v != vehicle);
    }

    fn release_before(&mut self, t: f64) {
        self.entries.retain(|(_, iv, _)| iv.end >= t);
    }

    fn conflicts_in_zone(
        &self,
        zone: ZoneId,
        iv: &TimeInterval,
        gap: f64,
        ignore: Option<VehicleId>,
    ) -> bool {
        self.entries
            .iter()
            .any(|(z, b, v)| *z == zone && Some(*v) != ignore && iv.overlaps_with_gap(b, gap))
    }

    fn first_conflict_zone(
        &self,
        occ: &[(ZoneId, TimeInterval)],
        gap: f64,
        ignore: Option<VehicleId>,
    ) -> Option<ZoneId> {
        occ.iter()
            .find(|(z, iv)| self.conflicts_in_zone(*z, iv, gap, ignore))
            .map(|(z, _)| *z)
    }
}

fn zid(i: usize) -> ZoneId {
    ZoneId {
        col: i as i32,
        row: 0,
    }
}

/// An op stream over both tables: bookings (durations past 18 s become
/// open-ended), releases, garbage collection.
type TableOps = (
    Vec<(u64, usize, f64, f64)>, // reserve: vehicle, zone, start, duration
    Vec<u64>,                    // release: vehicle
    Option<f64>,                 // release_before: cutoff
);

fn apply_ops(ops: &TableOps) -> (ReservationTable, RefTable) {
    let mut table = ReservationTable::new();
    let mut reference = RefTable::default();
    for (vehicle, zone, start, dur) in &ops.0 {
        let end = if *dur > 18.0 {
            f64::INFINITY
        } else {
            start + dur
        };
        let occ = vec![(zid(*zone), TimeInterval::new(*start, end))];
        table.reserve(VehicleId::new(*vehicle), &occ);
        reference.reserve(VehicleId::new(*vehicle), &occ);
    }
    for vehicle in &ops.1 {
        table.release(VehicleId::new(*vehicle));
        reference.release(VehicleId::new(*vehicle));
    }
    if let Some(t) = ops.2 {
        table.release_before(t);
        reference.release_before(t);
    }
    (table, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted interval table answers every conflict query exactly
    /// like the brute-force scan, and `first_blocking`'s bound is sound:
    /// every placement starting inside `[start, blocked_until]` really
    /// does conflict.
    #[test]
    fn sorted_table_matches_linear_reference(
        ops in (
            proptest::collection::vec((0u64..8, 0usize..6, 0.0..50.0f64, 0.1..25.0f64), 0..40),
            proptest::collection::vec(0u64..8, 0..4),
            (any::<bool>(), 0.0..60.0f64).prop_map(|(some, t)| some.then_some(t)),
        ),
        queries in proptest::collection::vec(
            (proptest::collection::vec((0usize..6, 0.0..60.0f64, 0.1..15.0f64), 1..4),
             0.0..3.0f64,
             (any::<bool>(), 0u64..8).prop_map(|(some, v)| some.then_some(v))),
            1..8),
    ) {
        let (table, reference) = apply_ops(&ops);
        for (occ_spec, gap, ignore) in &queries {
            let occ: Vec<(ZoneId, TimeInterval)> = occ_spec
                .iter()
                .map(|(z, s, d)| (zid(*z), TimeInterval::new(*s, s + d)))
                .collect();
            let ignore = ignore.map(VehicleId::new);
            // First conflicting entry in occupancy order (the occupancy
            // may legally list the same zone more than once).
            let hit = occ
                .iter()
                .position(|(z, iv)| reference.conflicts_in_zone(*z, iv, *gap, ignore));
            let expect = reference.first_conflict_zone(&occ, *gap, ignore);
            prop_assert_eq!(
                table.first_conflict(&occ, *gap, ignore).map(|(z, _)| z),
                expect
            );
            prop_assert_eq!(table.is_free(&occ, *gap, ignore), expect.is_none());
            if let Some(blocking) = table.first_blocking(&occ, *gap, ignore) {
                prop_assert_eq!(Some(blocking.zone), expect);
                let iv = occ[hit.expect("reference saw the conflict too")].1;
                let until = blocking.blocked_until;
                prop_assert!(until >= iv.start);
                let probes = if until.is_infinite() {
                    vec![iv.start, iv.start + 7.0, iv.start + 1000.0]
                } else {
                    (0..=4).map(|k| iv.start + (until - iv.start) * k as f64 / 4.0).collect()
                };
                for s in probes {
                    let placed = TimeInterval::new(s, s + iv.duration());
                    prop_assert!(
                        reference.conflicts_in_zone(blocking.zone, &placed, *gap, ignore),
                        "blocked_until {} claims start {} conflicts, reference disagrees",
                        until, s
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reservation_scheduler_always_safe(
        stream in proptest::collection::vec(
            (0usize..16, 5.0..22.0f64, 1.5..8.0f64), 1..15)
    ) {
        let topo = topo();
        check_scheduler(
            ReservationScheduler::new(topo.clone(), SchedulerConfig::default()),
            &topo,
            stream,
        );
    }
}
