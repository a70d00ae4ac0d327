//! Time-interval reservations over conflict-zone cells.
//!
//! The table keeps every zone's bookings **sorted by (start, end,
//! vehicle)**, each booking carrying the running maximum of interval
//! ends up to it. That makes conflict checks binary-searchable
//! (candidates are the prefix whose starts precede our end; the running
//! maximum cuts the backward scan as soon as no earlier booking can
//! still reach us), `release` O(holdings) via a vehicle→zones reverse
//! index instead of a full-table sweep, and — the piece the
//! slot-seeking planners build on — supports
//! [`ReservationTable::first_blocking`], which reports not just *that* a
//! placement conflicts but a proven lower bound on when the zone next
//! admits an interval of that shape.
//!
//! Lanes are keyed by [`ZoneId`] in a [`CellMap`]: zone cells come from
//! the topology's fixed grid, so they need no keyed hash (see
//! [`nwade_geometry::cell_hash`]). The vehicle→zones index keys on
//! identifiers that arrive over the medium and keeps std's hasher.

use bytes::{Buf, BufMut, BytesMut};
use nwade_geometry::{occupancy_interval, CellMap, MotionProfile, TimeInterval};
use nwade_intersection::{Movement, ZoneId};
use nwade_traffic::VehicleId;
use std::cmp::Ordering;
use std::collections::HashMap;

/// The zone occupancy of one plan: which cells it holds and when.
pub type Occupancy = Vec<(ZoneId, TimeInterval)>;

/// Computes the zone occupancy of `profile` along `movement` into a
/// caller-owned buffer (cleared first), so planners probing many
/// candidate entry times reuse one allocation.
///
/// A profile that brakes to a stop inside a cell holds that cell forever
/// (interval end `= ∞`) and occupies nothing beyond it.
pub fn occupancy_into(movement: &Movement, profile: &MotionProfile, out: &mut Occupancy) {
    out.clear();
    for zi in movement.zones() {
        if zi.exit <= profile.start_position() {
            continue; // already behind the vehicle
        }
        match occupancy_interval(profile, zi.enter.max(profile.start_position()), zi.exit) {
            Some(iv) => {
                let open_ended = iv.end.is_infinite();
                out.push((zi.zone, iv));
                if open_ended {
                    break; // stopped inside this cell
                }
            }
            None => break, // never reaches this cell
        }
    }
}

/// Computes the zone occupancy of `profile` along `movement`.
pub fn occupancy_of(movement: &Movement, profile: &MotionProfile) -> Occupancy {
    let mut out = Vec::with_capacity(movement.zones().len());
    occupancy_into(movement, profile, &mut out);
    out
}

/// Builds a "park" profile that brakes to a stop *without intruding on
/// existing reservations*: starting from the natural stopping distance,
/// the stop point is pulled back (allowing harder-than-comfort braking —
/// this is a jam, not a cruise) until the resulting occupancy is free.
/// As a last resort the vehicle halts in place.
///
/// Used as the saturated-intersection fallback by the scheduler and the
/// evacuation planner: the emitted plan may strand the vehicle, but it
/// never *plans a collision*, so vehicle-side block verification stays
/// clean.
pub fn park_fallback(
    movement: &Movement,
    position_s: f64,
    speed: f64,
    now: f64,
    table: &ReservationTable,
    gap: f64,
    vehicle: VehicleId,
    d_max: f64,
) -> (MotionProfile, Occupancy) {
    let natural = if speed > 0.0 {
        speed * speed / (2.0 * d_max)
    } else {
        0.0
    };
    let mut stop_dist = natural;
    let mut occupancy = Occupancy::new();
    loop {
        let profile = if stop_dist <= 0.01 || speed <= 0.01 {
            MotionProfile::stopped(now, position_s)
        } else {
            let rate = speed * speed / (2.0 * stop_dist);
            MotionProfile::new(
                now,
                position_s,
                speed,
                vec![nwade_geometry::ProfileSegment::new(speed / rate, -rate)],
            )
        };
        occupancy_into(movement, &profile, &mut occupancy);
        if stop_dist <= 0.01 || table.is_free(&occupancy, gap, Some(vehicle)) {
            return (profile, occupancy);
        }
        stop_dist = (stop_dist - 3.0).max(0.0);
    }
}

/// The first conflicting zone of a rejected booking attempt, plus a
/// proven bound the slot-seeking planners jump by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocking {
    /// The first zone (in occupancy order) with a conflict.
    pub zone: ZoneId,
    /// A vehicle holding a conflicting booking in that zone.
    pub holder: VehicleId,
    /// Every placement in this zone of an interval at least as long as
    /// the rejected one, starting at or before this time, still
    /// conflicts with some booking; the first feasible start is strictly
    /// later. `INFINITY` when an open-ended booking blocks forever.
    pub blocked_until: f64,
}

/// One booking of a zone lane.
#[derive(Debug, Clone, Copy)]
struct Booking {
    iv: TimeInterval,
    vehicle: VehicleId,
    /// The maximum `iv.end` over this booking and every one before it in
    /// the lane, for early exit in backward scans (ends are not sorted —
    /// long and open-ended intervals can precede short ones).
    max_end: f64,
}

/// One zone's bookings, sorted by (start, end, vehicle), in one vector.
#[derive(Debug, Clone, Default)]
struct ZoneLane {
    entries: Vec<Booking>,
}

fn lane_order(a: &Booking, iv: &TimeInterval, vehicle: VehicleId) -> Ordering {
    a.iv.start
        .partial_cmp(&iv.start)
        .unwrap_or(Ordering::Equal)
        .then(a.iv.end.partial_cmp(&iv.end).unwrap_or(Ordering::Equal))
        .then(a.vehicle.cmp(&vehicle))
}

impl ZoneLane {
    fn insert(&mut self, iv: TimeInterval, vehicle: VehicleId) {
        let pos = self
            .entries
            .partition_point(|b| lane_order(b, &iv, vehicle) == Ordering::Less);
        self.entries.insert(
            pos,
            Booking {
                iv,
                vehicle,
                max_end: f64::NEG_INFINITY,
            },
        );
        self.rebuild_max_from(pos);
    }

    /// Recomputes the running maximum from index `from` to the end.
    fn rebuild_max_from(&mut self, from: usize) {
        let mut run = match from.checked_sub(1) {
            Some(prev) => self.entries[prev].max_end,
            None => f64::NEG_INFINITY,
        };
        for booking in &mut self.entries[from..] {
            run = run.max(booking.iv.end);
            booking.max_end = run;
        }
    }

    fn remove_vehicle(&mut self, vehicle: VehicleId) {
        let first = self.entries.iter().position(|b| b.vehicle == vehicle);
        if let Some(first) = first {
            self.entries.retain(|b| b.vehicle != vehicle);
            self.rebuild_max_from(first);
        }
    }

    /// A booking conflicting with `iv` under `gap`, if any.
    ///
    /// Same predicate as [`TimeInterval::overlaps_with_gap`]: candidates
    /// are the sorted prefix with `start <= iv.end + gap`; scanning it
    /// backwards, once the running maximum of ends falls `gap` short of
    /// `iv.start` no earlier booking can overlap either.
    fn first_overlap(
        &self,
        iv: &TimeInterval,
        gap: f64,
        ignore: Option<VehicleId>,
    ) -> Option<(TimeInterval, VehicleId)> {
        let hi = self.entries.partition_point(|b| b.iv.start <= iv.end + gap);
        for b in self.entries[..hi].iter().rev() {
            if b.max_end + gap < iv.start {
                break;
            }
            if Some(b.vehicle) == ignore {
                continue;
            }
            if b.iv.end + gap >= iv.start {
                return Some((b.iv, b.vehicle));
            }
        }
        None
    }

    /// Walks the booking chain from `from`: returns a time `U >= from`
    /// such that **every** placement `[s, s + duration]` with
    /// `s ∈ [from, U]` conflicts with some booking (under `gap`). The
    /// first feasible start is therefore strictly greater than `U`.
    /// Returns `from` itself when nothing conflicts there.
    ///
    /// Soundness: entries are visited in ascending start order; whenever
    /// a booking `B` conflicts at the current bound (`B.end + gap >=
    /// until` and, by the not-yet-broken loop condition, `B.start <=
    /// until + duration + gap`), every `s ∈ (until, B.end + gap]` also
    /// satisfies both inequalities against `B`, extending the covered
    /// range. Once a booking starts beyond `until + duration + gap`, so
    /// does every later one, and none can touch a placement starting at
    /// or before `until`.
    fn blocked_until(&self, from: f64, duration: f64, gap: f64, ignore: Option<VehicleId>) -> f64 {
        let mut until = from;
        for Booking { iv: b, vehicle, .. } in &self.entries {
            if b.start > until + duration + gap {
                break;
            }
            if Some(*vehicle) == ignore {
                continue;
            }
            if b.end + gap >= until {
                until = until.max(b.end + gap);
                if until.is_infinite() {
                    return f64::INFINITY;
                }
            }
        }
        until
    }
}

/// A reservation table: for each zone cell, the time intervals already
/// promised to vehicles. The scheduler guarantees a configurable temporal
/// gap between any two reservations of the same cell.
#[derive(Debug, Clone, Default)]
pub struct ReservationTable {
    zones: CellMap<ZoneId, ZoneLane>,
    /// Which zones each vehicle holds bookings in (with multiplicity),
    /// so `release` touches only those lanes.
    holdings: HashMap<VehicleId, Vec<ZoneId>>,
}

impl ReservationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ReservationTable::default()
    }

    /// Returns the first conflicting `(zone, holder)` if `occupancy`
    /// cannot be booked with the required `gap` seconds between
    /// same-cell reservations, ignoring intervals held by `ignore`.
    pub fn first_conflict(
        &self,
        occupancy: &Occupancy,
        gap: f64,
        ignore: Option<VehicleId>,
    ) -> Option<(ZoneId, VehicleId)> {
        for (zone, iv) in occupancy {
            if let Some(lane) = self.zones.get(zone) {
                if let Some((_, holder)) = lane.first_overlap(iv, gap, ignore) {
                    return Some((*zone, holder));
                }
            }
        }
        None
    }

    /// Like [`ReservationTable::first_conflict`], but also reports how
    /// long the conflicting zone stays provably blocked for an interval
    /// of this shape — the jump bound the slot-seeking planners binary
    /// search against.
    pub fn first_blocking(
        &self,
        occupancy: &Occupancy,
        gap: f64,
        ignore: Option<VehicleId>,
    ) -> Option<Blocking> {
        for (zone, iv) in occupancy {
            if let Some(lane) = self.zones.get(zone) {
                if let Some((_, holder)) = lane.first_overlap(iv, gap, ignore) {
                    return Some(Blocking {
                        zone: *zone,
                        holder,
                        blocked_until: lane.blocked_until(iv.start, iv.duration(), gap, ignore),
                    });
                }
            }
        }
        None
    }

    /// `true` when `occupancy` can be booked.
    pub fn is_free(&self, occupancy: &Occupancy, gap: f64, ignore: Option<VehicleId>) -> bool {
        self.first_conflict(occupancy, gap, ignore).is_none()
    }

    /// Books `occupancy` for `vehicle` (no conflict check — call
    /// [`ReservationTable::is_free`] first).
    pub fn reserve(&mut self, vehicle: VehicleId, occupancy: &Occupancy) {
        if occupancy.is_empty() {
            return;
        }
        let held = self.holdings.entry(vehicle).or_default();
        for (zone, iv) in occupancy {
            self.zones.entry(*zone).or_default().insert(*iv, vehicle);
            held.push(*zone);
        }
    }

    /// Removes every reservation held by `vehicle`.
    pub fn release(&mut self, vehicle: VehicleId) {
        let Some(mut zones) = self.holdings.remove(&vehicle) else {
            return;
        };
        zones.sort_unstable();
        zones.dedup();
        for zone in zones {
            if let Some(lane) = self.zones.get_mut(&zone) {
                lane.remove_vehicle(vehicle);
                if lane.entries.is_empty() {
                    self.zones.remove(&zone);
                }
            }
        }
    }

    /// Drops reservations that ended before `t` (garbage collection).
    /// Only the sorted prefix with `start < t` is scanned: a booking
    /// starting at or after `t` ends at or after `t` too.
    pub fn release_before(&mut self, t: f64) {
        let mut dead: Vec<(VehicleId, ZoneId)> = Vec::new();
        for (zone, lane) in self.zones.iter_mut() {
            let cut = lane.entries.partition_point(|b| b.iv.start < t);
            if cut == 0 {
                continue;
            }
            let mut idx = 0usize;
            let mut first_removed = usize::MAX;
            lane.entries.retain(|b| {
                let keep = idx >= cut || b.iv.end >= t;
                if !keep {
                    dead.push((b.vehicle, *zone));
                    if first_removed == usize::MAX {
                        first_removed = idx;
                    }
                }
                idx += 1;
                keep
            });
            if first_removed != usize::MAX {
                lane.rebuild_max_from(first_removed);
            }
        }
        self.zones.retain(|_, lane| !lane.entries.is_empty());
        for (vehicle, zone) in dead {
            if let Some(held) = self.holdings.get_mut(&vehicle) {
                if let Some(pos) = held.iter().position(|z| *z == zone) {
                    held.swap_remove(pos);
                }
                if held.is_empty() {
                    self.holdings.remove(&vehicle);
                }
            }
        }
    }

    /// Bookings of one zone cell in (start, end, vehicle) order
    /// (diagnostics and tests).
    pub fn entries_at(&self, zone: ZoneId) -> Vec<(TimeInterval, VehicleId)> {
        self.zones
            .get(&zone)
            .map(|lane| lane.entries.iter().map(|b| (b.iv, b.vehicle)).collect())
            .unwrap_or_default()
    }

    /// Total number of booked intervals.
    pub fn len(&self) -> usize {
        self.zones.values().map(|lane| lane.entries.len()).sum()
    }

    /// `true` when no reservations exist.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Canonical snapshot encoding of every booked lane, used by the
    /// IM's durable-state snapshots. Zones are emitted in (col, row)
    /// order and entries in their sorted lane order, so two tables with
    /// the same bookings encode byte-identically regardless of insert
    /// history — differential tests compare these bytes directly.
    pub fn encode(&self) -> Vec<u8> {
        let mut zones: Vec<&ZoneId> = self.zones.keys().collect();
        zones.sort_unstable_by_key(|z| (z.col, z.row));
        let mut buf = BytesMut::with_capacity(16 + self.len() * 24);
        buf.put_u32(zones.len() as u32);
        for zone in zones {
            let lane = &self.zones[zone];
            buf.put_u32(zone.col as u32);
            buf.put_u32(zone.row as u32);
            buf.put_u32(lane.entries.len() as u32);
            for b in &lane.entries {
                buf.put_f64(b.iv.start);
                buf.put_f64(b.iv.end);
                buf.put_u64(b.vehicle.raw());
            }
        }
        buf.to_vec()
    }

    /// Rebuilds a table from a snapshot produced by
    /// [`ReservationTable::encode`]: `decode(encode(t))` books exactly
    /// the same intervals (and behaves identically under every table
    /// operation). Returns `None` on truncated input, trailing bytes,
    /// or intervals the table could never contain (`end < start`, NaN);
    /// never panics — the snapshot may come from a corrupt device.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut cursor = bytes;
        let mut table = ReservationTable::new();
        let n_zones = cursor.try_get_u32().ok()?;
        for _ in 0..n_zones {
            let zone = ZoneId {
                col: cursor.try_get_u32().ok()? as i32,
                row: cursor.try_get_u32().ok()? as i32,
            };
            let n_entries = cursor.try_get_u32().ok()?;
            for _ in 0..n_entries {
                let start = cursor.try_get_f64().ok()?;
                let end = cursor.try_get_f64().ok()?;
                if !(end >= start) {
                    return None;
                }
                let vehicle = VehicleId::new(cursor.try_get_u64().ok()?);
                table
                    .zones
                    .entry(zone)
                    .or_default()
                    .insert(TimeInterval { start, end }, vehicle);
                table.holdings.entry(vehicle).or_default().push(zone);
            }
        }
        cursor.is_empty().then_some(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};

    fn zid(c: i32, r: i32) -> ZoneId {
        ZoneId { col: c, row: r }
    }

    fn occ(zones: &[(ZoneId, f64, f64)]) -> Occupancy {
        zones
            .iter()
            .map(|(z, a, b)| (*z, TimeInterval::new(*a, *b)))
            .collect()
    }

    #[test]
    fn empty_table_is_free() {
        let t = ReservationTable::new();
        assert!(t.is_empty());
        assert!(t.is_free(&occ(&[(zid(0, 0), 0.0, 5.0)]), 1.0, None));
    }

    #[test]
    fn overlap_in_same_zone_conflicts() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        let conflict = t.first_conflict(&occ(&[(zid(0, 0), 4.0, 8.0)]), 0.0, None);
        assert_eq!(conflict, Some((zid(0, 0), VehicleId::new(1))));
        // Different zone: free.
        assert!(t.is_free(&occ(&[(zid(1, 0), 4.0, 8.0)]), 0.0, None));
    }

    #[test]
    fn gap_is_enforced() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        // Starts 0.5 s after the booking ends: fails with a 1 s gap.
        assert!(!t.is_free(&occ(&[(zid(0, 0), 5.5, 8.0)]), 1.0, None));
        assert!(t.is_free(&occ(&[(zid(0, 0), 6.5, 8.0)]), 1.0, None));
    }

    #[test]
    fn ignore_own_reservations() {
        let mut t = ReservationTable::new();
        let me = VehicleId::new(1);
        t.reserve(me, &occ(&[(zid(0, 0), 0.0, 5.0)]));
        assert!(t.is_free(&occ(&[(zid(0, 0), 2.0, 4.0)]), 1.0, Some(me)));
        assert!(!t.is_free(&occ(&[(zid(0, 0), 2.0, 4.0)]), 1.0, Some(VehicleId::new(2))));
    }

    #[test]
    fn release_frees_zones() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        t.reserve(VehicleId::new(2), &occ(&[(zid(0, 0), 10.0, 15.0)]));
        t.release(VehicleId::new(1));
        assert_eq!(t.len(), 1);
        assert!(t.is_free(&occ(&[(zid(0, 0), 0.0, 5.0)]), 1.0, None));
    }

    #[test]
    fn release_before_garbage_collects() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        t.reserve(VehicleId::new(2), &occ(&[(zid(0, 0), 10.0, 15.0)]));
        t.release_before(6.0);
        assert_eq!(t.len(), 1);
        assert!(t.is_free(&occ(&[(zid(0, 0), 0.0, 5.0)]), 1.0, None));
        assert!(!t.is_free(&occ(&[(zid(0, 0), 11.0, 12.0)]), 1.0, None));
    }

    #[test]
    fn open_ended_interval_blocks_forever() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 5.0, f64::INFINITY)]));
        assert!(!t.is_free(&occ(&[(zid(0, 0), 1e9, 1e9 + 1.0)]), 1.0, None));
        // But before it starts (minus gap) the zone is usable.
        assert!(t.is_free(&occ(&[(zid(0, 0), 0.0, 3.0)]), 1.0, None));
    }

    #[test]
    fn entries_stay_sorted_and_release_uses_holdings() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(3), &occ(&[(zid(0, 0), 10.0, 12.0)]));
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 20.0)]));
        t.reserve(
            VehicleId::new(2),
            &occ(&[(zid(0, 0), 5.0, 6.0), (zid(1, 0), 5.0, 6.0)]),
        );
        let entries = t.entries_at(zid(0, 0));
        let starts: Vec<f64> = entries.iter().map(|(iv, _)| iv.start).collect();
        assert_eq!(starts, vec![0.0, 5.0, 10.0]);
        // Long interval inserted first still found when probing late
        // (the running max of ends keeps the backward scan alive past
        // the short booking).
        assert!(!t.is_free(&occ(&[(zid(0, 0), 18.0, 19.0)]), 0.0, None));
        t.release(VehicleId::new(2));
        assert_eq!(t.len(), 2);
        assert!(t.entries_at(zid(1, 0)).is_empty());
        t.release(VehicleId::new(2)); // idempotent
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn blocked_until_walks_booking_chains() {
        let mut t = ReservationTable::new();
        // Chain: [0,5], [5.5,10], [10.5,15] with gap 1 the whole range
        // [0, 16] is blocked for any placement.
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        t.reserve(VehicleId::new(2), &occ(&[(zid(0, 0), 5.5, 10.0)]));
        t.reserve(VehicleId::new(3), &occ(&[(zid(0, 0), 10.5, 15.0)]));
        let b = t
            .first_blocking(&occ(&[(zid(0, 0), 1.0, 3.0)]), 1.0, None)
            .expect("conflicts");
        assert_eq!(b.zone, zid(0, 0));
        assert_eq!(b.blocked_until, 16.0);
        // Just past the bound the zone really is free.
        assert!(t.is_free(&occ(&[(zid(0, 0), 16.1, 18.0)]), 1.0, None));
        // An open-ended booking blocks forever — but only placements too
        // long for the [16, 19] hole chain into it.
        t.reserve(VehicleId::new(4), &occ(&[(zid(0, 0), 20.0, f64::INFINITY)]));
        let b = t
            .first_blocking(&occ(&[(zid(0, 0), 1.0, 3.0)]), 1.0, None)
            .expect("conflicts");
        assert_eq!(b.blocked_until, 16.0, "a 2 s placement still fits the hole");
        let b = t
            .first_blocking(&occ(&[(zid(0, 0), 1.0, 11.0)]), 1.0, None)
            .expect("conflicts");
        assert!(b.blocked_until.is_infinite());
    }

    #[test]
    fn blocked_until_ignores_own_bookings() {
        let mut t = ReservationTable::new();
        let me = VehicleId::new(7);
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        t.reserve(me, &occ(&[(zid(0, 0), 6.0, 100.0)]));
        let b = t
            .first_blocking(&occ(&[(zid(0, 0), 1.0, 3.0)]), 1.0, Some(me))
            .expect("still conflicts with V1");
        assert_eq!(b.holder, VehicleId::new(1));
        assert_eq!(b.blocked_until, 6.0);
    }

    #[test]
    fn snapshot_round_trips_bookings_and_behavior() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(3), &occ(&[(zid(0, 0), 10.0, 12.0)]));
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 20.0)]));
        t.reserve(
            VehicleId::new(2),
            &occ(&[(zid(-1, 2), 5.0, 6.0), (zid(1, 0), 5.0, f64::INFINITY)]),
        );
        let bytes = t.encode();
        let mut r = ReservationTable::decode(&bytes).expect("snapshot decodes");
        assert_eq!(r.len(), t.len());
        assert_eq!(r.encode(), bytes, "canonical bytes are a fixpoint");
        assert_eq!(r.entries_at(zid(0, 0)), t.entries_at(zid(0, 0)));
        // Restored table behaves identically.
        assert!(!r.is_free(&occ(&[(zid(1, 0), 1e9, 1e9 + 1.0)]), 1.0, None));
        r.release(VehicleId::new(2));
        t.release(VehicleId::new(2));
        assert_eq!(r.encode(), t.encode());
        r.release_before(15.0);
        t.release_before(15.0);
        assert_eq!(r.encode(), t.encode());
    }

    #[test]
    fn snapshot_decode_rejects_corrupt_input() {
        let mut t = ReservationTable::new();
        t.reserve(VehicleId::new(1), &occ(&[(zid(0, 0), 0.0, 5.0)]));
        let bytes = t.encode();
        for cut in 1..bytes.len() {
            assert!(ReservationTable::decode(&bytes[..cut]).is_none(), "{cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert!(ReservationTable::decode(&trailing).is_none());
        // Inverted interval (end < start) must be rejected.
        let mut bad = bytes;
        let start_off = 4 + 8 + 4;
        bad[start_off..start_off + 8].copy_from_slice(&9.0f64.to_be_bytes());
        assert!(ReservationTable::decode(&bad).is_none());
        // Empty snapshot decodes to an empty table.
        let empty = ReservationTable::new().encode();
        assert!(ReservationTable::decode(&empty).unwrap().is_empty());
    }

    #[test]
    fn occupancy_of_cruising_profile_covers_all_zones() {
        let topo = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
        let m = topo.movement(MovementId::new(0));
        let profile = MotionProfile::cruise(0.0, 10.0, m.path().length());
        let occ = occupancy_of(m, &profile);
        assert_eq!(occ.len(), m.zones().len());
        // Intervals are time-ordered and contiguous-ish.
        for w in occ.windows(2) {
            assert!(w[0].1.start <= w[1].1.start);
        }
    }

    #[test]
    fn occupancy_of_stopping_profile_truncates() {
        let topo = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
        let m = topo.movement(MovementId::new(0));
        // Brakes from 10 m/s: stops after ~16.7 m, far before the box.
        let profile = MotionProfile::brake_to_stop(0.0, 0.0, 10.0, 3.0);
        let occ = occupancy_of(m, &profile);
        assert!(occ.len() < m.zones().len());
        let last = occ.last().expect("some zones");
        assert!(last.1.end.is_infinite(), "parked cell held forever");
    }

    #[test]
    fn occupancy_skips_zones_behind_start() {
        let topo = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
        let m = topo.movement(MovementId::new(0));
        let mid = m.path().length() / 2.0;
        let profile = MotionProfile::new(0.0, mid, 10.0, vec![]);
        let occ = occupancy_of(m, &profile);
        assert!(occ.len() < m.zones().len());
        assert!(occ.iter().all(|(_, iv)| iv.start >= 0.0));
    }

    #[test]
    fn occupancy_into_reuses_buffer() {
        let topo = build(IntersectionKind::FourWayCross, &GeometryConfig::default());
        let m = topo.movement(MovementId::new(0));
        let mut buf = Occupancy::new();
        let p1 = MotionProfile::cruise(0.0, 10.0, m.path().length());
        occupancy_into(m, &p1, &mut buf);
        assert_eq!(buf, occupancy_of(m, &p1));
        let p2 = MotionProfile::brake_to_stop(0.0, 0.0, 10.0, 3.0);
        occupancy_into(m, &p2, &mut buf);
        assert_eq!(buf, occupancy_of(m, &p2));
    }
}
