//! Time intervals a motion profile spends on a stretch of its path.
//!
//! A vehicle occupies a conflict zone from the instant its profile
//! reaches the zone's entry to the instant it reaches the exit.
//! `nwade-aim` books these intervals per zone cell; two plans conflict
//! when their intervals on one cell overlap (with a safety gap).

use crate::MotionProfile;
use serde::{Deserialize, Serialize};

/// A closed time interval `[start, end]` in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeInterval {
    /// Interval start (inclusive).
    pub start: f64,
    /// Interval end (inclusive). May be `f64::INFINITY` for "never exits".
    pub end: f64,
}

impl TimeInterval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: f64, end: f64) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        TimeInterval { start, end }
    }

    /// `true` when the two intervals overlap, treating each as padded by
    /// `gap / 2` on both sides (i.e. requiring a temporal buffer of `gap`).
    pub fn overlaps_with_gap(&self, other: &TimeInterval, gap: f64) -> bool {
        self.start <= other.end + gap && other.start <= self.end + gap
    }

    /// `true` when the two intervals overlap at all.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.overlaps_with_gap(other, 0.0)
    }

    /// Duration of the interval.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The time interval during which `profile` occupies arclength positions
/// `[s0, s1]` of its path, or `None` if it never enters.
///
/// `s1` may lie beyond the reachable range, in which case the exit time is
/// `f64::INFINITY` only if the vehicle stops inside the zone; otherwise it
/// is the crossing time of `s1`.
pub fn occupancy_interval(profile: &MotionProfile, s0: f64, s1: f64) -> Option<TimeInterval> {
    assert!(s1 >= s0, "zone exit {s1} precedes entry {s0}");
    let entry = profile.time_at_position(s0)?;
    let exit = profile.time_at_position(s1).unwrap_or(f64::INFINITY);
    Some(TimeInterval::new(entry, exit.max(entry)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_overlap_rules() {
        let a = TimeInterval::new(0.0, 5.0);
        let b = TimeInterval::new(4.0, 8.0);
        let c = TimeInterval::new(6.0, 8.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        // With a 2-second required gap, a and c are too close.
        assert!(a.overlaps_with_gap(&c, 2.0));
        assert!((a.duration() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn inverted_interval_panics() {
        let _ = TimeInterval::new(5.0, 1.0);
    }

    #[test]
    fn occupancy_of_cruising_vehicle() {
        // 10 m/s along a 200 m path; zone is [100, 120] from path start.
        let prof = MotionProfile::cruise(0.0, 10.0, 200.0);
        let iv = occupancy_interval(&prof, 100.0, 120.0).expect("enters zone");
        assert!((iv.start - 10.0).abs() < 1e-9);
        assert!((iv.end - 12.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_of_stopping_vehicle() {
        // Brakes from 10 m/s at 2 m/s²: stops after 25 m, never reaches 30.
        let prof = MotionProfile::brake_to_stop(0.0, 0.0, 10.0, 2.0);
        assert!(occupancy_interval(&prof, 30.0, 40.0).is_none());
        // Stops *inside* [20, 40]: exit is infinite.
        let iv = occupancy_interval(&prof, 20.0, 40.0).expect("enters zone");
        assert!(iv.end.is_infinite());
    }
}
