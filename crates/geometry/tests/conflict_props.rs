//! Property tests for the occupancy intervals zone reservations are
//! built from.

use nwade_geometry::{occupancy_interval, MotionProfile};
use proptest::prelude::*;

proptest! {
    /// Occupancy intervals nest: a sub-range's interval lies within the
    /// full range's interval.
    #[test]
    fn occupancy_nesting(
        v0 in 1.0..20.0f64,
        accel_time in 0.0..10.0f64,
        lo in 10.0..80.0f64,
        width in 5.0..40.0f64,
    ) {
        let profile = MotionProfile::new(0.0, 0.0, v0, vec![
            nwade_geometry::ProfileSegment::new(accel_time, 1.5),
            nwade_geometry::ProfileSegment::new(60.0, 0.0),
        ]);
        let hi = lo + width;
        let mid_lo = lo + width * 0.25;
        let mid_hi = lo + width * 0.75;
        let outer = occupancy_interval(&profile, lo, hi);
        let inner = occupancy_interval(&profile, mid_lo, mid_hi);
        if let (Some(o), Some(i)) = (outer, inner) {
            prop_assert!(i.start >= o.start - 1e-9);
            prop_assert!(i.end <= o.end + 1e-9);
        }
    }
}
