//! NWADE protocol parameters.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the NWADE mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NwadeConfig {
    /// Processing window δ: how often the manager packages a block,
    /// seconds.
    pub processing_window: f64,
    /// Position deviation beyond which a watcher reports a neighbour,
    /// meters (Algorithm 2's tolerance threshold).
    pub position_tolerance: f64,
    /// Speed deviation tolerance, m/s.
    pub speed_tolerance: f64,
    /// Vehicle sensing radius, meters (paper default 1000 ft ≈ 305 m).
    pub sensing_radius: f64,
    /// How long a reporting vehicle waits for the manager's response
    /// before assuming the manager is compromised, seconds.
    pub report_timeout: f64,
    /// Number of distinct global reports about one claim that push a far
    /// vehicle into self-evacuation — §IV-B3's safety threshold, "set
    /// accordingly" from Eq. 3: the majority quorum of the ~20 vehicles
    /// in sensing range at medium density is 11 (§IV-B4's worked
    /// example).
    pub global_report_threshold: usize,
    /// Temporal gap used by the plan conflict check, seconds.
    pub conflict_gap: f64,
    /// Number of watchers the manager polls per verification group.
    pub verification_group_size: usize,
    /// Chain cache capacity τ/δ: crossing time over window length.
    pub chain_cache_capacity: usize,
    /// Most blocks one answer to a block request carries, whether the
    /// manager or a peer vehicle serves it (bounds the response to a
    /// catch-up query; the vehicle re-asks from its new tip for more).
    pub block_backfill_limit: usize,
    /// How many recent blocks the manager retains for serving block
    /// requests. Should cover `block_backfill_limit` plus the deepest
    /// realistic catch-up gap (a vehicle crossing takes τ/δ windows).
    pub recent_block_retention: usize,
    /// Age beyond which scheduler reservations are garbage-collected,
    /// seconds before the current window. Must exceed the longest plan
    /// horizon (`SchedulerConfig::max_delay` plus crossing time) or live
    /// reservations would be dropped mid-plan.
    pub reservation_gc_horizon: f64,
}

impl Default for NwadeConfig {
    fn default() -> Self {
        NwadeConfig {
            processing_window: 1.0,
            position_tolerance: 5.0,
            speed_tolerance: 3.0,
            sensing_radius: nwade_geometry::units::paper::sensing_radius_m(),
            report_timeout: 1.0,
            global_report_threshold: 11,
            conflict_gap: 0.5,
            verification_group_size: 5,
            chain_cache_capacity: 60,
            block_backfill_limit: 16,
            recent_block_retention: 64,
            reservation_gc_horizon: 120.0,
        }
    }
}

impl NwadeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.processing_window > 0.0) {
            return Err("processing window must be positive".into());
        }
        if !(self.position_tolerance > 0.0 && self.speed_tolerance > 0.0) {
            return Err("tolerances must be positive".into());
        }
        if !(self.sensing_radius > 0.0) {
            return Err("sensing radius must be positive".into());
        }
        if !(self.report_timeout > 0.0) {
            return Err("report timeout must be positive".into());
        }
        if self.global_report_threshold == 0 {
            return Err("global report threshold must be at least 1".into());
        }
        if self.verification_group_size == 0 {
            return Err("verification group size must be at least 1".into());
        }
        if self.chain_cache_capacity == 0 {
            return Err("chain cache capacity must be at least 1".into());
        }
        if self.block_backfill_limit == 0 {
            return Err("block backfill limit must be at least 1".into());
        }
        if self.recent_block_retention < self.block_backfill_limit {
            return Err("recent block retention must cover the backfill limit".into());
        }
        if !(self.reservation_gc_horizon > 0.0) {
            return Err("reservation GC horizon must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        NwadeConfig::default().validate().expect("default valid");
    }

    #[test]
    fn default_sensing_radius_is_1000_ft() {
        let c = NwadeConfig::default();
        assert!((c.sensing_radius - 304.8).abs() < 0.1);
    }

    #[test]
    fn invalid_fields_rejected() {
        let base = NwadeConfig::default();
        let mut c = base;
        c.processing_window = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.global_report_threshold = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.verification_group_size = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.position_tolerance = -1.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.chain_cache_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.block_backfill_limit = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.recent_block_retention = c.block_backfill_limit - 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.reservation_gc_horizon = 0.0;
        assert!(c.validate().is_err());
    }
}
