//! §VI-A's sensing-radius sweep: the paper varies the vehicles'
//! perception range from 300 ft to 1000 ft. Detection must hold at every
//! range; latency may grow as watchers see less.

use crate::experiments::{base_config, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade_geometry::feet_to_meters;
use nwade_sim::{run_rounds, SimConfig};

/// Sensing radii swept, in feet (as quoted by the paper).
pub const RADII_FT: [f64; 4] = [300.0, 500.0, 750.0, 1000.0];

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Sensing radius in feet.
    pub radius_ft: f64,
    /// Detection rate of the V1 violation.
    pub detection_rate: f64,
    /// Mean detection latency, seconds.
    pub latency_s: Option<f64>,
}

/// The config [`points`] runs at each sensing radius.
pub fn configs(duration: f64) -> Vec<(f64, SimConfig)> {
    RADII_FT
        .iter()
        .map(|&radius_ft| {
            let mut config = with_attack(base_config(duration), AttackSetting::V1);
            config.nwade.sensing_radius = feet_to_meters(radius_ft);
            (radius_ft, config)
        })
        .collect()
}

/// Runs the sweep.
pub fn points(rounds: u64, duration: f64) -> Vec<Point> {
    configs(duration)
        .into_iter()
        .map(|(radius_ft, config)| {
            let summary = run_rounds(&config, rounds);
            Point {
                radius_ft,
                detection_rate: summary.detection_rate(),
                latency_s: summary.mean_detection_latency(),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn report(rounds: u64, duration: f64) -> String {
    let body: Vec<Vec<String>> = points(rounds, duration)
        .into_iter()
        .map(|p| {
            vec![
                format!("{:.0} ft", p.radius_ft),
                format!("{:.0}%", p.detection_rate * 100.0),
                p.latency_s.map_or("n/a".into(), |l| format!("{:.2} s", l)),
            ]
        })
        .collect();
    format!(
        "Sensing-radius sweep (§VI-A), V1 attack ({rounds} rounds/point)\n{}",
        render(&["Sensing radius", "Detection rate", "Mean latency"], &body)
    )
}
