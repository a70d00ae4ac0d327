//! Fig. 8: traffic throughput with and without NWADE across the five
//! intersection types and the density sweep — the overhead experiment.

use crate::experiments::base_config;
use crate::table::render;
use nwade_intersection::IntersectionKind;
use nwade_sim::{run_rounds, SimConfig};

/// Densities swept.
pub const DENSITIES: [f64; 3] = [20.0, 80.0, 120.0];

/// One bar pair.
#[derive(Debug, Clone)]
pub struct Point {
    /// Intersection.
    pub kind: IntersectionKind,
    /// Vehicles per minute offered.
    pub density: f64,
    /// Mean throughput with NWADE, vehicles per minute served.
    pub with_nwade: f64,
    /// Mean throughput without NWADE.
    pub without_nwade: f64,
}

impl Point {
    /// Relative throughput change introduced by NWADE (≈ 0 expected).
    pub fn overhead(&self) -> f64 {
        if self.without_nwade <= 0.0 {
            return 0.0;
        }
        (self.without_nwade - self.with_nwade) / self.without_nwade
    }
}

/// Runs the grid.
pub fn points(rounds: u64, duration: f64) -> Vec<Point> {
    configs(duration)
        .into_iter()
        .map(|(kind, density, mut config)| {
            let with_nwade = run_rounds(&config, rounds).mean_throughput();
            config.nwade_enabled = false;
            let without_nwade = run_rounds(&config, rounds).mean_throughput();
            Point {
                kind,
                density,
                with_nwade,
                without_nwade,
            }
        })
        .collect()
}

/// The config [`points`] runs, with NWADE and then without it, for each
/// intersection kind and density.
pub fn configs(duration: f64) -> Vec<(IntersectionKind, f64, SimConfig)> {
    let mut out = Vec::new();
    for kind in IntersectionKind::ALL {
        for density in DENSITIES {
            let mut config = base_config(duration);
            config.kind = kind;
            config.density = density;
            config.nwade_enabled = true;
            out.push((kind, density, config));
        }
    }
    out
}

/// Renders Fig. 8.
pub fn report(rounds: u64, duration: f64) -> String {
    let body: Vec<Vec<String>> = points(rounds, duration)
        .into_iter()
        .map(|p| {
            vec![
                format!("{} ({:.0})", p.kind, p.density),
                format!("{:.1}", p.with_nwade),
                format!("{:.1}", p.without_nwade),
                format!("{:+.1}%", p.overhead() * 100.0),
            ]
        })
        .collect();
    format!(
        "Fig. 8: Traffic Throughput with/without NWADE ({rounds} rounds/point)\n{}",
        render(
            &[
                "Intersection (veh/min)",
                "with NWADE",
                "without",
                "overhead"
            ],
            &body,
        )
    )
}
