//! Fig. 5: detection time at a 4-way intersection — (a) reports of
//! vehicles deviating from travel plans, (b) false claims of wrong travel
//! plans being rebutted.

use crate::experiments::{base_config, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade_sim::{run_rounds, SimConfig};

/// Densities swept.
pub const DENSITIES: [f64; 4] = [20.0, 60.0, 80.0, 120.0];

/// One density's latencies.
#[derive(Debug, Clone)]
pub struct Point {
    /// Vehicles per minute.
    pub density: f64,
    /// Mean report-to-confirmation latency, seconds (series a).
    pub deviation_detect_s: Option<f64>,
    /// Mean false-claim-to-rebuttal latency, seconds (series b).
    pub wrong_plan_detect_s: Option<f64>,
}

/// The config [`points`] runs at each density.
pub fn configs(duration: f64) -> Vec<(f64, SimConfig)> {
    DENSITIES
        .iter()
        .map(|&density| {
            let mut config = with_attack(base_config(duration), AttackSetting::V2);
            config.density = density;
            (density, config)
        })
        .collect()
}

/// Runs the sweep: V2 provides both a real deviation (series a) and a
/// false conflicting-plans broadcast (series b) in every round.
pub fn points(rounds: u64, duration: f64) -> Vec<Point> {
    configs(duration)
        .into_iter()
        .map(|(density, config)| {
            let summary = run_rounds(&config, rounds);
            let mean = |f: &dyn Fn(&nwade_sim::SimReport) -> Option<f64>| -> Option<f64> {
                let vals: Vec<f64> = summary.rounds.iter().filter_map(f).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            };
            Point {
                density,
                deviation_detect_s: mean(&|r| r.metrics.report_processing_latency()),
                wrong_plan_detect_s: mean(&|r| r.metrics.type_b_rebuttal_latency()),
            }
        })
        .collect()
}

fn ms(v: Option<f64>) -> String {
    v.map_or("n/a".into(), |s| format!("{:.0} ms", s * 1000.0))
}

/// Renders Fig. 5.
pub fn report(rounds: u64, duration: f64) -> String {
    let body: Vec<Vec<String>> = points(rounds, duration)
        .into_iter()
        .map(|p| {
            vec![
                format!("{:.0}/min", p.density),
                ms(p.deviation_detect_s),
                ms(p.wrong_plan_detect_s),
            ]
        })
        .collect();
    format!(
        "Fig. 5: Detection Time, 4-way cross ({rounds} rounds/point)\n{}",
        render(
            &[
                "Density",
                "Deviation report verified",
                "Wrong-plan claim rebutted"
            ],
            &body,
        )
    )
}
