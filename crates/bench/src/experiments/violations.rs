//! Violation-kind sweep: the paper's threat (i) covers "moving faster or
//! pressing the brake" and the Fig. 1a lane change; detection must hold
//! for every modeled misbehaviour.

use crate::experiments::{attack_start, base_config};
use crate::table::render;
use nwade::attack::{AttackSetting, ViolationKind};
use nwade_sim::{run_rounds, AttackPlan, SimConfig};

/// One violation kind's results.
#[derive(Debug, Clone)]
pub struct Row {
    /// The misbehaviour.
    pub kind: ViolationKind,
    /// Detection rate over the rounds.
    pub detection_rate: f64,
    /// Mean detection latency, seconds.
    pub latency_s: Option<f64>,
}

/// Runs the sweep (V1, default density).
pub fn rows(rounds: u64, duration: f64) -> Vec<Row> {
    configs(duration)
        .into_iter()
        .map(|(kind, config)| {
            let summary = run_rounds(&config, rounds);
            Row {
                kind,
                detection_rate: summary.detection_rate(),
                latency_s: summary.mean_detection_latency(),
            }
        })
        .collect()
}

/// The config [`rows`] runs for each violation kind.
pub fn configs(duration: f64) -> Vec<(ViolationKind, SimConfig)> {
    ViolationKind::ALL
        .iter()
        .map(|&kind| {
            let mut config = base_config(duration);
            config.attack = Some(AttackPlan {
                setting: AttackSetting::V1,
                violation: kind,
                start: attack_start(duration),
            });
            (kind, config)
        })
        .collect()
}

/// Renders the sweep.
pub fn report(rounds: u64, duration: f64) -> String {
    let body: Vec<Vec<String>> = rows(rounds, duration)
        .into_iter()
        .map(|r| {
            vec![
                format!("{:?}", r.kind),
                format!("{:.0}%", r.detection_rate * 100.0),
                r.latency_s.map_or("n/a".into(), |l| format!("{l:.2} s")),
            ]
        })
        .collect();
    format!(
        "Violation-kind sweep, V1 attack ({rounds} rounds/kind)\n{}",
        render(&["Violation", "Detection rate", "Mean latency"], &body)
    )
}
