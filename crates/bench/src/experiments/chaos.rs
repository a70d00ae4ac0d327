//! Chaos sweep: detection robustness as a function of channel fault
//! intensity. Not a paper figure — this is the repo's own robustness
//! harness. Each intensity point layers duplication, latency jitter,
//! payload corruption, and Gilbert–Elliott burst loss (via
//! [`FaultModel::at_intensity`]) under a V1 sudden-stop attack and
//! measures what survives: detection rate, detection latency, spurious
//! `ImTimeout` evacuations among the honest fleet (chaos-induced false
//! alarms), and tick-time safety-invariant violations, which must stay at
//! zero at every intensity.

use crate::experiments::{base_config, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade_sim::{run_rounds, SimConfig};
use nwade_vanet::FaultModel;

/// Fault intensities swept (0 = clean channel control).
pub const INTENSITIES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Detection rate of the V1 violation.
    pub detection_rate: f64,
    /// Mean detection latency, seconds.
    pub latency_s: Option<f64>,
    /// Mean spurious (chaos-induced) `ImTimeout` self-evacuations per
    /// round — the price of lost dismissals, not of real attacks.
    pub spurious_evacuations: f64,
    /// Mean outage/evacuation recoveries per round (evacuees re-admitted
    /// by a fresh verified block).
    pub readmissions: f64,
    /// Total safety-invariant violations across all rounds (must be 0).
    pub invariant_violations: usize,
    /// Mean throughput, vehicles/minute.
    pub throughput: f64,
}

/// The config [`points`] runs at each fault intensity.
pub fn configs(duration: f64) -> Vec<(f64, SimConfig)> {
    INTENSITIES
        .iter()
        .map(|&intensity| {
            let mut config = with_attack(base_config(duration), AttackSetting::V1);
            config.medium.faults = FaultModel::at_intensity(intensity);
            (intensity, config)
        })
        .collect()
}

/// Runs the sweep.
pub fn points(rounds: u64, duration: f64) -> Vec<Point> {
    configs(duration)
        .into_iter()
        .map(|(intensity, config)| {
            let summary = run_rounds(&config, rounds);
            let n = summary.rounds.len().max(1) as f64;
            Point {
                intensity,
                detection_rate: summary.detection_rate(),
                latency_s: summary.mean_detection_latency(),
                spurious_evacuations: summary
                    .rounds
                    .iter()
                    .map(|r| r.metrics.im_timeout_evacuations as f64)
                    .sum::<f64>()
                    / n,
                readmissions: summary
                    .rounds
                    .iter()
                    .map(|r| r.metrics.readmitted_after_outage as f64)
                    .sum::<f64>()
                    / n,
                invariant_violations: summary
                    .rounds
                    .iter()
                    .map(|r| r.metrics.invariants.total())
                    .sum(),
                throughput: summary.mean_throughput(),
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
                format!("{:.2}", p.intensity),
                format!("{:.0}%", p.detection_rate * 100.0),
                p.latency_s.map_or("n/a".into(), |l| format!("{:.2} s", l)),
                format!("{:.1}", p.spurious_evacuations),
                format!("{:.1}", p.readmissions),
                format!("{}", p.invariant_violations),
                format!("{:.1}/min", p.throughput),
            ]
        })
        .collect();
    format!(
        "Chaos sweep: fault intensity vs detection, V1 attack ({rounds} rounds/point)\n{}",
        render(
            &[
                "Intensity",
                "Detection",
                "Mean latency",
                "Spurious evac",
                "Readmitted",
                "Invariant viol.",
                "Throughput",
            ],
            &body
        )
    )
}
