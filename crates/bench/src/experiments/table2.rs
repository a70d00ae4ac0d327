//! Table II: false-alarm trigger and detection rates per attack setting.

use crate::experiments::{base_config, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade_sim::{run_rounds, SimConfig};

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Row {
    /// Setting label.
    pub setting: String,
    /// Type A (false vehicle accusation) trigger rate.
    pub a_trigger: f64,
    /// Type A detection rate.
    pub a_detect: f64,
    /// Type B (false conflicting-plans claim) trigger rate, `None` for
    /// the IM settings where the paper reports N/A.
    pub b_trigger: Option<f64>,
    /// Type B detection rate.
    pub b_detect: Option<f64>,
}

/// Runs the Table II measurement.
pub fn rows(rounds: u64, duration: f64) -> Vec<Row> {
    configs(duration)
        .into_iter()
        .map(|(s, config)| {
            let summary = run_rounds(&config, rounds);
            let has_type_a = s.false_reports() > 0;
            let has_type_b = has_type_a && !s.im_malicious();
            Row {
                setting: s.label().to_string(),
                a_trigger: summary.false_alarm_a_trigger_rate(),
                // With no false report staged, detection is vacuous —
                // the paper's IM / IM_V1 rows likewise read 0% / 100%.
                a_detect: if has_type_a {
                    summary.false_alarm_a_detection_rate()
                } else {
                    1.0
                },
                b_trigger: has_type_b.then(|| summary.false_alarm_b_trigger_rate()),
                b_detect: has_type_b.then(|| summary.false_alarm_b_detection_rate()),
            }
        })
        .collect()
}

fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// The config [`rows`] runs for each setting with a false report or a
/// malicious manager staged.
pub fn configs(duration: f64) -> Vec<(AttackSetting, SimConfig)> {
    AttackSetting::ALL
        .iter()
        .copied()
        .filter(|s| s.false_reports() > 0 || s.im_malicious())
        .map(|s| (s, with_attack(base_config(duration), s)))
        .collect()
}

/// Renders Table II.
pub fn report(rounds: u64, duration: f64) -> String {
    let body: Vec<Vec<String>> = rows(rounds, duration)
        .into_iter()
        .map(|r| {
            vec![
                r.setting,
                pct(r.a_trigger),
                pct(r.a_detect),
                r.b_trigger.map_or("N/A".into(), pct),
                r.b_detect.map_or("N/A".into(), pct),
            ]
        })
        .collect();
    format!(
        "Table II: False Alarm Rate ({rounds} rounds, {duration:.0}s each)\n{}",
        render(
            &["Setting", "A trigger", "A detect", "B trigger", "B detect"],
            &body,
        )
    )
}
