//! Fig. 4: detection rate of the staged plan violation under different
//! vehicle densities, per attack setting.

use crate::experiments::{base_config, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade_sim::{run_rounds, SimConfig};

/// Densities the paper sweeps (vehicles per minute).
pub const DENSITIES: [f64; 6] = [20.0, 40.0, 60.0, 80.0, 100.0, 120.0];

/// One detection-rate series: a setting across all densities.
#[derive(Debug, Clone)]
pub struct Series {
    /// Setting label.
    pub setting: String,
    /// Detection rate at each density in [`DENSITIES`] order.
    pub rates: Vec<f64>,
}

/// Settings plotted in Fig. 4 (those with a plan violation to detect).
pub fn settings() -> Vec<AttackSetting> {
    AttackSetting::ALL
        .iter()
        .copied()
        .filter(|s| s.plan_violations() > 0)
        .collect()
}

/// The configs [`series`] runs: per setting, one per density in
/// [`DENSITIES`] order.
pub fn configs(duration: f64) -> Vec<(AttackSetting, Vec<SimConfig>)> {
    settings()
        .into_iter()
        .map(|s| {
            let configs = DENSITIES
                .iter()
                .map(|&density| {
                    let mut config = with_attack(base_config(duration), s);
                    config.density = density;
                    config
                })
                .collect();
            (s, configs)
        })
        .collect()
}

/// Runs the sweep.
pub fn series(rounds: u64, duration: f64) -> Vec<Series> {
    configs(duration)
        .into_iter()
        .map(|(s, configs)| {
            let rates = configs
                .iter()
                .map(|config| run_rounds(config, rounds).detection_rate())
                .collect();
            Series {
                setting: s.label().to_string(),
                rates,
            }
        })
        .collect()
}

/// Renders Fig. 4 as a table (settings × densities).
pub fn report(rounds: u64, duration: f64) -> String {
    let mut header: Vec<String> = vec!["Setting".into()];
    header.extend(DENSITIES.iter().map(|d| format!("{d:.0}/min")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let body: Vec<Vec<String>> = series(rounds, duration)
        .into_iter()
        .map(|s| {
            let mut row = vec![s.setting];
            row.extend(s.rates.iter().map(|r| format!("{:.0}%", r * 100.0)));
            row
        })
        .collect();
    format!(
        "Fig. 4: Detection Rate under Different Vehicle Densities \
         ({rounds} rounds/point)\n{}",
        render(&header_refs, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plotted_settings_have_violations() {
        let s = settings();
        assert_eq!(s.len(), 10, "all but the pure-IM setting");
        assert!(!s.contains(&AttackSetting::Im));
    }
}
