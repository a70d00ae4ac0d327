//! One module per paper table / figure, plus the analytic models.

pub mod analytic;
pub mod chaos;
pub mod city;
pub mod detect;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod perf;
pub mod recovery;
pub mod sensing;
pub mod table1;
pub mod table2;
pub mod violations;

use nwade::attack::{AttackSetting, ViolationKind};
use nwade_sim::{AttackPlan, SimConfig};

/// Baseline configuration shared by the simulation experiments.
pub fn base_config(duration: f64) -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = duration;
    config
}

/// When a staged attack starts in a run of `duration` seconds: 40% in,
/// but never before 30 s, so the fleet has formed. Rounds of 30 s or less
/// therefore cannot stage one.
pub fn attack_start(duration: f64) -> f64 {
    (duration * 0.4).max(30.0)
}

/// Attaches a Table I attack to a config, starting mid-run.
pub fn with_attack(mut config: SimConfig, setting: AttackSetting) -> SimConfig {
    config.attack = Some(AttackPlan {
        setting,
        violation: ViolationKind::SuddenStop,
        start: attack_start(config.duration),
    });
    config
}

/// The number under `key` in one line of a committed `BENCH_*.json`
/// baseline (one flat JSON object per line), as the regression guards
/// read them.
pub(crate) fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let idx = line.find(&pat)? + pat.len();
    let rest = &line[idx..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The string under `key` in one baseline line (no escapes).
pub(crate) fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let idx = line.find(&pat)? + pat.len();
    let rest = &line[idx..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}
