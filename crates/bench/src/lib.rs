//! Experiment harness regenerating every table and figure of the NWADE
//! paper (§VI).
//!
//! Each experiment lives in its own module and returns a plain data
//! structure plus a text rendering, so the same code drives:
//!
//! * the `expgen` binary (`cargo run --release -p nwade-bench --bin
//!   expgen -- <experiment>`),
//! * the Criterion benches in `benches/`,
//! * the workspace integration tests that assert the reproduced *shape*
//!   (who wins, what is detected, what stays flat).
//!
//! Runtime knobs: experiments honour `NWADE_ROUNDS` (rounds per setting,
//! default 10 like the paper) and `NWADE_DURATION` (seconds per round,
//! default 150) so CI can run quick passes while the full regeneration
//! matches the paper's protocol. A value that does not parse, zero
//! rounds, or a duration that is not positive and finite is an error,
//! and so is a duration too short for a selected experiment's configs
//! ([`check`]).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::{
    analytic, chaos, city, detect, fig4, fig5, fig6, fig7, fig8, perf, recovery, sensing, table1,
    table2, violations,
};

use nwade_sim::SimConfig;

/// The experiments `expgen all` runs, in order.
pub const EXPERIMENTS: [&str; 16] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "eq2",
    "eq3",
    "sensing",
    "violations",
    "chaos",
    "recovery",
    "perf",
    "detect",
    "city",
];

/// The regression guards, which `all` leaves out: they compare against
/// committed baselines, so running them right after the generating
/// experiment rewrote those baselines would be vacuous.
pub const GUARDS: [&str; 4] = ["perf-guard", "detect-guard", "city-guard", "recovery-guard"];

/// Validates every simulation config experiment `name` runs with rounds
/// of `duration` seconds, so `expgen` can reject a bad selection before
/// its first run instead of panicking midway.
///
/// # Errors
///
/// An unknown experiment, or the first config [`SimConfig::validate`]
/// rejects.
pub fn check(name: &str, duration: f64) -> Result<(), String> {
    fn drop_keys<K>(configs: Vec<(K, SimConfig)>) -> Vec<SimConfig> {
        configs.into_iter().map(|(_, config)| config).collect()
    }
    let configs = match name {
        "table2" => drop_keys(table2::configs(duration)),
        "fig4" => fig4::configs(duration)
            .into_iter()
            .flat_map(|(_, configs)| configs)
            .collect(),
        "fig5" => drop_keys(fig5::configs(duration)),
        "fig7" => drop_keys(fig7::configs(duration, fig7::SEED)),
        "fig8" => fig8::configs(duration)
            .into_iter()
            .map(|(_, _, config)| config)
            .collect(),
        "sensing" => drop_keys(sensing::configs(duration)),
        "violations" => drop_keys(violations::configs(duration)),
        "chaos" => drop_keys(chaos::configs(duration)),
        "recovery" | "recovery-guard" => recovery::configs(duration),
        _ if EXPERIMENTS.contains(&name) || GUARDS.contains(&name) => Vec::new(),
        other => return Err(format!("unknown experiment '{other}'")),
    };
    configs.iter().try_for_each(|config| {
        config
            .validate()
            .map_err(|e| format!("{name} cannot run rounds of {duration} s: {e}"))
    })
}

/// Rounds per configuration (paper: 10). Override with `NWADE_ROUNDS`.
///
/// # Errors
///
/// Describes an `NWADE_ROUNDS` that [`parse_rounds`] rejects.
pub fn rounds() -> Result<u64, String> {
    parse_rounds(env_knob("NWADE_ROUNDS")?.as_deref())
}

/// Simulated seconds per round. Override with `NWADE_DURATION`.
///
/// # Errors
///
/// Describes an `NWADE_DURATION` that [`parse_duration`] rejects.
pub fn duration() -> Result<f64, String> {
    parse_duration(env_knob("NWADE_DURATION")?.as_deref())
}

fn env_knob(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} is not valid UTF-8")),
    }
}

/// Parses an `NWADE_ROUNDS` value; `None` (unset) means 10.
///
/// # Errors
///
/// Anything but a whole number of at least one round.
pub fn parse_rounds(value: Option<&str>) -> Result<u64, String> {
    let Some(value) = value else {
        return Ok(10);
    };
    match value.parse::<u64>() {
        Ok(0) => Err("NWADE_ROUNDS=0: at least one round is needed".into()),
        Ok(rounds) => Ok(rounds),
        Err(_) => Err(format!(
            "NWADE_ROUNDS={value:?} is not a whole number of rounds"
        )),
    }
}

/// Parses an `NWADE_DURATION` value in simulated seconds; `None`
/// (unset) means 150.
///
/// # Errors
///
/// Anything but a positive, finite number.
pub fn parse_duration(value: Option<&str>) -> Result<f64, String> {
    let Some(value) = value else {
        return Ok(150.0);
    };
    match value.parse::<f64>() {
        Ok(seconds) if seconds > 0.0 && seconds.is_finite() => Ok(seconds),
        Ok(_) => Err(format!(
            "NWADE_DURATION={value:?} must be a positive, finite number of seconds"
        )),
        Err(_) => Err(format!(
            "NWADE_DURATION={value:?} is not a number of seconds"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_checks_at_the_default_and_ci_durations() {
        for name in EXPERIMENTS.iter().chain(&GUARDS) {
            for duration in [150.0, 120.0] {
                assert_eq!(check(name, duration), Ok(()), "{name} at {duration} s");
            }
        }
    }

    #[test]
    fn rounds_too_short_for_the_attack_are_rejected() {
        let attacks = [
            "table2",
            "fig4",
            "fig5",
            "fig7",
            "sensing",
            "violations",
            "chaos",
            "recovery",
            "recovery-guard",
        ];
        for duration in [0.5, 20.0, 30.0] {
            for name in attacks {
                let err = check(name, duration).expect_err(name);
                assert!(err.contains(name) && err.contains("attack start"), "{err}");
            }
            assert_eq!(check("fig8", duration), Ok(()), "fig8 stages no attack");
        }
        assert_eq!(check("table2", 30.1), Ok(()));
    }

    #[test]
    fn unknown_experiments_are_rejected() {
        assert!(check("fig9", 150.0).expect_err("unknown").contains("fig9"));
    }

    #[test]
    fn unset_knobs_take_the_defaults() {
        assert_eq!(parse_rounds(None), Ok(10));
        assert_eq!(parse_duration(None), Ok(150.0));
    }

    #[test]
    fn valid_knobs_parse() {
        assert_eq!(parse_rounds(Some("3")), Ok(3));
        assert_eq!(parse_duration(Some("120")), Ok(120.0));
        assert_eq!(parse_duration(Some("0.5")), Ok(0.5));
    }

    #[test]
    fn zero_or_garbage_rounds_are_rejected() {
        for bad in ["0", "abc", "", "-1", "2.5", " 3"] {
            let err = parse_rounds(Some(bad)).expect_err(bad);
            assert!(err.contains("NWADE_ROUNDS"), "{bad}: {err}");
        }
    }

    #[test]
    fn non_positive_non_finite_or_garbage_durations_are_rejected() {
        for bad in ["-5", "0", "-0", "NaN", "inf", "-inf", "abc", ""] {
            let err = parse_duration(Some(bad)).expect_err(bad);
            assert!(err.contains("NWADE_DURATION"), "{bad}: {err}");
        }
    }
}
