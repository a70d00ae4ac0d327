//! `expgen` checks every selected experiment's configs before it runs
//! any of them.

use std::process::{Command, Output};

fn expgen(duration: &str, experiments: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expgen"))
        .args(experiments)
        .env("NWADE_DURATION", duration)
        .env_remove("NWADE_ROUNDS")
        .output()
        .expect("expgen starts")
}

#[test]
fn rounds_too_short_for_an_attack_fail_before_any_run() {
    // `eq2` comes first and would print its table if it ran.
    let out = expgen("20", &["eq2", "violations"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no experiment ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: violations cannot run rounds of 20 s"),
        "{stderr}"
    );
}

#[test]
fn short_rounds_still_run_experiments_without_an_attack() {
    let out = expgen("20", &["eq2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}
