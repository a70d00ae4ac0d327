//! `expgen`: regenerates every table and figure of the NWADE paper.
//!
//! ```text
//! cargo run --release -p nwade-bench --bin expgen -- all
//! cargo run --release -p nwade-bench --bin expgen -- table2 fig4
//! NWADE_ROUNDS=3 NWADE_DURATION=120 cargo run --release -p nwade-bench --bin expgen -- fig8
//! ```

use nwade_bench::{
    analytic, chaos, check, city, detect, duration, fig4, fig5, fig6, fig7, fig8, perf, recovery,
    rounds, sensing, table1, table2, violations, EXPERIMENTS, GUARDS,
};

fn run(name: &str, r: u64, d: f64) -> Result<(), String> {
    let out = match name {
        "table1" => table1::report(),
        "table2" => table2::report(r, d),
        "fig4" => fig4::report(r, d),
        "fig5" => fig5::report(r, d),
        "fig6" => fig6::report(),
        "fig7" => fig7::report(d, fig7::SEED),
        "fig8" => fig8::report(r.min(3), d),
        "eq2" => analytic::eq2_report(),
        "eq3" => analytic::eq3_report(),
        "sensing" => sensing::report(r, d),
        "violations" => violations::report(r, d),
        "chaos" => chaos::report(r, d),
        "recovery" => recovery::report(r, d),
        "perf" => perf::report(),
        "detect" => detect::report(),
        "city" => city::report(),
        "perf-guard" => perf::guard()?,
        "detect-guard" => detect::guard()?,
        "city-guard" => city::guard()?,
        "recovery-guard" => recovery::guard(r, d)?,
        other => return Err(format!("unknown experiment '{other}'")),
    };
    println!("{out}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: expgen <experiment>...\n  experiments: {} | all | {}\n  env: NWADE_ROUNDS (default 10), NWADE_DURATION (default 150)",
            EXPERIMENTS.join(" | "),
            GUARDS.join(" | ")
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Every knob and every selected experiment's configs are checked
    // before the first run.
    let result = rounds().and_then(|r| {
        let d = duration()?;
        selected.iter().try_for_each(|name| check(name, d))?;
        selected.iter().try_for_each(|name| run(name, r, d))
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
