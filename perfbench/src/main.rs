//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it runs repetitions of the workload (set-up plus the
//! measured ticks), each on inputs generated from its own seed derived
//! from `--seed`, until `--seconds` are spent; then it replays the start
//! of the first repetition's inputs and requires the same state hash. It
//! checks every repetition's outputs and prints the end-to-end metrics. With
//! `--trace 1` it runs the `--seed` inputs once untraced and once traced,
//! and prints the per-layer metrics. The last line of stdout is the JSON
//! result object.

use nwade_perfbench::report::{end_to_end, print_lines, Verdict};
use nwade_perfbench::traced;
use nwade_perfbench::workloads::{prefix_hash, run_rep, sub_seed, RepResult, Run, Size, Workload};
use std::process::ExitCode;
use std::time::Instant;

/// Distinct inputs every untraced run covers at least, whatever
/// `--seconds` says: three keep at least ten ticks beyond p99 in
/// `saturated`, whose 400-tick repetitions take longest.
const MIN_INPUTS: usize = 3;

/// Set-up samples wanted per run; set-ups of the `--seed` inputs are
/// timed alone (and dropped) until this many exist or [`SETUP_BUDGET_S`]
/// is spent on them.
const SETUP_SAMPLES: usize = 41;
const SETUP_BUDGET_S: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs repetitions on fresh inputs while the time budget lasts, then
/// replays the start of the first inputs as the determinism check; every
/// repetition's outputs are checked. A traced run makes one repetition,
/// which the traced pass is compared against.
fn untraced(args: &Args) -> (Vec<RepResult>, Vec<String>) {
    let start = Instant::now();
    let mut reps: Vec<RepResult> = Vec::new();
    let mut errors = Vec::new();
    let mut check = |reps: &mut Vec<RepResult>, rep: RepResult| {
        if let Err(e) = rep.outcome.check(args.workload) {
            errors.push(format!("repetition {}: {e}", reps.len()));
        }
        reps.push(rep);
    };
    if args.trace {
        check(&mut reps, run_rep(args.workload, args.seed, Size::FULL));
        return (reps, errors);
    }
    while reps.len() < MIN_INPUTS || start.elapsed().as_secs_f64() < args.seconds {
        let seed = sub_seed(args.seed, reps.len() as u64);
        check(&mut reps, run_rep(args.workload, seed, Size::FULL));
    }
    if args.workload == Workload::CityAttack {
        for shard in 0..reps[0].outcome.detect_s.len() {
            if reps.iter().all(|r| r.outcome.detect_s[shard].is_none()) {
                errors.push(format!(
                    "shard {shard} never detected its violator in any repetition"
                ));
            }
        }
    }
    let again = prefix_hash(args.workload, args.seed, Size::FULL);
    if again != reps[0].prefix_hash {
        errors.push(format!(
            "the same inputs reached state hash {:016x}, then {:016x}",
            reps[0].prefix_hash, again
        ));
    }
    (reps, errors)
}

/// Set-up times of the `--seed` inputs: the repetition that ran them,
/// topped up with set-ups timed alone.
fn setup_samples(args: &Args, reps: &[RepResult]) -> Vec<f64> {
    let mut setups = vec![reps[0].setup_s];
    let start = Instant::now();
    while setups.len() < SETUP_SAMPLES && start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        let run = Run::setup(args.workload, args.seed, Size::FULL);
        setups.push(t.elapsed().as_secs_f64());
        drop(run);
    }
    setups
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <organic|saturated|city-attack> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (reps, mut errors) = untraced(&args);
    let outcome = &reps[0].outcome;
    let setups = if args.trace {
        vec![reps[0].setup_s]
    } else {
        setup_samples(&args, &reps)
    };
    let (mut metrics, note) = end_to_end(&reps, &setups);
    println!("state_hash {:016x}", outcome.state_hash);
    println!("{note}");
    println!(
        "fail_frac {} ({} failures over {} plan requests offered; first repetition unsealed/rejected/timeout/invariant/anchor {:?})",
        1.0 - metrics
            .iter()
            .find(|m| m.name == "ok_frac")
            .map_or(0.0, |m| m.value),
        reps.iter().map(|r| r.outcome.failures()).sum::<usize>(),
        reps.iter().map(|r| r.outcome.attempted).sum::<usize>(),
        [
            outcome.unsealed,
            outcome.honest_rejections,
            outcome.timeout_evacuations,
            outcome.safety_violations + outcome.fsm_violations,
            outcome.anchor_mismatches,
        ]
    );
    if let Some(dark) = outcome.dark_s {
        println!("dark_s {dark} (simulated, deterministic)");
    }
    if let Some(detect) = outcome.mean_detect_s() {
        println!(
            "detect_s {detect} (simulated mean over shards, deterministic; per shard {:?})",
            outcome.detect_s
        );
    }
    if args.trace {
        match traced::run(args.workload, args.seed, Size::FULL, &reps[0]) {
            Ok(layers) => metrics = layers,
            Err(e) => errors.push(e),
        }
    }
    print_lines(args.workload, args.seed, &metrics);
    for (i, rep) in reps.iter().enumerate() {
        for defect in rep.outcome.known_defects(args.workload) {
            println!("known defect, not failing (repetition {i}): {defect}");
        }
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let verdict = Verdict {
        correct: errors.is_empty(),
        attempted: reps.iter().map(|r| r.outcome.attempted).sum(),
        failed: reps.iter().map(|r| r.outcome.failed()).sum(),
        metrics,
    };
    println!("{}", verdict.to_json());
    if verdict.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
