//! Metric aggregation and the output format: one human-readable line per
//! metric, then the JSON result object as the last line of stdout.

use crate::trace::{median, quantile};
use crate::workloads::{host_threads, RepResult, Workload};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result object, printed as the last line of stdout.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (plan requests offered).
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Metrics to report.
    pub metrics: Vec<Metric>,
}

impl Verdict {
    /// The JSON line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Formats a finite number with all its digits; non-finite values become
/// 0, which the output checks already flag as incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// End-to-end metrics over the repetitions of one run.
///
/// Tick percentiles pool every tick of every repetition; rates divide the
/// pooled simulated seconds (or sealed plans) by the pooled tick wall
/// time; set-up time is the median of `setups`, and the heap the median
/// of the repetitions' own means.
pub fn end_to_end(reps: &[RepResult], setups: &[f64]) -> (Vec<Metric>, String) {
    let ticks: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    let wall_s: f64 = ticks.iter().sum::<f64>() / 1e3;
    let sim_s: f64 = reps.iter().map(|r| r.sim_s).sum();
    let plans: usize = reps.iter().map(|r| r.outcome.plans).sum();
    let attempted: usize = reps.iter().map(|r| r.outcome.attempted).sum();
    let failures: usize = reps.iter().map(|r| r.outcome.failures()).sum();
    let heaps: Vec<f64> = reps.iter().map(|r| r.heap_mean_mb).collect();
    let p99 = quantile(&ticks, 0.99).unwrap_or(0.0);
    let beyond = ticks.iter().filter(|&&t| t > p99).count();
    let metrics = vec![
        Metric::new("setup_s", median(setups).unwrap_or(0.0), "s"),
        Metric::new("sim_rate", sim_s / wall_s, "sim_s/s"),
        Metric::new("tick_p99_ms", p99, "ms"),
        Metric::new("plans_per_s", plans as f64 / wall_s, "1/s"),
        Metric::new("heap_mean_mb", median(&heaps).unwrap_or(0.0), "MiB"),
        Metric::new(
            "ok_frac",
            1.0 - failures as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let note = format!(
        "{} repetitions, {} set-ups, {} ticks, {} beyond p99; tick_p50_ms {}",
        reps.len(),
        setups.len(),
        ticks.len(),
        beyond,
        quantile(&ticks, 0.5).unwrap_or(0.0)
    );
    (metrics, note)
}

/// Prints the human-readable lines that precede the result object.
pub fn print_lines(workload: Workload, seed: u64, metrics: &[Metric]) {
    println!(
        "workload {} seed {} host_threads {}",
        workload.name(),
        seed,
        host_threads()
    );
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
