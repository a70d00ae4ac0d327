//! Recovery sweep: warm (WAL + snapshot) vs cold restart at every
//! labelled crash point, plus the availability cell — outright process
//! death resolved by a WAL-tailing hot standby instead of a restart.
//! Not a paper figure — this is the repo's own durability harness. Each
//! cell kills the manager mid-window while a V1 attack has incident
//! reporters waiting on it, then measures what the fleet experiences:
//! recovery latency (crash → next block broadcast), timeout
//! self-evacuations, readmissions, and tick-time safety-invariant
//! violations (which must stay zero on every path). The warm and
//! standby rows must show zero evacuations where the cold rows evacuate
//! the fleet — that contrast is the point of the store and the replica.

use crate::experiments::{base_config, json_num, json_str, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade::CrashPoint;
use nwade_sim::{run_rounds, CrashPlan, SimConfig};

/// Every labelled mid-window crash point is swept warm vs cold.
pub const CRASH_POINTS: [CrashPoint; 3] = [
    CrashPoint::AfterStage,
    CrashPoint::BeforeCommit,
    CrashPoint::AfterCommit,
];

/// Downtime a cold restart imposes before the manager answers again.
pub const COLD_DOWNTIME: f64 = 20.0;

/// Hard ceiling on the standby's dark time: promotion must land the
/// first post-crash broadcast within a second of the kill.
pub const STANDBY_LATENCY_BUDGET: f64 = 1.0;

/// How a crashed manager comes back in one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Durable store on, no replica: warm in-place restart.
    Warm,
    /// Store off: cold darkness while the manager rebuilds.
    Cold,
    /// Store on plus a WAL-tailing hot standby that promotes when the
    /// heartbeat miss bound trips.
    Standby,
}

impl Mode {
    /// Row label used in the table and the JSON baseline.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Warm => "warm",
            Mode::Cold => "cold",
            Mode::Standby => "standby",
        }
    }

    fn from_label(label: &str) -> Option<Mode> {
        match label {
            "warm" => Some(Mode::Warm),
            "cold" => Some(Mode::Cold),
            "standby" => Some(Mode::Standby),
            _ => None,
        }
    }
}

fn crash_point_from_label(label: &str) -> Option<CrashPoint> {
    [
        CrashPoint::AfterStage,
        CrashPoint::BeforeCommit,
        CrashPoint::AfterCommit,
        CrashPoint::ProcessLoss,
    ]
    .into_iter()
    .find(|p| p.to_string() == label)
}

/// One (crash point, recovery mode) cell, averaged over rounds.
#[derive(Debug, Clone)]
pub struct Point {
    /// Crash point label.
    pub point: CrashPoint,
    /// `"warm"` (store enabled), `"cold"` (store disabled), or
    /// `"standby"` (store + hot replica).
    pub mode: &'static str,
    /// Rounds in which the injected crash actually fired.
    pub crashes: usize,
    /// Warm recoveries summed over rounds.
    pub warm_recoveries: usize,
    /// Cold recoveries summed over rounds.
    pub cold_recoveries: usize,
    /// Standby promotions summed over rounds.
    pub promotions: usize,
    /// Mean crash → standby-takeover latency, seconds, over rounds that
    /// promoted.
    pub promotion_latency_s: Option<f64>,
    /// Mean crash → next-block-broadcast latency, seconds, over rounds
    /// that observed one.
    pub recovery_latency_s: Option<f64>,
    /// Mean `ImTimeout` self-evacuations per round.
    pub timeout_evacuations: f64,
    /// Mean outage readmissions per round.
    pub readmissions: f64,
    /// Total safety-invariant violations across rounds (must be 0).
    pub invariant_violations: usize,
    /// Mean throughput, vehicles/minute.
    pub throughput: f64,
}

fn crash_config(duration: f64, point: CrashPoint, mode: Mode) -> SimConfig {
    let mut config = with_attack(base_config(duration), AttackSetting::V1);
    // Crash on the window the attack starts, so the incident reports
    // fall into the dark window on the cold path.
    let at = config.attack.as_ref().map_or(30.0, |a| a.start);
    config.im_crash = Some(CrashPlan {
        at,
        point,
        cold_downtime: COLD_DOWNTIME,
    });
    config.store.enabled = mode != Mode::Cold;
    config.standby.enabled = mode == Mode::Standby;
    config
}

fn mean_of(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn measure(rounds: u64, duration: f64, point: CrashPoint, mode: Mode) -> Point {
    let summary = run_rounds(&crash_config(duration, point, mode), rounds);
    let n = summary.rounds.len().max(1) as f64;
    let latencies: Vec<f64> = summary
        .rounds
        .iter()
        .filter_map(|r| r.metrics.im_recovery_latency)
        .collect();
    let promotion_latencies: Vec<f64> = summary
        .rounds
        .iter()
        .filter_map(|r| r.metrics.standby_promotion_latency)
        .collect();
    Point {
        point,
        mode: mode.label(),
        crashes: summary.rounds.iter().map(|r| r.metrics.im_crashes).sum(),
        warm_recoveries: summary
            .rounds
            .iter()
            .map(|r| r.metrics.warm_recoveries)
            .sum(),
        cold_recoveries: summary
            .rounds
            .iter()
            .map(|r| r.metrics.cold_recoveries)
            .sum(),
        promotions: summary
            .rounds
            .iter()
            .map(|r| r.metrics.standby_promotions)
            .sum(),
        promotion_latency_s: mean_of(&promotion_latencies),
        recovery_latency_s: mean_of(&latencies),
        timeout_evacuations: summary
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
}

/// The sweep's cells: every labelled mid-window point warm vs cold,
/// then outright process loss standby vs cold.
fn cells() -> Vec<(CrashPoint, Mode)> {
    let mut cells = Vec::new();
    for &point in &CRASH_POINTS {
        for &mode in &[Mode::Warm, Mode::Cold] {
            cells.push((point, mode));
        }
    }
    // The availability half: the process dies outright — no in-place
    // restart exists, so the contest is hot standby vs cold rebuild.
    for &mode in &[Mode::Standby, Mode::Cold] {
        cells.push((CrashPoint::ProcessLoss, mode));
    }
    cells
}

/// The configs of every crash point and mode the sweep and the guard
/// can run.
pub fn configs(duration: f64) -> Vec<SimConfig> {
    cells()
        .into_iter()
        .map(|(point, mode)| crash_config(duration, point, mode))
        .collect()
}

/// Runs the full crash-point × mode sweep: every labelled mid-window
/// point warm vs cold, then outright process loss standby vs cold.
pub fn sweep(rounds: u64, duration: f64) -> Vec<Point> {
    cells()
        .into_iter()
        .map(|(point, mode)| measure(rounds, duration, point, mode))
        .collect()
}

/// Serialises the sweep: a header object, then one result per line.
pub fn to_json(rounds: u64, duration: f64, points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"nwade-recovery-v2\",\"rounds\":{rounds},\"duration\":{duration},\
         \"cold_downtime\":{COLD_DOWNTIME}}}\n"
    ));
    for p in points {
        out.push_str(&format!(
            "{{\"crash_point\":\"{}\",\"mode\":\"{}\",\"crashes\":{},\"warm_recoveries\":{},\
             \"cold_recoveries\":{},\"promotions\":{},\"promotion_latency_s\":{},\
             \"recovery_latency_s\":{},\"timeout_evacuations\":{:.2},\
             \"readmissions\":{:.2},\"invariant_violations\":{},\"throughput\":{:.2}}}\n",
            p.point,
            p.mode,
            p.crashes,
            p.warm_recoveries,
            p.cold_recoveries,
            p.promotions,
            p.promotion_latency_s
                .map_or("null".into(), |l| format!("{l:.3}")),
            p.recovery_latency_s
                .map_or("null".into(), |l| format!("{l:.3}")),
            p.timeout_evacuations,
            p.readmissions,
            p.invariant_violations,
            p.throughput,
        ));
    }
    out
}

/// Path of the committed sweep results at the repository root.
pub fn results_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_recovery.json")
}

/// Runs the sweep, rewrites `BENCH_recovery.json`, and renders the
/// table.
pub fn report(rounds: u64, duration: f64) -> String {
    let points = sweep(rounds, duration);
    let json = to_json(rounds, duration, &points);
    let path = results_path();
    let status = match std::fs::write(&path, &json) {
        Ok(()) => format!("results written to {}", path.display()),
        Err(e) => format!("WARNING: could not write {}: {e}", path.display()),
    };
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.point.to_string(),
                p.mode.to_string(),
                p.crashes.to_string(),
                format!("{}/{}", p.warm_recoveries, p.cold_recoveries),
                p.promotions.to_string(),
                p.recovery_latency_s
                    .map_or("n/a".into(), |l| format!("{l:.2} s")),
                format!("{:.1}", p.timeout_evacuations),
                format!("{:.1}", p.readmissions),
                p.invariant_violations.to_string(),
                format!("{:.1}/min", p.throughput),
            ]
        })
        .collect();
    format!(
        "Recovery sweep: warm (WAL) vs cold vs hot standby per crash point ({rounds} rounds/cell)\n{}\n{status}",
        render(
            &[
                "Crash point",
                "Mode",
                "Crashes",
                "Warm/cold rec",
                "Promoted",
                "Recovery latency",
                "Timeout evac",
                "Readmitted",
                "Invariant viol.",
                "Throughput",
            ],
            &body
        )
    )
}

/// One parsed baseline row.
struct CommittedRow {
    point: CrashPoint,
    mode: Mode,
    recovery_latency_s: Option<f64>,
    timeout_evacuations: f64,
    invariant_violations: usize,
}

/// Regression gate over the committed `BENCH_recovery.json`, re-running
/// each row for `rounds` rounds of `duration` simulated seconds. Fails
/// when
///
/// * a warm or standby row's dark time regressed — its fresh recovery
///   latency exceeds the committed one by more than a second — or its
///   fleet impact regressed (any timeout self-evacuation where the
///   committed row had none),
/// * the standby row misses the promotion contract: fewer promotions
///   than fired crashes, any cold fallback, or a mean promotion/recovery
///   latency at or over [`STANDBY_LATENCY_BUDGET`],
/// * a cold row's dark time worsened by more than 2× its committed
///   value, or
/// * any safety-invariant violation shows up — in the fresh runs or in
///   the committed baseline itself.
///
/// Latency and evacuation gates get one spike-tolerance retry (best of
/// two rounds-batches) before a row is declared regressed.
///
/// # Errors
///
/// Returns a description of the missing/corrupt baseline or the list of
/// regressed rows.
pub fn guard(rounds: u64, duration: f64) -> Result<String, String> {
    let path = results_path();
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (generate it with `expgen recovery` and commit it)",
            path.display()
        )
    })?;
    let mut rows = Vec::new();
    for line in committed.lines().filter(|l| l.contains("\"crash_point\"")) {
        let point_label = json_str(line, "crash_point")
            .ok_or_else(|| format!("baseline line missing crash_point: {line}"))?;
        let mode_label =
            json_str(line, "mode").ok_or_else(|| format!("baseline line missing mode: {line}"))?;
        rows.push(CommittedRow {
            point: crash_point_from_label(&point_label)
                .ok_or_else(|| format!("unknown crash point '{point_label}'"))?,
            mode: Mode::from_label(&mode_label)
                .ok_or_else(|| format!("unknown mode '{mode_label}'"))?,
            recovery_latency_s: json_num(line, "recovery_latency_s"),
            timeout_evacuations: json_num(line, "timeout_evacuations")
                .ok_or_else(|| format!("baseline line missing timeout_evacuations: {line}"))?,
            invariant_violations: json_num(line, "invariant_violations")
                .ok_or_else(|| format!("baseline line missing invariant_violations: {line}"))?
                as usize,
        });
    }
    if rows.is_empty() {
        return Err(format!("no result lines found in {}", path.display()));
    }
    if !rows
        .iter()
        .any(|r| r.point == CrashPoint::ProcessLoss && r.mode == Mode::Standby)
    {
        return Err(format!(
            "no standby row in {} — regenerate it with `expgen recovery`",
            path.display()
        ));
    }

    let mut failures = Vec::new();
    let mut fresh = Vec::new();
    for row in &rows {
        if row.invariant_violations != 0 {
            failures.push(format!(
                "committed baseline records {} invariant violations at {}/{} — \
                 regenerate it from a clean run",
                row.invariant_violations,
                row.point,
                row.mode.label()
            ));
        }
        let mut point = measure(rounds, duration, row.point, row.mode);
        if row_regressed(row, &point) {
            // One spike-tolerance retry: keep the better batch.
            let retry = measure(rounds, duration, row.point, row.mode);
            if !row_regressed(row, &retry) {
                point = retry;
            }
        }
        check_row(row, &point, &mut failures);
        fresh.push(point);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(fresh.iter())
        .map(|(row, point)| {
            vec![
                row.point.to_string(),
                row.mode.label().to_string(),
                row.recovery_latency_s
                    .map_or("n/a".into(), |l| format!("{l:.2} s")),
                point
                    .recovery_latency_s
                    .map_or("n/a".into(), |l| format!("{l:.2} s")),
                format!("{:.1}", row.timeout_evacuations),
                format!("{:.1}", point.timeout_evacuations),
                point.promotions.to_string(),
            ]
        })
        .collect();
    let rendered = render(
        &[
            "Crash point",
            "Mode",
            "Latency (committed)",
            "Latency (fresh)",
            "Evac (committed)",
            "Evac (fresh)",
            "Promoted",
        ],
        &table,
    );
    if failures.is_empty() {
        Ok(format!(
            "Recovery regression guard: {} rows within gates ({rounds} rounds/row)\n{rendered}",
            rows.len()
        ))
    } else {
        Err(format!(
            "recovery regression guard failed:\n  {}\n{rendered}",
            failures.join("\n  ")
        ))
    }
}

/// Whether a fresh measurement trips any gate for its committed row
/// (used both for the retry decision and the final verdict).
fn row_regressed(row: &CommittedRow, point: &Point) -> bool {
    let mut failures = Vec::new();
    check_row(row, point, &mut failures);
    !failures.is_empty()
}

fn check_row(row: &CommittedRow, point: &Point, failures: &mut Vec<String>) {
    let cell = format!("{}/{}", row.point, row.mode.label());
    if point.crashes == 0 {
        failures.push(format!("{cell}: the crash injection never fired"));
        return;
    }
    if point.invariant_violations != 0 {
        failures.push(format!(
            "{cell}: {} invariant violations in the fresh run",
            point.invariant_violations
        ));
    }
    match row.mode {
        Mode::Warm | Mode::Standby => {
            // Dark-time gate: no silent drift from "the fleet never
            // noticed" toward visible outages.
            let committed = row.recovery_latency_s.unwrap_or(0.0);
            match point.recovery_latency_s {
                Some(fresh) if fresh > committed + 1.0 => failures.push(format!(
                    "{cell}: recovery latency {committed:.2} s -> {fresh:.2} s"
                )),
                Some(_) => {}
                None => failures.push(format!("{cell}: no post-crash broadcast observed")),
            }
            // Fleet-impact gate: these rows exist to keep evacuations at
            // zero; any regression from a clean baseline fails.
            if row.timeout_evacuations == 0.0 && point.timeout_evacuations > 0.0 {
                failures.push(format!(
                    "{cell}: {:.1} timeout evacuations where the committed row had none",
                    point.timeout_evacuations
                ));
            }
            if row.mode == Mode::Standby {
                if point.promotions < point.crashes {
                    failures.push(format!(
                        "{cell}: {} promotions for {} crashes",
                        point.promotions, point.crashes
                    ));
                }
                if point.cold_recoveries != 0 {
                    failures.push(format!(
                        "{cell}: {} cold fallbacks behind the standby",
                        point.cold_recoveries
                    ));
                }
                for (label, latency) in [
                    ("promotion", point.promotion_latency_s),
                    ("recovery", point.recovery_latency_s),
                ] {
                    if latency.is_some_and(|l| l >= STANDBY_LATENCY_BUDGET) {
                        failures.push(format!(
                            "{cell}: mean {label} latency {:.2} s breaches the \
                             {STANDBY_LATENCY_BUDGET:.0} s budget",
                            latency.unwrap_or_default()
                        ));
                    }
                }
            }
        }
        Mode::Cold => {
            // Cold darkness is expected — it just must not get worse.
            if let (Some(committed), Some(fresh)) =
                (row.recovery_latency_s, point.recovery_latency_s)
            {
                if committed > 0.0 && fresh > committed * 2.0 {
                    failures.push(format!(
                        "{cell}: cold recovery latency {committed:.2} s -> {fresh:.2} s (>2x)"
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_configs_are_valid() {
        for &point in &CRASH_POINTS {
            for &mode in &[Mode::Warm, Mode::Cold] {
                crash_config(150.0, point, mode)
                    .validate()
                    .expect("valid recovery config");
            }
        }
        for &mode in &[Mode::Standby, Mode::Cold] {
            crash_config(150.0, CrashPoint::ProcessLoss, mode)
                .validate()
                .expect("valid process-loss config");
        }
    }

    fn sample_point(mode: Mode) -> Point {
        Point {
            point: if mode == Mode::Standby {
                CrashPoint::ProcessLoss
            } else {
                CrashPoint::BeforeCommit
            },
            mode: mode.label(),
            crashes: 3,
            warm_recoveries: if mode == Mode::Warm { 3 } else { 0 },
            cold_recoveries: if mode == Mode::Cold { 3 } else { 0 },
            promotions: if mode == Mode::Standby { 3 } else { 0 },
            promotion_latency_s: (mode == Mode::Standby).then_some(0.3),
            recovery_latency_s: Some(if mode == Mode::Cold { 20.5 } else { 0.3 }),
            timeout_evacuations: if mode == Mode::Cold { 8.8 } else { 0.0 },
            readmissions: 0.0,
            invariant_violations: 0,
            throughput: 30.0,
        }
    }

    #[test]
    fn json_has_header_and_rows() {
        let point = sample_point(Mode::Warm);
        let json = to_json(3, 150.0, std::slice::from_ref(&point));
        let mut lines = json.lines();
        assert!(lines
            .next()
            .expect("header")
            .contains("\"schema\":\"nwade-recovery-v2\""));
        let row = lines.next().expect("row");
        assert!(row.contains("\"crash_point\":\"before-commit\""));
        assert!(row.contains("\"mode\":\"warm\""));
        assert!(row.contains("\"promotions\":0"));
        assert!(row.contains("\"promotion_latency_s\":null"));
        assert!(row.contains("\"recovery_latency_s\":0.300"));
    }

    #[test]
    fn guard_rows_round_trip_through_json() {
        let points = [sample_point(Mode::Standby), sample_point(Mode::Cold)];
        let json = to_json(3, 150.0, &points);
        let row = json.lines().nth(1).expect("standby row");
        assert_eq!(
            json_str(row, "crash_point").as_deref(),
            Some("process-loss")
        );
        assert_eq!(
            crash_point_from_label(&json_str(row, "crash_point").unwrap()),
            Some(CrashPoint::ProcessLoss)
        );
        assert_eq!(
            Mode::from_label(&json_str(row, "mode").unwrap()),
            Some(Mode::Standby)
        );
        assert_eq!(json_num(row, "promotion_latency_s"), Some(0.3));
        assert_eq!(json_num(row, "promotions"), Some(3.0));
    }

    #[test]
    fn gates_catch_the_regressions_they_claim_to() {
        let committed = CommittedRow {
            point: CrashPoint::ProcessLoss,
            mode: Mode::Standby,
            recovery_latency_s: Some(0.3),
            timeout_evacuations: 0.0,
            invariant_violations: 0,
        };
        let healthy = sample_point(Mode::Standby);
        assert!(!row_regressed(&committed, &healthy));

        let mut slow = healthy.clone();
        slow.recovery_latency_s = Some(2.0);
        assert!(row_regressed(&committed, &slow), "dark-time regression");

        let mut evac = healthy.clone();
        evac.timeout_evacuations = 1.5;
        assert!(row_regressed(&committed, &evac), "evacuation regression");

        let mut unpromoted = healthy.clone();
        unpromoted.promotions = 0;
        assert!(row_regressed(&committed, &unpromoted), "missed promotion");

        let cold_row = CommittedRow {
            point: CrashPoint::ProcessLoss,
            mode: Mode::Cold,
            recovery_latency_s: Some(20.5),
            timeout_evacuations: 8.8,
            invariant_violations: 0,
        };
        let mut cold = sample_point(Mode::Cold);
        assert!(!row_regressed(&cold_row, &cold));
        cold.recovery_latency_s = Some(45.0);
        assert!(row_regressed(&cold_row, &cold), "cold dark time >2x");
    }
}
