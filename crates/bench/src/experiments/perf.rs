//! Perf baseline: tick throughput, sense-pass latency, and window
//! processing latency across fleet densities.
//!
//! `report()` sweeps density over a prespawned fleet, then runs the
//! **saturation study**: window throughput from 50 to 10 000 vehicles
//! under unbounded admission. Both sweeps land in `BENCH_perf.json` at
//! the repo root (a header object, then one result object per line,
//! hand-rolled — the workspace has no JSON dependency) and render as
//! human tables. `guard()` re-measures every point recorded in the
//! committed baseline and fails on a >2× per-tick, per-window, or
//! p99-window-latency slowdown — and on any window that admitted fewer
//! requests than were offered without the shed counters saying so.

use std::time::Instant;

use nwade_sim::{SignatureChoice, SimConfig, Simulation};

use super::{json_num, json_str};

/// Schema tag of `BENCH_perf.json`; the guard reads no other.
pub const SCHEMA: &str = "nwade-perf-v2";

/// Fleet sizes swept by the baseline (vehicles prespawned on approach).
pub const DENSITIES: [usize; 5] = [50, 200, 500, 1000, 2000];

const WARMUP_TICKS: usize = 5;
const MEASURED_TICKS: usize = 20;
const SENSE_ITERS: usize = 5;
const WINDOW_ITERS: usize = 3;
/// Timed blocks per metric; the *minimum* block time is reported, which
/// discards co-tenant / frequency-scaling spikes on shared CI hosts.
const REPEAT_BLOCKS: usize = 3;

/// Fleet sizes swept by the saturation study.
pub const SATURATION_DENSITIES: [usize; 6] = [50, 200, 1000, 2000, 5000, 10_000];

/// Measured windows per saturation cell (after one warmup window).
pub const SATURATION_WINDOWS: usize = 6;

/// Saturation cells the guard re-measures; denser cells are reported in
/// the baseline but cost too much wall clock to re-run every CI pass.
pub const SATURATION_GUARD_MAX_DENSITY: usize = 2000;

/// One measured density cell.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Requested fleet size.
    pub density: usize,
    /// Vehicles actually placed by `prespawn_fleet`.
    pub placed: usize,
    /// Mean wall-clock per `tick_once`, milliseconds.
    pub tick_ms: f64,
    /// `1000 / tick_ms`.
    pub ticks_per_sec: f64,
    /// Mean wall-clock per forced sensing pass, milliseconds.
    pub sense_ms: f64,
    /// Minimum wall-clock per processing window, milliseconds.
    pub window_ms: f64,
    /// Active vehicles that wanted a plan when the window was filled.
    pub window_requests_offered: usize,
    /// Requests actually admitted; smaller than
    /// `window_requests_offered` exactly when an admission cap bound
    /// (never, under the default unbounded policy).
    pub window_requests_scheduled: usize,
}

/// One measured density cell of the saturation study.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Requested fleet size.
    pub density: usize,
    /// Vehicles actually placed by `prespawn_fleet`.
    pub placed: usize,
    /// Requests waiting at the last measured window (admitted +
    /// deferred).
    pub offered: usize,
    /// Requests admitted into the last measured window.
    pub admitted: usize,
    /// Total requests deferred across the measured windows.
    pub deferred: usize,
    /// Plans sealed into blocks across the measured windows.
    pub sealed_plans: usize,
    /// Plans sealed per window.
    pub plans_per_window: f64,
    /// Median window latency, milliseconds.
    pub p50_ms: f64,
    /// p99 (max over ≤ 100 windows) window latency, milliseconds.
    pub p99_ms: f64,
}

/// Simulation config for the prespawned perf fleet.
///
/// Arrivals are effectively disabled (the fleet is prespawned), the
/// approaches are stretched so 2000 vehicles fit single-file, and the
/// sensing radius is shrunk to 60 m: the paper's 1000 ft radius covers
/// the entire modeled area, which turns observation building into
/// O(V²) whatever the neighbourhood index.
pub fn fleet_config() -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = 60.0;
    config.density = 0.001;
    config.seed = 7;
    config.signature = SignatureChoice::Mock;
    config.nwade.sensing_radius = 60.0;
    config.geometry.approach_len = 2100.0;
    config
}

/// Measures one density cell on a fresh simulation.
pub fn measure(density: usize) -> PerfPoint {
    let config = fleet_config();
    config.validate().expect("perf config valid");
    let mut sim = Simulation::new(config);
    let placed = sim.prespawn_fleet(density);
    for _ in 0..WARMUP_TICKS {
        sim.tick_once();
    }

    let mut tick_s = f64::INFINITY;
    for _ in 0..REPEAT_BLOCKS {
        let start = Instant::now();
        for _ in 0..MEASURED_TICKS {
            sim.tick_once();
        }
        tick_s = tick_s.min(start.elapsed().as_secs_f64() / MEASURED_TICKS as f64);
    }

    let mut sense_s = f64::INFINITY;
    for _ in 0..REPEAT_BLOCKS {
        let start = Instant::now();
        for _ in 0..SENSE_ITERS {
            sim.force_sense_pass();
        }
        sense_s = sense_s.min(start.elapsed().as_secs_f64() / SENSE_ITERS as f64);
    }

    // Minimum over iterations, like the other metrics — window latency
    // gates CI, so spike-robustness matters more than averaging. The
    // whole offered batch is enqueued; the configured admission policy
    // (unbounded by default) decides what the window takes.
    let mut window_s = f64::INFINITY;
    let mut window_requests_offered = 0;
    let mut window_requests_scheduled = 0;
    for _ in 0..WINDOW_ITERS {
        let (offered, scheduled) = sim.enqueue_plan_requests(usize::MAX);
        window_requests_offered = offered;
        window_requests_scheduled = scheduled;
        let start = Instant::now();
        sim.force_process_window();
        window_s = window_s.min(start.elapsed().as_secs_f64());
    }

    PerfPoint {
        density,
        placed,
        tick_ms: tick_s * 1e3,
        ticks_per_sec: if tick_s > 0.0 {
            1.0 / tick_s
        } else {
            f64::INFINITY
        },
        sense_ms: sense_s * 1e3,
        window_ms: window_s * 1e3,
        window_requests_offered,
        window_requests_scheduled,
    }
}

/// Runs the full density sweep.
pub fn sweep() -> Vec<PerfPoint> {
    DENSITIES.iter().map(|&density| measure(density)).collect()
}

/// Simulation config for one saturation cell: the perf fleet with the
/// approaches stretched so `density` vehicles fit single-file (8 m
/// spacing spread over the approach lanes).
pub fn saturation_config(density: usize) -> SimConfig {
    let mut config = fleet_config();
    let needed = 8.0 * density as f64 / 12.0 + 120.0;
    config.geometry.approach_len = config.geometry.approach_len.max(needed);
    config
}

/// Measures one saturation cell on a fresh simulation.
pub fn measure_saturation(density: usize) -> SaturationPoint {
    let config = saturation_config(density);
    config.validate().expect("saturation config valid");
    let mut sim = Simulation::new(config);
    let placed = sim.prespawn_fleet(density);
    let _ = sim.bench_window_throughput(1); // warmup
    let (windows, sealed_plans) = sim.bench_window_throughput(SATURATION_WINDOWS);
    let mut latencies: Vec<f64> = windows.iter().map(|w| w.latency_s * 1e3).collect();
    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
    let last = windows.last().expect("at least one window");
    SaturationPoint {
        density,
        placed,
        offered: last.offered,
        admitted: last.admitted,
        deferred: windows.iter().map(|w| w.deferred).sum(),
        sealed_plans,
        plans_per_window: sealed_plans as f64 / windows.len() as f64,
        p50_ms: pct(0.5),
        p99_ms: pct(0.99),
    }
}

/// Runs the saturation sweep.
pub fn saturation_sweep() -> Vec<SaturationPoint> {
    SATURATION_DENSITIES
        .iter()
        .map(|&density| measure_saturation(density))
        .collect()
}

/// Hardware threads on the measuring host (recorded in the baseline so
/// single-core CI numbers are not read as parallel speedups).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serialises both sweeps: a header object, then one result per line —
/// tick cells carry `"cell":"tick"`, saturation cells
/// `"cell":"saturation"`.
pub fn to_json(points: &[PerfPoint], saturation: &[SaturationPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{SCHEMA}\",\"host_threads\":{},\"warmup_ticks\":{WARMUP_TICKS},\
         \"measured_ticks\":{MEASURED_TICKS},\"repeat_blocks\":{REPEAT_BLOCKS},\"sense_iters\":{SENSE_ITERS},\
         \"window_iters\":{WINDOW_ITERS},\"saturation_windows\":{SATURATION_WINDOWS}}}\n",
        host_threads()
    ));
    for p in points {
        out.push_str(&format!(
            "{{\"cell\":\"tick\",\"density\":{},\"placed\":{},\"tick_ms\":{:.4},\
             \"ticks_per_sec\":{:.2},\"sense_ms\":{:.4},\"window_ms\":{:.4},\
             \"window_requests_offered\":{},\"window_requests_scheduled\":{}}}\n",
            p.density,
            p.placed,
            p.tick_ms,
            p.ticks_per_sec,
            p.sense_ms,
            p.window_ms,
            p.window_requests_offered,
            p.window_requests_scheduled,
        ));
    }
    for s in saturation {
        out.push_str(&format!(
            "{{\"cell\":\"saturation\",\"density\":{},\"placed\":{},\"offered\":{},\
             \"admitted\":{},\"deferred\":{},\"sealed_plans\":{},\"plans_per_window\":{:.1},\
             \"p50_ms\":{:.4},\"p99_ms\":{:.4}}}\n",
            s.density,
            s.placed,
            s.offered,
            s.admitted,
            s.deferred,
            s.sealed_plans,
            s.plans_per_window,
            s.p50_ms,
            s.p99_ms,
        ));
    }
    out
}

/// Path of the committed baseline at the repository root.
pub fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json")
}

fn render(points: &[PerfPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.density.to_string(),
                p.placed.to_string(),
                format!("{:.4}", p.tick_ms),
                format!("{:.1}", p.ticks_per_sec),
                format!("{:.4}", p.sense_ms),
                format!("{:.4}", p.window_ms),
                format!(
                    "{}/{}",
                    p.window_requests_scheduled, p.window_requests_offered
                ),
            ]
        })
        .collect();
    crate::table::render(
        &[
            "density",
            "placed",
            "tick ms",
            "ticks/s",
            "sense ms",
            "window ms",
            "win req",
        ],
        &rows,
    )
}

/// Lines naming every cell where admission took fewer requests than
/// were offered — caps must never bind silently.
fn cap_notes(points: &[PerfPoint]) -> Vec<String> {
    points
        .iter()
        .filter(|p| p.window_requests_offered > p.window_requests_scheduled)
        .map(|p| {
            format!(
                "note: admission bound at density {}: \
                 {} vehicles offered, {} scheduled",
                p.density, p.window_requests_offered, p.window_requests_scheduled
            )
        })
        .collect()
}

fn render_saturation(points: &[SaturationPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|s| {
            vec![
                s.density.to_string(),
                s.placed.to_string(),
                format!("{}/{}", s.admitted, s.offered),
                s.deferred.to_string(),
                format!("{:.1}", s.plans_per_window),
                format!("{:.4}", s.p50_ms),
                format!("{:.4}", s.p99_ms),
            ]
        })
        .collect();
    crate::table::render(
        &[
            "density",
            "placed",
            "adm/off",
            "deferred",
            "plans/win",
            "p50 ms",
            "p99 ms",
        ],
        &rows,
    )
}

/// Runs both sweeps, rewrites `BENCH_perf.json`, and renders the
/// tables.
pub fn report() -> String {
    let points = sweep();
    let saturation = saturation_sweep();
    let json = to_json(&points, &saturation);
    let path = baseline_path();
    let status = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline written to {}", path.display()),
        Err(e) => format!("WARNING: could not write {}: {e}", path.display()),
    };
    let mut notes = cap_notes(&points);
    notes.push(status);
    format!(
        "Perf baseline ({} hardware threads)\n{}\n\
         Window saturation (unbounded admission)\n{}\n{}",
        host_threads(),
        render(&points),
        render_saturation(&saturation),
        notes.join("\n")
    )
}

/// Checks that the committed baseline's header names [`SCHEMA`]; a file
/// of another schema holds cells the guard cannot re-measure.
fn check_schema(committed: &str) -> Result<(), String> {
    let found = committed
        .lines()
        .next()
        .and_then(|header| json_str(header, "schema"));
    match found.as_deref() {
        Some(SCHEMA) => Ok(()),
        other => Err(format!(
            "baseline schema is {}, perf-guard reads {SCHEMA}: regenerate it with \
             `expgen perf` and commit it",
            other.unwrap_or("missing")
        )),
    }
}

/// Regression gate: re-measures every point in the committed baseline
/// and fails if any tick cell's per-tick **or** per-window time
/// regressed by more than 2×. Saturation cells up to
/// [`SATURATION_GUARD_MAX_DENSITY`] are re-measured too: their p99
/// window latency is gated at 2×, and any window that admitted fewer
/// requests than were offered **must** show a non-zero shed/deferral
/// counter — a silently binding cap fails the guard.
///
/// # Errors
///
/// Returns a description of the missing, corrupt or wrong-schema
/// baseline, or the list of regressed cells.
pub fn guard() -> Result<String, String> {
    let path = baseline_path();
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (generate it with `expgen perf` and commit it)",
            path.display()
        )
    })?;
    check_schema(&committed).map_err(|e| format!("{}: {e}", path.display()))?;
    let ratio_of = |fresh: f64, committed: f64| {
        if committed > 0.0 {
            fresh / committed
        } else {
            1.0
        }
    };
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for line in committed
        .lines()
        .filter(|l| l.contains("\"cell\":\"tick\""))
    {
        let density = json_num(line, "density")
            .ok_or_else(|| format!("baseline line missing density: {line}"))?
            as usize;
        let committed_tick = json_num(line, "tick_ms")
            .ok_or_else(|| format!("baseline line missing tick_ms: {line}"))?;
        let committed_window = json_num(line, "window_ms")
            .ok_or_else(|| format!("baseline line missing window_ms: {line}"))?;
        let mut fresh = measure(density);
        let mut tick_ratio = ratio_of(fresh.tick_ms, committed_tick);
        let mut window_ratio = ratio_of(fresh.window_ms, committed_window);
        if tick_ratio > 2.0 || window_ratio > 2.0 {
            // Shared CI hosts spike; only flag a cell regressed if it
            // exceeds the threshold on two consecutive measurements.
            // Metrics spike independently, so take each metric's best.
            let retry = measure(density);
            fresh.tick_ms = fresh.tick_ms.min(retry.tick_ms);
            fresh.window_ms = fresh.window_ms.min(retry.window_ms);
            tick_ratio = ratio_of(fresh.tick_ms, committed_tick);
            window_ratio = ratio_of(fresh.window_ms, committed_window);
        }
        if tick_ratio > 2.0 {
            failures.push(format!(
                "tick@{density}: {committed_tick:.4} ms -> {:.4} ms ({tick_ratio:.2}x)",
                fresh.tick_ms
            ));
        }
        if window_ratio > 2.0 {
            failures.push(format!(
                "window@{density}: {committed_window:.4} ms -> {:.4} ms ({window_ratio:.2}x)",
                fresh.window_ms
            ));
        }
        rows.push(vec![
            density.to_string(),
            format!("{committed_tick:.4}"),
            format!("{:.4}", fresh.tick_ms),
            format!("{tick_ratio:.2}x"),
            format!("{committed_window:.4}"),
            format!("{:.4}", fresh.window_ms),
            format!("{window_ratio:.2}x"),
        ]);
    }
    if rows.is_empty() {
        return Err(format!("no result lines found in {}", path.display()));
    }
    // Saturation cells: shed counters must account for every admission
    // gap, and p99 window latency gates at the same 2× threshold.
    let mut sat_rows = Vec::new();
    for line in committed
        .lines()
        .filter(|l| l.contains("\"cell\":\"saturation\""))
    {
        let density = json_num(line, "density")
            .ok_or_else(|| format!("saturation line missing density: {line}"))?
            as usize;
        let committed_p99 = json_num(line, "p99_ms")
            .ok_or_else(|| format!("saturation line missing p99_ms: {line}"))?;
        if density > SATURATION_GUARD_MAX_DENSITY {
            sat_rows.push(vec![
                density.to_string(),
                "-".into(),
                format!("{committed_p99:.4}"),
                "-".into(),
                "skipped".into(),
            ]);
            continue;
        }
        let mut fresh = measure_saturation(density);
        if fresh.admitted < fresh.offered && fresh.deferred == 0 {
            failures.push(format!(
                "saturation@{density}: admitted {} of {} offered requests with no \
                 shed/deferral counter increment — a cap is binding silently",
                fresh.admitted, fresh.offered
            ));
        }
        let mut p99_ratio = ratio_of(fresh.p99_ms, committed_p99);
        if p99_ratio > 2.0 {
            // Same spike-tolerance policy as the tick cells above.
            let retry = measure_saturation(density);
            fresh.p99_ms = fresh.p99_ms.min(retry.p99_ms);
            p99_ratio = ratio_of(fresh.p99_ms, committed_p99);
        }
        if p99_ratio > 2.0 {
            failures.push(format!(
                "saturation@{density}: p99 window {committed_p99:.4} ms -> {:.4} ms \
                 ({p99_ratio:.2}x)",
                fresh.p99_ms
            ));
        }
        sat_rows.push(vec![
            density.to_string(),
            format!("{}/{}", fresh.admitted, fresh.offered),
            format!("{committed_p99:.4}"),
            format!("{:.4}", fresh.p99_ms),
            format!("{p99_ratio:.2}x"),
        ]);
    }
    let table = crate::table::render(
        &[
            "density",
            "tick base ms",
            "tick ms",
            "tick ratio",
            "win base ms",
            "win ms",
            "win ratio",
        ],
        &rows,
    );
    let sat_table = if sat_rows.is_empty() {
        String::new()
    } else {
        format!(
            "\n{}",
            crate::table::render(
                &["density", "adm/off", "p99 base ms", "p99 ms", "p99 ratio"],
                &sat_rows,
            )
        )
    };
    if failures.is_empty() {
        Ok(format!(
            "Perf guard: all cells within 2x of baseline\n{table}{sat_table}"
        ))
    } else {
        Err(format!(
            "perf regression (>2x slowdown vs committed baseline):\n  {}\n{table}{sat_table}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade_aim::AdmissionPolicy;

    #[test]
    fn fleet_config_is_valid() {
        fleet_config().validate().expect("valid");
    }

    #[test]
    fn json_round_trip_scans_back() {
        let point = PerfPoint {
            density: 50,
            placed: 50,
            tick_ms: 1.25,
            ticks_per_sec: 800.0,
            sense_ms: 0.5,
            window_ms: 0.75,
            window_requests_offered: 60,
            window_requests_scheduled: 50,
        };
        let sat = SaturationPoint {
            density: 1000,
            placed: 1000,
            offered: 1000,
            admitted: 256,
            deferred: 744,
            sealed_plans: 1536,
            plans_per_window: 256.0,
            p50_ms: 3.5,
            p99_ms: 4.25,
        };
        let json = to_json(std::slice::from_ref(&point), std::slice::from_ref(&sat));
        check_schema(&json).expect("fresh output carries the current schema");
        let line = json
            .lines()
            .find(|l| l.contains("\"cell\":\"tick\""))
            .expect("tick line");
        assert_eq!(json_num(line, "density"), Some(50.0));
        assert_eq!(json_num(line, "tick_ms"), Some(1.25));
        assert_eq!(json_num(line, "window_ms"), Some(0.75));
        assert_eq!(json_num(line, "window_requests_offered"), Some(60.0));
        assert_eq!(json_num(line, "window_requests_scheduled"), Some(50.0));
        let sat_line = json
            .lines()
            .find(|l| l.contains("\"cell\":\"saturation\""))
            .expect("saturation line");
        assert_eq!(json_num(sat_line, "density"), Some(1000.0));
        assert_eq!(json_num(sat_line, "admitted"), Some(256.0));
        assert_eq!(json_num(sat_line, "deferred"), Some(744.0));
        assert_eq!(json_num(sat_line, "p99_ms"), Some(4.25));
        // Truncated batches are called out, never silent.
        let notes = cap_notes(&[point]);
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("60 vehicles offered, 50 scheduled"));
    }

    #[test]
    fn header_records_schema_and_host() {
        let json = to_json(&[], &[]);
        let header = json.lines().next().expect("header");
        assert!(header.contains(&format!("\"schema\":\"{SCHEMA}\"")));
        assert!(header.contains("\"host_threads\":"));
        assert!(header.contains(&format!("\"saturation_windows\":{SATURATION_WINDOWS}")));
    }

    /// A baseline of the previous schema is refused with a message that
    /// names both schemas, instead of failing on unknown cells.
    #[test]
    fn guard_rejects_other_schemas() {
        let v1 = "{\"schema\":\"nwade-perf-v1\",\"host_threads\":1}\n\
                  {\"density\":50,\"variant\":\"serial\",\"tick_ms\":1.0}\n";
        let err = check_schema(v1).expect_err("v1 refused");
        assert!(
            err.contains("nwade-perf-v1") && err.contains(SCHEMA),
            "{err}"
        );
        let err = check_schema("").expect_err("empty refused");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn measure_small_fleet_produces_sane_point() {
        let point = measure(8);
        assert_eq!(point.density, 8);
        assert_eq!(point.placed, 8);
        assert!(point.tick_ms > 0.0);
        assert!(point.sense_ms >= 0.0);
        assert!(point.window_requests_scheduled > 0);
        // Unbounded admission: the whole offered batch is scheduled.
        assert_eq!(
            point.window_requests_offered,
            point.window_requests_scheduled
        );
    }

    #[test]
    fn saturation_config_scales() {
        let big = saturation_config(10_000);
        assert!(
            big.geometry.approach_len > 6000.0,
            "approaches must stretch to fit 10k vehicles single-file"
        );
        assert_eq!(big.admission.max_batch, None);
        big.validate().expect("config valid");
        saturation_config(50).validate().expect("config valid");
    }

    /// A tiny saturation cell: a binding admission cap must defer (and
    /// say so), and the unbounded study must seal every offered plan.
    #[test]
    fn saturation_measures_small_fleet() {
        let mut config = saturation_config(12);
        config.admission = AdmissionPolicy::bounded(5);
        config.validate().expect("valid");
        let mut sim = Simulation::new(config);
        let placed = sim.prespawn_fleet(12);
        assert_eq!(placed, 12);
        let (windows, _sealed) = sim.bench_window_throughput(2);
        assert!(windows.iter().all(|w| w.admitted <= 5));
        assert!(
            windows.iter().any(|w| w.deferred > 0),
            "a binding cap must surface in the deferral counter"
        );

        let point = measure_saturation(12);
        assert_eq!(point.placed, 12);
        assert_eq!(point.deferred, 0);
        assert_eq!(point.offered, point.admitted);
        assert!(point.sealed_plans > 0);
        assert!(point.p99_ms >= point.p50_ms);
    }
}
