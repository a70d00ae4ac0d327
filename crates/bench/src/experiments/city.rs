//! City-scale shard throughput: aggregate plan-scheduling rate of a
//! sharded multi-intersection grid versus one monolithic intersection.
//!
//! The sweep holds the **total** city demand *and the road geometry*
//! fixed and splits the fleet across 1 → 16 ring-linked shards, so
//! every cell schedules the same vehicles over the same road lengths —
//! what changes is how many managers carry the load, and therefore how
//! congested each one's approaches are. Scheduling cost is driven by
//! the queue pressing each intersection's box — the committed
//! `BENCH_perf.json` saturation sweep shows window latency growing far
//! faster than batch size once arrivals compress (1000 → 2000 requests
//! on the same approaches quadruples it), so dividing a saturated
//! intersection's queue across N shards cuts aggregate window cost
//! superlinearly — even on a single-core host. On multi-core hosts the shard fan-out
//! adds real parallelism on top; `host_threads` is recorded in the
//! header so the two effects are never conflated.
//!
//! Each cell prespawns `total / shards` vehicles per shard, warms up,
//! then runs measured rounds of "enqueue every plan request, tick
//! through one processing window", followed by a short untimed drain
//! through the cross-shard anchor audit. The prespawned bench fleet
//! fills the approaches from far upstream, so boundary traffic barely
//! moves inside the timed seconds; actual handoff flow is measured by a
//! separate deterministic **flow probe** — a 3-shard ring under normal
//! arrival demand run long enough for vehicles to cross between shards
//! — whose handoff counts are bit-reproducible and re-checked exactly
//! by the guard.
//!
//! `report()` writes `BENCH_city.json` at the repo root (hand-rolled
//! JSON lines — the workspace has no JSON dependency). `guard()`
//! re-measures every committed cell and fails on a >2× per-tick p99
//! regression, on an aggregate-throughput speedup that collapsed below
//! half the committed scaling, on a flow probe that stopped reproducing
//! its committed handoff counts, or on any anchor mismatch.

use std::time::Instant;

use nwade_sim::{CityConfig, CityGrid, SignatureChoice, SimConfig};

use super::json_num;
use super::perf::host_threads;

/// Shard counts swept; demand per shard is [`TOTAL_DEMAND`]` / shards`.
pub const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Total vehicles prespawned across the whole city, every cell. Sized
/// to just fit one intersection's standard 2100 m approaches: the
/// 1-shard cell is a near-saturated single manager (its queue reaches
/// almost to the box), yet stays below the pressed regime where
/// scheduler wall time turns unstable run-to-run.
pub const TOTAL_DEMAND: usize = 1800;

/// Ticks run before measurement starts.
const WARMUP_TICKS: usize = 5;

/// Measured rounds per cell; each spans one processing window.
const ROUNDS: usize = 3;

/// Ticks per round — one window interval (1 s at dt = 0.1 s).
const TICKS_PER_ROUND: usize = 10;

/// Post-measurement drain ticks: flushes the last window's blocks
/// through the cross-shard anchor audit before mismatches are read.
const DRAIN_TICKS: u64 = 50;

/// Flow-probe shape: shards, arrival density (veh/h), simulated
/// duration, and ticks run. 700 ticks is long enough for the first
/// admitted vehicles to cross a shard, ride a ring link, and re-admit
/// at the neighbour.
const PROBE_SHARDS: usize = 3;
const PROBE_DENSITY: f64 = 60.0;
const PROBE_DURATION: f64 = 40.0;
const PROBE_SEED: u64 = 11;
const PROBE_TICKS: u64 = 700;

/// One measured shard-count cell.
#[derive(Debug, Clone)]
pub struct CityPoint {
    /// Shards in the ring.
    pub shards: usize,
    /// Vehicles requested per shard (`TOTAL_DEMAND / shards`).
    pub per_shard: usize,
    /// Vehicles actually placed city-wide by `prespawn_fleet`.
    pub placed: usize,
    /// Plans sealed during the measured rounds.
    pub plans: usize,
    /// Aggregate scheduling throughput: plans per wall-clock second.
    pub plans_per_sec: f64,
    /// Median wall-clock per city tick over the measured rounds, ms.
    pub tick_p50_ms: f64,
    /// p99 wall-clock per city tick — the window-bearing ticks, ms.
    pub tick_p99_ms: f64,
    /// Boundary crossings observed by the end of the drain.
    pub handoffs: usize,
    /// Anchor-audit mismatches by the end of the drain — must be 0.
    pub anchor_mismatches: usize,
}

/// Base shard config for the city sweep: the perf fleet idiom — mock
/// signatures, arrivals disabled (the fleet is prespawned), short
/// sensing radius. The approaches are sized once, from the **total**
/// city demand, and stay identical across every shard count: the sweep
/// compares managers over the *same roads*. In the 1-shard cell the
/// whole city fleet queues up to the single intersection's box — the
/// saturated-intersection baseline the paper's city-scale argument
/// starts from — while sharding both shortens each manager's queue and
/// moves its head away from the box, which is precisely the relief a
/// multi-intersection deployment buys.
pub fn city_base_config(total: usize) -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = 120.0;
    config.density = 0.001;
    config.seed = 7;
    config.signature = SignatureChoice::Mock;
    config.nwade.sensing_radius = 60.0;
    // 8 m prespawn spacing over the 4-way cross's 8 approach lanes:
    // the whole city demand must fit on one shard in the 1-shard cell.
    let needed = 8.0 * total as f64 / 8.0 + 120.0;
    config.geometry.approach_len = 2100.0f64.max(needed);
    config
}

/// Measures one shard-count cell on a fresh city with `total` vehicles
/// split evenly across the shards.
pub fn measure_city(shards: usize, total: usize) -> CityPoint {
    let per_shard = (total / shards).max(1);
    let config = CityConfig::ring(shards, city_base_config(total));
    config.validate().expect("city bench config valid");
    let mut city = CityGrid::new(config);
    let mut placed = 0;
    for shard in city.shards_mut() {
        placed += shard.prespawn_fleet(per_shard);
    }
    for _ in 0..WARMUP_TICKS {
        city.tick();
    }

    let plans_before = city.report().plans_scheduled;
    let mut tick_ms: Vec<f64> = Vec::with_capacity(ROUNDS * TICKS_PER_ROUND);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for shard in city.shards_mut() {
            let _ = shard.enqueue_plan_requests(usize::MAX);
        }
        for _ in 0..TICKS_PER_ROUND {
            let t0 = Instant::now();
            city.tick();
            tick_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let plans = city.report().plans_scheduled.saturating_sub(plans_before);

    // Untimed drain: flush the last window's blocks through the
    // cross-shard anchor audit before reading the mismatch counter.
    city.run_ticks(DRAIN_TICKS);
    city.check_conservation().expect("city conserves vehicles");
    let report = city.report();

    tick_ms.sort_by(f64::total_cmp);
    let pct = |q: f64| tick_ms[((tick_ms.len() - 1) as f64 * q).round() as usize];
    CityPoint {
        shards,
        per_shard,
        placed,
        plans,
        plans_per_sec: if wall > 0.0 { plans as f64 / wall } else { 0.0 },
        tick_p50_ms: pct(0.5),
        tick_p99_ms: pct(0.99),
        handoffs: report.handoffs,
        anchor_mismatches: report.anchor_mismatches,
    }
}

/// Runs the shard-count sweep at the fixed [`TOTAL_DEMAND`].
pub fn sweep() -> Vec<CityPoint> {
    SHARD_COUNTS
        .iter()
        .map(|&shards| measure_city(shards, TOTAL_DEMAND))
        .collect()
}

/// Deterministic boundary-flow measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowProbe {
    /// Vehicles handed off onto ring links.
    pub handoffs: usize,
    /// Vehicles re-admitted at a neighbour.
    pub handoffs_in: usize,
    /// Mean boundary re-admission latency, simulated seconds.
    pub boundary_latency_s: Option<f64>,
    /// Anchor-audit mismatches — must be 0.
    pub anchor_mismatches: usize,
}

/// Runs the flow probe: a `PROBE_SHARDS`-shard ring under normal
/// arrival demand, long enough for vehicles to cross shard boundaries.
/// The city is bit-reproducible, so the counts are exact — the guard
/// compares them for equality, not within a tolerance.
pub fn measure_flow_probe() -> FlowProbe {
    let mut base = SimConfig::default();
    base.duration = PROBE_DURATION;
    base.density = PROBE_DENSITY;
    base.seed = PROBE_SEED;
    let mut city = CityGrid::new(CityConfig::ring(PROBE_SHARDS, base));
    city.run_ticks(PROBE_TICKS);
    city.check_conservation().expect("probe conserves vehicles");
    let report = city.report();
    FlowProbe {
        handoffs: report.handoffs,
        handoffs_in: report.per_shard.iter().map(|s| s.handoffs_in).sum(),
        boundary_latency_s: report.boundary_latency,
        anchor_mismatches: report.anchor_mismatches,
    }
}

/// Aggregate-throughput speedup of `point` over the 1-shard cell.
fn speedup_vs_one(points: &[CityPoint], point: &CityPoint) -> Option<f64> {
    points
        .iter()
        .find(|p| p.shards == 1)
        .filter(|base| base.plans_per_sec > 0.0)
        .map(|base| point.plans_per_sec / base.plans_per_sec)
}

/// Serialises the sweep and the flow probe: a header object, one cell
/// per line, then the probe line.
pub fn to_json(points: &[CityPoint], probe: &FlowProbe) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"nwade-city-v1\",\"host_threads\":{},\"total_demand\":{TOTAL_DEMAND},\
         \"warmup_ticks\":{WARMUP_TICKS},\"rounds\":{ROUNDS},\"ticks_per_round\":{TICKS_PER_ROUND},\
         \"drain_ticks\":{DRAIN_TICKS}}}\n",
        host_threads()
    ));
    for p in points {
        let speedup = speedup_vs_one(points, p).unwrap_or(1.0);
        out.push_str(&format!(
            "{{\"shards\":{},\"per_shard\":{},\"placed\":{},\"plans\":{},\
             \"plans_per_sec\":{:.1},\"tick_p50_ms\":{:.4},\"tick_p99_ms\":{:.4},\
             \"speedup_vs_1\":{:.3},\"efficiency\":{:.3},\"handoffs\":{},\
             \"anchor_mismatches\":{}}}\n",
            p.shards,
            p.per_shard,
            p.placed,
            p.plans,
            p.plans_per_sec,
            p.tick_p50_ms,
            p.tick_p99_ms,
            speedup,
            speedup / p.shards as f64,
            p.handoffs,
            p.anchor_mismatches,
        ));
    }
    out.push_str(&format!(
        "{{\"probe\":\"flow\",\"probe_shards\":{PROBE_SHARDS},\"probe_ticks\":{PROBE_TICKS},\
         \"handoffs\":{},\"handoffs_in\":{},\"boundary_latency_s\":{},\
         \"anchor_mismatches\":{}}}\n",
        probe.handoffs,
        probe.handoffs_in,
        probe
            .boundary_latency_s
            .map_or_else(|| "null".into(), |l| format!("{l:.3}")),
        probe.anchor_mismatches,
    ));
    out
}

/// Path of the committed baseline at the repository root.
pub fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_city.json")
}

fn render(points: &[CityPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let speedup =
                speedup_vs_one(points, p).map_or_else(|| "-".into(), |s| format!("{s:.2}x"));
            vec![
                p.shards.to_string(),
                p.placed.to_string(),
                p.plans.to_string(),
                format!("{:.1}", p.plans_per_sec),
                speedup,
                format!("{:.4}", p.tick_p50_ms),
                format!("{:.4}", p.tick_p99_ms),
                p.handoffs.to_string(),
                p.anchor_mismatches.to_string(),
            ]
        })
        .collect();
    crate::table::render(
        &[
            "shards",
            "placed",
            "plans",
            "plans/s",
            "speedup",
            "tick p50 ms",
            "tick p99 ms",
            "handoffs",
            "anchor miss",
        ],
        &rows,
    )
}

/// Runs the sweep and the flow probe, rewrites `BENCH_city.json`, and
/// renders the table.
pub fn report() -> String {
    let points = sweep();
    let probe = measure_flow_probe();
    let json = to_json(&points, &probe);
    let path = baseline_path();
    let status = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline written to {}", path.display()),
        Err(e) => format!("WARNING: could not write {}: {e}", path.display()),
    };
    format!(
        "City shard scaling ({} hardware threads, {TOTAL_DEMAND} vehicles total per cell)\n{}\n\
         Flow probe ({PROBE_SHARDS}-shard ring, {PROBE_TICKS} ticks): \
         {} handoffs out, {} re-admitted, boundary latency {}, {} anchor mismatches\n{status}",
        host_threads(),
        render(&points),
        probe.handoffs,
        probe.handoffs_in,
        probe
            .boundary_latency_s
            .map_or_else(|| "-".into(), |l| format!("{l:.1} s")),
        probe.anchor_mismatches,
    )
}

/// One parsed baseline cell.
struct CommittedCell {
    shards: usize,
    p99_ms: f64,
    plans_per_sec: f64,
    anchor_mismatches: usize,
}

/// Regression gate: re-measures every shard count in the committed
/// baseline and fails when
///
/// * a cell's per-tick p99 regressed by more than 2×,
/// * the aggregate-throughput speedup of any multi-shard cell over the
///   1-shard cell fell below **half** its committed value (the
///   shard-scaling efficiency floor),
/// * the flow probe no longer reproduces its committed handoff counts
///   exactly (the probe is deterministic — any drift is a real
///   behaviour change, not noise), or
/// * any anchor-audit mismatch shows up — in the fresh runs or in the
///   committed baseline itself.
///
/// Timing gates get one spike-tolerance retry (best of two) before a
/// cell is declared regressed; the anchor gate is deterministic and
/// gets none.
///
/// # Errors
///
/// Returns a description of the missing/corrupt baseline or the list of
/// regressed cells.
pub fn guard() -> Result<String, String> {
    let path = baseline_path();
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (generate it with `expgen city` and commit it)",
            path.display()
        )
    })?;
    let mut cells = Vec::new();
    for line in committed.lines().filter(|l| l.contains("\"shards\"")) {
        cells.push(CommittedCell {
            shards: json_num(line, "shards")
                .ok_or_else(|| format!("baseline line missing shards: {line}"))?
                as usize,
            p99_ms: json_num(line, "tick_p99_ms")
                .ok_or_else(|| format!("baseline line missing tick_p99_ms: {line}"))?,
            plans_per_sec: json_num(line, "plans_per_sec")
                .ok_or_else(|| format!("baseline line missing plans_per_sec: {line}"))?,
            anchor_mismatches: json_num(line, "anchor_mismatches")
                .ok_or_else(|| format!("baseline line missing anchor_mismatches: {line}"))?
                as usize,
        });
    }
    if cells.is_empty() {
        return Err(format!("no result lines found in {}", path.display()));
    }

    let mut failures = Vec::new();
    for cell in &cells {
        if cell.anchor_mismatches != 0 {
            failures.push(format!(
                "committed baseline records {} anchor mismatches at {} shards — \
                 regenerate it from a clean run",
                cell.anchor_mismatches, cell.shards
            ));
        }
    }

    let mut fresh: Vec<CityPoint> = cells
        .iter()
        .map(|c| measure_city(c.shards, TOTAL_DEMAND))
        .collect();

    // p99 gate, with one spike-tolerance retry per regressed cell.
    for (cell, point) in cells.iter().zip(fresh.iter_mut()) {
        let ratio_of = |f: f64| {
            if cell.p99_ms > 0.0 {
                f / cell.p99_ms
            } else {
                1.0
            }
        };
        let mut ratio = ratio_of(point.tick_p99_ms);
        if ratio > 2.0 {
            let retry = measure_city(cell.shards, TOTAL_DEMAND);
            point.tick_p99_ms = point.tick_p99_ms.min(retry.tick_p99_ms);
            point.plans_per_sec = point.plans_per_sec.max(retry.plans_per_sec);
            ratio = ratio_of(point.tick_p99_ms);
        }
        if ratio > 2.0 {
            failures.push(format!(
                "{} shards: tick p99 {:.4} ms -> {:.4} ms ({ratio:.2}x)",
                cell.shards, cell.p99_ms, point.tick_p99_ms
            ));
        }
        if point.anchor_mismatches != 0 {
            failures.push(format!(
                "{} shards: {} anchor mismatches in the fresh run",
                cell.shards, point.anchor_mismatches
            ));
        }
    }

    // Scaling-efficiency floor: the speedup each committed multi-shard
    // cell shows over the 1-shard cell must survive at half strength.
    let committed_base = cells
        .iter()
        .find(|c| c.shards == 1)
        .map(|c| c.plans_per_sec);
    let fresh_base = fresh
        .iter()
        .find(|p| p.shards == 1)
        .map(|p| p.plans_per_sec);
    if let (Some(cb), Some(fb)) = (committed_base, fresh_base) {
        for (cell, point) in cells.iter().zip(fresh.iter_mut()) {
            if cell.shards == 1 || cb <= 0.0 || fb <= 0.0 {
                continue;
            }
            let committed_speedup = cell.plans_per_sec / cb;
            let mut fresh_speedup = point.plans_per_sec / fb;
            if fresh_speedup < committed_speedup * 0.5 {
                // Same spike-tolerance policy as the p99 gate.
                let retry = measure_city(cell.shards, TOTAL_DEMAND);
                point.plans_per_sec = point.plans_per_sec.max(retry.plans_per_sec);
                fresh_speedup = point.plans_per_sec / fb;
            }
            if fresh_speedup < committed_speedup * 0.5 {
                failures.push(format!(
                    "{} shards: speedup over 1 shard fell to {fresh_speedup:.2}x \
                     (committed {committed_speedup:.2}x, floor {:.2}x)",
                    cell.shards,
                    committed_speedup * 0.5
                ));
            }
        }
    }

    // Flow-probe gate: deterministic, so committed and fresh counts
    // must agree exactly, flow must exist, and anchors must audit clean.
    if let Some(line) = committed.lines().find(|l| l.contains("\"probe\":\"flow\"")) {
        let committed_out = json_num(line, "handoffs")
            .ok_or_else(|| format!("probe line missing handoffs: {line}"))?
            as usize;
        let committed_in = json_num(line, "handoffs_in")
            .ok_or_else(|| format!("probe line missing handoffs_in: {line}"))?
            as usize;
        let probe = measure_flow_probe();
        if committed_out == 0 || committed_in == 0 {
            failures.push(
                "committed flow probe saw no boundary traffic — regenerate the baseline".into(),
            );
        }
        if probe.handoffs != committed_out || probe.handoffs_in != committed_in {
            failures.push(format!(
                "flow probe drifted: committed {committed_out} out / {committed_in} in, \
                 fresh {} out / {} in — the city is deterministic, so this is a \
                 behaviour change",
                probe.handoffs, probe.handoffs_in
            ));
        }
        if probe.anchor_mismatches != 0 {
            failures.push(format!(
                "flow probe: {} anchor mismatches",
                probe.anchor_mismatches
            ));
        }
    } else {
        failures.push(format!(
            "no flow-probe line found in {} — regenerate it with `expgen city`",
            path.display()
        ));
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(fresh.iter())
        .map(|(cell, point)| {
            vec![
                cell.shards.to_string(),
                format!("{:.4}", cell.p99_ms),
                format!("{:.4}", point.tick_p99_ms),
                format!("{:.1}", cell.plans_per_sec),
                format!("{:.1}", point.plans_per_sec),
                point.anchor_mismatches.to_string(),
            ]
        })
        .collect();
    let table = crate::table::render(
        &[
            "shards",
            "p99 base ms",
            "p99 ms",
            "plans/s base",
            "plans/s",
            "anchor miss",
        ],
        &rows,
    );
    if failures.is_empty() {
        Ok(format!(
            "City guard: scaling holds, anchors clean, p99 within 2x of baseline\n{table}"
        ))
    } else {
        Err(format!(
            "city regression vs committed baseline:\n  {}\n{table}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_is_valid_and_stretches() {
        city_base_config(100).validate().expect("valid");
        let wide = city_base_config(3000);
        assert!(
            wide.geometry.approach_len >= 3000.0,
            "approaches must stretch to fit the whole city demand on one shard"
        );
        assert_eq!(city_base_config(10).geometry.approach_len, 2100.0);
        // Fixed roads: every shard count in a sweep sees the same
        // geometry — congestion, not road length, is what sharding
        // divides.
        assert_eq!(
            city_base_config(TOTAL_DEMAND).geometry.approach_len,
            CityConfig::ring(8, city_base_config(TOTAL_DEMAND))
                .shard_config(3)
                .geometry
                .approach_len
        );
    }

    #[test]
    fn json_round_trip_scans_back() {
        let points = vec![
            CityPoint {
                shards: 1,
                per_shard: 100,
                placed: 100,
                plans: 300,
                plans_per_sec: 1000.0,
                tick_p50_ms: 0.5,
                tick_p99_ms: 20.0,
                handoffs: 0,
                anchor_mismatches: 0,
            },
            CityPoint {
                shards: 4,
                per_shard: 25,
                placed: 100,
                plans: 300,
                plans_per_sec: 3500.0,
                tick_p50_ms: 0.25,
                tick_p99_ms: 6.0,
                handoffs: 17,
                anchor_mismatches: 0,
            },
        ];
        let probe = FlowProbe {
            handoffs: 21,
            handoffs_in: 19,
            boundary_latency_s: Some(4.5),
            anchor_mismatches: 0,
        };
        let json = to_json(&points, &probe);
        let header = json.lines().next().expect("header");
        assert!(header.contains("\"schema\":\"nwade-city-v1\""));
        assert!(header.contains("\"host_threads\":"));
        assert!(header.contains(&format!("\"total_demand\":{TOTAL_DEMAND}")));
        let line = json
            .lines()
            .find(|l| l.contains("\"shards\":4"))
            .expect("4-shard line");
        assert_eq!(json_num(line, "shards"), Some(4.0));
        assert_eq!(json_num(line, "plans_per_sec"), Some(3500.0));
        assert_eq!(json_num(line, "tick_p99_ms"), Some(6.0));
        assert_eq!(json_num(line, "speedup_vs_1"), Some(3.5));
        assert_eq!(json_num(line, "handoffs"), Some(17.0));
        assert_eq!(json_num(line, "anchor_mismatches"), Some(0.0));
        // Header must not parse as a result cell.
        assert!(!header.contains("\"shards\""));
        let probe_line = json
            .lines()
            .find(|l| l.contains("\"probe\":\"flow\""))
            .expect("probe line");
        assert_eq!(json_num(probe_line, "handoffs"), Some(21.0));
        assert_eq!(json_num(probe_line, "handoffs_in"), Some(19.0));
        assert_eq!(json_num(probe_line, "boundary_latency_s"), Some(4.5));
        assert!(
            !probe_line.contains("\"shards\""),
            "probe lines must not parse as sweep cells"
        );
    }

    #[test]
    fn speedup_is_relative_to_one_shard() {
        let mk = |shards: usize, pps: f64| CityPoint {
            shards,
            per_shard: 10,
            placed: 10,
            plans: 30,
            plans_per_sec: pps,
            tick_p50_ms: 1.0,
            tick_p99_ms: 2.0,
            handoffs: 0,
            anchor_mismatches: 0,
        };
        let points = vec![mk(1, 500.0), mk(8, 2000.0)];
        assert_eq!(speedup_vs_one(&points, &points[1]), Some(4.0));
        let no_base = vec![mk(8, 2000.0)];
        assert_eq!(speedup_vs_one(&no_base, &no_base[0]), None);
    }

    /// A tiny 2-shard cell end-to-end: the measurement itself must
    /// produce a sane point, conserve vehicles, and audit clean.
    #[test]
    fn measure_tiny_city_produces_sane_point() {
        let point = measure_city(2, 24);
        assert_eq!(point.shards, 2);
        assert_eq!(point.per_shard, 12);
        assert_eq!(point.placed, 24);
        assert!(point.plans > 0, "measured rounds must seal plans");
        assert!(point.plans_per_sec > 0.0);
        assert!(point.tick_p99_ms >= point.tick_p50_ms);
        assert_eq!(point.anchor_mismatches, 0);
    }
}
