//! Eq. 2 detection-probability validation: measured Monte Carlo
//! detection rates against the analytic curve, across watcher counts
//! and collusion fractions.
//!
//! Each grid point runs [`measured_detection_rate`] — a structural
//! simulation of Eq. 2's generative model where every colluder's
//! compromise is drawn individually — and records the measured rate,
//! its Wilson interval, and the analytic `P_d = exp(−ω·k·p_v^k)`.
//! `report()` writes the machine-readable curve to `BENCH_detect.json`
//! at the repo root (hand-rolled JSON, one result per line, like the
//! other baselines); `guard()` re-measures every committed point (the
//! seeds are derived from the parameters, so re-measurement is exact)
//! and fails when any point's analytic value leaves the measured
//! Wilson interval by more than the documented model slack — the CI
//! gate behind the "reproduces Eq. 2" claim.

use nwade::prob::{detection_probability, measured_detection_rate, wilson_interval};

use super::json_num;

/// Watcher counts (Eq. 2's ω) swept by the validation — six points, so
/// the curve is pinned well past the acceptance floor of five.
pub const OMEGAS: [f64; 6] = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];

/// `(k, p_v)` collusion settings: attackers × per-vehicle compromise
/// probability. Chosen where `p_v^k` is small enough that Eq. 2's
/// Poisson limit is tight (see the slack accounting in `DetectPoint`).
pub const COLLUSIONS: [(u32, f64); 4] = [(2, 0.1), (2, 0.2), (3, 0.3), (4, 0.3)];

/// Monte Carlo trials per grid point.
pub const TRIALS: u32 = 4000;

/// z-score of the recorded Wilson intervals (99% two-sided).
pub const WILSON_Z: f64 = 2.576;

/// One validated grid point.
#[derive(Debug, Clone)]
pub struct DetectPoint {
    /// Watch opportunities per colluder (Eq. 2's ω).
    pub omega: f64,
    /// Number of colluding attackers.
    pub k: u32,
    /// Per-vehicle compromise probability.
    pub p_v: f64,
    /// Monte Carlo detection rate over [`TRIALS`] trials.
    pub measured: f64,
    /// Eq. 2 analytic detection probability.
    pub analytic: f64,
    /// Wilson interval of the measurement at [`WILSON_Z`].
    pub wilson_lo: f64,
    /// Upper Wilson bound.
    pub wilson_hi: f64,
    /// Absolute gap between the exact `(1 − p_v^k)^{ω·k}` process the
    /// simulation realizes and Eq. 2's exponential approximation —
    /// model error the acceptance band must tolerate on top of the
    /// statistical interval.
    pub model_slack: f64,
}

impl DetectPoint {
    /// Whether the analytic curve agrees with this measurement: inside
    /// the Wilson interval widened by the model slack.
    pub fn analytic_agrees(&self) -> bool {
        self.analytic >= self.wilson_lo - self.model_slack - 1e-9
            && self.analytic <= self.wilson_hi + self.model_slack + 1e-9
    }
}

/// Deterministic per-point seed: derived from the parameters, so a
/// guard run re-measures the committed point bit-identically.
fn seed_for(omega: f64, k: u32, p_v: f64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for byte in omega
        .to_bits()
        .to_be_bytes()
        .iter()
        .chain(u64::from(k).to_be_bytes().iter())
        .chain(p_v.to_bits().to_be_bytes().iter())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Measures one grid point.
pub fn measure(omega: f64, k: u32, p_v: f64) -> DetectPoint {
    let measured = measured_detection_rate(k, p_v, omega, TRIALS, seed_for(omega, k, p_v));
    let successes = (measured * f64::from(TRIALS)).round() as u64;
    let (wilson_lo, wilson_hi) = wilson_interval(successes, u64::from(TRIALS), WILSON_Z);
    let analytic = detection_probability(k, p_v, omega);
    let p_chain = p_v.powi(k as i32);
    let exact = (1.0 - p_chain).powf((omega * f64::from(k)).round());
    DetectPoint {
        omega,
        k,
        p_v,
        measured,
        analytic,
        wilson_lo,
        wilson_hi,
        model_slack: (exact - analytic).abs(),
    }
}

/// Runs the full ω × (k, p_v) grid.
pub fn sweep() -> Vec<DetectPoint> {
    let mut points = Vec::new();
    for &omega in &OMEGAS {
        for &(k, p_v) in &COLLUSIONS {
            points.push(measure(omega, k, p_v));
        }
    }
    points
}

/// Serialises the sweep: a header object, then one result per line.
pub fn to_json(points: &[DetectPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"nwade-detect-v1\",\"trials\":{TRIALS},\"wilson_z\":{WILSON_Z}}}\n"
    ));
    for p in points {
        out.push_str(&format!(
            "{{\"omega\":{},\"k\":{},\"p_v\":{},\"measured\":{:.6},\"analytic\":{:.6},\
             \"wilson_lo\":{:.6},\"wilson_hi\":{:.6},\"model_slack\":{:.6}}}\n",
            p.omega, p.k, p.p_v, p.measured, p.analytic, p.wilson_lo, p.wilson_hi, p.model_slack,
        ));
    }
    out
}

/// Path of the committed curve at the repository root.
pub fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_detect.json")
}

fn render(points: &[DetectPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.omega),
                p.k.to_string(),
                format!("{:.2}", p.p_v),
                format!("{:.4}", p.measured),
                format!("{:.4}", p.analytic),
                format!("[{:.4}, {:.4}]", p.wilson_lo, p.wilson_hi),
                if p.analytic_agrees() { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    crate::table::render(
        &[
            "omega",
            "k",
            "p_v",
            "measured",
            "Eq. 2",
            "wilson 99%",
            "agree",
        ],
        &rows,
    )
}

/// Runs the sweep, rewrites `BENCH_detect.json`, and renders the table.
pub fn report() -> String {
    let points = sweep();
    let json = to_json(&points);
    let path = baseline_path();
    let status = match std::fs::write(&path, &json) {
        Ok(()) => format!("curve written to {}", path.display()),
        Err(e) => format!("WARNING: could not write {}: {e}", path.display()),
    };
    let disagreements = points.iter().filter(|p| !p.analytic_agrees()).count();
    format!(
        "Eq. 2 detection-probability validation ({} points, {} trials each)\n{}\n{}\n{status}",
        points.len(),
        TRIALS,
        render(&points),
        if disagreements == 0 {
            "all points agree with the analytic curve".to_string()
        } else {
            format!("WARNING: {disagreements} point(s) disagree with the analytic curve")
        },
    )
}

/// Validation gate: re-measures every point committed in
/// `BENCH_detect.json` (deterministic seeds make this exact), requires
/// at least five distinct watcher counts, and fails when any point's
/// analytic value leaves the measured Wilson interval by more than the
/// model slack, or when a committed measurement no longer reproduces.
///
/// # Errors
///
/// Returns a description of the missing/corrupt curve file or the list
/// of disagreeing points.
pub fn guard() -> Result<String, String> {
    let path = baseline_path();
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (generate it with `expgen detect` and commit it)",
            path.display()
        )
    })?;
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut omegas_seen = Vec::new();
    for line in committed.lines().filter(|l| l.contains("\"omega\"")) {
        let omega =
            json_num(line, "omega").ok_or_else(|| format!("curve line missing omega: {line}"))?;
        let k = json_num(line, "k").ok_or_else(|| format!("curve line missing k: {line}"))? as u32;
        let p_v = json_num(line, "p_v").ok_or_else(|| format!("curve line missing p_v: {line}"))?;
        let committed_measured = json_num(line, "measured")
            .ok_or_else(|| format!("curve line missing measured: {line}"))?;
        let fresh = measure(omega, k, p_v);
        if !omegas_seen.contains(&omega) {
            omegas_seen.push(omega);
        }
        if (fresh.measured - committed_measured).abs() > 1e-4 {
            failures.push(format!(
                "ω={omega} k={k} p_v={p_v}: committed measurement {committed_measured:.6} \
                 no longer reproduces (got {:.6}) — the Monte Carlo model changed; \
                 regenerate with `expgen detect`",
                fresh.measured
            ));
        }
        if !fresh.analytic_agrees() {
            failures.push(format!(
                "ω={omega} k={k} p_v={p_v}: Eq. 2 gives {:.4}, measured Wilson \
                 [{:.4}, {:.4}] ± {:.4}",
                fresh.analytic, fresh.wilson_lo, fresh.wilson_hi, fresh.model_slack
            ));
        }
        rows.push(vec![
            format!("{omega:.0}"),
            k.to_string(),
            format!("{p_v:.2}"),
            format!("{:.4}", fresh.measured),
            format!("{:.4}", fresh.analytic),
            format!("[{:.4}, {:.4}]", fresh.wilson_lo, fresh.wilson_hi),
        ]);
    }
    if rows.is_empty() {
        return Err(format!("no result lines found in {}", path.display()));
    }
    if omegas_seen.len() < 5 {
        failures.push(format!(
            "curve covers only {} watcher counts; the acceptance floor is 5",
            omegas_seen.len()
        ));
    }
    let table = crate::table::render(
        &["omega", "k", "p_v", "measured", "Eq. 2", "wilson 99%"],
        &rows,
    );
    if failures.is_empty() {
        Ok(format!(
            "Detect guard: Eq. 2 agrees with the measured curve at all {} points \
             ({} watcher counts)\n{table}",
            rows.len(),
            omegas_seen.len()
        ))
    } else {
        Err(format!(
            "Eq. 2 validation failure:\n  {}\n{table}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_acceptance_floor() {
        assert!(OMEGAS.len() >= 5, "need at least five watcher counts");
        let points = sweep();
        assert_eq!(points.len(), OMEGAS.len() * COLLUSIONS.len());
    }

    #[test]
    fn every_grid_point_agrees_with_eq2() {
        for p in sweep() {
            assert!(
                p.analytic_agrees(),
                "ω={} k={} p_v={}: analytic {:.4} vs Wilson [{:.4}, {:.4}] ± {:.4}",
                p.omega,
                p.k,
                p.p_v,
                p.analytic,
                p.wilson_lo,
                p.wilson_hi,
                p.model_slack
            );
        }
    }

    #[test]
    fn measurement_is_reproducible() {
        let a = measure(6.0, 3, 0.3);
        let b = measure(6.0, 3, 0.3);
        assert_eq!(a.measured, b.measured);
        assert!(a.wilson_lo < a.measured && a.measured < a.wilson_hi);
    }

    #[test]
    fn json_round_trip_scans_back() {
        let point = measure(4.0, 2, 0.2);
        let json = to_json(std::slice::from_ref(&point));
        assert!(json.starts_with("{\"schema\":\"nwade-detect-v1\""));
        let line = json.lines().nth(1).expect("result line");
        assert_eq!(json_num(line, "omega"), Some(4.0));
        assert_eq!(json_num(line, "k"), Some(2.0));
        assert_eq!(json_num(line, "p_v"), Some(0.2));
        let measured = json_num(line, "measured").expect("measured");
        assert!((measured - point.measured).abs() < 1e-5);
    }
}
