//! Fig. 7: network load (total packets) at a 4-way intersection under
//! three event types: no attack, local reports sent, global reports sent.

use crate::experiments::{base_config, with_attack};
use crate::table::render;
use nwade::attack::AttackSetting;
use nwade_sim::{SimConfig, Simulation};
use nwade_vanet::NetworkStats;

/// The three scenarios on the figure's axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Plain traffic: plan requests and block broadcasts only.
    NoAttack,
    /// A violation triggers incident reports and watcher polling.
    LocalReports,
    /// A compromised manager triggers global reports.
    GlobalReports,
}

impl Scenario {
    /// All scenarios in figure order.
    pub const ALL: [Scenario; 3] = [
        Scenario::NoAttack,
        Scenario::LocalReports,
        Scenario::GlobalReports,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::NoAttack => "no attack",
            Scenario::LocalReports => "local reports",
            Scenario::GlobalReports => "global reports",
        }
    }
}

/// One scenario's packet accounting.
#[derive(Debug, Clone)]
pub struct Point {
    /// Scenario.
    pub scenario: Scenario,
    /// Full per-class statistics.
    pub stats: NetworkStats,
}

/// The seed `expgen` runs the figure with.
pub const SEED: u64 = 7;

/// The config [`points`] runs for each scenario.
pub fn configs(duration: f64, seed: u64) -> Vec<(Scenario, SimConfig)> {
    Scenario::ALL
        .iter()
        .map(|&scenario| {
            let mut config = base_config(duration);
            config.seed = seed;
            match scenario {
                Scenario::NoAttack => {}
                Scenario::LocalReports => {
                    config = with_attack(config, AttackSetting::V1);
                }
                Scenario::GlobalReports => {
                    config = with_attack(config, AttackSetting::Im);
                }
            }
            (scenario, config)
        })
        .collect()
}

/// Runs the three scenarios.
pub fn points(duration: f64, seed: u64) -> Vec<Point> {
    configs(duration, seed)
        .into_iter()
        .map(|(scenario, config)| {
            let report = Simulation::new(config).run();
            Point {
                scenario,
                stats: report.metrics.network,
            }
        })
        .collect()
}

/// Renders Fig. 7.
pub fn report(duration: f64, seed: u64) -> String {
    let pts = points(duration, seed);
    // Collect the union of observed classes for stable columns.
    let mut classes: Vec<&'static str> = Vec::new();
    for p in &pts {
        for (c, _) in p.stats.iter() {
            if !classes.contains(&c) {
                classes.push(c);
            }
        }
    }
    classes.sort_unstable();
    let mut header: Vec<String> = vec!["Scenario".into()];
    header.extend(classes.iter().map(|c| c.to_string()));
    header.push("total".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let body: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            let mut row = vec![p.scenario.label().to_string()];
            row.extend(
                classes
                    .iter()
                    .map(|c| p.stats.class(c).transmissions.to_string()),
            );
            row.push(p.stats.total_transmissions().to_string());
            row
        })
        .collect();
    format!(
        "Fig. 7: Network Load, 4-way cross ({duration:.0}s, transmissions)\n{}",
        render(&header_refs, &body)
    )
}
