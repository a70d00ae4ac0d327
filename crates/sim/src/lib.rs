//! Discrete-event traffic simulator for the NWADE reproduction.
//!
//! Integrates every substrate of the workspace into the experimental
//! platform of §VI: vehicles spawn from a Poisson process, request plans
//! from the intersection manager over a simulated VANET, verify the
//! travel-plan blockchain, watch their neighbours, and react to attacks
//! injected per Table I. The simulator collects the measurements behind
//! Table II and Figs. 4–8.
//!
//! # Example
//!
//! ```
//! use nwade_sim::{SimConfig, Simulation};
//!
//! let mut config = SimConfig::default();
//! config.duration = 60.0;
//! config.density = 40.0;
//! let report = Simulation::new(config).run();
//! assert!(report.metrics.exited > 0, "traffic flowed");
//! assert_eq!(report.metrics.accidents, 0, "no attack, no accidents");
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod city;
pub mod config;
pub mod history;
pub mod imu;
pub mod invariant;
pub mod metrics;
pub mod report;
mod scan;
pub mod scenario;
pub mod vehicle;
pub mod world;

pub use adversary::{
    AdaptivePlan, AdaptiveState, AttackPolicy, CliquePlan, SybilPlan, SYBIL_ID_BASE,
};
pub use city::{CityConfig, CityGrid, CityReport, LinkSpec, ShardStats};
pub use config::{
    AttackPlan, CrashPlan, ImOutage, SignatureChoice, SimConfig, StandbyConfig, StoreConfig,
};
pub use history::{
    Incident, IncidentKind, ReplayError, ReplayReport, WorldHistory, DEFAULT_CAPACITY,
    DEFAULT_SNAPSHOT_EVERY,
};
pub use invariant::{InvariantChecker, InvariantKind, InvariantReport, InvariantViolation};
pub use metrics::SimMetrics;
pub use report::SimReport;
pub use scenario::{run_rounds, RoundsSummary};
pub use world::{Handoff, Simulation, WindowBenchPoint};
