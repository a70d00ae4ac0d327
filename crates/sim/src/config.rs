//! Simulation configuration.

use crate::adversary::AttackPolicy;
use nwade::attack::{AttackSetting, ViolationKind};
use nwade::{CrashPoint, NwadeConfig};
use nwade_intersection::{GeometryConfig, IntersectionKind};
use nwade_traffic::{KinematicLimits, TurnMix};
use nwade_vanet::MediumConfig;

/// Which AIM scheduler drives the intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// The reservation scheduler (DASH stand-in, the paper's host
    /// system).
    Reservation,
    /// The full-lock FCFS baseline.
    Fcfs,
    /// The fixed-cycle traffic-light baseline.
    TrafficLight,
}

/// Which signature scheme signs blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureChoice {
    /// Cheap keyed-hash mock (default for large sweeps; Figs. 4/5/7/8 do
    /// not measure crypto cost).
    Mock,
    /// Real RSA with the given modulus size (Fig. 6 uses 2048).
    Rsa {
        /// Modulus size in bits.
        bits: usize,
    },
}

/// The attack to inject, per Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPlan {
    /// The Table I row.
    pub setting: AttackSetting,
    /// How the violating vehicle misbehaves.
    pub violation: ViolationKind,
    /// Simulation time at which the attack begins.
    pub start: f64,
}

/// A scheduled intersection-manager outage: the manager goes silent
/// (receives nothing, sends nothing, schedules nothing) for a window,
/// then restarts from its persisted chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImOutage {
    /// Simulation time at which the manager goes dark.
    pub start: f64,
    /// How long it stays dark, seconds.
    pub duration: f64,
}

impl ImOutage {
    /// `true` while `now` falls inside the outage window.
    pub fn covers(&self, now: f64) -> bool {
        now >= self.start && now < self.start + self.duration
    }
}

/// Durability configuration for the intersection manager's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Log the manager's durable state to a write-ahead log and recover
    /// warm after crashes and outages. The only durability switch: off,
    /// every restart takes the cold path.
    pub enabled: bool,
    /// Append a full state snapshot every N processing windows.
    pub snapshot_every: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            enabled: true,
            snapshot_every: 8,
        }
    }
}

/// Hot-standby replica configuration: a second manager tails the
/// primary's WAL live and is promoted when the heartbeat goes quiet.
/// Requires the store (it is the replication channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandbyConfig {
    /// Run a standby replica.
    pub enabled: bool,
    /// Primary heartbeat spacing, seconds.
    pub heartbeat_interval: f64,
    /// Consecutive missed heartbeats before the standby promotes.
    pub miss_bound: u32,
    /// Deterministic jitter fraction on the miss timer.
    pub jitter: f64,
    /// Keep the crashed primary alive as a zombie that seals and
    /// broadcasts one late conflicting block this long after the crash
    /// (split-brain injection; `None` = the process is really gone).
    pub zombie_delay: Option<f64>,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            enabled: false,
            heartbeat_interval: 0.1,
            miss_bound: 3,
            jitter: 0.1,
            zombie_delay: None,
        }
    }
}

/// Kill the intersection manager at a labelled point inside a processing
/// window and let it recover from the durable store (chaos harness).
/// With the store disabled, recovery is always cold. Fires at most once
/// per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// The first non-empty processing window at or after this time
    /// crashes.
    pub at: f64,
    /// Where inside the window the crash hits.
    pub point: CrashPoint,
    /// Downtime imposed when recovery lands on the cold path (warm
    /// recovery resumes the same tick, with no darkness at all).
    pub cold_downtime: f64,
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Intersection geometry.
    pub kind: IntersectionKind,
    /// Geometry parameters (lanes, lengths, zone grid).
    pub geometry: GeometryConfig,
    /// Arrival rate, vehicles per minute (paper: 20–120, default 80).
    pub density: f64,
    /// Turning mix (paper: 25/50/25).
    pub turn_mix: TurnMix,
    /// NWADE protocol parameters.
    pub nwade: NwadeConfig,
    /// Network parameters.
    pub medium: MediumConfig,
    /// Vehicle kinematics.
    pub limits: KinematicLimits,
    /// Scheduler choice.
    pub scheduler: SchedulerChoice,
    /// When `false`, the NWADE layer is disabled entirely: no blocks, no
    /// watching, no reports — the Fig. 8 "without NWADE" baseline.
    pub nwade_enabled: bool,
    /// Optional attack injection.
    pub attack: Option<AttackPlan>,
    /// Optional adaptive adversary (threshold probing, colluding clique,
    /// or Sybil flood); composes with `attack`.
    pub adversary: Option<AttackPolicy>,
    /// Optional manager outage/restart window.
    pub im_outage: Option<ImOutage>,
    /// Durable-store settings for the manager's WAL + snapshots.
    pub store: StoreConfig,
    /// Hot-standby replica tailing the WAL (failover orchestration).
    pub standby: StandbyConfig,
    /// Optional crash-point injection (kills the manager mid-window).
    pub im_crash: Option<CrashPlan>,
    /// Total simulated time, seconds.
    pub duration: f64,
    /// Physics timestep, seconds.
    pub dt: f64,
    /// How often vehicles run their sensing pass, seconds.
    pub sense_interval: f64,
    /// RNG seed (all randomness in a run derives from it).
    pub seed: u64,
    /// Block signature scheme.
    pub signature: SignatureChoice,
    /// Speed at which vehicles enter the modeled area, m/s.
    pub initial_speed: f64,
    /// Base offset added to every vehicle id this simulation generates
    /// (arrivals and prespawned fleets alike). City grids give each
    /// shard a disjoint id space so a handed-off vehicle keeps its
    /// identity everywhere; 0 (the default) preserves single-intersection
    /// behaviour bit-for-bit.
    pub vehicle_id_base: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            kind: IntersectionKind::FourWayCross,
            geometry: GeometryConfig::default(),
            density: 80.0,
            turn_mix: TurnMix::default(),
            nwade: NwadeConfig::default(),
            medium: MediumConfig::default(),
            limits: KinematicLimits::default(),
            scheduler: SchedulerChoice::Reservation,
            nwade_enabled: true,
            attack: None,
            adversary: None,
            im_outage: None,
            store: StoreConfig::default(),
            standby: StandbyConfig::default(),
            im_crash: None,
            duration: 300.0,
            dt: 0.1,
            sense_interval: 0.5,
            seed: 0,
            signature: SignatureChoice::Mock,
            initial_speed: 15.0,
            vehicle_id_base: 0,
        }
    }
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        self.nwade.validate()?;
        self.medium.validate()?;
        if !(self.density > 0.0) {
            return Err("density must be positive".into());
        }
        if !(self.duration > 0.0) {
            return Err("duration must be positive".into());
        }
        if !(self.dt > 0.0 && self.dt < 1.0) {
            return Err("dt must be in (0, 1)".into());
        }
        if !(self.sense_interval >= self.dt) {
            return Err("sense interval must be at least one tick".into());
        }
        if !(self.initial_speed >= 0.0 && self.initial_speed <= self.limits.v_max) {
            return Err("initial speed must be within [0, v_max]".into());
        }
        if let Some(attack) = &self.attack {
            if !(attack.start > 0.0 && attack.start < self.duration) {
                return Err("attack start must fall inside the run".into());
            }
        }
        if let Some(policy) = &self.adversary {
            policy.validate(self.duration)?;
        }
        if let Some(outage) = &self.im_outage {
            if !(outage.start > 0.0 && outage.start < self.duration) {
                return Err("IM outage start must fall inside the run".into());
            }
            if !(outage.duration > 0.0 && outage.duration.is_finite()) {
                return Err("IM outage duration must be positive and finite".into());
            }
        }
        if self.store.snapshot_every == 0 {
            return Err("store snapshot cadence must be at least one window".into());
        }
        if let Some(crash) = &self.im_crash {
            if !(crash.at > 0.0 && crash.at < self.duration) {
                return Err("IM crash time must fall inside the run".into());
            }
            if !(crash.cold_downtime > 0.0 && crash.cold_downtime.is_finite()) {
                return Err("IM crash cold downtime must be positive and finite".into());
            }
        }
        if self.standby.enabled {
            if !self.store.enabled {
                return Err("a standby needs the store: the WAL is its replication channel".into());
            }
            if !(self.standby.heartbeat_interval > 0.0) {
                return Err("standby heartbeat interval must be positive".into());
            }
            if self.standby.miss_bound == 0 {
                return Err("standby miss bound must be at least 1".into());
            }
            if !(0.0..1.0).contains(&self.standby.jitter) {
                return Err("standby jitter must be in [0, 1)".into());
            }
            if let Some(delay) = self.standby.zombie_delay {
                if !(delay > 0.0 && delay.is_finite()) {
                    return Err("zombie delay must be positive and finite".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate().expect("default valid");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SimConfig::default();
        c.density = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.dt = 2.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.sense_interval = 0.01;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.initial_speed = 1000.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.attack = Some(AttackPlan {
            setting: AttackSetting::V1,
            violation: ViolationKind::SuddenStop,
            start: 1e9,
        });
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.adversary = Some(AttackPolicy::Clique(crate::adversary::CliquePlan {
            start: 40.0,
            fraction: 2.0,
        }));
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.im_outage = Some(ImOutage {
            start: 1e9,
            duration: 10.0,
        });
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.im_outage = Some(ImOutage {
            start: 100.0,
            duration: 0.0,
        });
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.store.snapshot_every = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.im_crash = Some(CrashPlan {
            at: 1e9,
            point: CrashPoint::AfterCommit,
            cold_downtime: 10.0,
        });
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.im_crash = Some(CrashPlan {
            at: 50.0,
            point: CrashPoint::BeforeCommit,
            cold_downtime: 0.0,
        });
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.standby.enabled = true;
        c.store.enabled = false;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.standby.enabled = true;
        c.standby.miss_bound = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.standby.enabled = true;
        c.standby.zombie_delay = Some(0.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn outage_window_membership() {
        let o = ImOutage {
            start: 100.0,
            duration: 20.0,
        };
        assert!(!o.covers(99.9));
        assert!(o.covers(100.0));
        assert!(o.covers(119.9));
        assert!(!o.covers(120.0));
    }
}
