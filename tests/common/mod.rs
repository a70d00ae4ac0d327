//! Helpers shared by the cross-commit pin tests: a stream digest, the
//! three scenarios the retired in-build differentials ran, and the
//! digest of a plain simulation run.
//!
//! Every test binary compiles this module on its own and uses only part
//! of it, hence the `dead_code` allowance.
#![allow(dead_code)]

use nwade_repro::nwade::attack::{AttackSetting, ViolationKind};
use nwade_repro::sim::{AttackPlan, ImOutage, SimConfig, Simulation};

/// FNV-1a over a stream of byte strings.
pub struct StreamDigest(pub u64);

impl StreamDigest {
    pub fn new() -> Self {
        StreamDigest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one state hash as its big-endian bytes.
    pub fn push(&mut self, hash: u64) {
        self.push_bytes(&hash.to_be_bytes());
    }
}

pub fn ticks(config: &SimConfig) -> u64 {
    (config.duration / config.dt).ceil() as u64
}

/// Digest of a plain simulation run's per-tick `state_hash` stream.
pub fn sim_digest(config: SimConfig) -> u64 {
    config.validate().expect("scenario config valid");
    let ticks = ticks(&config);
    let mut sim = Simulation::new(config);
    let mut digest = StreamDigest::new();
    for _ in 0..ticks {
        sim.tick_once();
        digest.push(sim.state_hash());
    }
    digest.0
}

pub fn assert_pinned(label: &str, actual: u64, pinned: u64) {
    assert_eq!(
        actual, pinned,
        "{label}: stream digest is {actual:#018x}, pinned {pinned:#018x}"
    );
}

pub fn config(duration: f64, density: f64, seed: u64) -> SimConfig {
    let mut config = SimConfig::default();
    config.duration = duration;
    config.density = density;
    config.seed = seed;
    config
}

pub fn attack(setting: AttackSetting, violation: ViolationKind, start: f64) -> Option<AttackPlan> {
    Some(AttackPlan {
        setting,
        violation,
        start,
    })
}

pub fn plain_traffic() -> SimConfig {
    config(90.0, 70.0, 2024)
}

pub fn attack_v2() -> SimConfig {
    let mut c = config(120.0, 60.0, 77);
    c.attack = attack(AttackSetting::V2, ViolationKind::LaneDeviation, 50.0);
    c
}

/// An attack unfolds while the manager goes dark; reporters time out
/// and self-evacuate, then the restart re-admits the fleet.
pub fn chaos_outage() -> SimConfig {
    let mut c = config(130.0, 60.0, 41);
    c.attack = attack(AttackSetting::V1, ViolationKind::SuddenStop, 50.0);
    c.im_outage = Some(ImOutage {
        start: 50.0,
        duration: 20.0,
    });
    c
}
