//! Differential suite for the sharded city grid.
//!
//! Two guarantees are pinned here. First, a 1-shard city is the
//! degenerate case: no links, no boundary legs, no handoffs — its
//! single shard must stay **bit-identical** (state hash at every tick)
//! to a plain [`Simulation`] built from the same config, across plain,
//! attack, and chaos scenarios. Second, the city's two-phase tick
//! (parallel shard fan-out + serialized shard-ID-ordered commit) makes
//! worker-thread count unobservable: an N-shard city produces the same
//! per-tick hash trace at 1, 2, and the host's maximum threads.

use nwade::attack::{AttackSetting, ViolationKind};
use nwade_exec::host_threads;
use nwade_sim::{AttackPlan, CityConfig, CityGrid, ImOutage, SimConfig, Simulation};

/// Runs a 1-shard city and a plain simulation of the identical config
/// in lockstep, asserting equal state hashes at every tick.
fn assert_city_matches_plain(base: SimConfig, label: &str) {
    let ticks = (base.duration / base.dt).ceil() as u64;
    let city_cfg = CityConfig::ring(1, base);
    let plain_cfg = city_cfg.shard_config(0);
    let mut city = CityGrid::new(city_cfg);
    let mut plain = Simulation::new(plain_cfg);
    for t in 0..ticks {
        city.tick();
        plain.tick_once();
        assert_eq!(
            city.shards()[0].state_hash(),
            plain.state_hash(),
            "{label}: 1-shard city diverged from the plain simulator at tick {t}"
        );
    }
    assert_eq!(city.anchor_mismatches(), 0);
}

#[test]
fn one_shard_city_matches_plain_run() {
    let mut config = SimConfig::default();
    config.duration = 120.0;
    config.density = 80.0;
    config.seed = 2025;
    assert_city_matches_plain(config, "plain");
}

#[test]
fn one_shard_city_matches_attack_run() {
    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.density = 80.0;
    config.seed = 71;
    config.attack = Some(AttackPlan {
        setting: AttackSetting::V2,
        violation: ViolationKind::LaneDeviation,
        start: 60.0,
    });
    assert_city_matches_plain(config, "attack-v2");
}

#[test]
fn one_shard_city_matches_chaos_run() {
    let mut config = SimConfig::default();
    config.duration = 150.0;
    config.density = 80.0;
    config.seed = 43;
    config.attack = Some(AttackPlan {
        setting: AttackSetting::V1,
        violation: ViolationKind::SuddenStop,
        start: 60.0,
    });
    config.im_outage = Some(ImOutage {
        start: 45.0,
        duration: 6.0,
    });
    assert_city_matches_plain(config, "chaos-outage");
}

#[test]
fn multi_shard_city_is_thread_count_invariant() {
    let mut base = SimConfig::default();
    base.duration = 60.0;
    base.density = 60.0;
    base.seed = 7;
    let thread_counts = [1usize, 2, host_threads().max(2)];
    let mut traces: Vec<Vec<u64>> = Vec::new();
    for threads in thread_counts {
        let mut cfg = CityConfig::ring(4, base.clone());
        cfg.threads = threads;
        let mut city = CityGrid::new(cfg);
        let mut trace = Vec::with_capacity(600);
        for _ in 0..600 {
            city.tick();
            trace.push(city.state_hash());
        }
        city.check_conservation().expect("vehicles conserved");
        traces.push(trace);
    }
    assert_eq!(
        traces[0], traces[1],
        "city diverged between 1 and 2 worker threads"
    );
    assert_eq!(
        traces[0], traces[2],
        "city diverged between 1 and max worker threads"
    );
}
