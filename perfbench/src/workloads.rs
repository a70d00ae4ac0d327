//! The three workloads: their configs (generated from the seed alone),
//! the closed tick loop that drives them, and the output checks.
//!
//! Every workload keeps the program's defaults except what defines it;
//! none sets `spatial_index`, `probe_scheduler`, `pipelined_windows` or
//! `engine`, so the benchmark measures the same thing once those knobs
//! are gone.

use crate::heap;
use nwade::attack::{AttackSetting, ViolationKind};
use nwade::CrashPoint;
use nwade_sim::{
    AttackPlan, CityConfig, CityGrid, CrashPlan, InvariantKind, SignatureChoice, SimConfig,
    SimMetrics, Simulation,
};
use std::time::Instant;

/// Which traffic a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One FourWayCross at the paper's §VI-A defaults.
    Organic,
    /// A 1000-vehicle prespawned fleet re-offering every window, RSA-2048,
    /// store + hot standby, one process loss mid-run.
    Saturated,
    /// A 4-shard ring with Poisson arrivals and a V3 attack in every shard.
    CityAttack,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [Workload::Organic, Workload::Saturated, Workload::CityAttack];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Organic => "organic",
            Workload::Saturated => "saturated",
            Workload::CityAttack => "city-attack",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much simulated work one repetition of a workload does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated seconds of `organic`.
    pub organic_s: f64,
    /// Vehicles `saturated` prespawns.
    pub fleet: usize,
    /// Processing windows `saturated` runs (the crash hits the middle one).
    pub saturated_windows: usize,
    /// RSA modulus of `saturated`.
    pub rsa_bits: usize,
    /// Simulated seconds of `city-attack` (the attack starts a third of
    /// the way in, which leaves every shard's watchers time to report).
    pub city_s: f64,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        organic_s: 300.0,
        fleet: 1000,
        saturated_windows: 40,
        rsa_bits: 2048,
        city_s: 60.0,
    };

    /// A tiny size for the self-tests.
    pub const SMOKE: Size = Size {
        organic_s: 20.0,
        fleet: 60,
        saturated_windows: 6,
        rsa_bits: 512,
        city_s: 44.0,
    };
}

/// `organic`: the paper's defaults (80 veh/min Poisson, 25/50/25 turns,
/// mock signatures, store on, no faults).
pub fn organic_config(seed: u64, size: Size) -> SimConfig {
    let mut config = SimConfig::default();
    config.seed = seed;
    config.duration = size.organic_s;
    config
}

/// Simulated time at which `saturated` loses its primary process.
pub fn saturated_crash_at(size: Size) -> f64 {
    (size.saturated_windows / 2) as f64
}

/// `saturated`: arrivals effectively off, approaches stretched so the
/// fleet fits single-file far outside radio range of the manager.
///
/// `duration` only bounds what `Simulation::run` adds after the measured
/// ticks (it is how the benchmark reads the network counters); the
/// measured ticks are driven one by one past it.
pub fn saturated_config(seed: u64, size: Size) -> SimConfig {
    let mut config = SimConfig::default();
    config.seed = seed;
    config.density = 0.001;
    config.geometry.approach_len = 2100.0;
    config.signature = SignatureChoice::Rsa {
        bits: size.rsa_bits,
    };
    config.standby.enabled = true;
    let at = saturated_crash_at(size);
    config.im_crash = Some(CrashPlan {
        at,
        point: CrashPoint::ProcessLoss,
        cold_downtime: 20.0,
    });
    config.duration = at + 1.0;
    config
}

/// `city-attack`: a ring of four shards (cross, roundabout, five-way,
/// CFI) with a Table I `V3` sudden-stop attack in every shard.
pub fn city_config(seed: u64, size: Size) -> CityConfig {
    let mut base = SimConfig::default();
    base.seed = seed;
    base.duration = size.city_s;
    base.attack = Some(AttackPlan {
        setting: AttackSetting::V3,
        violation: ViolationKind::SuddenStop,
        start: size.city_s / 3.0,
    });
    let mut config = CityConfig::ring(4, base);
    config.threads = host_threads();
    config
}

/// The seed of repetition `i` of a run: the run's own seed first, then
/// seeds spread over the whole range so each repetition draws different
/// traffic.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Threads the host offers; the city never uses more.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The program under test, as one intersection or as a city.
pub enum World {
    /// A single intersection.
    Single(Simulation),
    /// A sharded city.
    City(CityGrid),
}

impl World {
    /// The intersections, shard order.
    pub fn shards(&self) -> &[Simulation] {
        match self {
            World::Single(sim) => std::slice::from_ref(sim),
            World::City(city) => city.shards(),
        }
    }

    fn shards_mut(&mut self) -> &mut [Simulation] {
        match self {
            World::Single(sim) => std::slice::from_mut(sim),
            World::City(city) => city.shards_mut(),
        }
    }

    /// Final-state digest: `Simulation::state_hash` or `CityGrid::state_hash`.
    pub fn state_hash(&self) -> u64 {
        match self {
            World::Single(sim) => sim.state_hash(),
            World::City(city) => city.state_hash(),
        }
    }

    /// Sum of one metric over every shard.
    pub fn sum(&self, f: impl Fn(&SimMetrics) -> usize) -> usize {
        self.shards().iter().map(|s| f(s.metrics_so_far())).sum()
    }
}

/// A workload ready to tick: the world plus the bench-only load it needs.
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// The program.
    pub world: World,
    /// Ticks the measured span runs.
    pub ticks: u64,
    /// Simulated seconds per tick.
    pub dt: f64,
    /// Admission offers seen at the last re-offer (`saturated`).
    offered_mark: usize,
}

impl Run {
    /// Builds the workload from its seed: construction, demand
    /// generation, fleet placement and key generation all happen here.
    pub fn setup(workload: Workload, seed: u64, size: Size) -> Run {
        let (world, ticks, dt) = match workload {
            Workload::Organic => {
                let config = organic_config(seed, size);
                let ticks = (config.duration / config.dt).ceil() as u64;
                let dt = config.dt;
                (World::Single(Simulation::new(config)), ticks, dt)
            }
            Workload::Saturated => {
                let config = saturated_config(seed, size);
                let ticks = (size.saturated_windows as f64 * config.nwade.processing_window
                    / config.dt)
                    .round() as u64;
                let dt = config.dt;
                let mut sim = Simulation::new(config);
                sim.prespawn_fleet(size.fleet);
                (World::Single(sim), ticks, dt)
            }
            Workload::CityAttack => {
                let config = city_config(seed, size);
                let ticks = (config.base.duration / config.base.dt).ceil() as u64;
                let dt = config.base.dt;
                (World::City(CityGrid::new(config)), ticks, dt)
            }
        };
        Run {
            workload,
            world,
            ticks,
            dt,
            offered_mark: usize::MAX,
        }
    }

    /// The bench-only load that must be in place before the next tick:
    /// `saturated` re-offers every vehicle once a window admitted the
    /// previous offer.
    pub fn before_tick(&mut self) {
        if self.workload != Workload::Saturated {
            return;
        }
        let offered = self.world.sum(|m| m.admission_offered);
        if offered != self.offered_mark {
            for sim in self.world.shards_mut() {
                sim.enqueue_plan_requests(usize::MAX);
            }
            self.offered_mark = offered;
        }
    }

    /// How many ticks the determinism check replays: a fifth of the run.
    pub fn prefix_ticks(&self) -> u64 {
        self.ticks / 5
    }

    /// One tick of the program; the caller times it.
    pub fn tick(&mut self) {
        match &mut self.world {
            World::Single(sim) => sim.tick_once(),
            World::City(city) => city.tick(),
        }
    }
}

/// What one repetition measured and produced.
#[derive(Debug, Clone)]
pub struct RepResult {
    /// Wall seconds from config to the first tick.
    pub setup_s: f64,
    /// Wall ms of every tick.
    pub tick_ms: Vec<f64>,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Live heap the repetition added, averaged over its ticks, MiB.
    pub heap_mean_mb: f64,
    /// State hash after the first [`Run::prefix_ticks`] ticks.
    pub prefix_hash: u64,
    /// Outcome of the run.
    pub outcome: Outcome,
}

/// Everything the checks need about a finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Final state hash.
    pub state_hash: u64,
    /// Plan requests offered to windows.
    pub attempted: usize,
    /// Offered plan requests beyond the plans sealed into broadcast
    /// blocks.
    pub unsealed: usize,
    /// Honest blocks some guard rejected.
    pub honest_rejections: usize,
    /// Self-evacuations after a manager timeout.
    pub timeout_evacuations: usize,
    /// Chain-integrity, vehicle-overlap and delivery-order violations.
    pub safety_violations: usize,
    /// FSM-consistency violations.
    pub fsm_violations: usize,
    /// Each shard's invariant report, when it is not clean.
    pub invariant_report: String,
    /// City anchor mismatches.
    pub anchor_mismatches: usize,
    /// City vehicle-conservation verdict.
    pub conservation: Result<(), String>,
    /// Standby promotions.
    pub promotions: usize,
    /// Crash → promoted standby's first block, simulated s.
    pub dark_s: Option<f64>,
    /// Block receptions, when the network counters were read.
    pub block_receptions: Option<u64>,
    /// Per shard: violation-detection latency, simulated s.
    pub detect_s: Vec<Option<f64>>,
    /// Blocks broadcast over every shard.
    pub blocks: usize,
    /// Plans sealed over every shard.
    pub plans: usize,
    /// Requests windows admitted.
    pub admitted: usize,
    /// Requests windows deferred.
    pub deferred: usize,
    /// Boundary handoffs out of every shard.
    pub handoffs: usize,
    /// Largest WAL backlog the program's standby found.
    pub standby_max_lag: u64,
    /// Windows the program's standby replayed before promotion.
    pub standby_windows: u64,
}

impl Outcome {
    /// Reads the outcome off the shards (and the city, if any) after the
    /// measured ticks.
    pub fn read(shards: &[Simulation], city: Option<&CityGrid>, state_hash: u64) -> Outcome {
        let sum = |f: fn(&SimMetrics) -> usize| -> usize {
            shards.iter().map(|s| f(s.metrics_so_far())).sum()
        };
        let kind = |k: InvariantKind| -> usize {
            shards
                .iter()
                .map(|s| s.invariants_so_far().counts.get(&k).copied().unwrap_or(0))
                .sum()
        };
        let attempted = sum(|m| m.admission_offered);
        let plans = sum(|m| m.plans_scheduled);
        // Every plan sealed into any broadcast block, evacuation blocks
        // included: a request an evacuation plan superseded was served.
        let sealed = sum(|m| m.block_sizes.iter().sum());
        Outcome {
            state_hash,
            attempted,
            unsealed: attempted.saturating_sub(sealed),
            honest_rejections: sum(|m| m.honest_block_rejections),
            timeout_evacuations: sum(|m| m.im_timeout_evacuations),
            safety_violations: kind(InvariantKind::ChainIntegrity)
                + kind(InvariantKind::VehicleOverlap)
                + kind(InvariantKind::DeliveryOrder),
            fsm_violations: kind(InvariantKind::FsmConsistency),
            invariant_report: shards
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.invariants_so_far().is_clean())
                .map(|(i, s)| format!("shard {i}: {}", s.invariants_so_far()))
                .collect::<Vec<_>>()
                .join("; "),
            anchor_mismatches: city.map_or(0, CityGrid::anchor_mismatches),
            conservation: city.map_or(Ok(()), CityGrid::check_conservation),
            promotions: sum(|m| m.standby_promotions),
            dark_s: shards[0].metrics_so_far().standby_promotion_latency,
            block_receptions: None,
            detect_s: shards
                .iter()
                .map(|s| s.metrics_so_far().violation_detection_latency(false))
                .collect(),
            blocks: sum(|m| m.blocks_broadcast),
            plans,
            admitted: sum(|m| m.admission_admitted),
            deferred: sum(|m| m.admission_deferred),
            handoffs: sum(|m| m.handoffs_out),
            standby_max_lag: shards
                .iter()
                .map(|s| s.metrics_so_far().standby_max_lag_records)
                .sum(),
            standby_windows: shards
                .iter()
                .map(|s| s.metrics_so_far().standby_windows_applied)
                .sum(),
        }
    }

    /// Failed operations, where an operation is a plan request: the
    /// offered requests never sealed.
    pub fn failed(&self) -> usize {
        self.unsealed
    }

    /// Everything that went wrong: requests never sealed, honest-block
    /// rejections, timeout self-evacuations, invariant violations and
    /// anchor mismatches.
    pub fn failures(&self) -> usize {
        self.unsealed
            + self.honest_rejections
            + self.timeout_evacuations
            + self.safety_violations
            + self.fsm_violations
            + self.anchor_mismatches
    }

    /// What `city-attack` shows on some seeds, reported without failing
    /// the run so the benchmark does not turn it into a lottery:
    /// FSM-consistency violations (the roundabout shard, about one seed in
    /// eight), broken vehicle conservation once the attack deploys (about
    /// one seed in sixteen), and a shard whose violator nobody reported
    /// before the run ended (the roundabout, about one seed in forty; a
    /// run still fails when a shard misses in every repetition). None of
    /// it shows on `organic` or `saturated`.
    pub fn known_defects(&self, workload: Workload) -> Vec<String> {
        let mut defects = Vec::new();
        for (shard, detect) in self.detect_s.iter().enumerate() {
            if workload == Workload::CityAttack && detect.is_none() {
                defects.push(format!("shard {shard} never detected its violator"));
            }
        }
        if self.fsm_violations > 0 {
            defects.push(format!(
                "{} FSM-consistency violations ({})",
                self.fsm_violations, self.invariant_report
            ));
        }
        if let Err(e) = &self.conservation {
            defects.push(format!("vehicle conservation: {e}"));
        }
        defects
    }

    /// Mean detection latency over the shards that detected, simulated s.
    pub fn mean_detect_s(&self) -> Option<f64> {
        let got: Vec<f64> = self.detect_s.iter().flatten().copied().collect();
        (!got.is_empty()).then(|| got.iter().sum::<f64>() / got.len() as f64)
    }

    /// The workload's output checks; `Err` names the first that failed.
    /// [`Outcome::known_defects`] are reported instead.
    pub fn check(&self, workload: Workload) -> Result<(), String> {
        if self.safety_violations > 0 {
            return Err(format!(
                "{} safety-invariant violations ({})",
                self.safety_violations, self.invariant_report
            ));
        }
        if self.anchor_mismatches > 0 {
            return Err(format!("{} anchor mismatches", self.anchor_mismatches));
        }
        if self.blocks == 0 || self.plans == 0 {
            return Err("no block or plan was ever sealed".into());
        }
        match workload {
            Workload::Organic => {}
            Workload::Saturated => {
                if self.promotions != 1 {
                    return Err(format!(
                        "standby promoted {} times, expected exactly once",
                        self.promotions
                    ));
                }
                match self.block_receptions {
                    Some(0) => {}
                    Some(n) => {
                        return Err(format!(
                            "{n} block receptions: the fleet drifted into radio range"
                        ))
                    }
                    None => return Err("block receptions were not read".into()),
                }
            }
            Workload::CityAttack => {
                if self.detect_s.iter().all(Option::is_none) {
                    return Err("no shard detected its violator".into());
                }
            }
        }
        Ok(())
    }
}

/// Finishes a run: reads the outcome, then (for `saturated`, whose
/// configured duration is short) lets `Simulation::run` copy the network
/// counters out, which adds a few quiet ticks after the measured span.
pub fn finish(run: Run) -> Outcome {
    let city = match &run.world {
        World::City(city) => Some(city),
        World::Single(_) => None,
    };
    let mut outcome = Outcome::read(run.world.shards(), city, run.world.state_hash());
    if let (Workload::Saturated, World::Single(sim)) = (run.workload, run.world) {
        let report = sim.run();
        outcome.block_receptions = Some(report.metrics.network.class("block").receptions);
    }
    outcome
}

/// One untraced repetition: set up, tick the measured span, finish.
pub fn run_rep(workload: Workload, seed: u64, size: Size) -> RepResult {
    heap::set_base();
    let start = Instant::now();
    let mut run = Run::setup(workload, seed, size);
    let setup_s = start.elapsed().as_secs_f64();
    let mut tick_ms = Vec::with_capacity(run.ticks as usize);
    let mut prefix_hash = run.world.state_hash();
    let mut heap_mb = 0.0;
    for tick in 1..=run.ticks {
        run.before_tick();
        let t = Instant::now();
        run.tick();
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        heap_mb += heap::added_mb();
        if tick == run.prefix_ticks() {
            prefix_hash = run.world.state_hash();
        }
    }
    let (ticks, sim_s) = (run.ticks, run.ticks as f64 * run.dt);
    let outcome = finish(run);
    RepResult {
        setup_s,
        tick_ms,
        sim_s,
        heap_mean_mb: heap_mb / ticks as f64,
        prefix_hash,
        outcome,
    }
}

/// Sets the same inputs up again and returns the state hash after the
/// determinism-check prefix, which must equal [`RepResult::prefix_hash`].
pub fn prefix_hash(workload: Workload, seed: u64, size: Size) -> u64 {
    let mut run = Run::setup(workload, seed, size);
    for _ in 0..run.prefix_ticks() {
        run.before_tick();
        run.tick();
    }
    run.world.state_hash()
}
