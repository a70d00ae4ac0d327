//! The simulation world: fixed-timestep physics plus the event-driven
//! message plane.
//!
//! # Tick pipeline
//!
//! Every `dt` (default 100 ms) one tick runs, in order:
//!
//! 1. **Spawning** — due Poisson arrivals enter if their lane's entry is
//!    clear by a full stopping distance; each spawn sends a plan request
//!    to the manager.
//! 2. **Plan re-requests** — vehicles still cruising without a plan ask
//!    again every 5 s (covers manager deferrals and lost blocks).
//! 3. **Announcement re-broadcast** — self-evacuating vehicles repeat
//!    their global report every 2 s so newcomers learn they are off-plan.
//! 4. **Attack injection** — at the configured start, the Table I roles
//!    are assigned to live vehicles and false reports are scheduled.
//! 5. **Physics** — the collision-avoidance layer (car-following toward
//!    off-plan leaders, headway cone, anticipated-crossing yield) marks
//!    emergency braking; every vehicle then advances per its
//!    [`DriveMode`].
//! 6. **Divergence check** — a benign vehicle pushed > 3 m off its plan
//!    by braking self-evacuates and announces itself (§IV-B5).
//! 7. **Ground truth** — collisions are recorded from world positions,
//!    independent of any protocol state.
//! 8. **Message plane** — due VANET deliveries dispatch into the vehicle
//!    guards and the manager agent; their actions are executed (sends,
//!    plan adoption, self-evacuation, metrics).
//! 9. **Sensing pass** (every 500 ms) — each benign vehicle observes
//!    neighbours in range and runs Algorithm 2 through its guard.
//! 10. **Manager window** (every δ = 1 s) — queued plan requests are
//!     scheduled, filtered, packaged and broadcast (Eq. 1).
//! 11. **Threat-cleared check** — once a confirmed violator stops or
//!     exits, recovery replans every vehicle parked by the evacuation.

use crate::adversary::{AdaptiveState, AttackPolicy, SYBIL_ID_BASE};
use crate::config::{ImOutage, SchedulerChoice, SignatureChoice, SimConfig};
use crate::imu::{ImuAction, ImuAgent};
use crate::invariant::{InvariantChecker, VehicleSnapshot};
use crate::metrics::SimMetrics;
use crate::report::SimReport;
use crate::scan::{braking_ids, collision_pairs, observed_neighbors, BrakeState};
use crate::vehicle::{DriveMode, Role, VehicleAgent};
use nwade::attack::{AttackSetting, ViolationKind};
use nwade::messages::{
    class, GlobalClaim, GlobalReport, IncidentReport, NwadeMessage, Observation,
};
#[cfg(feature = "store")]
use nwade::{CrashPoint, ImPersistence, RecoveryOutcome, StandbyManager, StandbyPolicy};
use nwade::{
    EvacuationCause, GuardAction, ManagerAction, NwadeConfig, NwadeManager, RetryDecision,
    VehicleGuard,
};
use nwade_aim::TravelPlan;
use nwade_aim::{
    AdmissionQueue, FcfsScheduler, PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig,
    TrafficLightScheduler,
};
use nwade_chain::tamper;
use nwade_crypto::{CachingVerifier, Digest, MockScheme, RsaKeyPair, RsaScheme, SignatureScheme};
use nwade_geometry::{GridIndex, MotionProfile, Vec2};
use nwade_intersection::{build, LegId, MovementId, Topology};
#[cfg(feature = "store")]
use nwade_store::{MemBackend, Wal};
use nwade_traffic::{DemandGenerator, SpawnEvent, VehicleDescriptor, VehicleId};
use nwade_vanet::{Medium, NodeId, Recipient};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Center-to-center distance below which two vehicles count as a
/// ground-truth collision.
const COLLISION_DISTANCE: f64 = 2.0;

/// Cell size of the braking-scan grid. Only a performance knob: queries
/// use the per-tick conservative interaction radius regardless of the
/// cell, so candidate sets (and results) are unaffected.
const BRAKE_GRID_CELL: f64 = 60.0;

/// FNV-1a accumulator behind [`Simulation::state_hash`]. Not
/// cryptographic — it only needs to make divergent world states
/// collide with negligible probability while staying cheap enough to
/// run every tick of a replay comparison.
pub(crate) struct StateHasher(u64);

impl StateHasher {
    pub(crate) fn new() -> Self {
        StateHasher(0xcbf29ce484222325)
    }

    pub(crate) fn u64(&mut self, value: u64) {
        for byte in value.to_be_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A vehicle crossing a city boundary: everything the receiving shard
/// needs to re-admit it through the normal request/admission path. The
/// record deliberately carries no plan — the plan was scoped to the
/// departing intersection; the vehicle asks the next manager for a
/// fresh one, exactly like a spawn.
#[derive(Debug, Clone)]
pub struct Handoff {
    /// City-wide vehicle identity (disjoint per-shard id spaces keep it
    /// unique everywhere).
    pub id: VehicleId,
    /// Speed at the boundary, m/s.
    pub speed: f64,
    /// Static characteristics.
    pub descriptor: VehicleDescriptor,
    /// Behavioural role — a violator or false reporter stays one next
    /// door.
    pub role: Role,
    /// The departing manager's false-report tally for this vehicle:
    /// ledger standing follows the vehicle across the boundary, so a
    /// squelched reporter cannot launder its history by driving away.
    pub false_reports: u32,
    /// The boundary leg the vehicle left through.
    pub exit_leg: LegId,
}

/// Persistent per-tick buffers. The hot phases (positions, sensing
/// snapshot, invariant snapshots, grid rebuilds) reuse these instead of
/// re-allocating every tick — at high density the churn dominated the
/// allocator profile.
struct TickScratch {
    /// `(id, position)` of every active vehicle, ID order.
    positions: Vec<(u64, Vec2)>,
    /// `(id, position, speed)` sensing snapshot, ID order.
    sense: Vec<(u64, Vec2, f64)>,
    /// Invariant snapshots, ID order.
    snapshots: Vec<VehicleSnapshot>,
    /// Bare positions fed to grid rebuilds.
    points: Vec<Vec2>,
    /// Grid over active positions for the collision / overlap sweeps.
    pair_grid: GridIndex,
    /// Grid over active positions for the braking scan.
    brake_grid: GridIndex,
    /// Grid over the sensing snapshot (cell = sensing radius).
    sense_grid: GridIndex,
}

/// The simulation world.
pub struct Simulation {
    config: SimConfig,
    topo: Arc<Topology>,
    rng: StdRng,
    medium: Medium<NwadeMessage>,
    imu: ImuAgent,
    vehicles: BTreeMap<u64, VehicleAgent>,
    spawn_queue: VecDeque<SpawnEvent>,
    /// Plan requests received and waiting for a window, with arrival
    /// times and deferral bookkeeping; `config.admission` decides which
    /// ones each window actually takes.
    pending_requests: AdmissionQueue,
    now: f64,
    metrics: SimMetrics,
    scheme: Arc<dyn SignatureScheme>,
    last_window: f64,
    last_sense: f64,
    // Attack bookkeeping.
    attack_deployed: bool,
    violator: Option<VehicleId>,
    accused: Option<VehicleId>,
    colluders: HashSet<VehicleId>,
    false_report_schedule: Vec<(f64, VehicleId)>,
    // Adversary (AttackPolicy) bookkeeping.
    adversary_deployed: bool,
    /// Bisection state of the adaptive threshold-probing attacker.
    adaptive: Option<AdaptiveState>,
    /// Next time the Sybil phantoms fire a report volley.
    sybil_next_fire: f64,
    /// The innocent vehicle the Sybil phantoms accuse.
    sybil_target: Option<VehicleId>,
    corrupted_index: Option<u64>,
    collided: HashSet<(u64, u64)>,
    threat_cleared: bool,
    /// Index of the most recently broadcast block.
    last_block_index: Option<u64>,
    /// The block index the colluders falsely accuse (Type B).
    bogus_claim_index: Option<u64>,
    /// Vehicles that publicly announced self-evacuation (the honest
    /// manager hears the broadcasts too).
    announced_evacuating: HashSet<VehicleId>,
    /// Last re-broadcast time per evacuating vehicle.
    last_announce: std::collections::HashMap<u64, f64>,
    /// Tick-time safety-invariant checking (chaos harness).
    invariants: InvariantChecker,
    /// Whether the manager was inside its outage window last tick (for
    /// restart edge detection).
    im_was_down: bool,
    /// Darkness imposed by a cold crash recovery (the manager is down
    /// while it rebuilds from the persisted chain).
    forced_outage: Option<ImOutage>,
    /// Whether the configured crash-point injection already fired.
    #[cfg(feature = "store")]
    crash_fired: bool,
    /// The durable device the manager logs to, shared with the chaos
    /// harness so crashes and corruption can be injected mid-run.
    #[cfg(feature = "store")]
    store_handle: MemBackend,
    /// Active persistence session; `None` when durability is disabled
    /// by config or the store failed.
    #[cfg(feature = "store")]
    persistence: Option<ImPersistence>,
    /// Hot-standby replica tailing the primary's WAL; consumed by
    /// promotion when the heartbeat miss bound trips.
    #[cfg(feature = "store")]
    standby: Option<StandbyManager>,
    /// A "dead" primary that was secretly only slow: at the scheduled
    /// time it seals one late, conflicting block from its stale state —
    /// the split-brain double-sign attempt fencing must reject.
    #[cfg(feature = "store")]
    zombie: Option<(f64, NwadeManager)>,
    /// Ticks advanced since construction (the forensic clock: snapshot
    /// and rewind points are addressed by tick, not by float time).
    ticks: u64,
    /// Legs that border a neighbouring intersection in a city grid: a
    /// vehicle whose movement terminates on one of these legs is handed
    /// off instead of exiting. Empty (the default) outside a city.
    boundary_exits: HashSet<LegId>,
    /// Handoffs produced since the city layer last drained them.
    outbound_handoffs: Vec<Handoff>,
    /// Handoffs delivered by the city layer, each waiting with its entry
    /// leg and enqueue time for a clear lane.
    inbound_handoffs: VecDeque<(LegId, Handoff, f64)>,
    /// Enqueue time of each handed-off vehicle still waiting for its
    /// first plan here (boundary re-admission latency bookkeeping).
    handoff_wait: BTreeMap<u64, f64>,
    /// Reusable per-tick buffers and spatial indices.
    scratch: TickScratch,
}

impl Clone for Simulation {
    /// Deep copy of the whole world — the forensic snapshot primitive.
    ///
    /// Everything that influences future behaviour is duplicated:
    /// vehicles (guards included), the manager stack, in-flight
    /// messages, the RNG stream, attack bookkeeping, and (with the
    /// `store` feature) the durable device itself, forked with its
    /// volatile/durable boundary intact so crash injections tear
    /// identically in the copy. The per-tick scratch buffers are
    /// rebuilt empty — every phase overwrites them before reading, so
    /// they carry no cross-tick state.
    fn clone(&self) -> Self {
        #[cfg(feature = "store")]
        let store_handle = self.store_handle.fork();
        #[cfg(feature = "store")]
        let persistence = self
            .persistence
            .as_ref()
            .map(|p| p.fork_onto(Box::new(store_handle.clone())));
        #[cfg(feature = "store")]
        let standby = self
            .standby
            .as_ref()
            .map(|s| s.fork_onto(Box::new(store_handle.clone())));
        Simulation {
            config: self.config.clone(),
            topo: self.topo.clone(),
            rng: self.rng.clone(),
            medium: self.medium.clone(),
            imu: self.imu.clone(),
            vehicles: self.vehicles.clone(),
            spawn_queue: self.spawn_queue.clone(),
            pending_requests: self.pending_requests.clone(),
            now: self.now,
            metrics: self.metrics.clone(),
            scheme: self.scheme.clone(),
            last_window: self.last_window,
            last_sense: self.last_sense,
            attack_deployed: self.attack_deployed,
            violator: self.violator,
            accused: self.accused,
            colluders: self.colluders.clone(),
            false_report_schedule: self.false_report_schedule.clone(),
            adversary_deployed: self.adversary_deployed,
            adaptive: self.adaptive,
            sybil_next_fire: self.sybil_next_fire,
            sybil_target: self.sybil_target,
            corrupted_index: self.corrupted_index,
            collided: self.collided.clone(),
            threat_cleared: self.threat_cleared,
            last_block_index: self.last_block_index,
            bogus_claim_index: self.bogus_claim_index,
            announced_evacuating: self.announced_evacuating.clone(),
            last_announce: self.last_announce.clone(),
            invariants: self.invariants.clone(),
            im_was_down: self.im_was_down,
            forced_outage: self.forced_outage,
            #[cfg(feature = "store")]
            crash_fired: self.crash_fired,
            #[cfg(feature = "store")]
            store_handle,
            #[cfg(feature = "store")]
            persistence,
            #[cfg(feature = "store")]
            standby,
            #[cfg(feature = "store")]
            zombie: self.zombie.clone(),
            ticks: self.ticks,
            boundary_exits: self.boundary_exits.clone(),
            outbound_handoffs: self.outbound_handoffs.clone(),
            inbound_handoffs: self.inbound_handoffs.clone(),
            handoff_wait: self.handoff_wait.clone(),
            scratch: TickScratch {
                positions: Vec::new(),
                sense: Vec::new(),
                snapshots: Vec::new(),
                points: Vec::new(),
                pair_grid: GridIndex::with_cell(2.0 * COLLISION_DISTANCE),
                brake_grid: GridIndex::with_cell(BRAKE_GRID_CELL),
                sense_grid: GridIndex::with_cell(self.config.nwade.sensing_radius),
            },
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("tick", &self.ticks)
            .field("now", &self.now)
            .field("vehicles", &self.vehicles.len())
            .field("state_hash", &self.state_hash())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("sim config must be valid");
        let topo = Arc::new(build(config.kind, &config.geometry));
        let mut rng = StdRng::seed_from_u64(config.seed);
        // The scheme is shared by the manager (signing) and every guard
        // (verifying). The caching wrapper memoises verification verdicts
        // by (digest, signature), so a block broadcast to N vehicles costs
        // one public-key operation instead of N — signing is a pure
        // pass-through.
        let scheme: Arc<dyn SignatureScheme> = match config.signature {
            SignatureChoice::Mock => Arc::new(CachingVerifier::new(MockScheme::from_seed(
                config.seed ^ 0xA5A5,
            ))),
            SignatureChoice::Rsa { bits } => Arc::new(CachingVerifier::new(RsaScheme::new(
                RsaKeyPair::generate(bits, &mut rng),
            ))),
        };
        #[allow(unused_mut)] // mutated only by the store-feature attach below
        let mut manager = Self::build_manager(&config, &topo, &scheme);
        #[cfg(feature = "store")]
        let store_handle = MemBackend::new();
        // A fresh store attaches as a trivially warm no-op; the handle is
        // kept so crash recovery can re-open the same device later.
        #[cfg(feature = "store")]
        let persistence = if config.store.enabled && config.nwade_enabled {
            ImPersistence::attach(
                Box::new(store_handle.clone()),
                config.store.snapshot_every,
                &mut manager,
            )
            .ok()
            .map(|(p, _)| p)
        } else {
            None
        };
        // The hot standby starts from an identical genesis manager and
        // tails the same device the primary logs to; the full history
        // (empty at construction) replays on its first poll.
        #[cfg(feature = "store")]
        let standby = if config.standby.enabled && persistence.is_some() {
            Some(StandbyManager::new(
                Self::build_manager(&config, &topo, &scheme),
                Wal::follow(Box::new(store_handle.clone())),
                config.store.snapshot_every,
                StandbyPolicy {
                    heartbeat_interval: config.standby.heartbeat_interval,
                    miss_bound: config.standby.miss_bound,
                    jitter: config.standby.jitter,
                    salt: config.seed ^ 0x57A4_DB15,
                },
                0.0,
            ))
        } else {
            None
        };
        let im_malicious = config.attack.is_some_and(|a| a.setting.im_malicious());
        let imu = ImuAgent::new(manager, topo.clone(), scheme.clone(), im_malicious);

        let mut demand =
            DemandGenerator::new(config.density, config.turn_mix, config.initial_speed);
        let mut spawns = demand.generate(&topo, config.duration, &mut rng);
        // Shift every arrival into this shard's id space. A base of 0
        // (the default) leaves single-intersection runs bit-identical.
        if config.vehicle_id_base != 0 {
            for ev in &mut spawns {
                ev.id = VehicleId::new(config.vehicle_id_base + ev.id.raw());
            }
        }

        let mut medium = Medium::new(config.medium.clone());
        medium.set_position(NodeId::Imu, Vec2::ZERO);

        Simulation {
            topo,
            rng,
            medium,
            imu,
            vehicles: BTreeMap::new(),
            spawn_queue: spawns.into(),
            pending_requests: AdmissionQueue::new(),
            now: 0.0,
            metrics: SimMetrics::default(),
            scheme,
            last_window: 0.0,
            last_sense: 0.0,
            attack_deployed: false,
            violator: None,
            accused: None,
            colluders: HashSet::new(),
            false_report_schedule: Vec::new(),
            adversary_deployed: false,
            adaptive: None,
            sybil_next_fire: 0.0,
            sybil_target: None,
            corrupted_index: None,
            collided: HashSet::new(),
            threat_cleared: false,
            last_block_index: None,
            bogus_claim_index: None,
            announced_evacuating: HashSet::new(),
            last_announce: std::collections::HashMap::new(),
            invariants: InvariantChecker::new(),
            im_was_down: false,
            forced_outage: None,
            #[cfg(feature = "store")]
            crash_fired: false,
            #[cfg(feature = "store")]
            store_handle,
            #[cfg(feature = "store")]
            persistence,
            #[cfg(feature = "store")]
            standby,
            #[cfg(feature = "store")]
            zombie: None,
            ticks: 0,
            boundary_exits: HashSet::new(),
            outbound_handoffs: Vec::new(),
            inbound_handoffs: VecDeque::new(),
            handoff_wait: BTreeMap::new(),
            scratch: TickScratch {
                positions: Vec::new(),
                sense: Vec::new(),
                snapshots: Vec::new(),
                points: Vec::new(),
                pair_grid: GridIndex::with_cell(2.0 * COLLISION_DISTANCE),
                brake_grid: GridIndex::with_cell(BRAKE_GRID_CELL),
                sense_grid: GridIndex::with_cell(config.nwade.sensing_radius),
            },
            config,
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Snapshot of every active vehicle: `(id, position, speed, mode,
    /// malicious)`.
    pub fn vehicle_snapshot(&self) -> Vec<(VehicleId, Vec2, f64, DriveMode, bool)> {
        self.vehicles
            .values()
            .filter(|v| v.is_active())
            .map(|v| {
                (
                    v.id,
                    v.position(&self.topo),
                    v.speed,
                    v.mode,
                    v.is_malicious(),
                )
            })
            .collect()
    }

    /// Metrics collected so far (final totals only after [`Simulation::run`]).
    pub fn metrics_so_far(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The invariant report accumulated so far (final copy lands in
    /// [`SimMetrics::invariants`] after the run).
    pub fn invariants_so_far(&self) -> &crate::invariant::InvariantReport {
        self.invariants.report()
    }

    /// Active vehicles the world still treats as publicly self-evacuating
    /// although their guard no longer is — after an outage recovery this
    /// must drain to zero (no lingering global-report state).
    pub fn lingering_announcements(&self) -> usize {
        self.announced_evacuating
            .iter()
            .filter(|id| {
                self.vehicles
                    .get(&id.raw())
                    .is_some_and(|v| v.is_active() && !v.guard.is_evacuating())
            })
            .count()
    }

    // ----- bench / differential-test drivers -----------------------

    /// Number of vehicles currently inside the modeled area.
    pub fn active_vehicle_count(&self) -> usize {
        self.vehicles.values().filter(|v| v.is_active()).count()
    }

    /// Ticks advanced since construction — the forensic clock.
    pub fn ticks_elapsed(&self) -> u64 {
        self.ticks
    }

    /// Digest of the full world state at the current tick.
    ///
    /// Covers everything that shapes the rest of the run: the clock,
    /// the RNG stream position (probed by drawing from a clone, which
    /// leaves the live stream untouched), every vehicle's kinematic and
    /// protocol-visible state, the chain tip, the in-flight message
    /// queue, and the headline metric counters. Two worlds with equal
    /// hashes at every tick of a range evolved identically over it;
    /// the replay layer compares these tick by tick to pin the
    /// bit-identical-resimulation guarantee.
    pub fn state_hash(&self) -> u64 {
        use rand::Rng;
        let mut h = StateHasher::new();
        h.u64(self.ticks);
        h.f64(self.now);
        h.f64(self.last_window);
        h.f64(self.last_sense);
        h.u64(self.rng.clone().gen::<u64>());
        h.u64(self.vehicles.len() as u64);
        for v in self.vehicles.values() {
            h.u64(v.id.raw());
            h.f64(v.s);
            h.f64(v.speed);
            h.f64(v.lateral);
            h.u64(match v.mode {
                DriveMode::Cruise => 0,
                DriveMode::FollowPlan => 1,
                DriveMode::Violate(t) => 2 ^ t.to_bits().rotate_left(2),
                DriveMode::SelfEvacuate => 3,
            });
            h.u64(u64::from(v.is_active()));
            h.u64(v.plan.as_ref().map_or(u64::MAX, |p| p.id().raw()));
        }
        h.u64(self.imu.manager.chain_next_index());
        let tip = self.imu.manager.chain_tip();
        let mut tip8 = [0u8; 8];
        tip8.copy_from_slice(&tip.as_bytes()[..8]);
        h.u64(u64::from_be_bytes(tip8));
        h.u64(self.medium.flight_digest());
        h.u64(self.spawn_queue.len() as u64);
        h.u64(self.pending_requests.len() as u64);
        h.u64(self.pending_requests.total_deferrals());
        h.u64(self.metrics.spawned as u64);
        h.u64(self.metrics.exited as u64);
        h.u64(self.metrics.blocks_broadcast as u64);
        h.u64(self.metrics.plans_scheduled as u64);
        h.u64(self.metrics.benign_self_evacuations as u64);
        h.u64(self.metrics.accidents as u64);
        h.u64(self.invariants.report().total() as u64);
        h.u64(self.announced_evacuating.len() as u64);
        h.u64(self.colluders.len() as u64);
        h.u64(u64::from(self.attack_deployed));
        h.u64(u64::from(self.threat_cleared));
        h.u64(u64::from(self.adversary_deployed));
        if let Some(st) = &self.adaptive {
            h.u64(st.id.raw());
            h.f64(st.lo);
            h.f64(st.hi);
            h.f64(st.amp);
            h.f64(st.epoch_start);
            h.u64(u64::from(st.reported_this_epoch));
        }
        h.f64(self.sybil_next_fire);
        h.u64(self.sybil_target.map_or(u64::MAX, |v| v.raw()));
        h.u64(self.outbound_handoffs.len() as u64);
        for hof in &self.outbound_handoffs {
            h.u64(hof.id.raw());
            h.f64(hof.speed);
            h.u64(hof.exit_leg.index() as u64);
            h.u64(u64::from(hof.false_reports));
        }
        h.u64(self.inbound_handoffs.len() as u64);
        for (leg, hof, queued_at) in &self.inbound_handoffs {
            h.u64(leg.index() as u64);
            h.u64(hof.id.raw());
            h.f64(*queued_at);
        }
        h.u64(self.handoff_wait.len() as u64);
        h.u64(self.metrics.handoffs_out as u64);
        h.u64(self.metrics.handoffs_in as u64);
        h.u64(self.metrics.boundary_latency_samples as u64);
        h.finish()
    }

    /// Advances the world by exactly one tick. Benchmarks drive the
    /// engine through this instead of [`Simulation::run`] so they can
    /// time individual ticks against a prepared fleet.
    pub fn tick_once(&mut self) {
        self.tick();
    }

    /// Runs one sensing pass immediately, ignoring the sense-interval
    /// cadence — isolates Algorithm 2 for latency measurements.
    pub fn force_sense_pass(&mut self) {
        let now = self.now;
        self.sense_pass(now);
    }

    /// Queues plan requests as if up to `max` active vehicles had just
    /// asked the manager; returns `(offered, queued)` — how many active
    /// vehicles wanted a plan and how many were actually enqueued. When
    /// the cap binds, the batch is cut by *deadline* (soonest predicted
    /// box arrival first, vehicle ID breaking ties) rather than by map
    /// iteration order, so the selection is deterministic and never
    /// starves the vehicles closest to the stop line. The shed gap is
    /// exported through [`SimMetrics`] (`requests_shed`,
    /// `last_window_shed_gap`) so a binding cap is never silent. Pairs
    /// with [`Simulation::force_process_window`] to measure
    /// window-processing latency at a controlled request count.
    pub fn enqueue_plan_requests(&mut self, max: usize) -> (usize, usize) {
        let now = self.now;
        let mut candidates: Vec<(f64, PlanRequest)> = self
            .vehicles
            .values()
            .filter(|v| v.is_active())
            .map(|v| {
                let movement = self.topo.movement(v.movement);
                let deadline = (movement.box_entry() - v.s) / v.speed.max(0.1);
                (
                    deadline,
                    PlanRequest {
                        id: v.id,
                        descriptor: v.descriptor.clone(),
                        movement: v.movement,
                        position_s: v.s,
                        speed: v.speed,
                    },
                )
            })
            .collect();
        let offered = candidates.len();
        if offered > max {
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.raw().cmp(&b.1.id.raw())));
            candidates.truncate(max);
        }
        let queued = candidates.len();
        for (_, req) in candidates {
            self.pending_requests.push(now, req);
        }
        let shed = offered - queued;
        self.metrics.requests_shed += shed;
        self.metrics.last_window_shed_gap = shed;
        if shed > 0 {
            self.metrics.shed_windows += 1;
        }
        (offered, queued)
    }

    /// Runs one manager processing window immediately (scheduling,
    /// packaging, broadcast), ignoring the window cadence.
    pub fn force_process_window(&mut self) {
        let now = self.now;
        self.process_window(now);
    }

    /// Drives `rounds` back-to-back processing windows over the current
    /// fleet and measures each one, re-offering every active vehicle per
    /// round. Each window applies `config.admission` and drives the real
    /// manager on the calling thread, but bypasses the VANET and
    /// persistence layers — the measured work is admission, scheduling,
    /// packaging and signing. Returns the per-window points and the
    /// total plans sealed into blocks.
    pub fn bench_window_throughput(&mut self, rounds: usize) -> (Vec<WindowBenchPoint>, usize) {
        let window = self.nwade_cfg().processing_window;
        let mut points = Vec::with_capacity(rounds);
        let mut sealed = 0usize;
        for _ in 0..rounds {
            self.now += window;
            let now = self.now;
            self.enqueue_plan_requests(usize::MAX);
            let start = std::time::Instant::now();
            let requests = self.admit_pending(now);
            let deferred = self.metrics.last_window_shed_gap;
            if let Some(ManagerAction::BroadcastBlock(b)) =
                self.imu.manager.on_window(&requests, now)
            {
                sealed += b.plans().len();
            }
            points.push(WindowBenchPoint {
                offered: requests.len() + deferred,
                admitted: requests.len(),
                deferred,
                latency_s: start.elapsed().as_secs_f64(),
            });
        }
        (points, sealed)
    }

    /// Pre-places up to `n` slow-cruising vehicles single-file on the
    /// approach lanes and returns how many fit. This is the benchmark
    /// fleet: deterministic (no RNG draws), dense enough to exercise the
    /// neighbourhood scans, and quiescent — 8 m spacing at 1 m/s keeps
    /// every vehicle outside its leader's braking envelope, and the dummy
    /// cruise plan (mode stays `Cruise`) suppresses plan-request traffic.
    /// Vehicles in one lane share the approach geometry, so single-file
    /// placement cannot overlap across movements.
    pub fn prespawn_fleet(&mut self, n: usize) -> usize {
        const SPACING: f64 = 8.0;
        const FIRST_S: f64 = 4.0;
        const SPEED: f64 = 1.0;
        let mut lanes: BTreeMap<(LegId, usize), Vec<MovementId>> = BTreeMap::new();
        for m in self.topo.movements() {
            lanes
                .entry((m.from_leg(), m.from_lane()))
                .or_default()
                .push(m.id());
        }
        let lanes: Vec<Vec<MovementId>> = lanes.into_values().collect();
        let mut placed = 0usize;
        let mut row = 0usize;
        while placed < n {
            let mut any_fit = false;
            for movements in &lanes {
                if placed >= n {
                    break;
                }
                let s = FIRST_S + row as f64 * SPACING;
                let limit = movements
                    .iter()
                    .map(|m| self.topo.movement(*m).box_entry())
                    .fold(f64::INFINITY, f64::min)
                    - 10.0;
                if s > limit {
                    continue;
                }
                any_fit = true;
                let movement = movements[row % movements.len()];
                let id = VehicleId::new(1_000_000 + self.config.vehicle_id_base + placed as u64);
                let descriptor = VehicleDescriptor {
                    brand: "bench".into(),
                    model: "fleet".into(),
                    color: "grey".into(),
                };
                let guard = VehicleGuard::new(
                    id,
                    self.topo.clone(),
                    self.scheme.clone(),
                    self.config.nwade,
                );
                let mut agent =
                    VehicleAgent::new(id, movement, descriptor.clone(), guard, SPEED, self.now);
                agent.s = s;
                let path = self.topo.movement(movement).path();
                agent.plan = Some(TravelPlan::new(
                    id,
                    descriptor,
                    nwade_aim::VehicleStatus {
                        position: path.point_at(s),
                        speed: SPEED,
                        heading: path.heading_at(s),
                    },
                    movement,
                    MotionProfile::cruise(self.now, SPEED, path.length()),
                ));
                let pos = agent.position(&self.topo);
                self.medium.set_position(NodeId::Vehicle(id.raw()), pos);
                self.vehicles.insert(id.raw(), agent);
                self.metrics.spawned += 1;
                placed += 1;
            }
            if !any_fit {
                break; // every lane is full
            }
            row += 1;
        }
        placed
    }

    /// Runs to completion and returns the report.
    pub fn run(self) -> SimReport {
        self.run_with(|_| {})
    }

    /// Runs to completion, calling `observer` after every tick — for
    /// visualization, live metrics, or custom probes.
    pub fn run_with(mut self, mut observer: impl FnMut(&Simulation)) -> SimReport {
        let ticks = (self.config.duration / self.config.dt).ceil() as u64;
        for _ in 0..ticks {
            self.tick();
            observer(&self);
        }
        self.metrics.duration = self.config.duration;
        // Vehicles stay in the map after exiting, so one sweep counts
        // every guard's fenced-off stale-epoch blocks exactly once.
        self.metrics.fencing_rejections = self
            .vehicles
            .values()
            .map(|v| v.guard.fencing_rejections())
            .sum();
        self.metrics.network = self.medium.stats().clone();
        self.metrics.invariants = std::mem::take(&mut self.invariants).finish();
        SimReport {
            setting: self.config.attack.map(|a| a.setting),
            kind: self.config.kind,
            density: self.config.density,
            nwade_enabled: self.config.nwade_enabled,
            metrics: self.metrics,
        }
    }

    fn nwade_cfg(&self) -> &NwadeConfig {
        &self.config.nwade
    }

    fn tick(&mut self) {
        self.ticks += 1;
        self.now += self.config.dt;
        let now = self.now;

        let im_down = self.im_down(now);
        if self.im_was_down && !im_down {
            self.im_restart(now);
        }
        self.im_was_down = im_down;
        #[cfg(feature = "store")]
        {
            self.drive_standby(!im_down, now);
            self.fire_zombie(now);
        }

        self.spawn_due(now);
        self.admit_inbound(now);
        self.rerequest_plans(now);
        self.rebroadcast_announcements(now);
        self.deploy_attack(now);
        self.deploy_adversary(now);
        self.drive_adversary(now);
        self.fire_false_reports(now);
        self.step_physics(now);
        self.divergence_check(now);
        self.detect_collisions();
        self.deliver_messages(now);
        if now - self.last_sense >= self.config.sense_interval {
            self.last_sense = now;
            self.sense_pass(now);
        }
        if now - self.last_window >= self.nwade_cfg().processing_window {
            self.last_window = now;
            if !im_down {
                self.process_window(now);
            }
            // Chain integrity is checked at window cadence (the chain
            // only grows in windows; per-tick would re-verify the same
            // blocks ten times over).
            let chain = self.imu.manager.blocks_from(0);
            self.invariants.check_chain(&chain, now);
        }
        self.check_threat_cleared();
        self.check_vehicle_invariants(now);
    }

    /// Builds the manager + scheduler stack from the config (used at
    /// construction and again when crash recovery restarts the process).
    fn build_manager(
        config: &SimConfig,
        topo: &Arc<Topology>,
        scheme: &Arc<dyn SignatureScheme>,
    ) -> NwadeManager {
        let sched_cfg = SchedulerConfig {
            limits: config.limits,
            ..SchedulerConfig::default()
        };
        let scheduler: Box<dyn Scheduler + Send> = match config.scheduler {
            SchedulerChoice::Reservation => {
                Box::new(ReservationScheduler::new(topo.clone(), sched_cfg))
            }
            SchedulerChoice::Fcfs => Box::new(FcfsScheduler::new(topo.clone(), sched_cfg)),
            SchedulerChoice::TrafficLight => Box::new(TrafficLightScheduler::new(
                topo.clone(),
                sched_cfg,
                Default::default(),
            )),
        };
        NwadeManager::new(topo.clone(), scheduler, scheme.clone(), config.nwade)
    }

    /// `true` while the manager is inside a configured or crash-imposed
    /// outage window.
    fn im_down(&self, now: f64) -> bool {
        self.config.im_outage.is_some_and(|o| o.covers(now))
            || self.forced_outage.is_some_and(|o| o.covers(now))
    }

    /// The manager comes back from an outage. With the durable store
    /// active, a fresh manager is rebuilt from snapshot + WAL replay
    /// (warm: reservations and chain tip intact); otherwise — or when
    /// the store is unusable — the existing cold path runs: transient
    /// conversational state (in-flight report verifications) is gone,
    /// the chain and the published-plan ledger survive. Vehicles that
    /// self-evacuated on the IM timeout re-admit themselves when the
    /// next fresh block they can verify against their cached chain
    /// arrives — no special resync message exists, exactly as in the
    /// paper's model where the chain is the only shared state.
    fn im_restart(&mut self, now: f64) {
        if self.forced_outage.take().is_some() {
            // End of a cold-crash downtime: the warm/cold decision was
            // made (and counted) at crash time; the manager just wakes.
            self.imu.manager.restart();
            return;
        }
        #[cfg(feature = "store")]
        if self.persistence.is_some() && self.try_warm_swap(now) {
            self.metrics.warm_recoveries += 1;
            return;
        }
        let _ = now;
        self.imu.manager.restart();
        self.metrics.cold_recoveries += 1;
    }

    /// Rebuilds the manager from the durable store. On success the
    /// recovered manager replaces the live one and committed-but-
    /// unbroadcast blocks go out; on failure (`Cold` or a device error)
    /// the live manager is left untouched and persistence stays off.
    #[cfg(feature = "store")]
    fn try_warm_swap(&mut self, now: f64) -> bool {
        self.persistence = None;
        let mut fresh = Self::build_manager(&self.config, &self.topo, &self.scheme);
        let attached = ImPersistence::attach(
            Box::new(self.store_handle.clone()),
            self.config.store.snapshot_every,
            &mut fresh,
        );
        match attached {
            Ok((persist, RecoveryOutcome::Warm(warm))) => {
                self.imu.manager = fresh;
                self.persistence = Some(persist);
                self.metrics.wal_truncated_bytes += warm.truncated_bytes;
                let rebroadcast: Vec<ImuAction> = warm
                    .actions
                    .into_iter()
                    .filter_map(|a| match a {
                        ManagerAction::BroadcastBlock(b) => Some(ImuAction::Broadcast(b)),
                        _ => None,
                    })
                    .collect();
                self.handle_imu_actions(rebroadcast, now);
                true
            }
            Ok((_, RecoveryOutcome::Cold { reason })) => {
                if std::env::var("NWADE_DEBUG").is_ok() {
                    eprintln!("[nwade-debug] t={now:.2} warm recovery refused: {reason}");
                }
                false
            }
            Err(e) => {
                if std::env::var("NWADE_DEBUG").is_ok() {
                    eprintln!("[nwade-debug] t={now:.2} store unreadable: {e}");
                }
                false
            }
        }
    }

    /// Drives the hot standby once per tick: replication poll, heartbeat
    /// accounting while the primary is up, and the bounded-miss
    /// promotion rule once it goes silent.
    #[cfg(feature = "store")]
    fn drive_standby(&mut self, primary_up: bool, now: f64) {
        let Some(standby) = self.standby.as_mut() else {
            return;
        };
        // Replication first; lag is sampled before the drain, so the
        // metric records the largest backlog a poll ever found.
        if let Ok(lag) = standby.lag_records() {
            self.metrics.standby_max_lag_records = self.metrics.standby_max_lag_records.max(lag);
        }
        let _ = standby.poll();
        if primary_up {
            standby.heartbeat(now);
        } else if standby.due_promotion(now) {
            self.promote_standby(now);
        }
    }

    /// The miss bound tripped: the standby takes over as primary,
    /// ending the outage immediately. When promotion is refused (a
    /// diverged replica, a device error) the standby is dropped and the
    /// cold-downtime fallback keeps running instead.
    #[cfg(feature = "store")]
    fn promote_standby(&mut self, now: f64) {
        let Some(standby) = self.standby.take() else {
            return;
        };
        let windows = standby.windows_applied();
        match standby.promote() {
            Ok(promoted) => {
                if std::env::var("NWADE_DEBUG").is_ok() {
                    eprintln!(
                        "[nwade-debug] t={now:.2} standby promoted: epoch={} windows={windows}",
                        promoted.epoch
                    );
                }
                self.imu.manager = promoted.manager;
                self.persistence = Some(promoted.persistence);
                // Darkness ends at takeover, not at the cold downtime;
                // clearing the outage here also keeps the restart edge
                // from counting a second recovery later.
                self.forced_outage = None;
                self.im_was_down = false;
                self.metrics.standby_promotions += 1;
                self.metrics.standby_windows_applied = windows;
                if let Some(t) = self.metrics.im_crash_time {
                    self.metrics.standby_promotion_latency = Some(now - t);
                }
                let rebroadcast: Vec<ImuAction> = promoted
                    .actions
                    .into_iter()
                    .filter_map(|a| match a {
                        ManagerAction::BroadcastBlock(b) => Some(ImuAction::Broadcast(b)),
                        _ => None,
                    })
                    .collect();
                self.handle_imu_actions(rebroadcast, now);
            }
            Err(reason) => {
                if std::env::var("NWADE_DEBUG").is_ok() {
                    eprintln!("[nwade-debug] t={now:.2} standby promotion refused: {reason}");
                }
                // The replica could not be trusted; the crash resolves
                // through the cold path after all.
                self.metrics.cold_recoveries += 1;
            }
        }
    }

    /// Fires the scheduled zombie: the ex-primary seals one more block
    /// from its stale in-memory state and puts it on the air without
    /// committing anywhere. Vehicle guards must fence it off — it is
    /// sealed under the pre-failover epoch and chains onto a tip hash
    /// the promotion re-seal replaced.
    #[cfg(feature = "store")]
    fn fire_zombie(&mut self, now: f64) {
        if !self.zombie.as_ref().is_some_and(|(at, _)| now >= *at) {
            return;
        }
        let (_, mut zombie) = self.zombie.take().expect("zombie just checked");
        let states: Vec<PlanRequest> = self
            .vehicles
            .values()
            .filter(|v| v.is_active())
            .map(|v| PlanRequest {
                id: v.id,
                descriptor: v.descriptor.clone(),
                movement: v.movement,
                position_s: v.s,
                speed: v.speed,
            })
            .collect();
        if states.is_empty() {
            return;
        }
        let Some(ManagerAction::BroadcastBlock(block)) = zombie.on_window(&states, now) else {
            return;
        };
        if std::env::var("NWADE_DEBUG").is_ok() {
            eprintln!(
                "[nwade-debug] t={now:.2} zombie primary broadcasts stale-epoch block idx={}",
                block.index()
            );
        }
        self.medium.send(
            NodeId::Imu,
            Recipient::Broadcast,
            class::BLOCK,
            NwadeMessage::Block(block),
            now,
            &mut self.rng,
        );
    }

    /// Turns durability off after a device error (the log can no longer
    /// be trusted to match the manager).
    #[cfg(feature = "store")]
    fn disable_store(&mut self, context: &str) {
        eprintln!("[nwade-sim] durable store failed ({context}); disabling durability");
        self.persistence = None;
    }

    /// The configured crash, when it is due to fire this window.
    #[cfg(feature = "store")]
    fn due_crash(&self, now: f64) -> Option<crate::config::CrashPlan> {
        let plan = self.config.im_crash?;
        (!self.crash_fired && now >= plan.at).then_some(plan)
    }

    /// Kills the manager process at the given crash point, mid-window.
    /// `staged` is the block the dying window produced (discarded —
    /// never broadcast by the crashing process). Recovery then either
    /// comes back warm the same tick, or goes dark for the cold
    /// downtime.
    #[cfg(feature = "store")]
    fn crash_im(
        &mut self,
        plan: crate::config::CrashPlan,
        staged: Option<nwade_chain::Block>,
        now: f64,
    ) {
        self.crash_fired = true;
        self.metrics.im_crashes += 1;
        self.metrics.im_crash_time = Some(now);
        let had_store = self.persistence.is_some();
        match plan.point {
            CrashPoint::AfterStage => {
                // Nothing about the staged block reached the device.
                self.store_handle.crash(0);
            }
            CrashPoint::BeforeCommit => {
                // The commit record dies half-written: a torn tail the
                // recovery scan must truncate.
                if let (Some(p), Some(b)) = (self.persistence.as_mut(), staged.as_ref()) {
                    let _ = p.commit_block(b, false);
                }
                self.store_handle.crash(10);
            }
            CrashPoint::AfterCommit => {
                // Committed and durable, but the broadcast never went
                // out: recovery must re-send exactly this block.
                if let (Some(p), Some(b)) = (self.persistence.as_mut(), staged.as_ref()) {
                    let _ = p.commit_block(b, true);
                }
                self.store_handle.crash(0);
            }
            CrashPoint::ProcessLoss => {
                // The whole process is gone, page cache included: only
                // synced bytes survive; the staged block and the
                // persistence handle die with it. Nothing
                // restarts in place — darkness ends at standby promotion
                // or, with no standby, after the cold rebuild downtime.
                self.store_handle.crash(0);
                self.persistence = None;
                if let Some(delay) = self.config.standby.zombie_delay {
                    // The "dead" primary was secretly only slow: its
                    // in-memory state (dying window absorbed) survives
                    // to attempt one late, conflicting block.
                    self.zombie = Some((now + delay, self.imu.manager.clone()));
                }
                if self.standby.is_none() {
                    self.metrics.cold_recoveries += 1;
                }
                self.forced_outage = Some(ImOutage {
                    start: now,
                    duration: plan.cold_downtime,
                });
                self.im_was_down = true;
                return;
            }
        }
        self.persistence = None; // the process died with its handle
        if had_store && self.try_warm_swap(now) {
            self.metrics.warm_recoveries += 1;
            return;
        }
        // Cold: the in-memory state of the crashed process is gone and
        // the store cannot reconstruct it. The manager stays dark while
        // it restores from the persisted chain (the same fiction as
        // `ImOutage`), and the outage-end edge restarts it.
        self.metrics.cold_recoveries += 1;
        self.forced_outage = Some(ImOutage {
            start: now,
            duration: plan.cold_downtime,
        });
        self.im_was_down = true;
    }

    /// The manager's durable chain height (index of the next block) —
    /// recovery differential tests compare this across runs.
    pub fn chain_next_index(&self) -> u64 {
        self.imu.manager.chain_next_index()
    }

    /// The manager's chain tip hash `h_{i-1}`.
    pub fn chain_tip(&self) -> nwade_crypto::Digest {
        self.imu.manager.chain_tip()
    }

    /// Ground-truth and protocol-consistency invariants, every tick; the
    /// overlap sweep runs over the pair grid.
    fn check_vehicle_invariants(&mut self, now: f64) {
        let topo = &self.topo;
        let scratch = &mut self.scratch;
        scratch.snapshots.clear();
        scratch
            .snapshots
            .extend(
                self.vehicles
                    .values()
                    .filter(|v| v.is_active())
                    .map(|v| VehicleSnapshot {
                        id: v.id,
                        position: v.position(topo),
                        active: true,
                        malicious: v.is_malicious(),
                        evacuating: v.guard.is_evacuating(),
                        state_self_evacuation: v.guard.state()
                            == nwade::fsm::vehicle::VehicleState::SelfEvacuation,
                        mode_self_evacuate: v.mode == DriveMode::SelfEvacuate,
                    }),
            );
        scratch.points.clear();
        scratch
            .points
            .extend(scratch.snapshots.iter().map(|s| s.position));
        scratch.pair_grid.rebuild(&scratch.points);
        self.invariants.check_vehicles(
            &self.scratch.snapshots,
            &self.scratch.pair_grid,
            &self.collided,
            COLLISION_DISTANCE,
            now,
        );
    }

    // ----- spawning -------------------------------------------------

    fn spawn_due(&mut self, now: f64) {
        while let Some(front) = self.spawn_queue.front() {
            if front.time > now {
                break;
            }
            // Gate: the lane entry must be clear far enough that the new
            // vehicle could brake to a stop behind stalled traffic.
            let spawn_gap = self.config.limits.stopping_distance(front.speed) + 30.0;
            let movement = self.topo.movement(front.movement);
            let lane_key = (movement.from_leg(), movement.from_lane());
            let blocked = self.vehicles.values().any(|v| {
                if !v.is_active() {
                    return false;
                }
                let m = self.topo.movement(v.movement);
                (m.from_leg(), m.from_lane()) == lane_key && v.s < spawn_gap
            });
            if blocked {
                // Hold the spawn until the lane clears.
                let mut ev = self.spawn_queue.pop_front().expect("front exists");
                ev.time = now + 1.0;
                // Keep the queue time-ordered by reinserting behind any
                // earlier events.
                let pos = self
                    .spawn_queue
                    .iter()
                    .position(|e| e.time > ev.time)
                    .unwrap_or(self.spawn_queue.len());
                self.spawn_queue.insert(pos, ev);
                continue;
            }
            let ev = self.spawn_queue.pop_front().expect("front exists");
            self.spawn(ev, now);
        }
    }

    fn spawn(&mut self, ev: SpawnEvent, now: f64) {
        let guard = VehicleGuard::new(
            ev.id,
            self.topo.clone(),
            self.scheme.clone(),
            self.config.nwade,
        );
        let agent = VehicleAgent::new(
            ev.id,
            ev.movement,
            ev.descriptor.clone(),
            guard,
            ev.speed,
            now,
        );
        let pos = agent.position(&self.topo);
        self.medium.set_position(NodeId::Vehicle(ev.id.raw()), pos);
        self.vehicles.insert(ev.id.raw(), agent);
        self.metrics.spawned += 1;
        // Request a plan from the manager.
        let req = PlanRequest {
            id: ev.id,
            descriptor: ev.descriptor,
            movement: ev.movement,
            position_s: 0.0,
            speed: ev.speed,
        };
        self.medium.send(
            NodeId::Vehicle(ev.id.raw()),
            Recipient::Unicast(NodeId::Imu),
            class::PLAN_REQUEST,
            NwadeMessage::PlanRequest(req),
            now,
            &mut self.rng,
        );
    }

    /// Re-admits queued handoffs whose entry lane is clear by the same
    /// stopping-distance gate spawns use. The vehicle materialises at
    /// the entry of a deterministically chosen movement (keyed by its
    /// id), its role and ledger standing carry over, and it requests a
    /// plan through the normal path — to the manager it is
    /// indistinguishable from a spawn. Blocked handoffs stay queued in
    /// arrival order.
    fn admit_inbound(&mut self, now: f64) {
        if self.inbound_handoffs.is_empty() {
            return;
        }
        let queued = std::mem::take(&mut self.inbound_handoffs);
        for (entry, handoff, queued_at) in queued {
            let movements = self.topo.movements_from(entry);
            let movement = match movements.len() {
                0 => {
                    // No route continues from this leg: the vehicle
                    // leaves the modeled city here instead.
                    self.metrics.exited += 1;
                    continue;
                }
                n => movements[(handoff.id.raw() % n as u64) as usize].id(),
            };
            let speed = handoff.speed;
            let spawn_gap = self.config.limits.stopping_distance(speed) + 30.0;
            let m = self.topo.movement(movement);
            let lane_key = (m.from_leg(), m.from_lane());
            let blocked = self.vehicles.values().any(|v| {
                if !v.is_active() {
                    return false;
                }
                let vm = self.topo.movement(v.movement);
                (vm.from_leg(), vm.from_lane()) == lane_key && v.s < spawn_gap
            });
            if blocked {
                self.inbound_handoffs.push_back((entry, handoff, queued_at));
                continue;
            }
            let guard = VehicleGuard::new(
                handoff.id,
                self.topo.clone(),
                self.scheme.clone(),
                self.config.nwade,
            );
            let mut agent = VehicleAgent::new(
                handoff.id,
                movement,
                handoff.descriptor.clone(),
                guard,
                speed,
                now,
            );
            agent.role = handoff.role;
            // Ledger standing follows the vehicle: the receiving manager
            // seeds its tally from the departing manager's.
            self.imu
                .manager
                .note_reporter_history(handoff.id, handoff.false_reports);
            let pos = agent.position(&self.topo);
            self.medium
                .set_position(NodeId::Vehicle(handoff.id.raw()), pos);
            self.vehicles.insert(handoff.id.raw(), agent);
            self.metrics.handoffs_in += 1;
            self.handoff_wait.insert(handoff.id.raw(), queued_at);
            let req = PlanRequest {
                id: handoff.id,
                descriptor: handoff.descriptor,
                movement,
                position_s: 0.0,
                speed,
            };
            self.medium.send(
                NodeId::Vehicle(handoff.id.raw()),
                Recipient::Unicast(NodeId::Imu),
                class::PLAN_REQUEST,
                NwadeMessage::PlanRequest(req),
                now,
                &mut self.rng,
            );
        }
    }

    /// Closes the boundary re-admission latency sample the first time a
    /// handed-off vehicle is assigned a plan in this shard.
    fn note_boundary_admission(&mut self, id: u64, now: f64) {
        if let Some(queued_at) = self.handoff_wait.remove(&id) {
            self.metrics.boundary_latency_total += now - queued_at;
            self.metrics.boundary_latency_samples += 1;
        }
    }

    // ----- city-grid boundary hooks ---------------------------------

    /// Declares which legs border a neighbouring intersection. Vehicles
    /// whose movement terminates on one of these legs are serialized
    /// into [`Handoff`] records instead of exiting.
    pub fn set_boundary_exits(&mut self, legs: impl IntoIterator<Item = LegId>) {
        self.boundary_exits = legs.into_iter().collect();
    }

    /// Drains the handoffs produced since the last call. The city layer
    /// collects these in shard-ID order during its serialized commit
    /// phase.
    pub fn take_outbound_handoffs(&mut self) -> Vec<Handoff> {
        std::mem::take(&mut self.outbound_handoffs)
    }

    /// Queues a vehicle arriving from a neighbouring shard for
    /// re-admission at `entry` once the lane is clear.
    pub fn queue_inbound_handoff(&mut self, entry: LegId, handoff: Handoff) {
        self.inbound_handoffs.push_back((entry, handoff, self.now));
    }

    /// Handoffs still waiting for a clear entry lane.
    pub fn inbound_backlog(&self) -> usize {
        self.inbound_handoffs.len()
    }

    /// Feeds a neighbouring manager's chain tip to this shard's manager
    /// for cross-shard anchoring; it is embedded into the next sealed
    /// block.
    pub fn note_neighbor_tip(&mut self, shard: u32, tip: Digest) {
        self.imu.manager.note_neighbor_tip(shard, tip);
    }

    /// Blocks at or after `from` from the manager's recent-block store
    /// (bounded; the city's anchor audit polls every tick, well inside
    /// the retention window).
    pub fn blocks_from(&self, from: u64) -> Vec<nwade_chain::Block> {
        self.imu.manager.blocks_from(from)
    }

    /// The manager's false-report tally for `id` — observable so tests
    /// can pin that ledger standing follows a handed-off vehicle.
    pub fn false_report_count(&self, id: VehicleId) -> u32 {
        self.imu.manager.false_report_count(id)
    }

    /// The configuration this simulation runs under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Vehicles still cruising without a plan (their plan was deferred by
    /// the manager or the block was lost) ask again on their retrier's
    /// backoff schedule. An exhausted retrier means the manager has been
    /// unreachable through every attempt: the vehicle keeps cruising
    /// planless, exactly the degraded state the old fixed-interval resend
    /// ended in — but now with bounded, jittered channel load.
    fn rerequest_plans(&mut self, now: f64) {
        let mut resend: Vec<PlanRequest> = Vec::new();
        for v in self.vehicles.values_mut() {
            if v.is_active() && v.mode == DriveMode::Cruise && v.plan.is_none() {
                if let RetryDecision::Fire(_) = v.plan_retry.poll(now) {
                    resend.push(PlanRequest {
                        id: v.id,
                        descriptor: v.descriptor.clone(),
                        movement: v.movement,
                        position_s: v.s,
                        speed: v.speed,
                    });
                }
            }
        }
        for req in resend {
            self.medium.send(
                NodeId::Vehicle(req.id.raw()),
                Recipient::Unicast(NodeId::Imu),
                class::PLAN_REQUEST,
                NwadeMessage::PlanRequest(req),
                now,
                &mut self.rng,
            );
        }
    }

    /// Self-evacuating vehicles re-broadcast their global report every
    /// couple of seconds so vehicles arriving after the first
    /// announcement also learn they are off-plan.
    fn rebroadcast_announcements(&mut self, now: f64) {
        let mut sends: Vec<(u64, nwade::messages::GlobalReport)> = Vec::new();
        for v in self.vehicles.values() {
            if !v.is_active() || !v.guard.is_evacuating() {
                continue;
            }
            let due = self
                .last_announce
                .get(&v.id.raw())
                .is_none_or(|t| now - t > 2.0);
            if !due {
                continue;
            }
            if v.guard.evacuation_claim().is_some() {
                // Re-broadcasts are pure self-announcements ("this
                // vehicle is off-plan"): they refresh note_threat at
                // late arrivals without inflating the original claim's
                // distinct-sender support.
                sends.push((
                    v.id.raw(),
                    GlobalReport {
                        sender: v.id,
                        claim: GlobalClaim::AbnormalVehicle { suspect: v.id },
                        time: now,
                    },
                ));
            }
        }
        for (id, report) in sends {
            self.last_announce.insert(id, now);
            self.medium.send(
                NodeId::Vehicle(id),
                Recipient::Broadcast,
                class::GLOBAL_REPORT,
                NwadeMessage::GlobalReport(report),
                now,
                &mut self.rng,
            );
        }
    }

    // ----- attack injection -----------------------------------------

    fn deploy_attack(&mut self, now: f64) {
        let Some(plan) = self.config.attack else {
            return;
        };
        if self.attack_deployed || now < plan.start {
            return;
        }
        use rand::Rng;
        // Candidate violators: planned, still approaching the box.
        let candidates: Vec<u64> = self
            .vehicles
            .values()
            .filter(|v| {
                v.is_active()
                    && v.mode == DriveMode::FollowPlan
                    && v.speed > 5.0
                    && v.plan
                        .as_ref()
                        .is_some_and(|p| p.exit_time(&self.topo).is_some())
                    && v.s < self.topo.movement(v.movement).box_entry() - 40.0
            })
            .map(|v| v.id.raw())
            .collect();
        let needs_violator = plan.setting.plan_violations() > 0;
        if needs_violator && candidates.is_empty() {
            return; // retry next tick
        }
        self.attack_deployed = true;
        self.metrics.attack_start = Some(now);

        if needs_violator {
            let pick = candidates[self.rng.gen_range(0..candidates.len())];
            let violator = VehicleId::new(pick);
            self.violator = Some(violator);
            self.vehicles
                .get_mut(&pick)
                .expect("candidate exists")
                .start_violation(plan.violation, now);
            if plan.setting.im_malicious() {
                self.imu.shielded.insert(violator);
            }
        }
        if plan.setting == AttackSetting::Im {
            self.imu.corrupt_next_block = true;
        }

        // Colluders: other active vehicles become false reporters.
        let n_reporters = plan.setting.false_reports();
        let mut pool: Vec<u64> = self
            .vehicles
            .values()
            .filter(|v| v.is_active() && Some(v.id) != self.violator)
            .map(|v| v.id.raw())
            .collect();
        for i in 0..n_reporters.min(pool.len()) {
            let j = self.rng.gen_range(i..pool.len());
            pool.swap(i, j);
            let id = VehicleId::new(pool[i]);
            self.colluders.insert(id);
            self.vehicles
                .get_mut(&pool[i])
                .expect("pool member exists")
                .role = Role::FalseReporter;
            self.false_report_schedule
                .push((now + 0.5 + 0.2 * i as f64, id));
        }
        // The innocent vehicle the colluders accuse.
        let innocents: Vec<u64> = self
            .vehicles
            .values()
            .filter(|v| {
                v.is_active() && Some(v.id) != self.violator && !self.colluders.contains(&v.id)
            })
            .map(|v| v.id.raw())
            .collect();
        if !innocents.is_empty() {
            let pick = innocents[self.rng.gen_range(0..innocents.len())];
            self.accused = Some(VehicleId::new(pick));
        }
    }

    fn fire_false_reports(&mut self, now: f64) {
        if self.false_report_schedule.is_empty() {
            return;
        }
        let due: Vec<VehicleId> = self
            .false_report_schedule
            .iter()
            .filter(|(t, _)| *t <= now)
            .map(|(_, v)| *v)
            .collect();
        self.false_report_schedule.retain(|(t, _)| *t > now);
        for reporter in due {
            let Some(agent) = self.vehicles.get(&reporter.raw()) else {
                continue;
            };
            if !agent.is_active() {
                continue;
            }
            // Type A: accuse the innocent vehicle with fabricated evidence.
            if let Some(accused) = self.accused {
                if let Some(victim) = self.vehicles.get(&accused.raw()) {
                    let fabricated = Observation {
                        target: accused,
                        position: victim.position(&self.topo) + Vec2::new(40.0, 0.0),
                        speed: 0.0,
                        time: now,
                    };
                    self.medium.send(
                        NodeId::Vehicle(reporter.raw()),
                        Recipient::Unicast(NodeId::Imu),
                        class::INCIDENT_REPORT,
                        NwadeMessage::IncidentReport(IncidentReport {
                            reporter,
                            suspect: accused,
                            evidence: fabricated,
                            block_index: 0,
                        }),
                        now,
                        &mut self.rng,
                    );
                }
            }
            // Spread the false accusation globally too (threat iv:
            // "disseminate false traffic situations to mislead normal
            // vehicles").
            if let Some(accused) = self.accused {
                self.medium.send(
                    NodeId::Vehicle(reporter.raw()),
                    Recipient::Broadcast,
                    class::GLOBAL_REPORT,
                    NwadeMessage::GlobalReport(GlobalReport {
                        sender: reporter,
                        claim: GlobalClaim::AbnormalVehicle { suspect: accused },
                        time: now,
                    }),
                    now,
                    &mut self.rng,
                );
            }
            // Type B: falsely claim the manager's latest block carries
            // conflicting plans — an accusation peers can actually check.
            let bogus_index = self.last_block_index.unwrap_or(0);
            self.bogus_claim_index = Some(bogus_index);
            SimMetrics::note_first(&mut self.metrics.type_b_first_broadcast, now);
            self.medium.send(
                NodeId::Vehicle(reporter.raw()),
                Recipient::Broadcast,
                class::GLOBAL_REPORT,
                NwadeMessage::GlobalReport(GlobalReport {
                    sender: reporter,
                    claim: GlobalClaim::ConflictingPlans { index: bogus_index },
                    time: now,
                }),
                now,
                &mut self.rng,
            );
        }
    }

    // ----- adaptive adversaries (AttackPolicy) -----------------------

    /// Picks a planned, still-approaching vehicle the adaptive policy
    /// can compromise — the same candidate criterion as
    /// [`Simulation::deploy_attack`].
    fn adaptive_candidate(&mut self) -> Option<VehicleId> {
        use rand::Rng;
        let candidates: Vec<u64> = self
            .vehicles
            .values()
            .filter(|v| {
                v.is_active()
                    && v.mode == DriveMode::FollowPlan
                    && v.role == Role::Benign
                    && v.speed > 5.0
                    && v.plan
                        .as_ref()
                        .is_some_and(|p| p.exit_time(&self.topo).is_some())
                    && v.s < self.topo.movement(v.movement).box_entry() - 40.0
            })
            .map(|v| v.id.raw())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let pick = candidates[self.rng.gen_range(0..candidates.len())];
        Some(VehicleId::new(pick))
    }

    /// Activates the configured [`AttackPolicy`] once its start time
    /// passes (retrying each tick until the fleet offers the roles it
    /// needs, like `deploy_attack`).
    fn deploy_adversary(&mut self, now: f64) {
        use rand::Rng;
        let Some(policy) = self.config.adversary else {
            return;
        };
        if self.adversary_deployed || now < policy.start() {
            return;
        }
        match policy {
            AttackPolicy::Adaptive(plan) => {
                let Some(id) = self.adaptive_candidate() else {
                    return; // retry next tick
                };
                // Role-malicious so the divergence check does not force
                // the probe pulses into a self-evacuation; the mode stays
                // FollowPlan — longitudinally the attacker executes its
                // published plan and only the lateral offset is forged.
                self.vehicles
                    .get_mut(&id.raw())
                    .expect("candidate exists")
                    .role = Role::Violator(ViolationKind::LaneDeviation);
                self.violator = Some(id);
                self.adaptive = Some(AdaptiveState::new(id, &plan, now));
                self.adversary_deployed = true;
                self.metrics.attack_start.get_or_insert(now);
            }
            AttackPolicy::Clique(plan) => {
                // Recruit `fraction` of the active fleet as colluders —
                // they stop sensing (sense_pass is benign-only), lie in
                // verification votes, and fabricate reports against one
                // innocent through the existing false-report machinery.
                let mut pool: Vec<u64> = self
                    .vehicles
                    .values()
                    .filter(|v| v.is_active() && v.role == Role::Benign)
                    .map(|v| v.id.raw())
                    .collect();
                let recruits = ((pool.len() as f64) * plan.fraction).round() as usize;
                if recruits == 0 {
                    return; // retry until the fleet is large enough
                }
                for i in 0..recruits {
                    let j = self.rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                    let id = VehicleId::new(pool[i]);
                    self.colluders.insert(id);
                    self.vehicles
                        .get_mut(&pool[i])
                        .expect("pool member exists")
                        .role = Role::FalseReporter;
                    self.false_report_schedule
                        .push((now + 0.5 + 0.2 * i as f64, id));
                }
                self.metrics.clique_size = recruits;
                if self.accused.is_none() {
                    let innocents = &pool[recruits..];
                    if !innocents.is_empty() {
                        let pick = innocents[self.rng.gen_range(0..innocents.len())];
                        self.accused = Some(VehicleId::new(pick));
                    }
                }
                self.adversary_deployed = true;
                self.metrics.attack_start.get_or_insert(now);
            }
            AttackPolicy::Sybil(plan) => {
                let Some(target) = self.pick_sybil_target() else {
                    return; // retry next tick
                };
                self.sybil_target = Some(target);
                // Phantoms exist only on the radio: register a position
                // near the intersection so the medium delivers their
                // unicasts, but never spawn a vehicle agent.
                for i in 0..plan.count {
                    self.medium.set_position(
                        NodeId::Vehicle(SYBIL_ID_BASE + i as u64),
                        Vec2::new(5.0 * (i as f64 + 1.0), 0.0),
                    );
                }
                self.sybil_next_fire = now;
                self.adversary_deployed = true;
                self.metrics.attack_start.get_or_insert(now);
            }
        }
    }

    /// An active benign vehicle for the Sybil phantoms to accuse.
    fn pick_sybil_target(&mut self) -> Option<VehicleId> {
        use rand::Rng;
        let innocents: Vec<u64> = self
            .vehicles
            .values()
            .filter(|v| v.is_active() && v.role == Role::Benign)
            .map(|v| v.id.raw())
            .collect();
        if innocents.is_empty() {
            return None;
        }
        let pick = innocents[self.rng.gen_range(0..innocents.len())];
        Some(VehicleId::new(pick))
    }

    /// Per-tick adversary behaviour: the adaptive attacker's pulse /
    /// bisection schedule and the Sybil report volleys. (The clique
    /// needs no driving — recruitment rewired the existing colluder
    /// machinery.)
    fn drive_adversary(&mut self, now: f64) {
        let Some(policy) = self.config.adversary else {
            return;
        };
        if !self.adversary_deployed {
            return;
        }
        match policy {
            AttackPolicy::Adaptive(plan) => self.drive_adaptive(&plan, now),
            AttackPolicy::Sybil(plan) => self.fire_sybil_volley(&plan, now),
            AttackPolicy::Clique(_) => {}
        }
    }

    fn drive_adaptive(&mut self, plan: &crate::adversary::AdaptivePlan, now: f64) {
        let Some(mut st) = self.adaptive else {
            return;
        };
        // The probing vehicle eventually exits; move the campaign to a
        // fresh recruit, keeping the bisection bracket — the attacker
        // model is a persistent adversary who learns across vehicles.
        let gone = self
            .vehicles
            .get(&st.id.raw())
            .is_none_or(|v| !v.is_active() || v.mode == DriveMode::SelfEvacuate);
        if gone {
            let Some(next) = self.adaptive_candidate() else {
                self.adaptive = Some(st);
                return; // retry next tick
            };
            self.vehicles
                .get_mut(&next.raw())
                .expect("candidate exists")
                .role = Role::Violator(ViolationKind::LaneDeviation);
            self.violator = Some(next);
            st.id = next;
            st.epoch_start = now;
            st.reported_this_epoch = false;
        }
        if now - st.epoch_start >= plan.probe_period {
            st.close_epoch(now);
            self.metrics.adaptive_epochs += 1;
        }
        self.metrics.adaptive_amplitude = Some(st.amp);
        // Pulse during the first half of the epoch, recover to the lane
        // center for the second half — a report that arrives during the
        // quiet half still counts against the pulsed amplitude.
        let pulse = now - st.epoch_start < 0.5 * plan.probe_period;
        let lateral = if pulse { st.amp } else { 0.0 };
        if let Some(v) = self.vehicles.get_mut(&st.id.raw()) {
            if v.is_active() && v.mode == DriveMode::FollowPlan {
                v.lateral = lateral;
            }
        }
        self.adaptive = Some(st);
    }

    fn fire_sybil_volley(&mut self, plan: &crate::adversary::SybilPlan, now: f64) {
        if now < self.sybil_next_fire {
            return;
        }
        self.sybil_next_fire = now + plan.report_interval;
        // Re-target when the accused innocent leaves the world.
        let target_gone = self
            .sybil_target
            .and_then(|t| self.vehicles.get(&t.raw()))
            .is_none_or(|v| !v.is_active());
        if target_gone {
            self.sybil_target = self.pick_sybil_target();
        }
        let Some(target) = self.sybil_target else {
            return;
        };
        let Some(victim) = self.vehicles.get(&target.raw()) else {
            return;
        };
        let victim_pos = victim.position(&self.topo);
        for i in 0..plan.count {
            let reporter = VehicleId::new(SYBIL_ID_BASE + i as u64);
            let fabricated = Observation {
                target,
                position: victim_pos + Vec2::new(40.0, 0.0),
                speed: 0.0,
                time: now,
            };
            self.medium.send(
                NodeId::Vehicle(reporter.raw()),
                Recipient::Unicast(NodeId::Imu),
                class::INCIDENT_REPORT,
                NwadeMessage::IncidentReport(IncidentReport {
                    reporter,
                    suspect: target,
                    evidence: fabricated,
                    block_index: 0,
                }),
                now,
                &mut self.rng,
            );
            self.metrics.sybil_reports += 1;
        }
    }

    // ----- physics & ground truth ------------------------------------

    fn step_physics(&mut self, now: f64) {
        // Local collision avoidance (independent of the protocol): a
        // vehicle whose sensors see an obstacle ahead within its braking
        // envelope performs an emergency stop regardless of its plan —
        // real autonomy stacks never drive blindly into stopped traffic.
        let topo = &self.topo;
        let states: Vec<BrakeState> = self
            .vehicles
            .values()
            .filter(|v| v.is_active())
            .map(|v| {
                let m = topo.movement(v.movement);
                BrakeState {
                    id: v.id.raw(),
                    pos: v.position(topo),
                    heading: m.path().heading_at(v.s),
                    speed: v.speed,
                    s: v.s,
                    movement: v.movement,
                    lane: (m.from_leg(), m.from_lane()),
                    in_approach: v.s < m.box_entry(),
                    malicious: v.is_malicious(),
                    on_plan: matches!(v.mode, DriveMode::FollowPlan | DriveMode::Cruise),
                    plan_cap: match (&v.mode, &v.plan) {
                        (DriveMode::FollowPlan, Some(p)) if p.profile().final_speed() < 0.1 => {
                            p.profile().end_position()
                        }
                        _ => f64::INFINITY,
                    },
                }
            })
            .collect();
        let scratch = &mut self.scratch;
        scratch.points.clear();
        scratch.points.extend(states.iter().map(|s| s.pos));
        scratch.brake_grid.rebuild(&scratch.points);
        let braking = braking_ids(&states, &scratch.brake_grid, self.config.limits.d_max);
        for id in braking {
            if let Some(agent) = self.vehicles.get_mut(&id) {
                agent.emergency_brake(&self.config.limits, self.config.dt);
            }
        }
        // Advance every active vehicle: a pure per-vehicle map returning
        // (id, crossed the path end, new position). Side effects — medium
        // position updates and exit finalization — replay afterwards in
        // ID order.
        let limits = self.config.limits;
        let dt = self.config.dt;
        let topo = &self.topo;
        let outcomes: Vec<(u64, bool, Option<Vec2>)> = self
            .vehicles
            .values_mut()
            .filter(|v| v.is_active())
            .map(|agent| {
                if agent.braked_this_tick {
                    agent.braked_this_tick = false;
                    let crossed = agent.s >= topo.movement(agent.movement).path().length();
                    (agent.id.raw(), crossed, None)
                } else if agent.step(topo, &limits, dt, now) {
                    (agent.id.raw(), true, None)
                } else {
                    (agent.id.raw(), false, Some(agent.position(topo)))
                }
            })
            .collect();
        let mut exited: Vec<u64> = Vec::new();
        for (id, crossed, pos) in outcomes {
            if crossed {
                exited.push(id);
            } else if let Some(pos) = pos {
                self.medium.set_position(NodeId::Vehicle(id), pos);
            }
        }
        for id in exited {
            self.finalize_exit(id);
        }
    }

    /// A benign vehicle pushed more than a tolerance off its plan by the
    /// collision-avoidance layer cannot safely rejoin the schedule: it
    /// self-evacuates and announces itself (§IV-B5's "vehicles very close
    /// ... have already detected the malicious vehicle through their own
    /// sensors and started self-evacuation").
    fn divergence_check(&mut self, now: f64) {
        let mut forced: Vec<(u64, Vec<GuardAction>)> = Vec::new();
        for agent in self.vehicles.values_mut() {
            if !agent.is_active() || agent.is_malicious() || agent.mode != DriveMode::FollowPlan {
                continue;
            }
            let Some(plan) = &agent.plan else { continue };
            let err = plan.profile().position_at(now) - agent.s;
            if err > 3.0 {
                agent.self_evacuate();
                let actions = agent.guard.force_self_evacuation(now);
                forced.push((agent.id.raw(), actions));
            }
        }
        for (id, actions) in forced {
            self.handle_guard_actions(VehicleId::new(id), actions, now);
        }
    }

    fn finalize_exit(&mut self, id: u64) {
        let (benign, handoff) = {
            let agent = self.vehicles.get_mut(&id).expect("exiting vehicle exists");
            agent.guard.on_exit();
            let exit_leg = self.topo.movement(agent.movement).to_leg();
            let handoff = self.boundary_exits.contains(&exit_leg).then(|| Handoff {
                id: agent.id,
                // Stalled vehicles still roll onto the connecting road.
                speed: agent.speed.max(1.0),
                descriptor: agent.descriptor.clone(),
                role: agent.role,
                false_reports: 0, // filled in below, outside the borrow
                exit_leg,
            });
            (agent.role == Role::Benign, handoff)
        };
        self.medium.remove_node(NodeId::Vehicle(id));
        // Ledger standing must be read before the release below (which
        // only frees reservations, but keep the order obviously safe).
        let standing = self.imu.manager.false_report_count(VehicleId::new(id));
        self.imu.manager.release_vehicle(VehicleId::new(id));
        // Buffered release record; durable at the next window barrier.
        #[cfg(feature = "store")]
        {
            let failed = self
                .persistence
                .as_mut()
                .is_some_and(|p| p.release(VehicleId::new(id)).is_err());
            if failed {
                self.disable_store("release record");
            }
        }
        // A vehicle handed off while still waiting for its first plan
        // here never closes its latency sample.
        self.handoff_wait.remove(&id);
        match handoff {
            Some(mut h) => {
                h.false_reports = standing;
                self.outbound_handoffs.push(h);
                self.metrics.handoffs_out += 1;
            }
            None => {
                self.metrics.exited += 1;
                if benign {
                    self.metrics.exited_benign += 1;
                }
            }
        }
    }

    fn detect_collisions(&mut self) {
        let scratch = &mut self.scratch;
        scratch.positions.clear();
        scratch.positions.extend(
            self.vehicles
                .values()
                .filter(|v| v.is_active())
                .map(|v| (v.id.raw(), v.position(&self.topo))),
        );
        scratch.points.clear();
        scratch
            .points
            .extend(scratch.positions.iter().map(|(_, p)| *p));
        scratch.pair_grid.rebuild(&scratch.points);
        let pairs = collision_pairs(&scratch.positions, &scratch.pair_grid, COLLISION_DISTANCE);
        for (a_id, b_id) in pairs {
            let key = (a_id.min(b_id), a_id.max(b_id));
            if self.collided.insert(key) {
                if std::env::var("NWADE_DEBUG").is_ok() {
                    let a = &self.vehicles[&key.0];
                    let b = &self.vehicles[&key.1];
                    eprintln!(
                        "[nwade-debug] t={:.1} collision V{}({:?} v={:.1} s={:.0} mv={}) x V{}({:?} v={:.1} s={:.0} mv={})",
                        self.now, key.0, a.mode, a.speed, a.s, a.movement.index(),
                        key.1, b.mode, b.speed, b.s, b.movement.index()
                    );
                }
                self.metrics.accidents += 1;
            }
        }
    }

    // ----- sensing ----------------------------------------------------

    fn current_observation(&self, target: VehicleId, now: f64) -> Option<Observation> {
        let agent = self.vehicles.get(&target.raw())?;
        if !agent.is_active() {
            return None;
        }
        Some(Observation {
            target,
            position: agent.position(&self.topo),
            speed: agent.speed,
            time: now,
        })
    }

    /// Algorithm 2 for every benign vehicle: observe neighbours in range,
    /// run the guard. The pass snapshots `(id, position, speed)` of every
    /// active vehicle first — the guards only mutate protocol state, so
    /// the snapshot equals the live values — then runs every guard and
    /// only afterwards replays their actions in ID order.
    fn sense_pass(&mut self, now: f64) {
        if !self.config.nwade_enabled {
            return;
        }
        let radius = self.nwade_cfg().sensing_radius;
        let scratch = &mut self.scratch;
        scratch.sense.clear();
        scratch.sense.extend(
            self.vehicles
                .values()
                .filter(|v| v.is_active())
                .map(|v| (v.id.raw(), v.position(&self.topo), v.speed)),
        );
        scratch.points.clear();
        scratch
            .points
            .extend(scratch.sense.iter().map(|(_, p, _)| *p));
        scratch.sense_grid.rebuild(&scratch.points);
        let snapshot = scratch.sense.as_slice();
        let grid = &scratch.sense_grid;
        let topo = &self.topo;
        let all_actions: Vec<(u64, Vec<GuardAction>)> = self
            .vehicles
            .values_mut()
            .filter(|v| v.is_active() && v.role == Role::Benign)
            .filter_map(|agent| {
                let id = agent.id.raw();
                let me = agent.position(topo);
                let observations: Vec<Observation> =
                    observed_neighbors(snapshot, grid, id, me, radius)
                        .into_iter()
                        .map(|i| {
                            let (other, position, speed) = snapshot[i];
                            Observation {
                                target: VehicleId::new(other),
                                position,
                                speed,
                                time: now,
                            }
                        })
                        .collect();
                let mut actions = agent.guard.on_observations(&observations, now);
                actions.extend(agent.guard.on_tick(now));
                (!actions.is_empty()).then_some((id, actions))
            })
            .collect();
        for (id, actions) in all_actions {
            self.handle_guard_actions(VehicleId::new(id), actions, now);
        }
    }

    // ----- message plane ----------------------------------------------

    fn deliver_messages(&mut self, now: f64) {
        let im_down = self.im_down(now);
        let due = self.medium.deliver_due(now);
        for delivery in due {
            self.invariants.note_delivery(delivery.to, delivery.at, now);
            if im_down && delivery.to == NodeId::Imu {
                // The manager is dark: whatever reaches its antenna dies.
                self.metrics.imu_outage_drops += 1;
                continue;
            }
            let payload = if delivery.corrupted {
                // Corruption-as-flag: the medium marked this copy mangled
                // in transit. Blocks reach the receiver bit-flipped so
                // Algorithm 1's signature check exercises its reject
                // path; everything else fails framing (CRC) and is
                // dropped before the protocol sees it.
                match delivery.payload {
                    NwadeMessage::Block(b) => NwadeMessage::Block(tamper::forge_signature(&b)),
                    NwadeMessage::BlockResponse(mut blocks) => {
                        if let Some(first) = blocks.first_mut() {
                            *first = tamper::forge_signature(first);
                        }
                        NwadeMessage::BlockResponse(blocks)
                    }
                    _ => {
                        self.metrics.corrupted_drops += 1;
                        continue;
                    }
                }
            } else {
                delivery.payload
            };
            match delivery.to {
                NodeId::Imu => self.imu_receive(delivery.from, payload, now),
                NodeId::Vehicle(id) => self.vehicle_receive(id, delivery.from, payload, now),
            }
        }
    }

    fn watchers_near(&self, position: Vec2, exclude: &[VehicleId]) -> Vec<VehicleId> {
        let radius = self.nwade_cfg().sensing_radius;
        let r_sq = radius * radius;
        self.vehicles
            .values()
            .filter(|v| {
                v.is_active()
                    && !exclude.contains(&v.id)
                    && v.position(&self.topo).distance_sq(position) <= r_sq
            })
            .map(|v| v.id)
            .collect()
    }

    fn imu_receive(&mut self, _from: NodeId, message: NwadeMessage, now: f64) {
        match message {
            NwadeMessage::PlanRequest(req) => {
                self.pending_requests.push(now, req);
            }
            NwadeMessage::IncidentReport(report) => {
                // Detection feedback for the adaptive adversary: any
                // report naming it marks the current probe amplitude as
                // too bold. (The attacker eavesdrops on the reporting
                // channel — the strongest-adversary assumption.)
                if let Some(st) = &mut self.adaptive {
                    if report.suspect == st.id {
                        st.reported_this_epoch = true;
                        self.metrics.adaptive_reports += 1;
                    }
                }
                if std::env::var("NWADE_DEBUG").is_ok() {
                    eprintln!(
                        "[nwade-debug] t={now:.2} incident report {} -> {} (announced={})",
                        report.reporter,
                        report.suspect,
                        self.announced_evacuating.contains(&report.suspect)
                    );
                }
                if self.announced_evacuating.contains(&report.suspect) {
                    // Publicly announced self-evacuation, not a new
                    // attack: acknowledge so the reporter does not time
                    // out and escalate.
                    let descriptor = self
                        .vehicles
                        .get(&report.suspect.raw())
                        .map(|v| v.descriptor.clone())
                        .unwrap_or_else(|| nwade_traffic::VehicleDescriptor {
                            brand: String::new(),
                            model: String::new(),
                            color: String::new(),
                        });
                    self.medium.send(
                        NodeId::Imu,
                        Recipient::Unicast(NodeId::Vehicle(report.reporter.raw())),
                        class::EVACUATION_ALERT,
                        NwadeMessage::EvacuationAlert {
                            suspect: report.suspect,
                            descriptor,
                            location: report.evidence.position,
                        },
                        now,
                        &mut self.rng,
                    );
                    return;
                }
                let watchers = self
                    .watchers_near(report.evidence.position, &[report.suspect, report.reporter]);
                let actions =
                    self.imu
                        .on_incident_report(&report, &watchers, &self.colluders.clone(), now);
                self.handle_imu_actions(actions, now);
            }
            NwadeMessage::VerifyResponse {
                request_id,
                suspect,
                observed,
                abnormal,
            } => {
                let near = self
                    .current_observation(suspect, now)
                    .map(|o| o.position)
                    .unwrap_or(Vec2::ZERO);
                let fresh = self.watchers_near(near, &[suspect]);
                let actions = self
                    .imu
                    .on_verify_response(request_id, suspect, observed, abnormal, &fresh, now);
                self.handle_imu_actions(actions, now);
            }
            NwadeMessage::GlobalReport(report) => {
                // The manager hears announcements too: senders of global
                // reports are publicly off-plan.
                self.announced_evacuating.insert(report.sender);
            }
            NwadeMessage::BlockRequest { from_index } => {
                // §IV-B1: vehicles may fetch blocks from the manager.
                let blocks = self.imu.manager.blocks_from(from_index);
                if !blocks.is_empty() {
                    if let NodeId::Vehicle(requester) = _from {
                        self.medium.send(
                            NodeId::Imu,
                            Recipient::Unicast(NodeId::Vehicle(requester)),
                            class::BLOCK_RESPONSE,
                            NwadeMessage::BlockResponse(blocks),
                            now,
                            &mut self.rng,
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_imu_actions(&mut self, actions: Vec<ImuAction>, now: f64) {
        for action in actions {
            match action {
                ImuAction::Broadcast(block) => {
                    if std::env::var("NWADE_DEBUG").is_ok() {
                        eprintln!(
                            "[nwade-debug] t={now:.2} window block idx={} plans={} ids={:?}",
                            block.index(),
                            block.plans().len(),
                            block
                                .plans()
                                .iter()
                                .map(|p| p.id().raw())
                                .collect::<Vec<_>>()
                        );
                    }
                    self.last_block_index = Some(block.index());
                    self.metrics.blocks_broadcast += 1;
                    self.metrics.block_sizes.push(block.plans().len());
                    self.metrics.plans_scheduled += block.plans().len();
                    if self.metrics.im_recovery_latency.is_none() {
                        if let Some(t) = self.metrics.im_crash_time {
                            self.metrics.im_recovery_latency = Some(now - t);
                        }
                    }
                    // The broadcast marker suppresses re-sending this
                    // block on recovery; it is buffered (not synced) —
                    // losing it only costs a harmless duplicate send.
                    #[cfg(feature = "store")]
                    {
                        let failed = self
                            .persistence
                            .as_mut()
                            .is_some_and(|p| p.broadcasted(block.index()).is_err());
                        if failed {
                            self.disable_store("broadcast marker");
                        }
                    }
                    self.medium.send(
                        NodeId::Imu,
                        Recipient::Broadcast,
                        class::BLOCK,
                        NwadeMessage::Block(block),
                        now,
                        &mut self.rng,
                    );
                }
                ImuAction::Poll {
                    request_id,
                    suspect,
                    group,
                    plan,
                } => {
                    if std::env::var("NWADE_DEBUG").is_ok() {
                        eprintln!(
                            "[nwade-debug] t={now:.2} poll about {suspect}: group={} plan_known={}",
                            group.len(),
                            plan.is_some()
                        );
                    }
                    for watcher in group {
                        let Some(plan) = plan.clone() else {
                            continue;
                        };
                        self.medium.send(
                            NodeId::Imu,
                            Recipient::Unicast(NodeId::Vehicle(watcher.raw())),
                            class::VERIFY_REQUEST,
                            NwadeMessage::VerifyRequest {
                                request_id,
                                suspect,
                                plan,
                            },
                            now,
                            &mut self.rng,
                        );
                    }
                }
                ImuAction::Dismiss { reporter, suspect } => {
                    if Some(suspect) == self.accused {
                        SimMetrics::note_first(&mut self.metrics.false_accusation_dismissed, now);
                    }
                    self.medium.send(
                        NodeId::Imu,
                        Recipient::Unicast(NodeId::Vehicle(reporter.raw())),
                        class::DISMISSAL,
                        NwadeMessage::Dismissal { suspect },
                        now,
                        &mut self.rng,
                    );
                }
                ImuAction::Alert { suspect, location } => {
                    if std::env::var("NWADE_DEBUG").is_ok() {
                        eprintln!("[nwade-debug] t={now:.2} evacuation alert for {suspect} (violator={:?}, accused={:?})", self.violator, self.accused);
                    }
                    if Some(suspect) == self.violator && !self.imu.malicious {
                        SimMetrics::note_first(&mut self.metrics.violation_confirmed, now);
                    }
                    // A staged alert from a compromised manager is the
                    // attack *attempt*; only an honest manager evacuating
                    // against the innocent counts as a triggered false
                    // alarm.
                    if Some(suspect) == self.accused && !self.imu.malicious {
                        SimMetrics::note_first(&mut self.metrics.false_accusation_confirmed, now);
                    }
                    // An alert against the Sybil flood's target means the
                    // phantom reports overwhelmed the ledger.
                    if Some(suspect) == self.sybil_target && !self.imu.malicious {
                        self.metrics.sybil_false_alerts += 1;
                    }
                    let descriptor = self
                        .vehicles
                        .get(&suspect.raw())
                        .map(|v| v.descriptor.clone())
                        .unwrap_or_else(|| nwade_traffic::VehicleDescriptor {
                            brand: String::new(),
                            model: String::new(),
                            color: String::new(),
                        });
                    self.medium.send(
                        NodeId::Imu,
                        Recipient::Broadcast,
                        class::EVACUATION_ALERT,
                        NwadeMessage::EvacuationAlert {
                            suspect,
                            descriptor,
                            location,
                        },
                        now,
                        &mut self.rng,
                    );
                    // An honest manager follows up with evacuation plans
                    // on the chain (a staged alert from a malicious
                    // manager sends none).
                    if !self.imu.malicious {
                        self.issue_evacuation_block(suspect, location, now);
                    }
                }
            }
        }
    }

    fn issue_evacuation_block(&mut self, suspect: VehicleId, location: Vec2, now: f64) {
        // Every active vehicle is replanned — including those whose first
        // plan is still in flight, otherwise their stale plans would
        // conflict with the evacuation plans and fail verification.
        let states: Vec<PlanRequest> = self
            .vehicles
            .values()
            .filter(|v| {
                v.is_active()
                    && v.mode != DriveMode::SelfEvacuate
                    && !self.announced_evacuating.contains(&v.id)
            })
            .map(|v| PlanRequest {
                id: v.id,
                descriptor: v.descriptor.clone(),
                movement: v.movement,
                position_s: v.s,
                speed: v.speed,
            })
            .collect();
        // Threats: the confirmed suspect plus every announced
        // self-evacuating vehicle (they are publicly off-plan).
        let mut threats = vec![self
            .current_observation(suspect, now)
            .map(|o| o.position)
            .unwrap_or(location)];
        for v in &self.announced_evacuating {
            if let Some(obs) = self.current_observation(*v, now) {
                threats.push(obs.position);
            }
        }
        // Evacuation planning is durable like a window: the inputs are
        // logged (and synced) before the plan runs, the commit before
        // the broadcast.
        #[cfg(feature = "store")]
        {
            let failed = self
                .persistence
                .as_mut()
                .is_some_and(|p| p.evac_start(now, &states, &threats).is_err());
            if failed {
                self.disable_store("evacuation start");
            }
        }
        if let Some(block) = self.imu.evacuation_block(&states, &threats, now) {
            if std::env::var("NWADE_DEBUG").is_ok() {
                eprintln!(
                    "[nwade-debug] t={now:.2} evacuation block idx={} plans={}",
                    block.index(),
                    block.plans().len()
                );
            }
            #[cfg(feature = "store")]
            {
                let failed = self.persistence.as_mut().is_some_and(|p| {
                    p.commit_block(&block, true).is_err() || p.broadcasted(block.index()).is_err()
                });
                if failed {
                    self.disable_store("evacuation commit");
                }
            }
            self.metrics.blocks_broadcast += 1;
            self.metrics.block_sizes.push(block.plans().len());
            self.medium.send(
                NodeId::Imu,
                Recipient::Broadcast,
                class::BLOCK,
                NwadeMessage::Block(block),
                now,
                &mut self.rng,
            );
        }
    }

    fn vehicle_receive(&mut self, id: u64, from: NodeId, message: NwadeMessage, now: f64) {
        let Some(agent) = self.vehicles.get_mut(&id) else {
            return;
        };
        if !agent.is_active() {
            return;
        }
        let malicious = agent.is_malicious();
        match message {
            NwadeMessage::Block(block) => {
                if malicious {
                    return;
                }
                let actions = agent.guard.on_block(&block, now);
                self.handle_guard_actions(VehicleId::new(id), actions, now);
            }
            NwadeMessage::Dismissal { suspect } if !malicious => {
                agent.guard.on_dismissal(suspect);
            }
            NwadeMessage::EvacuationAlert { suspect, .. } => {
                if malicious {
                    return;
                }
                agent.guard.note_threat(suspect);
                let obs = self.current_observation(suspect, now).filter(|o| {
                    let agent = &self.vehicles[&id];
                    o.position.distance(agent.position(&self.topo))
                        <= self.nwade_cfg().sensing_radius
                });
                let agent = self.vehicles.get_mut(&id).expect("receiver exists");
                let actions = agent.guard.on_evacuation_alert(suspect, obs.as_ref(), now);
                self.handle_guard_actions(VehicleId::new(id), actions, now);
            }
            NwadeMessage::VerifyRequest {
                request_id,
                suspect,
                plan,
            } => {
                let abnormal: (bool, bool) = if malicious {
                    // Colluders lie (with full "confidence"): shield the
                    // violator, frame the accused.
                    if Some(suspect) == self.violator {
                        (true, false)
                    } else {
                        (true, Some(suspect) == self.accused)
                    }
                } else {
                    let obs = self.current_observation(suspect, now).filter(|o| {
                        let me = self.vehicles[&id].position(&self.topo);
                        o.position.distance(me) <= self.nwade_cfg().sensing_radius
                    });
                    self.vehicles[&id].guard.answer_verify_request(
                        suspect,
                        obs.as_ref(),
                        Some(&plan),
                    )
                };
                self.medium.send(
                    NodeId::Vehicle(id),
                    Recipient::Unicast(NodeId::Imu),
                    class::VERIFY_RESPONSE,
                    NwadeMessage::VerifyResponse {
                        request_id,
                        suspect,
                        observed: abnormal.0,
                        abnormal: abnormal.1,
                    },
                    now,
                    &mut self.rng,
                );
            }
            NwadeMessage::GlobalReport(report) => {
                if malicious {
                    return;
                }
                // The sender announced it no longer follows its plan.
                agent.guard.note_threat(report.sender);
                let me = agent.position(&self.topo);
                let radius = self.nwade_cfg().sensing_radius;
                // §IV-B4 sets the safety threshold from the local
                // majority quorum at medium density; the config default
                // (11) is the paper's worked example.
                let threshold = self.nwade_cfg().global_report_threshold;
                let suspect_pos: std::collections::HashMap<u64, Vec2> = self
                    .vehicles
                    .values()
                    .filter(|v| v.is_active())
                    .map(|v| (v.id.raw(), v.position(&self.topo)))
                    .collect();
                let agent = self.vehicles.get_mut(&id).expect("receiver exists");
                let actions = agent.guard.on_global_report(
                    &report,
                    |s| {
                        suspect_pos
                            .get(&s.raw())
                            .is_some_and(|p| p.distance(me) <= radius)
                    },
                    threshold,
                    now,
                );
                self.handle_guard_actions(VehicleId::new(id), actions, now);
            }
            NwadeMessage::BlockRequest { from_index } => {
                // Serve at most a bounded slice of the cache.
                let blocks: Vec<_> = self.vehicles[&id]
                    .guard
                    .cache()
                    .iter()
                    .filter(|b| b.index() >= from_index)
                    .take(16)
                    .cloned()
                    .collect();
                if !blocks.is_empty() {
                    if let NodeId::Vehicle(requester) = from {
                        self.medium.send(
                            NodeId::Vehicle(id),
                            Recipient::Unicast(NodeId::Vehicle(requester)),
                            class::BLOCK_RESPONSE,
                            NwadeMessage::BlockResponse(blocks),
                            now,
                            &mut self.rng,
                        );
                    }
                }
            }
            NwadeMessage::BlockResponse(blocks) => {
                if malicious {
                    return;
                }
                let agent = self.vehicles.get_mut(&id).expect("receiver exists");
                let actions = agent.guard.on_block_response(&blocks, now);
                self.handle_guard_actions(VehicleId::new(id), actions, now);
            }
            NwadeMessage::PlanAssignment(plan) => {
                agent.follow_plan(plan);
                self.note_boundary_admission(id, now);
            }
            _ => {}
        }
    }

    fn handle_guard_actions(&mut self, id: VehicleId, actions: Vec<GuardAction>, now: f64) {
        // Detect the (SelfEvacuate, Broadcast) pairing to classify the
        // evacuation cause for Table II.
        let evacuation_claim = actions.iter().find_map(|a| match a {
            GuardAction::BroadcastGlobalReport(g) => Some(g.claim),
            _ => None,
        });
        for action in actions {
            match action {
                GuardAction::FollowPlan(plan) => {
                    if let Some(agent) = self.vehicles.get_mut(&id.raw()) {
                        agent.follow_plan(plan);
                        self.note_boundary_admission(id.raw(), now);
                    }
                }
                GuardAction::SendIncidentReport(report) => {
                    if Some(report.suspect) == self.violator {
                        SimMetrics::note_first(&mut self.metrics.violation_first_report, now);
                    }
                    self.medium.send(
                        NodeId::Vehicle(id.raw()),
                        Recipient::Unicast(NodeId::Imu),
                        class::INCIDENT_REPORT,
                        NwadeMessage::IncidentReport(report),
                        now,
                        &mut self.rng,
                    );
                }
                GuardAction::BroadcastGlobalReport(report) => {
                    match report.claim {
                        GlobalClaim::AbnormalVehicle { suspect }
                            if Some(suspect) == self.violator =>
                        {
                            SimMetrics::note_first(&mut self.metrics.violation_global_report, now);
                        }
                        GlobalClaim::WrongfulAccusation { suspect }
                            if Some(suspect) == self.accused =>
                        {
                            SimMetrics::note_first(&mut self.metrics.wrongful_dissent, now);
                        }
                        GlobalClaim::ConflictingPlans { index }
                            if Some(index) == self.corrupted_index =>
                        {
                            SimMetrics::note_first(&mut self.metrics.corrupted_block_detected, now);
                        }
                        _ => {}
                    }
                    self.medium.send(
                        NodeId::Vehicle(id.raw()),
                        Recipient::Broadcast,
                        class::GLOBAL_REPORT,
                        NwadeMessage::GlobalReport(report),
                        now,
                        &mut self.rng,
                    );
                }
                GuardAction::RequestBlocks { from_index } => {
                    // Ask the nearest peer ("the vehicles in front of it",
                    // §IV-B2) rather than flooding the channel.
                    let me = self
                        .vehicles
                        .get(&id.raw())
                        .map(|v| v.position(&self.topo))
                        .unwrap_or(Vec2::ZERO);
                    let nearest = self
                        .vehicles
                        .values()
                        .filter(|v| v.is_active() && v.id != id && !v.is_malicious())
                        .min_by(|a, b| {
                            a.position(&self.topo)
                                .distance_sq(me)
                                .partial_cmp(&b.position(&self.topo).distance_sq(me))
                                .expect("finite distances")
                        })
                        .map(|v| v.id);
                    let target = nearest
                        .map(|p| NodeId::Vehicle(p.raw()))
                        .unwrap_or(NodeId::Imu);
                    self.medium.send(
                        NodeId::Vehicle(id.raw()),
                        Recipient::Unicast(target),
                        class::BLOCK_REQUEST,
                        NwadeMessage::BlockRequest { from_index },
                        now,
                        &mut self.rng,
                    );
                }
                GuardAction::RebutGlobalReport { claim } => {
                    if let GlobalClaim::ConflictingPlans { index } = claim {
                        if Some(index) == self.bogus_claim_index {
                            self.metrics.type_b_rebuttals += 1;
                            SimMetrics::note_first(&mut self.metrics.type_b_first_rebuttal, now);
                        }
                    }
                }
                GuardAction::DisregardAlert { .. } => {
                    // The staged alert is ignored; nothing to execute.
                }
                GuardAction::SelfEvacuate => {
                    if std::env::var("NWADE_DEBUG").is_ok() {
                        eprintln!(
                            "[nwade-debug] t={now:.2} {id} self-evacuates ({evacuation_claim:?})"
                        );
                    }
                    if let Some(agent) = self.vehicles.get_mut(&id.raw()) {
                        if agent.role == Role::Benign {
                            self.metrics.benign_self_evacuations += 1;
                            if agent.guard.evacuation_cause() == Some(EvacuationCause::ImTimeout) {
                                self.metrics.im_timeout_evacuations += 1;
                            }
                            match evacuation_claim {
                                Some(GlobalClaim::AbnormalVehicle { suspect })
                                    if Some(suspect) == self.accused =>
                                {
                                    self.metrics.accused_claim_evacuations += 1;
                                }
                                Some(GlobalClaim::ConflictingPlans { index })
                                    if Some(index) == self.bogus_claim_index =>
                                {
                                    self.metrics.type_b_evacuations += 1;
                                }
                                Some(GlobalClaim::ConflictingPlans { index })
                                    if Some(index) != self.corrupted_index =>
                                {
                                    self.metrics.honest_block_rejections += 1;
                                }
                                _ => {}
                            }
                        }
                        agent.self_evacuate();
                    }
                }
                GuardAction::Readmit => {
                    // The guard verified a fresh post-outage block: the
                    // vehicle rejoins. Clear the evacuation announcement
                    // bookkeeping so the manager stops treating it as
                    // publicly off-plan, and let it request a fresh plan
                    // right away (the pre-outage one is stale).
                    if std::env::var("NWADE_DEBUG").is_ok() {
                        eprintln!("[nwade-debug] t={now:.2} {id} re-admitted after IM outage");
                    }
                    if let Some(agent) = self.vehicles.get_mut(&id.raw()) {
                        agent.readmit(now);
                        if agent.role == Role::Benign {
                            self.metrics.readmitted_after_outage += 1;
                        }
                    }
                    self.announced_evacuating.remove(&id);
                    self.last_announce.remove(&id.raw());
                }
            }
        }
    }

    // ----- manager window ----------------------------------------------

    /// Applies the configured admission policy to the pending queue:
    /// drops stale entries (requester exited or evacuated), admits up to
    /// the policy's cap — deadline = predicted seconds to the box entry
    /// — and predicts each admitted request's position forward to `now`.
    /// With the default unbounded policy this is exactly the historical
    /// take-everything-in-arrival-order path. Deferral counts land in
    /// [`SimMetrics`] so a binding cap is never silent.
    fn admit_pending(&mut self, now: f64) -> Vec<PlanRequest> {
        let vehicles = &self.vehicles;
        self.pending_requests.retain(|e| {
            vehicles
                .get(&e.request.id.raw())
                .is_some_and(VehicleAgent::is_active)
        });
        if self.pending_requests.is_empty() {
            return Vec::new();
        }
        let topo = &self.topo;
        let outcome = self.pending_requests.admit(&self.config.admission, |e| {
            let movement = topo.movement(e.request.movement);
            (movement.box_entry() - e.request.position_s) / e.request.speed.max(0.1)
        });
        self.metrics.admission_offered += outcome.offered;
        self.metrics.admission_admitted += outcome.admitted.len();
        self.metrics.admission_deferred += outcome.deferred;
        self.metrics.last_window_shed_gap = outcome.deferred;
        if outcome.deferred > 0 {
            self.metrics.shed_windows += 1;
        }
        outcome
            .admitted
            .into_iter()
            .map(|e| {
                // Predict how far the requester has cruised since sending.
                let mut req = e.request;
                req.position_s += req.speed * (now - e.arrival);
                req
            })
            .collect()
    }

    fn process_window(&mut self, now: f64) {
        let requests = self.admit_pending(now);
        if requests.is_empty() {
            return;
        }
        if self.config.nwade_enabled {
            // The window's requests become durable before scheduling: a
            // crash from here on replays them deterministically.
            #[cfg(feature = "store")]
            {
                let failed = self
                    .persistence
                    .as_mut()
                    .is_some_and(|p| p.window_start(now, &requests).is_err());
                if failed {
                    self.disable_store("window start");
                }
            }
            // Track the corrupted block's index for metric attribution.
            let will_corrupt =
                self.imu.malicious && self.imu.corrupt_next_block && !self.imu.corruption_emitted;
            let actions = self.imu.on_window(&requests, now);
            if will_corrupt && self.imu.corruption_emitted {
                if let Some(ImuAction::Broadcast(b)) = actions.first() {
                    self.corrupted_index = Some(b.index());
                }
            }
            #[cfg(feature = "store")]
            if let Some(plan) = self.due_crash(now) {
                // The process dies mid-window: the staged actions are
                // discarded, nothing is broadcast by the dying manager.
                let staged = actions.into_iter().find_map(|a| match a {
                    ImuAction::Broadcast(b) => Some(b),
                    _ => None,
                });
                self.crash_im(plan, staged, now);
                return;
            }
            // WAL rule: the commit record is durable before publication.
            #[cfg(feature = "store")]
            {
                let mut failed = false;
                for action in &actions {
                    if let ImuAction::Broadcast(block) = action {
                        failed |= self
                            .persistence
                            .as_mut()
                            .is_some_and(|p| p.commit_block(block, true).is_err());
                    }
                }
                if failed {
                    self.disable_store("block commit");
                }
            }
            self.handle_imu_actions(actions, now);
            #[cfg(feature = "store")]
            {
                let failed = matches!(
                    self.persistence
                        .as_mut()
                        .map(|p| p.window_end(&self.imu.manager)),
                    Some(Err(_))
                );
                if failed {
                    self.disable_store("snapshot");
                }
            }
        } else {
            // Baseline without NWADE: plans are unicast, no blockchain.
            let actions = self.imu.on_window(&requests, now);
            for action in actions {
                if let ImuAction::Broadcast(block) = action {
                    self.metrics.plans_scheduled += block.plans().len();
                    for plan in block.plans() {
                        self.medium.send(
                            NodeId::Imu,
                            Recipient::Unicast(NodeId::Vehicle(plan.id().raw())),
                            "plan-assignment",
                            NwadeMessage::PlanAssignment(plan.clone()),
                            now,
                            &mut self.rng,
                        );
                    }
                }
            }
        }
    }

    fn check_threat_cleared(&mut self) {
        if self.threat_cleared {
            return;
        }
        let Some(violator) = self.violator else {
            return;
        };
        if self.metrics.violation_confirmed.is_none() {
            return;
        }
        let gone = self
            .vehicles
            .get(&violator.raw())
            .is_none_or(|v| !v.is_active() || v.speed < 0.1);
        if gone {
            self.threat_cleared = true;
            self.imu.manager.on_threat_cleared();
            self.imu.manager.on_recovery_complete();
            // Post-evacuation recovery (§IV-B5): vehicles parked by
            // evacuation plans are rescheduled at normal speed in the
            // following windows.
            let now = self.now;
            let mut requests = Vec::new();
            for v in self.vehicles.values() {
                let needs_replan = v.is_active()
                    && Some(v.id) != self.violator
                    && v.mode == DriveMode::FollowPlan
                    && v.plan
                        .as_ref()
                        .is_some_and(|p| p.exit_time(&self.topo).is_none());
                if needs_replan {
                    requests.push(PlanRequest {
                        id: v.id,
                        descriptor: v.descriptor.clone(),
                        movement: v.movement,
                        position_s: v.s,
                        speed: v.speed,
                    });
                }
            }
            for req in requests {
                self.pending_requests.push(now, req);
            }
        }
    }
}

/// One measured processing window from
/// [`Simulation::bench_window_throughput`].
#[derive(Debug, Clone)]
pub struct WindowBenchPoint {
    /// Requests waiting when the window opened (admitted + deferred).
    pub offered: usize,
    /// Requests the admission policy let into the batch.
    pub admitted: usize,
    /// Requests the admission cap deferred to a later window.
    pub deferred: usize,
    /// Wall-clock seconds spent on the window: admission, scheduling,
    /// conflict filter, Merkle root and signing.
    pub latency_s: f64,
}
