//! The simulation world: fixed-timestep physics plus the event-driven
//! message plane.
//!
//! # Tick pipeline
//!
//! Every `dt` (default 100 ms) one tick runs, in order:
//!
//! 1. **IM unit** — the [`ImuAgent`] restarts the manager if its
//!    darkness just ended and drives the standby; the blocks a recovery
//!    or promotion owes the fleet go out, then a due zombie's block.
//! 2. **Spawning** — due Poisson arrivals enter if their lane's entry is
//!    clear by a full stopping distance; each spawn sends a plan request
//!    to the manager.
//! 3. **Plan re-requests** — vehicles still cruising without a plan ask
//!    again every 5 s (covers manager deferrals and lost blocks).
//! 4. **Announcement re-broadcast** — self-evacuating vehicles repeat
//!    their global report every 2 s so newcomers learn they are off-plan.
//! 5. **Attack injection** — at the configured start, the Table I roles
//!    are assigned to live vehicles and false reports are scheduled.
//! 6. **Physics** — the collision-avoidance layer (car-following toward
//!    off-plan leaders, headway cone, anticipated-crossing yield) marks
//!    emergency braking; every vehicle then advances per its
//!    [`DriveMode`].
//! 7. **Divergence check** — a benign vehicle pushed > 3 m off its plan
//!    by braking self-evacuates and announces itself (§IV-B5).
//! 8. **Ground truth** — collisions are recorded from world positions,
//!    independent of any protocol state.
//! 9. **Message plane** — due VANET deliveries dispatch into the vehicle
//!    guards and the manager agent; their actions are executed (sends,
//!    plan adoption, self-evacuation, metrics).
//! 10. **Sensing pass** (every 500 ms) — each benign vehicle observes
//!     neighbours in range and runs Algorithm 2 through its guard.
//! 11. **Manager window** (every δ = 1 s, if the manager was up when the
//!     tick began) — queued plan requests are scheduled, filtered,
//!     packaged, logged and broadcast (Eq. 1).
//! 12. **Threat-cleared check** — once a confirmed violator stops or
//!     exits, recovery replans every vehicle parked by the evacuation.

use crate::adversary::{AdaptiveState, AttackPolicy, SYBIL_ID_BASE};
use crate::config::{SignatureChoice, SimConfig};
use crate::imu::ImuAgent;
use crate::invariant::{InvariantChecker, VehicleSnapshot};
use crate::metrics::SimMetrics;
use crate::report::SimReport;
use crate::scan::{braking_ids, collision_pairs, observed_neighbors, BrakeState};
use crate::vehicle::{DriveMode, Role, VehicleAgent};
use nwade::attack::{AttackSetting, ViolationKind};
use nwade::messages::{GlobalClaim, GlobalReport, IncidentReport, NwadeMessage, Observation};
use nwade::{
    EvacuationCause, GuardAction, ManagerAction, NwadeConfig, RetryDecision, VehicleGuard,
};
use nwade_aim::{PlanRequest, TravelPlan};
use nwade_chain::tamper;
use nwade_crypto::{CachingVerifier, Digest, MockScheme, RsaKeyPair, RsaScheme, SignatureScheme};
use nwade_geometry::{GridIndex, MotionProfile, Vec2};
use nwade_intersection::{build, LegId, MovementId, Topology};
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
/// allocator profile. Every phase overwrites a buffer before reading it,
/// so they carry no state from one tick to the next.
#[derive(Clone)]
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
///
/// Cloning deep-copies the whole world — the forensic snapshot
/// primitive: vehicles (guards included), the IM unit (manager, durable
/// device and standby), in-flight messages, the RNG stream and the
/// attack bookkeeping.
#[derive(Clone)]
pub struct Simulation {
    config: SimConfig,
    topo: Arc<Topology>,
    rng: StdRng,
    medium: Medium<NwadeMessage>,
    imu: ImuAgent,
    vehicles: BTreeMap<u64, VehicleAgent>,
    spawn_queue: VecDeque<SpawnEvent>,
    /// Plan requests received and waiting for the next window, each
    /// with its arrival time, in arrival order. Every window takes the
    /// whole queue.
    pending_requests: Vec<(f64, PlanRequest)>,
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
        let imu = ImuAgent::new(&config, topo.clone(), scheme.clone());

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
            pending_requests: Vec::new(),
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
            collided: HashSet::new(),
            threat_cleared: false,
            last_block_index: None,
            bogus_claim_index: None,
            announced_evacuating: HashSet::new(),
            last_announce: std::collections::HashMap::new(),
            invariants: InvariantChecker::new(),
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
        h.u64(self.imu.manager().chain_next_index());
        let tip = self.imu.manager().chain_tip();
        let mut tip8 = [0u8; 8];
        tip8.copy_from_slice(&tip.as_bytes()[..8]);
        h.u64(u64::from_be_bytes(tip8));
        h.u64(self.medium.flight_digest());
        h.u64(self.spawn_queue.len() as u64);
        h.u64(self.pending_requests.len() as u64);
        // The queue's deferral total: 0 now that every window takes the
        // whole queue, still hashed so recorded streams stay identical.
        h.u64(0);
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
                (deadline, v.plan_request())
            })
            .collect();
        let offered = candidates.len();
        if offered > max {
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.raw().cmp(&b.1.id.raw())));
            candidates.truncate(max);
        }
        let queued = candidates.len();
        for (_, req) in candidates {
            self.pending_requests.push((now, req));
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
    /// round. Each window takes the whole queue and drives the real
    /// manager on the calling thread, but bypasses the VANET and
    /// persistence layers — the measured work is scheduling, the
    /// conflict filter, packaging and signing. Returns the per-window
    /// points and the total plans sealed into blocks.
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
            if let Some(ManagerAction::BroadcastBlock(b)) =
                self.imu.manager_mut().on_window(&requests, now)
            {
                sealed += b.plans().len();
            }
            points.push(WindowBenchPoint {
                offered: requests.len(),
                admitted: requests.len(),
                deferred: 0,
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
                let mut agent = self.new_agent(id, movement, descriptor.clone(), SPEED);
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

        let vehicles = &self.vehicles;
        let start = self.imu.begin_tick(now, &mut self.metrics, || {
            vehicles
                .values()
                .filter(|v| v.is_active())
                .map(VehicleAgent::plan_request)
                .collect()
        });
        self.handle_imu_actions(start.recovered, now);
        if let Some(block) = start.zombie {
            self.send(
                NodeId::Imu,
                Recipient::Broadcast,
                NwadeMessage::Block(block),
                now,
            );
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
            if start.up {
                self.process_window(now);
            }
            // Chain integrity is checked at window cadence: the chain
            // only grows in windows.
            self.invariants
                .check_chain(self.imu.manager().retained_blocks(), now);
        }
        self.check_threat_cleared();
        self.check_vehicle_invariants(now);
    }

    /// The manager's durable chain height (index of the next block) —
    /// recovery differential tests compare this across runs.
    pub fn chain_next_index(&self) -> u64 {
        self.imu.manager().chain_next_index()
    }

    /// The manager's chain tip hash `h_{i-1}`.
    pub fn chain_tip(&self) -> nwade_crypto::Digest {
        self.imu.manager().chain_tip()
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
            if !self.lane_entry_clear(front.movement, front.speed) {
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

    /// Gate for a vehicle entering at the start of `movement` at `speed`:
    /// its lane must be clear far enough that it could brake to a stop
    /// behind stalled traffic.
    fn lane_entry_clear(&self, movement: MovementId, speed: f64) -> bool {
        let gap = self.config.limits.stopping_distance(speed) + 30.0;
        let m = self.topo.movement(movement);
        let lane = (m.from_leg(), m.from_lane());
        !self.vehicles.values().filter(|v| v.is_active()).any(|v| {
            let vm = self.topo.movement(v.movement);
            (vm.from_leg(), vm.from_lane()) == lane && v.s < gap
        })
    }

    /// A vehicle at the start of `movement`, with a fresh guard.
    fn new_agent(
        &self,
        id: VehicleId,
        movement: MovementId,
        descriptor: VehicleDescriptor,
        speed: f64,
    ) -> VehicleAgent {
        let guard = VehicleGuard::new(
            id,
            self.topo.clone(),
            self.scheme.clone(),
            self.config.nwade,
        );
        VehicleAgent::new(id, movement, descriptor, guard, speed, self.now)
    }

    fn spawn(&mut self, ev: SpawnEvent, now: f64) {
        let agent = self.new_agent(ev.id, ev.movement, ev.descriptor, ev.speed);
        let pos = agent.position(&self.topo);
        self.medium.set_position(NodeId::Vehicle(ev.id.raw()), pos);
        // Request a plan from the manager.
        let req = agent.plan_request();
        self.vehicles.insert(ev.id.raw(), agent);
        self.metrics.spawned += 1;
        self.send(
            NodeId::Vehicle(ev.id.raw()),
            Recipient::Unicast(NodeId::Imu),
            NwadeMessage::PlanRequest(req),
            now,
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
            if !self.lane_entry_clear(movement, handoff.speed) {
                self.inbound_handoffs.push_back((entry, handoff, queued_at));
                continue;
            }
            let mut agent = self.new_agent(handoff.id, movement, handoff.descriptor, handoff.speed);
            agent.role = handoff.role;
            // Ledger standing follows the vehicle: the receiving manager
            // seeds its tally from the departing manager's.
            self.imu
                .manager_mut()
                .note_reporter_history(handoff.id, handoff.false_reports);
            let pos = agent.position(&self.topo);
            self.medium
                .set_position(NodeId::Vehicle(handoff.id.raw()), pos);
            let req = agent.plan_request();
            self.vehicles.insert(handoff.id.raw(), agent);
            self.metrics.handoffs_in += 1;
            self.handoff_wait.insert(handoff.id.raw(), queued_at);
            self.send(
                NodeId::Vehicle(handoff.id.raw()),
                Recipient::Unicast(NodeId::Imu),
                NwadeMessage::PlanRequest(req),
                now,
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
        self.imu.manager_mut().note_neighbor_tip(shard, tip);
    }

    /// Blocks at or after `from` from the manager's recent-block store
    /// (bounded; the city's anchor audit polls every tick, well inside
    /// the retention window).
    pub fn blocks_from(&self, from: u64) -> Vec<nwade_chain::Block> {
        self.imu.manager().blocks_from(from)
    }

    /// The manager's false-report tally for `id` — observable so tests
    /// can pin that ledger standing follows a handed-off vehicle.
    pub fn false_report_count(&self, id: VehicleId) -> u32 {
        self.imu.manager().false_report_count(id)
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
                    resend.push(v.plan_request());
                }
            }
        }
        for req in resend {
            self.send(
                NodeId::Vehicle(req.id.raw()),
                Recipient::Unicast(NodeId::Imu),
                NwadeMessage::PlanRequest(req),
                now,
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
            self.send(
                NodeId::Vehicle(id),
                Recipient::Broadcast,
                NwadeMessage::GlobalReport(report),
                now,
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
                    self.send(
                        NodeId::Vehicle(reporter.raw()),
                        Recipient::Unicast(NodeId::Imu),
                        NwadeMessage::IncidentReport(IncidentReport {
                            reporter,
                            suspect: accused,
                            evidence: fabricated,
                            block_index: 0,
                        }),
                        now,
                    );
                }
            }
            // Spread the false accusation globally too (threat iv:
            // "disseminate false traffic situations to mislead normal
            // vehicles").
            if let Some(accused) = self.accused {
                self.send(
                    NodeId::Vehicle(reporter.raw()),
                    Recipient::Broadcast,
                    NwadeMessage::GlobalReport(GlobalReport {
                        sender: reporter,
                        claim: GlobalClaim::AbnormalVehicle { suspect: accused },
                        time: now,
                    }),
                    now,
                );
            }
            // Type B: falsely claim the manager's latest block carries
            // conflicting plans — an accusation peers can actually check.
            let bogus_index = self.last_block_index.unwrap_or(0);
            self.bogus_claim_index = Some(bogus_index);
            SimMetrics::note_first(&mut self.metrics.type_b_first_broadcast, now);
            self.send(
                NodeId::Vehicle(reporter.raw()),
                Recipient::Broadcast,
                NwadeMessage::GlobalReport(GlobalReport {
                    sender: reporter,
                    claim: GlobalClaim::ConflictingPlans { index: bogus_index },
                    time: now,
                }),
                now,
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
            self.send(
                NodeId::Vehicle(reporter.raw()),
                Recipient::Unicast(NodeId::Imu),
                NwadeMessage::IncidentReport(IncidentReport {
                    reporter,
                    suspect: target,
                    evidence: fabricated,
                    block_index: 0,
                }),
                now,
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
                    let crossed = agent.reach_path_end(topo, now);
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
        let standing = self.imu.manager().false_report_count(VehicleId::new(id));
        self.imu.release(VehicleId::new(id));
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
        // Re-read, not the tick-start value: a promotion earlier this
        // tick ends the darkness.
        let im_down = self.imu.is_down(now);
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

    /// The descriptor the manager publishes with an evacuation alert;
    /// blank for a vehicle this world never saw.
    fn descriptor_of(&self, id: VehicleId) -> VehicleDescriptor {
        self.vehicles
            .get(&id.raw())
            .map(|v| v.descriptor.clone())
            .unwrap_or_default()
    }

    /// Puts `message` on the air, labelled with its packet class.
    fn send(&mut self, from: NodeId, to: Recipient, message: NwadeMessage, now: f64) {
        let class = message.class();
        self.medium
            .send(from, to, class, message, now, &mut self.rng);
    }

    fn imu_receive(&mut self, _from: NodeId, message: NwadeMessage, now: f64) {
        match message {
            NwadeMessage::PlanRequest(req) => {
                self.pending_requests.push((now, req));
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
                if self.announced_evacuating.contains(&report.suspect) {
                    // Publicly announced self-evacuation, not a new
                    // attack: acknowledge so the reporter does not time
                    // out and escalate.
                    let descriptor = self.descriptor_of(report.suspect);
                    self.send(
                        NodeId::Imu,
                        Recipient::Unicast(NodeId::Vehicle(report.reporter.raw())),
                        NwadeMessage::EvacuationAlert {
                            suspect: report.suspect,
                            descriptor,
                            location: report.evidence.position,
                        },
                        now,
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
                let blocks = self.imu.manager().blocks_from(from_index);
                if !blocks.is_empty() {
                    if let NodeId::Vehicle(requester) = _from {
                        self.send(
                            NodeId::Imu,
                            Recipient::Unicast(NodeId::Vehicle(requester)),
                            NwadeMessage::BlockResponse(blocks),
                            now,
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_imu_actions(&mut self, actions: Vec<ManagerAction>, now: f64) {
        for action in actions {
            match action {
                ManagerAction::BroadcastBlock(block) => {
                    self.last_block_index = Some(block.index());
                    self.metrics.blocks_broadcast += 1;
                    self.metrics.block_sizes.push(block.plans().len());
                    self.metrics.plans_scheduled += block.plans().len();
                    if self.metrics.im_recovery_latency.is_none() {
                        if let Some(t) = self.metrics.im_crash_time {
                            self.metrics.im_recovery_latency = Some(now - t);
                        }
                    }
                    self.imu.broadcasted(block.index());
                    self.send(
                        NodeId::Imu,
                        Recipient::Broadcast,
                        NwadeMessage::Block(block),
                        now,
                    );
                }
                ManagerAction::PollWatchers {
                    request_id,
                    suspect,
                    group,
                    plan,
                } => {
                    for watcher in group {
                        let Some(plan) = plan.clone() else {
                            continue;
                        };
                        self.send(
                            NodeId::Imu,
                            Recipient::Unicast(NodeId::Vehicle(watcher.raw())),
                            NwadeMessage::VerifyRequest {
                                request_id,
                                suspect,
                                plan,
                            },
                            now,
                        );
                    }
                }
                ManagerAction::Dismiss { reporter, suspect } => {
                    if Some(suspect) == self.accused {
                        SimMetrics::note_first(&mut self.metrics.false_accusation_dismissed, now);
                    }
                    self.send(
                        NodeId::Imu,
                        Recipient::Unicast(NodeId::Vehicle(reporter.raw())),
                        NwadeMessage::Dismissal { suspect },
                        now,
                    );
                }
                ManagerAction::EvacuationAlert {
                    suspect, location, ..
                } => {
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
                    // The world knows every vehicle's features, also of a
                    // suspect the manager never published a plan for.
                    let descriptor = self.descriptor_of(suspect);
                    self.send(
                        NodeId::Imu,
                        Recipient::Broadcast,
                        NwadeMessage::EvacuationAlert {
                            suspect,
                            descriptor,
                            location,
                        },
                        now,
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
            .map(VehicleAgent::plan_request)
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
        if let Some(block) = self.imu.evacuation_block(&states, &threats, now) {
            self.metrics.blocks_broadcast += 1;
            self.metrics.block_sizes.push(block.plans().len());
            self.send(
                NodeId::Imu,
                Recipient::Broadcast,
                NwadeMessage::Block(block),
                now,
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
                self.send(
                    NodeId::Vehicle(id),
                    Recipient::Unicast(NodeId::Imu),
                    NwadeMessage::VerifyResponse {
                        request_id,
                        suspect,
                        observed: abnormal.0,
                        abnormal: abnormal.1,
                    },
                    now,
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
                let blocks = self.vehicles[&id].guard.blocks_from(from_index);
                if !blocks.is_empty() {
                    if let NodeId::Vehicle(requester) = from {
                        self.send(
                            NodeId::Vehicle(id),
                            Recipient::Unicast(NodeId::Vehicle(requester)),
                            NwadeMessage::BlockResponse(blocks),
                            now,
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
                    self.send(
                        NodeId::Vehicle(id.raw()),
                        Recipient::Unicast(NodeId::Imu),
                        NwadeMessage::IncidentReport(report),
                        now,
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
                            if Some(index) == self.imu.corrupted_index() =>
                        {
                            SimMetrics::note_first(&mut self.metrics.corrupted_block_detected, now);
                        }
                        _ => {}
                    }
                    self.send(
                        NodeId::Vehicle(id.raw()),
                        Recipient::Broadcast,
                        NwadeMessage::GlobalReport(report),
                        now,
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
                    self.send(
                        NodeId::Vehicle(id.raw()),
                        Recipient::Unicast(target),
                        NwadeMessage::BlockRequest { from_index },
                        now,
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
                                    if Some(index) != self.imu.corrupted_index() =>
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

    /// Takes the whole pending queue for this window, in arrival order:
    /// drops requests whose vehicle left or is no longer active, counts
    /// the rest as offered and admitted, and predicts each requester's
    /// position forward to `now`.
    fn admit_pending(&mut self, now: f64) -> Vec<PlanRequest> {
        let vehicles = &self.vehicles;
        self.pending_requests.retain(|(_, req)| {
            vehicles
                .get(&req.id.raw())
                .is_some_and(VehicleAgent::is_active)
        });
        if self.pending_requests.is_empty() {
            return Vec::new();
        }
        let offered = self.pending_requests.len();
        self.metrics.admission_offered += offered;
        self.metrics.admission_admitted += offered;
        self.metrics.last_window_shed_gap = 0;
        self.pending_requests
            .drain(..)
            .map(|(arrival, mut req)| {
                // Predict how far the requester has cruised since sending.
                req.position_s += req.speed * (now - arrival);
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
            let actions = self.imu.window(&requests, now, &mut self.metrics);
            self.handle_imu_actions(actions, now);
            self.imu.window_end();
        } else {
            // Baseline without NWADE: plans are unicast, no blockchain.
            let actions = self.imu.on_window(&requests, now);
            for action in actions {
                if let ManagerAction::BroadcastBlock(block) = action {
                    self.metrics.plans_scheduled += block.plans().len();
                    for plan in block.plans() {
                        self.send(
                            NodeId::Imu,
                            Recipient::Unicast(NodeId::Vehicle(plan.id().raw())),
                            NwadeMessage::PlanAssignment(plan.clone()),
                            now,
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
            let manager = self.imu.manager_mut();
            manager.on_threat_cleared();
            manager.on_recovery_complete();
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
                    requests.push(v.plan_request());
                }
            }
            for req in requests {
                self.pending_requests.push((now, req));
            }
        }
    }
}

/// One measured processing window from
/// [`Simulation::bench_window_throughput`].
#[derive(Debug, Clone)]
pub struct WindowBenchPoint {
    /// Requests waiting when the window opened.
    pub offered: usize,
    /// Requests the window took: all of them, as every window takes the
    /// whole queue.
    pub admitted: usize,
    /// Always 0: nothing is deferred to a later window. Kept so the
    /// saturation cells of `BENCH_perf.json` keep their `deferred`
    /// column.
    pub deferred: usize,
    /// Wall-clock seconds spent on the window: taking the queue,
    /// scheduling, conflict filter, Merkle root and signing.
    pub latency_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::InvariantKind;
    use nwade_chain::Block;

    /// A window takes the whole queue in arrival order: the request of a
    /// vehicle the world does not hold is dropped, the rest are counted
    /// as offered and admitted, and each requester's position is
    /// predicted forward by speed × wait.
    #[test]
    fn window_takes_the_whole_queue_in_arrival_order() {
        let mut sim = Simulation::new(SimConfig::default());
        assert_eq!(sim.prespawn_fleet(2), 2);
        let fleet: Vec<PlanRequest> = sim
            .vehicles
            .values()
            .map(VehicleAgent::plan_request)
            .collect();
        assert!(fleet.iter().all(|r| r.speed > 0.0));
        let mut stranger = fleet[0].clone();
        stranger.id = VehicleId::new(42);
        assert!(!sim.vehicles.contains_key(&42));
        // Arrival order is not id order.
        sim.pending_requests.push((1.0, fleet[1].clone()));
        sim.pending_requests.push((1.5, stranger));
        sim.pending_requests.push((2.0, fleet[0].clone()));
        let (offered, admitted) = (
            sim.metrics.admission_offered,
            sim.metrics.admission_admitted,
        );

        let taken = sim.admit_pending(3.0);
        let ids: Vec<VehicleId> = taken.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![fleet[1].id, fleet[0].id]);
        assert_eq!(
            taken[0].position_s,
            fleet[1].position_s + fleet[1].speed * 2.0
        );
        assert_eq!(
            taken[1].position_s,
            fleet[0].position_s + fleet[0].speed * 1.0
        );
        assert!(sim.pending_requests.is_empty());
        assert_eq!(sim.metrics.admission_offered, offered + 2);
        assert_eq!(sim.metrics.admission_admitted, admitted + 2);
    }

    /// The chain invariant covers every retained block, the newest
    /// included, not only the oldest back-fill response's worth: with
    /// more blocks retained than `block_backfill_limit`, a newest block
    /// whose Merkle root no longer covers its plans is reported in the
    /// next window.
    #[test]
    fn chain_check_reaches_the_newest_retained_block() {
        let mut config = SimConfig::default();
        config.duration = 120.0;
        config.density = 80.0;
        config.seed = 5;
        let mut sim = Simulation::new(config);
        while sim.imu.manager().retained_blocks().len() < 20 {
            assert!(sim.now < 120.0, "20 blocks sealed within the run");
            sim.tick_once();
        }
        assert!(sim.imu.manager().retained_blocks().len() > sim.nwade_cfg().block_backfill_limit);
        assert_eq!(sim.invariants_so_far().total(), 0, "honest chain");

        // Re-head the newest block with an older block's root, as a
        // faulty re-seal would: its hash changes, and its root no longer
        // covers its plans.
        let manager = sim.imu.manager_mut();
        let mut state = manager.durable_state();
        let older = state.recent_blocks[0].clone();
        let newest = state.recent_blocks.last_mut().expect("blocks retained");
        *newest = Block::from_parts_anchored(
            newest.index(),
            newest.signature().to_vec(),
            newest.prev_hash(),
            newest.timestamp(),
            older.merkle_root(),
            newest.plans().to_vec(),
            newest.anchors().to_vec(),
        );
        assert!(manager.restore_durable(&state));

        let window = sim.last_window;
        while sim.last_window == window {
            sim.tick_once();
        }
        let report = sim.invariants_so_far();
        assert_eq!(report.total(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].kind, InvariantKind::ChainIntegrity);
    }
}
