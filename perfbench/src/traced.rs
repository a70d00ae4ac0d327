//! The traced run: the workload once more, with every layer's cost
//! measured from outside the program.
//!
//! Each tick is one `step` span. Inside it, before the tick, clones of
//! every shard give the probes that must not perturb the measured run:
//! `force_sense_pass` at sense cadence, `force_process_window` at window
//! boundaries, and `tick_once` (the shard's own share of a city tick).
//! Then the real tick runs in a `sim.tick.*` span. After it, every newly
//! broadcast block is replayed through the public entry point of each
//! layer: Algorithm 1 on one fresh `VehicleGuard` per vehicle in radio
//! range, `Scheduler::schedule` and `find_conflicts` on requests rebuilt
//! from its plans, `BlockPackager::package` and `SignatureScheme::sign`,
//! and a WAL written through `ImPersistence` on a `MemBackend` that a
//! `StandbyManager` tails. Spans stay in memory until the run ends.

use crate::report::Metric;
use crate::trace::{children, median, quantile, span_ms, Tracer};
use crate::workloads::{finish, Outcome, RepResult, Run, Size, Workload, World};
use nwade::{
    ImPersistence, ManagerAction, NwadeConfig, NwadeManager, StandbyManager, StandbyPolicy,
    VehicleGuard,
};
use nwade_aim::{
    find_conflicts, PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig, TravelPlan,
};
use nwade_chain::{verify_link, Block, BlockPackager};
use nwade_crypto::{CachingVerifier, MockScheme, RsaKeyPair, RsaScheme, SignatureScheme};
use nwade_intersection::{build, Topology};
use nwade_sim::{SignatureChoice, SimConfig, Simulation, StandbyConfig};
use nwade_store::{MemBackend, Wal};
use nwade_traffic::VehicleId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `Simulation::new` derives its mock signing key from
/// `config.seed ^ 0xA5A5`; the replayed guards verify the real blocks
/// with the same key.
const MOCK_KEY_SALT: u64 = 0xA5A5;

/// The signer the replay uses: the program's own mock key, or a fresh
/// RSA key of the workload's size (the program's RSA key is private; a
/// key of the same size costs the same to use, but cannot verify the
/// program's blocks — no RSA workload has a vehicle in radio range).
fn replay_scheme(config: &SimConfig) -> Arc<dyn SignatureScheme> {
    match config.signature {
        SignatureChoice::Mock => Arc::new(CachingVerifier::new(MockScheme::from_seed(
            config.seed ^ MOCK_KEY_SALT,
        ))),
        SignatureChoice::Rsa { bits } => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            Arc::new(CachingVerifier::new(RsaScheme::new(RsaKeyPair::generate(
                bits, &mut rng,
            ))))
        }
    }
}

/// A plan request rebuilt from a sealed plan.
fn request_of(plan: &TravelPlan) -> PlanRequest {
    PlanRequest {
        id: plan.id(),
        descriptor: plan.descriptor().clone(),
        movement: plan.movement(),
        position_s: plan.profile().start_position(),
        speed: plan.status().speed,
    }
}

fn manager(
    topo: &Arc<Topology>,
    scheme: &Arc<dyn SignatureScheme>,
    nwade: NwadeConfig,
) -> NwadeManager {
    let scheduler = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
    NwadeManager::new(topo.clone(), Box::new(scheduler), scheme.clone(), nwade)
}

/// Replay state for one shard.
struct ShardReplay {
    next_block: u64,
    topo: Arc<Topology>,
    nwade: NwadeConfig,
    comm_radius: f64,
    scheme: Arc<dyn SignatureScheme>,
    guards: BTreeMap<u64, VehicleGuard>,
    scheduler: ReservationScheduler,
    packager: BlockPackager,
    /// The manager whose windows the replayed WAL logs.
    primary: NwadeManager,
    /// Vehicles `primary` holds plans for.
    planned: BTreeSet<u64>,
    persist: ImPersistence,
    standby: StandbyManager,
}

impl ShardReplay {
    fn new(config: &SimConfig) -> ShardReplay {
        let topo = Arc::new(build(config.kind, &config.geometry));
        let scheme = replay_scheme(config);
        let backend = MemBackend::new();
        let mut primary = manager(&topo, &scheme, config.nwade);
        let (persist, _) = ImPersistence::attach(
            Box::new(backend.clone()),
            config.store.snapshot_every,
            &mut primary,
        )
        .expect("an empty in-memory log always attaches");
        let defaults = StandbyConfig::default();
        let standby = StandbyManager::new(
            manager(&topo, &scheme, config.nwade),
            Wal::follow(Box::new(backend)),
            config.store.snapshot_every,
            StandbyPolicy {
                heartbeat_interval: defaults.heartbeat_interval,
                miss_bound: defaults.miss_bound,
                jitter: defaults.jitter,
                salt: config.seed,
            },
            0.0,
        );
        ShardReplay {
            next_block: 0,
            scheduler: ReservationScheduler::new(topo.clone(), SchedulerConfig::default()),
            packager: BlockPackager::new(scheme.clone()),
            nwade: config.nwade,
            comm_radius: config.medium.comm_radius,
            guards: BTreeMap::new(),
            primary,
            planned: BTreeSet::new(),
            persist,
            standby,
            scheme,
            topo,
        }
    }

    /// Drops the guards of vehicles that left, and releases their
    /// reservations in the replayed primary, as the program logs a
    /// release record when a vehicle exits.
    fn forget_gone(&mut self, active: &HashSet<u64>) {
        self.guards.retain(|id, _| active.contains(id));
        let gone: Vec<u64> = self
            .planned
            .iter()
            .filter(|id| !active.contains(id))
            .copied()
            .collect();
        for id in gone {
            let vehicle = VehicleId::new(id);
            self.persist.release(vehicle).expect("in-memory log");
            self.primary.release_vehicle(vehicle);
            self.planned.remove(&id);
        }
    }
}

/// Exact work counts the replay makes alongside its spans.
#[derive(Debug, Default)]
struct Counts {
    blocks: usize,
    plans: usize,
    alg1_calls: usize,
    alg1_accepted: usize,
    alg1_plans_checked: usize,
    wal_bytes: Vec<f64>,
    replica_records: u64,
    replica_diverged: Option<String>,
}

/// The cadence mirror: the program runs a window (sense pass) on the
/// tick where `now - last >= interval`, with `now` advanced by `dt`
/// first; predicting it from outside lets the probes run on clones
/// taken just before that tick.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    last: f64,
    interval: f64,
}

impl Cadence {
    fn due(&mut self, next_now: f64) -> bool {
        let due = next_now - self.last >= self.interval;
        if due {
            self.last = next_now;
        }
        due
    }
}

struct Tracing {
    tracer: Tracer,
    replays: Vec<ShardReplay>,
    counts: Counts,
    window: Cadence,
    sense: Cadence,
    dt: f64,
    window_due: bool,
    after_window: bool,
    /// The program runs a hot standby (the replayed one then counts).
    program_standby: bool,
    /// The open `step` and `sim.tick.*` spans.
    open: Option<(usize, usize)>,
}

impl Tracing {
    fn new(shards: &[Simulation]) -> Tracing {
        let config = shards[0].config();
        Tracing {
            tracer: Tracer::new(),
            replays: shards
                .iter()
                .map(|s| ShardReplay::new(s.config()))
                .collect(),
            counts: Counts::default(),
            window: Cadence {
                last: 0.0,
                interval: config.nwade.processing_window,
            },
            sense: Cadence {
                last: 0.0,
                interval: config.sense_interval,
            },
            dt: config.dt,
            window_due: false,
            after_window: false,
            program_standby: config.standby.enabled,
            open: None,
        }
    }

    /// Opens the step, runs the probes on clones, and opens the span of
    /// the real tick, which the caller runs next.
    fn before_tick(&mut self, shards: &[Simulation]) {
        let step = self.tracer.begin("step");
        let next_now = shards[0].now() + self.dt;
        self.after_window = self.window_due;
        self.window_due = self.window.due(next_now);
        let sense_due = self.sense.due(next_now);
        for shard in shards {
            if sense_due {
                let mut copy = shard.clone();
                self.tracer.span("sense.pass", |_| copy.force_sense_pass());
            }
            if self.window_due {
                let mut copy = shard.clone();
                self.tracer
                    .span("im.window", |_| copy.force_process_window());
            }
            let mut copy = shard.clone();
            self.tracer.span("city.shard_tick", |_| copy.tick_once());
        }
        let tick = self.tracer.begin(self.tick_name());
        self.open = Some((step, tick));
    }

    /// Closes the real tick's span, replays what it broadcast, and
    /// closes the step.
    fn after_tick(&mut self, shards: &[Simulation]) {
        let (step, tick) = self.open.take().expect("before_tick opened the step");
        self.tracer.end(tick);
        self.replay(shards);
        self.tracer.end(step);
    }

    /// Ticks split three ways: a window runs (the manager schedules,
    /// packages, signs and logs), the tick after it (its block reaches
    /// the vehicles, one network latency later, and a standby replays
    /// its log records), and every other tick.
    fn tick_name(&self) -> &'static str {
        if self.window_due {
            "sim.tick.window"
        } else if self.after_window {
            "sim.tick.delivery"
        } else {
            "sim.tick.plain"
        }
    }

    /// Replays every block the last tick broadcast, shard by shard.
    fn replay(&mut self, shards: &[Simulation]) {
        for (shard, replay) in shards.iter().zip(self.replays.iter_mut()) {
            let blocks = shard.blocks_from(replay.next_block);
            if blocks.is_empty() {
                continue;
            }
            let vehicles = shard.vehicle_snapshot();
            let active: HashSet<u64> = vehicles.iter().map(|(id, ..)| id.raw()).collect();
            let in_range: Vec<u64> = vehicles
                .iter()
                .filter(|(_, pos, ..)| pos.norm() <= replay.comm_radius)
                .map(|(id, ..)| id.raw())
                .collect();
            replay.forget_gone(&active);
            for block in blocks {
                if block.index() < replay.next_block {
                    continue;
                }
                replay.next_block = block.index() + 1;
                replay_block(
                    &mut self.tracer,
                    &mut self.counts,
                    replay,
                    &block,
                    &in_range,
                    shard.now(),
                );
            }
        }
    }
}

/// Replays one broadcast block through every layer.
fn replay_block(
    tracer: &mut Tracer,
    counts: &mut Counts,
    r: &mut ShardReplay,
    block: &Block,
    in_range: &[u64],
    now: f64,
) {
    counts.blocks += 1;
    counts.plans += block.plans().len();
    let gap = r.nwade.conflict_gap;
    let topo = r.topo.as_ref();
    let scheme = r.scheme.as_ref();

    // Algorithm 1, decomposed in the paper's order on copies of each
    // receiving guard's cache, then end to end through `on_block`.
    for id in in_range {
        r.guards.entry(*id).or_insert_with(|| {
            VehicleGuard::new(
                VehicleId::new(*id),
                r.topo.clone(),
                r.scheme.clone(),
                r.nwade,
            )
        });
    }
    let mut caches: Vec<_> = in_range
        .iter()
        .map(|id| r.guards[id].cache().clone())
        .collect();
    tracer.span("alg1.sig", |_| {
        for cache in &mut caches {
            let _ = black_box(cache.verify_block_cached(block, scheme));
        }
    });
    tracer.span("alg1.internal", |_| {
        for _ in &caches {
            black_box(find_conflicts(block.plans(), topo, gap));
        }
    });
    tracer.span("alg1.link", |_| {
        for tip in caches.iter().filter_map(|c| c.tip()) {
            let _ = black_box(verify_link(tip, block));
        }
    });
    tracer.span("alg1.cross", |_| {
        for cache in &caches {
            let mut merged: HashMap<VehicleId, &TravelPlan> = HashMap::new();
            for plan in cache.current_plans().into_iter().chain(block.plans()) {
                merged.insert(plan.id(), plan);
            }
            let plans: Vec<TravelPlan> = merged.into_values().cloned().collect();
            counts.alg1_plans_checked += plans.len();
            black_box(find_conflicts(&plans, topo, gap));
        }
    });
    drop(caches);
    tracer.span("alg1.deliver", |tracer| {
        for id in in_range {
            let guard = r.guards.get_mut(id).expect("inserted above");
            tracer.span("alg1.on_block", |_| black_box(guard.on_block(block, now)));
            counts.alg1_calls += 1;
            if guard.cache().tip().map(Block::index) == Some(block.index()) {
                counts.alg1_accepted += 1;
            }
        }
    });

    let requests: Vec<PlanRequest> = block.plans().iter().map(request_of).collect();
    if requests.is_empty() {
        return;
    }
    // Scheduling and the conflict filter on the block's own traffic.
    let scheduler = &mut r.scheduler;
    tracer.span("aim.schedule", |_| {
        black_box(scheduler.schedule(&requests, block.timestamp()))
    });
    tracer.span("aim.conflict", |_| {
        black_box(find_conflicts(block.plans(), topo, gap))
    });
    // Packaging (Merkle root + signature), and the signature alone.
    let plans = block.plans().to_vec();
    let packager = &mut r.packager;
    tracer.span("chain.package", |_| {
        black_box(packager.package(plans, block.timestamp()))
    });
    let digest = block.merkle_root();
    tracer.span("crypto.sign", |_| black_box(scheme.sign(&digest)));

    // The same window through the WAL, and the standby tailing it.
    let persist = &mut r.persist;
    let before = persist.len_bytes().expect("in-memory log");
    tracer.span("store.append", |_| {
        persist
            .window_start(block.timestamp(), &requests)
            .expect("in-memory log")
    });
    let primary = &mut r.primary;
    let action = tracer.span("replay.primary", |_| {
        primary.on_window(&requests, block.timestamp())
    });
    if let Some(ManagerAction::BroadcastBlock(sealed)) = action {
        r.planned
            .extend(sealed.plans().iter().map(|p| p.id().raw()));
        tracer.span("store.append", |_| {
            persist.commit_block(&sealed, true).expect("in-memory log")
        });
    }
    tracer.span("store.window_end", |_| {
        persist.window_end(primary).expect("in-memory log")
    });
    let after = persist.len_bytes().expect("in-memory log");
    counts.wal_bytes.push((after - before) as f64);
    let standby = &mut r.standby;
    counts.replica_records +=
        tracer.span("replica.poll", |_| standby.poll().expect("in-memory log"));
    if let Some(reason) = standby.diverged() {
        counts
            .replica_diverged
            .get_or_insert_with(|| reason.to_string());
    }
}

/// What the traced pass produced besides its spans.
struct TracedPass {
    tracing: Tracing,
    outcome: Outcome,
    wall_s: f64,
    sim_s: f64,
}

/// Drives the workload with tracing. `organic` goes through
/// `Simulation::run_with`, so its network counters come out at the end;
/// `saturated` and the city tick one by one.
fn traced_pass(workload: Workload, seed: u64, size: Size) -> TracedPass {
    let mut run = Run::setup(workload, seed, size);
    let mut tracing = Tracing::new(run.world.shards());
    let sim_s = run.ticks as f64 * run.dt;
    let start = Instant::now();
    if workload == Workload::Organic {
        let World::Single(sim) = run.world else {
            unreachable!("organic is one intersection")
        };
        let total = run.ticks;
        let mut last = None;
        tracing.before_tick(std::slice::from_ref(&sim));
        let report = sim.run_with(|sim| {
            let shards = std::slice::from_ref(sim);
            tracing.after_tick(shards);
            if sim.ticks_elapsed() < total {
                tracing.before_tick(shards);
            } else {
                last = Some(Outcome::read(shards, None, sim.state_hash()));
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut outcome = last.expect("the run has at least one tick");
        outcome.block_receptions = Some(report.metrics.network.class("block").receptions);
        return TracedPass {
            tracing,
            outcome,
            wall_s,
            sim_s,
        };
    }
    for _ in 0..run.ticks {
        run.before_tick();
        tracing.before_tick(run.world.shards());
        run.tick();
        tracing.after_tick(run.world.shards());
    }
    let wall_s = start.elapsed().as_secs_f64();
    TracedPass {
        tracing,
        outcome: finish(run),
        wall_s,
        sim_s,
    }
}

/// Per-step timings read back off the span tree.
#[derive(Debug, Default)]
struct Steps {
    /// The real tick, ms.
    ticks: Vec<f64>,
    /// Real tick minus the shards' clone ticks, ms.
    commit: Vec<f64>,
    /// Clone-tick total per shard, ms.
    per_shard: Vec<f64>,
    /// Over window and delivery ticks: the shards' clone ticks (the
    /// serial work of a window cycle) and the sense probes, ms.
    cycle_work: f64,
    cycle_sense: f64,
}

fn steps(tracer: &Tracer) -> Steps {
    let spans = tracer.spans();
    let kids = children(spans);
    let mut out = Steps::default();
    for (i, step) in spans.iter().enumerate() {
        if step.name != "step" {
            continue;
        }
        let of = |name: &'static str| {
            kids[i]
                .iter()
                .filter(move |&&k| spans[k].name == name)
                .map(|&k| span_ms(&spans[k]))
        };
        let tick = kids[i]
            .iter()
            .find(|&&k| spans[k].name.starts_with("sim.tick."))
            .expect("every step holds its tick");
        let tick_ms = span_ms(&spans[*tick]);
        let shard_ticks: Vec<f64> = of("city.shard_tick").collect();
        out.per_shard.resize(shard_ticks.len(), 0.0);
        for (total, t) in out.per_shard.iter_mut().zip(&shard_ticks) {
            *total += t;
        }
        let serial: f64 = shard_ticks.iter().sum();
        out.commit.push(tick_ms - serial);
        out.ticks.push(tick_ms);
        if spans[*tick].name != "sim.tick.plain" {
            out.cycle_work += serial;
            out.cycle_sense += of("sense.pass").sum::<f64>();
        }
    }
    out
}

/// Runs the traced pass and reduces it to the per-layer metrics.
///
/// # Errors
///
/// Returns a description when the traced pass disagrees with the
/// untraced repetition (a different final state hash), its outputs fail
/// the workload's checks, or the replayed standby diverged.
pub fn run(
    workload: Workload,
    seed: u64,
    size: Size,
    untraced: &RepResult,
) -> Result<Vec<Metric>, String> {
    let pass = traced_pass(workload, seed, size);
    let mut errors = Vec::new();
    if pass.outcome.state_hash != untraced.outcome.state_hash {
        errors.push(format!(
            "traced state hash {:016x} differs from untraced {:016x}",
            pass.outcome.state_hash, untraced.outcome.state_hash
        ));
    }
    if let Err(e) = pass.outcome.check(workload) {
        errors.push(format!("traced pass: {e}"));
    }
    let t = &pass.tracing.tracer;
    let c = &pass.tracing.counts;
    if let Some(reason) = &c.replica_diverged {
        errors.push(format!("replayed standby diverged: {reason}"));
    }
    let p = |name: &str, q: f64| quantile(&t.durations_ms(name), q).unwrap_or(0.0);
    let total = |name: &str| t.durations_ms(name).iter().sum::<f64>();
    let o = &pass.outcome;
    let s = steps(t);

    // City phase: shard imbalance is the slowest shard's clone-tick total
    // over the mean.
    let imbalance = s.per_shard.iter().copied().fold(0.0, f64::max)
        / (s.per_shard.iter().sum::<f64>() / s.per_shard.len() as f64);

    // Attribution of a window cycle's serial work. The replayed standby
    // counts only where the program itself runs one.
    let share = |ms: f64| ms / s.cycle_work;
    let alg1_share = share(total("alg1.deliver"));
    let im_share = share(total("im.window"));
    let sense_share = share(s.cycle_sense);
    let replica_share = share(total("replica.poll"));
    let counted_replica = if pass.tracing.program_standby {
        replica_share
    } else {
        0.0
    };
    let unattributed = 1.0 - alg1_share - im_share - sense_share - counted_replica;
    let untraced_rate = untraced.sim_s * 1e3 / untraced.tick_ms.iter().sum::<f64>();
    let traced_rate = pass.sim_s / pass.wall_s;

    let ms = |name: &'static str, span: &str, q: f64| Metric::new(name, p(span, q), "ms");
    let count = |name: &'static str, v: f64| Metric::new(name, v, "count");
    let ratio = |name: &'static str, v: f64| Metric::new(name, v, "ratio");
    let metrics = vec![
        ms("sim.tick.window_ms.p50", "sim.tick.window", 0.5),
        ms("sim.tick.window_ms.p90", "sim.tick.window", 0.9),
        ms("sim.tick.delivery_ms.p50", "sim.tick.delivery", 0.5),
        ms("sim.tick.delivery_ms.p90", "sim.tick.delivery", 0.9),
        ms("sim.tick.plain_ms.p50", "sim.tick.plain", 0.5),
        ms("sense.pass_ms.p50", "sense.pass", 0.5),
        ms("im.window_ms.p50", "im.window", 0.5),
        ms("im.window_ms.p90", "im.window", 0.9),
        ms("aim.schedule_ms.p50", "aim.schedule", 0.5),
        ms("aim.conflict_ms.p50", "aim.conflict", 0.5),
        count("aim.offered", o.attempted as f64),
        count("aim.admitted", o.admitted as f64),
        count("aim.deferred", o.deferred as f64),
        ms("chain.package_ms.p50", "chain.package", 0.5),
        ms("crypto.sign_ms.p50", "crypto.sign", 0.5),
        count("core.blocks", o.blocks as f64),
        count("core.plans", o.plans as f64),
        ms("alg1.block_ms.p50", "alg1.deliver", 0.5),
        ms("alg1.block_ms.p90", "alg1.deliver", 0.9),
        ms("alg1.sig_ms.p50", "alg1.sig", 0.5),
        ms("alg1.internal_ms.p50", "alg1.internal", 0.5),
        ms("alg1.link_ms.p50", "alg1.link", 0.5),
        ms("alg1.cross_ms.p50", "alg1.cross", 0.5),
        count("alg1.calls", c.alg1_calls as f64),
        count("alg1.plans_checked", c.alg1_plans_checked as f64),
        ratio(
            "alg1.accept_ratio",
            c.alg1_accepted as f64 / c.alg1_calls.max(1) as f64,
        ),
        ms("store.append_ms.p50", "store.append", 0.5),
        ms("store.window_end_ms.p50", "store.window_end", 0.5),
        Metric::new(
            "store.bytes_per_window",
            median(&c.wal_bytes).unwrap_or(0.0),
            "bytes",
        ),
        ms("replica.poll_ms.p50", "replica.poll", 0.5),
        count("replica.records", c.replica_records as f64),
        count("standby_max_lag_records", o.standby_max_lag as f64),
        count("standby_windows_applied", o.standby_windows as f64),
        Metric::new("city.tick_ms.p50", median(&s.ticks).unwrap_or(0.0), "ms"),
        ms("city.shard_tick_ms.p50", "city.shard_tick", 0.5),
        Metric::new("city.commit_ms.p50", median(&s.commit).unwrap_or(0.0), "ms"),
        ratio("city.imbalance", imbalance),
        count("city.handoffs", o.handoffs as f64),
        count("city.anchor_mismatches", o.anchor_mismatches as f64),
        ratio("attr.alg1_share", alg1_share),
        ratio("attr.im_share", im_share),
        ratio("attr.replica_share", replica_share),
        ratio("attr.sense_share", sense_share),
        ratio("attr.unattributed_share", unattributed),
        ratio("trace.overhead", untraced_rate / traced_rate),
    ];

    println!(
        "traced pass: {} ticks, {:.3} s wall; sim_rate {traced_rate:.3} traced vs {untraced_rate:.3} untraced (tracing overhead x{:.3})",
        s.ticks.len(),
        pass.wall_s,
        untraced_rate / traced_rate
    );
    println!(
        "alg1.on_block_ms per call: p50 {:.6} p90 {:.6} over {} calls",
        p("alg1.on_block", 0.5),
        p("alg1.on_block", 0.9),
        c.alg1_calls
    );
    println!("city.commit_ms is derived: the real tick minus its shards' clone ticks");
    println!(
        "window cycle (window + delivery ticks) serial work {:.3} ms: alg1 {alg1_share:.4}, im.window {im_share:.4}, replica.poll {replica_share:.4}{}, sense {sense_share:.4}, unattributed {unattributed:.4}",
        s.cycle_work,
        if pass.tracing.program_standby {
            ""
        } else {
            " (not counted: the program runs no standby)"
        },
    );
    reconcile(&pass);
    println!("self time by span, ms:");
    for (name, ms) in t.self_time_ms() {
        println!("  {name:<20} {ms:>14.3}");
    }
    if errors.is_empty() {
        Ok(metrics)
    } else {
        Err(errors.join("; "))
    }
}

/// Prints the gaps between the replay's counts and the program's own
/// exact counters.
fn reconcile(pass: &TracedPass) {
    let c = &pass.tracing.counts;
    let o = &pass.outcome;
    match o.block_receptions {
        Some(rx) => println!(
            "reconcile alg1.calls {} vs block receptions {rx}: gap {}",
            c.alg1_calls,
            c.alg1_calls as i64 - rx as i64
        ),
        None => println!(
            "reconcile alg1.calls {} vs block receptions: not readable (only Simulation::run copies the network counters out, and a city has no run)",
            c.alg1_calls
        ),
    }
    println!(
        "reconcile replayed blocks {} vs blocks_broadcast {}: gap {}",
        c.blocks,
        o.blocks,
        c.blocks as i64 - o.blocks as i64
    );
    println!(
        "reconcile replayed plans {} vs plans_scheduled {}: gap {} (evacuation-block plans are not counted as scheduled)",
        c.plans,
        o.plans,
        c.plans as i64 - o.plans as i64
    );
}
