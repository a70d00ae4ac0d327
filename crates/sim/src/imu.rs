//! The intersection-manager unit: an honest [`NwadeManager`], optionally
//! wrapped in the malicious behaviours of threats iii/iv, and everything
//! that keeps it issuing valid blocks across disruptions (§IV-B5).
//!
//! The unit owns the manager's whole lifecycle, so the world only asks it
//! what to send and when it is dark:
//!
//! - **Durability.** With `config.store.enabled`, every window, evacuation
//!   plan, block commit, broadcast and vehicle release is logged to a
//!   write-ahead log on an in-memory device through [`ImPersistence`]. A
//!   device error turns durability off for the rest of the run.
//! - **Outages.** A scheduled [`ImOutage`], or the cold downtime of a
//!   crash, darkens the manager. The tick where the darkness ends restarts
//!   it: warm from the WAL when the store can rebuild it, cold otherwise.
//! - **Crashes.** The configured [`CrashPlan`] kills the process inside
//!   the first window at or after its time, at its [`CrashPoint`]. Warm
//!   recovery resumes the same tick; the cold path goes dark.
//! - **Failover.** A [`StandbyManager`] tails the WAL and is promoted once
//!   the dark primary misses its heartbeat bound. With
//!   `standby.zombie_delay`, the dead primary was only slow and seals one
//!   late, stale-epoch block that the fleet must fence off.

use crate::config::{CrashPlan, ImOutage, SchedulerChoice, SimConfig};
use crate::metrics::SimMetrics;
use nwade::messages::IncidentReport;
use nwade::{
    CrashPoint, ImPersistence, ManagerAction, NwadeManager, RecoveryOutcome, StandbyManager,
    StandbyPolicy,
};
use nwade_aim::{
    corrupt, FcfsScheduler, PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig,
    TrafficLightScheduler,
};
use nwade_chain::{tamper, Block};
use nwade_crypto::SignatureScheme;
use nwade_geometry::Vec2;
use nwade_intersection::Topology;
use nwade_store::{MemBackend, StoreError, Wal};
use nwade_traffic::VehicleId;
use std::collections::HashSet;
use std::sync::Arc;

/// The intersection-manager unit.
#[derive(Clone)]
pub struct ImuAgent {
    /// The honest protocol engine.
    manager: NwadeManager,
    /// Whether the attacker controls the manager.
    pub malicious: bool,
    /// Vehicles the (malicious) manager shields: reports about them are
    /// dismissed without verification.
    pub shielded: HashSet<VehicleId>,
    /// Signer (needed to re-sign corrupted blocks — the compromised
    /// manager still holds the key).
    signer: Arc<dyn SignatureScheme>,
    /// Corrupt the next block (pure-IM attack).
    pub corrupt_next_block: bool,
    /// Whether a corrupted block has been emitted.
    pub corruption_emitted: bool,
    /// Index of the corrupted block, once emitted.
    corrupted_index: Option<u64>,
    topology: Arc<Topology>,
    /// The configuration the manager is rebuilt from on recovery.
    config: SimConfig,
    /// Whether the manager was dark at the start of the previous tick
    /// (the restart edge).
    was_down: bool,
    /// Darkness imposed by a cold crash recovery (the manager is down
    /// while it rebuilds from the persisted chain).
    forced_outage: Option<ImOutage>,
    /// Whether the configured crash already fired.
    crash_fired: bool,
    /// The durable device, the WAL session and the standby on it.
    durable: Durable,
    /// A "dead" primary that was secretly only slow: at the scheduled
    /// time it seals one late, conflicting block from its stale state —
    /// the split-brain double-sign attempt fencing must reject.
    zombie: Option<(f64, NwadeManager)>,
    /// A window's blocks are committed and await [`ImuAgent::window_end`].
    window_open: bool,
}

/// The durable device and the two handles on it.
struct Durable {
    /// The device the manager logs to; crash injections tear it.
    store: MemBackend,
    /// Active persistence session; `None` when durability is disabled
    /// by config or the store failed.
    persistence: Option<ImPersistence>,
    /// Hot-standby replica tailing the primary's WAL; consumed by
    /// promotion when the heartbeat miss bound trips.
    standby: Option<StandbyManager>,
}

impl Clone for Durable {
    /// Forks the device with its volatile/durable boundary intact, so
    /// crash injections tear identically in the copy, and moves both
    /// handles onto the fork.
    fn clone(&self) -> Self {
        let store = self.store.fork();
        Durable {
            persistence: self
                .persistence
                .as_ref()
                .map(|p| p.fork_onto(Box::new(store.clone()))),
            standby: self
                .standby
                .as_ref()
                .map(|s| s.fork_onto(Box::new(store.clone()))),
            store,
        }
    }
}

/// What the IMU host should do after handling an event.
#[derive(Debug, Clone)]
pub enum ImuAction {
    /// Broadcast a block.
    Broadcast(Block),
    /// Poll watchers (honest path).
    Poll {
        /// Correlation id.
        request_id: u64,
        /// The accused vehicle.
        suspect: VehicleId,
        /// The watchers.
        group: Vec<VehicleId>,
        /// The suspect's published plan.
        plan: Option<Box<nwade_aim::TravelPlan>>,
    },
    /// Dismiss a report.
    Dismiss {
        /// Reporting vehicle.
        reporter: VehicleId,
        /// Cleared suspect.
        suspect: VehicleId,
    },
    /// Broadcast an evacuation alert.
    Alert {
        /// Confirmed suspect.
        suspect: VehicleId,
        /// Its last known position.
        location: Vec2,
    },
}

/// What [`ImuAgent::begin_tick`] hands the world.
#[derive(Debug)]
pub(crate) struct TickStart {
    /// The manager was up when the tick began; this gates the tick's
    /// processing window even if a promotion ends the darkness mid-tick.
    pub(crate) up: bool,
    /// Blocks a warm restart or a standby promotion owes the fleet, in
    /// chain order.
    pub(crate) recovered: Vec<ImuAction>,
    /// The zombie primary's stale-epoch block. Every send draws from the
    /// RNG, so it goes on the air after `recovered`.
    pub(crate) zombie: Option<Block>,
}

/// Builds the manager + scheduler stack from the config (at construction,
/// and again when a warm recovery rebuilds it from the store).
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

impl ImuAgent {
    /// Builds the unit from the simulation config: the manager, the
    /// durable store with a persistence session on it (when
    /// `config.store.enabled` and NWADE runs), and a standby tailing it
    /// (when `config.standby.enabled`).
    pub fn new(
        config: &SimConfig,
        topology: Arc<Topology>,
        signer: Arc<dyn SignatureScheme>,
    ) -> Self {
        let mut manager = build_manager(config, &topology, &signer);
        let store = MemBackend::new();
        // A fresh store attaches as a trivially warm no-op; the handle is
        // kept so crash recovery can re-open the same device later.
        let persistence = if config.store.enabled && config.nwade_enabled {
            ImPersistence::attach(
                Box::new(store.clone()),
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
        let standby = (config.standby.enabled && persistence.is_some()).then(|| {
            StandbyManager::new(
                build_manager(config, &topology, &signer),
                Wal::follow(Box::new(store.clone())),
                config.store.snapshot_every,
                StandbyPolicy {
                    heartbeat_interval: config.standby.heartbeat_interval,
                    miss_bound: config.standby.miss_bound,
                    jitter: config.standby.jitter,
                    salt: config.seed ^ 0x57A4_DB15,
                },
                0.0,
            )
        });
        ImuAgent {
            manager,
            malicious: config.attack.is_some_and(|a| a.setting.im_malicious()),
            shielded: HashSet::new(),
            signer,
            corrupt_next_block: false,
            corruption_emitted: false,
            corrupted_index: None,
            topology,
            config: config.clone(),
            was_down: false,
            forced_outage: None,
            crash_fired: false,
            durable: Durable {
                store,
                persistence,
                standby,
            },
            zombie: None,
            window_open: false,
        }
    }

    /// The protocol engine.
    pub(crate) fn manager(&self) -> &NwadeManager {
        &self.manager
    }

    /// Mutable access for calls outside the lifecycle: ledger and anchor
    /// bookkeeping, and bench drivers that bypass persistence.
    pub(crate) fn manager_mut(&mut self) -> &mut NwadeManager {
        &mut self.manager
    }

    /// Index of the corrupted block, once the compromised manager emitted
    /// it.
    pub(crate) fn corrupted_index(&self) -> Option<u64> {
        self.corrupted_index
    }

    /// `true` while the manager is inside a scheduled outage or a cold
    /// crash's downtime.
    pub(crate) fn is_down(&self, now: f64) -> bool {
        self.config.im_outage.is_some_and(|o| o.covers(now))
            || self.forced_outage.is_some_and(|o| o.covers(now))
    }

    /// Starts a tick. Restarts the manager on the tick its darkness ends,
    /// drives the standby (replication, a heartbeat while the primary is
    /// up, promotion once it has missed the bound), and fires a due
    /// zombie with the plan requests `fleet` returns for the active
    /// vehicles.
    pub(crate) fn begin_tick(
        &mut self,
        now: f64,
        metrics: &mut SimMetrics,
        fleet: impl FnOnce() -> Vec<PlanRequest>,
    ) -> TickStart {
        let down = self.is_down(now);
        let mut recovered = Vec::new();
        if self.was_down && !down {
            recovered = self.restart(metrics);
        }
        self.was_down = down;
        if let Some(standby) = self.durable.standby.as_mut() {
            // Replication first; lag is sampled before the drain, so the
            // metric records the largest backlog a poll ever found.
            if let Ok(lag) = standby.lag_records() {
                metrics.standby_max_lag_records = metrics.standby_max_lag_records.max(lag);
            }
            let _ = standby.poll();
            if !down {
                standby.heartbeat(now);
            } else if standby.due_promotion(now) {
                recovered.extend(self.promote(now, metrics));
            }
        }
        TickStart {
            up: !down,
            recovered,
            zombie: self.fire_zombie(now, fleet),
        }
    }

    /// Runs one processing window. The requests are durable before
    /// scheduling and each block's commit record before the block is
    /// returned for broadcast. When the configured crash is due, the
    /// process dies mid-window instead: the blocks a same-tick warm
    /// recovery owes the fleet are returned (none on the cold path), and
    /// the window never ends.
    pub(crate) fn window(
        &mut self,
        requests: &[PlanRequest],
        now: f64,
        metrics: &mut SimMetrics,
    ) -> Vec<ImuAction> {
        self.log("window start", |p, _| p.window_start(now, requests));
        let actions = self.on_window(requests, now);
        if let Some(plan) = self.due_crash(now) {
            let staged = actions.into_iter().find_map(|a| match a {
                ImuAction::Broadcast(b) => Some(b),
                _ => None,
            });
            return self.crash(plan, staged, now, metrics);
        }
        for action in &actions {
            if let ImuAction::Broadcast(block) = action {
                self.log("block commit", |p, _| p.commit_block(block, true));
            }
        }
        self.window_open = true;
        actions
    }

    /// Ends the window [`ImuAgent::window`] sealed, once its blocks are
    /// on the air: every `snapshot_every`-th window appends a snapshot.
    /// A window the crash killed has nothing to end.
    pub(crate) fn window_end(&mut self) {
        if std::mem::take(&mut self.window_open) {
            self.log("snapshot", |p, manager| p.window_end(manager));
        }
    }

    /// Logs that a block went on the air. The marker suppresses
    /// re-sending the block on recovery; it is buffered, not synced —
    /// losing it only costs a harmless duplicate send.
    pub(crate) fn broadcasted(&mut self, index: u64) {
        self.log("broadcast marker", |p, _| p.broadcasted(index));
    }

    /// A vehicle left the area: frees its reservations and logs the
    /// release (buffered; durable at the next window barrier).
    pub(crate) fn release(&mut self, vehicle: VehicleId) {
        self.manager.release_vehicle(vehicle);
        self.log("release record", |p, _| p.release(vehicle));
    }

    /// Generates the evacuation block around confirmed threats. Planning
    /// is durable like a window: the inputs are logged (and synced)
    /// before the plan runs, the commit and broadcast marker before the
    /// block is returned for broadcast.
    pub fn evacuation_block(
        &mut self,
        states: &[PlanRequest],
        threats: &[Vec2],
        now: f64,
    ) -> Option<Block> {
        self.log("evacuation start", |p, _| {
            p.evac_start(now, states, threats)
        });
        let ManagerAction::BroadcastBlock(block) =
            self.manager.evacuation_block(states, threats, now)?
        else {
            return None;
        };
        self.log("evacuation commit", |p, _| {
            p.commit_block(&block, true)?;
            p.broadcasted(block.index())
        });
        Some(block)
    }

    /// Runs one WAL write. A device error turns durability off for the
    /// rest of the run: the log can no longer be trusted to match the
    /// manager.
    fn log<T>(
        &mut self,
        context: &str,
        write: impl FnOnce(&mut ImPersistence, &NwadeManager) -> Result<T, StoreError>,
    ) {
        let Some(persistence) = self.durable.persistence.as_mut() else {
            return;
        };
        if write(persistence, &self.manager).is_err() {
            eprintln!("[nwade-sim] durable store failed ({context}); disabling durability");
            self.durable.persistence = None;
        }
    }

    /// The manager comes back as its darkness ends. After a cold crash's
    /// downtime the warm/cold decision was already made (and counted) at
    /// crash time, so the manager just wakes. After a scheduled outage,
    /// with the durable store active, a fresh manager is rebuilt from
    /// snapshot + WAL replay (warm: reservations and chain tip intact);
    /// otherwise — or when the store is unusable — the cold path runs:
    /// transient conversational state (in-flight report verifications) is
    /// gone, the chain and the published-plan ledger survive. Vehicles
    /// that self-evacuated on the IM timeout re-admit themselves when the
    /// next fresh block they can verify against their cached chain
    /// arrives — no special resync message exists, exactly as in the
    /// paper's model where the chain is the only shared state.
    fn restart(&mut self, metrics: &mut SimMetrics) -> Vec<ImuAction> {
        if self.forced_outage.take().is_some() {
            self.manager.restart();
            return Vec::new();
        }
        if self.durable.persistence.is_some() {
            if let Some(recovered) = self.warm_swap(metrics) {
                metrics.warm_recoveries += 1;
                return recovered;
            }
        }
        self.manager.restart();
        metrics.cold_recoveries += 1;
        Vec::new()
    }

    /// Rebuilds the manager from the durable store. On success the
    /// recovered manager replaces the live one and its committed-but-
    /// unbroadcast blocks are returned; on failure (`Cold` or a device
    /// error) the live manager is left untouched and persistence stays
    /// off.
    fn warm_swap(&mut self, metrics: &mut SimMetrics) -> Option<Vec<ImuAction>> {
        self.durable.persistence = None;
        let mut fresh = build_manager(&self.config, &self.topology, &self.signer);
        let Ok((persistence, RecoveryOutcome::Warm(warm))) = ImPersistence::attach(
            Box::new(self.durable.store.clone()),
            self.config.store.snapshot_every,
            &mut fresh,
        ) else {
            return None;
        };
        self.manager = fresh;
        self.durable.persistence = Some(persistence);
        metrics.wal_truncated_bytes += warm.truncated_bytes;
        Some(warm.actions.into_iter().map(Self::convert).collect())
    }

    /// The miss bound tripped: the standby takes over as primary, ending
    /// the darkness at once. When promotion is refused (a diverged
    /// replica, a device error) the standby is dropped and the crash
    /// resolves through the cold downtime after all.
    fn promote(&mut self, now: f64, metrics: &mut SimMetrics) -> Vec<ImuAction> {
        let Some(standby) = self.durable.standby.take() else {
            return Vec::new();
        };
        let windows = standby.windows_applied();
        let Ok(promoted) = standby.promote() else {
            metrics.cold_recoveries += 1;
            return Vec::new();
        };
        self.manager = promoted.manager;
        self.durable.persistence = Some(promoted.persistence);
        // Darkness ends at takeover, not at the cold downtime; clearing
        // the outage here also keeps the restart edge from counting a
        // second recovery later.
        self.forced_outage = None;
        self.was_down = false;
        metrics.standby_promotions += 1;
        metrics.standby_windows_applied = windows;
        if let Some(t) = metrics.im_crash_time {
            metrics.standby_promotion_latency = Some(now - t);
        }
        promoted.actions.into_iter().map(Self::convert).collect()
    }

    /// Fires the scheduled zombie: the ex-primary seals one more block
    /// from its stale in-memory state, committed nowhere. Vehicle guards
    /// must fence it off — it is sealed under the pre-failover epoch and
    /// chains onto a tip hash the promotion re-seal replaced.
    fn fire_zombie(&mut self, now: f64, fleet: impl FnOnce() -> Vec<PlanRequest>) -> Option<Block> {
        if !self.zombie.as_ref().is_some_and(|(at, _)| now >= *at) {
            return None;
        }
        let (_, mut zombie) = self.zombie.take()?;
        let states = fleet();
        if states.is_empty() {
            return None;
        }
        match zombie.on_window(&states, now)? {
            ManagerAction::BroadcastBlock(block) => Some(block),
            _ => None,
        }
    }

    /// The configured crash, when it is due to fire this window.
    fn due_crash(&self, now: f64) -> Option<CrashPlan> {
        let plan = self.config.im_crash?;
        (!self.crash_fired && now >= plan.at).then_some(plan)
    }

    /// Kills the manager process at the plan's crash point, mid-window.
    /// `staged` is the block the dying window produced; the dying
    /// process never broadcasts it. Recovery then either comes back warm
    /// the same tick, returning the blocks it owes the fleet, or goes
    /// dark for the cold downtime.
    fn crash(
        &mut self,
        plan: CrashPlan,
        staged: Option<Block>,
        now: f64,
        metrics: &mut SimMetrics,
    ) -> Vec<ImuAction> {
        self.crash_fired = true;
        metrics.im_crashes += 1;
        metrics.im_crash_time = Some(now);
        let had_store = self.durable.persistence.is_some();
        let store = &self.durable.store;
        match plan.point {
            // Nothing about the staged block reached the device.
            CrashPoint::AfterStage => store.crash(0),
            CrashPoint::BeforeCommit => {
                // The commit record dies half-written: a torn tail the
                // recovery scan must truncate.
                if let (Some(p), Some(b)) = (self.durable.persistence.as_mut(), staged.as_ref()) {
                    let _ = p.commit_block(b, false);
                }
                store.crash(10);
            }
            CrashPoint::AfterCommit => {
                // Committed and durable, but the broadcast never went
                // out: recovery must re-send exactly this block.
                if let (Some(p), Some(b)) = (self.durable.persistence.as_mut(), staged.as_ref()) {
                    let _ = p.commit_block(b, true);
                }
                store.crash(0);
            }
            CrashPoint::ProcessLoss => {
                // The whole process is gone, page cache included: only
                // synced bytes survive; the staged block and the
                // persistence handle die with it. Nothing restarts in
                // place — darkness ends at standby promotion or, with no
                // standby, after the cold rebuild downtime.
                store.crash(0);
                self.durable.persistence = None;
                if let Some(delay) = self.config.standby.zombie_delay {
                    // The "dead" primary was secretly only slow: its
                    // in-memory state (dying window absorbed) survives
                    // to attempt one late, conflicting block.
                    self.zombie = Some((now + delay, self.manager.clone()));
                }
                if self.durable.standby.is_none() {
                    metrics.cold_recoveries += 1;
                }
                self.go_dark(now, plan.cold_downtime);
                return Vec::new();
            }
        }
        // The process died with its persistence handle; the store may
        // still rebuild the manager.
        if had_store {
            if let Some(recovered) = self.warm_swap(metrics) {
                metrics.warm_recoveries += 1;
                return recovered;
            }
        }
        // Cold: the in-memory state of the crashed process is gone and
        // the store cannot reconstruct it.
        metrics.cold_recoveries += 1;
        self.go_dark(now, plan.cold_downtime);
        Vec::new()
    }

    /// The manager stays dark while it restores from the persisted chain
    /// (the same fiction as [`ImOutage`]); the tick the downtime ends
    /// restarts it.
    fn go_dark(&mut self, now: f64, downtime: f64) {
        self.forced_outage = Some(ImOutage {
            start: now,
            duration: downtime,
        });
        self.was_down = true;
    }

    fn convert(action: ManagerAction) -> ImuAction {
        match action {
            ManagerAction::BroadcastBlock(b) => ImuAction::Broadcast(b),
            ManagerAction::PollWatchers {
                request_id,
                suspect,
                group,
                plan,
            } => ImuAction::Poll {
                request_id,
                suspect,
                group,
                plan,
            },
            ManagerAction::Dismiss { reporter, suspect } => {
                ImuAction::Dismiss { reporter, suspect }
            }
            ManagerAction::EvacuationAlert {
                suspect, location, ..
            } => ImuAction::Alert { suspect, location },
        }
    }

    /// Processes one scheduling window, with no logging and no crash. A
    /// malicious manager with `corrupt_next_block` set substitutes
    /// conflicting plans into the properly signed block (it holds the
    /// key); the swap fires at most once per run.
    pub fn on_window(&mut self, requests: &[PlanRequest], now: f64) -> Vec<ImuAction> {
        let Some(action) = self.manager.on_window(requests, now) else {
            return Vec::new();
        };
        let ManagerAction::BroadcastBlock(block) = action else {
            return vec![Self::convert(action)];
        };
        if self.malicious && self.corrupt_next_block && !self.corruption_emitted {
            if let Some(bad_plans) = corrupt::make_conflicting(block.plans(), &self.topology, now) {
                self.corruption_emitted = true;
                self.corrupt_next_block = false;
                let evil = tamper::resign_with_plans(&block, bad_plans, self.signer.as_ref());
                self.corrupted_index = Some(evil.index());
                return vec![ImuAction::Broadcast(evil)];
            }
            // Not enough crossing traffic in this window; try the next.
        }
        vec![ImuAction::Broadcast(block)]
    }

    /// Handles an incident report. The malicious manager dismisses
    /// reports about shielded vehicles and instantly "confirms" reports
    /// *from* its colluders (staging a false evacuation).
    pub fn on_incident_report(
        &mut self,
        report: &IncidentReport,
        nearby_watchers: &[VehicleId],
        colluders: &HashSet<VehicleId>,
        now: f64,
    ) -> Vec<ImuAction> {
        if self.malicious {
            if self.shielded.contains(&report.suspect) {
                // Protect the colluding violator: tell the honest
                // reporter it was wrong.
                return vec![ImuAction::Dismiss {
                    reporter: report.reporter,
                    suspect: report.suspect,
                }];
            }
            if colluders.contains(&report.reporter) {
                // Collusion: stage an evacuation against the innocent
                // accused without any verification.
                return vec![ImuAction::Alert {
                    suspect: report.suspect,
                    location: report.evidence.position,
                }];
            }
        }
        self.manager
            .on_incident_report(report, nearby_watchers, now)
            .into_iter()
            .map(Self::convert)
            .collect()
    }

    /// Handles a watcher's verify-response (ignored by a malicious
    /// manager unless it serves the collusion).
    pub fn on_verify_response(
        &mut self,
        request_id: u64,
        suspect: VehicleId,
        observed: bool,
        abnormal: bool,
        fresh_candidates: &[VehicleId],
        now: f64,
    ) -> Vec<ImuAction> {
        if self.malicious {
            return Vec::new();
        }
        self.manager
            .on_verify_response(
                request_id,
                suspect,
                observed,
                abnormal,
                fresh_candidates,
                now,
            )
            .into_iter()
            .map(Self::convert)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade::messages::Observation;
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent(malicious: bool) -> ImuAgent {
        let config = SimConfig::default();
        let topo = Arc::new(build(config.kind, &config.geometry));
        let mut agent = ImuAgent::new(&config, topo, Arc::new(MockScheme::from_seed(0)));
        agent.malicious = malicious;
        agent
    }

    fn requests(n: u64, offset: u64) -> Vec<PlanRequest> {
        (0..n)
            .map(|i| PlanRequest {
                id: VehicleId::new(offset + i),
                descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(offset + i)),
                movement: MovementId::new((((offset + i) * 7) % 16) as u16),
                position_s: 40.0 * i as f64,
                speed: 15.0,
            })
            .collect()
    }

    fn incident(reporter: u64, suspect: u64) -> IncidentReport {
        IncidentReport {
            reporter: VehicleId::new(reporter),
            suspect: VehicleId::new(suspect),
            evidence: Observation {
                target: VehicleId::new(suspect),
                position: Vec2::new(5.0, 5.0),
                speed: 0.0,
                time: 1.0,
            },
            block_index: 0,
        }
    }

    #[test]
    fn honest_window_broadcasts_clean_block() {
        let mut a = agent(false);
        let actions = a.on_window(&requests(3, 0), 0.0);
        let [ImuAction::Broadcast(block)] = actions.as_slice() else {
            panic!("expected broadcast");
        };
        assert_eq!(block.plans().len(), 3);
        assert!(nwade_aim::find_conflicts(block.plans(), a.manager().topology(), 0.5).is_empty());
    }

    #[test]
    fn malicious_window_emits_conflicting_block_once() {
        let mut a = agent(true);
        a.corrupt_next_block = true;
        let actions = a.on_window(&requests(8, 0), 0.0);
        let [ImuAction::Broadcast(block)] = actions.as_slice() else {
            panic!("expected broadcast");
        };
        assert!(
            !nwade_aim::find_conflicts(block.plans(), a.manager().topology(), 0.5).is_empty(),
            "block should carry conflicting plans"
        );
        assert!(a.corruption_emitted);
        // The next window is clean again.
        let actions = a.on_window(&requests(4, 100), 10.0);
        let [ImuAction::Broadcast(block)] = actions.as_slice() else {
            panic!()
        };
        assert!(nwade_aim::find_conflicts(block.plans(), a.manager().topology(), 0.5).is_empty());
    }

    #[test]
    fn malicious_manager_shields_colluder() {
        let mut a = agent(true);
        a.shielded.insert(VehicleId::new(9));
        let actions = a.on_incident_report(&incident(0, 9), &[], &HashSet::new(), 1.0);
        assert!(matches!(
            actions.as_slice(),
            [ImuAction::Dismiss { reporter, suspect }]
                if reporter.raw() == 0 && suspect.raw() == 9
        ));
    }

    #[test]
    fn malicious_manager_confirms_colluder_false_report() {
        let mut a = agent(true);
        let mut colluders = HashSet::new();
        colluders.insert(VehicleId::new(7));
        let actions = a.on_incident_report(&incident(7, 3), &[], &colluders, 1.0);
        assert!(matches!(
            actions.as_slice(),
            [ImuAction::Alert { suspect, .. }] if suspect.raw() == 3
        ));
    }

    #[test]
    fn malicious_manager_ignores_votes() {
        let mut a = agent(true);
        assert!(a
            .on_verify_response(0, VehicleId::new(1), true, true, &[], 1.0)
            .is_empty());
    }

    #[test]
    fn honest_manager_runs_normal_verification() {
        let mut a = agent(false);
        let watchers: Vec<VehicleId> = (1..8).map(VehicleId::new).collect();
        let actions = a.on_incident_report(&incident(0, 9), &watchers, &HashSet::new(), 1.0);
        assert!(matches!(actions.as_slice(), [ImuAction::Poll { .. }]));
    }
}
