//! [`NwadeManager`]: the intersection-manager-side protocol engine.
//!
//! Wraps an AIM scheduler with NWADE's block packaging, report
//! verification (two disjoint watcher groups) and evacuation planning.
//! Like [`crate::VehicleGuard`] it performs no I/O: handlers return
//! [`ManagerAction`]s for the host to execute.

use crate::config::NwadeConfig;
use crate::fsm::im::{ImEvent, ImState};
use crate::messages::IncidentReport;
use crate::persist::Ledger;
use crate::verify::report::{ReportDecision, ReportVerification};
use nwade_aim::evacuation::{EvacuationConfig, EvacuationPlanner};
use nwade_aim::{
    find_conflicts, occupancy_into, occupancy_of, reserve_checked, Occupancy, PlanRequest,
    ReservationTable, Scheduler, TravelPlan,
};
use nwade_chain::{Block, BlockPackager, ShardAnchor};
use nwade_crypto::{Digest, SignatureScheme};
use nwade_geometry::Vec2;
use nwade_intersection::Topology;
use nwade_traffic::{VehicleDescriptor, VehicleId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What the manager wants its host to do.
#[derive(Debug, Clone)]
pub enum ManagerAction {
    /// Broadcast this block to every vehicle.
    BroadcastBlock(Block),
    /// Poll these watchers about `suspect`.
    PollWatchers {
        /// Correlates the responses.
        request_id: u64,
        /// The accused vehicle.
        suspect: VehicleId,
        /// The group to poll.
        group: Vec<VehicleId>,
        /// The suspect's published plan, forwarded so every watcher can
        /// compute the expected status.
        plan: Option<Box<TravelPlan>>,
    },
    /// Tell `reporter` the alarm about `suspect` was false.
    Dismiss {
        /// The reporting vehicle.
        reporter: VehicleId,
        /// The cleared suspect.
        suspect: VehicleId,
    },
    /// Broadcast the evacuation alert: `suspect` is confirmed malicious.
    EvacuationAlert {
        /// The confirmed malicious vehicle.
        suspect: VehicleId,
        /// Its identifiable features.
        descriptor: VehicleDescriptor,
        /// Its last reported position.
        location: Vec2,
    },
}

/// One in-flight report verification.
#[derive(Clone)]
struct PendingVerification {
    verification: ReportVerification,
    request_id: u64,
    evidence_location: Vec2,
    /// Everyone who reported this suspect while verification ran; they
    /// all receive the outcome (otherwise they time out and escalate).
    reporters: Vec<VehicleId>,
}

/// What [`publish_filter`] makes of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredBatch {
    /// The batch plans that may be published, in batch order.
    pub kept: Vec<TravelPlan>,
    /// The vehicle of each dropped plan, in the order the plans were
    /// dropped; the manager releases their reservations in this order.
    pub dropped: Vec<VehicleId>,
}

/// The manager's publish filter, from scratch. Each round merges `batch`
/// into the `published` plans by vehicle id (a vehicle's last plan in the
/// batch wins), runs [`find_conflicts`] over the merged set in vehicle-id
/// order, and drops every batch plan a conflict pair names (of a vehicle
/// listed twice, the first of its plans still in the batch). Rounds
/// repeat until one finds no conflict, drops nothing, or empties the
/// batch.
///
/// The fallback of [`NwadeManager`]'s incremental filter, and the oracle
/// it is tested against. A round drops only batch plans that conflict
/// with another plan of the merged set, so when no batch plan does, the
/// whole batch is kept and nothing is released, whatever conflicts the
/// published plans have among themselves.
pub fn publish_filter(
    published: &BTreeMap<VehicleId, TravelPlan>,
    mut batch: Vec<TravelPlan>,
    topology: &Topology,
    gap: f64,
) -> FilteredBatch {
    let mut dropped = Vec::new();
    loop {
        let mut merged = published.clone();
        for p in &batch {
            merged.insert(p.id(), p.clone());
        }
        let merged_plans: Vec<TravelPlan> = merged.into_values().collect();
        let conflicts = find_conflicts(&merged_plans, topology, gap);
        if conflicts.is_empty() {
            return FilteredBatch {
                kept: batch,
                dropped,
            };
        }
        let before = batch.len();
        for (a, b) in &conflicts {
            for id in [a, b] {
                if let Some(pos) = batch.iter().position(|p| p.id() == *id) {
                    dropped.push(batch.remove(pos).id());
                }
            }
        }
        if batch.len() == before || batch.is_empty() {
            // Conflict among already-published plans (cannot happen for
            // an honest history) or nothing left to drop.
            return FilteredBatch {
                kept: batch,
                dropped,
            };
        }
    }
}

/// The manager-side engine.
///
/// `Clone` deep-copies everything — scheduler (via
/// [`Scheduler::clone_box`]), packager, pending verifications — so a
/// forensic world snapshot resumes from an independent manager whose
/// behaviour is bit-identical to the original.
#[derive(Clone)]
pub struct NwadeManager {
    topology: Arc<Topology>,
    config: NwadeConfig,
    state: ImState,
    scheduler: Box<dyn Scheduler + Send>,
    packager: BlockPackager,
    evacuation: EvacuationPlanner,
    pending: HashMap<VehicleId, PendingVerification>,
    confirmed: Vec<VehicleId>,
    false_reporters: HashMap<VehicleId, u32>,
    next_request_id: u64,
    /// The latest published plan per vehicle, used to pre-run the
    /// vehicle-side conflict check before signing a block. Ordered by
    /// vehicle id: the publish filter hands these plans to
    /// `find_conflicts` in map order, and which plans it drops depends
    /// on that order, so it must be the same in every process.
    published: BTreeMap<VehicleId, TravelPlan>,
    /// Recent blocks kept for serving vehicle block requests (§IV-B1:
    /// "a vehicle can request the blocks from neighboring vehicles or
    /// from the intersection manager").
    recent_blocks: std::collections::VecDeque<Block>,
    /// Latest observed chain tip per neighbour shard, drained into the
    /// next block's anchor section (shard-ID order keeps it
    /// deterministic). Conversational: not persisted, dropped on
    /// restart — neighbours re-announce their tips continuously.
    pending_anchors: BTreeMap<u32, Digest>,
    /// Fencing epoch stamped into every block this manager seals (as a
    /// [`crate::replica::FENCE_SHARD`] anchor). 0 for the original
    /// primary; a promoted standby runs at the incremented epoch, which
    /// vehicle guards ratchet on so a fenced-off ex-primary's late
    /// blocks are rejected. Part of [`NwadeManager::durable_state`].
    fencing_epoch: u64,
}

impl std::fmt::Debug for NwadeManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NwadeManager")
            .field("state", &self.state)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl NwadeManager {
    /// Creates a manager around a scheduler and a signing scheme.
    ///
    /// # Panics
    ///
    /// Panics when `config` is invalid.
    pub fn new(
        topology: Arc<Topology>,
        scheduler: Box<dyn Scheduler + Send>,
        signer: Arc<dyn SignatureScheme>,
        config: NwadeConfig,
    ) -> Self {
        config.validate().expect("NWADE config must be valid");
        NwadeManager {
            evacuation: EvacuationPlanner::new(
                topology.clone(),
                nwade_aim::SchedulerConfig::default(),
                EvacuationConfig::default(),
            ),
            topology,
            config,
            state: ImState::Standby,
            scheduler,
            packager: BlockPackager::new(signer),
            pending: HashMap::new(),
            confirmed: Vec::new(),
            false_reporters: HashMap::new(),
            next_request_id: 0,
            published: BTreeMap::new(),
            recent_blocks: std::collections::VecDeque::new(),
            pending_anchors: BTreeMap::new(),
            fencing_epoch: 0,
        }
    }

    /// The fencing epoch stamped into blocks this manager seals.
    pub fn fencing_epoch(&self) -> u64 {
        self.fencing_epoch
    }

    /// Moves this manager to a new fencing epoch (standby promotion).
    /// Epochs only ratchet upward; lowering is a logic error.
    pub fn set_fencing_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch >= self.fencing_epoch, "fencing epochs only ratchet");
        self.fencing_epoch = epoch;
    }

    /// Records a neighbour shard's current chain tip for anchoring into
    /// the next published block (latest observation per shard wins).
    pub fn note_neighbor_tip(&mut self, shard: u32, tip: Digest) {
        self.pending_anchors.insert(shard, tip);
    }

    /// Seeds a handed-off reporter's false-alarm history (§IV-B2 iii)
    /// so a squelched false reporter stays squelched when it crosses
    /// into this intersection. Histories only ratchet upward — a
    /// neighbour's record never erases locally observed strikes.
    pub fn note_reporter_history(&mut self, reporter: VehicleId, count: u32) {
        if count == 0 {
            return;
        }
        let entry = self.false_reporters.entry(reporter).or_insert(0);
        *entry = (*entry).max(count);
    }

    fn remember_block(&mut self, block: &Block) {
        self.recent_blocks.push_back(block.clone());
        while self.recent_blocks.len() > self.config.recent_block_retention {
            self.recent_blocks.pop_front();
        }
    }

    /// Every retained block, oldest first: the newest
    /// [`NwadeConfig::recent_block_retention`] sealed blocks.
    pub fn retained_blocks(&self) -> &std::collections::VecDeque<Block> {
        &self.recent_blocks
    }

    /// Recent blocks starting at `from_index`, for answering a vehicle's
    /// block request — at most
    /// [`NwadeConfig::block_backfill_limit`] of them.
    pub fn blocks_from(&self, from_index: u64) -> Vec<Block> {
        self.recent_blocks
            .iter()
            .filter(|b| b.index() >= from_index)
            .take(self.config.block_backfill_limit)
            .cloned()
            .collect()
    }

    /// Brings the manager back after an outage. The chain and the
    /// published-plan ledger are durable (rebuilt from persisted blocks),
    /// but everything conversational is not: in-flight report
    /// verifications died with the process, so they are dropped rather
    /// than resumed against watcher groups that have long since moved on.
    /// Confirmed threats and the false-reporter ledger are part of the
    /// durable record and survive.
    pub fn restart(&mut self) {
        self.pending.clear();
        self.pending_anchors.clear();
        self.state = ImState::Standby;
    }

    /// Drops batch plans that would fail the vehicle-side conflict check
    /// against the published plan set (rare: the saturated-intersection
    /// park fallback can strand a vehicle in a cell another plan crosses).
    /// Dropped vehicles keep their previous plan and are re-planned in a
    /// later window; an honest manager must never sign a block its own
    /// vehicles would reject.
    ///
    /// The filter is incremental. The from-scratch filter,
    /// [`publish_filter`], keeps the whole batch exactly when no batch
    /// plan conflicts with another batch plan or with a published plan
    /// the batch does not re-plan; [`NwadeManager::batch_is_clean`]
    /// checks just those pairs, more strictly than the merge. Only when it
    /// finds a conflict does [`publish_filter`] run to decide what to
    /// drop.
    fn drop_unpublishable(&mut self, plans: Vec<TravelPlan>) -> Vec<TravelPlan> {
        if self.batch_is_clean(&plans) {
            return plans;
        }
        let filtered = publish_filter(
            &self.published,
            plans,
            &self.topology,
            self.config.conflict_gap,
        );
        for vehicle in &filtered.dropped {
            self.scheduler.release(*vehicle);
        }
        filtered.kept
    }

    /// `true` when `plans` conflict neither with each other nor with any
    /// published plan they do not re-plan. The batch is booked into a
    /// table of its own, which each such published plan then probes;
    /// nothing is cloned. Every plan of the batch is booked, also a
    /// vehicle's earlier plan that the merge would replace, so the check
    /// is stricter than [`publish_filter`]'s first round.
    fn batch_is_clean(&self, plans: &[TravelPlan]) -> bool {
        let gap = self.config.conflict_gap;
        let occupancies: Vec<Occupancy> = plans
            .iter()
            .map(|p| occupancy_of(self.topology.movement(p.movement()), p.profile()))
            .collect();
        let mut table = ReservationTable::new();
        if !reserve_checked(&mut table, plans, &occupancies, gap).is_empty() {
            return false;
        }
        let mut replanned: Vec<VehicleId> = plans.iter().map(TravelPlan::id).collect();
        replanned.sort_unstable();
        let mut occupancy = Occupancy::new();
        self.published
            .values()
            .filter(|p| replanned.binary_search(&p.id()).is_err())
            .all(|p| {
                occupancy_into(
                    self.topology.movement(p.movement()),
                    p.profile(),
                    &mut occupancy,
                );
                table.is_free(&occupancy, gap, None)
            })
    }

    fn record_published(&mut self, plans: &[TravelPlan]) {
        for p in plans {
            self.published.insert(p.id(), p.clone());
        }
    }

    /// Adopts a committed window block instead of re-running the window
    /// (WAL replay: warm recovery and the hot standby). The effects are
    /// [`NwadeManager::on_window`]'s, in its order: every plan booked in
    /// block order, the publish filter's drops released, the plans
    /// recorded as published, the block made the chain tip and retained,
    /// and old reservations collected. Nothing is scheduled or signed.
    ///
    /// `requests` are the window's logged requests. The scheduler plans
    /// each request once, so every request the block has no plan for was
    /// dropped by the publish filter.
    ///
    /// # Errors
    ///
    /// Returns why `block` cannot be this manager's next block for
    /// `requests`; the manager is then unchanged.
    pub(crate) fn adopt_window(
        &mut self,
        requests: &[PlanRequest],
        block: &Block,
    ) -> Result<(), String> {
        let dropped = self.check_adoptable(requests, block)?;
        self.apply_block(block, &dropped);
        self.scheduler
            .collect_garbage(block.timestamp() - self.config.reservation_gc_horizon);
        Ok(())
    }

    /// Adopts a committed evacuation block, as
    /// [`NwadeManager::adopt_window`] adopts a window's: the effects are
    /// [`NwadeManager::evacuation_block`]'s, which replaces the published
    /// set wholesale and collects no garbage.
    ///
    /// # Errors
    ///
    /// As [`NwadeManager::adopt_window`].
    pub(crate) fn adopt_evacuation(
        &mut self,
        states: &[PlanRequest],
        block: &Block,
    ) -> Result<(), String> {
        let dropped = self.check_adoptable(states, block)?;
        self.published.clear();
        self.apply_block(block, &dropped);
        Ok(())
    }

    /// Checks that `block` extends this manager's chain and carries its
    /// own Merkle root, and returns the vehicles the publish filter
    /// dropped: each one listed more often in `requests` than the block
    /// has plans for it.
    fn check_adoptable(
        &self,
        requests: &[PlanRequest],
        block: &Block,
    ) -> Result<Vec<VehicleId>, String> {
        let index = block.index();
        if index != self.chain_next_index() || block.prev_hash() != self.chain_tip() {
            return Err(format!(
                "committed block {index} does not extend the replayed chain at height {}",
                self.chain_next_index()
            ));
        }
        if block.plans().is_empty() || block.computed_root() != block.merkle_root() {
            return Err(format!(
                "committed block {index} does not match its Merkle root"
            ));
        }
        let mut surplus: BTreeMap<VehicleId, i64> = BTreeMap::new();
        for r in requests {
            *surplus.entry(r.id).or_default() += 1;
        }
        for p in block.plans() {
            *surplus.entry(p.id()).or_default() -= 1;
        }
        if surplus.values().any(|&n| n < 0) {
            return Err(format!(
                "committed block {index} plans a vehicle its stage did not request"
            ));
        }
        Ok(surplus
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(vehicle, _)| vehicle)
            .collect())
    }

    /// The effects a sealed block had on the manager that sealed it.
    fn apply_block(&mut self, block: &Block, dropped: &[VehicleId]) {
        for plan in block.plans() {
            self.scheduler.book(plan);
        }
        for vehicle in dropped {
            self.scheduler.release(*vehicle);
        }
        self.record_published(block.plans());
        self.packager.restore_tip(block.hash(), block.index() + 1);
        self.remember_block(block);
    }

    /// Current automaton state.
    pub fn state(&self) -> ImState {
        self.state
    }

    /// The topology served.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Vehicles confirmed malicious so far.
    pub fn confirmed_malicious(&self) -> &[VehicleId] {
        &self.confirmed
    }

    /// How many times `reporter` was caught sending false alarms
    /// (§IV-B2 step iii: "record V_x's identity for future reference").
    pub fn false_report_count(&self, reporter: VehicleId) -> u32 {
        self.false_reporters.get(&reporter).copied().unwrap_or(0)
    }

    fn step_fsm(&mut self, event: ImEvent) {
        if let Ok(next) = self.state.step(event) {
            self.state = next;
        }
    }

    /// Processes one window of plan requests: schedule, drop
    /// unpublishable plans, record the survivors as published, package
    /// and sign them against the chain tip, and broadcast. Returns `None`
    /// when the window produces no block (no requests, or every plan
    /// deferred).
    pub fn on_window(&mut self, requests: &[PlanRequest], now: f64) -> Option<ManagerAction> {
        if requests.is_empty() {
            return None;
        }
        self.step_fsm(ImEvent::RequestsReceived);
        let plans = self.scheduler.schedule(requests, now);
        let plans = self.drop_unpublishable(plans);
        self.step_fsm(ImEvent::PlansGenerated);
        if plans.is_empty() {
            // Every plan was deferred; no block this window.
            self.step_fsm(ImEvent::BlockPackaged);
            self.step_fsm(ImEvent::BlockDisseminated);
            return None;
        }
        self.record_published(&plans);
        // Drain the neighbour tips only when a block will actually carry
        // them; deferred windows leave them pending for the next one.
        let mut anchors: Vec<ShardAnchor> = std::mem::take(&mut self.pending_anchors)
            .into_iter()
            .map(|(shard, tip)| ShardAnchor { shard, tip })
            .collect();
        if self.fencing_epoch > 0 {
            // FENCE_SHARD > every real shard id, so pushing keeps the
            // shard-sorted anchor order.
            anchors.push(crate::replica::fence_anchor(self.fencing_epoch));
        }
        let root = Block::root_of(&plans);
        let block = self
            .packager
            .package_rooted_anchored(plans, root, now, anchors);
        self.remember_block(&block);
        self.step_fsm(ImEvent::BlockPackaged);
        self.step_fsm(ImEvent::BlockDisseminated);
        self.scheduler
            .collect_garbage(block.timestamp() - self.config.reservation_gc_horizon);
        Some(ManagerAction::BroadcastBlock(block))
    }

    /// Handles an incident report: starts round-1 verification with a
    /// watcher group drawn from `nearby_watchers` (vehicles around the
    /// suspect, excluding suspect and reporter).
    pub fn on_incident_report(
        &mut self,
        report: &IncidentReport,
        nearby_watchers: &[VehicleId],
        _now: f64,
    ) -> Vec<ManagerAction> {
        // §IV-B2 (iii): reporters recorded for repeated false alarms
        // lose credibility; their reports no longer start verifications
        // (watchers near a real threat will report it independently).
        if self.false_report_count(report.reporter) >= 3 {
            return Vec::new();
        }
        if self.confirmed.contains(&report.suspect) {
            // Already confirmed: re-issue the alert so this reporter does
            // not wait for a response that never comes.
            return vec![ManagerAction::EvacuationAlert {
                suspect: report.suspect,
                descriptor: VehicleDescriptor::default(),
                location: report.evidence.position,
            }];
        }
        if let Some(pending) = self.pending.get_mut(&report.suspect) {
            self.state = match self.state.step(ImEvent::IncidentReportReceived) {
                Ok(next) => next,
                Err(_) => self.state,
            };
            pending.reporters.push(report.reporter);
            return Vec::new(); // verification already running
        }
        self.step_fsm(ImEvent::IncidentReportReceived);
        let mut verification = ReportVerification::new(report.reporter, report.suspect);
        let group: Vec<VehicleId> = nearby_watchers
            .iter()
            .copied()
            .filter(|v| *v != report.suspect && *v != report.reporter)
            .take(self.config.verification_group_size)
            .collect();
        if group.is_empty() {
            // Single witness, nobody to cross-check: trust the report for
            // safety and evacuate.
            return self.confirm(report.suspect, report.evidence.position);
        }
        verification.begin_round(&group);
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        self.pending.insert(
            report.suspect,
            PendingVerification {
                verification,
                request_id,
                evidence_location: report.evidence.position,
                reporters: vec![report.reporter],
            },
        );
        let plan = self.published.get(&report.suspect).cloned().map(Box::new);
        vec![ManagerAction::PollWatchers {
            request_id,
            suspect: report.suspect,
            group,
            plan,
        }]
    }

    fn confirm(&mut self, suspect: VehicleId, location: Vec2) -> Vec<ManagerAction> {
        self.step_fsm(ImEvent::ThreatConfirmed);
        self.confirmed.push(suspect);
        self.pending.remove(&suspect);
        // The alert carries the suspect's identifiable features (§IV-B5);
        // its published plan is the authoritative source.
        let descriptor = self
            .published
            .get(&suspect)
            .map(|p| p.descriptor().clone())
            .unwrap_or_default();
        vec![ManagerAction::EvacuationAlert {
            suspect,
            descriptor,
            location,
        }]
    }

    /// Handles a watcher's verify-response. `fresh_candidates` are
    /// vehicles currently near the suspect, used to draw the disjoint
    /// round-2 group.
    pub fn on_verify_response(
        &mut self,
        request_id: u64,
        suspect: VehicleId,
        observed: bool,
        abnormal: bool,
        fresh_candidates: &[VehicleId],
        _now: f64,
    ) -> Vec<ManagerAction> {
        let Some(pending) = self.pending.get_mut(&suspect) else {
            return Vec::new(); // stale response
        };
        if pending.request_id != request_id {
            return Vec::new();
        }
        let was_round1 = pending.verification.round() == 1;
        let decision = if observed {
            pending.verification.record_vote(abnormal)
        } else {
            pending.verification.record_abstain()
        };
        match decision {
            ReportDecision::Pending => {
                if was_round1 && pending.verification.round() == 2 {
                    // Round 1 confirmed: draw the disjoint second group.
                    let group = pending.verification.second_group(fresh_candidates);
                    let group: Vec<VehicleId> = group
                        .into_iter()
                        .take(self.config.verification_group_size)
                        .collect();
                    if group.is_empty() {
                        // Nobody fresh to double-check with: act on round 1.
                        let location = pending.evidence_location;
                        return self.confirm(suspect, location);
                    }
                    pending.verification.begin_round(&group);
                    let request_id = self.next_request_id;
                    self.next_request_id += 1;
                    pending.request_id = request_id;
                    let plan = self.published.get(&suspect).cloned().map(Box::new);
                    return vec![ManagerAction::PollWatchers {
                        request_id,
                        suspect,
                        group,
                        plan,
                    }];
                }
                Vec::new()
            }
            ReportDecision::Confirmed => {
                let location = pending.evidence_location;
                self.confirm(suspect, location)
            }
            ReportDecision::FalseAlarm => {
                let pending = self.pending.remove(&suspect).expect("present");
                let original = pending.verification.reporter();
                *self.false_reporters.entry(original).or_insert(0) += 1;
                self.step_fsm(ImEvent::ReportDismissed);
                // Every reporter of this suspect gets the outcome.
                let mut seen = std::collections::HashSet::new();
                pending
                    .reporters
                    .iter()
                    .filter(|r| seen.insert(**r))
                    .map(|&reporter| ManagerAction::Dismiss { reporter, suspect })
                    .collect()
            }
        }
    }

    /// Generates evacuation plans around the confirmed threats and
    /// packages them on the same blockchain (§IV-B5).
    pub fn evacuation_block(
        &mut self,
        vehicle_states: &[PlanRequest],
        threats: &[Vec2],
        now: f64,
    ) -> Option<ManagerAction> {
        if vehicle_states.is_empty() {
            return None;
        }
        let plans: Vec<TravelPlan> = self.evacuation.plan(vehicle_states, threats, now);
        // Re-book the evacuation plans in the scheduler so later normal
        // scheduling respects them.
        for plan in &plans {
            self.scheduler.book(plan);
        }
        // Evacuation replans every vehicle, so the published set is
        // replaced wholesale.
        self.published.clear();
        let plans = self.drop_unpublishable(plans);
        if plans.is_empty() {
            return None;
        }
        self.record_published(&plans);
        let anchors = if self.fencing_epoch > 0 {
            vec![crate::replica::fence_anchor(self.fencing_epoch)]
        } else {
            Vec::new()
        };
        let root = Block::root_of(&plans);
        let block = self
            .packager
            .package_rooted_anchored(plans, root, now, anchors);
        self.remember_block(&block);
        Some(ManagerAction::BroadcastBlock(block))
    }

    /// Re-signs the newest sealed block under the current fencing epoch
    /// without changing its semantic content (index, timestamp, plans,
    /// Merkle root, neighbour anchors). This is the promotion step that
    /// closes the split-brain window: the re-sealed block's hash differs
    /// from the plain-epoch original a zombie primary also holds, so any
    /// late block the zombie chains onto the old hash can never link
    /// into the fleet's chain, and its stale epoch is rejected outright.
    /// Returns `None` when there is no sealed block to re-sign.
    pub fn reseal_tip_with_fence(&mut self) -> Option<Block> {
        let old = self.recent_blocks.back()?.clone();
        self.packager.restore_tip(old.prev_hash(), old.index());
        let mut anchors: Vec<ShardAnchor> = old
            .anchors()
            .iter()
            .filter(|a| a.shard != crate::replica::FENCE_SHARD)
            .copied()
            .collect();
        if self.fencing_epoch > 0 {
            anchors.push(crate::replica::fence_anchor(self.fencing_epoch));
        }
        let block = self.packager.package_rooted_anchored(
            old.plans().to_vec(),
            old.merkle_root(),
            old.timestamp(),
            anchors,
        );
        *self.recent_blocks.back_mut()? = block.clone();
        Some(block)
    }

    /// Releases a vehicle's scheduler reservations (it left the area).
    pub fn release_vehicle(&mut self, vehicle: VehicleId) {
        self.scheduler.release(vehicle);
        self.published.remove(&vehicle);
    }

    /// Index the next published block will carry (the durable chain
    /// height).
    pub fn chain_next_index(&self) -> u64 {
        self.packager.next_index()
    }

    /// Hash the next published block will point at (the durable chain
    /// tip `h_{i-1}`).
    pub fn chain_tip(&self) -> nwade_crypto::Digest {
        self.packager.prev_hash()
    }

    /// The report ledger: the verification-poll id counter, the
    /// confirmed vehicles and the false-alarm counts.
    pub fn ledger(&self) -> Ledger {
        let mut false_reporters: Vec<(VehicleId, u32)> =
            self.false_reporters.iter().map(|(v, n)| (*v, *n)).collect();
        false_reporters.sort_unstable();
        Ledger {
            next_request_id: self.next_request_id,
            confirmed: self.confirmed.clone(),
            false_reporters,
        }
    }

    /// Applies a ledger change that [`Ledger::since`] computed on the
    /// manager that made it (WAL replay).
    pub fn apply_ledger(&mut self, change: &Ledger) {
        self.next_request_id = change.next_request_id;
        self.confirmed.extend_from_slice(&change.confirmed);
        self.false_reporters
            .extend(change.false_reporters.iter().copied());
    }

    /// Captures the durable state a [`crate::persist`] snapshot records:
    /// chain tip, scheduler reservations, published-plan ledger,
    /// confirmed-threat and false-reporter records, recent blocks.
    /// Conversational state (FSM phase, in-flight verifications) is
    /// deliberately excluded — it does not survive a restart either way.
    pub fn durable_state(&self) -> crate::persist::DurableState {
        let Ledger {
            next_request_id,
            confirmed,
            false_reporters,
        } = self.ledger();
        crate::persist::DurableState {
            prev_hash: self.packager.prev_hash(),
            next_index: self.packager.next_index(),
            next_request_id,
            fencing_epoch: self.fencing_epoch,
            scheduler: self.scheduler.export_state(),
            published: self.published.values().cloned().collect(),
            confirmed,
            false_reporters,
            recent_blocks: self.recent_blocks.iter().cloned().collect(),
        }
    }

    /// Restores a snapshot taken by [`NwadeManager::durable_state`] into
    /// this (freshly constructed) manager. Returns `false` — leaving the
    /// scheduler untouched — when the snapshot's scheduler state is
    /// malformed; the caller then falls back to a cold restart.
    pub fn restore_durable(&mut self, state: &crate::persist::DurableState) -> bool {
        if !self.scheduler.import_state(&state.scheduler) {
            return false;
        }
        self.packager.restore_tip(state.prev_hash, state.next_index);
        self.next_request_id = state.next_request_id;
        self.fencing_epoch = state.fencing_epoch;
        self.published = state
            .published
            .iter()
            .map(|p| (p.id(), p.clone()))
            .collect();
        self.confirmed = state.confirmed.clone();
        self.false_reporters = state.false_reporters.iter().copied().collect();
        self.recent_blocks = state.recent_blocks.iter().cloned().collect();
        self.pending.clear();
        self.pending_anchors.clear();
        self.state = ImState::Standby;
        true
    }

    /// The threat cleared (malicious vehicle left / stopped): begin
    /// recovery.
    pub fn on_threat_cleared(&mut self) {
        self.step_fsm(ImEvent::ThreatCleared);
    }

    /// Recovery finished: back to normal scheduling.
    pub fn on_recovery_complete(&mut self) {
        self.step_fsm(ImEvent::RecoveryComplete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Observation;
    use nwade_aim::{ReservationScheduler, SchedulerConfig};
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn manager() -> NwadeManager {
        let topo = Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ));
        let scheduler = Box::new(ReservationScheduler::new(
            topo.clone(),
            SchedulerConfig::default(),
        ));
        NwadeManager::new(
            topo,
            scheduler,
            Arc::new(MockScheme::from_seed(9)),
            NwadeConfig::default(),
        )
    }

    fn request(id: u64) -> PlanRequest {
        PlanRequest {
            id: VehicleId::new(id),
            descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
            movement: MovementId::new(((id * 3) % 16) as u16),
            position_s: 0.0,
            speed: 15.0,
        }
    }

    fn incident(reporter: u64, suspect: u64) -> IncidentReport {
        IncidentReport {
            reporter: VehicleId::new(reporter),
            suspect: VehicleId::new(suspect),
            evidence: Observation {
                target: VehicleId::new(suspect),
                position: Vec2::new(10.0, 10.0),
                speed: 0.0,
                time: 5.0,
            },
            block_index: 0,
        }
    }

    fn ids(range: std::ops::Range<u64>) -> Vec<VehicleId> {
        range.map(VehicleId::new).collect()
    }

    #[test]
    fn window_produces_broadcastable_block() {
        let mut m = manager();
        let action = m.on_window(&[request(0), request(1)], 0.0).expect("block");
        let ManagerAction::BroadcastBlock(block) = action else {
            panic!("expected a block broadcast");
        };
        assert_eq!(block.index(), 0);
        assert_eq!(block.plans().len(), 2);
        assert_eq!(m.state(), ImState::Standby, "back to standby");
        assert!(m.on_window(&[], 1.0).is_none());
    }

    #[test]
    fn report_starts_watcher_poll() {
        let mut m = manager();
        let actions = m.on_incident_report(&incident(0, 9), &ids(1..8), 5.0);
        let [ManagerAction::PollWatchers { suspect, group, .. }] = actions.as_slice() else {
            panic!("expected a poll, got {actions:?}");
        };
        assert_eq!(suspect.raw(), 9);
        assert_eq!(group.len(), 5, "capped at the configured group size");
        assert!(!group.contains(&VehicleId::new(9)));
        assert!(!group.contains(&VehicleId::new(0)));
        assert_eq!(m.state(), ImState::ReportVerification);
    }

    #[test]
    fn duplicate_reports_are_absorbed() {
        let mut m = manager();
        m.on_incident_report(&incident(0, 9), &ids(1..8), 5.0);
        assert!(m
            .on_incident_report(&incident(2, 9), &ids(1..8), 5.1)
            .is_empty());
    }

    #[test]
    fn no_watchers_confirms_immediately() {
        let mut m = manager();
        let actions = m.on_incident_report(&incident(0, 9), &[], 5.0);
        assert!(matches!(
            actions.as_slice(),
            [ManagerAction::EvacuationAlert { suspect, .. }] if suspect.raw() == 9
        ));
        assert_eq!(m.state(), ImState::Evacuation);
        assert_eq!(m.confirmed_malicious(), &[VehicleId::new(9)]);
    }

    #[test]
    fn two_round_confirmation_flow() {
        let mut m = manager();
        let actions = m.on_incident_report(&incident(0, 9), &ids(1..6), 5.0);
        let [ManagerAction::PollWatchers { request_id, .. }] = actions.as_slice() else {
            panic!("poll expected");
        };
        let rid1 = *request_id;
        // Round 1: 3 of 5 say abnormal → round 2 poll of fresh watchers.
        let mut second_poll = None;
        for i in 0..3 {
            let actions = m.on_verify_response(
                rid1,
                VehicleId::new(9),
                true,
                true,
                &ids(1..20),
                5.0 + i as f64,
            );
            if !actions.is_empty() {
                second_poll = Some(actions);
            }
        }
        let second = second_poll.expect("round 2 poll issued");
        let [ManagerAction::PollWatchers {
            request_id: rid2,
            group,
            ..
        }] = second.as_slice()
        else {
            panic!("expected round-2 poll, got {second:?}");
        };
        // Disjoint from round 1 (watchers 1..6) and from suspect/reporter.
        for v in group {
            assert!(v.raw() >= 6 || v.raw() == 0, "round-2 watcher {v}");
            assert_ne!(v.raw(), 0, "reporter excluded");
            assert_ne!(v.raw(), 9, "suspect excluded");
        }
        // Round 2 confirms.
        let mut confirmed = Vec::new();
        for i in 0..3 {
            confirmed =
                m.on_verify_response(*rid2, VehicleId::new(9), true, true, &[], 6.0 + i as f64);
            if !confirmed.is_empty() {
                break;
            }
        }
        assert!(matches!(
            confirmed.as_slice(),
            [ManagerAction::EvacuationAlert { suspect, .. }] if suspect.raw() == 9
        ));
        assert_eq!(m.state(), ImState::Evacuation);
    }

    #[test]
    fn false_alarm_dismissed_and_reporter_recorded() {
        let mut m = manager();
        let actions = m.on_incident_report(&incident(0, 9), &ids(1..6), 5.0);
        let [ManagerAction::PollWatchers { request_id, .. }] = actions.as_slice() else {
            panic!("poll expected");
        };
        let rid = *request_id;
        let mut dismissed = Vec::new();
        for i in 0..3 {
            dismissed =
                m.on_verify_response(rid, VehicleId::new(9), true, false, &[], 5.0 + i as f64);
            if !dismissed.is_empty() {
                break;
            }
        }
        assert!(matches!(
            dismissed.as_slice(),
            [ManagerAction::Dismiss { reporter, suspect }]
                if reporter.raw() == 0 && suspect.raw() == 9
        ));
        assert_eq!(m.false_report_count(VehicleId::new(0)), 1);
        assert_eq!(m.state(), ImState::Standby);
        assert!(m.confirmed_malicious().is_empty());
    }

    #[test]
    fn stale_verify_responses_ignored() {
        let mut m = manager();
        m.on_incident_report(&incident(0, 9), &ids(1..6), 5.0);
        // Wrong request id.
        assert!(m
            .on_verify_response(999, VehicleId::new(9), true, true, &[], 5.0)
            .is_empty());
        // Unknown suspect.
        assert!(m
            .on_verify_response(0, VehicleId::new(55), true, true, &[], 5.0)
            .is_empty());
    }

    #[test]
    fn evacuation_block_is_chained() {
        let mut m = manager();
        let first = m.on_window(&[request(0), request(1)], 0.0).expect("block");
        let ManagerAction::BroadcastBlock(b0) = first else {
            panic!()
        };
        let action = m
            .evacuation_block(&[request(2)], &[Vec2::ZERO], 10.0)
            .expect("evacuation block");
        let ManagerAction::BroadcastBlock(b1) = action else {
            panic!("expected block");
        };
        assert_eq!(b1.index(), b0.index() + 1);
        assert_eq!(b1.prev_hash(), b0.hash());
    }

    #[test]
    fn neighbor_tips_anchor_into_next_block_only() {
        let mut m = manager();
        let tip_a = nwade_crypto::sha256(b"shard-2-tip");
        let tip_b = nwade_crypto::sha256(b"shard-1-tip");
        m.note_neighbor_tip(2, nwade_crypto::sha256(b"stale"));
        m.note_neighbor_tip(2, tip_a); // latest observation wins
        m.note_neighbor_tip(1, tip_b);
        let ManagerAction::BroadcastBlock(b0) =
            m.on_window(&[request(0), request(1)], 0.0).expect("block")
        else {
            panic!("expected block");
        };
        assert_eq!(
            b0.anchors(),
            &[
                ShardAnchor {
                    shard: 1,
                    tip: tip_b
                },
                ShardAnchor {
                    shard: 2,
                    tip: tip_a
                },
            ],
            "anchors drained in shard order"
        );
        // Drained: the next block carries none unless re-announced.
        let ManagerAction::BroadcastBlock(b1) = m.on_window(&[request(2)], 1.0).expect("block")
        else {
            panic!("expected block");
        };
        assert!(b1.anchors().is_empty());
    }

    #[test]
    fn empty_windows_keep_anchors_pending() {
        let mut m = manager();
        m.note_neighbor_tip(4, nwade_crypto::sha256(b"tip"));
        assert!(m.on_window(&[], 0.0).is_none(), "no requests, no block");
        let ManagerAction::BroadcastBlock(b) = m.on_window(&[request(0)], 1.0).expect("block")
        else {
            panic!("expected block");
        };
        assert_eq!(b.anchors().len(), 1, "anchor survived the empty window");
    }

    #[test]
    fn reporter_history_seeds_and_ratchets() {
        let mut m = manager();
        let v = VehicleId::new(42);
        m.note_reporter_history(v, 0);
        assert_eq!(m.false_report_count(v), 0, "zero history is a no-op");
        m.note_reporter_history(v, 2);
        assert_eq!(m.false_report_count(v), 2);
        m.note_reporter_history(v, 1);
        assert_eq!(m.false_report_count(v), 2, "histories never shrink");
        m.note_reporter_history(v, 3);
        assert_eq!(m.false_report_count(v), 3);
        // A seeded squelch suppresses the report like a local one.
        assert!(m
            .on_incident_report(&incident(42, 9), &ids(1..8), 5.0)
            .is_empty());
    }

    #[test]
    fn recovery_cycle() {
        let mut m = manager();
        m.on_incident_report(&incident(0, 9), &[], 5.0); // straight to evacuation
        assert_eq!(m.state(), ImState::Evacuation);
        m.on_threat_cleared();
        assert_eq!(m.state(), ImState::PostEvacuationRecovery);
        m.on_recovery_complete();
        assert_eq!(m.state(), ImState::Standby);
    }
}
