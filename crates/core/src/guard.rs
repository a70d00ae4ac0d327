//! [`VehicleGuard`]: the per-vehicle NWADE protocol engine.
//!
//! The guard owns everything a vehicle needs to make the paper's
//! decisions — its state machine, its chain cache, its global-report
//! bookkeeping and its pending incident report — and exposes pure
//! event-handler methods that return [`GuardAction`]s for the caller (the
//! simulator's vehicle agent, or a real on-board unit) to execute. It
//! performs no I/O itself.

use crate::config::NwadeConfig;
use crate::fsm::vehicle::{VehicleEvent, VehicleState};
use crate::messages::{GlobalClaim, GlobalReport, IncidentReport, Observation};
use crate::retry::{Retrier, RetryDecision, RetryPolicy};
use crate::verify::block::{verify_incoming_block, BlockFailure};
use crate::verify::global::{GlobalAction, GlobalVerifier};
use crate::verify::local::local_verify;
use nwade_aim::TravelPlan;
use nwade_chain::{Block, ChainCache};
use nwade_crypto::SignatureScheme;
use nwade_intersection::Topology;
use nwade_traffic::VehicleId;
use std::collections::HashMap;
use std::sync::Arc;

/// Cryptographic failures tolerated per block index before the guard
/// treats them as a real forgery instead of channel corruption. A
/// bit-flipped copy fails the signature check exactly like a forged
/// block; the difference is that a re-fetched genuine block verifies,
/// while a manager actually signing garbage keeps failing.
const MAX_CRYPTO_FAILURES: u32 = 3;

/// Why a guard entered self-evacuation — decides whether it may ever be
/// re-admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacuationCause {
    /// The manager went silent past the report timeout (Algorithm 2,
    /// lines 11–13). Recoverable: if the manager returns with an intact
    /// chain, the vehicle re-enters the admission flow.
    ImTimeout,
    /// The protocol proved misbehaviour (invalid block, failed global
    /// check, shielding). Terminal: the manager is never trusted again.
    Protocol,
}

/// What the guard wants its host to do.
#[derive(Debug, Clone)]
pub enum GuardAction {
    /// Start (or keep) following this plan.
    FollowPlan(TravelPlan),
    /// Send an incident report to the manager.
    SendIncidentReport(IncidentReport),
    /// Broadcast a global report to all peers.
    BroadcastGlobalReport(GlobalReport),
    /// Ask peers/manager for blocks starting at this index.
    RequestBlocks {
        /// First missing index.
        from_index: u64,
    },
    /// The manager recovered from an outage with a verifiably intact
    /// chain: this timeout-evacuated vehicle rejoins. The host should
    /// clear any evacuation announcements it relayed for this vehicle
    /// and request a fresh travel plan (the old one is stale).
    Readmit,
    /// A received global report was provably false (the accused block is
    /// held and verified) — the false alarm is *detected* (Table II).
    RebutGlobalReport {
        /// The rebutted claim.
        claim: GlobalClaim,
    },
    /// Peer dissents established that the manager's evacuation alert was
    /// staged: ignore it and continue the current plan.
    DisregardAlert {
        /// The falsely accused vehicle.
        suspect: VehicleId,
    },
    /// Stop trusting the manager and evacuate on local autonomy.
    SelfEvacuate,
}

/// An incident report awaiting the manager's verdict, kept whole so it
/// can be resent while the timeout clock runs.
#[derive(Debug, Clone)]
struct PendingReport {
    report: IncidentReport,
    sent: f64,
    retry: Retrier,
}

/// The per-vehicle protocol engine.
#[derive(Clone)]
pub struct VehicleGuard {
    id: VehicleId,
    topology: Arc<Topology>,
    verifier: Arc<dyn SignatureScheme>,
    config: NwadeConfig,
    state: VehicleState,
    cache: ChainCache,
    global: GlobalVerifier,
    own_plan: Option<TravelPlan>,
    /// Outstanding incident report (resent with backoff until the
    /// manager answers or the report timeout escalates).
    pending_report: Option<PendingReport>,
    /// Suspects already reported (avoid re-reporting every tick).
    reported: HashMap<VehicleId, f64>,
    /// Suspects whose reports the manager dismissed, with the dismissal
    /// count — repeated dismissals of an observably deviating vehicle
    /// mean the manager shields it.
    dismissed: HashMap<VehicleId, u32>,
    /// Vehicles known to be evacuating or confirmed threats: their
    /// deviation from stale plans is expected, not reportable.
    known_threats: std::collections::HashSet<VehicleId>,
    /// Set once the guard has decided to self-evacuate.
    evacuating: bool,
    /// Why (only meaningful while `evacuating`).
    evacuation_cause: Option<EvacuationCause>,
    /// The claim broadcast when self-evacuation began (re-broadcast
    /// periodically so late arrivals learn this vehicle is off-plan).
    evacuation_claim: Option<GlobalClaim>,
    /// The outstanding block request: target index and its retry
    /// schedule. Replaces the old fixed 2 s rate limit with bounded
    /// exponential backoff; cleared whenever the cache advances.
    block_retry: Option<(u64, Retrier)>,
    /// Cryptographic/link verification failures per block index —
    /// transient channel corruption is retried, persistent failure is
    /// treated as a forgery (Algorithm 1's reject path).
    crypto_failures: HashMap<u64, u32>,
    /// Highest fencing epoch seen on a fully verified block (see
    /// [`crate::replica`]). Ratchets upward only: once a promoted
    /// standby's block verifies, anything an older manager incarnation
    /// signs is rejected without further inspection.
    fencing_epoch: u64,
    /// Blocks rejected for carrying a stale fencing epoch — each one is
    /// a fenced-off ex-primary caught trying to double-sign.
    fencing_rejections: u64,
}

impl std::fmt::Debug for VehicleGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VehicleGuard")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("blocks", &self.cache.len())
            .finish()
    }
}

impl VehicleGuard {
    /// Creates a guard for vehicle `id`.
    ///
    /// # Panics
    ///
    /// Panics when `config` is invalid.
    pub fn new(
        id: VehicleId,
        topology: Arc<Topology>,
        verifier: Arc<dyn SignatureScheme>,
        config: NwadeConfig,
    ) -> Self {
        config.validate().expect("NWADE config must be valid");
        VehicleGuard {
            id,
            topology,
            verifier,
            cache: ChainCache::new(config.chain_cache_capacity),
            config,
            state: VehicleState::Preparation,
            global: GlobalVerifier::new(),
            own_plan: None,
            pending_report: None,
            reported: HashMap::new(),
            dismissed: HashMap::new(),
            known_threats: std::collections::HashSet::new(),
            evacuating: false,
            evacuation_cause: None,
            evacuation_claim: None,
            block_retry: None,
            crypto_failures: HashMap::new(),
            fencing_epoch: 0,
            fencing_rejections: 0,
        }
    }

    /// Highest fencing epoch this guard has verified (0 until a
    /// promoted standby's first block arrives).
    pub fn fencing_epoch(&self) -> u64 {
        self.fencing_epoch
    }

    /// Stale-epoch blocks rejected — a fenced-off ex-primary's
    /// double-sign attempts this guard refused.
    pub fn fencing_rejections(&self) -> u64 {
        self.fencing_rejections
    }

    /// Emits a block request under bounded exponential backoff, so
    /// gossip storms and lossy channels cannot amplify into request
    /// floods. One logical request is outstanding at a time; asking for
    /// an earlier index restarts the schedule (the need changed), and a
    /// successful cache advance clears it.
    fn request_blocks(&mut self, from_index: u64, now: f64) -> Vec<GuardAction> {
        let salt = self.id.raw() ^ 0xB10C_FE7C;
        let retry = match &mut self.block_retry {
            Some((index, retry)) if *index <= from_index => retry,
            slot => {
                *slot = Some((
                    from_index,
                    Retrier::new(RetryPolicy::block_backfill(), now, salt),
                ));
                &mut slot.as_mut().expect("just set").1
            }
        };
        match retry.poll(now) {
            RetryDecision::Fire(_) => vec![GuardAction::RequestBlocks { from_index }],
            RetryDecision::Wait | RetryDecision::Exhausted => Vec::new(),
        }
    }

    /// The cache advanced: the outstanding block request (if any) is
    /// satisfied or superseded.
    fn note_cache_progress(&mut self) {
        self.block_retry = None;
    }

    /// This vehicle's id.
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// Current automaton state.
    pub fn state(&self) -> VehicleState {
        self.state
    }

    /// The plan currently followed, if any.
    pub fn plan(&self) -> Option<&TravelPlan> {
        self.own_plan.as_ref()
    }

    /// The chain cache.
    pub fn cache(&self) -> &ChainCache {
        &self.cache
    }

    /// Cached blocks starting at `from_index`, for answering a peer's
    /// block request — at most [`NwadeConfig::block_backfill_limit`] of
    /// them, the cap [`crate::NwadeManager::blocks_from`] applies too.
    pub fn blocks_from(&self, from_index: u64) -> Vec<Block> {
        self.cache
            .iter()
            .filter(|b| b.index() >= from_index)
            .take(self.config.block_backfill_limit)
            .cloned()
            .collect()
    }

    /// `true` once the guard has stopped trusting the manager.
    pub fn is_evacuating(&self) -> bool {
        self.evacuating
    }

    /// The claim announced when this guard began self-evacuating, if it
    /// has. Hosts re-broadcast it periodically so vehicles arriving after
    /// the original announcement still learn this vehicle is off-plan.
    pub fn evacuation_claim(&self) -> Option<GlobalClaim> {
        self.evacuation_claim
    }

    fn step_fsm(&mut self, event: VehicleEvent) {
        // The FSM models the protocol's primary mode; events that arrive
        // in states where Fig. 2 has no edge (e.g. a block while waiting
        // for a report response) are absorbed without a mode change.
        if let Ok(next) = self.state.step(event) {
            self.state = next;
        }
    }

    fn enter_self_evacuation(
        &mut self,
        claim: GlobalClaim,
        cause: EvacuationCause,
        now: f64,
    ) -> Vec<GuardAction> {
        if self.evacuating {
            // A proven-misbehaviour cause overrides a recoverable one:
            // once distrust is earned, no outage recovery re-admits.
            if cause == EvacuationCause::Protocol {
                self.evacuation_cause = Some(EvacuationCause::Protocol);
            }
            return Vec::new();
        }
        self.evacuating = true;
        self.evacuation_cause = Some(cause);
        self.state = VehicleState::SelfEvacuation;
        self.evacuation_claim = Some(claim);
        vec![
            GuardAction::SelfEvacuate,
            GuardAction::BroadcastGlobalReport(GlobalReport {
                sender: self.id,
                claim,
                time: now,
            }),
        ]
    }

    /// The vehicle's own collision-avoidance stack forced it off its
    /// plan (hard braking for an obstacle): per §IV-B5, vehicles close to
    /// a threat "should have already detected the malicious vehicle
    /// through their own sensors and started self-evacuation". Announces
    /// itself as off-plan so peers stop holding it to the stale plan.
    pub fn force_self_evacuation(&mut self, now: f64) -> Vec<GuardAction> {
        self.enter_self_evacuation(
            GlobalClaim::AbnormalVehicle { suspect: self.id },
            EvacuationCause::Protocol,
            now,
        )
    }

    /// Why this guard is evacuating (`None` while it is not).
    pub fn evacuation_cause(&self) -> Option<EvacuationCause> {
        if self.evacuating {
            self.evacuation_cause
        } else {
            None
        }
    }

    /// Handles a received block (Algorithm 1 end to end).
    ///
    /// Three robustness layers sit on top of the paper's algorithm:
    ///
    /// * **Transient-corruption tolerance** — a copy whose signature or
    ///   hash link fails is indistinguishable from a forgery, but on a
    ///   faulty channel it is far more likely a bit-flipped copy. The
    ///   guard discards it, re-requests the index, and only takes
    ///   Algorithm 1's reject path (self-evacuation) after
    ///   `MAX_CRYPTO_FAILURES` failures of the *same* index. Validly
    ///   signed blocks with conflicting plans are proof of manager
    ///   misbehaviour — no channel produces a valid signature over
    ///   corrupted plans — and still reject immediately.
    /// * **Outage re-admission** — a guard that evacuated only because
    ///   the manager went silent ([`EvacuationCause::ImTimeout`]) treats
    ///   a fresh, fully verifying broadcast from the manager as proof of
    ///   recovery: it steps the `ImRecovered` FSM edge back into the
    ///   admission flow and emits [`GuardAction::Readmit`].
    /// * **Failover report refresh** — a verified block carrying a
    ///   higher fencing epoch announces a promoted standby. A reporter
    ///   still waiting on the old incarnation re-sends its pending
    ///   report and restarts the report timeout: the in-flight
    ///   verification died with the ex-primary, so holding the original
    ///   deadline would escalate the handover itself into spurious
    ///   self-evacuations.
    pub fn on_block(&mut self, block: &Block, now: f64) -> Vec<GuardAction> {
        if self.evacuating && self.evacuation_cause != Some(EvacuationCause::ImTimeout) {
            return Vec::new(); // manager no longer trusted, ever
        }
        let readmitting = self.evacuating;
        // Gap: ask for the missing prefix before judging this block.
        if let Some(tip) = self.cache.tip() {
            if block.index() > tip.index() + 1 {
                let from_index = tip.index() + 1;
                return self.request_blocks(from_index, now);
            }
            if block.index() <= tip.index() {
                return Vec::new(); // duplicate or stale
            }
        }
        let epoch = crate::replica::block_epoch(block);
        if epoch < self.fencing_epoch {
            // A manager incarnation the fleet already failed over from
            // is still signing: fence it off. Never a channel artifact
            // (corruption cannot *remove* the covered fence anchor and
            // keep the signature valid), so no retry tolerance applies.
            self.fencing_rejections += 1;
            return Vec::new();
        }
        let state_before = self.state;
        if !readmitting {
            self.step_fsm(VehicleEvent::BlockReceived);
        }
        match verify_incoming_block(
            block,
            &mut self.cache,
            self.verifier.as_ref(),
            &self.topology,
            self.config.conflict_gap,
            &self.known_threats,
        ) {
            Ok(()) => {
                let index = block.index();
                self.crypto_failures.remove(&index);
                let failed_over = epoch > self.fencing_epoch;
                self.fencing_epoch = self.fencing_epoch.max(epoch);
                self.note_cache_progress();
                let mut actions = Vec::new();
                if readmitting {
                    // The manager is back and its chain verifies.
                    self.evacuating = false;
                    self.evacuation_cause = None;
                    self.evacuation_claim = None;
                    self.pending_report = None;
                    self.step_fsm(VehicleEvent::ImRecovered);
                    self.step_fsm(VehicleEvent::BlockReceived);
                    actions.push(GuardAction::Readmit);
                }
                if failed_over {
                    if let Some(pending) = &mut self.pending_report {
                        // A higher fencing epoch means the fleet just
                        // failed over: the new manager incarnation
                        // inherits committed state only, so any
                        // in-flight verification of this report died
                        // with the old primary. Restart the report
                        // clock and put the report straight back on
                        // the air instead of timing out against an
                        // answer that can no longer come.
                        pending.sent = now;
                        pending.retry = Retrier::after_initial_send(
                            RetryPolicy::report_submission(self.config.report_timeout),
                            now,
                            self.id.raw() ^ 0x5E4D_0127,
                        );
                        actions.push(GuardAction::SendIncidentReport(pending.report.clone()));
                    }
                }
                self.cache.append(block.clone()).expect("verified link");
                self.step_fsm(VehicleEvent::BlockValid);
                if let Some(plan) = self.cache.plan_for(self.id) {
                    let plan = plan.clone();
                    let fresh = self
                        .own_plan
                        .as_ref()
                        .is_none_or(|p| p.encode() != plan.encode());
                    self.own_plan = Some(plan.clone());
                    // A re-admitted vehicle must not resume its stale
                    // pre-outage plan; it waits for a re-issued one.
                    if fresh && !readmitting {
                        actions.push(GuardAction::FollowPlan(plan));
                    }
                } else if self.own_plan.is_none() && index > 0 && !readmitting {
                    // Still no plan: the block that carried it may have
                    // been lost before this vehicle's window started.
                    // Back-fill recent history from a peer.
                    actions.extend(self.request_blocks(index.saturating_sub(8), now));
                }
                actions
            }
            Err(BlockFailure::Crypto(_) | BlockFailure::Chain(_)) => {
                let failures = self.crypto_failures.entry(block.index()).or_insert(0);
                *failures += 1;
                if *failures < MAX_CRYPTO_FAILURES {
                    // Probably a corrupted copy: drop it, fetch a clean
                    // one, and pretend this block never arrived.
                    self.state = state_before;
                    return self.request_blocks(block.index(), now);
                }
                if readmitting {
                    // Still broken after the outage: stay evacuated.
                    return Vec::new();
                }
                self.step_fsm(VehicleEvent::BlockInvalid);
                self.enter_self_evacuation(
                    GlobalClaim::ConflictingPlans {
                        index: block.index(),
                    },
                    EvacuationCause::Protocol,
                    now,
                )
            }
            Err(_) => {
                if readmitting {
                    // A validly signed conflicting block while waiting
                    // for recovery: the manager is provably misbehaving.
                    self.evacuation_cause = Some(EvacuationCause::Protocol);
                    return Vec::new();
                }
                self.step_fsm(VehicleEvent::BlockInvalid);
                self.enter_self_evacuation(
                    GlobalClaim::ConflictingPlans {
                        index: block.index(),
                    },
                    EvacuationCause::Protocol,
                    now,
                )
            }
        }
    }

    /// Handles a batch of blocks served by a peer (the answer to a
    /// [`GuardAction::RequestBlocks`]): newer blocks extend the chain
    /// through the normal Algorithm 1 path; older blocks back-fill the
    /// cache after standalone cryptographic verification plus the hash
    /// link to the existing history.
    pub fn on_block_response(&mut self, blocks: &[Block], now: f64) -> Vec<GuardAction> {
        if self.evacuating {
            return Vec::new();
        }
        let mut actions = Vec::new();
        let mut sorted: Vec<&Block> = blocks.iter().collect();
        sorted.sort_by_key(|b| b.index());
        // Forward extension first.
        for block in &sorted {
            let extends = self
                .cache
                .tip()
                .is_none_or(|tip| block.index() == tip.index() + 1);
            if extends {
                actions.extend(self.on_block(block, now));
            }
        }
        // Back-fill: walk backwards from the earliest cached block,
        // verifying each block's signature on its own before the hash
        // link admits it.
        for block in sorted.iter().rev() {
            let fits = self
                .cache
                .iter()
                .next()
                .is_some_and(|earliest| block.index() + 1 == earliest.index());
            if !fits {
                continue;
            }
            if self
                .cache
                .verify_block_cached(block, self.verifier.as_ref())
                .is_ok()
                && self.cache.prepend((*block).clone()).is_ok()
            {
                self.note_cache_progress();
            }
        }
        // A back-filled plan is as good as a broadcast one.
        if self.own_plan.is_none() {
            if let Some(plan) = self.cache.plan_for(self.id) {
                let plan = plan.clone();
                self.own_plan = Some(plan.clone());
                actions.push(GuardAction::FollowPlan(plan));
            }
        }
        actions
    }

    /// Handles this tick's sensor observations of neighbours
    /// (Algorithm 2): compares each against its plan from the cache and
    /// reports deviations.
    pub fn on_observations(&mut self, observations: &[Observation], now: f64) -> Vec<GuardAction> {
        if self.evacuating {
            return Vec::new();
        }
        let mut actions = Vec::new();
        for obs in observations {
            if obs.target == self.id || self.known_threats.contains(&obs.target) {
                continue;
            }
            // Re-report a suspect only after a cooldown (retries of the
            // *pending* report are handled by its retrier in `on_tick`).
            if let Some(&t) = self.reported.get(&obs.target) {
                if now - t < self.config.report_timeout * 2.0 {
                    continue;
                }
            }
            let Some(plan) = self.cache.plan_for(obs.target) else {
                continue; // plan not seen yet (could request blocks)
            };
            let verdict = local_verify(
                plan,
                &self.topology,
                obs,
                self.config.position_tolerance,
                self.config.speed_tolerance,
            );
            if verdict.is_deviating() {
                self.reported.insert(obs.target, now);
                if self.dismissed.get(&obs.target).copied().unwrap_or(0) >= 1 {
                    // The manager already dismissed a report about this
                    // observably deviating vehicle: it is shielding the
                    // attacker. Escalate globally and get out.
                    self.known_threats.insert(obs.target);
                    let mut out = self.enter_self_evacuation(
                        GlobalClaim::AbnormalVehicle {
                            suspect: obs.target,
                        },
                        EvacuationCause::Protocol,
                        now,
                    );
                    actions.append(&mut out);
                    continue;
                }
                let block_index = self.cache.tip().map_or(0, Block::index);
                let report = IncidentReport {
                    reporter: self.id,
                    suspect: obs.target,
                    evidence: *obs,
                    block_index,
                };
                if self.pending_report.is_none() {
                    self.pending_report = Some(PendingReport {
                        report: report.clone(),
                        sent: now,
                        retry: Retrier::after_initial_send(
                            RetryPolicy::report_submission(self.config.report_timeout),
                            now,
                            self.id.raw() ^ 0x5E4D_0127,
                        ),
                    });
                }
                self.step_fsm(VehicleEvent::AnomalyDetected);
                self.step_fsm(VehicleEvent::ReportSent);
                actions.push(GuardAction::SendIncidentReport(report));
            }
        }
        actions
    }

    /// Marks a vehicle as a known threat (confirmed by an evacuation
    /// alert or announced by its own global report); its deviation from
    /// stale plans is no longer reportable.
    pub fn note_threat(&mut self, vehicle: VehicleId) {
        self.known_threats.insert(vehicle);
    }

    /// Periodic housekeeping: resends the pending incident report under
    /// its backoff schedule, then applies the report-timeout escalation
    /// (Algorithm 2, lines 11–13).
    pub fn on_tick(&mut self, now: f64) -> Vec<GuardAction> {
        if self.evacuating {
            return Vec::new();
        }
        let Some(pending) = &mut self.pending_report else {
            return Vec::new();
        };
        if now - pending.sent > self.config.report_timeout {
            let suspect = pending.report.suspect;
            self.pending_report = None;
            self.step_fsm(VehicleEvent::ImTimeout);
            return self.enter_self_evacuation(
                GlobalClaim::AbnormalVehicle { suspect },
                EvacuationCause::ImTimeout,
                now,
            );
        }
        // The channel may have eaten the report; resend within the
        // timeout window so a single lost packet does not escalate a
        // local anomaly into a full self-evacuation.
        if let RetryDecision::Fire(_) = pending.retry.poll(now) {
            return vec![GuardAction::SendIncidentReport(pending.report.clone())];
        }
        Vec::new()
    }

    /// The manager dismissed this vehicle's report.
    pub fn on_dismissal(&mut self, suspect: VehicleId) {
        *self.dismissed.entry(suspect).or_insert(0) += 1;
        if self.pending_report.as_ref().map(|p| p.report.suspect) == Some(suspect) {
            self.pending_report = None;
            self.step_fsm(VehicleEvent::AlarmDismissed);
        }
    }

    /// The manager confirmed a threat and is evacuating. Resolves any
    /// pending report about this suspect, and — when this vehicle's own
    /// sensors say the accused vehicle is perfectly compliant — dissents
    /// with a [`GlobalClaim::WrongfulAccusation`] broadcast (the first
    /// line of defence against a compromised manager staging evacuations,
    /// §VI-B).
    pub fn on_evacuation_alert(
        &mut self,
        suspect: VehicleId,
        own_observation: Option<&Observation>,
        now: f64,
    ) -> Vec<GuardAction> {
        if self.pending_report.as_ref().map(|p| p.report.suspect) == Some(suspect) {
            self.pending_report = None;
            self.step_fsm(VehicleEvent::EvacuationOrdered);
        }
        if self.evacuating {
            return Vec::new();
        }
        if let (Some(plan), Some(obs)) = (self.cache.plan_for(suspect), own_observation) {
            let verdict = local_verify(
                plan,
                &self.topology,
                obs,
                self.config.position_tolerance,
                self.config.speed_tolerance,
            );
            if !verdict.is_deviating() {
                return vec![GuardAction::BroadcastGlobalReport(GlobalReport {
                    sender: self.id,
                    claim: GlobalClaim::WrongfulAccusation { suspect },
                    time: now,
                })];
            }
        }
        Vec::new()
    }

    /// A watcher poll from the manager: answer from the cache and the
    /// given observation (or `None` when the suspect is out of sensing
    /// range — answered as "cannot confirm the anomaly"). A watcher whose
    /// cache predates the suspect's plan block uses the plan forwarded
    /// with the poll.
    pub fn answer_verify_request(
        &self,
        suspect: VehicleId,
        observation: Option<&Observation>,
        forwarded_plan: Option<&TravelPlan>,
    ) -> (bool, bool) {
        let plan = self.cache.plan_for(suspect).or(forwarded_plan);
        let (Some(plan), Some(obs)) = (plan, observation) else {
            return (false, false); // abstain: cannot check
        };
        let abnormal = local_verify(
            plan,
            &self.topology,
            obs,
            self.config.position_tolerance,
            self.config.speed_tolerance,
        )
        .is_deviating();
        (true, abnormal)
    }

    /// Handles a peer's global report (Algorithm 3). `suspect_nearby`
    /// tells the guard whether it can sense the accused vehicle itself;
    /// `threshold` is the safety threshold for this vehicle's situation —
    /// §IV-B4 sets it "accordingly" from the local majority quorum, so
    /// the simulator passes a density-dependent value (falling back to
    /// [`NwadeConfig::global_report_threshold`] when in doubt).
    pub fn on_global_report(
        &mut self,
        report: &GlobalReport,
        suspect_nearby: impl Fn(VehicleId) -> bool,
        threshold: usize,
        now: f64,
    ) -> Vec<GuardAction> {
        if self.evacuating || report.sender == self.id {
            return Vec::new();
        }
        // A suspect the manager already confirmed (we received its
        // evacuation alert) is being handled: evacuation plans are out,
        // so peer reports about it must not escalate into panic
        // self-evacuation (§IV-B3 applies when the manager is silent).
        if let GlobalClaim::AbnormalVehicle { suspect } = report.claim {
            if self.known_threats.contains(&suspect) {
                return Vec::new();
            }
        }
        self.step_fsm(VehicleEvent::GlobalReportsReceived);
        let action = self.global.ingest(report, suspect_nearby, threshold.max(1));
        match action {
            GlobalAction::Ignore | GlobalAction::AnalyzePath { .. } => {
                self.step_fsm(VehicleEvent::GlobalCheckPassed);
                Vec::new()
            }
            GlobalAction::DisregardAlert { suspect } => {
                self.step_fsm(VehicleEvent::GlobalCheckPassed);
                vec![GuardAction::DisregardAlert { suspect }]
            }
            GlobalAction::LocalVerify { .. } => {
                // The next sensing tick will re-run Algorithm 2 on the
                // suspect; no protocol action needed now.
                self.step_fsm(VehicleEvent::GlobalCheckPassed);
                Vec::new()
            }
            GlobalAction::VerifyBlock { index } => {
                // Lines 2–5: check the accused block against our own
                // verified copy. Our cached copy passed verification, so
                // if we hold it the accusation is unfounded; if we do not
                // hold it, request it from peers.
                self.step_fsm(VehicleEvent::GlobalCheckPassed);
                if self.cache.block_at(index).is_some() {
                    vec![GuardAction::RebutGlobalReport {
                        claim: report.claim,
                    }]
                } else {
                    self.request_blocks(index, now)
                }
            }
            GlobalAction::SelfEvacuate => {
                // Type-B rebuttal: "conflicting plans" accusations against
                // a block this vehicle holds (and verified on receipt) are
                // provably false no matter how many senders repeat them —
                // "vehicles can simply verify the blockchain" (§VI-B).
                if let GlobalClaim::ConflictingPlans { index } = report.claim {
                    if self.cache.block_at(index).is_some() {
                        self.step_fsm(VehicleEvent::GlobalCheckPassed);
                        return vec![GuardAction::RebutGlobalReport {
                            claim: report.claim,
                        }];
                    }
                }
                self.step_fsm(VehicleEvent::GlobalCheckFailed);
                self.enter_self_evacuation(report.claim, EvacuationCause::Protocol, now)
            }
        }
    }

    /// The vehicle left the modeled area: terminal state, cache dropped
    /// ("it can delete the blockchain after it passes the intersection").
    pub fn on_exit(&mut self) {
        self.step_fsm(VehicleEvent::Exited);
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade_aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig};
    use nwade_chain::{tamper, BlockPackager};
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        topo: Arc<Topology>,
        scheme: Arc<MockScheme>,
        scheduler: ReservationScheduler,
        packager: BlockPackager,
        clock: f64,
        next_vehicle: u64,
    }

    impl World {
        fn new() -> Self {
            let topo = Arc::new(build(
                IntersectionKind::FourWayCross,
                &GeometryConfig::default(),
            ));
            let scheme = Arc::new(MockScheme::from_seed(42));
            World {
                scheduler: ReservationScheduler::new(topo.clone(), SchedulerConfig::default()),
                packager: BlockPackager::new(scheme.clone()),
                topo,
                scheme,
                clock: 0.0,
                next_vehicle: 0,
            }
        }

        fn guard(&self, id: u64) -> VehicleGuard {
            VehicleGuard::new(
                VehicleId::new(id),
                self.topo.clone(),
                self.scheme.clone(),
                NwadeConfig::default(),
            )
        }

        fn plans_for_vehicles(&mut self, n: usize) -> Vec<TravelPlan> {
            (0..n)
                .flat_map(|_| {
                    let id = self.next_vehicle;
                    self.next_vehicle += 1;
                    self.clock += 4.0;
                    self.scheduler.schedule(
                        &[PlanRequest {
                            id: VehicleId::new(id),
                            descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
                            movement: MovementId::new(((id * 3) % 16) as u16),
                            position_s: 0.0,
                            speed: 15.0,
                        }],
                        self.clock,
                    )
                })
                .collect()
        }

        fn block_with_vehicles(&mut self, n: usize) -> Block {
            let plans = self.plans_for_vehicles(n);
            self.packager.package(plans, self.clock)
        }
    }

    #[test]
    fn accepts_honest_block_and_follows_own_plan() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(3); // contains vehicle 0
        let actions = g.on_block(&block, 1.0);
        assert!(matches!(actions.as_slice(), [GuardAction::FollowPlan(p)] if p.id().raw() == 0));
        assert_eq!(g.state(), VehicleState::Following);
        assert_eq!(g.cache().len(), 1);
    }

    #[test]
    fn forged_block_retried_then_rejected_with_global_report() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let evil = tamper::forge_signature(&w.block_with_vehicles(2));
        // First failed copy is treated as channel corruption: the guard
        // discards it and asks for a clean copy instead of panicking
        // into self-evacuation.
        let actions = g.on_block(&evil, 1.0);
        assert!(matches!(
            actions.as_slice(),
            [GuardAction::RequestBlocks { from_index: 0 }]
        ));
        assert!(!g.is_evacuating());
        assert_eq!(g.cache().len(), 0, "corrupted copy not cached");
        // The same index keeps failing: after the tolerance is spent the
        // guard takes Algorithm 1's reject path.
        assert!(g.on_block(&evil, 2.0).is_empty(), "second strike absorbed");
        let actions = g.on_block(&evil, 3.0);
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], GuardAction::SelfEvacuate));
        assert!(matches!(
            actions[1],
            GuardAction::BroadcastGlobalReport(GlobalReport {
                claim: GlobalClaim::ConflictingPlans { .. },
                ..
            })
        ));
        assert!(g.is_evacuating());
        assert_eq!(g.evacuation_cause(), Some(EvacuationCause::Protocol));
        assert_eq!(g.state(), VehicleState::SelfEvacuation);
        // Further blocks are ignored: protocol distrust is terminal.
        let next = w.block_with_vehicles(1);
        assert!(g.on_block(&next, 4.0).is_empty());
    }

    #[test]
    fn corrupted_copy_then_clean_copy_accepted() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(3);
        let mangled = tamper::forge_signature(&block);
        g.on_block(&mangled, 1.0);
        assert!(!g.is_evacuating());
        // A clean copy of the same block (e.g. the duplicate injected by
        // the duplication fault, or a peer's response) verifies normally.
        let actions = g.on_block(&block, 1.5);
        assert!(matches!(actions.as_slice(), [GuardAction::FollowPlan(_)]));
        assert_eq!(g.state(), VehicleState::Following);
        assert_eq!(g.cache().len(), 1);
    }

    #[test]
    fn validly_signed_conflicts_still_reject_immediately() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let honest = w.block_with_vehicles(8);
        let Some(bad_plans) = nwade_aim::corrupt::make_conflicting(honest.plans(), &w.topo, 0.0)
        else {
            panic!("expected crossing traffic among 8 plans");
        };
        let evil = tamper::resign_with_plans(&honest, bad_plans, w.scheme.as_ref());
        // No retry budget for provable misbehaviour: a valid signature
        // over conflicting plans cannot be channel noise.
        let actions = g.on_block(&evil, 1.0);
        assert!(matches!(actions[0], GuardAction::SelfEvacuate));
        assert!(g.is_evacuating());
        assert_eq!(g.evacuation_cause(), Some(EvacuationCause::Protocol));
    }

    #[test]
    fn gap_in_chain_requests_missing_blocks() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let b0 = w.block_with_vehicles(2);
        let _skipped = w.block_with_vehicles(2);
        let b2 = w.block_with_vehicles(2);
        g.on_block(&b0, 0.0);
        let actions = g.on_block(&b2, 1.0);
        assert!(matches!(
            actions.as_slice(),
            [GuardAction::RequestBlocks { from_index: 1 }]
        ));
        assert_eq!(g.cache().len(), 1, "gap block not appended");
    }

    #[test]
    fn duplicate_block_ignored() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let b0 = w.block_with_vehicles(2);
        g.on_block(&b0, 0.0);
        assert!(g.on_block(&b0, 1.0).is_empty());
        assert_eq!(g.cache().len(), 1);
    }

    #[test]
    fn deviating_neighbour_is_reported_once() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(3);
        g.on_block(&block, 0.0);
        // Vehicle 1's plan, observed 50 m off at t=5.
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, speed) = plan1.expected_state(&w.topo, 5.0);
        let obs = Observation {
            target: VehicleId::new(1),
            position: pos + nwade_geometry::Vec2::new(50.0, 0.0),
            speed,
            time: 5.0,
        };
        let actions = g.on_observations(&[obs], 5.0);
        assert!(matches!(
            actions.as_slice(),
            [GuardAction::SendIncidentReport(r)] if r.suspect.raw() == 1 && r.reporter.raw() == 0
        ));
        assert_eq!(g.state(), VehicleState::ReportWaiting);
        // Same tick again: cooldown suppresses the duplicate.
        assert!(g.on_observations(&[obs], 5.1).is_empty());
    }

    #[test]
    fn compliant_neighbour_not_reported() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(3);
        g.on_block(&block, 0.0);
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, speed) = plan1.expected_state(&w.topo, 5.0);
        let obs = Observation {
            target: VehicleId::new(1),
            position: pos,
            speed,
            time: 5.0,
        };
        assert!(g.on_observations(&[obs], 5.0).is_empty());
    }

    #[test]
    fn report_timeout_escalates_to_self_evacuation() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, _) = plan1.expected_state(&w.topo, 5.0);
        let obs = Observation {
            target: VehicleId::new(1),
            position: pos + nwade_geometry::Vec2::new(50.0, 0.0),
            speed: 0.0,
            time: 5.0,
        };
        g.on_observations(&[obs], 5.0);
        // Before the first backoff interval elapses: nothing.
        assert!(g.on_tick(5.2).is_empty());
        // Mid-window the retrier re-submits the same report in case the
        // first copy was lost in the channel.
        let actions = g.on_tick(5.5);
        assert!(matches!(
            actions.as_slice(),
            [GuardAction::SendIncidentReport(r)] if r.suspect.raw() == 1
        ));
        // Past the timeout: self-evacuation + abnormal-vehicle broadcast.
        let actions = g.on_tick(6.2);
        assert!(matches!(actions[0], GuardAction::SelfEvacuate));
        assert!(matches!(
            actions[1],
            GuardAction::BroadcastGlobalReport(GlobalReport {
                claim: GlobalClaim::AbnormalVehicle { suspect },
                ..
            }) if suspect.raw() == 1
        ));
        assert_eq!(g.evacuation_cause(), Some(EvacuationCause::ImTimeout));
    }

    #[test]
    fn im_timeout_evacuee_readmits_on_fresh_block() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, _) = plan1.expected_state(&w.topo, 5.0);
        let obs = Observation {
            target: VehicleId::new(1),
            position: pos + nwade_geometry::Vec2::new(50.0, 0.0),
            speed: 0.0,
            time: 5.0,
        };
        g.on_observations(&[obs], 5.0);
        g.on_tick(6.2); // manager silent → ImTimeout self-evacuation
        assert!(g.is_evacuating());
        assert_eq!(g.evacuation_cause(), Some(EvacuationCause::ImTimeout));
        // The manager restarts and broadcasts a fresh, correctly chained
        // block: the evacuee verifies it and rejoins the admission flow.
        let fresh = w.block_with_vehicles(1);
        let actions = g.on_block(&fresh, 8.0);
        assert!(
            actions.iter().any(|a| matches!(a, GuardAction::Readmit)),
            "expected Readmit, got {actions:?}"
        );
        assert!(!g.is_evacuating());
        assert_eq!(g.evacuation_cause(), None);
        assert_eq!(g.state(), VehicleState::Following);
        // The stale pre-outage plan must not be resumed blindly.
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, GuardAction::FollowPlan(_))),
            "stale plan resumed: {actions:?}"
        );
        assert_eq!(g.cache().len(), 2, "fresh block appended to cache");
    }

    #[test]
    fn protocol_evacuee_never_readmits() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let evil = tamper::forge_signature(&w.block_with_vehicles(2));
        for t in [1.0, 2.0, 3.0] {
            g.on_block(&evil, t);
        }
        assert!(g.is_evacuating());
        assert_eq!(g.evacuation_cause(), Some(EvacuationCause::Protocol));
        // Even a perfectly valid fresh block cannot win back a vehicle
        // that evacuated because it caught the manager misbehaving.
        let fresh = w.block_with_vehicles(1);
        assert!(g.on_block(&fresh, 4.0).is_empty());
        assert!(g.is_evacuating());
    }

    #[test]
    fn dismissal_clears_pending_report() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, _) = plan1.expected_state(&w.topo, 5.0);
        let obs = Observation {
            target: VehicleId::new(1),
            position: pos + nwade_geometry::Vec2::new(50.0, 0.0),
            speed: 0.0,
            time: 5.0,
        };
        g.on_observations(&[obs], 5.0);
        g.on_dismissal(VehicleId::new(1));
        assert_eq!(g.state(), VehicleState::Following);
        assert!(g.on_tick(100.0).is_empty(), "no timeout after dismissal");
    }

    #[test]
    fn global_reports_accumulate_to_evacuation() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        let claim = GlobalClaim::AbnormalVehicle {
            suspect: VehicleId::new(77),
        };
        for sender in 1..=2u64 {
            let r = GlobalReport {
                sender: VehicleId::new(sender),
                claim,
                time: 1.0,
            };
            assert!(g.on_global_report(&r, |_| false, 3, 1.0).is_empty());
        }
        let r = GlobalReport {
            sender: VehicleId::new(3),
            claim,
            time: 1.0,
        };
        let actions = g.on_global_report(&r, |_| false, 3, 1.0);
        assert!(matches!(actions[0], GuardAction::SelfEvacuate));
        assert!(g.is_evacuating());
    }

    #[test]
    fn conflicting_plan_accusation_with_cached_block_is_rebutted() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        let r = GlobalReport {
            sender: VehicleId::new(9),
            claim: GlobalClaim::ConflictingPlans { index: 0 },
            time: 1.0,
        };
        // We hold block 0 and it verified: the accusation is rebutted.
        let actions = g.on_global_report(&r, |_| false, 3, 1.0);
        assert!(matches!(
            actions.as_slice(),
            [GuardAction::RebutGlobalReport { .. }]
        ));
        assert!(!g.is_evacuating());
    }

    #[test]
    fn watcher_answers_poll_from_cache() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, speed) = plan1.expected_state(&w.topo, 5.0);
        let good = Observation {
            target: VehicleId::new(1),
            position: pos,
            speed,
            time: 5.0,
        };
        let bad = Observation {
            target: VehicleId::new(1),
            position: pos + nwade_geometry::Vec2::new(30.0, 0.0),
            speed,
            time: 5.0,
        };
        assert_eq!(
            g.answer_verify_request(VehicleId::new(1), Some(&good), None),
            (true, false)
        );
        assert_eq!(
            g.answer_verify_request(VehicleId::new(1), Some(&bad), None),
            (true, true)
        );
        assert_eq!(
            g.answer_verify_request(VehicleId::new(1), None, None),
            (false, false)
        );
        assert_eq!(
            g.answer_verify_request(VehicleId::new(55), Some(&good), None),
            (false, false)
        );
    }

    #[test]
    fn peer_block_requests_are_capped_by_the_backfill_limit() {
        let mut w = World::new();
        let mut config = NwadeConfig::default();
        config.block_backfill_limit = 3;
        let mut g = VehicleGuard::new(VehicleId::new(0), w.topo.clone(), w.scheme.clone(), config);
        for _ in 0..5 {
            let block = w.block_with_vehicles(1);
            g.on_block(&block, w.clock);
        }
        assert_eq!(g.cache().len(), 5);
        let indices = |blocks: Vec<Block>| blocks.iter().map(Block::index).collect::<Vec<_>>();
        assert_eq!(indices(g.blocks_from(0)), vec![0, 1, 2]);
        assert_eq!(indices(g.blocks_from(3)), vec![3, 4]);
        assert!(g.blocks_from(5).is_empty());
    }

    #[test]
    fn exit_clears_cache() {
        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        g.on_exit();
        assert_eq!(g.state(), VehicleState::Left);
        assert!(g.cache().is_empty());
    }

    #[test]
    fn stale_epoch_block_is_fenced_and_counted() {
        use crate::replica::{block_epoch, fence_anchor};

        let mut w = World::new();
        let mut g = w.guard(0);
        let b0 = w.block_with_vehicles(2);
        assert!(!g.on_block(&b0, 1.0).is_empty());
        assert_eq!(g.fencing_epoch(), 0);

        // Failover: the zombie keeps the pre-promotion tip while the
        // promoted standby seals index 1 under epoch 1.
        let mut zombie = w.packager.clone();
        let plans = w.plans_for_vehicles(2);
        let root = Block::root_of(&plans);
        let fenced =
            w.packager
                .package_rooted_anchored(plans, root, w.clock, vec![fence_anchor(1)]);
        assert_eq!(block_epoch(&fenced), 1);
        g.on_block(&fenced, 2.0);
        assert_eq!(
            g.cache().tip().map(Block::index),
            Some(1),
            "fenced block cached"
        );
        assert_eq!(g.fencing_epoch(), 1, "verified epoch ratchets");

        // The zombie double-signs its own index-1 block and chains a
        // successor onto it. The successor passes the gap check (index
        // == tip + 1) but carries epoch 0: fenced, counted, not cached.
        let plans = w.plans_for_vehicles(1);
        let _forked_1 = zombie.package(plans, w.clock);
        let plans = w.plans_for_vehicles(1);
        let late = zombie.package(plans, w.clock);
        assert_eq!(late.index(), 2);
        assert!(g.on_block(&late, 3.0).is_empty());
        assert_eq!(g.fencing_rejections(), 1);
        assert_eq!(g.cache().tip().map(Block::index), Some(1));
        assert!(!g.is_evacuating(), "fencing is silent, not an incident");
    }

    #[test]
    fn failover_refreshes_the_pending_report_deadline() {
        use crate::replica::fence_anchor;

        let mut w = World::new();
        let mut g = w.guard(0);
        let block = w.block_with_vehicles(2);
        g.on_block(&block, 0.0);
        // Report a deviating neighbour; the clock starts at t=5.
        let plan1 = block.plan_for(VehicleId::new(1)).expect("plan").clone();
        let (pos, _) = plan1.expected_state(&w.topo, 5.0);
        let obs = Observation {
            target: VehicleId::new(1),
            position: pos + nwade_geometry::Vec2::new(50.0, 0.0),
            speed: 0.0,
            time: 5.0,
        };
        g.on_observations(&[obs], 5.0);
        assert_eq!(g.state(), VehicleState::ReportWaiting);

        // Just before the deadline a block with a bumped fencing epoch
        // arrives: the manager the report went to is gone. The guard
        // must re-send the report to the new incarnation immediately...
        let plans = w.plans_for_vehicles(2);
        let root = Block::root_of(&plans);
        let fenced =
            w.packager
                .package_rooted_anchored(plans, root, w.clock, vec![fence_anchor(1)]);
        let actions = g.on_block(&fenced, 5.9);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, GuardAction::SendIncidentReport(r) if r.suspect.raw() == 1)),
            "expected a report re-send on failover, got {actions:?}"
        );

        // ...and the old deadline must no longer fire: the refreshed
        // clock runs from the failover, not the original send.
        assert!(g.on_tick(6.2).is_empty(), "old deadline disarmed");
        assert_eq!(g.state(), VehicleState::ReportWaiting);
        assert!(!g.is_evacuating());

        // The refreshed deadline still protects against a new manager
        // that also never answers.
        let actions = g.on_tick(7.0);
        assert!(matches!(actions[0], GuardAction::SelfEvacuate));
        assert_eq!(g.evacuation_cause(), Some(EvacuationCause::ImTimeout));
    }
}
