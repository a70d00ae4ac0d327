//! Hot-standby IM replication: WAL tailing, heartbeat-bounded
//! promotion, and fencing epochs.
//!
//! The paper's evacuation mechanism exists because an intersection
//! manager can be attacked or silenced; this module supplies the
//! availability half of that story. A [`StandbyManager`] tails the
//! primary's WAL live through [`nwade_store::WalFollower`] and feeds
//! every record to the replay loop warm recovery runs
//! (`ImPersistence::attach` in [`crate::persist`]) — one loop, so the
//! replica *converges by construction*: at any instant its manager
//! equals what `attach` would reconstruct from the durable log, and
//! every in-stream snapshot doubles as a full-state convergence check.
//!
//! **Promotion** is driven by a heartbeat monitor built on
//! [`Retrier`]-style deterministic jitter: each heartbeat interval that
//! elapses without hearing from the primary counts one miss, and
//! [`StandbyPolicy::miss_bound`] misses promote the standby. A silent
//! primary is indistinguishable from a compromised one (collaborative
//! attack-detection reaches the same conclusion), so the rule is
//! deliberately simple and bounded.
//!
//! **Fencing** closes the split-brain window a promotion opens: the
//! primary may not be dead, only slow, and could still seal a late
//! block. Every block a promoted manager signs carries a fencing epoch
//! (a reserved [`FENCE_SHARD`] anchor covered by the signature and the
//! hash), vehicle guards ratchet to the highest verified epoch and
//! reject anything older, and promotion *re-seals* the newest
//! unbroadcast block under the new epoch — its hash changes, so the
//! zombie's next block chains onto a hash the fleet never adopts.
//! Double-signing is structurally impossible after the handover window.

use crate::manager::{ManagerAction, NwadeManager};
use crate::persist::{ImPersistence, Replay, WalRecord};
use crate::retry::{Retrier, RetryDecision, RetryPolicy};
use nwade_chain::{Block, ShardAnchor};
use nwade_crypto::Digest;
use nwade_store::{Backend, StoreError, WalFollower};

/// Reserved anchor shard id carrying the fencing epoch. Greater than
/// every real shard id, so appending the fence anchor keeps the anchor
/// section shard-sorted; real neighbour anchoring skips it.
pub const FENCE_SHARD: u32 = u32::MAX;

/// Builds the fencing anchor for `epoch`: the epoch rides in the first
/// eight bytes of the tip digest (big-endian), covered by the block's
/// signature and hash like any other anchor — no codec change needed.
pub fn fence_anchor(epoch: u64) -> ShardAnchor {
    let mut tip = [0u8; 32];
    tip[..8].copy_from_slice(&epoch.to_be_bytes());
    ShardAnchor {
        shard: FENCE_SHARD,
        tip: Digest(tip),
    }
}

/// The fencing epoch a block was sealed under (0 when it carries no
/// fence anchor — every pre-failover block).
pub fn block_epoch(block: &Block) -> u64 {
    block
        .anchors()
        .iter()
        .find(|a| a.shard == FENCE_SHARD)
        .map_or(0, |a| {
            let mut be = [0u8; 8];
            be.copy_from_slice(&a.tip.as_bytes()[..8]);
            u64::from_be_bytes(be)
        })
}

/// Promotion-rule knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandbyPolicy {
    /// Expected spacing of primary heartbeats, seconds.
    pub heartbeat_interval: f64,
    /// Consecutive missed heartbeats that trigger promotion.
    pub miss_bound: u32,
    /// Jitter fraction on the miss timer (deterministic, salt-derived)
    /// so replicated standbys don't all fire on the same tick.
    pub jitter: f64,
    /// Jitter salt (e.g. the standby's shard or replica id).
    pub salt: u64,
}

impl Default for StandbyPolicy {
    fn default() -> Self {
        StandbyPolicy {
            heartbeat_interval: 0.1,
            miss_bound: 3,
            jitter: 0.1,
            salt: 0x57A4_DB15,
        }
    }
}

impl StandbyPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.heartbeat_interval > 0.0) {
            return Err("heartbeat_interval must be positive".into());
        }
        if self.miss_bound == 0 {
            return Err("miss_bound must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err("jitter must be in [0, 1)".into());
        }
        Ok(())
    }

    fn monitor_policy(&self) -> RetryPolicy {
        RetryPolicy {
            base: self.heartbeat_interval,
            factor: 1.0,
            max_backoff: self.heartbeat_interval,
            jitter: self.jitter,
            max_attempts: self.miss_bound.saturating_add(1),
            deadline: None,
        }
    }
}

/// Everything a completed promotion hands the host: the manager (now at
/// the incremented fencing epoch), a persistence handle that adopted
/// the device without a recovery scan, and the committed-but-never-
/// broadcast blocks to put on the air — the re-sealed fenced tip last.
pub struct Promoted {
    /// The ex-standby manager, ready to seal the next window.
    pub manager: NwadeManager,
    /// Persistence resumed on the adopted device (promotion already
    /// appended the re-sealed commit and a compaction snapshot).
    pub persistence: ImPersistence,
    /// Broadcasts the dead primary owed the fleet, in chain order.
    pub actions: Vec<ManagerAction>,
    /// The epoch every block from here on carries.
    pub epoch: u64,
    /// WAL records the standby had applied by promotion time.
    pub records_applied: u64,
}

impl std::fmt::Debug for Promoted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promoted")
            .field("epoch", &self.epoch)
            .field("actions", &self.actions.len())
            .field("records_applied", &self.records_applied)
            .finish_non_exhaustive()
    }
}

/// A live replica of the primary IM, converging record-by-record.
///
/// Drive it with [`StandbyManager::poll`] (apply whatever the primary
/// committed since last time), [`StandbyManager::heartbeat`] (the
/// primary checked in), and [`StandbyManager::due_promotion`] (the
/// bounded-miss rule); on a positive promotion check, consume it with
/// [`StandbyManager::promote`].
pub struct StandbyManager {
    manager: NwadeManager,
    follower: WalFollower,
    snapshot_every: u32,
    policy: StandbyPolicy,
    monitor: Retrier,
    missed: u32,
    replay: Replay,
    diverged: Option<String>,
    records_applied: u64,
    windows_applied: u64,
}

impl std::fmt::Debug for StandbyManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandbyManager")
            .field("records_applied", &self.records_applied)
            .field("windows_applied", &self.windows_applied)
            .field("missed", &self.missed)
            .field("diverged", &self.diverged)
            .finish_non_exhaustive()
    }
}

impl StandbyManager {
    /// Creates a standby from a freshly constructed (genesis-state)
    /// manager and a follower handle onto the primary's WAL device.
    /// The follower starts at offset 0, so the full history replays
    /// through `manager` on the first [`StandbyManager::poll`].
    ///
    /// `snapshot_every` is the cadence the promoted persistence handle
    /// will use (match the primary's).
    ///
    /// # Panics
    ///
    /// Panics when `policy` is invalid.
    pub fn new(
        manager: NwadeManager,
        follower: WalFollower,
        snapshot_every: u32,
        policy: StandbyPolicy,
        now: f64,
    ) -> Self {
        policy.validate().expect("standby policy must be valid");
        StandbyManager {
            monitor: Retrier::after_initial_send(policy.monitor_policy(), now, policy.salt),
            manager,
            follower,
            snapshot_every,
            policy,
            missed: 0,
            replay: Replay::default(),
            diverged: None,
            records_applied: 0,
            windows_applied: 0,
        }
    }

    /// Applies every WAL record the primary has committed since the
    /// last poll. Returns how many were applied this call.
    ///
    /// Divergence (an undecodable record, a replayed block that misses
    /// its `Commit` hash, a snapshot that disagrees with the replica's
    /// own state) does not error — it marks the standby
    /// [`StandbyManager::diverged`], which turns a later promotion into
    /// a cold fallback instead of promoting a wrong replica.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] only for device-level failures.
    pub fn poll(&mut self) -> Result<u64, StoreError> {
        if self.diverged.is_some() {
            return Ok(0);
        }
        let payloads = self.follower.poll()?;
        if self.follower.is_corrupt() {
            self.diverged
                .get_or_insert_with(|| "WAL follower hit corruption".into());
        }
        let mut applied = 0;
        for payload in payloads {
            let Some(record) = WalRecord::decode(&payload) else {
                self.diverged = Some("undecodable WAL record".into());
                break;
            };
            let window = matches!(record, WalRecord::WindowStart { .. });
            if let Err(reason) = self.replay.apply(&mut self.manager, record) {
                self.diverged = Some(reason);
                break;
            }
            applied += 1;
            self.windows_applied += u64::from(window);
        }
        self.records_applied += applied;
        Ok(applied)
    }

    /// The primary checked in: clear the miss counter and restart the
    /// interval timer from `now`.
    pub fn heartbeat(&mut self, now: f64) {
        self.monitor.reset(now);
        // `reset` re-arms the immediate first fire; consume it so the
        // next fire lands one (jittered) interval from now.
        let _ = self.monitor.poll(now);
        self.missed = 0;
    }

    /// Advances the miss clock to `now` and reports whether the
    /// bounded-miss promotion rule has tripped: `miss_bound`
    /// consecutive heartbeat intervals elapsed with no heartbeat.
    pub fn due_promotion(&mut self, now: f64) -> bool {
        loop {
            match self.monitor.poll(now) {
                RetryDecision::Fire(_) => self.missed += 1,
                RetryDecision::Wait => break,
                RetryDecision::Exhausted => {
                    self.missed = self.missed.max(self.policy.miss_bound);
                    break;
                }
            }
        }
        self.missed >= self.policy.miss_bound
    }

    /// Heartbeats missed since the last [`StandbyManager::heartbeat`].
    pub fn missed_heartbeats(&self) -> u32 {
        self.missed
    }

    /// `Some(reason)` once live replay stopped matching the log; a
    /// diverged standby refuses promotion.
    pub fn diverged(&self) -> Option<&str> {
        self.diverged.as_deref()
    }

    /// Total WAL records applied so far.
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Processing windows (normal + evacuation starts are separate)
    /// replayed so far.
    pub fn windows_applied(&self) -> u64 {
        self.windows_applied
    }

    /// Committed frames sitting in the log that this standby has not
    /// applied yet — the replication lag in records.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn lag_records(&mut self) -> Result<u64, StoreError> {
        self.follower.pending()
    }

    /// Read access to the converging replica (tests, diagnostics).
    pub fn manager(&self) -> &NwadeManager {
        &self.manager
    }

    /// Forks this standby onto an independently forked device handle
    /// (see `nwade_store::MemBackend::fork`): deep-copied manager and
    /// replay state, follower resumed at the same offset. A forensic
    /// world snapshot uses this so the resumed run replays and promotes
    /// bit-identically.
    pub fn fork_onto(&self, backend: Box<dyn Backend>) -> StandbyManager {
        StandbyManager {
            manager: self.manager.clone(),
            follower: WalFollower::resume_at(backend, self.follower.offset()),
            snapshot_every: self.snapshot_every,
            policy: self.policy,
            monitor: self.monitor.clone(),
            missed: self.missed,
            replay: self.replay.clone(),
            diverged: self.diverged.clone(),
            records_applied: self.records_applied,
            windows_applied: self.windows_applied,
        }
    }

    /// Takes over as primary.
    ///
    /// Drains the log one final time, moves the manager to fencing
    /// epoch `old + 1`, re-seals the newest never-broadcast block under
    /// the new epoch (closing the double-signing window — see the
    /// module docs), adopts the device as a writer without a recovery
    /// scan, and appends the re-sealed commit plus a compaction
    /// snapshot so any later recovery starts from the fenced state.
    ///
    /// # Errors
    ///
    /// Returns the divergence/corruption reason when this standby
    /// cannot be trusted to take over (the caller falls back to the
    /// cold-restart path), or a device error message if the final
    /// drain or the promotion appends fail.
    pub fn promote(mut self) -> Result<Promoted, String> {
        self.poll()
            .map_err(|e| format!("final drain failed: {e}"))?;
        if let Some(reason) = self.diverged {
            return Err(reason);
        }
        let epoch = self.manager.fencing_epoch() + 1;
        self.manager.set_fencing_epoch(epoch);

        // A trailing stage without a commit is the primary's crash
        // window: the block exists only in this replica now, so it joins
        // the committed-but-unbroadcast blocks.
        let mut unbroadcast = self.replay.finish();

        let mut persistence =
            ImPersistence::adopt(self.follower.into_backend(), self.snapshot_every);
        // Re-seal the newest block the fleet has never seen under the
        // new epoch; already-broadcast blocks are immutable history.
        let tip_index = self.manager.chain_next_index().checked_sub(1);
        if let Some(tip) = unbroadcast
            .iter_mut()
            .find(|b| Some(b.index()) == tip_index)
        {
            let fenced = self
                .manager
                .reseal_tip_with_fence()
                .ok_or_else(|| "no sealed block to re-sign at promotion".to_string())?;
            persistence
                .commit_block(&fenced, true)
                .map_err(|e| format!("fenced commit append failed: {e}"))?;
            *tip = fenced;
        }
        persistence
            .snapshot(&self.manager)
            .map_err(|e| format!("promotion snapshot failed: {e}"))?;

        let actions = unbroadcast
            .into_iter()
            .map(ManagerAction::BroadcastBlock)
            .collect();
        Ok(Promoted {
            manager: self.manager,
            persistence,
            actions,
            epoch,
            records_applied: self.records_applied,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NwadeConfig;
    use crate::persist::RecoveryOutcome;
    use nwade_aim::{PlanRequest, ReservationScheduler, SchedulerConfig};
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology};
    use nwade_store::{MemBackend, Wal};
    use nwade_traffic::{VehicleDescriptor, VehicleId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ))
    }

    fn manager() -> NwadeManager {
        let topo = topo();
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

    fn standby(handle: &MemBackend, now: f64) -> StandbyManager {
        StandbyManager::new(
            manager(),
            Wal::follow(Box::new(handle.clone())),
            4,
            StandbyPolicy::default(),
            now,
        )
    }

    /// Primary + persistence + device, driven like the host drives it.
    struct Primary {
        handle: MemBackend,
        persist: ImPersistence,
        manager: NwadeManager,
    }

    impl Primary {
        fn start() -> Self {
            let handle = MemBackend::new();
            let mut m = manager();
            let (persist, outcome) =
                ImPersistence::attach(Box::new(handle.clone()), 4, &mut m).expect("attach");
            assert!(matches!(outcome, RecoveryOutcome::Warm(_)));
            Primary {
                handle,
                persist,
                manager: m,
            }
        }

        fn drive(&mut self, windows: std::ops::Range<u64>, broadcast: bool) -> Vec<Block> {
            let mut blocks = Vec::new();
            for w in windows {
                let now = w as f64 * 4.0;
                let requests = [request(w * 2), request(w * 2 + 1)];
                self.persist.window_start(now, &requests).unwrap();
                let Some(ManagerAction::BroadcastBlock(block)) =
                    self.manager.on_window(&requests, now)
                else {
                    panic!("expected a block");
                };
                self.persist.commit_block(&block, true).unwrap();
                if broadcast {
                    self.persist.broadcasted(block.index()).unwrap();
                }
                self.persist.window_end(&self.manager).unwrap();
                blocks.push(block);
            }
            blocks
        }
    }

    #[test]
    fn fence_anchor_round_trips_the_epoch() {
        for epoch in [0u64, 1, 7, u64::MAX] {
            let a = fence_anchor(epoch);
            assert_eq!(a.shard, FENCE_SHARD);
            let mut be = [0u8; 8];
            be.copy_from_slice(&a.tip.as_bytes()[..8]);
            assert_eq!(u64::from_be_bytes(be), epoch);
        }
    }

    #[test]
    fn standby_converges_to_primary_state() {
        let mut primary = Primary::start();
        let mut standby = standby(&primary.handle, 0.0);
        primary.drive(0..6, true); // crosses a snapshot boundary at 4
        assert!(standby.lag_records().unwrap() > 0);
        assert!(standby.poll().unwrap() > 0);
        assert_eq!(standby.lag_records().unwrap(), 0);
        assert!(standby.diverged().is_none(), "{:?}", standby.diverged());
        assert_eq!(
            standby.manager().durable_state(),
            primary.manager.durable_state()
        );
        assert_eq!(standby.windows_applied(), 6);
    }

    #[test]
    fn bounded_miss_rule_is_deterministic() {
        let handle = MemBackend::new();
        let mut a = standby(&handle, 0.0);
        let mut b = standby(&handle, 0.0);
        // Heartbeats every 0.05 s keep both quiet.
        let mut t = 0.0;
        for _ in 0..10 {
            t += 0.05;
            a.heartbeat(t);
            b.heartbeat(t);
            assert!(!a.due_promotion(t) && !b.due_promotion(t));
        }
        // Silence: both replicas trip after the same number of misses,
        // at the same poll instant (same salt → same jitter).
        let mut fired_at = None;
        for step in 1..200 {
            let now = t + step as f64 * 0.01;
            let fa = a.due_promotion(now);
            let fb = b.due_promotion(now);
            assert_eq!(fa, fb, "replicas disagree at {now}");
            if fa {
                fired_at = Some(now);
                break;
            }
        }
        let fired = fired_at.expect("silence must trip the miss bound");
        let policy = StandbyPolicy::default();
        let budget =
            policy.heartbeat_interval * f64::from(policy.miss_bound) * (1.0 + policy.jitter);
        assert!(
            fired - t <= budget + 0.011,
            "tripped at {fired}, later than the jittered miss budget"
        );
        assert!(a.missed_heartbeats() >= policy.miss_bound);
    }

    #[test]
    fn promotion_reseal_fences_the_unbroadcast_tip() {
        let mut primary = Primary::start();
        let mut standby = standby(&primary.handle, 0.0);
        primary.drive(0..2, true);
        // Window 2 commits but the broadcast never goes out (the
        // process dies in between).
        let [plain_tip]: [Block; 1] = primary.drive(2..3, false).try_into().unwrap();
        standby.poll().unwrap();

        let promoted = standby.promote().expect("promotion");
        assert_eq!(promoted.epoch, 1);
        let [ManagerAction::BroadcastBlock(fenced)] = promoted.actions.as_slice() else {
            panic!("expected exactly the re-sealed tip, got {promoted:?}");
        };
        // Same semantic content, new epoch, new hash.
        assert_eq!(fenced.index(), plain_tip.index());
        assert_eq!(fenced.merkle_root(), plain_tip.merkle_root());
        assert_eq!(fenced.plans(), plain_tip.plans());
        assert_eq!(block_epoch(fenced), 1);
        assert_eq!(block_epoch(&plain_tip), 0);
        assert_ne!(fenced.hash(), plain_tip.hash());
        assert_eq!(promoted.manager.fencing_epoch(), 1);

        // The adopted log recovers warm into the fenced state: the
        // promotion snapshot absorbed the re-seal, so a fresh attach
        // replays nothing and owes the fleet nothing new.
        let mut m = manager();
        let (_, outcome) =
            ImPersistence::attach(Box::new(primary.handle.clone()), 4, &mut m).unwrap();
        let RecoveryOutcome::Warm(w) = outcome else {
            panic!("adopted log must stay warm, got {outcome:?}");
        };
        assert_eq!(w.replayed_records, 0);
        assert_eq!(m.fencing_epoch(), 1);
        assert_eq!(m.chain_tip(), fenced.hash());
    }

    #[test]
    fn promoted_blocks_carry_the_epoch_and_zombie_blocks_do_not_link() {
        let mut primary = Primary::start();
        let mut standby = standby(&primary.handle, 0.0);
        primary.drive(0..3, false);
        standby.poll().unwrap();
        let mut zombie = primary.manager.clone();
        let promoted = standby.promote().expect("promotion");
        let mut new_primary = promoted.manager;

        let requests = [request(40), request(41)];
        let Some(ManagerAction::BroadcastBlock(ours)) = new_primary.on_window(&requests, 16.0)
        else {
            panic!("expected a block");
        };
        let Some(ManagerAction::BroadcastBlock(theirs)) = zombie.on_window(&requests, 16.0) else {
            panic!("expected a zombie block");
        };
        assert_eq!(block_epoch(&ours), 1);
        assert_eq!(block_epoch(&theirs), 0);
        assert_eq!(ours.index(), theirs.index(), "true double-sign attempt");
        assert_ne!(
            ours.prev_hash(),
            theirs.prev_hash(),
            "the re-sealed tip forked the zombie off the fleet's chain"
        );
    }

    #[test]
    fn diverged_standby_refuses_promotion() {
        let mut primary = Primary::start();
        let mut standby = standby(&primary.handle, 0.0);
        primary.drive(0..2, true);
        standby.poll().unwrap();
        // A committed frame goes bad before the standby reads it.
        let before = primary.handle.contents().len();
        primary.drive(2..3, true);
        primary.handle.flip_bit(before + 10, 1);
        standby.poll().unwrap();
        assert!(standby.diverged().is_some());
        assert!(standby.promote().is_err());
    }

    #[test]
    fn forked_standby_promotes_identically() {
        let mut primary = Primary::start();
        let mut standby = standby(&primary.handle, 0.0);
        primary.drive(0..2, true);
        standby.poll().unwrap();
        primary.drive(2..3, false);

        let forked = standby.fork_onto(Box::new(primary.handle.fork()));
        let a = standby.promote().expect("original");
        let b = forked.promote().expect("fork");
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(
            a.manager.durable_state(),
            b.manager.durable_state(),
            "forensic fork promotes bit-identically"
        );
    }
}
