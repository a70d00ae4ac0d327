//! Durable IM state: WAL record schema, periodic snapshots, and warm
//! recovery by replay.
//!
//! The storage layer (`nwade-store`) keeps opaque checksummed records;
//! this module decides what goes in them. The log is **event-sourced**:
//! the IM appends a [`WalRecord::WindowStart`] (with the in-flight
//! requests) before scheduling, a [`WalRecord::Commit`] carrying the
//! sealed block before publishing it, and a [`WalRecord::Broadcasted`]
//! after the broadcast goes out; vehicle releases, evacuation stages
//! and changes to the report ledger are logged the same way, and every
//! N windows a full [`WalRecord::Snapshot`] of the manager's durable
//! state is appended in-log. Recovery is "restore the latest intact
//! snapshot, then adopt committed blocks; re-execute only stages with
//! no commit". A committed block is checked to extend the replayed
//! chain and to match its Merkle root, then its plans are booked,
//! the publish filter's drops released and the block made the chain
//! tip, with nothing re-scheduled or re-signed. A stage record that no
//! `Commit` follows (a window that sealed nothing, or the crash window
//! at the end of the log) runs again through the manager's own
//! deterministic handler. Every snapshot in the suffix is compared with
//! the replayed state; any divergence (or a corrupt snapshot) aborts
//! to the cold-restart path instead of trusting a half-broken log.
//!
//! Durability points (one `fsync` each, batching everything appended
//! since the previous one):
//!
//! | point                    | what becomes durable                  |
//! |--------------------------|---------------------------------------|
//! | `WindowStart`/`EvacStart`| the requests being scheduled, plus any buffered `Broadcasted`/`Release`/`Ledger` records from earlier ticks |
//! | `Commit`                 | the block about to be published       |
//! | `Snapshot`               | the full durable state                |
//!
//! `Broadcasted`, `Release` and `Ledger` records are appended without
//! their own barrier. Losing the first two in a crash is safe — a
//! re-broadcast duplicate is ignored by vehicles (stale index), and a
//! re-booked reservation for a departed vehicle only delays later
//! scheduling until garbage collection, never admits a conflict. A lost
//! `Ledger` record forgets a verification outcome reached since the
//! last barrier, as the verifications still in flight are forgotten.

use crate::manager::{ManagerAction, NwadeManager};
use bytes::{Buf, BufMut};
use nwade_aim::{PlanRequest, TravelPlan};
use nwade_chain::Block;
use nwade_crypto::Digest;
use nwade_geometry::Vec2;
use nwade_store::{Backend, StoreError, Wal};
use nwade_traffic::VehicleId;

/// Labelled points at which the chaos harness kills the IM mid-window
/// (tentpole crash-point injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After scheduling + packaging, before the WAL commit record is
    /// appended: the block exists only in RAM and is lost whole.
    AfterStage,
    /// While the commit record is being written: it reaches the device
    /// torn (a partial frame) and must be truncated by recovery.
    BeforeCommit,
    /// After the commit record is durable, before the broadcast goes
    /// out: recovery must re-send exactly this block.
    AfterCommit,
    /// The whole process is gone: the manager and every byte of
    /// in-flight state drop at once, with no orderly in-process restart.
    /// Only what the WAL already made durable — and a live standby that
    /// was tailing it — survives.
    ProcessLoss,
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrashPoint::AfterStage => "after-stage",
            CrashPoint::BeforeCommit => "before-commit",
            CrashPoint::AfterCommit => "after-commit",
            CrashPoint::ProcessLoss => "process-loss",
        })
    }
}

/// The manager state a snapshot captures: everything §IV-B5 needs to
/// resume issuing valid blocks — the chain tip (`h_{i-1}`, height), the
/// reservation lanes, the published-plan ledger the conflict pre-check
/// runs against, the confirmed-threat and false-reporter records, and
/// the recent-block cache vehicles back-fill from.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableState {
    /// Hash the next block must point at.
    pub prev_hash: Digest,
    /// Index the next block will carry.
    pub next_index: u64,
    /// Verification-poll id counter (avoids stale-response collisions).
    pub next_request_id: u64,
    /// Fencing epoch stamped into every sealed block (0 = the original
    /// primary; each standby promotion increments it). Snapshotted so a
    /// warm re-attach after a failover keeps sealing with the epoch the
    /// fleet already ratcheted to.
    pub fencing_epoch: u64,
    /// Scheduler reservation state: the reservation-table bytes
    /// [`nwade_aim::Scheduler::export_state`] returns.
    pub scheduler: Vec<u8>,
    /// Published plans, sorted by vehicle id (canonical order).
    pub published: Vec<TravelPlan>,
    /// Vehicles confirmed malicious.
    pub confirmed: Vec<VehicleId>,
    /// False-alarm counts, sorted by vehicle id.
    pub false_reporters: Vec<(VehicleId, u32)>,
    /// Recent blocks served to back-filling vehicles.
    pub recent_blocks: Vec<Block>,
}

impl DurableState {
    /// Canonical encoding (embedded in [`WalRecord::Snapshot`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.put_slice(self.prev_hash.as_bytes());
        buf.put_u64(self.next_index);
        buf.put_u64(self.next_request_id);
        buf.put_u64(self.fencing_epoch);
        buf.put_u32(self.scheduler.len() as u32);
        buf.put_slice(&self.scheduler);
        buf.put_u32(self.published.len() as u32);
        for plan in &self.published {
            buf.put_slice(&plan.encode());
        }
        put_reports(&mut buf, &self.confirmed, &self.false_reporters);
        buf.put_u32(self.recent_blocks.len() as u32);
        for block in &self.recent_blocks {
            buf.put_slice(&block.encode());
        }
        buf
    }

    /// Decodes a snapshot body; `None` on any truncation or malformed
    /// field, never a panic.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut cursor = bytes;
        let mut prev = [0u8; 32];
        cursor.try_copy_to_slice(&mut prev).ok()?;
        let next_index = cursor.try_get_u64().ok()?;
        let next_request_id = cursor.try_get_u64().ok()?;
        let fencing_epoch = cursor.try_get_u64().ok()?;
        let sched_len = cursor.try_get_u32().ok()? as usize;
        if cursor.remaining() < sched_len {
            return None;
        }
        let scheduler = cursor[..sched_len].to_vec();
        cursor = &cursor[sched_len..];
        let n = cursor.try_get_u32().ok()? as usize;
        let mut published = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            published.push(TravelPlan::decode_from(&mut cursor)?);
        }
        let (confirmed, false_reporters) = get_reports(&mut cursor)?;
        let n = cursor.try_get_u32().ok()? as usize;
        let mut recent_blocks = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            recent_blocks.push(Block::decode_from(&mut cursor)?);
        }
        cursor.is_empty().then_some(DurableState {
            prev_hash: Digest(prev),
            next_index,
            next_request_id,
            fencing_epoch,
            scheduler,
            published,
            confirmed,
            false_reporters,
            recent_blocks,
        })
    }
}

/// The report ledger (§IV-B2 iii), or a change to it: the
/// verification-poll id counter, the vehicles confirmed malicious, and
/// the false-alarm count of each reporter. A [`WalRecord::Ledger`]
/// carries the change one report handler made ([`Ledger::since`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Verification-poll id counter.
    pub next_request_id: u64,
    /// Vehicles confirmed malicious; in a change, the newly confirmed.
    pub confirmed: Vec<VehicleId>,
    /// False-alarm counts, sorted by vehicle id; in a change, the
    /// counts that changed.
    pub false_reporters: Vec<(VehicleId, u32)>,
}

impl Ledger {
    /// What changed from `earlier` to `self`, or `None` when nothing
    /// did. Both come from one manager, `earlier` first: the counter and
    /// the confirmations only grow, and a count only rises.
    pub fn since(&self, earlier: &Ledger) -> Option<Ledger> {
        let change = Ledger {
            next_request_id: self.next_request_id,
            confirmed: self
                .confirmed
                .get(earlier.confirmed.len()..)
                .unwrap_or_default()
                .to_vec(),
            false_reporters: self
                .false_reporters
                .iter()
                .filter(|entry| earlier.false_reporters.binary_search(entry).is_err())
                .copied()
                .collect(),
        };
        let unchanged = change.next_request_id == earlier.next_request_id
            && change.confirmed.is_empty()
            && change.false_reporters.is_empty();
        (!unchanged).then_some(change)
    }
}

fn put_reports(buf: &mut Vec<u8>, confirmed: &[VehicleId], false_reporters: &[(VehicleId, u32)]) {
    buf.put_u32(confirmed.len() as u32);
    for v in confirmed {
        buf.put_u64(v.raw());
    }
    buf.put_u32(false_reporters.len() as u32);
    for (v, n) in false_reporters {
        buf.put_u64(v.raw());
        buf.put_u32(*n);
    }
}

type Reports = (Vec<VehicleId>, Vec<(VehicleId, u32)>);

fn get_reports(cursor: &mut &[u8]) -> Option<Reports> {
    let n = cursor.try_get_u32().ok()? as usize;
    let mut confirmed = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        confirmed.push(VehicleId::new(cursor.try_get_u64().ok()?));
    }
    let n = cursor.try_get_u32().ok()? as usize;
    let mut false_reporters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let v = VehicleId::new(cursor.try_get_u64().ok()?);
        false_reporters.push((v, cursor.try_get_u32().ok()?));
    }
    Some((confirmed, false_reporters))
}

const KIND_SNAPSHOT: u8 = 1;
const KIND_WINDOW_START: u8 = 2;
const KIND_EVAC_START: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_BROADCASTED: u8 = 5;
const KIND_RELEASE: u8 = 6;
const KIND_LEDGER: u8 = 7;

/// One WAL record (the payload inside a checksummed store frame).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Full durable state, appended every N windows.
    Snapshot(DurableState),
    /// A processing window is about to be scheduled with these
    /// requests — the requests-durability point.
    WindowStart {
        /// Window timestamp.
        now: f64,
        /// The in-flight requests, in scheduling order.
        requests: Vec<PlanRequest>,
    },
    /// An evacuation block is about to be planned.
    EvacStart {
        /// Planning timestamp.
        now: f64,
        /// Active vehicles to re-plan.
        states: Vec<PlanRequest>,
        /// Confirmed threat locations.
        threats: Vec<Vec2>,
    },
    /// The block the preceding stage record sealed, committed before
    /// publication; replay adopts it instead of re-running the stage.
    Commit(Block),
    /// The committed block of this index went out on the air.
    Broadcasted {
        /// Block index.
        index: u64,
    },
    /// A vehicle left the area and its reservations were released.
    Release {
        /// The departed vehicle.
        vehicle: VehicleId,
    },
    /// A report handler changed the manager's [`Ledger`].
    Ledger(Ledger),
}

fn put_requests(buf: &mut Vec<u8>, requests: &[PlanRequest]) {
    buf.put_u32(requests.len() as u32);
    for r in requests {
        buf.put_slice(&r.encode());
    }
}

fn get_requests(cursor: &mut &[u8]) -> Option<Vec<PlanRequest>> {
    let n = cursor.try_get_u32().ok()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(PlanRequest::decode_from(cursor)?);
    }
    Some(out)
}

impl WalRecord {
    /// Encodes the record as a store-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            WalRecord::Snapshot(state) => {
                buf.put_u8(KIND_SNAPSHOT);
                buf.put_slice(&state.encode());
            }
            WalRecord::WindowStart { now, requests } => {
                buf.put_u8(KIND_WINDOW_START);
                buf.put_f64(*now);
                put_requests(&mut buf, requests);
            }
            WalRecord::EvacStart {
                now,
                states,
                threats,
            } => {
                buf.put_u8(KIND_EVAC_START);
                buf.put_f64(*now);
                put_requests(&mut buf, states);
                buf.put_u32(threats.len() as u32);
                for t in threats {
                    buf.put_f64(t.x);
                    buf.put_f64(t.y);
                }
            }
            WalRecord::Commit(block) => {
                buf.put_u8(KIND_COMMIT);
                buf.put_slice(&block.encode());
            }
            WalRecord::Broadcasted { index } => {
                buf.put_u8(KIND_BROADCASTED);
                buf.put_u64(*index);
            }
            WalRecord::Release { vehicle } => {
                buf.put_u8(KIND_RELEASE);
                buf.put_u64(vehicle.raw());
            }
            WalRecord::Ledger(change) => {
                buf.put_u8(KIND_LEDGER);
                buf.put_u64(change.next_request_id);
                put_reports(&mut buf, &change.confirmed, &change.false_reporters);
            }
        }
        buf
    }

    /// Decodes a store-frame payload; `None` on unknown kind, any
    /// truncation, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut cursor = bytes;
        let record = match cursor.try_get_u8().ok()? {
            KIND_SNAPSHOT => return DurableState::decode(cursor).map(WalRecord::Snapshot),
            KIND_WINDOW_START => WalRecord::WindowStart {
                now: cursor.try_get_f64().ok()?,
                requests: get_requests(&mut cursor)?,
            },
            KIND_EVAC_START => {
                let now = cursor.try_get_f64().ok()?;
                let states = get_requests(&mut cursor)?;
                let n = cursor.try_get_u32().ok()? as usize;
                let mut threats = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    threats.push(Vec2::new(
                        cursor.try_get_f64().ok()?,
                        cursor.try_get_f64().ok()?,
                    ));
                }
                WalRecord::EvacStart {
                    now,
                    states,
                    threats,
                }
            }
            KIND_COMMIT => WalRecord::Commit(Block::decode_from(&mut cursor)?),
            KIND_BROADCASTED => WalRecord::Broadcasted {
                index: cursor.try_get_u64().ok()?,
            },
            KIND_RELEASE => WalRecord::Release {
                vehicle: VehicleId::new(cursor.try_get_u64().ok()?),
            },
            KIND_LEDGER => {
                let next_request_id = cursor.try_get_u64().ok()?;
                let (confirmed, false_reporters) = get_reports(&mut cursor)?;
                WalRecord::Ledger(Ledger {
                    next_request_id,
                    confirmed,
                    false_reporters,
                })
            }
            _ => return None,
        };
        cursor.is_empty().then_some(record)
    }
}

/// A successful warm recovery.
#[derive(Debug)]
pub struct WarmRecovery {
    /// Committed-but-unbroadcast blocks (and a re-executed in-flight
    /// window, if the crash hit before its commit) the host must now
    /// broadcast, in chain order.
    pub actions: Vec<ManagerAction>,
    /// Torn-tail bytes the store truncated while opening the log.
    pub truncated_bytes: u64,
    /// WAL records replayed after the snapshot (diagnostics).
    pub replayed_records: usize,
}

/// What [`ImPersistence::attach`] concluded.
#[derive(Debug)]
pub enum RecoveryOutcome {
    /// The manager now holds the pre-crash durable state; continue
    /// without evacuating anyone.
    Warm(WarmRecovery),
    /// The log or snapshot was unusable; the caller must fall back to
    /// the cold-restart + evacuation path (and stop logging to this
    /// device — its contents no longer match the manager).
    Cold {
        /// Why recovery gave up.
        reason: String,
    },
}

/// The IM's persistence handle: owns the WAL and the snapshot cadence.
#[derive(Debug)]
pub struct ImPersistence {
    wal: Wal,
    snapshot_every: u32,
    windows_since_snapshot: u32,
}

/// Applies WAL records to a manager: the one replay loop behind both
/// warm recovery ([`ImPersistence::attach`] feeds it the suffix after
/// the latest snapshot) and the hot standby (`StandbyManager` feeds it
/// every poll).
///
/// A stage record waits for the record after it. A `Commit` there
/// means the stage sealed that block, which the manager adopts
/// ([`NwadeManager::adopt_window`], [`NwadeManager::adopt_evacuation`]).
/// Any other record means the stage sealed nothing, and the stage is
/// re-executed first. A stage at the end of the log is the crash
/// window; [`Replay::execute_trailing`] re-executes it. A committed
/// block that does not extend the replayed chain, a re-executed stage
/// that seals a block the log never committed, or a snapshot that
/// disagrees with the replayed state is a divergence.
#[derive(Debug, Clone, Default)]
pub(crate) struct Replay {
    /// The latest stage record, until the next record shows whether it
    /// committed a block.
    stage: Option<Stage>,
    /// Committed blocks with no `Broadcasted` record yet.
    unbroadcast: Vec<Block>,
}

/// A logged stage: the inputs of one window or evacuation plan.
#[derive(Debug, Clone)]
enum Stage {
    Window {
        now: f64,
        requests: Vec<PlanRequest>,
    },
    Evacuation {
        now: f64,
        states: Vec<PlanRequest>,
        threats: Vec<Vec2>,
    },
}

impl Stage {
    /// Runs the stage again through the manager's own handler; returns
    /// the block it seals, if any.
    fn execute(self, manager: &mut NwadeManager) -> Option<Block> {
        let action = match self {
            Stage::Window { now, requests } => manager.on_window(&requests, now),
            Stage::Evacuation {
                now,
                states,
                threats,
            } => manager.evacuation_block(&states, &threats, now),
        };
        match action {
            Some(ManagerAction::BroadcastBlock(block)) => Some(block),
            _ => None,
        }
    }

    /// Adopts the block this stage committed.
    fn adopt(self, manager: &mut NwadeManager, block: &Block) -> Result<(), String> {
        match self {
            Stage::Window { requests, .. } => manager.adopt_window(&requests, block),
            Stage::Evacuation { states, .. } => manager.adopt_evacuation(&states, block),
        }
    }
}

impl Replay {
    /// Applies one record to `manager`.
    ///
    /// # Errors
    ///
    /// Returns why the record diverges from the replayed state; the
    /// caller must stop trusting `manager`.
    pub(crate) fn apply(
        &mut self,
        manager: &mut NwadeManager,
        record: WalRecord,
    ) -> Result<(), String> {
        // Any record but a commit shows that the live run moved past the
        // pending stage without committing, so the stage sealed nothing.
        if !matches!(record, WalRecord::Commit(_)) {
            if let Some(stage) = self.stage.take() {
                if stage.execute(manager).is_some() {
                    return Err("uncommitted stage produced a block".into());
                }
            }
        }
        match record {
            WalRecord::Commit(block) => {
                let stage = self
                    .stage
                    .take()
                    .ok_or_else(|| format!("commit of block {} without a stage", block.index()))?;
                stage.adopt(manager, &block)?;
                self.unbroadcast.push(block);
            }
            WalRecord::Snapshot(state) => {
                // The primary's periodic state dump: replaying the same
                // records must have reached the same state.
                if manager.durable_state() != state {
                    return Err("snapshot disagrees with replayed state".into());
                }
            }
            WalRecord::WindowStart { now, requests } => {
                self.stage = Some(Stage::Window { now, requests });
            }
            WalRecord::EvacStart {
                now,
                states,
                threats,
            } => {
                self.stage = Some(Stage::Evacuation {
                    now,
                    states,
                    threats,
                });
            }
            WalRecord::Broadcasted { index } => {
                self.unbroadcast.retain(|b| b.index() != index);
            }
            WalRecord::Release { vehicle } => manager.release_vehicle(vehicle),
            WalRecord::Ledger(change) => manager.apply_ledger(&change),
        }
        Ok(())
    }

    /// Re-executes a stage record that ends the log with no `Commit`: the
    /// crash window itself. The block it re-creates, if any, joins the
    /// unbroadcast blocks and is returned.
    pub(crate) fn execute_trailing(&mut self, manager: &mut NwadeManager) -> Option<&Block> {
        let block = self.stage.take()?.execute(manager)?;
        self.unbroadcast.push(block);
        self.unbroadcast.last()
    }

    /// Every committed block the fleet may not have seen — never marked
    /// broadcast, the re-executed crash window's included — in chain
    /// order.
    pub(crate) fn finish(mut self) -> Vec<Block> {
        self.unbroadcast.sort_by_key(Block::index);
        self.unbroadcast
    }
}

impl ImPersistence {
    /// Opens the log on `backend` and brings `manager` up to date.
    ///
    /// `manager` must be freshly constructed (genesis state): on an
    /// empty log this is a no-op warm outcome; otherwise the latest
    /// intact snapshot is restored into it and the WAL suffix replayed:
    /// committed blocks are adopted, and only stages with no commit
    /// re-execute. Any inconsistency yields [`RecoveryOutcome::Cold`] —
    /// the caller must then discard `manager` (it may be half-restored)
    /// along with this handle.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] only for device-level failures.
    pub fn attach(
        backend: Box<dyn Backend>,
        snapshot_every: u32,
        manager: &mut NwadeManager,
    ) -> Result<(Self, RecoveryOutcome), StoreError> {
        let snapshot_every = snapshot_every.max(1);
        let (wal, opened) = Wal::open(backend)?;
        let mut persist = ImPersistence {
            wal,
            snapshot_every,
            windows_since_snapshot: 0,
        };
        let cold = |persist, reason: String| Ok((persist, RecoveryOutcome::Cold { reason }));

        let mut records = Vec::with_capacity(opened.records.len());
        for payload in &opened.records {
            match WalRecord::decode(payload) {
                Some(r) => records.push(r),
                None => return cold(persist, "undecodable WAL record".into()),
            }
        }

        // Restore the latest snapshot, if any.
        let snap_pos = records
            .iter()
            .rposition(|r| matches!(r, WalRecord::Snapshot(_)));
        let replay_from = match snap_pos {
            Some(pos) => {
                let WalRecord::Snapshot(state) = &records[pos] else {
                    unreachable!("rposition matched a snapshot");
                };
                if !manager.restore_durable(state) {
                    return cold(persist, "snapshot rejected by scheduler restore".into());
                }
                pos + 1
            }
            None => 0,
        };

        // Replay the suffix.
        let mut replay = Replay::default();
        let replayed = records.len() - replay_from;
        for record in records.drain(..).skip(replay_from) {
            if let Err(reason) = replay.apply(manager, record) {
                return cold(persist, reason);
            }
        }

        // A trailing stage without a commit is the crash window itself:
        // re-create its block (if any), commit it now, then hand it to
        // the host for broadcast.
        if let Some(block) = replay.execute_trailing(manager) {
            persist.commit_block(block, true)?;
        }

        // Compact: everything above is now captured by one fresh
        // snapshot, so the next recovery replays only from here.
        if replayed > 0 || snap_pos.is_some() {
            persist.snapshot(manager)?;
        }

        Ok((
            persist,
            RecoveryOutcome::Warm(WarmRecovery {
                actions: replay
                    .finish()
                    .into_iter()
                    .map(ManagerAction::BroadcastBlock)
                    .collect(),
                truncated_bytes: opened.truncated,
                replayed_records: replayed,
            }),
        ))
    }

    /// Forks this handle onto an independently forked device (see
    /// `nwade_store::MemBackend::fork`): same snapshot cadence, same
    /// windows-since-snapshot counter, no recovery scan and no
    /// compaction. A forensic world snapshot pairs a cloned manager
    /// with this so the resumed run appends the exact same records —
    /// including the snapshot-cadence positions — as the original.
    pub fn fork_onto(&self, backend: Box<dyn Backend>) -> ImPersistence {
        ImPersistence {
            wal: Wal::resume(backend),
            snapshot_every: self.snapshot_every,
            windows_since_snapshot: self.windows_since_snapshot,
        }
    }

    /// Adopts an already-consistent device without a recovery scan —
    /// the promotion path: a standby that tailed the log frame-by-frame
    /// already holds exactly its durable state, so re-scanning would
    /// only repeat work it just did.
    pub(crate) fn adopt(backend: Box<dyn Backend>, snapshot_every: u32) -> ImPersistence {
        ImPersistence {
            wal: Wal::resume(backend),
            snapshot_every: snapshot_every.max(1),
            windows_since_snapshot: 0,
        }
    }

    pub(crate) fn snapshot(&mut self, manager: &NwadeManager) -> Result<(), StoreError> {
        self.wal
            .append(&WalRecord::Snapshot(manager.durable_state()).encode())?;
        self.wal.commit()?;
        self.windows_since_snapshot = 0;
        Ok(())
    }

    /// Logs (and syncs) the start of a processing window with its
    /// in-flight requests. Also flushes any buffered `Broadcasted` /
    /// `Release` records from earlier ticks.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn window_start(&mut self, now: f64, requests: &[PlanRequest]) -> Result<(), StoreError> {
        self.wal.append(
            &WalRecord::WindowStart {
                now,
                requests: requests.to_vec(),
            }
            .encode(),
        )?;
        self.wal.commit()
    }

    /// Logs (and syncs) the start of evacuation planning.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn evac_start(
        &mut self,
        now: f64,
        states: &[PlanRequest],
        threats: &[Vec2],
    ) -> Result<(), StoreError> {
        self.wal.append(
            &WalRecord::EvacStart {
                now,
                states: states.to_vec(),
                threats: threats.to_vec(),
            }
            .encode(),
        )?;
        self.wal.commit()
    }

    /// Appends the commit record for a staged block. `sync` false
    /// leaves it in the page cache (used by the torn-write crash
    /// point); every real caller passes true — this is the barrier
    /// "WAL record before publishing".
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn commit_block(&mut self, block: &Block, sync: bool) -> Result<(), StoreError> {
        self.wal
            .append(&WalRecord::Commit(block.clone()).encode())?;
        if sync {
            self.wal.commit()?;
        }
        Ok(())
    }

    /// Buffers a broadcast marker (no barrier of its own).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn broadcasted(&mut self, index: u64) -> Result<(), StoreError> {
        self.wal.append(&WalRecord::Broadcasted { index }.encode())
    }

    /// Buffers a vehicle-release record (no barrier of its own).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn release(&mut self, vehicle: VehicleId) -> Result<(), StoreError> {
        self.wal.append(&WalRecord::Release { vehicle }.encode())
    }

    /// Buffers a report-ledger change (no barrier of its own).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn ledger(&mut self, change: &Ledger) -> Result<(), StoreError> {
        self.wal.append(&WalRecord::Ledger(change.clone()).encode())
    }

    /// Marks the end of a processing window and appends a snapshot
    /// every `snapshot_every`-th call. Returns `true` when a snapshot
    /// was written.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn window_end(&mut self, manager: &NwadeManager) -> Result<bool, StoreError> {
        self.windows_since_snapshot += 1;
        if self.windows_since_snapshot >= self.snapshot_every {
            self.snapshot(manager)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Current log size in bytes (diagnostics).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on device failure.
    pub fn len_bytes(&mut self) -> Result<u64, StoreError> {
        self.wal.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NwadeConfig;
    use nwade_aim::{ReservationScheduler, Scheduler, SchedulerConfig};
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology};
    use nwade_store::MemBackend;
    use nwade_traffic::VehicleDescriptor;
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

    fn attach_fresh(handle: &MemBackend) -> (ImPersistence, NwadeManager, RecoveryOutcome) {
        let mut m = manager();
        let (p, outcome) =
            ImPersistence::attach(Box::new(handle.clone()), 4, &mut m).expect("attach");
        (p, m, outcome)
    }

    /// Drives `n` windows through manager + persistence the way the
    /// host does, returning the broadcast blocks.
    fn drive(
        persist: &mut ImPersistence,
        manager: &mut NwadeManager,
        windows: std::ops::Range<u64>,
    ) -> Vec<Block> {
        let mut blocks = Vec::new();
        for w in windows {
            let now = w as f64 * 4.0;
            let requests = [request(w * 2), request(w * 2 + 1)];
            persist.window_start(now, &requests).unwrap();
            let action = manager.on_window(&requests, now).expect("block");
            let ManagerAction::BroadcastBlock(block) = action else {
                panic!("expected a broadcast");
            };
            persist.commit_block(&block, true).unwrap();
            persist.broadcasted(block.index()).unwrap();
            persist.window_end(manager).unwrap();
            blocks.push(block);
        }
        blocks
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let mut m = manager();
        let _ = m.on_window(&[request(0), request(1)], 0.0);
        let state = m.durable_state();
        let bytes = state.encode();
        assert_eq!(DurableState::decode(&bytes), Some(state.clone()));
        for cut in 0..bytes.len() {
            assert_eq!(DurableState::decode(&bytes[..cut]), None, "prefix {cut}");
        }
        // Restoring into a fresh manager reproduces the durable state.
        let mut fresh = manager();
        assert!(fresh.restore_durable(&state));
        assert_eq!(fresh.durable_state(), state);
    }

    #[test]
    fn wal_record_codec_round_trips() {
        let Some(ManagerAction::BroadcastBlock(block)) =
            manager().on_window(&[request(4), request(5)], 2.0)
        else {
            panic!("expected a block");
        };
        let records = vec![
            WalRecord::WindowStart {
                now: 12.5,
                requests: vec![request(1), request(2)],
            },
            WalRecord::EvacStart {
                now: 30.0,
                states: vec![request(3)],
                threats: vec![Vec2::new(1.0, -2.0)],
            },
            WalRecord::Commit(block),
            WalRecord::Broadcasted { index: 7 },
            WalRecord::Release {
                vehicle: VehicleId::new(9),
            },
            WalRecord::Ledger(Ledger {
                next_request_id: 4,
                confirmed: vec![VehicleId::new(3)],
                false_reporters: vec![(VehicleId::new(1), 2), (VehicleId::new(8), 1)],
            }),
        ];
        for r in records {
            let bytes = r.encode();
            assert_eq!(WalRecord::decode(&bytes), Some(r));
            assert_eq!(WalRecord::decode(&bytes[..bytes.len() - 1]), None);
        }
        assert_eq!(WalRecord::decode(&[99, 0, 0]), None, "unknown kind");
    }

    #[test]
    fn fresh_log_attaches_warm_with_no_actions() {
        let handle = MemBackend::new();
        let (_, _, outcome) = attach_fresh(&handle);
        let RecoveryOutcome::Warm(w) = outcome else {
            panic!("fresh log must attach warm, got {outcome:?}");
        };
        assert!(w.actions.is_empty());
        assert_eq!(w.replayed_records, 0);
    }

    #[test]
    fn crash_after_commit_recovers_same_tip_and_rebroadcasts() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        let blocks = drive(&mut persist, &mut live, 0..3);

        // Window 3 commits (synced) but the broadcast never goes out.
        let now = 12.0;
        let requests = [request(6), request(7)];
        persist.window_start(now, &requests).unwrap();
        let Some(ManagerAction::BroadcastBlock(staged)) = live.on_window(&requests, now) else {
            panic!("expected a block");
        };
        persist.commit_block(&staged, true).unwrap();
        handle.crash(0);
        drop(persist);

        let (_, recovered, outcome) = attach_fresh(&handle);
        let RecoveryOutcome::Warm(w) = outcome else {
            panic!("expected warm recovery, got {outcome:?}");
        };
        let [ManagerAction::BroadcastBlock(again)] = w.actions.as_slice() else {
            panic!(
                "expected exactly the unbroadcast block, got {:?}",
                w.actions
            );
        };
        assert_eq!(again.hash(), staged.hash(), "the committed block itself");
        assert_eq!(recovered.durable_state(), live.durable_state());
        let _ = blocks;
    }

    #[test]
    fn crash_before_commit_reexecutes_the_window() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        drive(&mut persist, &mut live, 0..2);

        let now = 8.0;
        let requests = [request(4), request(5)];
        persist.window_start(now, &requests).unwrap();
        let Some(ManagerAction::BroadcastBlock(staged)) = live.on_window(&requests, now) else {
            panic!("expected a block");
        };
        // Torn write: the commit frame reaches the device half-written.
        persist.commit_block(&staged, false).unwrap();
        handle.crash(11);
        drop(persist);

        let (_, recovered, outcome) = attach_fresh(&handle);
        let RecoveryOutcome::Warm(w) = outcome else {
            panic!("expected warm recovery, got {outcome:?}");
        };
        assert!(w.truncated_bytes > 0, "torn tail was repaired");
        let [ManagerAction::BroadcastBlock(again)] = w.actions.as_slice() else {
            panic!("expected the re-executed window's block");
        };
        assert_eq!(again.hash(), staged.hash(), "deterministic re-execution");
        assert_eq!(recovered.durable_state(), live.durable_state());
    }

    #[test]
    fn broadcasted_marker_suppresses_rebroadcast() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        drive(&mut persist, &mut live, 0..2);
        // The next window's start barrier makes the buffered Broadcasted
        // markers durable; crashing right after leaves only the in-flight
        // window to finish — blocks 0 and 1 are already on the air.
        persist
            .window_start(8.0, &[request(4), request(5)])
            .unwrap();
        handle.crash(0);
        drop(persist);

        let (_, _, outcome) = attach_fresh(&handle);
        let RecoveryOutcome::Warm(w) = outcome else {
            panic!("expected warm recovery");
        };
        for action in &w.actions {
            let ManagerAction::BroadcastBlock(b) = action else {
                panic!("unexpected action {action:?}");
            };
            assert_eq!(b.index(), 2, "blocks 0 and 1 must not rebroadcast");
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_cold() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        drive(&mut persist, &mut live, 0..4); // window_end at 4 snapshots
        drop(persist);

        // Flip a bit inside the (synced) snapshot's scheduler table so
        // the frame checksum stays... no — the frame checksum catches
        // byte flips, which truncates to before the snapshot and stays
        // warm. To hit the *semantic* corrupt-snapshot path, forge a log
        // whose snapshot record decodes but whose table bytes are junk.
        let mut m = manager();
        let mut state = m.durable_state();
        state.scheduler = vec![0xFF; 7];
        let forged = MemBackend::new();
        {
            let (mut wal, _) = Wal::open(Box::new(forged.clone())).unwrap();
            wal.append_committed(&WalRecord::Snapshot(state).encode())
                .unwrap();
        }
        let (_, outcome) = ImPersistence::attach(Box::new(forged.clone()), 4, &mut m).unwrap();
        assert!(
            matches!(outcome, RecoveryOutcome::Cold { .. }),
            "junk snapshot must go cold, got {outcome:?}"
        );
    }

    #[test]
    fn bit_flip_in_synced_tail_truncates_to_prefix() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        drive(&mut persist, &mut live, 0..3);
        let len = handle.contents().len();
        drop(persist);
        // Corrupt the last few bytes: recovery drops the damaged suffix
        // and still comes up warm on the committed prefix.
        handle.flip_bit(len - 3, 1);
        let (_, recovered, outcome) = attach_fresh(&handle);
        let RecoveryOutcome::Warm(_) = outcome else {
            panic!("expected warm recovery on the prefix, got {outcome:?}");
        };
        // The recovered tip is one of the committed heights, never junk.
        assert!(recovered.durable_state().next_index <= live.durable_state().next_index);
    }

    #[test]
    fn evacuation_blocks_replay_too() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        drive(&mut persist, &mut live, 0..2);
        let now = 9.0;
        let states = [request(30), request(31)];
        let threats = [Vec2::new(5.0, 5.0)];
        persist.evac_start(now, &states, &threats).unwrap();
        let Some(ManagerAction::BroadcastBlock(evac)) =
            live.evacuation_block(&states, &threats, now)
        else {
            panic!("expected an evacuation block");
        };
        persist.commit_block(&evac, true).unwrap();
        handle.crash(0);
        drop(persist);

        let (_, recovered, outcome) = attach_fresh(&handle);
        let RecoveryOutcome::Warm(w) = outcome else {
            panic!("expected warm recovery, got {outcome:?}");
        };
        let [ManagerAction::BroadcastBlock(again)] = w.actions.as_slice() else {
            panic!("expected the evacuation block to rebroadcast");
        };
        assert_eq!(again.hash(), evac.hash());
        assert_eq!(recovered.durable_state(), live.durable_state());
    }

    /// Replay as it was before committed blocks were adopted: every
    /// stage re-executes at once, and each re-created block must match
    /// the one its `Commit` carries. The oracle of the adopt path.
    #[derive(Default)]
    struct Reexecute {
        staged: Option<Block>,
        unbroadcast: Vec<Block>,
    }

    impl Reexecute {
        fn apply(&mut self, manager: &mut NwadeManager, record: WalRecord) -> Result<(), String> {
            let block_of = |action| match action {
                Some(ManagerAction::BroadcastBlock(block)) => Some(block),
                _ => None,
            };
            match record {
                WalRecord::Snapshot(state) => {
                    if manager.durable_state() != state {
                        return Err("snapshot disagrees with replayed state".into());
                    }
                }
                WalRecord::WindowStart { now, requests } => {
                    self.nothing_staged()?;
                    self.staged = block_of(manager.on_window(&requests, now));
                }
                WalRecord::EvacStart {
                    now,
                    states,
                    threats,
                } => {
                    self.nothing_staged()?;
                    self.staged = block_of(manager.evacuation_block(&states, &threats, now));
                }
                WalRecord::Commit(block) => {
                    let staged = self.staged.take().ok_or("commit without a staged block")?;
                    if staged != block {
                        return Err(format!("re-created block {} differs", block.index()));
                    }
                    self.unbroadcast.push(staged);
                }
                WalRecord::Broadcasted { index } => {
                    self.nothing_staged()?;
                    self.unbroadcast.retain(|b| b.index() != index);
                }
                WalRecord::Release { vehicle } => {
                    self.nothing_staged()?;
                    manager.release_vehicle(vehicle);
                }
                WalRecord::Ledger(change) => {
                    self.nothing_staged()?;
                    manager.apply_ledger(&change);
                }
            }
            Ok(())
        }

        fn nothing_staged(&self) -> Result<(), String> {
            match self.staged {
                Some(_) => Err("uncommitted stage produced a block".into()),
                None => Ok(()),
            }
        }

        fn finish(mut self) -> Vec<Block> {
            self.unbroadcast.extend(self.staged);
            self.unbroadcast.sort_by_key(Block::index);
            self.unbroadcast
        }
    }

    /// The reservation scheduler, except that a batch scheduled at a
    /// half-second mark comes back with two plans retimed into a
    /// conflict ([`nwade_aim::corrupt::make_conflicting`]) and booked as
    /// returned. The publish filter then has plans to drop, which honest
    /// scheduling makes rare.
    #[derive(Clone)]
    struct Conflicting {
        inner: ReservationScheduler,
        topology: Arc<Topology>,
    }

    impl Scheduler for Conflicting {
        fn schedule(&mut self, requests: &[PlanRequest], now: f64) -> Vec<TravelPlan> {
            let plans = self.inner.schedule(requests, now);
            if now.fract() != 0.5 {
                return plans;
            }
            let Some(bad) = nwade_aim::corrupt::make_conflicting(&plans, &self.topology, now)
            else {
                return plans;
            };
            for plan in &bad {
                self.inner.book(plan);
            }
            bad
        }
        fn collect_garbage(&mut self, t: f64) {
            self.inner.collect_garbage(t);
        }
        fn release(&mut self, vehicle: VehicleId) {
            self.inner.release(vehicle);
        }
        fn book(&mut self, plan: &TravelPlan) {
            self.inner.book(plan);
        }
        fn export_state(&self) -> Vec<u8> {
            self.inner.export_state()
        }
        fn import_state(&mut self, state: &[u8]) -> bool {
            self.inner.import_state(state)
        }
        fn clone_box(&self) -> Box<dyn Scheduler + Send> {
            Box::new(self.clone())
        }
    }

    fn conflicting_manager() -> NwadeManager {
        let topology = topo();
        let inner = ReservationScheduler::new(topology.clone(), SchedulerConfig::default());
        NwadeManager::new(
            topology.clone(),
            Box::new(Conflicting { inner, topology }),
            Arc::new(MockScheme::from_seed(9)),
            NwadeConfig::default(),
        )
    }

    /// What the random log generator below produced, summed over its logs.
    #[derive(Debug, Default)]
    struct Coverage {
        drops: usize,
        blockless: usize,
        evacuations: usize,
        twice_listed: usize,
        ledger_changes: usize,
        snapshots: usize,
        trailing: usize,
    }

    /// Drives a primary through random windows the way the host does,
    /// logging them, and returns it with its device.
    fn random_log(seed: u64, coverage: &mut Coverage) -> (NwadeManager, MemBackend) {
        use rand::Rng;
        let handle = MemBackend::new();
        let mut live = conflicting_manager();
        let (mut persist, _) =
            ImPersistence::attach(Box::new(handle.clone()), 3, &mut live).expect("attach");
        let mut rng = StdRng::seed_from_u64(seed);
        let random_request = |rng: &mut StdRng| PlanRequest {
            position_s: rng.gen_range(0.0..5.0),
            ..request(rng.gen_range(0..24u64))
        };
        let mut now = 0.0;
        let steps = 40;
        for step in 0..steps {
            now += 1.0;
            let last = step + 1 == steps;
            match rng.gen_range(0..10u32) {
                0 => {
                    let vehicle = VehicleId::new(rng.gen_range(0..24u64));
                    persist.release(vehicle).unwrap();
                    live.release_vehicle(vehicle);
                }
                1 => {
                    let states: Vec<PlanRequest> =
                        (0..3).map(|_| random_request(&mut rng)).collect();
                    let threats = [Vec2::new(rng.gen_range(-8.0..8.0), 0.0)];
                    persist.evac_start(now, &states, &threats).unwrap();
                    if let Some(ManagerAction::BroadcastBlock(block)) =
                        live.evacuation_block(&states, &threats, now)
                    {
                        persist.commit_block(&block, true).unwrap();
                        persist.broadcasted(block.index()).unwrap();
                        coverage.evacuations += 1;
                    }
                }
                2 => {
                    let before = live.ledger();
                    let report = crate::messages::IncidentReport {
                        reporter: VehicleId::new(rng.gen_range(0..24u64)),
                        suspect: VehicleId::new(rng.gen_range(0..24u64)),
                        evidence: crate::messages::Observation {
                            target: VehicleId::new(0),
                            position: Vec2::ZERO,
                            speed: 0.0,
                            time: now,
                        },
                        block_index: 0,
                    };
                    let watchers: Vec<VehicleId> =
                        (30..rng.gen_range(30..34u64)).map(VehicleId::new).collect();
                    live.on_incident_report(&report, &watchers, now);
                    if let Some(change) = live.ledger().since(&before) {
                        persist.ledger(&change).unwrap();
                        coverage.ledger_changes += 1;
                    }
                }
                kind => {
                    // Conflicting batches land on a half-second mark.
                    if kind <= 4 {
                        now += 0.5;
                    }
                    let mut requests: Vec<PlanRequest> = (0..rng.gen_range(1..6))
                        .map(|_| random_request(&mut rng))
                        .collect();
                    if kind == 5 {
                        requests.push(requests[0].clone());
                    }
                    let mut ids: Vec<VehicleId> = requests.iter().map(|r| r.id).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    coverage.twice_listed += usize::from(ids.len() < requests.len());
                    persist.window_start(now, &requests).unwrap();
                    let action = live.on_window(&requests, now);
                    if last {
                        // The crash window: nothing after its stage record.
                        coverage.trailing += 1;
                        break;
                    }
                    match action {
                        Some(ManagerAction::BroadcastBlock(block)) => {
                            coverage.drops += requests.len() - block.plans().len();
                            persist.commit_block(&block, true).unwrap();
                            if rng.gen_bool(0.7) {
                                persist.broadcasted(block.index()).unwrap();
                            }
                        }
                        _ => coverage.blockless += 1,
                    }
                    coverage.snapshots += usize::from(persist.window_end(&live).unwrap());
                    now = now.floor();
                }
            }
        }
        (live, handle)
    }

    /// Replay adopts committed blocks; the oracle re-executes every
    /// stage. Over random logs they reach the same durable state after
    /// every record (once a stage record's outcome is known) and owe the
    /// fleet the same blocks at the end, and both equal the primary.
    #[test]
    fn adopting_committed_blocks_equals_re_executing_them() {
        let mut coverage = Coverage::default();
        for seed in 0..12 {
            let (live, handle) = random_log(seed, &mut coverage);
            let (_, opened) = Wal::open(Box::new(handle.fork())).unwrap();
            let mut adopted = conflicting_manager();
            let mut replay = Replay::default();
            let mut oracle = conflicting_manager();
            let mut reexecute = Reexecute::default();
            for (i, payload) in opened.records.iter().enumerate() {
                let record = WalRecord::decode(payload).expect("record decodes");
                replay
                    .apply(&mut adopted, record.clone())
                    .unwrap_or_else(|e| panic!("seed {seed}, record {i}: {e}"));
                reexecute
                    .apply(&mut oracle, record)
                    .unwrap_or_else(|e| panic!("oracle, seed {seed}, record {i}: {e}"));
                if replay.stage.is_none() {
                    assert_eq!(
                        adopted.durable_state(),
                        oracle.durable_state(),
                        "seed {seed}, record {i}"
                    );
                }
            }
            replay.execute_trailing(&mut adopted);
            assert_eq!(
                adopted.durable_state(),
                oracle.durable_state(),
                "seed {seed}"
            );
            assert_eq!(adopted.durable_state(), live.durable_state(), "seed {seed}");
            assert_eq!(replay.finish(), reexecute.finish(), "seed {seed}");
        }
        // Every path of the adopt rule ran.
        assert!(coverage.drops > 0, "{coverage:?}");
        assert!(coverage.blockless > 0, "{coverage:?}");
        assert!(coverage.evacuations > 0, "{coverage:?}");
        assert!(coverage.twice_listed > 0, "{coverage:?}");
        assert!(coverage.ledger_changes > 0, "{coverage:?}");
        assert!(coverage.snapshots > 0, "{coverage:?}");
        assert!(coverage.trailing > 0, "{coverage:?}");
    }

    #[test]
    fn commit_that_does_not_extend_the_chain_diverges() {
        let mut live = manager();
        let requests = [request(0), request(1)];
        let Some(ManagerAction::BroadcastBlock(b0)) = live.on_window(&requests, 0.0) else {
            panic!("expected a block");
        };
        let later = [request(2)];
        let Some(ManagerAction::BroadcastBlock(b1)) = live.on_window(&later, 1.0) else {
            panic!("expected a block");
        };
        let start = |requests: &[PlanRequest], now| WalRecord::WindowStart {
            now,
            requests: requests.to_vec(),
        };
        // Block 1 where block 0 belongs.
        let mut replay = Replay::default();
        let mut m = manager();
        replay.apply(&mut m, start(&requests, 0.0)).unwrap();
        assert!(replay.apply(&mut m, WalRecord::Commit(b1.clone())).is_err());
        // A block planning a vehicle its window never requested.
        let mut replay = Replay::default();
        let mut m = manager();
        replay.apply(&mut m, start(&later, 0.0)).unwrap();
        assert!(replay.apply(&mut m, WalRecord::Commit(b0.clone())).is_err());
        // A block whose plans do not match its root.
        let forged = Block::from_parts(
            b0.index(),
            b0.signature().to_vec(),
            b0.prev_hash(),
            b0.timestamp(),
            b1.merkle_root(),
            b0.plans().to_vec(),
        );
        let mut replay = Replay::default();
        let mut m = manager();
        replay.apply(&mut m, start(&requests, 0.0)).unwrap();
        assert!(replay.apply(&mut m, WalRecord::Commit(forged)).is_err());
        assert_eq!(m.durable_state(), manager().durable_state(), "unchanged");
    }

    #[test]
    fn ledger_changes_survive_warm_recovery() {
        let handle = MemBackend::new();
        let (mut persist, mut live, _) = attach_fresh(&handle);
        drive(&mut persist, &mut live, 0..2);
        let before = live.ledger();
        let report = crate::messages::IncidentReport {
            reporter: VehicleId::new(1),
            suspect: VehicleId::new(2),
            evidence: crate::messages::Observation {
                target: VehicleId::new(2),
                position: Vec2::ZERO,
                speed: 0.0,
                time: 8.0,
            },
            block_index: 0,
        };
        // No watcher to poll: the report confirms the suspect at once.
        live.on_incident_report(&report, &[], 8.0);
        live.note_reporter_history(VehicleId::new(3), 2);
        let change = live.ledger().since(&before).expect("the ledger changed");
        assert_eq!(change.confirmed, vec![VehicleId::new(2)]);
        assert_eq!(change.false_reporters, vec![(VehicleId::new(3), 2)]);
        persist.ledger(&change).unwrap();
        drive(&mut persist, &mut live, 2..4); // snapshots at window 4
        drop(persist);

        let (_, recovered, outcome) = attach_fresh(&handle);
        assert!(matches!(outcome, RecoveryOutcome::Warm(_)), "{outcome:?}");
        assert_eq!(recovered.durable_state(), live.durable_state());
        assert_eq!(recovered.confirmed_malicious(), &[VehicleId::new(2)]);
    }
}
