//! NWADE: the Neighborhood Watch mechanism for Attack Detection and
//! Evacuation in autonomous intersection management (ICDCS 2022).
//!
//! This crate is the paper's primary contribution, layered on the
//! workspace's substrates (geometry, crypto, intersection topologies,
//! traffic, VANET, AIM scheduling, travel-plan blockchain):
//!
//! * [`fsm`] — the event-driven deterministic finite automata of Fig. 2:
//!   seven intersection-manager states, eight vehicle states,
//! * [`verify`] — Algorithms 1–3: block verification, local
//!   (neighborhood-watch) verification, IM-side report verification with
//!   two-group majority voting, and global verification,
//! * [`guard`] — [`VehicleGuard`], the per-vehicle protocol engine tying
//!   the vehicle FSM, chain cache and verifiers together,
//! * [`manager`] — [`NwadeManager`], the IM-side engine: scheduling,
//!   block packaging, report verification and evacuation,
//! * [`prob`] — the analytic models of Eq. 2 (detection probability) and
//!   Eq. 3 (self-evacuation probability),
//! * [`attack`] — Table I's eleven attack settings and the attacker
//!   behaviours they inject,
//! * [`replica`] — [`StandbyManager`], the hot-standby IM: live WAL
//!   tailing, heartbeat-bounded promotion, and fencing epochs that make
//!   post-failover double-signing structurally impossible,
//! * [`retry`] — [`Retrier`], bounded exponential-backoff retry shared by
//!   every request/response exchange in the protocol,
//! * [`messages`] — the protocol message set exchanged over the VANET.
//!
//! # Quick start
//!
//! ```
//! use nwade::prob;
//!
//! // The paper's worked example (§IV-B4): p_im = 0.1%, p_v·p_loc = 10%,
//! // k = 11 compromised vehicles → P_e ≈ 0.1%.
//! let pe = prob::self_evacuation_probability(0.001, 0.1, 11);
//! assert!((pe - 0.001).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]

pub mod attack;
pub mod config;
pub mod fsm;
pub mod guard;
pub mod manager;
pub mod messages;
pub mod persist;
pub mod prob;
pub mod replica;
pub mod retry;
pub mod verify;

pub use attack::{AttackSetting, ViolationKind};
pub use config::NwadeConfig;
pub use guard::{EvacuationCause, GuardAction, VehicleGuard};
pub use manager::{publish_filter, FilteredBatch, ManagerAction, NwadeManager};
pub use messages::{GlobalClaim, GlobalReport, IncidentReport, NwadeMessage, Observation};
pub use persist::{
    CrashPoint, DurableState, ImPersistence, Ledger, RecoveryOutcome, WalRecord, WarmRecovery,
};
pub use replica::{
    block_epoch, fence_anchor, Promoted, StandbyManager, StandbyPolicy, FENCE_SHARD,
};
pub use retry::{Retrier, RetryDecision, RetryPolicy};
