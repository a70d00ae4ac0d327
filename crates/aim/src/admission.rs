//! Fairness-aware window admission.
//!
//! The intersection manager schedules one batch of plan requests per
//! processing window. Under saturation more requests are pending than one
//! window can absorb, and *which* requests get in decides both throughput
//! and fairness: a naive "first `max` in map-iteration order" cut (the
//! bug this module replaces) silently favours whatever the container
//! iteration happens to yield and can starve a vehicle indefinitely.
//!
//! [`AdmissionQueue`] holds every offered request with its arrival time
//! and a deferral count. Each window, [`AdmissionQueue::admit`] selects
//! up to [`AdmissionPolicy::max_batch`] entries:
//!
//! * Entries deferred at least [`AdmissionPolicy::max_defer_windows`]
//!   times form the **aged class** and are served first, oldest first
//!   (FIFO by admission sequence number). This bounds starvation: once a
//!   request ages, nothing pushed after it can be admitted ahead of it,
//!   so it is scheduled within `⌈backlog_ahead / capacity⌉` further
//!   windows (pinned by the `admission_props` proptest).
//! * Remaining capacity goes to the **fresh class**, ordered by
//!   [`AdmissionPolicy::order`]: [`Arrival`](AdmissionOrder::Arrival)
//!   (earliest push first) or [`Deadline`](AdmissionOrder::Deadline)
//!   (most urgent first, per a caller-supplied deadline function —
//!   typically time-to-stop-line, so vehicles about to reach the box
//!   are planned before ones that just entered the zone).
//!
//! Every cut is deterministic: ties break on a monotonically increasing
//! sequence number assigned at push, never on container iteration order.
//! With an unbounded policy (`max_batch: None`, the default) `admit`
//! returns all entries in exact push order and never sorts — the
//! historical single-batch behaviour, bit-for-bit.
//!
//! Admission is applied by the *host* before
//! [`Scheduler::schedule`](crate::Scheduler::schedule): the simulation
//! world reads its policy from `SimConfig::admission` in `nwade-sim`,
//! and the schedulers never see it. Schedulers normalize whatever batch
//! they receive through `batch_order`, so admission ordering never
//! changes plan contents — only *membership* of the window batch.

use crate::plan::PlanRequest;

/// How the fresh (non-aged) class is ordered when the cap binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionOrder {
    /// Earliest-offered first (FIFO over push order).
    Arrival,
    /// Most urgent first, per the caller's deadline function; ties break
    /// on push order.
    #[default]
    Deadline,
}

/// Per-window admission policy, carried by the host (the simulator's
/// `SimConfig::admission`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Most requests admitted per window; `None` admits everything (the
    /// default — no cap, no reordering).
    pub max_batch: Option<usize>,
    /// Ordering of the fresh class when the cap binds.
    pub order: AdmissionOrder,
    /// Deferral count at which an entry joins the aged class and is
    /// served FIFO ahead of all fresh entries. Must be ≥ 1.
    pub max_defer_windows: u32,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_batch: None,
            order: AdmissionOrder::Deadline,
            max_defer_windows: 4,
        }
    }
}

impl AdmissionPolicy {
    /// A bounded deadline-ordered policy with the default aging horizon.
    pub fn bounded(max_batch: usize) -> Self {
        AdmissionPolicy {
            max_batch: Some(max_batch),
            ..AdmissionPolicy::default()
        }
    }

    /// Validates the policy, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == Some(0) {
            return Err("admission max_batch must be positive when set".into());
        }
        if self.max_defer_windows == 0 {
            return Err("admission max_defer_windows must be at least 1".into());
        }
        Ok(())
    }
}

/// One queued request with its admission bookkeeping.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    /// Simulation time the request was offered.
    pub arrival: f64,
    /// Windows this entry has been passed over.
    pub deferrals: u32,
    /// Monotonic push sequence number — the deterministic tie-break.
    pub seq: u64,
    /// The request itself.
    pub request: PlanRequest,
}

/// Result of one [`AdmissionQueue::admit`] call.
#[derive(Debug)]
pub struct AdmissionOutcome {
    /// Entries admitted to this window, in the order the policy chose.
    pub admitted: Vec<QueuedRequest>,
    /// Entries that were waiting when the window opened.
    pub offered: usize,
    /// Entries pushed back into the queue (`offered - admitted.len()`).
    pub deferred: usize,
}

/// The pending-request queue an admission policy draws from.
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue {
    entries: Vec<QueuedRequest>,
    next_seq: u64,
}

impl AdmissionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        AdmissionQueue::default()
    }

    /// Number of waiting entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Waiting entries in push order (aged entries keep their original
    /// position; ordering is applied only at admission time).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedRequest> {
        self.entries.iter()
    }

    /// Sum of deferral counts across waiting entries (metrics hook).
    pub fn total_deferrals(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.deferrals)).sum()
    }

    /// Offers a request, stamping it with the next sequence number.
    pub fn push(&mut self, arrival: f64, request: PlanRequest) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(QueuedRequest {
            arrival,
            deferrals: 0,
            seq,
            request,
        });
    }

    /// Drops waiting entries that no longer need a plan (left the map,
    /// got a plan by other means).
    pub fn retain(&mut self, mut keep: impl FnMut(&QueuedRequest) -> bool) {
        self.entries.retain(|e| keep(e));
    }

    /// Removes and returns every waiting entry in push order.
    pub fn drain_all(&mut self) -> Vec<QueuedRequest> {
        std::mem::take(&mut self.entries)
    }

    /// Admits up to `policy.max_batch` entries for this window.
    ///
    /// `deadline_of` maps a waiting entry to its urgency key (smaller =
    /// sooner = admitted earlier under
    /// [`AdmissionOrder::Deadline`]); it is only consulted when the cap
    /// binds and the order is `Deadline`. Entries passed over get their
    /// deferral count incremented and stay queued in their original
    /// relative order.
    pub fn admit(
        &mut self,
        policy: &AdmissionPolicy,
        mut deadline_of: impl FnMut(&QueuedRequest) -> f64,
    ) -> AdmissionOutcome {
        let offered = self.entries.len();
        let cap = policy.max_batch.unwrap_or(usize::MAX);
        if offered <= cap {
            // Uncapped window: exact push order, no sorting — identical
            // to the historical single-batch path.
            return AdmissionOutcome {
                admitted: std::mem::take(&mut self.entries),
                offered,
                deferred: 0,
            };
        }

        let mut waiting = std::mem::take(&mut self.entries);
        // Aged entries first, FIFO by seq; then the fresh class by the
        // configured order. Sorting by seq is a total order, so the cut
        // is deterministic regardless of how `waiting` was built.
        let mut ranked: Vec<usize> = (0..waiting.len()).collect();
        let aged = |e: &QueuedRequest| e.deferrals >= policy.max_defer_windows;
        ranked.sort_by(|&a, &b| {
            let (ea, eb) = (&waiting[a], &waiting[b]);
            match (aged(ea), aged(eb)) {
                (true, false) => return std::cmp::Ordering::Less,
                (false, true) => return std::cmp::Ordering::Greater,
                (true, true) => return ea.seq.cmp(&eb.seq),
                (false, false) => {}
            }
            match policy.order {
                AdmissionOrder::Arrival => ea.seq.cmp(&eb.seq),
                AdmissionOrder::Deadline => deadline_of(ea)
                    .total_cmp(&deadline_of(eb))
                    .then(ea.seq.cmp(&eb.seq)),
            }
        });

        let cut: std::collections::HashSet<usize> = ranked[..cap].iter().copied().collect();
        let mut admitted = Vec::with_capacity(cap);
        for &i in &ranked[..cap] {
            admitted.push(waiting[i].clone());
        }
        // Deferred entries keep their original relative order so the
        // next window's tie-breaks stay push-stable.
        let mut kept = Vec::with_capacity(waiting.len() - cap);
        for (i, mut e) in waiting.drain(..).enumerate() {
            if !cut.contains(&i) {
                e.deferrals += 1;
                kept.push(e);
            }
        }
        let deferred = kept.len();
        self.entries = kept;
        AdmissionOutcome {
            admitted,
            offered,
            deferred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade_intersection::MovementId;
    use nwade_traffic::{VehicleDescriptor, VehicleId};

    fn req(id: u64, position_s: f64) -> PlanRequest {
        PlanRequest {
            id: VehicleId::new(id),
            descriptor: VehicleDescriptor {
                brand: "test".into(),
                model: "unit".into(),
                color: "gray".into(),
            },
            movement: MovementId::new(0),
            position_s,
            speed: 10.0,
        }
    }

    fn ids(entries: &[QueuedRequest]) -> Vec<u64> {
        entries.iter().map(|e| e.request.id.raw()).collect()
    }

    #[test]
    fn unbounded_policy_preserves_push_order_exactly() {
        let mut q = AdmissionQueue::new();
        for id in [5u64, 1, 9, 3] {
            q.push(0.0, req(id, 10.0));
        }
        let out = q.admit(&AdmissionPolicy::default(), |_| 0.0);
        assert_eq!(ids(&out.admitted), vec![5, 1, 9, 3]);
        assert_eq!((out.offered, out.deferred), (4, 0));
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_order_admits_most_urgent_first() {
        let mut q = AdmissionQueue::new();
        // Larger position_s = closer to the box = smaller deadline.
        q.push(0.0, req(1, 10.0));
        q.push(0.0, req(2, 90.0));
        q.push(0.0, req(3, 50.0));
        let policy = AdmissionPolicy::bounded(2);
        let out = q.admit(&policy, |e| 100.0 - e.request.position_s);
        assert_eq!(ids(&out.admitted), vec![2, 3]);
        assert_eq!((out.offered, out.deferred), (3, 1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().next().unwrap().deferrals, 1);
    }

    #[test]
    fn arrival_order_is_fifo_under_cap() {
        let mut q = AdmissionQueue::new();
        for id in [7u64, 8, 9] {
            q.push(0.0, req(id, 10.0));
        }
        let policy = AdmissionPolicy {
            max_batch: Some(2),
            order: AdmissionOrder::Arrival,
            ..AdmissionPolicy::default()
        };
        let out = q.admit(&policy, |_| unreachable!("arrival order never asks"));
        assert_eq!(ids(&out.admitted), vec![7, 8]);
        assert_eq!(ids(&q.drain_all()), vec![9]);
    }

    #[test]
    fn aged_entries_jump_the_deadline_queue() {
        let mut q = AdmissionQueue::new();
        q.push(0.0, req(1, 10.0)); // far from box: keeps losing on deadline
        let policy = AdmissionPolicy {
            max_batch: Some(1),
            max_defer_windows: 2,
            ..AdmissionPolicy::default()
        };
        let deadline = |e: &QueuedRequest| 1000.0 - e.request.position_s;
        // Two windows of more-urgent competition defer vehicle 1 twice.
        for w in 0..2u64 {
            q.push(1.0, req(100 + w, 900.0));
            let out = q.admit(&policy, deadline);
            assert_eq!(ids(&out.admitted), vec![100 + w]);
        }
        // Now aged: admitted ahead of an even more urgent newcomer.
        q.push(2.0, req(200, 990.0));
        let out = q.admit(&policy, deadline);
        assert_eq!(ids(&out.admitted), vec![1]);
    }

    #[test]
    fn retain_drops_stale_entries() {
        let mut q = AdmissionQueue::new();
        q.push(0.0, req(1, 10.0));
        q.push(0.0, req(2, 20.0));
        q.retain(|e| e.request.id.raw() != 1);
        assert_eq!(ids(&q.drain_all()), vec![2]);
    }

    #[test]
    fn policy_validation_rejects_degenerate_values() {
        assert!(AdmissionPolicy::default().validate().is_ok());
        assert!(AdmissionPolicy::bounded(0).validate().is_err());
        let p = AdmissionPolicy {
            max_defer_windows: 0,
            ..AdmissionPolicy::default()
        };
        assert!(p.validate().is_err());
    }
}
