//! The honest manager's publish filter: it must never sign a block its
//! own vehicles would reject, even when handed a scheduler state that
//! was damaged on purpose, and its incremental check must keep and drop
//! exactly the plans the from-scratch filter does.

use nwade_repro::aim::evacuation::{EvacuationConfig, EvacuationPlanner};
use nwade_repro::aim::{
    corrupt, find_conflicts, PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig,
    TravelPlan, VehicleStatus,
};
use nwade_repro::crypto::MockScheme;
use nwade_repro::geometry::MotionProfile;
use nwade_repro::intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology};
use nwade_repro::nwade::{publish_filter, DurableState, ManagerAction, NwadeConfig, NwadeManager};
use nwade_repro::traffic::{VehicleDescriptor, VehicleId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn topo() -> Arc<Topology> {
    Arc::new(build(
        IntersectionKind::FourWayCross,
        &GeometryConfig::default(),
    ))
}

fn request(id: u64, movement: usize, s: f64) -> PlanRequest {
    PlanRequest {
        id: VehicleId::new(id),
        descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
        movement: MovementId::new(movement as u16),
        position_s: s,
        speed: 15.0,
    }
}

#[test]
fn every_published_block_is_verifier_clean() {
    let topo = topo();
    let mut m = NwadeManager::new(
        topo.clone(),
        Box::new(ReservationScheduler::new(
            topo.clone(),
            SchedulerConfig::default(),
        )),
        Arc::new(MockScheme::from_seed(0)),
        NwadeConfig::default(),
    );
    // A rolling set of current plans, merged exactly as a verifier would.
    let mut current: std::collections::HashMap<VehicleId, nwade_repro::aim::TravelPlan> =
        std::collections::HashMap::new();
    let n_mv = topo.movements().len();
    for window in 0..20u64 {
        let reqs: Vec<PlanRequest> = (0..3)
            .map(|j| {
                let id = window * 10 + j;
                request(id, (id as usize * 7) % n_mv, 0.0)
            })
            .collect();
        let Some(ManagerAction::BroadcastBlock(block)) = m.on_window(&reqs, window as f64 * 2.0)
        else {
            continue;
        };
        for plan in block.plans() {
            current.insert(plan.id(), plan.clone());
        }
        let merged: Vec<_> = current.values().cloned().collect();
        assert!(
            find_conflicts(&merged, &topo, NwadeConfig::default().conflict_gap).is_empty(),
            "window {window}: published history must stay conflict-free"
        );
    }
}

#[test]
fn manager_survives_pathological_request_streams() {
    // Requests at clashing positions, repeated ids, mid-path positions —
    // whatever happens, no published block may carry a conflict.
    let topo = topo();
    let mut m = NwadeManager::new(
        topo.clone(),
        Box::new(ReservationScheduler::new(
            topo.clone(),
            SchedulerConfig::default(),
        )),
        Arc::new(MockScheme::from_seed(1)),
        NwadeConfig::default(),
    );
    let streams: Vec<Vec<PlanRequest>> = vec![
        // Same spawn point, same instant, crossing movements.
        (0..6)
            .map(|i| request(i, (i as usize * 5) % 16, 0.0))
            .collect(),
        // Re-requests of already-planned vehicles from new positions.
        (0..6)
            .map(|i| request(i, (i as usize * 5) % 16, 120.0))
            .collect(),
        // Vehicles already past the box.
        (10..14)
            .map(|i| request(i, (i as usize * 3) % 16, 400.0))
            .collect(),
    ];
    let mut current: std::collections::HashMap<VehicleId, nwade_repro::aim::TravelPlan> =
        std::collections::HashMap::new();
    for (w, reqs) in streams.into_iter().enumerate() {
        if let Some(ManagerAction::BroadcastBlock(block)) = m.on_window(&reqs, w as f64 * 5.0) {
            for plan in block.plans() {
                current.insert(plan.id(), plan.clone());
            }
            let merged: Vec<_> = current.values().cloned().collect();
            assert!(
                find_conflicts(&merged, &topo, 0.5).is_empty(),
                "stream {w} produced a conflicting publication"
            );
        }
    }
}

#[test]
fn manager_serves_recent_blocks() {
    let topo = topo();
    let mut m = NwadeManager::new(
        topo.clone(),
        Box::new(ReservationScheduler::new(
            topo.clone(),
            SchedulerConfig::default(),
        )),
        Arc::new(MockScheme::from_seed(2)),
        NwadeConfig::default(),
    );
    for w in 0..5u64 {
        let _ = m.on_window(&[request(w, (w as usize * 7) % 16, 0.0)], w as f64 * 3.0);
    }
    let blocks = m.blocks_from(2);
    assert_eq!(blocks.len(), 3);
    assert_eq!(blocks[0].index(), 2);
    assert_eq!(blocks[2].index(), 4);
    assert!(m.blocks_from(99).is_empty());
}

/// A scheduler that answers every window with the batch its handle
/// holds, and logs each vehicle it is asked to release. Clones share the
/// handle.
#[derive(Clone, Default)]
struct FixedBatch {
    batch: Arc<Mutex<Vec<TravelPlan>>>,
    released: Arc<Mutex<Vec<VehicleId>>>,
}

impl FixedBatch {
    fn of(plans: Vec<TravelPlan>) -> Self {
        let fixed = FixedBatch::default();
        fixed.set(plans);
        fixed
    }

    fn set(&self, plans: Vec<TravelPlan>) {
        *self.batch.lock().expect("unpoisoned") = plans;
    }

    /// The releases logged since the last call.
    fn take_released(&self) -> Vec<VehicleId> {
        std::mem::take(&mut *self.released.lock().expect("unpoisoned"))
    }
}

impl Scheduler for FixedBatch {
    fn schedule(&mut self, _requests: &[PlanRequest], _now: f64) -> Vec<TravelPlan> {
        self.batch.lock().expect("unpoisoned").clone()
    }
    fn collect_garbage(&mut self, _t: f64) {}
    fn release(&mut self, vehicle: VehicleId) {
        self.released.lock().expect("unpoisoned").push(vehicle);
    }
    fn book(&mut self, _plan: &TravelPlan) {}
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }
    fn import_state(&mut self, _state: &[u8]) -> bool {
        true
    }
    fn clone_box(&self) -> Box<dyn Scheduler + Send> {
        Box::new(self.clone())
    }
}

/// A cruise plan for vehicle `id` on movement 0, entering at `start`.
fn cruise_plan(topo: &Topology, id: u64, start: f64) -> TravelPlan {
    let movement = MovementId::new(0);
    let path = topo.movement(movement).path();
    TravelPlan::new(
        VehicleId::new(id),
        VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
        VehicleStatus {
            position: path.point_at(0.0),
            speed: 15.0,
            heading: path.heading_at(0.0),
        },
        movement,
        MotionProfile::cruise(start, 15.0, path.length()),
    )
}

/// Which plans the filter drops depends on the order it hands the
/// published and batch plans to `find_conflicts`. With plan 1 in
/// conflict with plans 2 and 3, which do not conflict with each other,
/// dropping both sides of the first pair found leaves nothing, plan 2
/// or plan 3, by that order. Every manager, in every process, must make
/// the same choice; each `HashMap` draws fresh keys, so 32 managers in
/// one process would expose an order taken from one.
#[test]
fn publish_filter_drops_the_same_plans_in_every_manager() {
    const SHIFT_S: f64 = 0.55;
    let topo = topo();
    let gap = NwadeConfig::default().conflict_gap;
    let plans = vec![
        cruise_plan(&topo, 1, 10.0),
        cruise_plan(&topo, 2, 10.0 + SHIFT_S),
        cruise_plan(&topo, 3, 10.0 - SHIFT_S),
    ];
    let conflict = |a: usize, b: usize| {
        !find_conflicts(&[plans[a].clone(), plans[b].clone()], &topo, gap).is_empty()
    };
    assert!(
        conflict(0, 1) && conflict(0, 2) && !conflict(1, 2),
        "premise: plan 1 conflicts with plans 2 and 3, which do not conflict"
    );
    let requests: Vec<PlanRequest> = (1..=3).map(|id| request(id, 0, 0.0)).collect();
    let published: std::collections::BTreeSet<Vec<u64>> = (0..32)
        .map(|_| {
            let mut m = NwadeManager::new(
                topo.clone(),
                Box::new(FixedBatch::of(plans.clone())),
                Arc::new(MockScheme::from_seed(3)),
                NwadeConfig::default(),
            );
            match m.on_window(&requests, 0.0) {
                Some(ManagerAction::BroadcastBlock(block)) => {
                    block.plans().iter().map(|p| p.id().raw()).collect()
                }
                _ => Vec::new(),
            }
        })
        .collect();
    assert_eq!(
        published.len(),
        1,
        "managers published different blocks: {published:?}"
    );
}

/// One event in a manager's life.
#[derive(Debug, Clone)]
enum Event {
    /// A window of `n` fresh vehicles, honestly scheduled.
    Honest(usize),
    /// A window re-planning a published vehicle, honestly scheduled.
    Replan(usize),
    /// An honest window of fresh vehicles after
    /// `corrupt::make_conflicting`.
    Corrupt,
    /// A fresh vehicle on a published plan's profile.
    Intrude(usize),
    /// A fresh vehicle listed twice: its honest plan and one intruding
    /// on a published plan; `true` puts the intruding plan first.
    Twice(usize, bool),
    /// A published vehicle leaves.
    Release(usize),
    /// An evacuation block re-plans up to `n` published vehicles.
    Evacuate(usize),
    /// The durable state is captured.
    Snapshot,
    /// The last captured durable state is restored.
    Restore,
    /// A durable state whose published plans conflict (a fresh vehicle
    /// on a published plan's profile) is restored.
    Poison(usize),
}

fn event() -> impl Strategy<Value = Event> {
    (0u8..16, 0usize..64, any::<bool>()).prop_map(|(kind, pick, flag)| match kind {
        0..=4 => Event::Honest(1 + pick % 3),
        5 | 6 => Event::Replan(pick),
        7 => Event::Corrupt,
        8 | 9 => Event::Intrude(pick),
        10 | 11 => Event::Twice(pick, flag),
        12 => Event::Release(pick),
        13 => Event::Evacuate(1 + pick % 4),
        14 => Event::Snapshot,
        15 if pick % 4 == 0 => Event::Poison(pick),
        _ => Event::Restore,
    })
}

/// `plan`'s movement and profile under another vehicle id.
fn posing_as(plan: &TravelPlan, id: u64) -> TravelPlan {
    TravelPlan::new(
        VehicleId::new(id),
        plan.descriptor().clone(),
        *plan.status(),
        plan.movement(),
        plan.profile().clone(),
    )
}

/// A manager behind a [`FixedBatch`], and an honest scheduler of its
/// own that writes the batches.
struct Life {
    topo: Arc<Topology>,
    gap: f64,
    fixed: FixedBatch,
    manager: NwadeManager,
    honest: ReservationScheduler,
    next_id: u64,
    snapshot: Option<DurableState>,
}

impl Life {
    fn new() -> Self {
        let topo = topo();
        let fixed = FixedBatch::default();
        Life {
            gap: NwadeConfig::default().conflict_gap,
            manager: NwadeManager::new(
                topo.clone(),
                Box::new(fixed.clone()),
                Arc::new(MockScheme::from_seed(4)),
                NwadeConfig::default(),
            ),
            honest: ReservationScheduler::new(topo.clone(), SchedulerConfig::default()),
            fixed,
            topo,
            next_id: 100,
            snapshot: None,
        }
    }

    fn published(&self) -> BTreeMap<VehicleId, TravelPlan> {
        self.manager
            .durable_state()
            .published
            .into_iter()
            .map(|p| (p.id(), p))
            .collect()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// `n` fresh vehicles, honestly scheduled at `now`.
    fn honest_batch(&mut self, n: usize, now: f64) -> Vec<TravelPlan> {
        let n_mv = self.topo.movements().len();
        let requests: Vec<PlanRequest> = (0..n)
            .map(|_| {
                let id = self.fresh_id();
                request(id, (id as usize * 7) % n_mv, 0.0)
            })
            .collect();
        self.honest.schedule(&requests, now)
    }

    /// The window's batch for `event`, or `None` for an event that is
    /// not a window.
    fn batch(&mut self, event: &Event, now: f64) -> Option<Vec<TravelPlan>> {
        let published: Vec<TravelPlan> = self.published().into_values().collect();
        let pick = |k: usize| published.get(k % published.len().max(1)).cloned();
        Some(match *event {
            Event::Honest(n) => self.honest_batch(n, now),
            Event::Replan(k) => match pick(k) {
                Some(plan) => self.honest.schedule(
                    &[request(plan.id().raw(), plan.movement().index(), 0.0)],
                    now,
                ),
                None => self.honest_batch(1, now),
            },
            Event::Corrupt => {
                let honest = self.honest_batch(6, now);
                corrupt::make_conflicting(&honest, &self.topo, now).unwrap_or(honest)
            }
            Event::Intrude(k) => {
                let mut batch = self.honest_batch(1, now);
                if let Some(victim) = pick(k) {
                    let id = self.fresh_id();
                    batch.push(posing_as(&victim, id));
                }
                batch
            }
            Event::Twice(k, intruder_first) => {
                let mut batch = self.honest_batch(1, now);
                if let Some(victim) = pick(k) {
                    let twin = posing_as(&victim, batch[0].id().raw());
                    if intruder_first {
                        batch.insert(0, twin);
                    } else {
                        batch.push(twin);
                    }
                }
                batch
            }
            _ => return None,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental publish filter keeps and drops exactly the plans
    /// the from-scratch filter does, and releases the dropped vehicles in
    /// the same order, in every window of a manager's life: honest,
    /// corrupted, intruding and repeated-vehicle batches, re-plans,
    /// departures, evacuations, and restores of earlier durable states and
    /// of states whose published plans conflict.
    #[test]
    fn incremental_filter_equals_from_scratch(
        events in proptest::collection::vec(event(), 1..30),
    ) {
        let mut life = Life::new();
        let planner = EvacuationPlanner::new(
            life.topo.clone(),
            SchedulerConfig::default(),
            EvacuationConfig::default(),
        );
        for (i, event) in events.iter().enumerate() {
            let now = i as f64 * 2.0;
            let published = life.published();
            let (expected, action) = match event {
                Event::Release(k) => {
                    if let Some(id) = published.keys().nth(k % published.len().max(1)) {
                        life.manager.release_vehicle(*id);
                        prop_assert_eq!(life.fixed.take_released(), vec![*id]);
                    }
                    continue;
                }
                Event::Snapshot => {
                    life.snapshot = Some(life.manager.durable_state());
                    continue;
                }
                Event::Restore => {
                    if let Some(state) = &life.snapshot {
                        prop_assert!(life.manager.restore_durable(state));
                    }
                    continue;
                }
                Event::Poison(k) => {
                    if let Some(victim) = published.values().nth(k % published.len().max(1)) {
                        let mut state = life.manager.durable_state();
                        let id = life.fresh_id();
                        state.published.push(posing_as(victim, id));
                        prop_assert!(life.manager.restore_durable(&state));
                    }
                    continue;
                }
                Event::Evacuate(n) => {
                    let states: Vec<PlanRequest> = published
                        .values()
                        .take(*n)
                        .map(|p| request(p.id().raw(), p.movement().index(), 20.0))
                        .collect();
                    let threats = [life.topo.movement(MovementId::new(0)).path().point_at(60.0)];
                    let plans = planner.plan(&states, &threats, now);
                    let expected = publish_filter(&BTreeMap::new(), plans, &life.topo, life.gap);
                    let action = life.manager.evacuation_block(&states, &threats, now);
                    (expected, action)
                }
                _ => {
                    let batch = life.batch(event, now).expect("a window");
                    let expected = publish_filter(&published, batch.clone(), &life.topo, life.gap);
                    life.fixed.set(batch);
                    let action = life.manager.on_window(&[request(0, 0, 0.0)], now);
                    (expected, action)
                }
            };
            let kept = match action {
                Some(ManagerAction::BroadcastBlock(block)) => block.plans().to_vec(),
                _ => Vec::new(),
            };
            prop_assert_eq!(&kept, &expected.kept, "event {} {:?}: kept plans", i, event);
            prop_assert_eq!(
                life.fixed.take_released(),
                expected.dropped,
                "event {} {:?}: releases",
                i,
                event
            );
        }
    }
}
