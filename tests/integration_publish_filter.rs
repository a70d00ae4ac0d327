//! The honest manager's publish filter: it must never sign a block its
//! own vehicles would reject, even when handed a scheduler state that
//! was damaged on purpose.

use nwade_repro::aim::{
    find_conflicts, PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig, TravelPlan,
    VehicleStatus,
};
use nwade_repro::crypto::MockScheme;
use nwade_repro::geometry::MotionProfile;
use nwade_repro::intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology};
use nwade_repro::nwade::{ManagerAction, NwadeConfig, NwadeManager};
use nwade_repro::traffic::{VehicleDescriptor, VehicleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

/// A scheduler that answers every window with the same fixed batch.
#[derive(Clone)]
struct FixedBatch {
    topology: Arc<Topology>,
    plans: Vec<TravelPlan>,
}

impl Scheduler for FixedBatch {
    fn schedule(&mut self, _requests: &[PlanRequest], _now: f64) -> Vec<TravelPlan> {
        self.plans.clone()
    }
    fn collect_garbage(&mut self, _t: f64) {}
    fn release(&mut self, _vehicle: VehicleId) {}
    fn book(&mut self, _plan: &TravelPlan) {}
    fn name(&self) -> &'static str {
        "fixed-batch"
    }
    fn topology(&self) -> &Topology {
        &self.topology
    }
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
                Box::new(FixedBatch {
                    topology: topo.clone(),
                    plans: plans.clone(),
                }),
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
