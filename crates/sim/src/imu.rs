//! The intersection-manager agent: an honest [`NwadeManager`] optionally
//! wrapped in the malicious behaviours of threats iii/iv.

use nwade::messages::IncidentReport;
use nwade::{ManagerAction, NwadeManager};
use nwade_aim::{corrupt, PlanRequest};
use nwade_chain::{tamper, Block};
use nwade_crypto::SignatureScheme;
use nwade_geometry::Vec2;
use nwade_intersection::Topology;
use nwade_traffic::VehicleId;
use std::collections::HashSet;
use std::sync::Arc;

/// The manager-side agent.
#[derive(Clone)]
pub struct ImuAgent {
    /// The honest protocol engine.
    pub manager: NwadeManager,
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
    topology: Arc<Topology>,
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

impl ImuAgent {
    /// Creates the agent.
    pub fn new(
        manager: NwadeManager,
        topology: Arc<Topology>,
        signer: Arc<dyn SignatureScheme>,
        malicious: bool,
    ) -> Self {
        ImuAgent {
            manager,
            malicious,
            shielded: HashSet::new(),
            signer,
            corrupt_next_block: false,
            corruption_emitted: false,
            topology,
        }
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

    /// Processes one scheduling window. A malicious manager with
    /// `corrupt_next_block` set substitutes conflicting plans into the
    /// properly signed block (it holds the key); the swap fires at most
    /// once per run.
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

    /// Generates the evacuation block around confirmed threats.
    pub fn evacuation_block(
        &mut self,
        states: &[PlanRequest],
        threats: &[Vec2],
        now: f64,
    ) -> Option<Block> {
        match self.manager.evacuation_block(states, threats, now)? {
            ManagerAction::BroadcastBlock(b) => Some(b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade::messages::Observation;
    use nwade::NwadeConfig;
    use nwade_aim::{ReservationScheduler, SchedulerConfig};
    use nwade_crypto::MockScheme;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent(malicious: bool) -> ImuAgent {
        let topo = Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ));
        let signer = Arc::new(MockScheme::from_seed(0));
        let manager = NwadeManager::new(
            topo.clone(),
            Box::new(ReservationScheduler::new(
                topo.clone(),
                SchedulerConfig::default(),
            )),
            signer.clone(),
            NwadeConfig::default(),
        );
        ImuAgent::new(manager, topo, signer, malicious)
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
        assert!(nwade_aim::find_conflicts(block.plans(), a.manager.topology(), 0.5).is_empty());
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
            !nwade_aim::find_conflicts(block.plans(), a.manager.topology(), 0.5).is_empty(),
            "block should carry conflicting plans"
        );
        assert!(a.corruption_emitted);
        // The next window is clean again.
        let actions = a.on_window(&requests(4, 100), 10.0);
        let [ImuAction::Broadcast(block)] = actions.as_slice() else {
            panic!()
        };
        assert!(nwade_aim::find_conflicts(block.plans(), a.manager.topology(), 0.5).is_empty());
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
