//! Protocol messages exchanged over the VANET, and their message-class
//! labels for packet accounting (Fig. 7).

use nwade_aim::PlanRequest;
use nwade_chain::Block;
use nwade_geometry::Vec2;
use nwade_traffic::{VehicleDescriptor, VehicleId};

/// Message-class labels used with [`nwade_vanet::NetworkStats`].
pub mod class {
    /// A vehicle requesting a travel plan.
    pub const PLAN_REQUEST: &str = "plan-request";
    /// The manager broadcasting a block.
    pub const BLOCK: &str = "block";
    /// A vehicle asking peers for blocks it missed.
    pub const BLOCK_REQUEST: &str = "block-request";
    /// A peer answering with blocks.
    pub const BLOCK_RESPONSE: &str = "block-response";
    /// A watcher reporting a deviating neighbour.
    pub const INCIDENT_REPORT: &str = "incident-report";
    /// The manager polling a watcher group.
    pub const VERIFY_REQUEST: &str = "verify-request";
    /// A watcher's verdict.
    pub const VERIFY_RESPONSE: &str = "verify-response";
    /// The manager dismissing a false alarm.
    pub const DISMISSAL: &str = "dismissal";
    /// The manager's evacuation alert (suspect features + location).
    pub const EVACUATION_ALERT: &str = "evacuation-alert";
    /// A vehicle's broadcast that the manager is compromised.
    pub const GLOBAL_REPORT: &str = "global-report";
    /// A bare plan without the blockchain (the no-NWADE baseline).
    pub const PLAN_ASSIGNMENT: &str = "plan-assignment";
}

/// A sensor observation of a neighbouring vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The observed vehicle.
    pub target: VehicleId,
    /// Sensed world position.
    pub position: Vec2,
    /// Sensed speed, m/s.
    pub speed: f64,
    /// Observation time.
    pub time: f64,
}

/// The incident report `IR = ⟨E†, B_y⟩` of Algorithm 2: the watcher's
/// sensor evidence plus the block index holding the suspect's plan.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReport {
    /// Reporting vehicle.
    pub reporter: VehicleId,
    /// The suspect.
    pub suspect: VehicleId,
    /// The sensor evidence `E†`.
    pub evidence: Observation,
    /// Index of the block containing the suspect's plan (`B_y`).
    pub block_index: u64,
}

/// What a global report accuses the system of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalClaim {
    /// "Block `index` contains conflicting travel plans" (manager
    /// compromised).
    ConflictingPlans {
        /// The accused block.
        index: u64,
    },
    /// "Vehicle `suspect` misbehaves and the manager ignores it".
    AbnormalVehicle {
        /// The accused vehicle.
        suspect: VehicleId,
    },
    /// "The manager evacuated against `suspect`, but my own sensors say
    /// that vehicle is compliant" — a dissent against a (possibly
    /// compromised) manager's false evacuation alert.
    WrongfulAccusation {
        /// The vehicle the manager falsely accused.
        suspect: VehicleId,
    },
}

/// A broadcast warning from a vehicle that no longer trusts the manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalReport {
    /// Sending vehicle.
    pub sender: VehicleId,
    /// The accusation.
    pub claim: GlobalClaim,
    /// Send time.
    pub time: f64,
}

/// Everything that travels over the simulated VANET.
#[derive(Debug, Clone)]
pub enum NwadeMessage {
    /// Vehicle → manager: request a plan.
    PlanRequest(PlanRequest),
    /// Manager → broadcast: a new block.
    Block(Block),
    /// Vehicle → peer: send me blocks from `from_index` on.
    BlockRequest {
        /// First missing block index.
        from_index: u64,
    },
    /// Peer → vehicle: the requested blocks.
    BlockResponse(Vec<Block>),
    /// Watcher → manager: a neighbour deviates.
    IncidentReport(IncidentReport),
    /// Manager → watcher: check this suspect for me. Carries the
    /// suspect's current plan so watchers that arrived after the plan's
    /// block can still verify (§IV-B2: late watchers otherwise fetch the
    /// block from vehicles in front).
    VerifyRequest {
        /// Correlates responses to the poll.
        request_id: u64,
        /// The vehicle to check.
        suspect: VehicleId,
        /// The suspect's published plan.
        plan: Box<nwade_aim::TravelPlan>,
    },
    /// Watcher → manager: my verdict.
    VerifyResponse {
        /// The poll this answers.
        request_id: u64,
        /// The checked vehicle.
        suspect: VehicleId,
        /// `true` when the watcher could observe the suspect at all;
        /// `false` is an abstention, not a "normal" vote.
        observed: bool,
        /// `true` when the watcher saw a deviation.
        abnormal: bool,
    },
    /// Manager → reporter: false alarm, stand down.
    Dismissal {
        /// The suspect the report was about.
        suspect: VehicleId,
    },
    /// Manager → broadcast: threat confirmed; features and last position
    /// of the suspect.
    EvacuationAlert {
        /// The confirmed malicious vehicle.
        suspect: VehicleId,
        /// Its identifiable features.
        descriptor: VehicleDescriptor,
        /// Its last known position.
        location: Vec2,
    },
    /// Vehicle → broadcast: the manager can no longer be trusted.
    GlobalReport(GlobalReport),
    /// Manager → vehicle: a bare plan without the blockchain wrapper —
    /// only used by the "without NWADE" baseline of Fig. 8.
    PlanAssignment(nwade_aim::TravelPlan),
}

impl NwadeMessage {
    /// The packet-accounting class of this message.
    pub fn class(&self) -> &'static str {
        match self {
            NwadeMessage::PlanRequest(_) => class::PLAN_REQUEST,
            NwadeMessage::Block(_) => class::BLOCK,
            NwadeMessage::BlockRequest { .. } => class::BLOCK_REQUEST,
            NwadeMessage::BlockResponse(_) => class::BLOCK_RESPONSE,
            NwadeMessage::IncidentReport(_) => class::INCIDENT_REPORT,
            NwadeMessage::VerifyRequest { .. } => class::VERIFY_REQUEST,
            NwadeMessage::VerifyResponse { .. } => class::VERIFY_RESPONSE,
            NwadeMessage::Dismissal { .. } => class::DISMISSAL,
            NwadeMessage::EvacuationAlert { .. } => class::EVACUATION_ALERT,
            NwadeMessage::GlobalReport(_) => class::GLOBAL_REPORT,
            NwadeMessage::PlanAssignment(_) => class::PLAN_ASSIGNMENT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_distinct() {
        let classes = [
            class::PLAN_REQUEST,
            class::BLOCK,
            class::BLOCK_REQUEST,
            class::BLOCK_RESPONSE,
            class::INCIDENT_REPORT,
            class::VERIFY_REQUEST,
            class::VERIFY_RESPONSE,
            class::DISMISSAL,
            class::EVACUATION_ALERT,
            class::GLOBAL_REPORT,
            class::PLAN_ASSIGNMENT,
        ];
        let set: std::collections::HashSet<_> = classes.iter().collect();
        assert_eq!(set.len(), classes.len());
    }

    #[test]
    fn message_class_mapping() {
        let m = NwadeMessage::BlockRequest { from_index: 3 };
        assert_eq!(m.class(), class::BLOCK_REQUEST);
        let g = NwadeMessage::GlobalReport(GlobalReport {
            sender: VehicleId::new(1),
            claim: GlobalClaim::ConflictingPlans { index: 2 },
            time: 0.0,
        });
        assert_eq!(g.class(), class::GLOBAL_REPORT);
    }

    #[test]
    fn global_claims_hash_and_compare() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(GlobalClaim::ConflictingPlans { index: 1 });
        set.insert(GlobalClaim::ConflictingPlans { index: 1 });
        set.insert(GlobalClaim::AbnormalVehicle {
            suspect: VehicleId::new(5),
        });
        assert_eq!(set.len(), 2);
    }
}
