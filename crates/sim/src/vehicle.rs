//! Vehicle agents: physics plus the NWADE guard.

use nwade::attack::ViolationKind;
use nwade::{Retrier, RetryPolicy, VehicleGuard};
use nwade_aim::{PlanRequest, TravelPlan};
use nwade_geometry::Vec2;
use nwade_intersection::{MovementId, Topology};
use nwade_traffic::{KinematicLimits, VehicleDescriptor, VehicleId};

/// The security role assigned to a vehicle by the attack plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Honest vehicle running the full NWADE protocol.
    Benign,
    /// Compromised vehicle staging the plan violation.
    Violator(ViolationKind),
    /// Compromised vehicle sending false reports (and voting falsely).
    FalseReporter,
}

/// How the vehicle currently decides its motion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveMode {
    /// No plan yet: hold the spawn speed.
    Cruise,
    /// Execute the travel-plan profile.
    FollowPlan,
    /// Malicious deviation, started at the given time.
    Violate(f64),
    /// Manager distrusted: reduced-speed autonomous exit.
    SelfEvacuate,
}

/// Maximum lateral offset of the lane-deviation attack, meters.
pub(crate) const MAX_LATERAL: f64 = 8.0;
/// Lateral drift rate of the lane-deviation attack, m/s.
const LATERAL_RATE: f64 = 1.5;
/// Speed factor a self-evacuating vehicle targets — deliberately slow:
/// uncoordinated traffic crossing a box must leave reaction margin
/// (§IV-B5's "drive slower to maintain sufficient reaction").
const EVAC_SPEED_FACTOR: f64 = 0.4;
/// Overspeed factor of the speed-up attack.
const OVERSPEED: f64 = 1.4;

/// One vehicle in the world: kinematic state + protocol engine.
#[derive(Clone)]
pub struct VehicleAgent {
    /// Vehicle id.
    pub id: VehicleId,
    /// Assigned movement.
    pub movement: MovementId,
    /// Static characteristics.
    pub descriptor: VehicleDescriptor,
    /// The NWADE protocol engine.
    pub guard: VehicleGuard,
    /// Security role.
    pub role: Role,
    /// Current motion mode.
    pub mode: DriveMode,
    /// Arclength along the movement path.
    pub s: f64,
    /// Current speed, m/s.
    pub speed: f64,
    /// Lateral offset from the path center line (lane deviation attack).
    pub lateral: f64,
    /// Spawn time.
    pub spawned_at: f64,
    /// The plan currently executed.
    pub plan: Option<TravelPlan>,
    /// Time the vehicle exited, once it has.
    pub exited_at: Option<f64>,
    /// Retry schedule for the plan request (replaces the old fixed 5 s
    /// re-request): exponential backoff with per-vehicle jitter so a
    /// fleet left planless by an outage does not resend in lockstep.
    pub plan_retry: Retrier,
    /// Set when local collision avoidance overrode this tick's motion.
    pub braked_this_tick: bool,
}

impl VehicleAgent {
    /// Creates an agent at the start of its movement path.
    pub fn new(
        id: VehicleId,
        movement: MovementId,
        descriptor: VehicleDescriptor,
        guard: VehicleGuard,
        speed: f64,
        now: f64,
    ) -> Self {
        VehicleAgent {
            id,
            movement,
            descriptor,
            guard,
            role: Role::Benign,
            mode: DriveMode::Cruise,
            s: 0.0,
            speed,
            lateral: 0.0,
            spawned_at: now,
            plan: None,
            exited_at: None,
            // The world sends the first request at spawn time itself.
            plan_retry: Retrier::after_initial_send(
                RetryPolicy::plan_request(),
                now,
                id.raw() ^ 0x9A4E_5D01,
            ),
            braked_this_tick: false,
        }
    }

    /// World position (path point plus lateral offset).
    pub fn position(&self, topology: &Topology) -> Vec2 {
        let path = topology.movement(self.movement).path();
        let base = path.point_at(self.s);
        if self.lateral.abs() < 1e-9 {
            base
        } else {
            base + path.heading_at(self.s).perp() * self.lateral
        }
    }

    /// A plan request for this vehicle's movement from where it is now.
    pub fn plan_request(&self) -> PlanRequest {
        PlanRequest {
            id: self.id,
            descriptor: self.descriptor.clone(),
            movement: self.movement,
            position_s: self.s,
            speed: self.speed,
        }
    }

    /// `true` once the vehicle left the modeled area.
    pub fn is_active(&self) -> bool {
        self.exited_at.is_none()
    }

    /// `true` when this vehicle participates in the attack.
    pub fn is_malicious(&self) -> bool {
        self.role != Role::Benign
    }

    /// Switches to plan following.
    pub fn follow_plan(&mut self, plan: TravelPlan) {
        // Malicious vehicles mid-violation ignore new plans.
        if matches!(self.mode, DriveMode::Violate(_) | DriveMode::SelfEvacuate) {
            self.plan = Some(plan);
            return;
        }
        self.plan = Some(plan);
        self.mode = DriveMode::FollowPlan;
    }

    /// Starts the violation behaviour at `now`.
    pub fn start_violation(&mut self, kind: ViolationKind, now: f64) {
        self.role = Role::Violator(kind);
        self.mode = DriveMode::Violate(now);
    }

    /// Switches to autonomous self-evacuation.
    pub fn self_evacuate(&mut self) {
        self.mode = DriveMode::SelfEvacuate;
    }

    /// Re-enters normal operation after the guard re-admitted the vehicle
    /// (manager back from an outage). The pre-outage plan is stale — the
    /// vehicle cruises and re-requests a fresh one immediately.
    pub fn readmit(&mut self, now: f64) {
        self.mode = DriveMode::Cruise;
        self.plan = None;
        self.plan_retry.reset(now);
    }

    /// Local collision avoidance: hard-brake this tick regardless of the
    /// plan (the plan resumes once the obstacle clears).
    pub fn emergency_brake(&mut self, limits: &KinematicLimits, dt: f64) {
        self.speed = (self.speed - limits.d_max * dt).max(0.0);
        self.s += self.speed * dt;
        self.braked_this_tick = true;
    }

    /// Marks the vehicle exited once it has reached the end of its path.
    /// Returns `true` on the tick it does.
    pub(crate) fn reach_path_end(&mut self, topology: &Topology, now: f64) -> bool {
        let path_len = topology.movement(self.movement).path().length();
        if self.s >= path_len && self.exited_at.is_none() {
            self.exited_at = Some(now);
            true
        } else {
            false
        }
    }

    /// Advances physics by `dt`. Returns `true` if the vehicle crossed
    /// the end of its path this tick.
    pub fn step(
        &mut self,
        topology: &Topology,
        limits: &KinematicLimits,
        dt: f64,
        now: f64,
    ) -> bool {
        match self.mode {
            DriveMode::Cruise => {
                self.s += self.speed * dt;
            }
            DriveMode::FollowPlan => {
                if let Some(plan) = &self.plan {
                    let (s, v) = plan.profile().state_at(now);
                    self.s = s;
                    self.speed = v;
                } else {
                    self.s += self.speed * dt;
                }
            }
            DriveMode::Violate(since) => match self.role {
                Role::Violator(ViolationKind::SuddenStop) => {
                    self.speed = (self.speed - limits.d_max * dt).max(0.0);
                    self.s += self.speed * dt;
                }
                Role::Violator(ViolationKind::SpeedUp) => {
                    self.speed = (self.speed + limits.a_max * dt).min(limits.v_max * OVERSPEED);
                    self.s += self.speed * dt;
                }
                Role::Violator(ViolationKind::LaneDeviation) => {
                    // Keep the planned longitudinal motion, drift sideways.
                    if let Some(plan) = &self.plan {
                        let (s, v) = plan.profile().state_at(now);
                        self.s = s;
                        self.speed = v;
                    } else {
                        self.s += self.speed * dt;
                    }
                    let elapsed = now - since;
                    self.lateral = (elapsed * LATERAL_RATE).min(MAX_LATERAL);
                }
                _ => {
                    // A non-violator in Violate mode should not happen;
                    // degrade to cruising.
                    self.s += self.speed * dt;
                }
            },
            DriveMode::SelfEvacuate => {
                // §IV-B4: "either pull over to the roadside or find the
                // safest route to exit". Vehicles still approaching the
                // box pull over; vehicles already inside or past it are
                // safer out than stopped, so they proceed slowly.
                let box_entry = topology.movement(self.movement).box_entry();
                let target = if self.s < box_entry - 10.0 {
                    0.0
                } else {
                    limits.v_max * EVAC_SPEED_FACTOR
                };
                if self.speed > target {
                    self.speed = (self.speed - limits.d_max * dt).max(target);
                } else {
                    self.speed = (self.speed + limits.a_max * dt).min(target);
                }
                self.s += self.speed * dt;
            }
        }
        self.reach_path_end(topology, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwade::NwadeConfig;
    use nwade_crypto::MockScheme;
    use nwade_geometry::MotionProfile;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind};
    use nwade_traffic::VehicleDescriptor;
    use std::sync::Arc;

    fn world() -> (Arc<Topology>, VehicleAgent) {
        let topo = Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ));
        let guard = VehicleGuard::new(
            VehicleId::new(0),
            topo.clone(),
            Arc::new(MockScheme::from_seed(0)),
            NwadeConfig::default(),
        );
        let agent = VehicleAgent::new(
            VehicleId::new(0),
            MovementId::new(0),
            VehicleDescriptor {
                brand: "A".into(),
                model: "B".into(),
                color: "red".into(),
            },
            guard,
            15.0,
            0.0,
        );
        (topo, agent)
    }

    fn plan_for(topo: &Topology, agent: &VehicleAgent, start: f64) -> TravelPlan {
        let path = topo.movement(agent.movement).path();
        TravelPlan::new(
            agent.id,
            agent.descriptor.clone(),
            nwade_aim::VehicleStatus {
                position: path.point_at(0.0),
                speed: 15.0,
                heading: path.heading_at(0.0),
            },
            agent.movement,
            MotionProfile::cruise(start, 15.0, path.length()),
        )
    }

    #[test]
    fn cruise_mode_holds_speed() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        for i in 0..10 {
            a.step(&topo, &limits, 0.1, i as f64 * 0.1);
        }
        assert!((a.s - 15.0).abs() < 1e-9);
        assert_eq!(a.speed, 15.0);
    }

    #[test]
    fn follow_plan_tracks_profile() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        a.follow_plan(plan_for(&topo, &a, 0.0));
        a.step(&topo, &limits, 0.1, 10.0);
        assert!((a.s - 150.0).abs() < 1e-9);
        assert_eq!(a.mode, DriveMode::FollowPlan);
    }

    #[test]
    fn sudden_stop_halts_vehicle() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        a.follow_plan(plan_for(&topo, &a, 0.0));
        a.start_violation(ViolationKind::SuddenStop, 5.0);
        let mut t = 5.0;
        for _ in 0..100 {
            t += 0.1;
            a.step(&topo, &limits, 0.1, t);
        }
        assert_eq!(a.speed, 0.0);
        assert!(a.is_malicious());
    }

    #[test]
    fn speed_up_exceeds_limit() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        a.follow_plan(plan_for(&topo, &a, 0.0));
        a.start_violation(ViolationKind::SpeedUp, 0.0);
        let mut t = 0.0;
        for _ in 0..200 {
            t += 0.1;
            a.step(&topo, &limits, 0.1, t);
        }
        assert!(a.speed > limits.v_max, "overspeeding: {}", a.speed);
    }

    #[test]
    fn lane_deviation_drifts_laterally() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        a.follow_plan(plan_for(&topo, &a, 0.0));
        a.start_violation(ViolationKind::LaneDeviation, 0.0);
        let mut t = 0.0;
        for _ in 0..100 {
            t += 0.1;
            a.step(&topo, &limits, 0.1, t);
        }
        assert!((a.lateral - 8.0).abs() < 0.2, "drifted {}", a.lateral);
        // Position is offset from the path center line.
        let path_pos = topo.movement(a.movement).path().point_at(a.s);
        assert!(a.position(&topo).distance(path_pos) > 7.0);
    }

    #[test]
    fn self_evacuation_pulls_over_in_approach() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        a.speed = 20.0;
        a.self_evacuate();
        let mut t = 0.0;
        for _ in 0..150 {
            t += 0.1;
            a.step(&topo, &limits, 0.1, t);
        }
        assert_eq!(a.speed, 0.0, "approaching evacuee pulls over");
    }

    #[test]
    fn self_evacuation_proceeds_out_when_inside_the_box() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        a.s = topo.movement(a.movement).box_entry() + 1.0;
        a.speed = 20.0;
        a.self_evacuate();
        let mut t = 0.0;
        for _ in 0..100 {
            t += 0.1;
            a.step(&topo, &limits, 0.1, t);
        }
        let target = limits.v_max * EVAC_SPEED_FACTOR;
        assert!((a.speed - target).abs() < 0.3, "speed {}", a.speed);
        assert!(a.s > topo.movement(a.movement).box_entry() + 50.0);
    }

    #[test]
    fn exit_detection() {
        let (topo, mut a) = world();
        let limits = KinematicLimits::default();
        let len = topo.movement(a.movement).path().length();
        a.s = len - 1.0;
        let crossed = a.step(&topo, &limits, 0.1, 50.0);
        assert!(crossed);
        assert!(!a.is_active());
        assert_eq!(a.exited_at, Some(50.0));
        // Subsequent steps do not re-trigger.
        assert!(!a.step(&topo, &limits, 0.1, 50.1));
    }

    #[test]
    fn new_plans_do_not_interrupt_violation() {
        let (topo, mut a) = world();
        a.start_violation(ViolationKind::SuddenStop, 0.0);
        a.follow_plan(plan_for(&topo, &a, 0.0));
        assert!(matches!(a.mode, DriveMode::Violate(_)));
        assert!(a.plan.is_some());
    }
}
