//! Evacuation planning (§IV-B5).
//!
//! When a threat is confirmed, the intersection manager regenerates
//! travel plans so normal vehicles circumvent the malicious vehicle:
//! cells around each threat position are blocked for a danger window, the
//! speed cap is reduced (evacuation plans "instruct vehicles to drive
//! slower to maintain sufficient reaction"), and every affected vehicle
//! is rescheduled from its current state. A vehicle that cannot reach its
//! exit without entering a blocked cell pulls over (brakes to a stop).

use crate::plan::{PlanRequest, TravelPlan, VehicleStatus};
use crate::reservation::ReservationTable;
use crate::scheduler::SchedulerConfig;
use crate::seek::{EntrySeeker, SeekScratch};
use nwade_geometry::{MotionProfile, TimeInterval, Vec2};
use nwade_intersection::{Topology, ZoneId};
use nwade_traffic::VehicleId;
use std::sync::Arc;

/// Sentinel "vehicle" holding threat-blocked cells.
const THREAT_HOLDER: VehicleId = VehicleId::new(u64::MAX);

/// Evacuation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvacuationConfig {
    /// Radius around a threat position whose cells are blocked, meters.
    pub danger_radius: f64,
    /// How long blocked cells stay blocked, seconds.
    pub block_duration: f64,
    /// Speed cap multiplier during evacuation (≤ 1).
    pub speed_factor: f64,
}

impl Default for EvacuationConfig {
    fn default() -> Self {
        EvacuationConfig {
            danger_radius: 25.0,
            block_duration: 60.0,
            speed_factor: 0.6,
        }
    }
}

/// Generates evacuation plans around confirmed threats.
#[derive(Debug, Clone)]
pub struct EvacuationPlanner {
    topology: Arc<Topology>,
    scheduler_config: SchedulerConfig,
    config: EvacuationConfig,
}

impl EvacuationPlanner {
    /// Creates a planner.
    pub fn new(
        topology: Arc<Topology>,
        scheduler_config: SchedulerConfig,
        config: EvacuationConfig,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.speed_factor) && config.speed_factor > 0.0,
            "speed factor must be in (0, 1]"
        );
        EvacuationPlanner {
            topology,
            scheduler_config,
            config,
        }
    }

    /// Zone cells within the danger radius of any threat.
    pub fn blocked_cells(&self, threats: &[Vec2]) -> Vec<ZoneId> {
        let cell = self.topology.zone_cell();
        let mut out = Vec::new();
        for threat in threats {
            let reach = (self.config.danger_radius / cell).ceil() as i32;
            let c0 = (threat.x / cell).floor() as i32;
            let r0 = (threat.y / cell).floor() as i32;
            for dc in -reach..=reach {
                for dr in -reach..=reach {
                    let center = Vec2::new(
                        (c0 + dc) as f64 * cell + cell / 2.0,
                        (r0 + dr) as f64 * cell + cell / 2.0,
                    );
                    if center.distance(*threat) <= self.config.danger_radius {
                        out.push(ZoneId {
                            col: c0 + dc,
                            row: r0 + dr,
                        });
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Replans `vehicles` (their *current* states) around `threats` at
    /// time `now`. Vehicles closer to their exit are planned first so the
    /// intersection drains outward.
    pub fn plan(&self, vehicles: &[PlanRequest], threats: &[Vec2], now: f64) -> Vec<TravelPlan> {
        let mut table = ReservationTable::new();
        let block = TimeInterval::new(now, now + self.config.block_duration);
        let blocked: Vec<_> = self
            .blocked_cells(threats)
            .into_iter()
            .map(|z| (z, block))
            .collect();
        table.reserve(THREAT_HOLDER, &blocked);

        let mut order: Vec<&PlanRequest> = vehicles.iter().collect();
        order.sort_by(|a, b| {
            let ra = self.topology.movement(a.movement).path().length() - a.position_s;
            let rb = self.topology.movement(b.movement).path().length() - b.position_s;
            ra.partial_cmp(&rb).expect("finite remaining distance")
        });

        let lim = self.scheduler_config.limits;
        let v_cap = lim.v_max * self.config.speed_factor;
        let mut scratch = SeekScratch::new();
        let mut plans = Vec::with_capacity(vehicles.len());
        for req in order {
            let movement = self.topology.movement(req.movement);
            let path = movement.path();
            let d_end = (path.length() - req.position_s).max(0.0);
            let earliest = now
                + MotionProfile::earliest_arrival(req.speed.min(v_cap), v_cap, lim.a_max, d_end);
            let seeker = EntrySeeker {
                movement,
                table: &table,
                gap: self.scheduler_config.zone_gap,
                ignore: req.id,
                now,
                v0: req.speed.min(v_cap),
                v_max: v_cap,
                a_max: lim.a_max,
                d_max: lim.d_max,
                d_plan: d_end,
                position_s: req.position_s,
                start: earliest,
                step: self.scheduler_config.search_step,
                deadline: earliest + self.scheduler_config.max_delay,
            };
            let (profile, occupancy) = seeker.seek(&mut scratch).unwrap_or_else(|| {
                // Pull over: brake to a stop without planning through
                // anyone already parked.
                crate::reservation::park_fallback(
                    movement,
                    req.position_s,
                    req.speed.min(lim.v_max),
                    now,
                    &table,
                    self.scheduler_config.zone_gap,
                    req.id,
                    lim.d_max,
                )
            });
            table.reserve(req.id, &occupancy);
            plans.push(TravelPlan::new(
                req.id,
                req.descriptor.clone(),
                VehicleStatus {
                    position: path.point_at(req.position_s),
                    speed: req.speed,
                    heading: path.heading_at(req.position_s),
                },
                req.movement,
                profile,
            ));
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::find_conflicts;
    use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
    use nwade_traffic::VehicleDescriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo() -> Arc<Topology> {
        Arc::new(build(
            IntersectionKind::FourWayCross,
            &GeometryConfig::default(),
        ))
    }

    fn planner(topo: Arc<Topology>) -> EvacuationPlanner {
        EvacuationPlanner::new(
            topo,
            SchedulerConfig::default(),
            EvacuationConfig::default(),
        )
    }

    fn request(id: u64, movement: usize, s: f64, v: f64) -> PlanRequest {
        PlanRequest {
            id: VehicleId::new(id),
            descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
            movement: MovementId::new(movement as u16),
            position_s: s,
            speed: v,
        }
    }

    #[test]
    fn blocked_cells_cover_threat_disc() {
        let topo = topo();
        let p = planner(topo.clone());
        let cells = p.blocked_cells(&[Vec2::ZERO]);
        // ~π·25²/9 ≈ 218 cells.
        assert!(
            (150..=300).contains(&cells.len()),
            "unexpected blocked count {}",
            cells.len()
        );
        // All within the danger radius (cell diagonal slack).
        let cell = topo.zone_cell();
        for z in &cells {
            let center = Vec2::new(
                z.col as f64 * cell + cell / 2.0,
                z.row as f64 * cell + cell / 2.0,
            );
            assert!(center.norm() <= 25.0 + 1e-9);
        }
    }

    #[test]
    fn no_threats_blocks_nothing() {
        let p = planner(topo());
        assert!(p.blocked_cells(&[]).is_empty());
    }

    #[test]
    fn evacuation_plans_avoid_the_threat_cells() {
        let topo = topo();
        let p = planner(topo.clone());
        // Threat parked at the center of the box.
        let threat = Vec2::ZERO;
        let reqs: Vec<PlanRequest> = (0..6)
            .map(|i| request(i, (i as usize * 5) % topo.movements().len(), 50.0, 12.0))
            .collect();
        let plans = p.plan(&reqs, &[threat], 0.0);
        assert_eq!(plans.len(), 6);
        assert!(find_conflicts(&plans, &topo, 0.5).is_empty());
        let blocked: std::collections::HashSet<_> =
            p.blocked_cells(&[threat]).into_iter().collect();
        for plan in &plans {
            let m = topo.movement(plan.movement());
            for (zone, iv) in crate::reservation::occupancy_of(m, plan.profile()) {
                if blocked.contains(&zone) {
                    assert!(
                        iv.start >= 60.0 - 1.2,
                        "{} enters blocked {zone} at {:.1}s",
                        plan.id(),
                        iv.start
                    );
                }
            }
        }
    }

    #[test]
    fn evacuation_caps_speed() {
        let topo = topo();
        let p = planner(topo.clone());
        let reqs = vec![request(0, 0, 0.0, 20.0)];
        let plans = p.plan(&reqs, &[Vec2::new(500.0, 500.0)], 0.0);
        let cap = SchedulerConfig::default().limits.v_max * 0.6;
        for t in 0..60 {
            assert!(
                plans[0].profile().speed_at(t as f64) <= cap + 1e-6,
                "speed exceeds the evacuation cap"
            );
        }
    }

    #[test]
    fn vehicle_trapped_by_threat_pulls_over() {
        let topo = topo();
        let mut cfg = EvacuationConfig::default();
        cfg.block_duration = 1e6; // threat never clears
        let p = EvacuationPlanner::new(topo.clone(), SchedulerConfig::default(), cfg);
        // Vehicle 10 m before the box on movement 0, threat right on its
        // path ahead.
        let m = topo.movement(MovementId::new(0));
        let ahead = m.path().point_at(m.box_entry() + 10.0);
        let reqs = vec![request(0, 0, m.box_entry() - 10.0, 10.0)];
        let plans = p.plan(&reqs, &[ahead], 0.0);
        assert_eq!(plans[0].profile().final_speed(), 0.0, "must pull over");
        assert_eq!(plans[0].exit_time(&topo), None);
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn zero_speed_factor_panics() {
        let mut cfg = EvacuationConfig::default();
        cfg.speed_factor = 0.0;
        let _ = EvacuationPlanner::new(topo(), SchedulerConfig::default(), cfg);
    }
}
