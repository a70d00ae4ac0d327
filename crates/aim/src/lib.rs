//! Autonomous intersection management (AIM) substrate.
//!
//! The paper integrates NWADE into DASH (its reference \[16\]), a reservation-style
//! intersection manager. DASH itself is closed; this crate implements a
//! conflict-free reservation scheduler with the same externally visible
//! behaviour — each incoming vehicle asks for a plan, the manager returns
//! a kinematically feasible speed profile that crosses the intersection
//! without ever sharing a conflict-zone cell with another vehicle at the
//! same time — plus two baselines (full-lock FCFS and a fixed traffic
//! light) used for throughput comparisons.
//!
//! * [`TravelPlan`] — `⟨id, char, status, inst⟩` exactly as Eq. 1,
//! * [`ReservationTable`] — time-interval bookings per conflict zone,
//! * [`ReservationScheduler`] — the DASH stand-in,
//! * [`FcfsScheduler`], [`TrafficLightScheduler`] — baselines,
//! * [`find_conflicts`] — the conflict check vehicles run on received
//!   blocks (Algorithm 1, step ii); [`reserve_checked`] runs it on
//!   occupancies the caller already holds and keeps the bookings,
//! * [`EvacuationPlanner`] — regenerates plans around confirmed threats,
//! * [`corrupt`] — malicious-IM plan corruptions used by attack
//!   injection.

#![forbid(unsafe_code)]

pub mod conflict;
pub mod corrupt;
pub mod evacuation;
pub mod fcfs;
pub mod plan;
pub mod reservation;
pub mod scheduler;
pub mod seek;
pub mod traffic_light;

pub use conflict::{find_conflicts, reserve_checked};
pub use evacuation::EvacuationPlanner;
pub use fcfs::FcfsScheduler;
pub use plan::{PlanRequest, TravelPlan, VehicleStatus};
pub use reservation::{
    occupancy_into, occupancy_of, park_fallback, Blocking, Occupancy, ReservationTable,
};
pub use scheduler::{ReservationScheduler, Scheduler, SchedulerConfig, SchedulerState};
pub use seek::{EntrySeeker, SeekScratch};
pub use traffic_light::TrafficLightScheduler;
