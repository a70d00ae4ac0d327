//! 2-D geometry and kinematic motion profiles for the NWADE
//! reproduction.
//!
//! This crate is the lowest-level substrate of the workspace. It knows
//! nothing about vehicles, intersections or security — it provides:
//!
//! * [`Vec2`] and unit conversions ([`units`]) used everywhere above,
//! * composable paths ([`Path`]) made of line segments and circular arcs,
//! * piecewise-constant-acceleration [`MotionProfile`]s along a path,
//! * the time intervals a profile occupies a stretch of its path
//!   ([`occupancy_interval`]), from which `nwade-aim` builds its zone
//!   reservations and conflict checks,
//! * brute-force and grid-based [`range`] queries used for sensing,
//! * a fixed integer hasher for maps keyed by grid cells ([`cell_hash`]).
//!
//! # Example
//!
//! ```
//! use nwade_geometry::{Path, Vec2, MotionProfile};
//!
//! let path = Path::line(Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0));
//! let profile = MotionProfile::cruise(0.0, 10.0, path.length());
//! let (pos, speed) = (profile.position_at(2.0), profile.speed_at(2.0));
//! assert_eq!(pos, 20.0);
//! assert_eq!(speed, 10.0);
//! let world = path.point_at(pos);
//! assert!((world.x - 20.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod arc;
pub mod cell_hash;
pub mod conflict;
pub mod path;
pub mod profile;
pub mod range;
pub mod segment;
pub mod units;
pub mod vec2;

pub use arc::Arc;
pub use cell_hash::CellMap;
pub use conflict::{occupancy_interval, TimeInterval};
pub use path::{Path, PathBuilder, PathElement};
pub use profile::{MotionProfile, ProfileSegment};
pub use range::{within_radius, GridIndex};
pub use segment::LineSegment;
pub use units::{feet_to_meters, meters_to_feet, mph_to_mps, mps_to_mph};
pub use vec2::Vec2;

/// Numerical tolerance used by geometric comparisons in this crate.
pub const EPSILON: f64 = 1e-9;
