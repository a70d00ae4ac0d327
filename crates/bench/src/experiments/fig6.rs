//! Fig. 6: blockchain management (manager side) and verification
//! (vehicle side) time, across intersection types and densities, with
//! the paper's real cryptography (SHA-256 + 2048-bit RSA).
//!
//! Verification is measured cold. Each rep gets a fresh cache, so the
//! signature memo starts empty. It also gets its own decoded copy of
//! the block, built before the clock starts. Copies of one block share
//! its memoised plan occupancies and reservation table, so reusing one
//! block would leave every rep after the first without that work.

use crate::table::render;
use nwade::verify::block::verify_incoming_block;
use nwade::NwadeConfig;
use nwade_aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig, TravelPlan};
use nwade_chain::{Block, BlockPackager, ChainCache};
use nwade_crypto::{RsaKeyPair, RsaScheme};
use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId, Topology};
use nwade_traffic::{VehicleDescriptor, VehicleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Densities shown on the figure's axis.
pub const DENSITIES: [f64; 3] = [20.0, 80.0, 120.0];

/// One bar pair of Fig. 6.
#[derive(Debug, Clone)]
pub struct Point {
    /// Intersection label.
    pub kind: IntersectionKind,
    /// Vehicles per minute.
    pub density: f64,
    /// Plans per processing window at this density.
    pub batch: usize,
    /// Manager-side block packaging time (schedule + Merkle + sign), ms.
    pub manage_ms: f64,
    /// Vehicle-side verification time (Algorithm 1), ms.
    pub verify_ms: f64,
}

/// Builds an honestly scheduled batch of `n` plans on `topo`.
fn batch(topo: &Arc<Topology>, n: usize, seed: u64) -> Vec<TravelPlan> {
    let mut scheduler = ReservationScheduler::new(topo.clone(), SchedulerConfig::default());
    let n_mv = topo.movements().len();
    (0..n)
        .flat_map(|i| {
            let id = seed * 1000 + i as u64;
            scheduler.schedule(
                &[PlanRequest {
                    id: VehicleId::new(id),
                    descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
                    movement: MovementId::new(((id as usize * 7) % n_mv) as u16),
                    position_s: 0.0,
                    speed: 15.0,
                }],
                i as f64 * 3.0,
            )
        })
        .collect()
}

/// Plans per one-second window at `density` veh/min.
fn window_batch(density: f64) -> usize {
    ((density / 60.0).ceil() as usize).max(1)
}

/// Measures one (kind, density) point with the given key.
pub fn measure(kind: IntersectionKind, density: f64, key: &RsaScheme) -> Point {
    let topo = Arc::new(build(kind, &GeometryConfig::default()));
    let n = window_batch(density);
    let plans = batch(&topo, n, density as u64);
    let reps = 10;

    // Manager side: package a window (Merkle tree + RSA signature).
    let t0 = Instant::now();
    let mut last = None;
    for i in 0..reps {
        let mut packager = BlockPackager::new(Arc::new(key.clone()));
        last = Some(packager.package(plans.clone(), i as f64));
    }
    let manage_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
    let block = last.expect("packaged at least once");

    // Vehicle side: Algorithm 1 (signature + root + conflicts). A fresh
    // cache and a decoded copy of the block per rep keep this the
    // *uncached* verification cost: the signature memo and the shared
    // occupancy and table memos would otherwise absorb every rep after
    // the first.
    let copies: Vec<Block> = (0..reps)
        .map(|_| Block::decode(&block.encode()).expect("own encoding decodes"))
        .collect();
    let t0 = Instant::now();
    for copy in &copies {
        let mut cache = ChainCache::new(NwadeConfig::default().chain_cache_capacity);
        verify_incoming_block(copy, &mut cache, key, &topo, 0.5, &Default::default())
            .expect("honest block verifies");
    }
    let verify_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    Point {
        kind,
        density,
        batch: n,
        manage_ms,
        verify_ms,
    }
}

/// Runs the full grid with a freshly generated 2048-bit key.
pub fn points() -> Vec<Point> {
    let key = RsaScheme::new(RsaKeyPair::generate(2048, &mut StdRng::seed_from_u64(42)));
    let mut out = Vec::new();
    for kind in IntersectionKind::ALL {
        for density in DENSITIES {
            out.push(measure(kind, density, &key));
        }
    }
    out
}

/// Renders Fig. 6.
pub fn report() -> String {
    let body: Vec<Vec<String>> = points()
        .into_iter()
        .map(|p| {
            vec![
                format!("{} ({:.0})", p.kind, p.density),
                p.batch.to_string(),
                format!("{:.2}", p.manage_ms),
                format!("{:.2}", p.verify_ms),
            ]
        })
        .collect();
    format!(
        "Fig. 6: Blockchain Management and Verification (SHA-256 + RSA-2048)\n{}",
        render(
            &[
                "Intersection (veh/min)",
                "Plans/window",
                "Manage [ms]",
                "Verify [ms]"
            ],
            &body,
        )
    )
}
