//! Sharded multi-intersection city grid.
//!
//! A [`CityGrid`] instantiates one [`Simulation`] per intersection —
//! each with its own manager, chain, VANET medium, and RNG stream —
//! and connects them with directed road links. Every city tick runs in
//! two phases:
//!
//! 1. **Parallel shard phase** — each shard advances one tick via the
//!    chunked fan-out from `nwade-exec`. Shards share no mutable state,
//!    so the phase is a pure element-wise map over the shard list.
//! 2. **Serialized commit phase** — in ascending shard-ID order, all
//!    cross-shard effects apply: outbound handoffs enter their link's
//!    travel queue, due handoffs are delivered to the neighbour's
//!    inbound queue, chain tips are exchanged for cross-shard
//!    anchoring, and the anchor audit verifies every anchor a shard
//!    embedded against the tips the city actually fed it.
//!
//! Because the commit phase is serial and ordered, the city evolves
//! bit-identically regardless of worker-thread count — pinned by
//! [`CityGrid::state_hash`] and the `integration_city_diff` suite. A
//! 1-shard city has no links, so its single shard stays bit-identical
//! to a plain [`Simulation`] with the same config.

use crate::config::SimConfig;
use crate::metrics::SimMetrics;
use crate::world::{Handoff, Simulation, StateHasher};
use nwade_crypto::Digest;
use nwade_exec::{fan_out_mut_with_cutoff, host_threads};
use nwade_intersection::{IntersectionKind, LegId};
use std::collections::{BTreeMap, VecDeque};

/// Shard-level work is coarse (a whole intersection tick), so even two
/// shards are worth a thread each.
const SHARD_CUTOFF: usize = 2;

/// Each shard's generated vehicle ids start at `shard * this`, keeping
/// id spaces disjoint for any realistic run length.
pub const SHARD_ID_STRIDE: u64 = 100_000_000;

/// How many recently fed neighbour tips the anchor audit remembers per
/// (shard, neighbour) pair. Tips are fed every tick but blocks seal at
/// window cadence (10 ticks), so a small window of history suffices;
/// 128 leaves an order of magnitude of slack.
const FED_TIP_HISTORY: usize = 128;

/// The four topology kinds shards cycle through, in shard-ID order.
const SHARD_KINDS: [IntersectionKind; 4] = [
    IntersectionKind::FourWayCross,
    IntersectionKind::ThreeWayRoundabout,
    IntersectionKind::FiveWayIrregular,
    IntersectionKind::FourWayCfi,
];

/// A directed road link connecting one shard's boundary leg to a
/// neighbour's entry leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Departing shard index.
    pub from: usize,
    /// Leg of the departing shard's topology that borders the link.
    pub from_leg: u8,
    /// Receiving shard index.
    pub to: usize,
    /// Leg of the receiving shard's topology the link feeds.
    pub to_leg: u8,
    /// Travel time along the connecting road, seconds.
    pub latency: f64,
}

/// City-grid configuration: N shards derived from one base [`SimConfig`]
/// plus the road links between them.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Number of intersection shards.
    pub shards: usize,
    /// Template every shard derives its config from (see
    /// [`CityConfig::shard_config`] for the derivation).
    pub base: SimConfig,
    /// Directed road links between shards.
    pub links: Vec<LinkSpec>,
    /// Worker threads for the shard phase; 0 resolves to the host's
    /// available parallelism. Thread count never changes results.
    pub threads: usize,
}

impl CityConfig {
    /// A ring of `shards` intersections: shard `i`'s leg 0 drains into
    /// shard `(i+1) % shards`'s leg 1. One shard means no links — the
    /// degenerate city that must match a plain [`Simulation`].
    pub fn ring(shards: usize, base: SimConfig) -> Self {
        let links = if shards > 1 {
            (0..shards)
                .map(|i| LinkSpec {
                    from: i,
                    from_leg: 0,
                    to: (i + 1) % shards,
                    to_leg: 1,
                    latency: 8.0,
                })
                .collect()
        } else {
            Vec::new()
        };
        CityConfig {
            shards,
            base,
            links,
            threads: 0,
        }
    }

    /// The config shard `i` runs under: the base with the shard's
    /// topology kind (cycling through the four supported kinds), a
    /// decorrelated seed, and a disjoint vehicle-id space.
    pub fn shard_config(&self, i: usize) -> SimConfig {
        let mut cfg = self.base.clone();
        cfg.kind = SHARD_KINDS[i % SHARD_KINDS.len()];
        cfg.seed = self.base.seed.wrapping_add(i as u64);
        cfg.vehicle_id_base = i as u64 * SHARD_ID_STRIDE;
        cfg
    }

    /// Validates the grid topology.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("city needs at least one shard".into());
        }
        self.base.validate()?;
        for link in &self.links {
            if link.from >= self.shards || link.to >= self.shards {
                return Err(format!(
                    "link {}→{} references a shard outside 0..{}",
                    link.from, link.to, self.shards
                ));
            }
            if link.from == link.to {
                return Err(format!("link {}→{} is a self-loop", link.from, link.to));
            }
            if !(link.latency >= 0.0 && link.latency.is_finite()) {
                return Err("link latency must be non-negative and finite".into());
            }
        }
        Ok(())
    }
}

/// A link's runtime state: handoffs in transit, each with its delivery
/// time.
#[derive(Debug, Clone)]
struct LinkState {
    spec: LinkSpec,
    in_transit: VecDeque<(f64, Handoff)>,
}

/// Per-shard slice of a [`CityReport`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Topology name.
    pub topology: String,
    /// Plans the shard's manager scheduled.
    pub plans_scheduled: usize,
    /// Vehicles that exited the city from this shard.
    pub exited: usize,
    /// Vehicles handed off to neighbours.
    pub handoffs_out: usize,
    /// Vehicles received from neighbours.
    pub handoffs_in: usize,
    /// Mean boundary re-admission latency, simulated seconds.
    pub boundary_latency: Option<f64>,
}

/// Aggregate measurements over a city run.
#[derive(Debug, Clone)]
pub struct CityReport {
    /// Per-shard breakdown, shard-ID order.
    pub per_shard: Vec<ShardStats>,
    /// Plans scheduled across all shards.
    pub plans_scheduled: usize,
    /// City-wide exits.
    pub exited: usize,
    /// City-wide boundary crossings (sum of per-shard `handoffs_out`).
    pub handoffs: usize,
    /// Anchors that did not match any tip the city fed — must be 0.
    pub anchor_mismatches: usize,
    /// Mean boundary re-admission latency across all shards, simulated
    /// seconds.
    pub boundary_latency: Option<f64>,
}

/// N intersection shards advancing in lock-step, linked by roads.
pub struct CityGrid {
    config: CityConfig,
    shards: Vec<Simulation>,
    links: Vec<LinkState>,
    /// Tips the city fed each shard, per neighbour shard id — the
    /// ground truth the anchor audit checks embedded anchors against.
    fed_tips: Vec<BTreeMap<u32, VecDeque<Digest>>>,
    /// Next block index each shard's anchor audit has yet to inspect.
    next_audit: Vec<u64>,
    anchor_mismatches: usize,
    threads: usize,
    ticks: u64,
}

impl CityGrid {
    /// Builds the grid: one simulation per shard, boundary legs wired
    /// from the link specs.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn new(config: CityConfig) -> Self {
        config.validate().expect("city config must be valid");
        let mut shards: Vec<Simulation> = (0..config.shards)
            .map(|i| Simulation::new(config.shard_config(i)))
            .collect();
        for (i, shard) in shards.iter_mut().enumerate() {
            let exits: Vec<LegId> = config
                .links
                .iter()
                .filter(|l| l.from == i)
                .map(|l| LegId::new(l.from_leg))
                .collect();
            shard.set_boundary_exits(exits);
        }
        let links = config
            .links
            .iter()
            .map(|spec| LinkState {
                spec: *spec,
                in_transit: VecDeque::new(),
            })
            .collect();
        let threads = match config.threads {
            0 => host_threads(),
            t => t,
        };
        CityGrid {
            fed_tips: vec![BTreeMap::new(); config.shards],
            next_audit: vec![0; config.shards],
            anchor_mismatches: 0,
            threads,
            ticks: 0,
            shards,
            links,
            config,
        }
    }

    /// The shards, shard-ID order.
    pub fn shards(&self) -> &[Simulation] {
        &self.shards
    }

    /// Mutable shard access (bench drivers prespawn fleets and enqueue
    /// request load through this).
    pub fn shards_mut(&mut self) -> &mut [Simulation] {
        &mut self.shards
    }

    /// City ticks advanced so far.
    pub fn ticks_elapsed(&self) -> u64 {
        self.ticks
    }

    /// Anchors embedded by any shard that did not match a fed tip.
    /// Stays 0 unless a chain diverged from what the city delivered.
    pub fn anchor_mismatches(&self) -> usize {
        self.anchor_mismatches
    }

    /// Advances every shard one tick in parallel, then applies all
    /// cross-shard effects serially in shard-ID order.
    pub fn tick(&mut self) {
        self.ticks += 1;
        fan_out_mut_with_cutoff(&mut self.shards, self.threads, SHARD_CUTOFF, |chunk| {
            for shard in chunk.iter_mut() {
                shard.tick_once();
            }
            Vec::<()>::new()
        });
        self.commit();
    }

    /// The serialized commit phase. Every step iterates in a fixed
    /// order (shards ascending, links in spec order), so the result is
    /// independent of how the parallel phase was chunked.
    fn commit(&mut self) {
        let now = self.shards[0].now();
        // 1. Route this tick's outbound handoffs onto their links.
        for i in 0..self.shards.len() {
            for handoff in self.shards[i].take_outbound_handoffs() {
                let link = self
                    .links
                    .iter_mut()
                    .find(|l| l.spec.from == i && l.spec.from_leg == handoff.exit_leg.index() as u8)
                    .expect("boundary exits are derived from links");
                link.in_transit
                    .push_back((now + link.spec.latency, handoff));
            }
        }
        // 2. Deliver handoffs that finished their road travel.
        for link in &mut self.links {
            while link.in_transit.front().is_some_and(|(due, _)| *due <= now) {
                let (_, handoff) = link.in_transit.pop_front().expect("front exists");
                self.shards[link.spec.to]
                    .queue_inbound_handoff(LegId::new(link.spec.to_leg), handoff);
            }
        }
        // 3. Anchor exchange: each link's receiving shard learns the
        //    departing shard's current chain tip, and the city records
        //    what it fed for the audit below.
        for li in 0..self.links.len() {
            let spec = self.links[li].spec;
            let tip = self.shards[spec.from].chain_tip();
            self.shards[spec.to].note_neighbor_tip(spec.from as u32, tip);
            let history = self.fed_tips[spec.to].entry(spec.from as u32).or_default();
            if history.back() != Some(&tip) {
                history.push_back(tip);
                if history.len() > FED_TIP_HISTORY {
                    history.pop_front();
                }
            }
        }
        // 4. Anchor audit: every anchor a shard embedded must be a tip
        //    the city actually fed it.
        for i in 0..self.shards.len() {
            let blocks = self.shards[i].blocks_from(self.next_audit[i]);
            for block in &blocks {
                if block.index() < self.next_audit[i] {
                    continue;
                }
                for anchor in block.anchors() {
                    // The reserved fence anchor carries a failover epoch,
                    // not a neighbour tip — it is never "fed" by the city.
                    if anchor.shard == nwade::FENCE_SHARD {
                        continue;
                    }
                    let known = self.fed_tips[i]
                        .get(&anchor.shard)
                        .is_some_and(|h| h.contains(&anchor.tip));
                    if !known {
                        self.anchor_mismatches += 1;
                    }
                }
                self.next_audit[i] = block.index() + 1;
            }
        }
    }

    /// Runs `ticks` city ticks.
    pub fn run_ticks(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.tick();
        }
    }

    /// Digest of the full city state: every shard's
    /// [`Simulation::state_hash`] plus the link queues and the audit
    /// counters. Equal hashes at every tick pin bit-identical evolution
    /// across worker-thread counts.
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();
        h.u64(self.ticks);
        h.u64(self.shards.len() as u64);
        for shard in &self.shards {
            h.u64(shard.state_hash());
        }
        for link in &self.links {
            h.u64(link.in_transit.len() as u64);
            for (due, handoff) in &link.in_transit {
                h.f64(*due);
                h.u64(handoff.id.raw());
            }
        }
        h.u64(self.anchor_mismatches as u64);
        h.finish()
    }

    /// Handoffs currently riding a link between shards.
    pub fn in_transit(&self) -> usize {
        self.links.iter().map(|l| l.in_transit.len()).sum()
    }

    /// Checks the city-wide vehicle-conservation invariants: boundary
    /// crossings never create or destroy a vehicle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        let m = |f: fn(&SimMetrics) -> usize| -> usize {
            self.shards.iter().map(|s| f(s.metrics_so_far())).sum()
        };
        let spawned = m(|m| m.spawned);
        let exited = m(|m| m.exited);
        let out = m(|m| m.handoffs_out);
        let inn = m(|m| m.handoffs_in);
        let active: usize = self.shards.iter().map(|s| s.active_vehicle_count()).sum();
        let queued: usize = self.shards.iter().map(|s| s.inbound_backlog()).sum();
        let transit = self.in_transit();
        if out != inn + transit + queued {
            return Err(format!(
                "handoff books unbalanced: {out} out != {inn} in + {transit} in transit + {queued} queued"
            ));
        }
        if spawned != exited + active + transit + queued {
            return Err(format!(
                "population books unbalanced: {spawned} spawned != {exited} exited + \
                 {active} active + {transit} in transit + {queued} queued"
            ));
        }
        Ok(())
    }

    /// Aggregates the per-shard metrics into a city report.
    pub fn report(&self) -> CityReport {
        let per_shard: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let m = s.metrics_so_far();
                ShardStats {
                    shard: i,
                    topology: s.topology().name().to_string(),
                    plans_scheduled: m.plans_scheduled,
                    exited: m.exited,
                    handoffs_out: m.handoffs_out,
                    handoffs_in: m.handoffs_in,
                    boundary_latency: m.boundary_readmission_latency(),
                }
            })
            .collect();
        let (lat_total, lat_samples) = self.shards.iter().fold((0.0, 0usize), |(t, n), s| {
            let m = s.metrics_so_far();
            (t + m.boundary_latency_total, n + m.boundary_latency_samples)
        });
        CityReport {
            plans_scheduled: per_shard.iter().map(|s| s.plans_scheduled).sum(),
            exited: per_shard.iter().map(|s| s.exited).sum(),
            handoffs: per_shard.iter().map(|s| s.handoffs_out).sum(),
            anchor_mismatches: self.anchor_mismatches,
            boundary_latency: (lat_samples > 0).then(|| lat_total / lat_samples as f64),
            per_shard,
        }
    }

    /// The configuration the city was built from.
    pub fn config(&self) -> &CityConfig {
        &self.config
    }
}

impl std::fmt::Debug for CityGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CityGrid")
            .field("shards", &self.shards.len())
            .field("tick", &self.ticks)
            .field("state_hash", &self.state_hash())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_base() -> SimConfig {
        let mut base = SimConfig::default();
        base.duration = 40.0;
        base.density = 60.0;
        base.seed = 11;
        base
    }

    #[test]
    fn ring_config_validates_and_links_wrap() {
        let cfg = CityConfig::ring(4, small_base());
        cfg.validate().expect("valid ring");
        assert_eq!(cfg.links.len(), 4);
        assert_eq!(cfg.links[3].to, 0, "ring wraps");
        let one = CityConfig::ring(1, small_base());
        assert!(one.links.is_empty(), "1-shard city has no links");
        one.validate().expect("valid singleton");
    }

    #[test]
    fn invalid_links_rejected() {
        let mut cfg = CityConfig::ring(2, small_base());
        cfg.links[0].to = 9;
        assert!(cfg.validate().is_err());
        let mut cfg = CityConfig::ring(2, small_base());
        cfg.links[0].to = cfg.links[0].from;
        assert!(cfg.validate().is_err());
        let mut cfg = CityConfig::ring(2, small_base());
        cfg.links[0].latency = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = CityConfig::ring(2, small_base());
        cfg.shards = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn shard_configs_are_disjoint_and_cycle_kinds() {
        let cfg = CityConfig::ring(5, small_base());
        let c0 = cfg.shard_config(0);
        let c4 = cfg.shard_config(4);
        assert_eq!(c0.vehicle_id_base, 0);
        assert_eq!(c4.vehicle_id_base, 4 * SHARD_ID_STRIDE);
        assert_ne!(c0.seed, c4.seed);
        assert_eq!(c0.kind, c4.kind, "kinds cycle with period 4");
        assert_ne!(c0.kind, cfg.shard_config(1).kind);
    }

    #[test]
    fn city_flows_and_conserves_vehicles() {
        let mut city = CityGrid::new(CityConfig::ring(3, small_base()));
        // Ring crossings need a full trip (~30 s) plus 8 s link travel
        // plus the admission gate before the first arrival lands.
        for _ in 0..700 {
            city.tick();
            city.check_conservation().expect("conserved every tick");
        }
        let report = city.report();
        assert!(report.handoffs > 0, "ring traffic crosses boundaries");
        assert!(
            report.per_shard.iter().any(|s| s.handoffs_in > 0),
            "handoffs arrive"
        );
        assert_eq!(report.anchor_mismatches, 0, "anchors all audited clean");
        assert!(
            report.boundary_latency.is_some(),
            "re-admitted vehicles got plans"
        );
    }

    #[test]
    fn anchors_are_embedded_and_audited() {
        let mut city = CityGrid::new(CityConfig::ring(2, small_base()));
        city.run_ticks(300);
        let anchored = city
            .shards()
            .iter()
            .flat_map(|s| s.blocks_from(0))
            .filter(|b| !b.anchors().is_empty())
            .count();
        assert!(anchored > 0, "blocks carry neighbour anchors");
        assert_eq!(city.anchor_mismatches(), 0);
    }

    #[test]
    fn thread_count_is_unobservable() {
        let mut hashes = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut cfg = CityConfig::ring(3, small_base());
            cfg.threads = threads;
            let mut city = CityGrid::new(cfg);
            let mut trace = Vec::new();
            for _ in 0..200 {
                city.tick();
                trace.push(city.state_hash());
            }
            hashes.push(trace);
        }
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[0], hashes[2]);
    }
}
