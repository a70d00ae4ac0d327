//! Measurements collected during a simulation run.

use crate::invariant::InvariantReport;
use nwade_vanet::NetworkStats;

/// Raw counters and event timestamps from one run.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Vehicles spawned.
    pub spawned: usize,
    /// Vehicles that exited the modeled area.
    pub exited: usize,
    /// Time the attack was injected.
    pub attack_start: Option<f64>,
    /// First benign incident report naming the true violator.
    pub violation_first_report: Option<f64>,
    /// Manager confirmation (evacuation alert) naming the true violator.
    pub violation_confirmed: Option<f64>,
    /// First benign *global* report naming the true violator (the
    /// malicious-IM detection path).
    pub violation_global_report: Option<f64>,
    /// Evacuation alert issued against the innocent accused vehicle
    /// (Type A false alarm *triggered*).
    pub false_accusation_confirmed: Option<f64>,
    /// Dismissal of the false accusation (Type A false alarm *detected*).
    pub false_accusation_dismissed: Option<f64>,
    /// First benign dissent (wrongful-accusation global report) against a
    /// false evacuation alert.
    pub wrongful_dissent: Option<f64>,
    /// Benign rebuttals of false "conflicting plans" claims (Type B
    /// detected), with the time of the first.
    pub type_b_rebuttals: usize,
    /// First Type B rebuttal time.
    pub type_b_first_rebuttal: Option<f64>,
    /// Time the first Type B false claim was broadcast.
    pub type_b_first_broadcast: Option<f64>,
    /// Benign vehicles that self-evacuated because of a false
    /// conflicting-plans claim (Type B triggered).
    pub type_b_evacuations: usize,
    /// Total benign self-evacuations (any cause).
    pub benign_self_evacuations: usize,
    /// Benign self-evacuations whose claim names the innocent accused
    /// vehicle — the Type A false alarm actually disrupting traffic.
    pub accused_claim_evacuations: usize,
    /// Benign vehicles that rejected an honest block (residual
    /// view-inconsistency; should be rare).
    pub honest_block_rejections: usize,
    /// First benign self-evacuation after a malicious-IM block corruption
    /// (the IM-attack detection signal).
    pub corrupted_block_detected: Option<f64>,
    /// Benign self-evacuations caused by the manager going silent past
    /// the report timeout (recoverable; distinct from protocol distrust).
    pub im_timeout_evacuations: usize,
    /// Timeout-evacuated vehicles re-admitted after the manager restarted
    /// and broadcast a fresh, verifiably chained block.
    pub readmitted_after_outage: usize,
    /// Messages addressed to the manager that fell into its outage
    /// window.
    pub imu_outage_drops: usize,
    /// Intersection-manager crash injections fired (chaos harness).
    pub im_crashes: usize,
    /// Manager restarts recovered warm from the durable store:
    /// reservations and chain tip intact, nobody evacuated.
    pub warm_recoveries: usize,
    /// Manager restarts that fell back to the cold path: conversational
    /// state lost, darkness until the manager rebuilt from the chain.
    pub cold_recoveries: usize,
    /// Torn-tail bytes the durable store truncated during recoveries.
    pub wal_truncated_bytes: u64,
    /// Time the chaos crash injection fired.
    pub im_crash_time: Option<f64>,
    /// Simulated seconds from the crash injection to the manager's next
    /// block broadcast: 0 for a same-tick warm recovery, roughly the
    /// cold downtime plus a processing window on the cold path.
    pub im_recovery_latency: Option<f64>,
    /// Standby promotions completed (hot failover took over as primary).
    pub standby_promotions: usize,
    /// Simulated seconds from the crash injection to the promoted
    /// standby's takeover (heartbeat misses + promotion work).
    pub standby_promotion_latency: Option<f64>,
    /// Largest committed-but-unapplied record backlog the standby ever
    /// showed when polled (replication lag in WAL records).
    pub standby_max_lag_records: u64,
    /// Processing windows the promoted standby had replayed by takeover.
    pub standby_windows_applied: u64,
    /// Stale-epoch blocks vehicle guards rejected — a fenced-off
    /// ex-primary caught attempting to double-sign after failover.
    pub fencing_rejections: u64,
    /// Probe epochs the adaptive adversary completed (each one bisects
    /// its amplitude bracket).
    pub adaptive_epochs: usize,
    /// The adaptive adversary's latest probe amplitude, meters — after
    /// enough epochs this sits just under the watchers' effective
    /// tolerance.
    pub adaptive_amplitude: Option<f64>,
    /// Incident reports naming the adaptive adversary.
    pub adaptive_reports: usize,
    /// Vehicles recruited into the colluding watcher clique.
    pub clique_size: usize,
    /// Fabricated incident reports sent by Sybil phantom identities.
    pub sybil_reports: usize,
    /// Evacuation alerts the manager wrongly issued against the Sybil
    /// flood's innocent target (each one is a ledger failure).
    pub sybil_false_alerts: usize,
    /// Deliveries whose payload arrived corrupted and was dropped at the
    /// framing layer (anything but a block, whose corruption must reach
    /// Algorithm 1's verifier).
    pub corrupted_drops: usize,
    /// Ground-truth collisions between distinct vehicle pairs.
    pub accidents: usize,
    /// Blocks broadcast by the manager.
    pub blocks_broadcast: usize,
    /// Plans scheduled in total.
    pub plans_scheduled: usize,
    /// Plan requests waiting when a processing window opened, summed
    /// over windows (stale requests of vehicles that left or stopped
    /// being active are dropped first and not counted).
    pub admission_offered: usize,
    /// Requests taken into a scheduling window, summed over windows.
    /// Every window takes the whole queue, so this equals
    /// [`SimMetrics::admission_offered`].
    pub admission_admitted: usize,
    /// Always 0: no window defers a request to a later one. Kept because
    /// the benchmark reports it.
    pub admission_deferred: usize,
    /// Plan count of every broadcast block (drives the Fig. 6 harness).
    pub block_sizes: Vec<usize>,
    /// Vehicles handed off to a neighbouring intersection across a city
    /// boundary (counted by the departing shard; not an exit).
    pub handoffs_out: usize,
    /// Vehicles received from a neighbouring intersection and re-admitted
    /// through the normal request path (counted by the receiving shard;
    /// not a spawn).
    pub handoffs_in: usize,
    /// Sum of boundary re-admission latencies, simulated seconds from a
    /// handoff entering this shard's inbound queue to the vehicle's first
    /// assigned plan here.
    pub boundary_latency_total: f64,
    /// Handed-off vehicles whose re-admission latency has been measured
    /// (divisor for [`SimMetrics::boundary_readmission_latency`]).
    pub boundary_latency_samples: usize,
    /// Network statistics snapshot.
    pub network: NetworkStats,
    /// Safety-invariant violations observed during the run.
    pub invariants: InvariantReport,
    /// Simulated duration, seconds.
    pub duration: f64,
}

impl SimMetrics {
    /// Throughput in vehicles per minute over the whole run.
    pub fn throughput_per_minute(&self) -> f64 {
        if self.duration <= 0.0 {
            return 0.0;
        }
        self.exited as f64 * 60.0 / self.duration
    }

    /// Mean boundary re-admission latency in simulated seconds, `None`
    /// until a handed-off vehicle has received its first plan here.
    pub fn boundary_readmission_latency(&self) -> Option<f64> {
        (self.boundary_latency_samples > 0)
            .then(|| self.boundary_latency_total / self.boundary_latency_samples as f64)
    }

    /// Whether the staged plan violation was detected, per the paper's
    /// criterion: a benign-IM run needs the manager's confirmation; a
    /// malicious-IM run needs a benign vehicle's global escalation.
    pub fn violation_detected(&self, im_malicious: bool) -> bool {
        if im_malicious {
            self.violation_global_report.is_some()
        } else {
            // An honest manager normally confirms; if a colluder-heavy
            // watch group tricked it into dismissing, benign vehicles'
            // global escalation still counts as detection (§VI-B).
            self.violation_confirmed.is_some() || self.violation_global_report.is_some()
        }
    }

    /// Detection latency of the violation, seconds, when detected.
    pub fn violation_detection_latency(&self, im_malicious: bool) -> Option<f64> {
        let detected = if im_malicious {
            self.violation_global_report?
        } else {
            match (self.violation_confirmed, self.violation_global_report) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return None,
            }
        };
        Some(detected - self.attack_start?)
    }

    /// Time from the first incident report about the violator to the
    /// manager's confirmation — the paper's Fig. 5 "detection time" (the
    /// report-processing latency, not the physical time the deviation
    /// needs to exceed the sensor tolerance).
    pub fn report_processing_latency(&self) -> Option<f64> {
        Some(self.violation_confirmed? - self.violation_first_report?)
    }

    /// Time from the first Type B false broadcast to the first benign
    /// rebuttal — Fig. 5's "wrong travel plans" detection time.
    pub fn type_b_rebuttal_latency(&self) -> Option<f64> {
        Some(self.type_b_first_rebuttal? - self.type_b_first_broadcast?)
    }

    /// Marks the earlier of the existing and the new timestamp.
    pub(crate) fn note_first(slot: &mut Option<f64>, t: f64) {
        if slot.is_none_or(|prev| t < prev) {
            *slot = Some(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_calculation() {
        let mut m = SimMetrics::default();
        m.exited = 100;
        m.duration = 300.0;
        assert!((m.throughput_per_minute() - 20.0).abs() < 1e-9);
        m.duration = 0.0;
        assert_eq!(m.throughput_per_minute(), 0.0);
    }

    #[test]
    fn detection_criteria_by_im_role() {
        let mut m = SimMetrics::default();
        m.attack_start = Some(100.0);
        m.violation_confirmed = Some(100.4);
        assert!(m.violation_detected(false));
        assert!(!m.violation_detected(true));
        m.violation_global_report = Some(101.5);
        assert!(m.violation_detected(true));
        assert!((m.violation_detection_latency(false).expect("latency") - 0.4).abs() < 1e-9);
        assert!((m.violation_detection_latency(true).expect("latency") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn boundary_latency_averages() {
        let mut m = SimMetrics::default();
        assert_eq!(m.boundary_readmission_latency(), None);
        m.boundary_latency_total = 6.0;
        m.boundary_latency_samples = 4;
        assert!((m.boundary_readmission_latency().expect("mean") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn note_first_keeps_minimum() {
        let mut slot = None;
        SimMetrics::note_first(&mut slot, 5.0);
        SimMetrics::note_first(&mut slot, 3.0);
        SimMetrics::note_first(&mut slot, 9.0);
        assert_eq!(slot, Some(3.0));
    }
}
