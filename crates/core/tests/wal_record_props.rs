//! Property tests for the WAL record codec: `WalRecord::decode` reads
//! bytes a crash may have torn or a fault may have flipped, so no input
//! may panic it. Any record it does return must re-encode to bytes that
//! decode again to the same encoding. Encodings are compared rather than
//! records, because a flipped byte can turn an `f64` field into NaN,
//! which never equals itself.

use nwade::{Ledger, ManagerAction, NwadeConfig, NwadeManager, WalRecord};
use nwade_aim::{PlanRequest, ReservationScheduler, ReservationTable, SchedulerConfig};
use nwade_crypto::MockScheme;
use nwade_geometry::Vec2;
use nwade_intersection::{build, GeometryConfig, IntersectionKind, MovementId};
use nwade_traffic::{VehicleDescriptor, VehicleId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

fn request(id: u64) -> PlanRequest {
    PlanRequest {
        id: VehicleId::new(id),
        descriptor: VehicleDescriptor::random(&mut StdRng::seed_from_u64(id)),
        movement: MovementId::new(((id * 5) % 16) as u16),
        position_s: 2.5 * id as f64,
        speed: 12.0,
    }
}

/// One encoding of each of the seven record kinds. The snapshot comes
/// from a manager that has sealed three windows, so it carries booked
/// reservations, published plans and retained blocks; its ledgers are
/// filled in by hand. The commit carries the last of those blocks.
fn samples() -> &'static [Vec<u8>] {
    static SAMPLES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        // Short approach and exit roads keep the zone cells each vehicle
        // books, and so the snapshot, small enough to sweep every byte.
        let geometry = GeometryConfig {
            approach_len: 40.0,
            exit_len: 20.0,
            ..GeometryConfig::default()
        };
        let topo = Arc::new(build(IntersectionKind::FourWayCross, &geometry));
        let mut manager = NwadeManager::new(
            topo.clone(),
            Box::new(ReservationScheduler::new(topo, SchedulerConfig::default())),
            Arc::new(MockScheme::from_seed(3)),
            NwadeConfig::default(),
        );
        let mut last = None;
        for w in 0..3u64 {
            let requests = [request(2 * w), request(2 * w + 1)];
            let action = manager.on_window(&requests, w as f64 * 2.0);
            let Some(ManagerAction::BroadcastBlock(block)) = action else {
                panic!("window {w} sealed no block");
            };
            last = Some(block);
        }
        let last = last.expect("three blocks");
        let mut state = manager.durable_state();
        state.confirmed = vec![VehicleId::new(1)];
        state.false_reporters = vec![(VehicleId::new(2), 3)];
        let table = ReservationTable::decode(&state.scheduler).expect("table decodes");
        assert!(!table.is_empty(), "snapshot carries bookings");
        assert_eq!(state.recent_blocks.len(), 3, "snapshot retains blocks");
        [
            WalRecord::Snapshot(state),
            WalRecord::WindowStart {
                now: 6.0,
                requests: vec![request(6), request(7)],
            },
            WalRecord::EvacStart {
                now: 7.5,
                states: vec![request(8)],
                threats: vec![Vec2::new(3.0, -4.0), Vec2::new(-1.5, 0.25)],
            },
            WalRecord::Broadcasted {
                index: last.index(),
            },
            WalRecord::Commit(last),
            WalRecord::Release {
                vehicle: VehicleId::new(5),
            },
            WalRecord::Ledger(Ledger {
                next_request_id: 2,
                confirmed: vec![VehicleId::new(4)],
                false_reporters: vec![(VehicleId::new(2), 3), (VehicleId::new(6), 1)],
            }),
        ]
        .iter()
        .map(WalRecord::encode)
        .collect()
    })
}

/// Decodes `bytes`; when that yields a record, checks that its encoding
/// decodes again to a record with the same encoding.
fn decodes_stably(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Some(record) = WalRecord::decode(bytes) {
        let encoded = record.encode();
        let again = WalRecord::decode(&encoded);
        prop_assert!(again.is_some(), "re-encoded {record:?} does not decode");
        prop_assert_eq!(again.map(|r| r.encode()), Some(encoded));
    }
    Ok(())
}

/// The samples are whole encodings, so the sweeps below start from
/// records the decoder accepts.
#[test]
fn every_sample_round_trips() {
    for bytes in samples() {
        let record = WalRecord::decode(bytes).expect("sample decodes");
        assert_eq!(&record.encode(), bytes);
    }
}

/// Every strict prefix of every sample is rejected.
#[test]
fn truncated_records_are_rejected() {
    for bytes in samples() {
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::decode(&bytes[..cut]).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, as they come and behind each kind tag.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in collection::vec(any::<u8>(), 0..200),
        kind in 0u8..8,
    ) {
        decodes_stably(&bytes)?;
        let mut tagged = bytes;
        if let Some(first) = tagged.first_mut() {
            *first = kind;
        }
        decodes_stably(&tagged)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Each byte of each sample in turn, XORed with a non-zero mask; the
    /// masks cycle through a list drawn per case.
    #[test]
    fn flipped_records_never_panic_the_decoder(masks in collection::vec(1u8..=255, 64)) {
        for sample in samples() {
            let mut bytes = sample.clone();
            for at in 0..bytes.len() {
                let mask = masks[at % masks.len()];
                bytes[at] ^= mask;
                decodes_stably(&bytes)?;
                bytes[at] ^= mask;
            }
        }
    }
}
