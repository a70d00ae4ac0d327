//! Vehicle identity and static characteristics.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique vehicle identifier within a simulation run.
///
/// The paper allows this to be an anonymous identity; here it is a plain
/// counter issued by the demand generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VehicleId(u64);

impl VehicleId {
    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        VehicleId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

const BRANDS: [&str; 8] = [
    "Aurora", "Borealis", "Cascade", "Dynamo", "Electra", "Fulcrum", "Gale", "Horizon",
];
const MODELS: [&str; 6] = ["S1", "X3", "M5", "T7", "R9", "L2"];
const COLORS: [&str; 7] = ["white", "black", "silver", "red", "blue", "gray", "green"];

/// The static characteristics `char_j` carried in every travel plan
/// (Eq. 1): car brand, model and color, which watchers and alert messages
/// use to identify a suspect visually.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VehicleDescriptor {
    /// Manufacturer name.
    pub brand: String,
    /// Model designation.
    pub model: String,
    /// Body color.
    pub color: String,
}

impl VehicleDescriptor {
    /// Samples a random descriptor.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        VehicleDescriptor {
            brand: BRANDS[rng.gen_range(0..BRANDS.len())].to_string(),
            model: MODELS[rng.gen_range(0..MODELS.len())].to_string(),
            color: COLORS[rng.gen_range(0..COLORS.len())].to_string(),
        }
    }

    /// Canonical byte encoding used when hashing travel plans.
    pub fn encode(&self) -> Vec<u8> {
        format!("{}|{}|{}", self.brand, self.model, self.color).into_bytes()
    }

    /// Decodes the canonical `brand|model|color` encoding.
    ///
    /// Round-trips [`VehicleDescriptor::encode`] exactly for any
    /// descriptor whose fields are `|`-free (all generated descriptors
    /// are). Returns `None` on non-UTF-8 input or a wrong field count,
    /// never panics — the bytes may come from a torn WAL tail.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let s = std::str::from_utf8(bytes).ok()?;
        let mut parts = s.split('|');
        let brand = parts.next()?.to_string();
        let model = parts.next()?.to_string();
        let color = parts.next()?.to_string();
        if parts.next().is_some() {
            return None;
        }
        Some(VehicleDescriptor {
            brand,
            model,
            color,
        })
    }
}

impl fmt::Display for VehicleDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.color, self.brand, self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn id_round_trip_and_display() {
        let id = VehicleId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "V42");
        assert!(VehicleId::new(1) < VehicleId::new(2));
    }

    #[test]
    fn random_descriptor_is_deterministic_per_seed() {
        let a = VehicleDescriptor::random(&mut StdRng::seed_from_u64(5));
        let b = VehicleDescriptor::random(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn descriptors_vary_across_draws() {
        let mut rng = StdRng::seed_from_u64(0);
        let draws: std::collections::HashSet<_> = (0..100)
            .map(|_| VehicleDescriptor::random(&mut rng))
            .collect();
        assert!(
            draws.len() > 10,
            "only {} distinct descriptors",
            draws.len()
        );
    }

    #[test]
    fn encode_is_injective_over_fields() {
        let a = VehicleDescriptor {
            brand: "A".into(),
            model: "B".into(),
            color: "C".into(),
        };
        let b = VehicleDescriptor {
            brand: "AB".into(),
            model: "".into(),
            color: "C".into(),
        };
        assert_ne!(a.encode(), b.encode());
    }

    #[test]
    fn decode_round_trips_and_rejects_garbage() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let d = VehicleDescriptor::random(&mut rng);
            assert_eq!(VehicleDescriptor::decode(&d.encode()), Some(d));
        }
        assert_eq!(VehicleDescriptor::decode(b"only|one-sep"), None);
        assert_eq!(VehicleDescriptor::decode(b"a|b|c|d"), None);
        assert_eq!(VehicleDescriptor::decode(&[0xFF, 0xFE, b'|', b'|']), None);
    }

    #[test]
    fn display_is_human_readable() {
        let d = VehicleDescriptor {
            brand: "Aurora".into(),
            model: "S1".into(),
            color: "red".into(),
        };
        assert_eq!(d.to_string(), "red Aurora S1");
    }
}
