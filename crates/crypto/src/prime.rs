//! Probabilistic primality testing and prime generation.

use crate::modular::Montgomery;
use crate::BigUint;
use rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Uniformly random value in `[0, bound)`.
///
/// # Panics
///
/// Panics when `bound` is zero.
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "random_below with zero bound");
    let bytes = bound.bit_len().div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        // Mask the top byte so the rejection rate stays below 50%.
        let excess_bits = bytes * 8 - bound.bit_len();
        buf[0] &= 0xffu8 >> excess_bits;
        let candidate = BigUint::from_bytes_be(&buf);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Random integer with exactly `bits` bits (top bit set).
pub fn random_with_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 2, "need at least 2 bits");
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    rng.fill_bytes(&mut buf);
    let excess = bytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    buf[0] |= 0x80u8 >> excess; // force the top bit
    BigUint::from_bytes_be(&buf)
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// A composite passes all rounds with probability at most `4^-rounds`.
/// Candidates are first screened by division by the small primes, on
/// machine words; the survivors share one Montgomery context over all
/// rounds.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    if n < &BigUint::from_u64(2) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if rem_small(n, p) == 0 {
            return n.to_u64() == Some(u64::from(p));
        }
    }
    // Write n-1 = d · 2^s with d odd.
    let mut d = n - &BigUint::one();
    let mut s = 0u32;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let two = BigUint::from_u64(2);
    let bound = n - &BigUint::from_u64(4); // bases in [2, n-2]
    let ctx = Montgomery::new(n);
    for _ in 0..rounds {
        let a = &random_below(rng, &bound) + &two;
        if ctx.is_witness(&a, &d, s) {
            return false;
        }
    }
    true
}

/// `n mod p` for a small divisor, folding the 32-bit limbs from the top.
fn rem_small(n: &BigUint, p: u32) -> u32 {
    let p = u64::from(p);
    n.limbs()
        .iter()
        .rev()
        .fold(0u64, |r, &limb| ((r << 32) | u64::from(limb)) % p) as u32
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// Candidates are random odd numbers with the top bit set (so products of
/// two such primes have exactly `2·bits` bits), screened by trial division
/// and confirmed with `rounds` Miller–Rabin rounds.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rounds: u32, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = random_with_bits(rng, bits);
        if candidate.is_even() {
            candidate = &candidate + &BigUint::one();
        }
        // Also set the second-highest bit so p·q keeps full width.
        let top2 = BigUint::one().shl(bits - 2);
        if !candidate.bit(bits - 2) {
            candidate = &candidate + &top2;
        }
        if is_probable_prime(&candidate, rounds, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn small_primes_pass() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65_537, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_fail() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 255, 65_535, 1_000_000_008] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_fail() {
        // Fermat pseudoprimes that fool a^(n-1) ≡ 1; Miller–Rabin must
        // reject them.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "Carmichael {c} slipped through"
            );
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is prime (Mersenne).
        let m127 = BigUint::from_decimal("170141183460469231731687303715884105727");
        let mut r = rng();
        assert!(is_probable_prime(&m127, 12, &mut r));
        // 2^128 - 1 = 3 · 5 · 17 · 257 · ... is composite.
        let c = BigUint::from_decimal("340282366920938463463374607431768211455");
        assert!(!is_probable_prime(&c, 12, &mut r));
    }

    #[test]
    fn generated_primes_have_requested_width() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, 12, &mut r);
            assert_eq!(p.bit_len(), bits, "asked for {bits} bits");
            assert!(!p.is_even());
        }
    }

    #[test]
    fn product_of_two_generated_primes_has_full_width() {
        let mut r = rng();
        for _ in 0..5 {
            let p = gen_prime(64, 8, &mut r);
            let q = gen_prime(64, 8, &mut r);
            assert_eq!((&p * &q).bit_len(), 128);
        }
    }

    #[test]
    fn random_below_stays_below() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn random_with_bits_sets_top_bit() {
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(random_with_bits(&mut r, 37).bit_len(), 37);
        }
    }

    #[test]
    #[should_panic(expected = "zero bound")]
    fn random_below_zero_panics() {
        let mut r = rng();
        let _ = random_below(&mut r, &BigUint::zero());
    }
}
