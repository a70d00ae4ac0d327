//! Modular arithmetic: exponentiation (plain and Montgomery) and
//! modular inverse.

use crate::BigUint;

/// `base^exp mod modulus`.
///
/// Uses Montgomery multiplication when the modulus is odd (the common RSA
/// case) and falls back to division-based square-and-multiply otherwise.
///
/// # Panics
///
/// Panics when `modulus` is zero.
pub fn modpow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "modpow with zero modulus");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if modulus.is_even() {
        modpow_plain(base, exp, modulus)
    } else {
        Montgomery::new(modulus).modpow(base, exp)
    }
}

/// Division-based square-and-multiply, correct for any modulus.
pub fn modpow_plain(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "modpow with zero modulus");
    if modulus.is_one() {
        return BigUint::zero();
    }
    let mut result = BigUint::one();
    let mut acc = base.rem(modulus);
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = (&result * &acc).rem(modulus);
        }
        acc = (&acc * &acc).rem(modulus);
    }
    result
}

/// Modular inverse: the `x` with `a·x ≡ 1 (mod m)`, or `None` when
/// `gcd(a, m) ≠ 1`.
///
/// ```
/// use nwade_crypto::{modular::mod_inverse, BigUint};
/// let inv = mod_inverse(&BigUint::from_u64(3), &BigUint::from_u64(11));
/// assert_eq!(inv.and_then(|i| i.to_u64()), Some(4)); // 3·4 ≡ 1 (mod 11)
/// ```
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    // Extended Euclid with signed Bézout coefficient tracked as
    // (magnitude, is_negative).
    let mut old_r = a.rem(m);
    let mut r = m.clone();
    let mut old_s = (BigUint::one(), false);
    let mut s = (BigUint::zero(), false);
    while !r.is_zero() {
        let (q, rem) = old_r.divrem(&r);
        old_r = std::mem::replace(&mut r, rem);
        let qs = &q * &s.0;
        // new_s = old_s - q*s  (signed)
        let new_s = signed_sub(&old_s, &(qs, s.1));
        old_s = std::mem::replace(&mut s, new_s);
    }
    if !old_r.is_one() {
        return None;
    }
    let (mag, neg) = old_s;
    let mag = mag.rem(m);
    Some(if neg && !mag.is_zero() {
        m.checked_sub(&mag).expect("mag < m after reduction")
    } else {
        mag
    })
}

/// `a - b` on sign-magnitude pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => match a.0.checked_sub(&b.0) {
            Some(d) => (d, false),
            None => (&b.0 - &a.0, true),
        },
        // a - (-b) = a + b
        (false, true) => (&a.0 + &b.0, false),
        // -a - b = -(a + b)
        (true, false) => (&a.0 + &b.0, true),
        // -a - (-b) = b - a
        (true, true) => match b.0.checked_sub(&a.0) {
            Some(d) => (d, false),
            None => (&a.0 - &b.0, true),
        },
    }
}

/// Montgomery multiplication context for a fixed odd modulus.
///
/// Exponentiation through this context avoids per-step division, which is
/// what keeps 2048-bit RSA signing within the paper's timing envelope.
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Vec<u32>,
    n0_inv: u32,
    /// R² mod n, used to convert into Montgomery form.
    r2: BigUint,
    modulus: BigUint,
}

impl Montgomery {
    /// Creates a context.
    ///
    /// # Panics
    ///
    /// Panics when `modulus` is even or < 2 (Montgomery requires odd).
    pub fn new(modulus: &BigUint) -> Self {
        assert!(
            !modulus.is_even() && !modulus.is_one() && !modulus.is_zero(),
            "Montgomery modulus must be odd and > 1"
        );
        let n = modulus.limbs().to_vec();
        let n0_inv = inv_limb(n[0]);
        let l = n.len();
        let r2 = BigUint::one().shl(64 * l).rem(modulus);
        Montgomery {
            n,
            n0_inv,
            r2,
            modulus: modulus.clone(),
        }
        .validate()
    }

    fn validate(self) -> Self {
        debug_assert_eq!(
            self.n[0].wrapping_mul(self.n0_inv),
            u32::MAX, // n[0] * (-n^{-1}) ≡ -1 (mod 2^32)
        );
        self
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// CIOS Montgomery product: `a·b·R⁻¹ mod n` for limb vectors already
    /// reduced below n.
    // Index-based inner loops keep the carry chains legible; iterator
    // rewrites obscure the CIOS structure.
    #[allow(clippy::needless_range_loop)]
    fn mont_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let l = self.n.len();
        let mut t = vec![0u32; l + 2];
        for i in 0..l {
            let ai = *a.get(i).unwrap_or(&0) as u64;
            // t += a[i] * b
            let mut carry: u64 = 0;
            for j in 0..l {
                let sum = t[j] as u64 + ai * *b.get(j).unwrap_or(&0) as u64 + carry;
                t[j] = (sum & 0xffff_ffff) as u32;
                carry = sum >> 32;
            }
            let sum = t[l] as u64 + carry;
            t[l] = (sum & 0xffff_ffff) as u32;
            t[l + 1] = t[l + 1].wrapping_add((sum >> 32) as u32);
            // m = t[0] * n0_inv mod 2^32; t += m * n; t >>= 32
            let m = (t[0].wrapping_mul(self.n0_inv)) as u64;
            let first = t[0] as u64 + m * self.n[0] as u64;
            debug_assert_eq!(first & 0xffff_ffff, 0);
            let mut carry: u64 = first >> 32;
            for j in 1..l {
                let sum = t[j] as u64 + m * self.n[j] as u64 + carry;
                t[j - 1] = (sum & 0xffff_ffff) as u32;
                carry = sum >> 32;
            }
            let sum = t[l] as u64 + carry;
            t[l - 1] = (sum & 0xffff_ffff) as u32;
            t[l] = t[l + 1].wrapping_add((sum >> 32) as u32);
            t[l + 1] = 0;
        }
        t.truncate(l + 1);
        // Final conditional subtraction.
        let val = BigUint::from_limbs(t);
        let reduced = if val >= self.modulus {
            val.checked_sub(&self.modulus).expect("val >= modulus")
        } else {
            val
        };
        let mut limbs = reduced.limbs().to_vec();
        limbs.resize(l, 0);
        limbs
    }

    /// `base^exp mod n` via left-to-right binary exponentiation in
    /// Montgomery form.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let l = self.n.len();
        let base_red = base.rem(&self.modulus);
        let mut base_limbs = base_red.limbs().to_vec();
        base_limbs.resize(l, 0);
        let mut r2_limbs = self.r2.limbs().to_vec();
        r2_limbs.resize(l, 0);
        // into Montgomery form: a·R mod n = montmul(a, R²)
        let base_m = self.mont_mul(&base_limbs, &r2_limbs);
        // one in Montgomery form: R mod n = montmul(1, R²)
        let mut one = vec![0u32; l];
        one[0] = 1;
        let mut acc = self.mont_mul(&one, &r2_limbs);
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        // out of Montgomery form: montmul(acc, 1)
        let out = self.mont_mul(&acc, &one);
        BigUint::from_limbs(out)
    }
}

/// Inverse of `-n` modulo 2^32 for odd `n`, by Newton–Hensel lifting.
fn inv_limb(n: u32) -> u32 {
    debug_assert!(n & 1 == 1);
    // x := n^{-1} mod 2^32
    let mut x: u32 = n; // correct mod 2^3 for odd n? use standard trick:
    x = x.wrapping_mul(2u32.wrapping_sub(n.wrapping_mul(x))); // mod 2^6... iterate
    x = x.wrapping_mul(2u32.wrapping_sub(n.wrapping_mul(x)));
    x = x.wrapping_mul(2u32.wrapping_sub(n.wrapping_mul(x)));
    x = x.wrapping_mul(2u32.wrapping_sub(n.wrapping_mul(x)));
    x = x.wrapping_mul(2u32.wrapping_sub(n.wrapping_mul(x)));
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_modpow() {
        assert_eq!(modpow(&n(2), &n(10), &n(1000)).to_u64(), Some(24));
        assert_eq!(modpow(&n(3), &n(0), &n(7)).to_u64(), Some(1));
        assert_eq!(modpow(&n(0), &n(5), &n(7)).to_u64(), Some(0));
        assert_eq!(modpow(&n(5), &n(117), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) ≡ 1 mod p for prime p not dividing a.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 999_999_937, 123_456_789] {
            assert!(
                modpow(&n(a), &n(1_000_000_006), &p).is_one(),
                "Fermat failed for a={a}"
            );
        }
    }

    #[test]
    fn montgomery_matches_plain_small() {
        let m = n(1_000_000_007);
        for (b, e) in [(2u64, 1000u64), (12345, 67890), (999_999_999, 3)] {
            assert_eq!(
                modpow_plain(&n(b), &n(e), &m),
                Montgomery::new(&m).modpow(&n(b), &n(e)),
                "mismatch for {b}^{e}"
            );
        }
    }

    #[test]
    fn montgomery_matches_plain_multi_limb() {
        // 2^127 - 1 (Mersenne prime, odd, 4 limbs).
        let m = BigUint::from_decimal("170141183460469231731687303715884105727");
        let b = BigUint::from_decimal("123456789012345678901234567890");
        let e = BigUint::from_decimal("98765432109876543210");
        assert_eq!(modpow_plain(&b, &e, &m), Montgomery::new(&m).modpow(&b, &e));
    }

    #[test]
    fn even_modulus_falls_back() {
        let m = n(1 << 20);
        assert_eq!(modpow(&n(3), &n(100), &m), modpow_plain(&n(3), &n(100), &m));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn montgomery_even_modulus_panics() {
        let _ = Montgomery::new(&n(100));
    }

    #[test]
    fn inv_limb_all_odd_patterns() {
        for v in [1u32, 3, 5, 0xffff_ffff, 0x8000_0001, 12345_u32 | 1] {
            let x = inv_limb(v);
            assert_eq!(v.wrapping_mul(x.wrapping_neg()), 1, "v={v:#x}");
        }
    }

    #[test]
    fn mod_inverse_small_cases() {
        assert_eq!(mod_inverse(&n(3), &n(11)).unwrap().to_u64(), Some(4));
        assert_eq!(mod_inverse(&n(7), &n(26)).unwrap().to_u64(), Some(15));
        // gcd(6, 9) = 3 → no inverse.
        assert!(mod_inverse(&n(6), &n(9)).is_none());
        assert!(mod_inverse(&n(5), &BigUint::one()).is_none());
    }

    #[test]
    fn mod_inverse_large() {
        let m = BigUint::from_decimal("170141183460469231731687303715884105727");
        let a = BigUint::from_decimal("123456789012345678901234567890");
        let inv = mod_inverse(&a, &m).expect("coprime with a prime modulus");
        assert!((&a * &inv).rem(&m).is_one());
    }

    #[test]
    fn mod_inverse_of_reduced_and_unreduced_agree() {
        let m = n(1_000_003);
        let a = n(1_000_003 * 7 + 17);
        assert_eq!(mod_inverse(&a, &m), mod_inverse(&n(17), &m));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u32>(), 0..max_limbs).prop_map(BigUint::from_limbs)
    }

    proptest! {
        /// Montgomery and plain modpow always agree for odd moduli.
        #[test]
        fn montgomery_equals_plain(
            b in arb_biguint(5),
            e in arb_biguint(3),
            m_seed in arb_biguint(5),
        ) {
            // Force the modulus odd and > 1.
            let m = &(&m_seed + &m_seed) + &BigUint::from_u64(3);
            prop_assert_eq!(
                Montgomery::new(&m).modpow(&b, &e),
                modpow_plain(&b, &e, &m)
            );
        }

        /// (a^x · a^y) mod m == a^(x+y) mod m.
        #[test]
        fn exponent_addition_law(
            a in arb_biguint(3),
            x in 0u64..2000,
            y in 0u64..2000,
            m_seed in arb_biguint(3),
        ) {
            let m = &(&m_seed + &m_seed) + &BigUint::from_u64(3);
            let lhs = (&modpow(&a, &BigUint::from_u64(x), &m)
                * &modpow(&a, &BigUint::from_u64(y), &m)).rem(&m);
            let rhs = modpow(&a, &BigUint::from_u64(x + y), &m);
            prop_assert_eq!(lhs, rhs);
        }

        /// mod_inverse really inverts.
        #[test]
        fn inverse_inverts(a in arb_biguint(4), m_seed in arb_biguint(4)) {
            let m = &(&m_seed + &m_seed) + &BigUint::from_u64(3);
            if let Some(inv) = mod_inverse(&a, &m) {
                prop_assert!((&a.rem(&m) * &inv).rem(&m).is_one());
                prop_assert!(inv < m);
            }
        }
    }
}
