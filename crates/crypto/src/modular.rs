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
/// Products run on 64-bit limbs (`u128` partial products) in scratch
/// space the exponentiation allocates once; long exponents are consumed
/// four bits at a time.
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// The modulus as little-endian 64-bit limbs.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// R² mod n with R = 2^(64·limbs), used to convert into Montgomery
    /// form.
    r2: Vec<u64>,
    modulus: BigUint,
}

/// Exponents longer than this many bits use a 4-bit window; shorter
/// ones (a verifier's e = 65537) use a 1-bit window, square-and-multiply,
/// for which the 4-bit window's 14-product table would cost more than
/// it saves.
const WINDOW_MIN_BITS: usize = 64;

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
        let l = modulus.limbs().len().div_ceil(2);
        let n = to_words(modulus, l);
        let n0_inv = inv_limb(n[0]);
        let r2 = to_words(&BigUint::one().shl(128 * l).rem(modulus), l);
        Montgomery {
            n,
            n0_inv,
            r2,
            modulus: modulus.clone(),
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// CIOS Montgomery product `a·b·R⁻¹ mod n` of limb vectors already
    /// reduced below n, written to `out`. `t` is scratch of `limbs + 2`
    /// words; nothing is allocated.
    // Index-based inner loops keep the carry chains legible; iterator
    // rewrites obscure the CIOS structure.
    #[allow(clippy::needless_range_loop)]
    fn mul_into(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let n = &self.n;
        let l = n.len();
        t.fill(0);
        for i in 0..l {
            // t += a[i] · b
            let ai = u128::from(a[i]);
            let mut carry = 0u64;
            for j in 0..l {
                let sum = u128::from(t[j]) + ai * u128::from(b[j]) + u128::from(carry);
                t[j] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let sum = u128::from(t[l]) + u128::from(carry);
            t[l] = sum as u64;
            t[l + 1] = (sum >> 64) as u64;
            // m = t[0] · n0_inv mod 2⁶⁴; t = (t + m · n) / 2⁶⁴
            let m = u128::from(t[0].wrapping_mul(self.n0_inv));
            let first = u128::from(t[0]) + m * u128::from(n[0]);
            debug_assert_eq!(first as u64, 0);
            let mut carry = (first >> 64) as u64;
            for j in 1..l {
                let sum = u128::from(t[j]) + m * u128::from(n[j]) + u128::from(carry);
                t[j - 1] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let sum = u128::from(t[l]) + u128::from(carry);
            t[l - 1] = sum as u64;
            t[l] = t[l + 1] + (sum >> 64) as u64;
        }
        // t < 2n: one conditional subtraction reduces it below n.
        if t[l] != 0 || !words_less(&t[..l], n) {
            let mut borrow = false;
            for j in 0..l {
                let (d, b1) = t[j].overflowing_sub(n[j]);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                out[j] = d;
                borrow = b1 || b2;
            }
        } else {
            out.copy_from_slice(&t[..l]);
        }
    }

    /// `x` (any size) in Montgomery form: `x·R mod n`.
    fn enter(&self, x: &BigUint, t: &mut [u64]) -> Vec<u64> {
        let l = self.n.len();
        let reduced = to_words(&x.rem(&self.modulus), l);
        let mut out = vec![0u64; l];
        self.mul_into(&reduced, &self.r2, t, &mut out);
        out
    }

    /// `x·R⁻¹ mod n` as an integer: out of Montgomery form.
    fn leave(&self, x: &[u64], t: &mut [u64]) -> BigUint {
        let l = self.n.len();
        let mut one = vec![0u64; l];
        one[0] = 1;
        let mut out = vec![0u64; l];
        self.mul_into(x, &one, t, &mut out);
        from_words(&out)
    }

    /// Scratch for [`Montgomery::mul_into`].
    fn scratch(&self) -> Vec<u64> {
        vec![0u64; self.n.len() + 2]
    }

    /// `base^exp` in Montgomery form (`base^exp·R mod n`), by a fixed
    /// window of `w` bits: `table[k − 1] = base^k` for every nonzero
    /// digit k, then per lower digit `w` squarings and at most one
    /// product. A 1-bit window is square-and-multiply with no table.
    fn pow_mont(&self, base: &BigUint, exp: &BigUint, t: &mut [u64]) -> Vec<u64> {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.enter(&BigUint::one(), t);
        }
        let w: usize = if bits > WINDOW_MIN_BITS { 4 } else { 1 };
        let l = self.n.len();
        let mut table = vec![self.enter(base, t)];
        for k in 1..(1 << w) - 1 {
            let mut next = vec![0u64; l];
            self.mul_into(&table[k - 1], &table[0], t, &mut next);
            table.push(next);
        }
        let digit = |i: usize| (0..w).fold(0, |d, b| d | usize::from(exp.bit(w * i + b)) << b);
        // The top digit holds the exponent's highest set bit, so it is
        // nonzero.
        let top = bits.div_ceil(w) - 1;
        let mut acc = table[digit(top) - 1].clone();
        let mut tmp = vec![0u64; l];
        for i in (0..top).rev() {
            for _ in 0..w {
                self.mul_into(&acc, &acc, t, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let d = digit(i);
            if d != 0 {
                self.mul_into(&acc, &table[d - 1], t, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        acc
    }

    /// `base^exp mod n`: square-and-multiply for short exponents, a fixed
    /// 4-bit window for long ones, in Montgomery form throughout.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut t = self.scratch();
        let acc = self.pow_mont(base, exp, &mut t);
        self.leave(&acc, &mut t)
    }

    /// Miller–Rabin witness test of base `a` against this (odd) modulus
    /// n, where `n − 1 = d·2^s` with `d` odd: `true` when `a` proves n
    /// composite. Squarings stay in Montgomery form, compared against
    /// the Montgomery forms of 1 and n − 1.
    pub(crate) fn is_witness(&self, a: &BigUint, d: &BigUint, s: u32) -> bool {
        let mut t = self.scratch();
        let one = self.enter(&BigUint::one(), &mut t);
        let minus_one = self.enter(&(&self.modulus - &BigUint::one()), &mut t);
        let mut x = self.pow_mont(a, d, &mut t);
        if x == one || x == minus_one {
            return false;
        }
        let mut tmp = vec![0u64; x.len()];
        for _ in 0..s.saturating_sub(1) {
            self.mul_into(&x, &x, &mut t, &mut tmp);
            std::mem::swap(&mut x, &mut tmp);
            if x == minus_one {
                return false;
            }
        }
        true
    }
}

/// `x` as `l` little-endian 64-bit limbs (`x` must fit).
fn to_words(x: &BigUint, l: usize) -> Vec<u64> {
    let mut out = vec![0u64; l];
    for (i, &limb) in x.limbs().iter().enumerate() {
        out[i / 2] |= u64::from(limb) << (32 * (i % 2));
    }
    out
}

/// The integer of little-endian 64-bit limbs.
fn from_words(words: &[u64]) -> BigUint {
    BigUint::from_limbs(
        words
            .iter()
            .flat_map(|&w| [w as u32, (w >> 32) as u32])
            .collect(),
    )
}

/// `a < b` for equal-length little-endian limb vectors.
fn words_less(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Inverse of `-n` modulo 2⁶⁴ for odd `n`, by Newton–Hensel lifting.
fn inv_limb(n: u64) -> u64 {
    debug_assert!(n & 1 == 1);
    // x = n is n⁻¹ mod 2³ for odd n; each step doubles the correct bits
    // (3 → 6 → 12 → 24 → 48 → 96).
    let mut x = n;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
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

    /// Moduli with an odd number of 32-bit limbs leave the top 64-bit
    /// limb half empty, up to RSA-2048 sizes; short exponents take
    /// 1-bit windows, long ones 4-bit windows.
    #[test]
    fn montgomery_matches_plain_on_odd_limb_counts() {
        for limbs32 in [1usize, 3, 5, 9, 17, 33, 63, 65] {
            let words: Vec<u32> = (0..limbs32)
                .map(|i| 0x9e37_79b9u32.wrapping_mul(i as u32 + 1) ^ 0x5bd1_e995)
                .collect();
            let mut m = BigUint::from_limbs(words);
            if m.is_even() {
                m = &m + &BigUint::one();
            }
            assert_eq!(m.limbs().len(), limbs32);
            let base = &m.shr(3) + &n(12345);
            let ctx = Montgomery::new(&m);
            for e in [0u64, 1, 2, 3, 17, 65_537, u64::MAX] {
                assert_eq!(
                    ctx.modpow(&base, &n(e)),
                    modpow_plain(&base, &n(e), &m),
                    "{limbs32} limbs, exponent {e}"
                );
            }
            // A base above the modulus is reduced first.
            let big = &(&m * &m) + &n(7);
            assert_eq!(ctx.modpow(&big, &n(3)), modpow_plain(&big, &n(3), &m));
            // A 96-bit exponent takes 4-bit windows.
            let e = BigUint::from_decimal("60111413337294575839475371863");
            assert_eq!(ctx.modpow(&base, &e), modpow_plain(&base, &e, &m));
        }
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
        for v in [
            1u64,
            3,
            5,
            0xffff_ffff,
            0x8000_0001,
            12345_u64 | 1,
            u64::MAX,
            0x8000_0000_0000_0001,
            0xdead_beef_cafe_f00d,
        ] {
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

    /// Odd moduli of exactly 1–7 32-bit limbs, so both parities of the
    /// limb count occur when they are packed into 64-bit limbs.
    fn arb_odd_modulus() -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u32>(), 1..8).prop_map(|mut words| {
            words[0] |= 1;
            *words.last_mut().expect("at least one limb") |= 1 << 31;
            BigUint::from_limbs(words)
        })
    }

    proptest! {
        /// Montgomery and plain modpow always agree for odd moduli, with
        /// exponents of up to 160 bits on both sides of
        /// `WINDOW_MIN_BITS`.
        #[test]
        fn montgomery_equals_plain(
            b in arb_biguint(9),
            e in arb_biguint(6),
            m in arb_odd_modulus(),
        ) {
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
