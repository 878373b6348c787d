//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This module provides [`BigUint`], the number-theoretic workhorse behind the
//! RSA implementation in [`crate::rsa`]. It is deliberately self-contained
//! (no external bignum crate) because the reproduction rules require every
//! substrate to be built from scratch.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (canonical form). Zero is the empty limb vector.
//!
//! Operations implemented: comparison, addition, subtraction, schoolbook
//! multiplication, bit operations, long division (Knuth-style, limb by limb
//! via a normalized 128-bit estimate), modular exponentiation (one
//! allocation-free Montgomery kernel over odd moduli up to 4,096 bits — see
//! `Montgomery` — with a schoolbook fallback for even and wider ones),
//! extended Euclid / modular inverse, and Miller–Rabin primality testing.

use std::cmp::Ordering;
use std::fmt;

use rand::RngCore;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs in canonical form (no trailing zero
/// limbs). All arithmetic that could underflow panics — RSA code paths never
/// subtract a larger number from a smaller one.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from big-endian bytes (the DNS wire convention for RSA material).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if acc != 0 {
            limbs.push(acc);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zero byte.
    /// Zero serializes to an empty vector.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes left-padded with zeros to exactly
    /// `len` bytes. Panics if the value needs more than `len` bytes —
    /// callers size the buffer from the modulus.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        assert!(
            self.bit_len().div_ceil(8) <= len,
            "value does not fit in {len} bytes"
        );
        let mut out = vec![0u8; len];
        for (chunk, limb) in out.rchunks_mut(8).zip(&self.limbs) {
            let bytes = limb.to_be_bytes();
            chunk.copy_from_slice(&bytes[8 - chunk.len()..]);
        }
        out
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the low bit is clear (and the value may be zero).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (counting from the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = ai.overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self + v`, as a new value.
    pub fn add_u64(&self, v: u64) -> BigUint {
        self.add(&BigUint::from_u64(v))
    }

    /// `self - other`; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook; adequate for ≤4096-bit RSA).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            for i in 0..out.len() {
                let high = out.get(i + 1).copied().unwrap_or(0);
                out[i] = (out[i] >> bit_shift) | (high << (64 - bit_shift));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `(self / divisor, self % divisor)`; panics on division by zero.
    ///
    /// Uses limb-wise long division with a 128-bit quotient estimate against
    /// the divisor's top two limbs (a simplified Knuth algorithm D); each
    /// estimate is corrected by at most a couple of add/sub passes.
    pub fn divmod(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem: u128 = 0;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // extra headroom limb
        let vtop = v.limbs[n - 1];
        let vsec = v.limbs[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q̂ from the top three limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / vtop as u128;
            let mut rhat = num % vtop as u128;
            while qhat >> 64 != 0 || qhat * vsec as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vtop as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 + borrow;
                un[j + i] = t as u64;
                borrow = t >> 64;
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;
            borrow = t >> 64;

            q[j] = qhat as u64;
            if borrow < 0 {
                // q̂ was one too large: add v back.
                q[j] -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = un[j + i].overflowing_add(v.limbs[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    un[j + i] = s2;
                    carry = (c1 as u64) + (c2 as u64);
                }
                un[j + n] = un[j + n].wrapping_add(carry);
            }
        }

        let mut quot = BigUint { limbs: q };
        quot.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quot, rem.shr(shift))
    }

    /// `self % modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.divmod(modulus).1
    }

    /// `self % divisor` for a single-limb divisor, without allocating;
    /// panics on division by zero.
    pub fn rem_u64(&self, divisor: u64) -> u64 {
        assert!(divisor != 0, "division by zero");
        let d = divisor as u128;
        self.limbs
            .iter()
            .rev()
            .fold(0u128, |rem, &l| ((rem << 64) | l as u128) % d) as u64
    }

    /// `(self * other) % modulus` without intermediate reduction tricks.
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// `self^exponent mod modulus`.
    ///
    /// Runs on the `Montgomery` kernel when the modulus is odd (the RSA
    /// case), and falls back to plain square-and-multiply otherwise.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if modulus.is_even() {
            return self.modpow_plain(exponent, modulus);
        }
        Montgomery::new(modulus).pow(self, exponent)
    }

    fn modpow_plain(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mulmod(&base, modulus);
            }
            base = base.mulmod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid; division is cheap here).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: `self⁻¹ mod modulus`, or `None` if not coprime.
    ///
    /// Extended Euclid tracked with signed coefficients over `BigUint`
    /// (sign carried separately to stay in unsigned arithmetic).
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // (old_r, r) and signed coefficients (old_s, s) of `self`.
        let mut old_r = self.rem(modulus);
        let mut r = modulus.clone();
        let mut old_s = (BigUint::one(), false); // (magnitude, negative?)
        let mut s = (BigUint::zero(), false);
        while !r.is_zero() {
            let (q, rem) = old_r.divmod(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s
            let qs = q.mul(&s.0);
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None;
        }
        let inv = if old_s.1 {
            modulus.sub(&old_s.0.rem(modulus))
        } else {
            old_s.0.rem(modulus)
        };
        Some(inv.rem(modulus))
    }

    /// Draws a uniformly random value with exactly `bits` significant bits
    /// (top bit forced to 1 so products have predictable width).
    pub fn random_bits(rng: &mut dyn RngCore, bits: usize) -> BigUint {
        assert!(bits > 0);
        let limbs = bits.div_ceil(64);
        let mut v = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            v.push(rng.next_u64());
        }
        // Mask excess bits, then force the top bit on.
        let top_bits = bits - (limbs - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        let last = v.last_mut().unwrap();
        *last &= mask;
        *last |= 1u64 << (top_bits - 1);
        let mut n = BigUint { limbs: v };
        n.normalize();
        n
    }

    /// Draws a uniform value in `[0, bound)` by rejection sampling.
    pub fn random_below(rng: &mut dyn RngCore, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        loop {
            // Sample `bits` random bits without forcing the top bit.
            let limbs = bits.div_ceil(64);
            let mut v = Vec::with_capacity(limbs);
            for _ in 0..limbs {
                v.push(rng.next_u64());
            }
            let top_bits = bits - (limbs - 1) * 64;
            let mask = if top_bits == 64 {
                u64::MAX
            } else {
                (1u64 << top_bits) - 1
            };
            *v.last_mut().unwrap() &= mask;
            let mut n = BigUint { limbs: v };
            n.normalize();
            if &n < bound {
                return n;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    ///
    /// Deterministically handles small primes and even numbers first. With
    /// 24 rounds the error probability is < 4⁻²⁴ per composite.
    pub fn is_probable_prime(&self, rng: &mut dyn RngCore, rounds: u32) -> bool {
        const SMALL_PRIMES: [u64; 15] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];
        if self.bit_len() <= 6 {
            // Below 64 = 8², a composite has a factor among the first four.
            let v = self.limbs.first().copied().unwrap_or(0);
            return v >= 2 && SMALL_PRIMES.iter().all(|&p| p == v || v % p != 0);
        }
        if SMALL_PRIMES.iter().any(|&p| self.rem_u64(p) == 0) {
            return false;
        }
        // Write self - 1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr(s);
        let two = BigUint::from_u64(2);
        let bound = self.sub(&BigUint::from_u64(3));
        // Odd and > 47 here, so one context serves every round.
        let ctx = Montgomery::new(self);
        'witness: for _ in 0..rounds {
            // a in [2, n-2]
            let a = BigUint::random_below(rng, &bound).add(&two);
            let mut x = ctx.pow(&a, &d);
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..s.saturating_sub(1) {
                x = x.mulmod(&x, self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    pub fn random_prime(rng: &mut dyn RngCore, bits: usize, mr_rounds: u32) -> BigUint {
        assert!(bits >= 8, "prime too small to be useful");
        loop {
            let mut cand = BigUint::random_bits(rng, bits);
            // Force odd.
            cand.limbs[0] |= 1;
            if cand.is_probable_prime(rng, mr_rounds) {
                return cand;
            }
        }
    }
}

/// Count of trailing zero bits; `n` must be nonzero.
fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut tz = 0;
    for &l in &n.limbs {
        if l == 0 {
            tz += 64;
        } else {
            tz += l.trailing_zeros() as usize;
            break;
        }
    }
    tz
}

/// Signed subtraction over (magnitude, negative?) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with equal signs: compare magnitudes.
        (an, bn) if an == bn => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), an)
            } else {
                (b.0.sub(&a.0), !an)
            }
        }
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (an, _) => (a.0.add(&b.0), an),
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        for (i, l) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        Ok(())
    }
}

/// Exponents longer than this many bits are scanned through a 4-bit fixed
/// window; shorter ones (the public `e = 65537` above all) one bit at a
/// time, which needs no 16-entry table. The table's 14 multiplications pay
/// for themselves from ~56 exponent bits on; one limb is the round number
/// above that.
const WINDOW_MIN_EXP_BITS: usize = 64;

/// Montgomery context for an odd modulus `n` padded to `K` limbs, `R = 2^(64K)`.
///
/// The one modular-exponentiation path for odd moduli: [`BigUint::modpow`],
/// Miller–Rabin and RSA verification build it per call; an RSA private key
/// keeps one per prime so CRT signing pays no set-up. [`Montgomery::pow`]
/// dispatches once on `K` to [`mont_mul`] over `[u64; K]` arrays.
#[derive(Clone)]
pub(crate) struct Montgomery {
    /// The modulus.
    n: BigUint,
    /// `-n⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod n`, zero-padded to `K` limbs (multiplying by it enters
    /// Montgomery form).
    r2: Vec<u64>,
}

impl Montgomery {
    /// Builds the context; `modulus` must be odd and greater than 1.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(
            !modulus.is_even() && !modulus.is_one(),
            "Montgomery modulus must be odd and > 1"
        );
        // n⁻¹ mod 2⁶⁴ by Newton iteration on the low limb (each step doubles
        // the correct low bits; an odd n0 is its own inverse mod 8).
        let n0 = modulus.limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let k = modulus.limbs.len().next_power_of_two().max(4); // width class
        let mut r2 = BigUint::one().shl(128 * k).rem(modulus).limbs;
        r2.resize(k, 0);
        Montgomery {
            n: modulus.clone(),
            n_prime: inv.wrapping_neg(),
            r2,
        }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `base^exponent mod n`, for any `base`, on its width class's kernel.
    pub(crate) fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        match self.r2.len() {
            4 => self.pow_fixed::<4>(base, exponent),
            8 => self.pow_fixed::<8>(base, exponent),
            16 => self.pow_fixed::<16>(base, exponent),
            32 => self.pow_fixed::<32>(base, exponent),
            64 => self.pow_fixed::<64>(base, exponent),
            _ => base.modpow_plain(exponent, &self.n), // over 64 limbs
        }
    }

    /// [`Montgomery::pow`] over `K` limbs, left to right through a fixed
    /// window: four bits over a table of `base⁰..base¹⁵` for exponents longer
    /// than [`WINDOW_MIN_EXP_BITS`], one bit (the binary ladder) for shorter
    /// ones. Table and accumulator are stack arrays; only the result allocates.
    fn pow_fixed<const K: usize>(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one();
        }
        let reduced;
        let base = if *base < self.n {
            base
        } else {
            reduced = base.rem(&self.n);
            &reduced
        };
        let (mut n, r2) = ([0u64; K], self.r2.as_slice().try_into().expect("K limbs"));
        n[..self.n.limbs.len()].copy_from_slice(&self.n.limbs);
        let mul = |a: &[u64; K], b: &[u64; K]| mont_mul(a, b, &n, self.n_prime);
        let bits = exponent.bit_len();
        // Both widths divide 64, so a window never straddles two limbs.
        let width = if bits > WINDOW_MIN_EXP_BITS { 4 } else { 1 };
        let window = |i: usize| {
            (exponent.limbs[i * width / 64] >> (i * width % 64)) as usize & ((1 << width) - 1)
        };

        // Entry 0 holds the plain base, then the plain 1 that leads out of
        // Montgomery form; the loop never uses it (a zero window only squares).
        let mut table = [[0u64; K]; 16];
        table[0][..base.limbs.len()].copy_from_slice(&base.limbs);
        table[1] = mul(&table[0], r2);
        for i in 2..1 << width {
            table[i] = mul(&table[i - 1], &table[1]);
        }
        table[0] = [0; K];
        table[0][0] = 1;

        // The top window holds the exponent's top bit, so it is nonzero.
        let top = (bits - 1) / width;
        let mut acc = table[window(top)];
        for i in (0..top).rev() {
            for _ in 0..width {
                acc = mul(&acc, &acc);
            }
            let w = window(i);
            if w != 0 {
                acc = mul(&acc, &table[w]);
            }
        }
        let mut out = BigUint {
            limbs: mul(&acc, &table[0]).to_vec(),
        };
        out.normalize();
        out
    }
}

/// `a · b · R⁻¹ mod n` over `K` limbs, `R = 2^(64K)`, `a, b < n`.
///
/// The CIOS recurrence with the reduction folded into the row loop: row
/// `i` adds `a·b[i]` and `m·n` in one pass over the accumulator on two
/// carry chains, storing each limb one place down, so the division by 2⁶⁴
/// costs nothing and the accumulator stays below `2n`: `K` limbs and one
/// carry bit. `K` is a constant, so the compiler unrolls the rows. Forced
/// inline: as a call, RSA-512 signing measured ~10% slower.
#[inline(always)]
fn mont_mul<const K: usize>(a: &[u64; K], b: &[u64; K], n: &[u64; K], n_prime: u64) -> [u64; K] {
    let mut out = [0u64; K];
    let mut top = 0u64; // limb K of the accumulator: 0 or 1
    for &bi in b {
        let bi = bi as u128;
        let s = out[0] as u128 + a[0] as u128 * bi;
        let m = (s as u64).wrapping_mul(n_prime) as u128;
        let mut carry_ab = s >> 64;
        let mut carry_mn = (s as u64 as u128 + m * n[0] as u128) >> 64;
        for j in 1..K {
            let s = out[j] as u128 + a[j] as u128 * bi + carry_ab;
            carry_ab = s >> 64;
            let r = s as u64 as u128 + m * n[j] as u128 + carry_mn;
            carry_mn = r >> 64;
            out[j - 1] = r as u64;
        }
        let s = top as u128 + carry_ab + carry_mn;
        out[K - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    // Subtract n; keep the difference, without a branch, iff the accumulator
    // was ≥ n: its top bit is set or the subtraction did not borrow.
    let (mut diff, mut borrow) = ([0u64; K], false);
    for j in 0..K {
        let (d, b1) = out[j].overflowing_sub(n[j]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        (diff[j], borrow) = (d, b1 | b2);
    }
    let keep = (top | u64::from(!borrow)).wrapping_neg();
    out.iter_mut()
        .zip(diff)
        .for_each(|(o, d)| *o = (d & keep) | (*o & !keep));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(n(5).add(&BigUint::zero()), n(5));
        assert_eq!(n(5).mul(&BigUint::one()), n(5));
        assert_eq!(n(5).mul(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn bytes_round_trip() {
        let cases: &[&[u8]] = &[
            &[],
            &[1],
            &[0xff],
            &[1, 0, 0, 0, 0, 0, 0, 0, 0],
            &[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05],
        ];
        for c in cases {
            let v = BigUint::from_bytes_be(c);
            let back = v.to_bytes_be();
            // Leading zeros are stripped on the way out.
            let trimmed: Vec<u8> = c.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, trimmed);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 7]), n(7));
    }

    #[test]
    fn padded_serialization() {
        assert_eq!(n(1).to_bytes_be_padded(4), vec![0, 0, 0, 1]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_overflow_panics() {
        BigUint::from_bytes_be(&[1, 2, 3]).to_bytes_be_padded(2);
    }

    #[test]
    fn addition_with_carry_chain() {
        let a = BigUint::from_bytes_be(&[0xff; 16]);
        let b = n(1);
        let sum = a.add(&b);
        let mut expect = vec![1u8];
        expect.extend(std::iter::repeat_n(0, 16));
        assert_eq!(sum.to_bytes_be(), expect);
        assert_eq!(sum.sub(&b), a);
    }

    #[test]
    fn subtraction_with_borrow() {
        let a = BigUint::one().shl(128);
        let b = n(1);
        let d = a.sub(&b);
        assert_eq!(d.to_bytes_be(), vec![0xff; 16]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        n(1).sub(&n(2));
    }

    #[test]
    fn multiplication_known_values() {
        assert_eq!(n(12345).mul(&n(6789)), n(12345 * 6789));
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let max = BigUint::from_u64(u64::MAX);
        let sq = max.mul(&max);
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts_compose() {
        let v = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a]);
        assert_eq!(v.shl(67).shr(67), v);
        assert_eq!(v.shr(200), BigUint::zero());
        assert_eq!(v.shl(0), v);
        assert_eq!(v.shr(0), v);
    }

    #[test]
    fn division_small() {
        let (q, r) = n(100).divmod(&n(7));
        assert_eq!(q, n(14));
        assert_eq!(r, n(2));
        let (q, r) = n(5).divmod(&n(100));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, n(5));
    }

    #[test]
    fn division_reconstructs() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let abits = 1 + (rng.next_u64() % 512) as usize;
            let bbits = 1 + (rng.next_u64() % 256) as usize;
            let a = BigUint::random_bits(&mut rng, abits);
            let b = BigUint::random_bits(&mut rng, bbits);
            let (q, r) = a.divmod(&b);
            assert!(r < b);
            assert_eq!(q.mul(&b).add(&r), a, "a={a:?} b={b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        n(1).divmod(&BigUint::zero());
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(n(4).modpow(&n(13), &n(497)), n(445));
        assert_eq!(n(2).modpow(&n(10), &n(1025)), n(1024));
        assert_eq!(n(7).modpow(&BigUint::zero(), &n(13)), BigUint::one());
        assert_eq!(n(7).modpow(&n(5), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modpow_even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3
        assert_eq!(n(3).modpow(&n(5), &n(16)), n(3));
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // For prime p and a not divisible by p: a^(p-1) ≡ 1 (mod p).
        let p = n(1_000_000_007);
        let a = n(123_456_789);
        assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
    }

    #[test]
    fn modpow_matches_plain_at_every_exponent_length() {
        // Every exponent length across the binary/windowed switch (64 → 65
        // bits) and through several whole and partial windows, against the
        // Montgomery-free reference, over moduli padded into and exactly
        // filling each width class, and one past the widest.
        let mut rng = StdRng::seed_from_u64(42);
        for limbs in [1usize, 2, 3, 4, 8, 17, 33, 65] {
            let mut m = BigUint::random_bits(&mut rng, limbs * 64);
            m.limbs[0] |= 1;
            for bits in 0..=140usize {
                let e = match bits {
                    0 => BigUint::zero(),
                    _ => BigUint::random_bits(&mut rng, bits),
                };
                let b = BigUint::random_bits(&mut rng, limbs * 64 + 7); // ≥ modulus
                assert_eq!(
                    b.modpow(&e, &m),
                    b.modpow_plain(&e, &m),
                    "{limbs} limbs, {bits}-bit exponent"
                );
            }
        }
    }

    #[test]
    fn modpow_degenerate_operands() {
        let m = BigUint::one().shl(200).add(&n(0x1235));
        let e_long = BigUint::one().shl(70).add(&n(9));
        for e in [BigUint::zero(), n(1), n(2), n(65537), e_long] {
            // Modulus 1 beats every other rule, exponent 0 included.
            assert_eq!(n(5).modpow(&e, &BigUint::one()), BigUint::zero());
            // Bases 0, 1, m − 1, m and a multiple of m.
            for b in [BigUint::zero(), n(1), m.sub(&n(1)), m.clone(), m.mul(&n(3))] {
                assert_eq!(b.modpow(&e, &m), b.modpow_plain(&e, &m), "b={b:?} e={e:?}");
            }
            let even = m.add(&n(1));
            assert_eq!(n(7).modpow(&e, &even), n(7).modpow_plain(&e, &even));
        }
        // Zero windows (every other nibble clear) and no zero window at all.
        let sparse = BigUint::from_bytes_be(&[0x0f; 12]);
        let dense = BigUint::from_bytes_be(&[0xff; 12]);
        for e in [sparse, dense] {
            assert_eq!(n(3).modpow(&e, &m), n(3).modpow_plain(&e, &m));
        }
    }

    /// `mont_mul::<K>` against `a · b · R⁻¹ mod m`, `R = 2^(64K)`, for odd
    /// moduli of each limb count in `limbs` (all in class `K`).
    fn check_mont_mul<const K: usize>(rng: &mut StdRng, limbs: &[usize]) {
        for &k in limbs {
            let mut m = BigUint::random_bits(rng, k * 64);
            m.limbs[0] |= 1;
            let ctx = Montgomery::new(&m);
            assert_eq!(ctx.r2.len(), K, "{k} limbs");
            let r_inv = BigUint::one().shl(64 * K).modinv(&m).unwrap();
            let pad = |v: &BigUint| {
                let mut l = [0u64; K];
                l[..v.limbs.len()].copy_from_slice(&v.limbs);
                l
            };
            // Operands of widths up to the modulus's, so the arrays carry
            // K − k or more zero top limbs; plus the extremes.
            let mut operands = vec![BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())];
            for bits in (1..=k * 64).step_by(k * 64 / 7 + 1) {
                operands.push(BigUint::random_bits(rng, bits).rem(&m));
            }
            let n = pad(&m);
            for a in &operands {
                for b in &operands {
                    let mut got = BigUint {
                        limbs: mont_mul(&pad(a), &pad(b), &n, ctx.n_prime).to_vec(),
                    };
                    got.normalize();
                    assert_eq!(
                        got,
                        a.mulmod(b, &m).mulmod(&r_inv, &m),
                        "K={K} k={k} a={a:?} b={b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn montgomery_mul_matches_mulmod_in_every_width_class() {
        let mut rng = StdRng::seed_from_u64(17);
        check_mont_mul::<4>(&mut rng, &[1, 2, 3, 4]);
        check_mont_mul::<8>(&mut rng, &[5, 8]);
        check_mont_mul::<16>(&mut rng, &[9, 16]);
        check_mont_mul::<32>(&mut rng, &[17, 32]);
        check_mont_mul::<64>(&mut rng, &[33, 64]);
    }

    #[test]
    fn primality_agrees_with_trial_division_below_4096() {
        let mut rng = StdRng::seed_from_u64(0);
        for v in 0u64..4096 {
            let prime = v >= 2 && (2..v).take_while(|d| d * d <= v).all(|d| v % d != 0);
            let verdict = if prime { "prime" } else { "composite" };
            assert_eq!(
                n(v).is_probable_prime(&mut rng, 16),
                prime,
                "{v} is {verdict}"
            );
        }
    }

    #[test]
    fn rem_u64_matches_divmod() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(BigUint::zero().rem_u64(7), 0);
        for bits in [1usize, 63, 64, 65, 256, 1000] {
            let a = BigUint::random_bits(&mut rng, bits);
            for d in [1u64, 2, 3, 47, 65537, u64::MAX] {
                assert_eq!(n(a.rem_u64(d)), a.rem(&n(d)), "{bits} bits mod {d}");
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn limbs(max: usize) -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(any::<u64>(), 0..max + 1)
        }

        /// 0–65 limbs, drawn evenly from each width class (1–4, 5–8, 9–16,
        /// 17–32 and 33–64 limbs, so padded and exact fits) and from past
        /// the widest (65).
        fn modulus() -> impl Strategy<Value = Vec<u64>> {
            let len = prop_oneof![
                0usize..5,
                5usize..9,
                9usize..17,
                17usize..33,
                33usize..65,
                65usize..66
            ];
            (len, proptest::collection::vec(any::<u64>(), 65..66)).prop_map(|(len, mut l)| {
                l.truncate(len);
                l
            })
        }

        /// Bit lengths clustered on 0, 1, the binary/windowed switch and
        /// window edges, with a uniform tail.
        fn exponent() -> impl Strategy<Value = BigUint> {
            let bits = prop_oneof![0usize..6, 60usize..70, 124usize..134, 0usize..320];
            (bits, limbs(5)).prop_map(|(bits, mut l)| {
                l.resize(5, 0x9E37_79B9_7F4A_7C15);
                let mut e = BigUint { limbs: l };
                e.normalize();
                let e = e.shr(e.bit_len().saturating_sub(bits));
                debug_assert_eq!(e.bit_len(), bits);
                e
            })
        }

        proptest! {
            #[test]
            fn modpow_matches_plain(m in modulus(), b in limbs(67), e in exponent(), even in 0u8..8, public in 0u8..8) {
                // One case in eight raises to the public exponent 65537.
                let e = if public == 0 { BigUint::from_u64(65537) } else { e };
                let mut m = BigUint { limbs: m };
                m.normalize();
                // Odd moduli of 1–65 limbs (1 itself when the draw is
                // empty); one case in eight takes the even fallback.
                m = m.shr(1).shl(1).add_u64((even != 0) as u64);
                prop_assume!(!m.is_zero());
                // Bases from zero to two limbs wider than the modulus.
                let mut b = BigUint { limbs: b.into_iter().take(m.limbs.len() + 2).collect() };
                b.normalize();
                let expect = if m.is_one() { BigUint::zero() } else { b.modpow_plain(&e, &m) };
                prop_assert_eq!(b.modpow(&e, &m), expect);
            }
        }
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(n(48).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        let inv = n(3).modinv(&n(11)).unwrap();
        assert_eq!(inv, n(4)); // 3*4 = 12 ≡ 1 mod 11
        assert!(n(6).modinv(&n(9)).is_none()); // gcd 3
    }

    #[test]
    fn modinv_random_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = BigUint::random_prime(&mut rng, 96, 16);
        for _ in 0..20 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.modinv(&m).expect("prime modulus → inverse exists");
            assert_eq!(a.mulmod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        for p in [2u64, 3, 5, 7, 97, 7919, 1_000_000_007] {
            assert!(n(p).is_probable_prime(&mut rng, 16), "{p} is prime");
        }
        for c in [1u64, 4, 100, 561, 7917, 1_000_000_001] {
            assert!(!n(c).is_probable_prime(&mut rng, 16), "{c} is composite");
        }
    }

    #[test]
    fn random_prime_has_requested_width() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = BigUint::random_prime(&mut rng, 128, 12);
        assert_eq!(p.bit_len(), 128);
        assert!(!p.is_even());
    }

    #[test]
    fn ordering_is_by_magnitude() {
        assert!(n(2) < n(3));
        assert!(BigUint::one().shl(64) > BigUint::from_u64(u64::MAX));
        assert_eq!(n(5).cmp(&n(5)), Ordering::Equal);
    }

    #[test]
    fn debug_renders_hex() {
        assert_eq!(format!("{:?}", n(255)), "0xff");
        assert_eq!(format!("{:?}", BigUint::zero()), "0x0");
        let big = BigUint::one().shl(64);
        assert_eq!(format!("{big:?}"), "0x10000000000000000");
    }
}
