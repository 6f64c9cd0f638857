//! Fixed-width arithmetic in the Goldilocks-448 field.
//!
//! [`Fe448`] is an element of 𝔽ₚ with p = 2⁴⁴⁸ − 2²²⁴ − 1, held as seven
//! little-endian `u64` limbs and always canonical (below p). It runs the
//! hint matrix's per-assignment solve: no heap, no inversion, a fixed
//! number of limb operations per `add`, `sub` and `mul`.
//!
//! Reduction follows Hamburg, *Ed448-Goldilocks* (eprint 2015/625): with
//! φ = 2²²⁴ the modulus is φ² − φ − 1, so 2⁴⁴⁸ ≡ 2²²⁴ + 1 and a 896-bit
//! product folds back below 2⁴⁴⁸ with shifts and adds alone. A last
//! conditional subtraction of p makes the result canonical; it branches
//! on the value (see `docs/CRYPTO.md` on timing).
//!
//! [`PrimeField`](crate::PrimeField) over [`BigUint`] is the oracle: the
//! crate's property tests check every operation against it.
//!
//! # Example
//!
//! ```
//! use msb_bignum::goldilocks::Fe448;
//! use msb_bignum::{BigUint, PrimeField};
//!
//! let a = Fe448::from_hash(&[0x5a; 32]);
//! let b = Fe448::from_hash(&[0xc3; 32]);
//! let f = PrimeField::goldilocks448();
//! assert_eq!(a.mul(&b).to_biguint(), f.mul(&a.to_biguint(), &b.to_biguint()));
//! assert_eq!(a.to_hash(), Some([0x5a; 32]));
//! ```

use crate::biguint::BigUint;
use std::fmt;

/// Limbs of an element.
const LIMBS: usize = 7;

/// Width of the canonical big-endian encoding.
pub const FE448_BYTES: usize = 8 * LIMBS;

/// A canonical element of the Goldilocks-448 field.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fe448([u64; LIMBS]);

impl Fe448 {
    /// The additive identity.
    pub const ZERO: Fe448 = Fe448([0; LIMBS]);

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// `self + other mod p`.
    #[must_use]
    pub fn add(&self, other: &Fe448) -> Fe448 {
        let mut r = self.0;
        let carry = add_at(&mut r, 0, &other.0);
        // a + b < 2p, so r + carry·(2²²⁴ + 1) stays below 2⁴⁴⁸.
        let spill = add_fold(&mut r, carry);
        debug_assert_eq!(spill, 0);
        canonical(r)
    }

    /// `self − other mod p`.
    #[must_use]
    pub fn sub(&self, other: &Fe448) -> Fe448 {
        let mut r = self.0;
        let borrow = sub_limbs(&mut r, &other.0);
        // On a borrow r = a − b + 2⁴⁴⁸; subtracting 2²²⁴ + 1 leaves
        // a − b + p, which lies in (0, p).
        let mut fold = [0u64; LIMBS];
        fold[0] = borrow;
        fold[3] = borrow << 32;
        let under = sub_limbs(&mut r, &fold);
        debug_assert_eq!(under, 0);
        Fe448(r)
    }

    /// `self · other mod p`.
    #[must_use]
    pub fn mul(&self, other: &Fe448) -> Fe448 {
        let (a, b) = (&self.0, &other.0);
        let mut t = [0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u64;
            for j in 0..LIMBS {
                let v = a[i] as u128 * b[j] as u128 + t[i + j] as u128 + carry as u128;
                t[i + j] = v as u64;
                carry = (v >> 64) as u64;
            }
            t[i + LIMBS] = carry;
        }
        // 896 → 673 → 450 → 449 → 448 bits; every step keeps the value
        // mod p, and the third and fourth fold a carry of at most 3, then 1.
        let mut w11 = [0u64; 11];
        fold(&t, &mut w11);
        let mut w8 = [0u64; 8];
        fold(&w11, &mut w8);
        let mut w = [0u64; 8];
        fold(&w8, &mut w);
        fold(&w, &mut w8);
        debug_assert_eq!(w8[LIMBS], 0);
        let mut r = [0u64; LIMBS];
        r.copy_from_slice(&w8[..LIMBS]);
        canonical(r)
    }

    /// Decodes the canonical 56-byte big-endian encoding; `None` when the
    /// value is p or above.
    pub fn from_be_bytes(bytes: &[u8; FE448_BYTES]) -> Option<Fe448> {
        let mut limbs = [0u64; LIMBS];
        for (limb, chunk) in limbs.iter_mut().zip(bytes.rchunks_exact(8)) {
            *limb = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        is_canonical(&limbs).then_some(Fe448(limbs))
    }

    /// The canonical 56-byte big-endian encoding.
    pub fn to_be_bytes(&self) -> [u8; FE448_BYTES] {
        let mut out = [0u8; FE448_BYTES];
        for (chunk, limb) in out.rchunks_exact_mut(8).zip(&self.0) {
            chunk.copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Embeds a 256-bit big-endian value (an attribute hash); every such
    /// value is below p.
    pub fn from_hash(hash: &[u8; 32]) -> Fe448 {
        let mut limbs = [0u64; LIMBS];
        for (limb, chunk) in limbs.iter_mut().zip(hash.rchunks_exact(8)) {
            *limb = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Fe448(limbs)
    }

    /// The value as 32 big-endian bytes, or `None` when it does not fit
    /// 256 bits.
    pub fn to_hash(&self) -> Option<[u8; 32]> {
        if self.0[4..].iter().any(|&l| l != 0) {
            return None;
        }
        let mut out = [0u8; 32];
        for (chunk, limb) in out.rchunks_exact_mut(8).zip(&self.0) {
            chunk.copy_from_slice(&limb.to_be_bytes());
        }
        Some(out)
    }

    /// Converts a reduced [`BigUint`]; `None` when it is p or above.
    pub fn from_biguint(v: &BigUint) -> Option<Fe448> {
        let src = v.limbs();
        if src.len() > LIMBS {
            return None;
        }
        let mut limbs = [0u64; LIMBS];
        limbs[..src.len()].copy_from_slice(src);
        is_canonical(&limbs).then_some(Fe448(limbs))
    }

    /// The value as a [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limbs(self.0.to_vec())
    }
}

impl fmt::Debug for Fe448 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fe448(0x{:x})", self.to_biguint())
    }
}

/// Adds `v` into `acc` from limb `at` on, carrying to the end of `acc`;
/// returns the carry out of its top limb.
#[inline(always)]
fn add_at(acc: &mut [u64], at: usize, v: &[u64]) -> u64 {
    let mut carry = 0u64;
    for (k, slot) in acc[at..].iter_mut().enumerate() {
        let add = v.get(k).copied().unwrap_or(0);
        let (s1, c1) = slot.overflowing_add(add);
        let (s2, c2) = s1.overflowing_add(carry);
        *slot = s2;
        carry = u64::from(c1 | c2);
    }
    carry
}

/// `x −= y` over seven limbs; returns the borrow out of the top limb.
#[inline(always)]
fn sub_limbs(x: &mut [u64; LIMBS], y: &[u64; LIMBS]) -> u64 {
    let mut borrow = 0u64;
    for (xi, &yi) in x.iter_mut().zip(y) {
        let (d1, b1) = xi.overflowing_sub(yi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *xi = d2;
        borrow = u64::from(b1 | b2);
    }
    borrow
}

/// Adds `c · (2²²⁴ + 1)` (`c < 2³²`) to `x`; returns the carry out of
/// bit 448.
#[inline(always)]
fn add_fold(x: &mut [u64; LIMBS], c: u64) -> u64 {
    let mut v = [0u64; LIMBS];
    v[0] = c;
    v[3] = c << 32;
    add_at(x, 0, &v)
}

/// Writes into `out` a value ≡ `x` (mod p): with `x = lo + hi·2⁴⁴⁸`,
/// `lo + hi + hi·2²²⁴`. `out` must be wide enough for the sum.
#[inline(always)]
fn fold(x: &[u64], out: &mut [u64]) {
    let (lo, hi) = x.split_at(LIMBS);
    out.fill(0);
    out[..LIMBS].copy_from_slice(lo);
    let mut spill = add_at(out, 0, hi);
    // hi·2²²⁴ = (hi·2³²)·2¹⁹², i.e. hi shifted by half a limb, added
    // from limb 3.
    let mut shifted = [0u64; 12];
    let mut prev = 0u64;
    for (k, &h) in hi.iter().enumerate() {
        shifted[k] = (h << 32) | (prev >> 32);
        prev = h;
    }
    shifted[hi.len()] = prev >> 32;
    spill |= add_at(out, 3, &shifted[..=hi.len()]);
    debug_assert_eq!(spill, 0, "fold output too narrow");
}

/// Subtracts p once if `x ≥ p` (`x < 2⁴⁴⁸`). Since 2⁴⁴⁸ − p = 2²²⁴ + 1,
/// `x ≥ p` exactly when adding 2²²⁴ + 1 carries out of bit 448, and the
/// wrapped sum is then `x − p`.
#[inline(always)]
fn canonical(x: [u64; LIMBS]) -> Fe448 {
    let mut y = x;
    if add_fold(&mut y, 1) == 1 {
        Fe448(y)
    } else {
        Fe448(x)
    }
}

fn is_canonical(x: &[u64; LIMBS]) -> bool {
    let mut y = *x;
    add_fold(&mut y, 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::PrimeField;

    fn p() -> BigUint {
        PrimeField::goldilocks448().modulus().clone()
    }

    fn fe(v: &BigUint) -> Fe448 {
        Fe448::from_biguint(v).expect("canonical")
    }

    #[test]
    fn modulus_limbs_and_canonical_bound() {
        let p = p();
        let pm1 = p.checked_sub(&BigUint::one()).unwrap();
        assert_eq!(fe(&pm1).to_biguint(), pm1);
        assert_eq!(Fe448::from_biguint(&p), None);
        let mut bytes = [0u8; FE448_BYTES];
        bytes.copy_from_slice(&p.to_be_bytes_padded(FE448_BYTES));
        assert_eq!(Fe448::from_be_bytes(&bytes), None);
        assert_eq!(Fe448::from_be_bytes(&[0xff; FE448_BYTES]), None);
    }

    #[test]
    fn wraps_at_the_modulus() {
        let one = fe(&BigUint::one());
        let pm1 = fe(&p().checked_sub(&BigUint::one()).unwrap());
        assert_eq!(pm1.add(&one), Fe448::ZERO);
        assert_eq!(Fe448::ZERO.sub(&one), pm1);
        // (p − 1)² = 1.
        assert_eq!(pm1.mul(&pm1), one);
    }

    #[test]
    fn hash_exit_rejects_wide_values() {
        let two_256 = fe(&BigUint::one().shl_bits(256));
        assert_eq!(two_256.to_hash(), None);
        let below = two_256.sub(&fe(&BigUint::one()));
        assert_eq!(below.to_hash(), Some([0xff; 32]));
        assert_eq!(Fe448::from_hash(&[0xff; 32]), below);
    }

    #[test]
    fn byte_roundtrip() {
        let v = Fe448::from_hash(&[0x5c; 32]).mul(&Fe448::from_hash(&[0xa7; 32]));
        assert_eq!(Fe448::from_be_bytes(&v.to_be_bytes()), Some(v));
        assert_eq!(v.to_be_bytes().to_vec(), v.to_biguint().to_be_bytes_padded(FE448_BYTES));
    }
}
