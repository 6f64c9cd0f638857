//! Arbitrary-precision unsigned integer arithmetic and prime-field algebra.
//!
//! Two consumers drive this crate's design:
//!
//! 1. **The hint matrix** of the Sealed Bottle mechanism (paper §III-C)
//!    solves small linear systems whose entries are 256-bit attribute
//!    hashes. We perform that algebra in a prime field whose modulus
//!    (the Ed448 "Goldilocks" prime, 2⁴⁴⁸ − 2²²⁴ − 1) exceeds 2²⁵⁶, so every
//!    SHA-256 output embeds canonically and recovered hashes are exact.
//! 2. **The asymmetric baselines** (FNP'04, FC'10, FindU) that the paper
//!    compares against need 1024/2048-bit modular exponentiation — the very
//!    operations benchmarked in Table V.
//!
//! # Modules
//!
//! * [`biguint`] — the [`biguint::BigUint`] type: school-book
//!   multiplication, Knuth Algorithm-D division, shifts, radix conversions.
//! * [`modexp`] — Montgomery (CIOS) modular multiplication and windowed
//!   exponentiation for odd moduli, with a generic fallback.
//! * [`prime`] — Miller–Rabin testing and random prime generation.
//! * [`field`] — prime-field arithmetic ([`field::PrimeField`]) including
//!   the Goldilocks-448 field used by the hint matrix.
//! * [`goldilocks`] — [`goldilocks::Fe448`], a heap-free fixed-width
//!   Goldilocks-448 element (seven `u64` limbs) that runs the hint
//!   matrix's per-assignment solve; `PrimeField` is its oracle.
//! * [`linalg`] — matrices and Gaussian elimination over a prime field,
//!   including the left inverse the hint matrix precomputes per pattern.
//!
//! # Example
//!
//! ```
//! use msb_bignum::biguint::BigUint;
//! use msb_bignum::modexp::mod_pow;
//!
//! let base = BigUint::from(7u64);
//! let exp = BigUint::from(560u64);
//! let modulus = BigUint::from(561u64); // Carmichael number
//! assert_eq!(mod_pow(&base, &exp, &modulus), BigUint::from(1u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biguint;
pub mod field;
pub mod goldilocks;
pub mod linalg;
pub mod modexp;
pub mod prime;

pub use biguint::BigUint;
pub use field::PrimeField;
