//! Property-based tests for the bignum substrate.

use msb_bignum::goldilocks::{Fe448, FE448_BYTES};
use msb_bignum::linalg::{cauchy_matrix, Matrix};
use msb_bignum::modexp::{mod_pow, Montgomery};
use msb_bignum::{BigUint, PrimeField};
use proptest::prelude::*;
use rand::SeedableRng;

fn big_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

fn pow2(bits: usize) -> BigUint {
    BigUint::one().shl_bits(bits)
}

/// Edge kinds of a Goldilocks-448 element (the last kind is uniform).
const FE_KINDS: usize = 14;

/// A field element of the given kind: 0, 1, p − 2, p − 1, values around
/// 2²²⁴ and 2²⁵⁶, the top of the 448-bit range below p, or uniform.
fn fe_value(kind: usize, rng: &mut rand::rngs::StdRng) -> BigUint {
    let f = PrimeField::goldilocks448();
    let p = f.modulus();
    let below = |v: &BigUint, d: u64| v.checked_sub(&BigUint::from(d)).expect("large");
    let above = |v: &BigUint, d: u64| v + &BigUint::from(d);
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => below(p, 2),
        3 => below(p, 1),
        4 => below(&pow2(224), 1),
        5 => pow2(224),
        6 => above(&pow2(224), 1),
        7 => below(&pow2(256), 1),
        8 => pow2(256),
        9 => above(&pow2(256), 1),
        10 => below(p, 1u64 << 63),
        11 => p.checked_sub(&pow2(224)).expect("p > 2^224"),
        12 => f.random(rng).shr_bits(192), // a random 256-bit value
        _ => f.random(rng),
    }
}

proptest! {
    #[test]
    fn add_commutative_associative(a in big_bytes(), b in big_bytes(), c in big_bytes()) {
        let (a, b, c) = (
            BigUint::from_be_bytes(&a),
            BigUint::from_be_bytes(&b),
            BigUint::from_be_bytes(&c),
        );
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative_distributive(a in big_bytes(), b in big_bytes(), c in big_bytes()) {
        let (a, b, c) = (
            BigUint::from_be_bytes(&a),
            BigUint::from_be_bytes(&b),
            BigUint::from_be_bytes(&c),
        );
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_invariant(a in big_bytes(), b in big_bytes()) {
        let a = BigUint::from_be_bytes(&a);
        let b = BigUint::from_be_bytes(&b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn sub_inverts_add(a in big_bytes(), b in big_bytes()) {
        let a = BigUint::from_be_bytes(&a);
        let b = BigUint::from_be_bytes(&b);
        let sum = &a + &b;
        prop_assert_eq!(sum.checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn shifts_are_mul_div_by_powers(a in big_bytes(), bits in 0usize..100) {
        let a = BigUint::from_be_bytes(&a);
        let shifted = a.shl_bits(bits);
        let pow = BigUint::one().shl_bits(bits);
        prop_assert_eq!(&shifted, &(&a * &pow));
        prop_assert_eq!(shifted.shr_bits(bits), a);
    }

    #[test]
    fn gcd_divides_both(a in any::<u64>(), b in any::<u64>()) {
        let (ba, bb) = (BigUint::from(a), BigUint::from(b));
        let g = ba.gcd(&bb);
        if !g.is_zero() {
            prop_assert!(ba.rem(&g).is_zero());
            prop_assert!(bb.rem(&g).is_zero());
        } else {
            prop_assert!(a == 0 && b == 0);
        }
    }

    #[test]
    fn montgomery_matches_naive(a in big_bytes(), b in big_bytes(), m in big_bytes()) {
        let mut m = BigUint::from_be_bytes(&m);
        if m.is_even() {
            m = &m + &BigUint::one();
        }
        prop_assume!(m > BigUint::one());
        let a = BigUint::from_be_bytes(&a);
        let b = BigUint::from_be_bytes(&b);
        let mont = Montgomery::new(&m);
        prop_assert_eq!(mont.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn mod_pow_matches_iterated_mul(base in any::<u64>(), exp in 0u32..40, m in 3u64..100_000) {
        let m = BigUint::from(m | 1);
        prop_assume!(!m.is_one());
        let b = BigUint::from(base);
        let mut naive = BigUint::one();
        for _ in 0..exp {
            naive = naive.mul_mod(&b, &m);
        }
        prop_assert_eq!(mod_pow(&b, &BigUint::from(exp as u64), &m), naive);
    }

    #[test]
    fn field_inverse_roundtrip(v in 1u64..u64::MAX) {
        let f = PrimeField::goldilocks448();
        let x = f.element(BigUint::from(v));
        let inv = f.inv(&x).unwrap();
        prop_assert_eq!(f.mul(&x, &inv), f.one());
    }

    #[test]
    fn solve_recovers_random_systems(
        n in 1usize..5,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = PrimeField::goldilocks448();
        // Random square matrix; singular ones are astronomically unlikely
        // over a 448-bit field, but handle the error branch anyway.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                *m.at_mut(i, j) = f.random(&mut rng);
            }
        }
        let x: Vec<BigUint> = (0..n).map(|_| f.random(&mut rng)).collect();
        let b = m.mul_vec(&f, &x);
        if let Ok(solved) = m.solve(&f, &b) {
            prop_assert_eq!(solved, x);
        } // singular draws: nothing to check
    }

    #[test]
    fn cauchy_submatrix_solvable(gamma in 1usize..5, beta in 1usize..5, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = PrimeField::goldilocks448();
        let c = Matrix::identity(gamma).hconcat(&cauchy_matrix(&f, gamma, beta));
        let secret: Vec<BigUint> = (0..gamma + beta).map(|_| f.random(&mut rng)).collect();
        let b = c.mul_vec(&f, &secret);
        // Pick gamma random unknown columns.
        let mut cols: Vec<usize> = (0..gamma + beta).collect();
        for i in 0..gamma {
            let j = i + (seed as usize + i) % (cols.len() - i);
            cols.swap(i, j);
        }
        let unknowns = &cols[..gamma];
        let mut rhs = b.clone();
        for (j, s) in secret.iter().enumerate() {
            if unknowns.contains(&j) {
                continue;
            }
            for (i, r) in rhs.iter_mut().enumerate() {
                let delta = f.mul(c.at(i, j), s);
                *r = f.sub(r, &delta);
            }
        }
        let cu = c.select_columns(unknowns);
        let solved = cu.solve(&f, &rhs).expect("Cauchy systems are nonsingular");
        for (k, &col) in unknowns.iter().enumerate() {
            prop_assert_eq!(&solved[k], &secret[col]);
        }
    }

    /// Every pair of edge kinds, with fresh uniform draws per case.
    #[test]
    fn fe448_matches_prime_field(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = PrimeField::goldilocks448();
        for ka in 0..FE_KINDS {
            for kb in 0..FE_KINDS {
                let (a, b) = (fe_value(ka, &mut rng), fe_value(kb, &mut rng));
                let (fa, fb) = (Fe448::from_biguint(&a).unwrap(), Fe448::from_biguint(&b).unwrap());
                prop_assert_eq!(fa.add(&fb).to_biguint(), f.add(&a, &b), "{:?} + {:?}", a, b);
                prop_assert_eq!(fa.sub(&fb).to_biguint(), f.sub(&a, &b), "{:?} - {:?}", a, b);
                prop_assert_eq!(fa.mul(&fb).to_biguint(), f.mul(&a, &b), "{:?} * {:?}", a, b);
            }
            // Encodings agree with the oracle's and round-trip.
            let a = fe_value(ka, &mut rng);
            let fa = Fe448::from_biguint(&a).unwrap();
            let bytes = fa.to_be_bytes();
            prop_assert_eq!(bytes.to_vec(), a.to_be_bytes_padded(FE448_BYTES));
            prop_assert_eq!(Fe448::from_be_bytes(&bytes), Some(fa));
            match fa.to_hash() {
                Some(h) => {
                    prop_assert!(a.bit_len() <= 256);
                    prop_assert_eq!(Fe448::from_hash(&h), fa);
                }
                None => prop_assert!(a.bit_len() > 256),
            }
        }
    }
}

#[test]
fn fe448_decode_rejects_non_canonical() {
    let p = PrimeField::goldilocks448().modulus().clone();
    for v in [p.clone(), &p + &BigUint::one(), pow2(448).checked_sub(&BigUint::one()).unwrap()] {
        let bytes: [u8; FE448_BYTES] = v.to_be_bytes_padded(FE448_BYTES).try_into().unwrap();
        assert_eq!(Fe448::from_be_bytes(&bytes), None, "{v:?}");
        assert_eq!(Fe448::from_biguint(&v), None, "{v:?}");
    }
    let pm1 = p.checked_sub(&BigUint::one()).unwrap();
    let bytes: [u8; FE448_BYTES] = pm1.to_be_bytes_padded(FE448_BYTES).try_into().unwrap();
    assert_eq!(Fe448::from_be_bytes(&bytes).map(|v| v.to_biguint()), Some(pm1));
}
