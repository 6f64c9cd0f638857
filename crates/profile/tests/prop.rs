//! Property-based tests for the profile machinery: enumeration-mode
//! containment, remainder soundness, entropy monotonicity.

use msb_bignum::linalg::{cauchy_matrix, Matrix};
use msb_bignum::{BigUint, PrimeField};
use msb_profile::attribute::{Attribute, AttributeHash};
use msb_profile::entropy::EntropyModel;
use msb_profile::hint::{HintConstruction, HintMatrix};
use msb_profile::matching::parallel::{
    enumerate_assignments_par, enumerate_candidate_keys_with_stats_par, Parallelism,
};
use msb_profile::matching::{
    enumerate_assignments, enumerate_candidate_keys, enumerate_candidate_keys_with_stats,
    has_candidate_assignment, EnumerationMode, MatchConfig,
};
use msb_profile::profile::Profile;
use msb_profile::remainder::RemainderVector;
use msb_profile::request::RequestProfile;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn attrs(prefix: &str, n: usize) -> Vec<Attribute> {
    (0..n).map(|i| Attribute::new(prefix, format!("v{i}"))).collect()
}

/// `HintMatrix::solve` rebuilt from public parts: restrict `C` to the
/// unknown columns and run `Matrix::solve` over `PrimeField`.
fn oracle_solve(
    c: &Matrix,
    b: &[BigUint],
    assignment: &[Option<AttributeHash>],
) -> Option<Vec<AttributeHash>> {
    let f = PrimeField::goldilocks448();
    let gamma = c.rows();
    let unknowns: Vec<usize> = (0..assignment.len()).filter(|&j| assignment[j].is_none()).collect();
    if unknowns.len() > gamma {
        return None;
    }
    let mut rhs = b.to_vec();
    for (j, h) in assignment.iter().enumerate() {
        if let Some(h) = h {
            for (i, r) in rhs.iter_mut().enumerate() {
                *r = f.sub(r, &f.mul(c.at(i, j), &h.to_biguint()));
            }
        }
    }
    if unknowns.is_empty() {
        return rhs
            .iter()
            .all(BigUint::is_zero)
            .then(|| assignment.iter().flatten().copied().collect());
    }
    let x = c.select_columns(&unknowns).solve(&f, &rhs).ok()?;
    let mut x = x.iter();
    assignment
        .iter()
        .map(|slot| match slot {
            Some(h) => Some(*h),
            None => AttributeHash::from_biguint(x.next().expect("one value per unknown")),
        })
        .collect()
}

proptest! {
    /// Strict-mode candidate keys are a subset of exhaustive-mode keys.
    #[test]
    fn strict_subset_of_exhaustive(
        opt_count in 1usize..5,
        beta_idx in 0usize..4,
        owned_mask in 0u32..64,
        noise in 0usize..5,
        seed in any::<u64>(),
    ) {
        let optional = attrs("o", opt_count);
        let beta = (beta_idx % opt_count) + 1;
        prop_assume!(beta <= opt_count);
        let request = RequestProfile::new(Vec::new(), optional.clone(), beta).unwrap();

        let mut owned: Vec<Attribute> = optional
            .iter()
            .enumerate()
            .filter(|(i, _)| owned_mask >> i & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect();
        owned.extend(attrs("noise", noise));
        let user = Profile::from_attributes(owned);

        let mut rng = StdRng::seed_from_u64(seed);
        let sealed = request.try_seal(11, HintConstruction::Cauchy, &mut rng).unwrap();

        let strict = enumerate_candidate_keys(
            user.vector(),
            &sealed.remainder,
            sealed.hint.as_ref(),
            &MatchConfig { mode: EnumerationMode::Strict, max_assignments: 50_000 },
        );
        let exhaustive = enumerate_candidate_keys(
            user.vector(),
            &sealed.remainder,
            sealed.hint.as_ref(),
            &MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 50_000 },
        );
        for k in &strict {
            prop_assert!(
                exhaustive.iter().any(|e| e.key == k.key),
                "strict key missing from exhaustive set"
            );
        }
    }

    /// fast_check never returns false when a key derivation would
    /// succeed, and always agrees with assignment existence.
    #[test]
    fn fast_check_agrees_with_enumeration(
        opt_count in 1usize..5,
        beta_idx in 0usize..4,
        owned_mask in 0u32..64,
        seed in any::<u64>(),
    ) {
        let optional = attrs("o", opt_count);
        let beta = (beta_idx % opt_count) + 1;
        let request = RequestProfile::new(Vec::new(), optional.clone(), beta).unwrap();
        let owned: Vec<Attribute> = optional
            .iter()
            .enumerate()
            .filter(|(i, _)| owned_mask >> i & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect();
        let user = Profile::from_attributes(owned);
        let mut rng = StdRng::seed_from_u64(seed);
        let sealed = request.try_seal(11, HintConstruction::Cauchy, &mut rng).unwrap();
        prop_assert_eq!(
            sealed.remainder.fast_check(user.vector()),
            has_candidate_assignment(user.vector(), &sealed.remainder)
        );
    }

    /// Entropy: observing more values never decreases category entropy
    /// below zero, and uniform distributions maximize it.
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(1u64..100, 1..10)) {
        let mut model = EntropyModel::new();
        for (i, &c) in counts.iter().enumerate() {
            model.observe_n("cat", &format!("v{i}"), c);
        }
        let s = model.attribute_entropy("cat");
        let max = (counts.len() as f64).log2();
        prop_assert!(s >= -1e-12, "entropy must be non-negative: {s}");
        prop_assert!(s <= max + 1e-9, "entropy exceeds log2(n): {s} > {max}");
    }

    /// Profile keys are injective over distinct attribute sets (up to
    /// SHA-256 collisions): different sets give different keys.
    #[test]
    fn distinct_sets_distinct_keys(mask1 in 1u32..256, mask2 in 1u32..256) {
        prop_assume!(mask1 != mask2);
        let pool = attrs("t", 8);
        let pick = |mask: u32| -> Profile {
            Profile::from_attributes(
                pool.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, a)| a.clone()),
            )
        };
        let p1 = pick(mask1);
        let p2 = pick(mask2);
        prop_assert_ne!(
            p1.vector().profile_key(),
            p2.vector().profile_key()
        );
    }

    /// Differential: parallel enumeration (1, 2, 4, 8 threads) returns
    /// exactly the sequential candidate-key set — same keys, same order,
    /// same `_with_stats` counters, same truncation — and the parallel
    /// assignment list is the sequential one, for random profiles and
    /// remainder vectors in both enumeration modes.
    #[test]
    fn parallel_enumeration_identical_to_sequential(
        alpha in 0usize..3,
        opt_count in 1usize..5,
        beta_idx in 0usize..4,
        owned_mask in 0u32..256,
        noise in 0usize..8,
        p_idx in 0usize..3,
        cap_idx in 0usize..3,
    ) {
        // Small moduli make remainder collisions (and thus non-trivially
        // shaped search spaces) common.
        let p = [2u64, 3, 11][p_idx];
        let cap = [8usize, 100, 50_000][cap_idx];
        let beta = (beta_idx % opt_count) + 1;
        let request_attrs = attrs("r", alpha + opt_count);
        let mut nec: Vec<_> = request_attrs[..alpha].iter().map(Attribute::hash).collect();
        nec.sort_unstable();
        let mut optional: Vec<_> = request_attrs[alpha..].iter().map(Attribute::hash).collect();
        optional.sort_unstable();
        let rv = RemainderVector::new(p, &nec, &optional, beta);
        let gamma = opt_count - beta;
        let hint = if gamma > 0 {
            Some(HintMatrix::generate(
                &optional,
                beta,
                HintConstruction::Cauchy,
                &mut StdRng::seed_from_u64(owned_mask as u64),
            ))
        } else {
            None
        };

        let mut owned: Vec<Attribute> = request_attrs
            .iter()
            .enumerate()
            .filter(|(i, _)| owned_mask >> i & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect();
        owned.extend(attrs("noise", noise));
        let user = Profile::from_attributes(owned);

        for mode in [EnumerationMode::Strict, EnumerationMode::Exhaustive] {
            let config = MatchConfig { mode, max_assignments: cap };
            let (seq_keys, seq_stats) =
                enumerate_candidate_keys_with_stats(user.vector(), &rv, hint.as_ref(), &config);
            let seq_assignments = enumerate_assignments(user.vector(), &rv, &config);
            for threads in [1usize, 2, 4, 8] {
                let par = Parallelism::new(threads);
                let (par_keys, par_stats) = enumerate_candidate_keys_with_stats_par(
                    user.vector(), &rv, hint.as_ref(), &config, par,
                );
                prop_assert_eq!(&par_keys, &seq_keys, "keys differ: {} threads, {:?}", threads, mode);
                prop_assert_eq!(par_stats, seq_stats, "stats differ: {} threads, {:?}", threads, mode);
                let par_assignments = enumerate_assignments_par(user.vector(), &rv, &config, par);
                prop_assert_eq!(
                    &par_assignments, &seq_assignments,
                    "assignments differ: {} threads, {:?}", threads, mode
                );
            }
        }
    }

    /// Sealing is deterministic in the key but randomized in the hint
    /// randomness: the profile key never depends on the RNG.
    #[test]
    fn sealing_key_rng_independent(seed1 in any::<u64>(), seed2 in any::<u64>()) {
        let request = RequestProfile::new(
            attrs("n", 1),
            attrs("o", 3),
            2,
        ).unwrap();
        let s1 = request
            .try_seal(11, HintConstruction::Random, &mut StdRng::seed_from_u64(seed1))
            .unwrap();
        let s2 = request
            .try_seal(11, HintConstruction::Random, &mut StdRng::seed_from_u64(seed2))
            .unwrap();
        prop_assert_eq!(s1.key, s2.key);
        prop_assert_eq!(s1.remainder, s2.remainder);
    }

    /// The memoized left-inverse solve returns exactly what elimination
    /// returns, for every pattern of up to γ unknowns: on true values, on
    /// a wrong known value, on hidden values wider than 256 bits, and on
    /// a Random `R` with two equal columns (rank-deficient patterns).
    #[test]
    fn hint_solve_matches_elimination_oracle(
        gamma in 1usize..=6,
        beta in 1usize..=6,
        random in any::<bool>(),
        duplicate in any::<bool>(),
        wide in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = PrimeField::goldilocks448();
        let n = gamma + beta;
        let r = if random {
            let mut r = Matrix::zeros(gamma, beta);
            for i in 0..gamma {
                for j in 0..beta {
                    *r.at_mut(i, j) = f.random_nonzero(&mut rng);
                }
            }
            if duplicate && beta > 1 {
                for i in 0..gamma {
                    *r.at_mut(i, beta - 1) = r.at(i, 0).clone();
                }
            }
            r
        } else {
            cauchy_matrix(&f, gamma, beta)
        };
        let c = Matrix::identity(gamma).hconcat(&r);
        // Hidden values: hashes, except that `wide` = 1 puts a value
        // wider than 256 bits at one position.
        let hashes: Vec<AttributeHash> =
            (0..n).map(|i| Attribute::new("h", format!("{seed}-{i}")).hash()).collect();
        let mut hidden: Vec<BigUint> = hashes.iter().map(AttributeHash::to_biguint).collect();
        let wide_at = (seed as usize) % n;
        if wide == 1 {
            hidden[wide_at] = &BigUint::one().shl_bits(256) + &f.random(&mut rng).shr_bits(200);
        }
        let b = c.mul_vec(&f, &hidden);
        let construction = if random { HintConstruction::Random } else { HintConstruction::Cauchy };
        let hint = HintMatrix::from_parts(beta, construction, random.then(|| r.clone()), b.clone());
        let decoy = Attribute::new("h", "decoy").hash();
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize > gamma {
                continue;
            }
            // Known positions carry the hidden hash (the decoy where the
            // hidden value is wide); the second assignment also swaps the
            // first known value for the decoy.
            let truth: Vec<Option<AttributeHash>> = (0..n)
                .map(|j| (mask >> j & 1 == 0).then(|| if wide == 1 && j == wide_at { decoy } else { hashes[j] }))
                .collect();
            let mut wrong = truth.clone();
            if let Some(slot) = wrong.iter_mut().flatten().next() {
                *slot = decoy;
            }
            for assignment in [&truth, &wrong] {
                prop_assert_eq!(
                    hint.solve(assignment),
                    oracle_solve(&c, &b, assignment),
                    "mask {:b} {:?}", mask, construction
                );
            }
            if !random && wide != 1 {
                prop_assert_eq!(hint.solve(&truth), Some(hashes.clone()), "Cauchy always solves");
            }
        }
    }
}
