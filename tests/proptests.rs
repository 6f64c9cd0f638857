//! Property-based tests (proptest) on the core data structures and
//! protocol invariants, spanning crates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sealed_bottle::bignum::BigUint;
use sealed_bottle::core::protocol::ResponderOutcome;
use sealed_bottle::crypto::aes::Aes256;
use sealed_bottle::crypto::hmac::HmacSha256;
use sealed_bottle::crypto::modes::{cbc_decrypt, cbc_encrypt, Ctr};
use sealed_bottle::crypto::sha256::Sha256;
use sealed_bottle::prelude::*;
use sealed_bottle::profile::hint::{HintConstruction, HintMatrix};
use sealed_bottle::profile::matching::{enumerate_candidate_keys, EnumerationMode, MatchConfig};
use sealed_bottle::profile::normalize::Normalizer;

proptest! {
    // ---------- crypto ----------

    #[test]
    fn ctr_is_involutive(key in any::<[u8; 32]>(), nonce in any::<[u8; 16]>(), data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let cipher = Aes256::new(&key);
        let mut buf = data.clone();
        Ctr::new(&cipher, nonce).apply_keystream(&mut buf);
        if !data.is_empty() {
            // Keystream must actually change the data (up to 2^-128 flukes).
            prop_assert_ne!(&buf, &data);
        }
        Ctr::new(&cipher, nonce).apply_keystream(&mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn cbc_roundtrip(key in any::<[u8; 32]>(), iv in any::<[u8; 16]>(), data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let cipher = Aes256::new(&key);
        let ct = cbc_encrypt(&cipher, iv, &data);
        prop_assert_eq!(cbc_decrypt(&cipher, iv, &ct).unwrap(), data);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..1024), split in any::<prop::sample::Index>()) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut.min(data.len())]);
        h.update(&data[cut.min(data.len())..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Midstate contract: cloning a hasher (or `finalize_suffix`) after
    /// absorbing an arbitrary prefix, then finishing with an arbitrary
    /// suffix, is byte-identical to one-shot hashing the concatenation —
    /// for every prefix/suffix length, including block boundaries. This
    /// is what lets the matching loop cache the necessary-block midstate
    /// and pay one finalize per candidate instead of re-hashing the
    /// prefix.
    #[test]
    fn sha256_midstate_equals_oneshot(
        prefix in proptest::collection::vec(any::<u8>(), 0..300),
        suffix in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut pre = Sha256::new();
        pre.update(&prefix);
        let full: Vec<u8> = [&prefix[..], &suffix].concat();
        let oneshot = Sha256::digest(&full);
        // Reusable midstate: finalize_suffix leaves `pre` untouched, so
        // it can complete many candidates.
        prop_assert_eq!(pre.finalize_suffix(&suffix), oneshot);
        prop_assert_eq!(pre.finalize_suffix(&suffix), oneshot);
        // Explicit clone path (what the benches time).
        let mut h = pre.clone();
        h.update(&suffix);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn hmac_verifies_and_rejects(key in proptest::collection::vec(any::<u8>(), 0..80), msg in proptest::collection::vec(any::<u8>(), 0..128), flip in any::<prop::sample::Index>()) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let i = flip.index(tampered.len());
            tampered[i] ^= 1;
            prop_assert!(!HmacSha256::verify(&key, &tampered, &tag));
        }
    }

    // ---------- bignum ----------

    #[test]
    fn biguint_arithmetic_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (ba, bb) = (BigUint::from(a), BigUint::from(b));
        prop_assert_eq!(&ba + &bb, BigUint::from(a as u128 + b as u128));
        prop_assert_eq!(&ba * &bb, BigUint::from(a as u128 * b as u128));
        if let (Some(qe), Some(re)) = (a.checked_div(b), a.checked_rem(b)) {
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q, BigUint::from(qe));
            prop_assert_eq!(r, BigUint::from(re));
        }
    }

    #[test]
    fn biguint_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = BigUint::from_be_bytes(&bytes);
        let back = v.to_be_bytes();
        let trimmed: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
        prop_assert_eq!(back, trimmed);
    }

    #[test]
    fn mod_pow_product_law(a in 2u64..1000, e1 in 0u64..64, e2 in 0u64..64, m in 3u64..10_000) {
        use sealed_bottle::bignum::modexp::mod_pow;
        let m = BigUint::from(m * 2 + 1); // odd modulus
        let base = BigUint::from(a);
        let lhs = mod_pow(&base, &BigUint::from(e1 + e2), &m);
        let rhs = mod_pow(&base, &BigUint::from(e1), &m)
            .mul_mod(&mod_pow(&base, &BigUint::from(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    // ---------- profile machinery ----------

    #[test]
    fn normalization_idempotent(s in "[a-zA-Z0-9 .,-]{0,40}") {
        let n = Normalizer::default();
        let once = n.normalize(&s);
        // Expansion is one-way, but a normalized string re-normalizes to
        // itself unless it collides with an abbreviation key.
        let twice = n.normalize(&once);
        prop_assert_eq!(n.normalize(&twice.clone()), twice);
    }

    #[test]
    fn profile_key_order_invariant(values in proptest::collection::btree_set("[a-z]{1,8}", 1..8)) {
        let forward: Vec<Attribute> =
            values.iter().map(|v| Attribute::new("t", v)).collect();
        let mut backward = forward.clone();
        backward.reverse();
        let k1 = Profile::from_attributes(forward).vector().profile_key();
        let k2 = Profile::from_attributes(backward).vector().profile_key();
        prop_assert_eq!(k1, k2);
    }

    /// Theorem 1 end-to-end: a user satisfying a random request always
    /// passes the fast check AND derives the true profile key
    /// (exhaustive enumeration), for random p.
    #[test]
    fn no_false_negatives(
        nec_count in 0usize..3,
        opt_count in 1usize..5,
        beta_frac in 0.0f64..1.0,
        extra in 0usize..4,
        p_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let p = [11u64, 23, 97][p_idx];
        let necessary: Vec<Attribute> =
            (0..nec_count).map(|i| Attribute::new("n", format!("v{i}"))).collect();
        let optional: Vec<Attribute> =
            (0..opt_count).map(|i| Attribute::new("o", format!("v{i}"))).collect();
        let beta = ((opt_count as f64 * beta_frac) as usize).clamp(1, opt_count);
        let request = RequestProfile::new(necessary.clone(), optional.clone(), beta).unwrap();
        prop_assume!(request.len() < p as usize);

        // The user owns the necessary attrs + exactly beta optional +
        // noise.
        let mut owned = necessary;
        owned.extend(optional.into_iter().take(beta));
        for i in 0..extra {
            owned.push(Attribute::new("x", format!("noise{i}")));
        }
        let user = Profile::from_attributes(owned);
        prop_assert!(request.is_satisfied_by(&user));

        let mut rng = StdRng::seed_from_u64(seed);
        let sealed = request.seal(p, &mut rng);
        prop_assert!(sealed.remainder.fast_check(user.vector()), "fast check false negative");
        let keys = enumerate_candidate_keys(
            user.vector(),
            &sealed.remainder,
            sealed.hint.as_ref(),
            &MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 100_000 },
        );
        prop_assert!(
            keys.iter().any(|k| k.key == sealed.key),
            "candidate keys missed the true key"
        );
    }

    /// Hint matrix: any ≤γ unknown pattern solves back to the truth, for
    /// random block sizes and both constructions.
    #[test]
    fn hint_matrix_total_recovery(
        opt_count in 2usize..7,
        beta in 1usize..6,
        mask in any::<u32>(),
        seed in any::<u64>(),
        random_construction in any::<bool>(),
    ) {
        prop_assume!(beta < opt_count);
        let gamma = opt_count - beta;
        let hashes: Vec<_> = {
            let mut h: Vec<_> = (0..opt_count)
                .map(|i| Attribute::new("o", format!("h{i}")).hash())
                .collect();
            h.sort_unstable();
            h
        };
        let construction = if random_construction {
            HintConstruction::Random
        } else {
            HintConstruction::Cauchy
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let hint = HintMatrix::generate(&hashes, beta, construction, &mut rng);

        // Random unknown pattern with <= gamma unknowns.
        let mut unknowns: Vec<usize> = (0..opt_count).filter(|i| mask >> i & 1 == 1).collect();
        unknowns.truncate(gamma);
        let assignment: Vec<Option<_>> = (0..opt_count)
            .map(|i| if unknowns.contains(&i) { None } else { Some(hashes[i]) })
            .collect();
        prop_assert_eq!(hint.solve(&assignment), Some(hashes));
    }

    // ---------- protocol round trips ----------

    /// Random profiles and thresholds: confirmation iff ground truth,
    /// for all three protocols.
    #[test]
    fn protocol_agrees_with_ground_truth(
        owned_mask in 0u32..32,
        beta in 1usize..4,
        kind_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let kind = [ProtocolKind::P1, ProtocolKind::P2, ProtocolKind::P3][kind_idx];
        let attrs: Vec<Attribute> =
            (0..5).map(|i| Attribute::new("t", format!("a{i}"))).collect();
        let request = RequestProfile::threshold(attrs.clone(), beta).unwrap();
        let owned: Vec<Attribute> = attrs
            .iter()
            .enumerate()
            .filter(|(i, _)| owned_mask >> i & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect();
        let user = Profile::from_attributes(owned);
        let truth = request.is_satisfied_by(&user);

        let mut rng = StdRng::seed_from_u64(seed);
        let config = ProtocolConfig::new(kind, 11);
        let (mut initiator, pkg) = Initiator::create(&request, 0, &config, 0, &mut rng);
        let responder = Responder::new(1, user, &config);
        let confirmed = match responder.handle(&pkg, 100, &mut rng) {
            ResponderOutcome::Reply { reply, .. } => {
                !initiator.process_reply(&reply, 1_000).is_empty()
            }
            _ => false,
        };
        prop_assert_eq!(confirmed, truth);
    }

    /// Backend × thread-count sweep: the responder's reply must be
    /// byte-identical across the S-box oracle and the T-table backend at
    /// 1/2/4/8 worker threads, for random profiles, protocols, and
    /// moduli. One reference run (S-box, sequential) pins all fifteen
    /// other combinations.
    #[test]
    fn reply_bit_identical_across_backends_and_threads(
        owned_mask in 0u32..32,
        beta in 1usize..4,
        kind_idx in 0usize..3,
        p_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        use msb_crypto::aes::CipherBackend;
        use sealed_bottle::core::protocol::Parallelism;

        let kind = [ProtocolKind::P1, ProtocolKind::P2, ProtocolKind::P3][kind_idx];
        let p = [7u64, 11][p_idx]; // small p forces collision-heavy trial loops
        let attrs: Vec<Attribute> =
            (0..5).map(|i| Attribute::new("t", format!("a{i}"))).collect();
        let request = RequestProfile::threshold(attrs.clone(), beta).unwrap();
        let owned: Vec<Attribute> = attrs
            .iter()
            .enumerate()
            .filter(|(i, _)| owned_mask >> i & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect();
        let user = Profile::from_attributes(owned);

        let mut reference_config = ProtocolConfig::new(kind, p);
        reference_config.cipher_backend = CipherBackend::Sbox;
        reference_config.parallelism = Parallelism::SEQUENTIAL;
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, pkg) = Initiator::create(&request, 0, &reference_config, 0, &mut rng);

        let reference = Responder::new(1, user.clone(), &reference_config)
            .handle(&pkg, 100, &mut StdRng::seed_from_u64(seed ^ 1));
        for backend in [CipherBackend::Sbox, CipherBackend::Table] {
            for threads in [1usize, 2, 4, 8] {
                let mut config = reference_config.clone();
                config.cipher_backend = backend;
                config.parallelism = Parallelism::new(threads);
                let outcome = Responder::new(1, user.clone(), &config)
                    .handle(&pkg, 100, &mut StdRng::seed_from_u64(seed ^ 1));
                match (&reference, &outcome) {
                    (
                        ResponderOutcome::Reply { reply: ra, verified: va, .. },
                        ResponderOutcome::Reply { reply: rb, verified: vb, .. },
                    ) => {
                        prop_assert_eq!(
                            ra.encode(), rb.encode(),
                            "wire bytes diverged: backend {:?}, {} threads", backend, threads
                        );
                        prop_assert_eq!(va, vb);
                    }
                    (ResponderOutcome::NoVerifiedMatch, ResponderOutcome::NoVerifiedMatch)
                    | (ResponderOutcome::NotCandidate, ResponderOutcome::NotCandidate) => {}
                    (a, b) => {
                        return Err(proptest::TestCaseError::fail(format!(
                            "outcome shape diverged (backend {backend:?}, {threads} threads): {a:?} vs {b:?}"
                        )));
                    }
                }
            }
        }
    }

    /// Channel integrity under arbitrary tampering.
    #[test]
    fn channel_rejects_any_tamper(
        x in any::<[u8; 32]>(),
        y in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut a = SecureChannel::pairwise(&x, &y, Role::Initiator);
        let mut b = SecureChannel::pairwise(&x, &y, Role::Responder);
        let mut frame = a.seal(&msg);
        let i = flip.index(frame.len());
        frame[i] ^= 0x01;
        prop_assert!(b.open(&frame).is_err());
    }
}
