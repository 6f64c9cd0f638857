//! Criterion version of Table IV: basic symmetric operations.
//!
//! The `/table` rows time the T-table AES backend next to the default
//! S-box oracle, `/midstate` times profile-key completion from a
//! cached SHA-256 midstate, and `/fixed` times the fixed-width
//! Goldilocks-448 multiply next to the `BigUint` one (see
//! `docs/CRYPTO.md`). The `hint_solve` rows time the responder's
//! per-assignment solve at γ = β = 3 with three unknowns.

use criterion::{criterion_group, criterion_main, Criterion};
use msb_bignum::goldilocks::Fe448;
use msb_bignum::{BigUint, PrimeField};
use msb_crypto::aes::{Aes256, BlockCipher, CipherBackend};
use msb_crypto::sha256::Sha256;
use msb_profile::hint::{HintConstruction, HintMatrix};
use msb_profile::{Attribute, ProfileVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_table4(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4");
    let attr = b"interest:basketball";
    group.bench_function("sha256_attribute", |b| {
        b.iter(|| black_box(Sha256::digest(black_box(attr))))
    });

    // Profile-key completion: the candidate enumeration re-hashes
    // `prefix ‖ suffix` per assignment; with the necessary-block midstate
    // cached (one 64-byte block pre-absorbed) each key costs one clone
    // plus a single finalize compression instead of hashing the prefix
    // again.
    let mut pre = Sha256::new();
    pre.update(&[0xab; 64]);
    let suffix = [0xcd; 32];
    group.bench_function("sha256_attribute/midstate", |b| {
        b.iter(|| {
            let mut h = pre.clone();
            h.update(black_box(&suffix));
            black_box(h.finalize())
        })
    });
    // One-shot oracle for the same 96-byte message (what the midstate
    // path saves: re-absorbing the prefix block each time).
    let full: Vec<u8> = [&[0xab; 64][..], &suffix].concat();
    group.bench_function("sha256_attribute/oneshot_96", |b| {
        b.iter(|| black_box(Sha256::digest(black_box(&full))))
    });

    let h = BigUint::from_be_bytes(&Sha256::digest(attr));
    group.bench_function("mod_p_11", |b| b.iter(|| black_box(h.rem_u64(black_box(11)))));

    let cipher = Aes256::new(&Sha256::digest(attr));
    group.bench_function("aes256_encrypt_block", |b| {
        b.iter(|| {
            let mut block = [7u8; 16];
            cipher.encrypt_block(&mut block);
            black_box(block)
        })
    });
    group.bench_function("aes256_decrypt_block", |b| {
        b.iter(|| {
            let mut block = [7u8; 16];
            cipher.decrypt_block(&mut block);
            black_box(block)
        })
    });

    // T-table backend: the decrypt row runs the FIPS-197 equivalent
    // inverse cipher, so it should land within ~1.15x of encrypt rather
    // than the ~2x gap of the byte-wise S-box oracle.
    let table = Aes256::with_backend(&Sha256::digest(attr), CipherBackend::Table);
    group.bench_function("aes256_encrypt_block/table", |b| {
        b.iter(|| {
            let mut block = [7u8; 16];
            table.encrypt_block(&mut block);
            black_box(block)
        })
    });
    group.bench_function("aes256_decrypt_block/table", |b| {
        b.iter(|| {
            let mut block = [7u8; 16];
            table.decrypt_block(&mut block);
            black_box(block)
        })
    });

    let field = PrimeField::goldilocks448();
    let a = field.element(BigUint::from_be_bytes(&[0x5a; 32]));
    let bb = field.element(BigUint::from_be_bytes(&[0xc3; 32]));
    group.bench_function("multiply_256_field", |b| {
        b.iter(|| black_box(field.mul(black_box(&a), black_box(&bb))))
    });
    let (fa, fb) =
        (Fe448::from_biguint(&a).expect("reduced"), Fe448::from_biguint(&bb).expect("reduced"));
    group.bench_function("multiply_256_field/fixed", |b| {
        b.iter(|| black_box(black_box(&fa).mul(black_box(&fb))))
    });
    group
        .bench_function("compare_256", |b| b.iter(|| black_box(black_box(&a).cmp(black_box(&bb)))));

    // `/cauchy` reads the process-wide pattern memo (warm after the first
    // iteration); `/random` solves by elimination, as every Random matrix
    // does.
    let attrs: Vec<Attribute> = (0..6).map(|i| Attribute::new("tag", format!("t{i}"))).collect();
    let optional = ProfileVector::from_hashes(attrs.iter().map(|a| a.hash())).hashes().to_vec();
    let assignment: Vec<Option<_>> =
        optional.iter().enumerate().map(|(i, h)| (i < 3).then_some(*h)).collect();
    let cauchy =
        HintMatrix::generate(&optional, 3, HintConstruction::Cauchy, &mut StdRng::seed_from_u64(6));
    group.bench_function("hint_solve/cauchy", |b| {
        b.iter(|| black_box(cauchy.solve(black_box(&assignment))))
    });
    let random =
        HintMatrix::generate(&optional, 3, HintConstruction::Random, &mut StdRng::seed_from_u64(6));
    group.bench_function("hint_solve/random", |b| {
        b.iter(|| black_box(random.solve(black_box(&assignment))))
    });
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
