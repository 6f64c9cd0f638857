//! Criterion version of Table IV: basic symmetric operations.
//!
//! The `/table` rows time the T-table AES backend next to the default
//! S-box oracle, and `/midstate` times profile-key completion from a
//! cached SHA-256 midstate (see `docs/CRYPTO.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use msb_bignum::{BigUint, PrimeField};
use msb_crypto::aes::{Aes256, BlockCipher, CipherBackend};
use msb_crypto::sha256::Sha256;
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
    group
        .bench_function("compare_256", |b| b.iter(|| black_box(black_box(&a).cmp(black_box(&bb)))));
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
