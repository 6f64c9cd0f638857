//! Table IV — mean computation time of the basic symmetric operations,
//! measured on this machine and printed next to the paper's laptop and
//! phone numbers, plus the fast-path variants (T-table AES, SHA-256
//! midstate completion, the fixed-width Goldilocks-448 multiply) added
//! for the raw-speed crypto hot paths (see `docs/CRYPTO.md`), and the
//! hint solve at γ = β = 3 next to the `BigUint` elimination it
//! replaced, timed in the same run.
//!
//! Regenerate with `cargo run -p msb-bench --bin table4_ops --release`
//! (or `cargo bench -p msb-bench --bench table4_ops` for the Criterion
//! version with confidence intervals).

use msb_baselines::cost::OpCostTable;
use msb_bench::{fmt_ms, measured_cost_table, print_table, time_stats};
use msb_bignum::goldilocks::Fe448;
use msb_bignum::linalg::{cauchy_matrix, Matrix};
use msb_bignum::PrimeField;
use msb_crypto::aes::{Aes256, BlockCipher, CipherBackend};
use msb_crypto::sha256::Sha256;
use msb_profile::hint::{HintConstruction, HintMatrix};
use msb_profile::{Attribute, ProfileVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    let measured = measured_cost_table();
    let laptop = OpCostTable::paper_laptop();
    let phone = OpCostTable::paper_phone();

    let rows = vec![
        row("SHA-256", measured.h_ms, laptop.h_ms, phone.h_ms),
        row("Mod p", measured.modp_ms, laptop.modp_ms, phone.modp_ms),
        row("AES Enc", measured.aes_enc_ms, laptop.aes_enc_ms, phone.aes_enc_ms),
        row("AES Dec", measured.aes_dec_ms, laptop.aes_dec_ms, phone.aes_dec_ms),
        row("Multiply-256", measured.mul256_ms, laptop.mul256_ms, phone.mul256_ms),
        row("Compare-256", measured.cmp256_ms, laptop.cmp256_ms, phone.cmp256_ms),
    ];
    print_table(
        "Table IV — mean time of basic operations (ms)",
        &["Operation", "Measured (this machine)", "Paper laptop", "Paper phone"],
        &rows,
    );

    // Fast-path variants next to their oracle baselines.
    let attr = b"interest:basketball";
    let key = Sha256::digest(attr);
    let table = Aes256::with_backend(&key, CipherBackend::Table);
    let mut block = [7u8; 16];
    let enc_table_ms = time_stats(100, 2_000, || {
        table.encrypt_block(&mut block);
        std::hint::black_box(&block);
    })
    .mean_ms;
    let dec_table_ms = time_stats(100, 2_000, || {
        table.decrypt_block(&mut block);
        std::hint::black_box(&block);
    })
    .mean_ms;
    let mut pre = Sha256::new();
    pre.update(&[0xab; 64]);
    let suffix = [0xcd; 32];
    let midstate_ms = time_stats(100, 2_000, || {
        let mut h = pre.clone();
        h.update(&suffix);
        std::hint::black_box(h.finalize());
    })
    .mean_ms;
    let fa = Fe448::from_hash(&[0x5a; 32]);
    let fb = Fe448::from_hash(&[0xc3; 32]);
    let mul_fixed_ms = time_stats(100, 2_000, || {
        black_box(black_box(&fa).mul(black_box(&fb)));
    })
    .mean_ms;
    let cauchy = hint_solve_ms(HintConstruction::Cauchy);
    let random = hint_solve_ms(HintConstruction::Random);

    let fast_rows = vec![
        vec![
            "AES Enc (T-table)".to_string(),
            fmt_ms(enc_table_ms),
            format!("{:.2}x vs S-box enc", measured.aes_enc_ms / enc_table_ms),
        ],
        vec![
            "AES Dec (T-table, eq-inv)".to_string(),
            fmt_ms(dec_table_ms),
            format!("{:.2}x vs S-box dec", measured.aes_dec_ms / dec_table_ms),
        ],
        vec![
            "SHA-256 key via midstate".to_string(),
            fmt_ms(midstate_ms),
            format!("{:.2}x vs one-shot attr", measured.h_ms / midstate_ms),
        ],
        vec![
            "Multiply-256 (Fe448, fixed width)".to_string(),
            fmt_ms(mul_fixed_ms),
            format!("{:.2}x vs BigUint multiply", measured.mul256_ms / mul_fixed_ms),
        ],
        vec![
            "Hint solve, 3 unknowns, Cauchy (elimination)".to_string(),
            fmt_ms(cauchy.0),
            "the old path".to_string(),
        ],
        vec![
            "Hint solve, 3 unknowns, Cauchy (warm memo)".to_string(),
            fmt_ms(cauchy.1),
            format!("{:.2}x vs elimination", cauchy.0 / cauchy.1),
        ],
        vec![
            "Hint solve, 3 unknowns, Random (elimination)".to_string(),
            fmt_ms(random.0),
            "the old path".to_string(),
        ],
        vec![
            "Hint solve, 3 unknowns, Random (HintMatrix::solve)".to_string(),
            fmt_ms(random.1),
            format!("{:.2}x vs elimination", random.0 / random.1),
        ],
    ];
    print_table(
        "Table IV addendum — crypto fast paths (ms)",
        &["Operation", "Measured (this machine)", "Speedup"],
        &fast_rows,
    );

    println!(
        "\nShape check: every symmetric operation is microseconds or less —\n\
         3–6 orders of magnitude below the asymmetric operations of Table V.\n\
         The T-table decrypt closes the S-box oracle's enc/dec gap via the\n\
         FIPS-197 equivalent inverse cipher (docs/CRYPTO.md)."
    );
}

/// Mean hint-solve times (ms) at γ = β = 3 with three unknowns: the
/// `BigUint` elimination every solve ran before the pattern memo, and
/// `HintMatrix::solve` on the same system. The Cauchy pattern's memo is
/// warm after the first solve; a Random matrix solves by elimination, so
/// its two times should match.
fn hint_solve_ms(construction: HintConstruction) -> (f64, f64) {
    let f = PrimeField::goldilocks448();
    let attrs: Vec<Attribute> = (0..6).map(|i| Attribute::new("tag", format!("t{i}"))).collect();
    let optional = ProfileVector::from_hashes(attrs.iter().map(|a| a.hash())).hashes().to_vec();
    let assignment: Vec<Option<_>> =
        optional.iter().enumerate().map(|(i, h)| (i < 3).then_some(*h)).collect();
    let r = match construction {
        HintConstruction::Cauchy => cauchy_matrix(&f, 3, 3),
        HintConstruction::Random => {
            let mut rng = StdRng::seed_from_u64(6);
            Matrix::from_rows(
                (0..3).map(|_| (0..3).map(|_| f.random_nonzero(&mut rng)).collect()).collect(),
            )
        }
    };
    let c = Matrix::identity(3).hconcat(&r);
    let b = c.mul_vec(&f, &optional.iter().map(|h| h.to_biguint()).collect::<Vec<_>>());
    let r = (construction == HintConstruction::Random).then_some(r);
    let hint = HintMatrix::from_parts(3, construction, r, b.clone());
    assert_eq!(hint.solve(&assignment).as_deref(), Some(&optional[..]));

    let elimination = time_stats(10, 500, || {
        let mut rhs = b.clone();
        for (j, h) in optional[..3].iter().enumerate() {
            let x = h.to_biguint();
            for (i, v) in rhs.iter_mut().enumerate() {
                *v = f.sub(v, &f.mul(c.at(i, j), &x));
            }
        }
        black_box(c.select_columns(&[3, 4, 5]).solve(&f, &rhs).expect("nonsingular"));
    })
    .mean_ms;
    let solve = time_stats(10, 500, || {
        black_box(hint.solve(black_box(&assignment)));
    })
    .mean_ms;
    (elimination, solve)
}

fn row(name: &str, measured: f64, laptop: f64, phone: f64) -> Vec<String> {
    vec![name.to_string(), fmt_ms(measured), fmt_ms(laptop), fmt_ms(phone)]
}
