//! Table IV — mean computation time of the basic symmetric operations,
//! measured on this machine and printed next to the paper's laptop and
//! phone numbers, plus the fast-path variants (T-table AES, SHA-256
//! midstate completion) added for the raw-speed crypto hot paths (see
//! `docs/CRYPTO.md`).
//!
//! Regenerate with `cargo run -p msb-bench --bin table4_ops --release`
//! (or `cargo bench -p msb-bench --bench table4_ops` for the Criterion
//! version with confidence intervals).

use msb_baselines::cost::OpCostTable;
use msb_bench::{fmt_ms, measured_cost_table, print_table, time_stats};
use msb_crypto::aes::{Aes256, BlockCipher, CipherBackend};
use msb_crypto::sha256::Sha256;

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

fn row(name: &str, measured: f64, laptop: f64, phone: f64) -> Vec<String> {
    vec![name.to_string(), fmt_ms(measured), fmt_ms(laptop), fmt_ms(phone)]
}
