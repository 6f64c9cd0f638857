//! Ablation: Cauchy vs. the paper's uniformly-random hint-matrix
//! construction — wire size, generation time, solve time, and the
//! solvability guarantee.
//!
//! Run with `cargo run -p msb-bench --bin ablation_hint --release`.

use msb_bench::{fmt_ms, print_table, time_stats};
use msb_profile::attribute::Attribute;
use msb_profile::hint::{HintConstruction, HintMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rows = Vec::new();
    for (beta, gamma) in [(3usize, 3usize), (6, 2), (4, 4), (10, 10)] {
        let n = beta + gamma;
        let mut hashes: Vec<_> =
            (0..n).map(|i| Attribute::new("tag", format!("t{i}")).hash()).collect();
        hashes.sort_unstable();

        for construction in [HintConstruction::Cauchy, HintConstruction::Random] {
            let mut rng = StdRng::seed_from_u64(9);
            let gen = time_stats(3, 30, || {
                std::hint::black_box(HintMatrix::generate(&hashes, beta, construction, &mut rng));
            });
            let hint = HintMatrix::generate(&hashes, beta, construction, &mut rng);
            // Worst-case solve: γ unknowns.
            let assignment: Vec<Option<_>> = hashes
                .iter()
                .enumerate()
                .map(|(i, h)| if i < beta { Some(*h) } else { None })
                .collect();
            let solve = time_stats(3, 30, || {
                std::hint::black_box(hint.solve(&assignment));
            });
            assert_eq!(hint.solve(&assignment).as_deref(), Some(&hashes[..]));
            rows.push(vec![
                format!("β={beta}, γ={gamma}"),
                format!("{construction:?}"),
                format!("{} B", hint.wire_size_bits() / 8),
                fmt_ms(gen.mean_ms),
                fmt_ms(solve.mean_ms),
                match construction {
                    HintConstruction::Cauchy => "unconditional".to_string(),
                    HintConstruction::Random => "w.h.p. only".to_string(),
                },
            ]);
        }
    }
    print_table(
        "Ablation — hint-matrix construction",
        &["Shape", "Construction", "Wire size", "Gen (ms)", "Solve (ms)", "Unique solvability"],
        &rows,
    );
    println!(
        "\nReading: the Cauchy block is a public deterministic function of\n\
         (γ, β), so it never crosses the wire — γ·β fewer field elements per\n\
         package — and makes the paper's unique-solvability claim\n\
         unconditional instead of probabilistic. The block costs γ·β field\n\
         inversions once per (γ, β) per process. A Cauchy solve on a memoized\n\
         pattern runs in fixed-width arithmetic; Random matrices, and Cauchy\n\
         shapes whose patterns outgrow the memo (here γ = β = 10), solve by\n\
         elimination with one field inversion per unknown R column."
    );
}
