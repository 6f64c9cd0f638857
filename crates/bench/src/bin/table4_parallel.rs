//! Thread-sweep ablation of the parallel responder path on the Table IV
//! responder workload (candidate-key computation, the term that
//! dominates Tables IV–VI on the responder side).
//!
//! Two stages are swept over 1/2/4/8 worker threads:
//!
//! * **Enumeration** — `enumerate_candidate_keys_with_stats_par` on a
//!   dictionary-size responder (the worst case the paper's Protocol 2
//!   detector is calibrated against), verified bit-identical to the
//!   sequential oracle at every thread count before timing.
//! * **Responder chunk** — one `Responder::handle` call for each of a
//!   chunk of distinct Protocol-1 requests against the same heavy
//!   profile.
//!
//! Speedups are relative to the 1-thread row. On a single-core host the
//! sweep degenerates to ≈1× (the run prints the detected core count);
//! the differential test suite, not this binary, is what guarantees the
//! parallel path is safe to enable.
//!
//! Run with `cargo run -p msb-bench --bin table4_parallel --release`.
//! `--json` emits one JSON object per row for `BENCH_BASELINE.json`.

use msb_bench::{fmt_ms, print_table, time_stats};
use msb_core::protocol::{Initiator, Parallelism, ProtocolConfig, ProtocolKind, Responder};
use msb_profile::attribute::Attribute;
use msb_profile::hint::HintConstruction;
use msb_profile::matching::parallel::enumerate_candidate_keys_with_stats_par;
use msb_profile::matching::{enumerate_candidate_keys_with_stats, EnumerationMode, MatchConfig};
use msb_profile::profile::Profile;
use msb_profile::request::RequestProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if !json {
        println!("detected {cores} hardware thread(s)");
    }

    let mut rng = StdRng::seed_from_u64(10);
    let vocabulary: Vec<Attribute> =
        (0..300).map(|i| Attribute::new("interest", format!("w{i}"))).collect();
    // The paper's running request shape: 1 necessary + 3 optional, β=2.
    let request = RequestProfile::new(
        vec![vocabulary[0].clone()],
        vec![vocabulary[1].clone(), vocabulary[2].clone(), vocabulary[3].clone()],
        2,
    )
    .unwrap();
    let sealed = request.try_seal(11, HintConstruction::Cauchy, &mut rng).unwrap();
    let config = MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 500_000 };
    // Dictionary-size responder: the enumeration-bound worst case.
    let heavy = Profile::from_attributes(vocabulary.iter().take(200).cloned());

    // Correctness first: every thread count must reproduce the oracle.
    let (oracle_keys, oracle_stats) = enumerate_candidate_keys_with_stats(
        heavy.vector(),
        &sealed.remainder,
        sealed.hint.as_ref(),
        &config,
    );
    for &threads in &THREAD_SWEEP {
        let (keys, stats) = enumerate_candidate_keys_with_stats_par(
            heavy.vector(),
            &sealed.remainder,
            sealed.hint.as_ref(),
            &config,
            Parallelism::new(threads),
        );
        assert_eq!(keys, oracle_keys, "{threads}-thread enumeration diverged from oracle");
        assert_eq!(stats, oracle_stats, "{threads}-thread stats diverged from oracle");
    }

    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    for &threads in &THREAD_SWEEP {
        let par = Parallelism::new(threads);
        let stats = time_stats(1, 5, || {
            std::hint::black_box(enumerate_candidate_keys_with_stats_par(
                heavy.vector(),
                &sealed.remainder,
                sealed.hint.as_ref(),
                &config,
                par,
            ));
        });
        if threads == 1 {
            base_ms = stats.mean_ms;
        }
        if json {
            println!(
                "{{\"bench\":\"table4_parallel/enumeration\",\"threads\":{threads},\
                 \"mean_ms\":{:.4},\"min_ms\":{:.4},\"max_ms\":{:.4},\
                 \"assignments\":{},\"keys\":{}}}",
                stats.mean_ms,
                stats.min_ms,
                stats.max_ms,
                oracle_stats.assignments,
                oracle_stats.distinct_keys
            );
        }
        rows.push(vec![
            threads.to_string(),
            fmt_ms(stats.mean_ms),
            fmt_ms(stats.min_ms),
            format!("{:.2}x", base_ms / stats.mean_ms),
        ]);
    }
    if !json {
        print_table(
            &format!(
                "Parallel candidate enumeration — dictionary responder \
                 ({} assignments, {} keys)",
                oracle_stats.assignments, oracle_stats.distinct_keys
            ),
            &["Threads", "Mean (ms)", "Min (ms)", "Speedup vs 1 thread"],
            &rows,
        );
    }

    // Responder path: a chunk of distinct P1 requests, handled in turn.
    let mut pkg_rng = StdRng::seed_from_u64(11);
    let mut protocol_config = ProtocolConfig::new(ProtocolKind::P1, 11);
    protocol_config.match_config = config;
    let packages: Vec<_> = (0..8u32)
        .map(|i| {
            let req = RequestProfile::new(
                vec![vocabulary[i as usize].clone()],
                vec![
                    vocabulary[i as usize + 1].clone(),
                    vocabulary[i as usize + 2].clone(),
                    vocabulary[i as usize + 3].clone(),
                ],
                2,
            )
            .unwrap();
            Initiator::create(&req, i, &protocol_config, 0, &mut pkg_rng).1
        })
        .collect();

    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    for &threads in &THREAD_SWEEP {
        protocol_config.parallelism = Parallelism::new(threads);
        let responder = Responder::new(1, heavy.clone(), &protocol_config);
        let mut bench_rng = StdRng::seed_from_u64(12);
        let stats = time_stats(1, 5, || {
            for package in &packages {
                std::hint::black_box(responder.handle(package, 100, &mut bench_rng));
            }
        });
        if threads == 1 {
            base_ms = stats.mean_ms;
        }
        if json {
            println!(
                "{{\"bench\":\"table4_parallel/responder_chunk\",\"threads\":{threads},\
                 \"mean_ms\":{:.4},\"min_ms\":{:.4},\"max_ms\":{:.4},\"requests\":{}}}",
                stats.mean_ms,
                stats.min_ms,
                stats.max_ms,
                packages.len()
            );
        }
        rows.push(vec![
            threads.to_string(),
            fmt_ms(stats.mean_ms),
            fmt_ms(stats.min_ms),
            format!("{:.2}x", base_ms / stats.mean_ms),
        ]);
    }
    if !json {
        print_table(
            &format!("Responder chunk — {} requests per chunk, Protocol 1", packages.len()),
            &["Threads", "Mean (ms)", "Min (ms)", "Speedup vs 1 thread"],
            &rows,
        );
        println!(
            "\nReading: the enumeration core parallelises across static prefix\n\
             shards with a deterministic merge, so every row above is verified\n\
             bit-identical to the sequential oracle before timing. Speedups\n\
             track the hardware thread count ({cores} here)."
        );
    }
}
