//! Table VII — the typical mobile-social-network scenario:
//! `mt = mk = 6, γ = β = 3, p = 11, n = 100, t = 4`.
//!
//! Our protocol is *executed end to end* over the MANET simulator and
//! timed; the asymmetric baselines are executed for real on one pair
//! (1024-bit keys) and scaled by their exact per-pair op counts to
//! n = 100 — running 100 real Paillier PSI pairs would only multiply the
//! same measured numbers.
//!
//! Regenerate with `cargo run -p msb-bench --bin table7_scenario --release`.

use msb_baselines::cost::{fc10_formula, findu_formula, fnp_formula, ScenarioParams};
use msb_baselines::fc10::{Fc10, RsaKey};
use msb_baselines::findu::Findu;
use msb_baselines::fnp04::Fnp04;
use msb_baselines::paillier::PaillierKeyPair;
use msb_bench::{fmt_ms, print_table, swarm, time_once, time_stats};
use msb_core::app::SwarmSummary;
use msb_core::protocol::{Initiator, ProtocolConfig, ProtocolKind, Responder, ResponderOutcome};
use msb_profile::{Attribute, Profile, RequestProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn attr(i: u64) -> Attribute {
    Attribute::new("tag", format!("t{i}"))
}

/// Swarm extension: the same typical scenario (6 optional tags, β = 3,
/// one matching user per [`swarm::MATCHING_EVERY`]) executed end to end
/// over the spatially-indexed MANET simulator at swarm scale — the sizes
/// FindU and Social PaL report scalability curves at.
fn swarm_row(n: usize) -> Vec<String> {
    let request = RequestProfile::threshold((0..6).map(attr).collect(), 3).expect("valid request");
    let matching = Profile::from_attributes(vec![attr(0), attr(1), attr(2), attr(5)]);
    // Noise users own 6 disjoint tags each, like the pairwise scenario
    // above.
    let noise = |i: usize| {
        Profile::from_attributes((0..6).map(|j| attr(1000 + 6 * i as u64 + j)).collect::<Vec<_>>())
    };
    let mut sim = swarm::build_swarm(
        swarm::uniform_center_positions(n, n as u64),
        &swarm::SwarmParams::new(0x7AB7, 255),
        request,
        matching,
        noise,
    );
    let (_, wall_ms) = time_once(|| {
        sim.start();
        sim.run();
    });
    let summary = SwarmSummary::collect(&sim);
    let m = sim.metrics();
    vec![
        format!("{n}"),
        fmt_ms(wall_ms),
        format!("{} bcast / {} deliv / {} hops", m.broadcasts, m.delivered, m.unicast_hops),
        format!("{}", summary.matches),
        format!(
            "{} / {}",
            summary.latency_percentile_us(0.5).unwrap_or(0),
            summary.latency_percentile_us(0.9).unwrap_or(0)
        ),
        format!("{:.1}", m.cells_scanned as f64 / m.neighbor_queries.max(1) as f64),
    ]
}

fn main() {
    let s = ScenarioParams::table7();
    let mut rng = StdRng::seed_from_u64(777);
    let n = s.n as usize;

    // ---- Sealed Bottle Protocol 1, executed end to end. ----
    // Request: 6 optional tags, β = 3 (γ = 3, θ = 0.5, α = 0).
    let request = RequestProfile::threshold((0..6).map(attr).collect(), 3).expect("valid request");
    let config = ProtocolConfig::new(ProtocolKind::P1, s.p);

    let create = time_stats(3, 20, || {
        let mut r = StdRng::seed_from_u64(1);
        std::hint::black_box(Initiator::create(&request, 0, &config, 0, &mut r));
    });

    // Population: 1 matching user, the rest own disjoint tags.
    let matching = Profile::from_attributes(vec![attr(0), attr(1), attr(2), attr(5)]);
    let others: Vec<Profile> = (0..n - 1)
        .map(|i| {
            Profile::from_attributes(
                (0..6).map(|j| attr(1000 + 6 * i as u64 + j)).collect::<Vec<_>>(),
            )
        })
        .collect();

    let (_, package) = Initiator::create(&request, 0, &config, 0, &mut rng);

    // Non-candidate processing time (mean over the population).
    let mut noncand_total = 0.0;
    let mut candidates = 0usize;
    for (i, profile) in others.iter().enumerate() {
        let responder = Responder::new(i as u32 + 2, profile.clone(), &config);
        let (outcome, ms) = time_once(|| responder.handle(&package, 100, &mut rng));
        noncand_total += ms;
        if matches!(outcome, ResponderOutcome::Reply { .. }) {
            candidates += 1;
        }
    }
    let noncand_mean = noncand_total / others.len() as f64;

    // Candidate processing time.
    let responder = Responder::new(1, matching, &config);
    let cand = time_stats(2, 20, || {
        let mut r = StdRng::seed_from_u64(2);
        std::hint::black_box(responder.handle(&package, 100, &mut r));
    });

    // Package broadcast plus one honest single-ack reply, both sized by
    // the canonical codec (measured frames, not an estimate).
    let honest_reply = msb_core::package::Reply {
        request_id: package.request_id(),
        responder: 1,
        acks: vec![vec![0u8; 56]],
    };
    let our_comm_bytes = package.wire_size() + honest_reply.wire_size();

    // ---- Baselines, executed for real on one pair and scaled. ----
    let client: Vec<u64> = (0..6).collect();
    let server: Vec<u64> = (3..9).collect();

    let keys = PaillierKeyPair::generate(1024, &mut rng);
    let (fnp_run, fnp_pair_ms) = time_once(|| Fnp04::run_u64(&keys, &client, &server, &mut rng));
    // Client coefficients are reusable across pairs; per extra pair the
    // client only decrypts mk evaluations and the server re-evaluates.
    let fnp_coeff_frac = (2 * s.mt) as f64 / (2 * s.mt + s.mk) as f64;
    let fnp_total_ms = fnp_pair_ms * (1.0 + (n as f64 - 1.0) * (1.0 - fnp_coeff_frac * 0.5));
    let (fnp_i_sym, fnp_p_sym, fnp_bits) = fnp_formula(&s);

    let rsa = RsaKey::generate(1024, &mut rng);
    let (fc_run, fc_pair_ms) = time_once(|| Fc10::run_u64(&rsa, &client, &server, &mut rng));
    let fc_total_ms = fc_pair_ms * n as f64;
    let (_, fc_p_sym, fc_bits) = fc10_formula(&s);

    let (fu_run, fu_pair_ms) = time_once(|| Findu::run_u64(&keys, &client, &server, &mut rng));
    let fu_total_ms = fu_pair_ms * n as f64;
    let (fu_i_sym, fu_p_sym, fu_bits) = findu_formula(&s);

    let rows = vec![
        vec![
            "FNP [10]".into(),
            format!("{} (scaled from {:.0} ms/pair)", fmt_ms(fnp_total_ms), fnp_pair_ms),
            format!("{} E3 symbolic (paper 73 440 ms)", fnp_i_sym.e3 + fnp_p_sym.e3),
            format!("{} KB", fnp_bits / 8 / 1024),
            "1 broadcast + 100 unicasts".into(),
        ],
        vec![
            "FC10 [7]".into(),
            format!("{} (scaled from {:.0} ms/pair)", fmt_ms(fc_total_ms), fc_pair_ms),
            format!("{} E2 symbolic (paper 34.5 + 204 ms)", fc_p_sym.e2),
            format!("{} KB", fc_bits / 8 / 1024),
            "200 unicasts".into(),
        ],
        vec![
            "Advanced [14]".into(),
            format!("{} (scaled from {:.0} ms/pair)", fmt_ms(fu_total_ms), fu_pair_ms),
            format!("{} E3 symbolic (paper 216 000 + 1 440 ms)", fu_i_sym.e3 + fu_p_sym.e3),
            format!("{} KB", fu_bits / 8 / 1024),
            "500 unicasts".into(),
        ],
        vec![
            "Protocol 1 (ours)".into(),
            format!(
                "create {} / non-cand {} / cand {}",
                fmt_ms(create.mean_ms),
                fmt_ms(noncand_mean),
                fmt_ms(cand.mean_ms)
            ),
            "symmetric ops only (paper 1.1e-2 / 3.1e-3 ms)".into(),
            format!("{:.2} KB", our_comm_bytes as f64 / 1024.0),
            format!("1 broadcast + {} candidate unicasts", candidates + 1),
        ],
    ];
    print_table(
        "Table VII — typical scenario (mt=mk=6, γ=β=3, p=11, n=100, t=4)",
        &[
            "Scheme",
            "Computation (measured, ms)",
            "Computation (symbolic)",
            "Comm.",
            "Transmissions",
        ],
        &rows,
    );

    // Sanity: correctness of the executed baselines in this scenario.
    assert_eq!(fnp_run.intersection, vec![3, 4, 5]);
    assert_eq!(fc_run.intersection, vec![3, 4, 5]);
    assert_eq!(fu_run.cardinality, 3);

    // ---- Swarm extension: the scenario at evaluation scale. ----
    // The asymmetric baselines above are already *scaled* to n = 100
    // from one measured pair; Protocol 1 instead runs for real over the
    // indexed MANET at 1k/5k/10k nodes (1 matching user per 100).
    let swarm_rows: Vec<Vec<String>> =
        [1_000usize, 5_000, 10_000].iter().map(|&n| swarm_row(n)).collect();
    print_table(
        "Table VII (ext) — Protocol 1 executed end to end at swarm scale",
        &["Nodes", "Wall (ms)", "Messages", "Matches", "Latency p50/p90 (us)", "Cells/query"],
        &swarm_rows,
    );

    let speedup = fnp_total_ms / (create.mean_ms + cand.mean_ms + noncand_mean * 99.0);
    println!(
        "\nShape check: Sealed Bottle beats FNP by ≈ {speedup:.0}× in computation\n\
         (paper: ≈ 10^6×) and by ≈ {:.0}× in communication ({} B vs {} KB).",
        (fnp_bits / 8) as f64 / our_comm_bytes as f64,
        our_comm_bytes,
        fnp_bits / 8 / 1024,
    );
}
