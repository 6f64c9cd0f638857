//! A 2 000-node friending swarm over the spatially-indexed simulator.
//!
//! Nodes are placed with a Zipf-clustered layout (a few dense hotspots
//! holding most of the crowd — the worst case for a spatial index, since
//! query cost follows local density). An initiator in the busiest region
//! floods a Protocol 1 request; ~1% of the swarm matches and replies by
//! reverse-path unicast. The run prints swarm-level outcomes and the
//! index-efficiency observables.
//!
//! Run with `cargo run --release --example swarm`.

use msb_bench::swarm::{self, build_swarm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sealed_bottle::dataset::placement;
use sealed_bottle::prelude::*;

fn main() {
    const N: usize = 2_000;
    let side = 1_000.0; // 2k nodes clustered in a 1 km² plaza

    // 8 hotspots, Zipf(1.3) popularity, 60 m spread. The initiator takes
    // the first sampled position — overwhelmingly the busiest hotspot.
    let mut rng = StdRng::seed_from_u64(2024);
    let positions = placement::zipf_clustered(N, side, side, 8, 1.3, 60.0, &mut rng);

    // The shared scalability scenario over the clustered layout, with a
    // 64-hop TTL.
    let mut sim = build_swarm(
        positions,
        &swarm::SwarmParams::new(7, 64),
        swarm::lighthouse_request(),
        swarm::lighthouse_matching(),
        swarm::noise_profile,
    );

    let started = std::time::Instant::now();
    sim.start();
    sim.run();
    let wall = started.elapsed();

    let summary = SwarmSummary::collect(&sim);
    let metrics = sim.metrics();
    println!("swarm: {N} nodes, Zipf-clustered over {side:.0}x{side:.0} m");
    println!("wall-clock: {wall:?} (simulated time: {} ms)", sim.now_us() / 1000);
    println!(
        "flood: {} requests, {} relays, {} broadcasts, {} deliveries",
        summary.requests_sent, summary.relays, metrics.broadcasts, metrics.delivered
    );
    println!(
        "matching: {} candidates, {} replies, {} matches confirmed",
        summary.candidates, summary.replies, summary.matches
    );
    if let (Some(p50), Some(p90)) =
        (summary.latency_percentile_us(0.5), summary.latency_percentile_us(0.9))
    {
        println!("match latency: p50 {p50} us, p90 {p90} us");
    }
    println!(
        "index: {} neighbor queries, {} cells scanned ({:.1} cells/query vs {} nodes/query naive)",
        metrics.neighbor_queries,
        metrics.cells_scanned,
        metrics.cells_scanned as f64 / metrics.neighbor_queries.max(1) as f64,
        N,
    );

    assert!(summary.matches > 0, "the swarm must confirm matches");
}
