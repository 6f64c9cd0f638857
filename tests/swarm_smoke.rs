//! Swarm-scale end-to-end run over the spatially-indexed simulator: an
//! `#[ignore]`d release-mode smoke test (run explicitly in CI) proving
//! a 5 000-node swarm completes in bounded time with matches confirmed
//! and index efficiency holding. The index's queries are held to an
//! all-node scan by the `msb-net` topology and spatial tests.

use msb_bench::swarm::build_uniform_swarm;
use sealed_bottle::prelude::*;
use std::time::Instant;

/// Large-swarm release-mode smoke: 5 000 nodes, full friending flow,
/// bounded runtime. `#[ignore]`d so plain `cargo test` stays fast; CI
/// runs it via `cargo test --release --test swarm_smoke -- --ignored`.
#[test]
#[ignore = "release-mode large-swarm smoke, run explicitly (CI does)"]
fn swarm_5k_completes_in_bounded_time() {
    let started = Instant::now();
    // The shared scalability scenario ([`msb_bench::swarm`]) at a
    // 200-hop flood TTL so the request spans the whole constant-density
    // area.
    let mut sim = build_uniform_swarm(5_000, 77, 200);
    sim.start();
    sim.run();
    let elapsed = started.elapsed();
    let summary = SwarmSummary::collect(&sim);
    let metrics = sim.metrics();
    assert!(summary.matches > 0, "5k swarm found no matches: {summary:?}");
    assert!(summary.relays > 1_000, "flood must spread swarm-wide: {summary:?}");
    // Index efficiency: cells per query is a density constant, not a
    // function of swarm size (the naive scan would touch 5 000 nodes per
    // query here).
    let cells_per_query = metrics.cells_scanned as f64 / metrics.neighbor_queries as f64;
    assert!(
        cells_per_query < 40.0,
        "index degenerated: {cells_per_query:.1} cells/query, {metrics:?}"
    );
    // Generous wall-clock bound: catches an accidental return to O(n²)
    // (which takes minutes at this scale) without flaking on slow CI.
    assert!(elapsed.as_secs() < 180, "5k swarm took {elapsed:?}");
    println!(
        "5k swarm: wall {elapsed:?}, {} matches (p50 {:?} us), {} broadcasts, {:.1} cells/query",
        summary.matches,
        summary.latency_percentile_us(0.5),
        metrics.broadcasts,
        cells_per_query,
    );
}
