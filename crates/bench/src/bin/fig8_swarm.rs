//! Figure 8 (extension) — simulator scalability: friending swarms at
//! 1k / 5k / 10k nodes on the square-grid spatial index (cells one
//! radio range across), plus the index's per-query speedup over an
//! all-node scan.
//!
//! Each run executes the full protocol end to end
//! ([`msb_bench::swarm`]): the initiator floods its request from the
//! center of a constant-density area (~11 neighbors per node), 1% of
//! nodes match, candidates gamble keys and reply by reverse-path
//! unicast, the initiator confirms. Reported per run: wall-clock,
//! messages (broadcasts / deliveries / unicast hops), match count with
//! latency percentiles, and the index-efficiency observable
//! `cells/query` (9: the 3×3 cells around each query).
//!
//! The naive/indexed ratio is measured per query: over each size's
//! node layout, one radio-range query per node, answered by a linear
//! scan over every node and by [`SpatialIndex::candidates_into`], both
//! with the exact `distance <= range` filter. The two answers are
//! asserted equal before anything is printed; each side's time is the
//! fastest of [`QUERY_REPS`] interleaved passes.
//!
//! Regenerate with `cargo run -p msb-bench --release --bin fig8_swarm`;
//! `--json` emits `BENCH_BASELINE.json` rows instead of the table.

use msb_bench::swarm::{build_uniform_swarm, uniform_center_positions};
use msb_bench::{fmt_ms, print_table, time_once};
use msb_core::app::SwarmSummary;
use msb_net::sim::{Metrics, SimConfig};
use msb_net::spatial::SpatialIndex;

const SIZES: [usize; 3] = [1_000, 5_000, 10_000];
const SEED: u64 = 0xF168;
/// Timed passes per query method; the fastest counts.
const QUERY_REPS: usize = 3;

struct RunResult {
    nodes: usize,
    wall_ms: f64,
    metrics: Metrics,
    summary: SwarmSummary,
}

fn run(n: usize) -> RunResult {
    let mut sim = build_uniform_swarm(n, SEED, 255);
    let (_, wall_ms) = time_once(|| {
        sim.start();
        sim.run();
    });
    RunResult { nodes: n, wall_ms, metrics: *sim.metrics(), summary: SwarmSummary::collect(&sim) }
}

/// One radio-range query per node over a swarm layout, timed per method.
struct QueryResult {
    nodes: usize,
    /// In-range ids found over all queries, each query's own node
    /// included (both methods agree).
    in_range: usize,
    scan_ms: f64,
    index_ms: f64,
}

/// Times one query per node over size `n`'s swarm layout (the one
/// [`build_uniform_swarm`] places) by all-node scan and by the grid
/// index, asserting both return the same ids in the same order.
fn query_speedup(n: usize) -> QueryResult {
    let range = SimConfig::default().radio_range;
    let positions = uniform_center_positions(n, SEED ^ n as u64);
    let in_range =
        |c: (f64, f64), p: (f64, f64)| ((p.0 - c.0).powi(2) + (p.1 - c.1).powi(2)).sqrt() <= range;
    // Each pass returns every query's ids, each list closed by a
    // `u32::MAX` separator, so equal outputs mean equal per-query lists.
    let scan = || {
        let mut out = Vec::new();
        for &c in &positions {
            out.extend((0..n as u32).filter(|&i| in_range(c, positions[i as usize])));
            out.push(u32::MAX);
        }
        out
    };
    let mut index = SpatialIndex::new(range);
    for &p in &positions {
        index.push(p);
    }
    let indexed = || {
        let (mut out, mut cand) = (Vec::new(), Vec::new());
        for &c in &positions {
            index.candidates_into(c, range, &mut cand);
            out.extend(cand.iter().copied().filter(|&i| in_range(c, positions[i as usize])));
            out.push(u32::MAX);
        }
        out
    };
    let (mut scan_ms, mut index_ms) = (f64::INFINITY, f64::INFINITY);
    let mut found = 0;
    for _ in 0..QUERY_REPS {
        let (scanned, ms) = time_once(scan);
        scan_ms = scan_ms.min(ms);
        let (from_index, ms) = time_once(indexed);
        index_ms = index_ms.min(ms);
        assert_eq!(scanned, from_index, "n={n}: index and scan answered differently");
        found = scanned.len() - n;
    }
    QueryResult { nodes: n, in_range: found, scan_ms, index_ms }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let runs: Vec<RunResult> = SIZES.iter().map(|&n| run(n)).collect();
    let queries: Vec<QueryResult> = SIZES.iter().map(|&n| query_speedup(n)).collect();

    if json {
        for r in &runs {
            let s = &r.summary;
            println!(
                "{{\"bench\": \"fig8_swarm\", \"mode\": \"indexed\", \"nodes\": {}, \
                 \"wall_ms\": {:.1}, \"broadcasts\": {}, \"delivered\": {}, \
                 \"unicast_hops\": {}, \"neighbor_queries\": {}, \"cells_scanned\": {}, \
                 \"matches\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}",
                r.nodes,
                r.wall_ms,
                r.metrics.broadcasts,
                r.metrics.delivered,
                r.metrics.unicast_hops,
                r.metrics.neighbor_queries,
                r.metrics.cells_scanned,
                s.matches,
                s.latency_percentile_us(0.5).unwrap_or(0),
                s.latency_percentile_us(0.9).unwrap_or(0),
                s.latency_percentile_us(0.99).unwrap_or(0),
            );
        }
        for q in &queries {
            println!(
                "{{\"bench\": \"fig8_swarm/query_speedup\", \"nodes\": {}, \"in_range\": {}, \
                 \"scan_us_per_query\": {:.3}, \"index_us_per_query\": {:.3}, \
                 \"naive_over_indexed\": {:.1}}}",
                q.nodes,
                q.in_range,
                q.scan_ms * 1e3 / q.nodes as f64,
                q.index_ms * 1e3 / q.nodes as f64,
                q.scan_ms / q.index_ms,
            );
        }
    } else {
        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                let s = &r.summary;
                let cells_per_query = if r.metrics.neighbor_queries > 0 {
                    r.metrics.cells_scanned as f64 / r.metrics.neighbor_queries as f64
                } else {
                    0.0
                };
                vec![
                    format!("{}", r.nodes),
                    fmt_ms(r.wall_ms),
                    format!("{}", r.metrics.broadcasts),
                    format!("{}", r.metrics.delivered),
                    format!("{}", r.metrics.unicast_hops),
                    format!("{}", s.matches),
                    format!(
                        "{} / {} / {}",
                        s.latency_percentile_us(0.5).unwrap_or(0),
                        s.latency_percentile_us(0.9).unwrap_or(0),
                        s.latency_percentile_us(0.99).unwrap_or(0),
                    ),
                    format!("{cells_per_query:.1}"),
                ]
            })
            .collect();
        print_table(
            "Fig. 8 (ext) — friending swarm scalability (1% matching, ~11 neighbors/node)",
            &[
                "Swarm",
                "Wall (ms)",
                "Broadcasts",
                "Delivered",
                "Unicast hops",
                "Matches",
                "Latency p50/p90/p99 (us)",
                "Cells/query",
            ],
            &rows,
        );
        let rows: Vec<Vec<String>> = queries
            .iter()
            .map(|q| {
                vec![
                    format!("{}", q.nodes),
                    format!("{:.3}", q.scan_ms * 1e3 / q.nodes as f64),
                    format!("{:.3}", q.index_ms * 1e3 / q.nodes as f64),
                    format!("{:.1}x", q.scan_ms / q.index_ms),
                ]
            })
            .collect();
        print_table(
            "Per-query range lookup: all-node scan vs grid index (one query per node)",
            &["Swarm", "Scan (us/query)", "Index (us/query)", "Speedup"],
            &rows,
        );
    }
}
