//! Figure 10 (extension) — sharded-engine scalability under churn:
//! re-flooding friending swarms at 10k / 50k / 200k nodes, each size
//! executed on the spatially-sharded engine at 1 / 2 / 4 / 8 worker
//! cores plus the single-threaded oracle. Every shard count is
//! bit-identical to the oracle (matches, event totals, final clock,
//! merged metrics modulo per-queue depth), asserted per size before
//! anything is printed — so the comparison is pure engine cost.
//!
//! Each run executes the standard churn scenario
//! ([`msb_bench::swarm::ChurnSpec`]): nodes start on 3 islands whose
//! gaps exceed the radio range, roam under random-waypoint mobility,
//! and re-broadcast carried requests every 5 s (fan-out capped to the
//! 8 nearest) until the request expires at the 40 s horizon. Reported
//! per run: wall-clock, total and per-shard event counts, per-shard
//! node counts, messages, match count — and for sharded rows the
//! memory split: `bytes_per_node` (the largest shard's resident engine
//! bytes — its node-state arena — over the swarm size, which *drops*
//! as shards are added because each core holds only the nodes it
//! owns), the shared global topology's bytes (held once, whatever the
//! shard count), and the cross-shard envelope-batching counters
//! (`batch.envelopes` over `batch.sends` = envelopes moved per
//! coalesced transfer).
//!
//! Regenerate with
//! `cargo run -p msb-bench --release --bin fig10_shards`; `--json`
//! emits `BENCH_BASELINE.json` rows instead of the table. `--sizes
//! 1000,5000` and `--shards 1,4` override the sweeps (the 200k default
//! is slow on laptops), `--duration 5` shortens the scenario horizon,
//! and `--no-oracle` skips the single-threaded reference run — the
//! million-node row is
//! `--sizes 1000000 --shards 8 --duration 5 --no-oracle`, which would
//! otherwise pay for the oracle twice. Sharded rows run with telemetry
//! enabled (that's where the batching counters live); telemetry is
//! differentially proven not to change any simulated outcome.
//! Wall-clock speedups need real cores: on a single-core container the
//! sharded rows measure synchronization overhead, not parallelism —
//! the determinism assertions are the point there.

use msb_bench::swarm::{build_churn_swarm, build_churn_swarm_sharded, drive_churn, ChurnSpec};
use msb_bench::{fmt_ms, print_table, time_once};
use msb_core::app::SwarmSummary;
use msb_net::sim::{Metrics, SchedulerMode};

const SIZES: [usize; 3] = [10_000, 50_000, 200_000];
const SHARDS: [usize; 4] = [1, 2, 4, 8];

struct RunResult {
    nodes: usize,
    /// `None` is the single-threaded oracle; `Some(s)` the sharded
    /// engine at `s` worker cores.
    shards: Option<usize>,
    wall_ms: f64,
    clock_us: u64,
    metrics: Metrics,
    shard_events: Vec<u64>,
    shard_nodes: Vec<usize>,
    /// Largest per-shard resident engine bytes (the node arena); 0 for
    /// the oracle, whose footprint is the one global topology.
    resident_shard_max: u64,
    /// Resident bytes of the shared global topology snapshot.
    shared_topo_bytes: u64,
    /// Total cross-shard envelopes moved / coalesced transfers made.
    batch_envelopes: u64,
    batch_sends: u64,
    summary: SwarmSummary,
}

fn spec_for(n: usize, duration_s: Option<u64>) -> ChurnSpec {
    let spec = ChurnSpec::standard(n, SchedulerMode::Calendar);
    match duration_s {
        Some(d) => spec.with_duration(d),
        None => spec,
    }
}

fn run_oracle(n: usize, duration_s: Option<u64>) -> RunResult {
    let spec = spec_for(n, duration_s);
    let (mut sim, mut mobility) = build_churn_swarm(&spec);
    let (_, wall_ms) = time_once(|| drive_churn(&mut sim, &mut mobility, &spec));
    RunResult {
        nodes: n,
        shards: None,
        wall_ms,
        clock_us: sim.now_us(),
        metrics: *sim.metrics(),
        shard_events: vec![sim.metrics().events_scheduled],
        shard_nodes: vec![n],
        resident_shard_max: 0,
        shared_topo_bytes: 0,
        batch_envelopes: 0,
        batch_sends: 0,
        summary: SwarmSummary::collect(&sim),
    }
}

fn run_sharded(n: usize, shards: usize, duration_s: Option<u64>) -> RunResult {
    let spec = spec_for(n, duration_s).with_shards(shards);
    let (mut sim, mut mobility) = build_churn_swarm_sharded(&spec);
    sim.enable_telemetry(128);
    let (_, wall_ms) = time_once(|| drive_churn(&mut sim, &mut mobility, &spec));
    let recorder = sim.telemetry();
    RunResult {
        nodes: n,
        shards: Some(shards),
        wall_ms,
        clock_us: sim.now_us(),
        metrics: sim.metrics(),
        shard_events: sim.shard_metrics().iter().map(|m| m.events_scheduled).collect(),
        shard_nodes: sim.shard_node_counts(),
        resident_shard_max: sim.shard_resident_bytes().into_iter().max().unwrap_or(0),
        shared_topo_bytes: sim.shared_topology_bytes(),
        batch_envelopes: recorder.metrics().counter_total("batch.envelopes"),
        batch_sends: recorder.metrics().counter_total("batch.sends"),
        summary: SwarmSummary::collect_sharded(&sim),
    }
}

fn parse_list(args: &[String], flag: &str) -> Option<Vec<usize>> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} takes comma-separated counts"))
            .split(',')
            .map(|s| s.parse().unwrap_or_else(|_| panic!("{flag} takes comma-separated counts")))
            .collect()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let no_oracle = args.iter().any(|a| a == "--no-oracle");
    let sizes = parse_list(&args, "--sizes").unwrap_or_else(|| SIZES.to_vec());
    let shard_counts = parse_list(&args, "--shards").unwrap_or_else(|| SHARDS.to_vec());
    let duration_s = parse_list(&args, "--duration").map(|v| v[0] as u64);

    let mut results: Vec<RunResult> = Vec::new();
    for &n in &sizes {
        let oracle = (!no_oracle).then(|| run_oracle(n, duration_s));
        for &s in &shard_counts {
            let sharded = run_sharded(n, s, duration_s);
            if let Some(oracle) = &oracle {
                // The shard contract (docs/SIM.md §6): every shard count
                // is bit-identical to the single-threaded oracle.
                // peak_queue_len is per-queue depth — the one
                // legitimately shard-count-dependent observable — and is
                // masked.
                assert_eq!(
                    sharded.metrics.without_queue_pressure(),
                    oracle.metrics.without_queue_pressure(),
                    "n={n} shards={s}: metrics diverged — shard contract broken"
                );
                assert_eq!(
                    sharded.summary, oracle.summary,
                    "n={n} shards={s}: app outcomes diverged — shard contract broken"
                );
                assert_eq!(
                    sharded.clock_us, oracle.clock_us,
                    "n={n} shards={s}: final clocks diverged — shard contract broken"
                );
            }
            // A `--duration`-shortened horizon may legitimately end
            // before any match confirms; only the standard 40 s
            // scenario promises them.
            if duration_s.is_none() {
                assert!(sharded.summary.matches > 0, "n={n}: churn scenario produced no matches");
            }
            results.push(sharded);
        }
        if let Some(oracle) = oracle {
            results.push(oracle);
        }
    }

    let engine_name = |r: &RunResult| match r.shards {
        None => "oracle".to_string(),
        Some(s) => format!("sharded x{s}"),
    };
    let bytes_per_node = |r: &RunResult| r.resident_shard_max as f64 / r.nodes as f64;
    if json {
        for r in &results {
            let per_shard: Vec<String> = r.shard_events.iter().map(u64::to_string).collect();
            println!(
                "{{\"bench\": \"fig10_shards\", \"engine\": \"{}\", \"shards\": {}, \
                 \"nodes\": {}, \"wall_ms\": {:.1}, \"events_scheduled\": {}, \
                 \"shard_events\": [{}], \"delivered\": {}, \"matches\": {}, \
                 \"bytes_per_node\": {:.1}, \"resident_shard_max\": {}, \
                 \"shared_topo_bytes\": {}, \"batch_envelopes\": {}, \"batch_sends\": {}}}",
                engine_name(r),
                r.shards.unwrap_or(1),
                r.nodes,
                r.wall_ms,
                r.metrics.events_scheduled,
                per_shard.join(", "),
                r.metrics.delivered,
                r.summary.matches,
                bytes_per_node(r),
                r.resident_shard_max,
                r.shared_topo_bytes,
                r.batch_envelopes,
                r.batch_sends,
            );
        }
    } else {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                let batching = if r.batch_sends > 0 {
                    format!(
                        "{} env / {} sends ({:.0}x)",
                        r.batch_envelopes,
                        r.batch_sends,
                        r.batch_envelopes as f64 / r.batch_sends as f64
                    )
                } else {
                    "-".to_string()
                };
                vec![
                    format!("{} ({})", r.nodes, engine_name(r)),
                    fmt_ms(r.wall_ms),
                    format!("{}", r.metrics.events_scheduled),
                    format!("{:?}", r.shard_nodes),
                    if r.shards.is_some() {
                        format!("{:.0}", bytes_per_node(r))
                    } else {
                        "-".to_string()
                    },
                    batching,
                    format!("{}", r.summary.matches),
                ]
            })
            .collect();
        print_table(
            "Fig. 10 (ext) — sharded churn swarms (3 islands, 5 s re-flood, 40 s horizon)",
            &[
                "Swarm",
                "Wall (ms)",
                "Events",
                "Per-shard nodes",
                "B/node (max shard)",
                "Envelope batching",
                "Matches",
            ],
            &rows,
        );
        if no_oracle {
            println!("oracle comparison skipped (--no-oracle)");
        } else {
            println!(
                "every sharded row is asserted bit-identical to its oracle \
                 (metrics modulo peak_queue_len, matches, final clock)"
            );
        }
    }
}
