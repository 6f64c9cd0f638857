//! Differential oracle: the spatially-sharded engine against the
//! single-threaded simulator.
//!
//! The shard contract is *bit identity* (see `docs/SIM.md` §6): for
//! any shard count, [`ShardedSimulator`] must deliver the same
//! messages at the same instants in the same order, fire the same
//! timers, merge to the same [`Metrics`] (modulo `peak_queue_len`,
//! which is per-queue depth and therefore legitimately shard-count
//! dependent), and stop at the same final clock as [`Simulator`]. The
//! suite attacks the seams where the conservative-lookahead design
//! could leak nondeterminism:
//!
//! * broadcast radii straddling cells owned by different shards (every
//!   hop is a cross-shard envelope);
//! * mid-run [`ShardedSimulator::inject`] into a node homed on a
//!   remote shard;
//! * mobility handoffs — a node with live recurring timers re-homed
//!   across shards at a quiesce point, its queued events in tow;
//! * same-instant ties between events processed by different shards;
//! * random traces over node count × seed × shard count, property
//!   tested.

use msb_net::mobility::{Bounds, RandomWaypoint};
use msb_net::shard::ShardedSimulator;
use msb_net::sim::{Metrics, NodeApp, NodeCtx, NodeId, SimConfig, SimDriver, Simulator};
use proptest::prelude::*;

/// One delivery record: (now_us, from, payload).
type TraceEntry = (u64, NodeId, Vec<u8>);

/// A gossiping app exercising every engine-visible feature: plain
/// broadcasts, fan-out-capped broadcasts, unicasts back to the origin,
/// one-shot timers, and recurring timers (the re-flood shape). Every
/// observable lands in per-node logs the differential compares.
struct TraceApp {
    trace: Vec<TraceEntry>,
    timer_log: Vec<(u64, u64)>,
}

impl TraceApp {
    fn new() -> Self {
        TraceApp { trace: Vec::new(), timer_log: Vec::new() }
    }
}

impl NodeApp for TraceApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let idx = ctx.node_id().index();
        if idx.is_multiple_of(4) {
            ctx.broadcast(vec![idx as u8]);
            ctx.set_recurring_timer(25_000, 25_000, 120_000, idx as u64);
        }
        if idx.is_multiple_of(5) {
            ctx.set_timer(40_000, 1_000 + idx as u64);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &msb_net::Payload) {
        let payload = payload.as_bytes().expect("test payloads are bytes");
        self.trace.push((ctx.now_us(), from, payload.to_vec()));
        if payload.len() < 3 {
            let mut p = payload.to_vec();
            p.push(ctx.node_id().index() as u8);
            ctx.broadcast_k_nearest(4, p);
        } else if payload.len() == 3 {
            let origin = NodeId::new(payload[0] as u32);
            if origin != ctx.node_id() {
                ctx.unicast(origin, payload.to_vec());
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.timer_log.push((ctx.now_us(), token));
        if token < 1_000 {
            ctx.broadcast_k_nearest(3, vec![token as u8]);
        }
    }
}

/// Per-node delivery traces, per-node timer logs, masked metrics
/// (`peak_queue_len` zeroed — per-queue depth is the one legitimately
/// shard-dependent observable), final clock.
type Outcome = (Vec<Vec<TraceEntry>>, Vec<Vec<(u64, u64)>>, Metrics, u64);

fn config(shards: usize) -> SimConfig {
    SimConfig { loss_rate: 0.05, shards, ..SimConfig::default() }
}

/// Runs the trace scenario on one engine; `shards == 0` selects the
/// single-threaded oracle, otherwise the sharded engine at that count.
/// The phase loop is duplicated per engine because `inject` is
/// inherent, not on [`SimDriver`] — everything else is shared code.
fn run_trace(shards: usize, seed: u64, n: usize) -> Outcome {
    run_trace_opts(shards, seed, n, 1)
}

/// [`run_trace`] with the sharded engine's speed knob exposed: the
/// shard-partition region size, which must be invisible in every
/// observable.
fn run_trace_opts(shards: usize, seed: u64, n: usize, region_tiles: usize) -> Outcome {
    let mut mobility = RandomWaypoint::new(
        n,
        Bounds { width: 260.0, height: 260.0 },
        1.0,
        9.0,
        0.2,
        seed ^ 0x5eed,
    );
    let placed: Vec<((f64, f64), TraceApp)> =
        mobility.positions().into_iter().map(|p| (p, TraceApp::new())).collect();

    if shards == 0 {
        let mut sim = Simulator::new(config(1), seed);
        sim.add_nodes(placed);
        sim.start();
        let mut buf = Vec::new();
        for phase in 0..3u64 {
            sim.run_until((phase + 1) * 40_000);
            mobility.advance(5.0);
            mobility.positions_into(&mut buf);
            sim.set_positions(&buf);
            let poke = NodeId::new((phase as u32 * 7) % n as u32);
            sim.inject(poke, poke, vec![poke.index() as u8]);
        }
        sim.run();
        let traces =
            (0..n).map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace)).collect();
        let timers = (0..n)
            .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).timer_log))
            .collect();
        (traces, timers, sim.metrics().without_queue_pressure(), sim.now_us())
    } else {
        let mut cfg = config(shards);
        cfg.region_tiles = region_tiles;
        let mut sim = ShardedSimulator::new(cfg, seed);
        sim.add_nodes(placed);
        sim.start();
        let mut buf = Vec::new();
        for phase in 0..3u64 {
            sim.run_until((phase + 1) * 40_000);
            mobility.advance(5.0);
            mobility.positions_into(&mut buf);
            sim.set_positions(&buf);
            let poke = NodeId::new((phase as u32 * 7) % n as u32);
            sim.inject(poke, poke, vec![poke.index() as u8]);
        }
        sim.run();
        let traces =
            (0..n).map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace)).collect();
        let timers = (0..n)
            .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).timer_log))
            .collect();
        (traces, timers, sim.metrics().without_queue_pressure(), sim.now_us())
    }
}

/// The headline differential: full mobility traces with mid-run remote
/// injection, across shard counts and seeds. Every observable must
/// match the oracle exactly.
#[test]
fn sharded_traces_bit_identical_to_oracle() {
    for seed in [1u64, 0xBEEF, 42424242] {
        let oracle = run_trace(0, seed, 28);
        for shards in [2usize, 4, 8] {
            let sharded = run_trace(shards, seed, 28);
            assert_eq!(sharded.0, oracle.0, "seed {seed} shards {shards}: traces diverged");
            assert_eq!(sharded.1, oracle.1, "seed {seed} shards {shards}: timer logs diverged");
            assert_eq!(sharded.2, oracle.2, "seed {seed} shards {shards}: metrics diverged");
            assert_eq!(sharded.3, oracle.3, "seed {seed} shards {shards}: final clock diverged");
        }
        assert!(
            oracle.0.iter().any(|t| !t.is_empty()),
            "seed {seed}: the scenario must actually deliver messages"
        );
    }
}

/// A chain of nodes spaced under the radio range marches across many
/// grid cells, so consecutive hops keep landing on different shards:
/// every broadcast is a cross-shard envelope and the flood order is
/// fully exposed to the lookahead windows.
#[test]
fn tile_straddling_chain_floods_identically() {
    let n = 24usize;
    // 30 m spacing at 50 m range: each node hears its immediate
    // neighbors only; the chain spans ~700 m — many cells.
    let positions: Vec<(f64, f64)> = (0..n).map(|i| (30.0 * i as f64, 25.0)).collect();
    let run = |shards: usize| {
        let cfg = SimConfig { loss_rate: 0.0, shards, ..SimConfig::default() };
        if shards == 1 {
            let mut sim = Simulator::new(cfg, 9);
            sim.add_nodes(positions.iter().map(|&p| (p, TraceApp::new())));
            sim.start();
            sim.run();
            let traces: Vec<Vec<TraceEntry>> = (0..n)
                .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace))
                .collect();
            (traces, sim.metrics().without_queue_pressure(), sim.now_us())
        } else {
            let mut sim = ShardedSimulator::new(cfg, 9);
            sim.add_nodes(positions.iter().map(|&p| (p, TraceApp::new())));
            assert!(
                sim.shard_node_counts().iter().filter(|&&c| c > 0).count() > 1,
                "the chain must span multiple shards: {:?}",
                sim.shard_node_counts()
            );
            sim.start();
            sim.run();
            let traces: Vec<Vec<TraceEntry>> = (0..n)
                .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace))
                .collect();
            (traces, sim.metrics().without_queue_pressure(), sim.now_us())
        }
    };
    let oracle = run(1);
    for shards in [2usize, 4, 8] {
        assert_eq!(run(shards), oracle, "shards {shards} diverged on the tile-straddling chain");
    }
    assert!(oracle.0.iter().all(|t| !t.is_empty()), "the flood must reach the whole chain");
}

/// Fires a recurring timer on node 0 (plus a far-future one-shot) and
/// broadcasts on every firing, logging each one.
struct Ticker {
    log: Vec<(u64, u64)>,
}

impl NodeApp for Ticker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.node_id().index() == 0 {
            // Fires every 10 ms across every handoff below.
            ctx.set_recurring_timer(10_000, 10_000, 400_000, 7);
            // Plus a far-future one-shot that must survive re-homing.
            ctx.set_timer(350_000, 99);
        }
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &msb_net::Payload) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.log.push((ctx.now_us(), token));
        ctx.broadcast(vec![token as u8]);
    }
}

/// Node 0 walks 600 m in 120 m steps — through many tiles — while
/// three bystanders listen from fixed posts along the way.
const WALK_STEPS: usize = 6;
const POSTS: [(f64, f64); 3] = [(100.0, 60.0), (300.0, 60.0), (500.0, 60.0)];

fn walk(step: usize) -> (f64, f64) {
    (step as f64 * 120.0, 40.0)
}

/// Node 0's timer log, masked metrics and final clock.
type TickerOutcome = (Vec<(u64, u64)>, Metrics, u64);

/// The walk on one engine (`shards == 1` is the oracle). `single`
/// moves node 0 alone with `set_position` at each quiesce point;
/// otherwise every node is re-placed with `set_positions`.
fn run_walk(shards: usize, single: bool) -> TickerOutcome {
    let cfg = SimConfig { loss_rate: 0.0, shards, ..SimConfig::default() };
    let nodes = || std::iter::once(walk(0)).chain(POSTS).map(|p| (p, Ticker { log: Vec::new() }));
    let bulk = |step: usize| {
        let mut positions = vec![walk(step)];
        positions.extend(POSTS);
        positions
    };
    if shards == 1 {
        let mut sim = Simulator::new(cfg, 11);
        sim.add_nodes(nodes());
        sim.start();
        for step in 0..WALK_STEPS {
            sim.run_until(60_000 * (step as u64 + 1));
            if single {
                sim.set_position(NodeId::new(0), walk(step));
            } else {
                sim.set_positions(&bulk(step));
            }
        }
        sim.run();
        let log = std::mem::take(&mut sim.app_mut(NodeId::new(0)).log);
        (log, sim.metrics().without_queue_pressure(), sim.now_us())
    } else {
        let mut sim = ShardedSimulator::new(cfg, 11);
        sim.add_nodes(nodes());
        sim.start();
        for step in 0..WALK_STEPS {
            sim.run_until(60_000 * (step as u64 + 1));
            if single {
                sim.set_position(NodeId::new(0), walk(step));
            } else {
                sim.set_positions(&bulk(step));
            }
        }
        sim.run();
        let log = std::mem::take(&mut sim.app_mut(NodeId::new(0)).log);
        (log, sim.metrics().without_queue_pressure(), sim.now_us())
    }
}

/// A node carrying a live recurring timer is re-homed across shards at
/// a quiesce point: its queued events must move with it and keep
/// firing exactly as the oracle's do.
#[test]
fn handoff_carries_queued_timers_across_shards() {
    let oracle = run_walk(1, false);
    // 40 recurring firings + the far-future one-shot, all preserved
    // across every re-homing.
    assert_eq!(oracle.0.len(), 41, "oracle timer count: {:?}", oracle.0.len());
    for shards in [2usize, 4, 8] {
        assert_eq!(
            run_walk(shards, false),
            oracle,
            "shards {shards}: handoff broke the timer stream"
        );
    }
}

/// The same walk with node 0 moved alone by `set_position`: a single
/// move must hand the node and its queued timers off exactly like the
/// bulk mobility tick does.
#[test]
fn single_node_move_carries_queued_timers_across_shards() {
    let oracle = run_walk(1, false);
    assert_eq!(run_walk(1, true), oracle, "the oracle's single move diverged from its bulk move");
    for shards in [2usize, 4, 8] {
        assert_eq!(run_walk(shards, true), oracle, "shards {shards}: single-node handoff diverged");
    }
}

/// `inject` into a node homed on a remote shard, while the run is hot:
/// the external event must land at the same instant and order as the
/// oracle's (external keys sort after node events at the same instant).
#[test]
fn remote_injection_lands_identically() {
    let n = 12usize;
    let positions: Vec<(f64, f64)> = (0..n).map(|i| (40.0 * i as f64, 10.0)).collect();
    let run = |shards: usize| {
        let cfg = SimConfig { loss_rate: 0.0, shards, ..SimConfig::default() };
        if shards == 1 {
            let mut sim = Simulator::new(cfg, 13);
            sim.add_nodes(positions.iter().map(|&p| (p, TraceApp::new())));
            sim.start();
            sim.run_until(20_000);
            for i in 0..n {
                sim.inject(NodeId::new(i as u32), NodeId::new(0), vec![i as u8]);
            }
            sim.run();
            let traces: Vec<Vec<TraceEntry>> = (0..n)
                .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace))
                .collect();
            (traces, sim.metrics().without_queue_pressure(), sim.now_us())
        } else {
            let mut sim = ShardedSimulator::new(cfg, 13);
            sim.add_nodes(positions.iter().map(|&p| (p, TraceApp::new())));
            sim.start();
            sim.run_until(20_000);
            for i in 0..n {
                sim.inject(NodeId::new(i as u32), NodeId::new(0), vec![i as u8]);
            }
            sim.run();
            let traces: Vec<Vec<TraceEntry>> = (0..n)
                .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace))
                .collect();
            (traces, sim.metrics().without_queue_pressure(), sim.now_us())
        }
    };
    let oracle = run(1);
    assert!(oracle.0.iter().any(|t| !t.is_empty()));
    for shards in [2usize, 3, 4, 8] {
        assert_eq!(run(shards), oracle, "shards {shards}: remote injection diverged");
    }
}

/// More worker cores than nodes: shards beyond the population stay idle
/// without perturbing anything.
#[test]
fn more_shards_than_nodes_is_harmless() {
    let positions = [(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)];
    let oracle = {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        sim.add_nodes(positions.iter().map(|&p| (p, TraceApp::new())));
        sim.start();
        sim.run();
        (sim.metrics().without_queue_pressure(), sim.now_us())
    };
    let mut sim = ShardedSimulator::new(SimConfig { shards: 8, ..SimConfig::default() }, 5);
    sim.add_nodes(positions.iter().map(|&p| (p, TraceApp::new())));
    sim.start();
    sim.run();
    assert_eq!((sim.metrics().without_queue_pressure(), sim.now_us()), oracle);
}

/// Cross-shard envelope batching (one coalesced, bulk-sorted transfer
/// per (window, destination) pair) must match the oracle in every
/// observable. Content-derived event keys make transfer grouping
/// invisible; this pins it.
#[test]
fn envelope_batching_is_trace_invisible() {
    for seed in [2u64, 0xABCD] {
        for shards in [2usize, 4] {
            let oracle = run_trace(0, seed, 24);
            let batched = run_trace_opts(shards, seed, 24, 1);
            assert_eq!(batched, oracle, "seed {seed} shards {shards}: diverged from the oracle");
        }
    }
}

/// The seam scenario behind the seam-oscillation proptest: a chain of
/// nodes sitting just off a cell seam (the grid line y = 0),
/// mirror-flipped across it (and crept along it) at every quiesce
/// point, so each mobility tick moves every node into a different
/// cell — and, at small region
/// sizes, onto a different shard, queued recurring timers in tow.
/// Every flip re-buckets every node in the shared spatial index *and*
/// forces a mass handoff; the outcome must still be the oracle's, bit
/// for bit.
fn run_seam(shards: usize, seed: u64, n: usize, region_tiles: usize) -> Outcome {
    let base: Vec<(f64, f64)> = (0..n).map(|i| (30.0 * i as f64, 24.0)).collect();
    let phases: Vec<Vec<(f64, f64)>> = (1..=4u64)
        .map(|phase| {
            base.iter()
                .map(|&(x, y)| (x + phase as f64 * 13.0, if phase % 2 == 1 { -y } else { y }))
                .collect()
        })
        .collect();
    let drive = |sim: &mut dyn SimDriver| {
        sim.start();
        for (i, positions) in phases.iter().enumerate() {
            sim.run_until((i as u64 + 1) * 40_000);
            sim.set_positions(positions);
        }
        sim.run();
    };
    if shards == 0 {
        let mut sim = Simulator::new(config(1), seed);
        sim.add_nodes(base.iter().map(|&p| (p, TraceApp::new())));
        drive(&mut sim);
        let traces =
            (0..n).map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace)).collect();
        let timers = (0..n)
            .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).timer_log))
            .collect();
        (traces, timers, sim.metrics().without_queue_pressure(), sim.now_us())
    } else {
        let mut cfg = config(shards);
        cfg.region_tiles = region_tiles;
        let mut sim = ShardedSimulator::new(cfg, seed);
        sim.add_nodes(base.iter().map(|&p| (p, TraceApp::new())));
        drive(&mut sim);
        let traces =
            (0..n).map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace)).collect();
        let timers = (0..n)
            .map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).timer_log))
            .collect();
        (traces, timers, sim.metrics().without_queue_pressure(), sim.now_us())
    }
}

proptest! {
    /// Random scenarios over population × seed × shard count ×
    /// partition-region size: the sharded engine is the oracle's
    /// bit-identical twin everywhere, not just on the hand-picked
    /// seams above.
    #[test]
    fn random_scenarios_match_the_oracle(
        seed in any::<u64>(),
        n in 6usize..30,
        shard_sel in 0usize..3,
        region in 1usize..5,
    ) {
        let shards = [2usize, 4, 8][shard_sel];
        let oracle = run_trace(0, seed, n);
        let sharded = run_trace_opts(shards, seed, n, region);
        prop_assert_eq!(&sharded.0, &oracle.0, "traces diverged: seed {} n {} shards {}", seed, n, shards);
        prop_assert_eq!(&sharded.1, &oracle.1, "timer logs diverged: seed {} n {} shards {}", seed, n, shards);
        prop_assert_eq!(sharded.2, oracle.2, "metrics diverged: seed {} n {} shards {}", seed, n, shards);
        prop_assert_eq!(sharded.3, oracle.3, "clock diverged: seed {} n {} shards {}", seed, n, shards);
    }

    /// Mass re-bucketing and handoff at cell seams: mirror-flip
    /// oscillation across a cell seam at every quiesce point (see
    /// [`run_seam`]), swept over shard counts and region sizes.
    #[test]
    fn seam_oscillation_matches_the_oracle(
        seed in any::<u64>(),
        n in 6usize..24,
        shard_sel in 0usize..3,
        region in 1usize..6,
    ) {
        let shards = [2usize, 4, 8][shard_sel];
        let oracle = run_seam(0, seed, n, 1);
        let sharded = run_seam(shards, seed, n, region);
        prop_assert_eq!(&sharded.0, &oracle.0, "traces diverged: seed {} n {} shards {} region {}", seed, n, shards, region);
        prop_assert_eq!(&sharded.1, &oracle.1, "timer logs diverged: seed {} n {} shards {} region {}", seed, n, shards, region);
        prop_assert_eq!(sharded.2, oracle.2, "metrics diverged: seed {} n {} shards {} region {}", seed, n, shards, region);
        prop_assert_eq!(sharded.3, oracle.3, "clock diverged: seed {} n {} shards {} region {}", seed, n, shards, region);
    }
}
