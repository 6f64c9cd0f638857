//! Golden engine digests: the event-dispatch behaviour of every engine
//! configuration, pinned to committed SHA-256 values.
//!
//! The shard differentials compare N engine cores against the
//! single-threaded `Simulator`, which proves everything specific to
//! sharding (partitioning, windows, handoff, envelope batching)
//! but not the dispatch both sides share: loss and latency draw order,
//! emission keys and `Metrics` accounting. This suite pins that dispatch to values recorded from
//! the reference event loop. Each scenario runs on `Simulator` and on
//! `ShardedSimulator` at 1, 2 and 4 shards, and every run must hash to
//! its scenario's one committed digest; each one-core run must also
//! reproduce the committed (unmasked) `peak_queue_len`.
//!
//! A digest is SHA-256 over an explicit little-endian encoding of the
//! run: per node, its delivery log and timer log (a `FriendingApp`'s
//! event log for the friending swarms); then every
//! `Metrics::without_queue_pressure()` field in declaration order;
//! then the final clock. The encoding is written out field by field
//! rather than taken from `{:?}` or `DefaultHasher`, whose output Rust
//! does not promise to keep stable.
//!
//! A mismatch means the engine's observable behaviour changed. The
//! failure message names the scenario, case, seed and engine, and
//! prints the digest the run produced.

use msb_bench::swarm::{build_churn_swarm, build_churn_swarm_sharded, drive_churn, ChurnSpec};
use sealed_bottle::core::app::RefloodPolicy;
use sealed_bottle::core::protocol::Parallelism;
use sealed_bottle::crypto::sha256::{to_hex, Sha256};
use sealed_bottle::net::mobility::{Bounds, RandomWaypoint};
use sealed_bottle::net::sim::{Metrics, NodeApp, NodeCtx, SchedulerMode};
use sealed_bottle::prelude::*;

/// Which engine runs a scenario.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// The single-threaded `Simulator`.
    Oracle,
    /// `ShardedSimulator` with this many shards.
    Sharded(usize),
}

const ENGINES: [Engine; 4] =
    [Engine::Oracle, Engine::Sharded(1), Engine::Sharded(2), Engine::Sharded(4)];

impl Engine {
    fn shards(self) -> usize {
        match self {
            Engine::Oracle => 1,
            Engine::Sharded(k) => k,
        }
    }

    fn label(self) -> String {
        match self {
            Engine::Oracle => "Simulator (1 shard)".to_string(),
            Engine::Sharded(k) => format!("ShardedSimulator ({k} shards)"),
        }
    }
}

/// The surface a scenario drives, implemented by both engines so each
/// scenario is written once.
trait Driven<A>: SimDriver {
    fn inject_bytes(&mut self, to: NodeId, from: NodeId, payload: Vec<u8>);
    fn node_app(&self, id: NodeId) -> &A;
    fn node_total(&self) -> usize;
    fn merged_metrics(&self) -> Metrics;
}

impl<A: NodeApp> Driven<A> for Simulator<A> {
    fn inject_bytes(&mut self, to: NodeId, from: NodeId, payload: Vec<u8>) {
        self.inject(to, from, payload);
    }
    fn node_app(&self, id: NodeId) -> &A {
        self.app(id)
    }
    fn node_total(&self) -> usize {
        self.node_count()
    }
    fn merged_metrics(&self) -> Metrics {
        *self.metrics()
    }
}

impl<A: NodeApp + Send> Driven<A> for ShardedSimulator<A> {
    fn inject_bytes(&mut self, to: NodeId, from: NodeId, payload: Vec<u8>) {
        self.inject(to, from, payload);
    }
    fn node_app(&self, id: NodeId) -> &A {
        self.app(id)
    }
    fn node_total(&self) -> usize {
        self.node_count()
    }
    fn merged_metrics(&self) -> Metrics {
        self.metrics()
    }
}

/// Explicit little-endian run encoding, hashed as it is written.
struct Encoder(Sha256);

impl Encoder {
    fn new() -> Self {
        Encoder(Sha256::new())
    }

    fn u8(&mut self, v: u8) {
        self.0.update(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.0.update(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Length-prefixed bytes.
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.update(b);
    }

    fn metrics(&mut self, m: &Metrics) {
        let m = m.without_queue_pressure();
        for v in [
            m.broadcasts,
            m.unicasts,
            m.unicast_hops,
            m.delivered,
            m.lost,
            m.unroutable,
            m.payload_bytes,
            m.neighbor_queries,
            m.cells_scanned,
            m.events_scheduled,
            m.peak_queue_len,
        ] {
            self.u64(v);
        }
    }

    fn event(&mut self, e: &AppEvent) {
        match e {
            AppEvent::RequestSent { request_id } => {
                self.u8(0);
                self.0.update(request_id);
            }
            AppEvent::Relayed { request_id } => {
                self.u8(1);
                self.0.update(request_id);
            }
            AppEvent::BecameCandidate { request_id, keys } => {
                self.u8(2);
                self.0.update(request_id);
                self.u64(*keys as u64);
            }
            AppEvent::ReplySent { request_id, acks } => {
                self.u8(3);
                self.0.update(request_id);
                self.u64(*acks as u64);
            }
            AppEvent::MatchConfirmed { responder, at_us } => {
                self.u8(4);
                self.u32(*responder);
                self.u64(*at_us);
            }
            AppEvent::ReplyRejected { responder } => {
                self.u8(5);
                self.u32(*responder);
            }
            AppEvent::Reflooded { request_id } => {
                self.u8(6);
                self.0.update(request_id);
            }
            AppEvent::RateLimited { from } => {
                self.u8(7);
                self.u32(*from);
            }
            // The diagnosis text is msb-wire's own `Display`, not a
            // derived format.
            AppEvent::DecodeFailed { error } => {
                self.u8(8);
                self.bytes(error.to_string().as_bytes());
            }
        }
    }

    fn finish(self) -> String {
        to_hex(&self.0.finalize())
    }
}

/// One run's digest and its unmasked queue high-water mark.
struct Run {
    digest: String,
    peak_queue_len: u64,
}

/// Encodes the per-node logs `log` writes, then the masked metrics and
/// the final clock.
fn seal<A, S: Driven<A> + ?Sized>(sim: &S, log: impl Fn(&mut Encoder, &A)) -> Run {
    let mut enc = Encoder::new();
    enc.u64(sim.node_total() as u64);
    for i in 0..sim.node_total() {
        log(&mut enc, sim.node_app(NodeId::new(i as u32)));
    }
    let metrics = sim.merged_metrics();
    enc.metrics(&metrics);
    enc.u64(sim.now_us());
    Run { digest: enc.finish(), peak_queue_len: metrics.peak_queue_len }
}

/// One committed expectation: a scenario case on one seed.
struct Golden {
    case: &'static str,
    seed: u64,
    digest: &'static str,
    /// `peak_queue_len` of the one-core runs (the sharded runs' peak is
    /// a max over per-shard queues and is not pinned).
    peak_queue_len: u64,
}

/// Runs every golden case on every engine and reports all mismatches.
fn check(scenario: &str, golden: &[Golden], run: impl Fn(&Golden, Engine) -> Run) {
    let mut failures = Vec::new();
    for g in golden {
        for engine in ENGINES {
            let r = run(g, engine);
            let at = format!(
                "scenario {scenario} case {} seed {:#x} on {}",
                g.case,
                g.seed,
                engine.label()
            );
            if r.digest != g.digest {
                failures.push(format!("{at}: digest {} != golden {}", r.digest, g.digest));
            }
            if engine.shards() == 1 && r.peak_queue_len != g.peak_queue_len {
                failures.push(format!(
                    "{at}: peak_queue_len {} != golden {}",
                    r.peak_queue_len, g.peak_queue_len
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "engine dispatch drifted from the golden digests:\n{}",
        failures.join("\n")
    );
}

// ---------------------------------------------------------------------
// The trace scenarios of the shard differential.
// ---------------------------------------------------------------------

/// One delivery record: (now_us, from, payload).
type TraceEntry = (u64, NodeId, Vec<u8>);

/// The shard differential's gossiping app: broadcasts, fan-out-capped
/// broadcasts, unicasts back to the origin, one-shot and recurring
/// timers, every observable logged per node.
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
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload) {
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

fn trace_log(enc: &mut Encoder, app: &TraceApp) {
    enc.u64(app.trace.len() as u64);
    for (at, from, payload) in &app.trace {
        enc.u64(*at);
        enc.u32(from.index() as u32);
        enc.bytes(payload);
    }
    enc.u64(app.timer_log.len() as u64);
    for &(at, token) in &app.timer_log {
        enc.u64(at);
        enc.u64(token);
    }
}

/// Loss 0.05 — the differential's config.
fn trace_config(engine: Engine) -> SimConfig {
    SimConfig { loss_rate: 0.05, shards: engine.shards(), ..SimConfig::default() }
}

fn on_engine<A: NodeApp + Send>(
    engine: Engine,
    config: SimConfig,
    seed: u64,
    nodes: Vec<((f64, f64), A)>,
    drive: impl FnOnce(&mut dyn Driven<A>) -> Run,
) -> Run {
    match engine {
        Engine::Oracle => {
            let mut sim = Simulator::new(config, seed);
            sim.add_nodes(nodes);
            drive(&mut sim)
        }
        Engine::Sharded(_) => {
            let mut sim = ShardedSimulator::new(config, seed);
            sim.add_nodes(nodes);
            drive(&mut sim)
        }
    }
}

/// The headline shard-differential trace: 28 nodes under random
/// waypoint mobility, three phases each ending in a mobility tick and
/// an injection into a (possibly remote) node, then a full drain.
fn run_trace(seed: u64, engine: Engine) -> Run {
    let n = 28usize;
    let mut mobility = RandomWaypoint::new(
        n,
        Bounds { width: 260.0, height: 260.0 },
        1.0,
        9.0,
        0.2,
        seed ^ 0x5eed,
    );
    let nodes = mobility.positions().into_iter().map(|p| (p, TraceApp::new())).collect();
    on_engine(engine, trace_config(engine), seed, nodes, |sim| {
        sim.start();
        let mut buf = Vec::new();
        for phase in 0..3u64 {
            sim.run_until((phase + 1) * 40_000);
            mobility.advance(5.0);
            mobility.positions_into(&mut buf);
            sim.set_positions(&buf);
            let poke = NodeId::new((phase as u32 * 7) % n as u32);
            sim.inject_bytes(poke, poke, vec![poke.index() as u8]);
        }
        sim.run();
        seal(&*sim, trace_log)
    })
}

/// The shard differential's seam oscillation: a chain just off a
/// lattice seam, mirror-flipped across it and crept along it at every
/// quiesce point, so every tick re-snaps every node into a new tile.
fn run_seam(seed: u64, engine: Engine) -> Run {
    let n = 16usize;
    let base: Vec<(f64, f64)> = (0..n).map(|i| (30.0 * i as f64, 24.0)).collect();
    let phases: Vec<Vec<(f64, f64)>> = (1..=4u64)
        .map(|phase| {
            base.iter()
                .map(|&(x, y)| (x + phase as f64 * 13.0, if phase % 2 == 1 { -y } else { y }))
                .collect()
        })
        .collect();
    let nodes = base.iter().map(|&p| (p, TraceApp::new())).collect();
    on_engine(engine, trace_config(engine), seed, nodes, |sim| {
        sim.start();
        for (i, positions) in phases.iter().enumerate() {
            sim.run_until((i as u64 + 1) * 40_000);
            sim.set_positions(positions);
        }
        sim.run();
        seal(&*sim, trace_log)
    })
}

// ---------------------------------------------------------------------
// Friending swarms.
// ---------------------------------------------------------------------

fn event_log(enc: &mut Encoder, app: &FriendingApp) {
    enc.u64(app.events.len() as u64);
    for e in &app.events {
        enc.event(e);
    }
}

/// `ChurnSpec::standard(600)`: island churn with re-flooding under
/// `InMemory` delivery, driven by the shared churn loop.
fn run_churn(engine: Engine) -> Run {
    let spec = ChurnSpec::standard(600, SchedulerMode::Calendar);
    match engine {
        Engine::Oracle => {
            let (mut sim, mut mobility) = build_churn_swarm(&spec);
            drive_churn(&mut sim, &mut mobility, &spec);
            seal(&sim, event_log)
        }
        Engine::Sharded(k) => {
            let spec = spec.with_shards(k);
            let (mut sim, mut mobility) = build_churn_swarm_sharded(&spec);
            drive_churn(&mut sim, &mut mobility, &spec);
            seal(&sim, event_log)
        }
    }
}

fn attr(c: &str, v: &str) -> Attribute {
    Attribute::new(c, v)
}

/// The telemetry differential's lossy-grid churn: an initiator, a 4×4
/// grid of participants and two matching responders under random
/// waypoint mobility, re-flooding with a fan-out cap, every message an
/// encoded frame.
fn run_grid(kind: ProtocolKind, engine: Engine) -> Run {
    let mut config = ProtocolConfig::new(kind, 11);
    config.parallelism = Parallelism::SEQUENTIAL;
    config.validity_us = 5_000_000;
    let sim_config = SimConfig {
        loss_rate: 0.02,
        delivery: DeliveryMode::EncodedFrames,
        shards: engine.shards(),
        ..SimConfig::default()
    };
    let request = RequestProfile::new(
        vec![attr("guild", "mapmakers")],
        vec![attr("i", "ink"), attr("i", "vellum"), attr("i", "stars")],
        2,
    )
    .unwrap();
    let noise = |i: usize| {
        Profile::from_attributes(vec![
            attr("hobby", &format!("h{i}")),
            attr("town", &format!("t{i}")),
        ])
    };
    let matching = Profile::from_attributes(vec![
        attr("guild", "mapmakers"),
        attr("i", "ink"),
        attr("i", "stars"),
    ]);
    let reflood = RefloodPolicy::every(400_000).with_fanout_cap(3);
    let mut positions: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut apps =
        vec![FriendingApp::initiator(noise(0), request, config.clone()).with_reflood(reflood)];
    for i in 0..16 {
        positions.push(((i % 4) as f64 * 35.0, (i / 4) as f64 * 35.0 + 35.0));
        apps.push(FriendingApp::participant(noise(i + 1), config.clone()).with_reflood(reflood));
    }
    for &pos in &[(165.0, 40.0), (165.0, 160.0)] {
        positions.push(pos);
        apps.push(
            FriendingApp::participant(matching.clone(), config.clone()).with_reflood(reflood),
        );
    }
    let mut mobility = RandomWaypoint::from_positions(
        positions.clone(),
        Bounds { width: 260.0, height: 200.0 },
        6.0,
        20.0,
        0.5,
        0x5eed,
    );
    let nodes = positions.into_iter().zip(apps).collect();
    on_engine(engine, sim_config, GRID_SEED, nodes, |sim| {
        sim.start();
        let mut buf = Vec::new();
        for tick in 1..=20u64 {
            sim.run_until(tick * 250_000);
            mobility.advance(0.25);
            mobility.positions_into(&mut buf);
            sim.set_positions(&buf);
        }
        sim.run();
        seal(&*sim, event_log)
    })
}

const GRID_SEED: u64 = 0xC0DEC;

#[test]
fn trace_scenario_matches_golden() {
    let golden = [
        Golden {
            case: "n28",
            seed: 1,
            digest: "8717e5cb1996b919d9faca2e358bc79d5be6fa4beae2c65ccf5d69c620a2e6f6",
            peak_queue_len: 207,
        },
        Golden {
            case: "n28",
            seed: 0xBEEF,
            digest: "e0fd54ce1ace8f95b4e34df64326b21a4a9cf8f49c97e31dd9914fb0ee36732f",
            peak_queue_len: 199,
        },
        Golden {
            case: "n28",
            seed: 42424242,
            digest: "c3dcd184f3d17f3da9d020f29aaba03ada677bec9bbb36aa96e26ec2bf9d4d09",
            peak_queue_len: 233,
        },
    ];
    check("shard-differential trace", &golden, |g, engine| run_trace(g.seed, engine));
}

#[test]
fn seam_oscillation_matches_golden() {
    let golden = [
        Golden {
            case: "n16",
            seed: 5,
            digest: "7ce5bf1eda76d6efb387a47350876ac11770db18dac3484ca329ae624f34777b",
            peak_queue_len: 33,
        },
        Golden {
            case: "n16",
            seed: 0x5EA7,
            digest: "b740fb6c7b517e02dbebdff9cf1425a4f787883d32e4baedaf8487106bbbe944",
            peak_queue_len: 33,
        },
    ];
    check("seam oscillation", &golden, |g, engine| run_seam(g.seed, engine));
}

#[test]
fn standard_churn_matches_golden() {
    let seed = ChurnSpec::standard(600, SchedulerMode::Calendar).seed;
    let golden = [Golden {
        case: "standard(600) InMemory",
        seed,
        digest: "76a4e1207471baf3053ea3efbb4e32cc67d19a438352394a789511e37275c543",
        peak_queue_len: 1530,
    }];
    check("island churn", &golden, |_, engine| run_churn(engine));
}

#[test]
fn lossy_grid_churn_matches_golden() {
    let golden = [
        Golden {
            case: "P1 EncodedFrames",
            seed: GRID_SEED,
            digest: "ae2ed2cc9f02f032da73ebe8ce679a3c3625c37410d39708e7384ae139c9d5d1",
            peak_queue_len: 56,
        },
        Golden {
            case: "P2 EncodedFrames",
            seed: GRID_SEED,
            digest: "f97b89225b037fcb6edb932df9d190dd6a3c5d6751800b10d8e6b1ba3097204b",
            peak_queue_len: 56,
        },
        Golden {
            case: "P3 EncodedFrames",
            seed: GRID_SEED,
            digest: "ccc994b6db35688237e846ec419295423001cac6b255f18b098dfc3979417847",
            peak_queue_len: 56,
        },
    ];
    check("lossy-grid churn", &golden, |g, engine| {
        let kind = match &g.case[..2] {
            "P1" => ProtocolKind::P1,
            "P2" => ProtocolKind::P2,
            _ => ProtocolKind::P3,
        };
        run_grid(kind, engine)
    });
}
