//! Simulator determinism guards for the parallel responder path.
//!
//! The event queue orders by `(time, (source, emission))` content keys
//! and all randomness flows from per-node RNG streams derived from one
//! seed (`docs/SIM.md` §1), so a run is a pure function of `(seed,
//! SimConfig, apps)`. Responder parallelism must not perturb that: the
//! parallel enumeration is bit-identical to the sequential one and draws
//! no randomness, so the same seed and the same `SimConfig` must produce
//! identical `Metrics` — and identical confirmed matches — for every
//! thread count. Neither may the shard count: a same-instant burst of
//! requests is handled one message at a time on every engine.

use sealed_bottle::core::protocol::Parallelism;
use sealed_bottle::net::sim::Metrics;
use sealed_bottle::prelude::*;

fn attr(c: &str, v: &str) -> Attribute {
    Attribute::new(c, v)
}

fn request() -> RequestProfile {
    RequestProfile::new(
        vec![attr("craft", "glassblowing")],
        vec![attr("i", "sand"), attr("i", "fire"), attr("i", "breath")],
        2,
    )
    .unwrap()
}

fn matching_profile() -> Profile {
    Profile::from_attributes(vec![
        attr("craft", "glassblowing"),
        attr("i", "sand"),
        attr("i", "fire"),
    ])
}

fn noise(i: usize) -> Profile {
    Profile::from_attributes(vec![attr("hobby", &format!("h{i}")), attr("town", &format!("t{i}"))])
}

/// A lossy 4×4 grid with two matching users several hops out.
fn run(parallelism: Parallelism) -> (Metrics, u64, Vec<ConfirmedMatch>) {
    let mut config = ProtocolConfig::new(ProtocolKind::P2, 11);
    config.parallelism = parallelism;
    let sim_config = SimConfig { loss_rate: 0.02, ..SimConfig::default() };
    let mut sim = Simulator::new(sim_config, 0xD57E);
    sim.add_node((0.0, 0.0), FriendingApp::initiator(noise(0), request(), config.clone()));
    for i in 0..16 {
        let pos = ((i % 4) as f64 * 35.0, (i / 4) as f64 * 35.0 + 35.0);
        sim.add_node(pos, FriendingApp::participant(noise(i + 1), config.clone()));
    }
    sim.add_node((35.0, 175.0), FriendingApp::participant(matching_profile(), config.clone()));
    sim.add_node((105.0, 175.0), FriendingApp::participant(matching_profile(), config.clone()));
    sim.start();
    sim.run();
    let matches = sim.app(NodeId::new(0)).matches().to_vec();
    (*sim.metrics(), sim.now_us(), matches)
}

/// Same seed + same `SimConfig` ⇒ identical `Metrics` (and matches, and
/// final clock) regardless of responder parallelism.
#[test]
fn metrics_independent_of_responder_parallelism() {
    let reference = run(Parallelism::SEQUENTIAL);
    assert!(!reference.2.is_empty(), "the matching users must be found");
    for threads in [2usize, 4, 8] {
        let other = run(Parallelism::new(threads));
        assert_eq!(other, reference, "threads={threads}: run diverged");
    }
}

/// The candidate's observables in the burst scenario: its event log
/// and the `(x, y)` of every session it gambled.
type BurstOutcome = (Vec<AppEvent>, Vec<([u8; 32], [u8; 32])>);

/// Runs the burst scenario on `Simulator` (`shards == 0`) or on
/// `ShardedSimulator` at that shard count, with `threads` responder
/// threads; returns the P2 candidate's observables.
///
/// Node 0 is the candidate at (0, 0), node 1 a neighbour in range at
/// (10, 0), node 2 a far node at (1000, 0). At t = 0 five requests from
/// distinct initiators (the burst must not trip the per-initiator rate
/// guard) reach the candidate, each followed by a 3-byte frame to the
/// far node, so in the global queue no two of the candidate's
/// deliveries are adjacent while in its own shard's queue they may be.
fn run_burst(shards: usize, threads: usize) -> BurstOutcome {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut config = ProtocolConfig::new(ProtocolKind::P2, 11);
    config.parallelism = Parallelism::new(threads);
    let nodes = vec![
        ((0.0, 0.0), FriendingApp::participant(matching_profile(), config.clone())),
        ((10.0, 0.0), FriendingApp::participant(noise(1), config.clone())),
        ((1000.0, 0.0), FriendingApp::participant(noise(2), config.clone())),
    ];
    let (candidate, far) = (NodeId::new(0), NodeId::new(2));
    let mut rng = StdRng::seed_from_u64(8);
    let burst: Vec<(NodeId, Vec<u8>)> = (0..5u32)
        .flat_map(|i| {
            let (_, pkg) = Initiator::create(&request(), 100 + i, &config, 0, &mut rng);
            [(candidate, pkg.encode()), (far, b"far".to_vec())]
        })
        .collect();
    let outcome = |app: &FriendingApp| -> BurstOutcome {
        (app.events.clone(), app.sessions().iter().map(|s| (s.x, s.y)).collect())
    };
    if shards == 0 {
        let mut sim = Simulator::new(SimConfig::default(), 4);
        sim.add_nodes(nodes);
        for (to, bytes) in burst {
            sim.inject(to, NodeId::new(7), bytes);
        }
        sim.run();
        outcome(sim.app(candidate))
    } else {
        let mut sim = ShardedSimulator::new(SimConfig { shards, ..SimConfig::default() }, 4);
        sim.add_nodes(nodes);
        let counts = sim.shard_node_counts();
        assert!(counts.iter().all(|&c| c < 3), "shards={shards}: one shard owns all {counts:?}");
        for (to, bytes) in burst {
            sim.inject(to, NodeId::new(7), bytes);
        }
        sim.run();
        outcome(sim.app(candidate))
    }
}

/// A same-instant burst of requests at one candidate, interleaved with
/// deliveries to a node on another shard. The candidate's reply secret
/// `y` and the jitter of each relay it broadcasts come from its one RNG
/// stream, so handing it the burst in one call where its shard's queue
/// holds the requests back to back would reorder those draws against
/// `Simulator`'s. Every engine hands it one message per callback, so
/// its events and sessions must equal `Simulator`'s at every responder
/// thread count and shard count.
#[test]
fn burst_handling_identical_across_threads_and_shards() {
    let reference = run_burst(0, 1);
    assert!(
        reference.0.iter().any(|e| matches!(e, AppEvent::ReplySent { .. })),
        "burst must produce replies: {:?}",
        reference.0
    );
    for threads in [1usize, 4, 8] {
        for shards in [0usize, 2, 4] {
            let other = run_burst(shards, threads);
            assert_eq!(other, reference, "threads={threads} shards={shards}: burst diverged");
        }
    }
}
