//! Churn-scenario runs over the pluggable event engine.
//!
//! Three layers of assurance, completing the scheduler differential
//! story (`crates/net/tests/sched_differential.rs` covers the event
//! and trace levels):
//!
//! 1. an application-level differential — the full friending flow with
//!    re-flooding under mobility must be *bit-identical* between the
//!    calendar-queue scheduler and the binary heap, across every
//!    protocol (P1/P2/P3) × `InMemory`/`EncodedFrames` transport:
//!    same per-node event logs,
//!    same matches, same metrics (*including* the new
//!    `events_scheduled` / `peak_queue_len` counters), same final
//!    clock;
//! 2. a mid-scale churn differential over the shared island scenario
//!    ([`msb_bench::swarm::ChurnSpec`]), proving the engines agree
//!    when mobility, re-flood timers, and fan-out-capped broadcasts
//!    interleave for real;
//! 3. an `#[ignore]`d release-mode smoke test (run explicitly in CI)
//!    proving a 25 000-node churn swarm — calendar scheduler, encoded
//!    frames — completes in bounded time with cross-island matches.

use msb_bench::swarm::{build_churn_swarm, drive_churn, ChurnSpec};
use sealed_bottle::core::app::RefloodPolicy;
use sealed_bottle::core::protocol::Parallelism;
use sealed_bottle::net::mobility::{Bounds, RandomWaypoint};
use sealed_bottle::net::sim::{Metrics, SchedulerMode};
use sealed_bottle::prelude::*;
use std::time::Instant;

fn attr(c: &str, v: &str) -> Attribute {
    Attribute::new(c, v)
}

fn request() -> RequestProfile {
    RequestProfile::new(
        vec![attr("guild", "mapmakers")],
        vec![attr("i", "ink"), attr("i", "vellum"), attr("i", "stars")],
        2,
    )
    .unwrap()
}

fn matching_profile() -> Profile {
    Profile::from_attributes(vec![attr("guild", "mapmakers"), attr("i", "ink"), attr("i", "stars")])
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

/// A lossy 4×4 grid under random-waypoint churn with re-flooding: two
/// matching users start out of radio reach of the whole grid and only
/// mobility + periodic re-broadcast can connect them. The same
/// scenario the wire differential uses, extended with the churn layer,
/// swept across scheduler modes.
fn run(scheduler: SchedulerMode, kind: ProtocolKind, delivery: DeliveryMode) -> RunResult {
    let mut config = ProtocolConfig::new(kind, 11);
    config.parallelism = Parallelism::SEQUENTIAL;
    config.validity_us = 5_000_000;
    let sim_config = SimConfig { loss_rate: 0.02, scheduler, delivery, ..SimConfig::default() };
    let mut sim = Simulator::new(sim_config, 0xC0DEC);
    let reflood = RefloodPolicy::every(400_000).with_fanout_cap(3);
    let mut positions: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    sim.add_node(
        positions[0],
        FriendingApp::initiator(noise(0), request(), config.clone()).with_reflood(reflood),
    );
    for i in 0..16 {
        let pos = ((i % 4) as f64 * 35.0, (i / 4) as f64 * 35.0 + 35.0);
        positions.push(pos);
        sim.add_node(
            pos,
            FriendingApp::participant(noise(i + 1), config.clone()).with_reflood(reflood),
        );
    }
    for &pos in &[(165.0, 40.0), (165.0, 160.0)] {
        positions.push(pos);
        sim.add_node(
            pos,
            FriendingApp::participant(matching_profile(), config.clone()).with_reflood(reflood),
        );
    }
    let mut mobility = RandomWaypoint::from_positions(
        positions,
        Bounds { width: 260.0, height: 200.0 },
        6.0,
        20.0,
        0.5,
        0x5eed,
    );
    sim.start();
    let mut buf = Vec::new();
    for tick in 1..=20u64 {
        sim.run_until(tick * 250_000);
        mobility.advance(0.25);
        mobility.positions_into(&mut buf);
        sim.set_positions(&buf);
    }
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

/// The calendar engine matches the binary-heap oracle across every
/// protocol × transport combination — no metrics masking,
/// the new queue counters included.
#[test]
fn calendar_matches_heap_across_protocols_batching_and_delivery() {
    for kind in [ProtocolKind::P1, ProtocolKind::P2, ProtocolKind::P3] {
        for delivery in [DeliveryMode::InMemory, DeliveryMode::EncodedFrames] {
            let oracle = run(SchedulerMode::BinaryHeap, kind, delivery);
            let calendar = run(SchedulerMode::Calendar, kind, delivery);
            let label = format!("{kind:?} delivery={delivery:?}");
            assert!(!oracle.matches.is_empty(), "{label}: churn scenario must produce matches");
            assert!(
                oracle.events.iter().flatten().any(|e| matches!(e, AppEvent::Reflooded { .. })),
                "{label}: re-flooding must fire"
            );
            assert_eq!(calendar.events, oracle.events, "{label}: per-node event logs diverged");
            assert_eq!(calendar.matches, oracle.matches, "{label}: matches diverged");
            assert_eq!(
                calendar.final_clock_us, oracle.final_clock_us,
                "{label}: final clock diverged"
            );
            assert_eq!(calendar.metrics, oracle.metrics, "{label}: metrics diverged");
        }
    }
}

/// The shared island scenario agrees across engines at test scale:
/// same summary, same metrics, same confirmed matches.
#[test]
fn churn_scenario_identical_across_scheduler_modes() {
    let collect = |scheduler: SchedulerMode| {
        let spec = ChurnSpec::standard(500, scheduler);
        let (mut sim, mut mobility) = build_churn_swarm(&spec);
        drive_churn(&mut sim, &mut mobility, &spec);
        let matches = sim.app(NodeId::new(0)).matches().to_vec();
        (SwarmSummary::collect(&sim), *sim.metrics(), sim.now_us(), matches)
    };
    let calendar = collect(SchedulerMode::Calendar);
    let heap = collect(SchedulerMode::BinaryHeap);
    assert_eq!(calendar, heap, "island churn diverged across engines");
    assert!(calendar.0.refloods > 0, "re-flooding must fire: {:?}", calendar.0);
    assert!(!calendar.3.is_empty(), "churn swarm must confirm matches");
}

/// Large-swarm release-mode churn smoke: 25 000 nodes on partitioned
/// islands, calendar scheduler, every message encoded into its
/// canonical frame and strictly decoded at each receiver.
/// `#[ignore]`d so plain `cargo test` stays fast; CI runs it via
/// `cargo test --release -q --test churn_smoke -- --ignored`.
#[test]
#[ignore = "release-mode large-swarm churn smoke, run explicitly (CI does)"]
fn churn_25k_completes_in_bounded_time() {
    let mut spec = ChurnSpec::standard(25_000, SchedulerMode::Calendar);
    spec.delivery = DeliveryMode::EncodedFrames;
    let started = Instant::now();
    let (mut sim, mut mobility) = build_churn_swarm(&spec);
    drive_churn(&mut sim, &mut mobility, &spec);
    let elapsed = started.elapsed();
    let summary = SwarmSummary::collect(&sim);
    let metrics = sim.metrics();
    assert!(summary.matches > 0, "25k churn swarm found no matches: {summary:?}");
    assert!(summary.refloods > 10_000, "re-flooding must run swarm-wide: {summary:?}");
    let matches = sim.app(NodeId::new(0)).matches();
    let cross_island =
        matches.iter().filter(|m| !(m.responder as usize).is_multiple_of(spec.islands)).count();
    assert!(cross_island > 0, "churn must produce cross-island matches");
    assert!(metrics.peak_queue_len > 10_000, "queue pressure must be observable: {metrics:?}");
    // No decode failures anywhere: every re-flooded frame round-trips.
    for i in 0..sim.node_count() {
        assert!(
            !sim.app(NodeId::new(i as u32))
                .events
                .iter()
                .any(|e| matches!(e, AppEvent::DecodeFailed { .. })),
            "node {i} rejected a canonical frame"
        );
    }
    // Generous wall-clock bound: catches an accidental O(n) scheduler
    // or spatial regression without flaking on slow CI.
    assert!(elapsed.as_secs() < 300, "25k churn swarm took {elapsed:?}");
    println!(
        "25k churn: wall {elapsed:?}, {} matches ({} cross-island, p50 {:?} us), \
         {} refloods, peak queue {}",
        summary.matches,
        cross_island,
        summary.latency_percentile_us(0.5),
        summary.refloods,
        metrics.peak_queue_len,
    );
}
