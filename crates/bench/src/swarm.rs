//! Shared swarm-scenario construction.
//!
//! The scalability benches (`fig8_swarm`, `fig9_churn`), the Table VII
//! swarm extension, the `swarm` example, and the root swarm/churn tests
//! all execute "the same scenario at different scales": node 0
//! initiates from a known position, one node in [`MATCHING_EVERY`] owns
//! a matching profile, the rest are noise. Defining the construction
//! once keeps those same-scenario claims true by construction — and
//! keeps the differential comparisons (naive vs indexed spatial mode,
//! heap vs calendar scheduler) meaningful, since all sides build
//! byte-identical swarms.
//!
//! Two scenario families live here:
//!
//! * the **static swarm** ([`build_swarm`] / [`build_uniform_swarm`]) —
//!   one flood over a connected constant-density area;
//! * the **churn swarm** ([`ChurnSpec`], [`build_churn_swarm`],
//!   [`drive_churn`]) — initially-partitioned islands
//!   ([`msb_dataset::placement::islands`]) under [`RandomWaypoint`]
//!   mobility, with periodic re-flooding carrying the request across
//!   the gaps (knobs documented in `docs/SIM.md`).

use msb_core::app::{FriendingApp, RefloodPolicy};
use msb_core::protocol::{ProtocolConfig, ProtocolKind};
use msb_dataset::placement;
use msb_net::mobility::{Bounds, RandomWaypoint};
use msb_net::shard::ShardedSimulator;
use msb_net::sim::{DeliveryMode, SchedulerMode, SimConfig, SimDriver, Simulator, SpatialMode};
use msb_profile::{Attribute, Profile, RequestProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Square meters of area per node in the uniform layout: π·50²/700 ≈ 11
/// expected neighbors at the default 50 m radio range — dense enough for
/// a giant connected component, sparse enough that floods need many
/// hops.
pub const AREA_PER_NODE: f64 = 700.0;

/// One matching user per this many nodes (~1%, mirroring Table VII's one
/// matching user per 100).
pub const MATCHING_EVERY: usize = 100;

fn attr(c: &str, v: &str) -> Attribute {
    Attribute::new(c, v)
}

/// The scenario's request: one required tag, three optional, β = 2.
pub fn lighthouse_request() -> RequestProfile {
    RequestProfile::new(
        vec![attr("team", "lighthouse")],
        vec![attr("i", "jazz"), attr("i", "go"), attr("i", "tea")],
        2,
    )
    .expect("valid request")
}

/// A profile satisfying [`lighthouse_request`].
pub fn lighthouse_matching() -> Profile {
    Profile::from_attributes(vec![attr("team", "lighthouse"), attr("i", "jazz"), attr("i", "go")])
}

/// Per-node filler profiles that never match any request in this module.
pub fn noise_profile(i: usize) -> Profile {
    Profile::from_attributes(vec![attr("hobby", &format!("n{i}")), attr("city", &format!("c{i}"))])
}

/// Uniform positions over a constant-density square ([`AREA_PER_NODE`])
/// with slot 0 — the initiator — pinned to the center so its flood can
/// reach the whole area.
pub fn uniform_center_positions(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let side = (n as f64 * AREA_PER_NODE).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = placement::uniform(n, side, side, &mut rng);
    positions[0] = (side / 2.0, side / 2.0);
    positions
}

/// Everything that parameterizes a swarm beyond its positions and
/// profiles: the simulator config (spatial mode, scheduler, delivery,
/// batching), seeds, flood TTL, request validity, and the optional
/// re-flood policy. One struct so every scenario family threads the
/// same knobs through the one builder.
#[derive(Debug, Clone)]
pub struct SwarmParams {
    /// Simulator configuration (engine switches included).
    pub sim: SimConfig,
    /// Seed of the simulator's shared RNG.
    pub sim_seed: u64,
    /// Flood TTL carried by the request.
    pub ttl: u8,
    /// Request validity override in microseconds (`None` keeps the
    /// [`ProtocolConfig`] default of 60 s). Re-flooding stops at this
    /// deadline, so churn scenarios set it to their duration.
    pub validity_us: Option<u64>,
    /// Attach periodic re-flooding to every node.
    pub reflood: Option<RefloodPolicy>,
}

impl SwarmParams {
    /// Defaults: default [`SimConfig`], no validity override, no
    /// re-flooding.
    pub fn new(sim_seed: u64, ttl: u8) -> Self {
        SwarmParams { sim: SimConfig::default(), sim_seed, ttl, validity_us: None, reflood: None }
    }

    /// Selects the spatial engine (the fig8 naive-vs-indexed axis).
    pub fn with_spatial(mut self, mode: SpatialMode) -> Self {
        self.sim.spatial = mode;
        self
    }
}

/// The per-node placement + application list of the standard swarm
/// over `positions`: slot 0 is the initiator of `request` under
/// Protocol 1 (p = 11); every [`MATCHING_EVERY`]-th other node owns
/// `matching`, the rest `noise(i)`. Both engine builders feed from
/// this one list, so a sharded swarm is byte-identical to its oracle
/// by construction.
///
/// # Panics
///
/// Panics if `positions` is empty.
fn swarm_apps(
    positions: Vec<(f64, f64)>,
    params: &SwarmParams,
    request: RequestProfile,
    matching: Profile,
    noise: impl Fn(usize) -> Profile,
) -> Vec<((f64, f64), FriendingApp)> {
    assert!(!positions.is_empty(), "a swarm needs at least the initiator");
    let mut config = ProtocolConfig::new(ProtocolKind::P1, 11);
    config.ttl = params.ttl;
    if let Some(validity_us) = params.validity_us {
        config.validity_us = validity_us;
    }
    let with_reflood = |app: FriendingApp| match params.reflood {
        Some(policy) => app.with_reflood(policy),
        None => app,
    };
    positions
        .into_iter()
        .enumerate()
        .map(|(idx, pos)| {
            let app = if idx == 0 {
                FriendingApp::initiator(noise(0), request.clone(), config.clone())
            } else if idx % MATCHING_EVERY == 0 {
                FriendingApp::participant(matching.clone(), config.clone())
            } else {
                FriendingApp::participant(noise(idx), config.clone())
            };
            (pos, with_reflood(app))
        })
        .collect()
}

/// Builds a friending swarm over `positions` on the single-threaded
/// engine; see `swarm_apps` for the scenario shape.
///
/// # Panics
///
/// Panics if `positions` is empty.
pub fn build_swarm(
    positions: Vec<(f64, f64)>,
    params: &SwarmParams,
    request: RequestProfile,
    matching: Profile,
    noise: impl Fn(usize) -> Profile,
) -> Simulator<FriendingApp> {
    let mut sim = Simulator::new(params.sim, params.sim_seed);
    sim.add_nodes(swarm_apps(positions, params, request, matching, noise));
    sim
}

/// Builds the same friending swarm on the sharded engine
/// ([`params.sim.shards`](SimConfig::shards) worker cores) — the exact
/// node list [`build_swarm`] would build, so the two engines' outcomes
/// are directly comparable.
///
/// # Panics
///
/// Panics if `positions` is empty.
pub fn build_swarm_sharded(
    positions: Vec<(f64, f64)>,
    params: &SwarmParams,
    request: RequestProfile,
    matching: Profile,
    noise: impl Fn(usize) -> Profile,
) -> ShardedSimulator<FriendingApp> {
    let mut sim = ShardedSimulator::new(params.sim, params.sim_seed);
    sim.add_nodes(swarm_apps(positions, params, request, matching, noise));
    sim
}

/// The standard scalability swarm: [`lighthouse_request`] over
/// [`uniform_center_positions`], placement seeded with
/// `sim_seed ^ n` so each size draws an independent layout.
pub fn build_uniform_swarm(
    n: usize,
    mode: SpatialMode,
    sim_seed: u64,
    ttl: u8,
) -> Simulator<FriendingApp> {
    build_swarm(
        uniform_center_positions(n, sim_seed ^ n as u64),
        &SwarmParams::new(sim_seed, ttl).with_spatial(mode),
        lighthouse_request(),
        lighthouse_matching(),
        noise_profile,
    )
}

/// Parameters of the churn scenario family: `nodes` spread over
/// initially-partitioned islands, roaming under random-waypoint
/// mobility while every node re-floods the requests it carries. The
/// [`ChurnSpec::standard`] values are the `fig9_churn` /
/// `churn_smoke` scenario; `docs/SIM.md` documents each knob.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Swarm size.
    pub nodes: usize,
    /// Island count. Deliberately coprime with [`MATCHING_EVERY`] in
    /// the standard spec so matching users land on *every* island
    /// (round-robin assignment) and cross-island matches exist.
    pub islands: usize,
    /// Rim-to-rim island separation in meters — wider than the radio
    /// range, so the initial connectivity graph is partitioned.
    pub gap_m: f64,
    /// Scenario length in simulated seconds; also the request
    /// validity, so re-flooding stops exactly at the horizon.
    pub duration_s: u64,
    /// Mobility tick: the event queue runs to the tick boundary, then
    /// every position updates ([`RandomWaypoint::advance`] +
    /// [`Simulator::set_positions`]).
    pub tick_s: f64,
    /// The re-flood policy every node runs.
    pub reflood: RefloodPolicy,
    /// Waypoint speed range in m/s.
    pub speed_m_s: (f64, f64),
    /// Waypoint pause in seconds.
    pub pause_s: f64,
    /// Master seed (placement, mobility, and simulator RNGs derive
    /// from it).
    pub seed: u64,
    /// Event engine under test — the fig9 heap-vs-calendar axis.
    pub scheduler: SchedulerMode,
    /// Message representation ([`SimConfig::delivery`]).
    pub delivery: DeliveryMode,
    /// Worker cores for the sharded engine ([`SimConfig::shards`]) —
    /// the fig10 scaling axis. Ignored by [`build_churn_swarm`]; used
    /// by [`build_churn_swarm_sharded`].
    pub shards: usize,
    /// Hex tiles per shard-partition region side
    /// ([`SimConfig::region_tiles`]): larger regions give each shard a
    /// contiguous neighborhood with fewer seams, hence fewer
    /// cross-shard envelopes and handoffs. Speed only — outcomes are
    /// bit-identical at any value.
    pub region_tiles: usize,
}

impl ChurnSpec {
    /// The standard churn scenario at `nodes` size: 3 islands 120 m
    /// apart, 40 simulated seconds, vehicular speeds (8–25 m/s),
    /// re-flood every 5 s capped to the 8 nearest neighbors.
    pub fn standard(nodes: usize, scheduler: SchedulerMode) -> Self {
        ChurnSpec {
            nodes,
            islands: 3,
            gap_m: 120.0,
            duration_s: 40,
            tick_s: 1.0,
            reflood: RefloodPolicy::every(5_000_000).with_fanout_cap(8),
            speed_m_s: (8.0, 25.0),
            pause_s: 1.0,
            seed: 0xF169,
            scheduler,
            delivery: DeliveryMode::InMemory,
            shards: 1,
            region_tiles: 4,
        }
    }

    /// Selects the sharded engine's worker-core count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the scenario duration (and with it the request
    /// validity) — short smokes at large sizes set this down from the
    /// standard 40 s.
    pub fn with_duration(mut self, duration_s: u64) -> Self {
        self.duration_s = duration_s;
        self
    }
}

/// The shared churn construction both engine builders feed from: the
/// island placement, the mobility model seeded off it, and the swarm
/// parameters (including [`ChurnSpec::shards`], which only the
/// sharded engine reads).
fn churn_setup(spec: &ChurnSpec) -> (Vec<(f64, f64)>, RandomWaypoint, SwarmParams) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ spec.nodes as u64);
    let (positions, layout) =
        placement::islands(spec.nodes, spec.islands, AREA_PER_NODE, spec.gap_m, &mut rng);
    let mobility = RandomWaypoint::from_positions(
        positions.clone(),
        Bounds { width: layout.side, height: layout.side },
        spec.speed_m_s.0,
        spec.speed_m_s.1,
        spec.pause_s,
        spec.seed ^ 0x5eed,
    );
    let params = SwarmParams {
        sim: SimConfig {
            scheduler: spec.scheduler,
            delivery: spec.delivery,
            shards: spec.shards,
            region_tiles: spec.region_tiles,
            ..SimConfig::default()
        },
        sim_seed: spec.seed,
        ttl: 255,
        validity_us: Some(spec.duration_s * 1_000_000),
        reflood: Some(spec.reflood),
    };
    (positions, mobility, params)
}

/// Builds the churn swarm and its mobility model, both starting from
/// the same island placement.
pub fn build_churn_swarm(spec: &ChurnSpec) -> (Simulator<FriendingApp>, RandomWaypoint) {
    let (positions, mobility, params) = churn_setup(spec);
    let sim =
        build_swarm(positions, &params, lighthouse_request(), lighthouse_matching(), noise_profile);
    (sim, mobility)
}

/// Builds the identical churn swarm on the sharded engine with
/// [`ChurnSpec::shards`] worker cores. Same placement, same mobility,
/// same apps — drive it with the same [`drive_churn`] and the outcome
/// is bit-identical to [`build_churn_swarm`]'s (the shard differential
/// suites and `fig10_shards` assert it).
pub fn build_churn_swarm_sharded(
    spec: &ChurnSpec,
) -> (ShardedSimulator<FriendingApp>, RandomWaypoint) {
    let (positions, mobility, params) = churn_setup(spec);
    let sim = build_swarm_sharded(
        positions,
        &params,
        lighthouse_request(),
        lighthouse_matching(),
        noise_profile,
    );
    (sim, mobility)
}

/// Drives a churn run to completion on either engine: alternates event
/// processing with mobility ticks for the scenario duration, then
/// drains the remaining events (replies in flight; re-flood timers
/// stop at the validity horizon). One reused position buffer serves
/// every tick — no per-tick allocation even at 50k nodes.
pub fn drive_churn(sim: &mut impl SimDriver, mobility: &mut RandomWaypoint, spec: &ChurnSpec) {
    sim.start();
    let ticks = (spec.duration_s as f64 / spec.tick_s).ceil() as u64;
    let mut buf = Vec::new();
    for tick in 1..=ticks {
        sim.run_until((tick as f64 * spec.tick_s * 1e6) as u64);
        mobility.advance_positions_into(spec.tick_s, &mut buf);
        sim.set_positions(&buf);
    }
    sim.run();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_center_pins_initiator() {
        let pos = uniform_center_positions(400, 3);
        let side = (400.0 * AREA_PER_NODE).sqrt();
        assert_eq!(pos[0], (side / 2.0, side / 2.0));
        assert_eq!(pos.len(), 400);
    }

    #[test]
    fn swarm_finds_matches_end_to_end() {
        let mut sim = build_uniform_swarm(300, SpatialMode::HexIndex, 3, 200);
        sim.start();
        sim.run();
        let matches = sim.app(msb_net::sim::NodeId::new(0)).matches();
        assert!(!matches.is_empty(), "the scenario must produce matches");
        // Matching slots are exactly the MATCHING_EVERY multiples.
        assert!(matches.iter().all(|m| (m.responder as usize).is_multiple_of(MATCHING_EVERY)));
    }

    #[test]
    fn churn_scenario_bridges_islands_through_mobility() {
        use msb_core::app::SwarmSummary;
        // Small but real: 600 nodes on 3 islands. The initial flood can
        // only reach island 0 (the gap exceeds the radio range);
        // every cross-island match is re-flooding's doing.
        let spec = ChurnSpec::standard(600, SchedulerMode::Calendar);
        let (mut sim, mut mobility) = build_churn_swarm(&spec);
        drive_churn(&mut sim, &mut mobility, &spec);
        let summary = SwarmSummary::collect(&sim);
        assert!(summary.refloods > 0, "re-flooding must fire: {summary:?}");
        let matches = sim.app(msb_net::sim::NodeId::new(0)).matches();
        assert!(!matches.is_empty(), "churn swarm must confirm matches: {summary:?}");
        let cross_island =
            matches.iter().filter(|m| !(m.responder as usize).is_multiple_of(spec.islands)).count();
        assert!(cross_island > 0, "mobility + re-flooding must reach other islands: {matches:?}");
        assert!(sim.metrics().peak_queue_len > 0);
    }

    #[test]
    fn sharded_churn_swarm_is_bit_identical_to_the_oracle() {
        use msb_core::app::SwarmSummary;
        let spec = ChurnSpec::standard(600, SchedulerMode::Calendar).with_shards(4);
        let (mut oracle, mut mobility) = build_churn_swarm(&spec);
        drive_churn(&mut oracle, &mut mobility, &spec);
        let (mut sharded, mut mobility) = build_churn_swarm_sharded(&spec);
        drive_churn(&mut sharded, &mut mobility, &spec);
        assert_eq!(sharded.now_us(), oracle.now_us(), "final clocks diverged");
        // peak_queue_len is per-queue depth, legitimately shard-count
        // dependent — everything else must agree exactly.
        assert_eq!(
            sharded.metrics().without_queue_pressure(),
            oracle.metrics().without_queue_pressure(),
            "metrics diverged"
        );
        let summary = SwarmSummary::collect_sharded(&sharded);
        assert_eq!(summary, SwarmSummary::collect(&oracle), "app outcomes diverged");
        assert!(summary.matches > 0, "scenario must still produce matches");
        assert!(
            sharded.shard_node_counts().iter().filter(|&&c| c > 0).count() > 1,
            "the island layout must actually span multiple shards: {:?}",
            sharded.shard_node_counts()
        );
    }
}
