//! The discrete-event simulation engine.
//!
//! Time is measured in integer microseconds. Every event carries a
//! **content-derived** key `(at_us, EventKey)` — the emitting node and
//! that node's private emission counter — and the engine processes
//! events in strictly ascending key order (see [`crate::sched`]).
//! Randomness (latency jitter, loss) flows from *per-node* RNG streams
//! derived from the simulation seed, drawn on the emitting node in
//! event-processing order. Both choices make a run a pure function of
//! `(seed, SimConfig, apps)` that is independent of *which engine
//! executes it*: the pluggable scheduler ([`SimConfig::scheduler`])
//! and the spatially-sharded parallel engine
//! ([`crate::shard::ShardedSimulator`], [`SimConfig::shards`]) both
//! reproduce the identical stream bit-for-bit. See `docs/SIM.md` for
//! the full event-engine and shard contracts.

use crate::payload::Payload;
use crate::sched::EventKey;
use crate::shard::ShardedSimulator;
use msb_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use crate::sched::{Recurrence, SchedulerMode};

/// Identifier of a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates an id from a raw index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index (also the insertion order of `add_node`).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// How applications should put messages on the air.
///
/// The simulator itself transports any [`Payload`]; this switch tells
/// payload-aware applications (e.g. `msb_core::app::FriendingApp`)
/// which representation to construct. Both modes are proven to produce
/// identical recipients, event order, match results *and byte metrics*
/// (in-memory payloads declare their exact encoded length) — the
/// in-memory mode is the oracle the codec path is differentially tested
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Message structs ride the event queue unserialized (shared, not
    /// copied); byte metrics use each message's exact computed frame
    /// length. The default: no codec work on the hot path.
    #[default]
    InMemory,
    /// Every message is encoded into its canonical `msb-wire` frame at
    /// the sender and decoded at each receiver; byte metrics measure
    /// the actual frames.
    EncodedFrames,
}

/// Radio, timing, and engine parameters.
///
/// Every field participates in determinism: two runs with equal seeds,
/// equal configs, and equal apps produce identical event streams and
/// [`Metrics`]. Fields that change only *how fast* the engine runs
/// ([`SimConfig::scheduler`], [`SimConfig::delivery`],
/// [`SimConfig::shards`], [`SimConfig::region_tiles`]) do not change
/// the stream at all — only [`Metrics::peak_queue_len`] (shard count)
/// reflects them. Neighbor queries always go through the hex index
/// ([`crate::spatial::SpatialIndex`]) with cells one radio range
/// across.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Radio range in meters: broadcasts reach nodes within this distance
    /// (inclusive), and two nodes within it are connectivity-graph
    /// neighbors for unicast routing.
    pub radio_range: f64,
    /// Fixed per-transmission latency in microseconds. Under sharded
    /// execution this is also the conservative lookahead: every
    /// cross-shard event lands at least this far in the future, which is
    /// what lets shards advance in parallel (must be nonzero when
    /// `shards > 1`).
    pub base_latency_us: u64,
    /// Additional latency per meter of distance, in microseconds.
    pub per_meter_latency_us: f64,
    /// Uniform jitter added to each transmission, in microseconds. Each
    /// in-range delivery draws one jitter sample from the *sender's* RNG
    /// stream.
    pub jitter_us: u64,
    /// Probability that any single transmission is lost. Each scheduled
    /// transmission draws one loss sample (from the sender's stream)
    /// when nonzero.
    pub loss_rate: f64,
    /// Event-queue engine; see [`SchedulerMode`]. This changes only how
    /// fast the engine runs, never the event stream — both modes are
    /// bit-identical.
    pub scheduler: SchedulerMode,
    /// Message representation payload-aware applications should send;
    /// see [`DeliveryMode`].
    pub delivery: DeliveryMode,
    /// Worker shards for [`crate::shard::ShardedSimulator`]: the hex
    /// tiles of the plane are partitioned across this many engine cores
    /// running in parallel under conservative-lookahead sync. `1` (the
    /// default) runs the core inline without threads. The
    /// single-threaded [`Simulator`] ignores this field — it is *the*
    /// oracle any shard count is proven bit-identical to.
    pub shards: usize,
    /// Side length, in hex tiles, of the square tile *regions* the
    /// sharded engine assigns to shards: ownership is hashed per
    /// `region_tiles × region_tiles` block of tiles rather than per
    /// tile. `1` (the default) reproduces the historical per-tile hash
    /// exactly. Larger regions give each shard spatially contiguous
    /// territory with fewer seams (tile borders with *other* shards),
    /// hence fewer cross-shard envelopes and fewer mobility handoffs —
    /// the churn scenarios (`ChurnSpec::standard`) set 4. A speed-only
    /// knob: the event stream is bit-identical at any value (the
    /// differential suites sweep it). Ignored when `shards == 1`.
    pub region_tiles: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            radio_range: 50.0, // the paper's "within 50 meters" example
            base_latency_us: 500,
            per_meter_latency_us: 3.3e-3, // ~speed of light, negligible
            jitter_us: 200,
            loss_rate: 0.0,
            scheduler: SchedulerMode::Calendar,
            delivery: DeliveryMode::InMemory,
            shards: 1,
            region_tiles: 1,
        }
    }
}

/// Application logic attached to each node.
pub trait NodeApp {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload);
    /// Called for timers set through [`NodeCtx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    /// Never called by the engine: every engine hands each message to
    /// [`NodeApp::on_message`] on its own, since grouping a node's
    /// same-instant messages into one call would reorder its RNG draws
    /// between shard counts. The default forwards each message in
    /// order. It stays only because perfbench's timing wrapper
    /// overrides it; delete both together.
    fn on_batch(&mut self, ctx: &mut NodeCtx<'_>, batch: &[(NodeId, Payload)]) {
        for (from, payload) in batch {
            self.on_message(ctx, *from, payload);
        }
    }
}

/// What a node may do while handling an event.
#[derive(Debug)]
pub(crate) enum Action {
    Broadcast(Payload),
    BroadcastK(usize, Payload),
    Unicast(NodeId, Payload),
    Timer(u64, u64),                      // delay_us, token
    RecurringTimer(u64, Recurrence, u64), // delay_us, recurrence, token
}

/// Handle given to application callbacks.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    pub(crate) id: NodeId,
    pub(crate) now_us: u64,
    pub(crate) position: (f64, f64),
    pub(crate) delivery: DeliveryMode,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) actions: Vec<Action>,
}

impl NodeCtx<'_> {
    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// Current simulation time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// This node's current position.
    pub fn position(&self) -> (f64, f64) {
        self.position
    }

    /// The message representation this simulation asks applications to
    /// send ([`SimConfig::delivery`]).
    pub fn delivery(&self) -> DeliveryMode {
        self.delivery
    }

    /// This node's private deterministic RNG stream, derived from the
    /// simulation seed and the node id — independent of every other
    /// node's stream, so the draws a node makes are a pure function of
    /// the events *it* processes, whatever engine (or shard) runs it.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a broadcast to every node in radio range.
    pub fn broadcast(&mut self, payload: impl Into<Payload>) {
        self.actions.push(Action::Broadcast(payload.into()));
    }

    /// Queues a fan-out-capped broadcast: the transmission reaches only
    /// the `k` nearest other nodes in radio range (ties at equal
    /// distance break toward the smaller id), modelling a gossip
    /// push to a bounded neighbor set — the re-flood policy's cap.
    /// `k = 0` transmits to nobody but still counts as a broadcast.
    pub fn broadcast_k_nearest(&mut self, k: usize, payload: impl Into<Payload>) {
        self.actions.push(Action::BroadcastK(k, payload.into()));
    }

    /// Queues a unicast. Delivered directly when in range, otherwise
    /// relayed along the shortest connectivity path (modelling the
    /// reverse route a reply follows); each hop counts as a transmission.
    pub fn unicast(&mut self, to: NodeId, payload: impl Into<Payload>) {
        self.actions.push(Action::Unicast(to, payload.into()));
    }

    /// Schedules [`NodeApp::on_timer`] after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.actions.push(Action::Timer(delay_us, token));
    }

    /// Schedules a recurring [`NodeApp::on_timer`]: first fires after
    /// `delay_us`, then every `period_us` for as long as the next
    /// firing lands at or before `until_us` (so a run with recurring
    /// timers still drains — see [`crate::sched::Recurrence`]). Every
    /// firing delivers the same `token`.
    ///
    /// # Panics
    ///
    /// Panics if `period_us` is zero.
    pub fn set_recurring_timer(
        &mut self,
        delay_us: u64,
        period_us: u64,
        until_us: u64,
        token: u64,
    ) {
        self.actions.push(Action::RecurringTimer(
            delay_us,
            Recurrence::new(period_us, until_us),
            token,
        ));
    }
}

/// Aggregate transmission statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Broadcast transmissions performed.
    pub broadcasts: u64,
    /// Unicast messages initiated.
    pub unicasts: u64,
    /// Individual hop transmissions for unicasts.
    pub unicast_hops: u64,
    /// Messages delivered to applications.
    pub delivered: u64,
    /// Transmissions lost to the configured loss rate.
    pub lost: u64,
    /// Unicasts abandoned because no route existed.
    pub unroutable: u64,
    /// Total payload bytes put on the air (once per transmission).
    pub payload_bytes: u64,
    /// Neighbor range queries answered: one per broadcast plus one per
    /// node visited by [`Simulator::shortest_path`] /
    /// [`Simulator::connected_components`] BFS.
    pub neighbor_queries: u64,
    /// Hex cells examined to answer those queries — the index-efficiency
    /// observable: `cells_scanned / neighbor_queries` stays ≈ constant
    /// (19 measured with cells one radio range across) however large
    /// the swarm grows.
    pub cells_scanned: u64,
    /// Events ever enqueued: every delivery, timer firing, and
    /// recurrence re-arm, each counted exactly once however many times
    /// a shard handoff moves it. Identical across [`SchedulerMode`]s
    /// *and shard counts* (part of the differential oracle) — the
    /// queue-pressure observable the churn benches report.
    pub events_scheduled: u64,
    /// High-water mark of the pending-event queue over the run.
    /// Identical across [`SchedulerMode`]s; under sharded execution it
    /// merges as the **max over per-shard peaks**, which genuinely
    /// depends on how nodes split across shards — differential
    /// comparisons across shard counts must mask this one field
    /// ([`Metrics::without_queue_pressure`]).
    pub peak_queue_len: u64,
}

impl Metrics {
    /// Combines two metric sets: counters add; [`Metrics::peak_queue_len`]
    /// — a high-water mark, not a count — takes the max.
    ///
    /// The operation is associative and commutative, so folding any
    /// partition of a run's shards in any grouping yields the same
    /// total; the sharded engine relies on this to report one
    /// engine-independent [`Metrics`] from per-shard cores (it still
    /// merges in ascending shard order, for the avoidance of doubt).
    #[must_use]
    pub fn merge(self, other: Metrics) -> Metrics {
        Metrics {
            broadcasts: self.broadcasts + other.broadcasts,
            unicasts: self.unicasts + other.unicasts,
            unicast_hops: self.unicast_hops + other.unicast_hops,
            delivered: self.delivered + other.delivered,
            lost: self.lost + other.lost,
            unroutable: self.unroutable + other.unroutable,
            payload_bytes: self.payload_bytes + other.payload_bytes,
            neighbor_queries: self.neighbor_queries + other.neighbor_queries,
            cells_scanned: self.cells_scanned + other.cells_scanned,
            events_scheduled: self.events_scheduled + other.events_scheduled,
            peak_queue_len: self.peak_queue_len.max(other.peak_queue_len),
        }
    }

    /// This metric set with [`Metrics::peak_queue_len`] masked to zero —
    /// the comparison form for differentials across *shard counts*,
    /// where the queue high-water mark legitimately differs (each shard
    /// queue holds only its own nodes' events). Every other field is
    /// shard-count-independent and stays comparable unmasked.
    #[must_use]
    pub fn without_queue_pressure(self) -> Metrics {
        Metrics { peak_queue_len: 0, ..self }
    }
}

/// What rides the event queue. Cloneable so recurring entries can
/// re-arm (payload clones are O(1) — `Payload` is reference-counted).
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    Deliver { to: NodeId, from: NodeId, payload: Payload },
    Timer { node: NodeId, token: u64 },
}

impl EventKind {
    /// The node an event is destined for — the routing key shards
    /// partition the queue by.
    pub(crate) fn target(&self) -> NodeId {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. } => *node,
        }
    }
}

/// The per-node simulation state an engine owns: the application, the
/// node's private RNG stream, and its emission counter (the source of
/// its [`EventKey`]s). Under sharding this whole record migrates with
/// the node.
pub(crate) struct NodeState<A> {
    pub(crate) app: A,
    pub(crate) rng: StdRng,
    pub(crate) emit: u64,
}

impl<A> NodeState<A> {
    pub(crate) fn new(app: A, seed: u64, node: u32) -> Self {
        NodeState { app, rng: StdRng::seed_from_u64(node_rng_seed(seed, node)), emit: 0 }
    }

    /// The next emission key for this node (consumes one emission).
    pub(crate) fn next_key(&mut self, node: u32) -> EventKey {
        let key = EventKey::new(node, self.emit);
        self.emit += 1;
        key
    }
}

/// SplitMix64 finalizer — the shared bit-mixer behind per-node RNG
/// seeding and shard tile hashing.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of node `node`'s private RNG stream under simulation seed
/// `seed`. **Every engine must use this exact derivation** — it is part
/// of the determinism contract the sharded differentials prove.
pub(crate) fn node_rng_seed(seed: u64, node: u32) -> u64 {
    splitmix64(seed ^ splitmix64(u64::from(node)))
}

/// One transmission latency draw **from the sender's stream**: base +
/// distance term + uniform jitter.
pub(crate) fn draw_latency(config: &SimConfig, dist: f64, rng: &mut StdRng) -> u64 {
    let jitter = if config.jitter_us > 0 { rng.gen_range(0..=config.jitter_us) } else { 0 };
    config.base_latency_us + (dist * config.per_meter_latency_us) as u64 + jitter
}

/// One loss draw **from the sender's stream**. Rolled before the
/// latency draw; a lost transmission draws no latency and consumes no
/// emission key.
pub(crate) fn roll_loss(config: &SimConfig, rng: &mut StdRng) -> bool {
    config.loss_rate > 0.0 && rng.gen_bool(config.loss_rate.min(1.0))
}

/// The driving surface shared by the single-threaded [`Simulator`] and
/// the sharded [`crate::shard::ShardedSimulator`]: scenario harnesses
/// (e.g. `msb_bench::swarm::drive_churn`) are generic over it, so the
/// same mobility loop runs against either engine.
pub trait SimDriver {
    /// Calls `on_start` on every node (in id order).
    fn start(&mut self);
    /// Runs until the event queue drains.
    fn run(&mut self);
    /// Runs until the queue drains or the clock passes `deadline_us`.
    fn run_until(&mut self, deadline_us: u64);
    /// Bulk position update, index-aligned with node ids — the mobility
    /// tick. Must only be called at quiesce points (between `run_until`
    /// windows), which is what keeps sharded position replicas exact.
    fn set_positions(&mut self, positions: &[(f64, f64)]);
    /// Current simulation time in microseconds.
    fn now_us(&self) -> u64;
}

/// The single-threaded simulator: the reference engine, and the
/// bit-identity oracle the sharded [`ShardedSimulator`] is
/// differentially proven against, as [`SchedulerMode::BinaryHeap`]
/// serves the scheduler layer.
///
/// It is the one-shard configuration of that same engine: one core
/// owns every node, the one event queue and the [`Metrics`], and runs
/// inline on the caller's thread (so apps need not be `Send`), asking
/// the shared topology the same neighbor queries a shard core asks.
/// There are no windows, handoffs or envelope batches — the machinery
/// the N-shard runs are compared against it for.
/// [`SimConfig::shards`] is ignored.
pub struct Simulator<A: NodeApp> {
    engine: ShardedSimulator<A>,
}

impl<A: NodeApp> Simulator<A> {
    /// Creates a simulator with the given config and RNG seed.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Simulator { engine: ShardedSimulator::new(SimConfig { shards: 1, ..config }, seed) }
    }

    /// Turns the telemetry sink on, keeping the most recent
    /// `trace_cap` trace events. Enabling telemetry changes no
    /// simulated outcome (same events, matches, RNG draws, and
    /// [`Metrics`]) — it only records. Everything recorded is derived
    /// from sim state (sim clock, queue lengths, pop counts), never
    /// wall clock, so traces are deterministic.
    pub fn enable_telemetry(&mut self, trace_cap: usize) {
        self.engine.enable_telemetry(trace_cap);
    }

    /// The telemetry sink (empty and off by default): the engine
    /// core's series, recorded as core 0.
    pub fn telemetry(&self) -> &Recorder {
        self.engine.core0_telemetry()
    }

    /// Adds a node at `position`, returning its id.
    pub fn add_node(&mut self, position: (f64, f64), app: A) -> NodeId {
        self.engine.add_node(position, app)
    }

    /// Adds many nodes at once (bulk swarm construction), returning their
    /// ids in insertion order.
    pub fn add_nodes(&mut self, nodes: impl IntoIterator<Item = ((f64, f64), A)>) -> Vec<NodeId> {
        self.engine.add_nodes(nodes)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.engine.node_count()
    }

    /// Current simulation time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.engine.now_us()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        self.engine.core0_metrics()
    }

    /// Borrow a node's application state (e.g. to inspect results).
    pub fn app(&self, id: NodeId) -> &A {
        self.engine.app(id)
    }

    /// Mutably borrow a node's application state.
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        self.engine.app_mut(id)
    }

    /// A node's position.
    pub fn position(&self, id: NodeId) -> (f64, f64) {
        self.engine.position(id)
    }

    /// Moves a node (mobility models drive this), keeping the spatial
    /// index in sync.
    pub fn set_position(&mut self, id: NodeId, position: (f64, f64)) {
        self.engine.set_position(id, position);
    }

    /// Bulk position update, index-aligned with node ids — the mobility
    /// tick: `model.advance(dt); sim.set_positions(&model.positions())`.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one position per node is supplied.
    pub fn set_positions(&mut self, positions: &[(f64, f64)]) {
        self.engine.set_positions(positions);
    }

    /// Calls `on_start` on every node (in id order).
    pub fn start(&mut self) {
        self.engine.start();
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.engine.run_inline(u64::MAX);
    }

    /// Runs until the queue drains or the clock passes `deadline_us`.
    pub fn run_until(&mut self, deadline_us: u64) {
        self.engine.run_inline(deadline_us);
        self.engine.reach(deadline_us);
    }

    /// Processes one event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.engine.step_inline()
    }

    /// Injects a message from "outside" the network (tests, harnesses).
    /// Injections carry the [`EventKey::EXTERNAL_SRC`] sentinel source,
    /// ordering them after node-emitted events at the same instant.
    pub fn inject(&mut self, to: NodeId, from: NodeId, payload: impl Into<Payload>) {
        self.engine.inject(to, from, payload);
    }

    /// BFS shortest path over the current connectivity graph (nodes
    /// within radio range are neighbors) — the route unicasts follow.
    pub fn shortest_path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.engine.shortest_path(from, to)
    }

    /// Connected components of the current connectivity graph (diagnostic
    /// for partitioned topologies), via the same indexed BFS as
    /// [`Simulator::shortest_path`].
    pub fn connected_components(&mut self) -> Vec<Vec<NodeId>> {
        self.engine.connected_components()
    }
}

impl<A: NodeApp> SimDriver for Simulator<A> {
    fn start(&mut self) {
        Simulator::start(self);
    }

    fn run(&mut self) {
        Simulator::run(self);
    }

    fn run_until(&mut self, deadline_us: u64) {
        Simulator::run_until(self, deadline_us);
    }

    fn set_positions(&mut self, positions: &[(f64, f64)]) {
        Simulator::set_positions(self, positions);
    }

    fn now_us(&self) -> u64 {
        Simulator::now_us(self)
    }
}

impl<A: NodeApp> std::fmt::Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.node_count())
            .field("now_us", &self.now_us())
            .field("metrics", self.metrics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records everything it hears.
    struct Recorder {
        heard: Vec<(NodeId, Vec<u8>)>,
        timers: Vec<u64>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder { heard: Vec::new(), timers: Vec::new() }
        }
    }

    impl NodeApp for Recorder {
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload) {
            self.heard.push((from, payload.as_bytes().expect("test payloads are bytes").to_vec()));
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
            self.timers.push(token);
        }
    }

    fn line_topology(n: usize, spacing: f64) -> Simulator<Recorder> {
        let mut sim = Simulator::new(SimConfig::default(), 1);
        for i in 0..n {
            sim.add_node((i as f64 * spacing, 0.0), Recorder::new());
        }
        sim
    }

    #[test]
    fn broadcast_reaches_only_in_range() {
        struct Caster;
        impl NodeApp for Caster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node_id().index() == 0 {
                    ctx.broadcast(b"hello".to_vec());
                }
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        sim.add_node((0.0, 0.0), Caster);
        sim.add_node((40.0, 0.0), Caster);
        sim.add_node((80.0, 0.0), Caster); // out of 50m range of node 0
        sim.start();
        sim.run();
        assert_eq!(sim.metrics().broadcasts, 1);
        assert_eq!(sim.metrics().delivered, 1, "only the neighbour hears it");
    }

    #[test]
    fn unicast_routes_across_hops() {
        struct Fire(NodeId);
        impl NodeApp for Fire {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node_id().index() == 0 {
                    ctx.unicast(self.0, b"reply".to_vec());
                }
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
        }
        let dst = NodeId::new(3);
        let mut sim = Simulator::new(SimConfig::default(), 1);
        for i in 0..4 {
            sim.add_node((i as f64 * 40.0, 0.0), Fire(dst));
        }
        sim.start();
        sim.run();
        assert_eq!(sim.metrics().unicasts, 1);
        assert_eq!(sim.metrics().unicast_hops, 3);
        assert_eq!(sim.metrics().delivered, 1);
    }

    #[test]
    fn unroutable_unicast_counted() {
        struct Fire;
        impl NodeApp for Fire {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node_id().index() == 0 {
                    ctx.unicast(NodeId::new(1), b"x".to_vec());
                }
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        sim.add_node((0.0, 0.0), Fire);
        sim.add_node((1000.0, 0.0), Fire); // unreachable
        sim.start();
        sim.run();
        assert_eq!(sim.metrics().unroutable, 1);
        assert_eq!(sim.metrics().delivered, 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed;
        impl NodeApp for Timed {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(2000, 2);
                ctx.set_timer(1000, 1);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                // Record ordering through time.
                assert!(ctx.now_us() >= 1000);
                let _ = token;
            }
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        sim.add_node((0.0, 0.0), Timed);
        sim.start();
        sim.run();
        assert_eq!(sim.now_us(), 2000);
    }

    #[test]
    fn same_instant_ties_break_by_source_then_emission() {
        // Two nodes each set two zero-delay timers; node 1's run on_start
        // *after* node 0's, but insertion order is irrelevant: the pop
        // order is source-major, emission-minor. The recorder observes it
        // through the tokens (10·node + set_timer call index).
        let mut sim = Simulator::new(SimConfig::default(), 1);
        for _ in 0..2 {
            sim.add_node((0.0, 0.0), Recorder::new());
        }
        for node in [1u32, 0] {
            // Interleave insertions against id order on purpose.
            for call in 0..2u64 {
                let id = NodeId::new(node);
                sim.engine.callback(id, |_, ctx| ctx.set_timer(0, u64::from(node) * 10 + call));
            }
        }
        while sim.step() {}
        assert_eq!(sim.app(NodeId::new(0)).timers, vec![0, 1]);
        assert_eq!(sim.app(NodeId::new(1)).timers, vec![10, 11]);
        assert_eq!(sim.now_us(), 0);
    }

    #[test]
    fn deterministic_runs() {
        fn run_once() -> (u64, Metrics) {
            let mut sim =
                Simulator::new(SimConfig { loss_rate: 0.3, ..SimConfig::default() }, 1234);
            struct Chatty;
            impl NodeApp for Chatty {
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    ctx.broadcast(vec![ctx.node_id().index() as u8]);
                }
                fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: NodeId, payload: &Payload) {
                    let bytes = payload.as_bytes().expect("test payloads are bytes");
                    if bytes.len() < 3 {
                        let mut p = bytes.to_vec();
                        p.push(ctx.node_id().index() as u8);
                        ctx.broadcast(p);
                    }
                }
            }
            for i in 0..10 {
                sim.add_node(((i % 5) as f64 * 30.0, (i / 5) as f64 * 30.0), Chatty);
            }
            sim.start();
            sim.run();
            (sim.now_us(), *sim.metrics())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn loss_rate_one_drops_everything() {
        struct Caster;
        impl NodeApp for Caster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.broadcast(b"gone".to_vec());
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {
                panic!("nothing should arrive");
            }
        }
        let mut sim = Simulator::new(SimConfig { loss_rate: 1.0, ..SimConfig::default() }, 1);
        sim.add_node((0.0, 0.0), Caster);
        sim.add_node((10.0, 0.0), Caster);
        sim.start();
        sim.run();
        assert_eq!(sim.metrics().delivered, 0);
        assert_eq!(sim.metrics().lost, 2);
    }

    #[test]
    fn connected_components_split() {
        let mut sim = line_topology(2, 40.0);
        sim.add_node((500.0, 0.0), Recorder::new());
        let comps = sim.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[1].len(), 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Timed;
        impl NodeApp for Timed {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(10_000, 1);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: u64) {
                panic!("timer beyond deadline must not fire");
            }
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        sim.add_node((0.0, 0.0), Timed);
        sim.start();
        sim.run_until(5_000);
        assert_eq!(sim.now_us(), 5_000);
    }

    #[test]
    fn injections_order_after_node_events_at_the_same_instant() {
        // An injected message at t=0 carries the external sentinel key,
        // so a node-emitted timer at the same instant fires first.
        struct TimerThenHear;
        impl NodeApp for TimerThenHear {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(0, 42);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        let id = sim.add_node((0.0, 0.0), TimerThenHear);
        sim.inject(id, NodeId::new(9), b"ext".to_vec());
        sim.start();
        // First event must be the timer (node source 0 < EXTERNAL_SRC).
        assert!(sim.step());
        assert_eq!(sim.metrics().delivered, 0, "timer fires before the injection");
        assert!(sim.step());
        assert_eq!(sim.metrics().delivered, 1);
    }

    #[test]
    fn recurring_timer_fires_until_deadline_and_drains() {
        struct Periodic;
        impl NodeApp for Periodic {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_recurring_timer(1_000, 1_000, 3_500, 9);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                assert_eq!(token, 9);
                assert!(ctx.now_us().is_multiple_of(1_000));
            }
        }
        for mode in [SchedulerMode::Calendar, SchedulerMode::BinaryHeap] {
            let config = SimConfig { scheduler: mode, ..SimConfig::default() };
            let mut sim = Simulator::new(config, 1);
            sim.add_node((0.0, 0.0), Periodic);
            sim.start();
            sim.run(); // terminates: recurrence stops past 3 500 us
            assert_eq!(sim.now_us(), 3_000, "{mode:?}");
            assert_eq!(sim.metrics().events_scheduled, 3, "{mode:?}: 1 schedule + 2 re-arms");
        }
    }

    #[test]
    fn broadcast_k_nearest_caps_fanout_to_closest() {
        struct Caster;
        impl NodeApp for Caster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node_id().index() == 0 {
                    ctx.broadcast_k_nearest(2, b"gossip".to_vec());
                }
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        sim.add_node((0.0, 0.0), Caster); // sender
        sim.add_node((10.0, 0.0), Caster); // nearest
        sim.add_node((20.0, 0.0), Caster); // second nearest
        sim.add_node((30.0, 0.0), Caster); // in range but capped away
        sim.add_node((80.0, 0.0), Caster); // out of range anyway
        sim.start();
        sim.run();
        assert_eq!(sim.metrics().broadcasts, 1);
        assert_eq!(sim.metrics().delivered, 2, "fan-out capped at k = 2");
    }

    #[test]
    fn scheduler_modes_produce_identical_runs() {
        // The gossiping scenario from `deterministic_runs`, swept across
        // engines: final clock and full metrics must agree (the
        // heavyweight version lives in tests/sched_differential.rs).
        fn run_once(mode: SchedulerMode) -> (u64, Metrics) {
            let config = SimConfig { loss_rate: 0.3, scheduler: mode, ..SimConfig::default() };
            let mut sim = Simulator::new(config, 1234);
            struct Chatty;
            impl NodeApp for Chatty {
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    ctx.broadcast(vec![ctx.node_id().index() as u8]);
                }
                fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: NodeId, payload: &Payload) {
                    let bytes = payload.as_bytes().expect("test payloads are bytes");
                    if bytes.len() < 3 {
                        let mut p = bytes.to_vec();
                        p.push(ctx.node_id().index() as u8);
                        ctx.broadcast(p);
                    }
                }
            }
            for i in 0..10 {
                sim.add_node(((i % 5) as f64 * 30.0, (i / 5) as f64 * 30.0), Chatty);
            }
            sim.start();
            sim.run();
            (sim.now_us(), *sim.metrics())
        }
        let calendar = run_once(SchedulerMode::Calendar);
        let heap = run_once(SchedulerMode::BinaryHeap);
        assert_eq!(calendar, heap);
        assert!(calendar.1.events_scheduled > 0);
        assert!(calendar.1.peak_queue_len > 0);
    }

    #[test]
    fn payload_bytes_counted_per_transmission() {
        struct Caster;
        impl NodeApp for Caster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node_id().index() == 0 {
                    ctx.broadcast(vec![0u8; 100]);
                }
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &Payload) {}
        }
        let mut sim = Simulator::new(SimConfig::default(), 1);
        sim.add_node((0.0, 0.0), Caster);
        sim.add_node((10.0, 0.0), Caster);
        sim.add_node((20.0, 0.0), Caster);
        sim.start();
        sim.run();
        // One broadcast transmission of 100 bytes (not per receiver).
        assert_eq!(sim.metrics().payload_bytes, 100);
    }

    #[test]
    fn metrics_merge_sums_counters_and_maxes_peak() {
        let a = Metrics {
            broadcasts: 1,
            unicasts: 2,
            unicast_hops: 3,
            delivered: 4,
            lost: 5,
            unroutable: 6,
            payload_bytes: 7,
            neighbor_queries: 8,
            cells_scanned: 9,
            events_scheduled: 10,
            peak_queue_len: 11,
        };
        let b = Metrics { peak_queue_len: 3, delivered: 40, ..Metrics::default() };
        let m = a.merge(b);
        assert_eq!(m.delivered, 44);
        assert_eq!(m.broadcasts, 1);
        assert_eq!(m.peak_queue_len, 11, "peak merges as max, not sum");
        assert_eq!(a.merge(Metrics::default()), a, "default is the identity");
        assert_eq!(a.merge(b), b.merge(a), "merge commutes");
    }
}
