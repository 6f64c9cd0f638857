//! Spatially-sharded parallel execution of the simulator.
//!
//! [`ShardedSimulator`] partitions the hex-grid tiles of the plane
//! across [`SimConfig::shards`] engine cores — each with its **own**
//! scheduler, per-node RNG streams, and [`Metrics`] — and runs them on
//! scoped worker threads under **conservative-lookahead
//! synchronization**: the radio propagation delay
//! ([`SimConfig::base_latency_us`]) lower-bounds the latency of every
//! cross-shard event, so all shards can safely process the window
//! `[t₀, t₀ + L)` in parallel (t₀ = the global earliest pending event,
//! L = the lookahead) — any event one shard sends another lands at
//! `≥ t₀ + L`, strictly beyond the window.
//!
//! # Memory model: one shared topology, per-shard node arenas
//!
//! The coordinator owns **one** global `Topology` (positions + hex
//! index). Positions change only at quiesce points, so worker cores
//! borrow it read-only during windows and answer every neighbor query
//! from it — broadcast targets, fan-out-capped k-nearest, unicast BFS
//! routing — each core with its own scratch buffers, through the very
//! calls a lone shard (and so [`Simulator`](crate::sim::Simulator))
//! makes. Per-shard resident state is the node-state arena: the owned
//! nodes' apps, RNG streams and emission counters, whose footprint
//! tracks the shard's peak population. Cross-shard envelopes are
//! **batched**: a core accumulates one outbox per destination shard,
//! the window barrier moves each batch as a single transfer, and the
//! receiver bulk-sorts it by the existing `(at_us, key)` content order
//! ([`crate::sched::Scheduler::schedule_all`]).
//!
//! The engine remains **bit-identical to the single-threaded
//! [`Simulator`](crate::sim::Simulator)** at every shard count: same
//! matches, same event totals, same final clock, same merged
//! [`Metrics`] (modulo [`Metrics::peak_queue_len`], a per-queue
//! high-water mark — see [`Metrics::without_queue_pressure`]). This
//! follows from the determinism contract (`docs/SIM.md` §1 and §6):
//!
//! * every event is keyed by *content* (`(source, emission counter)`),
//!   so each node processes its own events in an order independent of
//!   global queue interleaving — and of how envelopes are batched;
//! * randomness is *per-node*, drawn on the emitting node in its
//!   processing order, so draws never depend on other nodes' schedules;
//! * positions change only at quiesce points
//!   ([`ShardedSimulator::set_positions`]), so the shared topology is
//!   exact all window long, and every core's neighbor query is the
//!   oracle's own query against the same data.
//!
//! Mobility may carry a node onto a tile owned by a different shard;
//! the quiesce-point rebalance then *hands off* the node — its
//! application, RNG stream, emission counter, and every pending queue
//! entry targeting it (via [`crate::sched::Scheduler::extract`] /
//! [`crate::sched::Scheduler::transfer`], which preserve keys and do
//! not recount [`Metrics::events_scheduled`]) — to the new owner.
//!
//! The single-threaded engine remains *the* differential oracle, as
//! [`crate::sim::SchedulerMode::BinaryHeap`] serves the scheduler
//! layer; `crates/net/tests/shard_differential.rs` and the root
//! `tests/shard_churn.rs` prove the bit-identity from tile-seam
//! micro-scenarios up to full friending swarms.

use crate::arena::NodeArena;
use crate::payload::Payload;
use crate::sched::{AnyScheduler, EventKey, ScheduledEvent, Scheduler};
use crate::sim::{
    draw_latency, roll_loss, splitmix64, Action, EventKind, Metrics, NodeApp, NodeCtx, NodeId,
    NodeState, SimConfig, SimDriver,
};
use crate::topo::{distance, TopoScratch, Topology};
use msb_lattice::LatticePoint;
use msb_telemetry::{Recorder, TraceTag};
use std::collections::HashSet;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// The coordinator-owned world state a core borrows read-only for the
/// duration of a window: the global topology (exact — positions change
/// only at quiesce points) and the node → owning shard table (frozen
/// during a window; handoffs happen only at quiesce points too).
#[derive(Clone, Copy)]
struct WorldRef<'a> {
    topo: &'a Topology,
    owner: &'a [u32],
}

/// One engine core owning a subset of the nodes: its own event queue,
/// its own metrics, and the per-node state (app + RNG + emission
/// counter) of every node it currently owns.
struct ShardCore<A> {
    shard: u32,
    config: SimConfig,
    /// State of the nodes this core owns, in arena slots.
    states: NodeArena<NodeState<A>>,
    queue: AnyScheduler<EventKind>,
    now_us: u64,
    metrics: Metrics,
    /// Events emitted this window whose target another shard owns, one
    /// outbox per destination shard — each drained as a single
    /// coalesced transfer at the window barrier.
    outboxes: Vec<Vec<ScheduledEvent<EventKind>>>,
    targets_buf: Vec<(u32, f64)>,
    knear_buf: Vec<u32>,
    /// Reusable buffers for queries against the shared global topology
    /// (broadcast targets, k-nearest, BFS routing).
    scratch: TopoScratch,
    /// Per-core observability sink (off by default). Owned by the core
    /// so parallel windows record without any cross-thread contention;
    /// the coordinator merges deterministically on demand
    /// ([`ShardedSimulator::telemetry`]). Everything recorded is
    /// derived from sim state — never wall clock — so traces are a
    /// pure function of `(seed, config, apps)`.
    telemetry: Recorder,
}

impl<A: NodeApp> ShardCore<A> {
    fn new(shard: u32, config: SimConfig, shards: usize) -> Self {
        ShardCore {
            shard,
            config,
            states: NodeArena::default(),
            queue: AnyScheduler::for_mode(config.scheduler),
            now_us: 0,
            metrics: Metrics::default(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            targets_buf: Vec::new(),
            knear_buf: Vec::new(),
            scratch: TopoScratch::default(),
            telemetry: Recorder::off(),
        }
    }

    /// Earliest pending local event, if any.
    fn next_time(&mut self) -> Option<u64> {
        self.queue.peek().map(|(at, _)| at)
    }

    /// Inserts one coalesced cross-shard envelope batch, counting the
    /// events toward `events_scheduled` — each event is counted exactly
    /// once simulation-wide, at the core that enqueues it for
    /// processing. The `batch.envelopes` / `batch.sends` counters make
    /// the coalescing ratio observable.
    fn ingest(&mut self, inbound: Vec<ScheduledEvent<EventKind>>) {
        self.telemetry.incr("shard.ingested", self.shard, inbound.len() as u64);
        if !inbound.is_empty() {
            self.telemetry.incr("batch.envelopes", self.shard, inbound.len() as u64);
            self.telemetry.incr("batch.sends", self.shard, 1);
        }
        // One bulk insert, sorted by content key on arrival.
        self.queue.schedule_all(inbound);
        self.note_queue();
    }

    /// Re-homes an extracted entry during a node handoff (no recount).
    fn transfer_in(&mut self, ev: ScheduledEvent<EventKind>) {
        self.queue.transfer(ev);
        self.note_queue();
    }

    /// Processes every local event with `at ≤ horizon`; returns how
    /// many events were popped (the window-span payload).
    fn process_until(&mut self, world: WorldRef<'_>, horizon: u64) -> u64 {
        let mut popped = 0u64;
        while let Some((at, _)) = self.queue.peek() {
            if at > horizon {
                break;
            }
            self.step(world);
            popped += 1;
        }
        popped
    }

    fn step(&mut self, world: WorldRef<'_>) -> bool {
        let Some((at_us, kind)) = self.queue.pop() else {
            return false;
        };
        self.note_queue();
        self.now_us = at_us;
        if self.telemetry.is_on() {
            self.telemetry.incr("shard.pops", self.shard, 1);
            self.telemetry.gauge_max("shard.queue_depth", self.shard, self.queue.len() as u64);
        }
        match kind {
            EventKind::Deliver { to, from, payload } => {
                self.metrics.delivered += 1;
                self.with_ctx(world, to, |app, ctx| app.on_message(ctx, from, &payload));
            }
            EventKind::Timer { node, token } => {
                self.with_ctx(world, node, |app, ctx| app.on_timer(ctx, token));
            }
        }
        true
    }

    fn with_ctx(
        &mut self,
        world: WorldRef<'_>,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut NodeCtx<'_>),
    ) {
        let position = world.topo.position(id.index());
        let state = self.states.get_mut(id.0).expect("event delivered to a non-owned node");
        let mut ctx = NodeCtx {
            id,
            now_us: self.now_us,
            position,
            delivery: self.config.delivery,
            rng: &mut state.rng,
            actions: Vec::new(),
        };
        f(&mut state.app, &mut ctx);
        let actions = ctx.actions;
        for action in actions {
            match action {
                Action::Broadcast(payload) => self.do_broadcast(world, id, payload),
                Action::BroadcastK(k, payload) => self.do_broadcast_k(world, id, k, payload),
                Action::Unicast(to, payload) => self.do_unicast(world, id, to, payload),
                Action::Timer(delay, token) => {
                    let at = self.now_us + delay;
                    let key = self.next_key(id);
                    // A node's timers always target itself — local.
                    self.push_local(at, key, EventKind::Timer { node: id, token });
                }
                Action::RecurringTimer(delay, recur, token) => {
                    let at = self.now_us + delay;
                    let key = self.next_key(id);
                    self.queue.schedule_recurring(
                        at,
                        key,
                        recur,
                        EventKind::Timer { node: id, token },
                    );
                    self.note_queue();
                }
            }
        }
    }

    fn next_key(&mut self, id: NodeId) -> EventKey {
        self.states.get_mut(id.0).expect("emitting node is owned").next_key(id.0)
    }

    /// Routes an emitted event: local target → own queue (counted),
    /// remote target → that shard's outbox (counted by the receiving
    /// core at ingest).
    fn route(&mut self, world: WorldRef<'_>, at_us: u64, key: EventKey, kind: EventKind) {
        let dst = world.owner[kind.target().index()];
        if dst == self.shard {
            self.push_local(at_us, key, kind);
        } else {
            self.telemetry.incr("shard.outbound", self.shard, 1);
            self.outboxes[dst as usize].push(ScheduledEvent {
                at_us,
                key,
                recur: None,
                item: kind,
            });
        }
    }

    fn push_local(&mut self, at_us: u64, key: EventKey, kind: EventKind) {
        self.queue.schedule(at_us, key, kind);
        self.note_queue();
    }

    fn note_queue(&mut self) {
        self.metrics.events_scheduled = self.queue.events_scheduled();
        self.metrics.peak_queue_len = self.queue.peak_len() as u64;
    }

    fn do_broadcast(&mut self, world: WorldRef<'_>, from: NodeId, payload: Payload) {
        self.metrics.broadcasts += 1;
        self.metrics.payload_bytes += payload.wire_len() as u64;
        let mut targets = std::mem::take(&mut self.targets_buf);
        world.topo.broadcast_targets(
            &mut self.scratch,
            &mut self.metrics,
            from.index(),
            &mut targets,
        );
        for &(i, dist) in &targets {
            let sender = self.states.get_mut(from.0).expect("broadcasting node is owned");
            if roll_loss(&self.config, &mut sender.rng) {
                self.metrics.lost += 1;
                continue;
            }
            let at = self.now_us + draw_latency(&self.config, dist, &mut sender.rng);
            let key = sender.next_key(from.0);
            self.route(
                world,
                at,
                key,
                EventKind::Deliver { to: NodeId(i), from, payload: payload.clone() },
            );
        }
        self.targets_buf = targets;
    }

    fn do_broadcast_k(&mut self, world: WorldRef<'_>, from: NodeId, k: usize, payload: Payload) {
        self.metrics.broadcasts += 1;
        self.metrics.payload_bytes += payload.wire_len() as u64;
        let mut cand = std::mem::take(&mut self.knear_buf);
        let src = world.topo.position(from.index());
        world.topo.k_nearest(&mut self.scratch, &mut self.metrics, from.index(), k, &mut cand);
        for &i in &cand {
            let dist = distance(src, world.topo.position(i as usize));
            let sender = self.states.get_mut(from.0).expect("broadcasting node is owned");
            if roll_loss(&self.config, &mut sender.rng) {
                self.metrics.lost += 1;
                continue;
            }
            let at = self.now_us + draw_latency(&self.config, dist, &mut sender.rng);
            let key = sender.next_key(from.0);
            self.route(
                world,
                at,
                key,
                EventKind::Deliver { to: NodeId(i), from, payload: payload.clone() },
            );
        }
        self.knear_buf = cand;
    }

    fn do_unicast(&mut self, world: WorldRef<'_>, from: NodeId, to: NodeId, payload: Payload) {
        self.metrics.unicasts += 1;
        if from == to {
            let at = self.now_us;
            let key = self.next_key(from);
            self.push_local(at, key, EventKind::Deliver { to, from, payload });
            return;
        }
        let Some(path) = world.topo.shortest_path(
            &mut self.scratch,
            &mut self.metrics,
            from.index(),
            to.index(),
        ) else {
            self.metrics.unroutable += 1;
            return;
        };
        let mut at = self.now_us;
        for hop in path.windows(2) {
            let d = distance(
                world.topo.position(hop[0] as usize),
                world.topo.position(hop[1] as usize),
            );
            self.metrics.unicast_hops += 1;
            self.metrics.payload_bytes += payload.wire_len() as u64;
            let sender = self.states.get_mut(from.0).expect("unicasting node is owned");
            if roll_loss(&self.config, &mut sender.rng) {
                self.metrics.lost += 1;
                return;
            }
            at += draw_latency(&self.config, d, &mut sender.rng);
        }
        let key = self.next_key(from);
        self.route(world, at, key, EventKind::Deliver { to, from, payload });
    }

    /// Drains every per-destination outbox for the window barrier.
    fn take_outboxes(&mut self) -> Vec<Vec<ScheduledEvent<EventKind>>> {
        self.outboxes.iter_mut().map(std::mem::take).collect()
    }
}

/// The owning shard of a hex tile: tiles aggregate into
/// `region_tiles × region_tiles` square regions (in lattice
/// coordinates), and the region hashes to a shard. With
/// `region_tiles == 1` this is exactly the historical per-tile hash.
fn region_owner(region_tiles: i64, shards: u64, tile: LatticePoint) -> u32 {
    let u1 = tile.u1.div_euclid(region_tiles);
    let u2 = tile.u2.div_euclid(region_tiles);
    let h = splitmix64(splitmix64(u1 as u64) ^ (u2 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (h % shards) as u32
}

/// Window command sent to a worker; `Exit` ends the worker loop.
enum Cmd {
    /// Ingest `inbound`, process every local event `≤ horizon`, reply.
    /// `start` is t₀, the global window floor (telemetry span origin).
    Window {
        start: u64,
        horizon: u64,
        inbound: Vec<ScheduledEvent<EventKind>>,
    },
    /// Ingest only (the post-deadline flush); no reply.
    Ingest {
        inbound: Vec<ScheduledEvent<EventKind>>,
    },
    Exit,
}

/// Worker → coordinator barrier message after a window.
struct Reply {
    shard: usize,
    next: Option<u64>,
    now: u64,
    /// Emitted cross-shard envelopes, already bucketed per destination
    /// shard — the coordinator forwards each bucket as one batch.
    outboxes: Vec<Vec<ScheduledEvent<EventKind>>>,
}

/// The sharded parallel engine: coordinator over per-shard cores. See
/// the module docs for the synchronization, memory, and determinism
/// contract; the public surface mirrors
/// [`Simulator`](crate::sim::Simulator) so harnesses drive either
/// through [`SimDriver`].
pub struct ShardedSimulator<A: NodeApp> {
    config: SimConfig,
    seed: u64,
    /// The one shared world topology (positions + hex index); workers
    /// borrow it read-only during windows. Its hex lattice is also the
    /// tile lattice shards partition the plane by.
    topo: Topology,
    cores: Vec<ShardCore<A>>,
    /// Node → owning shard (the coordinator's authoritative table,
    /// shared read-only with workers during windows).
    owner: Vec<u32>,
    now_us: u64,
    ext_seq: u64,
    /// Coordinator-side sink: quiesce/handoff events (recorded between
    /// windows, on the coordinator thread). Worker-side series live in
    /// each [`ShardCore::telemetry`]; [`ShardedSimulator::telemetry`]
    /// merges the lot deterministically.
    telemetry: Recorder,
}

impl<A: NodeApp> ShardedSimulator<A> {
    /// Creates a sharded simulator with `config.shards` cores (clamped
    /// to at least 1) and the given RNG seed. The tile partition uses
    /// the spatial index's hex lattice, with tiles one radio range
    /// across, aggregated into [`SimConfig::region_tiles`]-sized
    /// regions.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards > 1` and `config.base_latency_us` is
    /// zero — the base latency is the conservative lookahead; without
    /// it no window has positive width and shards could not advance in
    /// parallel.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let shards = config.shards.max(1);
        if shards > 1 {
            assert!(
                config.base_latency_us > 0,
                "sharded execution needs base_latency_us > 0: it is the conservative lookahead \
                 bounding cross-shard event latency"
            );
            assert!(
                config.per_meter_latency_us >= 0.0,
                "negative per-meter latency would break the lookahead bound"
            );
        }
        let mut core_config = config;
        core_config.shards = shards;
        ShardedSimulator {
            config: core_config,
            seed,
            topo: Topology::new(config.radio_range),
            cores: (0..shards).map(|i| ShardCore::new(i as u32, core_config, shards)).collect(),
            owner: Vec::new(),
            now_us: 0,
            ext_seq: 0,
            telemetry: Recorder::off(),
        }
    }

    /// Turns telemetry on for the coordinator and every core, keeping
    /// the most recent `trace_cap` trace events per core. Enabling
    /// telemetry changes no simulated outcome — the differential suite
    /// pins on-vs-off bit-identity at every shard count.
    pub fn enable_telemetry(&mut self, trace_cap: usize) {
        self.telemetry = Recorder::on(trace_cap);
        for core in &mut self.cores {
            core.telemetry = Recorder::on(trace_cap);
        }
    }

    /// The merged telemetry view: per-core metric sets fold
    /// commutatively (ascending shard order, grouping immaterial) and
    /// traces merge sorted by `(at_us, actor)`, so the result is
    /// deterministic for a given `(seed, config, apps, shards)` —
    /// independent of worker-thread timing. Coordinator events
    /// (quiesce, handoff) carry `actor == shard_count`.
    pub fn telemetry(&self) -> Recorder {
        let mut parts: Vec<Recorder> = Vec::with_capacity(self.cores.len() + 1);
        parts.push(self.telemetry.clone());
        parts.extend(self.cores.iter().map(|c| c.telemetry.clone()));
        Recorder::merge_all(&parts)
    }

    /// Number of shards (cores).
    pub fn shard_count(&self) -> usize {
        self.cores.len()
    }

    /// The shard that owns the tile containing `position`.
    fn tile_owner(&self, position: (f64, f64)) -> u32 {
        if self.cores.len() == 1 {
            return 0;
        }
        let region = self.config.region_tiles.max(1) as i64;
        region_owner(region, self.cores.len() as u64, self.topo.lattice().snap(position))
    }

    /// Adds a node at `position`, returning its id: the shared topology
    /// learns the position, the owning core (by region hash) takes the
    /// node's state.
    pub fn add_node(&mut self, position: (f64, f64), app: A) -> NodeId {
        let id = NodeId(self.owner.len() as u32);
        let shard = self.tile_owner(position);
        self.owner.push(shard);
        self.topo.push(position);
        self.cores[shard as usize].states.insert(id.0, NodeState::new(app, self.seed, id.0));
        id
    }

    /// Adds many nodes at once, returning their ids in insertion order.
    pub fn add_nodes(&mut self, nodes: impl IntoIterator<Item = ((f64, f64), A)>) -> Vec<NodeId> {
        let iter = nodes.into_iter();
        let mut ids = Vec::with_capacity(iter.size_hint().0);
        for (position, app) in iter {
            ids.push(self.add_node(position, app));
        }
        ids
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.owner.len()
    }

    /// Current simulation time in microseconds — the max over shard
    /// clocks, i.e. the instant of the last event processed anywhere.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Merged metrics over all shards, in ascending shard order
    /// (associative, so the grouping is immaterial — see
    /// [`Metrics::merge`]). All fields except
    /// [`Metrics::peak_queue_len`] are bit-identical to the
    /// single-threaded oracle's.
    pub fn metrics(&self) -> Metrics {
        self.cores.iter().fold(Metrics::default(), |acc, c| acc.merge(c.metrics))
    }

    /// Per-shard metrics, by shard index.
    pub fn shard_metrics(&self) -> Vec<Metrics> {
        self.cores.iter().map(|c| c.metrics).collect()
    }

    /// Per-shard owned-node counts, by shard index.
    pub fn shard_node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cores.len()];
        for &shard in &self.owner {
            counts[shard as usize] += 1;
        }
        counts
    }

    /// Per-shard resident engine bytes, by shard index: the node-state
    /// arena's slot storage, which tracks the shard's owned population
    /// (the topology is shared, see [`Self::shared_topology_bytes`];
    /// application-internal heap, e.g. message stores, is not visible
    /// from here). Deterministic, length/capacity based.
    pub fn shard_resident_bytes(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.states.resident_bytes()).collect()
    }

    /// Resident bytes of the *shared* world topology (positions + hex
    /// index) — held exactly once, whatever the shard count.
    pub fn shared_topology_bytes(&self) -> u64 {
        self.topo.resident_bytes()
    }

    /// Borrow a node's application state (e.g. to inspect results).
    pub fn app(&self, id: NodeId) -> &A {
        let core = &self.cores[self.owner[id.index()] as usize];
        &core.states.get(id.index() as u32).expect("owner table is authoritative").app
    }

    /// Mutably borrow a node's application state.
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        let core = &mut self.cores[self.owner[id.index()] as usize];
        &mut core.states.get_mut(id.index() as u32).expect("owner table is authoritative").app
    }

    /// A node's position.
    pub fn position(&self, id: NodeId) -> (f64, f64) {
        self.topo.position(id.index())
    }

    /// Calls `on_start` on every node (in id order), then routes the
    /// resulting cross-shard emissions.
    pub fn start(&mut self) {
        for i in 0..self.owner.len() {
            self.callback(NodeId(i as u32), |app, ctx| app.on_start(ctx));
        }
        self.route_outboxes();
    }

    /// Runs one callback on node `id` outside the event loop, at the
    /// global clock (which a quiesce point may have advanced past the
    /// owning core's last event); its emissions stay in the owning
    /// core's queue and outboxes.
    pub(crate) fn callback(&mut self, id: NodeId, f: impl FnOnce(&mut A, &mut NodeCtx<'_>)) {
        let core = &mut self.cores[self.owner[id.index()] as usize];
        core.now_us = self.now_us;
        core.with_ctx(WorldRef { topo: &self.topo, owner: &self.owner }, id, f);
    }

    /// Processes the lone core's events `≤ horizon` inline — no
    /// threads, no channels, hence no `Send` bound. The whole run loop
    /// of a one-shard engine, and of [`crate::sim::Simulator`].
    pub(crate) fn run_inline(&mut self, horizon: u64) {
        let core = &mut self.cores[0];
        core.process_until(WorldRef { topo: &self.topo, owner: &self.owner }, horizon);
        debug_assert!(core.outboxes.iter().all(Vec::is_empty), "a lone shard owns every node");
        self.now_us = self.now_us.max(core.now_us);
    }

    /// Processes the lone core's next event; false when none is
    /// pending ([`crate::sim::Simulator::step`]).
    pub(crate) fn step_inline(&mut self) -> bool {
        let core = &mut self.cores[0];
        let stepped = core.step(WorldRef { topo: &self.topo, owner: &self.owner });
        self.now_us = self.now_us.max(core.now_us);
        stepped
    }

    /// Advances the global clock to `deadline_us` after a bounded run.
    pub(crate) fn reach(&mut self, deadline_us: u64) {
        self.now_us = self.now_us.max(deadline_us);
    }

    /// Core 0's metrics: the whole run's when there is one shard.
    pub(crate) fn core0_metrics(&self) -> &Metrics {
        &self.cores[0].metrics
    }

    /// Core 0's telemetry sink: the whole run's when there is one
    /// shard (the coordinator records only handoffs, which need two).
    pub(crate) fn core0_telemetry(&self) -> &Recorder {
        &self.cores[0].telemetry
    }

    /// Injects a message from "outside" the network, carrying the
    /// [`EventKey::EXTERNAL_SRC`] sentinel — lands directly on the
    /// queue of the core owning `to`, like the oracle's `inject`.
    pub fn inject(&mut self, to: NodeId, from: NodeId, payload: impl Into<Payload>) {
        let at = self.now_us;
        let key = EventKey::external(self.ext_seq);
        self.ext_seq += 1;
        let core = &mut self.cores[self.owner[to.index()] as usize];
        core.push_local(at, key, EventKind::Deliver { to, from, payload: payload.into() });
    }

    /// Moves one node in the shared topology and hands it off if its
    /// tile now belongs to a different shard. Must only be called at
    /// quiesce points (never mid-`run_until`).
    pub fn set_position(&mut self, id: NodeId, position: (f64, f64)) {
        self.topo.set_position(id.index(), position);
        self.rehome_all();
    }

    /// Bulk position update at a quiesce point — the mobility tick.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one position per node is supplied.
    pub fn set_positions(&mut self, positions: &[(f64, f64)]) {
        assert_eq!(positions.len(), self.owner.len(), "one position per node");
        for (i, &position) in positions.iter().enumerate() {
            self.topo.set_position(i, position);
        }
        // A quiesce point: release index capacity churn left behind
        // (same hygiene, same spot, as the oracle engine).
        self.topo.compact();
        self.rehome_all();
    }

    /// The re-homing pass behind [`Self::set_positions`] and
    /// [`Self::set_position`]: computes every node's new owner first,
    /// then performs all handoffs with **one** queue scan per affected
    /// source core — a departing node's state (app, RNG stream,
    /// emission counter) moves wholesale, and every pending entry
    /// targeting it is extracted key-intact and transferred (uncounted)
    /// to the new owner. A scan per moved node would be O(moved × queue
    /// depth) per mobility tick, which at swarm scale dominates the
    /// whole run. Content-derived keys make the transfer order
    /// immaterial, so the batch is bit-identical to re-homing node by
    /// node.
    fn rehome_all(&mut self) {
        if self.cores.len() == 1 {
            return;
        }
        // (node, new owner) for exactly the nodes changing shards, in
        // ascending node order.
        let mut moves: Vec<(usize, u32)> = Vec::new();
        for i in 0..self.owner.len() {
            let new_owner = self.tile_owner(self.topo.position(i));
            if new_owner != self.owner[i] {
                moves.push((i, new_owner));
            }
        }
        if moves.is_empty() {
            return;
        }
        let moving: HashSet<u32> = moves.iter().map(|&(i, _)| i as u32).collect();
        let mut affected = vec![false; self.cores.len()];
        for &(i, _) in &moves {
            affected[self.owner[i] as usize] = true;
        }
        // One extract per source core that loses at least one node,
        // pulling every departing node's pending entries key-intact.
        let mut in_flight: Vec<ScheduledEvent<EventKind>> = Vec::new();
        for (src, hit) in affected.into_iter().enumerate() {
            if !hit {
                continue;
            }
            let core = &mut self.cores[src];
            in_flight.extend(
                core.queue.extract(&mut |kind: &EventKind| moving.contains(&kind.target().0)),
            );
            core.note_queue();
        }
        if self.telemetry.is_on() {
            let coord = self.cores.len() as u32;
            self.telemetry.event(
                TraceTag::Quiesce,
                coord,
                self.now_us,
                moves.len() as u64,
                in_flight.len() as u64,
            );
            for &(i, dst) in &moves {
                let from_to = (u64::from(self.owner[i]) << 32) | u64::from(dst);
                self.telemetry.event(TraceTag::Handoff, coord, self.now_us, i as u64, from_to);
            }
        }
        for &(i, dst) in &moves {
            let node = i as u32;
            let state = self.cores[self.owner[i] as usize].states.remove(node);
            self.cores[dst as usize].states.insert(node, state);
            self.owner[i] = dst;
        }
        for ev in in_flight {
            let dst = self.owner[ev.item.target().index()];
            self.cores[dst as usize].transfer_in(ev);
        }
        debug_assert_eq!(
            self.cores.iter().map(|c| c.states.len()).sum::<usize>(),
            self.owner.len(),
            "every node owned exactly once"
        );
    }

    /// Routes every core's per-destination outboxes, delivering each
    /// destination **one** coalesced batch (gathered across source
    /// cores in ascending shard order — order is immaterial for the
    /// run, keys are content-derived, but deterministic for the
    /// avoidance of doubt).
    fn route_outboxes(&mut self) {
        let n = self.cores.len();
        for dst in 0..n {
            let mut batch: Vec<ScheduledEvent<EventKind>> = Vec::new();
            for src in 0..n {
                batch.append(&mut self.cores[src].outboxes[dst]);
            }
            if !batch.is_empty() {
                self.cores[dst].ingest(batch);
            }
        }
    }

    /// BFS shortest path over the current connectivity graph, answered
    /// from the shared topology (accounted to shard 0's metrics, like
    /// every coordinator-issued query).
    pub fn shortest_path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let core = &mut self.cores[0];
        self.topo
            .shortest_path(&mut core.scratch, &mut core.metrics, from.index(), to.index())
            .map(|path| path.into_iter().map(NodeId).collect())
    }

    /// Connected components of the current connectivity graph, answered
    /// from the shared topology.
    pub fn connected_components(&mut self) -> Vec<Vec<NodeId>> {
        let core = &mut self.cores[0];
        self.topo
            .connected_components(&mut core.scratch, &mut core.metrics)
            .into_iter()
            .map(|comp| comp.into_iter().map(NodeId).collect())
            .collect()
    }
}

impl<A: NodeApp + Send> ShardedSimulator<A> {
    /// Runs until every queue drains.
    pub fn run(&mut self) {
        self.run_windows(None);
    }

    /// Runs until the queues drain or the clock passes `deadline_us`.
    pub fn run_until(&mut self, deadline_us: u64) {
        self.run_windows(Some(deadline_us));
        self.reach(deadline_us);
    }

    /// The conservative-lookahead window loop. Each iteration:
    ///
    /// 1. t₀ = the globally earliest pending event (local queues and
    ///    in-flight cross-shard envelopes);
    /// 2. horizon = `min(deadline, t₀ + L − 1)` with
    ///    L = `base_latency_us` — every cross-shard event emitted while
    ///    processing `≤ horizon` lands at `≥ t₀ + L > horizon`, so no
    ///    shard can receive an event inside a window it already passed;
    /// 3. all shards ingest their inbound envelope batch and process
    ///    their window **in parallel**, reading the shared topology
    ///    (frozen until the next quiesce);
    /// 4. barrier: per-destination outbox batches move to their
    ///    destination shards for the next window — one transfer per
    ///    (window, destination) pair.
    ///
    /// With one shard the core runs inline ([`Self::run_inline`]).
    fn run_windows(&mut self, deadline: Option<u64>) {
        let n = self.cores.len();
        if n == 1 {
            return self.run_inline(deadline.unwrap_or(u64::MAX));
        }
        let lookahead = self.config.base_latency_us;
        let mut nexts: Vec<Option<u64>> =
            self.cores.iter_mut().map(|core| core.next_time()).collect();
        let mut nows: Vec<u64> = self.cores.iter().map(|core| core.now_us).collect();
        // In-flight cross-shard envelopes, per destination shard.
        let mut pending: Vec<Vec<ScheduledEvent<EventKind>>> = (0..n).map(|_| Vec::new()).collect();
        let topo = &self.topo;
        let owner: &[u32] = &self.owner;
        std::thread::scope(|s| {
            let (reply_tx, reply_rx): (SyncSender<Reply>, Receiver<Reply>) = sync_channel(n);
            let mut cmd_txs: Vec<SyncSender<Cmd>> = Vec::with_capacity(n);
            for (shard, core) in self.cores.iter_mut().enumerate() {
                let (tx, rx) = sync_channel::<Cmd>(2);
                cmd_txs.push(tx);
                let reply_tx = reply_tx.clone();
                s.spawn(move || {
                    let world = WorldRef { topo, owner };
                    while let Ok(cmd) = rx.recv() {
                        match cmd {
                            Cmd::Window { start, horizon, inbound } => {
                                let ingested = inbound.len() as u64;
                                core.ingest(inbound);
                                let popped = core.process_until(world, horizon);
                                if core.telemetry.is_on() {
                                    // Span stamped from sim time (the
                                    // window bounds), not wall clock:
                                    // deterministic by construction.
                                    let tag = if popped == 0 {
                                        TraceTag::Stall
                                    } else {
                                        TraceTag::Window
                                    };
                                    core.telemetry.span(
                                        tag,
                                        core.shard,
                                        start,
                                        horizon - start + 1,
                                        popped,
                                        ingested,
                                    );
                                }
                                let reply = Reply {
                                    shard,
                                    next: core.next_time(),
                                    now: core.now_us,
                                    outboxes: core.take_outboxes(),
                                };
                                if reply_tx.send(reply).is_err() {
                                    break;
                                }
                            }
                            Cmd::Ingest { inbound } => core.ingest(inbound),
                            Cmd::Exit => break,
                        }
                    }
                });
            }
            loop {
                // 1. The global floor over local queues and envelopes.
                let mut t0: Option<u64> = None;
                for i in 0..n {
                    for t in nexts[i].into_iter().chain(pending[i].iter().map(|e| e.at_us)) {
                        t0 = Some(t0.map_or(t, |cur: u64| cur.min(t)));
                    }
                }
                let Some(t0) = t0 else { break };
                if deadline.is_some_and(|d| t0 > d) {
                    break;
                }
                // 2. The conservative window.
                let mut horizon = t0 + lookahead - 1;
                if let Some(d) = deadline {
                    horizon = horizon.min(d);
                }
                // 3. Parallel window execution.
                for (i, tx) in cmd_txs.iter().enumerate() {
                    let inbound = std::mem::take(&mut pending[i]);
                    tx.send(Cmd::Window { start: t0, horizon, inbound }).expect("worker alive");
                }
                // 4. Barrier: collect every reply, then append each
                // pre-bucketed outbox batch in ascending shard order
                // (ownership is frozen during a window, so the
                // bucketing workers computed stays correct here).
                let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
                for _ in 0..n {
                    let reply = reply_rx.recv().expect("worker alive");
                    let shard = reply.shard;
                    replies[shard] = Some(reply);
                }
                for slot in &mut replies {
                    let reply = slot.take().expect("one reply per shard");
                    nexts[reply.shard] = reply.next;
                    nows[reply.shard] = reply.now;
                    for (dst, mut batch) in reply.outboxes.into_iter().enumerate() {
                        pending[dst].append(&mut batch);
                    }
                }
            }
            // Post-deadline flush: surviving envelopes all land beyond
            // the deadline (the lookahead guarantees it); park them on
            // their destination queues for the next run call.
            for (i, tx) in cmd_txs.iter().enumerate() {
                let inbound = std::mem::take(&mut pending[i]);
                if !inbound.is_empty() {
                    debug_assert!(deadline.is_some(), "a full run drains every envelope");
                    tx.send(Cmd::Ingest { inbound }).expect("worker alive");
                }
                tx.send(Cmd::Exit).expect("worker alive");
            }
        });
        self.now_us = self.now_us.max(nows.iter().copied().max().unwrap_or(0));
    }
}

impl<A: NodeApp + Send> SimDriver for ShardedSimulator<A> {
    fn start(&mut self) {
        ShardedSimulator::start(self);
    }

    fn run(&mut self) {
        ShardedSimulator::run(self);
    }

    fn run_until(&mut self, deadline_us: u64) {
        ShardedSimulator::run_until(self, deadline_us);
    }

    fn set_positions(&mut self, positions: &[(f64, f64)]) {
        ShardedSimulator::set_positions(self, positions);
    }

    fn now_us(&self) -> u64 {
        ShardedSimulator::now_us(self)
    }
}

impl<A: NodeApp> std::fmt::Debug for ShardedSimulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("shards", &self.cores.len())
            .field("nodes", &self.owner.len())
            .field("now_us", &self.now_us)
            .field("metrics", &self.metrics())
            .finish()
    }
}
