//! A deterministic discrete-event simulator for decentralized multi-hop
//! mobile social networks.
//!
//! The paper evaluates its protocols in ad hoc networks of phones using
//! short-range radio (WiFi/Bluetooth) with no infrastructure. This crate
//! supplies that substrate: nodes with positions and a radio range,
//! broadcast within range, (reverse-path) unicast across hops, message
//! latency and loss, TTL-based flooding with duplicate suppression,
//! per-sender rate limiting (the paper's DoS defence), and a
//! random-waypoint mobility model. All randomness flows from per-node
//! RNG streams derived from one seed, so every run is reproducible.
//!
//! Range queries (who hears a broadcast, who is a BFS neighbor) are
//! answered by a [`spatial::SpatialIndex`] over square grid cells one
//! radio range across, so a query reads the 3×3 cells around its
//! center, scaling swarms to 10k+ nodes; its tests hold every query to
//! an all-node scan. The event queue is pluggable
//! ([`sched`], selected by [`sim::SimConfig::scheduler`]): a
//! hierarchical calendar queue with O(1)-amortized operations for the
//! bounded-horizon bulk of the traffic, with the original binary heap
//! kept as the bit-identical oracle — the full engine contract
//! (ordering, tie-breaking, recurring events, re-flood scenarios) lives
//! in `docs/SIM.md`.
//!
//! For multi-core scale, the whole engine shards spatially:
//! [`shard::ShardedSimulator`] partitions the same grid cells across
//! [`sim::SimConfig::shards`] worker cores synchronized by conservative
//! lookahead, bit-identical to the single-threaded [`sim::Simulator`]
//! at any shard count (the shard contract is `docs/SIM.md` §6).
//!
//! # Example
//!
//! ```
//! use msb_net::sim::{NodeApp, NodeCtx, SimConfig, Simulator};
//!
//! struct Echo;
//! impl NodeApp for Echo {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         if ctx.node_id().index() == 0 {
//!             ctx.broadcast(b"ping".to_vec());
//!         }
//!     }
//!     fn on_message(
//!         &mut self,
//!         ctx: &mut NodeCtx<'_>,
//!         _from: msb_net::sim::NodeId,
//!         payload: &msb_net::Payload,
//!     ) {
//!         if payload.as_bytes() == Some(b"ping") {
//!             ctx.unicast(msb_net::sim::NodeId::new(0), b"pong".to_vec());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default(), 7);
//! sim.add_node((0.0, 0.0), Echo);
//! sim.add_node((10.0, 0.0), Echo);
//! sim.start();
//! sim.run();
//! assert!(sim.metrics().unicasts >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod flood;
pub mod guard;
pub mod harness;
pub mod mobility;
pub mod payload;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod spatial;
mod topo;

pub use harness::{AppAction, AppHarness};
pub use payload::Payload;
pub use sched::{
    CalendarScheduler, EventKey, HeapScheduler, Recurrence, ScheduledEvent, Scheduler,
    SchedulerMode,
};
pub use shard::ShardedSimulator;
pub use sim::{DeliveryMode, Metrics, NodeApp, NodeCtx, NodeId, SimConfig, SimDriver, Simulator};
pub use spatial::{SpatialIndex, SpatialScratch};
