//! Differential oracle: the calendar-queue scheduler against the
//! binary heap.
//!
//! The event engine's contract is *bit identity* (see `docs/SIM.md`):
//! with the same inputs, [`SchedulerMode::Calendar`] and
//! [`SchedulerMode::BinaryHeap`] must pop the same events at the same
//! timestamps in the same content-key `(src, emit)` tie order, re-arm
//! recurring entries identically, and report the same
//! `events_scheduled` / `peak_queue_len` counters. These tests pin the contract at two
//! levels, mirroring `spatial_differential.rs`:
//!
//! 1. the raw [`Scheduler`] API, property-tested over random event
//!    streams — same-instant ties, far-future deadlines (beyond the
//!    calendar's ring window), recurring entries, and mid-drain
//!    injection;
//! 2. full-simulation traces under mobility, loss, recurring timers,
//!    fan-out-capped broadcasts, and mid-run injection.
//!
//! The application level (`FriendingApp` with re-flooding, across
//! protocols × delivery modes) is pinned by the root
//! `tests/churn_smoke.rs`.

use msb_net::mobility::{Bounds, RandomWaypoint};
use msb_net::sched::{AnyScheduler, EventKey, Recurrence, Scheduler, SchedulerMode};
use msb_net::sim::{Metrics, NodeApp, NodeCtx, NodeId, SimConfig, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted action against a scheduler.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a one-shot at `now + delay`.
    Schedule { delay: u64 },
    /// Schedule a recurring entry at `now + delay`, firing every
    /// `period` until `now + delay + horizon`.
    Recurring { delay: u64, period: u64, horizon: u64 },
    /// Pop one event (mid-drain: later schedules are relative to the
    /// popped timestamp, i.e. injection while the queue is hot).
    Pop,
}

/// Decodes one raw `u64` draw into an [`Op`] (the vendored proptest
/// shim has no combinators, so the mixing happens here via splitmix64
/// expansion). Five of twelve draws are pops; schedules mix
/// adversarial fixed delays — exact ties, bucket boundaries, the
/// radio/computation horizon, far-future deadlines beyond the calendar
/// ring (~33 ms) — with uniform ones, plus bounded recurring entries.
fn decode_op(raw: u64) -> Op {
    let mut state = raw;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (sel, a, b, c) = (next(), next(), next(), next());
    match sel % 12 {
        0 => Op::Schedule { delay: 0 },
        1 => Op::Schedule { delay: 1 },
        2 => Op::Schedule { delay: 511 + a % 2 }, // bucket-boundary straddle
        3 => Op::Schedule { delay: 7_000 },
        4 => Op::Schedule { delay: 3_000_000 + a % 100_000 },
        5 => Op::Schedule { delay: a % 50_000 },
        6 => {
            Op::Recurring { delay: 1 + a % 20_000, period: 1 + b % 600_000, horizon: c % 2_000_000 }
        }
        _ => Op::Pop,
    }
}

/// Runs a script and returns every observable: the popped `(at, item)`
/// log and the final counters.
fn drive(mode: SchedulerMode, ops: &[Op]) -> (Vec<(u64, u32)>, usize, u64, usize) {
    let mut s: AnyScheduler<u32> = AnyScheduler::for_mode(mode);
    let mut log = Vec::new();
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        // Content keys the way the simulator mints them: a handful of
        // source streams, each with strictly increasing emission
        // counters (`i` is unique across the script).
        let key = EventKey::new((i % 3) as u32, i as u64);
        match *op {
            Op::Schedule { delay } => s.schedule(now + delay, key, i as u32),
            Op::Recurring { delay, period, horizon } => {
                let first = now + delay;
                s.schedule_recurring(
                    first,
                    key,
                    Recurrence::new(period, first + horizon),
                    i as u32,
                );
            }
            Op::Pop => {
                if let Some((at, item)) = s.pop() {
                    assert!(at >= now, "time went backwards");
                    now = at;
                    log.push((at, item));
                }
            }
        }
    }
    while let Some(ev) = s.pop() {
        log.push(ev);
    }
    (log, s.len(), s.events_scheduled(), s.peak_len())
}

proptest! {
    /// Heap and calendar pop identical streams — ties, far futures,
    /// recurrence and mid-drain injection included — and agree on every
    /// counter.
    #[test]
    fn schedulers_bit_identical_on_random_streams(
        raw in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        let heap = drive(SchedulerMode::BinaryHeap, &ops);
        let calendar = drive(SchedulerMode::Calendar, &ops);
        prop_assert_eq!(&heap.0, &calendar.0, "pop streams diverged");
        prop_assert_eq!(heap.1, calendar.1, "residual lengths diverged");
        prop_assert_eq!(heap.2, calendar.2, "events_scheduled diverged");
        prop_assert_eq!(heap.3, calendar.3, "peak_len diverged");
        prop_assert_eq!(heap.1, 0, "recurrences are bounded, the queue must drain");
        // The popped log is globally ordered.
        prop_assert!(heap.0.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Same-instant events pop in ascending content-key `(src, emit)`
    /// order in both engines — independent of insertion order, whatever
    /// bucket boundaries the instant straddles.
    #[test]
    fn same_instant_events_pop_in_key_order(
        at in 0u64..5_000_000,
        n in 2usize..40,
        shuffle_seed in any::<u64>(),
    ) {
        // Build n distinct keys across a few source streams, then
        // insert them in a seed-driven shuffled order.
        let mut keys: Vec<EventKey> =
            (0..n).map(|i| EventKey::new((i % 4) as u32, (i / 4) as u64)).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let mut expect = keys.clone();
        expect.sort();
        for mode in [SchedulerMode::BinaryHeap, SchedulerMode::Calendar] {
            let mut s: AnyScheduler<EventKey> = AnyScheduler::for_mode(mode);
            for &key in &keys {
                s.schedule(at, key, key);
            }
            let order: Vec<EventKey> =
                std::iter::from_fn(|| s.pop().map(|(_, k)| k)).collect();
            prop_assert_eq!(&order, &expect, "mode {:?} at {}", mode, at);
        }
    }
}

/// One delivery record: (now_us, from, payload).
type TraceEntry = (u64, NodeId, Vec<u8>);

/// A gossiping app exercising every scheduler-visible feature: plain
/// broadcasts, fan-out-capped broadcasts, unicasts, one-shot timers,
/// and recurring timers (periodic re-broadcast — the re-flood shape).
struct ChurnTraceApp {
    trace: Vec<TraceEntry>,
    timer_log: Vec<(u64, u64)>,
}

impl NodeApp for ChurnTraceApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let idx = ctx.node_id().index();
        if idx.is_multiple_of(5) {
            ctx.broadcast(vec![idx as u8]);
            // Periodic re-broadcast of the seed, bounded like a
            // request expiry bounds a re-flood.
            ctx.set_recurring_timer(30_000, 30_000, 110_000, idx as u64);
        }
        if idx.is_multiple_of(7) {
            ctx.set_timer(45_000, 1_000 + idx as u64);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &msb_net::Payload) {
        let payload = payload.as_bytes().expect("test payloads are bytes");
        self.trace.push((ctx.now_us(), from, payload.to_vec()));
        if payload.len() < 3 {
            let mut p = payload.to_vec();
            p.push(ctx.node_id().index() as u8);
            // Gossip onward to a bounded neighbor set.
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
            // Recurring firing: re-broadcast the seed (dup-suppression
            // is the receivers' problem; here everything re-gossips).
            ctx.broadcast_k_nearest(3, vec![token as u8]);
        }
    }
}

/// Per-node delivery traces, per-node timer logs, metrics, final clock.
type TraceOutcome = (Vec<Vec<TraceEntry>>, Vec<Vec<(u64, u64)>>, Metrics, u64);

/// Runs the churn gossip swarm with mobility ticks between phases and
/// mid-run injection, returning everything observable.
fn run_trace(mode: SchedulerMode, seed: u64, n: usize) -> TraceOutcome {
    let config = SimConfig { loss_rate: 0.05, scheduler: mode, ..SimConfig::default() };
    let mut sim = Simulator::new(config, seed);
    let mut mobility = RandomWaypoint::new(
        n,
        Bounds { width: 220.0, height: 220.0 },
        1.0,
        8.0,
        0.2,
        seed ^ 0x5eed,
    );
    let placed: Vec<((f64, f64), ChurnTraceApp)> = mobility
        .positions()
        .into_iter()
        .map(|p| (p, ChurnTraceApp { trace: Vec::new(), timer_log: Vec::new() }))
        .collect();
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
    let traces: Vec<Vec<TraceEntry>> =
        (0..n).map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).trace)).collect();
    let timers: Vec<Vec<(u64, u64)>> =
        (0..n).map(|i| std::mem::take(&mut sim.app_mut(NodeId::new(i as u32)).timer_log)).collect();
    (traces, timers, *sim.metrics(), sim.now_us())
}

/// A past-dated entry — scheduled before the last popped instant,
/// which the [`Scheduler`] API allows — pops next on both engines, and
/// the counters still agree. The random-stream proptest above cannot
/// produce this script: it schedules relative to the last pop and
/// asserts time-monotone pops.
#[test]
fn past_dated_entries_pop_next_on_both_engines() {
    let run = |mode: SchedulerMode| {
        let mut s: AnyScheduler<u32> = AnyScheduler::for_mode(mode);
        s.schedule(1_000, EventKey::new(0, 0), 0);
        s.schedule(2_000, EventKey::new(0, 1), 1);
        s.schedule(3_000, EventKey::new(0, 2), 2);
        let mut log = vec![s.pop().expect("three pending")];
        s.schedule(5, EventKey::new(1, 0), 3);
        s.schedule(500, EventKey::new(1, 1), 4);
        while let Some(ev) = s.pop() {
            log.push(ev);
        }
        (log, s.len(), s.events_scheduled(), s.peak_len())
    };
    let heap = run(SchedulerMode::BinaryHeap);
    assert_eq!(heap.0, vec![(1_000, 0), (5, 3), (500, 4), (2_000, 1), (3_000, 2)]);
    assert_eq!(run(SchedulerMode::Calendar), heap);
}

/// Full-simulation differential: identical traces, timer logs, metrics
/// (no masking — every field, including the new queue counters, must
/// agree), and final clock across scheduler modes, under loss, jitter,
/// mobility, recurring timers, capped broadcasts, and injection.
#[test]
fn simulation_trace_bit_identical_across_scheduler_modes() {
    for seed in [1u64, 0xBEEF, 42424242, 0xD00D] {
        let (t_cal, tm_cal, m_cal, clock_cal) = run_trace(SchedulerMode::Calendar, seed, 24);
        let (t_heap, tm_heap, m_heap, clock_heap) = run_trace(SchedulerMode::BinaryHeap, seed, 24);
        assert_eq!(t_cal, t_heap, "seed {seed}: delivery traces diverged");
        assert_eq!(tm_cal, tm_heap, "seed {seed}: timer logs diverged");
        assert_eq!(clock_cal, clock_heap, "seed {seed}: final clock diverged");
        assert_eq!(m_cal, m_heap, "seed {seed}: metrics diverged");
        assert!(m_cal.events_scheduled > 0, "queue pressure must be observable");
        assert!(
            m_cal.peak_queue_len > 0 && m_cal.peak_queue_len <= m_cal.events_scheduled,
            "peak depth is bounded by total events: {m_cal:?}"
        );
        assert!(
            tm_cal.iter().flatten().any(|&(_, token)| token < 1_000),
            "seed {seed}: recurring timers must actually fire"
        );
    }
}

/// The calendar engine survives a degenerate topology where every
/// event collapses onto few instants (mass ties) while nodes also
/// schedule far-future recurrences — the bucket ring's worst cases.
#[test]
fn tie_heavy_and_sparse_horizons_agree() {
    struct Spiky;
    impl NodeApp for Spiky {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            // Everyone fires at the exact same instants forever-ish.
            ctx.set_recurring_timer(10_000, 10_000, 90_000, 1);
            // Plus one lonely far-future one-shot per node.
            ctx.set_timer(5_000_000 + ctx.node_id().index() as u64, 2);
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: NodeId, _: &msb_net::Payload) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            if token == 1 && ctx.node_id().index() == 0 {
                ctx.broadcast(b"tick".to_vec());
            }
        }
    }
    let run = |mode: SchedulerMode| {
        let config = SimConfig { jitter_us: 0, scheduler: mode, ..SimConfig::default() };
        let mut sim = Simulator::new(config, 7);
        let mut rng = StdRng::seed_from_u64(0xF00);
        for _ in 0..40 {
            let p = (rng.gen_range(0.0..120.0), rng.gen_range(0.0..120.0));
            sim.add_node(p, Spiky);
        }
        sim.start();
        sim.run();
        (sim.now_us(), *sim.metrics())
    };
    assert_eq!(run(SchedulerMode::Calendar), run(SchedulerMode::BinaryHeap));
}
