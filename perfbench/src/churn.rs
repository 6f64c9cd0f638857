//! `churn` and `churn_sharded`: the standard island-churn swarm
//! (`ChurnSpec::standard`, 10k nodes, seeded from `--seed`) driven to
//! completion on the single-threaded `Simulator` or on the
//! `ShardedSimulator` with a pinned shard count. Both run the identical
//! scenario, so a shard-layer change moves only `churn_sharded`, and an
//! engine-loop change in `sim.rs` moves only `churn`.
//!
//! A run repeats the scenario (fresh build, then drive) until the drive
//! phases add up to `--seconds`; every repetition must end in the same
//! simulated outcome. The traced run wraps every `FriendingApp` in a
//! timing [`Timed`] app, times each `run_until` / mobility / position
//! call, and proves — by comparing outcomes against the untraced
//! builders — that neither the wrapper nor the engine choice changed
//! anything but timing.

use std::time::{Duration, Instant};

use msb_bench::swarm::{
    build_churn_swarm, build_churn_swarm_sharded, drive_churn, lighthouse_matching,
    lighthouse_request, noise_profile, ChurnSpec, AREA_PER_NODE, MATCHING_EVERY,
};
use msb_core::app::{FriendingApp, SwarmSummary};
use msb_core::protocol::{Parallelism, ProtocolConfig, ProtocolKind};
use msb_crypto::aes::CipherBackend;
use msb_dataset::placement;
use msb_net::mobility::{Bounds, RandomWaypoint};
use msb_net::payload::Payload;
use msb_net::shard::ShardedSimulator;
use msb_net::sim::{
    Metrics, NodeApp, NodeCtx, NodeId, SchedulerMode, SimConfig, SimDriver, Simulator,
};
use msb_telemetry::TraceTag;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{median, peak_rss_mb, print_layer_table, sub_seed, Args, Report, Span};

/// Swarm size of the standard scenario as this benchmark runs it.
pub const NODES: usize = 10_000;
/// Worker shards of `churn_sharded`: pinned rather than read from the
/// host, so the workload is the same wherever it runs.
pub const SHARDS: usize = 2;
/// Fewest repetitions per run, so `setup_s` and the throughput are
/// medians of at least this many.
const MIN_REPS: usize = 3;
/// Trace-ring capacity of the traced sharded run: room for every
/// window, stall and handoff record of one scenario.
const TRACE_CAP: usize = 1 << 22;

/// The standard scenario on this run's seed.
fn spec(seed: u64, sharded: bool) -> ChurnSpec {
    let mut spec = ChurnSpec::standard(NODES, SchedulerMode::Calendar);
    spec.seed = sub_seed(seed, 5);
    if sharded {
        spec = spec.with_shards(SHARDS);
    }
    spec
}

/// Everything a finished run must agree on with any other run of the
/// same scenario, whatever the engine or instrumentation.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    summary: SwarmSummary,
    /// Metrics with the queue high-water mark masked: it is the one
    /// observable that legitimately depends on the shard count.
    metrics: Metrics,
    clock_us: u64,
}

/// The output checks every run must pass.
fn check(report: &mut Report, label: &str, outcome: &Outcome, initiator: &FriendingApp) {
    let s = &outcome.summary;
    report.check(s.matches > 0, || format!("{label}: no match confirmed"));
    report.check(s.refloods > 0, || format!("{label}: no re-flood fired"));
    for m in initiator.matches() {
        report.check((m.responder as usize).is_multiple_of(MATCHING_EVERY), || {
            format!("{label}: responder {} is not a planted slot", m.responder)
        });
    }
}

fn print_sim_stats(outcome: &Outcome) {
    let s = &outcome.summary;
    println!(
        "sim: events={} delivered={} matches={} refloods={} match_p50_us={} clock_us={}",
        outcome.metrics.events_scheduled,
        outcome.metrics.delivered,
        s.matches,
        s.refloods,
        s.latency_percentile_us(0.5).unwrap_or(0),
        outcome.clock_us
    );
}

/// One repetition on one engine: set-up (`build`), the timed drive, and
/// the output checks. Returns the outcome, the set-up seconds and the
/// drive seconds.
fn drive_once<S: SimDriver>(
    spec: &ChurnSpec,
    report: &mut Report,
    build: impl Fn(&ChurnSpec) -> (S, RandomWaypoint),
    observe: impl Fn(&S) -> (Outcome, &FriendingApp),
) -> (Outcome, f64, f64) {
    let start = Instant::now();
    let (mut sim, mut mobility) = build(spec);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    drive_churn(&mut sim, &mut mobility, spec);
    let drive_s = start.elapsed().as_secs_f64();
    let (outcome, initiator) = observe(&sim);
    check(report, label(spec), &outcome, initiator);
    (outcome, setup_s, drive_s)
}

fn label(spec: &ChurnSpec) -> &'static str {
    if spec.shards > 1 {
        "churn_sharded"
    } else {
        "churn"
    }
}

/// The workload on one engine. Untraced, it repeats the scenario until
/// the drive phases add up to `--seconds`, and its latency is the drive
/// of one whole scenario; traced, it drives it once as the untraced
/// baseline of the traced runs.
fn run_on<S: SimDriver>(
    args: &Args,
    spec: &ChurnSpec,
    build: impl Fn(&ChurnSpec) -> (S, RandomWaypoint),
    observe: impl Fn(&S) -> (Outcome, &FriendingApp),
) -> Report {
    let mut report = Report::default();
    if args.trace {
        let (untraced, _, untraced_s) = drive_once(spec, &mut report, build, observe);
        traced(spec, &untraced, untraced_s, &mut report);
        return report;
    }
    let mut setup_s = Vec::new();
    let mut drive_s = Vec::new();
    let mut rates = Vec::new();
    let mut driven = 0.0;
    let mut first: Option<Outcome> = None;
    while rates.len() < MIN_REPS || driven < args.seconds {
        let errors = report.errors.len();
        let (outcome, setup, took) = drive_once(spec, &mut report, &build, &observe);
        if rates.is_empty() {
            // Later repetitions add only what the allocator kept from
            // earlier ones, which depends on how threads met its arenas.
            report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        }
        setup_s.push(setup);
        drive_s.push(took);
        driven += took;
        rates.push(outcome.metrics.events_scheduled as f64 / took);
        report.attempted += 1;
        match &first {
            None => {
                print_sim_stats(&outcome);
                first = Some(outcome);
            }
            Some(f) => report.check(*f == outcome, || "repetitions of one seed diverged".into()),
        }
        if report.errors.len() > errors {
            report.failed += 1;
        }
    }
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("throughput_per_s", median(&rates), "1/s");
    report.metric("latency_p50_ms", median(&drive_s) * 1e3, "ms");
    report
}

fn oracle_outcome(sim: &Simulator<FriendingApp>) -> (Outcome, &FriendingApp) {
    let outcome = Outcome {
        summary: SwarmSummary::collect(sim),
        metrics: sim.metrics().without_queue_pressure(),
        clock_us: sim.now_us(),
    };
    (outcome, sim.app(NodeId::new(0)))
}

fn sharded_outcome(sim: &ShardedSimulator<FriendingApp>) -> (Outcome, &FriendingApp) {
    let outcome = Outcome {
        summary: SwarmSummary::collect_sharded(sim),
        metrics: sim.metrics().without_queue_pressure(),
        clock_us: sim.now_us(),
    };
    (outcome, sim.app(NodeId::new(0)))
}

/// A timing wrapper: forwards every callback to the wrapped app and adds
/// its wall time to `busy`. Each node is owned by one shard at a time,
/// so a plain per-app accumulator is race-free on either engine.
struct Timed<A> {
    inner: A,
    busy: Duration,
}

impl<A> Timed<A> {
    fn time<T>(&mut self, f: impl FnOnce(&mut A) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.busy += start.elapsed();
        out
    }
}

impl<A: NodeApp> NodeApp for Timed<A> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.time(|a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload) {
        self.time(|a| a.on_message(ctx, from, payload));
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.time(|a| a.on_timer(ctx, token));
    }

    fn on_batch(&mut self, ctx: &mut NodeCtx<'_>, batch: &[(NodeId, Payload)]) {
        self.time(|a| a.on_batch(ctx, batch));
    }
}

/// A node's starting position and its timed app.
type Placed = ((f64, f64), Timed<FriendingApp>);

/// The standard churn construction with every app wrapped in [`Timed`]:
/// the same placement, mobility, simulator config and apps the
/// `msb_bench::swarm` builders produce, which the traced run's identity
/// check confirms outcome for outcome.
fn timed_parts(spec: &ChurnSpec) -> (Vec<Placed>, RandomWaypoint, SimConfig) {
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
    let sim = SimConfig {
        scheduler: spec.scheduler,
        delivery: spec.delivery,
        shards: spec.shards,
        region_tiles: spec.region_tiles,
        ..SimConfig::default()
    };
    let mut config = ProtocolConfig::new(ProtocolKind::P1, 11);
    config.ttl = 255;
    config.validity_us = spec.duration_s * 1_000_000;
    config.parallelism = Parallelism::SEQUENTIAL;
    config.cipher_backend = CipherBackend::Sbox;
    let apps = positions
        .into_iter()
        .enumerate()
        .map(|(idx, pos)| {
            let app = if idx == 0 {
                FriendingApp::initiator(noise_profile(0), lighthouse_request(), config.clone())
            } else if idx % MATCHING_EVERY == 0 {
                FriendingApp::participant(lighthouse_matching(), config.clone())
            } else {
                FriendingApp::participant(noise_profile(idx), config.clone())
            };
            (pos, Timed { inner: app.with_reflood(spec.reflood), busy: Duration::ZERO })
        })
        .collect();
    (apps, mobility, sim)
}

/// Wall time of one traced scenario, by layer call.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    total: Duration,
    /// `start`, `run_until` and the final `run`.
    run: Span,
    mobility: Span,
    set_positions: Span,
    /// Summed over every app's [`Timed::busy`].
    callback: Duration,
}

/// `drive_churn` with every call timed.
fn traced_drive<S: SimDriver>(
    sim: &mut S,
    mobility: &mut RandomWaypoint,
    spec: &ChurnSpec,
) -> Layers {
    let mut l = Layers::default();
    let start = Instant::now();
    l.run.time(|| sim.start());
    let ticks = (spec.duration_s as f64 / spec.tick_s).ceil() as u64;
    let mut buf = Vec::new();
    for tick in 1..=ticks {
        l.run.time(|| sim.run_until((tick as f64 * spec.tick_s * 1e6) as u64));
        l.mobility.time(|| mobility.advance_positions_into(spec.tick_s, &mut buf));
        l.set_positions.time(|| sim.set_positions(&buf));
    }
    l.run.time(|| sim.run());
    l.total = start.elapsed();
    l
}

/// Shard-layer counts from the sharded engine's own telemetry.
#[derive(Debug, Default)]
struct ShardStats {
    windows: u64,
    stalls: u64,
    spans: u64,
    handoffs: u64,
    envelopes: u64,
    sends: u64,
    resident_bytes_per_node: f64,
}

/// One traced scenario: its layer times, outcome and unmasked counts.
struct Traced {
    layers: Layers,
    outcome: Outcome,
    metrics: Metrics,
    shard: Option<ShardStats>,
}

fn traced_oracle(spec: &ChurnSpec) -> Traced {
    let (apps, mut mobility, config) = timed_parts(spec);
    let mut sim = Simulator::new(config, spec.seed);
    sim.add_nodes(apps);
    // The same instrumentation as the sharded run, so `shard.excess_s`
    // compares the engines alone.
    sim.enable_telemetry(TRACE_CAP);
    let mut layers = traced_drive(&mut sim, &mut mobility, spec);
    let apps: Vec<&Timed<FriendingApp>> =
        (0..sim.node_count()).map(|i| sim.app(NodeId::new(i as u32))).collect();
    layers.callback = apps.iter().map(|a| a.busy).sum();
    let m = *sim.metrics();
    Traced {
        layers,
        outcome: Outcome {
            summary: SwarmSummary::from_event_logs(apps.iter().map(|a| &a.inner)),
            metrics: m.without_queue_pressure(),
            clock_us: sim.now_us(),
        },
        metrics: m,
        shard: None,
    }
}

fn traced_sharded(spec: &ChurnSpec, report: &mut Report) -> Traced {
    let (apps, mut mobility, config) = timed_parts(spec);
    let mut sim = ShardedSimulator::new(config, spec.seed);
    sim.add_nodes(apps);
    sim.enable_telemetry(TRACE_CAP);
    let mut layers = traced_drive(&mut sim, &mut mobility, spec);
    let apps: Vec<&Timed<FriendingApp>> =
        (0..sim.node_count()).map(|i| sim.app(NodeId::new(i as u32))).collect();
    layers.callback = apps.iter().map(|a| a.busy).sum();
    let m = sim.metrics();
    let rec = sim.telemetry();
    report.check(rec.trace().dropped() == 0, || {
        format!("shard trace ring dropped {} records", rec.trace().dropped())
    });
    let mut s = ShardStats::default();
    for ev in rec.trace().iter() {
        match ev.tag {
            TraceTag::Window | TraceTag::Stall if ev.actor == 0 => {
                s.windows += 1;
                s.spans += 1;
                s.stalls += u64::from(ev.tag == TraceTag::Stall);
            }
            TraceTag::Window => s.spans += 1,
            TraceTag::Stall => {
                s.spans += 1;
                s.stalls += 1;
            }
            TraceTag::Handoff => s.handoffs += 1,
            _ => {}
        }
    }
    s.envelopes = rec.metrics().counter_total("batch.envelopes");
    s.sends = rec.metrics().counter_total("batch.sends");
    s.resident_bytes_per_node =
        sim.shard_resident_bytes().into_iter().max().unwrap_or(0) as f64 / sim.node_count() as f64;
    Traced {
        layers,
        outcome: Outcome {
            summary: SwarmSummary::from_event_logs(apps.iter().map(|a| &a.inner)),
            metrics: m.without_queue_pressure(),
            clock_us: sim.now_us(),
        },
        metrics: m,
        shard: Some(s),
    }
}

pub fn run(args: &Args, sharded: bool) -> Report {
    let spec = spec(args.seed, sharded);
    if sharded {
        run_on(args, &spec, build_churn_swarm_sharded, sharded_outcome)
    } else {
        run_on(args, &spec, build_churn_swarm, oracle_outcome)
    }
}

/// The traced run: both engines traced on the same seed, the identity
/// check against the untraced baseline, and the layer table and
/// per-layer metrics of `spec`'s engine.
fn traced(spec: &ChurnSpec, untraced: &Outcome, untraced_s: f64, report: &mut Report) {
    let label = label(spec);
    print_sim_stats(untraced);
    let oracle = traced_oracle(&spec.clone().with_shards(1));
    let shard = traced_sharded(&spec.clone().with_shards(SHARDS), report);
    let before = report.errors.len();
    for (name, t) in [("churn traced", &oracle), ("churn_sharded traced", &shard)] {
        report.check(t.outcome == *untraced, || {
            format!("{name}: outcome differs from the untraced standard build")
        });
    }
    println!(
        "identity: untraced {label} == traced churn == traced churn_sharded \
         (SwarmSummary, Metrics without peak_queue_len, clock): {}",
        report.errors.len() == before
    );
    report.attempted = 3;
    report.failed = u64::from(!report.errors.is_empty());

    let mine = if spec.shards > 1 { &shard } else { &oracle };
    let l = &mine.layers;
    let run_s = l.run.secs();
    // Callbacks run concurrently on `spec.shards` threads; their
    // per-shard mean is their share of the wall-clock run phase, and what
    // `app.callback_s` reports, so that engine = run - callback.
    let callback_s = l.callback.as_secs_f64() / spec.shards as f64;
    let engine_s = run_s - callback_s;
    print_layer_table(
        label,
        l.total.as_secs_f64(),
        &[
            ("net.engine (run - callbacks)", engine_s),
            ("app.callback", callback_s),
            ("net.set_positions", l.set_positions.secs()),
            ("net.mobility", l.mobility.secs()),
        ],
    );
    let overhead = l.total.as_secs_f64() / untraced_s;
    println!("tracing overhead: {overhead:.4} (traced / untraced drive wall time)");

    report.metric("net.run_s", run_s, "s");
    report.metric("app.callback_s", callback_s, "s");
    report.metric("net.engine_s", engine_s, "s");
    let m = &mine.metrics;
    report.metric("net.us_per_event", engine_s * 1e6 / m.events_scheduled as f64, "us");
    report.metric("net.set_positions_s", l.set_positions.secs(), "s");
    report.metric("net.mobility_s", l.mobility.secs(), "s");
    report.metric("net.events", m.events_scheduled as f64, "count");
    report.metric("net.delivered", m.delivered as f64, "count");
    report.metric("net.neighbor_queries", m.neighbor_queries as f64, "count");
    report.metric(
        "net.cells_per_query",
        m.cells_scanned as f64 / m.neighbor_queries.max(1) as f64,
        "count",
    );
    report.metric("net.peak_queue_len", m.peak_queue_len as f64, "count");
    if let Some(s) = &mine.shard {
        report.metric("shard.windows", s.windows as f64, "count");
        report.metric("shard.stall_ratio", s.stalls as f64 / s.spans.max(1) as f64, "ratio");
        report.metric("shard.us_per_window", run_s * 1e6 / s.windows.max(1) as f64, "us");
        report.metric(
            "shard.envelopes_per_send",
            s.envelopes as f64 / s.sends.max(1) as f64,
            "count",
        );
        report.metric("shard.handoffs", s.handoffs as f64, "count");
        report.metric("shard.resident_bytes_per_node", s.resident_bytes_per_node, "B");
        report.metric("shard.excess_s", run_s - oracle.layers.run.secs(), "s");
    }
    report.metric("trace.overhead_ratio", overhead, "ratio");
}
