//! `relay`: a mailbox mix on a loopback `RelayServer`.
//!
//! A population of registered phones is multiplexed over two
//! connections by one generator thread; a connection switches phone
//! identity with `Hello`. One phone visit is `Hello`, two unicast reply
//! deposits (~100 B each, to random phones), on every
//! [`BROADCAST_EVERY`]th visit a broadcast request deposit that fans out
//! to every other phone, and a `Fetch` that drains the phone's inbox.
//! Each connection writes a window of visits with one `send_raw` call,
//! then reads every response (`read_response`); both connections'
//! windows are in flight at once. Latency is timed per request, from its
//! window's send to its response; a visit's latency is its fetch's.
//!
//! The accepted sockets lack `TCP_NODELAY`, so within a window the
//! server's responses after the first wait in its send buffer for the
//! client's delayed ACK (~40 ms). The workload shows that stall as it
//! is. It keeps a window's responses well under one loopback segment
//! (~25 KB of 64 KB), so that every window meets the stall exactly once:
//! a window whose responses fill a segment is sent at once and skips it,
//! and a mix of both kinds makes throughput bimodal from seed to seed.

use std::time::{Duration, Instant};

use bytes::Bytes;
use msb_core::package::Reply;
use msb_core::protocol::{
    Initiator, Parallelism, ProtocolConfig, ProtocolKind, Responder, ResponderOutcome,
};
use msb_crypto::aes::CipherBackend;
use msb_profile::{Attribute, Profile, RequestProfile};
use msb_server::{
    Ack, AckCode, Deposit, Fetch, Hello, InboxBatch, RelayClient, RelayServer, ServerConfig,
    BROADCAST,
};
use msb_telemetry::LogHistogram;
use msb_wire::{peek_kind, FrameKind, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{latency_summary, median, print_layer_table, sub_seed, Args, Report, Span};

/// Registered phones; half are driven over each connection.
pub const PHONES: u32 = 256;
/// Client connections, all driven from one generator thread.
pub const CONNECTIONS: usize = 2;
/// Phone visits per connection per pipelined window.
pub const VISITS_PER_WINDOW: usize = 16;
/// Unicast reply deposits per visit.
pub const UNICASTS_PER_VISIT: usize = 2;
/// Every this many visits of a connection, the visit also deposits a
/// broadcast request. A fixed schedule rather than a coin, so every
/// run delivers the same number of copies per window: each broadcast
/// is `PHONES - 1` of them.
pub const BROADCAST_EVERY: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The relay configuration. The deposit guard keeps the default 10 s
/// window but admits 65 536 deposits per phone in it: a relay without
/// the delayed-ACK stall runs ~60× faster than today's, which spreads
/// over 256 phones to a few thousand deposits per phone per window, so
/// no speed-up can turn into sheds. Per-phone queues hold 4 096
/// bottles, over 500× the ~6 a phone receives between two of its
/// fetches.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        guard_max_in_window: 1 << 16,
        max_per_recipient: 1 << 12,
        ..ServerConfig::default()
    }
}

/// Every phone's bottles, as real protocol frames: the Protocol 1
/// request it broadcasts and the reply it sends as a planted matcher.
struct Frames {
    requests: Vec<Bytes>,
    replies: Vec<Bytes>,
}

fn frames(seed: u64) -> Frames {
    let mut config = ProtocolConfig::new(ProtocolKind::P1, 11);
    config.parallelism = Parallelism::SEQUENTIAL;
    config.cipher_backend = CipherBackend::Sbox;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
    let mut out = Frames { requests: Vec::new(), replies: Vec::new() };
    for phone in 0..PHONES {
        let tags: Vec<Attribute> = (0..6)
            .map(|_| Attribute::new("tag", format!("t{}", rng.gen_range(0..560_419u32))))
            .collect();
        let request = RequestProfile::threshold(tags.clone(), 3).expect("valid request");
        let (_, package) = Initiator::create(&request, phone, &config, 0, &mut rng);
        let matcher = Responder::new(phone, Profile::from_attributes(tags[..3].to_vec()), &config);
        let ResponderOutcome::Reply { reply, .. } = matcher.handle(&package, 100, &mut rng) else {
            panic!("a planted matcher replies");
        };
        out.requests.push(Bytes::from(package.encode()));
        out.replies.push(Bytes::from(Reply::encode(&reply)));
    }
    out
}

struct Relay {
    server: RelayServer,
    conns: Vec<RelayClient>,
    frames: Frames,
}

/// The phones' bottles, the server, its connections, and every phone
/// registered (lockstep hellos).
fn setup(seed: u64) -> std::io::Result<Relay> {
    let frames = frames(seed);
    let config = server_config();
    let server = RelayServer::spawn(config.clone())?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| RelayClient::connect_bounded(server.addr(), config.max_frame_len))
        .collect::<std::io::Result<Vec<_>>>()?;
    for phone in 0..PHONES {
        let ack = conns[phone as usize % CONNECTIONS].hello(phone)?;
        if ack.code != AckCode::Ok {
            return Err(std::io::Error::other(format!("hello {phone}: {ack:?}")));
        }
    }
    Ok(Relay { server, conns, frames })
}

fn teardown(relay: Relay) {
    let Relay { mut server, conns, .. } = relay;
    drop(conns);
    server.shutdown();
}

/// What the response to one pipelined request must be.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Hello,
    Deposit { copies: u32, len: usize },
    Fetch,
}

/// Running totals of a timed phase.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    failed: u64,
    acked_copies: u64,
    acked_bytes: u64,
    delivered: u64,
    delivered_bytes: u64,
    fetches: u64,
    empty_fetches: u64,
    deposit_s: Vec<f64>,
    fetch_s: Vec<f64>,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Checks one response against what its request expects.
    fn settle(&mut self, expect: Expect, resp: &[u8], latency_s: f64) {
        self.requests += 1;
        match expect {
            Expect::Hello | Expect::Deposit { .. } => {
                let ack = match Ack::decode(resp) {
                    Ok(ack) => ack,
                    Err(e) => return self.fail(format!("{expect:?}: undecodable ack: {e}")),
                };
                if ack.code != AckCode::Ok {
                    return self.fail(format!("{expect:?}: {ack:?}"));
                }
                if let Expect::Deposit { copies, len } = expect {
                    self.deposit_s.push(latency_s);
                    self.acked_copies += u64::from(ack.info);
                    self.acked_bytes += u64::from(ack.info) * len as u64;
                    if ack.info != copies {
                        self.fail(format!("deposit queued {} copies, expected {copies}", ack.info));
                    }
                }
            }
            Expect::Fetch => {
                self.fetch_s.push(latency_s);
                self.fetches += 1;
                if peek_kind(resp) != Ok(FrameKind::RelayInbox) {
                    return self.fail("fetch answered without an inbox batch".into());
                }
                match InboxBatch::decode(resp) {
                    Ok(batch) => {
                        self.delivered += batch.messages.len() as u64;
                        self.delivered_bytes +=
                            batch.messages.iter().map(|m| m.frame.len() as u64).sum::<u64>();
                        self.empty_fetches += u64::from(batch.messages.is_empty());
                    }
                    Err(e) => self.fail(format!("undecodable inbox batch: {e}")),
                }
            }
        }
    }

    /// Folds a later phase's totals into this one.
    fn absorb(&mut self, mut later: Tally) {
        self.requests += later.requests;
        self.failed += later.failed;
        self.acked_copies += later.acked_copies;
        self.acked_bytes += later.acked_bytes;
        self.delivered += later.delivered;
        self.delivered_bytes += later.delivered_bytes;
        self.errors.append(&mut later.errors);
    }
}

/// Client-side time of the traced phase, by step.
#[derive(Debug, Default)]
struct Layers {
    encode: Span,
    send: Span,
    read: Span,
    settle: Span,
    total: Duration,
}

/// The seeded visit schedule of every connection.
struct Generator {
    rng: StdRng,
    /// Each connection's phones, in a seeded order visited cyclically.
    order: Vec<Vec<u32>>,
    /// Visits made so far, per connection.
    visits: Vec<usize>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 7));
        let order = (0..CONNECTIONS)
            .map(|c| {
                let mut phones: Vec<u32> =
                    (0..PHONES).filter(|p| *p as usize % CONNECTIONS == c).collect();
                for i in (1..phones.len()).rev() {
                    phones.swap(i, rng.gen_range(0..=i));
                }
                phones
            })
            .collect();
        Generator { rng, order, visits: vec![0; CONNECTIONS] }
    }

    /// One window for connection `c`: the frames back to back in `bytes`,
    /// and what each response must be in `expect`.
    fn window(&mut self, c: usize, frames: &Frames, bytes: &mut Vec<u8>, expect: &mut Vec<Expect>) {
        bytes.clear();
        expect.clear();
        for _ in 0..VISITS_PER_WINDOW {
            let visit = self.visits[c];
            self.visits[c] += 1;
            let phone = self.order[c][visit % self.order[c].len()];
            bytes.extend_from_slice(&Hello { client: phone }.encode());
            expect.push(Expect::Hello);
            for _ in 0..UNICASTS_PER_VISIT {
                let mut to = self.rng.gen_range(0..PHONES - 1);
                if to >= phone {
                    to += 1;
                }
                let frame = frames.replies[phone as usize].clone();
                let len = frame.len();
                bytes.extend_from_slice(&Deposit { to, frame }.encode());
                expect.push(Expect::Deposit { copies: 1, len });
            }
            // The two connections' broadcasts are half a period apart.
            if (visit + c * BROADCAST_EVERY / CONNECTIONS).is_multiple_of(BROADCAST_EVERY) {
                let frame = frames.requests[phone as usize].clone();
                let len = frame.len();
                bytes.extend_from_slice(&Deposit { to: BROADCAST, frame }.encode());
                expect.push(Expect::Deposit { copies: PHONES - 1, len });
            }
            bytes.extend_from_slice(&Fetch { max: 0 }.encode());
            expect.push(Expect::Fetch);
        }
    }
}

/// Runs pipelined windows on every connection until `budget` passes and
/// returns the elapsed seconds. With `layers`, every client-side step is
/// timed.
fn drive(
    relay: &mut Relay,
    gen: &mut Generator,
    budget: Duration,
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
) -> std::io::Result<f64> {
    let mut bytes: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
    let mut expect: Vec<Vec<Expect>> = vec![Vec::new(); CONNECTIONS];
    let mut sent_at = [Instant::now(); CONNECTIONS];
    let start = Instant::now();
    while start.elapsed() < budget {
        for c in 0..CONNECTIONS {
            let (b, e) = (&mut bytes[c], &mut expect[c]);
            match layers.as_deref_mut() {
                Some(l) => l.encode.time(|| gen.window(c, &relay.frames, b, e)),
                None => gen.window(c, &relay.frames, b, e),
            }
        }
        for (c, conn) in relay.conns.iter_mut().enumerate() {
            sent_at[c] = Instant::now();
            match layers.as_deref_mut() {
                Some(l) => l.send.time(|| conn.send_raw(&bytes[c]))?,
                None => conn.send_raw(&bytes[c])?,
            }
        }
        for (c, conn) in relay.conns.iter_mut().enumerate() {
            for &e in &expect[c] {
                let resp = match layers.as_deref_mut() {
                    Some(l) => l.read.time(|| conn.read_response())?,
                    None => conn.read_response()?,
                };
                let latency = sent_at[c].elapsed().as_secs_f64();
                match layers.as_deref_mut() {
                    Some(l) => l.settle.time(|| tally.settle(e, &resp, latency)),
                    None => tally.settle(e, &resp, latency),
                }
            }
        }
    }
    let elapsed = start.elapsed();
    if let Some(l) = layers {
        l.total = elapsed;
    }
    Ok(elapsed.as_secs_f64())
}

/// Drains every phone after the timed phase (lockstep fetches until an
/// inbox comes back empty), so the totals can be reconciled.
fn drain_all(relay: &mut Relay, tally: &mut Tally) -> std::io::Result<()> {
    for phone in 0..PHONES {
        let conn = &mut relay.conns[phone as usize % CONNECTIONS];
        conn.hello(phone)?;
        loop {
            let got = conn.fetch(0)?;
            if got.is_empty() {
                break;
            }
            tally.delivered += got.len() as u64;
            tally.delivered_bytes += got.iter().map(|m| m.frame.len() as u64).sum::<u64>();
        }
    }
    Ok(())
}

/// Every server counter that records a refused or lost operation:
/// rate-limited or shed deposits, oversize and malformed frames (a
/// unicast to a full queue counts here; a broadcast's lost copies show
/// as a short ack instead), reframing errors, and bottles expired
/// unread.
fn rejects(relay: &Relay) -> Vec<(&'static str, u64)> {
    let s = relay.server.stats();
    vec![
        ("rejected_rate", s.rejected_rate),
        ("rejected_oversize", s.rejected_oversize),
        ("rejected_malformed", s.rejected_malformed),
        ("reframe_rejects", s.reframe_rejects),
        ("guard_sheds", s.guard_sheds),
        ("inbox_expired", s.inbox_expired),
    ]
}

/// The end-of-run reconciliation: every acknowledged copy delivered,
/// no reject of any kind, and every inbox empty.
fn reconcile(relay: &Relay, tally: &Tally, report: &mut Report) {
    report.check(tally.delivered == tally.acked_copies, || {
        format!("delivered {} copies, acknowledged {}", tally.delivered, tally.acked_copies)
    });
    report.check(tally.delivered_bytes == tally.acked_bytes, || {
        format!("delivered {} bytes, acknowledged {}", tally.delivered_bytes, tally.acked_bytes)
    });
    for (name, v) in rejects(relay) {
        report.check(v == 0, || format!("server {name} = {v}"));
    }
    let depth = relay.server.stats().inbox_depth;
    report.check(depth == 0, || format!("{depth} bottles left queued after the drain"));
}

/// Sum and count of one service-time histogram over a phase.
fn service(after: &LogHistogram, before: &LogHistogram) -> (u64, u64) {
    (after.sum() - before.sum(), after.count() - before.count())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(args, &mut report) {
        report.errors.push(format!("relay I/O: {e}"));
    }
    report
}

fn run_inner(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut relay = None;
    for _ in 0..SETUPS {
        if let Some(old) = relay.take() {
            teardown(old);
        }
        let start = Instant::now();
        relay = Some(setup(args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut relay = relay.expect("at least one set-up");
    let mut gen = Generator::new(args.seed);
    let mut tally = Tally::default();
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let elapsed = drive(&mut relay, &mut gen, budget, &mut tally, None)?;
    println!(
        "relay: requests={} deposits={} fetches={} delivered={} windows_per_s={:.2}",
        tally.requests,
        tally.deposit_s.len(),
        tally.fetches,
        tally.delivered,
        tally.fetches as f64 / (VISITS_PER_WINDOW * CONNECTIONS) as f64 / elapsed
    );

    if !args.trace {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("throughput_per_s", tally.delivered as f64 / elapsed, "1/s");
        latency_summary("relay deposit latency", &mut tally.deposit_s);
        // A visit ends with its fetch: the fetch's latency is the visit's.
        let visit_p50 = latency_summary("relay fetch (visit) latency", &mut tally.fetch_s);
        report.metric("latency_p50_ms", visit_p50, "ms");
    } else {
        // Traced phase: the same generator continues on the same server.
        let untraced_per_req = elapsed / tally.requests.max(1) as f64;
        let before = relay.server.metrics();
        let mut traced = Tally::default();
        let mut l = Layers::default();
        drive(&mut relay, &mut gen, budget, &mut traced, Some(&mut l))?;
        let after = relay.server.metrics();
        let (dep_sum, dep_n) = service(&after.deposit_service_us, &before.deposit_service_us);
        let (fet_sum, fet_n) = service(&after.fetch_service_us, &before.fetch_service_us);
        let client_s: f64 = traced.deposit_s.iter().chain(&traced.fetch_s).sum();
        let service_s = (dep_sum + fet_sum) as f64 / 1e6;
        print_layer_table(
            "relay (client generator thread)",
            l.total.as_secs_f64(),
            &[
                ("client.encode (build windows)", l.encode.secs()),
                ("client.send (send_raw)", l.send.secs()),
                ("client.wait+read (read_response)", l.read.secs()),
                ("client.settle (decode, check)", l.settle.secs()),
            ],
        );
        println!(
            "server service time (deposit + fetch, server threads): {service_s:.6} s \
             = {:.3}% of summed client-observed deposit + fetch latency",
            100.0 * service_s / client_s
        );
        let overhead = l.total.as_secs_f64() / traced.requests.max(1) as f64 / untraced_per_req;
        println!("tracing overhead: {overhead:.4} (traced / untraced wall time per request)");

        let fetches = traced.fetches.max(1) as f64;
        report.metric("server.deposit_svc_us", dep_sum as f64 / dep_n.max(1) as f64, "us");
        report.metric("server.fetch_svc_us", fet_sum as f64 / fet_n.max(1) as f64, "us");
        report.metric("server.socket_share", 1.0 - service_s / client_s, "ratio");
        report.metric("server.bottles_per_fetch", traced.delivered as f64 / fetches, "count");
        report.metric("server.empty_fetch_ratio", traced.empty_fetches as f64 / fetches, "ratio");
        report.metric("storage.inbox_depth_peak", after.inbox_depth_peak as f64, "count");
        report.metric(
            "server.frames_in",
            (after.stats.frames_in - before.stats.frames_in) as f64,
            "count",
        );
        report.metric("trace.overhead_ratio", overhead, "ratio");
        tally.absorb(traced);
    }
    drain_all(&mut relay, &mut tally)?;
    reconcile(&relay, &tally, report);
    if args.trace {
        let total: u64 = rejects(&relay).iter().map(|(_, v)| v).sum();
        report.metric("server.rejects", total as f64, "count");
    }
    report.attempted = tally.requests;
    report.failed = tally.failed;
    report.errors.append(&mut tally.errors);
    teardown(relay);
    Ok(())
}
