//! The services layer: one fully-reassembled frame in, one response
//! frame out.
//!
//! The gateway never interprets bytes beyond reframing; everything
//! protocol-shaped happens here, under three policies:
//!
//! - **Identity**: a connection must [`Hello`]
//!   before depositing or fetching. The claimed id keys the rate guard
//!   and the inbox.
//! - **Rate** (the paper's §II-B DoS defence): deposits are admitted
//!   through a per-sender [`RateGuard`] fed with the server's
//!   monotonic microseconds.
//! - **Routing**: the relay inspects only the *envelope kind* of a
//!   carried frame. Request frames may broadcast to the registered
//!   population or unicast; reply frames must name their recipient (a
//!   reply's destination — the initiator — is part of what the sealed
//!   bottle hides, so the depositor must say it); nothing else may
//!   ride inside a deposit. A bare request frame sent without a
//!   [`Deposit`] wrapper is accepted as a
//!   broadcast deposit — the radio-style "flood it" idiom.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use bytes::Bytes;
use msb_net::guard::RateGuard;
use msb_wire::{peek_kind, FrameKind, Message};

use crate::metrics::ServerStats;
use crate::proto::{Ack, AckCode, Delivered, Deposit, Fetch, Hello, InboxBatch, BROADCAST};
use crate::storage::Inbox;
use crate::ServerConfig;

/// Per-delivered-bottle overhead inside an [`InboxBatch`] body
/// (`from` + length prefix), plus the batch's envelope + count. A
/// deposited frame must leave this much headroom under `max_frame_len`
/// so that delivering it back can never exceed the same bound.
const DELIVERY_OVERHEAD: usize = msb_wire::FRAME_HEADER_LEN + 2 + 8;

/// The shared, connection-independent server state: storage, guard,
/// counters, config. One instance per server, behind an `Arc`; every
/// connection thread calls [`Services::handle_frame`].
#[derive(Debug)]
pub struct Services {
    config: ServerConfig,
    inbox: Mutex<Inbox>,
    guard: Mutex<RateGuard<u32>>,
    /// The telemetry counters (the gateway bumps the frame I/O pair).
    pub stats: ServerStats,
}

impl Services {
    /// Creates the service state for `config`.
    pub fn new(config: ServerConfig) -> Self {
        let inbox = Inbox::new(config.inbox_ttl_us, config.max_per_recipient);
        let guard = RateGuard::new(config.guard_window_us, config.guard_max_in_window);
        Services {
            config,
            inbox: Mutex::new(inbox),
            guard: Mutex::new(guard),
            stats: ServerStats::default(),
        }
    }

    /// Routes one complete frame from a connection whose current
    /// identity is `client` (updated in place by a `Hello`). Returns
    /// the encoded response frame — every request gets exactly one
    /// response.
    pub fn handle_frame(&self, client: &mut Option<u32>, frame: &Bytes, now_us: u64) -> Vec<u8> {
        match peek_kind(frame) {
            Ok(FrameKind::RelayHello) => self.on_hello(client, frame),
            Ok(FrameKind::RelayDeposit) => {
                timed(&self.stats.deposit_service_us, || self.on_deposit(*client, frame, now_us))
            }
            Ok(FrameKind::RelayFetch) => {
                timed(&self.stats.fetch_service_us, || self.on_fetch(*client, frame, now_us))
            }
            Ok(FrameKind::RelayStatsReq) => self.on_stats(),
            Ok(FrameKind::RelayMetricsReq) => self.on_metrics(),
            // The radio idiom: a bare request frame floods to everyone.
            Ok(FrameKind::Request) => timed(&self.stats.deposit_service_us, || {
                self.admit_deposit(*client, BROADCAST, frame.clone(), now_us)
            }),
            // A bare reply is unroutable: its destination (the
            // initiator) is exactly what the bottle hides. It must
            // arrive wrapped in a Deposit naming the recipient.
            Ok(_) | Err(_) => self.reject_malformed(),
        }
    }

    fn on_hello(&self, client: &mut Option<u32>, frame: &Bytes) -> Vec<u8> {
        let hello = match Hello::decode(frame) {
            Ok(h) if h.client != BROADCAST => h,
            _ => return self.reject_malformed(),
        };
        self.inbox.lock().unwrap().register(hello.client);
        *client = Some(hello.client);
        encode_ack(Ack::ok(0))
    }

    fn on_deposit(&self, client: Option<u32>, frame: &Bytes, now_us: u64) -> Vec<u8> {
        let deposit = match Deposit::decode(frame) {
            Ok(d) => d,
            Err(_) => return self.reject_malformed(),
        };
        self.admit_deposit(client, deposit.to, deposit.frame, now_us)
    }

    /// The shared deposit path (wrapped deposits and bare request
    /// frames): identity, rate guard, routing policy, then fan-out.
    fn admit_deposit(&self, client: Option<u32>, to: u32, inner: Bytes, now_us: u64) -> Vec<u8> {
        let Some(sender) = client else {
            return encode_ack(Ack::err(AckCode::NotRegistered));
        };
        match peek_kind(&inner) {
            Ok(FrameKind::Request) => {}
            // A reply's recipient must be named explicitly.
            Ok(FrameKind::Reply) if to != BROADCAST => {}
            _ => return self.reject_malformed(),
        }
        // Delivering this bottle back must fit the same frame bound
        // its deposit did; see DELIVERY_OVERHEAD.
        if inner.len() + DELIVERY_OVERHEAD > self.config.max_frame_len {
            return self.reject_malformed();
        }
        if !self.guard.lock().unwrap().allow(sender, now_us) {
            ServerStats::bump(&self.stats.rejected_rate);
            return encode_ack(Ack::err(AckCode::RateLimited));
        }
        let mut inbox = self.inbox.lock().unwrap();
        let copies = if to == BROADCAST {
            let recipients: Vec<u32> =
                inbox.registered().iter().copied().filter(|&r| r != sender).collect();
            let mut queued = 0u32;
            for r in recipients {
                if inbox.push(r, sender, inner.clone(), now_us) {
                    queued += 1;
                }
            }
            queued
        } else if inbox.push(to, sender, inner, now_us) {
            1
        } else {
            // Unknown recipient or a queue at its cap.
            drop(inbox);
            return self.reject_malformed();
        };
        let depth = inbox.depth() as u64;
        drop(inbox);
        self.stats.inbox_depth_peak.fetch_max(depth, Ordering::Relaxed);
        ServerStats::bump(&self.stats.deposits_accepted);
        encode_ack(Ack::ok(copies))
    }

    fn on_fetch(&self, client: Option<u32>, frame: &Bytes, now_us: u64) -> Vec<u8> {
        let Some(me) = client else {
            return encode_ack(Ack::err(AckCode::NotRegistered));
        };
        let fetch = match Fetch::decode(frame) {
            Ok(f) => f,
            Err(_) => return self.reject_malformed(),
        };
        let mut inbox = self.inbox.lock().unwrap();
        let drained = inbox.drain(me, fetch.max as usize, now_us);
        // Greedy byte-budget batching: the reply must respect the same
        // max_frame_len bound as anything else on the wire, so stop
        // before overflowing and requeue the remainder (in order) for
        // the next fetch. The deposit-side headroom check guarantees
        // any single bottle fits.
        let mut batch = InboxBatch::default();
        let mut body = 2usize; // the count field
        let mut requeue = Vec::new();
        for msg in drained {
            let cost = 8 + msg.frame.len();
            if !batch.messages.is_empty()
                && msb_wire::FRAME_HEADER_LEN + body + cost > self.config.max_frame_len
            {
                requeue.push(msg);
                continue;
            }
            body += cost;
            batch.messages.push(Delivered { from: msg.from, frame: msg.frame });
        }
        for msg in requeue.into_iter().rev() {
            inbox.requeue_front(me, msg);
        }
        drop(inbox);
        ServerStats::add(&self.stats.messages_delivered, batch.messages.len() as u64);
        match batch.try_encode() {
            Ok(bytes) => bytes,
            // Unreachable given the byte budget, but a fetch must
            // never panic the server.
            Err(_) => encode_ack(Ack::err(AckCode::Rejected)),
        }
    }

    fn on_stats(&self) -> Vec<u8> {
        self.snapshot_now().encode()
    }

    fn on_metrics(&self) -> Vec<u8> {
        crate::metrics::MetricsDump {
            stats: self.snapshot_now(),
            inbox_depth_peak: self.stats.inbox_depth_peak.load(Ordering::Relaxed),
            deposit_service_us: self.stats.deposit_service_us.snapshot(),
            fetch_service_us: self.stats.fetch_service_us.snapshot(),
        }
        .encode()
    }

    /// One consistent snapshot: counters, storage gauges, and the rate
    /// guard's lifetime shed count (read from the guard itself, so it
    /// survives [`RateGuard::compact`]).
    fn snapshot_now(&self) -> crate::metrics::StatsSnapshot {
        let (depth, registered) = {
            let inbox = self.inbox.lock().unwrap();
            (inbox.depth() as u64, inbox.registered().len() as u64)
        };
        let sheds = self.guard.lock().unwrap().sheds();
        self.stats.snapshot(depth, registered, sheds)
    }

    /// Purges expired bottles (the cleanup worker's entry point);
    /// returns how many died. Also compacts the rate guard so it
    /// tracks active senders only.
    pub fn purge_expired(&self, now_us: u64) -> usize {
        let purged = self.inbox.lock().unwrap().purge_expired(now_us);
        ServerStats::add(&self.stats.inbox_expired, purged as u64);
        self.guard.lock().unwrap().compact(now_us);
        purged
    }

    /// Counts a reframing failure reported by the gateway, splitting
    /// the oversize-declaration case (the hostile-length defence) from
    /// garbage.
    pub fn note_stream_error(&self, err: &msb_wire::DecodeError) {
        ServerStats::bump(&self.stats.reframe_rejects);
        match err {
            msb_wire::DecodeError::FrameTooLarge { .. } => {
                ServerStats::bump(&self.stats.rejected_oversize);
            }
            _ => ServerStats::bump(&self.stats.rejected_malformed),
        }
    }

    /// The configured frame-size bound (the gateway sizes each
    /// connection's [`msb_wire::stream::FrameStream`] with this).
    pub fn max_frame_len(&self) -> usize {
        self.config.max_frame_len
    }

    /// Current rejected-frames total (oversize + malformed + rate).
    pub fn rejected_total(&self) -> u64 {
        self.stats.rejected_oversize.load(Ordering::Relaxed)
            + self.stats.rejected_malformed.load(Ordering::Relaxed)
            + self.stats.rejected_rate.load(Ordering::Relaxed)
    }

    fn reject_malformed(&self) -> Vec<u8> {
        ServerStats::bump(&self.stats.rejected_malformed);
        encode_ack(Ack::err(AckCode::Rejected))
    }
}

fn encode_ack(ack: Ack) -> Vec<u8> {
    ack.encode()
}

/// Times one op into a service-time histogram. Wall clock is correct
/// here: the relay is real infrastructure, not a simulated path — the
/// determinism contract (`docs/TELEMETRY.md`) covers sim time only.
fn timed(hist: &msb_telemetry::AtomicLogHistogram, op: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
    let t0 = std::time::Instant::now();
    let out = op();
    hist.record(t0.elapsed().as_micros() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    /// A minimal well-formed frame of the given kind (empty payload).
    fn bare_frame(kind: FrameKind) -> Bytes {
        let mut w = msb_wire::Writer::new();
        w.bytes(&msb_wire::MAGIC);
        w.u8(msb_wire::VERSION);
        w.u8(kind as u8);
        w.u32(0);
        Bytes::from(w.into_vec())
    }

    fn hello_frame(id: u32) -> Bytes {
        Bytes::from(Hello { client: id }.encode())
    }

    fn services() -> Services {
        Services::new(ServerConfig::default())
    }

    #[test]
    fn deposit_requires_hello() {
        let s = services();
        let mut conn = None;
        let dep = Deposit { to: 1, frame: bare_frame(FrameKind::Request) };
        let resp = s.handle_frame(&mut conn, &Bytes::from(dep.encode()), 0);
        assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::NotRegistered);
    }

    #[test]
    fn hello_deposit_fetch_roundtrip() {
        let s = services();
        let mut alice = None;
        let mut bob = None;
        s.handle_frame(&mut alice, &hello_frame(1), 0);
        s.handle_frame(&mut bob, &hello_frame(2), 0);
        assert_eq!(alice, Some(1));

        let inner = bare_frame(FrameKind::Request);
        let dep = Deposit { to: 2, frame: inner.clone() };
        let resp = s.handle_frame(&mut alice, &Bytes::from(dep.encode()), 10);
        assert_eq!(Ack::decode(&resp).unwrap(), Ack::ok(1));

        let resp = s.handle_frame(&mut bob, &Bytes::from(Fetch { max: 0 }.encode()), 20);
        let batch = InboxBatch::decode(&resp).unwrap();
        assert_eq!(batch.messages.len(), 1);
        assert_eq!(batch.messages[0].from, 1);
        assert_eq!(batch.messages[0].frame, inner);
    }

    #[test]
    fn broadcast_fans_out_to_everyone_but_sender() {
        let s = services();
        let mut conns: Vec<Option<u32>> = vec![None; 4];
        for (i, conn) in conns.iter_mut().enumerate() {
            s.handle_frame(conn, &hello_frame(i as u32), 0);
        }
        let dep = Deposit { to: BROADCAST, frame: bare_frame(FrameKind::Request) };
        let resp = s.handle_frame(&mut conns[0], &Bytes::from(dep.encode()), 0);
        assert_eq!(Ack::decode(&resp).unwrap(), Ack::ok(3));
    }

    #[test]
    fn bare_request_is_broadcast_but_bare_reply_is_not() {
        let s = services();
        let mut a = None;
        let mut b = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        s.handle_frame(&mut b, &hello_frame(2), 0);

        let resp = s.handle_frame(&mut a, &bare_frame(FrameKind::Request), 0);
        assert_eq!(Ack::decode(&resp).unwrap(), Ack::ok(1));

        let resp = s.handle_frame(&mut a, &bare_frame(FrameKind::Reply), 0);
        assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::Rejected);
    }

    #[test]
    fn broadcast_reply_rejected_inside_deposit() {
        let s = services();
        let mut a = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        let dep = Deposit { to: BROADCAST, frame: bare_frame(FrameKind::Reply) };
        let resp = s.handle_frame(&mut a, &Bytes::from(dep.encode()), 0);
        assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::Rejected);
    }

    #[test]
    fn rate_guard_kicks_in() {
        let config = ServerConfig { guard_max_in_window: 2, ..ServerConfig::default() };
        let s = Services::new(config);
        let mut a = None;
        let mut b = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        s.handle_frame(&mut b, &hello_frame(2), 0);
        let dep = Bytes::from(Deposit { to: 2, frame: bare_frame(FrameKind::Request) }.encode());
        for t in 0..2 {
            let resp = s.handle_frame(&mut a, &dep, t);
            assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::Ok);
        }
        let resp = s.handle_frame(&mut a, &dep, 2);
        assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::RateLimited);
        assert_eq!(s.stats.rejected_rate.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fetch_reply_respects_frame_bound() {
        let config = ServerConfig { max_frame_len: 256, ..ServerConfig::default() };
        let s = Services::new(config);
        let mut a = None;
        let mut b = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        s.handle_frame(&mut b, &hello_frame(2), 0);

        // Each deposited request is 10 + 80 = 90 bytes; three of them
        // (8 + 90 = 98 each in a batch) exceed the 256-byte reply
        // budget, so a fetch returns two and keeps one for later.
        let mut w = msb_wire::Writer::new();
        w.bytes(&msb_wire::MAGIC);
        w.u8(msb_wire::VERSION);
        w.u8(FrameKind::Request as u8);
        w.u32(80);
        w.bytes(&[0xCC; 80]);
        let inner = Bytes::from(w.into_vec());
        let dep = Bytes::from(Deposit { to: 2, frame: inner.clone() }.encode());
        for t in 0..3 {
            let resp = s.handle_frame(&mut a, &dep, t);
            assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::Ok);
        }

        let fetch = Bytes::from(Fetch { max: 0 }.encode());
        let resp = s.handle_frame(&mut b, &fetch, 10);
        assert!(resp.len() <= 256, "reply frame {} bytes over budget", resp.len());
        assert_eq!(InboxBatch::decode(&resp).unwrap().messages.len(), 2);
        let resp = s.handle_frame(&mut b, &fetch, 11);
        assert_eq!(InboxBatch::decode(&resp).unwrap().messages.len(), 1);
    }

    #[test]
    fn oversized_inner_frame_rejected_at_deposit() {
        let config = ServerConfig { max_frame_len: 128, ..ServerConfig::default() };
        let s = Services::new(config);
        let mut a = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        let mut w = msb_wire::Writer::new();
        w.bytes(&msb_wire::MAGIC);
        w.u8(msb_wire::VERSION);
        w.u8(FrameKind::Request as u8);
        w.u32(110);
        w.bytes(&[0; 110]);
        let dep = Deposit { to: BROADCAST, frame: Bytes::from(w.into_vec()) };
        let resp = s.handle_frame(&mut a, &Bytes::from(dep.encode()), 0);
        assert_eq!(Ack::decode(&resp).unwrap().code, AckCode::Rejected);
    }

    #[test]
    fn stats_snapshot_reports_gauges() {
        let s = services();
        let mut a = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        let mut b = None;
        s.handle_frame(&mut b, &hello_frame(2), 0);
        let dep = Deposit { to: 2, frame: bare_frame(FrameKind::Request) };
        s.handle_frame(&mut a, &Bytes::from(dep.encode()), 0);

        let resp = s.handle_frame(&mut a, &bare_frame(FrameKind::RelayStatsReq), 0);
        let snap = crate::metrics::StatsSnapshot::decode(&resp).unwrap();
        assert_eq!(snap.registered_clients, 2);
        assert_eq!(snap.inbox_depth, 1);
        assert_eq!(snap.deposits_accepted, 1);
    }

    #[test]
    fn metrics_dump_reports_histograms_and_peaks() {
        let config = ServerConfig { guard_max_in_window: 2, ..ServerConfig::default() };
        let s = Services::new(config);
        let mut a = None;
        let mut b = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        s.handle_frame(&mut b, &hello_frame(2), 0);
        let dep = Bytes::from(Deposit { to: 2, frame: bare_frame(FrameKind::Request) }.encode());
        for t in 0..3 {
            s.handle_frame(&mut a, &dep, t);
        }
        s.handle_frame(&mut b, &Bytes::from(Fetch { max: 0 }.encode()), 10);

        let resp = s.handle_frame(&mut a, &bare_frame(FrameKind::RelayMetricsReq), 20);
        let dump = crate::metrics::MetricsDump::decode(&resp).unwrap();
        // 3 deposit attempts timed (the shed one included), 1 fetch.
        assert_eq!(dump.deposit_service_us.count(), 3);
        assert_eq!(dump.fetch_service_us.count(), 1);
        assert_eq!(dump.inbox_depth_peak, 2);
        assert_eq!(dump.stats.guard_sheds, 1);
        assert_eq!(dump.stats.rejected_rate, 1);
        assert_eq!(dump.stats.deposits_accepted, 2);
        // The exposition renders without panicking and carries the
        // histogram totals.
        let text = dump.exposition();
        assert!(text.contains("msb_relay_deposit_service_us_count 3"));
        assert!(text.contains("msb_relay_guard_sheds 1"));
    }

    #[test]
    fn guard_sheds_survive_compaction() {
        let config = ServerConfig { guard_max_in_window: 1, ..ServerConfig::default() };
        let s = Services::new(config);
        let mut a = None;
        let mut b = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        s.handle_frame(&mut b, &hello_frame(2), 0);
        let dep = Bytes::from(Deposit { to: 2, frame: bare_frame(FrameKind::Request) }.encode());
        s.handle_frame(&mut a, &dep, 0);
        s.handle_frame(&mut a, &dep, 1); // shed
                                         // Compaction (the cleanup worker's path) far past the window
                                         // drops the sender's slot but must not lose the shed count.
        s.purge_expired(u64::MAX / 2);
        let resp = s.handle_frame(&mut a, &bare_frame(FrameKind::RelayStatsReq), u64::MAX / 2);
        let snap = crate::metrics::StatsSnapshot::decode(&resp).unwrap();
        assert_eq!(snap.guard_sheds, 1);
        assert_eq!(snap.rejected_rate, 1);
    }

    #[test]
    fn reframe_rejects_totals_stream_errors() {
        let s = services();
        s.note_stream_error(&msb_wire::DecodeError::FrameTooLarge { declared: 1 << 30, max: 64 });
        s.note_stream_error(&msb_wire::DecodeError::Truncated { offset: 0 });
        let snap = s.stats.snapshot(0, 0, 0);
        assert_eq!(snap.reframe_rejects, 2);
        assert_eq!(snap.rejected_oversize, 1);
        assert_eq!(snap.rejected_malformed, 1);
    }

    #[test]
    fn cleanup_purges_and_counts() {
        let config = ServerConfig { inbox_ttl_us: 100, ..ServerConfig::default() };
        let s = Services::new(config);
        let mut a = None;
        let mut b = None;
        s.handle_frame(&mut a, &hello_frame(1), 0);
        s.handle_frame(&mut b, &hello_frame(2), 0);
        let dep = Deposit { to: 2, frame: bare_frame(FrameKind::Request) };
        s.handle_frame(&mut a, &Bytes::from(dep.encode()), 0);
        assert_eq!(s.purge_expired(50), 0);
        assert_eq!(s.purge_expired(100), 1);
        assert_eq!(s.stats.inbox_expired.load(Ordering::Relaxed), 1);
    }
}
