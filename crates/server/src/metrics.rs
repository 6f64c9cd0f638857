//! Health and telemetry: lock-free counters incremented on the hot
//! path, snapshotted into a wire message on demand — the relay's
//! health/stats endpoint ([`crate::proto::StatsReq`]) and the richer
//! metrics endpoint ([`crate::proto::MetricsReq`] →
//! [`MetricsDump`]), which adds per-op service-time histograms and a
//! Prometheus-style text exposition.

use std::sync::atomic::{AtomicU64, Ordering};

use msb_telemetry::{AtomicLogHistogram, LogHistogram, HIST_BUCKETS};
use msb_wire::{DecodeError, FrameKind, Message, Reader, WireDecode, WireEncode, Writer};

/// Wire version of [`StatsSnapshot`]. v2 added `reframe_rejects` and
/// `guard_sheds`; the version byte leads the encoding so a v3 can add
/// fields without silently misparsing as ten shifted u64s.
pub const STATS_VERSION: u8 = 2;

/// Wire version of [`MetricsDump`].
pub const METRICS_DUMP_VERSION: u8 = 1;

/// Shared counters, one instance per server, updated with relaxed
/// atomics (monotonic counters; no ordering between them matters).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Complete frames read off all connections.
    pub frames_in: AtomicU64,
    /// Response frames written to all connections.
    pub frames_out: AtomicU64,
    /// Deposits accepted into at least one inbox queue.
    pub deposits_accepted: AtomicU64,
    /// Deposits dropped by the per-sender rate guard.
    pub rejected_rate: AtomicU64,
    /// Frames rejected for declaring a length above `max_frame_len`.
    pub rejected_oversize: AtomicU64,
    /// Frames rejected as malformed (bad envelope, bad body, policy).
    pub rejected_malformed: AtomicU64,
    /// Bottles handed to fetching clients.
    pub messages_delivered: AtomicU64,
    /// Bottles dropped after outliving the inbox TTL, whether the
    /// cleanup purge or a fetch found them.
    pub inbox_expired: AtomicU64,
    /// Connection-fatal reframing failures reported by the gateway
    /// (oversize declaration *or* garbage — the union of the two
    /// `rejected_*` splits that come from the stream layer).
    pub reframe_rejects: AtomicU64,
    /// High-water mark of total queued bottles, updated at each
    /// accepted deposit (a peak gauge, never reset).
    pub inbox_depth_peak: AtomicU64,
    /// Service time of each deposit-path frame (wrapped or bare), in
    /// microseconds, measured around the services layer.
    pub deposit_service_us: AtomicLogHistogram,
    /// Service time of each fetch, in microseconds.
    pub fetch_service_us: AtomicLogHistogram,
}

impl ServerStats {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Freezes the counters into a reply, attaching the gauges the
    /// counters can't know: current storage depth, registered
    /// population, and the rate guard's lifetime shed count.
    pub fn snapshot(
        &self,
        inbox_depth: u64,
        registered_clients: u64,
        guard_sheds: u64,
    ) -> StatsSnapshot {
        StatsSnapshot {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            deposits_accepted: self.deposits_accepted.load(Ordering::Relaxed),
            rejected_rate: self.rejected_rate.load(Ordering::Relaxed),
            rejected_oversize: self.rejected_oversize.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
            messages_delivered: self.messages_delivered.load(Ordering::Relaxed),
            inbox_expired: self.inbox_expired.load(Ordering::Relaxed),
            inbox_depth,
            registered_clients,
            reframe_rejects: self.reframe_rejects.load(Ordering::Relaxed),
            guard_sheds,
        }
    }
}

/// The health/stats endpoint's reply ([`FrameKind::RelayStats`]): every
/// counter plus the storage gauges, as one versioned wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Complete frames read off all connections.
    pub frames_in: u64,
    /// Response frames written to all connections.
    pub frames_out: u64,
    /// Deposits accepted into at least one inbox queue.
    pub deposits_accepted: u64,
    /// Deposits dropped by the per-sender rate guard.
    pub rejected_rate: u64,
    /// Frames rejected for declaring a length above `max_frame_len`.
    pub rejected_oversize: u64,
    /// Frames rejected as malformed (bad envelope, bad body, policy).
    pub rejected_malformed: u64,
    /// Bottles handed to fetching clients.
    pub messages_delivered: u64,
    /// Bottles dropped after outliving the inbox TTL, whether the
    /// cleanup purge or a fetch found them.
    pub inbox_expired: u64,
    /// Bottles currently queued across all recipients.
    pub inbox_depth: u64,
    /// Clients that have said [`Hello`](crate::proto::Hello).
    pub registered_clients: u64,
    /// Connection-fatal [`FrameStream`](msb_wire::stream::FrameStream)
    /// reframing failures (v2).
    pub reframe_rejects: u64,
    /// Lifetime denials recorded by the per-sender
    /// [`RateGuard`](msb_net::guard::RateGuard) — unlike
    /// `rejected_rate` this survives guard compaction by construction
    /// because it is read straight from the guard (v2).
    pub guard_sheds: u64,
}

impl WireEncode for StatsSnapshot {
    fn encoded_len(&self) -> usize {
        1 + 8 * 12
    }
    fn encode_into(&self, w: &mut Writer) {
        w.u8(STATS_VERSION);
        w.u64(self.frames_in);
        w.u64(self.frames_out);
        w.u64(self.deposits_accepted);
        w.u64(self.rejected_rate);
        w.u64(self.rejected_oversize);
        w.u64(self.rejected_malformed);
        w.u64(self.messages_delivered);
        w.u64(self.inbox_expired);
        w.u64(self.inbox_depth);
        w.u64(self.registered_clients);
        w.u64(self.reframe_rejects);
        w.u64(self.guard_sheds);
    }
}

impl WireDecode for StatsSnapshot {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let start = r.offset();
        let version = r.u8()?;
        if version != STATS_VERSION {
            return Err(r.invalid(start, "stats snapshot version"));
        }
        Ok(StatsSnapshot {
            frames_in: r.u64()?,
            frames_out: r.u64()?,
            deposits_accepted: r.u64()?,
            rejected_rate: r.u64()?,
            rejected_oversize: r.u64()?,
            rejected_malformed: r.u64()?,
            messages_delivered: r.u64()?,
            inbox_expired: r.u64()?,
            inbox_depth: r.u64()?,
            registered_clients: r.u64()?,
            reframe_rejects: r.u64()?,
            guard_sheds: r.u64()?,
        })
    }
}

impl Message for StatsSnapshot {
    const KIND: FrameKind = FrameKind::RelayStats;
}

/// Sparse histogram encoding: `sum`, `min`, `max`, then a count of
/// occupied buckets followed by `(index, count)` pairs. Decode rebuilds
/// through [`LogHistogram::from_parts`], so the sample count is derived
/// from the buckets and can't disagree with them.
fn hist_encoded_len(h: &LogHistogram) -> usize {
    let occupied = h.buckets().iter().filter(|&&c| c != 0).count();
    8 * 3 + 1 + occupied * (1 + 8)
}

fn encode_hist_into(h: &LogHistogram, w: &mut Writer) {
    w.u64(h.sum());
    w.u64(h.min().unwrap_or(u64::MAX));
    w.u64(h.max().unwrap_or(0));
    let occupied = h.buckets().iter().filter(|&&c| c != 0).count();
    w.u8(occupied as u8);
    for (i, &c) in h.buckets().iter().enumerate() {
        if c != 0 {
            w.u8(i as u8);
            w.u64(c);
        }
    }
}

fn decode_hist_from(r: &mut Reader<'_>) -> Result<LogHistogram, DecodeError> {
    let sum = r.u64()?;
    let min = r.u64()?;
    let max = r.u64()?;
    let occupied = r.u8()? as usize;
    if occupied > HIST_BUCKETS {
        return Err(r.invalid(r.offset().saturating_sub(1), "histogram bucket count"));
    }
    let mut buckets = [0u64; HIST_BUCKETS];
    let mut prev: Option<usize> = None;
    for _ in 0..occupied {
        let start = r.offset();
        let i = r.u8()? as usize;
        // Strictly increasing indices: rejects duplicates and
        // out-of-range buckets in one check, keeping decode canonical.
        if i >= HIST_BUCKETS || prev.is_some_and(|p| i <= p) {
            return Err(r.invalid(start, "histogram bucket index"));
        }
        buckets[i] = r.u64()?;
        prev = Some(i);
    }
    Ok(LogHistogram::from_parts(buckets, sum, min, max))
}

/// The metrics endpoint's reply ([`FrameKind::RelayMetricsDump`]): the
/// v2 stats snapshot plus the gauges and service-time histograms that
/// don't fit a flat counter row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsDump {
    /// The same snapshot [`StatsReq`](crate::proto::StatsReq) returns.
    pub stats: StatsSnapshot,
    /// High-water mark of total queued bottles.
    pub inbox_depth_peak: u64,
    /// Deposit-path service time, microseconds.
    pub deposit_service_us: LogHistogram,
    /// Fetch-path service time, microseconds.
    pub fetch_service_us: LogHistogram,
}

impl WireEncode for MetricsDump {
    fn encoded_len(&self) -> usize {
        1 + self.stats.encoded_len()
            + 8
            + hist_encoded_len(&self.deposit_service_us)
            + hist_encoded_len(&self.fetch_service_us)
    }
    fn encode_into(&self, w: &mut Writer) {
        w.u8(METRICS_DUMP_VERSION);
        self.stats.encode_into(w);
        w.u64(self.inbox_depth_peak);
        encode_hist_into(&self.deposit_service_us, w);
        encode_hist_into(&self.fetch_service_us, w);
    }
}

impl WireDecode for MetricsDump {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let start = r.offset();
        let version = r.u8()?;
        if version != METRICS_DUMP_VERSION {
            return Err(r.invalid(start, "metrics dump version"));
        }
        Ok(MetricsDump {
            stats: StatsSnapshot::decode_from(r)?,
            inbox_depth_peak: r.u64()?,
            deposit_service_us: decode_hist_from(r)?,
            fetch_service_us: decode_hist_from(r)?,
        })
    }
}

impl Message for MetricsDump {
    const KIND: FrameKind = FrameKind::RelayMetricsDump;
}

impl MetricsDump {
    /// Renders a Prometheus-style text exposition: every counter as a
    /// `counter`, the storage gauges as `gauge`s, and each service-time
    /// series as a cumulative `histogram` with `_sum`/`_count` rows.
    pub fn exposition(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counters: [(&str, u64); 10] = [
            ("msb_relay_frames_in", self.stats.frames_in),
            ("msb_relay_frames_out", self.stats.frames_out),
            ("msb_relay_deposits_accepted", self.stats.deposits_accepted),
            ("msb_relay_rejected_rate", self.stats.rejected_rate),
            ("msb_relay_rejected_oversize", self.stats.rejected_oversize),
            ("msb_relay_rejected_malformed", self.stats.rejected_malformed),
            ("msb_relay_messages_delivered", self.stats.messages_delivered),
            ("msb_relay_inbox_expired", self.stats.inbox_expired),
            ("msb_relay_reframe_rejects", self.stats.reframe_rejects),
            ("msb_relay_guard_sheds", self.stats.guard_sheds),
        ];
        for (name, v) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        let gauges: [(&str, u64); 3] = [
            ("msb_relay_inbox_depth", self.stats.inbox_depth),
            ("msb_relay_inbox_depth_peak", self.inbox_depth_peak),
            ("msb_relay_registered_clients", self.stats.registered_clients),
        ];
        for (name, v) in gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        expose_histogram(&mut out, "msb_relay_deposit_service_us", &self.deposit_service_us);
        expose_histogram(&mut out, "msb_relay_fetch_service_us", &self.fetch_service_us);
        out
    }
}

/// One histogram in exposition format: cumulative `le` buckets (only
/// the occupied ones, plus the mandatory `+Inf`), then `_sum`/`_count`.
fn expose_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let le = msb_telemetry::bucket_upper_bound(i);
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dump() -> MetricsDump {
        let mut dep = LogHistogram::new();
        for v in [3u64, 9, 40, 41, 1000] {
            dep.record(v);
        }
        let mut fch = LogHistogram::new();
        fch.record(0);
        fch.record(17);
        MetricsDump {
            stats: StatsSnapshot {
                frames_in: 12,
                frames_out: 11,
                deposits_accepted: 5,
                guard_sheds: 2,
                reframe_rejects: 1,
                inbox_depth: 3,
                registered_clients: 4,
                ..StatsSnapshot::default()
            },
            inbox_depth_peak: 7,
            deposit_service_us: dep,
            fetch_service_us: fch,
        }
    }

    #[test]
    fn stats_snapshot_roundtrip_v2() {
        let snap = sample_dump().stats;
        let bytes = snap.encode();
        assert_eq!(StatsSnapshot::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn stats_snapshot_rejects_unknown_version() {
        let snap = StatsSnapshot::default();
        let mut bytes = snap.encode();
        bytes[msb_wire::FRAME_HEADER_LEN] = 99;
        assert!(StatsSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn metrics_dump_roundtrip() {
        let dump = sample_dump();
        let bytes = dump.encode();
        assert_eq!(bytes.len(), msb_wire::FRAME_HEADER_LEN + dump.encoded_len());
        assert_eq!(MetricsDump::decode(&bytes).unwrap(), dump);
    }

    #[test]
    fn metrics_dump_rejects_bad_bucket_order() {
        let dump = sample_dump();
        let bytes = dump.encode();
        // Find the first histogram's first bucket index (after the
        // dump version, the nested snapshot, the peak gauge, and the
        // histogram's sum/min/max + occupied count) and un-sort it.
        let off = msb_wire::FRAME_HEADER_LEN + 1 + dump.stats.encoded_len() + 8 + 8 * 3 + 1;
        let mut bad = bytes.clone();
        bad[off] = 64; // > every later index → next pair violates order
        assert!(MetricsDump::decode(&bad).is_err());
    }

    #[test]
    fn exposition_has_cumulative_buckets_and_totals() {
        let dump = sample_dump();
        let text = dump.exposition();
        assert!(text.contains("msb_relay_frames_in 12"));
        assert!(text.contains("msb_relay_guard_sheds 2"));
        assert!(text.contains("msb_relay_inbox_depth_peak 7"));
        // 5 deposit samples: cumulative reaches 5 at +Inf.
        assert!(text.contains("msb_relay_deposit_service_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("msb_relay_deposit_service_us_count 5"));
        // 40 and 41 share bucket 6 (le=63): cumulative 4 there.
        assert!(text.contains("msb_relay_deposit_service_us_bucket{le=\"63\"} 4"));
        assert!(text.contains("msb_relay_fetch_service_us_sum 17"));
    }

    #[test]
    fn empty_histograms_roundtrip() {
        let dump = MetricsDump {
            stats: StatsSnapshot::default(),
            inbox_depth_peak: 0,
            deposit_service_us: LogHistogram::new(),
            fetch_service_us: LogHistogram::new(),
        };
        let bytes = dump.encode();
        let back = MetricsDump::decode(&bytes).unwrap();
        assert!(back.deposit_service_us.is_empty());
        assert_eq!(back, dump);
    }
}
