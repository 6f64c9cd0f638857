//! Structured trace recorder: a bounded ring of typed spans/events.
//!
//! Events are stamped by the **caller's clock** — on simulator paths
//! that is always the sim clock (`now_us`), never wall clock, so a
//! trace is a pure function of `(seed, config, apps)` and two
//! telemetry-enabled runs of the same scenario produce byte-identical
//! traces (asserted by the root differential suite). The buffer is
//! bounded: once `cap` events are held the oldest is dropped and
//! counted, so a 200k-node run cannot OOM through its own telemetry.
//!
//! Two export formats:
//! * [`TraceBuffer::to_jsonl`] — one JSON object per line, grep-able.
//! * [`TraceBuffer::to_chrome_trace`] — Chrome `trace_event` JSON
//!   (load in `chrome://tracing` or Perfetto); spans become complete
//!   (`"ph":"X"`) events on `tid = actor`, instants become `"ph":"i"`.

use std::collections::VecDeque;

/// What a trace event describes. The `a`/`b` payload words are
/// tag-specific (documented per variant).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceTag {
    /// One shard window `[at_us, at_us+dur_us)`; `a` = events popped,
    /// `b` = cross-shard envelopes ingested at the window boundary.
    Window,
    /// A window in which a shard popped nothing (pure sync overhead);
    /// `a` = 0, `b` = inbound envelopes ingested.
    Stall,
    /// A global quiesce point (mobility rehome); `a` = nodes moved,
    /// `b` = queued events transferred with them.
    Quiesce,
    /// One node handed between shards at a quiesce; `a` = node id,
    /// `b` = `from_shard << 32 | to_shard`.
    Handoff,
    /// A protocol phase transition observed by an app; `a`/`b` are
    /// protocol-defined.
    ProtocolPhase,
}

impl TraceTag {
    pub fn name(self) -> &'static str {
        match self {
            TraceTag::Window => "window",
            TraceTag::Stall => "stall",
            TraceTag::Quiesce => "quiesce",
            TraceTag::Handoff => "handoff",
            TraceTag::ProtocolPhase => "protocol_phase",
        }
    }
}

/// One span (`dur_us > 0`) or instant (`dur_us == 0`) in a trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Start timestamp in simulator microseconds.
    pub at_us: u64,
    /// Span duration in simulator microseconds (0 = instant event).
    pub dur_us: u64,
    /// Who: shard id on engine paths, node id on app paths.
    pub actor: u32,
    pub tag: TraceTag,
    pub a: u64,
    pub b: u64,
}

/// Bounded ring of [`TraceEvent`]s in record order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceBuffer {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer that keeps the most recent `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self { cap, events: VecDeque::new(), dropped: 0 }
    }

    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or refused, for `cap == 0`) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// One JSON object per line. Only integers and fixed keys — no
    /// escaping needed, so this stays dependency-free.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"at_us\":{},\"dur_us\":{},\"actor\":{},\"tag\":\"{}\",\"a\":{},\"b\":{}}}\n",
                ev.at_us,
                ev.dur_us,
                ev.actor,
                ev.tag.name(),
                ev.a,
                ev.b
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON array (the "JSON Array Format", which
    /// viewers accept without an enclosing object). Spans map to
    /// complete events, instants to instant events with thread scope.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if ev.dur_us > 0 {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"a\":{},\"b\":{}}}}}",
                    ev.tag.name(),
                    ev.at_us,
                    ev.dur_us,
                    ev.actor,
                    ev.a,
                    ev.b
                ));
            } else {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"a\":{},\"b\":{}}}}}",
                    ev.tag.name(),
                    ev.at_us,
                    ev.actor,
                    ev.a,
                    ev.b
                ));
            }
        }
        out.push(']');
        out
    }
}

/// Merge per-shard buffers into one deterministic timeline.
///
/// The concatenation (in the given buffer order — shard index order at
/// call sites) is stably sorted by `(at_us, actor)`, so ties keep each
/// shard's internal record order and the result is independent of
/// which worker thread finished first. Dropped counts add.
pub fn merge_buffers(buffers: &[TraceBuffer], cap: usize) -> TraceBuffer {
    let mut all: Vec<TraceEvent> = Vec::with_capacity(buffers.iter().map(|b| b.len()).sum());
    let mut dropped = 0u64;
    for b in buffers {
        dropped += b.dropped;
        all.extend(b.iter().copied());
    }
    all.sort_by_key(|ev| (ev.at_us, ev.actor));
    let mut out = TraceBuffer::with_capacity(cap);
    out.dropped = dropped;
    for ev in all {
        out.push(ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, actor: u32, tag: TraceTag) -> TraceEvent {
        TraceEvent { at_us, dur_us: 0, actor, tag, a: 0, b: 0 }
    }

    #[test]
    fn ring_drops_oldest() {
        let mut buf = TraceBuffer::with_capacity(2);
        buf.push(ev(1, 0, TraceTag::Window));
        buf.push(ev(2, 0, TraceTag::Window));
        buf.push(ev(3, 0, TraceTag::Window));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(buf.iter().map(|e| e.at_us).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn zero_cap_refuses_everything() {
        let mut buf = TraceBuffer::with_capacity(0);
        buf.push(ev(1, 0, TraceTag::Quiesce));
        assert!(buf.is_empty());
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = TraceBuffer::with_capacity(8);
        let mut b = TraceBuffer::with_capacity(8);
        a.push(ev(10, 0, TraceTag::Window));
        a.push(ev(30, 0, TraceTag::Window));
        b.push(ev(10, 1, TraceTag::Window));
        b.push(ev(20, 1, TraceTag::Stall));
        let merged = merge_buffers(&[a.clone(), b.clone()], 8);
        let times: Vec<(u64, u32)> = merged.iter().map(|e| (e.at_us, e.actor)).collect();
        assert_eq!(times, vec![(10, 0), (10, 1), (20, 1), (30, 0)]);
    }

    #[test]
    fn exports_are_well_formed() {
        let mut buf = TraceBuffer::with_capacity(4);
        buf.push(TraceEvent { at_us: 5, dur_us: 10, actor: 2, tag: TraceTag::Window, a: 7, b: 1 });
        buf.push(ev(20, 3, TraceTag::Handoff));
        let jsonl = buf.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"tag\":\"window\""));
        let chrome = buf.to_chrome_trace();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
    }
}
