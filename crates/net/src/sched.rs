//! Pluggable event schedulers for the simulator.
//!
//! The simulator's hot loop is `schedule` / `pop` on a priority queue of
//! timestamped events. This module abstracts that queue behind the
//! [`Scheduler`] trait and ships two implementations selected by
//! [`SchedulerMode`] (see `docs/SIM.md` for the full engine contract):
//!
//! * [`HeapScheduler`] — the classic `BinaryHeap` engine. O(log n) per
//!   operation with n the *total* queue depth, including far-future
//!   entries (recurring re-flood timers, long deadlines) that every
//!   near-term delivery must sift past. Kept as the differential oracle
//!   and speedup baseline.
//! * [`CalendarScheduler`] — a hierarchical calendar (bucket) queue
//!   tuned to the simulator's bounded-horizon event distribution:
//!   almost every event lands within a few milliseconds of *now*
//!   (radio latency, jitter, per-key computation delays), while a
//!   minority (re-flood periods, expiry deadlines) sits seconds out.
//!   Near-term events go into a ring of fixed 4 µs time buckets
//!   (insert and extract O(1) amortized, located via an occupancy
//!   bitmap); far-future events wait in an overflow heap and migrate
//!   into the ring when the clock approaches them, so they are touched
//!   O(log overflow) times *total* instead of taxing every operation.
//!   A stream whose events are all seconds apart therefore lives in
//!   the overflow heap and costs what the heap oracle costs.
//!
//! # Ordering contract
//!
//! Both schedulers are *bit-identical*: events pop in ascending
//! `(at_us, key)` order, where [`EventKey`] is a **content-derived**
//! key supplied by the caller — `(source node, per-source emission
//! counter)` for the simulator, never an engine-assigned global
//! sequence. Because the key is a function of the event's *origin*
//! rather than of insertion order, the pop order is independent of
//! which engine (or which spatial shard — see [`crate::shard`])
//! inserted the entry. Callers must keep keys unique; the simulator
//! guarantees this by never reusing an emission number. Recurring
//! entries ([`Scheduler::schedule_recurring`]) re-arm at pop time and
//! *keep their original key*, so a re-armed firing ties against other
//! events at its new instant exactly as its creation order dictates. A
//! simulation run is therefore a pure function of `(seed, config,
//! apps)` regardless of [`SchedulerMode`]; the differential suites
//! (`tests/sched_differential.rs`, the root churn tests) pin this down
//! at the event, trace, and application levels.
//!
//! # Handoff support
//!
//! Spatial sharding moves nodes between engine instances at mobility
//! quiesce points. [`Scheduler::extract`] removes every pending entry
//! matching a predicate (returned in ascending `(at_us, key)` order),
//! and [`Scheduler::transfer`] re-inserts an extracted entry into
//! another scheduler *without* counting it toward
//! [`Scheduler::events_scheduled`] — a moved event was already
//! accounted once at its original insertion, and the merged counters
//! must be independent of how often it migrates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which event engine the simulator runs on. See the module docs.
///
/// Both modes produce bit-identical runs; only wall-clock and
/// [`Metrics::events_scheduled`](crate::sim::Metrics::events_scheduled) /
/// [`Metrics::peak_queue_len`](crate::sim::Metrics::peak_queue_len)
/// observability (identical across modes by construction) distinguish
/// them externally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Hierarchical calendar queue ([`CalendarScheduler`]):
    /// O(1)-amortized insert/extract for the bounded-horizon bulk of
    /// the traffic. The default.
    #[default]
    Calendar,
    /// Binary heap ([`HeapScheduler`]) — the pre-refactor reference
    /// engine, kept as the differential oracle and speedup baseline.
    BinaryHeap,
}

/// Content-derived tie-break key of a scheduled event.
///
/// Two events at the same instant pop in ascending `(src, emit)`
/// order. The simulator derives the key from the event's *origin* —
/// the emitting node and that node's private emission counter — so the
/// global pop order is a pure function of simulation content, not of
/// which engine or shard performed the insertion. External injections
/// use the [`EventKey::EXTERNAL_SRC`] sentinel, ordering them after
/// every node-emitted event at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Emitting node id, or [`EventKey::EXTERNAL_SRC`].
    pub src: u32,
    /// The source's emission counter at emit time (unique per source).
    pub emit: u64,
}

impl EventKey {
    /// Sentinel source for events injected from outside the simulated
    /// network ([`Simulator::inject`](crate::sim::Simulator::inject));
    /// sorts after every real node at the same instant.
    pub const EXTERNAL_SRC: u32 = u32::MAX;

    /// A key for an event emitted by node `src`.
    pub fn new(src: u32, emit: u64) -> Self {
        EventKey { src, emit }
    }

    /// A key for an externally injected event.
    pub fn external(emit: u64) -> Self {
        EventKey { src: Self::EXTERNAL_SRC, emit }
    }
}

/// Re-arming rule for a recurring scheduled item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recurrence {
    /// Distance between consecutive firings, in microseconds.
    /// Must be nonzero (a zero period would re-fire at the same
    /// instant forever and the queue would never drain).
    pub period_us: u64,
    /// Last instant (inclusive) a firing may be scheduled at. The
    /// entry stops re-arming once `at + period > until_us`, which is
    /// what lets [`Simulator::run`](crate::sim::Simulator::run) drain
    /// a queue containing recurring events.
    pub until_us: u64,
}

impl Recurrence {
    /// Creates a recurrence rule.
    ///
    /// # Panics
    ///
    /// Panics if `period_us` is zero.
    pub fn new(period_us: u64, until_us: u64) -> Self {
        assert!(period_us > 0, "a recurrence period must be nonzero");
        Recurrence { period_us, until_us }
    }
}

/// One pending queue entry, as stored by (and movable between)
/// schedulers: timestamp, content key, optional recurrence, payload.
/// Ordered by `(at_us, key)`; the item does not participate in
/// comparisons.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<T> {
    /// The instant the event fires.
    pub at_us: u64,
    /// Content-derived tie-break key (see [`EventKey`]).
    pub key: EventKey,
    /// Re-arming rule, if the entry is recurring.
    pub recur: Option<Recurrence>,
    /// The scheduled payload.
    pub item: T,
}

impl<T> ScheduledEvent<T> {
    fn sort_key(&self) -> (u64, EventKey) {
        (self.at_us, self.key)
    }
}

impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}
impl<T> Eq for ScheduledEvent<T> {}
impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

/// A priority queue of timestamped items with content-keyed
/// tie-breaking and optional recurrence — the simulator's event engine.
///
/// Implementations must satisfy the ordering contract in the module
/// docs; everything observable (pop order, the
/// [`Scheduler::events_scheduled`] / [`Scheduler::peak_len`] counters)
/// is identical across conforming implementations.
pub trait Scheduler<T: Clone> {
    /// Enqueues `item` to pop at `(at_us, key)`.
    fn schedule(&mut self, at_us: u64, key: EventKey, item: T);

    /// Enqueues `item` to first pop at `at_us` and then re-arm every
    /// `recur.period_us` while the next firing is `<= recur.until_us`,
    /// keeping `key` across re-arms. Each firing (including re-arms)
    /// counts toward [`Scheduler::events_scheduled`].
    fn schedule_recurring(&mut self, at_us: u64, key: EventKey, recur: Recurrence, item: T);

    /// The earliest pending `(at_us, item)` without removing it, or
    /// `None` when empty. Takes `&mut self` because locating the
    /// minimum may reorganize internal storage (calendar refill).
    fn peek(&mut self) -> Option<(u64, &T)>;

    /// Removes and returns the earliest pending `(at_us, item)`;
    /// recurring entries re-arm their next firing first (with their
    /// original key, before anything the caller schedules).
    fn pop(&mut self) -> Option<(u64, T)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever enqueued (schedule calls plus recurrence
    /// re-arms, *excluding* [`Scheduler::transfer`]s) — the
    /// queue-pressure counter behind
    /// [`Metrics::events_scheduled`](crate::sim::Metrics::events_scheduled).
    fn events_scheduled(&self) -> u64;

    /// High-water mark of [`Scheduler::len`] over the queue's lifetime.
    fn peak_len(&self) -> usize;

    /// Re-inserts an entry extracted from another scheduler, keeping
    /// its timestamp, key, and recurrence, *without* counting it
    /// toward [`Scheduler::events_scheduled`] (it was accounted at its
    /// original insertion). [`Scheduler::peak_len`] still observes the
    /// resulting depth.
    fn transfer(&mut self, ev: ScheduledEvent<T>);

    /// Removes every pending entry whose item matches `pred`,
    /// returning them in ascending `(at_us, key)` order — the mobility
    /// handoff primitive. Counters other than [`Scheduler::len`] are
    /// unaffected.
    fn extract(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Vec<ScheduledEvent<T>>;

    /// Enqueues a whole batch — the coalesced cross-shard envelope
    /// transfer. The batch is first sorted by its content sort key
    /// `(at_us, key)`, so the insertion order a sender accumulated it
    /// in is immaterial; each entry then counts toward
    /// [`Scheduler::events_scheduled`] exactly like an individual
    /// [`Scheduler::schedule`] call (a cross-shard event is *not*
    /// scheduled at its source, so this is its single accounting).
    fn schedule_all(&mut self, mut events: Vec<ScheduledEvent<T>>) {
        events.sort_unstable();
        for ev in events {
            debug_assert!(ev.recur.is_none(), "recurring entries never cross shards");
            self.schedule(ev.at_us, ev.key, ev.item);
        }
    }
}

/// Shared statistics bookkeeping, identical across engines so the
/// counters are comparable bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    scheduled: u64,
    peak: usize,
}

impl Stats {
    /// Accounts one enqueued event at the given post-insert length.
    fn on_insert(&mut self, len_after: usize) {
        self.scheduled += 1;
        self.peak = self.peak.max(len_after);
    }

    /// Accounts a transferred-in entry: depth only, no schedule count.
    fn on_transfer(&mut self, len_after: usize) {
        self.peak = self.peak.max(len_after);
    }
}

/// The binary-heap engine: `BinaryHeap<Reverse<ScheduledEvent>>`,
/// exactly the structure the simulator used before the scheduler
/// refactor. The differential oracle.
#[derive(Debug, Clone)]
pub struct HeapScheduler<T> {
    heap: BinaryHeap<Reverse<ScheduledEvent<T>>>,
    stats: Stats,
}

impl<T> Default for HeapScheduler<T> {
    fn default() -> Self {
        HeapScheduler { heap: BinaryHeap::new(), stats: Stats::default() }
    }
}

impl<T> HeapScheduler<T> {
    /// Creates an empty heap scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, at_us: u64, key: EventKey, recur: Option<Recurrence>, item: T) {
        self.stats.on_insert(self.heap.len() + 1);
        self.heap.push(Reverse(ScheduledEvent { at_us, key, recur, item }));
    }
}

impl<T: Clone> Scheduler<T> for HeapScheduler<T> {
    fn schedule(&mut self, at_us: u64, key: EventKey, item: T) {
        self.insert(at_us, key, None, item);
    }

    fn schedule_recurring(&mut self, at_us: u64, key: EventKey, recur: Recurrence, item: T) {
        self.insert(at_us, key, Some(recur), item);
    }

    fn peek(&mut self) -> Option<(u64, &T)> {
        self.heap.peek().map(|Reverse(e)| (e.at_us, &e.item))
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse(e) = self.heap.pop()?;
        if let Some(recur) = e.recur {
            let next = e.at_us + recur.period_us;
            if next <= recur.until_us {
                self.insert(next, e.key, Some(recur), e.item.clone());
            }
        }
        Some((e.at_us, e.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn events_scheduled(&self) -> u64 {
        self.stats.scheduled
    }

    fn peak_len(&self) -> usize {
        self.stats.peak
    }

    fn transfer(&mut self, ev: ScheduledEvent<T>) {
        self.heap.push(Reverse(ev));
        self.stats.on_transfer(self.heap.len());
    }

    fn extract(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Vec<ScheduledEvent<T>> {
        let entries = std::mem::take(&mut self.heap).into_vec();
        let mut out = Vec::new();
        let mut kept = Vec::with_capacity(entries.len());
        for Reverse(e) in entries {
            if pred(&e.item) {
                out.push(e);
            } else {
                kept.push(Reverse(e));
            }
        }
        self.heap = BinaryHeap::from(kept);
        out.sort_unstable();
        out
    }
}

/// Microseconds covered by one calendar bucket. Deliberately fine:
/// the simulator's in-flight deliveries concentrate inside the radio
/// horizon (base latency + jitter, under a millisecond), so at swarm
/// scale tens of thousands of events share that window — wide buckets
/// would pile them into one slot and the per-bucket sort would
/// degenerate toward a global sort. At 4 µs a 50k-deep in-flight set
/// spreads to a few hundred entries per bucket: the lazy sort costs a
/// handful of comparisons per event on contiguous memory, and inserts
/// stay `Vec::push`.
const BUCKET_WIDTH_US: u64 = 4;

/// Buckets in the ring; with [`BUCKET_WIDTH_US`] the ring covers ~33 ms
/// of simulated time — enough for every latency/jitter draw and the
/// modelled per-key computation timers, while second-scale entries
/// (re-flood periods, expiry deadlines) wait in the overflow heap. Must
/// be a multiple of 64 (the occupancy bitmap is a `u64` array).
const RING_SLOTS: usize = 8192;

/// The hierarchical calendar-queue engine. See the module docs for the
/// design; in short: a ring of `RING_SLOTS` buckets of 4 µs each holds
/// the near future (located through an occupancy bitmap), a
/// `BinaryHeap` overflow holds everything beyond the ring's window, and
/// the bucket at the current epoch is kept sorted for in-order popping.
#[derive(Debug, Clone)]
pub struct CalendarScheduler<T> {
    /// Ring of future buckets; each non-empty slot holds entries of
    /// exactly one absolute epoch, in insertion order (sorted lazily
    /// when the slot becomes current).
    slots: Vec<Vec<ScheduledEvent<T>>>,
    /// One bit per slot: set iff the slot is non-empty. `u64` words so
    /// the next occupied slot is found by word scan + trailing_zeros.
    occupied: Vec<u64>,
    /// Entries of the current epoch, sorted *descending* by
    /// `(at_us, key)` so popping the minimum is `Vec::pop`.
    cur: Vec<ScheduledEvent<T>>,
    /// Absolute epoch (`at_us / BUCKET_WIDTH_US`) the drain cursor is
    /// at; the ring window is `[cur_epoch, cur_epoch + RING_SLOTS)`.
    cur_epoch: u64,
    /// Entries across all ring slots (excluding `cur`).
    ring_len: usize,
    /// Events beyond the ring window, keyed like the heap engine.
    overflow: BinaryHeap<Reverse<ScheduledEvent<T>>>,
    len: usize,
    stats: Stats,
}

impl<T> Default for CalendarScheduler<T> {
    fn default() -> Self {
        CalendarScheduler {
            slots: (0..RING_SLOTS).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; RING_SLOTS / 64],
            cur: Vec::new(),
            cur_epoch: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            stats: Stats::default(),
        }
    }
}

impl<T> CalendarScheduler<T> {
    /// Creates an empty calendar scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn epoch_of(at_us: u64) -> u64 {
        at_us / BUCKET_WIDTH_US
    }

    fn mark(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    fn unmark(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Files an entry into `cur` / ring / overflow. Does not touch
    /// `len` or `stats` — callers account those (insertion and transfer
    /// account differently).
    fn place(&mut self, entry: ScheduledEvent<T>) {
        let epoch = Self::epoch_of(entry.at_us);
        if epoch <= self.cur_epoch {
            // Lands at (or before — possible right after a `run_until`
            // fast-forward) the epoch being drained: merge into the
            // sorted current block. `partition_point` finds the spot
            // that keeps the descending (at, key) order.
            let key = entry.sort_key();
            let pos = self.cur.partition_point(|e| e.sort_key() > key);
            self.cur.insert(pos, entry);
        } else if epoch < self.cur_epoch + RING_SLOTS as u64 {
            let slot = (epoch % RING_SLOTS as u64) as usize;
            self.slots[slot].push(entry);
            self.ring_len += 1;
            self.mark(slot);
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    fn insert(&mut self, at_us: u64, key: EventKey, recur: Option<Recurrence>, item: T) {
        self.len += 1;
        self.stats.on_insert(self.len);
        self.place(ScheduledEvent { at_us, key, recur, item });
    }

    /// First occupied ring slot strictly after `cur_epoch` (in epoch
    /// order, which equals circular slot order from the cursor), as an
    /// absolute epoch.
    fn next_ring_epoch(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let n = RING_SLOTS as u64;
        let start = ((self.cur_epoch + 1) % n) as usize;
        // Scan the bitmap from `start`, wrapping once around the ring.
        let mut dist = 0u64; // circular distance - 1 of the word scan start
        let mut idx = start;
        while dist < n {
            let word_idx = idx / 64;
            let bit = idx % 64;
            let word = self.occupied[word_idx] >> bit;
            if word != 0 {
                let hop = word.trailing_zeros() as u64;
                if dist + hop < n {
                    let slot = (idx as u64 + hop) % n;
                    // Slot order equals epoch order inside one window.
                    let delta = (slot + n - (self.cur_epoch + 1) % n) % n + 1;
                    return Some(self.cur_epoch + delta);
                }
                return None;
            }
            let hop = 64 - bit as u64;
            dist += hop;
            idx = (idx + hop as usize) % RING_SLOTS;
        }
        None
    }

    /// Refills `cur` from the earliest non-empty epoch across ring and
    /// overflow. No-op when nothing is pending.
    fn refill(&mut self) {
        debug_assert!(self.cur.is_empty());
        let ring_epoch = self.next_ring_epoch();
        let over_epoch = self.overflow.peek().map(|Reverse(e)| Self::epoch_of(e.at_us));
        let target = match (ring_epoch, over_epoch) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        self.cur_epoch = target;
        if ring_epoch == Some(target) {
            let slot = (target % RING_SLOTS as u64) as usize;
            self.cur = std::mem::take(&mut self.slots[slot]);
            self.ring_len -= self.cur.len();
            self.unmark(slot);
        }
        // Overflow entries whose epoch the cursor has reached join the
        // same block (the ring may hold the same epoch when entries
        // were inserted after the window slid over it).
        while let Some(Reverse(e)) = self.overflow.peek() {
            if Self::epoch_of(e.at_us) != target {
                break;
            }
            let Some(Reverse(e)) = self.overflow.pop() else { unreachable!() };
            self.cur.push(e);
        }
        self.cur.sort_unstable_by_key(|e| Reverse(e.sort_key()));
    }
}

impl<T: Clone> Scheduler<T> for CalendarScheduler<T> {
    fn schedule(&mut self, at_us: u64, key: EventKey, item: T) {
        self.insert(at_us, key, None, item);
    }

    fn schedule_recurring(&mut self, at_us: u64, key: EventKey, recur: Recurrence, item: T) {
        self.insert(at_us, key, Some(recur), item);
    }

    fn peek(&mut self) -> Option<(u64, &T)> {
        if self.cur.is_empty() {
            self.refill();
        }
        self.cur.last().map(|e| (e.at_us, &e.item))
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        if self.cur.is_empty() {
            self.refill();
        }
        let e = self.cur.pop()?;
        self.len -= 1;
        if let Some(recur) = e.recur {
            let next = e.at_us + recur.period_us;
            if next <= recur.until_us {
                self.insert(next, e.key, Some(recur), e.item.clone());
            }
        }
        Some((e.at_us, e.item))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn events_scheduled(&self) -> u64 {
        self.stats.scheduled
    }

    fn peak_len(&self) -> usize {
        self.stats.peak
    }

    fn transfer(&mut self, ev: ScheduledEvent<T>) {
        self.len += 1;
        self.stats.on_transfer(self.len);
        self.place(ev);
    }

    fn extract(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Vec<ScheduledEvent<T>> {
        let mut out = Vec::new();
        let take = |store: &mut Vec<ScheduledEvent<T>>,
                    out: &mut Vec<ScheduledEvent<T>>,
                    pred: &mut dyn FnMut(&T) -> bool| {
            let mut kept = Vec::with_capacity(store.len());
            for e in store.drain(..) {
                if pred(&e.item) {
                    out.push(e);
                } else {
                    kept.push(e);
                }
            }
            *store = kept;
        };
        take(&mut self.cur, &mut out, pred);
        let before_ring = out.len();
        for i in 0..RING_SLOTS {
            if self.slots[i].is_empty() {
                continue;
            }
            take(&mut self.slots[i], &mut out, pred);
            if self.slots[i].is_empty() {
                self.unmark(i);
            }
        }
        self.ring_len -= out.len() - before_ring;
        let overflow = std::mem::take(&mut self.overflow).into_vec();
        let mut kept = Vec::with_capacity(overflow.len());
        for Reverse(e) in overflow {
            if pred(&e.item) {
                out.push(e);
            } else {
                kept.push(Reverse(e));
            }
        }
        self.overflow = BinaryHeap::from(kept);
        self.len -= out.len();
        out.sort_unstable();
        out
    }
}

/// A [`Scheduler`] chosen at runtime by [`SchedulerMode`] — what the
/// simulator embeds (enum dispatch keeps the hot path free of virtual
/// calls while staying pluggable through the trait).
#[derive(Debug, Clone)]
pub enum AnyScheduler<T> {
    /// The binary-heap oracle engine.
    Heap(HeapScheduler<T>),
    /// The calendar-queue engine.
    Calendar(CalendarScheduler<T>),
}

impl<T> AnyScheduler<T> {
    /// Creates the engine `mode` selects.
    pub fn for_mode(mode: SchedulerMode) -> Self {
        match mode {
            SchedulerMode::BinaryHeap => AnyScheduler::Heap(HeapScheduler::new()),
            SchedulerMode::Calendar => AnyScheduler::Calendar(CalendarScheduler::new()),
        }
    }
}

impl<T: Clone> Scheduler<T> for AnyScheduler<T> {
    fn schedule(&mut self, at_us: u64, key: EventKey, item: T) {
        match self {
            AnyScheduler::Heap(s) => s.schedule(at_us, key, item),
            AnyScheduler::Calendar(s) => s.schedule(at_us, key, item),
        }
    }

    fn schedule_recurring(&mut self, at_us: u64, key: EventKey, recur: Recurrence, item: T) {
        match self {
            AnyScheduler::Heap(s) => s.schedule_recurring(at_us, key, recur, item),
            AnyScheduler::Calendar(s) => s.schedule_recurring(at_us, key, recur, item),
        }
    }

    fn peek(&mut self) -> Option<(u64, &T)> {
        match self {
            AnyScheduler::Heap(s) => s.peek(),
            AnyScheduler::Calendar(s) => s.peek(),
        }
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        match self {
            AnyScheduler::Heap(s) => s.pop(),
            AnyScheduler::Calendar(s) => s.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyScheduler::Heap(s) => s.len(),
            AnyScheduler::Calendar(s) => s.len(),
        }
    }

    fn events_scheduled(&self) -> u64 {
        match self {
            AnyScheduler::Heap(s) => s.events_scheduled(),
            AnyScheduler::Calendar(s) => s.events_scheduled(),
        }
    }

    fn peak_len(&self) -> usize {
        match self {
            AnyScheduler::Heap(s) => s.peak_len(),
            AnyScheduler::Calendar(s) => s.peak_len(),
        }
    }

    fn transfer(&mut self, ev: ScheduledEvent<T>) {
        match self {
            AnyScheduler::Heap(s) => s.transfer(ev),
            AnyScheduler::Calendar(s) => s.transfer(ev),
        }
    }

    fn extract(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Vec<ScheduledEvent<T>> {
        match self {
            AnyScheduler::Heap(s) => s.extract(pred),
            AnyScheduler::Calendar(s) => s.extract(pred),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique, ascending-by-call-order keys for tests that only care
    /// about time ordering.
    fn key(emit: u64) -> EventKey {
        EventKey::new(0, emit)
    }

    fn drain<S: Scheduler<u32>>(s: &mut S) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = s.pop() {
            out.push(ev);
        }
        out
    }

    fn both() -> [AnyScheduler<u32>; 2] {
        [
            AnyScheduler::for_mode(SchedulerMode::BinaryHeap),
            AnyScheduler::for_mode(SchedulerMode::Calendar),
        ]
    }

    #[test]
    fn pops_in_time_then_key_order() {
        for mut s in both() {
            s.schedule(500, key(0), 1);
            s.schedule(100, key(1), 2);
            s.schedule(500, key(2), 3); // same instant as item 1 → larger key after it
            s.schedule(0, key(3), 4);
            assert_eq!(drain(&mut s), vec![(0, 4), (100, 2), (500, 1), (500, 3)]);
        }
    }

    #[test]
    fn key_order_is_content_not_insertion_order() {
        // The same instant pops in (src, emit) order however the
        // entries arrived — the property sharded execution relies on.
        for mut s in both() {
            s.schedule(700, EventKey::new(2, 0), 20);
            s.schedule(700, EventKey::new(0, 5), 5);
            s.schedule(700, EventKey::external(0), 99); // sentinel src sorts last
            s.schedule(700, EventKey::new(0, 1), 1);
            s.schedule(700, EventKey::new(1, 3), 13);
            assert_eq!(drain(&mut s), vec![(700, 1), (700, 5), (700, 13), (700, 20), (700, 99)]);
        }
    }

    #[test]
    fn far_future_and_near_events_interleave_correctly() {
        for mut s in both() {
            // Far beyond the calendar ring window (~33 ms).
            s.schedule(10_000_000, key(0), 1);
            s.schedule(300, key(1), 2);
            s.schedule(9_999_999, key(2), 3);
            s.schedule(BUCKET_WIDTH_US * RING_SLOTS as u64 * 3, key(3), 4);
            let order = drain(&mut s);
            assert_eq!(
                order,
                vec![
                    (300, 2),
                    (BUCKET_WIDTH_US * RING_SLOTS as u64 * 3, 4),
                    (9_999_999, 3),
                    (10_000_000, 1)
                ]
            );
        }
    }

    #[test]
    fn mid_drain_insertion_lands_in_order() {
        for mut s in both() {
            s.schedule(100, key(0), 1);
            s.schedule(200, key(1), 2);
            assert_eq!(s.pop(), Some((100, 1)));
            // Insert at the *current* instant and between pending ones.
            s.schedule(100, key(2), 3);
            s.schedule(150, key(3), 4);
            assert_eq!(drain(&mut s), vec![(100, 3), (150, 4), (200, 2)]);
        }
    }

    #[test]
    fn recurring_fires_every_period_until_deadline() {
        for mut s in both() {
            s.schedule_recurring(1_000, key(0), Recurrence::new(1_000, 3_500), 7);
            assert_eq!(drain(&mut s), vec![(1_000, 7), (2_000, 7), (3_000, 7)]);
            assert_eq!(s.events_scheduled(), 3, "each firing is accounted");
        }
    }

    #[test]
    fn recurring_rearm_keeps_its_key() {
        // The re-armed firing carries its creation key, so it ties
        // against later same-instant entries purely by key comparison —
        // not by when the re-arm happened to be scheduled.
        for mut s in both() {
            s.schedule_recurring(100, key(1), Recurrence::new(100, 250), 1);
            assert_eq!(s.pop(), Some((100, 1)));
            s.schedule(200, key(0), 2); // smaller key → pops before the re-arm
            s.schedule(200, key(2), 3); // larger key → after it
            assert_eq!(drain(&mut s), vec![(200, 2), (200, 1), (200, 3)]);
        }
    }

    #[test]
    fn len_and_peak_track_depth() {
        for mut s in both() {
            assert!(s.is_empty());
            s.schedule(10, key(0), 1);
            s.schedule(20_000_000, key(1), 2); // overflow territory for the calendar
            s.schedule(30, key(2), 3);
            assert_eq!(s.len(), 3);
            assert_eq!(s.peak_len(), 3);
            let _ = s.pop();
            let _ = s.pop();
            assert_eq!(s.len(), 1);
            assert_eq!(s.peak_len(), 3, "peak is a high-water mark");
            assert_eq!(s.events_scheduled(), 3);
        }
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        for mut s in both() {
            assert_eq!(s.peek(), None);
            s.schedule(40, key(0), 9);
            s.schedule(5, key(1), 8);
            assert_eq!(s.peek(), Some((5, &8)));
            assert_eq!(s.len(), 2);
            assert_eq!(s.pop(), Some((5, 8)));
            assert_eq!(s.peek(), Some((40, &9)));
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_period_recurrence_rejected() {
        let _ = Recurrence::new(0, 100);
    }

    #[test]
    fn transfer_moves_entries_without_recounting() {
        // Every (source engine, destination engine) pairing.
        for src_mode in [SchedulerMode::BinaryHeap, SchedulerMode::Calendar] {
            for dst_mode in [SchedulerMode::BinaryHeap, SchedulerMode::Calendar] {
                let mut src: AnyScheduler<u32> = AnyScheduler::for_mode(src_mode);
                let mut dst: AnyScheduler<u32> = AnyScheduler::for_mode(dst_mode);
                src.schedule(100, key(0), 1);
                src.schedule_recurring(50, key(1), Recurrence::new(100, 160), 2);
                src.schedule(10_000_000, key(2), 3); // overflow territory
                dst.schedule(150, key(3), 4);
                let moved = src.extract(&mut |&item| item != 1);
                assert_eq!(moved.len(), 2);
                assert!(moved.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key()));
                assert_eq!(src.len(), 1);
                assert_eq!(src.events_scheduled(), 3, "extract never uncounts");
                for ev in moved {
                    dst.transfer(ev);
                }
                assert_eq!(dst.len(), 3);
                assert_eq!(dst.events_scheduled(), 1, "transfer adds depth, not schedule count");
                // The recurring entry still re-arms at its new home;
                // item 1 stayed behind in the source.
                assert_eq!(drain(&mut dst), vec![(50, 2), (150, 2), (150, 4), (10_000_000, 3)]);
                assert_eq!(drain(&mut src), vec![(100, 1)]);
                assert_eq!(dst.events_scheduled(), 2, "one local schedule + one re-arm");
            }
        }
    }

    #[test]
    fn extract_from_every_region_of_the_calendar() {
        let mut s: CalendarScheduler<u32> = CalendarScheduler::new();
        s.schedule(2, key(0), 10); // current epoch region
        let _ = s.peek(); // force a refill so `cur` is populated
        s.schedule(3, key(1), 11); // joins cur
        s.schedule(500, key(2), 12); // ring
        s.schedule(40_000_000, key(3), 13); // overflow
        s.schedule(41_000_000, key(4), 14); // overflow, kept
        let out = s.extract(&mut |&item| item != 12 && item != 14);
        assert_eq!(out.iter().map(|e| e.item).collect::<Vec<_>>(), vec![10, 11, 13]);
        assert_eq!(s.len(), 2);
        assert_eq!(drain(&mut s), vec![(500, 12), (41_000_000, 14)]);
    }

    /// A quick deterministic shuffle of mixed horizons: both engines
    /// must agree event for event (the heavyweight randomized version
    /// lives in `tests/sched_differential.rs`).
    #[test]
    fn engines_agree_on_a_mixed_stream() {
        fn drive(s: &mut AnyScheduler<u32>) -> Vec<(u64, u32)> {
            let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
            let mut now = 0;
            let mut log = Vec::new();
            for i in 0..500u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delay = match x % 5 {
                    0 => 0,                      // same-instant tie
                    1 => x % 700,                // radio horizon
                    2 => 5_000 + x % 2_000,      // computation timer
                    3 => 2_000_000 + x % 50_000, // beyond the ring window
                    _ => x % 50,
                };
                s.schedule(now + delay, EventKey::new((x % 7) as u32, i as u64), i);
                if x.is_multiple_of(3) {
                    if let Some((at, item)) = s.pop() {
                        now = at;
                        log.push((at, item));
                    }
                }
            }
            while let Some(ev) = s.pop() {
                log.push(ev);
            }
            log
        }
        let mut heap = AnyScheduler::for_mode(SchedulerMode::BinaryHeap);
        let mut cal = AnyScheduler::for_mode(SchedulerMode::Calendar);
        assert_eq!(drive(&mut heap), drive(&mut cal));
        assert_eq!(heap.events_scheduled(), cal.events_scheduled());
        assert_eq!(heap.peak_len(), cal.peak_len());
    }

    #[test]
    fn seconds_scale_stream_matches_the_heap_oracle() {
        // Server-paced stream: events ~1 s apart, far beyond the ring's
        // ~33 ms window, so every entry waits in the calendar's overflow
        // heap and migrates into the ring only when it comes due. The
        // pop stream must equal the heap oracle's.
        let mut cal: CalendarScheduler<u32> = CalendarScheduler::new();
        let mut heap: HeapScheduler<u32> = HeapScheduler::new();
        let mut x = 0x9E37_79B9u64;
        let mut at = 0u64;
        for i in 0..3_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            at += 800_000 + x % 400_000; // ~1 s mean spacing
            cal.schedule(at, key(u64::from(i)), i);
            heap.schedule(at, key(u64::from(i)), i);
            if i % 2 == 0 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        while let Some(ev) = cal.pop() {
            assert_eq!(Some(ev), heap.pop());
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(cal.events_scheduled(), heap.events_scheduled());
        assert_eq!(cal.peak_len(), heap.peak_len());
    }
}
