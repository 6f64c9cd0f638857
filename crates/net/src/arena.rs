//! Arena-style node-state storage for shard cores.
//!
//! A shard owns a churning subset of the swarm: nodes hand off in and
//! out every mobility tick. Storing their [`NodeState`]s directly in a
//! `HashMap<u32, NodeState<A>>` scatters the states across the heap
//! and rebuilds allocation on every handoff. [`NodeArena`] instead
//! keeps the states in one slot vector with a free list — an insert
//! reuses the slot the last departure vacated — so a core's resident
//! footprint is bounded by its *peak concurrent population*, stays
//! compact in memory, and is measurable: [`NodeArena::resident_bytes`]
//! is a deterministic length computation, safe to publish through
//! telemetry gauges.
//!
//! Determinism: slot assignment depends only on the sequence of
//! inserts and removes (the free list is a stack), and nothing ever
//! iterates the id → slot map, so the arena introduces no
//! iteration-order hazard.

use std::collections::HashMap;

/// Slot-vector storage keyed by node id. `V` is the per-node state
/// record (the engines use [`NodeState`](crate::sim::NodeState)).
pub(crate) struct NodeArena<V> {
    /// The slots; `None` marks a vacancy on the free list.
    slots: Vec<Option<V>>,
    /// Vacated slot indices, reused LIFO.
    free: Vec<u32>,
    /// Node id → occupied slot.
    index: HashMap<u32, u32>,
}

impl<V> Default for NodeArena<V> {
    fn default() -> Self {
        NodeArena { slots: Vec::new(), free: Vec::new(), index: HashMap::new() }
    }
}

impl<V> NodeArena<V> {
    /// Number of resident nodes.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Inserts node `id`'s state, reusing a vacated slot when one
    /// exists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already resident.
    pub(crate) fn insert(&mut self, id: u32, state: V) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(state);
                slot
            }
            None => {
                self.slots.push(Some(state));
                (self.slots.len() - 1) as u32
            }
        };
        let prev = self.index.insert(id, slot);
        assert!(prev.is_none(), "node {id} already resident");
    }

    /// Removes and returns node `id`'s state (the handoff departure).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not resident.
    pub(crate) fn remove(&mut self, id: u32) -> V {
        let slot = self.index.remove(&id).expect("node must be resident to leave");
        self.free.push(slot);
        self.slots[slot as usize].take().expect("occupied slot")
    }

    /// Borrows node `id`'s state, if resident.
    pub(crate) fn get(&self, id: u32) -> Option<&V> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Mutably borrows node `id`'s state, if resident.
    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Estimated resident bytes: every slot ever filled (vacated ones
    /// included, since they stay in the slot vector for reuse), the
    /// free list, and the id map's entries. Unused `Vec` capacity is
    /// not counted, so the figure tracks the peak concurrent population
    /// rather than growth steps. Deterministic (length based) — this is
    /// the per-node footprint term `fig10_shards` reports as
    /// `bytes_per_node`.
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Option<V>>()
            + self.free.len() * std::mem::size_of::<u32>()
            + self.index.len() * std::mem::size_of::<(u32, u32)>()) as u64
    }
}

impl<V> std::fmt::Debug for NodeArena<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeArena")
            .field("resident", &self.index.len())
            .field("slots", &self.slots.len())
            .field("free", &self.free.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = NodeArena::default();
        arena.insert(7, "seven");
        arena.insert(3, "three");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(7), Some(&"seven"));
        assert_eq!(arena.get(4), None);
        *arena.get_mut(3).unwrap() = "THREE";
        assert_eq!(arena.remove(3), "THREE");
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(3), None);
    }

    #[test]
    fn slots_are_reused_so_footprint_tracks_peak_population() {
        let mut arena = NodeArena::default();
        for id in 0..100u32 {
            arena.insert(id, id as u64);
        }
        let peak = arena.resident_bytes();
        // Churn 1000 handoffs through the same arena: no growth.
        for round in 0..10u32 {
            for id in 0..100u32 {
                arena.remove(id);
                arena.insert(id + (round + 1) * 1000, u64::from(id));
            }
            for id in 0..100u32 {
                let new = id + (round + 1) * 1000;
                arena.remove(new);
                arena.insert(id, u64::from(id));
            }
        }
        assert_eq!(arena.len(), 100);
        assert!(arena.slots.len() <= 101, "slots grew past peak population");
        assert!(arena.resident_bytes() <= peak.max(4096));
    }

    #[test]
    fn resident_bytes_count_used_slots_not_capacity() {
        let mut arena = NodeArena::default();
        for id in 0..5u32 {
            arena.insert(id, [0u8; 100]);
        }
        let slot = std::mem::size_of::<Option<[u8; 100]>>();
        let entry = std::mem::size_of::<(u32, u32)>();
        assert_eq!(arena.resident_bytes(), (5 * slot + 5 * entry) as u64);
        // A departure keeps its slot for reuse and adds a free-list entry.
        arena.remove(2);
        let free = std::mem::size_of::<u32>();
        assert_eq!(arena.resident_bytes(), (5 * slot + free + 4 * entry) as u64);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut arena = NodeArena::default();
        arena.insert(1, ());
        arena.insert(1, ());
    }
}
