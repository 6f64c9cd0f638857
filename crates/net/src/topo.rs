//! Shared radio-topology geometry: node positions, the optional
//! spatial index, and the neighbor-query primitives both engines —
//! the single-threaded [`crate::sim::Simulator`] and the per-shard
//! cores of [`crate::shard::ShardedSimulator`] — answer broadcasts
//! and routing from.
//!
//! Factoring the geometry out is what makes the sharded engine's
//! bit-identity cheap to maintain: the coordinator owns **one** global
//! `Topology` (positions change only at quiesce points, so sharing it
//! read-only with the worker cores is exact), and every neighbor query
//! runs the very same code against the very same data as the oracle
//! engine. Queries therefore take `&self` plus an external
//! [`TopoScratch`], so each reader — oracle, shard core, BFS on the
//! coordinator — brings its own reusable buffers.

use crate::sim::{Metrics, SimConfig, SpatialMode};
use crate::spatial::{SpatialIndex, SpatialScratch};

/// Euclidean distance between two positions.
pub(crate) fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Per-reader reusable buffers for [`Topology`] queries. Each engine
/// (and each shard core) owns one, so a shared read-only `Topology`
/// serves many readers allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct TopoScratch {
    /// Candidate ids of the in-flight range query.
    cand: Vec<u32>,
    /// Index-side buffers (cell cover, k-NN ranking).
    spatial: SpatialScratch,
}

/// The geometry every engine queries: one position per node (indexed
/// by raw node id) and the hex index when [`SpatialMode::HexIndex`] is
/// selected.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    radio_range: f64,
    positions: Vec<(f64, f64)>,
    /// `Some` under [`SpatialMode::HexIndex`], kept in lockstep with
    /// `positions` by [`Topology::push`] / [`Topology::set_position`].
    index: Option<SpatialIndex>,
}

impl Topology {
    pub(crate) fn new(config: &SimConfig) -> Self {
        let index = match config.spatial {
            SpatialMode::HexIndex => {
                Some(SpatialIndex::new(config.cell_d.unwrap_or(config.radio_range)))
            }
            SpatialMode::NaiveScan => None,
        };
        Topology { radio_range: config.radio_range, positions: Vec::new(), index }
    }

    pub(crate) fn push(&mut self, position: (f64, f64)) {
        self.positions.push(position);
        if let Some(index) = &mut self.index {
            index.push(position);
        }
    }

    pub(crate) fn position(&self, i: usize) -> (f64, f64) {
        self.positions[i]
    }

    pub(crate) fn set_position(&mut self, i: usize, position: (f64, f64)) {
        self.positions[i] = position;
        if let Some(index) = &mut self.index {
            index.update(i as u32, position);
        }
    }

    /// Releases excess index capacity left by churn (see
    /// [`SpatialIndex::compact`]). No observable effect on queries.
    pub(crate) fn compact(&mut self) {
        if let Some(index) = &mut self.index {
            index.compact();
        }
    }

    /// Estimated resident heap bytes: the position table plus the
    /// spatial index. Deterministic (length/capacity based), so safe
    /// for telemetry gauges.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let positions = self.positions.capacity() * std::mem::size_of::<(f64, f64)>();
        positions as u64 + self.index.as_ref().map_or(0, |i| i.resident_bytes())
    }

    /// One neighbor range query around node `cur`: invokes `f(i, pos_i)`
    /// for every node that *may* be within radio range, in ascending id
    /// order. Under [`SpatialMode::HexIndex`] only nodes in nearby cells
    /// are offered; under [`SpatialMode::NaiveScan`] every node is. The
    /// caller applies the exact `distance <= range` filter — candidates
    /// surviving it are therefore identical (same ids, same order) in
    /// both modes, which is the bit-identity the differential oracle
    /// proves.
    pub(crate) fn for_each_candidate(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
        cur: usize,
        mut f: impl FnMut(usize, (f64, f64)),
    ) {
        metrics.neighbor_queries += 1;
        match &self.index {
            Some(index) => {
                let center = self.positions[cur];
                let range = self.radio_range;
                let mut cand = std::mem::take(&mut scratch.cand);
                metrics.cells_scanned +=
                    index.candidates_into(&mut scratch.spatial, center, range, &mut cand);
                for &i in &cand {
                    f(i as usize, self.positions[i as usize]);
                }
                scratch.cand = cand;
            }
            None => {
                for (i, &pos) in self.positions.iter().enumerate() {
                    f(i, pos);
                }
            }
        }
    }

    /// Every other node within radio range of `from`, with its distance,
    /// in ascending id order — the broadcast target set.
    pub(crate) fn broadcast_targets(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
        from: usize,
        out: &mut Vec<(u32, f64)>,
    ) {
        out.clear();
        let src = self.positions[from];
        let range = self.radio_range;
        self.for_each_candidate(scratch, metrics, from, |i, pos| {
            if i != from {
                let d = distance(src, pos);
                if d <= range {
                    out.push((i as u32, d));
                }
            }
        });
    }

    /// The `k` nearest other nodes within radio range of `from` (ties at
    /// equal distance break toward the smaller id), returned in ascending
    /// *id* order — the fan-out-capped broadcast target set. Under
    /// [`SpatialMode::HexIndex`] the set comes from
    /// [`SpatialIndex::k_nearest_into`]; under [`SpatialMode::NaiveScan`]
    /// from a full scan ranked the same way — both select identical
    /// targets, which the spatial differential suite pins.
    pub(crate) fn k_nearest(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
        from: usize,
        k: usize,
        out: &mut Vec<u32>,
    ) {
        metrics.neighbor_queries += 1;
        let src = self.positions[from];
        let range = self.radio_range;
        match &self.index {
            Some(index) => {
                // k + 1 slots so the querying node (distance 0) never
                // crowds out a real neighbor.
                let positions = &self.positions;
                metrics.cells_scanned += index.k_nearest_into(
                    &mut scratch.spatial,
                    src,
                    k + 1,
                    range,
                    |i| positions[i as usize],
                    out,
                );
                out.retain(|&i| i != from as u32);
                out.truncate(k);
            }
            None => {
                let mut ranked: Vec<(f64, u32)> = self
                    .positions
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != from)
                    .map(|(i, &pos)| (distance(src, pos), i as u32))
                    .filter(|&(d, _)| d <= range)
                    .collect();
                ranked.sort_unstable_by(|a, b| {
                    a.partial_cmp(b).expect("distances are finite, never NaN")
                });
                ranked.truncate(k);
                out.clear();
                out.extend(ranked.into_iter().map(|(_, i)| i));
            }
        }
        // Deliver in ascending id order, like a full broadcast.
        out.sort_unstable();
    }

    /// BFS shortest path over the current connectivity graph (nodes
    /// within radio range are neighbors) — the route unicasts follow.
    /// Neighbor discovery goes through the spatial index, so a lookup
    /// visits each reachable node once and scans only its nearby cells,
    /// instead of probing all O(n²) node pairs.
    pub(crate) fn shortest_path(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
        from: usize,
        to: usize,
    ) -> Option<Vec<u32>> {
        let n = self.positions.len();
        let range = self.radio_range;
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut path = vec![to as u32];
                let mut node = to;
                while let Some(p) = prev[node] {
                    path.push(p as u32);
                    node = p;
                }
                path.reverse();
                return Some(path);
            }
            let cur_pos = self.positions[cur];
            self.for_each_candidate(scratch, metrics, cur, |i, pos| {
                if !visited[i] && distance(cur_pos, pos) <= range {
                    visited[i] = true;
                    prev[i] = Some(cur);
                    queue.push_back(i);
                }
            });
        }
        None
    }

    /// Connected components of the current connectivity graph (diagnostic
    /// for partitioned topologies), via the same indexed BFS as
    /// [`Topology::shortest_path`].
    pub(crate) fn connected_components(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
    ) -> Vec<Vec<u32>> {
        let n = self.positions.len();
        let range = self.radio_range;
        let mut visited = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = std::collections::VecDeque::new();
            visited[start] = true;
            queue.push_back(start);
            while let Some(cur) = queue.pop_front() {
                comp.push(cur as u32);
                let cur_pos = self.positions[cur];
                self.for_each_candidate(scratch, metrics, cur, |i, pos| {
                    if !visited[i] && distance(cur_pos, pos) <= range {
                        visited[i] = true;
                        queue.push_back(i);
                    }
                });
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }
}
