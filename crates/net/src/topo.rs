//! Shared radio-topology geometry: node positions, the square-grid
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

use crate::sim::Metrics;
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
    /// Candidate ids of the in-flight range or k-nearest query.
    cand: Vec<u32>,
    /// Index-side buffers (k-NN ranking).
    spatial: SpatialScratch,
}

/// The geometry every engine queries: one position per node (indexed
/// by raw node id) and the grid index over them, with square cells one
/// radio range across (the cell-size sweet spot, see
/// [`crate::spatial`]).
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    radio_range: f64,
    positions: Vec<(f64, f64)>,
    /// Kept in lockstep with `positions` by [`Topology::push`] /
    /// [`Topology::set_position`].
    index: SpatialIndex,
}

impl Topology {
    pub(crate) fn new(radio_range: f64) -> Self {
        Topology { radio_range, positions: Vec::new(), index: SpatialIndex::new(radio_range) }
    }

    /// The index's grid cell holding `pos` — also the tile the sharded
    /// engine partitions the plane by.
    pub(crate) fn cell_of(&self, pos: (f64, f64)) -> (i64, i64) {
        self.index.cell_of(pos)
    }

    pub(crate) fn push(&mut self, position: (f64, f64)) {
        self.positions.push(position);
        self.index.push(position);
    }

    pub(crate) fn position(&self, i: usize) -> (f64, f64) {
        self.positions[i]
    }

    pub(crate) fn set_position(&mut self, i: usize, position: (f64, f64)) {
        self.positions[i] = position;
        self.index.update(i as u32, position);
    }

    /// Releases excess index capacity left by churn (see
    /// [`SpatialIndex::compact`]). No observable effect on queries.
    pub(crate) fn compact(&mut self) {
        self.index.compact();
    }

    /// Estimated resident heap bytes: the position table plus the
    /// spatial index. Deterministic (length/capacity based), so safe
    /// for telemetry gauges.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let positions = self.positions.capacity() * std::mem::size_of::<(f64, f64)>();
        positions as u64 + self.index.resident_bytes()
    }

    /// One neighbor range query around node `cur`: invokes `f(i, pos_i)`
    /// for every node in the grid cells that *may* hold a node within
    /// radio range, in ascending id order. The caller applies the exact
    /// `distance <= range` filter, so the survivors are exactly the
    /// nodes an all-node scan would keep, in the same order (the test
    /// module holds the queries to that scan).
    pub(crate) fn for_each_candidate(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
        cur: usize,
        mut f: impl FnMut(usize, (f64, f64)),
    ) {
        metrics.neighbor_queries += 1;
        let mut cand = std::mem::take(&mut scratch.cand);
        metrics.cells_scanned +=
            self.index.candidates_into(self.positions[cur], self.radio_range, &mut cand);
        for &i in &cand {
            f(i as usize, self.positions[i as usize]);
        }
        scratch.cand = cand;
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
    /// equal distance break toward the smaller id), with their
    /// distances, in ascending *id* order — the fan-out-capped broadcast
    /// target set, selected by [`SpatialIndex::k_nearest_into`].
    pub(crate) fn k_nearest(
        &self,
        scratch: &mut TopoScratch,
        metrics: &mut Metrics,
        from: usize,
        k: usize,
        out: &mut Vec<(u32, f64)>,
    ) {
        metrics.neighbor_queries += 1;
        let src = self.positions[from];
        let positions = &self.positions;
        let mut ids = std::mem::take(&mut scratch.cand);
        // k + 1 slots so the querying node (distance 0) never crowds out
        // a real neighbor.
        metrics.cells_scanned += self.index.k_nearest_into(
            &mut scratch.spatial,
            src,
            k + 1,
            self.radio_range,
            |i| positions[i as usize],
            &mut ids,
        );
        ids.retain(|&i| i != from as u32);
        ids.truncate(k);
        // Deliver in ascending id order, like a full broadcast.
        ids.sort_unstable();
        out.clear();
        out.extend(ids.iter().map(|&i| (i, distance(src, positions[i as usize]))));
        scratch.cand = ids;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// `n` nodes on a 1/8 m grid over `clusters` islands seven radio
    /// ranges apart (so some pairs are disconnected). Of every five
    /// nodes, two sit exactly one radio range from an earlier node
    /// along an axis (an exact distance on this grid) and one shares an
    /// earlier node's position.
    fn layout(seed: u64, n: usize, clusters: usize, range: f64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = (3.0 * range * 8.0) as i64;
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(n);
        for i in 0..n {
            let p = match (i % 5, out.len()) {
                (0 | 1, _) | (_, 0) => {
                    let island = rng.gen_range(0..clusters) as f64 * 10.0 * range;
                    let x = rng.gen_range(0..span) as f64 / 8.0;
                    let y = rng.gen_range(0..span) as f64 / 8.0;
                    (island + x, y)
                }
                (2 | 3, len) => {
                    let (x, y) = out[rng.gen_range(0..len)];
                    match rng.gen_range(0..4) {
                        0 => (x + range, y),
                        1 => (x - range, y),
                        2 => (x, y + range),
                        _ => (x, y - range),
                    }
                }
                (_, len) => out[rng.gen_range(0..len)],
            };
            out.push(p);
        }
        out
    }

    /// The all-node scan: every other node within `range` of `from`,
    /// with its distance, in ascending id order.
    fn scan(positions: &[(f64, f64)], from: usize, range: f64) -> Vec<(u32, f64)> {
        let src = positions[from];
        (0..positions.len())
            .filter(|&i| i != from)
            .map(|i| (i as u32, distance(src, positions[i])))
            .filter(|&(_, d)| d <= range)
            .collect()
    }

    /// The `k` nearest in the scan by `(distance, id)`, with their
    /// distances, in id order.
    fn scan_k_nearest(
        positions: &[(f64, f64)],
        from: usize,
        k: usize,
        range: f64,
    ) -> Vec<(u32, f64)> {
        let mut ranked = scan(positions, from, range);
        ranked.sort_unstable_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).expect("finite"));
        ranked.truncate(k);
        ranked.sort_unstable_by_key(|&(i, _)| i);
        ranked
    }

    /// BFS over the scan, with one neighbor query per expanded node as
    /// [`Topology::shortest_path`] counts them.
    fn scan_shortest_path(
        positions: &[(f64, f64)],
        from: usize,
        to: usize,
        range: f64,
    ) -> (Option<Vec<u32>>, u64) {
        let mut prev = vec![None; positions.len()];
        let mut visited = vec![false; positions.len()];
        let mut queue = VecDeque::from([from]);
        visited[from] = true;
        let mut queries = 0;
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut path = vec![to as u32];
                while let Some(p) = prev[path[path.len() - 1] as usize] {
                    path.push(p);
                }
                path.reverse();
                return (Some(path), queries);
            }
            queries += 1;
            for (i, _) in scan(positions, cur, range) {
                if !visited[i as usize] {
                    visited[i as usize] = true;
                    prev[i as usize] = Some(cur as u32);
                    queue.push_back(i as usize);
                }
            }
        }
        (None, queries)
    }

    /// Connected components over the scan, each sorted, in order of
    /// their smallest id.
    fn scan_components(positions: &[(f64, f64)], range: f64) -> Vec<Vec<u32>> {
        let mut seen = vec![false; positions.len()];
        let mut components = Vec::new();
        for start in 0..positions.len() {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let mut comp = vec![start as u32];
            let mut next = 0;
            while next < comp.len() {
                for (i, _) in scan(positions, comp[next] as usize, range) {
                    if !seen[i as usize] {
                        seen[i as usize] = true;
                        comp.push(i);
                    }
                }
                next += 1;
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    proptest! {
        /// Broadcast targets, k-nearest sets, BFS routes (with their
        /// query counts) and components from the grid index equal what
        /// an all-node scan gives, on layouts with nodes exactly at
        /// radio range, co-located nodes and disconnected islands,
        /// before and after a third of the nodes move.
        #[test]
        fn indexed_queries_equal_an_all_node_scan(
            seed in any::<u64>(),
            n in 1usize..60,
            clusters in 1usize..4,
            range_idx in 0usize..4,
            k in 0usize..10,
        ) {
            let range = [7.5f64, 20.0, 50.0, 64.25][range_idx];
            let mut positions = layout(seed, n, clusters, range);
            let moved = layout(!seed, n, clusters, range);
            let mut topo = Topology::new(range);
            for &p in &positions {
                topo.push(p);
            }
            let mut scratch = TopoScratch::default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x70);
            let (mut targets, mut nearest) = (Vec::new(), Vec::new());
            for round in 0..2 {
                for from in 0..n {
                    let mut m = Metrics::default();
                    topo.broadcast_targets(&mut scratch, &mut m, from, &mut targets);
                    prop_assert_eq!(&targets, &scan(&positions, from, range), "round {} from {}", round, from);
                    topo.k_nearest(&mut scratch, &mut m, from, k, &mut nearest);
                    prop_assert_eq!(&nearest, &scan_k_nearest(&positions, from, k, range), "round {} from {}", round, from);
                    prop_assert_eq!(m.neighbor_queries, 2);
                    let to = rng.gen_range(0..n);
                    let mut m = Metrics::default();
                    let path = topo.shortest_path(&mut scratch, &mut m, from, to);
                    let (want, queries) = scan_shortest_path(&positions, from, to, range);
                    prop_assert_eq!(path, want, "round {} route {} -> {}", round, from, to);
                    prop_assert_eq!(m.neighbor_queries, queries, "round {} route {} -> {}", round, from, to);
                }
                let mut m = Metrics::default();
                prop_assert_eq!(
                    topo.connected_components(&mut scratch, &mut m),
                    scan_components(&positions, range)
                );
                for i in (0..n).step_by(3) {
                    topo.set_position(i, moved[i]);
                    positions[i] = moved[i];
                }
            }
        }
    }
}
