//! Square-grid spatial index over node positions.
//!
//! The simulator's hot queries — "which nodes are within radio range of
//! this position?" for every broadcast and every BFS visit — were linear
//! scans over all nodes, capping experiments at a few hundred nodes.
//! [`SpatialIndex`] buckets nodes by the square grid cell their position
//! falls in, `(⌊x/s⌋, ⌊y/s⌋)` for cell side `s`, and answers a range
//! query by reading only the cells of the box `center ± range`, making
//! query cost proportional to local density instead of swarm size.
//!
//! # Cell-size heuristic
//!
//! With cell side `s` and radio range `R`, a query reads the cells of
//! the box `center ± R`, `(⌈2R/s⌉ + 1)²` of them at most, and then
//! distance-filters the candidates those cells hold.
//!
//! * `s ≪ R`: many near-empty cells per query; hash-map traffic
//!   dominates.
//! * `s ≫ R`: few cells, but each holds far-away nodes that all fail the
//!   distance filter — the scan degenerates back toward O(n).
//! * `s = R` balances the two: a radio-range query reads 3×3 = 9 cells
//!   covering 9R², so the candidate set is about 9/π ≈ 2.9× the true
//!   in-range population, independent of swarm size. (A cover of the
//!   paper's hexagonal lattice cells at the same scale reads 19 cells,
//!   about 4.6×, and costs a snap plus a lattice-point scan to build.)
//!   This is the one scale the simulator uses: its topology builds the
//!   index with cells one radio range across.
//!
//! Queries return candidate ids in ascending order and leave the exact
//! distance filter to the caller, so the simulator sees exactly the
//! nodes an all-node scan would keep: same candidates surviving the
//! same `distance(a, b) <= range` comparison, visited in the same
//! order, drawing the same RNG stream. The box is widened by a margin
//! that covers the float error of that comparison (see
//! [`SpatialIndex::candidates_into`]), so a node the filter keeps never
//! sits in a cell outside it. `tests/spatial_differential.rs` holds the
//! index queries to that scan over random scales and boundary
//! placements, grid cell edges included, and the topology's tests hold
//! the simulator's broadcast, k-nearest and routing queries to it.
//!
//! # Shared read-only queries
//!
//! Queries take `&self` (k-NN queries also an external
//! [`SpatialScratch`]), so one index can be borrowed immutably by many
//! readers (the sharded engine's worker cores all answer BFS routing
//! from the coordinator's single global index) while each reader reuses
//! its own buffers allocation-free.

use std::collections::HashMap;

/// A grid cell, `(⌊x/side⌋, ⌊y/side⌋)`.
type Cell = (i64, i64);

/// Reusable query-side buffers for [`SpatialIndex::k_nearest_into`].
/// Owning the scratch *outside* the index is what lets queries take
/// `&self`: the index itself never mutates during a query, so any
/// number of readers can share one index, each with its own scratch.
#[derive(Debug, Clone, Default)]
pub struct SpatialScratch {
    /// Candidate ids of the current k-NN radius.
    knn_ids: Vec<u32>,
    /// Ranked `(distance, id)` pairs for k-NN selection.
    knn_ranked: Vec<(f64, u32)>,
}

/// A bucket index mapping square grid cells to the nodes inside them.
///
/// Node ids are dense `u32` indices assigned append-only (matching
/// [`Simulator::add_node`](crate::sim::Simulator::add_node) order);
/// positions move with [`SpatialIndex::update`].
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    side: f64,
    /// Cell → node ids inside it, each vec kept sorted ascending.
    cells: HashMap<Cell, Vec<u32>>,
    /// Per node, the cell it currently occupies.
    node_cell: Vec<Cell>,
}

impl SpatialIndex {
    /// Creates an empty index with square cells `side` across (see the
    /// module docs for how to choose it; the simulator uses the radio
    /// range).
    ///
    /// # Panics
    ///
    /// Panics if `side` is not strictly positive and finite.
    pub fn new(side: f64) -> Self {
        assert!(side.is_finite() && side > 0.0, "cell side must be positive");
        SpatialIndex { side, cells: HashMap::new(), node_cell: Vec::new() }
    }

    /// The cell holding `pos`: `(⌊x/side⌋, ⌊y/side⌋)`.
    pub fn cell_of(&self, pos: (f64, f64)) -> (i64, i64) {
        ((pos.0 / self.side).floor() as i64, (pos.1 / self.side).floor() as i64)
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.node_cell.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.node_cell.is_empty()
    }

    /// Number of non-empty cells (diagnostic).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Estimated resident heap bytes of the index: bucket storage
    /// (capacity, not just length), the per-node cell table, and the
    /// cell map's entry overhead. Computed from lengths and `Vec`
    /// capacities only — both are deterministic functions of the
    /// operation history, so the estimate is safe to expose through
    /// deterministic telemetry.
    pub fn resident_bytes(&self) -> u64 {
        let bucket_bytes: usize =
            self.cells.values().map(|b| b.capacity() * std::mem::size_of::<u32>()).sum::<usize>();
        let entry = std::mem::size_of::<(Cell, Vec<u32>)>();
        (bucket_bytes
            + self.cells.len() * entry
            + self.node_cell.capacity() * std::mem::size_of::<Cell>()) as u64
    }

    /// Appends the next node (id `self.len()`) at `pos`.
    pub fn push(&mut self, pos: (f64, f64)) -> u32 {
        let id = self.node_cell.len() as u32;
        let cell = self.cell_of(pos);
        self.node_cell.push(cell);
        // Ids are appended in increasing order, so pushing keeps the
        // bucket sorted.
        self.cells.entry(cell).or_default().push(id);
        id
    }

    /// Moves node `id` to `pos`, rebucketing it if it crossed a cell
    /// boundary. O(bucket size) worst case, O(1) amortized for the
    /// common within-cell mobility tick. Emptied cells leave the map
    /// (their bucket's capacity is released with it); buckets that only
    /// *shrank* keep capacity until [`SpatialIndex::compact`].
    pub fn update(&mut self, id: u32, pos: (f64, f64)) {
        let new_cell = self.cell_of(pos);
        let old_cell = self.node_cell[id as usize];
        if new_cell == old_cell {
            return;
        }
        let bucket = self.cells.get_mut(&old_cell).expect("node's cell must exist");
        let at = bucket.binary_search(&id).expect("node must be in its cell's bucket");
        bucket.remove(at);
        if bucket.is_empty() {
            self.cells.remove(&old_cell);
        }
        self.node_cell[id as usize] = new_cell;
        let bucket = self.cells.entry(new_cell).or_default();
        let at = bucket.binary_search(&id).unwrap_err();
        bucket.insert(at, id);
    }

    /// Releases excess bucket capacity left behind by bulk removals and
    /// churn handoffs: any bucket whose capacity has drifted to at
    /// least twice its population is shrunk to fit, and the cell map's
    /// own table is shrunk when mostly empty. Long churn runs call this
    /// at quiesce points so a transient crowd through one cell doesn't
    /// pin its peak allocation for the rest of the run. Purely an
    /// allocation matter: contents, query answers, and metrics are
    /// untouched.
    pub fn compact(&mut self) {
        for bucket in self.cells.values_mut() {
            if bucket.capacity() >= 2 * bucket.len().max(4) {
                bucket.shrink_to_fit();
            }
        }
        if self.cells.capacity() >= 2 * self.cells.len().max(16) {
            self.cells.shrink_to_fit();
        }
    }

    /// Fills `out` with every node id whose position *may* be within
    /// `range` of `center` — a superset of the true answer, sorted
    /// ascending, never containing duplicates (each node lives in exactly
    /// one cell). Returns the number of cells in the box it read.
    ///
    /// The caller applies the exact distance filter; see the module docs
    /// for why the filter stays out of the index.
    pub fn candidates_into(&self, center: (f64, f64), range: f64, out: &mut Vec<u32>) -> u64 {
        out.clear();
        // The margin. With u = 2⁻⁵³, a float `distance <= range` (one
        // rounding each in the subtraction, the square, the sum and the
        // root) bounds a node's exact offset along either axis by
        // range / (1 − u)³ < range·(1 + 4u), and forming `center ± r`
        // rounds once more, by at most u·(|center| + r). Widening by
        // 1e-12 of range and of the center's magnitude covers both many
        // times over, so a node the filter keeps is never outside the
        // box. The widening stays under a micrometre for coordinates up
        // to 1e6 m, so a radio-range box spans more than 3×3 cells only
        // for centers that close to a cell edge.
        let r = range + (range + center.0.abs().max(center.1.abs())) * 1e-12;
        let lo = self.cell_of((center.0 - r, center.1 - r));
        let hi = self.cell_of((center.0 + r, center.1 + r));
        for x in lo.0..=hi.0 {
            for y in lo.1..=hi.1 {
                if let Some(bucket) = self.cells.get(&(x, y)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
        // Buckets are internally sorted but arrive in cell order; restore
        // the global ascending id order an all-node scan iterates in.
        out.sort_unstable();
        ((hi.0 - lo.0 + 1) * (hi.1 - lo.1 + 1)) as u64
    }

    /// Fills `out` with the `k` nodes nearest to `center` among those
    /// within `max_range` of it (fewer if fewer exist), ordered by
    /// ascending `(distance, id)` — ties at equal distance break toward
    /// the smaller id, which is what keeps the answer identical to a
    /// sorted all-node scan. `pos_of` supplies each candidate's exact
    /// position (the index stores cells, not coordinates). Returns the
    /// number of cells read.
    ///
    /// The search grows its radius geometrically from one cell side
    /// until `k` in-radius nodes are found or `max_range` is reached, so
    /// a query in a dense crowd touches only nearby cells — this is the
    /// fan-out-capped re-flood query
    /// ([`NodeCtx::broadcast_k_nearest`](crate::sim::NodeCtx::broadcast_k_nearest))
    /// and the building block for directional-radio neighborhoods.
    ///
    /// # Panics
    ///
    /// Panics unless `max_range` is finite and non-negative.
    pub fn k_nearest_into(
        &self,
        scratch: &mut SpatialScratch,
        center: (f64, f64),
        k: usize,
        max_range: f64,
        pos_of: impl Fn(u32) -> (f64, f64),
        out: &mut Vec<u32>,
    ) -> u64 {
        assert!(max_range >= 0.0 && max_range.is_finite(), "max_range must be finite");
        out.clear();
        if k == 0 {
            return 0;
        }
        let SpatialScratch { knn_ids: ids, knn_ranked: ranked } = scratch;
        let mut scanned = 0u64;
        let mut r = self.side.min(max_range);
        loop {
            scanned += self.candidates_into(center, r, ids);
            ranked.clear();
            for &i in ids.iter() {
                let p = pos_of(i);
                let d = ((p.0 - center.0).powi(2) + (p.1 - center.1).powi(2)).sqrt();
                if d <= r {
                    ranked.push((d, i));
                }
            }
            // At least k nodes lie within radius r, so the k nearest
            // overall (within max_range) are all among `ranked`.
            if ranked.len() >= k || r >= max_range {
                ranked.sort_unstable_by(|a, b| {
                    a.partial_cmp(b).expect("distances are finite, never NaN")
                });
                ranked.truncate(k);
                out.extend(ranked.iter().map(|&(_, i)| i));
                return scanned;
            }
            r = (r * 2.0).min(max_range);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(positions: &[(f64, f64)], center: (f64, f64), range: f64) -> Vec<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| ((p.0 - center.0).powi(2) + (p.1 - center.1).powi(2)).sqrt() <= range)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn filtered(
        idx: &SpatialIndex,
        positions: &[(f64, f64)],
        center: (f64, f64),
        range: f64,
    ) -> Vec<u32> {
        let mut cand = Vec::new();
        idx.candidates_into(center, range, &mut cand);
        cand.retain(|&i| {
            let p = positions[i as usize];
            ((p.0 - center.0).powi(2) + (p.1 - center.1).powi(2)).sqrt() <= range
        });
        cand
    }

    #[test]
    fn candidates_sorted_and_deduplicated() {
        let mut idx = SpatialIndex::new(10.0);
        let positions: Vec<(f64, f64)> =
            (0..50).map(|i| ((i % 7) as f64 * 9.0, (i / 7) as f64 * 9.0)).collect();
        for &p in &positions {
            idx.push(p);
        }
        let mut cand = Vec::new();
        idx.candidates_into((30.0, 30.0), 25.0, &mut cand);
        assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates: {cand:?}");
    }

    #[test]
    fn matches_naive_scan_after_filter() {
        let mut idx = SpatialIndex::new(15.0);
        let positions: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let x = (i as f64 * 13.37) % 190.0;
                let y = (i as f64 * 7.77) % 170.0;
                (x, y)
            })
            .collect();
        for &p in &positions {
            idx.push(p);
        }
        for &(center, range) in
            &[((50.0, 50.0), 40.0), ((0.0, 0.0), 15.0), ((190.0, 170.0), 60.0), ((95.0, 85.0), 0.0)]
        {
            assert_eq!(
                filtered(&idx, &positions, center, range),
                naive(&positions, center, range),
                "center {center:?} range {range}"
            );
        }
    }

    #[test]
    fn update_rebuckets_across_cells() {
        let mut idx = SpatialIndex::new(10.0);
        let mut positions = vec![(0.0, 0.0), (1.0, 1.0), (100.0, 0.0)];
        for &p in &positions {
            idx.push(p);
        }
        // Move node 0 far away and node 2 next to node 1.
        positions[0] = (200.0, 200.0);
        idx.update(0, positions[0]);
        positions[2] = (2.0, 0.5);
        idx.update(2, positions[2]);
        assert_eq!(filtered(&idx, &positions, (0.0, 0.0), 5.0), vec![1, 2]);
        assert_eq!(filtered(&idx, &positions, (200.0, 200.0), 5.0), vec![0]);
    }

    #[test]
    fn within_cell_move_is_a_noop_rebucket() {
        let mut idx = SpatialIndex::new(50.0);
        idx.push((0.0, 0.0));
        idx.update(0, (1.0, 1.0)); // same cell
        assert_eq!(idx.occupied_cells(), 1);
        let mut cand = Vec::new();
        idx.candidates_into((0.0, 0.0), 10.0, &mut cand);
        assert_eq!(cand, vec![0]);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = SpatialIndex::new(10.0);
        let mut cand = vec![7];
        let scanned = idx.candidates_into((0.0, 0.0), 100.0, &mut cand);
        assert!(cand.is_empty());
        assert!(scanned > 0, "cells are scanned even when unoccupied");
    }

    #[test]
    fn compact_releases_bulk_churn_capacity() {
        // Crowd 200 transients plus one stayer into a cell, then march
        // the crowd out: the stayer's bucket keeps one resident but
        // pins the crowd's capacity until compact() shrinks it.
        let mut idx = SpatialIndex::new(10.0);
        idx.push((0.0, 0.0)); // the stayer, id 0
        for _ in 0..200 {
            idx.push((0.0, 0.0));
        }
        for id in 1..=200u32 {
            idx.update(id, (500.0, 500.0));
        }
        let drained = idx.resident_bytes();
        idx.compact();
        let after = idx.resident_bytes();
        assert!(
            after < drained,
            "compact must release the drained bucket's capacity: {after} >= {drained}"
        );
        // Queries still answer exactly.
        let mut cand = Vec::new();
        idx.candidates_into((0.0, 0.0), 5.0, &mut cand);
        assert_eq!(cand, vec![0]);
    }

    #[test]
    fn resident_bytes_grows_with_population() {
        let mut idx = SpatialIndex::new(10.0);
        let empty = idx.resident_bytes();
        for i in 0..100 {
            idx.push((i as f64 * 7.0, 0.0));
        }
        assert!(idx.resident_bytes() > empty);
    }

    /// The k-NN oracle: ascending `(distance, id)` over all nodes in
    /// range, truncated to k.
    fn naive_k_nearest(
        positions: &[(f64, f64)],
        center: (f64, f64),
        k: usize,
        max_range: f64,
    ) -> Vec<u32> {
        let mut ranked: Vec<(f64, u32)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (((p.0 - center.0).powi(2) + (p.1 - center.1).powi(2)).sqrt(), i as u32))
            .filter(|&(d, _)| d <= max_range)
            .collect();
        ranked.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        ranked.truncate(k);
        ranked.into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn k_nearest_matches_naive_oracle() {
        let mut idx = SpatialIndex::new(12.0);
        let positions: Vec<(f64, f64)> =
            (0..150).map(|i| ((i as f64 * 17.3) % 160.0, (i as f64 * 11.9) % 140.0)).collect();
        for &p in &positions {
            idx.push(p);
        }
        let mut scratch = SpatialScratch::default();
        let mut out = Vec::new();
        for &(center, k, max_range) in &[
            ((80.0, 70.0), 5, 200.0),
            ((0.0, 0.0), 1, 50.0),
            ((80.0, 70.0), 12, 30.0), // range-bounded: fewer than k may exist
            ((160.0, 140.0), 150, 300.0), // k >= population
            ((40.0, 40.0), 7, 0.0),   // zero range
        ] {
            idx.k_nearest_into(
                &mut scratch,
                center,
                k,
                max_range,
                |i| positions[i as usize],
                &mut out,
            );
            assert_eq!(
                out,
                naive_k_nearest(&positions, center, k, max_range),
                "center {center:?} k {k} range {max_range}"
            );
        }
    }

    #[test]
    fn k_nearest_breaks_distance_ties_by_id() {
        // Four nodes at the exact same distance: the cap must keep the
        // smallest ids, deterministically.
        let mut idx = SpatialIndex::new(10.0);
        let positions = vec![(10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0), (50.0, 50.0)];
        for &p in &positions {
            idx.push(p);
        }
        let mut out = Vec::new();
        let mut scratch = SpatialScratch::default();
        idx.k_nearest_into(&mut scratch, (0.0, 0.0), 2, 100.0, |i| positions[i as usize], &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn k_nearest_zero_k_is_empty_and_free() {
        let mut idx = SpatialIndex::new(10.0);
        idx.push((0.0, 0.0));
        let mut out = vec![9];
        let scanned = idx.k_nearest_into(
            &mut SpatialScratch::default(),
            (0.0, 0.0),
            0,
            50.0,
            |_| (0.0, 0.0),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(scanned, 0);
    }

    #[test]
    fn exact_range_boundary_is_a_candidate() {
        // A node exactly at `range` must survive: the box's margin
        // absorbs float slack.
        let mut idx = SpatialIndex::new(50.0);
        let positions = vec![(0.0, 0.0), (50.0, 0.0), (150.0, 0.0)];
        for &p in &positions {
            idx.push(p);
        }
        assert_eq!(filtered(&idx, &positions, (0.0, 0.0), 50.0), vec![0, 1]);
    }
}
