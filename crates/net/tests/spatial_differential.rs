//! Differential oracle: the square-grid spatial index against the naive
//! linear scan.
//!
//! The index's contract is *bit identity* with a scan over every node:
//! the same candidates survive the same `distance <= range` filter, in
//! the same ascending id order, and k-nearest selection ranks them the
//! same way. These tests pin that contract with property tests over
//! random positions, ranges, and cell sides (including nodes exactly on
//! the grid's cell edges and corners, a few ulps either side of them,
//! and exactly at radio range, near the origin and near ±1e6 m) and
//! under incremental position updates. The simulator's own queries
//! (broadcast targets, k-nearest, BFS routes) are held to the scan by
//! the property test in `src/topo.rs`.

use msb_net::spatial::{SpatialIndex, SpatialScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// The naive oracle: every node id within `range` of `center`, ascending.
fn naive_in_range(positions: &[(f64, f64)], center: (f64, f64), range: f64) -> Vec<u32> {
    positions
        .iter()
        .enumerate()
        .filter(|(_, &p)| distance(p, center) <= range)
        .map(|(i, _)| i as u32)
        .collect()
}

/// The indexed answer: candidates from the cell box, exact-filtered.
fn indexed_in_range(
    index: &SpatialIndex,
    positions: &[(f64, f64)],
    center: (f64, f64),
    range: f64,
) -> Vec<u32> {
    let mut cand = Vec::new();
    index.candidates_into(center, range, &mut cand);
    cand.retain(|&i| distance(positions[i as usize], center) <= range);
    cand
}

/// Positions stressing boundaries in every direction: uniform scatter,
/// nodes pinned to the points and Voronoi edge midpoints of a hex
/// lattice of scale `cell_d` (off the index's square grid), and nodes at
/// exactly `range` from the query center.
fn boundary_positions(
    seed: u64,
    n: usize,
    cell_d: f64,
    center: (f64, f64),
    range: f64,
) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let sqrt3 = 3f64.sqrt();
    for i in 0..n {
        let p = match i % 4 {
            // Scatter.
            0 => (rng.gen_range(-300.0..300.0), rng.gen_range(-300.0..300.0)),
            // Exact hex lattice points (hex cell centers).
            1 => {
                let u1 = rng.gen_range(-10i64..10) as f64;
                let u2 = rng.gen_range(-10i64..10) as f64;
                (u1 * cell_d + u2 * cell_d / 2.0, u2 * sqrt3 / 2.0 * cell_d)
            }
            // Midpoints between two lattice points: exactly on the
            // Voronoi edge, where snapping ties break by search order.
            2 => {
                let u1 = rng.gen_range(-10i64..10) as f64;
                let u2 = rng.gen_range(-10i64..10) as f64;
                (u1 * cell_d + u2 * cell_d / 2.0 + cell_d / 2.0, u2 * sqrt3 / 2.0 * cell_d)
            }
            // Exactly at radio range from the query center.
            _ => {
                let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                (center.0 + range * theta.cos(), center.1 + range * theta.sin())
            }
        };
        out.push(p);
    }
    out
}

/// `v` moved `ulps` representable values up (or down, if negative).
fn nudge(v: f64, ulps: i32) -> f64 {
    (0..ulps.abs()).fold(v, |v, _| if ulps > 0 { v.next_up() } else { v.next_down() })
}

/// The k-NN oracle: ascending `(distance, id)` over every node within
/// `range`, truncated to `k`.
fn naive_k_nearest(positions: &[(f64, f64)], center: (f64, f64), k: usize, range: f64) -> Vec<u32> {
    let mut ranked: Vec<(f64, u32)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (distance(p, center), i as u32))
        .filter(|&(d, _)| d <= range)
        .collect();
    ranked.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    ranked.truncate(k);
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// Positions on the square grid's own boundaries, for cells `side`
/// across: for each query center, nodes exactly `range` along each axis
/// from it, nudged up to two ulps either way, with the other coordinate
/// the center's own or one ulp off it; plus `n_edge` random cell edges
/// and corners near the centers, each coordinate nudged up to two ulps.
fn grid_boundary_positions(
    seed: u64,
    side: f64,
    centers: &[(f64, f64)],
    range: f64,
    n_edge: usize,
) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &(cx, cy) in centers {
        for ulps in -2..=2 {
            for perp in -1..=1 {
                out.push((nudge(cx + range, ulps), nudge(cy, perp)));
                out.push((nudge(cx - range, ulps), nudge(cy, perp)));
                out.push((nudge(cx, perp), nudge(cy + range, ulps)));
                out.push((nudge(cx, perp), nudge(cy - range, ulps)));
            }
        }
    }
    for _ in 0..n_edge {
        let (cx, cy) = centers[rng.gen_range(0..centers.len())];
        let x = ((cx / side).round() + rng.gen_range(-3i32..=3) as f64) * side;
        let y = ((cy / side).round() + rng.gen_range(-3i32..=3) as f64) * side;
        out.push((nudge(x, rng.gen_range(-2..=2)), nudge(y, rng.gen_range(-2..=2))));
    }
    out
}

proptest! {
    /// Indexed and naive range queries agree — same node set, same
    /// ascending order — for random populations, query centers, radio
    /// ranges, and cell sides, with adversarial boundary placements.
    #[test]
    fn indexed_query_equals_naive_scan(
        seed in any::<u64>(),
        n in 1usize..120,
        scale_idx in 0usize..5,
        range_idx in 0usize..6,
        cx in -100i32..100,
        cy in -100i32..100,
    ) {
        let cell_scale = [3.0f64, 10.0, 25.0, 50.0, 120.0][scale_idx];
        let range = [0.0f64, 1.0, 10.0, 50.0, 75.0, 200.0][range_idx];
        let center = (cx as f64 * 1.37, cy as f64 * 0.91);
        let positions = boundary_positions(seed, n, cell_scale, center, range);
        let mut index = SpatialIndex::new(cell_scale);
        for &p in &positions {
            index.push(p);
        }
        let indexed = indexed_in_range(&index, &positions, center, range);
        let naive = naive_in_range(&positions, center, range);
        prop_assert_eq!(indexed, naive, "cell_d={} range={} center={:?}", cell_scale, range, center);
    }

    /// `SpatialIndex::k_nearest_into` agrees with the naive oracle
    /// (ascending `(distance, id)` over everything in range, truncated
    /// to k) for random populations, centers, caps, and range bounds —
    /// boundary placements included.
    #[test]
    fn indexed_k_nearest_equals_naive_ranking(
        seed in any::<u64>(),
        n in 1usize..120,
        k in 0usize..140,
        scale_idx in 0usize..5,
        range_idx in 0usize..6,
        cx in -100i32..100,
        cy in -100i32..100,
    ) {
        let cell_scale = [3.0f64, 10.0, 25.0, 50.0, 120.0][scale_idx];
        let range = [0.0f64, 1.0, 10.0, 50.0, 75.0, 200.0][range_idx];
        let center = (cx as f64 * 1.37, cy as f64 * 0.91);
        let positions = boundary_positions(seed, n, cell_scale, center, range);
        let mut index = SpatialIndex::new(cell_scale);
        for &p in &positions {
            index.push(p);
        }
        let mut indexed = Vec::new();
        index.k_nearest_into(
            &mut SpatialScratch::default(),
            center,
            k,
            range,
            |i| positions[i as usize],
            &mut indexed,
        );
        let naive = naive_k_nearest(&positions, center, k, range);
        prop_assert_eq!(indexed, naive, "cell_d={} range={} k={}", cell_scale, range, k);
    }

    /// The agreement survives mobility: after random incremental updates
    /// (including moves across cell boundaries and back), queries from
    /// every node's own position still match the oracle.
    #[test]
    fn indexed_query_equals_naive_after_updates(
        seed in any::<u64>(),
        n in 2usize..60,
        moves in 1usize..80,
        scale_idx in 0usize..3,
        range_idx in 0usize..3,
    ) {
        let cell_scale = [5.0f64, 20.0, 60.0][scale_idx];
        let range = [15.0f64, 50.0, 90.0][range_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions = boundary_positions(seed ^ 0xA5, n, cell_scale, (0.0, 0.0), range);
        let mut index = SpatialIndex::new(cell_scale);
        for &p in &positions {
            index.push(p);
        }
        for _ in 0..moves {
            let id = rng.gen_range(0..n);
            let p = (rng.gen_range(-250.0..250.0), rng.gen_range(-250.0..250.0));
            positions[id] = p;
            index.update(id as u32, p);
        }
        for (i, &p) in positions.iter().enumerate() {
            let indexed = indexed_in_range(&index, &positions, p, range);
            let naive = naive_in_range(&positions, p, range);
            prop_assert_eq!(indexed, naive, "query from node {} at {:?}", i, p);
        }
    }

    /// Range and k-NN queries agree with the oracle on the grid's own
    /// boundaries: query centers on cell corners (or on a vertical cell
    /// edge, off the horizontal ones), nodes at exactly the query range
    /// along each axis give or take a few ulps, and nodes on or beside
    /// cell edges and corners, near the origin and near ±1e6 m on each
    /// axis. The float `distance <= range` filter keeps some nodes whose
    /// exact offset is a hair past the range, so these cases fail unless
    /// the index widens its box by a margin.
    #[test]
    fn grid_boundaries_equal_naive_scan(
        seed in any::<u64>(),
        side_idx in 0usize..5,
        range_idx in 0usize..4,
        far_x in 0usize..3,
        far_y in 0usize..3,
        y_frac_idx in 0usize..3,
        k in 1usize..12,
    ) {
        let side = [37.5f64, 50.0, 7.5, 64.25, 33.3][side_idx];
        let range = side * [1.0, 2.0, 0.5, 1.5][range_idx];
        let base = |far: usize| ([0.0f64, 1e6, -1e6][far] / side).round() * side;
        let y_frac = [0.0, 0.25, 0.5][y_frac_idx] * side;
        let mut centers = Vec::new();
        for kx in -2..=2 {
            for ky in -2..=2 {
                centers.push((
                    base(far_x) + kx as f64 * side,
                    base(far_y) + ky as f64 * side + y_frac,
                ));
            }
        }
        let positions = grid_boundary_positions(seed, side, &centers, range, 100);
        let mut index = SpatialIndex::new(side);
        for &p in &positions {
            index.push(p);
        }
        let mut scratch = SpatialScratch::default();
        let mut nearest = Vec::new();
        for &center in &centers {
            let indexed = indexed_in_range(&index, &positions, center, range);
            let naive = naive_in_range(&positions, center, range);
            prop_assert_eq!(indexed, naive, "side={} range={} center={:?}", side, range, center);
            index.k_nearest_into(
                &mut scratch,
                center,
                k,
                range,
                |i| positions[i as usize],
                &mut nearest,
            );
            prop_assert_eq!(
                &nearest,
                &naive_k_nearest(&positions, center, k, range),
                "side={} range={} center={:?} k={}", side, range, center, k
            );
        }
    }
}
