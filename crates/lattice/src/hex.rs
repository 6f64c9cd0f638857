//! The hexagonal lattice: primitive vectors, nearest-point snapping, and
//! lattice-point hashing (paper Eqs. 14–15, Fig. 3).

use msb_crypto::sha256::Sha256;
use msb_profile::attribute::AttributeHash;

/// Lattice parameters: an origin `O` and the minimum lattice-point
/// distance `d`. Both parties of a vicinity search must agree on these
/// (the initiator publishes them with the request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeConfig {
    origin: (f64, f64),
    d: f64,
}

impl LatticeConfig {
    /// Creates a lattice anchored at `origin` with cell scale `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not strictly positive and finite.
    pub fn new(origin: (f64, f64), d: f64) -> Self {
        assert!(d.is_finite() && d > 0.0, "lattice scale must be positive");
        assert!(origin.0.is_finite() && origin.1.is_finite(), "origin must be finite");
        LatticeConfig { origin, d }
    }

    /// The origin `O`.
    pub fn origin(&self) -> (f64, f64) {
        self.origin
    }

    /// The lattice scale `d` (shortest distance between lattice points).
    pub fn d(&self) -> f64 {
        self.d
    }

    /// The primitive vectors `a₁ = (d, 0)`, `a₂ = (d/2, √3·d/2)`.
    pub fn primitive_vectors(&self) -> ((f64, f64), (f64, f64)) {
        ((self.d, 0.0), (self.d / 2.0, 3f64.sqrt() / 2.0 * self.d))
    }

    /// Snaps a location to the nearest lattice point (the "lattice-based
    /// location hash" of §III-D-1).
    pub fn snap(&self, location: (f64, f64)) -> LatticePoint {
        let x = location.0 - self.origin.0;
        let y = location.1 - self.origin.1;
        // Fractional lattice coordinates from inverting
        // (x, y) = u1·a1 + u2·a2.
        let sqrt3 = 3f64.sqrt();
        let u2f = y / (sqrt3 / 2.0 * self.d);
        let u1f = (x - u2f * self.d / 2.0) / self.d;
        // The Voronoi cell of a hex lattice is a hexagon, so independent
        // rounding is wrong near cell corners; search the 3×3 integer
        // neighbourhood for the true nearest point.
        let (u1r, u2r) = (u1f.round() as i64, u2f.round() as i64);
        let mut best = LatticePoint { u1: u1r, u2: u2r };
        let mut best_d2 = f64::INFINITY;
        for du1 in -1..=1 {
            for du2 in -1..=1 {
                let cand = LatticePoint { u1: u1r + du1, u2: u2r + du2 };
                let (cx, cy) = self.point_xy_rel(cand);
                let d2 = (cx - x).powi(2) + (cy - y).powi(2);
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = cand;
                }
            }
        }
        best
    }

    /// Cartesian coordinates of a lattice point (absolute).
    pub fn point_xy(&self, p: LatticePoint) -> (f64, f64) {
        let (x, y) = self.point_xy_rel(p);
        (x + self.origin.0, y + self.origin.1)
    }

    fn point_xy_rel(&self, p: LatticePoint) -> (f64, f64) {
        let sqrt3 = 3f64.sqrt();
        (p.u1 as f64 * self.d + p.u2 as f64 * self.d / 2.0, p.u2 as f64 * sqrt3 / 2.0 * self.d)
    }

    /// Euclidean distance between two lattice points.
    pub fn point_distance(&self, a: LatticePoint, b: LatticePoint) -> f64 {
        let (ax, ay) = self.point_xy_rel(a);
        let (bx, by) = self.point_xy_rel(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// All lattice points within Euclidean distance `range` of `center`
    /// (inclusive), sorted by `(u1, u2)` — the vicinity lattice point set
    /// `V(O, d, l, D)`.
    pub fn points_within(&self, center: LatticePoint, range: f64) -> Vec<LatticePoint> {
        assert!(range >= 0.0 && range.is_finite(), "range must be non-negative");
        // |u1 a1 + u2 a2| >= (|u1| + |u2|) * d * sin(60°) is loose; a safe
        // bounding box is range / (d·√3/2) in u2 and range/d + that in u1.
        let sqrt3 = 3f64.sqrt();
        let u2_span = (range / (self.d * sqrt3 / 2.0)).ceil() as i64 + 1;
        let u1_span = (range / self.d).ceil() as i64 + u2_span + 1;
        let mut out = Vec::new();
        for du1 in -u1_span..=u1_span {
            for du2 in -u2_span..=u2_span {
                let p = LatticePoint { u1: center.u1 + du1, u2: center.u2 + du2 };
                if self.point_distance(center, p) <= range + 1e-9 {
                    out.push(p);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Canonical bytes identifying this lattice (origin + scale), mixed
    /// into every lattice-point hash so points from different lattices
    /// never collide.
    fn domain(&self) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[..8].copy_from_slice(&self.origin.0.to_bits().to_be_bytes());
        out[8..16].copy_from_slice(&self.origin.1.to_bits().to_be_bytes());
        out[16..].copy_from_slice(&self.d.to_bits().to_be_bytes());
        out
    }

    /// Hashes a lattice point into an [`AttributeHash`] — lattice points
    /// are attributes like any other, which is what makes vicinity search
    /// a plain fuzzy profile match.
    pub fn point_hash(&self, p: LatticePoint) -> AttributeHash {
        let mut buf = Vec::with_capacity(24 + 16 + 4);
        buf.extend_from_slice(b"lat:");
        buf.extend_from_slice(&self.domain());
        buf.extend_from_slice(&p.u1.to_be_bytes());
        buf.extend_from_slice(&p.u2.to_be_bytes());
        AttributeHash::from_bytes(Sha256::digest(&buf))
    }
}

/// A lattice point in integer coordinates `(u1, u2)` over the primitive
/// vectors (paper Eq. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LatticePoint {
    /// Coefficient of `a₁`.
    pub u1: i64,
    /// Coefficient of `a₂`.
    pub u2: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LatticeConfig {
        LatticeConfig::new((0.0, 0.0), 10.0)
    }

    #[test]
    fn snap_origin() {
        assert_eq!(cfg().snap((0.0, 0.0)), LatticePoint { u1: 0, u2: 0 });
    }

    #[test]
    fn snap_is_nearest_point() {
        let c = cfg();
        // Sample a grid of locations; the snapped point must be at least
        // as close as any neighbouring lattice point.
        for ix in -20..20 {
            for iy in -20..20 {
                let loc = (ix as f64 * 1.7, iy as f64 * 2.3);
                let p = c.snap(loc);
                let (px, py) = c.point_xy(p);
                let d_snap = ((px - loc.0).powi(2) + (py - loc.1).powi(2)).sqrt();
                for du1 in -2..=2i64 {
                    for du2 in -2..=2i64 {
                        let q = LatticePoint { u1: p.u1 + du1, u2: p.u2 + du2 };
                        let (qx, qy) = c.point_xy(q);
                        let d_q = ((qx - loc.0).powi(2) + (qy - loc.1).powi(2)).sqrt();
                        assert!(
                            d_snap <= d_q + 1e-9,
                            "snap missed nearest at {loc:?}: {p:?} vs {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn snap_within_circumradius() {
        // Any point is within d/√3 (hex circumradius) of its snap.
        let c = cfg();
        let max = c.d() / 3f64.sqrt() + 1e-9;
        for i in 0..500 {
            let loc = ((i as f64 * 0.7919) % 60.0 - 30.0, (i as f64 * 1.3331) % 60.0 - 30.0);
            let p = c.snap(loc);
            let (px, py) = c.point_xy(p);
            let dist = ((px - loc.0).powi(2) + (py - loc.1).powi(2)).sqrt();
            assert!(dist <= max, "dist {dist} at {loc:?}");
        }
    }

    #[test]
    fn nearest_neighbours_at_distance_d() {
        let c = cfg();
        let origin = LatticePoint { u1: 0, u2: 0 };
        // The six nearest neighbours of a hex lattice sit at distance d.
        let neighbours = [(1i64, 0i64), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)];
        for (u1, u2) in neighbours {
            let d = c.point_distance(origin, LatticePoint { u1, u2 });
            assert!((d - 10.0).abs() < 1e-9, "({u1},{u2}) at {d}");
        }
    }

    #[test]
    fn points_within_counts() {
        let c = cfg();
        let center = LatticePoint { u1: 0, u2: 0 };
        // r < d: only the center.
        assert_eq!(c.points_within(center, 5.0).len(), 1);
        // r = d: center + 6 neighbours.
        assert_eq!(c.points_within(center, 10.0).len(), 7);
        // r = √3·d ≈ 17.32: + 6 second-shell points = 13.
        assert_eq!(c.points_within(center, 17.4).len(), 13);
        // r = 2d: + 6 = 19 — the paper's D = 3d example region uses the
        // same shell structure.
        assert_eq!(c.points_within(center, 20.0).len(), 19);
    }

    #[test]
    fn points_within_sorted_and_contains_center() {
        let c = cfg();
        let center = LatticePoint { u1: 3, u2: -2 };
        let pts = c.points_within(center, 25.0);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert!(pts.contains(&center));
    }

    #[test]
    fn point_hash_distinguishes_points_and_lattices() {
        let c1 = cfg();
        let c2 = LatticeConfig::new((0.0, 0.0), 20.0);
        let p = LatticePoint { u1: 1, u2: 2 };
        let q = LatticePoint { u1: 2, u2: 1 };
        assert_ne!(c1.point_hash(p), c1.point_hash(q));
        assert_ne!(c1.point_hash(p), c2.point_hash(p));
    }

    #[test]
    fn same_cell_same_snap() {
        let c = cfg();
        // Two locations 1m apart in a 10m cell snap identically (the
        // "bounded distance d" guarantee).
        let a = c.snap((1.0, 1.0));
        let b = c.snap((1.5, 1.4));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = LatticeConfig::new((0.0, 0.0), 0.0);
    }
}
