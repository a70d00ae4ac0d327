//! Range queries for vehicle sensing and communication reachability.

use crate::cell_hash::CellMap;
use crate::Vec2;

/// Returns the indices of every point in `points` lying within `radius`
/// of `center` (inclusive of the boundary).
///
/// ```
/// use nwade_geometry::{within_radius, Vec2};
/// let pts = [Vec2::new(0.0, 0.0), Vec2::new(3.0, 4.0), Vec2::new(30.0, 0.0)];
/// assert_eq!(within_radius(Vec2::ZERO, 10.0, &pts), vec![0, 1]);
/// ```
pub fn within_radius(center: Vec2, radius: f64, points: &[Vec2]) -> Vec<usize> {
    let r_sq = radius * radius;
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance_sq(center) <= r_sq)
        .map(|(i, _)| i)
        .collect()
}

/// A uniform-grid spatial index for repeated neighbourhood queries over a
/// moving set of points (vehicles at an intersection).
///
/// Cell size should be on the order of the query radius; queries then touch
/// only the 3×3 neighbourhood of cells (or more for larger radii).
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cells: CellMap<(i64, i64), Vec<usize>>,
    points: Vec<Vec2>,
}

impl GridIndex {
    /// Builds an index over `points` with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive.
    pub fn build(cell: f64, points: &[Vec2]) -> Self {
        assert!(cell > 0.0, "cell size must be positive, got {cell}");
        let mut cells: CellMap<(i64, i64), Vec<usize>> = CellMap::default();
        for (i, p) in points.iter().enumerate() {
            cells.entry(Self::key(cell, *p)).or_default().push(i);
        }
        GridIndex {
            cell,
            cells,
            points: points.to_vec(),
        }
    }

    /// An empty index with the given cell size, meant for repeated
    /// [`GridIndex::rebuild`] calls over a moving point set.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive.
    pub fn with_cell(cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive, got {cell}");
        GridIndex {
            cell,
            cells: CellMap::default(),
            points: Vec::new(),
        }
    }

    /// Re-indexes `points` in place, keeping bucket and point-buffer
    /// allocations warm across calls — the per-tick path of a simulation
    /// that re-indexes every frame. Buckets that held points last call
    /// stay allocated (empty) so steady-state rebuilds allocate nothing.
    pub fn rebuild(&mut self, points: &[Vec2]) {
        for bucket in self.cells.values_mut() {
            bucket.clear();
        }
        self.points.clear();
        self.points.extend_from_slice(points);
        let cell = self.cell;
        for (i, p) in points.iter().enumerate() {
            self.cells.entry(Self::key(cell, *p)).or_default().push(i);
        }
    }

    fn key(cell: f64, p: Vec2) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points within `radius` of `center`, in ascending
    /// order.
    pub fn query(&self, center: Vec2, radius: f64) -> Vec<usize> {
        let r_sq = radius * radius;
        let reach = (radius / self.cell).ceil() as i64;
        let (cx, cy) = Self::key(self.cell, center);
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in bucket {
                        if self.points[i].distance_sq(center) <= r_sq {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vec<Vec2> {
        vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(5.0, 0.0),
            Vec2::new(0.0, 5.0),
            Vec2::new(50.0, 50.0),
            Vec2::new(-8.0, 0.0),
            Vec2::new(10.0, 0.0),
        ]
    }

    #[test]
    fn brute_force_within_radius() {
        let pts = cluster();
        let hits = within_radius(Vec2::ZERO, 8.0, &pts);
        assert_eq!(hits, vec![0, 1, 2, 4]);
        // Boundary point at exactly the radius is included.
        let hits = within_radius(Vec2::ZERO, 10.0, &pts);
        assert_eq!(hits, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn grid_matches_brute_force() {
        let pts = cluster();
        let idx = GridIndex::build(7.0, &pts);
        for r in [1.0, 5.0, 8.0, 100.0] {
            for center in [Vec2::ZERO, Vec2::new(50.0, 50.0), Vec2::new(-20.0, 3.0)] {
                assert_eq!(
                    idx.query(center, r),
                    within_radius(center, r, &pts),
                    "mismatch at r={r}, center={center}"
                );
            }
        }
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(10.0, &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.query(Vec2::ZERO, 1000.0).is_empty());
    }

    #[test]
    fn radius_larger_than_cell() {
        let pts: Vec<Vec2> = (0..100)
            .map(|i| Vec2::new((i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0))
            .collect();
        let idx = GridIndex::build(5.0, &pts);
        assert_eq!(idx.query(Vec2::new(45.0, 45.0), 200.0).len(), 100);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cell_panics() {
        let _ = GridIndex::build(0.0, &[]);
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut idx = GridIndex::with_cell(7.0);
        assert!(idx.is_empty());
        // First fill, then move every point and refill: queries must
        // always agree with a fresh index over the same points.
        for shift in [0.0, 13.0, -40.0] {
            let pts: Vec<Vec2> = cluster()
                .into_iter()
                .map(|p| p + Vec2::new(shift, shift))
                .collect();
            idx.rebuild(&pts);
            let fresh = GridIndex::build(7.0, &pts);
            assert_eq!(idx.len(), pts.len());
            for r in [1.0, 8.0, 100.0] {
                for center in [Vec2::ZERO, Vec2::new(shift, shift)] {
                    assert_eq!(idx.query(center, r), fresh.query(center, r));
                }
            }
        }
    }

    #[test]
    fn rebuild_to_empty() {
        let mut idx = GridIndex::with_cell(5.0);
        idx.rebuild(&cluster());
        idx.rebuild(&[]);
        assert!(idx.is_empty());
        assert!(idx.query(Vec2::ZERO, 1000.0).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The grid index always agrees with the brute-force scan.
        #[test]
        fn grid_equals_brute_force(
            pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..60),
            cx in -500.0..500.0f64,
            cy in -500.0..500.0f64,
            radius in 0.1..600.0f64,
            cell in 1.0..100.0f64,
        ) {
            let pts: Vec<Vec2> = pts.into_iter().map(Vec2::from).collect();
            let idx = GridIndex::build(cell, &pts);
            let center = Vec2::new(cx, cy);
            prop_assert_eq!(idx.query(center, radius), within_radius(center, radius, &pts));
        }
    }
}
