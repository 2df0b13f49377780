//! A bucket-grid spatial index over a [`SectorDirectory`].
//!
//! Subscriber movement is simulated in continuous coordinates; attaching a
//! device to the network means finding the nearest antenna sector, which the
//! MME then logs. A uniform bucket grid in (lat, lon) space gives expected
//! O(1) nearest-neighbour queries for the sector densities we deploy, with a
//! ring-expansion fallback that guarantees correctness for arbitrary layouts.

use crate::point::GeoPoint;
use crate::sectors::{SectorDirectory, SectorId};

/// Spatial index for nearest-sector queries.
///
/// # Examples
/// ```
/// use wearscope_geo::{GeoPoint, SectorDirectory, SectorGrid};
/// let mut dir = SectorDirectory::new();
/// dir.push(GeoPoint::new(40.0, -3.0), None);
/// dir.push(GeoPoint::new(41.0, 2.0), None);
/// let grid = SectorGrid::build(&dir);
/// assert_eq!(grid.nearest(GeoPoint::new(40.05, -3.01)).unwrap().raw(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct SectorGrid {
    min_lat: f64,
    min_lon: f64,
    cell_deg: f64,
    cols: usize,
    rows: usize,
    /// Conservative lower bound on the km spanned by one grid step in any
    /// direction; used to prove ring-expansion termination.
    min_step_km: f64,
    /// `buckets[row * cols + col]` holds the sectors whose antenna falls in
    /// that cell.
    buckets: Vec<Vec<(SectorId, GeoPoint)>>,
}

impl SectorGrid {
    /// Default cell size: roughly 10 km at mid-latitudes.
    const DEFAULT_CELL_DEG: f64 = 0.1;

    /// Builds an index over all sectors in `dir`.
    pub fn build(dir: &SectorDirectory) -> SectorGrid {
        Self::build_with_cell(dir, Self::DEFAULT_CELL_DEG)
    }

    /// Builds an index with an explicit cell size in degrees.
    ///
    /// # Panics
    /// Panics if `cell_deg` is not strictly positive and finite.
    pub fn build_with_cell(dir: &SectorDirectory, cell_deg: f64) -> SectorGrid {
        assert!(
            cell_deg.is_finite() && cell_deg > 0.0,
            "cell size must be positive, got {cell_deg}"
        );
        let (mut min_lat, mut max_lat) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_lon, mut max_lon) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in dir.iter() {
            min_lat = min_lat.min(s.location.lat());
            max_lat = max_lat.max(s.location.lat());
            min_lon = min_lon.min(s.location.lon());
            max_lon = max_lon.max(s.location.lon());
        }
        if dir.is_empty() {
            return SectorGrid {
                min_lat: 0.0,
                min_lon: 0.0,
                cell_deg,
                cols: 0,
                rows: 0,
                min_step_km: 0.0,
                buckets: Vec::new(),
            };
        }
        // One grid step spans at least `cell_deg` degrees of latitude
        // (~110.57 km/deg) or of longitude (~111.32 · cos(lat) km/deg);
        // take the smaller, evaluated at the most polar latitude covered.
        let max_abs_lat = max_lat.abs().max(min_lat.abs()).min(89.0);
        let min_step_km = cell_deg * (110.5_f64).min(111.3 * max_abs_lat.to_radians().cos());
        let cols = (((max_lon - min_lon) / cell_deg).floor() as usize + 1).max(1);
        let rows = (((max_lat - min_lat) / cell_deg).floor() as usize + 1).max(1);
        let mut buckets = vec![Vec::new(); cols * rows];
        let grid = |lat: f64, lon: f64| -> (usize, usize) {
            let r = (((lat - min_lat) / cell_deg).floor() as usize).min(rows - 1);
            let c = (((lon - min_lon) / cell_deg).floor() as usize).min(cols - 1);
            (r, c)
        };
        for s in dir.iter() {
            let (r, c) = grid(s.location.lat(), s.location.lon());
            buckets[r * cols + c].push((s.id, s.location));
        }
        SectorGrid {
            min_lat,
            min_lon,
            cell_deg,
            cols,
            rows,
            min_step_km,
            buckets,
        }
    }

    /// The sector nearest to `p`, or `None` if the directory was empty.
    pub fn nearest(&self, p: GeoPoint) -> Option<SectorId> {
        self.nearest_with_distance(p).map(|(id, _)| id)
    }

    /// The nearest sector and its distance in km.
    pub fn nearest_with_distance(&self, p: GeoPoint) -> Option<(SectorId, f64)> {
        if self.buckets.is_empty() {
            return None;
        }
        let r0 = (((p.lat() - self.min_lat) / self.cell_deg).floor() as i64)
            .clamp(0, self.rows as i64 - 1);
        let c0 = (((p.lon() - self.min_lon) / self.cell_deg).floor() as i64)
            .clamp(0, self.cols as i64 - 1);

        let mut best: Option<(SectorId, f64)> = None;
        let max_ring = self.rows.max(self.cols) as i64;
        for ring in 0..=max_ring {
            // Scan the square ring at Chebyshev distance `ring`.
            for dr in -ring..=ring {
                for dc in -ring..=ring {
                    if dr.abs() != ring && dc.abs() != ring {
                        continue; // interior already scanned by smaller rings
                    }
                    let (r, c) = (r0 + dr, c0 + dc);
                    if r < 0 || c < 0 || r >= self.rows as i64 || c >= self.cols as i64 {
                        continue;
                    }
                    for &(id, loc) in &self.buckets[r as usize * self.cols + c as usize] {
                        let d = p.distance_km(loc);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((id, d));
                        }
                    }
                }
            }
            // Any sector in ring ≥ `ring + 1` lies at least `ring` whole grid
            // steps from the query's cell, i.e. at distance ≥ ring·min_step_km.
            // Once the current best beats that bound, no farther ring can win.
            // (Holds for clamped out-of-bounds queries too: they are even
            // farther from every in-bounds cell than the clamped cell is.)
            if let Some((_, d)) = best {
                if d <= ring as f64 * self.min_step_km {
                    return best;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_dir(points: &[(f64, f64)]) -> SectorDirectory {
        let mut d = SectorDirectory::new();
        for &(lat, lon) in points {
            d.push(GeoPoint::new(lat, lon), None);
        }
        d
    }

    #[test]
    fn empty_directory_has_no_nearest() {
        let grid = SectorGrid::build(&SectorDirectory::new());
        assert!(grid.nearest(GeoPoint::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn single_sector_always_nearest() {
        let d = make_dir(&[(40.0, -3.0)]);
        let grid = SectorGrid::build(&d);
        assert_eq!(grid.nearest(GeoPoint::new(50.0, 10.0)), Some(SectorId(0)));
    }

    #[test]
    fn picks_closer_of_two() {
        let d = make_dir(&[(40.0, -3.0), (41.0, 2.0)]);
        let grid = SectorGrid::build(&d);
        assert_eq!(grid.nearest(GeoPoint::new(40.01, -3.0)), Some(SectorId(0)));
        assert_eq!(grid.nearest(GeoPoint::new(40.99, 1.99)), Some(SectorId(1)));
    }

    #[test]
    fn agrees_with_brute_force() {
        // Deterministic pseudo-random layout.
        let mut pts = Vec::new();
        let mut x: u64 = 0x1234_5678;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..200 {
            pts.push((39.0 + next() * 4.0, -4.0 + next() * 7.0));
        }
        let d = make_dir(&pts);
        let grid = SectorGrid::build(&d);
        for _ in 0..100 {
            let q = GeoPoint::new(39.0 + next() * 4.0, -4.0 + next() * 7.0);
            let got = grid.nearest_with_distance(q).unwrap();
            let want = d
                .iter()
                .map(|s| (s.id, q.distance_km(s.location)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(
                (got.1 - want.1).abs() < 1e-9,
                "grid {got:?} vs brute {want:?} at {q:?}"
            );
        }
    }

    #[test]
    fn query_far_outside_bounds() {
        let d = make_dir(&[(40.0, -3.0), (41.0, 2.0)]);
        let grid = SectorGrid::build(&d);
        // Far north-east of everything: sector 1 is closer.
        assert_eq!(grid.nearest(GeoPoint::new(60.0, 30.0)), Some(SectorId(1)));
        // Far south-west: sector 0.
        assert_eq!(grid.nearest(GeoPoint::new(20.0, -30.0)), Some(SectorId(0)));
    }

    #[test]
    fn distance_reported_matches_point_distance() {
        let d = make_dir(&[(40.0, -3.0)]);
        let grid = SectorGrid::build(&d);
        let q = GeoPoint::new(40.2, -3.1);
        let (_, dist) = grid.nearest_with_distance(q).unwrap();
        assert!((dist - q.distance_km(GeoPoint::new(40.0, -3.0))).abs() < 1e-12);
    }
}
