//! WGS-84 points and great-circle distance.

use core::fmt;

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 latitude/longitude pair, in degrees.
///
/// Latitude is clamped to `[-90, 90]` and longitude normalized to
/// `(-180, 180]` on construction, so every `GeoPoint` is valid.
///
/// # Examples
/// ```
/// use wearscope_geo::GeoPoint;
/// let madrid = GeoPoint::new(40.4168, -3.7038);
/// let barcelona = GeoPoint::new(41.3874, 2.1686);
/// let d = madrid.distance_km(barcelona);
/// assert!((d - 505.0).abs() < 5.0, "got {d}");
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude and wrapping longitude.
    ///
    /// # Panics
    /// Panics if either coordinate is NaN.
    pub fn new(lat_deg: f64, lon_deg: f64) -> GeoPoint {
        assert!(!lat_deg.is_nan() && !lon_deg.is_nan(), "NaN coordinate");
        let lat = lat_deg.clamp(-90.0, 90.0);
        let mut lon = (lon_deg + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        GeoPoint {
            lat_deg: lat,
            lon_deg: lon,
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    #[inline]
    pub fn lat(self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees, in `(-180, 180]`.
    #[inline]
    pub fn lon(self) -> f64 {
        self.lon_deg
    }

    /// Great-circle (haversine) distance to `other`, in kilometres.
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        let phi1 = self.lat_deg.to_radians();
        let phi2 = other.lat_deg.to_radians();
        let dphi = (other.lat_deg - self.lat_deg).to_radians();
        let dlambda = (other.lon_deg - self.lon_deg).to_radians();
        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// The point reached by moving `east_km` east and `north_km` north on the
    /// local tangent plane. Accurate for the tens-of-km offsets used when
    /// placing sectors and homes inside a city.
    pub fn offset_km(self, east_km: f64, north_km: f64) -> GeoPoint {
        let dlat = north_km / EARTH_RADIUS_KM * (180.0 / core::f64::consts::PI);
        let coslat = self.lat_deg.to_radians().cos().max(1e-6);
        let dlon = east_km / (EARTH_RADIUS_KM * coslat) * (180.0 / core::f64::consts::PI);
        GeoPoint::new(self.lat_deg + dlat, self.lon_deg + dlon)
    }
}

impl Eq for GeoPoint {}

impl fmt::Debug for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat_deg, self.lon_deg)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(48.8566, 2.3522);
        assert_eq!(p.distance_km(p), 0.0);
    }

    #[test]
    fn known_city_distances() {
        // Paris ↔ London ≈ 344 km.
        let paris = GeoPoint::new(48.8566, 2.3522);
        let london = GeoPoint::new(51.5074, -0.1278);
        let d = paris.distance_km(london);
        assert!((d - 344.0).abs() < 4.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(40.0, -3.0);
        let b = GeoPoint::new(41.5, 2.0);
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
    }

    #[test]
    fn latitude_clamped() {
        assert_eq!(GeoPoint::new(95.0, 0.0).lat(), 90.0);
        assert_eq!(GeoPoint::new(-95.0, 0.0).lat(), -90.0);
    }

    #[test]
    fn longitude_wrapped() {
        assert_eq!(GeoPoint::new(0.0, 190.0).lon(), -170.0);
        assert_eq!(GeoPoint::new(0.0, -190.0).lon(), 170.0);
        assert_eq!(GeoPoint::new(0.0, 180.0).lon(), 180.0);
        assert_eq!(GeoPoint::new(0.0, -180.0).lon(), 180.0);
        assert_eq!(GeoPoint::new(0.0, 540.0).lon(), 180.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = GeoPoint::new(f64::NAN, 0.0);
    }

    #[test]
    fn offset_roundtrip_distance() {
        let p = GeoPoint::new(45.0, 10.0);
        let q = p.offset_km(3.0, 4.0);
        let d = p.distance_km(q);
        assert!((d - 5.0).abs() < 0.02, "expected ~5 km, got {d}");
    }

    #[test]
    fn offset_directions() {
        let p = GeoPoint::new(45.0, 10.0);
        assert!(p.offset_km(0.0, 1.0).lat() > p.lat());
        assert!(p.offset_km(1.0, 0.0).lon() > p.lon());
        assert!(p.offset_km(0.0, -1.0).lat() < p.lat());
    }
}
