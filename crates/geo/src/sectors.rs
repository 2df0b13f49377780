//! Antenna sectors and the sector directory (the operator's cell plan).

use core::fmt;
use std::io::{self, BufRead, Write};

use crate::point::GeoPoint;

/// Identifier of an antenna sector, unique within one deployment.
///
/// In the paper's infrastructure the MME logs the *sector* (antenna/tower) a
/// subscriber is attached to; these ids are the join key between MME records
/// and sector coordinates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SectorId(pub u32);

impl SectorId {
    /// The raw numeric id.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for SectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sec#{}", self.0)
    }
}

impl fmt::Display for SectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One deployed antenna sector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sector {
    /// The sector's identifier (its index in the directory).
    pub id: SectorId,
    /// Antenna location.
    pub location: GeoPoint,
    /// Index of the city this sector serves, or `None` for rural coverage.
    pub city: Option<u16>,
}

/// The full set of deployed sectors: the id → location mapping shared by the
/// network simulator (which stamps MME records with sector ids) and the
/// analysis pipeline (which turns sector ids back into kilometres).
///
/// Sector ids are dense: `SectorId(i)` is the `i`-th sector.
#[derive(Clone, Debug, Default)]
pub struct SectorDirectory {
    sectors: Vec<Sector>,
}

impl SectorDirectory {
    /// An empty directory.
    pub fn new() -> SectorDirectory {
        SectorDirectory::default()
    }

    /// Adds a sector and returns its id.
    pub fn push(&mut self, location: GeoPoint, city: Option<u16>) -> SectorId {
        let id = SectorId(self.sectors.len() as u32);
        self.sectors.push(Sector { id, location, city });
        id
    }

    /// Number of sectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.sectors.len()
    }

    /// `true` if no sectors are deployed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sectors.is_empty()
    }

    /// The sector with id `id`, if deployed.
    #[inline]
    pub fn get(&self, id: SectorId) -> Option<&Sector> {
        self.sectors.get(id.0 as usize)
    }

    /// The location of sector `id`, if deployed.
    #[inline]
    pub fn location(&self, id: SectorId) -> Option<GeoPoint> {
        self.get(id).map(|s| s.location)
    }

    /// Distance in km between two sectors; `None` if either is unknown.
    pub fn distance_km(&self, a: SectorId, b: SectorId) -> Option<f64> {
        Some(self.location(a)?.distance_km(self.location(b)?))
    }

    /// Iterates over all sectors in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Sector> {
        self.sectors.iter()
    }

    /// The maximum pairwise distance (km) among a set of sector ids — the
    /// paper's *max displacement* for one user-day. Unknown ids are skipped.
    ///
    /// Quadratic in the number of *distinct* sectors, which the MME analysis
    /// keeps small (a user touches a handful of sectors per day).
    pub fn max_displacement_km(&self, ids: &[SectorId]) -> f64 {
        let pts: Vec<GeoPoint> = ids.iter().filter_map(|&id| self.location(id)).collect();
        let mut best: f64 = 0.0;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                best = best.max(pts[i].distance_km(pts[j]));
            }
        }
        best
    }
}

impl SectorDirectory {
    /// Writes the directory as TSV lines `id\tlat\tlon\tcity` (city empty
    /// for rural sectors) — the persisted "cell plan" the analysis loads.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_tsv<W: Write>(&self, mut w: W) -> io::Result<()> {
        for s in &self.sectors {
            let city = s.city.map(|c| c.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{}\t{:.6}\t{:.6}\t{}",
                s.id.raw(),
                s.location.lat(),
                s.location.lon(),
                city
            )?;
        }
        Ok(())
    }

    /// Reads a directory written by [`SectorDirectory::write_tsv`].
    ///
    /// # Errors
    /// Fails on I/O errors or malformed lines; ids must be dense and in
    /// order (the write format guarantees this), and coordinates finite
    /// with |lat| ≤ 90 and |lon| ≤ 180.
    pub fn read_tsv<R: BufRead>(r: R) -> io::Result<SectorDirectory> {
        let mut dir = SectorDirectory::new();
        for (line_no, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let bad = || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("sectors.tsv line {}: malformed", line_no + 1),
                )
            };
            let mut fields = line.split('\t');
            let id: u32 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let lat: f64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let lon: f64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            if !(lat.is_finite() && lon.is_finite() && lat.abs() <= 90.0 && lon.abs() <= 180.0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("sectors.tsv line {}: bad coordinate", line_no + 1),
                ));
            }
            let city_raw = fields.next().ok_or_else(bad)?;
            let city = if city_raw.is_empty() {
                None
            } else {
                Some(city_raw.parse().map_err(|_| bad())?)
            };
            if id as usize != dir.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("sectors.tsv line {}: non-dense id {}", line_no + 1, id),
                ));
            }
            dir.push(GeoPoint::new(lat, lon), city);
        }
        Ok(dir)
    }
}

impl<'a> IntoIterator for &'a SectorDirectory {
    type Item = &'a Sector;
    type IntoIter = std::slice::Iter<'a, Sector>;
    fn into_iter(self) -> Self::IntoIter {
        self.sectors.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir3() -> SectorDirectory {
        let mut d = SectorDirectory::new();
        d.push(GeoPoint::new(40.0, -3.0), Some(0));
        d.push(GeoPoint::new(40.1, -3.0), Some(0));
        d.push(GeoPoint::new(41.0, 2.0), None);
        d
    }

    #[test]
    fn push_assigns_dense_ids() {
        let d = dir3();
        assert_eq!(d.len(), 3);
        for (i, s) in d.iter().enumerate() {
            assert_eq!(s.id, SectorId(i as u32));
        }
    }

    #[test]
    fn lookup() {
        let d = dir3();
        assert!(d.get(SectorId(2)).is_some());
        assert!(d.get(SectorId(3)).is_none());
        assert_eq!(d.location(SectorId(0)), Some(GeoPoint::new(40.0, -3.0)));
    }

    #[test]
    fn pairwise_distance() {
        let d = dir3();
        let km = d.distance_km(SectorId(0), SectorId(1)).unwrap();
        assert!((km - 11.1).abs() < 0.2, "got {km}");
        assert!(d.distance_km(SectorId(0), SectorId(9)).is_none());
    }

    #[test]
    fn max_displacement_basics() {
        let d = dir3();
        assert_eq!(d.max_displacement_km(&[]), 0.0);
        assert_eq!(d.max_displacement_km(&[SectorId(1)]), 0.0);
        let all = [SectorId(0), SectorId(1), SectorId(2)];
        let md = d.max_displacement_km(&all);
        // Must equal the largest pairwise distance.
        let d02 = d.distance_km(SectorId(0), SectorId(2)).unwrap();
        let d12 = d.distance_km(SectorId(1), SectorId(2)).unwrap();
        let d01 = d.distance_km(SectorId(0), SectorId(1)).unwrap();
        assert_eq!(md, d02.max(d12).max(d01));
    }

    #[test]
    fn max_displacement_skips_unknown() {
        let d = dir3();
        let md = d.max_displacement_km(&[SectorId(0), SectorId(99)]);
        assert_eq!(md, 0.0);
    }

    #[test]
    fn tsv_roundtrip() {
        let d = dir3();
        let mut buf = Vec::new();
        d.write_tsv(&mut buf).unwrap();
        let back = SectorDirectory::read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), d.len());
        for (a, b) in d.iter().zip(back.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.city, b.city);
            assert!(a.location.distance_km(b.location) < 0.001);
        }
    }

    #[test]
    fn tsv_rejects_garbage_and_non_dense_ids() {
        assert!(SectorDirectory::read_tsv("not a record".as_bytes()).is_err());
        assert!(SectorDirectory::read_tsv("5\t40.0\t-3.0\t".as_bytes()).is_err());
        // Blank lines tolerated.
        let ok = SectorDirectory::read_tsv("\n0\t40.0\t-3.0\t2\n\n".as_bytes()).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok.get(SectorId(0)).unwrap().city, Some(2));
    }

    #[test]
    fn tsv_rejects_bad_coordinates() {
        for (lat, lon) in [
            ("nan", "-3.0"),
            ("40.0", "NaN"),
            ("inf", "-3.0"),
            ("40.0", "-inf"),
            ("999", "-3.0"),
            ("-90.5", "-3.0"),
            ("40.0", "180.1"),
        ] {
            let text = format!("0\t40.0\t-3.0\t\n1\t{lat}\t{lon}\t\n");
            let err = SectorDirectory::read_tsv(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                "sectors.tsv line 2: bad coordinate",
                "{lat} {lon}"
            );
        }
        let edges = SectorDirectory::read_tsv("0\t-90\t180\t\n1\t90\t-180\t\n".as_bytes());
        assert_eq!(edges.unwrap().len(), 2);
    }

    #[test]
    fn empty_directory() {
        let d = SectorDirectory::new();
        assert!(d.is_empty());
        assert_eq!(d.iter().count(), 0);
    }
}
