//! IMEI and TAC types.
//!
//! An IMEI is 15 decimal digits: an 8-digit Type Allocation Code (TAC)
//! identifying the device model, a 6-digit per-unit serial, and a Luhn check
//! digit. The operator's device database keys on the TAC, which is exactly
//! how the paper maps device models to traffic.

use core::fmt;
use core::str::FromStr;

/// Errors produced when constructing or parsing an [`Imei`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImeiError {
    /// The string was not exactly 15 ASCII digits.
    Malformed,
    /// The Luhn check digit did not match.
    BadCheckDigit,
    /// A numeric component was out of range (TAC ≥ 10⁸ or serial ≥ 10⁶).
    OutOfRange,
}

impl fmt::Display for ImeiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImeiError::Malformed => write!(f, "IMEI must be exactly 15 decimal digits"),
            ImeiError::BadCheckDigit => write!(f, "IMEI Luhn check digit mismatch"),
            ImeiError::OutOfRange => write!(f, "TAC or serial component out of range"),
        }
    }
}

impl std::error::Error for ImeiError {}

/// An 8-digit Type Allocation Code.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tac(u32);

impl Tac {
    /// Creates a TAC from its numeric value.
    ///
    /// # Errors
    /// Returns [`ImeiError::OutOfRange`] if `value >= 10^8`.
    pub fn new(value: u32) -> Result<Tac, ImeiError> {
        if value >= 100_000_000 {
            Err(ImeiError::OutOfRange)
        } else {
            Ok(Tac(value))
        }
    }

    /// The numeric TAC value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Tac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TAC({:08})", self.0)
    }
}

impl fmt::Display for Tac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08}", self.0)
    }
}

/// A validated 15-digit IMEI.
///
/// # Examples
/// ```
/// use wearscope_devicedb::{Imei, Tac};
/// let tac = Tac::new(35_411_711).unwrap();
/// let imei = Imei::from_parts(tac, 1234).unwrap();
/// assert_eq!(imei.tac(), tac);
/// assert_eq!(imei.serial(), 1234);
/// let s = imei.to_string();
/// assert_eq!(s.len(), 15);
/// assert_eq!(s.parse::<Imei>().unwrap(), imei);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Imei(u64);

impl Imei {
    /// Builds an IMEI from TAC and serial, computing the Luhn check digit.
    ///
    /// # Errors
    /// Returns [`ImeiError::OutOfRange`] if `serial >= 10^6`.
    pub fn from_parts(tac: Tac, serial: u32) -> Result<Imei, ImeiError> {
        if serial >= 1_000_000 {
            return Err(ImeiError::OutOfRange);
        }
        let body = tac.0 as u64 * 1_000_000 + serial as u64; // 14 digits
        let check = luhn_check_digit(body);
        Ok(Imei(body * 10 + check as u64))
    }

    /// Interprets a raw 15-digit value as an IMEI, validating the check digit.
    ///
    /// # Errors
    /// [`ImeiError::OutOfRange`] for values with more than 15 digits,
    /// [`ImeiError::BadCheckDigit`] if the Luhn digit is inconsistent.
    pub fn from_u64(value: u64) -> Result<Imei, ImeiError> {
        if value >= 1_000_000_000_000_000 {
            return Err(ImeiError::OutOfRange);
        }
        if luhn_check_digit(value / 10) as u64 != value % 10 {
            return Err(ImeiError::BadCheckDigit);
        }
        Ok(Imei(value))
    }

    /// The raw 15-digit value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The 8-digit TAC prefix.
    #[inline]
    pub const fn tac(self) -> Tac {
        Tac((self.0 / 10_000_000) as u32)
    }

    /// The 6-digit serial.
    #[inline]
    pub const fn serial(self) -> u32 {
        ((self.0 / 10) % 1_000_000) as u32
    }
}

impl FromStr for Imei {
    type Err = ImeiError;

    fn from_str(s: &str) -> Result<Imei, ImeiError> {
        if s.len() != 15 || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ImeiError::Malformed);
        }
        let value: u64 = s.parse().map_err(|_| ImeiError::Malformed)?;
        Imei::from_u64(value)
    }
}

impl fmt::Debug for Imei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IMEI({:015})", self.0)
    }
}

impl fmt::Display for Imei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:015}", self.0)
    }
}

/// Computes the Luhn check digit for a 14-digit IMEI body.
///
/// Digits are numbered from the right of the *body*; the standard doubles
/// every second digit starting with the rightmost (which sits in an even
/// position of the final 15-digit string).
fn luhn_check_digit(body: u64) -> u8 {
    let mut sum: u64 = 0;
    let mut n = body;
    let mut double = true; // rightmost body digit is doubled
    for _ in 0..14 {
        let d = n % 10;
        n /= 10;
        let v = if double { d * 2 } else { d };
        sum += if v > 9 { v - 9 } else { v };
        double = !double;
    }
    ((10 - (sum % 10)) % 10) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_luhn_vector() {
        // Classic reference IMEI: body 49015420323751 → check digit 8.
        assert_eq!(luhn_check_digit(49_015_420_323_751), 8);
        let imei = Imei::from_u64(490_154_203_237_518).unwrap();
        assert_eq!(imei.as_u64() % 10, 8);
        assert_eq!(imei.tac().value(), 49_015_420);
        assert_eq!(imei.serial(), 323_751);
    }

    #[test]
    fn from_parts_roundtrips_fields() {
        let tac = Tac::new(35_000_001).unwrap();
        for serial in [0u32, 1, 999_999, 123_456] {
            let imei = Imei::from_parts(tac, serial).unwrap();
            assert_eq!(imei.tac(), tac);
            assert_eq!(imei.serial(), serial);
            // Value re-validates.
            assert_eq!(Imei::from_u64(imei.as_u64()).unwrap(), imei);
        }
    }

    #[test]
    fn bad_check_digit_rejected() {
        let good = Imei::from_parts(Tac::new(35_000_001).unwrap(), 42).unwrap();
        let tampered = good.as_u64() ^ 1; // flip the low bit of the check digit
        assert_eq!(Imei::from_u64(tampered), Err(ImeiError::BadCheckDigit));
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(Tac::new(100_000_000).unwrap_err(), ImeiError::OutOfRange);
        let tac = Tac::new(35_000_001).unwrap();
        assert_eq!(
            Imei::from_parts(tac, 1_000_000).unwrap_err(),
            ImeiError::OutOfRange
        );
        assert_eq!(
            Imei::from_u64(1_000_000_000_000_000).unwrap_err(),
            ImeiError::OutOfRange
        );
    }

    #[test]
    fn parse_and_display() {
        let imei = Imei::from_parts(Tac::new(1).unwrap(), 7).unwrap();
        let s = imei.to_string();
        assert_eq!(s.len(), 15);
        assert!(s.starts_with("00000001000007"));
        assert_eq!(s.parse::<Imei>().unwrap(), imei);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!("123".parse::<Imei>(), Err(ImeiError::Malformed));
        assert_eq!("49015420323751x".parse::<Imei>(), Err(ImeiError::Malformed));
        assert_eq!(
            "4901542032375189".parse::<Imei>(),
            Err(ImeiError::Malformed)
        );
    }

    #[test]
    fn check_digit_detects_single_digit_errors() {
        // Luhn's guarantee: any single-digit substitution invalidates.
        let imei = Imei::from_parts(Tac::new(35_411_711).unwrap(), 555_123).unwrap();
        let s = imei.to_string();
        for pos in 0..15 {
            for d in b'0'..=b'9' {
                let mut bytes = s.clone().into_bytes();
                if bytes[pos] == d {
                    continue;
                }
                bytes[pos] = d;
                let mutated = String::from_utf8(bytes).unwrap();
                assert!(
                    mutated.parse::<Imei>().is_err(),
                    "substitution at {pos} to {} not caught",
                    d as char
                );
            }
        }
    }

    #[test]
    fn tac_display_pads() {
        assert_eq!(Tac::new(42).unwrap().to_string(), "00000042");
    }
}
