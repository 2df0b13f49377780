//! The fault-specification grammar behind `--faults`.
//!
//! A spec is a comma-separated list of `class` or `class=rate` terms, or
//! the word `all` (optionally `all=rate`) enabling every class at once.
//! Rates are per-line probabilities; a class without an explicit rate runs
//! at [`DEFAULT_RATE`]. `truncate` is special-cased by the injector to at
//! most one cut per file — its rate only gates whether it fires. A rate of
//! 0 turns a class off, so `dup=0` is a spec that injects nothing: the
//! injector then rewrites each log byte for byte.

use core::fmt;
use std::str::FromStr;

/// Per-line fault probability when a spec term omits `=rate`.
pub const DEFAULT_RATE: f64 = 0.001;

/// One class of injectable corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Cut the file mid-record: the tail of the last line is dropped, as
    /// if the writer died or the disk filled. At most one cut per file.
    Truncate,
    /// Flip a bit in one field of the line (a digit becomes a letter).
    BitFlip,
    /// Replace the whole line with non-TSV garbage.
    Garbage,
    /// Emit the line twice, back to back.
    Duplicate,
    /// Swap the line with its successor, breaking timestamp order.
    Reorder,
    /// Terminate the line with `\r\n` instead of `\n` (tolerated by the
    /// reader — this class should quarantine nothing).
    Crlf,
    /// Perturb one IMEI digit so the checksum no longer validates —
    /// modelling a device-DB row deleted after the log was written.
    BadImei,
    /// Push the timestamp years past the observation window.
    Skew,
}

impl FaultClass {
    /// Every class, in injection-priority order (earlier classes claim
    /// victim lines first).
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Truncate,
        FaultClass::BitFlip,
        FaultClass::Garbage,
        FaultClass::BadImei,
        FaultClass::Skew,
        FaultClass::Duplicate,
        FaultClass::Reorder,
        FaultClass::Crlf,
    ];

    /// The spec-grammar name of this class.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Truncate => "truncate",
            FaultClass::BitFlip => "bitflip",
            FaultClass::Garbage => "garbage",
            FaultClass::Duplicate => "dup",
            FaultClass::Reorder => "reorder",
            FaultClass::Crlf => "crlf",
            FaultClass::BadImei => "badimei",
            FaultClass::Skew => "skew",
        }
    }

    /// Stable dense index for count arrays: the class's place in
    /// [`FaultClass::ALL`].
    pub const fn index(self) -> usize {
        match self {
            FaultClass::Truncate => 0,
            FaultClass::BitFlip => 1,
            FaultClass::Garbage => 2,
            FaultClass::BadImei => 3,
            FaultClass::Skew => 4,
            FaultClass::Duplicate => 5,
            FaultClass::Reorder => 6,
            FaultClass::Crlf => 7,
        }
    }

    fn parse(s: &str) -> Option<FaultClass> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which classes to inject, and at what per-line rate (0 = off).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    rates: [f64; 8],
}

impl FaultSpec {
    /// The empty spec — nothing enabled.
    pub fn none() -> FaultSpec {
        FaultSpec { rates: [0.0; 8] }
    }

    /// Every class enabled at `rate`.
    pub fn all(rate: f64) -> FaultSpec {
        FaultSpec { rates: [rate; 8] }
    }

    /// A single class enabled at `rate`.
    pub fn single(class: FaultClass, rate: f64) -> FaultSpec {
        let mut spec = FaultSpec::none();
        spec.set(class, rate);
        spec
    }

    /// Enables `class` at `rate` (0 disables it).
    pub fn set(&mut self, class: FaultClass, rate: f64) {
        self.rates[class.index()] = rate;
    }

    /// The configured rate for `class` (0 = off).
    pub fn rate(&self, class: FaultClass) -> f64 {
        self.rates[class.index()]
    }

    /// `true` if no class is enabled.
    pub fn is_empty(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// The enabled classes in injection-priority order.
    pub fn classes(&self) -> impl Iterator<Item = FaultClass> + '_ {
        FaultClass::ALL
            .into_iter()
            .filter(move |c| self.rate(*c) > 0.0)
    }
}

/// A `--faults` term that did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFaultSpecError(String);

impl fmt::Display for ParseFaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault spec term {:?} (expected `all`, or one of {} with optional `=rate`)",
            self.0,
            FaultClass::ALL.map(FaultClass::name).join("/"),
        )
    }
}

impl std::error::Error for ParseFaultSpecError {}

impl FromStr for FaultSpec {
    type Err = ParseFaultSpecError;

    fn from_str(s: &str) -> Result<FaultSpec, ParseFaultSpecError> {
        let mut spec = FaultSpec::none();
        let mut terms = 0;
        for term in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            terms += 1;
            let (name, rate) = match term.split_once('=') {
                Some((name, rate)) => {
                    let rate: f64 = rate
                        .trim()
                        .parse()
                        .map_err(|_| ParseFaultSpecError(term.to_string()))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(ParseFaultSpecError(term.to_string()));
                    }
                    (name.trim(), rate)
                }
                None => (term, DEFAULT_RATE),
            };
            if name == "all" {
                for class in FaultClass::ALL {
                    spec.set(class, rate);
                }
            } else {
                let class =
                    FaultClass::parse(name).ok_or_else(|| ParseFaultSpecError(term.to_string()))?;
                spec.set(class, rate);
            }
        }
        if terms == 0 {
            return Err(ParseFaultSpecError(s.to_string()));
        }
        Ok(spec)
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("all=0");
        }
        let mut first = true;
        for class in self.classes() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{}={}", class, self.rate(class))?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_and_singles_and_rates() {
        let spec: FaultSpec = "all".parse().unwrap();
        for class in FaultClass::ALL {
            assert_eq!(spec.rate(class), DEFAULT_RATE, "{class}");
        }
        let spec: FaultSpec = "all=0.02".parse().unwrap();
        assert_eq!(spec.rate(FaultClass::Reorder), 0.02);

        let spec: FaultSpec = "bitflip=0.01, dup, skew=0.005".parse().unwrap();
        assert_eq!(spec.rate(FaultClass::BitFlip), 0.01);
        assert_eq!(spec.rate(FaultClass::Duplicate), DEFAULT_RATE);
        assert_eq!(spec.rate(FaultClass::Skew), 0.005);
        assert_eq!(spec.rate(FaultClass::Garbage), 0.0);
        assert_eq!(spec.classes().count(), 3);

        let spec: FaultSpec = "dup=0".parse().unwrap();
        assert!(spec.is_empty());
    }

    #[test]
    fn rejects_unknown_classes_and_bad_rates() {
        assert!("frobnicate".parse::<FaultSpec>().is_err());
        assert!("bitflip=1.5".parse::<FaultSpec>().is_err());
        assert!("bitflip=x".parse::<FaultSpec>().is_err());
        assert!("".parse::<FaultSpec>().is_err());
        assert!(" , ".parse::<FaultSpec>().is_err());
        let msg = "zap".parse::<FaultSpec>().unwrap_err().to_string();
        assert!(msg.contains("zap"), "{msg}");
        assert!(msg.contains("bitflip"), "{msg}");
    }

    #[test]
    fn display_round_trips() {
        for text in ["dup=0.01,crlf=0.5", "dup=0"] {
            let spec: FaultSpec = text.parse().unwrap();
            let again: FaultSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again);
        }
    }

    #[test]
    fn class_indices_are_dense_and_stable() {
        for (i, class) in FaultClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
