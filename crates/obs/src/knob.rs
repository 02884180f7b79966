//! The one reader of the workspace's `SE_*` environment knobs.
//!
//! Every knob — engine config, bench ladder, CI lever — is read through
//! [`knob`], [`knob_opt`] or [`knob_list`], with one rule: unset or empty
//! (after trimming) means the default, and any other value must parse with
//! the value type's `FromStr`, or the process panics with a message naming
//! the variable, the value and what the type accepts. A typo such as
//! `SE_DURABILITY=wall` therefore stops the run instead of quietly running
//! a different configuration.
//!
//! The environment is read again on every call (nothing is cached here),
//! so a `set_var` between two deployments takes effect on the second.
//! [`parse_knob`] is the pure parse step, testable without touching the
//! process-global environment.

use std::env::VarError;
use std::fmt::Display;
use std::str::FromStr;

/// Reads knob `name`: `None` when unset or empty, the parsed value
/// otherwise. Panics on a value `T::from_str` rejects.
#[track_caller]
pub fn knob_opt<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: Display,
{
    match parse_knob(name, raw(name).as_deref()) {
        Ok(value) => value,
        Err(msg) => panic!("{msg}"),
    }
}

/// Reads knob `name`, or `default` when unset or empty. Panics on a value
/// `T::from_str` rejects.
#[track_caller]
pub fn knob<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: Display,
{
    knob_opt(name).unwrap_or(default)
}

/// Reads knob `name` as a comma-separated list (empty items are skipped),
/// or `default` when unset or empty. Panics if any item is rejected.
#[track_caller]
pub fn knob_list<T: FromStr>(name: &str, default: Vec<T>) -> Vec<T>
where
    T::Err: Display,
{
    match parse_knob_list(name, raw(name).as_deref()) {
        Ok(list) => list.unwrap_or(default),
        Err(msg) => panic!("{msg}"),
    }
}

/// Parses one raw knob value: `Ok(None)` when `raw` is absent or blank,
/// `Err` with the message [`knob_opt`] panics with when it does not parse.
pub fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(value) = raw.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    let ty = std::any::type_name::<T>();
    // `T`'s name without module paths: `NonZero<usize>`, `ObsMode`.
    let (path, generics) = ty.split_at(ty.find('<').unwrap_or(ty.len()));
    let ty = path.rsplit("::").next().unwrap_or(path);
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("{name}={value:?} is not a valid {ty}{generics}: {e}"))
}

/// [`parse_knob`] for a comma-separated list; a list with no non-empty
/// item counts as unset.
fn parse_knob_list<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<Vec<T>>, String>
where
    T::Err: Display,
{
    let items: Vec<T> = raw
        .unwrap_or("")
        .split(',')
        .filter_map(|item| parse_knob(name, Some(item)).transpose())
        .collect::<Result<_, _>>()?;
    Ok((!items.is_empty()).then_some(items))
}

/// A yes/no knob: `1`/`true` or `0`/`false`, case-insensitively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub bool);

impl FromStr for Flag {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Flag, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "1" | "true" => Ok(Flag(true)),
            "0" | "false" => Ok(Flag(false)),
            _ => Err("expected 0|1 (or false|true)"),
        }
    }
}

/// The raw value of `name`; a non-Unicode value is rejected like junk.
#[track_caller]
fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(v)) => panic!("{name}={v:?} is not valid Unicode"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;
    use std::num::NonZeroUsize;
    use std::path::PathBuf;

    fn nz(n: usize) -> Option<NonZeroUsize> {
        NonZeroUsize::new(n)
    }

    #[test]
    fn spellings_in_use_keep_their_values_and_blank_is_unset() {
        use ObsMode::{Metrics, Off, Trace};
        let obs = [
            ("off", Off),
            ("0", Off),
            ("none", Off),
            (" Metrics ", Metrics),
            ("trace", Trace),
        ];
        for (raw, want) in obs {
            assert_eq!(parse_knob("SE_OBS", Some(raw)), Ok(Some(want)), "{raw:?}");
        }
        for (raw, want) in [("0", false), ("1", true), ("TRUE", true)] {
            assert_eq!(
                parse_knob("SE_SERVICE_SLEEP", Some(raw)),
                Ok(Some(Flag(want)))
            );
        }
        for (raw, want) in [("4", nz(4)), (" 40 ", nz(40)), ("  ", None)] {
            assert_eq!(parse_knob("SE_EXEC_THREADS", Some(raw)), Ok(want));
        }
        for (raw, want) in [("0.05", 0.05), ("4.0", 4.0), ("0", 0.0)] {
            assert_eq!(parse_knob("SE_TIME_SCALE", Some(raw)), Ok(Some(want)));
        }
        assert_eq!(parse_knob("SE_OBS_SNAPSHOT_MS", Some("0")), Ok(Some(0u64)));
        let dir = parse_knob("SE_OBS_DIR", Some(" o "));
        assert_eq!(dir, Ok(Some(PathBuf::from("o"))));
        for raw in [None, Some(""), Some(" \t")] {
            assert_eq!(parse_knob::<ObsMode>("SE_OBS", raw), Ok(None));
        }
        for (raw, want) in [("1,4", Some(vec![1, 4])), ("64, 512,", Some(vec![64, 512]))] {
            let want = want.map(|v| v.into_iter().map(|n| nz(n).unwrap()).collect());
            assert_eq!(parse_knob_list("SE_SWEEP_DEPTHS", Some(raw)), Ok(want));
        }
        for raw in [None, Some(""), Some(" , ")] {
            assert_eq!(
                parse_knob_list::<NonZeroUsize>("SE_SWEEP_KEYS", raw),
                Ok(None)
            );
        }
    }

    #[test]
    fn junk_and_zero_counts_are_rejected_by_name() {
        let rejected = [
            parse_knob::<ObsMode>("SE_OBS", Some("metric")).map(drop),
            parse_knob::<Flag>("SE_SERVICE_SLEEP", Some("yes")).map(drop),
            parse_knob::<NonZeroUsize>("SE_EXEC_THREADS", Some("0")).map(drop),
            parse_knob::<NonZeroUsize>("SE_PIPELINE_DEPTH", Some("three")).map(drop),
            parse_knob::<f64>("SE_TIME_SCALE", Some("fast")).map(drop),
            parse_knob_list::<NonZeroUsize>("SE_SWEEP_DEPTHS", Some("1,0")).map(drop),
        ];
        // A want ending in ": " is followed by std's own parse error.
        let want = [
            "SE_OBS=\"metric\" is not a valid ObsMode: expected off|metrics|trace",
            "SE_SERVICE_SLEEP=\"yes\" is not a valid Flag: expected 0|1 (or false|true)",
            "SE_EXEC_THREADS=\"0\" is not a valid NonZero<usize>: ",
            "SE_PIPELINE_DEPTH=\"three\" is not a valid NonZero<usize>: ",
            "SE_TIME_SCALE=\"fast\" is not a valid f64: ",
            "SE_SWEEP_DEPTHS=\"0\" is not a valid NonZero<usize>: ",
        ];
        for (got, want) in rejected.into_iter().zip(want) {
            let got = got.unwrap_err();
            let std_error = want.ends_with(": ") && got.starts_with(want);
            assert!(got == want || std_error, "{got:?} vs {want:?}");
        }
    }
}
