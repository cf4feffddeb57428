//! Minimal dependency-free argument parsing.
//!
//! The CLI's grammar is `coreda-cli <command> [--flag value]…`; this
//! module turns the raw argv into a [`Parsed`] bag with typed accessors
//! and precise error messages. (No external parser: the grammar is small
//! and the approved dependency list is smaller.)

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parsed command line: the subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    command: String,
    options: HashMap<String, String>,
}

impl Parsed {
    /// Parses argv (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when no subcommand is present, an option has
    /// no value or is given twice, or a positional argument appears after
    /// the subcommand.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        let mut options = HashMap::new();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedPositional(arg.clone()))?
                .to_owned();
            let value = it.next().ok_or_else(|| ArgError::MissingValue(key.clone()))?;
            if options.contains_key(&key) {
                return Err(ArgError::DuplicateOption(key));
            }
            options.insert(key, value);
        }
        Ok(Parsed { command, options })
    }

    /// The subcommand.
    #[must_use]
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A string option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.get_parsed_opt(key)?.unwrap_or(default))
    }

    /// A parsed option without a default: `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable.
    pub fn get_parsed_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError::BadValue { key: key.to_owned(), value: v.to_owned() })
            })
            .transpose()
    }

    /// A whole-seconds option in milliseconds, `None` when absent. The
    /// conversion is checked: a value whose milliseconds overflow `u64`
    /// is an error, never a wrapped or saturated horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable and
    /// [`ArgError::OutOfRange`] when it does not fit in milliseconds.
    pub fn get_secs_in_millis(&self, key: &str) -> Result<Option<u64>, ArgError> {
        let Some(secs) = self.get_parsed_opt::<u64>(key)? else {
            return Ok(None);
        };
        secs.checked_mul(1000).map(Some).ok_or_else(|| self.out_of_range(key, PAST_THE_CLOCK))
    }

    /// The [`ArgError::OutOfRange`] error for option `key`'s value,
    /// refused because of `limit`.
    #[must_use]
    pub fn out_of_range(&self, key: &str, limit: &'static str) -> ArgError {
        ArgError::OutOfRange { key: key.to_owned(), value: self.get_or(key, "").to_owned(), limit }
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingOption`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::MissingOption(key.to_owned()))
    }

    /// Checks that every option given is one of `accepted`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] for the (alphabetically first)
    /// option outside `accepted`.
    pub fn check_options(&self, accepted: &[&str]) -> Result<(), ArgError> {
        match self.options.keys().filter(|k| !accepted.contains(&k.as_str())).min() {
            Some(key) => Err(ArgError::UnknownOption(key.clone())),
            None => Ok(()),
        }
    }
}

/// The [`ArgError::OutOfRange`] limit of a time option whose
/// milliseconds do not fit the simulated clock's `u64`.
pub const PAST_THE_CLOCK: &str = "its milliseconds overflow the simulated clock";

/// Argument errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// `--key` without a value.
    MissingValue(String),
    /// A required option is absent.
    MissingOption(String),
    /// An option's value failed to parse.
    BadValue {
        /// Option name.
        key: String,
        /// The offending value.
        value: String,
    },
    /// An option's value parsed but is past what the command accepts.
    OutOfRange {
        /// Option name.
        key: String,
        /// The offending value.
        value: String,
        /// The limit it is past, e.g. [`PAST_THE_CLOCK`].
        limit: &'static str,
    },
    /// A bare word where an option was expected.
    UnexpectedPositional(String),
    /// The same `--key` given more than once.
    DuplicateOption(String),
    /// A `--key` the command does not accept.
    UnknownOption(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand (try 'help')"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgError::BadValue { key, value } => {
                write!(f, "option --{key} got unparseable value {value:?}")
            }
            ArgError::OutOfRange { key, value, limit } => {
                write!(f, "option --{key} got out-of-range value {value:?} ({limit})")
            }
            ArgError::UnexpectedPositional(a) => {
                write!(f, "unexpected argument {a:?} (options are --key value)")
            }
            ArgError::DuplicateOption(k) => write!(f, "option --{k} is given more than once"),
            ArgError::UnknownOption(k) => {
                write!(f, "unknown option --{k} for this command (try 'help')")
            }
        }
    }
}

impl Error for ArgError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::from_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_command_and_options() {
        let p = parse(&["simulate", "--adl", "tea", "--episodes", "5"]).unwrap();
        assert_eq!(p.command(), "simulate");
        assert_eq!(p.get("adl"), Some("tea"));
        assert_eq!(p.get_parsed("episodes", 0usize).unwrap(), 5);
        assert_eq!(p.get_or("profile", "moderate"), "moderate");
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
        assert_eq!(parse(&["--adl", "tea"]), Err(ArgError::MissingCommand));
    }

    #[test]
    fn dangling_option_rejected() {
        assert_eq!(
            parse(&["train", "--dataset"]),
            Err(ArgError::MissingValue("dataset".to_owned()))
        );
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(matches!(
            parse(&["train", "stray"]),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn duplicate_option_rejected() {
        let err = parse(&["scale", "--homes", "10", "--seed", "1", "--homes", "20"]).unwrap_err();
        assert_eq!(err, ArgError::DuplicateOption("homes".to_owned()));
        assert_eq!(err.to_string(), "option --homes is given more than once");
    }

    #[test]
    fn options_outside_the_accepted_set_are_rejected() {
        let p = parse(&["scale", "--homes", "10", "--zeta", "1", "--alpha", "2"]).unwrap();
        assert_eq!(p.check_options(&["homes", "zeta", "alpha"]), Ok(()));
        // The first unknown key in alphabetical order, whatever the map
        // order, so the message is deterministic.
        let err = p.check_options(&["homes"]).unwrap_err();
        assert_eq!(err, ArgError::UnknownOption("alpha".to_owned()));
        assert_eq!(err.to_string(), "unknown option --alpha for this command (try 'help')");
    }

    #[test]
    fn bad_numeric_value_reported() {
        let p = parse(&["simulate", "--episodes", "many"]).unwrap();
        assert!(matches!(
            p.get_parsed("episodes", 0usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn seconds_convert_to_milliseconds_with_checked_arithmetic() {
        let p = parse(&["trace", "--seconds", "900", "--at", "18446744073709552"]).unwrap();
        assert_eq!(p.get_secs_in_millis("seconds"), Ok(Some(900_000)));
        assert_eq!(p.get_secs_in_millis("absent"), Ok(None));
        let err = p.get_secs_in_millis("at").unwrap_err();
        assert_eq!(
            err,
            ArgError::OutOfRange {
                key: "at".to_owned(),
                value: "18446744073709552".to_owned(),
                limit: PAST_THE_CLOCK,
            }
        );
        assert!(err.to_string().starts_with("option --at got out-of-range value"), "{err}");
    }

    #[test]
    fn require_reports_missing() {
        let p = parse(&["train"]).unwrap();
        assert_eq!(p.require("dataset"), Err(ArgError::MissingOption("dataset".to_owned())));
    }

    #[test]
    fn errors_display_helpfully() {
        assert!(ArgError::MissingValue("x".into()).to_string().contains("--x"));
        assert!(ArgError::MissingCommand.to_string().contains("help"));
    }
}
