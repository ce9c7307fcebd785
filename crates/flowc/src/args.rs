//! A dependency-free command-line option parser.
//!
//! The workspace builds offline from vendored crates, so instead of `clap`
//! the CLI uses this small taker-style parser: each command pulls the
//! options it knows (`take_value`, `take_flag`, [`Args::take_positional`]),
//! then calls [`Args::finish`] which rejects anything left over, so typos
//! fail loudly instead of being ignored.  Every parse failure is a
//! [`CliError::Usage`], which is what picks the exit code.

use std::fmt;

/// Why a command failed.  The variant, never the message, picks the exit
/// code: `1` for a usage error, `2` for a runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A malformed, missing or contradictory option; nothing ran.
    Usage(String),
    /// A well-formed command that failed while running.
    Runtime(String),
}

impl CliError {
    pub fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Runtime(_) => 2,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (CliError::Usage(message) | CliError::Runtime(message)) = self;
        f.write_str(message)
    }
}

/// A plain message is a runtime failure (I/O, an unreadable design, …).
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

/// The argument list of one subcommand invocation.
pub struct Args {
    remaining: Vec<String>,
}

impl Args {
    pub fn new(args: Vec<String>) -> Self {
        Args { remaining: args }
    }

    /// Removes `--name <value>` (or `--name=value`) and returns the value.
    pub fn take_value(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let flag = format!("--{name}");
        let prefix = format!("--{name}=");
        for i in 0..self.remaining.len() {
            if let Some(value) = self.remaining[i].strip_prefix(&prefix) {
                let value = value.to_string();
                self.remaining.remove(i);
                return Ok(Some(value));
            }
            if self.remaining[i] == flag {
                if i + 1 >= self.remaining.len() || self.remaining[i + 1].starts_with("--") {
                    return Err(CliError::usage(format!("option {flag} needs a value")));
                }
                let value = self.remaining.remove(i + 1);
                self.remaining.remove(i);
                return Ok(Some(value));
            }
        }
        Ok(None)
    }

    /// Like [`Args::take_value`] but the option is mandatory.
    pub fn require_value(&mut self, name: &str) -> Result<String, CliError> {
        self.take_value(name)?
            .ok_or_else(|| CliError::usage(format!("missing required option --{name}")))
    }

    /// Removes the numeric option `--name <n>` and parses its value.
    pub fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        self.take_value(name)?
            .map(|value| {
                value
                    .parse::<T>()
                    .map_err(|_| CliError::usage(format!("--{name} needs a number, got `{value}`")))
            })
            .transpose()
    }

    /// Removes `--name` and returns whether it was present.
    pub fn take_flag(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        let before = self.remaining.len();
        self.remaining.retain(|a| *a != flag);
        self.remaining.len() != before
    }

    /// Takes the next positional (non `--`) argument.
    pub fn take_positional(&mut self) -> Option<String> {
        let pos = self.remaining.iter().position(|a| !a.starts_with("--"))?;
        Some(self.remaining.remove(pos))
    }

    /// Fails if any argument was not consumed.
    pub fn finish(self) -> Result<(), CliError> {
        if self.remaining.is_empty() {
            Ok(())
        } else {
            Err(CliError::usage(format!(
                "unrecognized arguments: {}",
                self.remaining.join(" ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn values_flags_and_positionals() {
        let mut a = args(&["--design", "x.aig", "--verify", "convertme", "--out=y.blif"]);
        assert_eq!(a.take_value("design").unwrap().as_deref(), Some("x.aig"));
        assert_eq!(a.take_value("out").unwrap().as_deref(), Some("y.blif"));
        assert!(a.take_flag("verify"));
        assert!(!a.take_flag("verify"));
        assert_eq!(a.take_positional().as_deref(), Some("convertme"));
        a.finish().unwrap();
    }

    #[test]
    fn leftovers_and_missing_values_error() {
        let mut a = args(&["--design"]);
        assert!(a.take_value("design").is_err());
        let a = args(&["--typo"]);
        assert!(a.finish().is_err());
        let mut a = args(&["--flow", "--out"]);
        assert!(a.take_value("flow").is_err());
    }

    #[test]
    fn parsed_values_and_usage_errors() {
        let mut a = args(&["--workers", "3", "--count=x"]);
        assert_eq!(a.take_parsed::<usize>("workers"), Ok(Some(3)));
        assert_eq!(a.take_parsed::<usize>("workers"), Ok(None));
        let err = a.take_parsed::<usize>("count").unwrap_err();
        assert_eq!(
            err,
            CliError::Usage("--count needs a number, got `x`".into())
        );
        assert_eq!(err.exit_code(), 1);
        assert_eq!(CliError::from("disk full".to_string()).exit_code(), 2);
    }
}
