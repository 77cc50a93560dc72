//! Command-line parsing and error plumbing shared by every bench binary.
//!
//! The reproduction binaries take a handful of `--flag value` pairs; this
//! module gives them one parser and one error type so each `main` can be a
//! `fn main() -> Result<()>` instead of sprinkling `expect`/`panic!` over
//! argument handling, file writes, and child processes.

use std::fmt;

use ca_ram_core::error::CaRamError;

/// Errors a bench binary can surface to its caller.
#[derive(Debug)]
pub enum BenchError {
    /// A command-line flag was missing, unparsable, or out of range.
    Arg(String),
    /// A result file could not be written.
    Io {
        /// Path of the file being written.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A table configuration was rejected by `ca-ram-core`.
    Config(CaRamError),
    /// A child reproduction binary failed to launch or exited non-zero.
    Child {
        /// Name of the child binary.
        bin: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Arg(message) => write!(f, "{message}"),
            Self::Io { path, source } => write!(f, "writing {path}: {source}"),
            Self::Config(e) => write!(f, "table configuration: {e}"),
            Self::Child { bin, message } => write!(f, "{bin}: {message}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Config(e) => Some(e),
            Self::Arg(_) | Self::Child { .. } => None,
        }
    }
}

impl From<CaRamError> for BenchError {
    fn from(e: CaRamError) -> Self {
        Self::Config(e)
    }
}

/// Bench-binary result type.
pub type Result<T> = std::result::Result<T, BenchError>;

/// Returns an [`BenchError::Arg`] unless `cond` holds.
///
/// # Errors
///
/// Returns `message` as an argument error when `cond` is false.
pub fn ensure(cond: bool, message: &str) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(BenchError::Arg(message.to_string()))
    }
}

/// A bench binary's gate verdicts. Each gate prints its verdict and
/// figure as it is decided; [`Gates::finish`] fails if any gate did, so
/// one failure hides no later verdict.
#[derive(Debug, Default)]
pub struct Gates {
    failed: Vec<String>,
}

impl Gates {
    /// Prints `gate <name>: <figure> PASS|FAIL` and records a failure.
    pub fn check(&mut self, name: &str, pass: bool, figure: &str) {
        println!(
            "gate {name}: {figure} {}",
            if pass { "PASS" } else { "FAIL" }
        );
        if !pass {
            self.failed.push(name.to_string());
        }
    }

    /// Ends the run's gating.
    ///
    /// # Errors
    ///
    /// Names every failed gate.
    pub fn finish(self) -> Result<()> {
        let failed = self.failed.join(", ");
        ensure(self.failed.is_empty(), &format!("gates failed: {failed}"))
    }
}

/// The parsed command line of a bench binary: `--flag value` pairs and
/// bare `--switch`es, each one the binary declared.
#[derive(Debug, Clone)]
pub struct Cli {
    /// `(name, value)` pairs in command-line order.
    pairs: Vec<(String, String)>,
    /// Switches present on the command line.
    switches: Vec<String>,
    /// The declared value flags and switches, each list space-separated.
    accepts: (&'static str, &'static str),
}

/// Whether the space-separated `list` names `name`.
fn declares(list: &str, name: &str) -> bool {
    list.split_whitespace().any(|f| f == name)
}

impl Cli {
    /// Parses the process arguments against the binary's flags, each list
    /// space-separated: `values` take `--name value`, `switches` are a
    /// bare `--name`.
    ///
    /// # Errors
    ///
    /// As [`Cli::from_args`].
    pub fn from_env(values: &'static str, switches: &'static str) -> Result<Self> {
        Self::from_args(std::env::args().skip(1), values, switches)
    }

    /// Parses explicit arguments against the declared flags, before the
    /// binary does any work: an unknown flag (`--help` included), a stray
    /// argument or a value flag without its value fails with the list of
    /// accepted flags.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Arg`] naming the offending argument and every
    /// accepted flag.
    pub fn from_args<I: IntoIterator<Item = S>, S: Into<String>>(
        args: I,
        values: &'static str,
        switches: &'static str,
    ) -> Result<Self> {
        let mut cli = Self {
            pairs: Vec::new(),
            switches: Vec::new(),
            accepts: (values, switches),
        };
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if declares(switches, name) => cli.switches.push(name.to_string()),
                Some(name) if declares(values, name) => match args.next() {
                    Some(value) => cli.pairs.push((name.to_string(), value)),
                    None => return Err(cli.reject(&format!("--{name} expects a value"))),
                },
                _ => return Err(cli.reject(&format!("unknown argument {arg:?}"))),
            }
        }
        Ok(cli)
    }

    /// `problem`, followed by the accepted flags.
    fn reject(&self, problem: &str) -> BenchError {
        let (values, switches) = self.accepts;
        let accepted: Vec<String> = (values.split_whitespace().map(|v| format!("--{v} <value>")))
            .chain(switches.split_whitespace().map(|s| format!("--{s}")))
            .collect();
        BenchError::Arg(if accepted.is_empty() {
            format!("{problem}; this binary takes no flags")
        } else {
            format!("{problem}; accepted flags: {}", accepted.join(", "))
        })
    }

    /// The value following `--name`, if present (the last one wins). A
    /// binary reads only flags it declared (`tests/bin_flags.rs` checks).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        let pair = self.pairs.iter().rev().find(|(n, _)| n == name);
        pair.map(|(_, v)| v.as_str())
    }

    /// Parses `--name <value>` as `T`, falling back to `default`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Arg`] if the value is present but unparsable.
    pub fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                BenchError::Arg(format!(
                    "--{name} expects a {} value, got {v:?}",
                    std::any::type_name::<T>()
                ))
            }),
        }
    }

    /// Whether the switch `--name` is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The `--flag value` pairs whose flag is in `names`, flattened in
    /// order — for forwarding a subset of flags to a child binary.
    #[must_use]
    pub fn passthrough(&self, names: &[&str]) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(n, _)| names.contains(&n.as_str()))
            .flat_map(|(n, v)| [format!("--{n}"), v.clone()])
            .collect()
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed over `path`, so a crash mid-write never
/// leaves a truncated artifact behind.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the temporary write or the rename fails.
pub fn write_text_atomic(path: &str, contents: &str) -> Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|source| BenchError::Io {
        path: tmp.clone(),
        source,
    })?;
    std::fs::rename(&tmp, path).map_err(|source| BenchError::Io {
        path: path.to_string(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli> {
        Cli::from_args(args.iter().copied(), "prefixes lookups seed csv", "smoke")
    }

    #[test]
    fn parse_present_absent_and_bad() {
        let cli = cli(&["--prefixes", "1000", "--seed", "0x1103", "--smoke"]).unwrap();
        assert_eq!(cli.parse("prefixes", 5usize).unwrap(), 1000);
        assert_eq!(cli.parse("lookups", 7usize).unwrap(), 7);
        // 0x-prefixed values are not valid for u64's FromStr.
        assert!(cli.parse::<u64>("seed", 0).is_err());
        assert_eq!(cli.value("seed"), Some("0x1103"));
        assert!(cli.flag("smoke"));
        assert!(!self::cli(&[]).unwrap().flag("smoke"));
    }

    #[test]
    fn undeclared_arguments_fail_with_the_accepted_flags() {
        let accepted = "accepted flags: --prefixes <value>, --lookups <value>, \
                        --seed <value>, --csv <value>, --smoke";
        for (args, problem) in [
            (&["--help"][..], "unknown argument \"--help\""),
            (&["--lookup", "20000"][..], "unknown argument \"--lookup\""),
            (
                &["--lookups", "5", "20000"][..],
                "unknown argument \"20000\"",
            ),
            (&["--seed"][..], "--seed expects a value"),
        ] {
            let err = cli(args).unwrap_err().to_string();
            assert_eq!(err, format!("{problem}; {accepted}"), "{args:?}");
        }
        let err = Cli::from_args(["--smoke"], "", "").unwrap_err().to_string();
        assert_eq!(
            err,
            "unknown argument \"--smoke\"; this binary takes no flags"
        );
    }

    #[test]
    fn passthrough_selects_pairs() {
        let cli = cli(&["--lookups", "9", "--csv", "x", "--smoke", "--seed", "3"]).unwrap();
        assert_eq!(
            cli.passthrough(&["lookups", "seed"]),
            vec!["--lookups", "9", "--seed", "3"]
        );
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("ca_ram_bench_atomic_write_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("out.txt");
        let path_str = path.to_str().expect("utf-8 temp path");
        write_text_atomic(path_str, "first").expect("atomic write");
        write_text_atomic(path_str, "second").expect("atomic overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), "second");
        assert!(
            !std::path::Path::new(&format!("{path_str}.tmp")).exists(),
            "temp file renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gates_report_every_failure_at_the_end() {
        let mut gates = Gates::default();
        gates.check("first", false, "1 < 2");
        gates.check("second", true, "3 >= 2");
        gates.check("third", false, "0 < 2");
        let err = gates.finish().unwrap_err().to_string();
        assert_eq!(err, "gates failed: first, third");
        assert!(Gates::default().finish().is_ok());
    }

    #[test]
    fn ensure_maps_to_arg_error() {
        assert!(ensure(true, "fine").is_ok());
        let err = ensure(false, "--n must be > 0").unwrap_err();
        assert_eq!(err.to_string(), "--n must be > 0");
    }
}
