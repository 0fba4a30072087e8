//! Tiny hand-rolled argument parsing (flags + positionals), enough for
//! the `subg` subcommands without external dependencies.

use std::collections::HashMap;

/// Parsed command line: positionals plus `--flag [value]` options.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options.
    options: HashMap<String, String>,
    /// Bare `--switch` flags.
    switches: Vec<String>,
}

/// Flags that take no value, per subcommand-agnostic convention.
const SWITCHES: &[&str] = &[
    "--ignore-globals",
    "--first",
    "--csv",
    "--builtin-lib",
    "--hierarchical",
    "--explain",
    "--json",
    "--fail-fast",
];

/// Flags that take a value: every `--key` a subcommand reads through
/// [`Args::option`]. Any flag in neither list is a usage error, so a
/// typo or a retired option fails loudly instead of running with
/// defaults.
const OPTIONS: &[&str] = &[
    "--access-log",
    "--addr",
    "--artifact",
    "--cell",
    "--deadline-ms",
    "--events-out",
    "--lib",
    "--library",
    "--max-effort",
    "--out",
    "--pattern",
    "--report",
    "--rules",
    "--slow-keep",
    "--slow-ms",
    "--threads",
    "--trace-out",
    "--workers",
];

impl Args {
    /// Parses raw arguments (already without the program/subcommand
    /// names).
    ///
    /// # Errors
    ///
    /// Returns a message when a flag is unknown or an option is missing
    /// its value.
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                if SWITCHES.contains(&a.as_str()) {
                    args.switches.push(a.clone());
                } else if OPTIONS.contains(&a.as_str()) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("option {a} requires a value"))?;
                    args.options.insert(a.clone(), value.clone());
                } else {
                    return Err(format!("unknown option {a}"));
                }
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// The value of `--key`, if provided.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether the bare switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The `i`-th positional argument or an error naming it.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the positional is missing.
    pub fn need(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn mixes_positionals_options_and_switches() {
        let a = Args::parse(&v(&[
            "main.sp",
            "--pattern",
            "nand2",
            "--ignore-globals",
            "extra",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["main.sp", "extra"]);
        assert_eq!(a.option("--pattern"), Some("nand2"));
        assert!(a.switch("--ignore-globals"));
        assert!(!a.switch("--csv"));
    }

    #[test]
    fn option_without_value_errors() {
        let err = Args::parse(&v(&["--pattern"])).unwrap_err();
        assert!(err.contains("--pattern"));
    }

    #[test]
    fn every_option_a_subcommand_reads_is_known() {
        let source = include_str!("commands.rs");
        for (reader, known) in [("option(\"", OPTIONS), ("switch(\"", SWITCHES)] {
            let read: Vec<&str> = source
                .split(reader)
                .skip(1)
                .filter_map(|rest| rest.split('"').next())
                .collect();
            for key in &read {
                assert!(known.contains(key), "{key} is read but not known");
            }
            for key in known {
                assert!(read.contains(key), "{key} is known but never read");
            }
        }
    }

    #[test]
    fn need_reports_missing_positional() {
        let a = Args::parse(&v(&[])).unwrap();
        assert!(a.need(0, "main netlist").unwrap_err().contains("main"));
    }
}
