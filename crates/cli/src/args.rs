//! Tiny hand-rolled argument parsing (flags + positionals), enough for
//! the `subg` subcommands without external dependencies.

use std::collections::HashMap;

use crate::commands::Command;

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

/// The flags that take no value; every other flag takes one.
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

impl Args {
    /// Parses raw arguments (already without the program/subcommand
    /// names) for `command`. A flag outside the command's table entry
    /// is a usage error, so a typo, a retired option or another
    /// subcommand's flag fails loudly instead of running with defaults.
    ///
    /// # Errors
    ///
    /// Returns a message when a flag is not one `command` reads or an
    /// option is missing its value.
    pub fn parse(raw: &[String], command: &Command) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                args.positional.push(a.clone());
            } else if !command
                .flags
                .iter()
                .any(|group| group.contains(&a.as_str()))
            {
                return Err(format!("unknown option {a} for `subg {}`", command.name));
            } else if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option {a} requires a value"))?;
                args.options.insert(a.clone(), value.clone());
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
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::commands::COMMANDS;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn flags(c: &Command) -> BTreeSet<&'static str> {
        c.flags.iter().flat_map(|g| g.iter().copied()).collect()
    }

    #[test]
    fn mixes_positionals_options_and_switches() {
        let a = Args::parse(
            &v(&["main.sp", "--pattern", "nand2", "--ignore-globals", "extra"]),
            command("find"),
        )
        .unwrap();
        assert_eq!(a.positional, vec!["main.sp", "extra"]);
        assert_eq!(a.option("--pattern"), Some("nand2"));
        assert!(a.switch("--ignore-globals"));
        assert!(!a.switch("--csv"));
    }

    #[test]
    fn option_without_value_errors() {
        let err = Args::parse(&v(&["--pattern"]), command("find")).unwrap_err();
        assert!(err.contains("--pattern"));
    }

    /// The functions of `commands.rs` by name, each with its text.
    fn functions(source: &str) -> BTreeMap<&str, &str> {
        let mut fns = BTreeMap::new();
        for item in source.split("\n}\n") {
            let Some(at) = item.find("\npub fn ").or_else(|| item.find("\nfn ")) else {
                continue;
            };
            let sig = item[at + 1..].trim_start_matches("pub ");
            let name = sig["fn ".len()..].split(['(', '<']).next().unwrap();
            fns.insert(name, &item[at..]);
        }
        fns
    }

    /// The keys `text` passes to `reader`, `option("` or `switch("`.
    fn keys<'s>(text: &'s str, reader: &str) -> Vec<&'s str> {
        let rest = text.split(reader).skip(1);
        rest.filter_map(|rest| rest.split('"').next()).collect()
    }

    /// The flags function `name` reads, itself or through the functions
    /// it calls.
    fn reads<'s>(fns: &BTreeMap<&'s str, &'s str>, name: &'s str) -> BTreeSet<&'s str> {
        let (mut todo, mut seen, mut all) = (vec![name], BTreeSet::new(), BTreeSet::new());
        while let Some(f) = todo.pop() {
            if !seen.insert(f) {
                continue;
            }
            let text = fns[f];
            all.extend(keys(text, "option(\""));
            all.extend(keys(text, "switch(\""));
            for &callee in fns.keys() {
                let call = format!("{callee}(");
                let mut at = text.match_indices(&call).map(|(at, _)| at);
                if at.any(|at| {
                    !text[..at].ends_with(|c: char| c.is_alphanumeric() || "_.".contains(c))
                }) {
                    todo.push(callee);
                }
            }
        }
        all
    }

    #[test]
    fn every_option_a_subcommand_reads_is_known() {
        let source = include_str!("commands.rs");
        let fns = functions(source);
        let mut every = BTreeSet::new();
        for c in COMMANDS {
            let read = reads(&fns, c.name);
            assert_eq!(flags(c), read, "`subg {}`: table vs what it reads", c.name);
            every.extend(read);
        }
        // Switches are read as switches, options as options.
        for (reader, is_switch) in [("option(\"", false), ("switch(\"", true)] {
            for key in keys(source, reader) {
                assert_eq!(SWITCHES.contains(&key), is_switch, "{key}");
                assert!(every.contains(key), "{key} is read by no subcommand");
            }
        }
        for key in SWITCHES {
            assert!(every.contains(key), "{key} is a switch no subcommand reads");
        }
    }

    #[test]
    fn every_subcommand_refuses_the_flags_it_does_not_read() {
        let every: BTreeSet<&str> = COMMANDS.iter().flat_map(flags).collect();
        for c in COMMANDS {
            let own = flags(c);
            for flag in every.difference(&own) {
                let err = Args::parse(&v(&["x.sp", flag, "1"]), c).unwrap_err();
                assert_eq!(err, format!("unknown option {flag} for `subg {}`", c.name));
            }
            for flag in &own {
                let value = if SWITCHES.contains(flag) {
                    &[][..]
                } else {
                    &["1"][..]
                };
                let mut raw = v(&["x.sp", flag]);
                raw.extend(v(value));
                assert!(Args::parse(&raw, c).is_ok(), "`subg {}` {flag}", c.name);
            }
        }
    }

    #[test]
    fn need_reports_missing_positional() {
        let a = Args::parse(&v(&[]), command("stats")).unwrap();
        assert!(a.need(0, "main netlist").unwrap_err().contains("main"));
    }
}
