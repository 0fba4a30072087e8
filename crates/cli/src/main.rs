//! `subg` — command-line front end for the SubGemini reproduction.
//!
//! ```text
//! subg find <main.sp> --pattern <cell> [--lib <cells.sp>] [--ignore-globals] [--first] [--csv]
//!           [--report json|text] [--threads <n>] [--trace-out <trace.json>]
//!           [--events-out <events.ndjson>] [--explain]
//!           [--max-effort <n>] [--deadline-ms <ms>] [--fail-fast]
//!           [--artifact <main.sgc>]
//! subg explain <main.sp> --pattern <cell> [--lib <cells.sp>] [--json]
//! subg candidates <main.sp> --pattern <cell> [--lib <cells.sp>]
//! subg compile <main.sp> [--out <main.sgc>]
//! subg extract <main.sp> [--lib <cells.sp> | --builtin-lib] [--out <deck.sp>]
//! subg hierarchize <flat.sp> --library <cells.sp> [--out <deck.sp>] [--report json|text]
//! subg check <main.sp> --rules <rules.sp>
//! subg map <main.sp> [--lib <cells.sp> | --builtin-lib]
//! subg survey <main.sp> [--lib <cells.sp> | --builtin-lib] [--artifact <main.sgc>]
//! subg trace <main.sp> --pattern <cell> [--lib <cells.sp>]
//! subg compare <a.sp> <b.sp> [--cell <name>] [--hierarchical]
//! subg stats <file.sp>
//! subg dot <file.sp> [--out <file.dot>]
//! subg fingerprint <cells.sp|cells.v>
//! subg serve [<main.sp>...] [--addr <host:port>] [--workers <n>] [--access-log <path|->]
//!           [--slow-ms <ms>] [--slow-keep <n>]
//! ```
//!
//! Patterns, rules and library cells are `.subckt` definitions; their
//! ports are the external nets, and `.global` (plus the conventional
//! `vdd`/`gnd`/`vss`/`vcc`/`0`) mark special signals.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
subg — SubGemini subcircuit tools

USAGE:
  subg find <main.sp> --pattern <cell> [--lib <cells.sp>] [--ignore-globals] [--first] [--csv]
            [--report json|text] [--threads <n>] [--trace-out <trace.json>]
            [--events-out <events.ndjson>] [--explain]
            [--max-effort <n>] [--deadline-ms <ms>] [--fail-fast]
            [--artifact <main.sgc>]
  subg explain <main.sp> --pattern <cell> [--lib <cells.sp>] [--json]
  subg candidates <main.sp> --pattern <cell> [--lib <cells.sp>]
  subg compile <main.sp> [--out <main.sgc>]
  subg extract <main.sp> [--lib <cells.sp> | --builtin-lib] [--out <deck.sp>]
  subg hierarchize <flat.sp> --library <cells.sp> [--out <deck.sp>] [--report json|text]
  subg check <main.sp> --rules <rules.sp>
  subg map <main.sp> [--lib <cells.sp> | --builtin-lib]
  subg survey <main.sp> [--lib <cells.sp> | --builtin-lib] [--artifact <main.sgc>]
  subg trace <main.sp> --pattern <cell> [--lib <cells.sp>]
  subg compare <a.sp> <b.sp> [--cell <name>] [--hierarchical]
  subg stats <file.sp>
  subg dot <file.sp> [--out <file.dot>]
  subg fingerprint <cells.sp|cells.v>
  subg serve [<main.sp>...] [--addr <host:port>] [--workers <n>] [--access-log <path|->]
            [--slow-ms <ms>] [--slow-keep <n>]
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = commands::COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("error: unknown subcommand `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    };
    let result = args::Args::parse(rest, command).and_then(|parsed| (command.run)(&parsed));
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
