//! `caa` — the tooling's one command line: every way into the harness from
//! a shell is a subcommand here, over one argument parser.
//!
//! ```text
//! cargo run --release -p caa-bench --bin caa -- <command> [arguments]
//!
//!   replay  [<seed>] [--space NAME] [--corpus DIR] [--bisect] [--spans-out PATH]
//!   sweep   [--space NAME] [--seeds N] [--start SEED] [--shard k/n] [--metrics-out PATH]
//!   bench   [--seeds N] [--workers N] [--shard k/n] [--out PATH]
//!           [--min-seeds-per-sec N] [--max-handoffs-per-seed N]
//!   fuzz    [--space NAME] [--budget N] [--initial N] … [--fuzz-smoke]
//!   merge   <metrics.json|coverage.json>... [--out PATH] [--triage PATH]
//!   diff    <baseline.json> <candidate.json> [--max-quantile-pct X] …
//!   tables  [all|fig9|fig10|fig12|fig13|msgs|signalling|lemma1]...
//!   hashes  [--space NAME] [--seeds N] [--workers N] [--shard k/n] [--digest]
//! ```
//!
//! `--space` names a scenario space, a row of
//! [`SPACES`](caa_harness::plan::SPACES): `default` (what a command runs
//! without the flag), `object-heavy` or `multi-crash`.
//!
//! Each command documents itself in its module. They share the exit
//! statuses: `0` all well, `1` an oracle violation (or a crossed `diff` /
//! `--min-gain-pct` threshold), `2` a usage, read, parse or write error
//! (the message and the command's usage line go to stderr), `3` a missed
//! `--min-seeds-per-sec` floor, `4` a crossed `--max-handoffs-per-seed`
//! ceiling.
//!
//! The parser knows three shapes — a positional, `--flag value` and
//! `--switch` — declared per command in one table, from which the usage
//! lines are written too; a repeated flag's
//! last value wins, values parse through [`FromStr`] with the flag named
//! in the error, and anything undeclared is an `unknown argument`.
//! Commands write their product to the `out` they are handed (the binary
//! passes stdout; tests pass a buffer) and their commentary to stderr.

use std::fmt::Display;
use std::io::{self, Write};
use std::path::Path;
use std::str::FromStr;

mod diff;
mod fuzz;
mod hashes;
mod merge;
mod replay;
mod sweep;
mod tables;

/// What a command returns: its exit status, or the error to report under
/// exit status 2 — with the usage line when it is a [`usage_error`].
type Run = io::Result<i32>;

/// One subcommand: its name, the arguments it declares — which is also
/// what its usage line is written from — and the function that runs it.
struct Command {
    name: &'static str,
    /// Its positional arguments, as the usage line shows them.
    operands: &'static str,
    /// How many of them it takes at most.
    max_operands: usize,
    /// Its flags, as the usage line shows them: `--switch`, or `--flag
    /// VALUE` for one that takes a value.
    flags: &'static [&'static str],
    run: fn(&Args, &mut dyn Write) -> Run,
}

impl Command {
    fn usage(&self) -> String {
        let mut usage = format!("caa {}", self.name);
        if !self.operands.is_empty() {
            usage = format!("{usage} {}", self.operands);
        }
        for flag in self.flags {
            usage = format!("{usage} [{flag}]");
        }
        usage
    }
}

const COMMANDS: [Command; 8] = [
    Command {
        name: "replay",
        operands: "[<seed>]",
        max_operands: 1,
        flags: &[
            "--space NAME",
            "--corpus <dir>/<entry>",
            "--bisect",
            "--spans-out PATH",
        ],
        run: replay::run,
    },
    Command {
        name: "sweep",
        operands: "",
        max_operands: 0,
        flags: &[
            "--space NAME",
            "--seeds N",
            "--start SEED",
            "--shard k/n",
            "--metrics-out PATH",
        ],
        run: sweep::run_sweep,
    },
    Command {
        name: "bench",
        operands: "",
        max_operands: 0,
        flags: &[
            "--seeds N",
            "--workers N",
            "--shard k/n",
            "--out PATH",
            "--min-seeds-per-sec N",
            "--max-handoffs-per-seed N",
        ],
        run: sweep::run_bench,
    },
    Command {
        name: "fuzz",
        operands: "",
        max_operands: 0,
        flags: &[
            "--space NAME",
            "--budget N",
            "--initial N",
            "--start SEED",
            "--batch N",
            "--fuzz-seed N",
            "--workers N",
            "--shard k/n",
            "--baseline",
            "--check-replay",
            "--corpus DIR",
            "--out PATH",
            "--triage PATH",
            "--min-gain-pct X",
            "--fuzz-smoke",
            "--max-handoffs-per-seed N",
        ],
        run: fuzz::run,
    },
    Command {
        name: "merge",
        operands: "<metrics.json|coverage.json>...",
        max_operands: usize::MAX,
        flags: &["--out PATH", "--triage PATH"],
        run: merge::run,
    },
    Command {
        name: "diff",
        operands: "<baseline.json> <candidate.json>",
        max_operands: 2,
        flags: &[
            "--max-quantile-pct X",
            "--max-counter-pct X",
            "--max-cp-shift-pp X",
        ],
        run: diff::run,
    },
    Command {
        name: "tables",
        operands: "[all|fig9|fig10|fig12|fig13|msgs|signalling|lemma1]...",
        max_operands: usize::MAX,
        flags: &[],
        run: tables::run,
    },
    Command {
        name: "hashes",
        operands: "",
        max_operands: 0,
        flags: &[
            "--space NAME",
            "--seeds N",
            "--workers N",
            "--shard k/n",
            "--digest",
        ],
        run: hashes::run,
    },
];

/// A usage error: reported with the command's usage line, exit status 2.
fn usage_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message.into())
}

/// One command's parsed arguments.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    fn parse(command: &Command, args: &[String]) -> io::Result<Args> {
        let mut parsed = Args::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let declared = command.flags.iter().find_map(|flag| {
                let (name, value) = flag.split_once(' ').unwrap_or((flag, ""));
                (name == arg).then_some((name, !value.is_empty()))
            });
            match declared {
                Some((flag, true)) => {
                    let value = args
                        .next()
                        .ok_or_else(|| usage_error(format!("{flag} needs a value")))?;
                    parsed.values.push((flag, value.clone()));
                }
                Some((flag, false)) => parsed.switches.push(flag),
                None if arg.starts_with("--")
                    || parsed.positional.len() == command.max_operands =>
                {
                    return Err(usage_error(format!("unknown argument {arg}")));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The value given for `--flag`; the last one, if it was repeated.
    fn value(&self, flag: &str) -> Option<&str> {
        let given = self.values.iter().rev().find(|(name, _)| *name == flag);
        given.map(|(_, value)| value.as_str())
    }

    /// [`Args::value`], parsed.
    fn get<T: FromStr<Err: Display>>(&self, flag: &str) -> io::Result<Option<T>> {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| usage_error(format!("bad {flag} value {raw:?}: {e}")))
            })
            .transpose()
    }

    /// [`Args::get`], with the flag's default.
    fn get_or<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> io::Result<T> {
        Ok(self.get(flag)?.unwrap_or(default))
    }
}

/// `std::fs::read_to_string` with the path in the error.
fn read_file(path: &str) -> io::Result<String> {
    std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot read {path}: {e}")))
}

/// `std::fs::write` with the path in the error.
fn write_file(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
}

/// Runs `caa <args>`: writes the command's product to `out` and returns
/// the process's exit status (see the module docs).
pub fn run(args: &[String], out: &mut dyn Write) -> i32 {
    let command = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name));
    let Some(command) = command else {
        match args.first() {
            Some(other) => eprintln!("unknown command {other}"),
            None => eprintln!("no command given"),
        }
        for command in &COMMANDS {
            eprintln!("usage: {}", command.usage());
        }
        return 2;
    };
    let ran = Args::parse(command, &args[1..]).and_then(|args| {
        let status = (command.run)(&args, out)?;
        out.flush()?;
        Ok(status)
    });
    ran.unwrap_or_else(|e| {
        eprintln!("{e}");
        if e.kind() == io::ErrorKind::InvalidInput {
            eprintln!("usage: {}", command.usage());
        }
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect(name)
    }

    fn parse(name: &str, args: &[&str]) -> io::Result<Args> {
        Args::parse(command(name), &strings(args))
    }

    #[test]
    fn the_parser_reads_positionals_values_and_switches() {
        let args = parse(
            "merge",
            &["a.json", "--out", "m.json", "--triage", "t.md", "b.json"],
        )
        .unwrap();
        assert_eq!(args.positional, ["a.json", "b.json"]);
        assert_eq!(args.value("--out"), Some("m.json"));
        assert_eq!(args.value("--triage"), Some("t.md"));

        let args = parse("hashes", &["--digest", "--seeds", "48"]).unwrap();
        assert!(args.switch("--digest"));
        assert_eq!(args.get_or("--seeds", 12_000u64).unwrap(), 48);
        assert_eq!(args.get::<u64>("--workers").unwrap(), None, "unset");
        assert!(!parse("hashes", &[]).unwrap().switch("--digest"));
    }

    #[test]
    fn the_parser_rejects_what_a_command_does_not_declare() {
        let message = |name, args: &[&str]| parse(name, args).unwrap_err().to_string();
        // Missing value, unknown flag, a positional too many.
        assert_eq!(message("merge", &["--out"]), "--out needs a value");
        assert_eq!(message("merge", &["--bogus"]), "unknown argument --bogus");
        assert_eq!(message("sweep", &["12"]), "unknown argument 12");
        assert_eq!(message("diff", &["a", "b", "c"]), "unknown argument c");
        // One command's flag is not another's.
        assert_eq!(
            message("sweep", &["--workers", "2"]),
            "unknown argument --workers"
        );
        assert_eq!(message("bench", &["--digest"]), "unknown argument --digest");
    }

    #[test]
    fn values_parse_by_type_and_the_last_repeat_wins() {
        let args = parse("bench", &["--seeds", "12", "--seeds", "34"]).unwrap();
        assert_eq!(args.get::<u64>("--seeds").unwrap(), Some(34));
        assert_eq!(args.get::<u64>("--workers").unwrap(), None);

        let args = parse("bench", &["--seeds", "many", "--shard", "4/4"]).unwrap();
        let unparsable = args.get::<u64>("--seeds").unwrap_err().to_string();
        assert!(
            unparsable.starts_with("bad --seeds value \"many\": "),
            "{unparsable}"
        );
        let out_of_range = args
            .get::<caa_harness::sweep::Shard>("--shard")
            .unwrap_err()
            .to_string();
        assert!(
            out_of_range.starts_with("bad --shard value \"4/4\": "),
            "{out_of_range}"
        );
        let args = parse("diff", &["--max-quantile-pct", "-2.5"]).unwrap();
        assert_eq!(args.get_or("--max-quantile-pct", 10.0).unwrap(), -2.5);
    }

    #[test]
    fn an_unknown_space_is_a_usage_error_that_lists_the_table() {
        for name in ["replay", "sweep", "fuzz", "hashes"] {
            let args = parse(name, &["--space", "bogus"]).unwrap();
            let message = args
                .get::<caa_harness::plan::Space>("--space")
                .unwrap_err()
                .to_string();
            assert_eq!(
                message,
                "bad --space value \"bogus\": no space \"bogus\"; \
                 the spaces are default, object-heavy, multi-crash",
                "{name}"
            );
            let mut out = Vec::new();
            let status = run(&strings(&[name, "--space", "bogus"]), &mut out);
            assert_eq!((status, out.is_empty()), (2, true), "{name}");
        }
    }

    #[test]
    fn every_command_has_a_usage_line_and_usage_errors_exit_2() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len(), "command names are distinct");
        assert_eq!(
            command("replay").usage(),
            "caa replay [<seed>] [--space NAME] [--corpus <dir>/<entry>] [--bisect] \
             [--spans-out PATH]"
        );
        assert_eq!(
            command("hashes").usage(),
            "caa hashes [--space NAME] [--seeds N] [--workers N] [--shard k/n] [--digest]"
        );
        assert_eq!(
            command("tables").usage(),
            "caa tables [all|fig9|fig10|fig12|fig13|msgs|signalling|lemma1]..."
        );
        for command in &COMMANDS {
            let prefix = format!("caa {}", command.name);
            let mut out = Vec::new();
            let status = run(&strings(&[command.name, "--no-such-flag"]), &mut out);
            assert_eq!((status, out.is_empty()), (2, true), "{prefix}");
        }
        let mut out = Vec::new();
        assert_eq!(run(&strings(&["frobnicate"]), &mut out), 2);
        assert_eq!(run(&[], &mut out), 2);
        // Errors past the parser exit 2 as well: an unreadable document, a
        // missing operand, a section that does not exist.
        assert_eq!(run(&strings(&["merge", "/no/such/file.json"]), &mut out), 2);
        assert_eq!(run(&strings(&["merge"]), &mut out), 2);
        assert_eq!(run(&strings(&["diff", "only-one.json"]), &mut out), 2);
        assert_eq!(run(&strings(&["tables", "fig99"]), &mut out), 2);
        assert_eq!(run(&strings(&["replay", "forty-two"]), &mut out), 2);
        assert!(out.is_empty());
    }
}
