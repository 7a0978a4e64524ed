//! The `nchecker` flag table. Each row names a flag, the modes that take
//! it, its arity, the [`Cli`] field it sets and its help line; one
//! left-to-right [`parse`] serves every mode and [`help`] renders the
//! usage text from the same rows.

use std::path::PathBuf;

/// Mode bits: `nchecker <app.apk>...`, `serve`, `vet`, `cache-gc`.
pub(crate) const ONE: u8 = 1;
pub(crate) const SERVE: u8 = 2;
pub(crate) const VET: u8 = 4;
pub(crate) const GC: u8 = 8;
/// The checker and cache flags every analysing mode shares.
const CHECK: u8 = ONE | SERVE | VET;

/// Each mode's subcommand word, bit, and what follows its flags in the
/// synopsis.
pub(crate) const MODES: [(&str, u8, &str); 4] = [
    ("", ONE, "<app.apk>..."),
    ("serve", SERVE, ""),
    ("vet", VET, "[<app.apk>...]"),
    ("cache-gc", GC, ""),
];

/// Diagnostic verbosity. When several levels are given the highest
/// wins, and `--quiet` outranks every `-v`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Verbosity {
    #[default]
    Warn,
    Info,
    Debug,
    Quiet,
}

/// A row's arity and the field it sets.
pub(crate) enum Kind {
    Switch(fn(&mut Cli)),
    /// The verbosity group: never forwarded to `vet` workers, whose
    /// verbosity `vet` pins.
    Level(Verbosity),
    /// A count of at least 1.
    Count(fn(&mut Cli, usize)),
    /// A byte size: digits with an optional K/M/G suffix (base 1024).
    Bytes(fn(&mut Cli, u64)),
    /// A path; the string names the value in the help text.
    Path(&'static str, fn(&mut Cli, PathBuf)),
}
use Kind::{Bytes, Count, Level, Path, Switch};

pub(crate) struct Flag {
    /// The flag, then its aliases.
    pub(crate) names: &'static [&'static str],
    /// The mode bits that accept it.
    pub(crate) modes: u8,
    pub(crate) kind: Kind,
    pub(crate) help: &'static str,
}

impl Flag {
    /// The names joined by `sep`, then the value placeholder if any.
    pub(crate) fn label(&self, sep: &str) -> String {
        let names = self.names.join(sep);
        match self.kind {
            Switch(_) | Level(_) => names,
            Count(_) => format!("{names} N"),
            Bytes(_) => format!("{names} BYTES"),
            Path(value, _) => format!("{names} {value}"),
        }
    }
}

#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    Flag { names: &["--summary"], modes: ONE | VET, kind: Switch(|c| c.summary = true), help: "print one line per app instead of full reports (vet: per-shard accounting only, no reports)" },
    Flag { names: &["--json"], modes: ONE, kind: Switch(|c| c.json = true), help: "print one JSON document per app" },
    Flag { names: &["--strict"], modes: CHECK, kind: Switch(|c| c.strict = true), help: "require connectivity checks to be control conditions" },
    Flag { names: &["--interproc"], modes: CHECK, kind: Switch(|c| c.no_interproc = false), help: "enable the interprocedural summary engine (the default)" },
    Flag { names: &["--no-interproc"], modes: CHECK, kind: Switch(|c| c.no_interproc = true), help: "ablate the summary engine; of --interproc and --no-interproc the last one wins" },
    Flag { names: &["--targeted"], modes: CHECK, kind: Switch(|c| c.targeted = true), help: "lift only the defect-relevant slice (same reports, faster); under --icc it falls back to whole-app analysis, warned and counted" },
    Flag { names: &["--icc"], modes: CHECK, kind: Switch(|c| c.icc = true), help: "model inter-component communication (launch chains)" },
    Flag { names: &["--keep-going", "-k"], modes: ONE, kind: Switch(|c| c.keep_going = true), help: "continue analyzing remaining apps after a failure" },
    Flag { names: &["--trace"], modes: ONE, kind: Switch(|c| c.trace = true), help: "record per-phase spans; tree printed to stderr" },
    Flag { names: &["--metrics"], modes: ONE, kind: Switch(|c| c.metrics = true), help: "record pipeline metrics (embedded in --json output)" },
    Flag { names: &["--trace-out"], modes: ONE, kind: Path("FILE", |c, p| c.trace_out = Some(p)), help: "write a Chrome Trace Event JSON of the whole run (Perfetto, chrome://tracing)" },
    Flag { names: &["--log-json"], modes: ONE, kind: Path("FILE", |c, p| c.log_json = Some(p)), help: "write JSONL telemetry: events, per-app phase totals, cache and funnel records" },
    Flag { names: &["--doctor"], modes: ONE, kind: Switch(|c| c.doctor = true), help: "print one canonical JSON health snapshot instead of reports (apps optional)" },
    Flag { names: &["--jobs"], modes: CHECK, kind: Count(|c, n| c.jobs = Some(n)), help: "analyze up to N apps in parallel (default: CPU count; vet: per worker)" },
    Flag { names: &["--cache-dir"], modes: CHECK | GC, kind: Path("DIR", |c, p| c.cache_dir = Some(p)), help: "persist the analysis cache under DIR across runs (required by cache-gc)" },
    Flag { names: &["--no-cache"], modes: CHECK, kind: Switch(|c| c.no_cache = true), help: "disable the analysis cache entirely" },
    Flag { names: &["--cache-budget"], modes: CHECK | GC, kind: Bytes(|c, n| c.cache_budget = Some(n)), help: "GC the disk cache down to BYTES after each batch; suffixes K/M/G (required by cache-gc)" },
    Flag { names: &["--delta-out"], modes: ONE | VET, kind: Path("FILE", |c, p| c.delta_out = Some(p)), help: "write one JSONL defect-delta record per resubmitted app whose bundle changed" },
    Flag { names: &["--stdio"], modes: SERVE, kind: Switch(|c| c.stdio = true), help: "speak the line-delimited JSON protocol on stdin/stdout (serve needs one of --stdio, --socket)" },
    Flag { names: &["--socket"], modes: SERVE, kind: Path("PATH", |c, p| c.socket = Some(p)), help: "listen on a Unix socket at PATH" },
    Flag { names: &["--watch"], modes: SERVE, kind: Path("DIR", |c, p| c.watch = Some(p)), help: "re-analyze bundles in DIR when their content changes" },
    Flag { names: &["--poll-ms"], modes: SERVE, kind: Count(|c, n| c.poll_ms = Some(n)), help: "watch poll interval in milliseconds (default: 500)" },
    Flag { names: &["--queue-capacity"], modes: SERVE, kind: Count(|c, n| c.queue_capacity = Some(n)), help: "bound the request queue (default: 64); submits beyond it get a queue-full reply" },
    Flag { names: &["--workers"], modes: VET, kind: Count(|c, n| c.workers = Some(n)), help: "worker processes (default: 2); the corpus is partitioned across them by key hash" },
    Flag { names: &["--corpus-dir"], modes: VET, kind: Path("DIR", |c, p| c.corpus_dir = Some(p)), help: "vet every *.apk/*.adx under DIR (recursive) with any positional paths, sorted" },
    Flag { names: &["--quiet", "-q"], modes: CHECK | GC, kind: Level(Verbosity::Quiet), help: "suppress all diagnostics on stderr" },
    Flag { names: &["-v"], modes: CHECK, kind: Level(Verbosity::Info), help: "raise diagnostic verbosity to info" },
    Flag { names: &["-vv"], modes: CHECK, kind: Level(Verbosity::Debug), help: "raise diagnostic verbosity to debug" },
];

/// One parsed command line, whatever its mode.
#[derive(Debug, Default)]
pub(crate) struct Cli {
    /// The mode bit.
    pub(crate) mode: u8,
    pub(crate) summary: bool,
    pub(crate) json: bool,
    pub(crate) strict: bool,
    pub(crate) no_interproc: bool,
    pub(crate) targeted: bool,
    pub(crate) icc: bool,
    pub(crate) keep_going: bool,
    pub(crate) trace: bool,
    pub(crate) metrics: bool,
    pub(crate) doctor: bool,
    pub(crate) no_cache: bool,
    pub(crate) stdio: bool,
    pub(crate) verbosity: Verbosity,
    pub(crate) jobs: Option<usize>,
    pub(crate) poll_ms: Option<usize>,
    pub(crate) queue_capacity: Option<usize>,
    pub(crate) workers: Option<usize>,
    pub(crate) cache_budget: Option<u64>,
    pub(crate) cache_dir: Option<PathBuf>,
    pub(crate) trace_out: Option<PathBuf>,
    pub(crate) log_json: Option<PathBuf>,
    pub(crate) delta_out: Option<PathBuf>,
    pub(crate) socket: Option<PathBuf>,
    pub(crate) watch: Option<PathBuf>,
    pub(crate) corpus_dir: Option<PathBuf>,
    pub(crate) paths: Vec<String>,
    /// The tokens, verbatim and in order, of every parsed row `serve`
    /// also accepts, verbosity aside: what `vet` passes to its workers.
    pub(crate) forward: Vec<String>,
}

/// Parses a command line (without the program name). `None` is a usage
/// error: an unknown flag, a flag the mode does not take, a missing or
/// malformed value, or a positional argument in a mode that takes none.
pub(crate) fn parse(args: &[String]) -> Option<Cli> {
    let first = args.first().map(String::as_str);
    let (mode, args) = match MODES[1..].iter().find(|&&(word, ..)| first == Some(word)) {
        Some(&(_, bit, _)) => (bit, &args[1..]),
        None => (ONE, args),
    };
    let mut cli = Cli {
        mode,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            // Only one-shot and vet take bundle paths.
            if mode & (ONE | VET) == 0 {
                return None;
            }
            cli.paths.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.modes & mode != 0 && f.names.contains(&arg.as_str()))?;
        let value = match flag.kind {
            Switch(set) => {
                set(&mut cli);
                None
            }
            Level(level) => {
                cli.verbosity = cli.verbosity.max(level);
                None
            }
            Count(set) => {
                let value = it.next()?;
                set(&mut cli, value.parse().ok().filter(|&n| n >= 1)?);
                Some(value)
            }
            Bytes(set) => {
                let value = it.next()?;
                set(&mut cli, parse_bytes(value)?);
                Some(value)
            }
            Path(_, set) => {
                let value = it.next()?;
                set(&mut cli, PathBuf::from(value));
                Some(value)
            }
        };
        if flag.modes & SERVE != 0 && !matches!(flag.kind, Level(_)) {
            cli.forward.push(arg.clone());
            cli.forward.extend(value.cloned());
        }
    }
    Some(cli)
}

/// Parses a byte size: plain digits, or a K/M/G suffix (base 1024,
/// case-insensitive). Sizes that overflow `u64` are rejected.
pub(crate) fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, unit) = match s.char_indices().last()? {
        (i, 'k' | 'K') => (&s[..i], 1 << 10),
        (i, 'm' | 'M') => (&s[..i], 1 << 20),
        (i, 'g' | 'G') => (&s[..i], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(unit)
}

/// The usage text: one synopsis per mode, then one line per row with
/// the modes that take it.
pub(crate) fn help() -> String {
    let mut out = String::new();
    for (i, &(word, bit, tail)) in MODES.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "" };
        let mut line = format!("{lead:6} nchecker {word}").trim_end().to_owned();
        let flags = FLAGS.iter().filter(|f| f.modes & bit != 0);
        let words = flags.map(|f| format!("[{}]", f.label("|")));
        for word in words.chain((!tail.is_empty()).then(|| tail.to_owned())) {
            if line.len() + word.len() >= 80 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(15);
            }
            line.push(' ');
            line.push_str(&word);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("\nStatically analyzes ADX app bundles for network programming defects.\n");
    out.push_str(
        "Flags, with the modes that take them (o one-shot, s serve, v vet, g cache-gc):\n",
    );
    for f in FLAGS {
        let modes: String = MODES
            .iter()
            .zip("osvg".chars())
            .map(|(&(_, bit, _), c)| if f.modes & bit != 0 { c } else { '.' })
            .collect();
        out.push_str(&format!("  {:<24}{modes}  {}\n", f.label(", "), f.help));
    }
    out.push_str(
        "\nvet prints its workers' reports in input order, byte-identical to one-shot\n\
         --json over the same paths, and forwards every flag serve also takes,\n\
         verbosity aside, to its workers.\n\
         exit codes: 0 clean, 1 analysis failure, 2 usage, 3 degraded\n",
    );
    out
}
