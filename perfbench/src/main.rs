//! Helper binary of the end-to-end benchmark (`perfbench/run.py`).
//!
//! ```text
//! nck-perfbench gen --seed S --apps N --churn C --waves K --out DIR
//! nck-perfbench daemon --bin NCHECKER --root DIR --waves K --window W --jobs J
//!               --clk-tck HZ --reports FILE
//! nck-perfbench replay --workload cold|revet|daemon --root DIR --jobs J
//!               [--waves K --window W] [--primed DIR --work-cache DIR] --out FILE
//! ```
//!
//! `gen` writes a seeded `CorpusStream` tree, its version overlays and
//! a manifest carrying each bundle's ground truth. `daemon` drives one
//! `nchecker serve --stdio` as a closed-loop client and measures it from
//! outside. `replay` re-runs a workload's inputs in-process through the
//! public functions of each layer, with spans around the calls. Every
//! subcommand prints one JSON object on stdout.

mod daemon;
mod gen;
mod replay;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `--flag value` pairs; a repeated flag keeps its last value.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.str(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a number"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: nck-perfbench gen|daemon|replay --flag value ...");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "gen" => gen::main(&args),
        "daemon" => daemon::main(&args),
        "replay" => replay::main(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nck-perfbench {cmd}: {e}");
            ExitCode::from(1)
        }
    }
}
