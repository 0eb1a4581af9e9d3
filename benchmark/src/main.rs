//! Command line of the benchmark. `bench.sh` builds this and calls it.
//!
//! ```text
//! ooc-benchmark [run] --workload W --seed N --seconds S --trace 0|1 [--quick]
//!                     [--out-dir DIR] [--deps published|stand-ins]
//! ooc-benchmark check [RESULT.json ...]
//! ooc-benchmark aa       [--seed N] [--seconds S] [--out FILE]
//! ooc-benchmark baseline [--seed N] [--seconds S] [--out FILE]
//! ```

use ooc_benchmark::run::{self, RunArgs};
use ooc_benchmark::spec::Workload;
use ooc_benchmark::{aa, check};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` pairs and bare words of a command line.
struct Cli {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    words: Vec<String>,
}

/// Options that take no value.
const FLAGS: [&str; 1] = ["--quick"];

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            pairs: Vec::new(),
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if FLAGS.contains(&arg.as_str()) {
                cli.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                cli.pairs.push((arg.clone(), value.clone()));
            } else {
                cli.words.push(arg.clone());
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{key}: invalid value '{v}'"))
            })
            .transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        let given = self.pairs.iter().map(|(k, _)| k).chain(&self.flags);
        match given.into_iter().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }
}

/// Where outputs go unless `--out-dir` says otherwise: `benchmark/` under
/// the target directory this executable was built into.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("benchmark-out"))
}

fn run_args(cli: &Cli) -> Result<RunArgs, String> {
    cli.reject_unknown(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--quick",
        "--out-dir",
        "--deps",
    ])?;
    let name = cli.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload '{name}': expected one of {}",
            names.join(", ")
        )
    })?;
    let seconds: u32 = cli.num("--seconds")?.unwrap_or(30);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    let trace = match cli.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(RunArgs {
        workload,
        seed: cli.num("--seed")?.unwrap_or(8192),
        seconds,
        trace,
        quick: cli.flag("--quick"),
        out_dir: cli
            .get("--out-dir")
            .map_or_else(default_out_dir, PathBuf::from),
        deps: cli.get("--deps").unwrap_or("unknown").to_string(),
    })
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "check" | "aa" | "baseline")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let cli = Cli::parse(rest)?;
    match command {
        "run" => {
            let a = run_args(&cli)?;
            let result = run::run(&a)?;
            eprintln!("{}", run::summary(&a, &result));
            println!("{}", result.result_value().to_json());
            Ok(true)
        }
        "check" => {
            cli.reject_unknown(&["--out-dir", "--deps"])?;
            check::check(
                &cli.words,
                cli.get("--out-dir")
                    .map_or_else(default_out_dir, PathBuf::from),
            )
        }
        "aa" | "baseline" => {
            cli.reject_unknown(&["--seed", "--seconds", "--out", "--out-dir", "--deps"])?;
            let args = aa::AaArgs {
                seed: cli.num("--seed")?.unwrap_or(8192),
                seconds: cli.num("--seconds")?.unwrap_or(30),
                out: cli.get("--out").map(PathBuf::from),
                out_dir: cli
                    .get("--out-dir")
                    .map_or_else(default_out_dir, PathBuf::from),
                deps: cli.get("--deps").unwrap_or("unknown").to_string(),
            };
            if command == "aa" {
                aa::aa(&args)
            } else {
                aa::baseline(&args)
            }
        }
        _ => unreachable!("command is one of the four matched above"),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
