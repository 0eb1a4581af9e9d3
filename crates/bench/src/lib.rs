//! Benchmark harness regenerating every table and figure of the paper:
//! one binary, `ooc-bench <cmd>`, one subcommand per experiment (see
//! [`cmd`]). The per-subcommand flag tables with their strict parser
//! ([`phylo_ooc::args`]) and the `--metrics FILE` stream
//! ([`phylo_ooc::run::MetricsFile`], one scope per measured configuration)
//! are the root crate's; the rest of the shared machinery lives here:
//!
//! * [`cell`] — [`cell::run_cell`], the one function that builds an engine
//!   for a timed run (always through [`phylo_ooc::run::run`]),
//! * [`workload`] — the canonical search workload whose vector accesses
//!   drive the miss-rate experiments, and [`workload::sweep`], of which
//!   Figures 2–4 and the supplement are presets,
//! * [`replay`] — access-pattern replay with modelled disk costs, used to
//!   run Figure 5 at the paper's 1–32 GB geometry without physical I/O,
//! * [`report`] — aligned tables on stdout and JSON series on disk,
//! * [`tuner`] — the model-pruned `EngineSpec` autotuner behind
//!   `ooc-bench tune` (enumerate → prune by simulated traffic → probe
//!   survivors).

pub mod cell;
pub mod cmd;
pub mod replay;
pub mod report;
pub mod tuner;
pub mod workload;

use phylo_ooc::args::{self, Args};

/// Run `ooc-bench` with `tokens` (the command line without the program
/// name) and return its exit code: 0 on success, 1 when the experiment or
/// check fails, 2 when the command line is not understood.
pub fn run(tokens: &[String]) -> i32 {
    let wants_help = |t: &[String]| t.iter().any(|t| t == "--help" || t == "-h");
    let Some((cmd, rest)) = cmd::lookup(tokens) else {
        if wants_help(tokens) {
            print!("{}", cmd::usage());
            return 0;
        }
        if let Some(typed) = tokens.first() {
            eprintln!("ooc-bench: unknown command '{typed}'");
        }
        eprint!("{}", cmd::usage());
        return 2;
    };
    if wants_help(rest) {
        println!("ooc-bench {} — {}\n", cmd.name, cmd.about);
        print!("{}", args::help(cmd.flags));
        return 0;
    }
    let args = match Args::parse(cmd.flags, cmd.positional, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ooc-bench {}: {e}", cmd.name);
            eprint!("valid flags:\n{}", args::help(cmd.flags));
            return 2;
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ooc-bench {}: {e}", cmd.name);
            1
        }
    }
}
