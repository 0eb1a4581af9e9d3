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

/// Run `ooc-bench` with `tokens` (the command line without the program
/// name) and return its exit code ([`phylo_ooc::args::run`]).
pub fn run(tokens: &[String]) -> i32 {
    let about = "regenerate the paper's tables and figures";
    phylo_ooc::args::run("ooc-bench", about, &cmd::COMMANDS, tokens)
}
