//! The `ooc-bench` subcommands: one entry per experiment of DESIGN.md's
//! experiment index, each a flag table plus a `run` function.

use phylo_ooc::args::{Args, Flag};
use phylo_ooc::setup::{simulate_dataset, Dataset, DatasetSpec};

pub mod ablation;
pub mod check;
pub mod correctness;
pub mod fig5;
pub mod kernels;
pub mod miss_rates;
pub mod pipeline;
pub mod tune;

/// One subcommand.
pub struct Command {
    /// Name as typed (`ablation` arms are two words).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Every flag the command reads.
    pub flags: &'static [Flag],
    /// Name of its positional argument, if it takes one.
    pub positional: Option<&'static str>,
    /// Run it; `Err` is a failed experiment or check (exit code 1).
    pub run: fn(&Args) -> Result<(), String>,
}

/// Every subcommand, in `--help` order.
pub const COMMANDS: [&Command; 13] = [
    &miss_rates::FIG2,
    &miss_rates::FIG3,
    &miss_rates::FIG4,
    &miss_rates::SUPP1908,
    &fig5::FIG5,
    &ablation::PREFETCH,
    &ablation::WRITEBACK,
    &ablation::MCMC,
    &kernels::KERNELS,
    &tune::TUNE,
    &correctness::CORRECTNESS,
    &pipeline::PIPELINE,
    &check::CHECK,
];

/// Split a command line into its subcommand and the tokens after it.
pub fn lookup(tokens: &[String]) -> Option<(&'static Command, &[String])> {
    COMMANDS.into_iter().find_map(|cmd| {
        let words = cmd.name.split(' ').count();
        let typed = tokens.get(..words)?;
        (typed.join(" ") == cmd.name).then(|| (cmd, &tokens[words..]))
    })
}

/// Top-level usage text.
pub fn usage() -> String {
    let mut out =
        String::from("usage: ooc-bench <command> [flags]   (ooc-bench <command> --help)\n\n");
    for cmd in COMMANDS {
        out.push_str(&format!("  {:<20} {}\n", cmd.name, cmd.about));
    }
    out
}

/// The dataset geometry named by a command's `--taxa/--sites/--seed`.
fn dataset_spec(args: &Args) -> DatasetSpec {
    DatasetSpec {
        n_taxa: args.usize("taxa"),
        n_sites: args.usize("sites"),
        seed: args.u64("seed"),
        ..Default::default()
    }
}

/// The simulated dataset of [`dataset_spec`].
fn dataset(args: &Args) -> Dataset {
    simulate_dataset(&dataset_spec(args))
}
