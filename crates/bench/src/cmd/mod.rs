//! The `ooc-bench` subcommands: one entry per experiment of DESIGN.md's
//! experiment index, each a flag table plus a `run` function.

use phylo_ooc::args::{Args, Command};
use phylo_ooc::setup::{simulate_dataset, Dataset, DatasetSpec};

pub mod ablation;
pub mod check;
pub mod correctness;
pub mod fig5;
pub mod kernels;
pub mod miss_rates;
pub mod tune;

/// Every subcommand, in `--help` order.
pub const COMMANDS: [&Command; 11] = [
    &miss_rates::FIG2,
    &miss_rates::FIG3,
    &miss_rates::FIG4,
    &miss_rates::SUPP1908,
    &fig5::FIG5,
    &ablation::WRITEBACK,
    &ablation::MCMC,
    &kernels::KERNELS,
    &tune::TUNE,
    &correctness::CORRECTNESS,
    &check::CHECK,
];

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
