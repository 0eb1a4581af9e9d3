//! Bayesian MCMC sampling executed out-of-core.
//!
//! The paper's conclusion: "The concepts developed here can be applied to
//! all PLF-based programs (ML and Bayesian)". MCMC proposals (random NNI,
//! branch scalings) have *less* locality than a hill-climbing search, so
//! this example is the stress case for the replacement strategies: it runs
//! the same chain in RAM and with 25% of the vectors resident, checks the
//! trajectories are identical, and reports the miss rate.
//!
//! ```sh
//! cargo run --release --example bayesian_mcmc
//! ```

use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::search::{run_mcmc, McmcConfig};
use phylo_ooc::setup::{self, DatasetSpec};

fn main() {
    let spec = DatasetSpec {
        n_taxa: 40,
        n_sites: 300,
        seed: 515,
        ..Default::default()
    };
    let data = setup::simulate_dataset(&spec);
    let cfg = McmcConfig {
        iterations: 2000,
        seed: 99,
        ..Default::default()
    };
    println!(
        "MCMC: {} iterations on {} taxa x {} patterns\n",
        cfg.iterations,
        spec.n_taxa,
        data.comp().n_patterns()
    );

    let mut standard = setup::inram_engine(&data);
    let stats_std = run_mcmc(&mut standard, &cfg).expect("in-RAM MCMC cannot fail on I/O");
    println!(
        "standard:    accepted {}/{} ({} topology moves), final log-posterior {:.4}",
        stats_std.accepted,
        cfg.iterations,
        stats_std.topology_accepted,
        stats_std.final_log_posterior
    );

    let ooc_spec = EngineSpec {
        residency: Residency::OocMem { fraction: 0.25 },
        ..setup::base_spec(&data)
    };
    let mut ooc = ooc_spec
        .build(&data.tree, &setup::part_specs(&data), &BuildContext::new())
        .expect("spec build failed")
        .engine;
    let stats_ooc = run_mcmc(&mut ooc, &cfg).expect("MCMC over the OOC store failed");
    let mgr = ooc.ooc_stats().expect("managed engine keeps stats");
    println!(
        "out-of-core: accepted {}/{} ({} topology moves), final log-posterior {:.4}",
        stats_ooc.accepted,
        cfg.iterations,
        stats_ooc.topology_accepted,
        stats_ooc.final_log_posterior
    );
    println!("             manager: {mgr}");

    assert_eq!(
        stats_std.final_log_posterior.to_bits(),
        stats_ooc.final_log_posterior.to_bits(),
        "chains must be identical"
    );
    println!(
        "\nOK: identical chains; MCMC miss rate {:.2}% at f = 0.25 (vs ~3-5% for\n\
         ML search workloads) — random proposals have less locality, exactly\n\
         why the paper's Topological/LRU strategies matter for Bayesian use.",
        mgr.miss_rate() * 100.0
    );
}
