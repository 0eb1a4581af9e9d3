//! A full maximum-likelihood tree search running out-of-core: the scenario
//! the paper's introduction motivates — an analysis whose ancestral-vector
//! memory would not fit in RAM, executed with only a fraction of it.
//!
//! The search runs twice, once standard (all in RAM) and once out-of-core
//! with 25% of the vectors resident, and must produce the *identical*
//! final tree and log-likelihood (the paper verified exactly this for all
//! strategies and memory fractions).
//!
//! ```sh
//! cargo run --release --example ooc_tree_search
//! ```

use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::search::{hill_climb, SearchConfig};
use phylo_ooc::setup::{self, DatasetSpec};
use phylo_ooc::tree::write_newick;

fn main() {
    let spec = DatasetSpec {
        n_taxa: 48,
        n_sites: 300,
        seed: 1288,
        ..Default::default()
    };
    let data = setup::simulate_dataset(&spec);
    let cfg = SearchConfig {
        spr_radius: 4,
        max_rounds: 2,
        optimize_model: false,
        seed: 9,
        ..Default::default()
    };
    println!(
        "searching: {} taxa, {} patterns, SPR radius {}, {} round(s) max\n",
        spec.n_taxa,
        data.comp().n_patterns(),
        cfg.spr_radius,
        cfg.max_rounds
    );

    // Standard search.
    let mut standard = setup::inram_engine(&data);
    let stats_std = hill_climb(&mut standard, &cfg).expect("in-RAM search cannot fail on I/O");
    println!(
        "standard:    lnl {:.4} -> {:.4} ({} SPRs applied, {} evaluated)",
        stats_std.initial_lnl, stats_std.final_lnl, stats_std.spr_applied, stats_std.spr_evaluated
    );

    // Out-of-core search with 25% of vectors in RAM.
    let ooc_spec = EngineSpec {
        residency: Residency::OocMem { fraction: 0.25 },
        ..setup::base_spec(&data)
    };
    let mut ooc = ooc_spec
        .build(&data.tree, &setup::part_specs(&data), &BuildContext::new())
        .expect("spec build failed")
        .engine;
    let stats_ooc = hill_climb(&mut ooc, &cfg).expect("search over the OOC store failed");
    let mgr = ooc.ooc_stats().expect("managed engine keeps stats");
    println!(
        "out-of-core: lnl {:.4} -> {:.4} ({} SPRs applied, {} evaluated)",
        stats_ooc.initial_lnl, stats_ooc.final_lnl, stats_ooc.spr_applied, stats_ooc.spr_evaluated
    );
    println!("             manager: {mgr}");

    // Determinism check: identical trajectory and identical final tree.
    assert_eq!(
        stats_std.final_lnl.to_bits(),
        stats_ooc.final_lnl.to_bits(),
        "out-of-core search must reproduce the standard search exactly"
    );
    let names: Vec<String> = data.comp().alignment.names().to_vec();
    let t_std = write_newick(standard.tree(), &names);
    let t_ooc = write_newick(ooc.tree(), &names);
    assert_eq!(t_std, t_ooc, "final topologies must be identical");

    println!(
        "\nOK: identical final trees and likelihoods; the search ran with \
         {:.0}% of the vector memory ({} of {} vectors resident), miss rate {:.2}%.",
        25.0,
        ooc_spec
            .slot_counts(&data.tree, &setup::part_specs(&data))
            .expect("spec already validated")[0]
            .expect("ooc-mem residency is slot-managed"),
        data.n_items(),
        mgr.miss_rate() * 100.0
    );
    println!(
        "final tree (first 120 chars): {}…",
        &t_ooc[..t_ooc.len().min(120)]
    );
}
