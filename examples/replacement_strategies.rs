//! Compare the four replacement strategies of the paper (Random, LRU, LFU,
//! Topological) on the same workload: repeated partial traversals and
//! branch-length smoothing — the access pattern of a real analysis.
//!
//! ```sh
//! cargo run --release --example replacement_strategies
//! ```

use phylo_ooc::ooc::StrategyKind;
use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::setup::{self, DatasetSpec};

fn main() {
    let spec = DatasetSpec {
        n_taxa: 96,
        n_sites: 400,
        seed: 7,
        ..Default::default()
    };
    let data = setup::simulate_dataset(&spec);
    println!(
        "workload: smoothing passes + re-rooted evaluations on {} taxa, {} patterns\n",
        spec.n_taxa,
        data.comp().n_patterns()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "strategy", "requests", "misses", "miss rate", "disk reads", "read rate"
    );

    for kind in [
        StrategyKind::Random { seed: 1 },
        StrategyKind::Lru,
        StrategyKind::Lfu,
        StrategyKind::Topological,
        StrategyKind::NextUse,
    ] {
        let ooc_spec = EngineSpec {
            residency: Residency::OocMem { fraction: 0.25 },
            strategy: kind,
            ..setup::base_spec(&data)
        };
        let mut engine = ooc_spec
            .build(&data.tree, &setup::part_specs(&data), &BuildContext::new())
            .expect("spec build failed")
            .engine;
        // Warm up: one full likelihood computation (all vectors cold).
        let _ = engine.log_likelihood().expect("warm-up traversal failed");
        engine.reset_ooc_stats();

        // Workload: two smoothing passes and a tour of re-rootings.
        engine.smooth_branches(2, 8).expect("smoothing pass failed");
        let roots: Vec<u32> = engine.tree().branches().step_by(7).collect();
        for h in roots {
            let _ = engine
                .log_likelihood_at(h, false)
                .expect("re-rooted evaluation failed");
        }

        let stats = engine.ooc_stats().expect("managed engine keeps stats");
        println!(
            "{:<14} {:>10} {:>10} {:>11.2}% {:>12} {:>9.2}%",
            kind.label(),
            stats.requests,
            stats.misses,
            stats.miss_rate() * 100.0,
            stats.disk_reads,
            stats.read_rate() * 100.0
        );
    }

    println!(
        "\nAs in the paper: Random, LRU and Topological perform similarly;\n\
         LFU falls behind because loaded-but-rarely-touched vectors look\n\
         like ideal victims even when they are about to be reused."
    );
}
