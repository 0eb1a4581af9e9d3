//! Genome-scale analysis under memory pressure: one point of the paper's
//! Figure 5 at reduced scale, with real I/O on both sides.
//!
//! A dataset whose ancestral vectors are ~4x larger than the "physical
//! memory" budget is evaluated with five full tree traversals (the paper's
//! `-f z` worst case) in three configurations:
//!
//! 1. standard, vectors in a demand-paged arena (OS-paging baseline),
//! 2. out-of-core with LRU replacement and the same RAM budget,
//! 3. out-of-core with Random replacement.
//!
//! ```sh
//! cargo run --release --example genome_scale
//! ```

use phylo_ooc::ooc::StrategyKind;
use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::setup::{self, DatasetSpec};
use std::time::Instant;

fn main() {
    // ~1024 taxa x 600 patterns: vectors ~ 1022 * 600*16*8 B ≈ 75 MiB.
    let spec = DatasetSpec {
        n_taxa: 1024,
        n_sites: 600,
        seed: 8192,
        ..Default::default()
    };
    println!(
        "simulating dataset ({} taxa x {} sites)...",
        spec.n_taxa, spec.n_sites
    );
    let data = setup::simulate_dataset(&spec);
    let total = data.total_vector_bytes();
    let budget = (total / 4) as usize; // 4x oversubscription
    println!(
        "ancestral vectors: {:.1} MiB, memory budget: {:.1} MiB (paper: 1-32 GB vs 1-2 GB)\n",
        total as f64 / (1024.0 * 1024.0),
        budget as f64 / (1024.0 * 1024.0)
    );

    let dir = tempfile::tempdir().expect("tempdir");
    let traversals = 5;

    // 1. Standard implementation over the paging arena.
    let mut paged = setup::paged_engine(&data, dir.path().join("swap.bin"), budget)
        .expect("failed to create swap file");
    let t0 = Instant::now();
    let lnl_paged = paged
        .full_traversals(traversals)
        .expect("paged traversal failed");
    let t_paged = t0.elapsed();
    let pstats = paged.store().arena().stats();
    println!(
        "standard (paging):   {:>8.2?}  lnl {:.4}\n                     page faults: {}, swap-ins: {}, writebacks: {}",
        t_paged, lnl_paged, pstats.faults, pstats.major_faults, pstats.writebacks
    );

    // 2./3. Out-of-core with the same budget.
    for kind in [StrategyKind::Lru, StrategyKind::Random { seed: 5 }] {
        let ooc_spec = EngineSpec {
            residency: Residency::FileLimit {
                limit_bytes: budget as u64,
            },
            strategy: kind,
            ..setup::base_spec(&data)
        };
        let ctx = BuildContext::new()
            .vector_path(dir.path().join(format!("vectors_{}.bin", kind.label())));
        let mut ooc = ooc_spec
            .build(&data.tree, &setup::part_specs(&data), &ctx)
            .expect("failed to create backing file")
            .engine;
        let t0 = Instant::now();
        let lnl = ooc
            .full_traversals(traversals)
            .expect("out-of-core traversal failed");
        let dt = t0.elapsed();
        let stats = ooc.ooc_stats().expect("managed engine keeps stats");
        println!(
            "out-of-core ({:<4}):  {:>8.2?}  lnl {:.4}\n                     misses: {} ({:.1}%), reads: {}, writes: {}, skipped reads: {}",
            kind.label(),
            dt,
            lnl,
            stats.misses,
            stats.miss_rate() * 100.0,
            stats.disk_reads,
            stats.disk_writes,
            stats.skipped_reads
        );
        assert_eq!(
            lnl.to_bits(),
            lnl_paged.to_bits(),
            "all configurations must agree exactly"
        );
    }

    println!(
        "\nThe out-of-core runs move whole vectors with read skipping\n\
         (full traversals overwrite every vector, so *no* reads are needed),\n\
         while the pager moves 4 KiB pages with no application knowledge —\n\
         the mechanism behind the >5x speedup in the paper's Figure 5."
    );
}
