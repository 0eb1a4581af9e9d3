//! Quickstart: compute a phylogenetic likelihood out-of-core and verify it
//! is bit-identical to the standard all-in-RAM computation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency};
use phylo_ooc::setup::{self, DatasetSpec};

fn main() {
    // A small simulated DNA dataset: 64 taxa, 500 sites, HKY85 + Γ4.
    let spec = DatasetSpec {
        n_taxa: 64,
        n_sites: 500,
        seed: 2011,
        ..Default::default()
    };
    let data = setup::simulate_dataset(&spec);
    println!(
        "dataset: {} taxa x {} sites ({} patterns), ancestral vectors: {} x {:.1} KiB = {:.1} MiB",
        spec.n_taxa,
        spec.n_sites,
        data.comp().n_patterns(),
        data.n_items(),
        data.width(0) as f64 * 8.0 / 1024.0,
        data.total_vector_bytes() as f64 / (1024.0 * 1024.0),
    );

    // Standard implementation: everything in RAM.
    let mut standard = setup::inram_engine(&data);
    let lnl_standard = standard
        .log_likelihood()
        .expect("in-RAM likelihood cannot fail on I/O");

    // Out-of-core: only 25% of the vectors get RAM slots; the rest live in
    // a real binary file, swapped on demand with LRU replacement.
    let dir = tempfile::tempdir().expect("tempdir");
    let limit = data.total_vector_bytes() / 4;
    let ooc_spec = EngineSpec {
        residency: Residency::FileLimit { limit_bytes: limit },
        ..setup::base_spec(&data)
    };
    let ctx = BuildContext::new().vector_path(dir.path().join("ancestral_vectors.bin"));
    let mut ooc = ooc_spec
        .build(&data.tree, &setup::part_specs(&data), &ctx)
        .expect("failed to create backing file")
        .engine;
    let lnl_ooc = ooc.log_likelihood().expect("out-of-core likelihood failed");

    println!("log-likelihood (standard):    {lnl_standard:.6}");
    println!("log-likelihood (out-of-core): {lnl_ooc:.6}");
    assert_eq!(
        lnl_standard.to_bits(),
        lnl_ooc.to_bits(),
        "the paper's correctness criterion: results must be identical"
    );

    let stats = ooc.ooc_stats().expect("managed engine keeps stats");
    let n_slots = ooc_spec
        .slot_counts(&data.tree, &setup::part_specs(&data))
        .expect("spec already validated")[0]
        .expect("file residency is slot-managed");
    println!(
        "\nout-of-core statistics with f = 0.25 ({n_slots} of {} slots):",
        data.n_items()
    );
    println!("  {stats}");
    println!(
        "  -> miss rate {:.2}%, read rate {:.2}% (read skipping avoided {:.1}% of reads)",
        stats.miss_rate() * 100.0,
        stats.read_rate() * 100.0,
        stats.skip_fraction() * 100.0
    );
    println!("\nOK: identical likelihoods, out-of-core machinery exercised.");
}
