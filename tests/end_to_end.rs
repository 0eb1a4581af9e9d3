//! End-to-end workflows across the whole stack: simulate → write/read
//! standard formats → build engines → search → export the tree.

mod common;

use phylo_ooc::models::{DiscreteGamma, ReversibleModel};
use phylo_ooc::ooc::StrategyKind;
use phylo_ooc::plf::{InRamStore, PlfEngine};
use phylo_ooc::search::{hill_climb, nni_round, SearchConfig};
use phylo_ooc::seq::phylip::{read_phylip, write_phylip};
use phylo_ooc::seq::{compress_patterns, simulate_alignment, Alphabet};
use phylo_ooc::setup::{self, DatasetSpec};
use phylo_ooc::tree::build::{random_topology, yule_like_lengths};
use phylo_ooc::tree::{parse_newick, write_newick};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufReader;

#[test]
fn simulate_export_import_evaluate() {
    // Simulate, dump to PHYLIP, re-read it, and verify the likelihood of
    // the re-read data matches the original exactly.
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 12,
        n_sites: 140,
        seed: 5,
        ..Default::default()
    });
    let reference = setup::inram_engine(&data).log_likelihood().unwrap();

    let mut phylip_buf = Vec::new();
    write_phylip(&mut phylip_buf, &data.comp().alignment).unwrap();

    let alignment = read_phylip(BufReader::new(&phylip_buf[..]), Alphabet::Dna).unwrap();
    // We exported the *pattern* alignment, whose columns are already
    // distinct; re-compressing keeps their order, but the original
    // column weights must be carried over.
    let mut comp = compress_patterns(&alignment);
    assert_eq!(comp.n_patterns(), data.comp().n_patterns());
    comp.weights = data.comp().weights.clone();
    let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
    let store = InRamStore::new(data.tree.n_inner(), dims.width());
    let mut engine = PlfEngine::new(
        data.tree.clone(),
        &comp,
        data.model().clone(),
        data.alpha,
        4,
        store,
    );
    assert_eq!(
        engine.log_likelihood().unwrap().to_bits(),
        reference.to_bits()
    );
}

#[test]
fn newick_roundtrip_preserves_likelihood() {
    // Serialise the tree to Newick, re-parse it, remap sequences by tip
    // name, and verify the likelihood is unchanged (up to f64 parsing of
    // the branch lengths; we print with full precision so it is exact).
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 15,
        n_sites: 100,
        seed: 6,
        ..Default::default()
    });
    let reference = setup::inram_engine(&data).log_likelihood().unwrap();
    let names = data.comp().alignment.names().to_vec();
    let nwk = write_newick(&data.tree, &names);
    let (tree2, names2) = parse_newick(&nwk).unwrap();

    // Reorder alignment rows to the new tip order.
    let order: Vec<usize> = names2
        .iter()
        .map(|n| names.iter().position(|m| m == n).unwrap())
        .collect();
    let entries: Vec<(String, String)> = order
        .iter()
        .map(|&i| (names[i].clone(), data.comp().alignment.seq_chars(i)))
        .collect();
    // Expand back to per-site columns (alignment in comp is pattern-level,
    // so weights must be carried over); easiest: evaluate on the pattern
    // alignment directly with its weights.
    let aln = phylo_ooc::seq::Alignment::from_chars(Alphabet::Dna, &entries).unwrap();
    let comp2 = phylo_ooc::seq::CompressedAlignment {
        weights: data.comp().weights.clone(),
        site_to_pattern: data.comp().site_to_pattern.clone(),
        alignment: aln,
    };
    let dims = PlfEngine::<InRamStore>::dims_for(&comp2, 4);
    let store = InRamStore::new(tree2.n_inner(), dims.width());
    let mut engine = PlfEngine::new(tree2, &comp2, data.model().clone(), data.alpha, 4, store);
    let lnl = engine.log_likelihood().unwrap();
    assert!(
        (lnl - reference).abs() < 1e-6 * reference.abs(),
        "{lnl} vs {reference}"
    );
}

#[test]
fn search_recovers_signal_on_easy_data() {
    // Strong signal (long alignment, few taxa): the search from a random
    // start must reach a likelihood close to the truth's.
    let mut rng = StdRng::seed_from_u64(31);
    let mut true_tree = random_topology(12, 0.1, &mut rng);
    yule_like_lengths(&mut true_tree, 0.2, 1e-4, &mut rng);
    let model = ReversibleModel::jc69();
    let gamma = DiscreteGamma::new(1.0, 4);
    let aln = simulate_alignment(&true_tree, &model, &gamma, 800, &mut rng);
    let comp = compress_patterns(&aln);

    let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
    let mut engine_true = PlfEngine::new(
        true_tree.clone(),
        &comp,
        model.clone(),
        1.0,
        4,
        InRamStore::new(true_tree.n_inner(), dims.width()),
    );
    let true_lnl = engine_true.smooth_branches(2, 24).unwrap();

    let start = random_topology(12, 0.1, &mut StdRng::seed_from_u64(90));
    let mut engine = PlfEngine::new(
        start,
        &comp,
        model,
        1.0,
        4,
        InRamStore::new(true_tree.n_inner(), dims.width()),
    );
    let stats = hill_climb(
        &mut engine,
        &SearchConfig {
            spr_radius: 6,
            max_rounds: 8,
            optimize_model: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        stats.final_lnl > true_lnl - 5.0,
        "search {} vs truth {true_lnl}",
        stats.final_lnl
    );
}

#[test]
fn nni_polish_after_spr_search() {
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 14,
        n_sites: 160,
        seed: 8,
        ..Default::default()
    });
    let mut engine = common::ooc_mem(&data, 0.5, StrategyKind::Lru);
    let cfg = SearchConfig {
        spr_radius: 3,
        max_rounds: 1,
        optimize_model: false,
        ..Default::default()
    };
    let stats = hill_climb(&mut engine, &cfg).unwrap();
    let (polished, _) = nni_round(&mut engine, 12, 1e-4).unwrap();
    assert!(polished >= stats.final_lnl - 1e-6);
}

#[test]
fn protein_data_end_to_end() {
    // The paper quotes protein memory footprints (20 states, 80 doubles
    // per site under Γ); verify the whole stack handles 20-state data.
    let mut rng = StdRng::seed_from_u64(17);
    let mut tree = random_topology(8, 0.1, &mut rng);
    yule_like_lengths(&mut tree, 0.15, 1e-4, &mut rng);
    let model = phylo_ooc::models::protein::synthetic_protein(4);
    let gamma = DiscreteGamma::new(0.7, 4);
    let aln = simulate_alignment(&tree, &model, &gamma, 60, &mut rng);
    let comp = compress_patterns(&aln);
    let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
    assert_eq!(dims.n_states, 20);
    // 80 doubles per site, as in §3.1.
    assert_eq!(dims.site_stride(), 80);

    let mut standard = PlfEngine::new(
        tree.clone(),
        &comp,
        model.clone(),
        0.7,
        4,
        InRamStore::new(tree.n_inner(), dims.width()),
    );
    let reference = standard.log_likelihood().unwrap();
    assert!(reference.is_finite() && reference < 0.0);

    // Out-of-core protein run, minimum slots.
    use phylo_ooc::ooc::{MemStore, OocConfig, VectorManager};
    use phylo_ooc::plf::OocStore;
    let manager = VectorManager::new(
        OocConfig::builder(tree.n_inner(), dims.width())
            .slots(3)
            .build()
            .unwrap(),
        StrategyKind::Lru.build(None),
        MemStore::new(tree.n_inner(), dims.width()),
    );
    let mut ooc = PlfEngine::new(tree, &comp, model, 0.7, 4, OocStore::new(manager));
    assert_eq!(ooc.log_likelihood().unwrap().to_bits(), reference.to_bits());
}
