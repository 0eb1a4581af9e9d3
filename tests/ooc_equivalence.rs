//! Experiment E5 — the paper's correctness criterion (§4.1):
//! "Given a fixed starting tree, RAxML is deterministic, that is,
//! regardless of f and the selected replacement strategy, the resulting
//! tree (and log likelihood score) must always be identical to the tree
//! returned by the standard RAxML implementation."
//!
//! We assert bit-identical log-likelihoods across every residency backend,
//! replacement strategy and memory fraction, for plain evaluation, full
//! traversals, smoothing and whole searches.

mod common;

use phylo_ooc::ooc::{OocResult, OocStats, StrategyKind};
use phylo_ooc::plf::oracle::build_strategy;
use phylo_ooc::plf::{BuildContext, EngineSpec, LikelihoodEngine, Residency, SharedTree};
use phylo_ooc::run::{run, Job};
use phylo_ooc::search::{hill_climb, SearchConfig};
use phylo_ooc::setup::{self, DatasetSpec};
use phylo_ooc::tree::spr::{NniUndo, SprUndo};
use phylo_ooc::tree::{write_newick, HalfEdgeId, Tree};

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 24,
        n_sites: 180,
        seed: 2011,
        ..Default::default()
    }
}

const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::Random { seed: 3 },
    StrategyKind::Lru,
    StrategyKind::Lfu,
    StrategyKind::Topological,
    StrategyKind::NextUse,
];

#[test]
fn likelihood_identical_across_strategies_and_fractions() {
    let data = setup::simulate_dataset(&spec());
    let mut standard = setup::inram_engine(&data);
    let reference = standard.log_likelihood().unwrap();
    assert!(reference.is_finite() && reference < 0.0);

    for kind in STRATEGIES {
        for f in [0.25, 0.5, 0.75] {
            let mut ooc = common::ooc_mem(&data, f, kind);
            let lnl = ooc.log_likelihood().unwrap();
            assert_eq!(
                reference.to_bits(),
                lnl.to_bits(),
                "strategy {} f={f}: {lnl} != {reference}",
                kind.label()
            );
        }
    }
}

#[test]
fn minimum_slots_still_exact() {
    // The paper's extreme case: only five slots (and the hard minimum 3).
    let data = setup::simulate_dataset(&spec());
    let mut standard = setup::inram_engine(&data);
    let reference = standard.full_traversals(2).unwrap();
    for n_slots in [3usize, 5] {
        let f = n_slots as f64 / data.n_items() as f64;
        let engine_spec = EngineSpec {
            residency: Residency::OocMem { fraction: f },
            strategy: StrategyKind::Random { seed: 1 },
            ..setup::base_spec(&data)
        };
        let resolved = engine_spec
            .slot_counts(&data.tree, &setup::part_specs(&data))
            .unwrap();
        assert_eq!(resolved, vec![Some(n_slots)]);
        let mut ooc = engine_spec
            .build(&data.tree, &setup::part_specs(&data), &BuildContext::new())
            .unwrap()
            .engine;
        let lnl = ooc.full_traversals(2).unwrap();
        assert_eq!(reference.to_bits(), lnl.to_bits(), "{n_slots} slots");
        assert!(
            ooc.ooc_stats().unwrap().miss_rate() > 0.3,
            "tiny slot counts should miss a lot"
        );
    }
}

#[test]
fn file_store_matches_mem_store() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().unwrap();
    let mut mem = common::ooc_mem(&data, 0.3, StrategyKind::Lru);
    let mut file = common::ooc_file(
        &data,
        &dir.path().join("v.bin"),
        data.total_vector_bytes() * 3 / 10,
        StrategyKind::Lru,
    );
    let a = mem.full_traversals(3).unwrap();
    let b = file.full_traversals(3).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn paged_arena_matches_standard() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().unwrap();
    let mut standard = setup::inram_engine(&data);
    // Heavily oversubscribed arena: an eighth of the required memory.
    let mut paged = setup::paged_engine(
        &data,
        dir.path().join("swap.bin"),
        (data.total_vector_bytes() / 8) as usize,
    )
    .unwrap();
    let a = standard.full_traversals(2).unwrap();
    let b = paged.full_traversals(2).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
    assert!(
        paged.store().arena().stats().major_faults > 0,
        "oversubscription must cause swap traffic"
    );
}

#[test]
fn smoothing_identical_out_of_core() {
    let data = setup::simulate_dataset(&spec());
    let mut standard = setup::inram_engine(&data);
    let mut ooc = common::ooc_mem(&data, 0.25, StrategyKind::Lru);
    let a = standard.smooth_branches(2, 12).unwrap();
    let b = ooc.smooth_branches(2, 12).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn whole_search_identical_out_of_core() {
    let data = setup::simulate_dataset(&DatasetSpec {
        n_taxa: 16,
        n_sites: 120,
        seed: 77,
        ..Default::default()
    });
    let cfg = SearchConfig {
        spr_radius: 3,
        max_rounds: 2,
        optimize_model: true,
        seed: 5,
        ..Default::default()
    };
    let mut standard = setup::inram_engine(&data);
    let std_stats = hill_climb(&mut standard, &cfg).unwrap();

    for kind in STRATEGIES {
        let mut ooc = common::ooc_mem(&data, 0.25, kind);
        let ooc_stats = hill_climb(&mut ooc, &cfg).unwrap();
        assert_eq!(
            std_stats.final_lnl.to_bits(),
            ooc_stats.final_lnl.to_bits(),
            "strategy {}",
            kind.label()
        );
        assert_eq!(std_stats.spr_applied, ooc_stats.spr_applied);
        let names = data.comp().alignment.names().to_vec();
        assert_eq!(
            write_newick(standard.tree(), &names),
            write_newick(ooc.tree(), &names),
            "final topology must be identical (strategy {})",
            kind.label()
        );
    }
}

#[test]
fn read_skipping_does_not_change_results() {
    use phylo_ooc::ooc::{MemStore, OocConfig, VectorManager};
    use phylo_ooc::plf::{OocStore, PlfEngine};
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data).full_traversals(2).unwrap();
    for read_skipping in [true, false] {
        let cfg = OocConfig::builder(data.n_items(), data.width(0))
            .fraction(0.25)
            .read_skipping(read_skipping)
            .build()
            .expect("valid out-of-core config");
        let manager = VectorManager::new(
            cfg,
            StrategyKind::Lru.build(None),
            MemStore::new(data.n_items(), data.width(0)),
        );
        let mut engine = PlfEngine::new(
            data.tree.clone(),
            data.comp(),
            data.model().clone(),
            data.alpha,
            data.n_cats,
            OocStore::new(manager),
        );
        let lnl = engine.full_traversals(2).unwrap();
        assert_eq!(
            reference.to_bits(),
            lnl.to_bits(),
            "read_skipping={read_skipping}"
        );
    }
}

/// The independent reference for the oracle refresh: an engine that takes
/// a fresh snapshot of its tree before *every* call that plans.
struct RefreshedAtEveryPlan<E> {
    engine: E,
    shared: SharedTree,
}

impl<E: LikelihoodEngine> RefreshedAtEveryPlan<E> {
    fn fresh(&mut self) -> &mut E {
        self.shared.update(self.engine.tree());
        &mut self.engine
    }
}

impl<E: LikelihoodEngine> LikelihoodEngine for RefreshedAtEveryPlan<E> {
    fn tree(&self) -> &Tree {
        self.engine.tree()
    }
    fn alpha(&self) -> f64 {
        self.engine.alpha()
    }
    fn set_alpha(&mut self, alpha: f64) {
        self.engine.set_alpha(alpha)
    }
    fn invalidate_all(&mut self) {
        self.engine.invalidate_all()
    }
    fn log_likelihood(&mut self) -> OocResult<f64> {
        self.fresh().log_likelihood()
    }
    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        self.fresh().log_likelihood_at(root_he, full)
    }
    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        self.engine.set_branch_length(h, len)
    }
    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        self.fresh().optimize_branch(h, max_iter)
    }
    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        self.fresh().smooth_branches(passes, nr_iter)
    }
    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        self.fresh().optimize_alpha(tol, max_iter)
    }
    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        self.engine.apply_spr(prune_dir, target, graft_lens)
    }
    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        self.engine.undo_spr(prune_dir, undo)
    }
    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        self.engine.apply_nni(h, variant)
    }
    fn undo_nni(&mut self, undo: &NniUndo) {
        self.engine.undo_nni(undo)
    }
    fn ooc_stats(&self) -> Option<OocStats> {
        self.engine.ooc_stats()
    }
}

/// A search through the production run path ranks victims by distances in
/// the tree as it is, not as it started: its counters equal those of a
/// hand-assembled engine whose oracle is refreshed at every plan — and
/// differ from those of one whose oracle is never refreshed.
#[test]
fn the_production_path_keeps_the_topology_oracle_fresh() {
    use phylo_ooc::ooc::{MemStore, OocConfig, VectorManager};
    use phylo_ooc::plf::{OocStore, PlfEngine};
    let simulated = |seed| {
        setup::simulate_dataset(&DatasetSpec {
            n_taxa: 20,
            n_sites: 120,
            seed,
            ..Default::default()
        })
    };
    // Start from another dataset's tree, so that the search has moves to
    // make.
    let mut data = simulated(77);
    data.tree = simulated(78).tree;
    let cfg = SearchConfig {
        spr_radius: 3,
        max_rounds: 2,
        seed: 5,
        ..Default::default()
    };
    let spec = EngineSpec {
        residency: Residency::OocMem { fraction: 0.25 },
        strategy: StrategyKind::Topological,
        ..setup::base_spec(&data)
    };
    let produced = run(Job::new(&spec, &data), |engine, _| {
        hill_climb(engine, &cfg).map_err(|e| e.to_string())
    })
    .unwrap();
    assert!(produced.value.spr_applied > 0, "the tree must have moved");

    let by_hand = |refresh: bool| {
        let (strategy, shared) = build_strategy(StrategyKind::Topological, &data.tree);
        let ooc = OocConfig::builder(data.n_items(), data.width(0))
            .fraction(0.25)
            .always_write_back(false)
            .build()
            .unwrap();
        let store = MemStore::new(data.n_items(), data.width(0));
        let engine = PlfEngine::new(
            data.tree.clone(),
            data.comp(),
            data.model().clone(),
            data.alpha,
            data.n_cats,
            OocStore::new(VectorManager::new(ooc, strategy, store)),
        );
        let shared = match refresh {
            true => shared.expect("topological ranks by tree distance"),
            false => SharedTree::new(&data.tree), // a snapshot nobody reads
        };
        let mut engine = RefreshedAtEveryPlan { engine, shared };
        let stats = hill_climb(&mut engine, &cfg).unwrap();
        assert_eq!(
            stats.final_lnl.to_bits(),
            produced.value.final_lnl.to_bits()
        );
        engine.ooc_stats().unwrap()
    };
    assert_eq!(produced.stats, Some(by_hand(true)));
    assert_ne!(
        produced.stats.unwrap().misses,
        by_hand(false).misses,
        "this search cannot tell a fresh oracle from a stale one"
    );
}
