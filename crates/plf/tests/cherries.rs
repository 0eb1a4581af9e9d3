//! Cherries are rebuilt where they are read, never stored, and a plan's
//! write-first vectors are never written back:
//!
//! * on 4-taxon trees — both ends of the inner branch are cherries, so the
//!   root evaluation and Newton–Raphson run entirely from the engine's two
//!   scratch vectors — the likelihood agrees with a brute-force pruning
//!   recursion on 4, 20 and 61 states, in RAM and out of core bit for bit;
//! * the closed form of the write traffic: a repeated full traversal
//!   writes each stored vector once, except those resident (and so
//!   declared dead) when its plan is installed — the same number from a
//!   real manager and from its data-free simulator.

use ooc_core::{MemStore, OocConfig, SlotCacheSim, StrategyKind, VectorManager};
use phylo_models::codon::synthetic_codon;
use phylo_models::protein::synthetic_protein;
use phylo_models::{DiscreteGamma, PMatrices, ReversibleModel};
use phylo_plf::{AncestralStore, InRamStore, OocStore, PlfEngine};
use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment};
use phylo_tree::build::{random_topology, yule_like_lengths};
use phylo_tree::traverse::{plan_traversal, Orientation};
use phylo_tree::{HalfEdgeId, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CATS: usize = 4;
const ALPHA: f64 = 0.7;

/// Felsenstein pruning by plain recursion, one pattern and one rate
/// category at a time, no scaling, no stored vectors.
fn brute_force_lnl(
    tree: &Tree,
    comp: &CompressedAlignment,
    model: &ReversibleModel,
    root: HalfEdgeId,
) -> f64 {
    let n = model.n_states();
    let (eigen, gamma) = (model.eigen(), DiscreteGamma::new(ALPHA, N_CATS));
    let pms: Vec<PMatrices> = (0..tree.n_half_edges() as HalfEdgeId)
        .map(|h| {
            let mut pm = PMatrices::new(n, N_CATS);
            pm.update(&eigen, &gamma, tree.branch_length(h));
            pm
        })
        .collect();
    /// Conditional likelihoods of the subtree behind `dir` (the half-edge
    /// of its root node that points towards the virtual root).
    fn partial(
        tree: &Tree,
        comp: &CompressedAlignment,
        pms: &[PMatrices],
        n: usize,
        (pattern, cat): (usize, usize),
        dir: HalfEdgeId,
    ) -> Vec<f64> {
        let node = tree.node_of(dir);
        if tree.is_tip(node) {
            let mask = comp.alignment.seq(node as usize)[pattern];
            return (0..n).map(|x| ((mask >> x) & 1) as f64).collect();
        }
        let (l, r) = tree.children_dirs(dir);
        let mut out = vec![1.0; n];
        for child in [l, r] {
            let below = partial(tree, comp, pms, n, (pattern, cat), tree.back(child));
            let pm = &pms[child as usize];
            for (x, o) in out.iter_mut().enumerate() {
                *o *= (0..n).map(|y| pm.get(cat, x, y) * below[y]).sum::<f64>();
            }
        }
        out
    }
    let pm = &pms[root as usize];
    let mut lnl = 0.0;
    for pattern in 0..comp.n_patterns() {
        let mut site = 0.0;
        for cat in 0..N_CATS {
            let at = (pattern, cat);
            let near = partial(tree, comp, &pms, n, at, root);
            let far = partial(tree, comp, &pms, n, at, tree.back(root));
            for (x, near_x) in near.iter().enumerate() {
                let across: f64 = (0..n).map(|y| pm.get(cat, x, y) * far[y]).sum();
                site += gamma.weight() * model.freqs()[x] * near_x * across;
            }
        }
        lnl += comp.weights[pattern] as f64 * site.ln();
    }
    lnl
}

fn engine_over<S: AncestralStore>(
    tree: &Tree,
    comp: &CompressedAlignment,
    model: &ReversibleModel,
    store: S,
) -> PlfEngine<S> {
    PlfEngine::new(tree.clone(), comp, model.clone(), ALPHA, N_CATS, store)
}

fn managed(n_items: usize, width: usize, slots: usize) -> OocStore<MemStore> {
    let cfg = OocConfig::builder(n_items, width)
        .slots(slots)
        .always_write_back(false)
        .build()
        .unwrap();
    let store = MemStore::new(n_items, width);
    OocStore::new(VectorManager::new(
        cfg,
        StrategyKind::Lru.build(None),
        store,
    ))
}

#[test]
fn four_taxon_trees_run_from_the_two_scratch_vectors_on_every_state_count() {
    let models = [
        ReversibleModel::hky85(2.2, &[0.3, 0.2, 0.2, 0.3]),
        synthetic_protein(3),
        synthetic_codon(5),
    ];
    for (seed, model) in models.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(40 + seed as u64);
        let mut tree = random_topology(4, 0.1, &mut rng);
        yule_like_lengths(&mut tree, 0.2, 1e-3, &mut rng);
        let gamma = DiscreteGamma::new(ALPHA, N_CATS);
        let comp = compress_patterns(&simulate_alignment(&tree, model, &gamma, 25, &mut rng));
        let width = PlfEngine::<InRamStore>::dims_for(&comp, N_CATS).width();
        let mut inram = engine_over(&tree, &comp, model, InRamStore::new(2, width));
        let mut ooc = engine_over(&tree, &comp, model, managed(2, width, 3));

        let states = model.n_states();
        for root in tree.branches().collect::<Vec<_>>() {
            let want = brute_force_lnl(&tree, &comp, model, root);
            let got = inram.log_likelihood_at(root, false).unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.abs(),
                "{states} states, root {root}: engine {got} vs recursion {want}"
            );
            let managed = ooc.log_likelihood_at(root, false).unwrap();
            assert_eq!(got.to_bits(), managed.to_bits(), "{states} states");
            for inner in 0..2 {
                // Stored or rebuilt, whichever this root makes it.
                let (a, b) = (inram.debug_vector(inner), ooc.debug_vector(inner));
                assert_eq!(a.unwrap(), b.unwrap(), "{states} states, vector {inner}");
            }
            // Newton–Raphson at the same branch, from the same two ends.
            let a = inram.optimize_branch(root, 6).unwrap();
            let b = ooc.optimize_branch(root, 6).unwrap();
            assert_eq!(a, b, "{states} states, branch {root}");
            tree.set_branch_length(root, a.0);
        }
        // Rooted on the inner branch both ends are cherries: nothing was
        // pinned, let alone stored.
        let inner = tree
            .branches()
            .find(|&h| !tree.is_tip(tree.node_of(h)) && !tree.is_tip(tree.neighbor(h)));
        ooc.store_mut().reset_ooc_stats();
        ooc.log_likelihood_at(inner.unwrap(), true).unwrap();
        assert_eq!(ooc.store().manager().stats().requests, 0);
    }
}

/// One closed form, two drivers: per repeated full traversal, every stored
/// vector is written back once — except the ones resident when the plan
/// arrives, whose present contents the plan declares dead.
#[test]
fn a_repeated_traversal_writes_stored_vectors_minus_plan_start_residents() {
    let mut rng = StdRng::seed_from_u64(48);
    let mut tree = random_topology(48, 0.1, &mut rng);
    yule_like_lengths(&mut tree, 0.1, 1e-4, &mut rng);
    let model = ReversibleModel::jc69();
    let gamma = DiscreteGamma::new(ALPHA, N_CATS);
    let comp = compress_patterns(&simulate_alignment(&tree, &model, &gamma, 40, &mut rng));
    let width = PlfEngine::<InRamStore>::dims_for(&comp, N_CATS).width();
    let n_inner = tree.n_inner();
    let slots = n_inner / 4;

    let root = tree.default_root_edge();
    let plan = plan_traversal(&tree, root, &mut Orientation::new(n_inner), true);
    let cherries = plan.steps.iter().filter(|s| s.is_cherry()).count();
    assert!(cherries > 0 && n_inner - cherries > 2 * slots);
    let (lowered, groups) = (
        plan.lower(n_inner),
        plan.pin_groups()
            .map(Iterator::collect)
            .collect::<Vec<Vec<_>>>(),
    );

    let mut engine = engine_over(&tree, &comp, &model, managed(n_inner, width, slots));
    let cfg = *engine.store().manager().config();
    let mut sim = SlotCacheSim::new(cfg, StrategyKind::Lru.build(None));
    // Reach the steady state, then count one traversal at a time.
    engine.full_traversals(2).unwrap();
    sim.run_rounds(&lowered, &groups, 2);
    for _ in 0..3 {
        let residents = engine.store().manager().resident_items().len();
        assert_eq!(residents, slots, "every slot holds a stored vector");
        let before = *engine.store().manager().stats();
        let sim_before = *sim.stats();
        engine.full_traversals(1).unwrap();
        sim.run_rounds(&lowered, &groups, 1);
        let stats = *engine.store().manager().stats();
        assert_eq!(
            (stats.disk_writes - before.disk_writes) as usize,
            (n_inner - cherries) - residents
        );
        assert_eq!(stats, *sim.stats(), "the simulator says the same");
        assert_eq!(
            stats.disk_writes - before.disk_writes,
            sim.stats().disk_writes - sim_before.disk_writes
        );
        assert_eq!(
            stats.misses,
            stats.disk_reads + stats.skipped_reads + stats.cold_loads + stats.staged_loads
        );
    }
}
