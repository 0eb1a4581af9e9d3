//! Vectors with a tip operand are rebuilt where they are read, never
//! stored, and a plan's write-first vectors are never written back:
//!
//! * an independent oracle — a brute-force pruning recursion — agrees with
//!   the engine on 4–9-taxon random trees and caterpillars (where stored
//!   and rebuilt vectors alternate up the chain) on 4 and 20 states, and on
//!   two of them on 61, every branch as root, within a derived tolerance;
//!   in RAM and out of core agree bit for bit, Newton–Raphson included;
//! * the closed form of the write traffic: a repeated full traversal
//!   writes each stored vector once, except those resident (and so
//!   declared dead) when its plan is installed — the same number from a
//!   real manager and from its data-free simulator;
//! * two exact shape facts: up a caterpillar every other vector is stored,
//!   and a 4-taxon tree rooted on its inner branch issues no request.

use ooc_core::{MemStore, OocConfig, SlotCacheSim, StrategyKind, VectorManager};
use phylo_models::codon::synthetic_codon;
use phylo_models::protein::synthetic_protein;
use phylo_models::{DiscreteGamma, PMatrices, ReversibleModel};
use phylo_plf::{AncestralStore, InRamStore, OocStore, PlfEngine};
use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment};
use phylo_tree::build::{caterpillar_tree, random_topology, yule_like_lengths};
use phylo_tree::traverse::{plan_traversal, Orientation};
use phylo_tree::{HalfEdgeId, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CATS: usize = 4;
const ALPHA: f64 = 0.7;

/// The transition matrices of the branch of `h`, under the same model
/// parameters the engines get.
fn p_matrices(tree: &Tree, model: &ReversibleModel, h: HalfEdgeId) -> PMatrices {
    let mut pm = PMatrices::new(model.n_states(), N_CATS);
    let gamma = DiscreteGamma::new(ALPHA, N_CATS);
    pm.update(&model.eigen(), &gamma, tree.branch_length(h));
    pm
}

/// Felsenstein pruning by plain recursion, one pattern and one rate
/// category at a time, no scaling, no stored vectors. `pms` holds
/// [`p_matrices`] per half-edge.
fn brute_force_lnl(
    tree: &Tree,
    comp: &CompressedAlignment,
    model: &ReversibleModel,
    pms: &[PMatrices],
    root: HalfEdgeId,
) -> f64 {
    let n = model.n_states();
    let gamma = DiscreteGamma::new(ALPHA, N_CATS);
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
            let near = partial(tree, comp, pms, n, at, root);
            let far = partial(tree, comp, pms, n, at, tree.back(root));
            for (x, near_x) in near.iter().enumerate() {
                let across: f64 = (0..n).map(|y| pm.get(cat, x, y) * far[y]).sum();
                site += gamma.weight() * model.freqs()[x] * near_x * across;
            }
        }
        lnl += comp.weights[pattern] as f64 * site.ln();
    }
    lnl
}

/// How far two correct evaluations of one lnL may drift apart. Both work
/// from the same P-matrices; a site likelihood is a sum of products of
/// non-negative terms, so its relative error grows with the length of the
/// longest operation chain — one inner product (`n_states` adds, as many
/// multiplies) and one multiply per node, the rate and frequency sums at
/// the root — and never cancels. `ln` turns that into an absolute error
/// per unit of pattern weight; the final sum adds one rounding of the
/// running total per pattern.
fn lnl_tolerance(tree: &Tree, comp: &CompressedAlignment, n_states: usize, lnl: f64) -> f64 {
    let chain = (tree.n_inner() + 1) * (2 * n_states + 1) + 2 * (N_CATS + n_states);
    let weight: f64 = comp.weights.iter().map(|&w| w as f64).sum();
    f64::EPSILON * (2.0 * chain as f64 * weight + (comp.n_patterns() + 2) as f64 * lnl.abs())
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

fn simulated(
    tree: &Tree,
    model: &ReversibleModel,
    n_sites: usize,
    rng: &mut StdRng,
) -> (CompressedAlignment, usize) {
    let gamma = DiscreteGamma::new(ALPHA, N_CATS);
    let comp = compress_patterns(&simulate_alignment(tree, model, &gamma, n_sites, rng));
    let width = PlfEngine::<InRamStore>::dims_for(&comp, N_CATS).width();
    (comp, width)
}

#[test]
fn the_engine_agrees_with_a_plain_recursion_on_every_shape_root_and_state_count() {
    let models = [
        ReversibleModel::hky85(2.2, &[0.3, 0.2, 0.2, 0.3]),
        synthetic_protein(3),
        synthetic_codon(5),
    ];
    for (seed, model) in models.iter().enumerate() {
        let states = model.n_states();
        for n_taxa in 4..=9 {
            for caterpillar in [false, true] {
                // A 61-state P-matrix costs a millisecond (twenty in a
                // debug build) and every step sets up two: two trees, the
                // second with every class on its chain.
                if states == 61 && ![(4, false), (6, true)].contains(&(n_taxa, caterpillar)) {
                    continue;
                }
                let mut rng = StdRng::seed_from_u64((40 + 10 * seed + n_taxa) as u64);
                let mut tree = if caterpillar {
                    caterpillar_tree(n_taxa, 0.1)
                } else {
                    random_topology(n_taxa, 0.1, &mut rng)
                };
                yule_like_lengths(&mut tree, 0.2, 1e-3, &mut rng);
                let (comp, width) = simulated(&tree, model, 12, &mut rng);
                let n_inner = tree.n_inner();
                let mut inram = engine_over(&tree, &comp, model, InRamStore::new(n_inner, width));
                let mut ooc = engine_over(&tree, &comp, model, managed(n_inner, width, 3));

                let what = format!("{states} states, {n_taxa} taxa, caterpillar {caterpillar}");
                let mut pms: Vec<PMatrices> = (0..tree.n_half_edges() as HalfEdgeId)
                    .map(|h| p_matrices(&tree, model, h))
                    .collect();
                for root in tree.branches().collect::<Vec<_>>() {
                    let want = brute_force_lnl(&tree, &comp, model, &pms, root);
                    let got = inram.log_likelihood_at(root, false).unwrap();
                    assert!(
                        (got - want).abs() <= lnl_tolerance(&tree, &comp, states, want),
                        "{what}, root {root}: engine {got} vs recursion {want}"
                    );
                    let managed = ooc.log_likelihood_at(root, false).unwrap();
                    assert_eq!(got.to_bits(), managed.to_bits(), "{what}, root {root}");
                    // Stored or rebuilt, whichever this root makes it.
                    let inner = root % n_inner as u32;
                    let (a, b) = (inram.debug_vector(inner), ooc.debug_vector(inner));
                    assert_eq!(a.unwrap(), b.unwrap(), "{what}, vector {inner}");
                    // Newton–Raphson at the same branch, from the same ends.
                    let a = inram.optimize_branch(root, 6).unwrap();
                    let b = ooc.optimize_branch(root, 6).unwrap();
                    assert_eq!(a, b, "{what}, branch {root}");
                    tree.set_branch_length(root, a.0);
                    for h in [root, tree.back(root)] {
                        pms[h as usize] = p_matrices(&tree, model, h);
                    }
                }
                if n_taxa == 4 {
                    // Rooted on the inner branch both ends are cherries:
                    // nothing is pinned, let alone stored.
                    let inner = tree
                        .branches()
                        .find(|&h| !tree.is_tip(tree.node_of(h)) && !tree.is_tip(tree.neighbor(h)));
                    ooc.store_mut().reset_ooc_stats();
                    ooc.log_likelihood_at(inner.unwrap(), true).unwrap();
                    assert_eq!(ooc.store().manager().stats().requests, 0, "{what}");
                }
            }
        }
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
    let (comp, width) = simulated(&tree, &model, 40, &mut rng);
    let n_inner = tree.n_inner();
    let slots = n_inner / 4;

    let root = tree.default_root_edge();
    let plan = plan_traversal(&tree, root, &mut Orientation::new(n_inner), true);
    let rebuilt = plan.steps.iter().filter(|s| s.is_rebuilt()).count();
    assert!(rebuilt > n_inner / 3 && n_inner - rebuilt > slots);
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
        // The form's one hypothesis: no operand has to be read back (a
        // re-read copy is resident but clean, and was written).
        assert_eq!(stats.disk_reads, before.disk_reads);
        assert_eq!(
            (stats.disk_writes - before.disk_writes) as usize,
            (n_inner - rebuilt) - residents
        );
        assert_eq!(stats, *sim.stats(), "the simulator says the same");
        assert_eq!(
            stats.disk_writes - before.disk_writes,
            sim.stats().disk_writes - sim_before.disk_writes
        );
        assert_eq!(
            stats.misses,
            stats.disk_reads + stats.skipped_reads + stats.cold_loads
        );
    }
}

/// Rooted at its first tip a caterpillar is one chain: from the cherry at
/// the far end upwards the classes read rebuilt, stored, rebuilt, ... so
/// `⌊(n − 2) / 2⌋` vectors are stored, each written in a session that also
/// reads the stored vector two below it (the operand of the rebuilt one in
/// between) — but for the lowest — and the root reads one more.
#[test]
fn up_a_caterpillar_every_other_vector_is_stored() {
    for n_taxa in [5, 12, 13] {
        let tree = caterpillar_tree(n_taxa, 0.1);
        let n_inner = tree.n_inner();
        let root = tree.default_root_edge();
        assert!(tree.is_tip(tree.neighbor(root)), "rooted at tip 0");
        let plan = plan_traversal(&tree, root, &mut Orientation::new(n_inner), true);
        for (up, step) in plan.steps.iter().enumerate() {
            assert_eq!(
                step.is_rebuilt(),
                up.is_multiple_of(2),
                "{n_taxa} taxa, step {up}"
            );
        }
        let stored = n_inner / 2;
        assert_eq!(plan.written().count(), stored);

        let mut rng = StdRng::seed_from_u64(n_taxa as u64);
        let model = ReversibleModel::jc69();
        let (comp, width) = simulated(&tree, &model, 30, &mut rng);
        let mut ooc = engine_over(&tree, &comp, &model, managed(n_inner, width, 3));
        let mut inram = engine_over(&tree, &comp, &model, InRamStore::new(n_inner, width));
        let lnl = ooc.log_likelihood_at(root, true).unwrap();
        assert_eq!(
            lnl.to_bits(),
            inram.log_likelihood_at(root, true).unwrap().to_bits()
        );
        assert_eq!(inram.store().bytes(), (stored * width * 8) as u64);
        let stats = *ooc.store().manager().stats();
        assert_eq!(stats.requests as usize, 2 * stored, "{n_taxa} taxa");
    }
}
