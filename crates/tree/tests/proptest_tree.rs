//! Property-based tests over random topologies: Newick round-trips, SPR
//! sequences, traversal-plan invariants and distance metric axioms.

use phylo_tree::build::{random_topology, yule_like_lengths};
use phylo_tree::spr::{spr_prune_regraft, spr_undo, subtree_contains};
use phylo_tree::traverse::{plan_traversal, Orientation};
use phylo_tree::{parse_newick, write_newick, ChildRef, Tree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_tree() -> impl Strategy<Value = Tree> {
    (4usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = random_topology(n, 0.1, &mut rng);
        yule_like_lengths(&mut t, 0.2, 1e-6, &mut rng);
        t
    })
}

/// Pick any legal (prune_dir, target) pair, if one exists.
fn pick_move(tree: &Tree, seed: u64) -> Option<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..100 {
        let i = rng.gen_range(0..tree.n_inner() as u32);
        let k = rng.gen_range(0..3);
        let dir = tree.inner_half_edge(i, k);
        let (a, b) = tree.children_dirs(dir);
        let (qa, qb) = (tree.back(a), tree.back(b));
        let cands: Vec<u32> = tree
            .branches()
            .filter(|&t| {
                let tb = tree.back(t);
                t != a
                    && t != b
                    && t != qa
                    && t != qb
                    && tb != a
                    && tb != b
                    && !subtree_contains(tree, dir, tree.node_of(t))
                    && !subtree_contains(tree, dir, tree.node_of(tb))
            })
            .collect();
        if !cands.is_empty() {
            return Some((dir, cands[rng.gen_range(0..cands.len())]));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn newick_roundtrip_any_tree(tree in arb_tree()) {
        let names: Vec<String> = (0..tree.n_tips()).map(|i| format!("x{i}")).collect();
        let nwk = write_newick(&tree, &names);
        let (tree2, names2) = parse_newick(&nwk).unwrap();
        tree2.validate().unwrap();
        prop_assert_eq!(tree2.n_tips(), tree.n_tips());
        prop_assert!((tree.tree_length() - tree2.tree_length()).abs() < 1e-9);
        let mut sorted = names2.clone();
        sorted.sort();
        let mut expect = names.clone();
        expect.sort();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn spr_sequences_preserve_validity_and_undo(
        tree in arb_tree(),
        seeds in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut t = tree.clone();
        let mut undos = Vec::new();
        for seed in &seeds {
            if let Some((dir, target)) = pick_move(&t, *seed) {
                let undo = spr_prune_regraft(&mut t, dir, target, None);
                t.validate().unwrap();
                undos.push((dir, undo));
            }
        }
        // Undo everything in reverse: exact restoration.
        for (_, undo) in undos.into_iter().rev() {
            spr_undo(&mut t, &undo);
            t.validate().unwrap();
        }
        for h in 0..t.n_half_edges() as u32 {
            prop_assert_eq!(t.back(h), tree.back(h));
            prop_assert!((t.branch_length(h) - tree.branch_length(h)).abs() < 1e-15);
        }
    }

    #[test]
    fn full_plan_covers_each_inner_once_in_order(tree in arb_tree(), root_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(root_seed);
        let branches: Vec<u32> = tree.branches().collect();
        let root = branches[rng.gen_range(0..branches.len())];
        let mut orient = Orientation::new(tree.n_inner());
        let plan = plan_traversal(&tree, root, &mut orient, true);
        prop_assert_eq!(plan.steps.len(), tree.n_inner());
        let mut ready = vec![false; tree.n_inner()];
        for step in &plan.steps {
            for i in [step.left, step.right].into_iter().filter_map(ChildRef::inner) {
                prop_assert!(ready[i as usize]);
            }
            prop_assert!(!ready[step.parent as usize], "parent written twice");
            ready[step.parent as usize] = true;
        }
        prop_assert!(ready.iter().all(|&r| r));
    }

    #[test]
    fn distances_satisfy_metric_axioms(tree in arb_tree(), pick in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(pick);
        let n = tree.n_nodes() as u32;
        let (a, b, c) = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..n),
        );
        let d = |x, y| phylo_tree::distance::node_distance(&tree, x, y);
        prop_assert_eq!(d(a, a), 0);
        prop_assert_eq!(d(a, b), d(b, a));
        prop_assert!(d(a, c) <= d(a, b) + d(b, c));
        if a != b {
            prop_assert!(d(a, b) >= 1);
        }
    }

    #[test]
    fn rerooting_plans_are_consistent(tree in arb_tree(), seq in proptest::collection::vec(any::<u64>(), 1..6)) {
        // Repeated partial plans at random roots never recompute a vector
        // twice in one plan and leave everything oriented.
        let mut orient = Orientation::new(tree.n_inner());
        let branches: Vec<u32> = tree.branches().collect();
        for s in seq {
            let root = branches[(s % branches.len() as u64) as usize];
            let plan = plan_traversal(&tree, root, &mut orient, false);
            let mut seen = std::collections::HashSet::new();
            for step in &plan.steps {
                prop_assert!(seen.insert(step.parent));
            }
            // After the plan, planning again at the same root is a no-op.
            let plan2 = plan_traversal(&tree, root, &mut orient, false);
            prop_assert!(plan2.steps.is_empty());
        }
    }
}
