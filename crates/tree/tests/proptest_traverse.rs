//! Property tests for traversal planning and its lowering into the
//! residency layer's `AccessPlan` IR.
//!
//! The invariants here are what the out-of-core machinery relies on:
//! dependency order makes every written vector write-first (read
//! skipping), and the lowered plan's first-access analysis must agree
//! with the written/reads scan the PLF engine used to perform inline.

use ooc_core::{AccessRecord, Intent, MAX_PINS};
use phylo_tree::build::{caterpillar_tree, random_topology};
use phylo_tree::spr::subtree_contains;
use phylo_tree::traverse::{invalidate_branch, plan_traversal, Orientation, TraversalPlan};
use phylo_tree::{ChildRef, HalfEdgeId, Tree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn tree_for(n_taxa: usize, seed: u64) -> Tree {
    random_topology(n_taxa, 0.1, &mut StdRng::seed_from_u64(seed))
}

fn stale_two_branches(t: &Tree, o: &mut Orientation, a: u32, b: u32) {
    for h in [a, b] {
        invalidate_branch(t, o, h % t.n_half_edges() as u32);
    }
}

/// The scan `PlfEngine::execute_plan` performed before plan lowering
/// existed: written parents in order, plus every vector an executed combine
/// pins for a child before it is (re)written in this plan.
fn inline_scan(plan: &TraversalPlan) -> (HashSet<u32>, HashSet<u32>) {
    let written: HashSet<u32> = plan.written().collect();
    let mut will_write: HashSet<u32> = HashSet::new();
    let mut reads: HashSet<u32> = HashSet::new();
    for step in plan.steps.iter().filter(|s| !s.is_rebuilt()) {
        for i in [step.left, step.right]
            .into_iter()
            .filter_map(ChildRef::pinned)
        {
            if !will_write.contains(&i) {
                reads.insert(i);
            }
        }
        will_write.insert(step.parent);
    }
    (written, reads)
}

/// The rule as written: the vector of `node_of(dir)`, oriented towards
/// `dir`, is rebuilt iff one child is a tip and the other is not rebuilt.
fn rebuilt_by_definition(t: &Tree, dir: HalfEdgeId) -> bool {
    if t.is_tip(t.node_of(dir)) {
        return false;
    }
    let (l, r) = t.children_dirs(dir);
    let below = [t.back(l), t.back(r)];
    let has_tip_child = below.iter().any(|&c| t.is_tip(t.node_of(c)));
    has_tip_child && !below.iter().any(|&c| rebuilt_by_definition(t, c))
}

/// By definition: the valid vectors computed across the branch of `h` —
/// those with both its ends on their own side, away from their orientation.
fn computed_across(t: &Tree, o: &Orientation, h: HalfEdgeId) -> HashSet<u32> {
    let ends = [t.node_of(h), t.neighbor(h)];
    (0..t.n_inner() as u32)
        .filter(|&i| {
            o.get(i).is_some_and(|dir| {
                let (l, r) = t.children_dirs(dir);
                ends.iter().all(|&end| {
                    end == t.inner_node(i)
                        || subtree_contains(t, l, end)
                        || subtree_contains(t, r, end)
                })
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The orientation walk stales exactly the vectors computed across the
    /// branch — also when earlier walks have left part of the tree stale.
    #[test]
    fn invalidate_branch_is_exact(
        n_taxa in 4usize..48,
        seed in 0u64..1000,
        root in any::<u64>(),
        changed in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let t = tree_for(n_taxa, seed);
        let branches: Vec<HalfEdgeId> = t.branches().collect();
        let pick = |by: u64| branches[(by % branches.len() as u64) as usize];
        let mut o = Orientation::new(t.n_inner());
        plan_traversal(&t, pick(root), &mut o, false);
        let mut expect: HashSet<u32> = HashSet::new();
        for by in changed {
            // Either half-edge of the branch names it.
            let h = if by & 1 == 0 { pick(by) } else { t.back(pick(by)) };
            expect.extend(computed_across(&t, &o, h));
            invalidate_branch(&t, &mut o, h);
            let stale: HashSet<u32> = o.stale().collect();
            prop_assert_eq!(&stale, &expect, "after branch {}", h);
        }
    }

    /// No inner node is written more than once by a single plan.
    #[test]
    fn inner_nodes_written_at_most_once(
        n_taxa in 4usize..48,
        seed in 0u64..1000,
        full in any::<bool>(),
        tip in 0u32..48,
    ) {
        let t = tree_for(n_taxa, seed);
        let mut o = Orientation::new(t.n_inner());
        let root = t.tip_half_edge(tip % n_taxa as u32);
        let plan = plan_traversal(&t, root, &mut o, full);
        let mut seen = HashSet::new();
        for parent in plan.steps.iter().map(|s| s.parent) {
            prop_assert!(seen.insert(parent), "inner {parent} written twice");
        }
    }

    /// Every inner child consumed by a combine is either written earlier
    /// in the same plan or was already valid (partial traversal reuse).
    #[test]
    fn children_written_before_parent(
        n_taxa in 4usize..48,
        seed in 0u64..1000,
        a in 0u32..48,
        b in 0u32..48,
        tip in 0u32..48,
    ) {
        let t = tree_for(n_taxa, seed);
        let mut o = Orientation::new(t.n_inner());
        // Orient everything, then stale the vectors across two branches
        // to force a partial plan with both reused and recomputed children.
        plan_traversal(&t, t.default_root_edge(), &mut o, true);
        let valid_before: HashSet<u32> =
            (0..t.n_inner() as u32).filter(|&i| o.get(i).is_some()).collect();
        stale_two_branches(&t, &mut o, a, b);
        let root = t.tip_half_edge(tip % n_taxa as u32);
        let plan = plan_traversal(&t, root, &mut o, false);
        let mut written_so_far = HashSet::new();
        for step in &plan.steps {
            for i in [step.left, step.right].into_iter().filter_map(ChildRef::inner) {
                prop_assert!(
                    written_so_far.contains(&i) || valid_before.contains(&i),
                    "child {i} used before computed"
                );
            }
            written_so_far.insert(step.parent);
        }
    }

    /// A partial plan is a sub-plan of the full plan at the same root:
    /// every partial step recomputes a vector (for the same direction)
    /// that the full plan also recomputes.
    #[test]
    fn partial_plan_steps_subset_of_full(
        n_taxa in 4usize..48,
        seed in 0u64..1000,
        a in 0u32..48,
        b in 0u32..48,
        tip in 0u32..48,
    ) {
        let t = tree_for(n_taxa, seed);
        let root = t.tip_half_edge(tip % n_taxa as u32);
        let mut o = Orientation::new(t.n_inner());
        plan_traversal(&t, t.default_root_edge(), &mut o, true);
        stale_two_branches(&t, &mut o, a, b);
        let partial = plan_traversal(&t, root, &mut o.clone(), false);
        let full = plan_traversal(&t, root, &mut o, true);
        let full_steps: HashSet<(u32, u32)> =
            full.steps.iter().map(|s| (s.parent, s.parent_dir)).collect();
        for s in &partial.steps {
            prop_assert!(
                full_steps.contains(&(s.parent, s.parent_dir)),
                "partial step ({}, {}) missing from full plan",
                s.parent,
                s.parent_dir
            );
        }
    }

    /// The lowered AccessPlan's first-access analysis agrees with the
    /// engine's old inline written/reads scan: write-first is exactly the
    /// written set, and read-first is the old reads set plus the root
    /// endpoints the lowering also covers (the root evaluation's reads).
    #[test]
    fn lowered_first_access_matches_inline_scan(
        n_taxa in 4usize..48,
        seed in 0u64..1000,
        a in 0u32..48,
        b in 0u32..48,
        full in any::<bool>(),
        tip in 0u32..48,
    ) {
        let t = tree_for(n_taxa, seed);
        let mut o = Orientation::new(t.n_inner());
        if !full {
            plan_traversal(&t, t.default_root_edge(), &mut o, true);
            stale_two_branches(&t, &mut o, a, b);
        }
        let root = t.tip_half_edge(tip % n_taxa as u32);
        let plan = plan_traversal(&t, root, &mut o, full);
        let lowered = plan.lower(t.n_inner());
        let (written, reads) = inline_scan(&plan);

        let write_first: HashSet<u32> = lowered.write_first_items().iter().copied().collect();
        prop_assert_eq!(&write_first, &written, "write-first must equal written");

        let mut expected_reads = reads.clone();
        for i in [plan.root_left, plan.root_right].into_iter().filter_map(ChildRef::pinned) {
            if !written.contains(&i) {
                expected_reads.insert(i);
            }
        }
        let read_first: HashSet<u32> = lowered.read_first_items().iter().copied().collect();
        prop_assert_eq!(&read_first, &expected_reads);
        // And the two partitions never overlap.
        prop_assert!(write_first.is_disjoint(&read_first));

        // Spot-check first_access agreement record by record.
        for &item in &write_first {
            prop_assert_eq!(lowered.first_access(item).map(|(_, i)| i), Some(Intent::Write));
        }
        for &item in &read_first {
            prop_assert_eq!(lowered.first_access(item).map(|(_, i)| i), Some(Intent::Read));
        }
    }

    /// One function decides a vector's class, and it is the recursive rule:
    /// on random trees and caterpillars, seen from every half-edge; and a
    /// plan built from it never has a rebuilt vector read a rebuilt one,
    /// never pins an item twice or more than `MAX_PINS` in one session, and
    /// lowers to its sessions laid end to end.
    #[test]
    fn classes_follow_the_rule_and_sessions_stay_small(
        n_taxa in 4usize..48,
        seed in 0u64..1000,
        caterpillar in any::<bool>(),
        a in 0u32..48,
        b in 0u32..48,
        full in any::<bool>(),
        root in any::<u64>(),
    ) {
        let t = if caterpillar { caterpillar_tree(n_taxa, 0.1) } else { tree_for(n_taxa, seed) };
        for h in 0..t.n_half_edges() as HalfEdgeId {
            let dir = t.back(h);
            let class = t.child_ref(h);
            if t.is_tip(t.node_of(dir)) {
                prop_assert_eq!(class, ChildRef::Tip(t.node_of(dir)));
                continue;
            }
            let node = t.inner_index(t.node_of(dir));
            if !rebuilt_by_definition(&t, dir) {
                prop_assert_eq!(class, ChildRef::Inner(node));
                continue;
            }
            let (l, r) = t.children_dirs(dir);
            let operand = [l, r].into_iter().find(|&c| !t.is_tip(t.neighbor(c)));
            prop_assert!(operand.is_none_or(|c| !rebuilt_by_definition(&t, t.back(c))));
            let operand = operand.map(|c| t.inner_index(t.neighbor(c)));
            prop_assert_eq!(class, ChildRef::Rebuilt { node, operand });
        }

        let mut o = Orientation::new(t.n_inner());
        if !full {
            plan_traversal(&t, t.default_root_edge(), &mut o, true);
            stale_two_branches(&t, &mut o, a, b);
        }
        let root = (root % t.n_half_edges() as u64) as HalfEdgeId;
        let plan = plan_traversal(&t, root, &mut o, full);
        for step in &plan.steps {
            prop_assert_eq!(step.is_rebuilt(), rebuilt_by_definition(&t, step.parent_dir));
            let reads_rebuilt = [step.left, step.right]
                .iter()
                .any(|c| matches!(c, ChildRef::Rebuilt { .. }));
            prop_assert!(!(step.is_rebuilt() && reads_rebuilt), "{:?}", step);
        }
        let groups: Vec<Vec<AccessRecord>> = plan.pin_groups().map(Iterator::collect).collect();
        prop_assert_eq!(groups.len(), plan.written().count() + 1);
        for group in &groups {
            let items: HashSet<u32> = group.iter().map(|r| r.item).collect();
            prop_assert!(group.len() <= MAX_PINS && items.len() == group.len(), "{:?}", group);
        }
        let lowered = plan.lower(t.n_inner());
        prop_assert_eq!(groups.concat(), lowered.records());
    }
}
