//! Fitch parsimony and randomized stepwise-addition starting trees.
//!
//! RAxML (the paper's host) builds its starting trees by randomized
//! stepwise addition under parsimony rather than starting from a random
//! topology; better starting trees mean the subsequent ML search performs
//! fewer, more local rearrangements — the access pattern the out-of-core
//! experiments rely on. This module implements the Fitch (1971) small
//! parsimony count and the greedy insertion builder.

use phylo_seq::{CompressedAlignment, SiteMask};
use phylo_tree::traverse::{plan_traversal, Orientation};
use phylo_tree::{ChildRef, HalfEdgeId, Tree};
use rand::seq::SliceRandom;
use rand::Rng;

/// Fitch state sets per pattern for every inner node, plus the total
/// mutation count, for a fixed tree.
pub struct FitchScorer<'a> {
    comp: &'a CompressedAlignment,
}

impl<'a> FitchScorer<'a> {
    /// Scorer over a pattern-compressed alignment.
    pub fn new(comp: &'a CompressedAlignment) -> Self {
        FitchScorer { comp }
    }

    /// Weighted Fitch parsimony score of `tree` (number of state changes,
    /// summed over patterns with their column weights).
    pub fn score(&self, tree: &Tree) -> u64 {
        let n_patterns = self.comp.n_patterns();
        let aln = &self.comp.alignment;
        let mut orient = Orientation::new(tree.n_inner());
        let plan = plan_traversal(tree, tree.default_root_edge(), &mut orient, true);

        // Per inner node: state sets and per-pattern mutation counts.
        let mut sets: Vec<Vec<SiteMask>> = vec![Vec::new(); tree.n_inner()];
        let mut score = 0u64;
        let child_set = |c: ChildRef, sets: &Vec<Vec<SiteMask>>, i: usize| -> SiteMask {
            match c {
                ChildRef::Tip(t) => aln.seq(t as usize)[i],
                ChildRef::Inner(x) | ChildRef::Rebuilt { node: x, .. } => sets[x as usize][i],
            }
        };
        for step in &plan.steps {
            let mut here = Vec::with_capacity(n_patterns);
            for i in 0..n_patterns {
                let l = child_set(step.left, &sets, i);
                let r = child_set(step.right, &sets, i);
                let inter = l & r;
                if inter != 0 {
                    here.push(inter);
                } else {
                    here.push(l | r);
                    score += self.comp.weights[i] as u64;
                }
            }
            sets[step.parent as usize] = here;
        }
        // Root branch union step.
        let root_l = plan.root_left;
        let root_r = plan.root_right;
        for i in 0..n_patterns {
            let l = child_set(root_l, &sets, i);
            let r = child_set(root_r, &sets, i);
            if l & r == 0 {
                score += self.comp.weights[i] as u64;
            }
        }
        score
    }
}

/// Build a starting tree by randomized stepwise addition under parsimony:
/// tips are inserted in random order, each at the branch minimising the
/// Fitch score. `candidate_cap` bounds how many branches are scored per
/// insertion (all when `usize::MAX`; RAxML-style subsampling keeps the
/// builder O(n²) instead of O(n³) for big trees).
pub fn parsimony_stepwise_tree<R: Rng>(
    comp: &CompressedAlignment,
    init_len: f64,
    candidate_cap: usize,
    rng: &mut R,
) -> Tree {
    let n_tips = comp.alignment.n_seqs();
    assert!(n_tips >= 3);
    let scorer = FitchScorer::new(comp);

    // Random insertion order; the first three tips are fixed by the arena.
    let mut order: Vec<u32> = (3..n_tips as u32).collect();
    order.shuffle(rng);

    let mut tree = Tree::with_capacity(n_tips);
    tree.join(tree.tip_half_edge(0), tree.inner_half_edge(0, 0), init_len);
    tree.join(tree.tip_half_edge(1), tree.inner_half_edge(0, 1), init_len);
    tree.join(tree.tip_half_edge(2), tree.inner_half_edge(0, 2), init_len);

    for (k, &tip) in order.iter().enumerate() {
        let inner = (k + 1) as u32; // inner node created by this insertion
                                    // Candidate branches among those already connected.
        let mut branches: Vec<HalfEdgeId> = (0..tree.n_half_edges() as u32)
            .filter(|&h| tree.is_connected(h) && tree.back(h) > h)
            .collect();
        branches.shuffle(rng);
        branches.truncate(candidate_cap.max(1));

        let mut best: Option<(HalfEdgeId, u64)> = None;
        for &target in &branches {
            insert_tip(&mut tree, tip, inner, target, init_len);
            // Scoring walks only the connected prefix (the traversal never
            // crosses a dangling half-edge), so the partial arena is safe.
            let s = scorer.score(&tree);
            remove_tip(&mut tree, inner, target, init_len);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((target, s));
            }
        }
        let (target, _) = best.expect("no insertion branch found");
        insert_tip(&mut tree, tip, inner, target, init_len);
    }
    debug_assert!(tree.validate().is_ok());
    tree
}

/// Split `target` and wire `tip` in via fresh `inner`.
fn insert_tip(tree: &mut Tree, tip: u32, inner: u32, target: HalfEdgeId, len: f64) {
    let (other, old_len) = tree.split(target);
    tree.join(tree.inner_half_edge(inner, 0), target, old_len * 0.5);
    tree.join(tree.inner_half_edge(inner, 1), other, old_len * 0.5);
    tree.join(tree.inner_half_edge(inner, 2), tree.tip_half_edge(tip), len);
}

/// Undo [`insert_tip`].
fn remove_tip(tree: &mut Tree, inner: u32, target: HalfEdgeId, _len: f64) {
    let h0 = tree.inner_half_edge(inner, 0);
    let h1 = tree.inner_half_edge(inner, 1);
    let h2 = tree.inner_half_edge(inner, 2);
    let (t, l0) = tree.split(h0);
    let (other, l1) = tree.split(h1);
    let _ = tree.split(h2);
    debug_assert_eq!(t, target);
    tree.join(t, other, l0 + l1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{DiscreteGamma, ReversibleModel};
    use phylo_seq::{compress_patterns, simulate_alignment, Alignment, Alphabet};
    use phylo_tree::build::{random_topology, yule_like_lengths};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fitch_score_hand_example() {
        // Four taxa, one site: A A C C. The true split ((A,A),(C,C)) needs
        // one change; the "wrong" splits need... also one change for this
        // pattern (any binary tree on {A,A,C,C} achieves 1). Use a second
        // site to discriminate: AACC + ACAC.
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("t0".into(), "AA".into()),
                ("t1".into(), "AC".into()),
                ("t2".into(), "CA".into()),
                ("t3".into(), "CC".into()),
            ],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let scorer = FitchScorer::new(&comp);
        // Any unrooted 4-taxon topology pays 1 on one site and 2 on the
        // other (sites support conflicting splits) = 3 total, except the
        // matching split which pays 1 + 2... enumerate all three:
        let mut scores = Vec::new();
        for seed in 0..20u64 {
            let t = random_topology(4, 0.1, &mut StdRng::seed_from_u64(seed));
            scores.push(scorer.score(&t));
        }
        // Both sites are parsimony-informative with conflicting splits:
        // the minimum achievable total is 3 and the maximum 4... all
        // topologies must be in that range, and both extremes must occur.
        assert!(scores.iter().all(|&s| s == 3 || s == 4), "{scores:?}");
        assert!(scores.contains(&3));
    }

    #[test]
    fn identical_sequences_score_zero() {
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("a".into(), "ACGT".into()),
                ("b".into(), "ACGT".into()),
                ("c".into(), "ACGT".into()),
                ("d".into(), "ACGT".into()),
                ("e".into(), "ACGT".into()),
            ],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let t = random_topology(5, 0.1, &mut StdRng::seed_from_u64(1));
        assert_eq!(FitchScorer::new(&comp).score(&t), 0);
    }

    #[test]
    fn weights_multiply_changes() {
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("a".into(), "AAA".into()),
                ("b".into(), "AAA".into()),
                ("c".into(), "CCC".into()),
            ],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        assert_eq!(comp.n_patterns(), 1);
        assert_eq!(comp.weights[0], 3);
        let t = random_topology(3, 0.1, &mut StdRng::seed_from_u64(2));
        // One change per column x weight 3.
        assert_eq!(FitchScorer::new(&comp).score(&t), 3);
    }

    #[test]
    fn stepwise_tree_is_valid_and_beats_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut true_tree = random_topology(16, 0.1, &mut rng);
        yule_like_lengths(&mut true_tree, 0.15, 1e-4, &mut rng);
        let aln = simulate_alignment(
            &true_tree,
            &ReversibleModel::jc69(),
            &DiscreteGamma::none(),
            400,
            &mut rng,
        );
        let comp = compress_patterns(&aln);
        let scorer = FitchScorer::new(&comp);

        let built = parsimony_stepwise_tree(&comp, 0.1, usize::MAX, &mut rng);
        built.validate().unwrap();
        assert_eq!(built.n_tips(), 16);
        let built_score = scorer.score(&built);

        // Should beat the average random topology comfortably.
        let mut random_scores = Vec::new();
        for seed in 0..10u64 {
            let t = random_topology(16, 0.1, &mut StdRng::seed_from_u64(100 + seed));
            random_scores.push(scorer.score(&t));
        }
        let avg_random: f64 = random_scores.iter().sum::<u64>() as f64 / random_scores.len() as f64;
        assert!(
            (built_score as f64) < avg_random,
            "stepwise {built_score} vs avg random {avg_random}"
        );
        // And be within shouting distance of the truth's score.
        let true_score = scorer.score(&true_tree);
        assert!(built_score <= true_score + true_score / 5 + 10);
    }

    #[test]
    fn candidate_cap_still_produces_valid_trees() {
        let mut rng = StdRng::seed_from_u64(5);
        let tree = random_topology(12, 0.1, &mut rng);
        let aln = simulate_alignment(
            &tree,
            &ReversibleModel::jc69(),
            &DiscreteGamma::none(),
            100,
            &mut rng,
        );
        let comp = compress_patterns(&aln);
        let built = parsimony_stepwise_tree(&comp, 0.1, 5, &mut rng);
        built.validate().unwrap();
    }
}
