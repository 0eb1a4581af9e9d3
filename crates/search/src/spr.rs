//! Lazy subtree-pruning-and-regrafting rounds.
//!
//! Each candidate evaluation below goes through the engine, which submits
//! the traversal's lowered access plan to the residency layer first — the
//! SPR loop itself needs no residency calls for read skipping or plan-aware
//! replacement to track its (highly local) access pattern.

use ooc_core::OocResult;
use phylo_plf::LikelihoodEngine;
use phylo_tree::{HalfEdgeId, Tree};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Outcome of one SPR round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprRoundResult {
    /// Log-likelihood after the round.
    pub lnl: f64,
    /// Moves applied (improvements kept).
    pub applied: usize,
    /// Candidate insertions evaluated.
    pub evaluated: u64,
}

/// Regraft target branches within `radius` hops of the pruning point.
///
/// Starting from the two neighbours that become adjacent when the subtree
/// at `prune_dir` is removed, a breadth-first walk (never entering the
/// moving subtree) collects every branch whose near endpoint is within the
/// radius — the rearrangement-distance window RAxML's lazy SPR explores.
pub fn spr_candidates(tree: &Tree, prune_dir: HalfEdgeId, radius: u32) -> Vec<HalfEdgeId> {
    let p = tree.node_of(prune_dir);
    if tree.is_tip(p) {
        return Vec::new();
    }
    let (a, b) = tree.children_dirs(prune_dir);
    let (qa, qb) = (tree.back(a), tree.back(b));
    let forbidden = [a, b, qa, qb];

    let mut depth = vec![u32::MAX; tree.n_nodes()];
    let mut queue = VecDeque::new();
    for start in [tree.node_of(qa), tree.node_of(qb)] {
        depth[start as usize] = 0;
        queue.push_back(start);
    }
    depth[p as usize] = u32::MAX - 1; // block the moving subtree's gateway
    let mut candidates = Vec::new();
    let mut seen_branch = vec![false; tree.n_half_edges()];
    while let Some(node) = queue.pop_front() {
        let d = depth[node as usize];
        for h in tree.half_edges(node) {
            let nb = tree.neighbor(h);
            if nb == p {
                continue;
            }
            // Record the branch (canonical: smaller half-edge id).
            let canon = h.min(tree.back(h));
            if !seen_branch[canon as usize]
                && !forbidden.contains(&canon)
                && !forbidden.contains(&tree.back(canon))
            {
                seen_branch[canon as usize] = true;
                candidates.push(canon);
            }
            if d < radius && depth[nb as usize] == u32::MAX {
                depth[nb as usize] = d + 1;
                queue.push_back(nb);
            }
        }
    }
    candidates
}

/// One lazy SPR round: every subtree (each inner node, each of its three
/// pruning directions) is tried against all targets within `radius`; each
/// candidate is scored by a partial traversal at the insertion branch
/// (*lazy*: default graft lengths, no global re-optimisation), and the best
/// improving move is kept, followed by Newton–Raphson on the three local
/// branches.
pub fn lazy_spr_round<E: LikelihoodEngine, R: Rng>(
    engine: &mut E,
    radius: u32,
    nr_iter: u32,
    epsilon: f64,
    rng: &mut R,
) -> OocResult<SprRoundResult> {
    let mut lnl = engine.log_likelihood()?;
    let mut applied = 0usize;
    let mut evaluated = 0u64;

    let n_inner = engine.tree().n_inner() as u32;
    let mut order: Vec<(u32, u32)> = (0..n_inner)
        .flat_map(|i| (0..3u32).map(move |k| (i, k)))
        .collect();
    order.shuffle(rng);

    for (i, k) in order {
        let dir = engine.tree().inner_half_edge(i, k);
        let candidates = spr_candidates(engine.tree(), dir, radius);
        if candidates.is_empty() {
            continue;
        }
        let mut best: Option<(HalfEdgeId, f64)> = None;
        for target in candidates {
            let undo = engine.apply_spr(dir, target, None);
            // Lazy scoring: evaluate at one of the fresh graft branches.
            let graft = engine.tree().next(dir);
            let l = engine.log_likelihood_at(graft, false)?;
            evaluated += 1;
            engine.undo_spr(dir, &undo);
            if best.is_none_or(|(_, bl)| l > bl) {
                best = Some((target, l));
            }
        }
        if let Some((target, best_l)) = best {
            if best_l > lnl + epsilon {
                engine.apply_spr(dir, target, None);
                // Re-optimise the three branches around the pruned node.
                let a = engine.tree().next(dir);
                let b = engine.tree().next(a);
                let mut new_lnl = best_l;
                for h in [a, b, dir] {
                    let (_, l) = engine.optimize_branch(h, nr_iter)?;
                    new_lnl = l;
                }
                if new_lnl > lnl {
                    lnl = new_lnl;
                    applied += 1;
                } else {
                    // Local optimisation did not confirm the improvement;
                    // keep the move anyway only if it is not worse.
                    lnl = new_lnl.max(lnl);
                }
            }
        }
    }
    Ok(SprRoundResult {
        lnl,
        applied,
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_tree::build::random_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn candidates_respect_radius_and_exclusions() {
        let tree = random_topology(30, 0.1, &mut StdRng::seed_from_u64(1));
        let dir = tree.inner_half_edge(5, 0);
        let (a, b) = tree.children_dirs(dir);
        let (qa, qb) = (tree.back(a), tree.back(b));
        for radius in [1u32, 2, 5, 100] {
            let cands = spr_candidates(&tree, dir, radius);
            for &t in &cands {
                assert!(t != a && t != b && t != qa && t != qb);
                let tb = tree.back(t);
                assert!(tb != a && tb != b);
                // Target must not be inside the moving subtree.
                assert!(!phylo_tree::spr::subtree_contains(
                    &tree,
                    dir,
                    tree.node_of(t)
                ));
                assert!(!phylo_tree::spr::subtree_contains(
                    &tree,
                    dir,
                    tree.node_of(tb)
                ));
            }
        }
        // Larger radii find at least as many candidates.
        let c1 = spr_candidates(&tree, dir, 1).len();
        let c5 = spr_candidates(&tree, dir, 5).len();
        let cbig = spr_candidates(&tree, dir, 1000).len();
        assert!(c1 <= c5 && c5 <= cbig);
        assert!(cbig >= 10, "radius 1000 should reach most branches");
    }

    #[test]
    fn candidate_moves_are_all_legal() {
        let mut tree = random_topology(15, 0.1, &mut StdRng::seed_from_u64(2));
        let dir = tree.inner_half_edge(3, 1);
        let cands = spr_candidates(&tree, dir, 3);
        for t in cands {
            let undo = phylo_tree::spr::spr_prune_regraft(&mut tree, dir, t, None);
            tree.validate().unwrap();
            phylo_tree::spr::spr_undo(&mut tree, &undo);
            tree.validate().unwrap();
        }
    }
}
