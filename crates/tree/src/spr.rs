//! Topological rearrangements: subtree pruning and regrafting (SPR) and
//! nearest-neighbour interchange (NNI), both with O(1) undo.
//!
//! These moves generate the candidate trees of an ML search. The paper's
//! access-pattern locality stems from RAxML's *lazy SPR*: after a move only
//! three branch lengths are re-optimised and only the vectors invalidated by
//! the move are recomputed. A caller that tracks vector validity runs
//! [`crate::traverse::invalidate_branch`] on each branch a move will cut
//! *before* applying it: three for an SPR (the two beside the pruned node and
//! the target), two for an NNI (the swapped subtrees' branches).

use crate::topology::{HalfEdgeId, NodeId, Tree};

/// Description of a detached subtree during an SPR move.
#[derive(Debug, Clone, Copy)]
pub struct PrunedSubtree {
    /// The inner node that travels with the subtree (paper's node `p`).
    pub prune_node: NodeId,
    /// Ring half-edge of `prune_node` pointing into the moving subtree.
    pub dir: HalfEdgeId,
    /// First dangling ring half-edge of `prune_node`.
    pub a: HalfEdgeId,
    /// Second dangling ring half-edge of `prune_node`.
    pub b: HalfEdgeId,
    /// Node that was attached to `a` before pruning.
    pub old_a_neighbor: NodeId,
    /// Node that was attached to `b` before pruning.
    pub old_b_neighbor: NodeId,
}

/// Everything needed to restore the tree to its pre-SPR state.
#[derive(Debug, Clone, Copy)]
pub struct SprUndo {
    a: HalfEdgeId,
    b: HalfEdgeId,
    qa: HalfEdgeId,
    qb: HalfEdgeId,
    la: f64,
    lb: f64,
    t: HalfEdgeId,
    u: HalfEdgeId,
    lt: f64,
}

impl SprUndo {
    /// A half-edge of the branch the move merged at the old attachment
    /// point; with the two branches beside the pruned node, the branches
    /// undoing the move cuts.
    pub fn merged_branch(&self) -> HalfEdgeId {
        self.qa
    }
}

/// Does the subtree reached by crossing half-edge `dir` contain `node`?
/// O(size of subtree); used for move validation.
pub fn subtree_contains(tree: &Tree, dir: HalfEdgeId, node: NodeId) -> bool {
    let mut stack = vec![tree.back(dir)];
    while let Some(h) = stack.pop() {
        let n = tree.node_of(h);
        if n == node {
            return true;
        }
        if !tree.is_tip(n) {
            let (l, r) = tree.children_dirs(h);
            stack.push(tree.back(l));
            stack.push(tree.back(r));
        }
    }
    false
}

/// Apply an SPR move.
///
/// * `prune_dir` — a ring half-edge `h` of an inner node `p`; the moving
///   piece is `p` together with the subtree across `h`. The other two ring
///   edges of `p` are detached and their former neighbours joined.
/// * `target` — a half-edge on the branch the subtree is grafted into. The
///   target branch must lie outside the moving piece and must not be one of
///   the two branches adjacent to `p` (that would be a no-op).
/// * `graft_lens` — branch lengths `(towards target-side, towards back-side)`
///   for the two new branches created at the graft point; pass `None` to
///   split the target branch length evenly.
///
/// Returns the undo record. Branch lengths of the merged branch at the old
/// position become the sum of the two merged pieces (as in RAxML).
pub fn spr_prune_regraft(
    tree: &mut Tree,
    prune_dir: HalfEdgeId,
    target: HalfEdgeId,
    graft_lens: Option<(f64, f64)>,
) -> SprUndo {
    let p = tree.node_of(prune_dir);
    assert!(!tree.is_tip(p), "prune node must be inner");
    let (a, b) = tree.children_dirs(prune_dir);
    let qa = tree.back(a);
    let qb = tree.back(b);
    assert!(
        target != a && target != b && target != qa && target != qb,
        "target branch is adjacent to the prune node (no-op move)"
    );
    debug_assert!(
        !subtree_contains(tree, prune_dir, tree.node_of(target)),
        "target lies inside the moving subtree"
    );

    let la = tree.branch_length(a);
    let lb = tree.branch_length(b);
    // Detach p: merge the two neighbour branches.
    tree.split(a);
    tree.split(b);
    tree.reconnect(qa, qb, la + lb);

    // Graft into the target branch.
    let u = tree.back(target);
    let lt = tree.branch_length(target);
    tree.split(target);
    let (ga, gb) = graft_lens.unwrap_or((lt * 0.5, lt * 0.5));
    tree.reconnect(a, target, ga);
    tree.reconnect(b, u, gb);

    SprUndo {
        a,
        b,
        qa,
        qb,
        la,
        lb,
        t: target,
        u,
        lt,
    }
}

/// Revert an SPR move applied by [`spr_prune_regraft`].
pub fn spr_undo(tree: &mut Tree, undo: &SprUndo) {
    tree.split(undo.a);
    tree.split(undo.b);
    tree.reconnect(undo.t, undo.u, undo.lt);
    tree.reconnect(undo.a, undo.qa, undo.la);
    tree.reconnect(undo.b, undo.qb, undo.lb);
}

/// Undo record for an NNI move: applying the same swap again restores the
/// original tree.
#[derive(Debug, Clone, Copy)]
pub struct NniUndo {
    /// Internal branch the swap happened across.
    pub branch: HalfEdgeId,
    /// Which neighbour pairing was swapped (for bookkeeping/tests).
    pub variant: u8,
}

/// The two half-edges whose subtrees [`nni`] exchanges across the internal
/// branch of `h`: `next(h)` and, on the far side, `next(back(h))`
/// (variant 0) or `next(next(back(h)))` (variant 1).
pub fn nni_branches(tree: &Tree, h: HalfEdgeId, variant: u8) -> (HalfEdgeId, HalfEdgeId) {
    assert!(
        !tree.is_tip(tree.node_of(h)) && !tree.is_tip(tree.neighbor(h)),
        "NNI requires an internal branch"
    );
    let y = tree.next(tree.back(h));
    (tree.next(h), if variant == 0 { y } else { tree.next(y) })
}

/// Apply a nearest-neighbour interchange across the internal branch of `h`:
/// the subtrees behind the two [`nni_branches`] swap places. Both endpoints
/// of the branch must be inner nodes; `variant` (0 or 1) selects which of
/// the two possible exchanges to perform.
pub fn nni(tree: &mut Tree, h: HalfEdgeId, variant: u8) -> NniUndo {
    let (x, y) = nni_branches(tree, h, variant);
    let bx = tree.back(x);
    let by = tree.back(y);
    let lx = tree.branch_length(x);
    let ly = tree.branch_length(y);
    tree.split(x);
    tree.split(y);
    // Swap: subtree that hung off x now hangs off y and vice versa. The
    // branch lengths travel with the subtrees.
    tree.reconnect(x, by, ly);
    tree.reconnect(y, bx, lx);
    NniUndo { branch: h, variant }
}

/// Revert an NNI move (NNI is an involution).
pub fn nni_undo(tree: &mut Tree, undo: &NniUndo) {
    nni(tree, undo.branch, undo.variant);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::random_topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn snapshot(tree: &Tree) -> (Vec<u32>, Vec<f64>) {
        let backs = (0..tree.n_half_edges() as u32)
            .map(|h| tree.back(h))
            .collect();
        let lens = (0..tree.n_half_edges() as u32)
            .map(|h| tree.branch_length(h))
            .collect();
        (backs, lens)
    }

    /// Find a valid (prune_dir, target) pair for an SPR on this tree.
    fn pick_spr<R: Rng>(tree: &Tree, rng: &mut R) -> Option<(HalfEdgeId, HalfEdgeId)> {
        for _ in 0..200 {
            let inner = rng.gen_range(0..tree.n_inner() as u32);
            let k = rng.gen_range(0..3);
            let dir = tree.inner_half_edge(inner, k);
            let (a, b) = tree.children_dirs(dir);
            let (qa, qb) = (tree.back(a), tree.back(b));
            let candidates: Vec<HalfEdgeId> = tree
                .branches()
                .filter(|&t| {
                    let tb = tree.back(t);
                    t != a && t != b && t != qa && t != qb && tb != a && tb != b
                })
                .filter(|&t| !subtree_contains(tree, dir, tree.node_of(t)))
                .filter(|&t| !subtree_contains(tree, dir, tree.node_of(tree.back(t))))
                .collect();
            if let Some(&t) = candidates.first() {
                return Some((dir, t));
            }
        }
        None
    }

    #[test]
    fn spr_keeps_tree_valid() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tree = random_topology(30, 0.1, &mut rng);
        for _ in 0..50 {
            if let Some((dir, target)) = pick_spr(&tree, &mut rng) {
                spr_prune_regraft(&mut tree, dir, target, None);
                tree.validate().unwrap();
            }
        }
    }

    #[test]
    fn spr_undo_restores_exactly() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree = random_topology(25, 0.1, &mut rng);
        crate::build::yule_like_lengths(&mut tree, 0.1, 1e-6, &mut rng);
        let before = snapshot(&tree);
        let (dir, target) = pick_spr(&tree, &mut rng).unwrap();
        let undo = spr_prune_regraft(&mut tree, dir, target, Some((0.03, 0.07)));
        assert_ne!(before.0, snapshot(&tree).0, "topology should change");
        spr_undo(&mut tree, &undo);
        let after = snapshot(&tree);
        assert_eq!(before.0, after.0);
        for (x, y) in before.1.iter().zip(after.1.iter()) {
            assert!((x - y).abs() < 1e-15);
        }
        tree.validate().unwrap();
    }

    #[test]
    fn spr_preserves_total_nodes_and_branches() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tree = random_topology(40, 0.1, &mut rng);
        let (dir, target) = pick_spr(&tree, &mut rng).unwrap();
        spr_prune_regraft(&mut tree, dir, target, None);
        assert_eq!(tree.branches().count(), 2 * 40 - 3);
        tree.validate().unwrap();
    }

    #[test]
    fn nni_keeps_tree_valid_and_is_involution() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut tree = random_topology(20, 0.1, &mut rng);
        let internal: Vec<HalfEdgeId> = tree
            .branches()
            .filter(|&h| !tree.is_tip(tree.node_of(h)) && !tree.is_tip(tree.neighbor(h)))
            .collect();
        assert!(!internal.is_empty());
        for &h in &internal {
            for variant in [0u8, 1] {
                let before = snapshot(&tree);
                let undo = nni(&mut tree, h, variant);
                tree.validate().unwrap();
                assert_ne!(before.0, snapshot(&tree).0);
                nni_undo(&mut tree, &undo);
                assert_eq!(before.0, snapshot(&tree).0);
            }
        }
    }

    #[test]
    fn subtree_contains_basic() {
        let mut rng = StdRng::seed_from_u64(5);
        let tree = random_topology(10, 0.1, &mut rng);
        // The subtree across a tip's half-edge, seen from the tip, is
        // everything else; seen from the inner side it is just the tip.
        let h = tree.tip_half_edge(4);
        assert!(subtree_contains(&tree, tree.back(h), 4));
        assert!(!subtree_contains(&tree, h, 4));
    }

    #[test]
    #[should_panic(expected = "no-op")]
    fn spr_rejects_adjacent_target() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut tree = random_topology(12, 0.1, &mut rng);
        let dir = tree.inner_half_edge(3, 0);
        let (a, _) = tree.children_dirs(dir);
        let qa = tree.back(a);
        spr_prune_regraft(&mut tree, dir, qa, None);
    }
}
