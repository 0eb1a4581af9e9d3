//! Traversal planning: which ancestral vectors must be (re)computed, and in
//! what order, to evaluate the likelihood at a given virtual root branch.
//!
//! The likelihood is computed by the Felsenstein pruning algorithm: a
//! post-order sweep from the tips towards the virtual root. In real ML
//! searches most candidate trees differ only locally from the previous one,
//! so only a small fraction of vectors is recomputed ("partial traversal").
//! This module produces the exact ordered list of combine operations — the
//! access pattern that the out-of-core layer exploits, including the a-priori
//! knowledge needed for the paper's *read skipping* technique (every parent
//! in the plan is fully overwritten on its first access).

use crate::topology::{ChildRef, HalfEdgeId, InnerId, Tree};
use ooc_core::{AccessPlan, AccessRecord};

/// Per-inner-node record of the direction for which the stored ancestral
/// vector is valid: the ring half-edge of that node that points *towards the
/// virtual root*. `None` means the vector is stale and must be recomputed.
#[derive(Debug, Clone)]
pub struct Orientation {
    dirs: Vec<Option<HalfEdgeId>>,
}

impl Orientation {
    /// All-invalid orientation for a tree with `n_inner` inner nodes.
    pub fn new(n_inner: usize) -> Self {
        Orientation {
            dirs: vec![None; n_inner],
        }
    }

    /// Direction the vector of `inner` is valid for, if any.
    #[inline]
    pub fn get(&self, inner: InnerId) -> Option<HalfEdgeId> {
        self.dirs[inner as usize]
    }

    /// Mark `inner` as valid for `dir`.
    #[inline]
    pub fn set(&mut self, inner: InnerId, dir: HalfEdgeId) {
        self.dirs[inner as usize] = Some(dir);
    }

    /// Mark `inner` stale.
    #[inline]
    pub fn invalidate(&mut self, inner: InnerId) {
        self.dirs[inner as usize] = None;
    }

    /// Mark every inner node stale.
    pub fn invalidate_all(&mut self) {
        self.dirs.fill(None);
    }

    /// The stale inner nodes, ascending.
    pub fn stale(&self) -> impl Iterator<Item = InnerId> + '_ {
        (0..self.dirs.len() as InnerId).filter(|&i| self.dirs[i as usize].is_none())
    }

    /// Number of inner nodes tracked.
    pub fn len(&self) -> usize {
        self.dirs.len()
    }

    /// True if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }
}

/// One Felsenstein combine: compute the ancestral vector of `parent` (valid
/// towards `parent_dir`) from its two children across branches of lengths
/// `left_len` / `right_len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalStep {
    /// Inner index of the vector being written.
    pub parent: InnerId,
    /// Ring half-edge of `parent` pointing towards the virtual root.
    pub parent_dir: HalfEdgeId,
    /// First child (tip states or another ancestral vector).
    pub left: ChildRef,
    /// Second child.
    pub right: ChildRef,
    /// Branch length to `left`.
    pub left_len: f64,
    /// Branch length to `right`.
    pub right_len: f64,
}

/// An ordered traversal plan plus the information needed to evaluate the
/// log-likelihood at the virtual root branch afterwards.
#[derive(Debug, Clone)]
pub struct TraversalPlan {
    /// Combine operations in dependency (post) order.
    pub steps: Vec<TraversalStep>,
    /// Node at the near end of the root branch.
    pub root_left: ChildRef,
    /// Node at the far end of the root branch.
    pub root_right: ChildRef,
    /// Length of the root branch.
    pub root_len: f64,
}

/// The pins of one engine session, in access order: what `sources` have
/// the reader pin ([`ChildRef::pinned`]: a stored vector itself, a rebuilt
/// one's operand) read, then `target` written. Tips and rebuilt vectors
/// have no bytes in the residency layer and produce no record.
fn session_pins(
    sources: [ChildRef; 2],
    target: Option<InnerId>,
) -> impl Iterator<Item = AccessRecord> {
    let reads = sources.into_iter().filter_map(ChildRef::pinned);
    reads
        .map(AccessRecord::read)
        .chain(target.map(AccessRecord::write))
}

impl TraversalStep {
    /// This step's vector is rebuilt by whoever reads it
    /// ([`ChildRef::Rebuilt`]): the step still orients its node, but it is
    /// never executed, lowered or pinned.
    #[inline]
    pub fn is_rebuilt(&self) -> bool {
        ChildRef::rebuilt_from(self.left, self.right)
    }

    /// The pins of the session that executes this combine: what its
    /// children have it pin (left, right), then the parent.
    pub fn pins(&self) -> impl Iterator<Item = AccessRecord> {
        debug_assert!(!self.is_rebuilt(), "a rebuilt step opens no session");
        session_pins([self.left, self.right], Some(self.parent))
    }
}

impl TraversalPlan {
    /// The steps the engine executes, in order: all but the rebuilt ones.
    fn executed(&self) -> impl Iterator<Item = &TraversalStep> + '_ {
        self.steps.iter().filter(|s| !s.is_rebuilt())
    }

    /// Stored vectors written by this plan, in order (rebuilt steps write
    /// none). These are exactly the vectors that are write-only on first
    /// access (read-skip candidates).
    pub fn written(&self) -> impl Iterator<Item = InnerId> + '_ {
        self.executed().map(|s| s.parent)
    }

    /// The pins of the root evaluation's session: what the two ends of the
    /// virtual-root branch have it pin.
    pub fn root_pins(&self) -> impl Iterator<Item = AccessRecord> {
        session_pins([self.root_left, self.root_right], None)
    }

    /// Every session the engine opens when it executes this plan and
    /// evaluates at its root, in order — the one lowering of steps to
    /// [`AccessRecord`]s, shared by the engine, [`TraversalPlan::lower`]
    /// and the replays.
    pub fn pin_groups(&self) -> impl Iterator<Item = impl Iterator<Item = AccessRecord>> + '_ {
        self.executed()
            .map(|s| session_pins([s.left, s.right], Some(s.parent)))
            .chain(std::iter::once(session_pins(
                [self.root_left, self.root_right],
                None,
            )))
    }

    /// Lower this plan into the residency layer's [`AccessPlan`] IR: the
    /// exact ordered `{item, intent}` sequence the PLF engine issues when
    /// executing the plan over `n_items` ancestral vectors.
    ///
    /// Per executed combine, the engine pins what the children have it pin
    /// (reads, in left/right order) before acquiring the parent slot
    /// (write); the final root evaluation then reads on behalf of the two
    /// ends of the virtual-root branch. Tips and rebuilt vectors live
    /// outside the managed item space and produce no records. Because steps
    /// are in dependency order, every written item's *first* access is its
    /// write — the lowered plan's write-first set is exactly
    /// [`TraversalPlan::written`], which is what makes read skipping (§3.4)
    /// fall out of first-access analysis instead of a side-channel flag.
    pub fn lower(&self, n_items: usize) -> AccessPlan {
        AccessPlan::from_records(self.pin_groups().flatten().collect(), n_items)
    }
}

/// Plan the (re)computations needed so that the likelihood can be evaluated
/// at the branch of `root_he`.
///
/// With `full == false` only stale or mis-oriented vectors are recomputed
/// (partial traversal, the common case during tree search); with
/// `full == true` every vector in both subtrees is recomputed, as in the
/// paper's `-f z` worst-case experiments. `orient` is updated to reflect the
/// post-plan state.
pub fn plan_traversal(
    tree: &Tree,
    root_he: HalfEdgeId,
    orient: &mut Orientation,
    full: bool,
) -> TraversalPlan {
    let mut steps = Vec::new();
    for dir in [root_he, tree.back(root_he)] {
        push_subtree_steps(tree, dir, orient, full, &mut steps);
    }
    TraversalPlan {
        steps,
        root_left: tree.child_ref(tree.back(root_he)),
        root_right: tree.child_ref(root_he),
        root_len: tree.branch_length(root_he),
    }
}

/// Iterative post-order expansion of the subtree whose root direction (the
/// half-edge pointing towards the virtual root) is `dir`.
fn push_subtree_steps(
    tree: &Tree,
    dir: HalfEdgeId,
    orient: &mut Orientation,
    full: bool,
    steps: &mut Vec<TraversalStep>,
) {
    // Work items: (towards-root half-edge of a node, children_expanded).
    let mut stack: Vec<(HalfEdgeId, bool)> = vec![(dir, false)];
    while let Some((d, expanded)) = stack.pop() {
        let node = tree.node_of(d);
        if tree.is_tip(node) {
            continue;
        }
        let inner = tree.inner_index(node);
        if !full && orient.get(inner) == Some(d) {
            continue; // already valid for this direction
        }
        let (l, r) = tree.children_dirs(d);
        if expanded {
            steps.push(TraversalStep {
                parent: inner,
                parent_dir: d,
                left: tree.child_ref(l),
                right: tree.child_ref(r),
                left_len: tree.branch_length(l),
                right_len: tree.branch_length(r),
            });
            orient.set(inner, d);
        } else {
            stack.push((d, true));
            stack.push((tree.back(l), false));
            stack.push((tree.back(r), false));
        }
    }
}

/// Invalidate every stored vector that depends on the branch of `h`: call
/// it when that branch's length changes, and *before* the branch is cut or
/// re-attached (the orientations describe the tree as it is, not as it will
/// be).
///
/// Relies on — and preserves — the invariant [`plan_traversal`] establishes:
/// below a valid vector (on the side away from its orientation) every vector
/// is valid and oriented towards it. The vectors covering a branch are
/// therefore the chain reached from either end by following orientations
/// rootwards, and the chain ends at the first node that is already stale
/// (everything above it is too) or that faces the half-edge the walk arrives
/// by (its subtree lies on the other side — the far end of the branch
/// itself, or of the virtual root's). Cost: the nodes invalidated plus one
/// per end; no allocation.
pub fn invalidate_branch(tree: &Tree, orient: &mut Orientation, h: HalfEdgeId) {
    for mut arrive in [h, tree.back(h)] {
        loop {
            let node = tree.node_of(arrive);
            if tree.is_tip(node) {
                break;
            }
            let inner = tree.inner_index(node);
            match orient.get(inner) {
                Some(dir) if dir != arrive => {
                    orient.invalidate(inner);
                    arrive = tree.back(dir);
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::random_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_and_orient(n: usize, seed: u64) -> (Tree, Orientation) {
        let t = random_topology(n, 0.1, &mut StdRng::seed_from_u64(seed));
        let o = Orientation::new(t.n_inner());
        (t, o)
    }

    #[test]
    fn full_traversal_covers_all_inner_nodes() {
        let (t, mut o) = tree_and_orient(40, 1);
        let plan = plan_traversal(&t, t.default_root_edge(), &mut o, true);
        let mut planned: Vec<InnerId> = plan.steps.iter().map(|s| s.parent).collect();
        planned.sort_unstable();
        planned.dedup();
        // Root edge endpoints: their vectors are also computed (they feed the
        // root evaluation), so every inner node must appear exactly once.
        assert_eq!(planned.len(), t.n_inner());
        assert_eq!(plan.steps.len(), t.n_inner());
    }

    #[test]
    fn rebuilt_steps_orient_but_are_never_lowered() {
        let (t, mut o) = tree_and_orient(40, 1);
        let plan = plan_traversal(&t, t.default_root_edge(), &mut o, true);
        let rebuilt: Vec<&TraversalStep> = plan.steps.iter().filter(|s| s.is_rebuilt()).collect();
        // Cherries and tip-inner vectors over a stored operand, both.
        for tips in [2, 1] {
            let n_tips = |s: &&TraversalStep| [s.left, s.right].map(|c| c.inner().is_none() as u8);
            assert!(rebuilt.iter().any(|s| n_tips(s).iter().sum::<u8>() == tips));
        }
        assert_eq!(plan.written().count(), t.n_inner() - rebuilt.len());
        let access = plan.lower(t.n_inner());
        for step in &rebuilt {
            let node = step.parent;
            assert!(
                o.get(node).is_some(),
                "a rebuilt node is oriented like any other"
            );
            assert!(access.records().iter().all(|r| r.item != node));
            assert!([step.left, step.right]
                .iter()
                .all(|c| !matches!(c, ChildRef::Rebuilt { .. })));
        }
        // A reader sees it as rebuilt and pins its operand instead.
        let reader = plan
            .steps
            .iter()
            .find(|s| {
                matches!(
                    s.left,
                    ChildRef::Rebuilt {
                        operand: Some(_),
                        ..
                    }
                )
            })
            .expect("some step reads a rebuilt tip-inner vector");
        assert_eq!(
            reader.pins().next(),
            reader.left.pinned().map(AccessRecord::read)
        );
        // The groups are the lowered plan, cut into sessions.
        let flat: Vec<AccessRecord> = plan.pin_groups().flatten().collect();
        assert_eq!(flat, access.records());
    }

    #[test]
    fn steps_are_in_dependency_order() {
        let (t, mut o) = tree_and_orient(64, 2);
        let plan = plan_traversal(&t, t.default_root_edge(), &mut o, true);
        let mut ready = vec![false; t.n_inner()];
        for step in &plan.steps {
            for i in [step.left, step.right]
                .into_iter()
                .filter_map(ChildRef::inner)
            {
                assert!(ready[i as usize], "child {i} used before computed");
            }
            ready[step.parent as usize] = true;
        }
    }

    #[test]
    fn second_partial_traversal_is_empty() {
        let (t, mut o) = tree_and_orient(30, 3);
        let root = t.default_root_edge();
        let p1 = plan_traversal(&t, root, &mut o, false);
        assert_eq!(p1.steps.len(), t.n_inner());
        let p2 = plan_traversal(&t, root, &mut o, false);
        assert!(p2.steps.is_empty(), "everything is already oriented");
    }

    #[test]
    fn moving_root_recomputes_only_the_path() {
        let (t, mut o) = tree_and_orient(100, 4);
        let root = t.default_root_edge();
        plan_traversal(&t, root, &mut o, false);
        // Re-root at some tip's branch: only nodes between old and new root
        // need new orientations.
        let new_root = t.tip_half_edge(17);
        let p = plan_traversal(&t, new_root, &mut o, false);
        assert!(!p.steps.is_empty());
        assert!(
            p.steps.len() < t.n_inner() / 2,
            "re-rooting should be local-ish: {} of {}",
            p.steps.len(),
            t.n_inner()
        );
    }

    #[test]
    fn full_traversal_ignores_orientation() {
        let (t, mut o) = tree_and_orient(25, 5);
        let root = t.default_root_edge();
        plan_traversal(&t, root, &mut o, false);
        let p = plan_traversal(&t, root, &mut o, true);
        assert_eq!(p.steps.len(), t.n_inner());
    }

    #[test]
    fn invalidate_branch_stales_the_path_to_the_root() {
        let (t, mut o) = tree_and_orient(50, 6);
        let root = t.default_root_edge();
        plan_traversal(&t, root, &mut o, false);
        // The root branch itself: both ends face it, nothing depends on it.
        invalidate_branch(&t, &mut o, root);
        assert_eq!(o.stale().count(), 0);
        // A tip's branch: the inner end and everything above it.
        let tip = t.tip_half_edge(25);
        invalidate_branch(&t, &mut o, tip);
        let n_stale = o.stale().count();
        assert!(n_stale > 0 && n_stale < t.n_inner());
        assert!(o.stale().any(|i| i == t.inner_index(t.neighbor(tip))));
        // Re-planning recomputes exactly the stale ones.
        let p = plan_traversal(&t, root, &mut o, false);
        assert_eq!(p.steps.len(), n_stale);
    }

    #[test]
    fn deep_tree_does_not_overflow_stack() {
        let t = crate::build::caterpillar_tree(5000, 0.05);
        let mut o = Orientation::new(t.n_inner());
        let plan = plan_traversal(&t, t.default_root_edge(), &mut o, true);
        assert_eq!(plan.steps.len(), t.n_inner());
    }

    #[test]
    fn lowered_plan_write_first_set_is_exactly_written() {
        let (t, mut o) = tree_and_orient(40, 8);
        let plan = plan_traversal(&t, t.default_root_edge(), &mut o, true);
        let access = plan.lower(t.n_inner());
        let mut write_first: Vec<InnerId> = access.write_first_items().to_vec();
        write_first.sort_unstable();
        let mut written: Vec<InnerId> = plan.written().collect();
        written.sort_unstable();
        assert_eq!(write_first, written);
        // Steps are in dependency order, so no written item may be
        // read-first in the lowered plan.
        for &item in access.read_first_items() {
            assert!(!written.contains(&item));
        }
    }

    #[test]
    fn lowered_plan_ends_with_root_reads() {
        let (t, mut o) = tree_and_orient(20, 9);
        let plan = plan_traversal(&t, t.default_root_edge(), &mut o, true);
        let access = plan.lower(t.n_inner());
        let n_root_inner = plan.root_pins().count();
        let records = access.records();
        assert!(n_root_inner >= 1);
        for rec in &records[records.len() - n_root_inner..] {
            assert_eq!(rec.intent, ooc_core::Intent::Read);
        }
        // Last combine writes its parent just before the root reads.
        let last_write = records[records.len() - n_root_inner - 1];
        assert_eq!(last_write.intent, ooc_core::Intent::Write);
        assert_eq!(Some(last_write.item), plan.written().last());
    }

    #[test]
    fn root_refs_match_edge_endpoints() {
        let (t, mut o) = tree_and_orient(10, 7);
        let root = t.tip_half_edge(0);
        let plan = plan_traversal(&t, root, &mut o, true);
        assert_eq!(plan.root_left, ChildRef::Tip(0));
        assert!(plan.root_right.inner().is_some(), "{:?}", plan.root_right);
        assert_eq!(plan.root_len, t.branch_length(root));
    }
}
