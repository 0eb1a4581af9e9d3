//! Half-edge arena representation of an unrooted binary tree.

/// Index of a node (tip or inner). Tips come first: `0..n_tips`.
pub type NodeId = u32;
/// Index of a tip, `0..n_tips`.
pub type TipId = u32;
/// Index of an inner node counted from zero, i.e. `node_id - n_tips`.
/// Ancestral probability vectors are indexed by `InnerId`.
pub type InnerId = u32;
/// Index of a directed half-edge. See the crate-level id scheme.
pub type HalfEdgeId = u32;

const INVALID: u32 = u32::MAX;

/// A child of an inner node as seen from a traversal direction: a tip
/// (whose likelihood entries come from the encoded alignment), an inner
/// node whose entries come from its stored ancestral probability vector, or
/// an inner node whose entries its reader rebuilds with one kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChildRef {
    /// Alignment tip.
    Tip(TipId),
    /// Inner node with a stored ancestral probability vector.
    Inner(InnerId),
    /// Inner node one of whose children, as oriented towards its reader, is
    /// a tip, and whose other child is a tip too (`operand: None`, a
    /// cherry) or the stored vector `operand`: one tip look-up table
    /// contracted with one stored tensor, cheaper to rebuild where it is
    /// read than to store, so it has no bytes in the residency layer for
    /// this orientation.
    Rebuilt {
        /// The inner node whose vector is rebuilt.
        node: InnerId,
        /// The stored vector the rebuild reads, if any.
        operand: Option<InnerId>,
    },
}

impl ChildRef {
    /// The inner node referred to, stored or not.
    #[inline]
    pub fn inner(self) -> Option<InnerId> {
        match self {
            ChildRef::Tip(_) => None,
            ChildRef::Inner(i) | ChildRef::Rebuilt { node: i, .. } => Some(i),
        }
    }

    /// The inner node referred to, if its vector is an item of the
    /// residency layer.
    #[inline]
    pub fn stored(self) -> Option<InnerId> {
        match self {
            ChildRef::Inner(i) => Some(i),
            ChildRef::Tip(_) | ChildRef::Rebuilt { .. } => None,
        }
    }

    /// The stored vector a reader pins on behalf of this child: its own, or
    /// the one its rebuild reads.
    #[inline]
    pub fn pinned(self) -> Option<InnerId> {
        match self {
            ChildRef::Tip(_) => None,
            ChildRef::Inner(i) => Some(i),
            ChildRef::Rebuilt { operand, .. } => operand,
        }
    }

    /// One level of the rule [`Tree::child_ref`] decides: a vector with
    /// these two children is rebuilt iff one is a tip and the other is not
    /// itself rebuilt.
    #[inline]
    pub fn rebuilt_from(left: ChildRef, right: ChildRef) -> bool {
        match (left, right) {
            (ChildRef::Tip(_), other) | (other, ChildRef::Tip(_)) => {
                !matches!(other, ChildRef::Rebuilt { .. })
            }
            _ => false,
        }
    }
}

/// An unrooted binary tree over `n_tips` tips stored as a half-edge arena.
///
/// Invariants (checked by [`Tree::validate`]):
/// * `back(back(h)) == h` for every half-edge of a fully connected tree,
/// * the two half-edges of a branch carry the same length,
/// * the tree is connected and every inner node has degree 3.
///
/// During incremental construction (e.g. stepwise addition) half-edges may be
/// temporarily dangling (`back == INVALID`); validation fails until the tree
/// is complete.
#[derive(Debug, Clone)]
pub struct Tree {
    n_tips: usize,
    back: Vec<u32>,
    brlen: Vec<f64>,
}

impl Tree {
    /// Create a disconnected arena for a tree over `n_tips >= 3` tips.
    /// All half-edges start dangling; use the `join*` methods or a builder
    /// from [`crate::build`].
    pub fn with_capacity(n_tips: usize) -> Self {
        assert!(n_tips >= 3, "an unrooted binary tree needs at least 3 tips");
        let n_half_edges = n_tips + 3 * (n_tips - 2);
        Tree {
            n_tips,
            back: vec![INVALID; n_half_edges],
            brlen: vec![0.0; n_half_edges],
        }
    }

    /// Number of tips `n`.
    #[inline]
    pub fn n_tips(&self) -> usize {
        self.n_tips
    }

    /// Number of inner nodes, `n - 2`.
    #[inline]
    pub fn n_inner(&self) -> usize {
        self.n_tips - 2
    }

    /// Total number of nodes, `2n - 2`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        2 * self.n_tips - 2
    }

    /// Number of branches (undirected edges), `2n - 3`.
    #[inline]
    pub fn n_branches(&self) -> usize {
        2 * self.n_tips - 3
    }

    /// Total number of half-edges in the arena.
    #[inline]
    pub fn n_half_edges(&self) -> usize {
        self.back.len()
    }

    /// Is this node id a tip?
    #[inline]
    pub fn is_tip(&self, node: NodeId) -> bool {
        (node as usize) < self.n_tips
    }

    /// Inner index of an inner node id. Panics on tips.
    #[inline]
    pub fn inner_index(&self, node: NodeId) -> InnerId {
        debug_assert!(!self.is_tip(node));
        node - self.n_tips as u32
    }

    /// Node id of an inner index.
    #[inline]
    pub fn inner_node(&self, inner: InnerId) -> NodeId {
        inner + self.n_tips as u32
    }

    /// The node owning half-edge `h`.
    #[inline]
    pub fn node_of(&self, h: HalfEdgeId) -> NodeId {
        if (h as usize) < self.n_tips {
            h
        } else {
            self.n_tips as u32 + (h - self.n_tips as u32) / 3
        }
    }

    /// The opposite half-edge of `h` (the other end of the branch).
    #[inline]
    pub fn back(&self, h: HalfEdgeId) -> HalfEdgeId {
        let b = self.back[h as usize];
        debug_assert_ne!(b, INVALID, "half-edge {h} is dangling");
        b
    }

    /// Whether `h` currently has an opposite half-edge.
    #[inline]
    pub fn is_connected(&self, h: HalfEdgeId) -> bool {
        self.back[h as usize] != INVALID
    }

    /// The neighbouring node across half-edge `h`.
    #[inline]
    pub fn neighbor(&self, h: HalfEdgeId) -> NodeId {
        self.node_of(self.back(h))
    }

    /// Next half-edge in the ring of an inner node. Panics for tip half-edges.
    #[inline]
    pub fn next(&self, h: HalfEdgeId) -> HalfEdgeId {
        let n = self.n_tips as u32;
        debug_assert!(h >= n, "tips have a single half-edge");
        let off = h - n;
        n + (off - off % 3) + (off + 1) % 3
    }

    /// The single half-edge of tip `t`.
    #[inline]
    pub fn tip_half_edge(&self, t: TipId) -> HalfEdgeId {
        debug_assert!((t as usize) < self.n_tips);
        t
    }

    /// First half-edge of inner node with inner index `i`.
    #[inline]
    pub fn inner_half_edge(&self, i: InnerId, k: u32) -> HalfEdgeId {
        debug_assert!(k < 3);
        self.n_tips as u32 + 3 * i + k
    }

    /// The three half-edges of an inner node id.
    #[inline]
    pub fn ring(&self, node: NodeId) -> [HalfEdgeId; 3] {
        debug_assert!(!self.is_tip(node));
        let i = self.inner_index(node);
        [
            self.inner_half_edge(i, 0),
            self.inner_half_edge(i, 1),
            self.inner_half_edge(i, 2),
        ]
    }

    /// The half-edges owned by `node` — one for a tip, the ring for an
    /// inner node — as the contiguous id range they occupy.
    #[inline]
    pub fn half_edges(&self, node: NodeId) -> std::ops::Range<HalfEdgeId> {
        if self.is_tip(node) {
            node..node + 1
        } else {
            let first = self.inner_half_edge(self.inner_index(node), 0);
            first..first + 3
        }
    }

    /// Branch length of the branch containing half-edge `h`.
    #[inline]
    pub fn branch_length(&self, h: HalfEdgeId) -> f64 {
        self.brlen[h as usize]
    }

    /// Set the branch length on both half-edges of the branch of `h`.
    #[inline]
    pub fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        debug_assert!(len.is_finite() && len >= 0.0);
        self.brlen[h as usize] = len;
        let b = self.back[h as usize];
        if b != INVALID {
            self.brlen[b as usize] = len;
        }
    }

    /// Connect two currently dangling half-edges into one branch.
    pub fn join(&mut self, a: HalfEdgeId, b: HalfEdgeId, len: f64) {
        assert_eq!(
            self.back[a as usize], INVALID,
            "half-edge {a} already connected"
        );
        assert_eq!(
            self.back[b as usize], INVALID,
            "half-edge {b} already connected"
        );
        assert_ne!(a, b);
        self.back[a as usize] = b;
        self.back[b as usize] = a;
        self.set_branch_length(a, len);
    }

    /// Disconnect the branch of `h`, leaving both half-edges dangling.
    /// Returns the former opposite half-edge and branch length.
    pub fn split(&mut self, h: HalfEdgeId) -> (HalfEdgeId, f64) {
        let b = self.back(h);
        let len = self.brlen[h as usize];
        self.back[h as usize] = INVALID;
        self.back[b as usize] = INVALID;
        (b, len)
    }

    /// Reconnect two half-edges without the dangling check. Used by tree
    /// surgery that temporarily violates the invariant; prefer [`Tree::join`].
    #[inline]
    pub(crate) fn reconnect(&mut self, a: HalfEdgeId, b: HalfEdgeId, len: f64) {
        self.back[a as usize] = b;
        self.back[b as usize] = a;
        self.brlen[a as usize] = len;
        self.brlen[b as usize] = len;
    }

    /// The two child directions of inner node `node_of(h)` when `h` is the
    /// direction "towards the root": returns the half-edges `(l, r)` leading
    /// away from the root, i.e. the other two ring members.
    #[inline]
    pub fn children_dirs(&self, h: HalfEdgeId) -> (HalfEdgeId, HalfEdgeId) {
        let l = self.next(h);
        let r = self.next(l);
        (l, r)
    }

    /// Resolve the node at the far end of `h`, oriented towards `h`'s
    /// owner, as a [`ChildRef`] — the one place that decides whether an
    /// inner vector is stored or rebuilt: `rebuilt(v) = has_tip_child(v) ∧
    /// ¬rebuilt(other_child(v))`, a tip counting as not rebuilt. The
    /// recursion only ever descends a chain of nodes with exactly one tip
    /// child, so it is a parity count down that chain (no allocation; mean
    /// ≈ 2 nodes on random trees, the whole chain on a caterpillar).
    #[inline]
    pub fn child_ref(&self, h: HalfEdgeId) -> ChildRef {
        let towards_reader = self.back(h);
        let node = self.node_of(towards_reader);
        if self.is_tip(node) {
            return ChildRef::Tip(node);
        }
        // `flipped`: an odd number of chain links separate `dir` from `node`;
        // `operand`: the first link's far end.
        let (mut dir, mut flipped, mut operand) = (towards_reader, false, None);
        let bottom_rebuilt = loop {
            let (l, r) = self.children_dirs(dir);
            let below = match (self.is_tip(self.neighbor(l)), self.is_tip(self.neighbor(r))) {
                (true, true) => break true,
                (false, false) => break false,
                (true, false) => self.back(r),
                (false, true) => self.back(l),
            };
            operand.get_or_insert(self.inner_index(self.node_of(below)));
            (dir, flipped) = (below, !flipped);
        };
        let node = self.inner_index(node);
        if bottom_rebuilt != flipped {
            ChildRef::Rebuilt { node, operand }
        } else {
            ChildRef::Inner(node)
        }
    }

    /// Iterate over one half-edge per branch (the one with the smaller id).
    pub fn branches(&self) -> impl Iterator<Item = HalfEdgeId> + '_ {
        (0..self.back.len() as u32).filter(move |&h| self.is_connected(h) && self.back(h) > h)
    }

    /// Iterate over all node ids, tips first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n_nodes() as u32
    }

    /// An arbitrary but fixed inner branch usable as the default virtual
    /// root: the branch of inner node 0's first connected half-edge.
    pub fn default_root_edge(&self) -> HalfEdgeId {
        let i0 = self.inner_half_edge(0, 0);
        for k in 0..3 {
            let h = i0 + k;
            if self.is_connected(h) {
                return h;
            }
        }
        panic!("inner node 0 is fully dangling");
    }

    /// Check all structural invariants. Returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let nh = self.back.len() as u32;
        for h in 0..nh {
            let b = self.back[h as usize];
            if b == INVALID {
                return Err(format!("half-edge {h} is dangling"));
            }
            if b >= nh {
                return Err(format!("half-edge {h} points out of range ({b})"));
            }
            if self.back[b as usize] != h {
                return Err(format!("back(back({h})) != {h}"));
            }
            if b == h {
                return Err(format!("half-edge {h} is a self-loop"));
            }
            if self.node_of(b) == self.node_of(h) {
                return Err(format!("branch {h}-{b} connects a node to itself"));
            }
            if (self.brlen[h as usize] - self.brlen[b as usize]).abs() > 0.0 {
                return Err(format!("branch lengths of {h}/{b} differ"));
            }
            if !self.brlen[h as usize].is_finite() || self.brlen[h as usize] < 0.0 {
                return Err(format!("branch length of {h} is invalid"));
            }
        }
        // Connectivity: BFS over nodes.
        let mut seen = vec![false; self.n_nodes()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for h in self.half_edges(node) {
                let nb = self.neighbor(h);
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        if count != self.n_nodes() {
            return Err(format!(
                "tree is disconnected: reached {count} of {} nodes",
                self.n_nodes()
            ));
        }
        Ok(())
    }

    /// Sum of all branch lengths.
    pub fn tree_length(&self) -> f64 {
        self.branches().map(|h| self.branch_length(h)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the unique 3-tip tree: tips 0,1,2 around inner node 0.
    fn three_tip_tree() -> Tree {
        let mut t = Tree::with_capacity(3);
        t.join(t.tip_half_edge(0), t.inner_half_edge(0, 0), 0.1);
        t.join(t.tip_half_edge(1), t.inner_half_edge(0, 1), 0.2);
        t.join(t.tip_half_edge(2), t.inner_half_edge(0, 2), 0.3);
        t
    }

    #[test]
    fn three_tips_validates() {
        let t = three_tip_tree();
        t.validate().unwrap();
        assert_eq!(t.n_tips(), 3);
        assert_eq!(t.n_inner(), 1);
        assert_eq!(t.n_branches(), 3);
        assert_eq!(t.branches().count(), 3);
    }

    #[test]
    fn ring_cycles() {
        let t = three_tip_tree();
        let h0 = t.inner_half_edge(0, 0);
        let h1 = t.next(h0);
        let h2 = t.next(h1);
        assert_eq!(t.next(h2), h0);
        assert_eq!(t.ring(t.inner_node(0)), [h0, h1, h2]);
    }

    #[test]
    fn node_of_scheme() {
        let t = Tree::with_capacity(5);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(4), 4);
        assert_eq!(t.node_of(5), 5); // first inner half-edge -> inner node id 5
        assert_eq!(t.node_of(7), 5);
        assert_eq!(t.node_of(8), 6);
    }

    #[test]
    fn branch_length_mirrored() {
        let mut t = three_tip_tree();
        let h = t.tip_half_edge(1);
        t.set_branch_length(h, 0.7);
        assert_eq!(t.branch_length(t.back(h)), 0.7);
    }

    #[test]
    fn split_and_rejoin() {
        let mut t = three_tip_tree();
        let h = t.tip_half_edge(2);
        let (b, len) = t.split(h);
        assert!(!t.is_connected(h));
        assert!(t.validate().is_err());
        t.join(h, b, len);
        t.validate().unwrap();
    }

    #[test]
    fn tree_length_sums_branches() {
        let t = three_tip_tree();
        assert!((t.tree_length() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn children_dirs_are_other_ring_members() {
        let t = three_tip_tree();
        let h = t.inner_half_edge(0, 1);
        let (l, r) = t.children_dirs(h);
        assert_eq!(l, t.inner_half_edge(0, 2));
        assert_eq!(r, t.inner_half_edge(0, 0));
    }

    #[test]
    #[should_panic]
    fn too_few_tips_panics() {
        let _ = Tree::with_capacity(2);
    }

    #[test]
    fn child_ref_distinguishes_tips() {
        let t = three_tip_tree();
        let h = t.inner_half_edge(0, 0);
        assert_eq!(t.child_ref(h), ChildRef::Tip(0));
        // Seen from a tip of the 3-tip star, the centre joins two tips.
        let ht = t.tip_half_edge(0);
        let cherry = ChildRef::Rebuilt {
            node: 0,
            operand: None,
        };
        assert_eq!(t.child_ref(ht), cherry);
    }

    #[test]
    fn the_class_depends_on_the_reader() {
        // ((0,1),(2,3)): each inner node is a cherry seen from the other
        // and, seen from one of its own tips, a stored tip-inner vector
        // (its other child is rebuilt).
        let mut t = Tree::with_capacity(4);
        t.join(t.tip_half_edge(0), t.inner_half_edge(0, 0), 0.1);
        t.join(t.tip_half_edge(1), t.inner_half_edge(0, 1), 0.1);
        t.join(t.tip_half_edge(2), t.inner_half_edge(1, 0), 0.1);
        t.join(t.tip_half_edge(3), t.inner_half_edge(1, 1), 0.1);
        t.join(t.inner_half_edge(0, 2), t.inner_half_edge(1, 2), 0.1);
        let cherry = |node| ChildRef::Rebuilt {
            node,
            operand: None,
        };
        assert_eq!(t.child_ref(t.inner_half_edge(1, 2)), cherry(0));
        assert_eq!(t.child_ref(t.inner_half_edge(0, 2)), cherry(1));
        assert_eq!(t.child_ref(t.tip_half_edge(0)), ChildRef::Inner(0));
        assert_eq!(cherry(0).inner(), Some(0));
        assert_eq!((cherry(0).stored(), cherry(0).pinned()), (None, None));
    }

    #[test]
    fn classes_alternate_up_a_caterpillar() {
        // Seen from the last tip, inner node `k` hangs below node `k + 1`
        // and joins a tip to node `k - 1`; node 0 is the cherry.
        let t = crate::build::caterpillar_tree(9, 0.1);
        let mut from_above = t.tip_half_edge(8);
        for k in (0..t.n_inner() as InnerId).rev() {
            let class = t.child_ref(from_above);
            if k.is_multiple_of(2) {
                let operand = k.checked_sub(1);
                assert_eq!(class, ChildRef::Rebuilt { node: k, operand });
                assert_eq!((class.stored(), class.pinned()), (None, operand));
            } else {
                assert_eq!(class, ChildRef::Inner(k));
            }
            assert_eq!(
                ChildRef::rebuilt_from(ChildRef::Tip(0), class),
                !k.is_multiple_of(2),
                "the node above {k}"
            );
            let (l, r) = t.children_dirs(t.back(from_above));
            from_above = if t.is_tip(t.neighbor(l)) { r } else { l };
        }
    }
}
