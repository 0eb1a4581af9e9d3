//! Bridge between the tree and the out-of-core *Topological* replacement
//! strategy.
//!
//! `ooc-core` deliberately knows nothing about trees; its Topological
//! strategy asks an opaque [`TopologyOracle`] for hop distances between
//! items (= inner nodes). [`TreeOracle`] implements that oracle over a
//! [`SharedTree`] handle so the distances can track the topology as a
//! search rearranges it: an engine given the handle
//! ([`crate::PlfEngine::set_shared_tree`]) refreshes it before the first
//! plan after a rearrangement; whoever else holds one calls
//! [`SharedTree::update`].

use ooc_core::{ItemId, ReplacementStrategy, StrategyKind, TopologyOracle};
use parking_lot::RwLock;
use phylo_tree::distance::distances_from;
use phylo_tree::Tree;
use std::sync::Arc;

/// A cheaply clonable shared snapshot of the tree.
#[derive(Clone)]
pub struct SharedTree(Arc<RwLock<Tree>>);

impl SharedTree {
    /// Create a handle holding a snapshot of `tree`.
    pub fn new(tree: &Tree) -> Self {
        SharedTree(Arc::new(RwLock::new(tree.clone())))
    }

    /// Replace the snapshot (e.g. after accepted rearrangements).
    pub fn update(&self, tree: &Tree) {
        *self.0.write() = tree.clone();
    }

    /// A snapshot of `tree` if `kind` ranks vectors by tree distance —
    /// Topological (its whole policy) and NextUse (its beyond-plan
    /// fallback) — for any number of managers' strategies to read.
    pub fn for_strategy(kind: StrategyKind, tree: &Tree) -> Option<SharedTree> {
        matches!(kind, StrategyKind::Topological | StrategyKind::NextUse)
            .then(|| SharedTree::new(tree))
    }

    /// An oracle reading this snapshot, for one manager's strategy.
    pub fn oracle(&self) -> Box<dyn TopologyOracle> {
        Box::new(TreeOracle::new(self.clone()))
    }
}

/// [`TopologyOracle`] over a [`SharedTree`]: one BFS per miss, with the
/// per-item distances extracted from the node distances. The paper notes
/// this "larger computational overhead" as the reason to prefer Random or
/// LRU over Topological despite similar miss rates.
pub struct TreeOracle {
    shared: SharedTree,
    node_dist: Vec<u32>,
    item_dist: Vec<u32>,
}

impl TreeOracle {
    /// Build an oracle reading from `shared`.
    pub fn new(shared: SharedTree) -> Self {
        TreeOracle {
            shared,
            node_dist: Vec::new(),
            item_dist: Vec::new(),
        }
    }
}

impl TopologyOracle for TreeOracle {
    fn distances_from(&mut self, from: ItemId) -> &[u32] {
        let tree = self.shared.0.read();
        let n_inner = tree.n_inner();
        distances_from(&tree, tree.inner_node(from), &mut self.node_dist);
        self.item_dist.clear();
        self.item_dist
            .extend((0..n_inner as u32).map(|i| self.node_dist[tree.inner_node(i) as usize]));
        &self.item_dist
    }
}

/// Build the replacement strategy for one manager, wiring up a
/// [`TreeOracle`] for the strategies that rank vectors by tree distance.
/// Returns the strategy and, when an oracle was wired, the shared tree
/// handle to refresh after rearrangements.
pub fn build_strategy(
    kind: StrategyKind,
    tree: &Tree,
) -> (Box<dyn ReplacementStrategy>, Option<SharedTree>) {
    let shared = SharedTree::for_strategy(kind, tree);
    (kind.build(shared.as_ref().map(SharedTree::oracle)), shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_tree::build::random_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_matches_tree_distances() {
        let tree = random_topology(20, 0.1, &mut StdRng::seed_from_u64(1));
        let shared = SharedTree::new(&tree);
        let mut oracle = TreeOracle::new(shared);
        let d = oracle.distances_from(3);
        assert_eq!(d.len(), tree.n_inner());
        assert_eq!(d[3], 0);
        for i in 0..tree.n_inner() as u32 {
            let expect =
                phylo_tree::distance::node_distance(&tree, tree.inner_node(3), tree.inner_node(i));
            assert_eq!(d[i as usize], expect);
        }
    }

    #[test]
    fn update_tracks_topology_changes() {
        let mut tree = random_topology(15, 0.1, &mut StdRng::seed_from_u64(2));
        let shared = SharedTree::new(&tree);
        let mut oracle = TreeOracle::new(shared.clone());
        let before = oracle.distances_from(0).to_vec();
        // Rearrange and refresh.
        let dir = tree.inner_half_edge(5, 0);
        let cands: Vec<_> = tree
            .branches()
            .filter(|&t| {
                let (a, b) = tree.children_dirs(dir);
                let (qa, qb) = (tree.back(a), tree.back(b));
                let tb = tree.back(t);
                t != a
                    && t != b
                    && t != qa
                    && t != qb
                    && tb != a
                    && tb != b
                    && !phylo_tree::spr::subtree_contains(&tree, dir, tree.node_of(t))
                    && !phylo_tree::spr::subtree_contains(&tree, dir, tree.node_of(tb))
            })
            .collect();
        phylo_tree::spr::spr_prune_regraft(&mut tree, dir, cands[0], None);
        shared.update(&tree);
        let after = oracle.distances_from(0).to_vec();
        assert_ne!(before, after, "distances should reflect the new topology");
    }
}
