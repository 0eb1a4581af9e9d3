//! The cost of staleness bookkeeping is the path, not the tree (DESIGN.md
//! §5k): on a big tree, after a traversal, every topology or branch-length
//! operation of the engine
//!
//! * performs no heap allocation (a counting `#[global_allocator]`), and
//! * stales no more vectors than lie between the change and the last
//!   virtual root, plus a constant. The walk's loop runs once per vector it
//!   stales and at most once more per branch end it starts from, so this
//!   bounds the nodes it visits too.
//!
//! Deciding a vector's class (`Tree::child_ref`: stored, or rebuilt by its
//! reader) costs the tip-inner chain below it and nothing else: it does not
//! allocate, planning allocates per plan and not per step, and with the
//! rest of the tree cut away the answer is the same. And an evaluation
//! plans once, however many partitions and blocks execute the plan.
//!
//! A 1024-taxon random tree is the search-like case (paths of up to a
//! hundred nodes among a thousand); a 5000-taxon caterpillar covers both a change
//! right under the root of a very deep tree and a path that *is* the tree.

use phylo_models::{DiscreteGamma, ReversibleModel};
use phylo_plf::{InRamStore, PartLayout, PlfEngine};
use phylo_seq::{compress_patterns, simulate_alignment};
use phylo_tree::build::{caterpillar_tree, random_topology};
use phylo_tree::spr::subtree_contains;
use phylo_tree::traverse::{invalidate_branch, plan_traversal, Orientation};
use phylo_tree::{ChildRef, HalfEdgeId, TraversalStep, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct Counting;

thread_local! {
    /// Allocations made by this thread (the test harness runs each test on
    /// its own, so tests do not see each other's).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// A size in bytes, and this thread's allocations of at least that.
    static LARGE: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
}

fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGE.try_with(|c| {
        let (min, n) = c.get();
        c.set((min, n + u64::from(size >= min)));
    });
}

// SAFETY: defers to `System` for every operation; the counters are
// const-initialised thread-local `Cell`s with no destructor, so touching
// them inside the allocator neither allocates nor runs after teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

fn engine_over(tree: Tree, seed: u64) -> PlfEngine<InRamStore> {
    let model = ReversibleModel::jc69();
    let gamma = DiscreteGamma::new(1.0, 4);
    let aln = simulate_alignment(&tree, &model, &gamma, 6, &mut StdRng::seed_from_u64(seed));
    let comp = compress_patterns(&aln);
    let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
    let store = InRamStore::new(tree.n_inner(), dims.width());
    PlfEngine::new(tree, &comp, model, 1.0, 4, store)
}

/// Per node, the number of branches between it and the nearer end of the
/// branch of `root`.
fn depths(tree: &Tree, root: HalfEdgeId) -> Vec<usize> {
    let mut depth = vec![usize::MAX; tree.n_nodes()];
    let mut queue = VecDeque::new();
    for end in [tree.node_of(root), tree.neighbor(root)] {
        depth[end as usize] = 0;
        queue.push_back(end);
    }
    while let Some(node) = queue.pop_front() {
        for h in tree.half_edges(node) {
            let nb = tree.neighbor(h) as usize;
            if depth[nb] == usize::MAX {
                depth[nb] = depth[node as usize] + 1;
                queue.push_back(nb as u32);
            }
        }
    }
    depth
}

fn stale(engine: &PlfEngine<InRamStore>) -> usize {
    engine.orientation().stale().count()
}

/// Every operation around the pruning direction `dir` (whose neighbour
/// across the first sibling branch must be an inner node): all nodes
/// touched lie within two branches of `node_of(dir)`.
fn probe(engine: &mut PlfEngine<InRamStore>, root: HalfEdgeId, dir: HalfEdgeId) {
    let tree = engine.tree();
    let p = tree.node_of(dir);
    let a = tree.next(dir);
    // Graft into a branch on the far side of the neighbour across `a`.
    let target = tree.next(tree.back(a));
    // Everything staled is on the way from a node within two branches of
    // `p` to the root branch: that path, plus the few nodes beside it.
    let bound = depths(tree, root)[p as usize] + 8;
    // Debug builds check the move's legality by searching the moving
    // subtree, which allocates; that is `spr_prune_regraft`'s, not the
    // bookkeeping's, and release builds compile it out.
    let legality_check = if cfg!(debug_assertions) {
        allocations(|| subtree_contains(tree, dir, tree.node_of(target))).0
    } else {
        0
    };

    let settle = |engine: &mut PlfEngine<InRamStore>| {
        engine.log_likelihood_at(root, false).unwrap();
        assert_eq!(stale(engine), 0);
    };

    settle(engine);
    let (n, undo) = allocations(|| engine.apply_spr(dir, target, None));
    assert_eq!(n, legality_check, "apply_spr allocated");
    assert!(stale(engine) <= bound, "apply_spr staled {}", stale(engine));
    // Straight back, no traversal in between.
    let (n, ()) = allocations(|| engine.undo_spr(dir, &undo));
    assert_eq!(n, 0, "undo_spr allocated");
    assert!(stale(engine) <= bound, "undo_spr staled {}", stale(engine));

    settle(engine);
    let (n, undo) = allocations(|| engine.apply_nni(a, 1));
    assert_eq!(n, 0, "apply_nni allocated");
    assert!(stale(engine) <= bound, "apply_nni staled {}", stale(engine));
    let (n, ()) = allocations(|| engine.undo_nni(&undo));
    assert_eq!(n, 0, "undo_nni allocated");
    assert!(stale(engine) <= bound, "undo_nni staled {}", stale(engine));

    settle(engine);
    let (n, ()) = allocations(|| engine.set_branch_length(a, 0.07));
    assert_eq!(n, 0, "set_branch_length allocated");
    assert!(
        stale(engine) <= bound,
        "set_branch_length staled {}",
        stale(engine)
    );
}

/// Pruning directions whose first sibling branch leads to an inner node.
fn probe_dirs(tree: &Tree, inners: impl Iterator<Item = u32>) -> Vec<HalfEdgeId> {
    inners
        .flat_map(|i| (0..3).map(move |k| (i, k)))
        .map(|(i, k)| tree.inner_half_edge(i, k))
        .filter(|&dir| !tree.is_tip(tree.neighbor(tree.next(dir))))
        .collect()
}

#[test]
fn random_tree_operations_cost_the_path() {
    let tree = random_topology(1024, 0.1, &mut StdRng::seed_from_u64(15));
    let mut engine = engine_over(tree, 16);
    let root = engine.tree().default_root_edge();
    let dirs = probe_dirs(engine.tree(), (0..1022).step_by(17));
    assert!(dirs.len() > 60);
    let longest = *depths(engine.tree(), root).iter().max().unwrap();
    assert!(
        longest + 8 < 1022 / 4,
        "the bound must mean something: {longest}"
    );
    for dir in dirs {
        probe(&mut engine, root, dir);
    }
}

#[test]
fn caterpillar_operations_cost_the_path() {
    let mut engine = engine_over(caterpillar_tree(5000, 0.05), 17);
    // Inner node 0 is one end of the spine; root there.
    let root = engine.tree().default_root_edge();
    let n_inner = engine.tree().n_inner() as u32;
    // Right under the root (a dozen stale vectors of 4998), mid-spine, and
    // the far end (where the path is the whole spine).
    let inners = [1, 2, 3, n_inner / 2, n_inner - 3, n_inner - 2];
    let dirs = probe_dirs(engine.tree(), inners.into_iter());
    assert!(dirs.len() >= inners.len());
    for dir in dirs {
        probe(&mut engine, root, dir);
    }
}

#[test]
fn a_class_costs_the_chain_below_it_and_planning_allocates_per_plan() {
    let tree = caterpillar_tree(5000, 0.05);
    let n_inner = tree.n_inner() as u32;
    // Rooted at tip 0 the spine is one chain; inner node `k` reads node
    // `k + 1` through the ring half-edge that is not its tip's or `k - 1`'s.
    let reads_next = |k: u32| {
        let ring = tree.ring(tree.inner_node(k));
        ring.into_iter()
            .find(|&h| tree.neighbor(h) == tree.inner_node(k + 1))
            .unwrap()
    };
    for k in [1, n_inner / 2, n_inner - 3, n_inner - 2] {
        let h = reads_next(k);
        let (n, class) = allocations(|| tree.child_ref(h));
        assert_eq!(n, 0, "child_ref allocated");
        // The chain below node k + 1 ends in the far cherry, n_inner - 1:
        // classes alternate from there.
        let node = k + 1;
        let want = if (n_inner - 1 - node).is_multiple_of(2) {
            let operand = (node + 1 < n_inner).then_some(node + 1);
            ChildRef::Rebuilt { node, operand }
        } else {
            ChildRef::Inner(node)
        };
        assert_eq!(class, want);
        // Nothing above the reader is looked at: cut it off.
        let mut cut = tree.clone();
        for up in [tree.next(h), tree.next(tree.next(h))] {
            cut.split(up);
        }
        assert_eq!(cut.child_ref(h), class, "node {k} looked above itself");
    }

    // A change at the far end stales the whole spine; planning it again
    // allocates for its step vector and work stack as they double, and for
    // nothing per step.
    let root = tree.default_root_edge();
    let mut orient = Orientation::new(tree.n_inner());
    plan_traversal(&tree, root, &mut orient, false);
    invalidate_branch(&tree, &mut orient, tree.tip_half_edge(4999));
    let (n, plan) = allocations(|| plan_traversal(&tree, root, &mut orient, false));
    assert_eq!(plan.steps.len(), tree.n_inner());
    let doublings = usize::BITS - plan.steps.len().leading_zeros();
    assert!(n <= 3 * (doublings as u64 + 2), "{n} allocations");
}

/// Three partitions of two blocks each execute one plan: the evaluation's
/// thread makes one allocation large enough to hold the plan's steps (the
/// step vector's last doubling), not one per block.
#[test]
fn an_evaluation_plans_once_whatever_the_arities() {
    let tree = caterpillar_tree(5000, 0.05);
    let model = ReversibleModel::jc69();
    let gamma = DiscreteGamma::new(1.0, 4);
    let comps = [31u64, 32, 33].map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        compress_patterns(&simulate_alignment(&tree, &model, &gamma, 6, &mut rng))
    });
    let layout = |comp| PartLayout {
        comp,
        model: &model,
        stores: PlfEngine::<InRamStore>::block_dims(comp, 4, 2)
            .iter()
            .map(|d| InRamStore::new(tree.n_inner(), d.width()))
            .collect(),
        recorder: None,
    };
    let layouts: Vec<_> = comps.iter().map(layout).collect();
    assert!(layouts.iter().all(|l| l.stores.len() == 2));
    let mut engine = PlfEngine::with_layout(tree.clone(), layouts, 1.0, 4);
    engine.log_likelihood().unwrap();
    // A change at the far end stales the whole spine.
    engine.set_branch_length(tree.tip_half_edge(4999), 0.07);
    assert!(
        stale(&engine) + 2 > tree.n_inner(),
        "the whole spine is stale"
    );
    LARGE.with(|c| c.set((tree.n_inner() * std::mem::size_of::<TraversalStep>(), 0)));
    engine.log_likelihood().unwrap();
    let (_, plans) = LARGE.with(|c| c.replace((usize::MAX, 0)));
    assert_eq!(plans, 1, "one evaluation planned {plans} times");
}
