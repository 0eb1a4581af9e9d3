//! Differential tests of the engine's staleness bookkeeping (DESIGN.md
//! §5k). The engine answers "which vectors did this change stale" by
//! walking orientation pointers; the routine it replaced searched the tree
//! and invalidated whole paths to the last traversal root. That routine
//! lives on here as the conservative oracle:
//!
//! (a) after every operation the engine's stale set is a subset of the
//!     oracle's (the walk never invalidates more than the search did);
//! (b) a partial traversal at a random root equals, bit for bit, a full
//!     recompute on a twin engine that is told the same operations but
//!     forgets every vector before each evaluation (the walk never
//!     invalidates too little);
//! (c) the same through `EngineSpec::build` with two partitions × two
//!     shards, every inner engine keeping its own books.
//!
//! (d) over a store that fails transfers at random, every `Err` abandons
//!     a plan part-way — after the residency layer has already declared
//!     the plan's write-first vectors dead — and the next evaluation that
//!     gets through still equals a fresh in-RAM engine on the same tree.
//!
//! (e) on caterpillar-heavy trees, where one SPR at the bottom of a chain
//!     flips the class — stored or rebuilt by its reader — of every vector
//!     above it: (b) again, out of core on three slots, and (d) draws from
//!     these trees too (a failed operand read inside a rebuild takes the
//!     same roll-back).
//!
//! Operation sequences include several mutations in a row with no traversal
//! between them and undos issued straight after their applies.

use ooc_core::{
    FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule, MemStore, OocConfig,
    StrategyKind, VectorManager,
};
use phylo_models::{DiscreteGamma, ReversibleModel};
use phylo_plf::{
    BuildContext, EngineSpec, InRamStore, LikelihoodEngine, OocStore, PartSpec, PlfEngine,
};
use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment};
use phylo_tree::build::{caterpillar_tree, random_topology, yule_like_lengths};
use phylo_tree::spr::{
    nni, nni_undo, spr_prune_regraft, spr_undo, subtree_contains, NniUndo, SprUndo,
};
use phylo_tree::traverse::{plan_traversal, Orientation};
use phylo_tree::{HalfEdgeId, NodeId, Tree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// The oracle: the search-based bookkeeping, on a shadow tree
// ---------------------------------------------------------------------------

/// Stale every inner node on the path between nodes `a` and `b`
/// (inclusive), found by a breadth-first search of the whole tree.
fn invalidate_between(tree: &Tree, orient: &mut Orientation, a: NodeId, b: NodeId) {
    let mut parent: Vec<NodeId> = vec![u32::MAX; tree.n_nodes()];
    let mut queue = std::collections::VecDeque::from([a]);
    parent[a as usize] = a;
    'bfs: while let Some(node) = queue.pop_front() {
        for h in tree.half_edges(node) {
            let nb = tree.neighbor(h);
            if parent[nb as usize] == u32::MAX {
                parent[nb as usize] = node;
                if nb == b {
                    break 'bfs;
                }
                queue.push_back(nb);
            }
        }
    }
    let mut cur = b;
    loop {
        if !tree.is_tip(cur) {
            orient.invalidate(tree.inner_index(cur));
        }
        if cur == a {
            break;
        }
        cur = parent[cur as usize];
    }
}

/// What the engine did before the orientation walk: remember the last
/// traversal root, and after a change invalidate the whole path (found by
/// BFS) from every touched node to that root.
struct SearchOracle {
    tree: Tree,
    orient: Orientation,
    last_root: Option<HalfEdgeId>,
}

impl SearchOracle {
    fn new(tree: Tree) -> Self {
        SearchOracle {
            orient: Orientation::new(tree.n_inner()),
            last_root: None,
            tree,
        }
    }

    fn content_changed_at(&mut self, nodes: &[NodeId]) {
        let Some(root_he) = self.last_root else {
            return;
        };
        let root_node = self.tree.node_of(root_he);
        for &nd in nodes {
            invalidate_between(&self.tree, &mut self.orient, nd, root_node);
        }
    }

    fn after_spr(&mut self, dir: HalfEdgeId, target: HalfEdgeId, undo: &SprUndo) {
        let old_pos = self.tree.node_of(undo.merged_branch());
        let new_pos = self.tree.node_of(target);
        let p = self.tree.node_of(dir);
        self.content_changed_at(&[old_pos, new_pos, p]);
        invalidate_between(&self.tree, &mut self.orient, old_pos, new_pos);
        self.orient.invalidate(self.tree.inner_index(p));
    }

    fn after_nni(&mut self, h: HalfEdgeId) {
        let (p, q) = (self.tree.node_of(h), self.tree.neighbor(h));
        self.content_changed_at(&[p, q]);
        self.orient.invalidate(self.tree.inner_index(p));
        self.orient.invalidate(self.tree.inner_index(q));
    }

    /// Mirror one engine operation.
    fn apply(&mut self, ev: &Event) {
        match *ev {
            Event::Traversed(root) => {
                plan_traversal(&self.tree, root, &mut self.orient, false);
                self.last_root = Some(root);
            }
            Event::BranchLength(h, len) => {
                self.tree.set_branch_length(h, len);
                let (u, v) = (self.tree.node_of(h), self.tree.neighbor(h));
                self.content_changed_at(&[u, v]);
            }
            Event::SprApplied(dir, target) => {
                let undo = spr_prune_regraft(&mut self.tree, dir, target, None);
                self.after_spr(dir, target, &undo);
            }
            Event::SprUndone(dir, target, undo) => {
                spr_undo(&mut self.tree, &undo);
                self.after_spr(dir, target, &undo);
            }
            Event::NniApplied(h, variant) => {
                nni(&mut self.tree, h, variant);
                self.after_nni(h);
            }
            Event::NniUndone(undo) => {
                nni_undo(&mut self.tree, &undo);
                self.after_nni(undo.branch);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Operation sequences
// ---------------------------------------------------------------------------

/// One drawn operation; the `u64`s pick among whatever is legal on the
/// tree at that point.
#[derive(Debug, Clone)]
enum Op {
    /// Partial traversal at a random root, checked against the twin.
    Evaluate(u64),
    SetBranchLength(u64, f64),
    OptimizeBranch(u64),
    /// SPR; `true` undoes it straight away.
    Spr(u64, bool),
    /// NNI; `true` undoes it straight away.
    Nni(u64, u8, bool),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        any::<u64>().prop_map(Op::Evaluate),
        (any::<u64>(), 0.001f64..0.6).prop_map(|(h, l)| Op::SetBranchLength(h, l)),
        any::<u64>().prop_map(Op::OptimizeBranch),
        (any::<u64>(), any::<bool>()).prop_map(|(m, u)| Op::Spr(m, u)),
        (any::<u64>(), any::<bool>()).prop_map(|(m, u)| Op::Spr(m, u)),
        (any::<u64>(), 0u8..2, any::<bool>()).prop_map(|(b, v, u)| Op::Nni(b, v, u)),
    ];
    proptest::collection::vec(op, 1..24)
}

/// What an operation did to the engine, for the oracle to mirror.
#[derive(Debug, Clone, Copy)]
enum Event {
    Traversed(HalfEdgeId),
    BranchLength(HalfEdgeId, f64),
    SprApplied(HalfEdgeId, HalfEdgeId),
    SprUndone(HalfEdgeId, HalfEdgeId, SprUndo),
    NniApplied(HalfEdgeId, u8),
    NniUndone(NniUndo),
}

fn pick<T: Copy>(from: &[T], by: u64) -> Option<T> {
    (!from.is_empty()).then(|| from[(by % from.len() as u64) as usize])
}

/// Every legal `(prune direction, target branch)` pair.
fn spr_moves(tree: &Tree) -> Vec<(HalfEdgeId, HalfEdgeId)> {
    let mut out = Vec::new();
    for i in 0..tree.n_inner() as u32 {
        for k in 0..3 {
            let dir = tree.inner_half_edge(i, k);
            let (a, b) = tree.children_dirs(dir);
            let beside = [a, b, tree.back(a), tree.back(b)];
            out.extend(
                tree.branches()
                    .filter(|&t| !beside.contains(&t) && !beside.contains(&tree.back(t)))
                    .filter(|&t| {
                        !subtree_contains(tree, dir, tree.node_of(t))
                            && !subtree_contains(tree, dir, tree.neighbor(t))
                    })
                    .map(|t| (dir, t)),
            );
        }
    }
    out
}

fn internal_branches(tree: &Tree) -> Vec<HalfEdgeId> {
    tree.branches()
        .filter(|&h| !tree.is_tip(tree.node_of(h)) && !tree.is_tip(tree.neighbor(h)))
        .collect()
}

/// Run `ops` on `live`, which keeps its vectors between operations, and on
/// `twin`, which is told to forget them before every evaluation; the two
/// must agree to the bit wherever a number comes out. `observe` sees the
/// live engine after each state change.
fn drive<E: LikelihoodEngine>(
    live: &mut E,
    twin: &mut E,
    ops: &[Op],
    mut observe: impl FnMut(&E, Event) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let first = live.log_likelihood().unwrap();
    prop_assert_eq!(first.to_bits(), twin.log_likelihood().unwrap().to_bits());
    observe(live, Event::Traversed(live.tree().default_root_edge()))?;

    // Always end on an evaluation, whatever the sequence ended on.
    for op in ops.iter().chain([&Op::Evaluate(ops.len() as u64)]) {
        let branches: Vec<HalfEdgeId> = live.tree().branches().collect();
        match *op {
            Op::Evaluate(r) => {
                let root = pick(&branches, r).unwrap();
                let partial = live.log_likelihood_at(root, false).unwrap();
                twin.invalidate_all();
                let full = twin.log_likelihood_at(root, true).unwrap();
                prop_assert_eq!(partial.to_bits(), full.to_bits(), "{} vs {}", partial, full);
                observe(live, Event::Traversed(root))?;
            }
            Op::SetBranchLength(b, len) => {
                let h = pick(&branches, b).unwrap();
                live.set_branch_length(h, len);
                twin.set_branch_length(h, len);
                observe(live, Event::BranchLength(h, len))?;
            }
            Op::OptimizeBranch(b) => {
                let h = pick(&branches, b).unwrap();
                let (z, lnl) = live.optimize_branch(h, 8).unwrap();
                twin.invalidate_all();
                let (tz, tlnl) = twin.optimize_branch(h, 8).unwrap();
                prop_assert_eq!(z.to_bits(), tz.to_bits(), "{} vs {}", z, tz);
                prop_assert_eq!(lnl.to_bits(), tlnl.to_bits());
                // Newton–Raphson traverses to the branch, then sets it.
                observe(live, Event::Traversed(h))?;
                observe(live, Event::BranchLength(h, z))?;
            }
            Op::Spr(m, undo_now) => {
                let Some((dir, target)) = pick(&spr_moves(live.tree()), m) else {
                    continue;
                };
                let undo = live.apply_spr(dir, target, None);
                let twin_undo = twin.apply_spr(dir, target, None);
                observe(live, Event::SprApplied(dir, target))?;
                if undo_now {
                    live.undo_spr(dir, &undo);
                    twin.undo_spr(dir, &twin_undo);
                    observe(live, Event::SprUndone(dir, target, undo))?;
                }
            }
            Op::Nni(b, variant, undo_now) => {
                let Some(h) = pick(&internal_branches(live.tree()), b) else {
                    continue;
                };
                let undo = live.apply_nni(h, variant);
                twin.apply_nni(h, variant);
                observe(live, Event::NniApplied(h, variant))?;
                if undo_now {
                    live.undo_nni(&undo);
                    twin.undo_nni(&undo);
                    observe(live, Event::NniUndone(undo))?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Datasets
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Case {
    tree: Tree,
    /// Two alignments over the tree: the serial run uses the first, the
    /// spec-built run both, as two partitions.
    comps: [CompressedAlignment; 2],
    models: [ReversibleModel; 2],
    alpha: f64,
}

/// Lengths and two alignments for `tree`, drawn from `rng`.
fn case_on(mut tree: Tree, sites: usize, alpha: f64, rng: &mut StdRng) -> Case {
    yule_like_lengths(&mut tree, 0.15, 1e-5, rng);
    let models = [
        ReversibleModel::hky85(2.2, &[0.3, 0.2, 0.2, 0.3]),
        ReversibleModel::jc69(),
    ];
    let gamma = DiscreteGamma::new(alpha, 4);
    let comps = [&models[0], &models[1]]
        .map(|m| compress_patterns(&simulate_alignment(&tree, m, &gamma, sites, rng)));
    Case {
        tree,
        comps,
        models,
        alpha,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (4usize..14, 30usize..70, any::<u64>(), 0.2f64..3.0).prop_map(|(n, sites, seed, alpha)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_topology(n, 0.1, &mut rng);
        case_on(tree, sites, alpha, &mut rng)
    })
}

/// A caterpillar, up to two random SPRs away from one: long tip-inner
/// chains, on which stored and rebuilt vectors alternate.
fn arb_chain_case() -> impl Strategy<Value = Case> {
    let moves = proptest::collection::vec(any::<u64>(), 0..3);
    (5usize..20, 30usize..70, any::<u64>(), 0.2f64..3.0, moves).prop_map(
        |(n, sites, seed, alpha, moves)| {
            let mut tree = caterpillar_tree(n, 0.1);
            for m in moves {
                let (dir, target) = pick(&spr_moves(&tree), m).expect("n >= 5 has SPR moves");
                spr_prune_regraft(&mut tree, dir, target, None);
            }
            case_on(tree, sites, alpha, &mut StdRng::seed_from_u64(seed))
        },
    )
}

fn serial(case: &Case) -> PlfEngine<InRamStore> {
    let dims = PlfEngine::<InRamStore>::dims_for(&case.comps[0], 4);
    let store = InRamStore::new(case.tree.n_inner(), dims.width());
    serial_over(case, case.tree.clone(), store)
}

fn serial_over<S: phylo_plf::AncestralStore>(case: &Case, tree: Tree, store: S) -> PlfEngine<S> {
    let model = case.models[0].clone();
    PlfEngine::new(tree, &case.comps[0], model, case.alpha, 4, store)
}

type FaultyEngine = PlfEngine<OocStore<FaultInjectingStore<MemStore>>>;

/// Three slots over a store that fails transfers as `faults` says.
fn three_slots(case: &Case, faults: FaultPlan) -> FaultyEngine {
    let n = case.tree.n_inner();
    let width = PlfEngine::<InRamStore>::dims_for(&case.comps[0], 4).width();
    let cfg = OocConfig::builder(n, width)
        .slots(3)
        .always_write_back(false)
        .build()
        .unwrap();
    let store = FaultInjectingStore::new(MemStore::new(n, width), faults);
    let manager = VectorManager::new(cfg, StrategyKind::Lru.build(None), store);
    serial_over(case, case.tree.clone(), OocStore::new(manager))
}

/// About one transfer in twelve fails, reads and writes alike, transiently.
fn faulty(case: &Case, seed: u64) -> FaultyEngine {
    let rule = |op, seed| FaultRule::Random {
        op,
        seed,
        permille: 80,
        kind: FaultKind::Transient,
    };
    let faults = FaultPlan::none()
        .with(rule(FaultOp::Read, seed))
        .with(rule(FaultOp::Write, !seed));
    three_slots(case, faults)
}

/// The next evaluation of `live` that gets through, against an engine that
/// has never seen a fault or a stored vector.
fn check_against_fresh(case: &Case, live: &mut FaultyEngine) -> Result<(), TestCaseError> {
    let got = (0..256).find_map(|_| live.log_likelihood().ok());
    let mut fresh = serial(&Case {
        tree: live.tree().clone(),
        ..case.clone()
    });
    let want = fresh.log_likelihood().unwrap();
    prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()));
    Ok(())
}

fn partitions_of_shards(case: &Case) -> Box<dyn phylo_plf::DynEngine> {
    let spec = EngineSpec {
        shards: 2,
        alpha: case.alpha,
        ..EngineSpec::default()
    };
    let parts: Vec<PartSpec<'_>> = (0..2)
        .map(|i| PartSpec {
            name: format!("p{i}"),
            comp: &case.comps[i],
            model: &case.models[i],
        })
        .collect();
    spec.build(&case.tree, &parts, &BuildContext::new())
        .expect("in-RAM spec builds")
        .engine
}

proptest! {
    /// (a) and (b) on the serial engine.
    #[test]
    fn walk_is_exact_enough_and_never_wider_than_the_search(
        case in arb_case(),
        ops in arb_ops(),
    ) {
        let (mut live, mut twin) = (serial(&case), serial(&case));
        let mut oracle = SearchOracle::new(case.tree.clone());
        drive(&mut live, &mut twin, &ops, |engine, event| {
            oracle.apply(&event);
            let walked: Vec<u32> = engine.orientation().stale().collect();
            let searched: Vec<u32> = oracle.orient.stale().collect();
            prop_assert!(
                walked.iter().all(|i| searched.contains(i)),
                "after {:?}: walk staled {:?}, search only {:?}",
                event, walked, searched
            );
            Ok(())
        })?;
    }

    /// (d): whatever fails, and wherever in a traversal it fails.
    #[test]
    fn an_abandoned_plan_leaves_no_wrong_vector_behind(
        case in prop_oneof![arb_case(), arb_chain_case()],
        ops in arb_ops(),
        seed in any::<u64>(),
    ) {
        let mut live = faulty(&case, seed);
        check_against_fresh(&case, &mut live)?;
        for op in &ops {
            let branches: Vec<HalfEdgeId> = live.tree().branches().collect();
            let outcome = match *op {
                Op::Evaluate(r) => {
                    let root = pick(&branches, r).unwrap();
                    live.log_likelihood_at(root, false).map(|_| ())
                }
                Op::SetBranchLength(b, len) => {
                    live.set_branch_length(pick(&branches, b).unwrap(), len);
                    Ok(())
                }
                Op::OptimizeBranch(b) => {
                    live.optimize_branch(pick(&branches, b).unwrap(), 8).map(|_| ())
                }
                Op::Spr(m, undo_now) => {
                    if let Some((dir, target)) = pick(&spr_moves(live.tree()), m) {
                        let undo = live.apply_spr(dir, target, None);
                        if undo_now {
                            live.undo_spr(dir, &undo);
                        }
                    }
                    Ok(())
                }
                Op::Nni(b, variant, undo_now) => {
                    if let Some(h) = pick(&internal_branches(live.tree()), b) {
                        let undo = live.apply_nni(h, variant);
                        if undo_now {
                            live.undo_nni(&undo);
                        }
                    }
                    Ok(())
                }
            };
            if outcome.is_err() || matches!(op, Op::Evaluate(_)) {
                check_against_fresh(&case, &mut live)?;
            }
        }
        check_against_fresh(&case, &mut live)?;
    }

    /// (c): the same sequences through the one construction path, where
    /// 2 × 2 inner engines each walk their own orientation.
    #[test]
    fn partitions_of_shards_inherit_the_walk(case in arb_case(), ops in arb_ops()) {
        let (mut live, mut twin) = (partitions_of_shards(&case), partitions_of_shards(&case));
        drive(&mut live, &mut twin, &ops, |_, _| Ok(()))?;
    }

    /// (e): a cut that flips a vector's class has staled it, so a partial
    /// traversal never meets a stored vector without bytes nor a rebuilt
    /// one whose operand is stale.
    #[test]
    fn class_flips_happen_only_under_cuts_that_stale(case in arb_chain_case(), ops in arb_ops()) {
        let fault_free = || three_slots(&case, FaultPlan::none());
        drive(&mut fault_free(), &mut fault_free(), &ops, |_, _| Ok(()))?;
    }
}
