//! The likelihood engine: one tree and one orientation over `p ≥ 1`
//! partitions of `k ≥ 1` column blocks each — traversal execution, root
//! evaluation, topology operations.
//!
//! The likelihood factorises over alignment columns and over partitions,
//! so the engine's shape is data, not a type: a block owns a contiguous
//! pattern range of one partition (its slice of every ancestral vector
//! behind its own [`AncestralStore`], tip codes, weights, scaling counts and
//! scratch); a partition adds the model its blocks share; the tree, the
//! [`Orientation`] and the kernel backend exist once. An evaluation plans
//! once, every block executes and evaluates that one plan — the blocks of
//! a partition side by side, partitions in order — and the per-pattern
//! terms are folded block after block in pattern order, then partition
//! sums in partition order: at every arity the serial sequence of
//! floating-point additions, and with one block of one partition simply
//! the serial engine (a lone block runs inline, folding one buffer from
//! zero is the serial reduction). DESIGN.md §5d.

use crate::encode::TipCodes;
use crate::kernels::{Dims, KernelBackend};
use crate::oracle::SharedTree;
use crate::store_api::{AncestralStore, VectorSession};
use ooc_core::{
    even_ranges, par_each_mut, AccessRecord, AlignedBuf, OocError, OocResult, Recorder, StallKind,
    MAX_PINS,
};
use phylo_models::{DiscreteGamma, EigenDecomp, PMatrices, ReversibleModel};
use phylo_seq::CompressedAlignment;
use phylo_tree::spr::{nni, nni_branches, spr_prune_regraft, spr_undo, NniUndo, SprUndo};
use phylo_tree::traverse::{invalidate_branch, plan_traversal, Orientation, TraversalPlan};
use phylo_tree::{ChildRef, HalfEdgeId, InnerId, Tree};

/// A substitution model bundled with its eigendecomposition and Γ rates —
/// everything needed to evaluate transition probabilities.
#[derive(Debug, Clone)]
pub struct PlfModel {
    /// The reversible substitution model.
    pub model: ReversibleModel,
    /// Cached eigendecomposition of the generator.
    pub eigen: EigenDecomp,
    /// Discrete Γ rate heterogeneity.
    pub gamma: DiscreteGamma,
}

impl PlfModel {
    /// Bundle a model with a `k`-category Γ distribution of shape `alpha`.
    pub fn new(model: ReversibleModel, alpha: f64, n_cats: usize) -> Self {
        let eigen = model.eigen();
        PlfModel {
            model,
            eigen,
            gamma: DiscreteGamma::new(alpha, n_cats),
        }
    }

    /// Replace the Γ shape (the eigendecomposition is unaffected).
    pub fn set_alpha(&mut self, alpha: f64) {
        self.gamma = DiscreteGamma::new(alpha, self.gamma.n_cats());
    }
}

/// The PLF engine over a tree, encoded alignments and residency backends
/// (module docs).
pub struct PlfEngine<S: AncestralStore> {
    tree: Tree,
    /// Which vectors are valid, and for which direction — for every block
    /// at once. Invariant (DESIGN.md §5k): below a valid vector every
    /// vector is valid and oriented towards it — established by each
    /// completed traversal, kept by invalidating through
    /// [`invalidate_branch`] only.
    orient: Orientation,
    /// Kernel backend selected once at construction (env override, then
    /// CPU detection); every kernel invocation dispatches through it.
    kernel: KernelBackend,
    pub(crate) parts: Vec<Part<S>>,
    /// How the blocks of a partition run: chosen by the constructor from
    /// the store type, not by an option.
    run_blocks: BlockRunner<S>,
    /// The tree snapshot the stores' topology-ranking replacement
    /// strategies read, and whether a rearrangement has outdated it.
    shared_tree: Option<SharedTree>,
    tree_moved: bool,
}

/// One partition: the model and recorder its blocks share.
pub(crate) struct Part<S> {
    pub(crate) model: PlfModel,
    /// Each block's combine batches, and past one block the barrier spans.
    obs: Option<Recorder>,
    pub(crate) blocks: Vec<Block<S>>,
}

/// One contiguous pattern range of one partition. The store is a field of
/// its own so that a reader can rebuild a vector ([`BlockState::rebuild`])
/// while its session borrows the store.
pub(crate) struct Block<S> {
    pub(crate) store: S,
    pub(crate) st: BlockState,
}

/// Everything of a [`Block`] but its store.
pub(crate) struct BlockState {
    pub(crate) dims: Dims,
    pub(crate) tips: TipCodes,
    pub(crate) weights: Vec<u32>,
    /// Per inner node, per pattern scaling counts (always in RAM — the
    /// paper swaps only the probability vectors; these are 32× smaller).
    pub(crate) scale: Vec<Vec<u32>>,
    // Reusable scratch (no allocation in the traversal hot path).
    pm_l: PMatrices,
    pm_r: PMatrices,
    pub(crate) lut_l: Vec<f64>,
    pub(crate) lut_r: Vec<f64>,
    pub(crate) sumtable: Vec<f64>,
    /// The rebuilt vectors the current kernel invocation reads (its left /
    /// near-end source in `[0]`, its right / far-end source in `[1]`):
    /// recomputed where they are read from a tip and a tip or a stored
    /// vector, never stored ([`ChildRef::Rebuilt`]). Like `sumtable`,
    /// outside the store's budget.
    pub(crate) rebuilt: [AlignedBuf; 2],
    pub(crate) scale_sums: Vec<u32>,
    // Newton-Raphson per-pattern term buffers, reused across every
    // `nr_derivatives` call (a Newton iteration allocates nothing).
    pub(crate) nr_l: Vec<f64>,
    pub(crate) nr_d1: Vec<f64>,
    pub(crate) nr_d2: Vec<f64>,
    /// Per-pattern weighted log-likelihood terms of the most recent root
    /// evaluation.
    site_lnl: Vec<f64>,
}

/// What every block of a partition reads while it works: the engine's one
/// tree, orientation and backend, the partition's model and recorder.
pub(crate) struct PartCx<'a> {
    pub(crate) tree: &'a Tree,
    orient: &'a Orientation,
    pub(crate) model: &'a PlfModel,
    pub(crate) kernel: KernelBackend,
    obs: Option<&'a Recorder>,
}

/// One partition of a [`PlfEngine::with_layout`] build.
pub struct PartLayout<'a, S> {
    /// Pattern-compressed alignment of the partition's columns.
    pub comp: &'a CompressedAlignment,
    /// The partition's substitution model.
    pub model: &'a ReversibleModel,
    /// One store per column block, in pattern order, sized by
    /// [`PlfEngine::block_dims`].
    pub stores: Vec<S>,
    /// Recorder for the partition's combine-batch and barrier spans.
    pub recorder: Option<Recorder>,
}

/// A failed block operation: how many of the plan's steps had completed.
pub(crate) type Failed = (usize, OocError);
/// A block operation's outcome and, with barrier spans recorded, when it
/// started and finished.
type Timed = (Result<(), Failed>, u64, u64);
type BlockOp<'a, S> = &'a (dyn Fn(&mut Block<S>) -> Timed + Sync);
type BlockRunner<S> = fn(&mut [Block<S>], BlockOp<'_, S>) -> Vec<Timed>;

/// Block after block on the caller's thread: all a store that is not
/// `Send` allows, and all a lone block needs.
fn in_order<S>(blocks: &mut [Block<S>], op: BlockOp<'_, S>) -> Vec<Timed> {
    blocks.iter_mut().map(op).collect()
}

/// Felsenstein combines are embarrassingly parallel across columns: the
/// blocks run side by side with no synchronisation inside the kernels
/// (a lone block still runs inline, see [`par_each_mut`]).
fn side_by_side<S: Send>(blocks: &mut [Block<S>], op: BlockOp<'_, S>) -> Vec<Timed> {
    par_each_mut(blocks, |_, block| op(block))
}

/// One left-to-right fold over the blocks' per-pattern buffers in block
/// order — the serial reduction over the full-alignment buffer,
/// bit-for-bit, however the terms were computed.
pub(crate) fn fold_blocks<S>(blocks: &[Block<S>], buf: impl Fn(&BlockState) -> &[f64]) -> f64 {
    let terms = blocks.iter().flat_map(|b| buf(&b.st));
    terms.fold(0.0, |acc, &t| acc + t)
}

impl<S: AncestralStore> PlfEngine<S> {
    /// Vector dimensions an engine over `comp` with `n_cats` Γ categories
    /// will use — needed to size backing stores before construction.
    pub fn dims_for(comp: &CompressedAlignment, n_cats: usize) -> Dims {
        Dims {
            n_patterns: comp.n_patterns(),
            n_states: comp.alignment.alphabet().n_states(),
            n_cats,
        }
    }

    /// Per-block vector dimensions of `comp` cut into `k` even column
    /// blocks (fewer when there are fewer patterns) — what sizes the
    /// stores of a [`PlfEngine::with_layout`] partition.
    pub fn block_dims(comp: &CompressedAlignment, n_cats: usize, k: usize) -> Vec<Dims> {
        let full = Self::dims_for(comp, n_cats);
        let dims = |r: std::ops::Range<usize>| Dims {
            n_patterns: r.len(),
            ..full
        };
        (even_ranges(comp.n_patterns(), k).into_iter().map(dims)).collect()
    }

    /// Build an engine of one partition in one block. `store` must be
    /// sized for `tree.n_inner()` vectors of `dims_for(comp, n_cats).width()`
    /// doubles. Tip `i` of the tree reads sequence `i` of the alignment.
    pub fn new(
        tree: Tree,
        comp: &CompressedAlignment,
        model: ReversibleModel,
        alpha: f64,
        n_cats: usize,
        store: S,
    ) -> Self {
        let layout = PartLayout {
            comp,
            model: &model,
            stores: vec![store],
            recorder: None,
        };
        Self::assemble(tree, vec![layout], alpha, n_cats, in_order)
    }

    fn assemble(
        tree: Tree,
        parts: Vec<PartLayout<'_, S>>,
        alpha: f64,
        n_cats: usize,
        run_blocks: BlockRunner<S>,
    ) -> Self {
        assert!(!parts.is_empty(), "need at least one partition");
        let n_inner = tree.n_inner();
        let part = |layout: PartLayout<'_, S>| {
            let comp = layout.comp;
            assert_eq!(
                tree.n_tips(),
                comp.alignment.n_seqs(),
                "tree tips and alignment sequences must match"
            );
            let ranges = even_ranges(comp.n_patterns(), layout.stores.len());
            assert_eq!(layout.stores.len(), ranges.len(), "one store per block");
            // The code table stays whole across the blocks, so every
            // per-code lookup table is the unsharded encoding's.
            let tips = TipCodes::from_alignment_ranges(comp, &ranges);
            let full = Self::dims_for(comp, n_cats);
            let blocks = (ranges.iter().zip(tips).zip(layout.stores))
                .map(|((range, tips), store)| {
                    let n_patterns = range.len();
                    let weights = comp.weights[range.clone()].to_vec();
                    Block::new(Dims { n_patterns, ..full }, tips, weights, store, n_inner)
                })
                .collect();
            Part {
                model: PlfModel::new(layout.model.clone(), alpha, n_cats),
                obs: layout.recorder,
                blocks,
            }
        };
        PlfEngine {
            parts: parts.into_iter().map(part).collect(),
            orient: Orientation::new(n_inner),
            kernel: KernelBackend::choose(),
            run_blocks,
            shared_tree: None,
            tree_moved: false,
            tree,
        }
    }

    /// The kernel backend this engine dispatches through (the *requested*
    /// one; see [`KernelBackend::effective`] for what actually runs).
    pub fn kernel(&self) -> KernelBackend {
        self.kernel
    }

    /// Replace the kernel backend. All cached ancestral vectors are
    /// invalidated: backends may differ in the last ulps (FMA
    /// contraction), and mixing vectors computed under different backends
    /// would break the engine's reproducibility guarantees.
    pub fn set_kernel(&mut self, kernel: KernelBackend) {
        if kernel != self.kernel {
            self.kernel = kernel;
            self.orient.invalidate_all();
        }
    }

    /// The tree (read-only; use the engine's topology operations to mutate).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Current Γ shape parameter (shared by the partitions).
    pub fn alpha(&self) -> f64 {
        self.parts[0].model.gamma.alpha()
    }

    /// The residency backends, in partition then block order.
    pub fn stores(&self) -> impl Iterator<Item = &S> {
        self.parts.iter().flat_map(|p| &p.blocks).map(|b| &b.store)
    }

    /// The first block's backend — *the* one of a [`PlfEngine::new`] engine.
    pub fn store(&self) -> &S {
        &self.parts[0].blocks[0].store
    }

    /// Mutable access to [`PlfEngine::store`] (statistics resets between
    /// phases).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.parts[0].blocks[0].store
    }

    /// Attach one observability recorder to every partition: each block's
    /// executed combine batch is recorded as one `("plf", "combine-batch")`
    /// span from now on (the residency layers below carve their own
    /// demand-read / write-back time out of it, so the span itself stays
    /// unattributed), and every parallel section of two or more blocks
    /// records, per block, a `("sharded", "shard-exec")` span (the block's
    /// own wall time, unattributed) and a `("sharded", "barrier-wait")` span
    /// (how long it sat idle waiting for the slowest sibling — the §4
    /// load-imbalance signal). A lone block has no barrier and records
    /// neither.
    pub fn set_recorder(&mut self, rec: Recorder) {
        for part in &mut self.parts {
            part.obs = Some(rec.clone());
        }
    }

    /// Hand the engine the tree snapshot its stores' topology-ranking
    /// replacement strategies read ([`crate::oracle::build_strategy`]): it
    /// is refreshed before the first plan submitted after a rearrangement,
    /// so victims are ranked by distances in the tree as it is.
    pub fn set_shared_tree(&mut self, shared: SharedTree) {
        self.shared_tree = Some(shared);
        self.tree_moved = true;
    }

    /// Replace the Γ shape parameter; all ancestral vectors become stale.
    pub fn set_alpha(&mut self, alpha: f64) {
        for part in &mut self.parts {
            part.model.set_alpha(alpha);
        }
        self.orient.invalidate_all();
    }

    /// Set a branch length, invalidating exactly the vectors computed
    /// across that branch.
    pub fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        self.tree.set_branch_length(h, len);
        invalidate_branch(&self.tree, &mut self.orient, h);
    }

    /// Which vectors are currently valid, and for which direction
    /// (read-only: the differential staleness tests compare it against the
    /// conservative search-based bookkeeping).
    pub fn orientation(&self) -> &Orientation {
        &self.orient
    }

    /// The one place a traversal is planned — once per evaluation, whatever
    /// the arities.
    pub(crate) fn plan(&mut self, root_he: HalfEdgeId, full: bool) -> TraversalPlan {
        if std::mem::take(&mut self.tree_moved) {
            if let Some(shared) = &self.shared_tree {
                shared.update(&self.tree);
            }
        }
        plan_traversal(&self.tree, root_he, &mut self.orient, full)
    }

    /// The blocks of partition `p` beside what they share and how they run.
    pub(crate) fn split(&mut self, p: usize) -> (&mut [Block<S>], PartCx<'_>, BlockRunner<S>) {
        let part = &mut self.parts[p];
        let cx = PartCx {
            tree: &self.tree,
            orient: &self.orient,
            model: &part.model,
            kernel: self.kernel,
            obs: part.obs.as_ref(),
        };
        (&mut part.blocks, cx, self.run_blocks)
    }

    /// Execute all combines of `plan` and then `tail` on every block,
    /// partitions in order. If any block fails, the first error in block
    /// order is returned and the vectors some block may have missed are
    /// invalidated for all of them, so the engine stays usable for a retry.
    pub(crate) fn run_plan(
        &mut self,
        plan: &TraversalPlan,
        tail: impl Fn(&mut Block<S>, &PartCx<'_>) -> OocResult<()> + Sync,
    ) -> OocResult<()> {
        let n_parts = self.parts.len();
        for p in 0..n_parts {
            let (blocks, cx, run) = self.split(p);
            // A lone block has no barrier to wait at.
            let rec = cx.obs.filter(|_| blocks.len() > 1);
            let timed = run(blocks, &|block| {
                let t0 = rec.map_or(0, Recorder::now);
                let ran = block
                    .execute_plan(&cx, plan)
                    .and_then(|()| tail(block, &cx).map_err(|e| (plan.steps.len(), e)));
                (ran, t0, rec.map_or(0, Recorder::now))
            });
            // The barrier releases when the slowest block finishes;
            // everything a faster block spent past its own finish is wait.
            let max_end = timed.iter().map(|&(_, _, t1)| t1).max().unwrap_or(0);
            let mut failed: Option<Failed> = None;
            for (i, (ran, t0, t1)) in timed.into_iter().enumerate() {
                if let Some(rec) = rec {
                    rec.span_at("sharded", "shard-exec", StallKind::Compute, t0)
                        .shard(i as u32)
                        .unattributed()
                        .finish_at(t1);
                    rec.span_at("sharded", "barrier-wait", StallKind::BarrierWait, t1)
                        .shard(i as u32)
                        .finish_at(max_end);
                }
                if let Err((done, e)) = ran {
                    let first = failed.get_or_insert((done, e));
                    first.0 = first.0.min(done);
                }
            }
            if let Some((done, e)) = failed {
                // Planning marked every step's vector valid up front; the
                // ones some block never computed must not stay so — none,
                // for the partitions that never ran. A post-order suffix
                // has nothing valid above it, so the invariant holds.
                let done = if p + 1 < n_parts { 0 } else { done };
                for missed in &plan.steps[done..] {
                    self.orient.invalidate(missed.parent);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Plan once, execute and evaluate on every block: the partitions'
    /// log-likelihoods, in partition order.
    pub(crate) fn evaluate(
        &mut self,
        root_he: HalfEdgeId,
        full: bool,
    ) -> OocResult<impl Iterator<Item = f64> + '_> {
        let plan = self.plan(root_he, full);
        self.run_plan(&plan, |block, cx| block.evaluate_plan(cx, &plan))?;
        let lnl = |part: &Part<S>| fold_blocks(&part.blocks, |st| &st.site_lnl);
        Ok(self.parts.iter().map(lnl))
    }

    /// Per-pattern weighted log-likelihood terms of the most recent root
    /// evaluation, in partition, block and pattern order — the order they
    /// are folded in.
    pub fn site_lnl(&self) -> Vec<f64> {
        let blocks = self.parts.iter().flat_map(|p| &p.blocks);
        blocks.flat_map(|b| &b.st.site_lnl).copied().collect()
    }

    /// Log-likelihood evaluated at the branch of `root_he`: the partitions'
    /// log-likelihoods summed in partition order. With `full == true`
    /// every ancestral vector is recomputed (the worst case of the paper's
    /// §4.3); otherwise only stale vectors are.
    pub fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        Ok(self
            .evaluate(root_he, full)?
            .fold(0.0, |sum, lnl| sum + lnl))
    }

    /// Log-likelihood at the default root branch, reusing valid vectors.
    pub fn log_likelihood(&mut self) -> OocResult<f64> {
        self.log_likelihood_at(self.tree.default_root_edge(), false)
    }

    /// The paper's `-f z` experiment: `count` successive *full* tree
    /// traversals (recomputing every ancestral vector each time), returning
    /// the final log-likelihood. "This represents a worst-case analysis,
    /// since full tree traversals exhibit the smallest degree of vector
    /// locality."
    pub fn full_traversals(&mut self, count: usize) -> OocResult<f64> {
        let root = self.tree.default_root_edge();
        let mut lnl = 0.0;
        for _ in 0..count {
            lnl = self.log_likelihood_at(root, true)?;
        }
        Ok(lnl)
    }

    /// Invalidate exactly the vectors computed across the branches a
    /// rearrangement is about to cut.
    fn cut(&mut self, branches: impl IntoIterator<Item = HalfEdgeId>) {
        for cut in branches {
            invalidate_branch(&self.tree, &mut self.orient, cut);
        }
        self.tree_moved = true;
    }

    /// Apply an SPR move, first invalidating exactly the vectors computed
    /// across one of the three branches it cuts: the two beside the pruned
    /// node and the target.
    pub fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        let (a, b) = self.tree.children_dirs(prune_dir);
        self.cut([a, b, target]);
        spr_prune_regraft(&mut self.tree, prune_dir, target, graft_lens)
    }

    /// Revert an SPR move; the branches cut are the two graft branches and
    /// the one the move merged.
    pub fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        let (a, b) = self.tree.children_dirs(prune_dir);
        self.cut([a, b, undo.merged_branch()]);
        spr_undo(&mut self.tree, undo);
    }

    /// Apply a nearest-neighbour interchange across the internal branch of
    /// `h`, first invalidating the vectors computed across the two
    /// branches it swaps (both ends of `h` always among them).
    pub fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        let (x, y) = nni_branches(&self.tree, h, variant);
        self.cut([x, y]);
        nni(&mut self.tree, h, variant)
    }

    /// Revert an NNI move (an involution: the same swap again).
    pub fn undo_nni(&mut self, undo: &NniUndo) {
        self.apply_nni(undo.branch, undo.variant);
    }

    /// Invalidate all cached vectors (used by tests and after bulk edits).
    pub fn invalidate_all(&mut self) {
        self.orient.invalidate_all();
    }

    /// Direct read-only access to a computed ancestral vector (test hook):
    /// the blocks' slices in partition and block order, which within a
    /// partition is the unblocked vector. A vector currently oriented as
    /// rebuilt has no stored bytes and is rebuilt like any other read of
    /// it.
    pub fn debug_vector(&mut self, inner: InnerId) -> OocResult<Vec<f64>> {
        let dir = self.orient.get(inner);
        let end = dir.map_or(ChildRef::Inner(inner), |dir| {
            self.tree.child_ref(self.tree.back(dir))
        });
        let (pins, n_pins) = inline_pins(end.pinned().map(AccessRecord::read).into_iter());
        let mut out = Vec::new();
        for p in 0..self.parts.len() {
            let (blocks, cx, _) = self.split(p);
            for Block { store, st } in blocks {
                let sess = store.session(&pins[..n_pins])?;
                st.rebuild(&cx, &sess, end, 0);
                out.extend_from_slice(end.stored().map_or(&st.rebuilt[0][..], |i| sess.read(i)));
                sess.finish()?;
            }
        }
        Ok(out)
    }
}

impl<S: AncestralStore + Send> PlfEngine<S> {
    /// Build an engine of `parts.len()` partitions, partition `i` cut into
    /// `parts[i].stores.len()` even column blocks (whose vector dimensions
    /// are [`PlfEngine::block_dims`]), which run side by side. Every
    /// store must be sized for `tree.n_inner()` vectors.
    pub fn with_layout(
        tree: Tree,
        parts: Vec<PartLayout<'_, S>>,
        alpha: f64,
        n_cats: usize,
    ) -> Self {
        Self::assemble(tree, parts, alpha, n_cats, side_by_side)
    }
}

impl<S: AncestralStore> Block<S> {
    fn new(dims: Dims, tips: TipCodes, weights: Vec<u32>, store: S, n_inner: usize) -> Self {
        assert_eq!(store.width(), dims.width(), "store width mismatch");
        assert_eq!(weights.len(), dims.n_patterns, "weights length mismatch");
        let st = BlockState {
            scale: vec![vec![0u32; dims.n_patterns]; n_inner],
            pm_l: PMatrices::new(dims.n_states, dims.n_cats),
            pm_r: PMatrices::new(dims.n_states, dims.n_cats),
            lut_l: Vec::new(),
            lut_r: Vec::new(),
            sumtable: Vec::new(),
            rebuilt: [(); 2].map(|()| AlignedBuf::zeroed(dims.width())),
            scale_sums: vec![0u32; dims.n_patterns],
            nr_l: vec![0.0; dims.n_patterns],
            nr_d1: vec![0.0; dims.n_patterns],
            nr_d2: vec![0.0; dims.n_patterns],
            site_lnl: vec![0.0; dims.n_patterns],
            weights,
            dims,
            tips,
        };
        Block { store, st }
    }

    /// Execute one Felsenstein combine (never a rebuilt step). On an I/O
    /// error the parent's scaling counts are restored untouched, so the
    /// engine stays usable for a retry after the caller handles the error.
    fn newview_step(&mut self, cx: &PartCx<'_>, step: &phylo_tree::TraversalStep) -> OocResult<()> {
        let st = &mut self.st;
        // Normalise so a lone tip child is always "left": kernels then only
        // need tip/inner and inner/inner shapes.
        let swap = matches!(step.right, ChildRef::Tip(_));
        let (left, right) = if swap {
            (step.right, step.left)
        } else {
            (step.left, step.right)
        };
        let r = right.inner().expect("a rebuilt step is not executed");
        let parent = step.parent;
        let mut scale_p = std::mem::take(&mut st.scale[parent as usize]);
        let (pins, n_pins) = inline_pins(step.pins());
        let result = (|| {
            let mut sess = self.store.session(&pins[..n_pins])?;
            st.rebuild(cx, &sess, left, 0);
            st.rebuild(cx, &sess, right, 1);
            let (eigen, gamma) = (&cx.model.eigen, &cx.model.gamma);
            st.pm_l.update(eigen, gamma, step.left_len);
            st.pm_r.update(eigen, gamma, step.right_len);
            let (pm_l, pm_r) = if swap {
                (&st.pm_r, &st.pm_l)
            } else {
                (&st.pm_l, &st.pm_r)
            };
            if let ChildRef::Tip(_) = left {
                st.tips.build_lut(pm_l, &mut st.lut_l);
            }
            let (pv, lv, rv) = sess.rw(parent, left.stored(), right.stored());
            let rv = rv.unwrap_or(&st.rebuilt[1]);
            match left {
                ChildRef::Tip(a) => cx.kernel.newview_tip_inner(
                    &st.dims,
                    pv,
                    &mut scale_p,
                    &st.lut_l,
                    st.tips.tip(a as usize),
                    rv,
                    &st.scale[r as usize],
                    pm_r,
                ),
                ChildRef::Inner(l) | ChildRef::Rebuilt { node: l, .. } => {
                    cx.kernel.newview_inner_inner(
                        &st.dims,
                        pv,
                        &mut scale_p,
                        lv.unwrap_or(&st.rebuilt[0]),
                        &st.scale[l as usize],
                        pm_l,
                        rv,
                        &st.scale[r as usize],
                        pm_r,
                    )
                }
            }
            sess.finish()
        })();
        // Put the scale buffer back even on failure: a failed combine must
        // not leave the parent with an empty scaling vector.
        st.scale[parent as usize] = scale_p;
        result
    }

    /// Execute all combines of a plan, submitting its lowered access plan
    /// first (§3.4: the residency information is established "when the
    /// global or local tree traversal order is determined ... prior to the
    /// actual likelihood computations"). Read skipping and plan-aware
    /// replacement both derive from the one submitted
    /// [`ooc_core::AccessPlan`] — there is no separate written/reads scan.
    /// A failure reports how many steps had completed.
    pub(crate) fn execute_plan(
        &mut self,
        cx: &PartCx<'_>,
        plan: &TraversalPlan,
    ) -> Result<(), Failed> {
        let t0 = cx.obs.map(Recorder::now);
        // Even a step-free plan (fully oriented tree) is submitted: its
        // trailing root-read records tell a plan-aware strategy about the
        // two vectors the root evaluation is about to touch.
        self.store.submit_plan(plan.lower(cx.tree.n_inner()));
        for (done, step) in plan.steps.iter().enumerate() {
            if step.is_rebuilt() {
                continue; // oriented by the plan, rebuilt by whoever reads it
            }
            self.newview_step(cx, step).map_err(|e| (done, e))?;
        }
        if let (Some(rec), Some(t0)) = (cx.obs, t0) {
            rec.span_at("plf", "combine-batch", StallKind::Compute, t0)
                .count(plan.written().count() as u64)
                .unattributed()
                .finish();
        }
        Ok(())
    }

    /// Fill `site_lnl` with the per-pattern log-likelihood terms at the
    /// plan's root branch (vectors must already be up to date, i.e. call
    /// after [`Block::execute_plan`]).
    fn evaluate_plan(&mut self, cx: &PartCx<'_>, plan: &TraversalPlan) -> OocResult<()> {
        let st = &mut self.st;
        let (left, right) = (plan.root_left, plan.root_right);
        let (pins, n_pins) = inline_pins(plan.root_pins());
        let sess = self.store.session(&pins[..n_pins])?;
        st.rebuild(cx, &sess, left, 0);
        st.rebuild(cx, &sess, right, 1);
        st.pm_l
            .update(&cx.model.eigen, &cx.model.gamma, plan.root_len);
        let freqs = cx.model.model.freqs();
        if let (ChildRef::Tip(_), _) | (_, ChildRef::Tip(_)) = (left, right) {
            st.tips.build_root_lut(&st.pm_l, freqs, &mut st.lut_l);
        }
        let view = |end: ChildRef| match end.stored() {
            Some(i) => sess.read(i),
            None => &st.rebuilt[usize::from(end == right)],
        };
        match (left, right) {
            (ChildRef::Tip(t), q) | (q, ChildRef::Tip(t)) => {
                let qi = q.inner().expect("no tip-tip branches exist for n >= 3");
                cx.kernel.evaluate_tip_inner_sites(
                    &st.dims,
                    &st.lut_l,
                    st.tips.tip(t as usize),
                    view(q),
                    &st.scale[qi as usize],
                    &st.weights,
                    &mut st.site_lnl,
                );
            }
            (p, q) => {
                let (pi, qi) = (p.inner().expect("not a tip"), q.inner().expect("not a tip"));
                cx.kernel.evaluate_inner_inner_sites(
                    &st.dims,
                    view(left),
                    &st.scale[pi as usize],
                    view(right),
                    &st.scale[qi as usize],
                    &st.pm_l,
                    freqs,
                    &st.weights,
                    &mut st.site_lnl,
                );
            }
        }
        sess.finish()
    }
}

impl BlockState {
    /// If `end` is rebuilt, recompute its vector (and scaling counts) into
    /// `rebuilt[k]` as it is currently oriented — the one kernel call its
    /// plan step would have executed, on the same operands in the same
    /// roles: the tip (a cherry's first) left, a stored operand read through
    /// `sess`, which must pin it. Returns before touching anything for a
    /// tip or a stored vector; otherwise clobbers the P-matrix and LUT
    /// scratch, so readers call it before setting up their own.
    pub(crate) fn rebuild(
        &mut self,
        cx: &PartCx<'_>,
        sess: &impl VectorSession,
        end: ChildRef,
        k: usize,
    ) {
        let ChildRef::Rebuilt { node, operand } = end else {
            return;
        };
        let tree = cx.tree;
        let dir = cx.orient.get(node).expect("a rebuilt vector is read valid");
        let (l, r) = tree.children_dirs(dir);
        let (tip_dir, other_dir) = if tree.is_tip(tree.neighbor(l)) {
            (l, r)
        } else {
            (r, l)
        };
        let tip_codes = |h| self.tips.tip(tree.neighbor(h) as usize);
        let (eigen, gamma) = (&cx.model.eigen, &cx.model.gamma);
        self.pm_l.update(eigen, gamma, tree.branch_length(tip_dir));
        self.pm_r
            .update(eigen, gamma, tree.branch_length(other_dir));
        self.tips.build_lut(&self.pm_l, &mut self.lut_l);
        let mut scale_n = std::mem::take(&mut self.scale[node as usize]);
        match operand {
            None => {
                self.tips.build_lut(&self.pm_r, &mut self.lut_r);
                cx.kernel.newview_tip_tip(
                    &self.dims,
                    &mut self.rebuilt[k],
                    &mut scale_n,
                    &self.lut_l,
                    tip_codes(tip_dir),
                    &self.lut_r,
                    tip_codes(other_dir),
                )
            }
            Some(o) => cx.kernel.newview_tip_inner(
                &self.dims,
                &mut self.rebuilt[k],
                &mut scale_n,
                &self.lut_l,
                tip_codes(tip_dir),
                sess.read(o),
                &self.scale[o as usize],
                &self.pm_r,
            ),
        }
        self.scale[node as usize] = scale_n;
    }
}

/// The pins of one session, held inline: a session is opened per combine.
pub(crate) fn inline_pins(
    pins: impl Iterator<Item = AccessRecord>,
) -> ([AccessRecord; MAX_PINS], usize) {
    let mut held = [AccessRecord::read(0); MAX_PINS];
    let mut n = 0;
    for rec in pins {
        held[n] = rec;
        n += 1;
    }
    (held, n)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::TreeOracle;
    use crate::spec::DynEngine;
    use crate::store_api::InRamStore;
    use ooc_core::{MemStore, OocConfig, StrategyKind, TopologyOracle, VectorManager};
    use phylo_seq::{compress_patterns, simulate_alignment, Alignment, Alphabet};
    use phylo_tree::build::{random_topology, yule_like_lengths};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(
        n_tips: usize,
        n_sites: usize,
        seed: u64,
    ) -> (Tree, CompressedAlignment, ReversibleModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = random_topology(n_tips, 0.1, &mut rng);
        yule_like_lengths(&mut tree, 0.12, 1e-4, &mut rng);
        let model = ReversibleModel::hky85(2.2, &[0.3, 0.2, 0.2, 0.3]);
        let gamma = DiscreteGamma::new(0.8, 4);
        let aln = simulate_alignment(&tree, &model, &gamma, n_sites, &mut rng);
        (tree, compress_patterns(&aln), model)
    }

    pub(crate) fn build_engine(n_tips: usize, n_sites: usize, seed: u64) -> PlfEngine<InRamStore> {
        let (tree, comp, model) = dataset(n_tips, n_sites, seed);
        let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
        let store = InRamStore::new(tree.n_inner(), dims.width());
        PlfEngine::new(tree, &comp, model, 0.8, 4, store)
    }

    #[test]
    fn three_taxa_analytic_likelihood() {
        // For 3 taxa the tree is a star; the likelihood has a closed form:
        // l(site) = Σ_c (1/C) Σ_x π_x Π_t P_c(x, s_t; b_t).
        let (tree, model) = {
            let mut tree = Tree::with_capacity(3);
            tree.join(tree.tip_half_edge(0), tree.inner_half_edge(0, 0), 0.2);
            tree.join(tree.tip_half_edge(1), tree.inner_half_edge(0, 1), 0.3);
            tree.join(tree.tip_half_edge(2), tree.inner_half_edge(0, 2), 0.4);
            (tree, ReversibleModel::hky85(2.0, &[0.3, 0.2, 0.2, 0.3]))
        };
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("t0".into(), "ACGT".into()),
                ("t1".into(), "AAGT".into()),
                ("t2".into(), "ACGC".into()),
            ],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
        let store = InRamStore::new(1, dims.width());
        let mut engine = PlfEngine::new(tree.clone(), &comp, model.clone(), 1.0, 4, store);
        let got = engine.log_likelihood().unwrap();

        // Direct computation.
        let eigen = model.eigen();
        let gamma = DiscreteGamma::new(1.0, 4);
        let mut pms = Vec::new();
        for t in [0.2, 0.3, 0.4] {
            let mut pm = PMatrices::new(4, 4);
            pm.update(&eigen, &gamma, t);
            pms.push(pm);
        }
        let enc = |ch: u8| Alphabet::Dna.encode(ch).unwrap().trailing_zeros() as usize;
        let seqs = ["ACGT", "AAGT", "ACGC"];
        let mut expect = 0.0;
        for site in 0..4 {
            let states: Vec<usize> = seqs.iter().map(|s| enc(s.as_bytes()[site])).collect();
            let mut l = 0.0;
            for c in 0..4 {
                for x in 0..4 {
                    let mut term = model.freqs()[x];
                    for (t, &s) in states.iter().enumerate() {
                        term *= pms[t].get(c, x, s);
                    }
                    l += 0.25 * term;
                }
            }
            expect += l.ln();
        }
        assert!(
            (got - expect).abs() < 1e-9,
            "engine {got} vs analytic {expect}"
        );
    }

    #[test]
    fn likelihood_invariant_under_rerooting() {
        let mut engine = build_engine(14, 120, 42);
        let base = engine.log_likelihood().unwrap();
        assert!(base.is_finite() && base < 0.0);
        let roots: Vec<HalfEdgeId> = engine.tree().branches().take(10).collect();
        for h in roots {
            let l = engine.log_likelihood_at(h, false).unwrap();
            assert!(
                (l - base).abs() < 1e-7 * base.abs(),
                "root {h}: {l} vs {base}"
            );
        }
    }

    #[test]
    fn partial_equals_full_traversal() {
        let mut engine = build_engine(20, 150, 7);
        let full = engine
            .log_likelihood_at(engine.tree().default_root_edge(), true)
            .unwrap();
        let partial = engine.log_likelihood().unwrap();
        assert_eq!(full, partial, "partial traversal must be bit-identical");
        // After moving the root around, a fresh full traversal still agrees.
        let tip_root = engine.tree().tip_half_edge(5);
        let p2 = engine.log_likelihood_at(tip_root, false).unwrap();
        let f2 = engine.log_likelihood_at(tip_root, true).unwrap();
        assert!((p2 - f2).abs() < 1e-8);
    }

    #[test]
    fn full_traversals_are_stable() {
        let mut engine = build_engine(10, 80, 3);
        let a = engine.full_traversals(1).unwrap();
        let b = engine.full_traversals(5).unwrap();
        assert_eq!(a, b, "repeated full traversals must not drift");
    }

    /// A legal regraft branch for the subtree pruned at `prune_dir`.
    fn spr_target(tree: &Tree, prune_dir: HalfEdgeId) -> HalfEdgeId {
        let (a, b) = tree.children_dirs(prune_dir);
        let (qa, qb) = (tree.back(a), tree.back(b));
        tree.branches()
            .find(|&t| {
                let tb = tree.back(t);
                t != a
                    && t != b
                    && t != qa
                    && t != qb
                    && tb != a
                    && tb != b
                    && !phylo_tree::spr::subtree_contains(tree, prune_dir, tree.node_of(t))
                    && !phylo_tree::spr::subtree_contains(tree, prune_dir, tree.node_of(tb))
            })
            .expect("no SPR target found")
    }

    #[test]
    fn spr_apply_then_undo_restores_likelihood() {
        let mut engine = build_engine(16, 100, 11);
        let before = engine.log_likelihood().unwrap();
        let prune_dir = engine.tree().inner_half_edge(4, 0);
        let target = spr_target(engine.tree(), prune_dir);
        let undo = engine.apply_spr(prune_dir, target, None);
        let moved = engine.log_likelihood().unwrap();
        engine.undo_spr(prune_dir, &undo);
        let after = engine.log_likelihood().unwrap();
        assert!(
            (before - after).abs() < 1e-8 * before.abs(),
            "undo must restore the likelihood: {before} vs {after}"
        );
        // The moved topology generally has a different likelihood.
        assert!((moved - before).abs() > 1e-9 || moved == before);
    }

    #[test]
    fn spr_partial_matches_full_recompute() {
        let mut engine = build_engine(18, 90, 13);
        let _ = engine.log_likelihood().unwrap();
        let tree = engine.tree();
        // Search prune directions until one offers a third-choice target
        // (some directions move almost the whole tree and have none).
        let (prune_dir, target) = (0..tree.n_inner() as u32)
            .flat_map(|i| (0..3).map(move |k| (i, k)))
            .find_map(|(i, k)| {
                let prune_dir = tree.inner_half_edge(i, k);
                let (a, b) = tree.children_dirs(prune_dir);
                let (qa, qb) = (tree.back(a), tree.back(b));
                tree.branches()
                    .filter(|&t| {
                        let tb = tree.back(t);
                        t != a
                            && t != b
                            && t != qa
                            && t != qb
                            && tb != a
                            && tb != b
                            && !phylo_tree::spr::subtree_contains(tree, prune_dir, tree.node_of(t))
                            && !phylo_tree::spr::subtree_contains(tree, prune_dir, tree.node_of(tb))
                    })
                    .nth(2)
                    .map(|t| (prune_dir, t))
            })
            .expect("no SPR target");
        engine.apply_spr(prune_dir, target, None);
        let partial = engine.log_likelihood().unwrap();
        engine.invalidate_all();
        let full = engine.log_likelihood().unwrap();
        assert!(
            (partial - full).abs() < 1e-8 * full.abs(),
            "partial {partial} vs full {full}"
        );
    }

    #[test]
    fn alpha_changes_move_the_likelihood() {
        let mut engine = build_engine(12, 100, 21);
        let l1 = engine.log_likelihood().unwrap();
        engine.set_alpha(0.1);
        let l2 = engine.log_likelihood().unwrap();
        assert_ne!(l1, l2);
        engine.set_alpha(0.8);
        let l3 = engine.log_likelihood().unwrap();
        assert!((l1 - l3).abs() < 1e-8 * l1.abs(), "alpha roundtrip");
    }

    #[test]
    fn branch_length_change_with_discipline_is_consistent() {
        let mut engine = build_engine(15, 70, 31);
        let h = engine.tree().default_root_edge();
        let _ = engine.log_likelihood_at(h, false).unwrap();
        engine.set_branch_length(h, 0.5);
        let at_branch = engine.log_likelihood_at(h, false).unwrap();
        engine.invalidate_all();
        let full = engine.log_likelihood_at(h, true).unwrap();
        assert!((at_branch - full).abs() < 1e-8 * full.abs());
    }

    #[test]
    fn gaps_do_not_break_likelihood() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut tree = random_topology(6, 0.1, &mut rng);
        yule_like_lengths(&mut tree, 0.1, 1e-4, &mut rng);
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("t0".into(), "ACGT-N".into()),
                ("t1".into(), "ACGTAN".into()),
                ("t2".into(), "AC--AN".into()),
                ("t3".into(), "ACGTAN".into()),
                ("t4".into(), "NNNNNN".into()),
                ("t5".into(), "ACRTAY".into()),
            ],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let dims = PlfEngine::<InRamStore>::dims_for(&comp, 4);
        let store = InRamStore::new(tree.n_inner(), dims.width());
        let mut engine = PlfEngine::new(tree, &comp, ReversibleModel::jc69(), 1.0, 4, store);
        let l = engine.log_likelihood().unwrap();
        assert!(l.is_finite() && l < 0.0);
    }

    fn member(
        tree: &Tree,
        comp: &CompressedAlignment,
        model: ReversibleModel,
    ) -> PlfEngine<InRamStore> {
        let dims = PlfEngine::<InRamStore>::dims_for(comp, 4);
        let store = InRamStore::new(tree.n_inner(), dims.width());
        PlfEngine::new(tree.clone(), comp, model, 0.8, 4, store)
    }

    /// One tree, a DNA partition and a protein partition simulated on it.
    fn mixed_fixture(
        seed: u64,
    ) -> (
        Tree,
        CompressedAlignment,
        ReversibleModel,
        CompressedAlignment,
        ReversibleModel,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = random_topology(10, 0.1, &mut rng);
        yule_like_lengths(&mut tree, 0.12, 1e-4, &mut rng);
        let gamma = DiscreteGamma::new(0.8, 4);
        let dna_model = ReversibleModel::hky85(2.2, &[0.3, 0.2, 0.2, 0.3]);
        let dna = compress_patterns(&simulate_alignment(
            &tree, &dna_model, &gamma, 120, &mut rng,
        ));
        let prot_model = phylo_models::protein::synthetic_protein(seed);
        let prot = compress_patterns(&simulate_alignment(
            &tree,
            &prot_model,
            &gamma,
            40,
            &mut rng,
        ));
        (tree, dna, dna_model, prot, prot_model)
    }

    /// The fixture's two partitions under one tree, `k` blocks each.
    fn joint(seed: u64, k: usize) -> PlfEngine<InRamStore> {
        let (tree, dna, dna_m, prot, prot_m) = mixed_fixture(seed);
        let layout = |(comp, model)| PartLayout {
            comp,
            model,
            stores: PlfEngine::<InRamStore>::block_dims(comp, 4, k)
                .iter()
                .map(|d| InRamStore::new(tree.n_inner(), d.width()))
                .collect(),
            recorder: None,
        };
        let parts = [(&dna, &dna_m), (&prot, &prot_m)].map(layout);
        PlfEngine::with_layout(tree.clone(), parts.into(), 0.8, 4)
    }

    #[test]
    fn partition_lnls_match_standalone_engines_bitwise() {
        let (tree, dna, dna_m, prot, prot_m) = mixed_fixture(5);
        let mut solo_dna = member(&tree, &dna, dna_m);
        let mut solo_prot = member(&tree, &prot, prot_m);
        let want = [
            solo_dna.log_likelihood().unwrap(),
            solo_prot.log_likelihood().unwrap(),
        ];
        for k in [1, 3] {
            let mut joint = joint(5, k);
            let got = joint.partition_lnls().unwrap();
            assert_eq!(got, want, "per-partition lnls must be bit-identical");
            assert_eq!(joint.log_likelihood().unwrap(), want[0] + want[1]);
            // A block's slice of a vector is its columns of the serial one.
            let inner = joint.tree().n_inner() as u32 - 1;
            let mut whole = solo_dna.debug_vector(inner).unwrap();
            whole.extend(solo_prot.debug_vector(inner).unwrap());
            assert_eq!(joint.debug_vector(inner).unwrap(), whole);
        }
    }

    #[test]
    fn joint_branch_optimisation_improves_and_agrees_with_evaluation() {
        let mut joint = joint(9, 2);
        let before = joint.log_likelihood().unwrap();
        let h = joint.tree().default_root_edge();
        let (z, lnl) = joint.optimize_branch(h, 32).unwrap();
        assert!(
            lnl >= before - 1e-7,
            "joint NR worsened lnl: {before} -> {lnl}"
        );
        // There is one tree: every partition sees the optimised length.
        assert_eq!(joint.tree().branch_length(h), z);
        // And the NR lnl matches a fresh joint evaluation at that branch.
        let check = joint.log_likelihood_at(h, false).unwrap();
        assert!((check - lnl).abs() < 1e-6 * lnl.abs(), "{check} vs {lnl}");
    }

    #[test]
    fn joint_smoothing_and_alpha_improve_the_joint_likelihood() {
        let mut joint = joint(13, 1);
        let before = joint.log_likelihood().unwrap();
        let smoothed = joint.smooth_branches(1, 8).unwrap();
        assert!(smoothed >= before - 1e-7);
        let (alpha, lnl) = joint.optimize_alpha(1e-3, 32).unwrap();
        assert!(alpha.is_finite() && lnl >= smoothed - 1e-6);
        // Consistency after all the shared-parameter churn: partial vs
        // full recompute agree.
        let partial = joint.log_likelihood().unwrap();
        joint.invalidate_all();
        let full = joint.log_likelihood().unwrap();
        assert_eq!(partial, full);
    }

    #[test]
    fn topology_ops_reach_every_partition() {
        let mut joint = joint(17, 2);
        let before = joint.log_likelihood().unwrap();
        let internal = joint
            .tree()
            .branches()
            .find(|&h| {
                let t = joint.tree();
                !t.is_tip(t.node_of(h)) && !t.is_tip(t.neighbor(h))
            })
            .unwrap();
        let undo = joint.apply_nni(internal, 0);
        let moved = joint.partition_lnls().unwrap();
        joint.invalidate_all();
        assert_eq!(
            joint.partition_lnls().unwrap(),
            moved,
            "a partition kept a stale vector"
        );
        joint.undo_nni(&undo);
        let after = joint.log_likelihood().unwrap();
        assert!(
            (before - after).abs() < 1e-8 * before.abs(),
            "{before} vs {after}"
        );
    }

    /// The engine keeps the snapshot its stores' oracles read as the tree
    /// is: refreshed before the first plan after a rearrangement.
    #[test]
    fn the_shared_tree_follows_rearrangements() {
        let (tree, comp, model) = dataset(16, 60, 29);
        let n_inner = tree.n_inner();
        let width = PlfEngine::<InRamStore>::dims_for(&comp, 4).width();
        let (strategy, shared) = crate::oracle::build_strategy(StrategyKind::Topological, &tree);
        let shared = shared.expect("topological ranks by tree distance");
        let cfg = OocConfig::builder(n_inner, width).slots(5).build().unwrap();
        let manager = VectorManager::new(cfg, strategy, MemStore::new(n_inner, width));
        let store = crate::OocStore::new(manager);
        let mut engine = PlfEngine::new(tree, &comp, model, 0.8, 4, store);
        engine.set_shared_tree(shared.clone());
        let distances = |shared: SharedTree| {
            let mut oracle = TreeOracle::new(shared);
            let from = |i| oracle.distances_from(i).to_vec();
            (0..n_inner as u32).map(from).collect::<Vec<_>>()
        };
        let start = distances(SharedTree::new(engine.tree()));
        engine.log_likelihood().unwrap();
        let prune_dir = engine.tree().inner_half_edge(4, 0);
        let target = spr_target(engine.tree(), prune_dir);
        engine.apply_spr(prune_dir, target, None);
        assert_eq!(distances(shared.clone()), start, "nothing planned since");
        engine.log_likelihood().unwrap();
        assert_ne!(distances(shared.clone()), start);
        assert_eq!(distances(shared), distances(SharedTree::new(engine.tree())));
    }
}
