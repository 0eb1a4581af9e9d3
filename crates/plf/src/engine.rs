//! The likelihood engine: traversal execution, root evaluation, topology
//! operations.

use crate::encode::TipCodes;
use crate::kernels::evaluate::reduce_site_lnl;
use crate::kernels::{Dims, KernelBackend};
use crate::store_api::{AncestralStore, VectorSession};
use ooc_core::{AccessRecord, AlignedBuf, OocResult, Recorder, StallKind, MAX_PINS};
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

/// The PLF engine over a tree, an encoded alignment and a residency backend.
pub struct PlfEngine<S: AncestralStore> {
    pub(crate) store: S,
    pub(crate) st: EngineState,
}

/// Everything of a [`PlfEngine`] but its store: a field of its own so that
/// a reader can rebuild a vector ([`EngineState::rebuild`]) while its
/// session borrows the store.
pub(crate) struct EngineState {
    pub(crate) tree: Tree,
    pub(crate) plf_model: PlfModel,
    pub(crate) dims: Dims,
    pub(crate) tips: TipCodes,
    pub(crate) weights: Vec<u32>,
    /// Which vectors are valid, and for which direction. Invariant
    /// (DESIGN.md §5k): below a valid vector every vector is valid and
    /// oriented towards it — established by each completed traversal, kept
    /// by invalidating through [`invalidate_branch`] only.
    pub(crate) orient: Orientation,
    /// Kernel backend selected once at construction (env override, then
    /// CPU detection); every kernel invocation dispatches through it.
    pub(crate) kernel: KernelBackend,
    /// Per inner node, per pattern scaling counts (always in RAM — the
    /// paper swaps only the probability vectors; these are 32× smaller).
    pub(crate) scale: Vec<Vec<u32>>,
    // Reusable scratch (no allocation in the traversal hot path).
    pub(crate) pm_l: PMatrices,
    pub(crate) pm_r: PMatrices,
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
    // `nr_derivatives` call (each Newton iteration used to allocate
    // three fresh Vecs — measurable churn during smoothing passes).
    pub(crate) nr_l: Vec<f64>,
    pub(crate) nr_d1: Vec<f64>,
    pub(crate) nr_d2: Vec<f64>,
    /// Per-pattern weighted log-likelihood terms of the most recent root
    /// evaluation (what [`reduce_site_lnl`] folds). A sharded engine
    /// concatenates these across shards in shard order before reducing.
    pub(crate) site_lnl: Vec<f64>,
    /// Observability recorder: each combine batch becomes one span.
    pub(crate) obs: Option<Recorder>,
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

    /// Build an engine. `store` must be sized for `tree.n_inner()` vectors
    /// of `dims_for(comp, n_cats).width()` doubles. Tip `i` of the tree
    /// reads sequence `i` of the alignment.
    pub fn new(
        tree: Tree,
        comp: &CompressedAlignment,
        model: ReversibleModel,
        alpha: f64,
        n_cats: usize,
        store: S,
    ) -> Self {
        assert_eq!(
            tree.n_tips(),
            comp.alignment.n_seqs(),
            "tree tips and alignment sequences must match"
        );
        let dims = Self::dims_for(comp, n_cats);
        let tips = TipCodes::from_alignment(comp);
        Self::from_parts(tree, model, alpha, dims, tips, comp.weights.clone(), store)
    }

    /// Build an engine from pre-sliced parts: a sharded engine constructs
    /// one per shard with `dims.n_patterns`, `tips` and `weights` restricted
    /// to the shard's pattern range, all over the same tree topology.
    pub(crate) fn from_parts(
        tree: Tree,
        model: ReversibleModel,
        alpha: f64,
        dims: Dims,
        tips: TipCodes,
        weights: Vec<u32>,
        store: S,
    ) -> Self {
        assert_eq!(store.width(), dims.width(), "store width mismatch");
        assert_eq!(weights.len(), dims.n_patterns, "weights length mismatch");
        let plf_model = PlfModel::new(model, alpha, dims.n_cats);
        let n_inner = tree.n_inner();
        let st = EngineState {
            orient: Orientation::new(n_inner),
            kernel: KernelBackend::choose(),
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
            obs: None,
            tree,
            plf_model,
            dims,
            tips,
        };
        PlfEngine { store, st }
    }

    /// Vector dimensions in use.
    pub fn dims(&self) -> Dims {
        self.st.dims
    }

    /// The kernel backend this engine dispatches through (the *requested*
    /// one; see [`KernelBackend::effective`] for what actually runs).
    pub fn kernel(&self) -> KernelBackend {
        self.st.kernel
    }

    /// Replace the kernel backend. All cached ancestral vectors are
    /// invalidated: backends may differ in the last ulps (FMA
    /// contraction), and mixing vectors computed under different backends
    /// would break the engine's reproducibility guarantees.
    pub fn set_kernel(&mut self, kernel: KernelBackend) {
        if kernel != self.st.kernel {
            self.st.kernel = kernel;
            self.st.orient.invalidate_all();
        }
    }

    /// The tree (read-only; use the engine's topology operations to mutate).
    pub fn tree(&self) -> &Tree {
        &self.st.tree
    }

    /// Current Γ shape parameter.
    pub fn alpha(&self) -> f64 {
        self.st.plf_model.gamma.alpha()
    }

    /// The residency backend.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable backend access (statistics resets between phases).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Attach an observability recorder: every executed combine batch is
    /// recorded as one `("plf", "combine-batch")` span from now on. The
    /// residency layers below carve their own demand-read / write-back
    /// time out of it, so the span itself stays unattributed.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.st.obs = Some(rec);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.st.obs.as_ref()
    }

    /// Replace the Γ shape parameter; all ancestral vectors become stale.
    pub fn set_alpha(&mut self, alpha: f64) {
        self.st.plf_model.set_alpha(alpha);
        self.st.orient.invalidate_all();
    }

    /// Set a branch length, invalidating exactly the vectors computed
    /// across that branch.
    pub fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        self.st.tree.set_branch_length(h, len);
        invalidate_branch(&self.st.tree, &mut self.st.orient, h);
    }

    /// Which vectors are currently valid, and for which direction
    /// (read-only: the differential staleness tests compare it against the
    /// conservative search-based bookkeeping).
    pub fn orientation(&self) -> &Orientation {
        &self.st.orient
    }

    /// Execute one Felsenstein combine (never a rebuilt step). On an I/O
    /// error the parent's scaling counts are restored untouched, so the
    /// engine stays usable for a retry after the caller handles the error.
    pub(crate) fn newview_step(&mut self, step: &phylo_tree::TraversalStep) -> OocResult<()> {
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
            st.rebuild(&sess, left, 0);
            st.rebuild(&sess, right, 1);
            let (eigen, gamma) = (&st.plf_model.eigen, &st.plf_model.gamma);
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
                ChildRef::Tip(a) => st.kernel.newview_tip_inner(
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
                    st.kernel.newview_inner_inner(
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
    /// actual likelihood computations"). Read skipping, prefetch lookahead
    /// and plan-aware replacement all derive from the one submitted
    /// [`ooc_core::AccessPlan`] — there is no separate written/reads scan.
    /// When the backing store runs a plan-driven I/O pipeline
    /// (`ooc_core::PrefetchingStore`), this same submission installs the
    /// plan on the pipeline's worker threads, which then stream the next
    /// window of first-reads while the combine loop below is chewing the
    /// current one. The pipeline affects only *when* vectors are read,
    /// never their contents, so likelihoods are bit-identical with or
    /// without it — per shard and in serial.
    pub(crate) fn execute_plan(&mut self, plan: &TraversalPlan) -> OocResult<()> {
        let t0 = self.st.obs.as_ref().map(|r| r.now());
        // Even a step-free plan (fully oriented tree) is submitted: its
        // trailing root-read records let the residency layer prefetch the
        // two vectors the root evaluation is about to touch.
        self.store.submit_plan(plan.lower(self.st.tree.n_inner()));
        for (done, step) in plan.steps.iter().enumerate() {
            if step.is_rebuilt() {
                continue; // oriented by the plan, rebuilt by whoever reads it
            }
            if let Err(e) = self.newview_step(step) {
                // Planning marked every step's vector valid up front; the
                // ones never computed must not stay so. A post-order suffix
                // has nothing valid above it, so the invariant holds.
                for missed in &plan.steps[done..] {
                    self.st.orient.invalidate(missed.parent);
                }
                return Err(e);
            }
        }
        if let (Some(rec), Some(t0)) = (&self.st.obs, t0) {
            rec.span_at("plf", "combine-batch", StallKind::Compute, t0)
                .count(plan.written().count() as u64)
                .unattributed()
                .finish();
        }
        Ok(())
    }

    /// Evaluate the log-likelihood at the plan's root branch (vectors must
    /// already be up to date, i.e. call after [`PlfEngine::execute_plan`]).
    /// Fills `site_lnl` with per-pattern terms as a side effect.
    pub(crate) fn evaluate_plan(&mut self, plan: &TraversalPlan) -> OocResult<f64> {
        let st = &mut self.st;
        let (left, right) = (plan.root_left, plan.root_right);
        let (pins, n_pins) = inline_pins(plan.root_pins());
        let sess = self.store.session(&pins[..n_pins])?;
        st.rebuild(&sess, left, 0);
        st.rebuild(&sess, right, 1);
        st.pm_l
            .update(&st.plf_model.eigen, &st.plf_model.gamma, plan.root_len);
        let freqs = st.plf_model.model.freqs();
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
                st.kernel.evaluate_tip_inner_sites(
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
                st.kernel.evaluate_inner_inner_sites(
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
        sess.finish()?;
        Ok(reduce_site_lnl(&st.site_lnl))
    }

    /// Per-pattern weighted log-likelihood terms of the most recent root
    /// evaluation. A sharded engine folds these across shards in shard
    /// order, reproducing the serial reduction bit-for-bit.
    pub fn site_lnl(&self) -> &[f64] {
        &self.st.site_lnl
    }

    /// Log-likelihood evaluated at the branch of `root_he`. With
    /// `full == true` every ancestral vector is recomputed (the worst case
    /// of the paper's §4.3); otherwise only stale vectors are.
    pub fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        let plan = plan_traversal(&self.st.tree, root_he, &mut self.st.orient, full);
        self.execute_plan(&plan)?;
        self.evaluate_plan(&plan)
    }

    /// Log-likelihood at the default root branch, reusing valid vectors.
    pub fn log_likelihood(&mut self) -> OocResult<f64> {
        self.log_likelihood_at(self.st.tree.default_root_edge(), false)
    }

    /// The paper's `-f z` experiment: `count` successive *full* tree
    /// traversals (recomputing every ancestral vector each time), returning
    /// the final log-likelihood. "This represents a worst-case analysis,
    /// since full tree traversals exhibit the smallest degree of vector
    /// locality."
    pub fn full_traversals(&mut self, count: usize) -> OocResult<f64> {
        let root = self.st.tree.default_root_edge();
        let mut lnl = 0.0;
        for _ in 0..count {
            lnl = self.log_likelihood_at(root, true)?;
        }
        Ok(lnl)
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
        let (a, b) = self.st.tree.children_dirs(prune_dir);
        for cut in [a, b, target] {
            invalidate_branch(&self.st.tree, &mut self.st.orient, cut);
        }
        spr_prune_regraft(&mut self.st.tree, prune_dir, target, graft_lens)
    }

    /// Revert an SPR move; the branches cut are the two graft branches and
    /// the one the move merged.
    pub fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        let (a, b) = self.st.tree.children_dirs(prune_dir);
        for cut in [a, b, undo.merged_branch()] {
            invalidate_branch(&self.st.tree, &mut self.st.orient, cut);
        }
        spr_undo(&mut self.st.tree, undo);
    }

    /// Apply a nearest-neighbour interchange across the internal branch of
    /// `h`, first invalidating the vectors computed across the two
    /// branches it swaps (both ends of `h` always among them).
    pub fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        let (x, y) = nni_branches(&self.st.tree, h, variant);
        for cut in [x, y] {
            invalidate_branch(&self.st.tree, &mut self.st.orient, cut);
        }
        nni(&mut self.st.tree, h, variant)
    }

    /// Revert an NNI move (an involution: the same swap again).
    pub fn undo_nni(&mut self, undo: &NniUndo) {
        self.apply_nni(undo.branch, undo.variant);
    }

    /// Invalidate all cached vectors (used by tests and after bulk edits).
    pub fn invalidate_all(&mut self) {
        self.st.orient.invalidate_all();
    }

    /// Direct read-only access to a computed ancestral vector (test hook).
    /// A vector currently oriented as rebuilt has no stored bytes and is
    /// rebuilt like any other read of it.
    pub fn debug_vector(&mut self, inner: InnerId) -> OocResult<Vec<f64>> {
        let dir = self.st.orient.get(inner);
        let end = dir.map_or(ChildRef::Inner(inner), |dir| {
            self.st.tree.child_ref(self.st.tree.back(dir))
        });
        let (pins, n_pins) = inline_pins(end.pinned().map(AccessRecord::read).into_iter());
        let sess = self.store.session(&pins[..n_pins])?;
        self.st.rebuild(&sess, end, 0);
        let out = end
            .stored()
            .map_or(&self.st.rebuilt[0][..], |i| sess.read(i));
        let out = out.to_vec();
        sess.finish()?;
        Ok(out)
    }
}

impl EngineState {
    /// If `end` is rebuilt, recompute its vector (and scaling counts) into
    /// `rebuilt[k]` as it is currently oriented — the one kernel call its
    /// plan step would have executed, on the same operands in the same
    /// roles: the tip (a cherry's first) left, a stored operand read through
    /// `sess`, which must pin it. Returns before touching anything for a
    /// tip or a stored vector; otherwise clobbers the P-matrix and LUT
    /// scratch, so readers call it before setting up their own.
    pub(crate) fn rebuild(&mut self, sess: &impl VectorSession, end: ChildRef, k: usize) {
        let ChildRef::Rebuilt { node, operand } = end else {
            return;
        };
        let dir = self
            .orient
            .get(node)
            .expect("a rebuilt vector is read valid");
        let (l, r) = self.tree.children_dirs(dir);
        let (tip_dir, other_dir) = if self.tree.is_tip(self.tree.neighbor(l)) {
            (l, r)
        } else {
            (r, l)
        };
        let tip_codes = |h| self.tips.tip(self.tree.neighbor(h) as usize);
        let (eigen, gamma) = (&self.plf_model.eigen, &self.plf_model.gamma);
        self.pm_l
            .update(eigen, gamma, self.tree.branch_length(tip_dir));
        self.pm_r
            .update(eigen, gamma, self.tree.branch_length(other_dir));
        self.tips.build_lut(&self.pm_l, &mut self.lut_l);
        let mut scale_n = std::mem::take(&mut self.scale[node as usize]);
        match operand {
            None => {
                self.tips.build_lut(&self.pm_r, &mut self.lut_r);
                self.kernel.newview_tip_tip(
                    &self.dims,
                    &mut self.rebuilt[k],
                    &mut scale_n,
                    &self.lut_l,
                    tip_codes(tip_dir),
                    &self.lut_r,
                    tip_codes(other_dir),
                )
            }
            Some(o) => self.kernel.newview_tip_inner(
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
    use crate::store_api::InRamStore;
    use phylo_seq::{compress_patterns, simulate_alignment, Alignment, Alphabet};
    use phylo_tree::build::{random_topology, yule_like_lengths};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn build_engine(n_tips: usize, n_sites: usize, seed: u64) -> PlfEngine<InRamStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = random_topology(n_tips, 0.1, &mut rng);
        yule_like_lengths(&mut tree, 0.12, 1e-4, &mut rng);
        let model = ReversibleModel::hky85(2.2, &[0.3, 0.2, 0.2, 0.3]);
        let gamma = DiscreteGamma::new(0.8, 4);
        let aln = simulate_alignment(&tree, &model, &gamma, n_sites, &mut rng);
        let comp = compress_patterns(&aln);
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

    #[test]
    fn spr_apply_then_undo_restores_likelihood() {
        let mut engine = build_engine(16, 100, 11);
        let before = engine.log_likelihood().unwrap();
        // Find a legal SPR move.
        let tree = engine.tree();
        let prune_dir = tree.inner_half_edge(4, 0);
        let (a, b) = tree.children_dirs(prune_dir);
        let (qa, qb) = (tree.back(a), tree.back(b));
        let target = tree
            .branches()
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
            .expect("no SPR target found");
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
}
