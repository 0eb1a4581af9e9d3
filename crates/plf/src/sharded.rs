//! Sharded parallel PLF execution.
//!
//! [`ShardedPlfEngine`] partitions the alignment's pattern columns into
//! `k` contiguous shards ([`ShardSpec`]) and runs one complete
//! [`PlfEngine`] per shard: each owns the shard's slice of every ancestral
//! vector (through its own [`AncestralStore`], typically a
//! `VectorManager` over a disjoint region of one backing file), the
//! shard's tip codes and pattern weights, and a private clone of the tree.
//! Felsenstein combines are embarrassingly parallel across columns, so a
//! traversal executes all shards concurrently ([`ooc_core::par_each_mut`])
//! with zero synchronisation inside the kernels.
//!
//! **Determinism.** Results are bit-identical to the serial engine:
//!
//! * per-pattern terms are computed by the same kernels on the same
//!   column data — shard boundaries do not change any per-column value;
//! * reductions (root log-likelihood, Newton–Raphson derivatives) fold
//!   the per-pattern term buffers *in shard order*, which is the serial
//!   pattern order, using the same left-to-right fold
//!   ([`crate::kernels::evaluate::reduce_site_lnl`]) the serial engine
//!   uses — the identical sequence of floating-point additions;
//! * control flow that depends on reduced values (Newton steps, Brent's
//!   α search, search accept/reject) therefore sees identical numbers
//!   and takes identical decisions.
//!
//! The shard trees are kept in lockstep: every topology or parameter
//! operation is forwarded to all shards, so their traversal plans — and
//! hence each shard's residency access pattern — coincide.
//!
//! **Per-shard I/O pipelines.** Because every shard owns its store
//! outright, each one may independently wrap its region in a plan-driven
//! `ooc_core::PrefetchingStore`: shard `k`'s I/O workers stream shard
//! `k`'s plan window from shard `k`'s region while shard `k`'s kernels
//! compute, with no cross-shard coordination (the regions are disjoint
//! byte ranges of one file, accessed by positioned I/O). The pipeline
//! moves bytes earlier but never changes them, so the determinism
//! argument above is untouched — pipelined shards remain bit-identical
//! to the serial engine. The canonical wiring is an `EngineSpec` with
//! `Residency::File`, `shards > 1` and `io_threads > 0`.

use crate::brlen::{self, NrBranchEngine};
use crate::kernels::{Dims, KernelBackend};
use crate::likelihood_api::LikelihoodEngine;
use crate::modelopt;
use crate::store_api::AncestralStore;
use crate::{PlfEngine, TipCodes};
use ooc_core::{par_each_mut, OocResult, OocStats, Recorder, ShardSpec, StallKind};
use phylo_models::ReversibleModel;
use phylo_seq::CompressedAlignment;
use phylo_tree::spr::{NniUndo, SprUndo};
use phylo_tree::{HalfEdgeId, Tree};

/// `k` shard engines over disjoint, contiguous pattern ranges.
pub struct ShardedPlfEngine<S: AncestralStore + Send> {
    shards: Vec<PlfEngine<S>>,
    spec: ShardSpec,
    /// Observability recorder: per-shard execution and barrier-wait spans.
    obs: Option<Recorder>,
}

impl<S: AncestralStore + Send> ShardedPlfEngine<S> {
    /// Per-shard vector dimensions for `spec` — needed to size the backing
    /// stores (e.g. the per-shard widths of
    /// `ooc_core::FileStore::create_regions`) before construction.
    pub fn shard_dims(comp: &CompressedAlignment, n_cats: usize, spec: &ShardSpec) -> Vec<Dims> {
        let full = PlfEngine::<S>::dims_for(comp, n_cats);
        spec.ranges()
            .iter()
            .map(|r| Dims {
                n_patterns: r.len(),
                ..full
            })
            .collect()
    }

    /// Build a sharded engine. `stores[i]` must be sized for
    /// `tree.n_inner()` vectors of `shard_dims(..)[i].width()` doubles;
    /// `spec` must cover exactly the alignment's patterns.
    pub fn new(
        tree: Tree,
        comp: &CompressedAlignment,
        model: ReversibleModel,
        alpha: f64,
        n_cats: usize,
        spec: ShardSpec,
        stores: Vec<S>,
    ) -> Self {
        assert_eq!(
            spec.n_columns(),
            comp.n_patterns(),
            "shard spec must cover exactly the alignment's patterns"
        );
        assert_eq!(stores.len(), spec.n_shards(), "one backing store per shard");
        let tips = TipCodes::from_alignment_ranges(comp, spec.ranges());
        let dims = Self::shard_dims(comp, n_cats, &spec);
        let shards = spec
            .ranges()
            .iter()
            .zip(dims)
            .zip(tips)
            .zip(stores)
            .map(|(((range, d), tips), store)| {
                PlfEngine::from_parts(
                    tree.clone(),
                    model.clone(),
                    alpha,
                    d,
                    tips,
                    comp.weights[range.clone()].to_vec(),
                    store,
                )
            })
            .collect();
        ShardedPlfEngine {
            shards,
            spec,
            obs: None,
        }
    }

    /// Attach an observability recorder. Every parallel section of two or
    /// more shards then records, per shard, a `("sharded", "shard-exec")`
    /// span (the shard's own wall time, unattributed — the residency layers
    /// below attribute their slices) and a `("sharded", "barrier-wait")`
    /// span (how long the shard sat idle waiting for the slowest sibling —
    /// the §4 load-imbalance signal); a single shard has no barrier and
    /// records neither. The recorder is also forwarded to each
    /// shard engine for its combine-batch spans; shard-level residency
    /// stores attach their own recorders via [`Self::shard_mut`].
    pub fn set_recorder(&mut self, rec: Recorder) {
        for e in &mut self.shards {
            e.set_recorder(rec.clone());
        }
        self.obs = Some(rec);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.obs.as_ref()
    }

    /// The shard specification.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The kernel backend the shard engines dispatch through.
    pub fn kernel(&self) -> KernelBackend {
        self.shards[0].kernel()
    }

    /// Set the kernel backend on every shard. The serial/sharded
    /// bit-equality guarantee holds between engines running the *same*
    /// backend — mixed backends differ in the last ulps (FMA contraction).
    pub fn set_kernel(&mut self, kernel: KernelBackend) {
        for e in &mut self.shards {
            e.set_kernel(kernel);
        }
    }

    /// A shard's engine (its store carries the shard's residency stats).
    pub fn shard(&self, i: usize) -> &PlfEngine<S> {
        &self.shards[i]
    }

    /// Mutable shard access (e.g. to reset per-shard statistics).
    pub fn shard_mut(&mut self, i: usize) -> &mut PlfEngine<S> {
        &mut self.shards[i]
    }

    /// Sum of the shards' residency statistics, or `None` if the backends
    /// keep none.
    pub fn merged_ooc_stats(&self) -> Option<OocStats> {
        self.shards
            .iter()
            .map(|e| e.store().ooc_stats())
            .sum::<Option<OocStats>>()
    }

    /// Run `op` on every shard concurrently, failing with the first
    /// shard's error (in shard order) if any shard fails. With a recorder
    /// attached and a barrier to wait at (two or more shards), each
    /// shard's wall time and its wait for the slowest sibling are recorded
    /// as spans.
    fn par_shards<R: Send>(
        &mut self,
        op: impl Fn(&mut PlfEngine<S>) -> OocResult<R> + Sync,
    ) -> OocResult<Vec<R>> {
        let rec = match &self.obs {
            Some(rec) if self.shards.len() > 1 => rec.clone(),
            _ => {
                return par_each_mut(&mut self.shards, |_, e| op(e))
                    .into_iter()
                    .collect()
            }
        };
        let timed = par_each_mut(&mut self.shards, |_, e| {
            let t0 = rec.now();
            let r = op(e);
            (r, t0, rec.now())
        });
        // The barrier releases when the slowest shard finishes; everything
        // a faster shard spent past its own finish is attributed wait.
        let max_end = timed.iter().map(|&(_, _, t1)| t1).max().unwrap_or(0);
        let mut out = Vec::with_capacity(timed.len());
        for (i, (r, t0, t1)) in timed.into_iter().enumerate() {
            rec.span_at("sharded", "shard-exec", StallKind::Compute, t0)
                .shard(i as u32)
                .unattributed()
                .finish_at(t1);
            rec.span_at("sharded", "barrier-wait", StallKind::BarrierWait, t1)
                .shard(i as u32)
                .finish_at(max_end);
            out.push(r?);
        }
        Ok(out)
    }

    /// The cross-shard ordered reduction: continue one left-to-right fold
    /// across the shards' per-pattern buffers in shard order — exactly the
    /// serial engine's `reduce_site_lnl` over the full-alignment buffer.
    fn fold_shards<'a>(bufs: impl Iterator<Item = &'a [f64]>) -> f64 {
        bufs.flatten().fold(0.0, |acc, &t| acc + t)
    }

    /// The paper's `-f z` worst case: `count` successive full traversals.
    pub fn full_traversals(&mut self, count: usize) -> OocResult<f64> {
        let root = self.tree().default_root_edge();
        let mut lnl = 0.0;
        for _ in 0..count {
            lnl = self.log_likelihood_at(root, true)?;
        }
        Ok(lnl)
    }
}

impl<S: AncestralStore + Send> LikelihoodEngine for ShardedPlfEngine<S> {
    fn tree(&self) -> &Tree {
        self.shards[0].tree()
    }

    fn alpha(&self) -> f64 {
        self.shards[0].alpha()
    }

    fn set_alpha(&mut self, alpha: f64) {
        for e in &mut self.shards {
            e.set_alpha(alpha);
        }
    }

    fn invalidate_all(&mut self) {
        for e in &mut self.shards {
            e.invalidate_all();
        }
    }

    fn log_likelihood(&mut self) -> OocResult<f64> {
        self.log_likelihood_at(self.tree().default_root_edge(), false)
    }

    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        // Each shard plans, executes and evaluates its columns in
        // parallel, leaving per-pattern terms in its `site_lnl` buffer...
        self.par_shards(|e| e.log_likelihood_at(root_he, full).map(|_| ()))?;
        // ...which are reduced serially in shard order (determinism).
        Ok(Self::fold_shards(self.shards.iter().map(|e| e.site_lnl())))
    }

    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        for e in &mut self.shards {
            e.set_branch_length(h, len);
        }
    }

    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        brlen::optimize_branch(self, h, max_iter)
    }

    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        brlen::smooth_branches(self, passes, nr_iter)
    }

    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        modelopt::optimize_alpha(self, tol, max_iter)
    }

    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        // The shard trees are identical, so each shard produces the same
        // undo record; keep the first.
        let mut undo = None;
        for e in &mut self.shards {
            let u = e.apply_spr(prune_dir, target, graft_lens);
            undo.get_or_insert(u);
        }
        undo.expect("sharded engine has at least one shard")
    }

    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        for e in &mut self.shards {
            e.undo_spr(prune_dir, undo);
        }
    }

    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        let mut undo = None;
        for e in &mut self.shards {
            let u = e.apply_nni(h, variant);
            undo.get_or_insert(u);
        }
        undo.expect("sharded engine has at least one shard")
    }

    fn undo_nni(&mut self, undo: &NniUndo) {
        for e in &mut self.shards {
            e.undo_nni(undo);
        }
    }

    fn ooc_stats(&self) -> Option<OocStats> {
        self.merged_ooc_stats()
    }

    fn reset_ooc_stats(&mut self) {
        for i in 0..self.n_shards() {
            self.shard_mut(i).reset_ooc_stats();
        }
    }
}

impl<S: AncestralStore + Send> NrBranchEngine for ShardedPlfEngine<S> {
    /// Build the branch sumtable on every shard in parallel.
    fn nr_prepare(&mut self, h: HalfEdgeId) -> OocResult<()> {
        self.par_shards(|e| e.nr_prepare(h)).map(|_| ())
    }

    /// Per-pattern terms per shard in parallel, into each shard's reusable
    /// NR scratch (no per-iteration allocation); each accumulator is then
    /// folded across shards in shard order, matching the serial
    /// `nr_derivatives` folds bit-for-bit.
    fn nr_derivatives(&mut self, z: f64) -> (f64, f64, f64) {
        let shards = &mut self.shards;
        let triples = par_each_mut(shards, |_, e| {
            let mut l = std::mem::take(&mut e.st.nr_l);
            let mut d1 = std::mem::take(&mut e.st.nr_d1);
            let mut d2 = std::mem::take(&mut e.st.nr_d2);
            e.branch_derivatives_sites(z, &mut l, &mut d1, &mut d2);
            (l, d1, d2)
        });
        let folded = (
            Self::fold_shards(triples.iter().map(|t| t.0.as_slice())),
            Self::fold_shards(triples.iter().map(|t| t.1.as_slice())),
            Self::fold_shards(triples.iter().map(|t| t.2.as_slice())),
        );
        for (e, (l, d1, d2)) in shards.iter_mut().zip(triples) {
            e.st.nr_l = l;
            e.st.nr_d1 = d1;
            e.st.nr_d2 = d2;
        }
        folded
    }
}
