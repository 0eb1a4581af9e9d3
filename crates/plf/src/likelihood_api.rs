//! The engine surface the tree searches drive.
//!
//! [`LikelihoodEngine`] is what hill climbing, SPR/NNI rounds and MCMC are
//! written against. It has two implementations: [`crate::PlfEngine`] —
//! whatever its arities and residency, bit-identical for the same inputs
//! (`crate::engine`) — and the boxed engine an [`crate::EngineSpec`]
//! resolves to, so a search produces the same tree however many blocks or
//! partitions computed it, and wrappers (`benchmark/`'s timed engine) can
//! stand in for either.

use ooc_core::{OocResult, OocStats};
use phylo_tree::spr::{NniUndo, SprUndo};
use phylo_tree::{HalfEdgeId, Tree};

/// Everything a likelihood-based tree search needs from an engine.
pub trait LikelihoodEngine {
    /// The current tree (read-only; mutate through the engine's ops).
    fn tree(&self) -> &Tree;

    /// Current Γ shape parameter.
    fn alpha(&self) -> f64;

    /// Replace the Γ shape; all ancestral vectors become stale.
    fn set_alpha(&mut self, alpha: f64);

    /// Invalidate all cached ancestral vectors.
    fn invalidate_all(&mut self);

    /// Log-likelihood at the default root branch, reusing valid vectors.
    fn log_likelihood(&mut self) -> OocResult<f64>;

    /// Log-likelihood evaluated at the branch of `root_he` (`full` forces
    /// recomputation of every ancestral vector).
    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64>;

    /// Set a branch length with staleness tracking.
    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64);

    /// Newton–Raphson on one branch; returns `(new_length, lnl)`.
    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)>;

    /// Branch smoothing passes; returns the final log-likelihood.
    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64>;

    /// Optimise the Γ shape; returns `(alpha, lnl)`.
    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)>;

    /// Apply an SPR move with staleness tracking.
    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo;

    /// Revert an SPR move.
    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo);

    /// Apply an NNI move with staleness tracking.
    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo;

    /// Revert an NNI move.
    fn undo_nni(&mut self, undo: &NniUndo);

    /// Residency statistics aggregated over the engine's backend(s), if it
    /// keeps any.
    fn ooc_stats(&self) -> Option<OocStats>;

    /// Zero the residency counters across the engine's backend(s) (e.g.
    /// after a warm-up traversal); a no-op when none are kept.
    fn reset_ooc_stats(&mut self) {}
}

impl<S: crate::AncestralStore> LikelihoodEngine for crate::PlfEngine<S> {
    fn tree(&self) -> &Tree {
        crate::PlfEngine::tree(self)
    }

    fn alpha(&self) -> f64 {
        crate::PlfEngine::alpha(self)
    }

    fn set_alpha(&mut self, alpha: f64) {
        crate::PlfEngine::set_alpha(self, alpha)
    }

    fn invalidate_all(&mut self) {
        crate::PlfEngine::invalidate_all(self)
    }

    fn log_likelihood(&mut self) -> OocResult<f64> {
        crate::PlfEngine::log_likelihood(self)
    }

    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        crate::PlfEngine::log_likelihood_at(self, root_he, full)
    }

    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        crate::PlfEngine::set_branch_length(self, h, len)
    }

    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        crate::PlfEngine::optimize_branch(self, h, max_iter)
    }

    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        crate::PlfEngine::smooth_branches(self, passes, nr_iter)
    }

    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        crate::PlfEngine::optimize_alpha(self, tol, max_iter)
    }

    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        crate::PlfEngine::apply_spr(self, prune_dir, target, graft_lens)
    }

    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        crate::PlfEngine::undo_spr(self, prune_dir, undo)
    }

    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        crate::PlfEngine::apply_nni(self, h, variant)
    }

    fn undo_nni(&mut self, undo: &NniUndo) {
        crate::PlfEngine::undo_nni(self, undo)
    }

    fn ooc_stats(&self) -> Option<OocStats> {
        self.stores().map(|s| s.ooc_stats()).sum()
    }

    fn reset_ooc_stats(&mut self) {
        for block in self.parts.iter_mut().flat_map(|p| &mut p.blocks) {
            block.store.reset_ooc_stats();
        }
    }
}
