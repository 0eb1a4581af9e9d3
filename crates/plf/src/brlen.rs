//! Branch-length optimisation (Newton–Raphson over eigenbasis sumtables).
//!
//! The paper singles this phase out as a major source of access locality:
//! "Branch length optimization is typically implemented via a
//! Newton-Raphson procedure, that iterates over a single branch of the
//! tree. Thus, only memory accesses to the same two vectors (located at
//! either end of the branch) are required in this phase which accounts for
//! approximately 20-30% of overall execution time."

use crate::engine::{fold_blocks, inline_pins, Block, PartCx};
use crate::kernels::derivatives::{build_sumtable, SumSide};
use crate::store_api::{AncestralStore, VectorSession};
use crate::PlfEngine;
use ooc_core::OocResult;
use phylo_tree::{ChildRef, HalfEdgeId, TraversalPlan, Tree};

/// Minimum branch length (matches RAxML's `zmin`-equivalent scale).
pub const BL_MIN: f64 = 1e-6;
/// Maximum branch length.
pub const BL_MAX: f64 = 20.0;
/// Convergence tolerance on the derivative of the log-likelihood.
pub const BL_TOL: f64 = 1e-8;

/// The guarded Newton–Raphson iteration over a prepared branch, given how
/// `(lnL, d1, d2)` are computed. Returns `(z, best_lnl)`.
fn newton_optimize(
    z0: f64,
    max_iter: u32,
    mut derivs: impl FnMut(f64) -> (f64, f64, f64),
) -> (f64, f64) {
    let mut z = z0.clamp(BL_MIN, BL_MAX);
    let mut best_lnl = f64::NEG_INFINITY;
    for _ in 0..max_iter {
        let (lnl, d1, d2) = derivs(z);
        best_lnl = lnl;
        if d1.abs() < BL_TOL {
            break;
        }
        let step = if d2 < 0.0 {
            d1 / d2
        } else {
            d1.signum() * -0.1 * z
        };
        let mut next = z - step;
        if !next.is_finite() {
            break;
        }
        next = next.clamp(BL_MIN, BL_MAX);
        // Backtrack if the proposal does not improve.
        let (lnl_next, _, _) = derivs(next);
        if lnl_next + 1e-12 < lnl {
            next = 0.5 * (z + next);
        }
        if (next - z).abs() < 1e-12 {
            z = next;
            break;
        }
        z = next;
    }
    let (lnl, _, _) = derivs(z);
    best_lnl = best_lnl.max(lnl);
    (z, best_lnl)
}

/// The branch visit order of one smoothing pass: a DFS over directed
/// half-edges from the default root, so consecutive optimised branches
/// share a node (the access pattern the out-of-core layer likes).
fn smoothing_order(tree: &Tree) -> Vec<HalfEdgeId> {
    let root = tree.default_root_edge();
    let mut order: Vec<HalfEdgeId> = Vec::with_capacity(tree.n_branches());
    let mut stack = vec![root, tree.back(root)];
    let mut seen = vec![false; tree.n_half_edges()];
    seen[root as usize] = true;
    seen[tree.back(root) as usize] = true;
    order.push(root);
    while let Some(h) = stack.pop() {
        let node = tree.node_of(h);
        if tree.is_tip(node) {
            continue;
        }
        let (l, r) = tree.children_dirs(h);
        for c in [l, r] {
            let cb = tree.back(c);
            if !seen[c as usize] && !seen[cb as usize] {
                seen[c as usize] = true;
                seen[cb as usize] = true;
                order.push(c);
            }
            stack.push(cb);
        }
    }
    debug_assert_eq!(order.len(), tree.n_branches());
    order
}

impl<S: AncestralStore> Block<S> {
    /// Build the sumtable for the plan's root branch and the combined
    /// per-pattern scale counts into the block's scratch (the vectors at
    /// both ends must be up to date).
    fn build_sumtable(&mut self, cx: &PartCx<'_>, plan: &TraversalPlan) -> OocResult<()> {
        let st = &mut self.st;
        let (left, right) = (plan.root_left, plan.root_right);
        let (pins, n_pins) = inline_pins(plan.root_pins());
        // One session serves the rebuilds and the sumtable.
        let sess = self.store.session(&pins[..n_pins])?;
        // Rebuilt ends first: rebuilding them writes their scaling counts
        // and borrows the LUT scratch the tip sides below reuse.
        st.rebuild(cx, &sess, left, 0);
        st.rebuild(cx, &sess, right, 1);
        let eigen = &cx.model.eigen;
        let gamma = &cx.model.gamma;
        let freqs = cx.model.model.freqs();

        // Combined scale counts per pattern.
        st.scale_sums.fill(0);
        for i in [left, right].into_iter().filter_map(ChildRef::inner) {
            for (o, s) in st.scale_sums.iter_mut().zip(&st.scale[i as usize]) {
                *o += s;
            }
        }
        if let ChildRef::Tip(_) = left {
            st.tips.build_eigen_lut(eigen, gamma, freqs, &mut st.lut_l);
        }
        if let ChildRef::Tip(_) = right {
            st.tips.build_eigen_lut_right(eigen, gamma, &mut st.lut_r);
        }
        let side = |end: ChildRef, lut| match end {
            ChildRef::Tip(t) => SumSide::Tip {
                lut,
                codes: st.tips.tip(t as usize),
            },
            ChildRef::Inner(i) => SumSide::Inner(sess.read(i)),
            ChildRef::Rebuilt { .. } => SumSide::Inner(&st.rebuilt[usize::from(end == right)]),
        };
        build_sumtable(
            &st.dims,
            side(left, &st.lut_l),
            side(right, &st.lut_r),
            eigen,
            freqs,
            &mut st.sumtable,
        );
        sess.finish()
    }
}

impl<S: AncestralStore> PlfEngine<S> {
    /// Prepare the branch of `h` for [`PlfEngine::nr_derivatives`]: one
    /// plan makes the vectors at both ends valid towards it, then every
    /// block builds its sumtable.
    pub fn nr_prepare(&mut self, h: HalfEdgeId) -> OocResult<()> {
        let plan = self.plan(h, false);
        self.run_plan(&plan, |block, cx| block.build_sumtable(cx, &plan))
    }

    /// `(lnL, d1, d2)` of the prepared branch at length `z`: per-pattern
    /// terms into each block's reusable buffers (a Newton iteration
    /// allocates nothing per pattern), each accumulator folded over a
    /// partition's blocks in block order, the partitions' sums added in
    /// partition order — so every partition sees the identical proposal
    /// sequence and final length.
    pub fn nr_derivatives(&mut self, z: f64) -> (f64, f64, f64) {
        let mut sum = (0.0, 0.0, 0.0);
        for p in 0..self.parts.len() {
            let (blocks, cx, run) = self.split(p);
            run(blocks, &|block| {
                let st = &mut block.st;
                cx.kernel.nr_derivatives_sites(
                    &st.dims,
                    &st.sumtable,
                    &st.weights,
                    &st.scale_sums,
                    cx.model.eigen.values(),
                    cx.model.gamma.rates(),
                    z,
                    &mut st.nr_l,
                    &mut st.nr_d1,
                    &mut st.nr_d2,
                );
                (Ok(()), 0, 0)
            });
            sum.0 += fold_blocks(blocks, |st| &st.nr_l);
            sum.1 += fold_blocks(blocks, |st| &st.nr_d1);
            sum.2 += fold_blocks(blocks, |st| &st.nr_d2);
        }
        sum
    }

    /// Optimise the length of the branch of `h` by guarded Newton–Raphson.
    /// Returns `(new_length, log_likelihood_at_new_length)`.
    pub fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        self.nr_prepare(h)?;
        let z0 = self.tree().branch_length(h);
        let (z, best_lnl) = newton_optimize(z0, max_iter, |z| self.nr_derivatives(z));
        self.set_branch_length(h, z); // engine method: staleness tracked
        Ok((z, best_lnl))
    }

    /// One smoothing pass over every branch in depth-first order (adjacent
    /// branches in sequence — the access pattern the out-of-core layer
    /// likes), repeated `passes` times. Returns the final log-likelihood.
    pub fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        let mut lnl = f64::NEG_INFINITY;
        for _ in 0..passes {
            for h in smoothing_order(self.tree()) {
                lnl = self.optimize_branch(h, nr_iter)?.1;
            }
        }
        Ok(lnl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::build_engine;

    #[test]
    fn optimizing_a_branch_never_decreases_likelihood() {
        let mut engine = build_engine(12, 120, 51);
        let before = engine.log_likelihood().unwrap();
        let h = engine.tree().default_root_edge();
        let (z, lnl) = engine.optimize_branch(h, 32).unwrap();
        assert!((BL_MIN..=BL_MAX).contains(&z));
        assert!(
            lnl >= before - 1e-7,
            "optimisation worsened lnl: {before} -> {lnl}"
        );
        // Engine's own evaluation at the branch agrees with the NR value.
        let check = engine.log_likelihood_at(h, false).unwrap();
        assert!((check - lnl).abs() < 1e-6 * lnl.abs(), "{check} vs {lnl}");
    }

    #[test]
    fn optimum_is_a_stationary_point() {
        let mut engine = build_engine(10, 90, 52);
        let h = engine.tree().tip_half_edge(3);
        let (z, _) = engine.optimize_branch(h, 64).unwrap();
        // Evaluate lnl at z ± eps via the engine: both must be <= lnl(z).
        let lnl = engine.log_likelihood_at(h, false).unwrap();
        for delta in [-1e-3, 1e-3] {
            let zz = (z + delta).clamp(BL_MIN, BL_MAX);
            engine.set_branch_length(h, zz);
            let l = engine.log_likelihood_at(h, false).unwrap();
            assert!(l <= lnl + 1e-6, "lnl({zz}) = {l} > lnl({z}) = {lnl}");
            engine.set_branch_length(h, z);
        }
    }

    #[test]
    fn smoothing_improves_and_converges() {
        let mut engine = build_engine(14, 80, 53);
        let before = engine.log_likelihood().unwrap();
        let l1 = engine.smooth_branches(1, 16).unwrap();
        let l2 = engine.smooth_branches(1, 16).unwrap();
        assert!(l1 >= before - 1e-7, "{before} -> {l1}");
        assert!(l2 >= l1 - 1e-7, "{l1} -> {l2}");
        // A third pass changes little.
        let l3 = engine.smooth_branches(1, 16).unwrap();
        assert!((l3 - l2).abs() < 1e-3 * l2.abs());
        // Consistency: partial vs full recompute after all the smoothing.
        let partial = engine.log_likelihood().unwrap();
        engine.invalidate_all();
        let full = engine.log_likelihood().unwrap();
        assert!((partial - full).abs() < 1e-8 * full.abs());
    }

    #[test]
    fn tip_and_internal_branches_both_work() {
        let mut engine = build_engine(9, 60, 54);
        let tips_branch = engine.tree().tip_half_edge(0);
        let internal = engine
            .tree()
            .branches()
            .find(|&h| {
                !engine.tree().is_tip(engine.tree().node_of(h))
                    && !engine.tree().is_tip(engine.tree().neighbor(h))
            })
            .expect("no internal branch");
        for h in [tips_branch, internal] {
            let (z, lnl) = engine.optimize_branch(h, 32).unwrap();
            assert!(z.is_finite() && lnl.is_finite());
        }
    }
}
