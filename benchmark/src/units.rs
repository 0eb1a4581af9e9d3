//! The unit of work of each workload, defined at the public
//! `LikelihoodEngine` boundary so that any engine — in-RAM, out-of-core,
//! wrapped for tracing, or a future alternative traversal — is measured by
//! the same instrument.

use crate::spec::{Workload, NR_ITER, SPR_EPSILON, SPR_RADIUS};
use ooc_core::OocResult;
use phylo_plf::LikelihoodEngine;
use phylo_search::spr_candidates;
use phylo_tree::HalfEdgeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// State of the probe sequence of `search-ooc`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Every `(inner node, direction)` pair, shuffled by the run's seed;
    /// unit `j` probes entry `j` (wrapping).
    order: Vec<(u32, u32)>,
    next: usize,
    /// Log-likelihood of the current tree, as `lazy_spr_round` tracks it.
    lnl: f64,
    /// Candidate insertions scored so far.
    pub evaluated: u64,
    /// Moves kept so far.
    pub applied: u64,
}

/// Runs units of one workload on any engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Units {
    /// `invalidate_all` + `log_likelihood`: one full traversal.
    Traversal,
    /// One SPR probe; see [`Units::run`].
    Search(SearchState),
}

impl Units {
    /// Prepare the unit sequence. For `search-ooc` this evaluates the
    /// starting log-likelihood (the engine has normally just been through
    /// its cold traversal, so nothing is recomputed).
    pub fn new<E: LikelihoodEngine>(
        workload: Workload,
        engine: &mut E,
        seed: u64,
    ) -> OocResult<Units> {
        if !workload.is_search() {
            return Ok(Units::Traversal);
        }
        let lnl = engine.log_likelihood()?;
        let n_inner = engine.tree().n_inner() as u32;
        let mut order: Vec<(u32, u32)> = (0..n_inner)
            .flat_map(|i| (0..3u32).map(move |k| (i, k)))
            .collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        Ok(Units::Search(SearchState {
            order,
            next: 0,
            lnl,
            evaluated: 0,
            applied: 0,
        }))
    }

    /// `(evaluated, applied)` so far; zero for traversal workloads.
    pub fn search_counts(&self) -> (u64, u64) {
        match self {
            Units::Traversal => (0, 0),
            Units::Search(s) => (s.evaluated, s.applied),
        }
    }

    /// Zero the search counters (end of warm-up).
    pub fn reset_counts(&mut self) {
        if let Units::Search(s) = self {
            s.evaluated = 0;
            s.applied = 0;
        }
    }

    /// Run one unit and return the log-likelihood it ends on.
    ///
    /// A search unit is the body of `phylo_search::lazy_spr_round`'s loop
    /// for one pruning direction: score every regraft target within
    /// [`SPR_RADIUS`] by a partial traversal at the graft branch, keep the
    /// best one if it beats the current lnL by [`SPR_EPSILON`], and then
    /// Newton–Raphson the three branches around the pruned node.
    pub fn run<E: LikelihoodEngine>(&mut self, engine: &mut E) -> OocResult<f64> {
        let s = match self {
            Units::Traversal => {
                engine.invalidate_all();
                return engine.log_likelihood();
            }
            Units::Search(s) => s,
        };
        let (i, k) = s.order[s.next % s.order.len()];
        s.next += 1;
        let dir = engine.tree().inner_half_edge(i, k);
        let mut best: Option<(HalfEdgeId, f64)> = None;
        for target in spr_candidates(engine.tree(), dir, SPR_RADIUS) {
            let undo = engine.apply_spr(dir, target, None);
            let graft = engine.tree().next(dir);
            let l = engine.log_likelihood_at(graft, false)?;
            s.evaluated += 1;
            engine.undo_spr(dir, &undo);
            if best.is_none_or(|(_, bl)| l > bl) {
                best = Some((target, l));
            }
        }
        if let Some((target, best_l)) = best {
            if best_l > s.lnl + SPR_EPSILON {
                engine.apply_spr(dir, target, None);
                let a = engine.tree().next(dir);
                let b = engine.tree().next(a);
                let mut new_lnl = best_l;
                for h in [a, b, dir] {
                    new_lnl = engine.optimize_branch(h, NR_ITER)?.1;
                }
                if new_lnl > s.lnl {
                    s.applied += 1;
                }
                s.lnl = new_lnl.max(s.lnl);
            }
        }
        Ok(s.lnl)
    }
}
