//! Partitioned likelihood evaluation: several data blocks ("genes"), each
//! with its own alphabet, substitution model and residency backend, joined
//! on one shared tree topology.
//!
//! [`PartitionedPlfEngine`] owns one member engine per partition — a
//! sharded [`crate::ShardedPlfEngine`] when built from a spec, a serial
//! [`crate::PlfEngine`] in hand-built references; any residency backend —
//! and implements [`LikelihoodEngine`] over the *joint* model:
//!
//! * the joint log-likelihood is the sum of the per-partition
//!   log-likelihoods, folded in partition order (a fixed, serial
//!   reduction — deterministic regardless of how members compute);
//! * branch lengths are shared: one Newton–Raphson per branch over the
//!   per-partition `(lnL, d1, d2)` sums, through the one guarded Newton
//!   driver every engine runs (`brlen::optimize_branch`), so every
//!   partition sees the same optimised length;
//! * the Γ shape is shared across partitions (joint Brent over the summed
//!   log-likelihood); per-partition substitution models stay fixed at
//!   construction;
//! * topology operations (SPR, NNI, branch edits) are forwarded to every
//!   member, keeping the partition trees in lockstep — the same
//!   discipline the sharded engine applies to its shard trees.
//!
//! **Correctness invariant.** Partition members never exchange data;
//! each evaluates exactly the likelihood its standalone engine would.
//! [`PartitionedPlfEngine::partition_lnls`] therefore returns values
//! bit-identical to running each partition's engine independently — over
//! any member backend, including pipelined sharded out-of-core members
//! (each partition lowers its own per-partition `ooc_core::AccessPlan`
//! from the shared traversal, sized to its own vector width).

use crate::brlen::{self, NrBranchEngine};
use crate::likelihood_api::LikelihoodEngine;
use crate::modelopt;
use ooc_core::{OocResult, OocStats};
use phylo_tree::spr::{NniUndo, SprUndo};
use phylo_tree::{HalfEdgeId, Tree};

/// One engine per partition, joined on a shared tree (see module docs).
pub struct PartitionedPlfEngine<E> {
    parts: Vec<E>,
    names: Vec<String>,
}

impl<E: LikelihoodEngine + NrBranchEngine> PartitionedPlfEngine<E> {
    /// Assemble from per-partition member engines. All members must have
    /// been built over clones of the same tree (same tips, same topology);
    /// names label partitions in reports.
    pub fn new(parts: Vec<E>, names: Vec<String>) -> Self {
        assert!(!parts.is_empty(), "need at least one partition");
        assert_eq!(parts.len(), names.len(), "one name per partition");
        let t0 = parts[0].tree();
        for p in &parts[1..] {
            assert_eq!(
                (p.tree().n_tips(), p.tree().n_half_edges()),
                (t0.n_tips(), t0.n_half_edges()),
                "partition members must share one tree"
            );
        }
        PartitionedPlfEngine { parts, names }
    }

    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Partition names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// A partition's member engine.
    pub fn part(&self, i: usize) -> &E {
        &self.parts[i]
    }

    /// Mutable member access (statistics resets, recorders).
    pub fn part_mut(&mut self, i: usize) -> &mut E {
        &mut self.parts[i]
    }

    /// Per-partition log-likelihoods at the default root branch, in
    /// partition order — each bit-identical to the member engine run
    /// standalone on its partition's data.
    pub fn partition_lnls(&mut self) -> OocResult<Vec<f64>> {
        self.parts.iter_mut().map(|e| e.log_likelihood()).collect()
    }
}

impl<E: LikelihoodEngine + NrBranchEngine> LikelihoodEngine for PartitionedPlfEngine<E> {
    fn tree(&self) -> &Tree {
        self.parts[0].tree()
    }

    fn alpha(&self) -> f64 {
        self.parts[0].alpha()
    }

    fn set_alpha(&mut self, alpha: f64) {
        for e in &mut self.parts {
            e.set_alpha(alpha);
        }
    }

    fn invalidate_all(&mut self) {
        for e in &mut self.parts {
            e.invalidate_all();
        }
    }

    fn log_likelihood(&mut self) -> OocResult<f64> {
        self.log_likelihood_at(self.tree().default_root_edge(), false)
    }

    fn log_likelihood_at(&mut self, root_he: HalfEdgeId, full: bool) -> OocResult<f64> {
        // Joint lnL: per-partition values summed in partition order (a
        // fixed serial fold — the partitioned analogue of the sharded
        // engine's cross-shard reduction).
        let mut sum = 0.0;
        for e in &mut self.parts {
            sum += e.log_likelihood_at(root_he, full)?;
        }
        Ok(sum)
    }

    fn set_branch_length(&mut self, h: HalfEdgeId, len: f64) {
        for e in &mut self.parts {
            e.set_branch_length(h, len);
        }
    }

    fn optimize_branch(&mut self, h: HalfEdgeId, max_iter: u32) -> OocResult<(f64, f64)> {
        brlen::optimize_branch(self, h, max_iter)
    }

    fn smooth_branches(&mut self, passes: usize, nr_iter: u32) -> OocResult<f64> {
        brlen::smooth_branches(self, passes, nr_iter)
    }

    /// Shared Γ shape: Brent on ln(α) over the joint log-likelihood.
    fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        modelopt::optimize_alpha(self, tol, max_iter)
    }

    fn apply_spr(
        &mut self,
        prune_dir: HalfEdgeId,
        target: HalfEdgeId,
        graft_lens: Option<(f64, f64)>,
    ) -> SprUndo {
        let mut undo = None;
        for e in &mut self.parts {
            let u = e.apply_spr(prune_dir, target, graft_lens);
            undo.get_or_insert(u);
        }
        undo.expect("partitioned engine has at least one partition")
    }

    fn undo_spr(&mut self, prune_dir: HalfEdgeId, undo: &SprUndo) {
        for e in &mut self.parts {
            e.undo_spr(prune_dir, undo);
        }
    }

    fn apply_nni(&mut self, h: HalfEdgeId, variant: u8) -> NniUndo {
        let mut undo = None;
        for e in &mut self.parts {
            let u = e.apply_nni(h, variant);
            undo.get_or_insert(u);
        }
        undo.expect("partitioned engine has at least one partition")
    }

    fn undo_nni(&mut self, undo: &NniUndo) {
        for e in &mut self.parts {
            e.undo_nni(undo);
        }
    }

    fn ooc_stats(&self) -> Option<OocStats> {
        self.parts
            .iter()
            .map(|e| e.ooc_stats())
            .sum::<Option<OocStats>>()
    }

    fn reset_ooc_stats(&mut self) {
        for e in &mut self.parts {
            e.reset_ooc_stats();
        }
    }
}

impl<E: LikelihoodEngine + NrBranchEngine> NrBranchEngine for PartitionedPlfEngine<E> {
    fn nr_prepare(&mut self, h: HalfEdgeId) -> OocResult<()> {
        for e in &mut self.parts {
            e.nr_prepare(h)?;
        }
        Ok(())
    }

    fn nr_derivatives(&mut self, z: f64) -> (f64, f64, f64) {
        // The joint branch objective: member derivatives folded in
        // partition order, so all partitions see the identical proposal
        // sequence and final length.
        let mut sum = (0.0, 0.0, 0.0);
        for e in &mut self.parts {
            let (l, d1, d2) = e.nr_derivatives(z);
            sum = (sum.0 + l, sum.1 + d1, sum.2 + d2);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_api::InRamStore;
    use crate::PlfEngine;
    use phylo_models::{DiscreteGamma, ReversibleModel};
    use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment};
    use phylo_tree::build::{random_topology, yule_like_lengths};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn partition_lnls_match_standalone_engines_bitwise() {
        let (tree, dna, dna_m, prot, prot_m) = mixed_fixture(5);
        let mut solo_dna = member(&tree, &dna, dna_m.clone());
        let mut solo_prot = member(&tree, &prot, prot_m.clone());
        let want = [
            solo_dna.log_likelihood().unwrap(),
            solo_prot.log_likelihood().unwrap(),
        ];

        let mut joint = PartitionedPlfEngine::new(
            vec![member(&tree, &dna, dna_m), member(&tree, &prot, prot_m)],
            vec!["dna".into(), "prot".into()],
        );
        let got = joint.partition_lnls().unwrap();
        assert_eq!(got, want, "per-partition lnls must be bit-identical");
        assert_eq!(joint.log_likelihood().unwrap(), want[0] + want[1]);
    }

    #[test]
    fn joint_branch_optimisation_improves_and_stays_in_lockstep() {
        let (tree, dna, dna_m, prot, prot_m) = mixed_fixture(9);
        let mut joint = PartitionedPlfEngine::new(
            vec![member(&tree, &dna, dna_m), member(&tree, &prot, prot_m)],
            vec!["dna".into(), "prot".into()],
        );
        let before = joint.log_likelihood().unwrap();
        let h = joint.tree().default_root_edge();
        let (z, lnl) = joint.optimize_branch(h, 32).unwrap();
        assert!(
            lnl >= before - 1e-7,
            "joint NR worsened lnl: {before} -> {lnl}"
        );
        // Every member sees the same optimised length.
        for i in 0..joint.n_partitions() {
            assert_eq!(joint.part(i).tree().branch_length(h), z);
        }
        // And the NR lnl matches a fresh joint evaluation at that branch.
        let check = joint.log_likelihood_at(h, false).unwrap();
        assert!((check - lnl).abs() < 1e-6 * lnl.abs(), "{check} vs {lnl}");
    }

    #[test]
    fn joint_smoothing_and_alpha_improve_the_joint_likelihood() {
        let (tree, dna, dna_m, prot, prot_m) = mixed_fixture(13);
        let mut joint = PartitionedPlfEngine::new(
            vec![member(&tree, &dna, dna_m), member(&tree, &prot, prot_m)],
            vec!["dna".into(), "prot".into()],
        );
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
    fn topology_ops_forward_to_every_partition() {
        let (tree, dna, dna_m, prot, prot_m) = mixed_fixture(17);
        let mut joint = PartitionedPlfEngine::new(
            vec![member(&tree, &dna, dna_m), member(&tree, &prot, prot_m)],
            vec!["dna".into(), "prot".into()],
        );
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
        let moved = joint.log_likelihood().unwrap();
        joint.undo_nni(&undo);
        let after = joint.log_likelihood().unwrap();
        assert!(
            (before - after).abs() < 1e-8 * before.abs(),
            "{before} vs {after}"
        );
        let _ = moved;
    }
}
