//! Log-likelihood evaluation at the virtual root branch.

use super::Dims;
use crate::scaling::LOG_MINLIKELIHOOD;
use phylo_models::PMatrices;

/// Floor for per-site likelihoods before taking logs, guarding against
/// rounding to zero (RAxML clamps the same way).
const L_FLOOR: f64 = 1e-300;

/// Evaluate at a branch whose two ends both carry ancestral vectors
/// (`p`, `q`), with transition matrices `pm_root` for the branch length,
/// writing each pattern's weighted log-likelihood term into `site_out`
/// (one slot per pattern). `weights` are pattern multiplicities;
/// `scale_*` per-pattern scaling counts. Category weights are uniform
/// `1/n_cats`. The engine folds the terms left to right, block after block.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_inner_inner_sites(
    dims: &Dims,
    pvec: &[f64],
    scale_p: &[u32],
    qvec: &[f64],
    scale_q: &[u32],
    pm_root: &PMatrices,
    freqs: &[f64],
    weights: &[u32],
    site_out: &mut [f64],
) {
    let (ns, nc) = (dims.n_states, dims.n_cats);
    let stride = dims.site_stride();
    let cat_w = 1.0 / nc as f64;
    for i in 0..dims.n_patterns {
        let psite = &pvec[i * stride..(i + 1) * stride];
        let qsite = &qvec[i * stride..(i + 1) * stride];
        let mut site_l = 0.0;
        for c in 0..nc {
            let p = pm_root.cat(c);
            let pc = &psite[c * ns..(c + 1) * ns];
            let qc = &qsite[c * ns..(c + 1) * ns];
            let mut cat_sum = 0.0;
            for x in 0..ns {
                let row = &p[x * ns..(x + 1) * ns];
                let mut dot = 0.0;
                for y in 0..ns {
                    dot += row[y] * qc[y];
                }
                cat_sum += freqs[x] * pc[x] * dot;
            }
            site_l += cat_w * cat_sum;
        }
        let scale = (scale_p[i] + scale_q[i]) as f64;
        site_out[i] = weights[i] as f64 * (site_l.max(L_FLOOR).ln() + scale * LOG_MINLIKELIHOOD);
    }
}

/// Evaluate at a tip branch: the tip side is folded into a root-side lookup
/// table (`root_lut`, see [`crate::TipCodes::build_root_lut`]) so the site
/// likelihood is a plain dot product with the inner vector `qvec`. Writes
/// per-pattern weighted terms into `site_out`.
pub fn evaluate_tip_inner_sites(
    dims: &Dims,
    root_lut: &[f64],
    codes_tip: &[u16],
    qvec: &[f64],
    scale_q: &[u32],
    weights: &[u32],
    site_out: &mut [f64],
) {
    let stride = dims.site_stride();
    let cat_w = 1.0 / dims.n_cats as f64;
    for i in 0..dims.n_patterns {
        let qsite = &qvec[i * stride..(i + 1) * stride];
        let lbase = codes_tip[i] as usize * stride;
        let lut = &root_lut[lbase..lbase + stride];
        let mut site_l = 0.0;
        for e in 0..stride {
            site_l += lut[e] * qsite[e];
        }
        site_l *= cat_w;
        site_out[i] =
            weights[i] as f64 * (site_l.max(L_FLOOR).ln() + scale_q[i] as f64 * LOG_MINLIKELIHOOD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::TipCodes;
    use crate::kernels::testutil::evaluate_inner_inner;
    use phylo_models::{DiscreteGamma, ReversibleModel};
    use phylo_seq::{compress_patterns, Alignment, Alphabet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-pattern terms of [`evaluate_tip_inner_sites`], folded.
    fn evaluate_tip_inner(
        dims: &Dims,
        root_lut: &[f64],
        codes_tip: &[u16],
        qvec: &[f64],
        scale_q: &[u32],
        weights: &[u32],
    ) -> f64 {
        let mut sites = vec![0.0; dims.n_patterns];
        evaluate_tip_inner_sites(
            dims, root_lut, codes_tip, qvec, scale_q, weights, &mut sites,
        );
        sites.iter().fold(0.0, |acc, &t| acc + t)
    }

    fn dims() -> Dims {
        Dims {
            n_patterns: 6,
            n_states: 4,
            n_cats: 4,
        }
    }

    fn pm(t: f64) -> (PMatrices, ReversibleModel) {
        let model = ReversibleModel::hky85(2.5, &[0.28, 0.22, 0.24, 0.26]);
        let gamma = DiscreteGamma::new(0.9, 4);
        let mut pm = PMatrices::new(4, 4);
        pm.update(&model.eigen(), &gamma, t);
        (pm, model)
    }

    #[test]
    fn stationary_vectors_give_zero_information() {
        // If p and q are all-ones (the "gap" conditional likelihood) the
        // site likelihood must be exactly 1 (=> lnL 0) for any branch
        // length, because P rows sum to one and frequencies sum to one.
        let d = dims();
        let (pm, model) = pm(0.37);
        let ones = vec![1.0; d.width()];
        let zeros = vec![0u32; d.n_patterns];
        let w = vec![1u32; d.n_patterns];
        let lnl = evaluate_inner_inner(&d, &ones, &zeros, &ones, &zeros, &pm, model.freqs(), &w);
        assert!(lnl.abs() < 1e-10, "lnl = {lnl}");
    }

    #[test]
    fn scaling_counts_shift_lnl_exactly() {
        let d = dims();
        let (pm, model) = pm(0.2);
        let mut rng = StdRng::seed_from_u64(3);
        let p = super::super::testutil::random_vector(&d, &mut rng);
        let q = super::super::testutil::random_vector(&d, &mut rng);
        let zeros = vec![0u32; d.n_patterns];
        let ones_scale = vec![1u32; d.n_patterns];
        let w = vec![2u32; d.n_patterns];
        let base = evaluate_inner_inner(&d, &p, &zeros, &q, &zeros, &pm, model.freqs(), &w);
        let shifted = evaluate_inner_inner(&d, &p, &ones_scale, &q, &zeros, &pm, model.freqs(), &w);
        let expect = base + (d.n_patterns as f64 * 2.0) * LOG_MINLIKELIHOOD;
        assert!((shifted - expect).abs() < 1e-9);
    }

    #[test]
    fn weights_multiply_site_contributions() {
        let d = Dims {
            n_patterns: 1,
            n_states: 4,
            n_cats: 4,
        };
        let (pm, model) = pm(0.15);
        let mut rng = StdRng::seed_from_u64(7);
        let p = super::super::testutil::random_vector(&d, &mut rng);
        let q = super::super::testutil::random_vector(&d, &mut rng);
        let z = vec![0u32; 1];
        let l1 = evaluate_inner_inner(&d, &p, &z, &q, &z, &pm, model.freqs(), &[1]);
        let l5 = evaluate_inner_inner(&d, &p, &z, &q, &z, &pm, model.freqs(), &[5]);
        assert!((l5 - 5.0 * l1).abs() < 1e-10);
    }

    #[test]
    fn tip_inner_consistent_with_inner_inner() {
        // Treating a tip explicitly (root lut) must equal building the
        // tip's indicator vector and calling the inner/inner evaluator
        // with a zero-length virtual branch... instead compare against a
        // direct naive computation.
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[("a".into(), "ACGTNR".into()), ("b".into(), "ACGTAC".into())],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let codes = TipCodes::from_alignment(&comp);
        let d = Dims {
            n_patterns: comp.n_patterns(),
            n_states: 4,
            n_cats: 4,
        };
        let (pm, model) = pm(0.42);
        let mut rng = StdRng::seed_from_u64(11);
        let q = super::super::testutil::random_vector(&d, &mut rng);
        let scale_q = vec![0u32; d.n_patterns];
        let w: Vec<u32> = comp.weights.clone();
        let mut rlut = Vec::new();
        codes.build_root_lut(&pm, model.freqs(), &mut rlut);
        let got = evaluate_tip_inner(&d, &rlut, codes.tip(0), &q, &scale_q, &w);
        // Naive: l = (1/C) Σ_c Σ_x π_x ind(x) Σ_y P_c(x,y) q[y]
        let mut expect = 0.0;
        for i in 0..d.n_patterns {
            let mask = codes.mask(codes.tip(0)[i]);
            let mut site = 0.0;
            for c in 0..4 {
                for x in 0..4 {
                    if mask >> x & 1 == 0 {
                        continue;
                    }
                    let dot: f64 = (0..4)
                        .map(|y| pm.get(c, x, y) * q[(i * 4 + c) * 4 + y])
                        .sum();
                    site += model.freqs()[x] * dot;
                }
            }
            site *= 0.25;
            expect += w[i] as f64 * site.ln();
        }
        assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }
}
