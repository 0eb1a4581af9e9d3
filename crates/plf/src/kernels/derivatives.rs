//! Branch-length derivatives via eigenbasis sumtables.
//!
//! For a branch of length `z` between subtree likelihood vectors `L` and
//! `R`, the per-site likelihood is
//!
//! ```text
//! l(z) = (1/C) Σ_c Σ_x π_x L[c,x] Σ_y P_c(x,y;z) R[c,y]
//!      = (1/C) Σ_c Σ_k exp(λ_k r_c z) · sum[c,k]
//! with   sum[c,k] = (Σ_x π_x L[c,x] V[x,k]) · (Σ_y V⁻¹[k,y] R[c,y]),
//! ```
//!
//! so after building `sum` once, `l`, `dl/dz` and `d²l/dz²` cost only a few
//! exponentials per Newton iteration — the structure of RAxML's
//! `makenewz`. The paper highlights this phase (§4.2): Newton iterations
//! touch only the two vectors at the ends of one branch, accounting for
//! 20–30 % of runtime and a large share of the access locality the
//! out-of-core layer exploits.

use super::Dims;
use crate::scaling::LOG_MINLIKELIHOOD;
use phylo_models::EigenDecomp;

/// One side of a branch for sumtable construction: an ancestral vector or a
/// tip with a pre-projected lookup table (layout `[code][cat][k]`).
pub enum SumSide<'a> {
    /// Inner node: raw ancestral vector `[pattern][cat][state]`.
    Inner(&'a [f64]),
    /// Tip: eigen-projected lookup table and per-pattern code ids.
    Tip {
        /// Pre-projected table (π·V for the left side, V⁻¹ for the right).
        lut: &'a [f64],
        /// Code id per pattern.
        codes: &'a [u16],
    },
}

/// Build the sumtable (layout `[pattern][cat][k]`) for a branch. `left`
/// carries the π·V projection, `right` the V⁻¹ projection.
pub fn build_sumtable(
    dims: &Dims,
    left: SumSide<'_>,
    right: SumSide<'_>,
    eigen: &EigenDecomp,
    freqs: &[f64],
    out: &mut Vec<f64>,
) {
    let (ns, nc) = (dims.n_states, dims.n_cats);
    let stride = dims.site_stride();
    out.clear();
    out.resize(dims.width(), 0.0);
    let v = eigen.v();
    let v_inv = eigen.v_inv();

    let mut tl = vec![0.0; stride];
    let mut tr = vec![0.0; stride];
    for i in 0..dims.n_patterns {
        // Left projection: tl[c,k] = Σ_x π_x L[c,x] V[x,k].
        match &left {
            SumSide::Inner(vec) => {
                let site = &vec[i * stride..(i + 1) * stride];
                for c in 0..nc {
                    for k in 0..ns {
                        let mut sum = 0.0;
                        for x in 0..ns {
                            sum += freqs[x] * site[c * ns + x] * v[x * ns + k];
                        }
                        tl[c * ns + k] = sum;
                    }
                }
            }
            SumSide::Tip { lut, codes } => {
                let base = codes[i] as usize * stride;
                tl.copy_from_slice(&lut[base..base + stride]);
            }
        }
        // Right projection: tr[c,k] = Σ_y V⁻¹[k,y] R[c,y].
        match &right {
            SumSide::Inner(vec) => {
                let site = &vec[i * stride..(i + 1) * stride];
                for c in 0..nc {
                    for k in 0..ns {
                        let mut sum = 0.0;
                        for y in 0..ns {
                            sum += v_inv[k * ns + y] * site[c * ns + y];
                        }
                        tr[c * ns + k] = sum;
                    }
                }
            }
            SumSide::Tip { lut, codes } => {
                let base = codes[i] as usize * stride;
                tr.copy_from_slice(&lut[base..base + stride]);
            }
        }
        let site_out = &mut out[i * stride..(i + 1) * stride];
        for e in 0..stride {
            site_out[e] = tl[e] * tr[e];
        }
    }
}

/// Write pattern `i`'s weighted contributions to `lnL`, `d lnL/dz` and
/// `d² lnL/dz²` at branch length `z` into `out_l[i]`, `out_d1[i]`,
/// `out_d2[i]`, from a sumtable. `scale_sums[i]` is the combined scaling
/// count of both sides for pattern `i` (constant in `z`, so it shifts
/// `lnL` but not the derivatives). The three totals are independent
/// left-to-right sums over patterns, so folding these buffers in pattern
/// order (and, for a sharded run, in shard order) gives the same bits
/// however the patterns are split.
#[allow(clippy::too_many_arguments)]
pub fn nr_derivatives_sites(
    dims: &Dims,
    sumtable: &[f64],
    weights: &[u32],
    scale_sums: &[u32],
    eigenvalues: &[f64],
    rates: &[f64],
    z: f64,
    out_l: &mut [f64],
    out_d1: &mut [f64],
    out_d2: &mut [f64],
) {
    let (ns, nc) = (dims.n_states, dims.n_cats);
    let stride = dims.site_stride();
    let cat_w = 1.0 / nc as f64;

    // Per (cat, k): e = exp(λ_k r_c z), plus λ r and (λ r)² factors.
    let mut e0 = vec![0.0; stride];
    let mut e1 = vec![0.0; stride];
    let mut e2 = vec![0.0; stride];
    for c in 0..nc {
        for k in 0..ns {
            let lr = eigenvalues[k] * rates[c];
            let ex = (lr * z).exp();
            e0[c * ns + k] = ex;
            e1[c * ns + k] = lr * ex;
            e2[c * ns + k] = lr * lr * ex;
        }
    }

    let floor = 1e-300;
    for i in 0..dims.n_patterns {
        let site = &sumtable[i * stride..(i + 1) * stride];
        let (mut l, mut lp, mut lpp) = (0.0, 0.0, 0.0);
        for e in 0..stride {
            l += site[e] * e0[e];
            lp += site[e] * e1[e];
            lpp += site[e] * e2[e];
        }
        l *= cat_w;
        lp *= cat_w;
        lpp *= cat_w;
        let l_safe = l.max(floor);
        let w = weights[i] as f64;
        out_l[i] = w * (l_safe.ln() + scale_sums[i] as f64 * LOG_MINLIKELIHOOD);
        out_d1[i] = w * (lp / l_safe);
        out_d2[i] = w * ((lpp * l_safe - lp * lp) / (l_safe * l_safe));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::evaluate_inner_inner;
    use phylo_models::{DiscreteGamma, PMatrices, ReversibleModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-pattern terms of [`nr_derivatives_sites`], folded.
    fn nr_derivatives(
        dims: &Dims,
        sumtable: &[f64],
        weights: &[u32],
        scale_sums: &[u32],
        eigenvalues: &[f64],
        rates: &[f64],
        z: f64,
    ) -> (f64, f64, f64) {
        let n = dims.n_patterns;
        let mut out_l = vec![0.0; n];
        let mut out_d1 = vec![0.0; n];
        let mut out_d2 = vec![0.0; n];
        nr_derivatives_sites(
            dims,
            sumtable,
            weights,
            scale_sums,
            eigenvalues,
            rates,
            z,
            &mut out_l,
            &mut out_d1,
            &mut out_d2,
        );
        let fold = |b: &[f64]| b.iter().fold(0.0, |acc, &t| acc + t);
        (fold(&out_l), fold(&out_d1), fold(&out_d2))
    }

    fn setup() -> (Dims, ReversibleModel, DiscreteGamma) {
        (
            Dims {
                n_patterns: 9,
                n_states: 4,
                n_cats: 4,
            },
            ReversibleModel::gtr(&[1.3, 2.8, 0.7, 1.1, 3.5, 1.0], &[0.31, 0.19, 0.23, 0.27]),
            DiscreteGamma::new(0.6, 4),
        )
    }

    #[test]
    fn sumtable_lnl_matches_direct_evaluation() {
        let (dims, model, gamma) = setup();
        let eigen = model.eigen();
        let mut rng = StdRng::seed_from_u64(21);
        let p = super::super::testutil::random_vector(&dims, &mut rng);
        let q = super::super::testutil::random_vector(&dims, &mut rng);
        let scale_p = vec![1u32; dims.n_patterns];
        let scale_q = vec![2u32; dims.n_patterns];
        let weights = vec![3u32; dims.n_patterns];
        let z = 0.23;

        let mut pm = PMatrices::new(4, 4);
        pm.update(&eigen, &gamma, z);
        let direct = evaluate_inner_inner(
            &dims,
            &p,
            &scale_p,
            &q,
            &scale_q,
            &pm,
            model.freqs(),
            &weights,
        );

        let mut sumtable = Vec::new();
        build_sumtable(
            &dims,
            SumSide::Inner(&p),
            SumSide::Inner(&q),
            &eigen,
            model.freqs(),
            &mut sumtable,
        );
        let scale_sums: Vec<u32> = scale_p
            .iter()
            .zip(scale_q.iter())
            .map(|(a, b)| a + b)
            .collect();
        let (lnl, _, _) = nr_derivatives(
            &dims,
            &sumtable,
            &weights,
            &scale_sums,
            eigen.values(),
            gamma.rates(),
            z,
        );
        assert!((lnl - direct).abs() < 1e-8, "{lnl} vs {direct}");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let (dims, model, gamma) = setup();
        let eigen = model.eigen();
        let mut rng = StdRng::seed_from_u64(22);
        let p = super::super::testutil::random_vector(&dims, &mut rng);
        let q = super::super::testutil::random_vector(&dims, &mut rng);
        let weights = vec![1u32; dims.n_patterns];
        let scale_sums = vec![0u32; dims.n_patterns];
        let mut sumtable = Vec::new();
        build_sumtable(
            &dims,
            SumSide::Inner(&p),
            SumSide::Inner(&q),
            &eigen,
            model.freqs(),
            &mut sumtable,
        );
        let eval = |z: f64| {
            nr_derivatives(
                &dims,
                &sumtable,
                &weights,
                &scale_sums,
                eigen.values(),
                gamma.rates(),
                z,
            )
        };
        let z = 0.4;
        let h = 1e-6;
        let (_, d1, d2) = eval(z);
        let (lp, _, _) = eval(z + h);
        let (lm, _, _) = eval(z - h);
        let (l0, _, _) = eval(z);
        let fd1 = (lp - lm) / (2.0 * h);
        let fd2 = (lp - 2.0 * l0 + lm) / (h * h);
        assert!((d1 - fd1).abs() < 1e-4, "{d1} vs {fd1}");
        assert!((d2 - fd2).abs() < 1e-2, "{d2} vs {fd2}");
    }

    #[test]
    fn tip_sides_match_explicit_indicator_vectors() {
        use crate::encode::TipCodes;
        use phylo_seq::{compress_patterns, Alignment, Alphabet};
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[("a".into(), "ACGTNA".into()), ("b".into(), "CCGTAA".into())],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let codes = TipCodes::from_alignment(&comp);
        let dims = Dims {
            n_patterns: comp.n_patterns(),
            n_states: 4,
            n_cats: 4,
        };
        let (_, model, gamma) = setup();
        let eigen = model.eigen();
        let mut rng = StdRng::seed_from_u64(23);
        let q = super::super::testutil::random_vector(&dims, &mut rng);

        // Tip side via eigen lut.
        let mut lut = Vec::new();
        codes.build_eigen_lut(&eigen, &gamma, model.freqs(), &mut lut);
        let mut st_tip = Vec::new();
        build_sumtable(
            &dims,
            SumSide::Tip {
                lut: &lut,
                codes: codes.tip(0),
            },
            SumSide::Inner(&q),
            &eigen,
            model.freqs(),
            &mut st_tip,
        );

        // Same tip expanded to an explicit 0/1 conditional vector.
        let mut tipvec = vec![0.0; dims.width()];
        for i in 0..dims.n_patterns {
            let mask = codes.mask(codes.tip(0)[i]);
            for c in 0..4 {
                for x in 0..4 {
                    if mask >> x & 1 == 1 {
                        tipvec[(i * 4 + c) * 4 + x] = 1.0;
                    }
                }
            }
        }
        let mut st_explicit = Vec::new();
        build_sumtable(
            &dims,
            SumSide::Inner(&tipvec),
            SumSide::Inner(&q),
            &eigen,
            model.freqs(),
            &mut st_explicit,
        );
        for (a, b) in st_tip.iter().zip(st_explicit.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn right_tip_lut_matches_explicit() {
        use crate::encode::TipCodes;
        use phylo_seq::{compress_patterns, Alignment, Alphabet};
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[("a".into(), "AC".into()), ("b".into(), "GT".into())],
        )
        .unwrap();
        let comp = compress_patterns(&aln);
        let codes = TipCodes::from_alignment(&comp);
        let dims = Dims {
            n_patterns: comp.n_patterns(),
            n_states: 4,
            n_cats: 2,
        };
        let model = ReversibleModel::jc69();
        let gamma = DiscreteGamma::new(1.0, 2);
        let eigen = model.eigen();
        let mut rng = StdRng::seed_from_u64(29);
        let p = super::super::testutil::random_vector(&dims, &mut rng);

        let mut rlut = Vec::new();
        codes.build_eigen_lut_right(&eigen, &gamma, &mut rlut);
        let mut st_tip = Vec::new();
        build_sumtable(
            &dims,
            SumSide::Inner(&p),
            SumSide::Tip {
                lut: &rlut,
                codes: codes.tip(1),
            },
            &eigen,
            model.freqs(),
            &mut st_tip,
        );

        let mut tipvec = vec![0.0; dims.width()];
        for i in 0..dims.n_patterns {
            let mask = codes.mask(codes.tip(1)[i]);
            for c in 0..2 {
                for y in 0..4 {
                    if mask >> y & 1 == 1 {
                        tipvec[(i * 2 + c) * 4 + y] = 1.0;
                    }
                }
            }
        }
        let mut st_explicit = Vec::new();
        build_sumtable(
            &dims,
            SumSide::Inner(&p),
            SumSide::Inner(&tipvec),
            &eigen,
            model.freqs(),
            &mut st_explicit,
        );
        for (a, b) in st_tip.iter().zip(st_explicit.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
