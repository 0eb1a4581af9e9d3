//! AVX2+FMA kernels for arbitrary state counts (protein 20, codon 61, …).
//!
//! The stride-16 module ([`super::avx2`]) hard-codes the DNA/Γ4 shape; this
//! module keeps the same broadcast-FMA structure but tiles the destination
//! states in chunks of four: for each chunk the mat-vec
//! `Σ_y P(x,y)·v[y]` runs over the transposed category matrices
//! ([`phylo_models::PMatrices::cat_t`], destination states contiguous), one
//! FMA per source state `y`, with a scalar loop for the `n_states % 4`
//! tail. FMA contracts differ from the scalar backend in the last ulps;
//! the underflow-scaling decision (max against 2⁻²⁵⁶) is ulp-insensitive,
//! so scale counts stay identical — the same contract as the stride-16
//! module.
//!
//! Every `#[target_feature]` function is `unsafe fn`; the only caller is
//! [`super::backend::KernelBackend`], which checks
//! [`super::avx2::available`] before entering and degrades to the scalar
//! kernels otherwise.

#![allow(unsafe_code)]

use super::Dims;
use crate::scaling::{LOG_MINLIKELIHOOD, MINLIKELIHOOD, TWOTOTHE256};
use core::arch::x86_64::*;
use phylo_models::PMatrices;

/// Floor for per-site likelihoods before taking logs (same as the scalar
/// evaluate kernel).
const L_FLOOR: f64 = 1e-300;

/// Horizontal max of the four lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hmax(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let m = _mm_max_pd(lo, hi);
    let h = _mm_unpackhi_pd(m, m);
    _mm_cvtsd_f64(_mm_max_sd(m, h))
}

/// Horizontal sum of the four lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let s = _mm_add_pd(lo, hi);
    let h = _mm_unpackhi_pd(s, s);
    _mm_cvtsd_f64(_mm_add_sd(s, h))
}

/// Lane-wise |x| (clear the sign bit).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vabs(v: __m256d) -> __m256d {
    _mm256_and_pd(
        v,
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff)),
    )
}

/// Cold path: multiply the `stride` already-stored entries at `p` by 2²⁵⁶.
#[cold]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn rescale_stride(p: *mut f64, stride: usize) {
    let s = _mm256_set1_pd(TWOTOTHE256);
    let chunks = stride / 4 * 4;
    for e in (0..chunks).step_by(4) {
        let v = _mm256_loadu_pd(p.add(e));
        _mm256_storeu_pd(p.add(e), _mm256_mul_pd(v, s));
    }
    for e in chunks..stride {
        *p.add(e) *= TWOTOTHE256;
    }
}

/// One four-destination chunk of the mat-vec: `Σ_y col_y[x0..x0+4]·v[y]`
/// where `pt` is the transposed matrix (`P(x,y)` at `y·ns + x`).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matvec_chunk(pt: *const f64, v: *const f64, ns: usize, x0: usize) -> __m256d {
    let mut acc = _mm256_mul_pd(_mm256_loadu_pd(pt.add(x0)), _mm256_set1_pd(*v));
    for y in 1..ns {
        acc = _mm256_fmadd_pd(
            _mm256_loadu_pd(pt.add(y * ns + x0)),
            _mm256_set1_pd(*v.add(y)),
            acc,
        );
    }
    acc
}

/// The scalar tail of the mat-vec for destination state `x >= chunks`.
#[inline]
unsafe fn matvec_tail(pt: *const f64, v: *const f64, ns: usize, x: usize) -> f64 {
    let mut sum = 0.0;
    for y in 0..ns {
        sum += *pt.add(y * ns + x) * *v.add(y);
    }
    sum
}

/// Wide `newview` for two tip children (elementwise LUT product over the
/// whole site stride).
///
/// # Safety
/// Caller must ensure AVX2+FMA are available (see
/// [`super::avx2::available`]) and that the slices satisfy the scalar
/// kernel's length contracts.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn newview_tip_tip(
    dims: &Dims,
    parent: &mut [f64],
    scale_p: &mut [u32],
    lut_l: &[f64],
    codes_l: &[u16],
    lut_r: &[f64],
    codes_r: &[u16],
) {
    let stride = dims.site_stride();
    debug_assert_eq!(parent.len(), dims.width());
    debug_assert_eq!(scale_p.len(), dims.n_patterns);
    debug_assert_eq!(lut_l.len() % stride, 0);
    debug_assert_eq!(lut_r.len() % stride, 0);
    let chunks = stride / 4 * 4;
    let lutl = lut_l.as_ptr();
    let lutr = lut_r.as_ptr();
    let out0 = parent.as_mut_ptr();
    for i in 0..dims.n_patterns {
        let l = lutl.add(codes_l[i] as usize * stride);
        let r = lutr.add(codes_r[i] as usize * stride);
        let out = out0.add(i * stride);
        let mut vmax = _mm256_setzero_pd();
        for e in (0..chunks).step_by(4) {
            let v = _mm256_mul_pd(_mm256_loadu_pd(l.add(e)), _mm256_loadu_pd(r.add(e)));
            _mm256_storeu_pd(out.add(e), v);
            vmax = _mm256_max_pd(vmax, vabs(v));
        }
        let mut tmax = hmax(vmax);
        for e in chunks..stride {
            let v = *l.add(e) * *r.add(e);
            *out.add(e) = v;
            tmax = tmax.max(v.abs());
        }
        scale_p[i] = if tmax < MINLIKELIHOOD {
            rescale_stride(out, stride);
            1
        } else {
            0
        };
    }
}

/// Wide `newview` for one tip and one inner child.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available (see
/// [`super::avx2::available`]) and that the slices satisfy the scalar
/// kernel's length contracts.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn newview_tip_inner(
    dims: &Dims,
    parent: &mut [f64],
    scale_p: &mut [u32],
    lut_tip: &[f64],
    codes_tip: &[u16],
    inner: &[f64],
    scale_inner: &[u32],
    pm_inner: &PMatrices,
) {
    let (ns, nc) = (dims.n_states, dims.n_cats);
    let stride = dims.site_stride();
    debug_assert_eq!(parent.len(), dims.width());
    debug_assert_eq!(inner.len(), dims.width());
    debug_assert_eq!(lut_tip.len() % stride, 0);
    let xchunks = ns / 4 * 4;
    let lut = lut_tip.as_ptr();
    let child0 = inner.as_ptr();
    let out0 = parent.as_mut_ptr();
    for i in 0..dims.n_patterns {
        let tip = lut.add(codes_tip[i] as usize * stride);
        let child = child0.add(i * stride);
        let out = out0.add(i * stride);
        let mut vmax = _mm256_setzero_pd();
        let mut tmax = 0.0f64;
        for c in 0..nc {
            let pt = pm_inner.cat_t(c).as_ptr();
            let vc = child.add(c * ns);
            let tip_c = tip.add(c * ns);
            let out_c = out.add(c * ns);
            for x0 in (0..xchunks).step_by(4) {
                let sum = matvec_chunk(pt, vc, ns, x0);
                let v = _mm256_mul_pd(_mm256_loadu_pd(tip_c.add(x0)), sum);
                _mm256_storeu_pd(out_c.add(x0), v);
                vmax = _mm256_max_pd(vmax, vabs(v));
            }
            for x in xchunks..ns {
                let v = *tip_c.add(x) * matvec_tail(pt, vc, ns, x);
                *out_c.add(x) = v;
                tmax = tmax.max(v.abs());
            }
        }
        let scaled = if hmax(vmax).max(tmax) < MINLIKELIHOOD {
            rescale_stride(out, stride);
            1
        } else {
            0
        };
        scale_p[i] = scale_inner[i] + scaled;
    }
}

/// Wide `newview` for two inner children.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available (see
/// [`super::avx2::available`]) and that the slices satisfy the scalar
/// kernel's length contracts.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn newview_inner_inner(
    dims: &Dims,
    parent: &mut [f64],
    scale_p: &mut [u32],
    left: &[f64],
    scale_l: &[u32],
    pm_l: &PMatrices,
    right: &[f64],
    scale_r: &[u32],
    pm_r: &PMatrices,
) {
    let (ns, nc) = (dims.n_states, dims.n_cats);
    let stride = dims.site_stride();
    debug_assert_eq!(parent.len(), dims.width());
    debug_assert_eq!(left.len(), dims.width());
    debug_assert_eq!(right.len(), dims.width());
    let xchunks = ns / 4 * 4;
    let l0 = left.as_ptr();
    let r0 = right.as_ptr();
    let out0 = parent.as_mut_ptr();
    for i in 0..dims.n_patterns {
        let lsite = l0.add(i * stride);
        let rsite = r0.add(i * stride);
        let out = out0.add(i * stride);
        let mut vmax = _mm256_setzero_pd();
        let mut tmax = 0.0f64;
        for c in 0..nc {
            let ptl = pm_l.cat_t(c).as_ptr();
            let ptr_r = pm_r.cat_t(c).as_ptr();
            let lc = lsite.add(c * ns);
            let rc = rsite.add(c * ns);
            let out_c = out.add(c * ns);
            for x0 in (0..xchunks).step_by(4) {
                let suml = matvec_chunk(ptl, lc, ns, x0);
                let sumr = matvec_chunk(ptr_r, rc, ns, x0);
                let v = _mm256_mul_pd(suml, sumr);
                _mm256_storeu_pd(out_c.add(x0), v);
                vmax = _mm256_max_pd(vmax, vabs(v));
            }
            for x in xchunks..ns {
                let v = matvec_tail(ptl, lc, ns, x) * matvec_tail(ptr_r, rc, ns, x);
                *out_c.add(x) = v;
                tmax = tmax.max(v.abs());
            }
        }
        let scaled = if hmax(vmax).max(tmax) < MINLIKELIHOOD {
            rescale_stride(out, stride);
            1
        } else {
            0
        };
        scale_p[i] = scale_l[i] + scale_r[i] + scaled;
    }
}

/// Wide root evaluation for two inner vectors.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available (see
/// [`super::avx2::available`]) and that the slices satisfy the scalar
/// kernel's length contracts.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn evaluate_inner_inner_sites(
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
    debug_assert_eq!(pvec.len(), dims.width());
    debug_assert_eq!(qvec.len(), dims.width());
    debug_assert_eq!(freqs.len(), ns);
    let xchunks = ns / 4 * 4;
    let cat_w = 1.0 / nc as f64;
    let f0 = freqs.as_ptr();
    let p0 = pvec.as_ptr();
    let q0 = qvec.as_ptr();
    for i in 0..dims.n_patterns {
        let psite = p0.add(i * stride);
        let qsite = q0.add(i * stride);
        let mut site_l = 0.0;
        for c in 0..nc {
            let pt = pm_root.cat_t(c).as_ptr();
            let pc = psite.add(c * ns);
            let qc = qsite.add(c * ns);
            let mut vacc = _mm256_setzero_pd();
            for x0 in (0..xchunks).step_by(4) {
                let dot = matvec_chunk(pt, qc, ns, x0);
                let term = _mm256_mul_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(f0.add(x0)), _mm256_loadu_pd(pc.add(x0))),
                    dot,
                );
                vacc = _mm256_add_pd(vacc, term);
            }
            let mut cat_sum = hsum(vacc);
            for x in xchunks..ns {
                cat_sum += *f0.add(x) * *pc.add(x) * matvec_tail(pt, qc, ns, x);
            }
            site_l += cat_w * cat_sum;
        }
        let scale = (scale_p[i] + scale_q[i]) as f64;
        site_out[i] = weights[i] as f64 * (site_l.max(L_FLOOR).ln() + scale * LOG_MINLIKELIHOOD);
    }
}

/// Wide root evaluation against a tip (flat root-LUT dot over the stride).
///
/// # Safety
/// Caller must ensure AVX2+FMA are available (see
/// [`super::avx2::available`]) and that the slices satisfy the scalar
/// kernel's length contracts.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn evaluate_tip_inner_sites(
    dims: &Dims,
    root_lut: &[f64],
    codes_tip: &[u16],
    qvec: &[f64],
    scale_q: &[u32],
    weights: &[u32],
    site_out: &mut [f64],
) {
    let stride = dims.site_stride();
    debug_assert_eq!(qvec.len(), dims.width());
    debug_assert_eq!(root_lut.len() % stride, 0);
    let chunks = stride / 4 * 4;
    let cat_w = 1.0 / dims.n_cats as f64;
    let lut0 = root_lut.as_ptr();
    let q0 = qvec.as_ptr();
    for i in 0..dims.n_patterns {
        let lut = lut0.add(codes_tip[i] as usize * stride);
        let qsite = q0.add(i * stride);
        let mut acc = _mm256_setzero_pd();
        for e in (0..chunks).step_by(4) {
            acc = _mm256_fmadd_pd(
                _mm256_loadu_pd(lut.add(e)),
                _mm256_loadu_pd(qsite.add(e)),
                acc,
            );
        }
        let mut site_l = hsum(acc);
        for e in chunks..stride {
            site_l += *lut.add(e) * *qsite.add(e);
        }
        site_l *= cat_w;
        site_out[i] =
            weights[i] as f64 * (site_l.max(L_FLOOR).ln() + scale_q[i] as f64 * LOG_MINLIKELIHOOD);
    }
}

/// Wide Newton-Raphson derivative site loop over a sumtable.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available (see
/// [`super::avx2::available`]) and that the slices satisfy the scalar
/// kernel's length contracts.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn nr_derivatives_sites(
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
    debug_assert_eq!(sumtable.len(), dims.width());
    let chunks = stride / 4 * 4;
    let cat_w = 1.0 / nc as f64;
    let mut e0 = vec![0.0f64; stride];
    let mut e1 = vec![0.0f64; stride];
    let mut e2 = vec![0.0f64; stride];
    for c in 0..nc {
        for k in 0..ns {
            let lr = eigenvalues[k] * rates[c];
            let ex = (lr * z).exp();
            e0[c * ns + k] = ex;
            e1[c * ns + k] = lr * ex;
            e2[c * ns + k] = lr * lr * ex;
        }
    }
    let (p0, p1, p2) = (e0.as_ptr(), e1.as_ptr(), e2.as_ptr());
    let s0 = sumtable.as_ptr();
    for i in 0..dims.n_patterns {
        let site = s0.add(i * stride);
        let mut al = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        for e in (0..chunks).step_by(4) {
            let sv = _mm256_loadu_pd(site.add(e));
            al = _mm256_fmadd_pd(sv, _mm256_loadu_pd(p0.add(e)), al);
            a1 = _mm256_fmadd_pd(sv, _mm256_loadu_pd(p1.add(e)), a1);
            a2 = _mm256_fmadd_pd(sv, _mm256_loadu_pd(p2.add(e)), a2);
        }
        let mut l = hsum(al);
        let mut lp = hsum(a1);
        let mut lpp = hsum(a2);
        for e in chunks..stride {
            let sv = *site.add(e);
            l += sv * *p0.add(e);
            lp += sv * *p1.add(e);
            lpp += sv * *p2.add(e);
        }
        l *= cat_w;
        lp *= cat_w;
        lpp *= cat_w;
        let l_safe = l.max(L_FLOOR);
        let w = weights[i] as f64;
        out_l[i] = w * (l_safe.ln() + scale_sums[i] as f64 * LOG_MINLIKELIHOOD);
        out_d1[i] = w * (lp / l_safe);
        out_d2[i] = w * ((lpp * l_safe - lp * lp) / (l_safe * l_safe));
    }
}

#[cfg(test)]
mod tests {
    use super::super::avx2::available;
    use super::super::testutil::random_vector;
    use super::super::{derivatives, evaluate, newview};
    use super::*;
    use crate::encode::TipCodes;
    use phylo_models::{DiscreteGamma, ReversibleModel};
    use phylo_seq::{compress_patterns, Alignment, Alphabet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    fn model_for(ns: usize) -> ReversibleModel {
        match ns {
            20 => phylo_models::protein::synthetic_protein(13),
            61 => phylo_models::codon::synthetic_codon(13),
            _ => unreachable!(),
        }
    }

    #[test]
    fn newview_matches_scalar_at_protein_and_codon_widths() {
        if !available() {
            eprintln!("skipping: avx2+fma not available");
            return;
        }
        for ns in [20usize, 61] {
            for nc in [1usize, 4] {
                let dims = Dims {
                    n_patterns: 9,
                    n_states: ns,
                    n_cats: nc,
                };
                let model = model_for(ns);
                let gamma = if nc == 1 {
                    DiscreteGamma::none()
                } else {
                    DiscreteGamma::new(0.7, nc)
                };
                let eigen = model.eigen();
                let mut pm_l = phylo_models::PMatrices::new(ns, nc);
                let mut pm_r = phylo_models::PMatrices::new(ns, nc);
                pm_l.update(&eigen, &gamma, 0.13);
                pm_r.update(&eigen, &gamma, 0.37);
                let mut rng = StdRng::seed_from_u64(100 + ns as u64);
                for magnitude in [1.0, 1e-40] {
                    let left: Vec<f64> = random_vector(&dims, &mut rng)
                        .iter()
                        .map(|x| x * magnitude)
                        .collect();
                    let right: Vec<f64> = random_vector(&dims, &mut rng)
                        .iter()
                        .map(|x| x * magnitude)
                        .collect();
                    let sl = vec![1u32; dims.n_patterns];
                    let sr = vec![2u32; dims.n_patterns];
                    let mut p_s = vec![0.0; dims.width()];
                    let mut sc_s = vec![0u32; dims.n_patterns];
                    let mut p_v = vec![0.0; dims.width()];
                    let mut sc_v = vec![0u32; dims.n_patterns];
                    newview::newview_inner_inner(
                        &dims, &mut p_s, &mut sc_s, &left, &sl, &pm_l, &right, &sr, &pm_r,
                    );
                    unsafe {
                        newview_inner_inner(
                            &dims, &mut p_v, &mut sc_v, &left, &sl, &pm_l, &right, &sr, &pm_r,
                        );
                    }
                    assert!(
                        p_s.iter().zip(&p_v).all(|(a, b)| close(*a, *b)),
                        "ns={ns} nc={nc} mag={magnitude}"
                    );
                    assert_eq!(sc_s, sc_v, "scale counts ns={ns} nc={nc}");
                }
            }
        }
    }

    #[test]
    fn tip_kernels_and_evaluate_match_scalar_at_codon_width() {
        if !available() {
            eprintln!("skipping: avx2+fma not available");
            return;
        }
        let dna = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("a".into(), "ATGGCATTCAAAGGGCCTTGG".into()),
                ("b".into(), "ATGGCCTTTAAGGGACCATGG".into()),
            ],
        )
        .unwrap();
        let aln = dna.to_codons().unwrap();
        let comp = compress_patterns(&aln);
        let codes = TipCodes::from_alignment(&comp);
        let model = phylo_models::codon::synthetic_codon(5);
        let gamma = DiscreteGamma::new(0.8, 4);
        let eigen = model.eigen();
        let mut pm = phylo_models::PMatrices::new(61, 4);
        pm.update(&eigen, &gamma, 0.21);
        let dims = Dims {
            n_patterns: comp.n_patterns(),
            n_states: 61,
            n_cats: 4,
        };
        let (mut lut_l, mut lut_r) = (Vec::new(), Vec::new());
        codes.build_lut(&pm, &mut lut_l);
        codes.build_lut(&pm, &mut lut_r);
        let n = dims.n_patterns;
        let mut rng = StdRng::seed_from_u64(23);

        // tip/tip
        let mut p_s = vec![0.0; dims.width()];
        let mut sc_s = vec![0u32; n];
        let mut p_v = vec![0.0; dims.width()];
        let mut sc_v = vec![0u32; n];
        newview::newview_tip_tip(
            &dims,
            &mut p_s,
            &mut sc_s,
            &lut_l,
            codes.tip(0),
            &lut_r,
            codes.tip(1),
        );
        unsafe {
            newview_tip_tip(
                &dims,
                &mut p_v,
                &mut sc_v,
                &lut_l,
                codes.tip(0),
                &lut_r,
                codes.tip(1),
            );
        }
        assert!(p_s.iter().zip(&p_v).all(|(a, b)| close(*a, *b)));
        assert_eq!(sc_s, sc_v);

        // tip/inner
        let inner = random_vector(&dims, &mut rng);
        let sc_in = vec![1u32; n];
        newview::newview_tip_inner(
            &dims,
            &mut p_s,
            &mut sc_s,
            &lut_l,
            codes.tip(0),
            &inner,
            &sc_in,
            &pm,
        );
        unsafe {
            newview_tip_inner(
                &dims,
                &mut p_v,
                &mut sc_v,
                &lut_l,
                codes.tip(0),
                &inner,
                &sc_in,
                &pm,
            );
        }
        assert!(p_s.iter().zip(&p_v).all(|(a, b)| close(*a, *b)));
        assert_eq!(sc_s, sc_v);

        // evaluate inner/inner and tip/inner
        let q = random_vector(&dims, &mut rng);
        let scale_q = vec![0u32; n];
        let w = vec![2u32; n];
        let mut s_ref = vec![0.0; n];
        let mut s_got = vec![0.0; n];
        evaluate::evaluate_inner_inner_sites(
            &dims,
            &p_s,
            &sc_s,
            &q,
            &scale_q,
            &pm,
            model.freqs(),
            &w,
            &mut s_ref,
        );
        unsafe {
            evaluate_inner_inner_sites(
                &dims,
                &p_v,
                &sc_v,
                &q,
                &scale_q,
                &pm,
                model.freqs(),
                &w,
                &mut s_got,
            );
        }
        assert!(s_ref.iter().zip(&s_got).all(|(a, b)| close(*a, *b)));

        let mut rlut = Vec::new();
        codes.build_root_lut(&pm, model.freqs(), &mut rlut);
        evaluate::evaluate_tip_inner_sites(
            &dims,
            &rlut,
            codes.tip(0),
            &q,
            &scale_q,
            &w,
            &mut s_ref,
        );
        unsafe {
            evaluate_tip_inner_sites(&dims, &rlut, codes.tip(0), &q, &scale_q, &w, &mut s_got);
        }
        assert!(s_ref.iter().zip(&s_got).all(|(a, b)| close(*a, *b)));

        // NR derivatives
        let mut sumtable = Vec::new();
        derivatives::build_sumtable(
            &dims,
            derivatives::SumSide::Inner(&p_s),
            derivatives::SumSide::Inner(&q),
            &eigen,
            model.freqs(),
            &mut sumtable,
        );
        let ss = vec![1u32; n];
        let (mut l_a, mut d1_a, mut d2_a) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut l_b, mut d1_b, mut d2_b) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        derivatives::nr_derivatives_sites(
            &dims,
            &sumtable,
            &w,
            &ss,
            eigen.values(),
            gamma.rates(),
            0.19,
            &mut l_a,
            &mut d1_a,
            &mut d2_a,
        );
        unsafe {
            nr_derivatives_sites(
                &dims,
                &sumtable,
                &w,
                &ss,
                eigen.values(),
                gamma.rates(),
                0.19,
                &mut l_b,
                &mut d1_b,
                &mut d2_b,
            );
        }
        for ((a, b), (c, d)) in l_a.iter().zip(&l_b).zip(d1_a.iter().zip(&d1_b)) {
            assert!(close(*a, *b));
            assert!(close(*c, *d));
        }
        assert!(d2_a.iter().zip(&d2_b).all(|(a, b)| close(*a, *b)));
    }
}
