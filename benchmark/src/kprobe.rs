//! `plf.kernels.*`: direct `KernelBackend` calls on the workload's own
//! dimensions and tip codes, outside any engine. Bytes and flops are
//! computed from the dimensions and labelled so; no roofline ratio is
//! formed because the last-level cache is shared with the host.

use crate::data::Dataset;
use crate::spec::{ALPHA, N_CATS};
use crate::stats::median;
use phylo_models::{DiscreteGamma, PMatrices};
use phylo_plf::kernels::derivatives::{build_sumtable, SumSide};
use phylo_plf::kernels::Dims;
use phylo_plf::{InRamStore, KernelBackend, PlfEngine, TipCodes};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProbe {
    pub newview_ii_ns: f64,
    pub newview_ti_ns: f64,
    pub newview_tt_ns: f64,
    pub evaluate_ns: f64,
    pub derivative_ns: f64,
    /// Bytes an inner-inner combine moves per pattern: two vectors read,
    /// one written, three scaling counts.
    pub bytes_per_pattern: f64,
    /// Floating-point operations of that combine over those bytes.
    pub flops_per_byte: f64,
}

/// Median over five samples of the per-call time, each sample long enough
/// (`sample_ns`) to swamp the clock.
fn time_ns(sample_ns: u128, mut f: impl FnMut()) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed().as_nanos();
        if dt >= sample_ns || iters >= 1 << 24 {
            break;
        }
        iters = (iters * 2).max((iters as u128 * sample_ns / dt.max(1)) as u64);
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

pub fn probe(data: &Dataset, quick: bool) -> KernelProbe {
    let sample_ns: u128 = if quick { 1_000_000 } else { 20_000_000 };
    let dims: Dims = PlfEngine::<InRamStore>::dims_for(&data.comp, N_CATS);
    let n = dims.n_patterns;
    let kernel = KernelBackend::choose();
    let eigen = data.model.eigen();
    let gamma = DiscreteGamma::new(ALPHA, N_CATS);
    let mut pm_l = PMatrices::new(dims.n_states, N_CATS);
    let mut pm_r = PMatrices::new(dims.n_states, N_CATS);
    pm_l.update(&eigen, &gamma, 0.12);
    pm_r.update(&eigen, &gamma, 0.3);
    let tips = TipCodes::from_alignment(&data.comp);
    let (mut lut_l, mut lut_r) = (Vec::new(), Vec::new());
    tips.build_lut(&pm_l, &mut lut_l);
    tips.build_lut(&pm_r, &mut lut_r);

    let left = vec![0.4f64; dims.width()];
    let right = vec![0.3f64; dims.width()];
    let zeros = vec![0u32; n];
    let mut parent = vec![0.0f64; dims.width()];
    let mut scale_p = vec![0u32; n];
    let per_pattern = |ns: f64| ns / n as f64;

    let newview_ii_ns = per_pattern(time_ns(sample_ns, || {
        kernel.newview_inner_inner(
            &dims,
            black_box(&mut parent),
            &mut scale_p,
            black_box(&left),
            &zeros,
            &pm_l,
            black_box(&right),
            &zeros,
            &pm_r,
        )
    }));
    let newview_ti_ns = per_pattern(time_ns(sample_ns, || {
        kernel.newview_tip_inner(
            &dims,
            black_box(&mut parent),
            &mut scale_p,
            &lut_l,
            tips.tip(0),
            black_box(&right),
            &zeros,
            &pm_r,
        )
    }));
    let newview_tt_ns = per_pattern(time_ns(sample_ns, || {
        kernel.newview_tip_tip(
            &dims,
            black_box(&mut parent),
            &mut scale_p,
            &lut_l,
            tips.tip(0),
            &lut_r,
            tips.tip(1),
        )
    }));
    let mut site_out = vec![0.0f64; n];
    let evaluate_ns = per_pattern(time_ns(sample_ns, || {
        kernel.evaluate_inner_inner_sites(
            &dims,
            black_box(&left),
            &zeros,
            black_box(&right),
            &zeros,
            &pm_l,
            data.model.freqs(),
            &data.comp.weights,
            black_box(&mut site_out),
        )
    }));
    let mut sumtable = Vec::new();
    build_sumtable(
        &dims,
        SumSide::Inner(&left),
        SumSide::Inner(&right),
        &eigen,
        data.model.freqs(),
        &mut sumtable,
    );
    let (mut out_l, mut out_d1, mut out_d2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let derivative_ns = per_pattern(time_ns(sample_ns, || {
        kernel.nr_derivatives_sites(
            &dims,
            black_box(&sumtable),
            &data.comp.weights,
            &zeros,
            eigen.values(),
            gamma.rates(),
            black_box(0.17),
            &mut out_l,
            &mut out_d1,
            &mut out_d2,
        )
    }));

    let (s, c) = (dims.n_states as f64, N_CATS as f64);
    let bytes_per_pattern = 3.0 * c * s * 8.0 + 3.0 * 4.0;
    // Per category: two s×s matrix-vector products and s element products.
    let flops = c * (2.0 * (s * s + s * (s - 1.0)) + s);
    KernelProbe {
        newview_ii_ns,
        newview_ti_ns,
        newview_tt_ns,
        evaluate_ns,
        derivative_ns,
        bytes_per_pattern,
        flops_per_byte: flops / bytes_per_pattern,
    }
}
