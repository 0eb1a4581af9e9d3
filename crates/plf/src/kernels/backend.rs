//! Runtime-dispatched kernel backends.
//!
//! A [`KernelBackend`] is chosen **once** at engine construction —
//! [`KernelBackend::choose`] consults the `OOC_PLF_KERNEL` environment
//! variable, then CPU feature detection — and every kernel invocation
//! dispatches through it. Dispatch is a per-call (whole-vector, not
//! per-site) match, so its cost is noise.
//!
//! The selected backend is a *request*, not a guarantee: each dispatch
//! resolves it against the actual CPU via [`KernelBackend::effective`].
//! Forcing `avx2` on a machine without the features is therefore safe — it
//! silently runs `scalar` rather than faulting. `avx2` covers every shape
//! (the stride-16 module for DNA/Γ4, the wide module for protein and codon
//! widths), and so does the floor under it, `scalar`.

use super::{derivatives, evaluate, newview, Dims};
use phylo_models::PMatrices;

#[cfg(target_arch = "x86_64")]
use super::{avx2, wide};

/// Environment variable overriding backend auto-detection
/// (`scalar` | `avx2`; empty or unset means auto).
pub const KERNEL_ENV_VAR: &str = "OOC_PLF_KERNEL";

/// Which kernel implementation an engine executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Generic triple-loop kernels, any `n_states`/`n_cats`. The reference
    /// implementation every other backend is validated against.
    Scalar,
    /// AVX2+FMA kernels over transposed transition matrices — the stride-16
    /// module for DNA/Γ4 shapes, the width-generic wide module for
    /// everything else (protein, codon). Last-ulp differences from FMA
    /// contraction, identical scale counts.
    Avx2Fma,
}

impl KernelBackend {
    /// All backends, in increasing specialization order.
    pub const ALL: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2Fma];

    /// Canonical name, accepted by [`KernelBackend::from_name`] and
    /// `OOC_PLF_KERNEL`.
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2Fma => "avx2",
        }
    }

    /// Parse a backend name (case-insensitive; a few aliases accepted).
    pub fn from_name(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "avx2" | "avx2fma" | "avx2-fma" | "simd" => Some(KernelBackend::Avx2Fma),
            _ => None,
        }
    }

    /// Read the `OOC_PLF_KERNEL` override. Unset or empty means "no
    /// override"; anything unparsable is an error naming the valid values.
    pub fn from_env() -> Result<Option<KernelBackend>, String> {
        match std::env::var(KERNEL_ENV_VAR) {
            Err(_) => Ok(None),
            Ok(s) if s.trim().is_empty() => Ok(None),
            Ok(s) => KernelBackend::from_name(&s).map(Some).ok_or_else(|| {
                format!(
                    "invalid {KERNEL_ENV_VAR}={s:?}: expected one of \
                     scalar | avx2"
                )
            }),
        }
    }

    /// The best backend this machine supports: AVX2+FMA when the CPU has
    /// it, otherwise the scalar kernels.
    pub fn detect() -> KernelBackend {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            return KernelBackend::Avx2Fma;
        }
        KernelBackend::Scalar
    }

    /// The construction-time selection: the `OOC_PLF_KERNEL` override if
    /// set (panicking on an unparsable value — a misconfiguration worth
    /// failing loudly on), else [`KernelBackend::detect`].
    pub fn choose() -> KernelBackend {
        match KernelBackend::from_env() {
            Ok(Some(b)) => b,
            Ok(None) => KernelBackend::detect(),
            Err(e) => panic!("{e}"),
        }
    }

    /// Can this backend's specialized kernels run these dimensions (on
    /// this machine)? `Scalar` always can; `Avx2Fma` runs *any* dimensions (stride-16 or wide module) when the CPU has
    /// the features.
    pub fn supports(&self, dims: &Dims) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    let _ = dims;
                    avx2::available()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    let _ = dims;
                    false
                }
            }
        }
    }

    /// Resolve the requested backend against dimensions and CPU: the
    /// backend whose kernels will actually execute (`avx2` degrades to
    /// `scalar` without the CPU features).
    pub fn effective(&self, dims: &Dims) -> KernelBackend {
        if self.supports(dims) {
            *self
        } else {
            KernelBackend::Scalar
        }
    }

    /// Dispatch [`newview::newview_tip_tip`].
    #[allow(clippy::too_many_arguments)]
    pub fn newview_tip_tip(
        &self,
        dims: &Dims,
        parent: &mut [f64],
        scale_p: &mut [u32],
        lut_l: &[f64],
        codes_l: &[u16],
        lut_r: &[f64],
        codes_r: &[u16],
    ) {
        match self.effective(dims) {
            KernelBackend::Scalar => {
                newview::newview_tip_tip(dims, parent, scale_p, lut_l, codes_l, lut_r, codes_r)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returned Avx2Fma only after
            // `avx2::available()` confirmed the CPU features.
            KernelBackend::Avx2Fma if stride16(dims) => unsafe {
                avx2::newview_tip_tip(dims, parent, scale_p, lut_l, codes_l, lut_r, codes_r)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the wide module handles non-DNA/Γ4 dims.
            KernelBackend::Avx2Fma => unsafe {
                wide::newview_tip_tip(dims, parent, scale_p, lut_l, codes_l, lut_r, codes_r)
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2Fma => unreachable!("effective() gates Avx2Fma on x86_64"),
        }
    }

    /// Dispatch [`newview::newview_tip_inner`].
    #[allow(clippy::too_many_arguments)]
    pub fn newview_tip_inner(
        &self,
        dims: &Dims,
        parent: &mut [f64],
        scale_p: &mut [u32],
        lut_tip: &[f64],
        codes_tip: &[u16],
        inner: &[f64],
        scale_inner: &[u32],
        pm_inner: &PMatrices,
    ) {
        match self.effective(dims) {
            KernelBackend::Scalar => newview::newview_tip_inner(
                dims,
                parent,
                scale_p,
                lut_tip,
                codes_tip,
                inner,
                scale_inner,
                pm_inner,
            ),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returned Avx2Fma only after
            // `avx2::available()` confirmed the CPU features.
            KernelBackend::Avx2Fma if stride16(dims) => unsafe {
                avx2::newview_tip_inner(
                    dims,
                    parent,
                    scale_p,
                    lut_tip,
                    codes_tip,
                    inner,
                    scale_inner,
                    pm_inner,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the wide module handles non-DNA/Γ4 dims.
            KernelBackend::Avx2Fma => unsafe {
                wide::newview_tip_inner(
                    dims,
                    parent,
                    scale_p,
                    lut_tip,
                    codes_tip,
                    inner,
                    scale_inner,
                    pm_inner,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2Fma => unreachable!("effective() gates Avx2Fma on x86_64"),
        }
    }

    /// Dispatch [`newview::newview_inner_inner`].
    #[allow(clippy::too_many_arguments)]
    pub fn newview_inner_inner(
        &self,
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
        match self.effective(dims) {
            KernelBackend::Scalar => newview::newview_inner_inner(
                dims, parent, scale_p, left, scale_l, pm_l, right, scale_r, pm_r,
            ),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returned Avx2Fma only after
            // `avx2::available()` confirmed the CPU features.
            KernelBackend::Avx2Fma if stride16(dims) => unsafe {
                avx2::newview_inner_inner(
                    dims, parent, scale_p, left, scale_l, pm_l, right, scale_r, pm_r,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the wide module handles non-DNA/Γ4 dims.
            KernelBackend::Avx2Fma => unsafe {
                wide::newview_inner_inner(
                    dims, parent, scale_p, left, scale_l, pm_l, right, scale_r, pm_r,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2Fma => unreachable!("effective() gates Avx2Fma on x86_64"),
        }
    }

    /// Dispatch [`evaluate::evaluate_inner_inner_sites`].
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_inner_inner_sites(
        &self,
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
        match self.effective(dims) {
            KernelBackend::Scalar => evaluate::evaluate_inner_inner_sites(
                dims, pvec, scale_p, qvec, scale_q, pm_root, freqs, weights, site_out,
            ),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returned Avx2Fma only after
            // `avx2::available()` confirmed the CPU features.
            KernelBackend::Avx2Fma if stride16(dims) => unsafe {
                avx2::evaluate_inner_inner_sites(
                    dims, pvec, scale_p, qvec, scale_q, pm_root, freqs, weights, site_out,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the wide module handles non-DNA/Γ4 dims.
            KernelBackend::Avx2Fma => unsafe {
                wide::evaluate_inner_inner_sites(
                    dims, pvec, scale_p, qvec, scale_q, pm_root, freqs, weights, site_out,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2Fma => unreachable!("effective() gates Avx2Fma on x86_64"),
        }
    }

    /// Dispatch [`evaluate::evaluate_tip_inner_sites`].
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_tip_inner_sites(
        &self,
        dims: &Dims,
        root_lut: &[f64],
        codes_tip: &[u16],
        qvec: &[f64],
        scale_q: &[u32],
        weights: &[u32],
        site_out: &mut [f64],
    ) {
        match self.effective(dims) {
            KernelBackend::Scalar => evaluate::evaluate_tip_inner_sites(
                dims, root_lut, codes_tip, qvec, scale_q, weights, site_out,
            ),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returned Avx2Fma only after
            // `avx2::available()` confirmed the CPU features.
            KernelBackend::Avx2Fma if stride16(dims) => unsafe {
                avx2::evaluate_tip_inner_sites(
                    dims, root_lut, codes_tip, qvec, scale_q, weights, site_out,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the wide module handles non-DNA/Γ4 dims.
            KernelBackend::Avx2Fma => unsafe {
                wide::evaluate_tip_inner_sites(
                    dims, root_lut, codes_tip, qvec, scale_q, weights, site_out,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2Fma => unreachable!("effective() gates Avx2Fma on x86_64"),
        }
    }

    /// Dispatch [`derivatives::nr_derivatives_sites`].
    #[allow(clippy::too_many_arguments)]
    pub fn nr_derivatives_sites(
        &self,
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
        match self.effective(dims) {
            KernelBackend::Scalar => derivatives::nr_derivatives_sites(
                dims,
                sumtable,
                weights,
                scale_sums,
                eigenvalues,
                rates,
                z,
                out_l,
                out_d1,
                out_d2,
            ),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returned Avx2Fma only after
            // `avx2::available()` confirmed the CPU features.
            KernelBackend::Avx2Fma if stride16(dims) => unsafe {
                avx2::nr_derivatives_sites(
                    dims,
                    sumtable,
                    weights,
                    scale_sums,
                    eigenvalues,
                    rates,
                    z,
                    out_l,
                    out_d1,
                    out_d2,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the wide module handles non-DNA/Γ4 dims.
            KernelBackend::Avx2Fma => unsafe {
                wide::nr_derivatives_sites(
                    dims,
                    sumtable,
                    weights,
                    scale_sums,
                    eigenvalues,
                    rates,
                    z,
                    out_l,
                    out_d1,
                    out_d2,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2Fma => unreachable!("effective() gates Avx2Fma on x86_64"),
        }
    }
}

/// The AVX2 kernels come in two modules: is this the DNA/Γ4 shape (site
/// stride 16) the specialised one covers? Everything else runs the wide
/// module.
#[cfg(target_arch = "x86_64")]
fn stride16(dims: &Dims) -> bool {
    dims.n_states == 4 && dims.n_cats == 4
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KernelBackend::from_name(s)
            .ok_or_else(|| format!("unknown kernel backend {s:?}: expected scalar | avx2"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna_dims() -> Dims {
        Dims {
            n_patterns: 8,
            n_states: 4,
            n_cats: 4,
        }
    }

    fn protein_dims() -> Dims {
        Dims {
            n_patterns: 8,
            n_states: 20,
            n_cats: 4,
        }
    }

    #[test]
    fn names_round_trip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::from_name(b.name()), Some(b));
            assert_eq!(b.name().parse::<KernelBackend>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(
            KernelBackend::from_name("AVX2-FMA"),
            Some(KernelBackend::Avx2Fma)
        );
        assert!(KernelBackend::from_name("sse9").is_none());
        assert!("sse9".parse::<KernelBackend>().is_err());
    }

    #[test]
    fn scalar_supports_everything() {
        assert!(KernelBackend::Scalar.supports(&dna_dims()));
        assert!(KernelBackend::Scalar.supports(&protein_dims()));
    }

    #[test]
    fn avx2_resolves_to_itself_or_to_scalar_on_every_shape() {
        // avx2 runs its stride-16 or wide module when the CPU has the
        // features and degrades to scalar otherwise — never to garbage.
        for d in [dna_dims(), protein_dims()] {
            let eff = KernelBackend::Avx2Fma.effective(&d);
            if KernelBackend::Avx2Fma.supports(&d) {
                assert_eq!(eff, KernelBackend::Avx2Fma);
            } else {
                assert_eq!(eff, KernelBackend::Scalar);
            }
        }
    }

    #[test]
    fn detect_returns_a_supported_backend() {
        let b = KernelBackend::detect();
        assert!(b == KernelBackend::Avx2Fma || b == KernelBackend::Scalar);
        if b == KernelBackend::Avx2Fma {
            assert!(b.supports(&dna_dims()));
        }
    }

    #[test]
    fn dispatch_runs_for_every_backend_and_dims() {
        // Smoke: dispatch through each backend on both dims; the
        // correctness of each specialized kernel is covered in its module.
        use crate::kernels::testutil::random_vector;
        use phylo_models::{DiscreteGamma, PMatrices, ReversibleModel};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = ReversibleModel::jc69();
        let gamma = DiscreteGamma::new(1.0, 4);
        let mut pm = PMatrices::new(4, 4);
        pm.update(&model.eigen(), &gamma, 0.1);
        let d = dna_dims();
        let mut rng = StdRng::seed_from_u64(3);
        let left = random_vector(&d, &mut rng);
        let right = random_vector(&d, &mut rng);
        let zeros = vec![0u32; d.n_patterns];
        let mut reference: Option<Vec<f64>> = None;
        for b in KernelBackend::ALL {
            let mut parent = vec![0.0; d.width()];
            let mut scale = vec![0u32; d.n_patterns];
            b.newview_inner_inner(
                &d,
                &mut parent,
                &mut scale,
                &left,
                &zeros,
                &pm,
                &right,
                &zeros,
                &pm,
            );
            assert!(scale.iter().all(|&s| s == 0));
            match &reference {
                None => reference = Some(parent),
                Some(r) => {
                    for (a, b) in r.iter().zip(&parent) {
                        assert!((a - b).abs() <= 1e-13 * a.abs().max(1.0));
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_agrees_across_backends_on_protein_dims() {
        use crate::kernels::testutil::random_vector;
        use phylo_models::{DiscreteGamma, PMatrices};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = phylo_models::protein::synthetic_protein(3);
        let gamma = DiscreteGamma::new(0.9, 4);
        let mut pm = PMatrices::new(20, 4);
        pm.update(&model.eigen(), &gamma, 0.2);
        let d = protein_dims();
        let mut rng = StdRng::seed_from_u64(17);
        let left = random_vector(&d, &mut rng);
        let right = random_vector(&d, &mut rng);
        let zeros = vec![0u32; d.n_patterns];
        let mut reference: Option<Vec<f64>> = None;
        for b in KernelBackend::ALL {
            let mut parent = vec![0.0; d.width()];
            let mut scale = vec![0u32; d.n_patterns];
            b.newview_inner_inner(
                &d,
                &mut parent,
                &mut scale,
                &left,
                &zeros,
                &pm,
                &right,
                &zeros,
                &pm,
            );
            assert!(scale.iter().all(|&s| s == 0));
            match &reference {
                None => reference = Some(parent),
                Some(r) => {
                    for (a, b) in r.iter().zip(&parent) {
                        assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
                    }
                }
            }
        }
    }
}
