//! Numerical kernels of the PLF.
//!
//! All kernels operate on flat ancestral probability vectors laid out
//! `[pattern][rate category][state]` (site-major, exactly one contiguous
//! block per inner node — the out-of-core transfer unit).

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod backend;
pub mod derivatives;
pub mod evaluate;
pub mod newview;
#[cfg(target_arch = "x86_64")]
pub mod wide;

pub use backend::KernelBackend;

/// Vector dimensions shared by every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Number of site patterns.
    pub n_patterns: usize,
    /// Number of character states (4 DNA, 20 protein).
    pub n_states: usize,
    /// Number of Γ rate categories.
    pub n_cats: usize,
}

impl Dims {
    /// Entries per pattern (`n_cats · n_states`).
    #[inline]
    pub fn site_stride(&self) -> usize {
        self.n_cats * self.n_states
    }

    /// Total vector length in `f64`s (`n_patterns · n_cats · n_states`).
    #[inline]
    pub fn width(&self) -> usize {
        self.n_patterns * self.site_stride()
    }
}

/// The ancestral-probability-vector layout derived from [`Dims`]: the
/// single source of truth for strides and offsets. Kernels and buffer code
/// derive every index from this instead of assuming the DNA/Γ4 stride of
/// 16, so wide-state (protein, codon) vectors index identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApvLayout {
    /// Character states per category block.
    pub n_states: usize,
    /// Rate categories per site block.
    pub n_cats: usize,
}

impl ApvLayout {
    /// The layout for these dimensions.
    #[inline]
    pub fn of(dims: &Dims) -> ApvLayout {
        ApvLayout {
            n_states: dims.n_states,
            n_cats: dims.n_cats,
        }
    }

    /// Entries per site block (`n_cats · n_states`).
    #[inline]
    pub fn site_stride(&self) -> usize {
        self.n_cats * self.n_states
    }

    /// Flat range of pattern `i`'s site block.
    #[inline]
    pub fn site(&self, i: usize) -> core::ops::Range<usize> {
        let s = self.site_stride();
        i * s..(i + 1) * s
    }

    /// Flat range of category `c` within pattern `i`'s site block.
    #[inline]
    pub fn cat(&self, i: usize, c: usize) -> core::ops::Range<usize> {
        debug_assert!(c < self.n_cats);
        let base = i * self.site_stride() + c * self.n_states;
        base..base + self.n_states
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::Dims;
    use phylo_models::PMatrices;
    use rand::Rng;

    /// A random strictly positive "probability-like" vector.
    pub fn random_vector<R: Rng>(dims: &Dims, rng: &mut R) -> Vec<f64> {
        (0..dims.width())
            .map(|_| rng.gen_range(0.01..1.0))
            .collect()
    }

    /// The per-pattern terms of [`evaluate_inner_inner_sites`](super::evaluate::evaluate_inner_inner_sites), folded.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_inner_inner(
        dims: &Dims,
        pvec: &[f64],
        scale_p: &[u32],
        qvec: &[f64],
        scale_q: &[u32],
        pm_root: &PMatrices,
        freqs: &[f64],
        weights: &[u32],
    ) -> f64 {
        let mut sites = vec![0.0; dims.n_patterns];
        super::evaluate::evaluate_inner_inner_sites(
            dims, pvec, scale_p, qvec, scale_q, pm_root, freqs, weights, &mut sites,
        );
        sites.iter().fold(0.0, |acc, &t| acc + t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_arithmetic() {
        let d = Dims {
            n_patterns: 100,
            n_states: 4,
            n_cats: 4,
        };
        assert_eq!(d.site_stride(), 16);
        assert_eq!(d.width(), 1600);
        // The paper's example: s = 10,000 DNA sites under Γ4 gives a
        // 10,000 · 16 · 8 B = 1.28 MB vector.
        let paper = Dims {
            n_patterns: 10_000,
            n_states: 4,
            n_cats: 4,
        };
        assert_eq!(paper.width() * 8, 1_280_000);
    }

    #[test]
    fn apv_layout_derives_all_offsets() {
        let d = Dims {
            n_patterns: 3,
            n_states: 61,
            n_cats: 2,
        };
        let l = ApvLayout::of(&d);
        assert_eq!(l.site_stride(), 122);
        assert_eq!(l.site(2), 244..366);
        assert_eq!(l.cat(1, 1), 122 + 61..122 + 122);
        assert_eq!(l.site_stride() * d.n_patterns, d.width());
    }
}
