//! Tip encoding and per-branch tip lookup tables.
//!
//! A tip's "likelihood vector" at a site is the 0/1 indicator of its state
//! mask, so the partial sum `Σ_y P_c(x, y) · ind(y)` depends only on the
//! mask, not the site. Like RAxML's `umpX1`/`umpX2` tables we precompute it
//! once per branch for every *distinct* mask in the alignment — for DNA
//! that is at most 15 codes, for protein at most the distinct observed
//! masks — and index tips by compact code ids.

use phylo_models::{DiscreteGamma, EigenDecomp, PMatrices};
use phylo_seq::{CompressedAlignment, SiteMask};
use std::collections::HashMap;

/// Compactly coded tip states for all tips over the pattern alignment.
#[derive(Debug, Clone)]
pub struct TipCodes {
    n_states: usize,
    /// Distinct masks observed, indexed by code id.
    codes: Vec<SiteMask>,
    /// Per tip, per pattern: code id.
    tip_patterns: Vec<Vec<u16>>,
}

/// Size a reusable lut buffer for `n` entries *without* zero-scrubbing
/// when the length already matches. Callers overwrite every entry, and
/// these tables are rebuilt once per branch-length update — the
/// unconditional `clear` + `resize` memset was pure allocator/memory
/// churn on the branch-update path. Only valid for builders that assign
/// (not accumulate into) every slot.
fn size_for_overwrite(lut: &mut Vec<f64>, n: usize) {
    if lut.len() != n {
        lut.clear();
        lut.resize(n, 0.0);
    }
}

impl TipCodes {
    /// Build the code table from a compressed alignment.
    pub fn from_alignment(comp: &CompressedAlignment) -> Self {
        let all = 0..comp.n_patterns();
        let mut whole = Self::from_alignment_ranges(comp, std::slice::from_ref(&all));
        whole.pop().expect("one range, one table")
    }

    /// One table per pattern range (site-range sharding; `ranges` contiguous
    /// and in order): each table's tip rows cover its range only, while the
    /// code table is kept whole, so code ids — and therefore every per-code
    /// lookup table — are identical across shards and to the unsharded
    /// encoding. Codes that happen not to occur inside a range merely leave
    /// unused lut rows behind. The rows are encoded straight into their
    /// shard: no full-width table is built and then copied apart.
    pub fn from_alignment_ranges(
        comp: &CompressedAlignment,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<TipCodes> {
        let aln = &comp.alignment;
        let mut code_of: HashMap<SiteMask, u16> = HashMap::new();
        let mut codes: Vec<SiteMask> = Vec::new();
        let mut tip_patterns: Vec<Vec<Vec<u16>>> = ranges
            .iter()
            .map(|_| Vec::with_capacity(aln.n_seqs()))
            .collect();
        for t in 0..aln.n_seqs() {
            for (rows, range) in tip_patterns.iter_mut().zip(ranges) {
                let row = aln.seq(t)[range.clone()]
                    .iter()
                    .map(|&mask| {
                        *code_of.entry(mask).or_insert_with(|| {
                            codes.push(mask);
                            u16::try_from(codes.len() - 1).expect("too many distinct masks")
                        })
                    })
                    .collect();
                rows.push(row);
            }
        }
        let n_states = aln.alphabet().n_states();
        tip_patterns
            .into_iter()
            .map(|tip_patterns| TipCodes {
                n_states,
                codes: codes.clone(),
                tip_patterns,
            })
            .collect()
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of distinct codes.
    pub fn n_codes(&self) -> usize {
        self.codes.len()
    }

    /// Number of patterns per tip row.
    pub fn n_patterns(&self) -> usize {
        self.tip_patterns.first().map_or(0, |r| r.len())
    }

    /// Code ids of tip `t` across patterns.
    pub fn tip(&self, t: usize) -> &[u16] {
        &self.tip_patterns[t]
    }

    /// Mask of a code id.
    pub fn mask(&self, code: u16) -> SiteMask {
        self.codes[code as usize]
    }

    /// Fill `lut` (layout `[code][cat][state]`) with
    /// `Σ_y P_c(x, y) · ind_mask(y)` for every distinct code. `lut` is
    /// resized as needed. This is the per-branch table used by the
    /// `newview` kernels for tip children.
    pub fn build_lut(&self, pm: &PMatrices, lut: &mut Vec<f64>) {
        let ns = self.n_states;
        let nc = pm.n_cats();
        size_for_overwrite(lut, self.codes.len() * nc * ns);
        for (ci, &mask) in self.codes.iter().enumerate() {
            for c in 0..nc {
                let p = pm.cat(c);
                let out = &mut lut[(ci * nc + c) * ns..(ci * nc + c) * ns + ns];
                for (x, o) in out.iter_mut().enumerate() {
                    let row = &p[x * ns..(x + 1) * ns];
                    let mut sum = 0.0;
                    for (y, &pxy) in row.iter().enumerate() {
                        if mask >> y & 1 == 1 {
                            sum += pxy;
                        }
                    }
                    *o = sum;
                }
            }
        }
    }

    /// Fill `lut` (layout `[code][cat][state]`) with the *root-side* table
    /// `Σ_x π_x · ind_mask(x) · P_c(x, y)`, used when the virtual root sits
    /// on a tip branch.
    pub fn build_root_lut(&self, pm: &PMatrices, freqs: &[f64], lut: &mut Vec<f64>) {
        let ns = self.n_states;
        let nc = pm.n_cats();
        lut.clear();
        lut.resize(self.codes.len() * nc * ns, 0.0);
        for (ci, &mask) in self.codes.iter().enumerate() {
            for c in 0..nc {
                let p = pm.cat(c);
                let out = &mut lut[(ci * nc + c) * ns..(ci * nc + c) * ns + ns];
                for x in 0..ns {
                    if mask >> x & 1 == 0 {
                        continue;
                    }
                    let row = &p[x * ns..(x + 1) * ns];
                    for (y, o) in out.iter_mut().enumerate() {
                        *o += freqs[x] * row[y];
                    }
                }
            }
        }
    }

    /// Fill `lut` (layout `[code][cat][k]`) with the inverse-eigenvector
    /// projection `Σ_y V⁻¹[k, y] · ind_mask(y)`, the right-hand analogue of
    /// [`TipCodes::build_eigen_lut`] for derivative sumtables whose far
    /// side is a tip.
    pub fn build_eigen_lut_right(
        &self,
        eigen: &EigenDecomp,
        gamma: &DiscreteGamma,
        lut: &mut Vec<f64>,
    ) {
        let ns = self.n_states;
        let nc = gamma.n_cats();
        let v_inv = eigen.v_inv();
        size_for_overwrite(lut, self.codes.len() * nc * ns);
        for (ci, &mask) in self.codes.iter().enumerate() {
            let base = ci * nc * ns;
            for k in 0..ns {
                let mut sum = 0.0;
                for y in 0..ns {
                    if mask >> y & 1 == 1 {
                        sum += v_inv[k * ns + y];
                    }
                }
                for c in 0..nc {
                    lut[base + c * ns + k] = sum;
                }
            }
        }
    }

    /// Fill `lut` (layout `[code][cat][k]`, eigen dimension) with the
    /// π-weighted eigen-projection `Σ_x π_x · ind_mask(x) · V[x, k]`, used
    /// to build branch-length derivative sumtables for tip sides. The table
    /// is category-independent but replicated per category for uniform
    /// indexing with inner-node projections.
    pub fn build_eigen_lut(
        &self,
        eigen: &EigenDecomp,
        gamma: &DiscreteGamma,
        freqs: &[f64],
        lut: &mut Vec<f64>,
    ) {
        let ns = self.n_states;
        let nc = gamma.n_cats();
        let v = eigen.v();
        size_for_overwrite(lut, self.codes.len() * nc * ns);
        for (ci, &mask) in self.codes.iter().enumerate() {
            let base = ci * nc * ns;
            for k in 0..ns {
                let mut sum = 0.0;
                for x in 0..ns {
                    if mask >> x & 1 == 1 {
                        sum += freqs[x] * v[x * ns + k];
                    }
                }
                for c in 0..nc {
                    lut[base + c * ns + k] = sum;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::ReversibleModel;
    use phylo_seq::{compress_patterns, Alignment, Alphabet};

    fn toy_alignment() -> phylo_seq::CompressedAlignment {
        let aln = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("a".into(), "ACGTN".into()),
                ("b".into(), "AAGTR".into()),
                ("c".into(), "ACGTC".into()),
            ],
        )
        .unwrap();
        compress_patterns(&aln)
    }

    fn toy_codes() -> TipCodes {
        TipCodes::from_alignment(&toy_alignment())
    }

    #[test]
    fn codes_cover_distinct_masks_only() {
        let tc = toy_codes();
        // Masks present: A, C, G, T, N(0xF), R(0x5) -> 6 codes.
        assert_eq!(tc.n_codes(), 6);
        assert_eq!(tc.n_states(), 4);
        assert_eq!(tc.n_patterns(), 5);
        // Tip rows must decode back to the original masks.
        assert_eq!(tc.mask(tc.tip(0)[0]), 1); // A
        assert_eq!(tc.mask(tc.tip(1)[4]), 0x5); // R
    }

    #[test]
    fn pattern_ranges_keep_the_code_table_whole() {
        let comp = toy_alignment();
        let tc = TipCodes::from_alignment(&comp);
        let n = comp.n_patterns();
        let shards = TipCodes::from_alignment_ranges(&comp, &[0..1, 1..n]);
        for (sub, range) in shards.iter().zip([0..1, 1..n]) {
            assert_eq!(sub.n_codes(), tc.n_codes(), "code ids must be stable");
            assert_eq!(sub.n_patterns(), range.len());
            for t in 0..3 {
                assert_eq!(sub.tip(t), &tc.tip(t)[range.clone()]);
            }
        }
        // Same mask decoding through a shard's table.
        assert_eq!(shards[1].mask(shards[1].tip(0)[0]), tc.mask(tc.tip(0)[1]));
    }

    #[test]
    fn lut_matches_direct_sum() {
        let tc = toy_codes();
        let model = ReversibleModel::hky85(2.0, &[0.3, 0.2, 0.2, 0.3]);
        let eigen = model.eigen();
        let gamma = DiscreteGamma::new(0.8, 4);
        let mut pm = PMatrices::new(4, 4);
        pm.update(&eigen, &gamma, 0.17);
        let mut lut = Vec::new();
        tc.build_lut(&pm, &mut lut);
        assert_eq!(lut.len(), tc.n_codes() * 4 * 4);
        for code in 0..tc.n_codes() {
            let mask = tc.mask(code as u16);
            for c in 0..4 {
                for x in 0..4 {
                    let direct: f64 = (0..4)
                        .filter(|&y| mask >> y & 1 == 1)
                        .map(|y| pm.get(c, x, y))
                        .sum();
                    let got = lut[(code * 4 + c) * 4 + x];
                    assert!((got - direct).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn gap_code_lut_is_row_sums_of_one() {
        // For mask 0xF the lut entry is a full row sum of P = 1.
        let tc = toy_codes();
        let gap_code = (0..tc.n_codes() as u16)
            .find(|&c| tc.mask(c) == 0xF)
            .unwrap();
        let model = ReversibleModel::jc69();
        let gamma = DiscreteGamma::new(1.0, 4);
        let mut pm = PMatrices::new(4, 4);
        pm.update(&model.eigen(), &gamma, 0.3);
        let mut lut = Vec::new();
        tc.build_lut(&pm, &mut lut);
        for c in 0..4 {
            for x in 0..4 {
                let got = lut[(gap_code as usize * 4 + c) * 4 + x];
                assert!((got - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn root_lut_sums_to_frequencies() {
        // Root lut for the gap mask: Σ_x π_x P_c(x,y) = π_y (stationarity).
        let tc = toy_codes();
        let gap = (0..tc.n_codes() as u16)
            .find(|&c| tc.mask(c) == 0xF)
            .unwrap();
        let freqs = [0.35, 0.25, 0.22, 0.18];
        let model = ReversibleModel::hky85(3.0, &freqs);
        let gamma = DiscreteGamma::new(1.0, 2);
        let mut pm = PMatrices::new(4, 2);
        pm.update(&model.eigen(), &gamma, 0.4);
        let mut lut = Vec::new();
        tc.build_root_lut(&pm, model.freqs(), &mut lut);
        for c in 0..2 {
            for y in 0..4 {
                let got = lut[(gap as usize * 2 + c) * 4 + y];
                assert!((got - model.freqs()[y]).abs() < 1e-10, "{got}");
            }
        }
    }

    /// Masks survive the mask → code id → mask round trip and the branch
    /// lut matches the direct indicator sum at every supported width.
    fn check_roundtrip_and_lut(comp: &CompressedAlignment, model: &ReversibleModel) {
        let tc = TipCodes::from_alignment(comp);
        let ns = tc.n_states();
        assert_eq!(ns, comp.alignment.alphabet().n_states());
        for t in 0..comp.alignment.n_seqs() {
            for (p, &code) in tc.tip(t).iter().enumerate() {
                assert_eq!(tc.mask(code), comp.alignment.seq(t)[p]);
            }
        }
        let gamma = DiscreteGamma::new(0.7, 2);
        let mut pm = PMatrices::new(ns, 2);
        pm.update(&model.eigen(), &gamma, 0.23);
        let mut lut = Vec::new();
        tc.build_lut(&pm, &mut lut);
        assert_eq!(lut.len(), tc.n_codes() * 2 * ns);
        for code in 0..tc.n_codes() {
            let mask = tc.mask(code as u16);
            for c in 0..2 {
                for x in 0..ns {
                    let direct: f64 = (0..ns)
                        .filter(|&y| mask >> y & 1 == 1)
                        .map(|y| pm.get(c, x, y))
                        .sum();
                    let got = lut[(code * 2 + c) * ns + x];
                    assert!((got - direct).abs() < 1e-13, "ns={ns} {got} vs {direct}");
                }
            }
        }
    }

    #[test]
    fn codes_round_trip_at_dna_protein_codon_widths() {
        // DNA (4 states), including ambiguity codes.
        let dna = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("a".into(), "ACGTRN-".into()),
                ("b".into(), "AYGTAGC".into()),
            ],
        )
        .unwrap();
        check_roundtrip_and_lut(&compress_patterns(&dna), &ReversibleModel::jc69());

        // Protein (20 states), including 'X' and gaps.
        let prot = Alignment::from_chars(
            Alphabet::Protein,
            &[
                ("a".into(), "ARNDCQEGHX-".into()),
                ("b".into(), "ILKMFPSTWYV".into()),
            ],
        )
        .unwrap();
        check_roundtrip_and_lut(
            &compress_patterns(&prot),
            &phylo_models::protein::synthetic_protein(7),
        );

        // Codon (61 states) via triplet re-encoding, including an
        // ambiguous third position and an all-gap codon (all-61 mask,
        // exercising bits up to index 60).
        let codons = Alignment::from_chars(
            Alphabet::Dna,
            &[
                ("a".into(), "ATGGCNTAY---".into()),
                ("b".into(), "ATGTTTGGGCCA".into()),
            ],
        )
        .unwrap()
        .to_codons()
        .unwrap();
        assert_eq!(codons.alphabet().n_states(), 61);
        check_roundtrip_and_lut(
            &compress_patterns(&codons),
            &phylo_models::codon::synthetic_codon(7),
        );
    }

    #[test]
    fn eigen_lut_replicates_across_categories() {
        let tc = toy_codes();
        let model = ReversibleModel::jc69();
        let eigen = model.eigen();
        let gamma = DiscreteGamma::new(1.0, 4);
        let mut lut = Vec::new();
        tc.build_eigen_lut(&eigen, &gamma, model.freqs(), &mut lut);
        for code in 0..tc.n_codes() {
            let base = code * 4 * 4;
            for c in 1..4 {
                for k in 0..4 {
                    assert_eq!(lut[base + k], lut[base + c * 4 + k]);
                }
            }
        }
    }
}
