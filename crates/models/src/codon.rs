//! 61-state codon models (Goldman–Yang 1994 style).
//!
//! Codons are the 61 sense triplets of the universal genetic code — the 64
//! nucleotide triplets minus the stop codons TAA, TAG and TGA. The state
//! ordering is canonical for the whole workspace: triplets enumerated
//! lexicographically over nucleotide indices A=0, C=1, G=2, T=3 (the same
//! bit order as the DNA alphabet), with stops skipped. The sequence layer
//! re-uses [`CODON_STATE_OF`] so tip masks and model rows always agree.
//!
//! The GY94 generator is reversible with exchangeabilities that are *zero*
//! for any pair of codons differing at more than one nucleotide position,
//! `kappa`-scaled for transitions and `omega`-scaled for non-synonymous
//! changes; everything downstream (π-symmetrised eigendecomposition,
//! [`crate::PMatrices`]) is the same machinery DNA and protein models use.

use crate::dna::{n_exchangeabilities, ReversibleModel};

/// Number of sense codons in the universal genetic code.
pub const N_CODONS: usize = 61;

/// Amino acid translation of all 64 triplets, indexed `a·16 + b·4 + c`
/// with nucleotide indices A=0, C=1, G=2, T=3. `*` marks stop codons.
pub const GENETIC_CODE: &[u8; 64] =
    b"KNKNTTTTRSRSIIMIQHQHPPPPRRRRLLLLEDEDAAAAGGGGVVVV*Y*YSSSS*CWCLFLF";

/// Is packed triplet index `t` (`a·16 + b·4 + c`) a stop codon?
#[inline]
pub const fn is_stop_triplet(t: usize) -> bool {
    GENETIC_CODE[t] == b'*'
}

/// The 61 sense codons as nucleotide-index triplets, in canonical state
/// order.
pub const CODONS: [[u8; 3]; N_CODONS] = {
    let mut out = [[0u8; 3]; N_CODONS];
    let mut i = 0;
    let mut t = 0;
    while t < 64 {
        if !is_stop_triplet(t) {
            out[i] = [(t >> 4) as u8, ((t >> 2) & 3) as u8, (t & 3) as u8];
            i += 1;
        }
        t += 1;
    }
    out
};

/// Amino acid (one-letter code) encoded by each sense codon state.
pub const CODON_AA: [u8; N_CODONS] = {
    let mut out = [0u8; N_CODONS];
    let mut i = 0;
    let mut t = 0;
    while t < 64 {
        if !is_stop_triplet(t) {
            out[i] = GENETIC_CODE[t];
            i += 1;
        }
        t += 1;
    }
    out
};

/// Map from packed triplet index (`a·16 + b·4 + c`) to codon state, or
/// `0xFF` for stop codons.
pub const CODON_STATE_OF: [u8; 64] = {
    let mut out = [0xFFu8; 64];
    let mut i = 0;
    let mut t = 0;
    while t < 64 {
        if !is_stop_triplet(t) {
            out[t] = i as u8;
            i += 1;
        }
        t += 1;
    }
    out
};

/// Is the unordered nucleotide pair `{x, y}` a transition (A↔G or C↔T)?
#[inline]
fn is_transition(x: u8, y: u8) -> bool {
    matches!((x, y), (0, 2) | (2, 0) | (1, 3) | (3, 1))
}

/// Build a GY94-style codon model: exchangeability between codons `i < j`
/// is zero if they differ at more than one position, else
/// `kappa`^\[transition\] · `omega`^\[non-synonymous\]. `freqs` are the 61
/// codon frequencies (renormalised internally).
pub fn gy94(kappa: f64, omega: f64, freqs: &[f64]) -> ReversibleModel {
    assert!(kappa > 0.0 && omega > 0.0);
    assert_eq!(freqs.len(), N_CODONS);
    let mut exch = vec![0.0; n_exchangeabilities(N_CODONS)];
    let mut idx = 0;
    for i in 0..N_CODONS {
        for j in (i + 1)..N_CODONS {
            let (a, b) = (CODONS[i], CODONS[j]);
            let mut diff_pos = None;
            let mut n_diff = 0;
            for p in 0..3 {
                if a[p] != b[p] {
                    n_diff += 1;
                    diff_pos = Some(p);
                }
            }
            if n_diff == 1 {
                let p = diff_pos.unwrap();
                let mut rate = if is_transition(a[p], b[p]) {
                    kappa
                } else {
                    1.0
                };
                if CODON_AA[i] != CODON_AA[j] {
                    rate *= omega;
                }
                exch[idx] = rate;
            }
            idx += 1;
        }
    }
    ReversibleModel::new(freqs, &exch)
}

/// GY94 with uniform codon frequencies (the "F0" parameterisation).
pub fn gy94_uniform(kappa: f64, omega: f64) -> ReversibleModel {
    gy94(kappa, omega, &[1.0 / N_CODONS as f64; N_CODONS])
}

/// A deterministic pseudo-random GY94 model (splitmix64-perturbed codon
/// frequencies), for tests and codon-sized benchmarks — the 61-state
/// analogue of [`crate::protein::synthetic_protein`].
pub fn synthetic_codon(seed: u64) -> ReversibleModel {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        0.05 + (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let kappa = 1.0 + 3.0 * next();
    let omega = 0.1 + next();
    let freqs: Vec<f64> = (0..N_CODONS).map(|_| next()).collect();
    gy94(kappa, omega, &freqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codon_tables_are_consistent() {
        assert_eq!(CODONS.len(), 61);
        // The three stops are absent from the state map.
        let stop = |s: &str| {
            let b = s.as_bytes();
            let idx = |c: u8| match c {
                b'A' => 0usize,
                b'C' => 1,
                b'G' => 2,
                b'T' => 3,
                _ => unreachable!(),
            };
            idx(b[0]) * 16 + idx(b[1]) * 4 + idx(b[2])
        };
        for s in ["TAA", "TAG", "TGA"] {
            assert_eq!(CODON_STATE_OF[stop(s)], 0xFF, "{s} must be a stop");
        }
        // Every sense codon round-trips through the state map.
        for (state, c) in CODONS.iter().enumerate() {
            let t = c[0] as usize * 16 + c[1] as usize * 4 + c[2] as usize;
            assert_eq!(CODON_STATE_OF[t] as usize, state);
        }
        // ATG (Met) translates to M.
        let atg = CODON_STATE_OF[stop("ATG")] as usize;
        assert_eq!(CODON_AA[atg], b'M');
    }

    #[test]
    fn gy94_zero_rates_for_multi_nucleotide_changes() {
        let m = gy94_uniform(2.0, 0.5);
        // AAA (state for [0,0,0]) vs ACC differ at two positions.
        let aaa = CODON_STATE_OF[0] as usize;
        let acc = CODON_STATE_OF[4 + 1] as usize; // triplet (A,C,C) = 0*16 + 1*4 + 1
        assert_eq!(m.exch(aaa, acc), 0.0);
        // AAA vs AAG (K vs K, synonymous transition) has rate kappa.
        let aag = CODON_STATE_OF[2] as usize;
        assert_eq!(m.exch(aaa, aag), 2.0);
        // AAA (K) vs AAC (N): non-synonymous transversion, rate omega.
        let aac = CODON_STATE_OF[1] as usize;
        assert_eq!(m.exch(aaa, aac), 0.5);
    }

    #[test]
    fn gy94_q_rows_sum_to_zero_and_balance() {
        let m = synthetic_codon(5);
        let q = m.q_matrix();
        for i in 0..N_CODONS {
            let s: f64 = (0..N_CODONS).map(|j| q[(i, j)]).sum();
            assert!(s.abs() < 1e-10, "row {i} sums to {s}");
        }
        for i in 0..N_CODONS {
            for j in 0..N_CODONS {
                let lhs = m.freqs()[i] * q[(i, j)];
                let rhs = m.freqs()[j] * q[(j, i)];
                assert!((lhs - rhs).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gy94_eigendecomposition_reconstructs_p() {
        // P(t) rows must sum to one and be non-negative for the 61-state
        // model, exercising the eigen machinery at codon width.
        let m = gy94_uniform(2.0, 0.3);
        let eigen = m.eigen();
        let mut p = vec![0.0; N_CODONS * N_CODONS];
        eigen.transition_matrix(0.2, 1.0, &mut p);
        for i in 0..N_CODONS {
            let row = &p[i * N_CODONS..(i + 1) * N_CODONS];
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-8, "row {i} sums to {s}");
            assert!(row.iter().all(|&x| x > -1e-10));
        }
    }

    #[test]
    fn synthetic_codon_is_deterministic() {
        assert_eq!(synthetic_codon(3), synthetic_codon(3));
        assert_ne!(synthetic_codon(3), synthetic_codon(4));
    }
}
