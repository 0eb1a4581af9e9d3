//! Property-based tests for sequence encoding, I/O round-trips and site
//! pattern compression.

use phylo_seq::alphabet::unpack_dna;
use phylo_seq::phylip::{read_phylip, write_phylip};
use phylo_seq::{compress_patterns, pack_dna, Alignment, Alphabet};
use proptest::prelude::*;
use std::io::BufReader;

const DNA_CHARS: &[u8] = b"ACGTRYSWKMBDHVN-";

fn arb_alignment() -> impl Strategy<Value = Alignment> {
    (2usize..10, 1usize..60).prop_flat_map(|(n_seqs, n_sites)| {
        proptest::collection::vec(
            proptest::collection::vec(0usize..DNA_CHARS.len(), n_sites),
            n_seqs,
        )
        .prop_map(move |rows| {
            let entries: Vec<(String, String)> = rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let seq: String = row.iter().map(|&c| DNA_CHARS[c] as char).collect();
                    (format!("s{i}"), seq)
                })
                .collect();
            Alignment::from_chars(Alphabet::Dna, &entries).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_encode_is_stable(aln in arb_alignment()) {
        // decode -> re-encode must reproduce the masks exactly (characters
        // may canonicalise, e.g. '-' -> 'N', but masks cannot change).
        for i in 0..aln.n_seqs() {
            let chars = aln.seq_chars(i);
            let re = Alignment::from_chars(
                Alphabet::Dna,
                &[("x".into(), chars)],
            ).unwrap();
            prop_assert_eq!(re.seq(0), aln.seq(i));
        }
    }

    #[test]
    fn phylip_roundtrip(aln in arb_alignment()) {
        let mut pbuf = Vec::new();
        write_phylip(&mut pbuf, &aln).unwrap();
        let p = read_phylip(BufReader::new(&pbuf[..]), Alphabet::Dna).unwrap();
        prop_assert_eq!(p.n_seqs(), aln.n_seqs());
        for i in 0..aln.n_seqs() {
            prop_assert_eq!(p.seq(i), aln.seq(i));
        }
    }

    #[test]
    fn compression_invariants(aln in arb_alignment()) {
        let comp = compress_patterns(&aln);
        // Total weight equals the original length.
        prop_assert_eq!(comp.total_weight(), aln.n_sites() as u64);
        prop_assert_eq!(comp.site_to_pattern.len(), aln.n_sites());
        prop_assert!(comp.n_patterns() <= aln.n_sites());
        // Reconstructing each original column from its pattern is exact.
        for (site, &pat) in comp.site_to_pattern.iter().enumerate() {
            for s in 0..aln.n_seqs() {
                prop_assert_eq!(aln.seq(s)[site], comp.alignment.seq(s)[pat as usize]);
            }
        }
        // Patterns are pairwise distinct.
        for a in 0..comp.n_patterns() {
            for b in (a + 1)..comp.n_patterns() {
                let same = (0..aln.n_seqs())
                    .all(|s| comp.alignment.seq(s)[a] == comp.alignment.seq(s)[b]);
                prop_assert!(!same, "patterns {a} and {b} identical");
            }
        }
    }

    #[test]
    fn pack_unpack_any_masks(masks in proptest::collection::vec(1u64..16, 0..100)) {
        let packed = pack_dna(&masks);
        prop_assert_eq!(packed.len(), masks.len().div_ceil(8));
        prop_assert_eq!(unpack_dna(&packed, masks.len()), masks);
    }

    #[test]
    fn empirical_freqs_are_a_distribution(aln in arb_alignment()) {
        let f = aln.empirical_freqs();
        prop_assert_eq!(f.len(), 4);
        prop_assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert!(f.iter().all(|&x| x > 0.0));
    }
}
