//! Molecular sequences and alignments.
//!
//! Supplies the data the PLF consumes at the tips of the tree:
//!
//! * nucleotide and amino-acid alphabets with the full IUPAC ambiguity-code
//!   bit encoding ([`alphabet`]) — the paper notes that one 32-bit integer
//!   can store 8 ambiguity-encoded nucleotides; [`alphabet::pack_dna`]
//!   implements exactly that packing,
//! * the multiple-sequence-alignment container ([`alignment`]),
//! * a relaxed PHYLIP reader/writer ([`phylip`]),
//! * site-pattern compression with column weights ([`compress`]),
//! * a sequence simulator ([`simulate`]) standing in for INDELible: it
//!   evolves sites along a tree under any reversible model with discrete-Γ
//!   rate heterogeneity, which is how the paper generated its large
//!   (8192-taxon, up to 32 GB) test datasets.

pub mod alignment;
pub mod alphabet;
pub mod compress;
pub mod partition;
pub mod phylip;
pub mod simulate;

pub use alignment::Alignment;
pub use alphabet::{encode_codon, pack_dna, Alphabet, SiteMask};
pub use compress::{compress_patterns, CompressedAlignment};
pub use partition::{PartitionDef, PartitionKind, PartitionSpec};
pub use simulate::simulate_alignment;
