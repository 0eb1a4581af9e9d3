//! # phylo-ooc — Computing the Phylogenetic Likelihood Function Out-of-Core
//!
//! A from-scratch Rust reproduction of Izquierdo-Carrasco & Stamatakis
//! (2011): the phylogenetic likelihood function (PLF) executed with its
//! dominant data structure — the ancestral probability vectors — paged
//! explicitly between RAM and disk, instead of relying on OS paging.
//!
//! The workspace splits into substrate crates, re-exported here:
//!
//! * [`tree`] — unrooted binary trees, Newick, traversal planning, SPR/NNI,
//! * [`models`] — GTR-family substitution models, discrete Γ, eigen maths,
//! * [`seq`] — alignments, FASTA/PHYLIP, pattern compression, simulation,
//! * [`ooc`] — **the paper's contribution**: the out-of-core vector
//!   manager with Random/LRU/LFU/Topological replacement, pinning and
//!   read skipping,
//! * [`plf`] — the likelihood engine, generic over in-RAM / out-of-core /
//!   OS-paged vector residency,
//! * [`search`] — lazy-SPR hill climbing (the realistic access pattern),
//! * [`pager`] — the OS-paging baseline simulator.
//!
//! On top of them this crate keeps three small modules: [`setup`] — the
//! one dataset shape (p ≥ 1 partitions over a tree) and its simulator;
//! [`run`] — the one run path above `EngineSpec::build` that the CLI, the
//! service and the benchmarks share; [`args`] — the flag tables and strict
//! parser of the `phylo-ooc` and `ooc-bench` subcommands.
//!
//! ## Quickstart
//!
//! ```
//! use phylo_ooc::plf::{EngineSpec, LikelihoodEngine, Residency};
//! use phylo_ooc::run::{run, Job};
//! use phylo_ooc::setup::{self, DatasetSpec};
//!
//! // Simulate a small dataset; declare the engine instead of picking a
//! // constructor: residency, strategy, shards etc. are orthogonal axes.
//! let spec = DatasetSpec { n_taxa: 16, n_sites: 200, seed: 7, ..Default::default() };
//! let data = setup::simulate_dataset(&spec);
//! let mut standard = setup::inram_engine(&data);
//! let ooc_spec = EngineSpec {
//!     residency: Residency::OocMem { fraction: 0.25 },
//!     ..setup::base_spec(&data)
//! };
//! // (Likelihood methods return Result: store I/O can fail.)
//! let ooc = run(Job::new(&ooc_spec, &data), |engine, _| {
//!     engine.log_likelihood().map_err(|e| e.to_string())
//! })
//! .unwrap();
//!
//! // The paper's correctness criterion: identical likelihoods.
//! assert_eq!(standard.log_likelihood().unwrap(), ooc.value);
//! let stats = ooc.stats.expect("out-of-core runs report their counters");
//! assert!(stats.misses > 0, "with f = 0.25 there must be misses");
//! ```

pub use ooc_core as ooc;
pub use pager_sim as pager;
pub use phylo_models as models;
pub use phylo_plf as plf;
pub use phylo_search as search;
pub use phylo_seq as seq;
pub use phylo_tree as tree;

pub mod args;
pub mod run;

pub mod setup {
    //! Canonical experiment setups shared by examples, tests and benches.

    use phylo_models::{DiscreteGamma, ReversibleModel};
    use phylo_plf::{AncestralStore, EngineSpec, InRamStore, PagedStore, PartSpec, PlfEngine};
    use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment, PartitionKind};
    use phylo_tree::build::{random_topology, yule_like_lengths};
    use phylo_tree::Tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::Path;

    /// Parameters of a simulated dataset (the stand-in for the paper's
    /// real rbcL alignments and INDELible simulations).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DatasetSpec {
        /// Number of taxa (tree tips).
        pub n_taxa: usize,
        /// Alignment length in sites.
        pub n_sites: usize,
        /// RNG seed for topology, branch lengths and sequences.
        pub seed: u64,
        /// Γ shape used for simulation and as the engine's starting α.
        pub alpha: f64,
        /// Γ categories (the paper always uses 4).
        pub n_cats: usize,
        /// Mean branch length of the random tree.
        pub mean_branch: f64,
        /// `(kind, n_sites)` per partition (codon partitions count codon
        /// sites, not nucleotides), named `p<i>_<kind>`; empty means one
        /// unnamed DNA block of `n_sites`.
        pub parts: Vec<(PartitionKind, usize)>,
    }

    impl Default for DatasetSpec {
        fn default() -> Self {
            DatasetSpec {
                n_taxa: 32,
                n_sites: 300,
                seed: 42,
                alpha: 0.8,
                n_cats: 4,
                mean_branch: 0.12,
                parts: Vec::new(),
            }
        }
    }

    /// One block of a dataset: a named data partition with its own
    /// alphabet and model over the shared tree.
    pub struct Part {
        /// Partition name — its metrics scope; empty for the one block of
        /// an unpartitioned dataset.
        pub name: String,
        /// Data type.
        pub kind: PartitionKind,
        /// Pattern-compressed alignment of this partition's columns.
        pub comp: CompressedAlignment,
        /// The partition's substitution model.
        pub model: ReversibleModel,
    }

    /// A dataset: p ≥ 1 data blocks over one tree. A single-gene analysis
    /// is the p = 1 case with the empty name.
    pub struct Dataset {
        /// The shared tree (the true tree, for simulated data).
        pub tree: Tree,
        /// The partitions, in spec order.
        pub parts: Vec<Part>,
        /// Shared Γ shape used for simulation and as the engines' starting α.
        pub alpha: f64,
        /// Γ categories.
        pub n_cats: usize,
    }

    impl Dataset {
        fn only(&self) -> &Part {
            assert_eq!(self.parts.len(), 1, "dataset has several partitions");
            &self.parts[0]
        }

        /// The alignment of a single-partition dataset.
        pub fn comp(&self) -> &CompressedAlignment {
            &self.only().comp
        }

        /// The model of a single-partition dataset.
        pub fn model(&self) -> &ReversibleModel {
            &self.only().model
        }

        /// Vector width in doubles of partition `i`'s engines.
        pub fn width(&self, i: usize) -> usize {
            PlfEngine::<InRamStore>::dims_for(&self.parts[i].comp, self.n_cats).width()
        }

        /// Number of managed vectors per partition (= inner nodes).
        pub fn n_items(&self) -> usize {
            self.tree.n_inner()
        }

        /// Total ancestral-vector bytes of partition `i` (its weight when
        /// splitting a joint `-L` byte budget via
        /// [`ooc_core::split_budget`]).
        pub fn partition_vector_bytes(&self, i: usize) -> u64 {
            self.n_items() as u64 * self.width(i) as u64 * 8
        }

        /// Bytes required to hold all ancestral vectors (the paper's
        /// memory-requirement formula `(n-2) · 8 · states · cats · s`,
        /// summed over partitions).
        pub fn total_vector_bytes(&self) -> u64 {
            (0..self.parts.len())
                .map(|i| self.partition_vector_bytes(i))
                .sum()
        }
    }

    /// The default model family for a partition kind: HKY85 for DNA (the
    /// paper's model class), a seeded synthetic reversible model for
    /// protein (20-state) and codon (61-state) partitions.
    pub fn default_partition_model(kind: PartitionKind, seed: u64) -> ReversibleModel {
        match kind {
            PartitionKind::Dna => ReversibleModel::hky85(2.5, &[0.3, 0.2, 0.2, 0.3]),
            PartitionKind::Protein => phylo_models::protein::synthetic_protein(seed),
            PartitionKind::Codon => phylo_models::codon::synthetic_codon(seed),
        }
    }

    /// Simulate a dataset per `spec`: one random tree, then each
    /// partition's sites evolved independently on it under that
    /// partition's own model (HKY85+Γ for DNA, the class of model used in
    /// the paper's experiments). An empty [`DatasetSpec::parts`] is one
    /// unnamed DNA block of `n_sites`.
    pub fn simulate_dataset(spec: &DatasetSpec) -> Dataset {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut tree = random_topology(spec.n_taxa, 0.1, &mut rng);
        yule_like_lengths(&mut tree, spec.mean_branch, 1e-5, &mut rng);
        let gamma = DiscreteGamma::new(spec.alpha, spec.n_cats);
        let whole = [(PartitionKind::Dna, spec.n_sites)];
        let (layout, named) = match spec.parts.as_slice() {
            [] => (&whole[..], false),
            parts => (parts, true),
        };
        let block = |(i, &(kind, n_sites)): (usize, &(PartitionKind, usize))| {
            let model = default_partition_model(kind, spec.seed ^ (i as u64 + 1));
            let aln = simulate_alignment(&tree, &model, &gamma, n_sites, &mut rng);
            let name = if named {
                format!("p{i}_{}", kind.keyword().to_ascii_lowercase())
            } else {
                String::new()
            };
            Part {
                name,
                kind,
                comp: compress_patterns(&aln),
                model,
            }
        };
        let parts = layout.iter().enumerate().map(block).collect();
        Dataset {
            tree,
            parts,
            alpha: spec.alpha,
            n_cats: spec.n_cats,
        }
    }

    /// A serial engine over `store` on a single-partition dataset's tree.
    fn serial_engine<S: AncestralStore>(data: &Dataset, store: S) -> PlfEngine<S> {
        let model = data.model().clone();
        let (alpha, n_cats) = (data.alpha, data.n_cats);
        PlfEngine::new(data.tree.clone(), data.comp(), model, alpha, n_cats, store)
    }

    /// Standard (all vectors in RAM) engine on a single-partition
    /// dataset's tree.
    pub fn inram_engine(data: &Dataset) -> PlfEngine<InRamStore> {
        serial_engine(data, InRamStore::new(data.n_items(), data.width(0)))
    }

    /// The dataset as [`PartSpec`]s for [`EngineSpec::build`].
    pub fn part_specs(data: &Dataset) -> Vec<PartSpec<'_>> {
        data.parts
            .iter()
            .map(|p| PartSpec {
                name: p.name.clone(),
                comp: &p.comp,
                model: &p.model,
            })
            .collect()
    }

    /// An [`EngineSpec`] seeded with the dataset's α and Γ categories;
    /// override residency/strategy/shards via struct update syntax.
    pub fn base_spec(data: &Dataset) -> EngineSpec {
        EngineSpec {
            alpha: data.alpha,
            n_cats: data.n_cats,
            ..EngineSpec::default()
        }
    }

    /// Standard engine whose vectors live in a demand-paged arena with
    /// `phys_bytes` of physical memory (the Figure 5 paging baseline).
    /// Fails if the swap file cannot be created.
    pub fn paged_engine<P: AsRef<Path>>(
        data: &Dataset,
        swap_path: P,
        phys_bytes: usize,
    ) -> std::io::Result<PlfEngine<PagedStore>> {
        let arena =
            pager_sim::PagedArena::new(data.total_vector_bytes() as usize, phys_bytes, swap_path)?;
        let store = PagedStore::new(arena, data.n_items(), data.width(0));
        Ok(serial_engine(data, store))
    }
}

#[cfg(test)]
mod tests {
    use super::run::{run, Job};
    use super::setup::{self, DatasetSpec};
    use ooc_core::StrategyKind;
    use phylo_plf::{EngineSpec, LikelihoodEngine, Residency};

    #[test]
    fn facade_quickstart_works() {
        let spec = DatasetSpec {
            n_taxa: 10,
            n_sites: 80,
            seed: 3,
            ..Default::default()
        };
        let data = setup::simulate_dataset(&spec);
        let mut standard = setup::inram_engine(&data);
        let ooc_spec = EngineSpec {
            residency: Residency::OocMem { fraction: 0.5 },
            strategy: StrategyKind::Random { seed: 1 },
            ..setup::base_spec(&data)
        };
        let ooc = run(Job::new(&ooc_spec, &data), |engine, _| {
            engine.log_likelihood().map_err(|e| e.to_string())
        })
        .unwrap();
        assert_eq!(standard.log_likelihood().unwrap(), ooc.value);
    }

    #[test]
    fn memory_formula_matches_paper_example() {
        // Paper §3.1: s = 10,000 DNA sites under Γ4 -> each vector
        // 10,000 · 16 · 8 B = 1.28 MB (patterns may compress below s; the
        // formula is for the uncompressed width).
        let width = 10_000usize * 4 * 4;
        assert_eq!(width * 8, 1_280_000);
    }
}
