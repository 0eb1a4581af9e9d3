//! The simulated dataset every workload runs on: a random topology with
//! Yule-like branch lengths and an HKY85+Γ4 alignment drawn on it, all
//! from one seed. The engines only ever see the tree and the alignment.

use crate::spec::{Geometry, ALPHA, MEAN_BRANCH, N_CATS};
use phylo_models::{DiscreteGamma, ReversibleModel};
use phylo_plf::{InRamStore, PartSpec, PlfEngine};
use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment};
use phylo_tree::build::{random_topology, yule_like_lengths};
use phylo_tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct Dataset {
    pub tree: Tree,
    pub comp: CompressedAlignment,
    pub model: ReversibleModel,
}

impl Dataset {
    /// Same recipe as the repository's `setup::simulate_dataset`.
    pub fn simulate(geom: &Geometry, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = random_topology(geom.n_taxa, 0.1, &mut rng);
        yule_like_lengths(&mut tree, MEAN_BRANCH, 1e-5, &mut rng);
        let model = ReversibleModel::hky85(2.5, &[0.3, 0.2, 0.2, 0.3]);
        let gamma = DiscreteGamma::new(ALPHA, N_CATS);
        let aln = simulate_alignment(&tree, &model, &gamma, geom.n_sites, &mut rng);
        Dataset {
            tree,
            comp: compress_patterns(&aln),
            model,
        }
    }

    pub fn n_patterns(&self) -> usize {
        self.comp.n_patterns()
    }

    /// Managed vectors (inner nodes).
    pub fn n_items(&self) -> usize {
        self.tree.n_inner()
    }

    /// Vector width in `f64`s.
    pub fn width(&self) -> usize {
        PlfEngine::<InRamStore>::dims_for(&self.comp, N_CATS).width()
    }

    pub fn total_vector_bytes(&self) -> u64 {
        (self.n_items() * self.width() * 8) as u64
    }

    /// The dataset as the one partition `EngineSpec::build` takes.
    pub fn parts(&self) -> [PartSpec<'_>; 1] {
        [PartSpec {
            name: String::new(),
            comp: &self.comp,
            model: &self.model,
        }]
    }

    /// An in-RAM engine on `tree`: the reference every unit is held to.
    pub fn inram_engine(&self, tree: &Tree) -> PlfEngine<InRamStore> {
        PlfEngine::new(
            tree.clone(),
            &self.comp,
            self.model.clone(),
            ALPHA,
            N_CATS,
            InRamStore::new(self.n_items(), self.width()),
        )
    }
}
