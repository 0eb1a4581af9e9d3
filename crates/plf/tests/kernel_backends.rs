//! Engine-level backend equivalence: the same dataset evaluated with
//! every kernel backend that runs on this machine must produce the same
//! log-likelihood (AVX2+FMA within 1e-13 relative), and an engine of
//! several blocks must stay bit-identical to the serial engine for any
//! fixed backend.

use phylo_models::{DiscreteGamma, ReversibleModel};
use phylo_plf::{InRamStore, KernelBackend, PartLayout, PlfEngine};
use phylo_seq::{compress_patterns, simulate_alignment, CompressedAlignment};
use phylo_tree::build::{random_topology, yule_like_lengths};
use phylo_tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(
    n_taxa: usize,
    n_sites: usize,
    seed: u64,
) -> (Tree, CompressedAlignment, ReversibleModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = random_topology(n_taxa, 0.1, &mut rng);
    yule_like_lengths(&mut tree, 0.15, 1e-5, &mut rng);
    let model = ReversibleModel::hky85(2.5, &[0.3, 0.2, 0.2, 0.3]);
    let gamma = DiscreteGamma::new(0.8, 4);
    let aln = simulate_alignment(&tree, &model, &gamma, n_sites, &mut rng);
    (tree, compress_patterns(&aln), model)
}

fn serial(
    tree: &Tree,
    comp: &CompressedAlignment,
    model: &ReversibleModel,
) -> PlfEngine<InRamStore> {
    let dims = PlfEngine::<InRamStore>::dims_for(comp, 4);
    PlfEngine::new(
        tree.clone(),
        comp,
        model.clone(),
        0.8,
        4,
        InRamStore::new(tree.n_inner(), dims.width()),
    )
}

fn sharded(
    tree: &Tree,
    comp: &CompressedAlignment,
    model: &ReversibleModel,
    k: usize,
) -> PlfEngine<InRamStore> {
    let stores = PlfEngine::<InRamStore>::block_dims(comp, 4, k)
        .iter()
        .map(|d| InRamStore::new(tree.n_inner(), d.width()))
        .collect();
    let layout = PartLayout {
        comp,
        model,
        stores,
        recorder: None,
    };
    PlfEngine::with_layout(tree.clone(), vec![layout], 0.8, 4)
}

/// Backends that run their own code path for DNA/Γ4 on this machine.
fn live_backends() -> Vec<KernelBackend> {
    let dims = phylo_plf::kernels::Dims {
        n_patterns: 1,
        n_states: 4,
        n_cats: 4,
    };
    KernelBackend::ALL
        .iter()
        .copied()
        .filter(|b| b.effective(&dims) == *b)
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-13 * a.abs().max(b.abs())
}

#[test]
fn serial_engine_backends_agree() {
    let (tree, comp, model) = dataset(24, 400, 7);
    let mut engine = serial(&tree, &comp, &model);
    engine.set_kernel(KernelBackend::Scalar);
    let want = engine.log_likelihood().unwrap();
    let want_sites = engine.site_lnl().to_vec();
    assert!(want.is_finite() && want < 0.0);

    for backend in live_backends() {
        engine.set_kernel(backend);
        assert_eq!(engine.kernel(), backend);
        let got = engine.log_likelihood().unwrap();
        assert!(
            close(got, want),
            "{}: {got} vs scalar {want}",
            backend.name()
        );
        for (i, (&g, &w)) in engine.site_lnl().iter().zip(want_sites.iter()).enumerate() {
            assert!(close(g, w), "{} site {i}: {g} vs {w}", backend.name());
        }
    }
}

#[test]
fn branch_optimisation_backends_agree() {
    let (tree, comp, model) = dataset(16, 240, 11);
    let mut results = Vec::new();
    for backend in live_backends() {
        let mut engine = serial(&tree, &comp, &model);
        engine.set_kernel(backend);
        engine.log_likelihood().unwrap();
        let lnl = engine.smooth_branches(2, 8).unwrap();
        results.push((backend, lnl));
    }
    let (_, want) = results[0];
    for &(backend, got) in &results[1..] {
        // Newton steps amplify last-ulp differences slightly; the
        // optimised likelihoods must still agree to ~1e-10 relative.
        assert!(
            (got - want).abs() <= 1e-10 * want.abs(),
            "{}: optimised lnl {got} vs {want}",
            backend.name()
        );
    }
}

#[test]
fn sharded_matches_serial_for_every_backend() {
    let (tree, comp, model) = dataset(20, 300, 23);
    for backend in live_backends() {
        let mut eng = serial(&tree, &comp, &model);
        eng.set_kernel(backend);
        let want = eng.log_likelihood().unwrap();
        for k in [2usize, 3] {
            let mut sh = sharded(&tree, &comp, &model, k);
            sh.set_kernel(backend);
            assert_eq!(sh.kernel(), backend);
            let got = sh.log_likelihood().unwrap();
            assert_eq!(
                got,
                want,
                "{} with {k} shards must be bit-identical to serial",
                backend.name()
            );
        }
    }
}
