//! The write-behind queue wired into the full engine: a worker thread
//! behind the backing store.

use phylo_ooc::ooc::{FileStore, OocConfig, PrefetchingStore, StrategyKind, VectorManager};
use phylo_ooc::plf::{OocStore, PlfEngine};
use phylo_ooc::setup::{self, DatasetSpec};

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 40,
        n_sites: 200,
        seed: 99,
        ..Default::default()
    }
}

#[test]
fn prefetching_store_is_transparent() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data).full_traversals(3).unwrap();

    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("vectors.bin");
    let main = FileStore::create(&path, data.n_items(), data.width(0)).unwrap();
    let worker = FileStore::open(&path, data.width(0)).unwrap();
    let store = PrefetchingStore::with_pool(main, vec![worker], data.n_items(), data.width(0));

    let cfg = OocConfig::builder(data.n_items(), data.width(0))
        .fraction(0.25)
        .build()
        .expect("valid out-of-core config");
    let manager = VectorManager::new(cfg, StrategyKind::Lru.build(None), store);
    let mut engine = PlfEngine::new(
        data.tree.clone(),
        data.comp(),
        data.model().clone(),
        data.alpha,
        data.n_cats,
        OocStore::new(manager),
    );
    // Mix of traversals and smoothing: evictions are written behind the
    // kernels, reloads come from the queue or from the file.
    let lnl = engine.full_traversals(3).unwrap();
    assert_eq!(lnl.to_bits(), reference.to_bits());
    engine.smooth_branches(1, 8).unwrap();
    let partial = engine.log_likelihood().unwrap();
    engine.invalidate_all();
    let full = engine.log_likelihood().unwrap();
    assert_eq!(partial.to_bits(), full.to_bits());
}
