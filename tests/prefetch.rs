//! The §5 future-work extension wired into the full engine: a prefetch
//! thread behind the backing store.

use phylo_ooc::ooc::{FileStore, OocConfig, PrefetchingStore, StrategyKind, VectorManager};
use phylo_ooc::plf::{OocStore, PlfEngine};
use phylo_ooc::setup::{self, DatasetSpec};
use std::sync::atomic::Ordering;

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
    let store = PrefetchingStore::new(main, worker, data.n_items(), data.width(0));

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
    // Mix of traversals and smoothing; prefetch hints flow from the
    // submitted AccessPlan through the plan cursor's lookahead window
    // (submit_plan -> begin_plan -> store.hint) on every traversal.
    let lnl = engine.full_traversals(3).unwrap();
    assert_eq!(lnl.to_bits(), reference.to_bits());
    engine.smooth_branches(1, 8).unwrap();
    let partial = engine.log_likelihood().unwrap();
    engine.invalidate_all();
    let full = engine.log_likelihood().unwrap();
    assert_eq!(partial.to_bits(), full.to_bits());
}

#[test]
fn prefetch_thread_actually_stages_reads() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("vectors.bin");
    let main = FileStore::create(&path, data.n_items(), data.width(0)).unwrap();
    let worker = FileStore::open(&path, data.width(0)).unwrap();
    let store = PrefetchingStore::new(main, worker, data.n_items(), data.width(0));

    let cfg = OocConfig::builder(data.n_items(), data.width(0))
        .fraction(0.2)
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
    // Smoothing passes generate many partial traversals whose upcoming
    // reads are hinted ahead of time.
    engine.smooth_branches(2, 8).unwrap();
    let stats = engine.store().manager().store().stats();
    let prefetched = stats.prefetched.load(Ordering::Relaxed);
    let hits = stats.staged_hits.load(Ordering::Relaxed);
    assert!(
        prefetched > 0,
        "worker thread should have completed some prefetches"
    );
    // Timing-dependent, but across two smoothing passes at least some
    // demand reads should land in the staging cache.
    assert!(
        hits > 0,
        "no staged hits at all (prefetched = {prefetched})"
    );
}
