//! Pipeline stress suite: the plan-driven double-buffered I/O pipeline
//! must be a pure latency optimisation. Sweeping lookahead window sizes,
//! I/O thread counts and replacement strategies — with and without
//! injected worker-store faults — every configuration must produce
//! likelihoods bit-identical to the in-RAM reference, and the residency
//! statistics must stay internally consistent.

mod common;

use phylo_ooc::ooc::{
    FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule, FileStore, OocConfig, OocStats,
    PrefetchingStore, StrategyKind, VectorManager,
};
use phylo_ooc::plf::{LikelihoodEngine, OocStore, PlfEngine};
use phylo_ooc::setup::{self, DatasetSpec};
use std::path::Path;

/// Window sizes to sweep: 0 disables plan streaming entirely (pure
/// demand paging through the pipeline's write-fold path), 1 is the
/// degenerate single-item window, 32 overshoots the slot count.
const WINDOWS: [usize; 5] = [0, 1, 2, 8, 32];

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 28,
        n_sites: 173, // odd: exercises non-uniform widths when sharded
        seed: 2024,
        ..Default::default()
    }
}

/// The two checkpoints every configuration is compared against:
/// likelihood after repeated full traversals, and after a smoothing pass
/// plus a from-scratch re-evaluation.
fn reference_run(data: &setup::Dataset) -> (u64, u64) {
    let mut engine = setup::inram_engine(data);
    let a = engine.full_traversals(2).unwrap();
    engine.smooth_branches(1, 6).unwrap();
    engine.invalidate_all();
    let b = engine.log_likelihood().unwrap();
    (a.to_bits(), b.to_bits())
}

fn checkpoints<S: phylo_ooc::plf::AncestralStore>(engine: &mut PlfEngine<S>) -> (u64, u64) {
    let a = engine.full_traversals(2).unwrap();
    engine.smooth_branches(1, 6).unwrap();
    engine.invalidate_all();
    let b = engine.log_likelihood().unwrap();
    (a.to_bits(), b.to_bits())
}

/// The counter identities that must survive any pipeline interleaving:
/// every request is a hit or a miss, and every miss is satisfied by
/// exactly one of a disk read, a skipped read, a cold zero-fill, or a
/// staged-buffer adoption.
fn assert_stats_consistent(s: &OocStats, ctx: &str) {
    assert_eq!(s.requests, s.hits + s.misses, "{ctx}: requests split");
    assert_eq!(
        s.misses,
        s.disk_reads + s.skipped_reads + s.cold_loads + s.staged_loads,
        "{ctx}: miss satisfaction split"
    );
}

/// Engine over a plan-driven pipeline: `io_threads` worker handles onto
/// the same backing file, each optionally wrapped in a fault injector.
fn pipelined_engine(
    data: &setup::Dataset,
    path: &Path,
    window: usize,
    kind: StrategyKind,
    io_threads: usize,
    worker_faults: &FaultPlan,
) -> PlfEngine<OocStore<PrefetchingStore<FileStore>>> {
    let main = FileStore::create(path, data.n_items(), data.width(0)).unwrap();
    let workers: Vec<_> = (0..io_threads)
        .map(|_| {
            FaultInjectingStore::new(
                FileStore::open(path, data.width(0)).unwrap(),
                worker_faults.clone(),
            )
        })
        .collect();
    let store = PrefetchingStore::with_pool(main, workers, data.n_items(), data.width(0));
    let cfg = OocConfig::builder(data.n_items(), data.width(0))
        .fraction(0.25)
        .prefetch_window(window)
        .build()
        .expect("valid out-of-core config");
    let (strategy, _) = phylo_ooc::plf::oracle::build_strategy(kind, &data.tree);
    let manager = VectorManager::new(cfg, strategy, store);
    PlfEngine::new(
        data.tree.clone(),
        data.comp(),
        data.model().clone(),
        data.alpha,
        data.n_cats,
        OocStore::new(manager),
    )
}

#[test]
fn pipelined_likelihood_bit_identical_across_windows() {
    let data = setup::simulate_dataset(&spec());
    let reference = reference_run(&data);
    let dir = tempfile::tempdir().unwrap();
    let clean = FaultPlan::none();

    for kind in [StrategyKind::Lru, StrategyKind::NextUse] {
        for (i, &window) in WINDOWS.iter().enumerate() {
            let path = dir.path().join(format!("w{window}-{i}-{kind:?}.bin"));
            let mut engine = pipelined_engine(&data, &path, window, kind, 1, &clean);
            let got = checkpoints(&mut engine);
            assert_eq!(
                got, reference,
                "window {window}, strategy {kind:?}: pipeline changed the likelihood"
            );
            let stats = *engine.store().manager().stats();
            assert_stats_consistent(&stats, &format!("window {window}, {kind:?}"));
        }
    }
}

#[test]
fn pipelined_likelihood_bit_identical_with_io_thread_pool() {
    let data = setup::simulate_dataset(&spec());
    let reference = reference_run(&data);
    let dir = tempfile::tempdir().unwrap();
    let clean = FaultPlan::none();

    for io_threads in [2, 4] {
        let path = dir.path().join(format!("pool{io_threads}.bin"));
        let mut engine = pipelined_engine(&data, &path, 8, StrategyKind::Lru, io_threads, &clean);
        let got = checkpoints(&mut engine);
        assert_eq!(
            got, reference,
            "{io_threads} I/O threads: pipeline changed the likelihood"
        );
        let stats = *engine.store().manager().stats();
        assert_stats_consistent(&stats, &format!("{io_threads} I/O threads"));
    }
}

#[test]
fn pipelined_likelihood_survives_worker_faults() {
    let data = setup::simulate_dataset(&spec());
    let reference = reference_run(&data);
    let dir = tempfile::tempdir().unwrap();

    // Roughly 15% of worker prefetch reads and 10% of folded write-backs
    // fail (deterministically, by hashed op index). Failed prefetches
    // degrade to demand reads on the clean main handle; failed folds stay
    // queued and are retried synchronously at flush/shutdown — neither
    // may change a single bit of the result.
    let faults = FaultPlan::none()
        .with(FaultRule::Random {
            op: FaultOp::Read,
            seed: 0xF00D,
            permille: 150,
            kind: FaultKind::Transient,
        })
        .with(FaultRule::Random {
            op: FaultOp::Write,
            seed: 0xBEEF,
            permille: 100,
            kind: FaultKind::Permanent,
        });

    for (i, &window) in WINDOWS.iter().enumerate() {
        if window == 0 {
            continue; // no streaming to disturb
        }
        let path = dir.path().join(format!("faulty-w{window}-{i}.bin"));
        let mut engine = pipelined_engine(&data, &path, window, StrategyKind::Lru, 2, &faults);
        let got = checkpoints(&mut engine);
        assert_eq!(
            got, reference,
            "window {window} under worker faults: pipeline changed the likelihood"
        );
        let stats = *engine.store().manager().stats();
        assert_stats_consistent(&stats, &format!("faulty window {window}"));
    }
}

#[test]
fn sharded_pipelines_bit_identical_and_stats_merge() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data).log_likelihood().unwrap();
    let dir = tempfile::tempdir().unwrap();

    for k in [2, 4] {
        let path = dir.path().join(format!("sharded-{k}.bin"));
        let mut engine = common::sharded_file(&data, &path, 0.25, StrategyKind::Lru, k, 1);
        let lnl = engine.log_likelihood().unwrap();
        assert_eq!(
            lnl.to_bits(),
            reference.to_bits(),
            "{k} shards: sharded pipeline changed the likelihood"
        );
        let merged = engine
            .ooc_stats()
            .expect("sharded OOC engine reports merged stats");
        assert_stats_consistent(&merged, &format!("{k} shards"));
        assert!(
            merged.requests > 0,
            "{k} shards: merged stats must reflect real traffic"
        );
    }
}
