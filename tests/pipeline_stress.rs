//! Pipeline stress suite: the write-behind queue must be a pure latency
//! optimisation. Sweeping I/O thread counts and replacement strategies —
//! with and without injected worker-store faults — every configuration
//! must produce likelihoods bit-identical to the in-RAM reference, and the
//! residency statistics must stay internally consistent; and the queue
//! itself must behave like a map from item to its last written vector.

mod common;

use phylo_ooc::ooc::{
    BackingStore, FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule, FileStore, ItemId,
    OocConfig, OocStats, PrefetchingStore, StrategyKind, VectorManager,
};
use phylo_ooc::plf::{LikelihoodEngine, OocStore, PlfEngine};
use phylo_ooc::setup::{self, DatasetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;

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
/// exactly one of a disk read, a skipped read or a cold load.
fn assert_stats_consistent(s: &OocStats, ctx: &str) {
    assert_eq!(s.requests, s.hits + s.misses, "{ctx}: requests split");
    assert_eq!(
        s.misses,
        s.disk_reads + s.skipped_reads + s.cold_loads,
        "{ctx}: miss satisfaction split"
    );
}

/// Engine over a write-behind queue: `io_threads` worker handles onto
/// the same backing file, each optionally wrapped in a fault injector.
fn pipelined_engine(
    data: &setup::Dataset,
    path: &Path,
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
fn pipelined_likelihood_bit_identical_across_strategies() {
    let data = setup::simulate_dataset(&spec());
    let reference = reference_run(&data);
    let dir = tempfile::tempdir().unwrap();
    let clean = FaultPlan::none();

    for kind in [StrategyKind::Lru, StrategyKind::NextUse] {
        let path = dir.path().join(format!("{kind:?}.bin"));
        let mut engine = pipelined_engine(&data, &path, kind, 1, &clean);
        let got = checkpoints(&mut engine);
        assert_eq!(
            got, reference,
            "strategy {kind:?}: pipeline changed the likelihood"
        );
        let stats = *engine.store().manager().stats();
        assert_stats_consistent(&stats, &format!("{kind:?}"));
    }
}

#[test]
fn pipelined_likelihood_bit_identical_with_io_thread_pool() {
    let data = setup::simulate_dataset(&spec());
    let reference = reference_run(&data);
    let dir = tempfile::tempdir().unwrap();
    let clean = FaultPlan::none();

    let io_threads = 3;
    let path = dir.path().join("pool.bin");
    let mut engine = pipelined_engine(&data, &path, StrategyKind::Lru, io_threads, &clean);
    let got = checkpoints(&mut engine);
    assert_eq!(
        got, reference,
        "{io_threads} I/O threads: pipeline changed the likelihood"
    );
    let stats = *engine.store().manager().stats();
    assert_stats_consistent(&stats, &format!("{io_threads} I/O threads"));
}

#[test]
fn pipelined_likelihood_survives_worker_faults() {
    let data = setup::simulate_dataset(&spec());
    let reference = reference_run(&data);
    let dir = tempfile::tempdir().unwrap();

    // Roughly 10% of folded write-backs fail (deterministically, by hashed
    // op index). Failed folds stay queued — far more of them than the
    // queue's pool holds — and are retried synchronously on the clean main
    // handle when the pool runs dry, at flush and at shutdown; none of
    // that may change a single bit of the result.
    let faults = FaultPlan::none().with(FaultRule::Random {
        op: FaultOp::Write,
        seed: 0xBEEF,
        permille: 100,
        kind: FaultKind::Permanent,
    });

    let path = dir.path().join("faulty.bin");
    let mut engine = pipelined_engine(&data, &path, StrategyKind::Lru, 2, &faults);
    let got = checkpoints(&mut engine);
    assert_eq!(
        got, reference,
        "worker faults: pipeline changed the likelihood"
    );
    let stats = *engine.store().manager().stats();
    assert_stats_consistent(&stats, "worker faults");
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

const MODEL_ITEMS: usize = 12;
const MODEL_WIDTH: usize = 5;

/// A queue over `path` (not truncated) whose one worker fails its writes
/// as `worker_faults` says and whose demand path as `main_faults` says.
fn model_queue(
    path: &Path,
    worker_faults: FaultPlan,
    main_faults: FaultPlan,
) -> PrefetchingStore<FaultInjectingStore<FileStore>> {
    let open = || FileStore::open(path, MODEL_WIDTH).unwrap();
    let main = FaultInjectingStore::new(open(), main_faults);
    let worker = FaultInjectingStore::new(open(), worker_faults);
    PrefetchingStore::with_pool(main, vec![worker], MODEL_ITEMS, MODEL_WIDTH)
}

/// Every item of the file, through a clean handle of its own.
fn file_contents(path: &Path) -> Vec<Vec<f64>> {
    let mut file = FileStore::open(path, MODEL_WIDTH).unwrap();
    (0..MODEL_ITEMS as ItemId)
        .map(|item| {
            let mut buf = vec![0.0; MODEL_WIDTH];
            file.read(item, &mut buf).unwrap();
            buf
        })
        .collect()
}

/// The model arm: under any interleaving of `write` / `read` / `flush` /
/// drop, over a worker that loses a third of its writes, the queue is a
/// map from item to the last vector written — read-your-writes, newest
/// wins, durable after `flush`, nothing lost on drop.
#[test]
fn write_behind_queue_matches_a_map_model() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("model.bin");
    let always = |op| FaultRule::From {
        op,
        start: 0,
        kind: FaultKind::Permanent,
    };

    // A write-back that fails on the worker *and* on the demand path
    // surfaces at flush, stays readable, and is retried by the next flush.
    drop(FileStore::create(&path, MODEL_ITEMS, MODEL_WIDTH).unwrap());
    let main_fails_once = FaultPlan::none().with(FaultRule::Window {
        op: FaultOp::Write,
        start: 0,
        count: 1,
        kind: FaultKind::Permanent,
    });
    let worker_fails = FaultPlan::none().with(always(FaultOp::Write));
    let mut queue = model_queue(&path, worker_fails, main_fails_once);
    let mut buf = vec![0.0; MODEL_WIDTH];
    queue.write(7, &[7.5; MODEL_WIDTH]).unwrap();
    assert!(queue.flush().is_err(), "both handles failed the write");
    queue.read(7, &mut buf).unwrap();
    assert_eq!(buf, [7.5; MODEL_WIDTH], "still queued, still readable");
    queue.flush().unwrap();
    assert_eq!(file_contents(&path)[7], [7.5; MODEL_WIDTH]);
    drop(queue);

    for seed in 0..48u64 {
        drop(FileStore::create(&path, MODEL_ITEMS, MODEL_WIDTH).unwrap());
        let worker_faults = FaultPlan::none().with(FaultRule::Random {
            op: FaultOp::Write,
            seed,
            permille: 330,
            kind: FaultKind::Permanent,
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: HashMap<ItemId, Vec<f64>> = HashMap::new();
        let expect = |model: &HashMap<ItemId, Vec<f64>>, item: ItemId| {
            let never_written = vec![0.0; MODEL_WIDTH]; // the file is pre-sized
            model.get(&item).cloned().unwrap_or(never_written)
        };
        let mut queue = model_queue(&path, worker_faults.clone(), FaultPlan::none());
        for step in 0..200u32 {
            let item = rng.gen_range(0..MODEL_ITEMS as ItemId);
            let at = format!("seed {seed} step {step} item {item}");
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    let value = vec![(seed * 1000 + step as u64) as f64; MODEL_WIDTH];
                    queue.write(item, &value).unwrap();
                    model.insert(item, value);
                }
                5..=7 => {
                    queue.read(item, &mut buf).unwrap();
                    assert_eq!(buf, expect(&model, item), "{at}: read");
                }
                8 => {
                    queue.flush().unwrap();
                    for (i, got) in file_contents(&path).into_iter().enumerate() {
                        assert_eq!(got, expect(&model, i as ItemId), "{at}: after flush, {i}");
                    }
                }
                _ => {
                    drop(queue);
                    for (i, got) in file_contents(&path).into_iter().enumerate() {
                        assert_eq!(got, expect(&model, i as ItemId), "{at}: after drop, {i}");
                    }
                    queue = model_queue(&path, worker_faults.clone(), FaultPlan::none());
                }
            }
        }
    }
}
