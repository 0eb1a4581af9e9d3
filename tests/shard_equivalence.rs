//! Shard-equivalence suite: an engine of several column blocks must be
//! bit-identical to the serial path for every block count, merge its
//! per-block residency statistics exactly, keep both properties under
//! injected store faults with a retry layer, and recover from a fault in
//! one block without one.

mod common;

use phylo_ooc::ooc::{
    BackingStore, FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule, MemStore,
    OocConfig, OocStats, RetryPolicy, RetryingStore, StrategyKind, VectorManager,
};
use phylo_ooc::plf::{LikelihoodEngine, OocStore, PartLayout, PlfEngine};
use phylo_ooc::setup::{self, DatasetSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 24,
        n_sites: 211, // odd length: uneven shard ranges for k = 2, 4, 7
        seed: 1105,
        ..Default::default()
    }
}

/// Sharded engine over arbitrary per-shard backing stores built by `mk`
/// (the spec layer only covers Mem/File stores).
fn sharded_over<S, F>(data: &setup::Dataset, k: usize, mut mk: F) -> PlfEngine<OocStore<S>>
where
    S: BackingStore + Send,
    F: FnMut(usize) -> S,
{
    let dims = PlfEngine::<OocStore<S>>::block_dims(data.comp(), data.n_cats, k);
    let stores = dims
        .iter()
        .map(|d| {
            let cfg = OocConfig::builder(data.n_items(), d.width())
                .fraction(0.25)
                .build()
                .expect("valid out-of-core config");
            let manager = VectorManager::new(cfg, StrategyKind::Lru.build(None), mk(d.width()));
            OocStore::new(manager)
        })
        .collect();
    let layout = PartLayout {
        comp: data.comp(),
        model: data.model(),
        stores,
        recorder: None,
    };
    PlfEngine::with_layout(data.tree.clone(), vec![layout], data.alpha, data.n_cats)
}

#[test]
fn sharded_likelihood_bit_identical_for_all_shard_counts() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data)
        .log_likelihood()
        .expect("in-RAM reference cannot fail");
    let serial = common::ooc_mem(&data, 0.25, StrategyKind::Lru)
        .log_likelihood()
        .expect("serial OOC traversal failed");
    assert_eq!(serial.to_bits(), reference.to_bits());

    for k in SHARD_COUNTS {
        let mut sharded = common::sharded_mem(&data, 0.25, StrategyKind::Lru, k);
        let lnl = sharded.log_likelihood().expect("sharded traversal failed");
        assert_eq!(
            lnl.to_bits(),
            reference.to_bits(),
            "k={k}: {lnl} vs {reference}"
        );
    }
}

#[test]
fn sharded_file_regions_bit_identical_to_serial() {
    let data = setup::simulate_dataset(&spec());
    let dir = tempfile::tempdir().expect("tempdir");
    let reference = setup::inram_engine(&data)
        .log_likelihood()
        .expect("in-RAM reference cannot fail");

    for kind in [
        StrategyKind::Random { seed: 5 },
        StrategyKind::Lru,
        StrategyKind::Lfu,
        StrategyKind::Topological,
        StrategyKind::NextUse,
    ] {
        for k in SHARD_COUNTS {
            let mut sharded = common::sharded_file(
                &data,
                &dir.path().join(format!("shards_{k}.bin")),
                0.25,
                kind,
                k,
                0,
            );
            let lnl = sharded
                .log_likelihood()
                .expect("sharded file traversal failed");
            assert_eq!(lnl.to_bits(), reference.to_bits(), "{kind:?}, k={k}");
        }
    }
}

#[test]
fn sharded_search_operations_bit_identical_to_serial() {
    // The harder determinism claims: branch-length Newton (three per-site
    // accumulators), smoothing sweeps and the Brent α optimisation must
    // follow exactly the serial engine's floating-point trajectory.
    let data = setup::simulate_dataset(&spec());
    let mut serial = setup::inram_engine(&data);
    let mut sharded = common::sharded_mem(&data, 0.25, StrategyKind::Lru, 4);

    let h = serial.tree().branches().next().expect("tree has branches");
    let (z_s, l_s) = serial.optimize_branch(h, 16).expect("serial NR failed");
    let (z_p, l_p) = sharded.optimize_branch(h, 16).expect("sharded NR failed");
    assert_eq!(z_s.to_bits(), z_p.to_bits(), "NR branch length diverged");
    assert_eq!(l_s.to_bits(), l_p.to_bits(), "NR likelihood diverged");

    let sm_s = serial.smooth_branches(2, 8).expect("serial smoothing");
    let sm_p = sharded.smooth_branches(2, 8).expect("sharded smoothing");
    assert_eq!(sm_s.to_bits(), sm_p.to_bits(), "smoothing diverged");

    let (a_s, la_s) = serial.optimize_alpha(1e-3, 40).expect("serial alpha");
    let (a_p, la_p) = sharded.optimize_alpha(1e-3, 40).expect("sharded alpha");
    assert_eq!(a_s.to_bits(), a_p.to_bits(), "Brent α diverged");
    assert_eq!(la_s.to_bits(), la_p.to_bits(), "α likelihood diverged");
}

#[test]
fn merged_stats_equal_sum_of_per_shard_stats() {
    let data = setup::simulate_dataset(&spec());
    let n_items = data.n_items();
    let mut sharded = sharded_over(&data, 4, |width| MemStore::new(n_items, width));
    sharded.full_traversals(3).expect("traversals failed");

    let merged = sharded.ooc_stats().expect("merged stats");
    let sum: OocStats = sharded.stores().map(|s| *s.manager().stats()).sum();
    assert_eq!(merged, sum, "merged stats must be the exact field-wise sum");
    assert!(merged.requests > 0);
    assert!(
        merged.misses > 0,
        "a quarter-resident run must miss in at least one shard"
    );
}

#[test]
fn sharded_engine_absorbs_transient_faults_with_retry() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data)
        .log_likelihood()
        .expect("in-RAM reference cannot fail");

    let n_items = data.n_items();
    let mut sharded = sharded_over(&data, 4, |width| {
        let plan = FaultPlan::transient_reads(2, 3).with(FaultRule::Window {
            op: FaultOp::Write,
            start: 1,
            count: 2,
            kind: FaultKind::Transient,
        });
        RetryingStore::new(
            FaultInjectingStore::new(MemStore::new(n_items, width), plan),
            RetryPolicy::immediate(4),
        )
    });
    let lnl = sharded
        .log_likelihood()
        .expect("transient faults must be absorbed per shard");
    assert_eq!(
        lnl.to_bits(),
        reference.to_bits(),
        "recovery must not perturb the likelihood"
    );

    let (mut retries, mut recoveries, mut io_errors) = (0, 0, 0);
    for store in sharded.stores() {
        let mgr = store.manager();
        let r = mgr.store().retry_stats();
        retries += r.retries;
        recoveries += r.recoveries;
        assert_eq!(r.exhausted, 0);
        assert_eq!(r.permanent_failures, 0);
        io_errors += mgr.stats().io_errors;
    }
    assert!(retries > 0, "the fault schedules must have fired");
    assert!(recoveries > 0);
    assert_eq!(io_errors, 0, "no error may leak past the retry layer");
}

#[test]
fn sharded_engine_surfaces_permanent_faults() {
    let data = setup::simulate_dataset(&spec());
    let n_items = data.n_items();
    // Every shard's write-backs fail permanently; the parallel traversal
    // must surface an error, not panic or silently drop a shard.
    let mut sharded = sharded_over(&data, 4, |width| {
        let plan = FaultPlan::none().with(FaultRule::From {
            op: FaultOp::Write,
            start: 0,
            kind: FaultKind::Permanent,
        });
        FaultInjectingStore::new(MemStore::new(n_items, width), plan)
    });
    let err = sharded
        .log_likelihood()
        .expect_err("permanent write faults must surface from the sharded engine");
    assert!(err.to_string().contains("write failed"), "{err}");
}

/// One block's j-th write-back fails while its sibling's store is sound:
/// the evaluation fails, the one orientation invalidates what the failed
/// block missed for both, and the next evaluation — the fault window has
/// passed — is bit-identical to a fresh full traversal.
#[test]
fn a_fault_in_one_block_is_recomputed_in_all() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data)
        .log_likelihood()
        .expect("in-RAM reference cannot fail");
    let n_items = data.n_items();
    // Write-backs 0, 2 and 4 of a block all fall inside the combine loop.
    for j in [0, 2, 4] {
        let mut block = 0;
        let mut sharded = sharded_over(&data, 2, |width| {
            let mut plan = FaultPlan::none();
            if block == 1 {
                plan = plan.with(FaultRule::Window {
                    op: FaultOp::Write,
                    start: j,
                    count: 1,
                    kind: FaultKind::Permanent,
                });
            }
            block += 1;
            FaultInjectingStore::new(MemStore::new(n_items, width), plan)
        });
        let err = sharded
            .log_likelihood()
            .expect_err("nothing retries the failed write-back");
        assert!(err.to_string().contains("write failed"), "j={j}: {err}");
        let missed = sharded.orientation().stale().count();
        assert!(missed > 0, "j={j}: the uncomputed suffix must be stale");

        let lnl = sharded.log_likelihood().expect("the fault has passed");
        assert_eq!(lnl.to_bits(), reference.to_bits(), "j={j}");
        assert_eq!(sharded.orientation().stale().count(), 0);
        let faults: Vec<u64> = sharded
            .stores()
            .map(|s| s.manager().store().fault_stats().total_faults())
            .collect();
        assert_eq!(faults, [0, 1], "j={j}: exactly the one planned fault");
        // The sound block recomputed the missed suffix too: it is one
        // orientation, so both executed the same second plan.
        let requests: Vec<u64> = sharded
            .stores()
            .map(|s| s.manager().stats().requests)
            .collect();
        assert!(requests[0] >= requests[1], "j={j}: {requests:?}");
    }
}
