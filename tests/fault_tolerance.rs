//! Fault tolerance across the whole residency stack: injected store
//! failures must surface as contextual [`OocError`]s from the engine's
//! likelihood entry points (never panics), and a retry layer must absorb
//! transient faults without changing the computed likelihood by a single
//! bit.

use phylo_ooc::ooc::{
    FaultInjectingStore, FaultKind, FaultOp, FaultPlan, FaultRule, MemStore, OocConfig, OocOp,
    RetryPolicy, RetryingStore, StrategyKind, VectorManager,
};
use phylo_ooc::plf::{OocStore, PlfEngine};
use phylo_ooc::setup::{self, DatasetSpec};

fn spec() -> DatasetSpec {
    DatasetSpec {
        n_taxa: 24,
        n_sites: 150,
        seed: 404,
        ..Default::default()
    }
}

fn engine_over<S: phylo_ooc::ooc::BackingStore>(
    data: &setup::Dataset,
    store: S,
) -> PlfEngine<OocStore<S>> {
    // A quarter of the vectors in RAM: evictions (store writes) and
    // reloads (store reads) both happen during a single traversal.
    let cfg = OocConfig::builder(data.n_items(), data.width(0))
        .fraction(0.25)
        .build()
        .expect("valid out-of-core config");
    let manager = VectorManager::new(cfg, StrategyKind::Lru.build(None), store);
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
fn permanent_write_fault_surfaces_contextual_error() {
    let data = setup::simulate_dataset(&spec());
    // Every eviction write-back fails permanently.
    let plan = FaultPlan::none().with(FaultRule::From {
        op: FaultOp::Write,
        start: 0,
        kind: FaultKind::Permanent,
    });
    let store = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), plan);
    let mut engine = engine_over(&data, store);

    let err = engine
        .log_likelihood()
        .expect_err("all write-backs fail: the likelihood run must error");
    assert_eq!(err.op, OocOp::Write);
    assert!(err.item.is_some(), "eviction errors must name the item");
    assert!(!err.is_transient());
    let msg = err.to_string();
    assert!(msg.contains("write failed"), "{msg}");
    assert!(msg.contains("for item"), "{msg}");
    assert!(msg.contains("eviction write-back"), "{msg}");
    // The manager counted the failure.
    assert!(engine.store().manager().stats().io_errors > 0);
}

#[test]
fn permanent_read_fault_surfaces_contextual_error() {
    let data = setup::simulate_dataset(&spec());
    // Let the first traversal's writes through, then fail every read.
    let plan = FaultPlan::none().with(FaultRule::From {
        op: FaultOp::Read,
        start: 0,
        kind: FaultKind::Permanent,
    });
    let store = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), plan);
    let mut engine = engine_over(&data, store);

    // Re-rooting reads valid vectors the traversal before has evicted.
    let err = (0..data.tree.n_tips() as u32)
        .find_map(|t| {
            let root = data.tree.tip_half_edge(t);
            engine.log_likelihood_at(root, false).err()
        })
        .expect("reloads fail: a re-rooted evaluation must error");
    assert_eq!(err.op, OocOp::Read);
    assert!(err.item.is_some());
    assert!(err.to_string().contains("slot load"), "{}", err);
}

/// A traversal that fails part-way must not leave the vectors it never
/// computed marked valid: with no retry layer, one failed write-back
/// mid-traversal surfaces as the `Err`, and once the fault has cleared the
/// same engine recomputes what is missing and agrees with the in-RAM
/// engine to the bit.
#[test]
fn failed_traversal_is_recomputed_not_trusted() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data)
        .log_likelihood()
        .expect("in-RAM reference cannot fail");

    // The third store write fails, once: evictions start after the first
    // few stored combines (half the vectors are rebuilt, never written),
    // so this is the middle of the first traversal.
    let plan = FaultPlan::none().with(FaultRule::Window {
        op: FaultOp::Write,
        start: 2,
        count: 1,
        kind: FaultKind::Transient,
    });
    let store = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), plan);
    let mut engine = engine_over(&data, store);

    let err = engine
        .log_likelihood()
        .expect_err("nothing retries the failed write-back");
    assert_eq!(err.op, OocOp::Write);
    assert!(
        engine.orientation().stale().count() > 0,
        "the uncomputed suffix must be stale"
    );

    let lnl = engine
        .log_likelihood()
        .expect("the fault window has passed");
    assert_eq!(
        lnl.to_bits(),
        reference.to_bits(),
        "the retried traversal must recompute, not trust: {lnl} vs {reference}"
    );
    assert_eq!(engine.orientation().stale().count(), 0);
    let faults = engine.store().manager().store().fault_stats();
    assert_eq!(faults.total_faults(), 1, "exactly the one planned fault");
}

#[test]
fn retrying_store_recovers_transient_faults_bit_exactly() {
    let data = setup::simulate_dataset(&spec());
    let reference = setup::inram_engine(&data)
        .log_likelihood()
        .expect("in-RAM reference cannot fail");

    // Transient fault windows on both op classes. A retry re-issues the
    // operation under the next fault index, so a window of three costs at
    // most three retries before escaping it.
    let plan = FaultPlan::transient_reads(2, 3).with(FaultRule::Window {
        op: FaultOp::Write,
        start: 1,
        count: 2,
        kind: FaultKind::Transient,
    });
    let faulty = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), plan);
    let store = RetryingStore::new(faulty, RetryPolicy::immediate(4));
    let mut engine = engine_over(&data, store);

    let lnl = engine
        .log_likelihood()
        .expect("transient faults must be absorbed by the retry layer");
    assert_eq!(
        lnl.to_bits(),
        reference.to_bits(),
        "recovery must not perturb the likelihood: {lnl} vs {reference}"
    );

    let retry = engine.store().manager().store().retry_stats();
    assert!(
        retry.retries > 0,
        "the schedule must have triggered retries"
    );
    assert!(retry.recoveries > 0, "faults must have been recovered");
    assert_eq!(retry.exhausted, 0);
    assert_eq!(retry.permanent_failures, 0);
    let faults = engine.store().manager().store().inner().fault_stats();
    assert!(
        faults.total_faults() > 0,
        "the plan must actually have fired"
    );
    // And no error ever leaked into the manager's counters.
    assert_eq!(engine.store().manager().stats().io_errors, 0);
}

/// A transfer that succeeds only after retries must count ONCE in the
/// manager's `OocStats`: the same workload run fault-free and run through
/// a transient fault plan + retry layer must report identical residency
/// counters, with the extra attempts visible only in the fault injector's
/// own attempt counts and the retry layer's `retried_ops`.
#[test]
fn retried_operations_do_not_double_count_in_ooc_stats() {
    let data = setup::simulate_dataset(&spec());

    // Fault-free baseline over the identical store stack shape.
    let clean = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), {
        FaultPlan::none()
    });
    let clean = RetryingStore::new(clean, RetryPolicy::immediate(4));
    let mut baseline = engine_over(&data, clean);
    let lnl_ref = baseline.log_likelihood().expect("baseline cannot fault");
    let stats_ref = *baseline.store().manager().stats();

    // Same workload with transient fault windows on reads and writes.
    let plan = FaultPlan::transient_reads(2, 3).with(FaultRule::Window {
        op: FaultOp::Write,
        start: 1,
        count: 2,
        kind: FaultKind::Transient,
    });
    let faulty = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), plan);
    let store = RetryingStore::new(faulty, RetryPolicy::immediate(4));
    let mut engine = engine_over(&data, store);
    let lnl = engine.log_likelihood().expect("transient faults absorbed");
    assert_eq!(lnl.to_bits(), lnl_ref.to_bits());

    let stats = *engine.store().manager().stats();
    assert_eq!(
        stats, stats_ref,
        "an op that succeeded after retries must still be ONE disk_read / \
         disk_write — retries may not leak into the residency counters"
    );

    let retry = engine.store().manager().store().retry_stats();
    assert!(retry.retried_ops > 0, "schedule must have retried some ops");
    assert!(
        retry.retries >= retry.retried_ops,
        "each retried op costs at least one retry attempt"
    );

    // The extra attempts are visible below the retry layer: the injector
    // saw more read+write attempts than the manager counted successes.
    let faults = engine.store().manager().store().inner().fault_stats();
    assert!(faults.total_faults() > 0, "the plan must actually fire");
    assert!(
        faults.reads + faults.writes > stats.disk_reads + stats.disk_writes,
        "attempts below the retry layer ({} + {}) must exceed counted \
         transfers ({} + {})",
        faults.reads,
        faults.writes,
        stats.disk_reads,
        stats.disk_writes
    );
}

#[test]
fn retrying_store_gives_up_on_permanent_faults() {
    let data = setup::simulate_dataset(&spec());
    let plan = FaultPlan::none().with(FaultRule::From {
        op: FaultOp::Write,
        start: 0,
        kind: FaultKind::Permanent,
    });
    let faulty = FaultInjectingStore::new(MemStore::new(data.n_items(), data.width(0)), plan);
    let store = RetryingStore::new(faulty, RetryPolicy::immediate(4));
    let mut engine = engine_over(&data, store);

    let err = engine
        .log_likelihood()
        .expect_err("permanent faults must not be retried into success");
    assert_eq!(err.op, OocOp::Write);
    let retry = engine.store().manager().store().retry_stats();
    assert_eq!(retry.retries, 0, "permanent errors are not worth retrying");
    assert!(retry.permanent_failures > 0);
}
